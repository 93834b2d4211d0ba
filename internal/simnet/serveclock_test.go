package simnet

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"followscent/internal/wire"
)

// TestServeClock: SetClock moves a served world's clock to the absolute
// instant sent — before Epoch too, as the seed campaign's wound-back
// clock needs — and a malformed request (unknown op, zero time) is
// refused without touching the clock, which SetClock reports as
// ErrClockRequest.
func TestServeClock(t *testing.T) {
	w := TestWorld(1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.ServeClock(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeClock: %v", err)
		}
	}()
	addr := ln.Addr().String()

	for _, at := range []time.Time{
		Epoch.Add(3*24*time.Hour + 5*time.Hour),
		Epoch.Add(-400 * 24 * time.Hour),
		Epoch.Add(-400 * 24 * time.Hour), // idempotent
	} {
		if err := SetClock(addr, at); err != nil {
			t.Fatal(err)
		}
		if got := w.Clock().Now(); !got.Equal(at) {
			t.Fatalf("clock = %v after SetClock(%v)", got, at)
		}
	}
	set := w.Clock().Now()

	c, err := wire.Dial[clockRequest, string](addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		name string
		req  clockRequest
	}{
		{"unknown op", clockRequest{Op: "advance", T: Epoch}},
		{"no op", clockRequest{T: Epoch}},
		{"zero time", clockRequest{Op: "set"}},
	} {
		refusal, err := c.Do(tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if refusal == "" {
			t.Errorf("%s: accepted", tc.name)
		}
		if got := w.Clock().Now(); !got.Equal(set) {
			t.Fatalf("%s moved the clock to %v", tc.name, got)
		}
	}
	if err := SetClock(addr, time.Time{}); !errors.Is(err, ErrClockRequest) {
		t.Errorf("SetClock(zero time) = %v, want ErrClockRequest", err)
	}
	if got := w.Clock().Now(); !got.Equal(set) {
		t.Fatalf("a refused SetClock moved the clock to %v", got)
	}
}

// TestNonZeroTimescaleRefused: ServeUDP keeps its timescale parameter
// only for old callers; anything but 0 is refused before serving.
func TestNonZeroTimescaleRefused(t *testing.T) {
	conn, err := ListenUDP(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := TestWorld(1).ServeUDP(ctx, conn, 86400); !errors.Is(err, ErrTimescale) {
		t.Fatalf("ServeUDP(timescale 86400) = %v, want ErrTimescale", err)
	}
}
