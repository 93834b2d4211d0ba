package zmap

import (
	"context"
	"errors"
	"io"
	"sync"
	"testing"

	"followscent/internal/icmp6"
	"followscent/internal/ip6"
)

// faultTransport injects failures: Send errors after sendOK packets;
// Recv optionally delivers garbage before failing.
type faultTransport struct {
	mu      sync.Mutex
	sendOK  int
	sent    int
	garbage [][]byte
	closed  chan struct{}
	once    sync.Once
}

func newFaultTransport(sendOK int, garbage [][]byte) *faultTransport {
	return &faultTransport{sendOK: sendOK, garbage: garbage, closed: make(chan struct{})}
}

func (f *faultTransport) Send(pkt []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sent++
	if f.sent > f.sendOK {
		return errors.New("injected send failure")
	}
	return nil
}

func (f *faultTransport) Recv(buf []byte) (int, error) {
	f.mu.Lock()
	if len(f.garbage) > 0 {
		g := f.garbage[0]
		f.garbage = f.garbage[1:]
		f.mu.Unlock()
		return copy(buf, g), nil
	}
	f.mu.Unlock()
	<-f.closed
	return 0, io.EOF
}

func (f *faultTransport) Close() error {
	f.once.Do(func() { close(f.closed) })
	return nil
}

func TestScanSurfacesSendFailure(t *testing.T) {
	ts := AddrTargets{
		ip6.MustParseAddr("2001:db8::1"),
		ip6.MustParseAddr("2001:db8::2"),
		ip6.MustParseAddr("2001:db8::3"),
	}
	tr := newFaultTransport(1, nil)
	stats, err := ScanWorkers(context.Background(), soleTransport(tr), ts, Config{Source: vantage, Workers: 1}, nil)
	if err == nil {
		t.Fatal("send failure not surfaced")
	}
	if stats.Sent != 1 {
		t.Fatalf("sent = %d, want 1 before the fault", stats.Sent)
	}
}

func TestScanCountsGarbageAsInvalid(t *testing.T) {
	// Garbage and unvalidatable-but-parseable packets are dropped and
	// counted, never delivered to the handler.
	junk := [][]byte{
		{0x01, 0x02, 0x03},
		make([]byte, 60), // version 0: not IPv6
		icmp6.AppendEchoReply(nil, ip6.MustParseAddr("2001:db8::9"), vantage, 0x1234, 0, nil), // bad id
	}
	tr := newFaultTransport(1<<30, junk)
	calls := 0
	stats, err := ScanWorkers(context.Background(), soleTransport(tr), AddrTargets{ip6.MustParseAddr("2001:db8::1")},
		Config{Source: vantage, Workers: 1}, func(Result) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("handler called %d times on garbage", calls)
	}
	if stats.Invalid != uint64(len(junk)) {
		t.Fatalf("invalid = %d, want %d", stats.Invalid, len(junk))
	}
}

func TestLoopbackClosedSend(t *testing.T) {
	w := struct{ Responder }{}
	_ = w
	l := NewLoopback(respondNever{}, 4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Send([]byte{1}); err == nil {
		t.Fatal("send on closed loopback succeeded")
	}
	// Double close is safe.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Recv(make([]byte, 16)); err != io.EOF {
		t.Fatalf("recv after close = %v, want EOF", err)
	}
}

type respondNever struct{}

func (respondNever) HandlePacket(req, buf []byte) ([]byte, bool) { return buf, false }

func TestDialUDPBadAddress(t *testing.T) {
	if _, err := DialUDP("not-an-address:::"); err == nil {
		t.Fatal("DialUDP accepted garbage address")
	}
}
