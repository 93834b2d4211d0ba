package zmap_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"followscent/internal/ip6"
	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

// TestScanOverUDP runs the full wire path: the prober sends byte-exact
// IPv6+ICMPv6 packets over a real UDP socket to a simnetd-style server,
// which answers with byte-exact responses. Checksums, parsing and the
// engine's receive pipeline are all exercised across an OS socket.
func TestScanOverUDP(t *testing.T) {
	w := simnet.TestWorld(61)

	conn, err := simnet.ListenUDP(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := w.ServeUDP(ctx, conn, 0); err != nil {
			t.Errorf("server: %v", err)
		}
	}()
	defer func() {
		cancel()
		wg.Wait()
		conn.Close()
	}()

	p, _ := w.ProviderByASN(65001)
	pool := p.Pools[0]
	ts, err := zmap.NewSubnetTargets([]ip6.Prefix{pool.Prefix}, 56, 9)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := zmap.DialUDP(conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	euis := map[uint64]bool{}
	stats, err := zmap.ScanWorkers(ctx, func(int) (zmap.Transport, error) { return tr, nil }, ts, zmap.Config{
		Source:   ip6.MustParseAddr("2620:11f:7000::53"),
		Seed:     17,
		Workers:  1,
		Rate:     50000, // pace gently: loopback UDP still drops on bursts
		Cooldown: 300 * time.Millisecond,
	}, func(r zmap.Result) {
		if ip6.AddrIsEUI64(r.From) {
			mu.Lock()
			euis[r.From.IID()] = true
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != 256 {
		t.Fatalf("sent %d", stats.Sent)
	}
	if stats.Matched == 0 {
		t.Fatal("no validated responses over UDP")
	}
	if stats.Invalid != 0 {
		t.Fatalf("%d invalid packets over UDP", stats.Invalid)
	}
	mu.Lock()
	n := len(euis)
	mu.Unlock()
	// ~115 responsive EUI devices; UDP may drop a few under load but the
	// vast majority must arrive.
	if n < 50 {
		t.Fatalf("only %d EUI IIDs over UDP", n)
	}
	// Cross-check against the in-process transport: the same scan through
	// the loopback must find a superset-or-equal set.
	got := 0
	_, err = zmap.ScanWorkers(context.Background(), func(int) (zmap.Transport, error) { return zmap.NewLoopback(w, 0), nil }, ts,
		zmap.Config{Source: ip6.MustParseAddr("2620:11f:7000::53"), Seed: 17, Workers: 1}, func(r zmap.Result) {
			if ip6.AddrIsEUI64(r.From) {
				got++
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if got < n {
		t.Fatalf("loopback found %d EUI responses < UDP's %d", got, n)
	}
}
