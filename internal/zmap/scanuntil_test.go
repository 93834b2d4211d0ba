package zmap_test

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"followscent/internal/ip6"
	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

// TestScanUntilDeterministic pins ScanUntil's contract: the find and its
// probe count are a function of the permutation alone — equal for every
// worker count, ring width and transport. The pool allocates /56s and is
// probed per /58, so up to four targets elicit each CPE: the responder
// searched for answers several probes, in whatever order the workers
// reach them, and the one of lowest rank must win every time. The
// expected answer is derived without the engine's rank arithmetic: a
// full scan maps targets to responders, and a replay of the bare cycle
// finds the first target of the scan order that reaches the responder.
func TestScanUntilDeterministic(t *testing.T) {
	const worldSeed, seed, salt = 61, 17, 5
	source := ip6.MustParseAddr("2620:11f:7000::53")
	pool := simnet.TestWorld(worldSeed).Providers()[0].Pools[0]
	ts, err := zmap.NewSubnetTargets([]ip6.Prefix{pool.Prefix}, 58, 9)
	if err != nil {
		t.Fatal(err)
	}

	loopback := func(w *simnet.World) func() (zmap.Transport, error) {
		return func() (zmap.Transport, error) { return zmap.NewLoopback(w, 0), nil }
	}
	byTarget := map[ip6.Addr]zmap.Result{}
	full := &zmap.Scanner{NewTransport: loopback(simnet.TestWorld(worldSeed)), Config: zmap.Config{Source: source, Seed: seed, Workers: 1}}
	if _, err := full.Scan(context.Background(), ts, salt, func(r zmap.Result) {
		r.Worker = 0
		byTarget[r.Target] = r
	}); err != nil {
		t.Fatal(err)
	}
	cyc, err := zmap.NewCycle(ts.Len(), zmap.ScanSeed(seed, salt))
	if err != nil {
		t.Fatal(err)
	}
	var order []ip6.Addr
	reach := map[ip6.Addr]int{} // responder -> targets that elicit it
	for i, ok := cyc.Next(); ok; i, ok = cyc.Next() {
		order = append(order, ts.At(i))
		if r, ok := byTarget[ts.At(i)]; ok {
			reach[r.From]++
		}
	}
	// The responder to search for: the last one in scan order that several
	// targets reach, so the find sits deep in the walk and has rivals.
	var want zmap.Result
	var wantCount uint64
	for i := len(order) - 1; i >= 0 && wantCount == 0; i-- {
		if r, ok := byTarget[order[i]]; ok && reach[r.From] >= 2 {
			for j, a := range order {
				if first, ok := byTarget[a]; ok && first.From == r.From {
					want, wantCount = first, uint64(j)+1
					break
				}
			}
		}
	}
	t.Logf("find: %+v after %d of %d probes, %d targets reach it", want, wantCount, ts.Len(), reach[want.From])
	if wantCount < 64 {
		t.Fatalf("fixture: the find costs %d probes, too shallow to exercise a stop", wantCount)
	}

	cases := []struct {
		name  string
		match func(zmap.Result) bool
		want  *zmap.Result
		count uint64
	}{
		{"shared-responder", func(r zmap.Result) bool { return r.From == want.From }, &want, wantCount},
		{"no-match", func(zmap.Result) bool { return false }, nil, ts.Len()},
	}
	for _, transport := range []string{"loopback", "udp"} {
		for _, workers := range []int{1, 2, 4} {
			for _, batch := range []int{0, 64} {
				for _, c := range cases {
					label := fmt.Sprintf("%s workers=%d batch=%d %s", transport, workers, batch, c.name)
					// A fresh world per scan, as in the equivalence tests.
					w := simnet.TestWorld(worldSeed)
					sc := &zmap.Scanner{NewTransport: loopback(w), Config: zmap.Config{Source: source, Seed: seed, Workers: workers, Batch: batch}}
					if transport == "udp" {
						addr := serveUDP(t, w)
						sc.NewTransport = func() (zmap.Transport, error) { return zmap.DialUDP(addr) }
						sc.Config.Rate, sc.Config.Cooldown = 20000, 300*time.Millisecond
					}
					got, count, stats, err := sc.ScanUntil(context.Background(), ts, salt, c.match)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if count != c.count {
						t.Errorf("%s: %d probes, want %d", label, count, c.count)
					}
					if (got == nil) != (c.want == nil) || (got != nil && *got != *c.want) {
						t.Errorf("%s: found %+v, want %+v", label, got, c.want)
					}
					if stats.Sent < count {
						t.Errorf("%s: sent %d, fewer than the %d probes reported", label, stats.Sent, count)
					}
					if transport == "loopback" && workers == 1 && batch == 0 && stats.Sent != count {
						t.Errorf("%s: sent %d, want exactly %d", label, stats.Sent, count)
					}
				}
			}
		}
	}
}

// TestScanUntilNeedsOneProbePerTarget: a find is ranked by its target,
// so a module that probes a target at more than one position is
// refused.
func TestScanUntilNeedsOneProbePerTarget(t *testing.T) {
	w := simnet.TestWorld(61)
	sc := &zmap.Scanner{
		NewTransport: func() (zmap.Transport, error) { return zmap.NewLoopback(w, 0), nil },
		Config: zmap.Config{Source: ip6.MustParseAddr("2620:11f:7000::53"),
			Module: zmap.TCPSynModule{Ports: 2}},
	}
	ts := zmap.AddrTargets{ip6.MustParseAddr("2001:db8:10::1")}
	if _, _, _, err := sc.ScanUntil(context.Background(), ts, 0, func(zmap.Result) bool { return true }); err == nil {
		t.Fatal("ScanUntil accepted a two-position module")
	}
}

// serveUDP serves w on a loopback socket until the test ends and
// returns the address to dial.
func serveUDP(t *testing.T, w *simnet.World) string {
	t.Helper()
	conn, err := simnet.ListenUDP(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.ServeUDP(ctx, conn, 0) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeUDP: %v", err)
		}
		conn.Close()
	})
	return conn.LocalAddr().String()
}
