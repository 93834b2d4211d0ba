package zmap

import (
	"context"
	"sync"
	"testing"
	"time"

	"followscent/internal/icmp6"
	"followscent/internal/ip6"
	"followscent/internal/simnet"
)

var vantage = ip6.MustParseAddr("2001:db8:ffff::53")

// loopbackFactory gives every scan worker its own loopback onto w.
func loopbackFactory(w *simnet.World) TransportFactory {
	return func(int) (Transport, error) { return NewLoopback(w, 0), nil }
}

// soleTransport hands tr to a one-worker scan.
func soleTransport(tr Transport) TransportFactory {
	return func(int) (Transport, error) { return tr, nil }
}

func TestSubnetTargets(t *testing.T) {
	prefixes := []ip6.Prefix{
		ip6.MustParsePrefix("2001:db8:1::/48"),
		ip6.MustParsePrefix("2001:db8:2::/56"),
	}
	ts, err := NewSubnetTargets(prefixes, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(65536 + 256)
	if ts.Len() != want {
		t.Fatalf("Len = %d, want %d", ts.Len(), want)
	}
	// First prefix's indices map inside it, later ones inside the second.
	if !prefixes[0].Contains(ts.At(0)) || !prefixes[0].Contains(ts.At(65535)) {
		t.Error("first prefix targets misplaced")
	}
	if !prefixes[1].Contains(ts.At(65536)) || !prefixes[1].Contains(ts.At(want-1)) {
		t.Error("second prefix targets misplaced")
	}
	// Each target lands in its own /64.
	a, b := ts.At(5), ts.At(6)
	if a.Slash64() == b.Slash64() {
		t.Error("adjacent targets share a /64")
	}
	// Deterministic across instances with the same seed.
	ts2, _ := NewSubnetTargets(prefixes, 64, 7)
	for _, i := range []uint64{0, 100, 65536, want - 1} {
		if ts.At(i) != ts2.At(i) {
			t.Fatalf("At(%d) differs across instances", i)
		}
	}
	// Different seed, different IIDs.
	ts3, _ := NewSubnetTargets(prefixes, 64, 8)
	if ts.At(0) == ts3.At(0) {
		t.Error("seed ignored")
	}
}

func TestSubnetTargetsErrors(t *testing.T) {
	if _, err := NewSubnetTargets(nil, 64, 1); err == nil {
		t.Error("empty prefix list accepted")
	}
	p := []ip6.Prefix{ip6.MustParsePrefix("2001:db8::/64")}
	if _, err := NewSubnetTargets(p, 56, 1); err == nil {
		t.Error("sub-prefix shorter than prefix accepted")
	}
}

func TestScanLoopbackEndToEnd(t *testing.T) {
	w := simnet.TestWorld(21)
	p, _ := w.ProviderByASN(65001)
	pool := p.Pools[0] // /48, /56 allocations, ~50% occupied

	ts, err := NewSubnetTargets([]ip6.Prefix{pool.Prefix}, 56, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := map[ip6.Addr]Result{}
	stats, err := ScanWorkers(context.Background(), loopbackFactory(w), ts, Config{
		Source:  vantage,
		Seed:    99,
		Workers: 1,
	}, func(r Result) {
		mu.Lock()
		got[r.From] = r
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != 256 {
		t.Fatalf("sent %d probes, want 256 (one per /56)", stats.Sent)
	}
	if stats.Invalid != 0 {
		t.Fatalf("%d invalid packets", stats.Invalid)
	}
	// Roughly half the blocks are occupied and nearly all CPE respond.
	responsive := 0
	for i := range pool.CPEs() {
		if !pool.CPEs()[i].Silent {
			responsive++
		}
	}
	if len(got) < responsive*8/10 {
		t.Fatalf("discovered %d CPE, want most of %d", len(got), responsive)
	}
	// Every response source is either a CPE WAN address inside the pool
	// or a border router answering from transit space for an unoccupied
	// block (which the paper's analyses filter out as non-EUI).
	for from, r := range got {
		if simnet.TransitPrefix.Contains(from) {
			if r.Code != icmp6.CodeNoRoute {
				t.Fatalf("transit response with code %d", r.Code)
			}
			continue
		}
		if !pool.Prefix.Contains(from) {
			t.Fatalf("response from %s outside pool", from)
		}
	}
	if stats.Matched != stats.Received {
		t.Fatalf("matched %d != received %d", stats.Matched, stats.Received)
	}
}

func TestScanFindsEUIAddresses(t *testing.T) {
	w := simnet.TestWorld(22)
	p, _ := w.ProviderByASN(65001)
	pool := p.Pools[0]
	ts, _ := NewSubnetTargets([]ip6.Prefix{pool.Prefix}, 56, 2)
	euis := map[uint64]bool{}
	_, err := ScanWorkers(context.Background(), loopbackFactory(w), ts, Config{Source: vantage, Seed: 3, Workers: 1},
		func(r Result) {
			if ip6.AddrIsEUI64(r.From) {
				euis[r.From.IID()] = true
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(euis) < 50 {
		t.Fatalf("found only %d EUI-64 IIDs", len(euis))
	}
	// They decode to the MACs of real pool CPE.
	macs := map[ip6.MAC]bool{}
	for i := range pool.CPEs() {
		macs[pool.CPEs()[i].MAC] = true
	}
	for iid := range euis {
		m, ok := ip6.MACFromEUI64(iid)
		if !ok || !macs[m] {
			t.Fatalf("EUI IID %#x does not belong to a pool CPE", iid)
		}
	}
}

func TestScanSharding(t *testing.T) {
	w := simnet.TestWorld(23)
	p, _ := w.ProviderByASN(65001)
	ts, _ := NewSubnetTargets([]ip6.Prefix{p.Pools[0].Prefix}, 56, 4)

	var all []Stats
	totalSent := uint64(0)
	seen := map[ip6.Addr]int{}
	var mu sync.Mutex
	for shard := 0; shard < 3; shard++ {
		st, err := ScanWorkers(context.Background(), loopbackFactory(w), ts, Config{
			Source: vantage, Seed: 5, Shard: shard, Shards: 3, Workers: 1,
		}, func(r Result) {
			mu.Lock()
			seen[r.Target]++
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, st)
		totalSent += st.Sent
	}
	if totalSent != 256 {
		t.Fatalf("shards sent %d total, want 256", totalSent)
	}
	for target, n := range seen {
		if n != 1 {
			t.Fatalf("target %s probed by %d shards", target, n)
		}
	}
	_ = all
}

// TestScanShardValidation covers the configurations a scan refuses
// before it opens a transport or sends a probe.
func TestScanShardValidation(t *testing.T) {
	w := simnet.TestWorld(24)
	for _, tc := range []struct {
		name string
		ts   TargetSet
		cfg  Config
		want string
	}{
		{"shard out of range", AddrTargets{vantage}, Config{Shard: 5, Shards: 3}, "zmap: shard 5 of 3 out of range"},
		{"empty targets", AddrTargets{}, Config{}, "zmap: empty target set"},
		{"empty sweep", AddrTargets{}, Config{Module: TCPSynModule{Ports: 7}}, "zmap: empty target set"},
	} {
		opened := 0
		_, err := ScanWorkers(context.Background(), func(int) (Transport, error) {
			opened++
			return NewLoopback(w, 0), nil
		}, tc.ts, tc.cfg, nil)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if opened != 0 {
			t.Errorf("%s: %d transports opened before the refusal", tc.name, opened)
		}
	}
}

func TestScanContextCancel(t *testing.T) {
	w := simnet.TestWorld(25)
	p, _ := w.ProviderByASN(65001)
	ts, _ := NewSubnetTargets([]ip6.Prefix{p.Allocations[0]}, 64, 1) // 4B targets? No: /32 at /64 = 2^32... too big for Cycle
	_ = ts
	// Use a moderate set and cancel immediately.
	ts2, _ := NewSubnetTargets([]ip6.Prefix{p.Pools[0].Prefix}, 64, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := ScanWorkers(ctx, loopbackFactory(w), ts2, Config{Source: vantage, Workers: 1}, nil)
	if err == nil {
		t.Fatal("cancelled scan returned nil error")
	}
	if st.Sent > 1 {
		t.Fatalf("cancelled scan sent %d probes", st.Sent)
	}
}

func TestScanProbesPerTarget(t *testing.T) {
	w := simnet.TestWorld(26)
	p, _ := w.ProviderByASN(65001)
	pool := p.Pools[0]
	var c *simnet.CPE
	for i := range pool.CPEs() {
		if !pool.CPEs()[i].Silent {
			c = &pool.CPEs()[i]
			break
		}
	}
	wan := pool.WANAddrNow(c)
	ts := AddrTargets{wan}
	count := 0
	st, err := ScanWorkers(context.Background(), loopbackFactory(w), ts, Config{
		Source: vantage, ProbesPerTarget: 3, Seed: 1, Workers: 1,
	}, func(r Result) {
		if !r.IsEcho() {
			t.Errorf("probe to WAN returned %s", icmp6.TypeName(r.Type, r.Code))
		}
		count++
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != 3 || count != 3 {
		t.Fatalf("sent %d, received %d, want 3/3", st.Sent, count)
	}
}

// echoValidateRaw parses then validates, the path the engine's deliver
// stage takes for each inbound packet.
func echoValidateRaw(t *testing.T, b []byte, seed uint64) (Result, bool) {
	t.Helper()
	var pkt icmp6.Packet
	if err := pkt.Unmarshal(b); err != nil {
		return Result{}, false
	}
	return EchoModule{}.Validate(&Config{Seed: seed}, &pkt)
}

func TestValidateRejectsForged(t *testing.T) {
	target := ip6.MustParseAddr("2001:db8:1:2::3")
	attacker := ip6.MustParseAddr("2001:db8:bad::1")

	// Echo reply with wrong validation id.
	forged := icmp6.AppendEchoReply(nil, target, vantage, 0xffff, 0, nil)
	if _, ok := echoValidateRaw(t, forged, 1); ok {
		t.Error("forged echo reply validated")
	}
	// Correct id validates.
	good := icmp6.AppendEchoReply(nil, target, vantage, validationID(1, target), 0, nil)
	if _, ok := echoValidateRaw(t, good, 1); !ok {
		t.Error("genuine echo reply rejected")
	}
	// Error quoting a non-echo packet.
	h := icmp6.Header{PayloadLen: 0, NextHeader: 17, HopLimit: 1, Src: vantage, Dst: target}
	raw := make([]byte, icmp6.HeaderLen)
	h.MarshalTo(raw)
	errPkt := icmp6.AppendError(nil, icmp6.TypeDestinationUnreachable, 0, attacker, vantage, raw)
	if _, ok := echoValidateRaw(t, errPkt, 1); ok {
		t.Error("error quoting non-ICMPv6 packet validated")
	}
	// Error quoting a probe with a mismatched id.
	probe := icmp6.AppendEchoRequest(nil, vantage, target, 0x1234, 0, nil)
	errPkt2 := icmp6.AppendError(nil, icmp6.TypeDestinationUnreachable, 0, attacker, vantage, probe)
	if _, ok := echoValidateRaw(t, errPkt2, 1); ok {
		t.Error("error with wrong probe id validated")
	}
	// Error quoting a genuine probe validates and recovers the target.
	probe = icmp6.AppendEchoRequest(nil, vantage, target, validationID(1, target), 2, nil)
	errPkt3 := icmp6.AppendError(nil, icmp6.TypeTimeExceeded, 0, attacker, vantage, probe)
	res, ok := echoValidateRaw(t, errPkt3, 1)
	if !ok || res.Target != target || res.From != attacker || res.Seq != 2 {
		t.Errorf("validate = %+v, %v", res, ok)
	}
}

// TestEchoModuleHonorsHopLimit pins the (previously silently ignored)
// Config.HopLimit to the probe's IPv6 hop-limit byte.
func TestEchoModuleHonorsHopLimit(t *testing.T) {
	ts := AddrTargets{ip6.MustParseAddr("2001:db8::7")}
	for _, hl := range []int{0, 5, 200} {
		tr := newRecTransport()
		if _, err := ScanWorkers(context.Background(), soleTransport(tr), ts, Config{Source: vantage, HopLimit: hl, Seed: 4, Workers: 1}, nil); err != nil {
			t.Fatal(err)
		}
		want := byte(hl)
		if hl == 0 {
			want = 64
		}
		tr.mu.Lock()
		got := tr.pkts[0][7]
		tr.mu.Unlock()
		if got != want {
			t.Fatalf("HopLimit=%d: probe hop-limit byte %d, want %d", hl, got, want)
		}
	}
}

func TestPacerRate(t *testing.T) {
	p := newPacer(10000)
	start := time.Now()
	for i := 0; i < 100; i++ {
		p.wait()
	}
	elapsed := time.Since(start)
	if elapsed < 8*time.Millisecond {
		t.Errorf("100 probes at 10kpps took %s, want >=~10ms", elapsed)
	}
	// Unpaced: immediate.
	p0 := newPacer(0)
	start = time.Now()
	for i := 0; i < 1000; i++ {
		p0.wait()
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Error("unpaced pacer slept")
	}
}

func BenchmarkScanLoopback(b *testing.B) {
	w := simnet.TestWorld(27)
	p, _ := w.ProviderByASN(65001)
	ts, _ := NewSubnetTargets([]ip6.Prefix{p.Pools[0].Prefix}, 56, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := ScanWorkers(context.Background(), loopbackFactory(w), ts, Config{Source: vantage, Seed: uint64(i), Workers: 1}, func(Result) {})
		if err != nil {
			b.Fatal(err)
		}
	}
}
