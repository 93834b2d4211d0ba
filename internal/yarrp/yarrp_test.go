package yarrp

import (
	"context"
	"io"
	"sort"
	"sync"
	"testing"

	"followscent/internal/icmp6"
	"followscent/internal/ip6"
	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

var vantage = ip6.MustParseAddr("2001:db8:ffff::53")

// sweep runs a hop-limit sweep over ts against w, one loopback per
// worker.
func sweep(w *simnet.World, ts zmap.TargetSet, maxTTL int, seed uint64, workers int, h zmap.Handler) (zmap.Stats, error) {
	return zmap.ScanWorkers(context.Background(), func(int) (zmap.Transport, error) {
		return zmap.NewLoopback(w, 0), nil
	}, ts, zmap.Config{Source: vantage, Seed: seed, Workers: workers, Module: HopLimitModule{MaxTTL: maxTTL}}, h)
}

func TestTraceDiscoversPathAndCPE(t *testing.T) {
	w := simnet.TestWorld(31)
	p, _ := w.ProviderByASN(65001) // 3 router hops
	pool := p.Pools[0]
	var c *simnet.CPE
	for i := range pool.CPEs() {
		if !pool.CPEs()[i].Silent && pool.CPEs()[i].Mode == simnet.ModeEUI64 {
			c = &pool.CPEs()[i]
			break
		}
	}
	wan := pool.WANAddrNow(c)
	// Probe a random (nonexistent) host inside the CPE's delegation.
	block := wan.TruncateTo(56)
	target := block.RandomAddr(0xaaaa, 0xbbbb)
	if target == wan {
		target = block.RandomAddr(0xaaaa, 0xbbbc)
	}

	col := NewCollector()
	stats, err := sweep(w, zmap.AddrTargets{target}, 8, 77, 1, col.Add)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != 8 {
		t.Fatalf("sent %d probes, want 8 (MaxTTL)", stats.Sent)
	}
	paths := col.Paths()
	if len(paths) != 1 {
		t.Fatalf("%d paths", len(paths))
	}
	path := paths[0]
	// Hops 1..3 are core routers (time exceeded, transit space).
	seenRouters := 0
	for _, h := range path.Hops {
		if h.TTL <= 3 {
			if h.Type != icmp6.TypeTimeExceeded {
				t.Errorf("ttl %d type %d", h.TTL, h.Type)
			}
			if !simnet.TransitPrefix.Contains(h.From) {
				t.Errorf("ttl %d from %s, want transit space", h.TTL, h.From)
			}
			seenRouters++
		}
	}
	if seenRouters == 0 {
		t.Fatal("no core routers discovered")
	}
	// The last hop is the CPE WAN address.
	last, ok := path.LastHop()
	if !ok {
		t.Fatal("no last hop")
	}
	if last.From != wan {
		t.Fatalf("last hop %s, want CPE WAN %s", last.From, wan)
	}
	if !ip6.AddrIsEUI64(last.From) {
		t.Fatal("CPE last hop is not EUI-64")
	}
}

func TestTraceTTLEncoding(t *testing.T) {
	w := simnet.TestWorld(32)
	p, _ := w.ProviderByASN(65002) // 4 router hops
	pool := p.Pools[0]
	target := pool.Prefix.RandomAddr(1, 2)
	col := NewCollector()
	if _, err := sweep(w, zmap.AddrTargets{target}, 6, 5, 1, col.Add); err != nil {
		t.Fatal(err)
	}
	hops := map[int]Hop{}
	for _, p := range col.Paths() {
		for _, h := range p.Hops {
			hops[h.TTL] = h
		}
	}
	// TTLs 1..4 hit routers; each reported TTL matches a distinct hop.
	for ttl := 1; ttl <= 4; ttl++ {
		h, ok := hops[ttl]
		if !ok {
			continue // routers drop ~5% of probes
		}
		if h.Target != target {
			t.Errorf("ttl %d target %s", ttl, h.Target)
		}
		if h.TTL != ttl {
			t.Errorf("hop reports ttl %d, want %d", h.TTL, ttl)
		}
	}
	if len(hops) < 3 {
		t.Fatalf("only %d hops discovered", len(hops))
	}
}

func TestProbeCostVsZmap(t *testing.T) {
	// The efficiency claim of §3.1: enumerating the CPE in a /48 of /56
	// delegations costs yarrp MaxTTL probes per /56, zmap exactly one.
	w := simnet.TestWorld(34)
	p, _ := w.ProviderByASN(65001)
	pool := p.Pools[0]
	ts, _ := zmap.NewSubnetTargets([]ip6.Prefix{pool.Prefix}, 56, 9)

	zStats, err := zmap.ScanWorkers(context.Background(), func(int) (zmap.Transport, error) {
		return zmap.NewLoopback(w, 0), nil
	}, ts, zmap.Config{Source: vantage, Seed: 9, Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	yStats, err := sweep(w, ts, 16, 9, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if yStats.Sent != 16*zStats.Sent {
		t.Fatalf("yarrp sent %d, zmap %d: want 16x", yStats.Sent, zStats.Sent)
	}
	// yarrp also hears from core infrastructure, zmap does not: the
	// response volume ratio must exceed the CPE-only baseline.
	if yStats.Matched <= zStats.Matched {
		t.Fatalf("yarrp matched %d <= zmap %d", yStats.Matched, zStats.Matched)
	}
}

// referenceSweep replicates the pre-engine yarrp semantics from first
// principles: walk the (target × TTL) cyclic permutation sequentially,
// craft each probe byte-for-byte as the original single-threaded loop
// did (echo request, TTL in the sequence field and the IPv6 hop-limit
// byte), and answer it straight through the world. The hop set it
// returns is the seed-tree ground truth the engine-backed sweep must
// reproduce exactly.
func referenceSweep(t *testing.T, w *simnet.World, ts zmap.TargetSet, maxTTL int, seed uint64) []Hop {
	t.Helper()
	domain := ts.Len() * uint64(maxTTL)
	cyc, err := zmap.NewCycle(domain, seed)
	if err != nil {
		t.Fatal(err)
	}
	mod := HopLimitModule{MaxTTL: maxTTL}
	zcfg := &zmap.Config{Source: vantage, Seed: seed}
	var out []Hop
	var buf []byte
	for {
		i, ok := cyc.Next()
		if !ok {
			break
		}
		target := ts.At(i / uint64(maxTTL))
		ttl := int(i%uint64(maxTTL)) + 1
		pkt := icmp6.AppendEchoRequest(nil, vantage, target, validationID(seed, target), uint16(ttl), nil)
		pkt[7] = uint8(ttl)
		resp, ok := w.HandlePacket(pkt, buf[:0])
		if !ok {
			continue
		}
		var parsed icmp6.Packet
		if err := parsed.Unmarshal(resp); err != nil {
			t.Fatalf("world response does not parse: %v", err)
		}
		r, ok := mod.Validate(zcfg, &parsed)
		if !ok {
			t.Fatal("world response does not validate")
		}
		out = append(out, Hop{Target: r.Target, TTL: int(r.Seq), From: r.From, Type: r.Type, Code: r.Code})
	}
	return out
}

func sortHops(hops []Hop) []Hop {
	out := append([]Hop(nil), hops...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if c := a.Target.Cmp(b.Target); c != 0 {
			return c < 0
		}
		if a.TTL != b.TTL {
			return a.TTL < b.TTL
		}
		return a.From.Less(b.From)
	})
	return out
}

// TestTraceMatchesReferenceSweep proves the hop-limit module on the
// engine keeps the seed-tree semantics: for every worker count the hop
// set the Collector reconstructs is identical to the sequential
// first-principles sweep (same permutation, same TTL mapping, same
// validation ids, and so the same per-probe loss/response draws in the
// simulator).
func TestTraceMatchesReferenceSweep(t *testing.T) {
	const maxTTL, seed = 5, 91
	mkTargets := func(w *simnet.World) zmap.TargetSet {
		p, _ := w.ProviderByASN(65001)
		ts, err := zmap.NewSubnetTargets([]ip6.Prefix{p.Pools[0].Prefix}, 56, 13)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	refWorld := simnet.TestWorld(36)
	want := sortHops(referenceSweep(t, refWorld, mkTargets(refWorld), maxTTL, seed))
	if len(want) == 0 {
		t.Fatal("reference sweep heard nothing")
	}

	for _, workers := range []int{1, 3} {
		w := simnet.TestWorld(36) // fresh world: same seed, fresh rate-limit state
		col := NewCollector()
		if _, err := sweep(w, mkTargets(w), maxTTL, seed, workers, col.Add); err != nil {
			t.Fatal(err)
		}
		var got []Hop
		for _, p := range col.Paths() {
			got = append(got, p.Hops...)
		}
		gotSorted := sortHops(got)
		if len(gotSorted) != len(want) {
			t.Fatalf("workers=%d: %d hops, want %d", workers, len(gotSorted), len(want))
		}
		for i := range gotSorted {
			if gotSorted[i] != want[i] {
				t.Fatalf("workers=%d: hop set differs from reference at %d: %+v vs %+v",
					workers, i, gotSorted[i], want[i])
			}
		}
	}
}

// recTransport records every sent probe and never responds, for the
// worker-determinism test below (the yarrp analogue of the zmap
// package's recorder).
type recTransport struct {
	mu     sync.Mutex
	pkts   [][]byte
	closed chan struct{}
	once   sync.Once
}

func newRecTransport() *recTransport {
	return &recTransport{closed: make(chan struct{})}
}

func (r *recTransport) Send(pkt []byte) error {
	r.mu.Lock()
	r.pkts = append(r.pkts, append([]byte(nil), pkt...))
	r.mu.Unlock()
	return nil
}

func (r *recTransport) Recv(buf []byte) (int, error) {
	<-r.closed
	return 0, io.EOF
}

func (r *recTransport) Close() error {
	r.once.Do(func() { close(r.closed) })
	return nil
}

type ttlProbe struct {
	target ip6.Addr
	ttl    int
}

// probes decodes the recorded sweep probes into (target, ttl) pairs,
// checking the TTL is encoded consistently in the hop-limit byte and
// the echo sequence field.
func (r *recTransport) probes(t *testing.T) []ttlProbe {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ttlProbe, 0, len(r.pkts))
	var pkt icmp6.Packet
	for _, b := range r.pkts {
		if err := pkt.Unmarshal(b); err != nil {
			t.Fatalf("recorded probe does not parse: %v", err)
		}
		_, seq, ok := pkt.Message.Echo()
		if !ok {
			t.Fatal("recorded probe is not an echo request")
		}
		if int(pkt.Header.HopLimit) != int(seq&0xff) {
			t.Fatalf("hop-limit byte %d disagrees with sequence %d", pkt.Header.HopLimit, seq)
		}
		out = append(out, ttlProbe{pkt.Header.Dst, int(seq & 0xff)})
	}
	return out
}

func sortTTLProbes(ps []ttlProbe) []ttlProbe {
	out := append([]ttlProbe(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].target.Cmp(out[j].target); c != 0 {
			return c < 0
		}
		return out[i].ttl < out[j].ttl
	})
	return out
}

// TestTraceWorkerDeterminism mirrors the zmap engine's determinism
// contract for the hop-limit module: every worker count sweeps the
// byte-identical (target, ttl) set, each worker's order a subsequence
// of the sequential order.
func TestTraceWorkerDeterminism(t *testing.T) {
	ts := zmap.AddrTargets{
		ip6.MustParseAddr("2001:db8:1::1"),
		ip6.MustParseAddr("2001:db8:2::2"),
		ip6.MustParseAddr("2001:db8:3::3"),
		ip6.MustParseAddr("2001:db8:4::4"),
	}
	const maxTTL = 7

	record := func(workers int) [][]ttlProbe {
		recs := make([]*recTransport, workers)
		_, err := zmap.ScanWorkers(context.Background(), func(w int) (zmap.Transport, error) {
			recs[w] = newRecTransport()
			return recs[w], nil
		}, ts, zmap.Config{Source: vantage, Seed: 23, Workers: workers, Module: HopLimitModule{MaxTTL: maxTTL}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]ttlProbe, workers)
		for w, r := range recs {
			out[w] = r.probes(t)
		}
		return out
	}

	seq := record(1)[0]
	if len(seq) != len(ts)*maxTTL {
		t.Fatalf("sequential sweep sent %d probes, want %d", len(seq), len(ts)*maxTTL)
	}
	want := sortTTLProbes(seq)

	for _, workers := range []int{2, 5} {
		var all []ttlProbe
		for w, ps := range record(workers) {
			j := 0
			for _, p := range seq {
				if j < len(ps) && p == ps[j] {
					j++
				}
			}
			if j != len(ps) {
				t.Errorf("workers=%d: worker %d order is not a subsequence of the sequential order", workers, w)
			}
			all = append(all, ps...)
		}
		got := sortTTLProbes(all)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: swept %d probes, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: swept set differs at %d", workers, i)
			}
		}
	}
}

// TestHopProbeAttemptsIndependent is the regression test for re-probe
// correlation: attempts must produce distinct wire bytes (so the
// simulator's per-probe loss draws are independent trials) while every
// attempt still validates back to the same TTL.
func TestHopProbeAttemptsIndependent(t *testing.T) {
	target := ip6.MustParseAddr("2001:db8:77::9")
	router := ip6.MustParseAddr("2001:db8:fe::1")
	mod := HopLimitModule{MaxTTL: 9}
	zcfg := &zmap.Config{Source: vantage, Seed: 5}
	pr := mod.NewProber(zcfg, 0)

	b0 := append([]byte(nil), pr.MakeProbe(target, 3, 0)...)
	b1 := append([]byte(nil), pr.MakeProbe(target, 3, 1)...)
	if string(b0) == string(b1) {
		t.Fatal("attempt 0 and attempt 1 probes are byte-identical (correlated loss trials)")
	}
	for attempt, probe := range [][]byte{b0, b1} {
		if probe[7] != 4 {
			t.Fatalf("attempt %d: hop-limit byte %d, want 4", attempt, probe[7])
		}
		errPkt := icmp6.AppendError(nil, icmp6.TypeTimeExceeded, 0, router, vantage, probe)
		var pkt icmp6.Packet
		if err := pkt.Unmarshal(errPkt); err != nil {
			t.Fatal(err)
		}
		r, ok := mod.Validate(zcfg, &pkt)
		if !ok || r.Target != target || r.Seq != 4 {
			t.Fatalf("attempt %d: Validate = %+v, %v (want ttl 4)", attempt, r, ok)
		}
	}
}

func BenchmarkTrace(b *testing.B) {
	w := simnet.TestWorld(35)
	p, _ := w.ProviderByASN(65001)
	pool := p.Pools[0]
	targets := zmap.AddrTargets{pool.Prefix.RandomAddr(1, 2)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep(w, targets, 16, uint64(i), 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}
