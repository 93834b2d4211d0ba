package zmap

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"followscent/internal/icmp6"
	"followscent/internal/ip6"
	"followscent/internal/simnet"
)

// ndpWorldTargets returns every current WAN address in the pool plus
// vacant padding addresses — the on-link candidate list an NDP sweep
// works through.
func ndpWorldTargets(w *simnet.World) (AddrTargets, int) {
	p, _ := w.ProviderByASN(65001)
	pool := p.Pools[0]
	var ts AddrTargets
	for i := range pool.CPEs() {
		ts = append(ts, pool.WANAddrNow(&pool.CPEs()[i]))
	}
	occupied := len(ts)
	for i := uint64(0); i < 32; i++ {
		ts = append(ts, pool.Prefix.Addr().WithIID(0xdead_0000_0000_0000|i))
	}
	return ts, occupied
}

// TestNDPDeterminism proves the NDP module's engine contract across
// worker counts 1, 2 and 4: the sent solicitation set is
// byte-identical, and the validated advertisement set against the
// simulated on-link world is identical too.
func TestNDPDeterminism(t *testing.T) {
	ts := testTargets(t)
	base := Config{Source: vantage, Seed: 3, Workers: 1, Module: NDPModule{}}

	want := rawRecorded(t, ts, base)
	if uint64(len(want)) != ts.Len() {
		t.Fatalf("sequential engine sent %d probes, want %d", len(want), ts.Len())
	}
	for _, pkt := range want[:1] {
		var p icmp6.Packet
		if err := p.Unmarshal(pkt); err != nil {
			t.Fatalf("recorded solicitation does not parse: %v", err)
		}
		if p.Message.Type != icmp6.TypeNeighborSolicitation {
			t.Fatal("recorded probe is not a neighbor solicitation")
		}
	}
	for _, workers := range []int{2, 4} {
		cfg := base
		cfg.Workers = workers
		got := rawRecorded(t, ts, cfg)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: sent %d probes, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("workers=%d: probe bytes differ from sequential engine at %d", workers, i)
			}
		}
	}

	w := simnet.TestWorld(21)
	wts, occupied := ndpWorldTargets(w)
	wcfg := Config{Source: ip6.MustParseAddr("fe80::53"), Seed: 9, Workers: 1, Module: NDPModule{}}
	wantResp := responseSet(t, w, wts, wcfg)
	if len(wantResp) != occupied {
		t.Fatalf("%d advertisements, want one per occupied address (%d)", len(wantResp), occupied)
	}
	for _, workers := range []int{2, 4} {
		cfg := wcfg
		cfg.Workers = workers
		got := responseSet(t, w, wts, cfg)
		if len(got) != len(wantResp) {
			t.Fatalf("workers=%d: %d responses, want %d", workers, len(got), len(wantResp))
		}
		for i := range got {
			if got[i] != wantResp[i] {
				t.Fatalf("workers=%d: response set differs at %d: %+v vs %+v",
					workers, i, got[i], wantResp[i])
			}
		}
	}
}

// TestNDPEndToEnd runs a solicitation sweep against the simulated
// on-link world: every occupied WAN address defends itself with a
// solicited advertisement, every vacant candidate is silence, and the
// results carry the advertisement type with From == Target.
func TestNDPEndToEnd(t *testing.T) {
	w := simnet.TestWorld(21)
	ts, occupied := ndpWorldTargets(w)

	var mu sync.Mutex
	got := map[ip6.Addr]Result{}
	stats, err := ScanWorkers(context.Background(), loopbackFactory(w), ts, Config{
		Source:  ip6.MustParseAddr("fe80::53"),
		Seed:    99,
		Workers: 1,
		Module:  NDPModule{},
	}, func(r Result) {
		mu.Lock()
		got[r.From] = r
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != uint64(len(ts)) {
		t.Fatalf("sent %d probes, want %d", stats.Sent, len(ts))
	}
	if stats.Invalid != 0 {
		t.Fatalf("%d invalid packets", stats.Invalid)
	}
	if len(got) != occupied {
		t.Fatalf("heard %d neighbors, want every occupied address (%d)", len(got), occupied)
	}
	for from, r := range got {
		if r.Target != from || r.Type != icmp6.TypeNeighborAdvertisement {
			t.Fatalf("advertisement %+v from %s", r, from)
		}
	}
	for _, a := range ts[occupied:] {
		if _, ok := got[a]; ok {
			t.Fatalf("vacant candidate %s advertised itself", a)
		}
	}
}

// TestNDPRejectsForged pins the module's validation: the on-link
// boundary (hop limit 255) plus the RFC 4861 advertisement shape.
func TestNDPRejectsForged(t *testing.T) {
	owner := ip6.MustParseAddr("2001:db8:1:2::3")
	prober := ip6.MustParseAddr("fe80::53")
	m := NDPModule{}
	cfg := &Config{Seed: 5}

	check := func(b []byte) (Result, bool) {
		var pkt icmp6.Packet
		if err := pkt.Unmarshal(b); err != nil {
			t.Fatalf("forgery fixture does not parse: %v", err)
		}
		return m.Validate(cfg, &pkt)
	}

	good := icmp6.AppendNeighborAdvertisement(nil, owner, prober, owner,
		icmp6.NAFlagSolicited|icmp6.NAFlagOverride)
	res, ok := check(good)
	if !ok || res.Target != owner || res.From != owner {
		t.Fatalf("genuine advertisement: got %+v, %v", res, ok)
	}

	// Crossed a router: the one spoofing boundary ND has. The hop-limit
	// byte sits outside the ICMPv6 checksum, so the packet still parses.
	offLink := icmp6.AppendNeighborAdvertisement(nil, owner, prober, owner, icmp6.NAFlagSolicited)
	offLink[7] = 64
	if _, ok := check(offLink); ok {
		t.Error("off-link advertisement accepted")
	}
	// Unsolicited advertisement: not an answer to our probe.
	if _, ok := check(icmp6.AppendNeighborAdvertisement(nil, owner, prober, owner, icmp6.NAFlagOverride)); ok {
		t.Error("unsolicited advertisement accepted")
	}
	// Advertising someone else's address.
	spoofer := ip6.MustParseAddr("2001:db8:bad::1")
	if _, ok := check(icmp6.AppendNeighborAdvertisement(nil, spoofer, prober, owner, icmp6.NAFlagSolicited)); ok {
		t.Error("third-party advertisement accepted")
	}
	// Solicitations and echo replies never validate.
	if _, ok := check(icmp6.AppendNeighborSolicitation(nil, prober, owner)); ok {
		t.Error("solicitation accepted as advertisement")
	}
	if _, ok := check(icmp6.AppendEchoReply(nil, owner, prober, 1, 2, nil)); ok {
		t.Error("echo reply accepted by NDP module")
	}
}
