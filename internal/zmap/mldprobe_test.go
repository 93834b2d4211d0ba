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

// mldWorldTargets returns the link-identifying target set for the test
// world's /56-delegation pool — one General Query per delegation — plus
// the number of listeners (occupied blocks) ground truth expects.
func mldWorldTargets(t *testing.T, w *simnet.World) (TargetSet, int) {
	t.Helper()
	p, _ := w.ProviderByASN(65001)
	pool := p.Pools[0]
	ts, err := NewBaseTargets([]ip6.Prefix{pool.Prefix}, pool.AllocBits)
	if err != nil {
		t.Fatal(err)
	}
	return ts, len(pool.CPEs())
}

// TestMLDDeterminism proves the MLD module's engine contract across
// worker counts 1, 2 and 4: the sent query set is byte-identical, and
// the validated report set (the discovered listener set) against the
// simulated on-link world is identical too.
func TestMLDDeterminism(t *testing.T) {
	ts := testTargets(t)
	base := Config{Source: vantage, Seed: 3, Workers: 1, Module: MLDModule{}}

	want := rawRecorded(t, ts, base)
	if uint64(len(want)) != ts.Len() {
		t.Fatalf("sequential engine sent %d probes, want %d", len(want), ts.Len())
	}
	for _, pkt := range want[:1] {
		var p icmp6.Packet
		if err := p.UnmarshalMLD(pkt); err != nil {
			t.Fatalf("recorded query does not parse: %v", err)
		}
		if p.Message.Type != icmp6.TypeMLDQuery {
			t.Fatal("recorded probe is not an MLD query")
		}
		if !p.Header.Src.IsLinkLocal() {
			t.Fatalf("query source %s is not link-local", p.Header.Src)
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
	wts, listeners := mldWorldTargets(t, w)
	wcfg := Config{Source: vantage, Seed: 9, Workers: 1, Module: MLDModule{}}
	wantResp := responseSet(t, w, wts, wcfg)
	if len(wantResp) != listeners {
		t.Fatalf("%d reports, want one per occupied delegation (%d)", len(wantResp), listeners)
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

// TestMLDEndToEnd runs a General-Query sweep against the simulated
// on-link world: one query per delegation, and every occupied
// delegation's listener reports its full WAN address — an address the
// prober never guessed (the targets are link bases, not candidates).
func TestMLDEndToEnd(t *testing.T) {
	w := simnet.TestWorld(21)
	ts, listeners := mldWorldTargets(t, w)

	var mu sync.Mutex
	got := map[ip6.Addr]Result{}
	stats, err := ScanWorkers(context.Background(), loopbackFactory(w), ts, Config{
		Source:  vantage,
		Seed:    99,
		Workers: 1,
		Module:  MLDModule{},
	}, func(r Result) {
		mu.Lock()
		got[r.From] = r
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != ts.Len() {
		t.Fatalf("sent %d queries, want %d", stats.Sent, ts.Len())
	}
	if stats.Invalid != 0 {
		t.Fatalf("%d invalid packets", stats.Invalid)
	}
	if len(got) != listeners {
		t.Fatalf("heard %d listeners, want every occupied delegation (%d)", len(got), listeners)
	}
	p, _ := w.ProviderByASN(65001)
	pool := p.Pools[0]
	for from, r := range got {
		if r.Target != from || r.Type != icmp6.TypeMLDv2Report {
			t.Fatalf("report %+v from %s", r, from)
		}
		if !pool.Prefix.Contains(from) {
			t.Fatalf("listener %s outside the swept pool", from)
		}
		// The reported address was never a probe target: targets are
		// delegation bases, listeners carry device IIDs.
		if from.IID() == 0 {
			t.Fatalf("listener %s has a base-address IID — target leaked into results", from)
		}
	}
}

// TestMLDRejectsForged pins the module's validation: the hop-limit-1
// on-link boundary, the report/source consistency rule, and the
// bare-ICMPv6 rejection that routes everything through ValidateRaw.
func TestMLDRejectsForged(t *testing.T) {
	owner := ip6.MustParseAddr("2001:db8:1:2:3a10:d5ff:fe00:7")
	prober := ip6.LinkLocal(0x53)
	m := MLDModule{}
	cfg := &Config{Seed: 5}

	good := icmp6.AppendMLDv2Report(nil, owner, icmp6.AllMLDv2Routers,
		[]ip6.Addr{ip6.SolicitedNode(owner)})
	res, ok := m.ValidateRaw(cfg, good)
	if !ok || res.Target != owner || res.From != owner || res.Type != icmp6.TypeMLDv2Report {
		t.Fatalf("genuine report: got %+v, %v", res, ok)
	}

	// Crossed a router: the hop-limit byte sits outside the ICMPv6
	// checksum, so the packet still parses.
	offLink := icmp6.AppendMLDv2Report(nil, owner, icmp6.AllMLDv2Routers,
		[]ip6.Addr{ip6.SolicitedNode(owner)})
	offLink[7] = 64
	if _, ok := m.ValidateRaw(cfg, offLink); ok {
		t.Error("off-link report accepted")
	}
	// A report whose groups do not match its source is forged.
	spoofed := icmp6.AppendMLDv2Report(nil, owner, icmp6.AllMLDv2Routers,
		[]ip6.Addr{ip6.SolicitedNode(ip6.MustParseAddr("2001:db8::dead"))})
	if _, ok := m.ValidateRaw(cfg, spoofed); ok {
		t.Error("group/source-inconsistent report accepted")
	}
	// A query is not a report.
	query := icmp6.AppendMLDQuery(nil, prober, icmp6.AllMLDv2Routers, ip6.Addr{})
	if _, ok := m.ValidateRaw(cfg, query); ok {
		t.Error("query accepted as report")
	}
	// A corrupted checksum fails the parse.
	bad := append([]byte(nil), good...)
	bad[icmp6.HeaderLen+8+6] ^= 0xff
	if _, ok := m.ValidateRaw(cfg, bad); ok {
		t.Error("corrupted report accepted")
	}
	// Bare ICMPv6 never validates: Validate is a constant reject, and
	// ValidateRaw requires the hop-by-hop header.
	var pkt icmp6.Packet
	echo := icmp6.AppendEchoReply(nil, owner, prober, 1, 2, nil)
	if err := pkt.Unmarshal(echo); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Validate(cfg, &pkt); ok {
		t.Error("echo reply accepted by Validate")
	}
	if _, ok := m.ValidateRaw(cfg, echo); ok {
		t.Error("bare ICMPv6 accepted by ValidateRaw")
	}
}
