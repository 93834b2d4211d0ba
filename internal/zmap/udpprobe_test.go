package zmap

import (
	"context"
	"sync"
	"testing"

	"followscent/internal/icmp6"
	"followscent/internal/ip6"
	"followscent/internal/simnet"
)

// udpProbes decodes recorded UDP probe packets into (target, attempt)
// pairs, the UDP analogue of recTransport.probes.
func udpProbes(t *testing.T, r *recTransport, base uint16) []probe {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]probe, 0, len(r.pkts))
	var h icmp6.Header
	for _, b := range r.pkts {
		if err := h.Unmarshal(b); err != nil {
			t.Fatalf("recorded probe does not parse: %v", err)
		}
		if h.NextHeader != icmp6.ProtoUDP {
			t.Fatal("recorded probe is not UDP")
		}
		if icmp6.UDPChecksum(h.Src, h.Dst, b[icmp6.HeaderLen:]) != 0 {
			t.Fatal("recorded probe has a bad UDP checksum")
		}
		sport, dport, _, err := icmp6.ParseUDP(b[icmp6.HeaderLen:])
		if err != nil {
			t.Fatal(err)
		}
		if sport != validationID(3, h.Dst) {
			t.Fatalf("probe to %s carries sport %#x, want validation id %#x", h.Dst, sport, validationID(3, h.Dst))
		}
		out = append(out, probe{h.Dst, dport - base})
	}
	return out
}

// TestUDPModuleWorkerDeterminism mirrors TestScanWorkerDeterminism for
// the UDP-to-closed-port module: for any worker count the union of the
// workers' probes is byte-identical to the sequential scan and each
// worker's order is a subsequence of it.
func TestUDPModuleWorkerDeterminism(t *testing.T) {
	ts := testTargets(t)
	base := Config{Source: vantage, Seed: 3, Workers: 1, Module: UDPModule{}}

	record := func(cfg Config) [][]probe {
		cfg.fill()
		recs := make([]*recTransport, cfg.Workers)
		_, err := ScanWorkers(context.Background(), func(w int) (Transport, error) {
			recs[w] = newRecTransport()
			return recs[w], nil
		}, ts, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]probe, len(recs))
		for w, r := range recs {
			out[w] = udpProbes(t, r, DefaultUDPBasePort)
		}
		return out
	}

	seq := record(base)[0]
	if uint64(len(seq)) != ts.Len() {
		t.Fatalf("sequential engine sent %d probes, want %d", len(seq), ts.Len())
	}
	wantSorted := sortedProbes(seq)

	for _, workers := range []int{2, 3, 8} {
		cfg := base
		cfg.Workers = workers
		var all []probe
		for w, ps := range record(cfg) {
			if !isSubsequence(ps, seq) {
				t.Errorf("workers=%d: worker %d probe order is not a subsequence of the sequential order", workers, w)
			}
			all = append(all, ps...)
		}
		if len(all) != len(seq) {
			t.Fatalf("workers=%d: sent %d probes, want %d", workers, len(all), len(seq))
		}
		gotSorted := sortedProbes(all)
		for i := range gotSorted {
			if gotSorted[i] != wantSorted[i] {
				t.Fatalf("workers=%d: probed set differs from sequential engine at %d", workers, i)
			}
		}
	}
}

// TestUDPModuleEndToEnd runs a UDP-to-closed-port scan against the
// simulated world: probes into vacant delegated space elicit the same
// periphery errors as echo probes, and a probe to a live WAN address
// elicits Port Unreachable from the target itself.
func TestUDPModuleEndToEnd(t *testing.T) {
	w := simnet.TestWorld(21)
	p, _ := w.ProviderByASN(65001)
	pool := p.Pools[0]

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
		Module:  UDPModule{},
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
	responsive := 0
	for i := range pool.CPEs() {
		if !pool.CPEs()[i].Silent {
			responsive++
		}
	}
	if len(got) < responsive*8/10 {
		t.Fatalf("discovered %d CPE, want most of %d", len(got), responsive)
	}
	for from, r := range got {
		if r.IsEcho() {
			t.Fatalf("UDP probe validated as echo from %s", from)
		}
		if !simnet.TransitPrefix.Contains(from) && !pool.Prefix.Contains(from) {
			t.Fatalf("response from %s outside pool and transit", from)
		}
	}

	// A probe straight at a live WAN address: the closed port answers.
	var c *simnet.CPE
	for i := range pool.CPEs() {
		if !pool.CPEs()[i].Silent {
			c = &pool.CPEs()[i]
			break
		}
	}
	wan := pool.WANAddrNow(c)
	var hit *Result
	_, err = ScanWorkers(context.Background(), loopbackFactory(w), AddrTargets{wan}, Config{
		Source: vantage, Seed: 7, Workers: 1, Module: UDPModule{},
	}, func(r Result) { cp := r; hit = &cp })
	if err != nil {
		t.Fatal(err)
	}
	if hit == nil {
		t.Fatal("no response to UDP probe at live WAN")
	}
	if hit.From != wan || hit.Type != icmp6.TypeDestinationUnreachable || hit.Code != icmp6.CodePortUnreachable {
		t.Fatalf("live WAN answered %s from %s, want port-unreachable from %s",
			icmp6.TypeName(hit.Type, hit.Code), hit.From, wan)
	}
	if hit.Target != wan {
		t.Fatalf("validation recovered target %s, want %s", hit.Target, wan)
	}
}

// TestUDPModulePortRangeClamp is the regression test for destination
// ports wrapping past 65535: attempts beyond the remaining port space
// stay within [base, 65535] so their responses still validate.
func TestUDPModulePortRangeClamp(t *testing.T) {
	target := ip6.MustParseAddr("2001:db8::9")
	m := UDPModule{BasePort: 65535}
	cfg := &Config{Source: vantage, Seed: 2, HopLimit: 64}
	pr := m.NewProber(cfg, 0)
	for attempt := 0; attempt < 3; attempt++ {
		b := pr.MakeProbe(target, 0, attempt)
		_, dport, _, err := icmp6.ParseUDP(b[icmp6.HeaderLen:])
		if err != nil {
			t.Fatal(err)
		}
		if dport != 65535 {
			t.Fatalf("attempt %d: dport %d wrapped outside [base, 65535]", attempt, dport)
		}
		errPkt := icmp6.AppendError(nil, icmp6.TypeDestinationUnreachable,
			icmp6.CodePortUnreachable, target, vantage, b)
		var pkt icmp6.Packet
		if err := pkt.Unmarshal(errPkt); err != nil {
			t.Fatal(err)
		}
		if r, ok := m.Validate(cfg, &pkt); !ok || r.Target != target || r.Seq != 0 {
			t.Fatalf("attempt %d: Validate = %+v, %v", attempt, r, ok)
		}
	}
}

// TestUDPModuleRejectsForged pins the UDP validation scheme.
func TestUDPModuleRejectsForged(t *testing.T) {
	target := ip6.MustParseAddr("2001:db8:1:2::3")
	attacker := ip6.MustParseAddr("2001:db8:bad::1")
	m := UDPModule{}
	cfg := &Config{Seed: 5}

	check := func(b []byte) (Result, bool) {
		var pkt icmp6.Packet
		if err := pkt.Unmarshal(b); err != nil {
			t.Fatalf("forgery fixture does not parse: %v", err)
		}
		return m.Validate(cfg, &pkt)
	}

	good := icmp6.AppendUDPProbe(nil, vantage, target, validationID(5, target), DefaultUDPBasePort+2, nil)
	errPkt := icmp6.AppendError(nil, icmp6.TypeDestinationUnreachable, icmp6.CodePortUnreachable, attacker, vantage, good)
	res, ok := check(errPkt)
	if !ok || res.Target != target || res.From != attacker || res.Seq != 2 {
		t.Fatalf("genuine quoted probe: got %+v, %v", res, ok)
	}

	// Wrong source port (validation id).
	bad := icmp6.AppendUDPProbe(nil, vantage, target, 0x1234, DefaultUDPBasePort, nil)
	if _, ok := check(icmp6.AppendError(nil, icmp6.TypeDestinationUnreachable, 0, attacker, vantage, bad)); ok {
		t.Error("wrong validation id accepted")
	}
	// Destination port below the probe range.
	low := icmp6.AppendUDPProbe(nil, vantage, target, validationID(5, target), 53, nil)
	if _, ok := check(icmp6.AppendError(nil, icmp6.TypeDestinationUnreachable, 0, attacker, vantage, low)); ok {
		t.Error("out-of-range destination port accepted")
	}
	// Quoted packet is not UDP.
	echo := icmp6.AppendEchoRequest(nil, vantage, target, 1, 0, nil)
	if _, ok := check(icmp6.AppendError(nil, icmp6.TypeDestinationUnreachable, 0, attacker, vantage, echo)); ok {
		t.Error("quoted echo accepted by UDP module")
	}
	// Echo replies never validate.
	reply := icmp6.AppendEchoReply(nil, target, vantage, validationID(5, target), 0, nil)
	if _, ok := check(reply); ok {
		t.Error("echo reply accepted by UDP module")
	}
}
