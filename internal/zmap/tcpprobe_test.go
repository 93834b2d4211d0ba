package zmap

import (
	"bytes"
	"context"
	"sort"
	"sync"
	"testing"

	"followscent/internal/icmp6"
	"followscent/internal/ip6"
	"followscent/internal/simnet"
)

// rawRecorded runs a recording scan and returns every sent probe
// packet, byte-sorted — the strongest determinism fixture: two scans
// are equivalent iff these sets are byte-identical.
func rawRecorded(t *testing.T, ts TargetSet, cfg Config) [][]byte {
	t.Helper()
	cfg.fill()
	recs := make([]*recTransport, cfg.Workers)
	_, err := ScanWorkers(context.Background(), func(w int) (Transport, error) {
		recs[w] = newRecTransport()
		return recs[w], nil
	}, ts, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var all [][]byte
	for _, r := range recs {
		r.mu.Lock()
		all = append(all, r.pkts...)
		r.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return bytes.Compare(all[i], all[j]) < 0 })
	return all
}

// responseSet scans ts against w through the loopback and returns the
// validated results, sorted and with the worker index normalized away.
func responseSet(t *testing.T, w *simnet.World, ts TargetSet, cfg Config) []Result {
	t.Helper()
	var mu sync.Mutex
	var out []Result
	_, err := ScanWorkers(context.Background(), func(int) (Transport, error) {
		return NewLoopback(w, 0), nil
	}, ts, cfg, func(r Result) {
		r.Worker = 0
		mu.Lock()
		out = append(out, r)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if c := a.Target.Cmp(b.Target); c != 0 {
			return c < 0
		}
		if c := a.From.Cmp(b.From); c != 0 {
			return c < 0
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		return a.Seq < b.Seq
	})
	return out
}

// TestTCPSynDeterminism proves the TCP module's engine contract across
// worker counts 1, 2 and 4: the sent probe set — a (target × port)
// sweep — is byte-identical, and the validated response set against
// the simulated world is identical too.
func TestTCPSynDeterminism(t *testing.T) {
	ts := testTargets(t)
	base := Config{Source: vantage, Seed: 3, Workers: 1, Module: TCPSynModule{Ports: 3}}

	want := rawRecorded(t, ts, base)
	if uint64(len(want)) != 3*ts.Len() {
		t.Fatalf("sequential engine sent %d probes, want %d", len(want), 3*ts.Len())
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
	p, _ := w.ProviderByASN(65001)
	pool := p.Pools[0]
	wts, err := NewSubnetTargets([]ip6.Prefix{pool.Prefix}, 56, 1)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := Config{Source: vantage, Seed: 9, Workers: 1, Module: TCPSynModule{}}
	wantResp := responseSet(t, w, wts, wcfg)
	if len(wantResp) == 0 {
		t.Fatal("no responses from the simulated world")
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

// TestTCPSynEndToEnd runs a TCP-SYN-to-closed-port scan against the
// simulated world: probes into vacant delegated space elicit the same
// periphery errors as echo probes, and a probe to a live WAN address
// elicits a RST/ACK from the target itself, validated through the
// engine's RawValidator path.
func TestTCPSynEndToEnd(t *testing.T) {
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
		Module:  TCPSynModule{},
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
			t.Fatalf("TCP probe validated as echo from %s", from)
		}
		if !simnet.TransitPrefix.Contains(from) && !pool.Prefix.Contains(from) {
			t.Fatalf("response from %s outside pool and transit", from)
		}
	}

	// A probe straight at a live WAN address: the closed port resets it.
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
		Source: vantage, Seed: 7, Workers: 1, Module: TCPSynModule{},
	}, func(r Result) { cp := r; hit = &cp })
	if err != nil {
		t.Fatal(err)
	}
	if hit == nil {
		t.Fatal("no response to TCP probe at live WAN")
	}
	if hit.From != wan || hit.Type != icmp6.TypeTCPRstAck {
		t.Fatalf("live WAN answered %s from %s, want tcp/rst-ack from %s",
			icmp6.TypeName(hit.Type, hit.Code), hit.From, wan)
	}
	if hit.Target != wan || hit.Seq != 0 {
		t.Fatalf("validation recovered target %s seq %d, want %s seq 0", hit.Target, hit.Seq, wan)
	}
}

// TestTCPSynPortRangeClamp mirrors the UDP module's regression test:
// sweep positions and attempts beyond the remaining port space stay
// within [base, 65535] so their responses still validate.
func TestTCPSynPortRangeClamp(t *testing.T) {
	target := ip6.MustParseAddr("2001:db8::9")
	m := TCPSynModule{BasePort: 65534, Ports: 4}
	cfg := &Config{Source: vantage, Seed: 2, HopLimit: 64}
	pr := m.NewProber(cfg, 0)
	for pos := 0; pos < 4; pos++ {
		for attempt := 0; attempt < 3; attempt++ {
			b := pr.MakeProbe(target, pos, attempt)
			th, err := icmp6.ParseTCP(b[icmp6.HeaderLen:])
			if err != nil {
				t.Fatal(err)
			}
			if th.DstPort < 65534 {
				t.Fatalf("pos %d attempt %d: dport %d wrapped outside [base, 65535]", pos, attempt, th.DstPort)
			}
			errPkt := icmp6.AppendError(nil, icmp6.TypeDestinationUnreachable,
				icmp6.CodeAdminProhibited, target, vantage, b)
			var pkt icmp6.Packet
			if err := pkt.Unmarshal(errPkt); err != nil {
				t.Fatal(err)
			}
			if r, ok := m.Validate(cfg, &pkt); !ok || r.Target != target || r.Seq > 1 {
				t.Fatalf("pos %d attempt %d: Validate = %+v, %v", pos, attempt, r, ok)
			}
		}
	}
}

// TestTCPSynRejectsForged pins the two-field TCP validation scheme on
// both response paths.
func TestTCPSynRejectsForged(t *testing.T) {
	target := ip6.MustParseAddr("2001:db8:1:2::3")
	attacker := ip6.MustParseAddr("2001:db8:bad::1")
	m := TCPSynModule{}
	cfg := &Config{Seed: 5}
	id := validationID(5, target)
	seq := validationSeq(5, target)

	checkICMP := func(b []byte) (Result, bool) {
		var pkt icmp6.Packet
		if err := pkt.Unmarshal(b); err != nil {
			t.Fatalf("forgery fixture does not parse: %v", err)
		}
		return m.Validate(cfg, &pkt)
	}

	good := icmp6.AppendTCPSyn(nil, vantage, target, id, DefaultTCPBasePort+2, seq)
	res, ok := checkICMP(icmp6.AppendError(nil, icmp6.TypeDestinationUnreachable,
		icmp6.CodeNoRoute, attacker, vantage, good))
	if !ok || res.Target != target || res.From != attacker || res.Seq != 2 {
		t.Fatalf("genuine quoted SYN: got %+v, %v", res, ok)
	}

	// Wrong source port (validationID half).
	bad := icmp6.AppendTCPSyn(nil, vantage, target, 0x1234, DefaultTCPBasePort, seq)
	if _, ok := checkICMP(icmp6.AppendError(nil, icmp6.TypeDestinationUnreachable, 0, attacker, vantage, bad)); ok {
		t.Error("wrong validation id accepted")
	}
	// Wrong sequence number (validationSeq half).
	bad = icmp6.AppendTCPSyn(nil, vantage, target, id, DefaultTCPBasePort, seq+1)
	if _, ok := checkICMP(icmp6.AppendError(nil, icmp6.TypeDestinationUnreachable, 0, attacker, vantage, bad)); ok {
		t.Error("wrong validation sequence accepted")
	}
	// Destination port below the probe range.
	bad = icmp6.AppendTCPSyn(nil, vantage, target, id, 443, seq)
	if _, ok := checkICMP(icmp6.AppendError(nil, icmp6.TypeDestinationUnreachable, 0, attacker, vantage, bad)); ok {
		t.Error("out-of-range destination port accepted")
	}
	// Quoted packet is not TCP.
	udp := icmp6.AppendUDPProbe(nil, vantage, target, id, DefaultTCPBasePort, nil)
	if _, ok := checkICMP(icmp6.AppendError(nil, icmp6.TypeDestinationUnreachable, 0, attacker, vantage, udp)); ok {
		t.Error("quoted UDP accepted by TCP module")
	}

	// Genuine RST/ACK validates through ValidateRaw.
	rst := icmp6.AppendTCPRstAck(nil, target, vantage, DefaultTCPBasePort+2, id, seq+1)
	res, ok = m.ValidateRaw(cfg, rst)
	if !ok || res.Target != target || res.From != target ||
		res.Type != icmp6.TypeTCPRstAck || res.Seq != 2 {
		t.Fatalf("genuine RST/ACK: got %+v, %v", res, ok)
	}
	// Wrong acknowledgment number.
	if _, ok := m.ValidateRaw(cfg, icmp6.AppendTCPRstAck(nil, target, vantage, DefaultTCPBasePort, id, seq+2)); ok {
		t.Error("wrong acknowledgment accepted")
	}
	// Wrong destination port (validation id of a different address).
	if _, ok := m.ValidateRaw(cfg, icmp6.AppendTCPRstAck(nil, attacker, vantage, DefaultTCPBasePort, id, validationSeq(5, attacker)+1)); ok {
		t.Error("spoofed source accepted")
	}
	// Source port below the probe range.
	if _, ok := m.ValidateRaw(cfg, icmp6.AppendTCPRstAck(nil, target, vantage, 80, id, seq+1)); ok {
		t.Error("out-of-range source port accepted")
	}
	// Corrupted checksum.
	rst = icmp6.AppendTCPRstAck(nil, target, vantage, DefaultTCPBasePort, id, seq+1)
	rst[icmp6.HeaderLen] ^= 0x01
	if _, ok := m.ValidateRaw(cfg, rst); ok {
		t.Error("corrupted RST/ACK accepted")
	}
	// A SYN (no RST flag) never validates.
	if _, ok := m.ValidateRaw(cfg, icmp6.AppendTCPSyn(nil, target, vantage, DefaultTCPBasePort, id, 1)); ok {
		t.Error("stray SYN accepted")
	}
	// Non-TCP raw packets never validate.
	if _, ok := m.ValidateRaw(cfg, icmp6.AppendUDPProbe(nil, target, vantage, DefaultTCPBasePort, id, nil)); ok {
		t.Error("raw UDP accepted")
	}
}
