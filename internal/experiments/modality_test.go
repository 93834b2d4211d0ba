package experiments

import (
	"context"
	"testing"

	"followscent/internal/icmp6"
	"followscent/internal/ip6"
	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

// modalityWorld is a single-provider world with a deliberately large
// silent fraction: the fixture behind the per-modality completeness
// ablation (DESIGN.md §4). Deterministic: equal seeds, equal worlds.
func modalityWorld(seed uint64) *Env {
	w := simnet.MustBuild(simnet.WorldSpec{
		Seed: seed,
		Providers: []simnet.ProviderSpec{{
			ASN: 65021, Name: "FilterNet", Country: "DE",
			Allocations:    []string{"2001:db8::/32"},
			BorderRespProb: 0.3,
			Pools: []simnet.PoolSpec{{
				Prefix: "2001:db8:10::/48", AllocBits: 56,
				Rotation:  simnet.RotationPolicy{Kind: simnet.RotateNone},
				Occupancy: 0.5, EUIFrac: 1, SilentFrac: 0.3,
			}},
		}},
	})
	return NewEnvFor(w, seed)
}

// TestModalityCompleteness is the discovery-completeness ablation: the
// three off-link modalities (echo, UDP, TCP-SYN) discover the identical
// periphery — they differ only in which real-world filtering they
// survive — while the on-link NDP modality is strictly more complete,
// hearing from the ICMP-silent devices no off-link probe can reach.
func TestModalityCompleteness(t *testing.T) {
	env := modalityWorld(17)
	ctx := context.Background()
	pool := env.World.Providers()[0].Pools[0]
	poolPrefix := pool.Prefix

	total, silent := 0, 0
	for i := range pool.CPEs() {
		total++
		if pool.CPEs()[i].Silent {
			silent++
		}
	}
	if silent == 0 || silent == total {
		t.Fatalf("fixture needs a mixed population, got %d/%d silent", silent, total)
	}

	// Off-link periphery discovery: one probe per /56 of the pool.
	ts, err := zmap.NewSubnetTargets([]ip6.Prefix{poolPrefix}, 56, 11)
	if err != nil {
		t.Fatal(err)
	}
	periphery := func(r *ModalityResult) map[ip6.Addr]bool {
		out := map[ip6.Addr]bool{}
		for a := range r.ByFrom {
			if poolPrefix.Contains(a) {
				out[a] = true
			}
		}
		return out
	}
	echo, err := ScanModality(ctx, env, zmap.EchoModule{}, ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	udp, err := ScanModality(ctx, env, zmap.UDPModule{}, ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := ScanModality(ctx, env, zmap.TCPSynModule{}, ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	echoP, udpP, tcpP := periphery(echo), periphery(udp), periphery(tcp)
	if len(echoP) == 0 {
		t.Fatal("echo scan discovered nothing")
	}
	if len(udpP) != len(echoP) || len(tcpP) != len(echoP) {
		t.Fatalf("off-link modalities disagree: echo %d, udp %d, tcp %d", len(echoP), len(udpP), len(tcpP))
	}
	for a := range echoP {
		if !udpP[a] || !tcpP[a] {
			t.Fatalf("periphery %s found by echo but not by udp/tcp", a)
		}
	}
	if len(echoP) > total-silent {
		t.Fatalf("off-link discovery found %d peripheries, more than the %d responsive devices",
			len(echoP), total-silent)
	}

	// On-link confirmation over an explicit candidate list: every WAN
	// address, silent devices included.
	var candidates zmap.AddrTargets
	for i := range pool.CPEs() {
		candidates = append(candidates, pool.WANAddrNow(&pool.CPEs()[i]))
	}
	ndp, err := ScanModality(ctx, env, zmap.NDPModule{}, candidates, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ndp.ByFrom) != total {
		t.Fatalf("NDP heard %d neighbors, want every occupied address (%d)", len(ndp.ByFrom), total)
	}
	echoDirect, err := ScanModality(ctx, env, zmap.EchoModule{}, candidates, 2)
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, r := range echoDirect.ByFrom {
		if r.Type == icmp6.TypeEchoReply {
			live++
		}
	}
	if live != total-silent {
		t.Fatalf("direct echo heard %d devices, want the %d non-silent ones", live, total-silent)
	}
	if len(ndp.ByFrom) <= live {
		t.Fatal("NDP not more complete than echo — the on-link modality has no edge")
	}
}

// TestMLDHearsSilentListeners is the acceptance assertion behind
// `scent mld`: an MLD General-Query sweep — one probe per delegation,
// no address or candidate list anywhere — hears every occupied
// delegation's listener at its full address, including the ICMP-silent
// devices the echo sweep misses; and the discovered listener set is
// worker-count-invariant (the on-link answer path carries no loss or
// rate limiting).
func TestMLDHearsSilentListeners(t *testing.T) {
	env := modalityWorld(17)
	ctx := context.Background()
	pool := env.World.Providers()[0].Pools[0]

	total, silentWANs := 0, map[ip6.Addr]bool{}
	for i := range pool.CPEs() {
		c := &pool.CPEs()[i]
		total++
		if c.Silent {
			silentWANs[pool.WANAddrNow(c)] = true
		}
	}
	if len(silentWANs) == 0 || len(silentWANs) == total {
		t.Fatalf("fixture needs a mixed population, got %d/%d silent", len(silentWANs), total)
	}

	// One General Query per /56 delegation: the same per-link budget as
	// the echo sweep below.
	links, err := zmap.NewBaseTargets([]ip6.Prefix{pool.Prefix}, 56)
	if err != nil {
		t.Fatal(err)
	}
	mld, err := ScanModality(ctx, env, zmap.MLDModule{}, links, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(mld.ByFrom) != total {
		t.Fatalf("MLD heard %d listeners, want every occupied delegation (%d)", len(mld.ByFrom), total)
	}
	for from, r := range mld.ByFrom {
		if r.Type != icmp6.TypeMLDv2Report || r.From != from {
			t.Fatalf("listener %s carried %+v", from, r)
		}
	}

	// The echo sweep at the same granularity: silent devices are
	// invisible, and the visible ones answer only through periphery
	// errors at whatever address the probe happened to hit.
	ts, err := zmap.NewSubnetTargets([]ip6.Prefix{pool.Prefix}, 56, 11)
	if err != nil {
		t.Fatal(err)
	}
	echo, err := ScanModality(ctx, env, zmap.EchoModule{}, ts, 3)
	if err != nil {
		t.Fatal(err)
	}
	for wan := range silentWANs {
		if _, heard := mld.ByFrom[wan]; !heard {
			t.Fatalf("MLD missed the silent listener %s", wan)
		}
		if _, heard := echo.ByFrom[wan]; heard {
			t.Fatalf("echo sweep heard the silent device %s — fixture broken", wan)
		}
	}
	if len(mld.ByFrom) <= len(echo.ByFrom) {
		t.Fatalf("MLD (%d) not more complete than the echo sweep (%d)", len(mld.ByFrom), len(echo.ByFrom))
	}

	// Worker invariance of the discovered listener set.
	base := mld.Sources()
	for _, workers := range []int{2, 4} {
		wenv := modalityWorld(17)
		wenv.Scanner.Config.Workers = workers
		got, err := ScanModality(ctx, wenv, zmap.MLDModule{}, links, 3)
		if err != nil {
			t.Fatal(err)
		}
		sources := got.Sources()
		if len(sources) != len(base) {
			t.Fatalf("workers=%d: %d listeners, want %d", workers, len(sources), len(base))
		}
		for i := range sources {
			if sources[i] != base[i] {
				t.Fatalf("workers=%d: listener set differs at %d: %s vs %s",
					workers, i, sources[i], base[i])
			}
		}
	}
}
