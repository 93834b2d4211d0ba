package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

// The matrix runs once per test binary; every assertion below reads the
// same artifact `scent experiment` emits.
var (
	matrixOnce sync.Once
	matrixVal  *Matrix
	matrixErr  error
)

func defenseMatrix(t *testing.T) *Matrix {
	t.Helper()
	matrixOnce.Do(func() {
		matrixVal, matrixErr = RunDefenseMatrix(context.Background(), MatrixConfig{})
	})
	if matrixErr != nil {
		t.Fatal(matrixErr)
	}
	return matrixVal
}

func mustCell(t *testing.T, m *Matrix, world, modality string, subBits int) Cell {
	t.Helper()
	c, ok := m.Cell(world, modality, subBits)
	if !ok {
		t.Fatalf("matrix has no cell %s/%s/%d", world, modality, subBits)
	}
	return c
}

// TestDefenseMatrixCompleteness is the tentpole assertion: all six
// probe modalities swept against every spec-loaded defense world, with
// the per-cell behaviour each defense is supposed to produce.
func TestDefenseMatrixCompleteness(t *testing.T) {
	m := defenseMatrix(t)

	if len(m.Worlds) < 4 {
		t.Fatalf("matrix covers %d defense worlds, want >= 4", len(m.Worlds))
	}
	if len(m.Budgets) < 2 {
		t.Fatalf("matrix covers %d probe budgets, want >= 2", len(m.Budgets))
	}
	want := len(m.Worlds) * len(MatrixModalities) * len(m.Budgets)
	if len(m.Cells) != want {
		t.Fatalf("matrix has %d cells, want %d (worlds x modalities x budgets)", len(m.Cells), want)
	}

	for _, world := range m.Worlds {
		for _, budget := range m.Budgets {
			// The on-link modalities are completeness 1.0 in EVERY world:
			// neighbor resolution and multicast listening are how the link
			// functions, so no addressing mode, edge ACL, or link loss
			// removes a device from them — the paper's case that the
			// defense conversation cannot stop at ICMP filtering.
			for _, onlink := range []string{"ndp", "mld"} {
				c := mustCell(t, m, world, onlink, budget)
				if c.Completeness != 1.0 {
					t.Errorf("%s/%s/%d: completeness %.4f, want 1.0 (on-link modalities are immune to off-link defenses)",
						world, onlink, budget, c.Completeness)
				}
			}
			// Off-link modalities can never beat the responsive
			// population: silent devices are invisible off-link in every
			// world.
			for _, offlink := range []string{"echo", "udp", "tcp", "hoplimit"} {
				c := mustCell(t, m, world, offlink, budget)
				if c.Completeness >= 1.0 {
					t.Errorf("%s/%s/%d: completeness %.4f >= 1.0, but the silent fraction must be invisible off-link",
						world, offlink, budget, c.Completeness)
				}
			}
		}
	}

	// Baseline control: the three off-link periphery modalities discover
	// the identical device set (they differ only in what real-world
	// filtering they survive), and discovery is already saturated at one
	// probe per delegation — the paper's "a single probe per /56
	// suffices" observation.
	for _, budget := range m.Budgets {
		echo := mustCell(t, m, "baseline", "echo", budget)
		if echo.Completeness < 0.7 {
			t.Errorf("baseline/echo/%d: completeness %.4f, want the responsive population (~0.78)", budget, echo.Completeness)
		}
		for _, other := range []string{"udp", "tcp", "hoplimit"} {
			c := mustCell(t, m, "baseline", other, budget)
			if c.Discovered != echo.Discovered {
				t.Errorf("baseline/%s/%d discovered %d devices, echo %d — off-link modalities must agree on an unfiltered edge",
					other, budget, c.Discovered, echo.Discovered)
			}
		}
	}

	// Filtering world: the edge ACL drops echo and UDP (and the
	// hop-limit sweep's echo probes past the border), but TCP RSTs
	// survive — the modality the paper notes outlives ICMPv6 filtering.
	for _, budget := range m.Budgets {
		for _, filtered := range []string{"echo", "udp", "hoplimit"} {
			c := mustCell(t, m, "filtered", filtered, budget)
			if c.Discovered != 0 {
				t.Errorf("filtered/%s/%d: discovered %d devices through an edge ACL that drops the modality",
					filtered, budget, c.Discovered)
			}
		}
		tcp := mustCell(t, m, "filtered", "tcp", budget)
		if tcp.Completeness < 0.7 {
			t.Errorf("filtered/tcp/%d: completeness %.4f — TCP must survive the echo/udp ACL", budget, tcp.Completeness)
		}
	}

	// Lossy world: completeness is budget-bound. One probe per
	// delegation leaves ~loss_prob of the periphery undiscovered; four
	// probes per delegation recover almost all of it. This is the
	// completeness x probe-budget tradeoff the matrix exists to chart.
	coarse, fine := m.Budgets[0], m.Budgets[1]
	for _, offlink := range []string{"echo", "udp", "tcp"} {
		lo := mustCell(t, m, "lossy", offlink, coarse)
		hi := mustCell(t, m, "lossy", offlink, fine)
		if lo.Discovered >= hi.Discovered {
			t.Errorf("lossy/%s: %d discovered at /%d budget but %d at /%d — more probes must recover loss",
				offlink, lo.Discovered, coarse, hi.Discovered, fine)
		}
		base := mustCell(t, m, "baseline", offlink, coarse)
		if lo.Completeness >= base.Completeness {
			t.Errorf("lossy/%s/%d: completeness %.4f not below baseline %.4f", offlink, coarse, lo.Completeness, base.Completeness)
		}
	}
	// The hop-limit sweep probes each target at every TTL, so it buys
	// loss-recovery from its own budget even at the coarse granularity.
	hlo := mustCell(t, m, "lossy", "hoplimit", coarse)
	elo := mustCell(t, m, "lossy", "echo", coarse)
	if hlo.Discovered <= elo.Discovered {
		t.Errorf("lossy/hoplimit/%d discovered %d, echo %d — the TTL sweep's retransmissions must beat single probes",
			coarse, hlo.Discovered, elo.Discovered)
	}
}

// TestDefenseMatrixTrackingRows pins the §6 adversary's fate against
// each defense: EUI-64 and static-random IIDs track across rotations,
// per-rotation privacy IIDs and DHCPv6 leases do not.
func TestDefenseMatrixTrackingRows(t *testing.T) {
	m := defenseMatrix(t)
	row := func(world string) TrackingRow {
		r, ok := m.TrackingFor(world)
		if !ok {
			t.Fatalf("matrix has no tracking row for %s", world)
		}
		return r
	}

	baseline := row("baseline")
	if baseline.Refound != baseline.Observed || baseline.Rate < 0.7 {
		t.Errorf("baseline tracking: %d/%d refound (rate %.3f) — every observed EUI-64 IID must re-identify",
			baseline.Refound, baseline.Observed, baseline.Rate)
	}
	if weak := row("privacy-static"); weak.Refound != weak.Observed || weak.Rate < 0.7 {
		t.Errorf("privacy-static tracking: %d/%d refound (rate %.3f) — the weak RFC 4941 SHOULD keeps devices trackable",
			weak.Refound, weak.Observed, weak.Rate)
	}
	if priv := row("privacy"); priv.Rate > 0.05 {
		t.Errorf("privacy tracking rate %.3f — per-rotation IIDs must defeat re-identification", priv.Rate)
	}
	if lease := row("dhcpv6"); lease.Rate > 0.05 {
		t.Errorf("dhcpv6 tracking rate %.3f — re-leased IIDs must defeat re-identification", lease.Rate)
	}
	if filt := row("filtered"); filt.Rate < 0.7 {
		t.Errorf("filtered tracking rate %.3f — the TCP modality must track through the echo/udp ACL", filt.Rate)
	}
	if lossy := row("lossy"); lossy.Rate >= baseline.Rate || lossy.Rate < 0.2 {
		t.Errorf("lossy tracking rate %.3f vs baseline %.3f — loss degrades but does not defeat tracking",
			lossy.Rate, baseline.Rate)
	}
	if static := row("static"); static.Refound != static.Observed {
		t.Errorf("static tracking: %d/%d refound — nothing rotates, everything re-identifies",
			static.Refound, static.Observed)
	}
}

// TestDefenseMatrixBlockingRows pins the §9 observation: against a
// rotating pool, address- and allocation-granularity abuse blocking
// stops nothing, and the only effective granularity (the whole pool)
// buys its effectiveness with massive collateral. Against a
// non-rotating pool, address blocking works with zero collateral.
func TestDefenseMatrixBlockingRows(t *testing.T) {
	m := defenseMatrix(t)
	row := func(world, gran string) BlockingRow {
		r, ok := m.BlockingFor(world, gran)
		if !ok {
			t.Fatalf("matrix has no blocking row for %s/%s", world, gran)
		}
		return r
	}

	for _, world := range m.Worlds {
		if world == "static" {
			continue
		}
		if addr := row(world, "address"); addr.Effectiveness > 0.2 {
			t.Errorf("%s: address blocking effectiveness %.3f against a rotating pool", world, addr.Effectiveness)
		}
		if alloc := row(world, "allocation"); alloc.Effectiveness > 0.2 {
			t.Errorf("%s: allocation blocking effectiveness %.3f against a rotating pool", world, alloc.Effectiveness)
		}
		pool := row(world, "pool")
		if pool.Effectiveness < 0.7 {
			t.Errorf("%s: pool blocking effectiveness %.3f, want the whole-pool hammer to work", world, pool.Effectiveness)
		}
		if pool.CollateralDays < 100 {
			t.Errorf("%s: pool blocking collateral %d innocent-days — the hammer must be expensive", world, pool.CollateralDays)
		}
	}

	static := row("static", "address")
	if static.Effectiveness < 0.8 {
		t.Errorf("static: address blocking effectiveness %.3f — without rotation the IPv4 paradigm works", static.Effectiveness)
	}
	if static.CollateralDays != 0 {
		t.Errorf("static: address blocking collateral %d, want 0", static.CollateralDays)
	}
}

// TestPrivacyExtensionDegradation sweeps RFC 4941 adoption over
// otherwise-identical worlds at a fixed probe budget and asserts
// tracking completeness is monotone non-increasing in adoption — the
// §8 remediation curve. The spec layer guarantees more than statistics
// here: raising adoption only ever flips devices from EUI-64 to
// privacy (the mode draw is a nested threshold on one uniform), so the
// trackable set shrinks pointwise.
func TestPrivacyExtensionDegradation(t *testing.T) {
	adoptionSpec := func(adoption float64) simnet.WorldSpec {
		return simnet.WorldSpec{
			Seed: 31,
			Providers: []simnet.ProviderSpec{{
				ASN: 65201, Name: "AdoptNet", Country: "DE",
				Allocations:    []string{"2001:db8::/32"},
				RouterHops:     3,
				BorderRespProb: 0.3,
				Pools: []simnet.PoolSpec{{
					Prefix: "2001:db8:10::/48", AllocBits: 56,
					Rotation:  simnet.DailyStride(3),
					Occupancy: 0.5,
					EUIFrac:   1 - adoption,
				}},
			}},
		}
	}

	ctx := context.Background()
	adoptions := []float64{0, 0.25, 0.5, 0.75, 1}
	rates := make([]float64, len(adoptions))
	for i, a := range adoptions {
		env, err := NewSpecEnv(adoptionSpec(a), 0)
		if err != nil {
			t.Fatal(err)
		}
		row, err := TrackOneRotation(ctx, env, 56)
		if err != nil {
			t.Fatal(err)
		}
		rates[i] = row.Rate
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] > rates[i-1] {
			t.Fatalf("tracking completeness rose with privacy adoption: %.3f at %.0f%% but %.3f at %.0f%% (curve %v)",
				rates[i-1], 100*adoptions[i-1], rates[i], 100*adoptions[i], rates)
		}
	}
	if rates[0] < 0.95 {
		t.Errorf("zero-adoption tracking rate %.3f, want ~1 (all EUI-64, no loss, no silence)", rates[0])
	}
	if rates[len(rates)-1] > 0.05 {
		t.Errorf("full-adoption tracking rate %.3f, want ~0", rates[len(rates)-1])
	}
	if rates[0] <= rates[len(rates)-1] {
		t.Errorf("degradation curve flat: %v", rates)
	}
}

// TestDefenseMatrixWorkerInvariance is the determinism regression: the
// same specs and seed produce a byte-identical matrix artifact at 1, 2
// and 4 workers. Everything order-dependent (loss, silence, response
// content) is derived from content hashes, never from arrival order.
func TestDefenseMatrixWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("three full matrix runs")
	}
	ctx := context.Background()
	var base []byte
	for _, workers := range []int{1, 2, 4} {
		m, err := RunDefenseMatrix(ctx, MatrixConfig{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = data
		} else if !bytes.Equal(base, data) {
			t.Fatalf("workers=%d: matrix artifact differs from workers=1:\n%s\nvs\n%s", workers, data, base)
		}
	}
}

// TestMatrixLoopbackUDPEquivalence is the transport half of the
// determinism regression: the modality sweep over the lossy world (the
// one whose spec sets wire-only reorder/dup link effects) produces
// byte-identical cells through the in-process loopback and through a
// live simnetd-style UDP server. Duplication and reordering happen on
// the wire, but the discovered-source artifact is invariant to both.
func TestMatrixLoopbackUDPEquivalence(t *testing.T) {
	worlds, err := DefenseWorlds()
	if err != nil {
		t.Fatal(err)
	}
	var spec simnet.WorldSpec
	found := false
	for _, dw := range worlds {
		if dw.Name == "lossy" {
			spec, found = dw.Spec, true
		}
	}
	if !found {
		t.Fatal("no lossy defense world")
	}
	ctx := context.Background()

	sweep := func(env *Env) []byte {
		t.Helper()
		var all []Cell
		for _, sb := range []int{56, 58} {
			cells, err := ModalitySweep(ctx, env, sb)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, cells...)
		}
		data, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	loopEnv, err := NewSpecEnv(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	viaLoopback := sweep(loopEnv)

	// The UDP side: serve the identically-built world on a real socket,
	// and point a fresh env's scanner at it. The client keeps its own
	// copy of the world for ground truth; both clocks stay frozen at the
	// epoch.
	server := simnet.MustBuild(spec)
	conn, err := simnet.ListenUDP(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
	if err != nil {
		t.Fatal(err)
	}
	srvCtx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- server.ServeUDP(srvCtx, conn, 0) }()
	addr := conn.LocalAddr().String()

	udpEnv, err := NewSpecEnv(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	udpEnv.Scanner.NewTransport = func() (zmap.Transport, error) { return zmap.DialUDP(addr) }
	udpEnv.Scanner.Config.Rate = 20000
	udpEnv.Scanner.Config.Cooldown = 250 * time.Millisecond
	viaUDP := sweep(udpEnv)

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("ServeUDP: %v", err)
	}
	conn.Close()

	if !bytes.Equal(viaLoopback, viaUDP) {
		t.Fatalf("matrix cells differ across transports:\nloopback: %s\nudp:      %s", viaLoopback, viaUDP)
	}
}
