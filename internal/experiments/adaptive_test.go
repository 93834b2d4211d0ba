package experiments

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"

	"followscent/internal/ip6"
	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

func sortedAddrKeys(m map[ip6.Addr]zmap.Result) []ip6.Addr {
	out := make([]ip6.Addr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// TestAdaptiveBeatsOneShot is the acceptance assertion for the §3-style
// adaptive-discovery study on the default world: following the scent
// from a coarse pass into responsive sub-prefixes is strictly more
// complete than the one-shot coarse scan, and strictly cheaper than the
// exhaustive fine-granularity sweep it approaches.
func TestAdaptiveBeatsOneShot(t *testing.T) {
	env := NewEnv(42)
	cfg := AdaptiveConfig{
		Prefixes: []ip6.Prefix{ip6.MustParsePrefix("2001:16b8:2000::/43")}, // CityKom: /56 delegations
		Salt:     0xada1,
	}
	res, err := AdaptiveDiscovery(context.Background(), env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) < 2 {
		t.Fatalf("snowball ended after %d rounds — no refinement happened", len(res.Rounds))
	}
	if res.OneShot == 0 {
		t.Fatal("one-shot coarse scan heard nothing: fixture broken")
	}
	if res.Snowball() <= res.OneShot {
		t.Fatalf("snowball (%d) not strictly more complete than one-shot (%d)", res.Snowball(), res.OneShot)
	}
	if res.SnowballProbes >= res.ExhaustiveProbes {
		t.Fatalf("snowball cost %d probes, not under the exhaustive %d", res.SnowballProbes, res.ExhaustiveProbes)
	}
	if res.Exhaustive == 0 {
		t.Fatal("exhaustive reference heard nothing")
	}
	var buf bytes.Buffer
	if err := AdaptiveRender(res, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "snowball:") {
		t.Fatalf("render missing summary:\n%s", buf.String())
	}
}

// TestAdaptiveConcentratesOnClusters runs the study over Wersatel's
// clustered /46 (the Figure 9/10 pool: ~21k /64 delegations in four
// contiguous DHCPv6-style runs) — the sparse-but-clustered space the
// snowball exists for. Refinement hit rates must climb well above the
// blind coarse pass, and the snowball must land most of the exhaustive
// completeness at a small fraction of its quarter-million-probe cost.
func TestAdaptiveConcentratesOnClusters(t *testing.T) {
	env := NewEnv(42)
	res, err := AdaptiveDiscovery(context.Background(), env, AdaptiveConfig{
		Prefixes: []ip6.Prefix{ip6.MustParsePrefix("2001:16b8:100::/46")},
		FineBits: 64,
		Salt:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) < 3 {
		t.Fatalf("descent to /64 ended after %d rounds", len(res.Rounds))
	}
	coarse := res.Rounds[0].HitRate()
	for _, r := range res.Rounds[1 : len(res.Rounds)-1] {
		// Every interior refinement round probes under confirmed blocks,
		// so its hit rate must beat blind coarse sampling. (The final
		// round reaches the clusters' sparse edges and is exempt only
		// from the multiple, not the ordering.)
		if r.HitRate() <= coarse {
			t.Errorf("round %d hit rate %.3f not above the blind coarse rate %.3f",
				r.Round, r.HitRate(), coarse)
		}
	}
	if res.SnowballProbes*4 >= res.ExhaustiveProbes {
		t.Fatalf("snowball cost %d probes, not under a quarter of the exhaustive %d",
			res.SnowballProbes, res.ExhaustiveProbes)
	}
	if res.Snowball()*2 <= res.Exhaustive {
		t.Fatalf("snowball found %d of the exhaustive %d — lost the clusters",
			res.Snowball(), res.Exhaustive)
	}
}

// TestAdaptiveRejectsOversizedRoots pins the round-0 materialization
// guard: a root far wider than the coarse granularity must fail with
// an error, not a makeslice panic.
func TestAdaptiveRejectsOversizedRoots(t *testing.T) {
	env := adaptiveWorld(23)
	for _, root := range []string{"::/0", "2001::/16"} {
		_, err := AdaptiveDiscovery(context.Background(), env, AdaptiveConfig{
			Prefixes: []ip6.Prefix{ip6.MustParsePrefix(root)},
			Salt:     1,
		})
		if err == nil {
			t.Fatalf("root %s accepted; want the coarse-sampling bound error", root)
		}
		if !strings.Contains(err.Error(), "coarse sampling") {
			t.Fatalf("root %s failed with %q, want the coarse-sampling bound error", root, err)
		}
	}
}

// TestAdaptiveLevelSaltsAvoidSampleCollisions is the regression test
// for the snowball's per-level derivation salts. SubnetTargets hashes
// (seed, sub-prefix base, index) but not the prefix length, and a
// block's first child shares the block's base — so with a single salt,
// a parent's sample and its child 0's sample collide with probability
// 2^-StepBits, and the address-keyed round dedup would silently stop
// refinement under that child. With per-level salts the samples must
// differ for every salt tried.
func TestAdaptiveLevelSaltsAvoidSampleCollisions(t *testing.T) {
	block := ip6.MustParsePrefix("2001:db8:40::/52")
	levelSeed := func(salt uint64, bits int) uint64 {
		return salt ^ uint64(bits)*0x9e3779b97f4a7c15 // targetsOf's formula
	}
	collisions := func(seedOf func(salt uint64, bits int) uint64) int {
		n := 0
		for salt := uint64(0); salt < 256; salt++ {
			parent, err := zmap.NewSubnetTargets([]ip6.Prefix{block}, 52, seedOf(salt, 52))
			if err != nil {
				t.Fatal(err)
			}
			child, err := zmap.NewSubnetTargets([]ip6.Prefix{block}, 54, seedOf(salt, 54))
			if err != nil {
				t.Fatal(err)
			}
			if parent.At(0) == child.At(0) {
				n++
			}
		}
		return n
	}
	if n := collisions(func(salt uint64, _ int) uint64 { return salt }); n == 0 {
		t.Fatal("single-salt derivation no longer collides — this regression guard is stale")
	}
	if n := collisions(levelSeed); n != 0 {
		t.Fatalf("per-level salts still collide for %d/256 salts", n)
	}
}

// adaptiveWorld is a loss-free, rate-limit-free fixture: every probe's
// outcome is a pure function of its target, so the study's outcome must
// be bit-identical for every worker count.
func adaptiveWorld(seed uint64) *Env {
	w := simnet.MustBuild(simnet.WorldSpec{
		Seed: seed,
		Providers: []simnet.ProviderSpec{{
			ASN: 65041, Name: "SnowNet", Country: "DE",
			Allocations:    []string{"2001:db8::/32"},
			BorderRespProb: 0.3,
			Pools: []simnet.PoolSpec{{
				Prefix: "2001:db8:40::/44", AllocBits: 56,
				Rotation:  simnet.RotationPolicy{Kind: simnet.RotateNone},
				Occupancy: 0.4, EUIFrac: 1,
			}},
		}},
	})
	return NewEnvFor(w, seed)
}

// TestAdaptiveBudgetNeverExceeded pins the budget-aware round
// scheduling: MaxProbes is a hard cap, not a stopping hint — a round
// that would overshoot is split via NextRoundCapped and the remainder
// carried, so the snowball's spend never passes the budget, for any
// budget and worker count.
func TestAdaptiveBudgetNeverExceeded(t *testing.T) {
	cfg := AdaptiveConfig{
		Prefixes: []ip6.Prefix{ip6.MustParsePrefix("2001:db8:40::/44")},
		Salt:     0x6b1,
	}
	free, err := AdaptiveDiscovery(context.Background(), adaptiveWorld(29), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if free.SnowballProbes < 300 {
		t.Fatalf("unbounded snowball spent only %d probes: fixture too small to test budgets", free.SnowballProbes)
	}
	for _, budget := range []uint64{100, free.SnowballProbes / 2, free.SnowballProbes - 1} {
		for _, workers := range []int{1, 4} {
			env := adaptiveWorld(29)
			env.Scanner.Config.Workers = workers
			bcfg := cfg
			bcfg.MaxProbes = budget
			res, err := AdaptiveDiscovery(context.Background(), env, bcfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.SnowballProbes > budget {
				t.Fatalf("budget %d, workers %d: snowball spent %d probes", budget, workers, res.SnowballProbes)
			}
			// The budget binds (the unbounded run spends more), and split
			// rounds carry their remainder, so the spend lands exactly on
			// the budget rather than stopping short at a round boundary.
			if res.SnowballProbes != budget {
				t.Fatalf("budget %d, workers %d: snowball spent %d, want the full budget",
					budget, workers, res.SnowballProbes)
			}
		}
	}
}

// TestAdaptiveWorkerInvariant pins the FeedbackSource determinism rule
// end to end: per-round target sets, per-round discovery counts and the
// final periphery set are identical for 1, 2 and 4 workers.
func TestAdaptiveWorkerInvariant(t *testing.T) {
	cfg := AdaptiveConfig{
		Prefixes: []ip6.Prefix{ip6.MustParsePrefix("2001:db8:40::/44")},
		Salt:     0x5e7,
	}
	type outcome struct {
		rounds []AdaptiveRound
		froms  []ip6.Addr
	}
	var base *outcome
	for _, workers := range []int{1, 2, 4} {
		env := adaptiveWorld(23)
		env.Scanner.Config.Workers = workers
		res, err := AdaptiveDiscovery(context.Background(), env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := &outcome{rounds: res.Rounds}
		for _, a := range sortedAddrKeys(res.ByFrom) {
			got.froms = append(got.froms, a)
		}
		if base == nil {
			base = got
			if len(base.froms) == 0 {
				t.Fatal("snowball discovered nothing: fixture broken")
			}
			continue
		}
		if len(got.rounds) != len(base.rounds) {
			t.Fatalf("workers=%d: %d rounds, want %d", workers, len(got.rounds), len(base.rounds))
		}
		for i := range got.rounds {
			if got.rounds[i] != base.rounds[i] {
				t.Fatalf("workers=%d: round %d = %+v, want %+v", workers, i, got.rounds[i], base.rounds[i])
			}
		}
		if len(got.froms) != len(base.froms) {
			t.Fatalf("workers=%d: %d periphery addresses, want %d", workers, len(got.froms), len(base.froms))
		}
		for i := range got.froms {
			if got.froms[i] != base.froms[i] {
				t.Fatalf("workers=%d: periphery set differs at %d: %s vs %s",
					workers, i, got.froms[i], base.froms[i])
			}
		}
	}
}
