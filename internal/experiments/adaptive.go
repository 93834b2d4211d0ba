package experiments

import (
	"context"
	"fmt"
	"io"

	"followscent/internal/ip6"
	"followscent/internal/zmap"
)

// Adaptive snowball discovery — the §3 workflow the fixed-TargetSet
// engine could not express: probe coarse sub-prefixes, then *follow the
// scent* into the responsive ones, descending granularity round by
// round until the delegation floor. Round 0 samples every root prefix
// at CoarseBits (one deterministic random-IID probe per coarse block);
// each confirmed periphery response then expands its covering block
// into the next-finer children via a zmap.FeedbackSource, and the
// snowball ends when a round opens no new space.
//
// The study reports three strategies over the same roots:
//
//   - one-shot: the round-0 coarse pass alone (the blind fixed budget);
//   - snowball: round 0 plus the feedback rounds;
//   - exhaustive: a blind scan at FineBits over everything — the
//     completeness ceiling, at the full probe cost.
//
// Adaptivity buys completeness over one-shot at a fraction of the
// exhaustive cost, and it concentrates refinement probes where the
// periphery actually answers (the per-round hit rates climb) — at the
// price of abandoning coarse blocks whose single sample happened to
// miss. TestAdaptiveBeatsOneShot asserts the completeness ordering on
// the default world; TestAdaptiveWorkerInvariant pins the per-round
// target sets across worker counts.

// AdaptiveConfig tunes the snowball study. Zero values take defaults.
type AdaptiveConfig struct {
	// Prefixes are the seed roots (each no longer than CoarseBits).
	Prefixes []ip6.Prefix
	// CoarseBits is the round-0 sampling granularity (default 52).
	CoarseBits int
	// FineBits is the refinement floor: the snowball stops descending at
	// this sub-prefix length (default 56, the common delegation size).
	FineBits int
	// StepBits is how many bits each refinement round descends
	// (default 2: a responsive block expands into its 4 children).
	StepBits int
	// MaxRounds bounds the snowball (default 16; the descent from
	// CoarseBits to FineBits naturally needs ⌈(Fine-Coarse)/Step⌉+1).
	MaxRounds int
	// MaxProbes is the snowball's probe budget. A round that would
	// overshoot it is split: only the head that fits is scheduled and
	// the remainder carries into the next round, so the snowball never
	// sends more than MaxProbes probes (TestAdaptiveBudgetNeverExceeded).
	// 0 means unbounded. Equal budgets make adaptive strategies
	// comparable — see TestOUISnowballBeatsPlainSnowball.
	MaxProbes uint64
	// Salt seeds target IIDs and probe order.
	Salt uint64
}

func (c *AdaptiveConfig) fill() error {
	if c.CoarseBits == 0 {
		c.CoarseBits = 52
	}
	if c.FineBits == 0 {
		c.FineBits = 56
	}
	if c.StepBits == 0 {
		c.StepBits = 2
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 16
	}
	if len(c.Prefixes) == 0 {
		return fmt.Errorf("experiments: adaptive discovery needs seed prefixes")
	}
	if c.CoarseBits > c.FineBits || c.FineBits > 64 || c.StepBits < 1 {
		return fmt.Errorf("experiments: invalid granularity descent /%d -> /%d by %d",
			c.CoarseBits, c.FineBits, c.StepBits)
	}
	// Round-0 targets are materialized (16 bytes each), so bound the
	// coarse sampling up front: a root far wider than CoarseBits would
	// otherwise die in makeslice instead of returning an error.
	var coarse uint64
	for _, p := range c.Prefixes {
		if p.Bits() > c.CoarseBits {
			return fmt.Errorf("experiments: seed prefix %s longer than coarse granularity /%d", p, c.CoarseBits)
		}
		// A sub-prefix count overflowing a uint64 is the extreme form of
		// exceeding the materialization bound below.
		n, ok := p.NumSubprefixes(c.CoarseBits)
		if !ok || n > maxCoarseTargets || coarse+n > maxCoarseTargets {
			return fmt.Errorf("experiments: coarse sampling at /%d needs more than %d probes; use a narrower root or a coarser -coarse",
				c.CoarseBits, maxCoarseTargets)
		}
		coarse += n
	}
	return nil
}

// roundBudget converts a probe budget's unspent remainder into a
// round-size cap in targets, under scanCfg's per-target probe cost
// (the module's position multiplier). It returns
// ok=false when the budget is exhausted — not even one more target
// fits — and cap 0 (uncapped) when there is no budget at all.
func roundBudget(maxProbes, spent uint64, scanCfg zmap.Config) (cap int, ok bool) {
	if maxProbes == 0 {
		return 0, true
	}
	if spent >= maxProbes {
		return 0, false
	}
	per := uint64(1)
	if scanCfg.Module != nil {
		if m := scanCfg.Module.Multiplier(); m > 1 {
			per = uint64(m)
		}
	}
	targets := (maxProbes - spent) / per
	if targets == 0 {
		return 0, false
	}
	if targets > 1<<31 {
		targets = 1 << 31
	}
	return int(targets), true
}

// maxCoarseTargets bounds the materialized round-0 target list (64 MiB
// of addresses). Refinement rounds grow adaptively from responses and
// need no such cap.
const maxCoarseTargets = 1 << 22

// AdaptiveRound is one snowball round's outcome.
type AdaptiveRound struct {
	Round        int
	Targets      int    // targets scheduled this round
	Sent         uint64 // probes actually sent
	NewPeriphery int    // periphery addresses first heard this round
}

// HitRate is the round's discovery efficiency: new periphery per probe.
func (r AdaptiveRound) HitRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.NewPeriphery) / float64(r.Sent)
}

// AdaptiveResult is the completed study.
type AdaptiveResult struct {
	Rounds []AdaptiveRound
	// ByFrom maps every periphery address the snowball heard (a source
	// inside one of the roots) to its last result.
	ByFrom map[ip6.Addr]zmap.Result
	// OneShot is the round-0-only completeness — what the non-adaptive
	// coarse scan would have reported.
	OneShot int
	// SnowballProbes is the snowball's total probe cost.
	SnowballProbes uint64
	// Exhaustive and ExhaustiveProbes are the blind FineBits-granularity
	// reference scan: the completeness ceiling and its cost.
	Exhaustive       int
	ExhaustiveProbes uint64
}

// Snowball is the snowball's total discovery completeness.
func (r *AdaptiveResult) Snowball() int { return len(r.ByFrom) }

// AdaptiveDiscovery runs the snowball study against the environment's
// scanner. Deterministic for a fixed (world, salt, config): target IIDs,
// per-round sets and per-probe loss are all derived hashes, and the
// FeedbackSource's sort-and-dedup rounds make the outcome invariant to
// the worker count.
func AdaptiveDiscovery(ctx context.Context, env *Env, cfg AdaptiveConfig) (*AdaptiveResult, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	// The handlers below mutate plain maps, so force the engine's
	// serializing merge stage even if the environment's scanner opted
	// into concurrent handler delivery.
	sc := *env.Scanner
	sc.Config.ConcurrentHandlers = false
	res := &AdaptiveResult{ByFrom: make(map[ip6.Addr]zmap.Result)}
	inRoots := func(a ip6.Addr) bool {
		for _, p := range cfg.Prefixes {
			if p.Contains(a) {
				return true
			}
		}
		return false
	}

	// grain remembers the granularity each scheduled target sampled, so
	// a confirmed response knows which block it just validated. It is
	// written only inside expansion (single-threaded, between passes).
	grain := make(map[ip6.Addr]int)
	targetsOf := func(block ip6.Prefix, bits int) []ip6.Addr {
		// One deterministic random-IID probe per sub-prefix of block —
		// the same derivation the fixed workloads use, salted per
		// granularity level. The level salt matters: SubnetTargets
		// derives the IID from (seed, sub-prefix base, index) without
		// the prefix length, and a block's first child shares its base,
		// so with one salt the parent's sample and child 0's sample
		// collide whenever the draw's StepBits host bits are zero
		// (probability 2^-StepBits) — the address-keyed round dedup
		// would then silently stall descent under that child. Distinct
		// per-level seeds reduce that to a 64-bit hash collision. The
		// constructor cannot fail here: cfg.fill validated every bits
		// relation.
		ts, err := zmap.NewSubnetTargets([]ip6.Prefix{block}, bits, cfg.Salt^uint64(bits)*0x9e3779b97f4a7c15)
		if err != nil {
			panic(err)
		}
		out := make([]ip6.Addr, ts.Len())
		for i := range out {
			out[i] = ts.At(uint64(i))
			grain[out[i]] = bits
		}
		return out
	}
	// A confirmed discovery widens to the block its probe sampled and
	// descends one step toward the delegation floor.
	fs := zmap.NewFeedbackSource(func(d ip6.Addr) []ip6.Addr {
		g := grain[d]
		if g >= cfg.FineBits {
			return nil
		}
		next := g + cfg.StepBits
		if next > cfg.FineBits {
			next = cfg.FineBits
		}
		return targetsOf(d.TruncateTo(g), next)
	})
	for _, p := range cfg.Prefixes {
		fs.PushTargets(targetsOf(p, cfg.CoarseBits)...)
	}

	for round := 0; round < cfg.MaxRounds; round++ {
		roundCap, ok := roundBudget(cfg.MaxProbes, res.SnowballProbes, sc.Config)
		if !ok {
			break
		}
		n := fs.NextRoundCapped(roundCap)
		if n == 0 {
			break
		}
		before := len(res.ByFrom)
		stats, err := sc.ScanSource(ctx, fs, cfg.Salt^uint64(round+1)<<8, func(r zmap.Result) {
			if !inRoots(r.From) {
				return // transit/border noise: not a periphery confirmation
			}
			res.ByFrom[r.From] = r
			fs.Push(r.Target)
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: snowball round %d: %w", round, err)
		}
		res.SnowballProbes += stats.Sent
		res.Rounds = append(res.Rounds, AdaptiveRound{
			Round: round, Targets: n, Sent: stats.Sent,
			NewPeriphery: len(res.ByFrom) - before,
		})
		if round == 0 {
			res.OneShot = len(res.ByFrom)
		}
	}

	// The exhaustive reference: blind FineBits coverage of every root.
	exTS, err := zmap.NewSubnetTargets(cfg.Prefixes, cfg.FineBits, cfg.Salt)
	if err != nil {
		return nil, err
	}
	exFound := make(map[ip6.Addr]struct{})
	exStats, err := sc.Scan(ctx, exTS, cfg.Salt^0xe8a5, func(r zmap.Result) {
		if inRoots(r.From) {
			exFound[r.From] = struct{}{}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: exhaustive reference: %w", err)
	}
	res.Exhaustive = len(exFound)
	res.ExhaustiveProbes = exStats.Sent
	return res, nil
}

// AdaptiveRender prints the per-round hit-rate table and the three-way
// strategy comparison — the artifact behind `scent snowball` and the
// examples/adaptive_discovery walkthrough.
func AdaptiveRender(res *AdaptiveResult, w io.Writer) error {
	if _, err := fmt.Fprintf(w, "round  targets  probes  new-periphery  hit-rate\n"); err != nil {
		return err
	}
	for _, r := range res.Rounds {
		if _, err := fmt.Fprintf(w, "%5d  %7d  %6d  %13d  %7.1f%%\n",
			r.Round, r.Targets, r.Sent, r.NewPeriphery, 100*r.HitRate()); err != nil {
			return err
		}
	}
	oneShotProbes := uint64(0)
	if len(res.Rounds) > 0 {
		oneShotProbes = res.Rounds[0].Sent
	}
	_, err := fmt.Fprintf(w,
		"one-shot coarse scan: %4d periphery in %6d probes\nsnowball:             %4d periphery in %6d probes\nexhaustive fine scan: %4d periphery in %6d probes\n",
		res.OneShot, oneShotProbes, res.Snowball(), res.SnowballProbes,
		res.Exhaustive, res.ExhaustiveProbes)
	return err
}
