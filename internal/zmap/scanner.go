package zmap

import (
	"context"
	"fmt"
)

// Scanner is a reusable scan runner: a transport factory plus a base
// configuration. Transports are single-use (the engine closes them), so
// repeated scanning needs a factory. The measurement pipeline in
// internal/core depends only on this type and TargetSet — never on the
// simulator — so it would drive a raw-socket transport unchanged.
type Scanner struct {
	// NewTransport returns a fresh transport. It is invoked once per
	// worker per scan pass, so with Config.Workers > 1 every worker
	// owns its own sender+receiver pair (its own socket, on a wire
	// transport).
	NewTransport func() (Transport, error)
	// Config is the base configuration; Seed is re-derived per scan via
	// the Salt argument so repeated passes can reuse or change probe
	// order deliberately.
	Config Config
}

// Scan runs one pass over ts. salt perturbs the scan-order seed;
// passing the same salt reproduces the same probe order and target IIDs.
func (s *Scanner) Scan(ctx context.Context, ts TargetSet, salt uint64, h Handler) (Stats, error) {
	return s.ScanSource(ctx, NewPermutedSource(ts), salt, h)
}

// ScanSource runs one pass over an arbitrary target source — the entry
// point for generator-backed sweeps (CandidateSource) and feedback
// rounds (FeedbackSource), with the same salt semantics as Scan.
func (s *Scanner) ScanSource(ctx context.Context, src TargetSource, salt uint64, h Handler) (Stats, error) {
	cfg := s.Config
	cfg.Seed = ScanSeed(cfg.Seed, salt)
	return ScanSource(ctx, s.factory, src, cfg, h)
}

// factory is NewTransport as the engine's per-worker TransportFactory.
func (s *Scanner) factory(int) (Transport, error) { return s.NewTransport() }

// ScanUntil runs one pass over ts that ends at the first result match
// accepts — first in the scan's sequential order, not in arrival order.
// A probe's rank is its position in the order one worker would send in;
// every worker reads the lowest matching rank before each probe and
// stops at its first position above it, so the probes sent below the
// find are exactly a prefix of that order. It returns the matching
// result of lowest rank (nil when nothing matched; Worker is unset) and
// the probes it cost: 1 + that rank, or every position when nothing
// matched — a pure function of (seed, salt, targets, world), equal for
// every worker count, batch width and transport. Stats.Sent beside it
// is the honest wire count: never less, more by whatever was in flight
// above the find when it landed.
//
// match is called from every worker concurrently and must be a pure
// predicate. A find is ranked by its target's place in the permutation,
// which names one probe only when each target gets exactly one, so the
// module must have a single position per target.
func (s *Scanner) ScanUntil(ctx context.Context, ts TargetSet, salt uint64, match func(Result) bool) (*Result, uint64, Stats, error) {
	cfg := s.Config
	cfg.fill()
	cfg.Seed = ScanSeed(cfg.Seed, salt)
	if m := cfg.multiplier(); m > 1 {
		return nil, 0, Stats{}, fmt.Errorf("zmap: ScanUntil needs one probe per target, module has %d positions", m)
	}
	stop := &earlyStop{match: match}
	stop.ord.Store(noOrdinal)
	st, err := scan(ctx, s.factory, NewPermutedSource(ts), cfg, nil, stop)
	if err != nil {
		return nil, 0, st, err
	}
	if ord := stop.ord.Load(); ord != noOrdinal {
		return &stop.res, ord + 1, st, nil
	}
	// Nothing matched: every position of this instance's shard.
	return nil, (ts.Len() + uint64(cfg.Shards-1-cfg.Shard)) / uint64(cfg.Shards), st, nil
}

// ScanSeed derives the effective Config.Seed a Scanner would use for
// one pass: the base seed mixed with the per-pass salt. Callers that
// drive the package-level ScanSource directly (distributed campaign
// workers need a per-worker TransportFactory, which Scanner does not
// expose) use this to reproduce a Scanner.Scan pass bit-for-bit.
func ScanSeed(seed, salt uint64) uint64 {
	return hash2(seed, salt)
}
