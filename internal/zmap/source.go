package zmap

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"

	"followscent/internal/ip6"
)

// TargetSource is the engine's target-generation layer, separated from
// probe scheduling exactly as in real zmap's lineage: the engine owns
// workers, transports, pacing and stats, while the source owns *which*
// (target, sweep-position) pairs are probed and in what order. An
// indexable TargetSet walked through one cyclic permutation
// (PermutedSource) is just one implementation; generator-backed sources
// (CandidateSource) stream spaces too large or too irregular to index,
// and feedback sources (FeedbackSource) turn discoveries into the next
// round's targets — the paper's follow-the-scent workflow.
//
// Determinism contract: the union over shards and workers of the pairs
// a source emits in one attempt pass must not depend on cfg.Workers or
// the shard split, and each worker's order must be a pure function of
// (cfg, worker). Sources built on shardFilter inherit this from the
// engine's historical two-level partitioning.
type TargetSource interface {
	// Positions returns the number of (target, sweep-position) pairs one
	// attempt pass emits across all shards and workers, when known.
	// Generator-backed sources whose spaces are too large to count
	// return ok=false; the engine then relies on the streams themselves
	// to end, or on cancellation.
	Positions(cfg *Config) (n uint64, ok bool)
	// Stream returns worker w's probe stream for one attempt pass under
	// the filled configuration cfg. It is called once per worker per
	// attempt, so streams may hold non-thread-safe iteration state.
	Stream(cfg *Config, worker int) (Stream, error)
}

// Stream is one worker's walk over its sub-shard of a source's pairs.
//
// A Stream may additionally implement io.Closer; the engine then closes
// it when the walk ends — exhaustion, cancellation and transport
// failure alike. Sources whose streams share a generator (a feeding
// goroutine, a common queue) must propagate teardown: closing any one
// stream must stop the generator and unblock the other streams' pending
// Next calls, or an aborting scan would deadlock in Wait. See
// TestUnboundedSourceAbortsOnTransportError.
type Stream interface {
	// Next returns the next target and sweep position
	// (0 <= pos < the module's Multiplier), and ok=false when this
	// worker's pass is exhausted.
	Next() (target ip6.Addr, pos int, ok bool)
}

// closeStream releases a stream's resources when its walk ends for any
// reason — exhaustion, cancellation or transport failure. Generator-
// backed streams rely on this to stop their feeding goroutines.
func closeStream(st Stream) {
	if c, ok := st.(io.Closer); ok {
		c.Close()
	}
}

// shardFilter is the engine's historical two-level partition, shared by
// every deterministic source: position mod Shards selects the
// instance's shard, and the in-shard position mod Workers selects the
// worker — kept as wrapped counters so the hot loop divides nothing.
type shardFilter struct {
	shard, shards, worker, workers int
	shardCnt, workerCnt            int
}

func newShardFilter(cfg *Config, worker int) shardFilter {
	return shardFilter{shard: cfg.Shard, shards: cfg.Shards, worker: worker, workers: cfg.Workers}
}

// admit reports whether the next position in the source's global
// enumeration order belongs to this worker, advancing both counters.
func (f *shardFilter) admit() bool {
	mine := f.shardCnt == f.shard
	if f.shardCnt++; f.shardCnt == f.shards {
		f.shardCnt = 0
	}
	if !mine {
		return false
	}
	mine = f.workerCnt == f.worker
	if f.workerCnt++; f.workerCnt == f.workers {
		f.workerCnt = 0
	}
	return mine
}

// sequentialRank returns target's position in the sequential order of
// cfg's shard — src's one-worker stream — by replaying it. ok is false
// when the stream never emits target.
func sequentialRank(src TargetSource, cfg Config, target ip6.Addr) (rank uint64, ok bool) {
	cfg.Workers = 1
	st, err := src.Stream(&cfg, 0)
	if err != nil {
		return 0, false
	}
	defer closeStream(st)
	for ; ; rank++ {
		if t, _, more := st.Next(); !more {
			return 0, false
		} else if t == target {
			return rank, true
		}
	}
}

// PermutedSource adapts an indexable TargetSet to the source layer: the
// (target × module-multiplier) position space is walked through one
// multiplicative-group cyclic permutation, partitioned by shardFilter.
// This is the engine's historical behaviour verbatim — the probed set
// and every worker's probe order are byte-identical to the pre-source
// engine for every worker count (TestScanWorkerDeterminism,
// TestScanWorkerShardDeterminism, and the per-module determinism tests
// all run through it unmodified).
type PermutedSource struct {
	ts TargetSet

	// The multiplicative group depends only on the domain, so it is
	// found once and shared by every worker's stream of every attempt
	// pass (the prime search and generator factorization are the
	// expensive part of cycle construction).
	mu     sync.Mutex
	domain uint64
	p, g   uint64
}

// NewPermutedSource returns the cyclic-permutation source over ts.
func NewPermutedSource(ts TargetSet) *PermutedSource {
	return &PermutedSource{ts: ts}
}

// Positions implements TargetSource. A position space overflowing a
// uint64 reports unknown; the scan then fails in Stream.
func (s *PermutedSource) Positions(cfg *Config) (uint64, bool) {
	return mulNoOverflow(s.ts.Len(), cfg.multiplier())
}

// Stream implements TargetSource. A targets × multiplier product
// overflowing a uint64 fails here: the cyclic permutation would
// otherwise cover only the wrapped fraction of the position space — a
// silently truncated scan (the same overflow class CandidateSource
// rejects in total).
func (s *PermutedSource) Stream(cfg *Config, worker int) (Stream, error) {
	mult := cfg.multiplier()
	domain, ok := mulNoOverflow(s.ts.Len(), mult)
	if !ok {
		return nil, fmt.Errorf("zmap: %d targets x %d positions overflows", s.ts.Len(), mult)
	}
	s.mu.Lock()
	if s.p == 0 || s.domain != domain {
		p, g, err := cycleGroup(domain)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		s.domain, s.p, s.g = domain, p, g
	}
	cyc := newCycleFromGroup(domain, s.p, s.g, cfg.Seed)
	s.mu.Unlock()
	return &permutedStream{cyc: cyc, ts: s.ts, mult: mult, filter: newShardFilter(cfg, worker)}, nil
}

type permutedStream struct {
	cyc    *Cycle
	ts     TargetSet
	mult   uint64
	filter shardFilter
}

// Next implements Stream.
func (s *permutedStream) Next() (ip6.Addr, int, bool) {
	for {
		i, ok := s.cyc.Next()
		if !ok {
			return ip6.Addr{}, 0, false
		}
		if !s.filter.admit() {
			continue
		}
		pos := 0
		if s.mult > 1 {
			i, pos = i/s.mult, int(i%s.mult)
		}
		return s.ts.At(i), pos, true
	}
}

// CandidateSource synthesizes EUI-64 candidate addresses from vendor
// OUIs across a prefix — the on-link sweep source that lets `scent ndp`
// run without an explicit address list. For every sub-prefix of SubBits
// within Prefix, for every OUI, it emits the address embedding the
// modified EUI-64 IID of MAC (oui, suffix) for each device suffix in
// [0, SuffixSpan): the structure IEEE assignment gives real fleets
// (vendors hand out suffixes densely within an OUI block), and the
// search space §6's on-link adversary actually faces. The full space is
// 2^24 suffixes per OUI per sub-prefix — enumerable on a link at NDP
// rates, which is why the source streams instead of materializing.
//
// Enumeration order interleaves across sub-prefixes (the innermost
// index) so consecutive probes land on different delegations, then
// across OUIs, then suffixes. The order and the worker partition are
// deterministic (TestCandidateSourceDeterminism).
type CandidateSource struct {
	// Prefix is the swept space (a pool, a link's delegation plan).
	Prefix ip6.Prefix
	// SubBits is the delegation granularity: one candidate set is
	// emitted per sub-prefix of this length. 0 means 64 (one candidate
	// set per /64). A CPE's WAN address sits in the first /64 of its
	// delegation, so sweeping at the pool's allocation size finds it at
	// 1/2^(64-AllocBits) of the /64-granularity cost.
	SubBits int
	// OUIs are the vendor identifiers candidates embed. Required; the
	// builtin registry's oui.Builtin().All() is the natural default for
	// a CPE-fleet sweep.
	OUIs []ip6.OUI
	// SuffixBase is the first device suffix swept. The OUI-learning
	// feedback path sets it to sweep the window around a discovered
	// device's suffix instead of always starting at 0.
	SuffixBase uint32
	// SuffixSpan is how many device suffixes are swept per OUI per
	// sub-prefix, starting at SuffixBase. 0 means the rest of the 1<<24
	// space. SuffixBase+SuffixSpan must not exceed 1<<24.
	SuffixSpan uint32
}

const fullSuffixSpan = 1 << 24

func (s *CandidateSource) params() (subs, nouis, span uint64, subBits int, err error) {
	subBits = s.SubBits
	if subBits == 0 {
		subBits = 64
	}
	if subBits < s.Prefix.Bits() || subBits > 64 {
		return 0, 0, 0, 0, fmt.Errorf("zmap: candidate sub-prefix /%d invalid for %s", subBits, s.Prefix)
	}
	if len(s.OUIs) == 0 {
		return 0, 0, 0, 0, fmt.Errorf("zmap: candidate source has no OUIs")
	}
	if s.SuffixBase >= fullSuffixSpan {
		return 0, 0, 0, 0, fmt.Errorf("zmap: suffix base %d outside the 24-bit MAC suffix space", s.SuffixBase)
	}
	span = uint64(s.SuffixSpan)
	if span == 0 {
		span = fullSuffixSpan - uint64(s.SuffixBase)
	}
	if uint64(s.SuffixBase)+span > fullSuffixSpan {
		return 0, 0, 0, 0, fmt.Errorf("zmap: suffix window [%d, %d) exceeds the 24-bit MAC suffix space",
			s.SuffixBase, uint64(s.SuffixBase)+span)
	}
	subs, ok := s.Prefix.NumSubprefixes(subBits)
	if !ok {
		// A sub-prefix count overflowing a uint64 cannot be enumerated by
		// a 64-bit stream index; treat it exactly like the total overflow
		// below rather than walking a saturated bound.
		return 0, 0, 0, 0, fmt.Errorf("zmap: candidate space of %s at /%d overflows", s.Prefix, subBits)
	}
	return subs, uint64(len(s.OUIs)), span, subBits, nil
}

// total returns the exact pair count of one attempt pass. A space whose
// count overflows a uint64 is an error, not a saturated bound: the
// stream's 64-bit index could never cover it, and walking it against a
// clamped counter would re-emit truncated duplicates forever (the
// pre-fix behaviour — see TestCandidateSourceOverflow).
func (s *CandidateSource) total(cfg *Config) (uint64, error) {
	subs, nouis, span, _, err := s.params()
	if err != nil {
		return 0, err
	}
	n, ok := mulNoOverflow(subs, nouis)
	if ok {
		n, ok = mulNoOverflow(n, span)
	}
	if ok {
		n, ok = mulNoOverflow(n, cfg.multiplier())
	}
	if !ok {
		return 0, fmt.Errorf("zmap: candidate space %d sub-prefixes x %d OUIs x %d suffixes x %d positions overflows",
			subs, nouis, span, cfg.multiplier())
	}
	return n, nil
}

func mulNoOverflow(a, b uint64) (uint64, bool) {
	hi, lo := bits.Mul64(a, b)
	return lo, hi == 0
}

// Positions implements TargetSource. An overflowing space reports
// unknown; the scan then fails in Stream with the overflow diagnostic.
func (s *CandidateSource) Positions(cfg *Config) (uint64, bool) {
	n, err := s.total(cfg)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Stream implements TargetSource. Sources whose candidate space
// overflows a uint64 fail here rather than stream duplicates against a
// saturated bound.
func (s *CandidateSource) Stream(cfg *Config, worker int) (Stream, error) {
	subs, nouis, span, subBits, err := s.params()
	if err != nil {
		return nil, err
	}
	total, err := s.total(cfg)
	if err != nil {
		return nil, err
	}
	return &candidateStream{
		prefix: s.Prefix, subBits: subBits, ouis: s.OUIs,
		subs: subs, nouis: nouis, base: uint64(s.SuffixBase), span: span,
		total: total, mult: cfg.multiplier(),
		filter: newShardFilter(cfg, worker),
	}, nil
}

type candidateStream struct {
	prefix  ip6.Prefix
	subBits int
	ouis    []ip6.OUI
	subs    uint64
	nouis   uint64
	base    uint64
	span    uint64
	i       uint64
	total   uint64
	mult    uint64
	filter  shardFilter
}

// Next implements Stream: index i decomposes innermost-first into the
// module sweep position, then the sub-prefix, then the OUI, then the
// device suffix.
func (s *candidateStream) Next() (ip6.Addr, int, bool) {
	for s.i < s.total {
		i := s.i
		s.i++
		if !s.filter.admit() {
			continue
		}
		pos := 0
		if s.mult > 1 {
			i, pos = i/s.mult, int(i%s.mult)
		}
		sub := i % s.subs
		rest := i / s.subs
		o := s.ouis[rest%s.nouis]
		suffix := uint32(s.base + rest/s.nouis)
		mac := ip6.MACFromOUI(o, suffix)
		addr := s.prefix.Subprefix(sub, s.subBits).Addr().WithIID(ip6.EUI64FromMAC(mac))
		return addr, pos, true
	}
	return ip6.Addr{}, 0, false
}

// FeedbackSource is the adaptive source behind snowball discovery: a
// round-based queue that turns confirmed discoveries into the next
// round's refinement targets. A scan handler calls Push with each
// discovery (typically the probed target whose response confirmed its
// surroundings are worth refining); between scan passes the driver
// calls NextRound, which expands every newly pushed discovery through
// the Expand hook, deduplicates the resulting targets against
// everything already scheduled, and sorts them — so each round's target
// set is worker-count-invariant even though push order depends on
// worker scheduling (TestFeedbackSourcePushOrderInvariant,
// TestAdaptiveWorkerInvariant). Each round is then walked as a
// PermutedSource, inheriting the engine's cyclic order and worker
// determinism.
//
// NextRound must not be called while a scan pass over the source is in
// flight; Push is safe from concurrent handlers.
type FeedbackSource struct {
	expand func(ip6.Addr) []ip6.Addr

	mu          sync.Mutex
	discoveries []ip6.Addr
	direct      []ip6.Addr
	expanded    map[ip6.Addr]struct{}
	scheduled   map[ip6.Addr]struct{}
	carried     AddrTargets
	cur         *PermutedSource
	curTargets  AddrTargets
	round       int
}

// NewFeedbackSource returns an empty feedback source. expand derives
// the refinement targets a confirmed discovery opens up; it runs inside
// NextRound (single-threaded) and may be nil, in which case only
// PushTargets feeds rounds.
func NewFeedbackSource(expand func(ip6.Addr) []ip6.Addr) *FeedbackSource {
	return &FeedbackSource{
		expand:    expand,
		expanded:  make(map[ip6.Addr]struct{}),
		scheduled: make(map[ip6.Addr]struct{}),
	}
}

// Push records one confirmed discovery, to be expanded when the next
// round begins. Discoveries are deduplicated: re-pushing an address
// that was already expanded is a no-op, so rejected or repeated
// findings cannot re-open exhausted space.
func (f *FeedbackSource) Push(d ip6.Addr) {
	f.mu.Lock()
	f.discoveries = append(f.discoveries, d)
	f.mu.Unlock()
}

// PushTargets enqueues explicit probe targets for the next round,
// bypassing Expand — the round-0 seeding path.
func (f *FeedbackSource) PushTargets(addrs ...ip6.Addr) {
	f.mu.Lock()
	f.direct = append(f.direct, addrs...)
	f.mu.Unlock()
}

// NextRound drains the queue into the next round's target set and
// returns its size; 0 means the snowball is exhausted. Targets already
// scheduled in any earlier round are dropped, and the survivors are
// sorted, so the set is independent of push order.
func (f *FeedbackSource) NextRound() int { return f.NextRoundCapped(0) }

// NextRoundCapped is NextRound under a round-size budget: when the
// drained-and-deduplicated target set exceeds max (> 0), only the first
// max targets (in the deterministic sorted order) form the round and
// the remainder is carried into the next round ahead of new expansions.
// Budget-aware drivers use it to split a round that would overshoot
// AdaptiveConfig.MaxProbes instead of completing it past budget; the
// carried remainder keeps the overall target set identical to the
// uncapped schedule, only sliced differently across rounds.
func (f *FeedbackSource) NextRoundCapped(max int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	fresh := f.direct
	f.direct = nil
	for _, d := range f.discoveries {
		if _, done := f.expanded[d]; done {
			continue
		}
		f.expanded[d] = struct{}{}
		if f.expand != nil {
			fresh = append(fresh, f.expand(d)...)
		}
	}
	f.discoveries = nil
	// Carried targets entered the scheduled map when first drained, so
	// they rejoin the round directly, ahead of this drain's dedupe.
	next := f.carried
	f.carried = nil
	for _, a := range fresh {
		if _, seen := f.scheduled[a]; seen {
			continue
		}
		f.scheduled[a] = struct{}{}
		next = append(next, a)
	}
	sort.Slice(next, func(i, j int) bool { return next[i].Less(next[j]) })
	if max > 0 && len(next) > max {
		f.carried = append(AddrTargets(nil), next[max:]...)
		next = next[:max]
	}
	f.curTargets = next
	f.cur = NewPermutedSource(next)
	f.round++
	return len(next)
}

// Round returns how many times NextRound has been called.
func (f *FeedbackSource) Round() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.round
}

// RoundTargets returns a copy of the current round's target set, in its
// deterministic sorted order.
func (f *FeedbackSource) RoundTargets() []ip6.Addr {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]ip6.Addr, len(f.curTargets))
	copy(out, f.curTargets)
	return out
}

func (f *FeedbackSource) roundSource() *PermutedSource {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cur
}

// Positions implements TargetSource. Before the first NextRound the
// length is reported unknown — not zero — so a scan reaches Stream and
// fails with the missing-NextRound diagnostic instead of the
// misleading "empty target set".
func (f *FeedbackSource) Positions(cfg *Config) (uint64, bool) {
	src := f.roundSource()
	if src == nil {
		return 0, false
	}
	return src.Positions(cfg)
}

// Stream implements TargetSource.
func (f *FeedbackSource) Stream(cfg *Config, worker int) (Stream, error) {
	src := f.roundSource()
	if src == nil {
		return nil, fmt.Errorf("zmap: feedback source scanned before NextRound")
	}
	return src.Stream(cfg, worker)
}
