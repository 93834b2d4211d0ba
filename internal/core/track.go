package core

import (
	"context"
	"fmt"
	"time"

	"followscent/internal/analysis"
	"followscent/internal/bgp"
	"followscent/internal/ip6"
	"followscent/internal/zmap"
)

// Tracker is the §6 adversary: given an EUI-64 IID last seen at some
// address, it re-finds the device after prefix rotation by probing one
// target per inferred-allocation-size block across the device's inferred
// rotation pool (the Figure 2 search-space reduction), stopping as soon
// as a response carries the target IID.
type Tracker struct {
	Scanner *zmap.Scanner
	RIB     *bgp.Table
	// AllocBits and PoolBits are the per-AS inferences from Algorithms 1
	// and 2 (keyed by origin ASN). Missing entries fall back to the
	// conservative defaults: /64 allocations and the covering BGP prefix
	// as the pool.
	AllocBits map[uint32]int
	PoolBits  map[uint32]int
	// WidenBits, when positive, implements §6's "motivated adversary"
	// recovery: after each day the device goes unfound, the next day's
	// search pool widens by WidenBits bits (up to the covering BGP
	// advertisement). An under-estimated rotation pool — the paper's
	// first explanation for lost devices — then costs extra probes
	// instead of losing the device forever. A find resets the widening.
	WidenBits int
}

// TrackState is the adversary's knowledge of one device.
type TrackState struct {
	IID      IID
	LastSeen ip6.Addr
	History  []TrackDay
	// misses counts consecutive unfound days, driving pool widening.
	misses int
	// learnedPoolBits remembers a widened pool that produced a find: a
	// successful recovery proves the inference was too narrow, so the
	// adversary keeps the wider aperture (it never narrows again).
	learnedPoolBits int
}

// TrackDay records one day's tracking attempt.
type TrackDay struct {
	Day        int
	Found      bool
	Addr       ip6.Addr // the device's address when found
	Moved      bool     // found in a different /64 than LastSeen
	ProbesSent uint64   // 1 + the find's rank in the scan order (or every position, if not found)
	ASN        uint32
}

// NewTrackState starts tracking a device from its last known address.
func NewTrackState(last ip6.Addr) (*TrackState, error) {
	if !ip6.AddrIsEUI64(last) {
		return nil, fmt.Errorf("core: %s is not an EUI-64 address", last)
	}
	return &TrackState{IID: IID(last.IID()), LastSeen: last}, nil
}

// searchPlan derives the day's probing plan from the current knowledge.
func (t *Tracker) searchPlan(st *TrackState) (pool ip6.Prefix, allocBits int, asn uint32, err error) {
	route, ok := t.RIB.Lookup(st.LastSeen)
	if !ok {
		return ip6.Prefix{}, 0, 0, fmt.Errorf("core: %s not in BGP table", st.LastSeen)
	}
	asn = route.ASN
	poolBits := route.Prefix.Bits() // fall back to the whole advertisement
	if b, ok := t.PoolBits[asn]; ok {
		poolBits = b
	}
	if st.learnedPoolBits > 0 && st.learnedPoolBits < poolBits {
		poolBits = st.learnedPoolBits
	}
	// Widen after misses: the pool inference may have under-estimated.
	if t.WidenBits > 0 && st.misses > 0 {
		poolBits -= st.misses * t.WidenBits
		if poolBits < route.Prefix.Bits() {
			poolBits = route.Prefix.Bits()
		}
	}
	allocBits = 64
	if b, ok := t.AllocBits[asn]; ok {
		allocBits = b
	}
	if allocBits < poolBits {
		// Inconsistent inferences (pool narrower than one allocation):
		// probe at pool granularity.
		allocBits = poolBits
	}
	if allocBits > 64 {
		allocBits = 64
	}
	// The pool instance is the one containing the last known address:
	// "addresses tend to stay within their rotation pools" (§5.3).
	pool = st.LastSeen.TruncateTo(poolBits)
	return pool, allocBits, asn, nil
}

// Step runs one tracking day: probe the pool, one random-IID target per
// allocation block, in zmap-random order, until the IID answers. salt
// must vary per day so targets change (a fixed silent host in one block
// should not hide the device forever).
func (t *Tracker) Step(ctx context.Context, st *TrackState, day int, salt uint64) (TrackDay, error) {
	pool, allocBits, asn, err := t.searchPlan(st)
	if err != nil {
		return TrackDay{}, err
	}
	ts, err := zmap.NewSubnetTargets([]ip6.Prefix{pool}, allocBits, salt)
	if err != nil {
		return TrackDay{}, err
	}
	// The scan ends at the find of lowest rank in the permutation, so the
	// day's probe count is a function of (salt, pool, world) and not of
	// how far the other workers had got when the device answered.
	find, probes, _, err := t.Scanner.ScanUntil(ctx, ts, salt, func(r zmap.Result) bool {
		return IID(r.From.IID()) == st.IID
	})
	if err != nil {
		return TrackDay{}, err
	}
	td := TrackDay{Day: day, ProbesSent: probes, ASN: asn}
	if find != nil {
		td.Found = true
		td.Addr = find.From
		td.Moved = find.From.Slash64() != st.LastSeen.Slash64()
		st.LastSeen = find.From
		if st.misses > 0 && t.WidenBits > 0 {
			// The widened search is what found it: remember the width.
			st.learnedPoolBits = pool.Bits()
		}
		st.misses = 0
	} else {
		st.misses++
	}
	st.History = append(st.History, td)
	return td, nil
}

// Track follows one device for the given number of days, advancing time
// through wait between attempts.
func (t *Tracker) Track(ctx context.Context, st *TrackState, days int, baseSalt uint64, wait func(time.Duration)) error {
	for d := 0; d < days; d++ {
		if _, err := t.Step(ctx, st, d, baseSalt+uint64(d)*0x9e37); err != nil {
			return fmt.Errorf("core: tracking day %d: %w", d, err)
		}
		if d != days-1 {
			wait(24 * time.Hour)
		}
	}
	return nil
}

// Summary condenses a track history into the Table 2 row form.
type TrackSummary struct {
	IID        IID
	MeanProbes float64
	StdProbes  float64
	DaysFound  int
	DaysTotal  int
	Slash64s   int // distinct /64s the device was found in
	ASN        uint32
}

// Summarize computes the Table 2 statistics for a tracked device.
func Summarize(st *TrackState) TrackSummary {
	s := TrackSummary{IID: st.IID, DaysTotal: len(st.History)}
	var probes []float64
	prefixes := map[uint64]struct{}{}
	for _, d := range st.History {
		probes = append(probes, float64(d.ProbesSent))
		if d.Found {
			s.DaysFound++
			prefixes[d.Addr.High64()] = struct{}{}
			s.ASN = d.ASN
		}
	}
	s.Slash64s = len(prefixes)
	s.MeanProbes, s.StdProbes = analysis.MeanStd(probes)
	return s
}
