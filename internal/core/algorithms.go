package core

import (
	"maps"
	"slices"

	"followscent/internal/analysis"
	"followscent/internal/uint128"
)

// This file implements the paper's Appendix Algorithms 1 and 2.
//
// Both reduce an address span to a prefix-length inference: given the
// numerically smallest and largest upper-64-bit values an EUI-64 IID was
// associated with, size = log2(max-min) bits of movement, and the
// corresponding prefix length is 64 - size. Algorithm 1 spans the
// *target* addresses that one response address answered on a single day
// (how much space routes to one CPE: the customer allocation); Algorithm
// 2 spans the *response* addresses across the whole campaign (how far
// the CPE travels: the rotation pool).

// spanBits returns ceil(log2(hi-lo)) clamped to [0, 64].
func spanBits(lo, hi uint64) int {
	if hi <= lo {
		return 0
	}
	b := uint128.From64(hi - lo).Log2Ceil()
	if b > 64 {
		b = 64
	}
	return b
}

// prefixFromSpan converts a span in /64 units to a prefix length.
func prefixFromSpan(bits int) int { return 64 - bits }

// AllocationSample is one per-device allocation-size inference.
type AllocationSample struct {
	IID  IID
	ASN  uint32
	Bits int // inferred customer allocation prefix length (48..64)
}

// AllocationSamples runs Algorithm 1's per-device step over one scan
// day: for every EUI-64 IID observed that day, the span of target
// addresses its response address covered, as a prefix length.
func (c *Corpus) AllocationSamples(day int) []AllocationSample {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []AllocationSample
	for _, iid := range c.sortedIIDsLocked() {
		if at, bits := widestOnDay(c.iids[iid], day); at != nil {
			out = append(out, AllocationSample{IID: iid, ASN: c.OriginASN(at.Resp), Bits: bits})
		}
	}
	return out
}

// widestOnDay is Algorithm 1's step for one record and day: rec's entry
// on day with the widest same-response target span, whose AS the sample
// is attributed to, and that span as a prefix length; nil if the IID
// was not seen that day. A device may appear in several prefixes on one
// day (rotation mid-scan); the widest span is the conservative reading
// of Algorithm 1's per-EUI target map, and a tie goes to the first entry.
func widestOnDay(rec *IIDRecord, day int) (*DayObs, int) {
	lo, hi := dayRange(rec.Days, day)
	best := -1
	var at *DayObs
	for i := lo; i < hi; i++ {
		d := &rec.Days[i]
		if b := spanBits(d.MinTargetHi, d.MaxTargetHi); b > best {
			best, at = b, d
		}
	}
	return at, prefixFromSpan(best)
}

// AllocationSizeByAS runs Algorithm 1 in full for one scan day: the
// median of the per-device inferences, per AS.
func AllocationSizeByAS(samples []AllocationSample) map[uint32]int {
	perAS := map[uint32][]int{}
	for _, s := range samples {
		perAS[s.ASN] = append(perAS[s.ASN], s.Bits)
	}
	out := make(map[uint32]int, len(perAS))
	for asn, bits := range perAS {
		out[asn] = analysis.MedianInt(bits)
	}
	return out
}

// PoolSample is one per-device rotation-pool inference.
type PoolSample struct {
	IID  IID
	ASN  uint32
	Bits int // inferred rotation pool prefix length (<=64; 64 = no movement)
}

// PoolSamples runs Algorithm 2's per-device step over the whole corpus:
// the maximum numeric distance between any two /64 periphery prefixes
// containing each EUI-64 IID.
func (c *Corpus) PoolSamples() []PoolSample {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []PoolSample
	for _, iid := range c.sortedIIDsLocked() {
		p := poolSample(c.iids[iid])
		out = append(out, PoolSample{IID: iid, ASN: p.asn, Bits: p.bits})
	}
	return out
}

// poolSample is Algorithm 2's step for one record: its response
// span as a prefix length, attributed to its primary AS.
func poolSample(rec *IIDRecord) sample {
	return sample{asn: primaryASN(rec), bits: prefixFromSpan(spanBits(rec.MinRespHi, rec.MaxRespHi))}
}

// PoolSizeByAS runs Algorithm 2 in full: the per-AS median of the
// per-device pool inferences.
func PoolSizeByAS(samples []PoolSample) map[uint32]int {
	perAS := map[uint32][]int{}
	for _, s := range samples {
		perAS[s.ASN] = append(perAS[s.ASN], s.Bits)
	}
	out := make(map[uint32]int, len(perAS))
	for asn, bits := range perAS {
		out[asn] = analysis.MedianInt(bits)
	}
	return out
}

// PrefixesPerIID returns, for every IID, the number of distinct /64
// prefixes it was observed in (Figure 8's distribution).
func (c *Corpus) PrefixesPerIID() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]int, 0, len(c.iids))
	for _, iid := range c.sortedIIDsLocked() {
		out = append(out, c.iids[iid].prefixCount)
	}
	return out
}

// sortedIIDsLocked returns IIDs in sorted order; caller holds c.mu.
func (c *Corpus) sortedIIDsLocked() []IID {
	out := slices.AppendSeq(make([]IID, 0, len(c.iids)), maps.Keys(c.iids))
	slices.Sort(out)
	return out
}

// primaryASN is the AS an IID was seen in on the most days; ties go to
// the lowest ASN.
func primaryASN(rec *IIDRecord) uint32 {
	if !rec.multiAS {
		if len(rec.asDays) == 0 {
			return 0
		}
		return rec.asDays[0].asn
	}
	// asDays holds each (AS, day) once, and few records span more than
	// one or two ASes, so a linear tally is cheap.
	type tally struct {
		asn  uint32
		days int
	}
	var buf [4]tally
	ts := buf[:0]
	for _, ad := range rec.asDays {
		i := 0
		for i < len(ts) && ts[i].asn != ad.asn {
			i++
		}
		if i == len(ts) {
			ts = append(ts, tally{asn: ad.asn})
		}
		ts[i].days++
	}
	var best tally
	for _, t := range ts {
		if t.days > best.days || t.days == best.days && t.asn < best.asn {
			best = t
		}
	}
	return best.asn
}

// sample is one per-device inference of Algorithm 1 or 2: a prefix
// length (0..64) attributed to an AS.
type sample struct {
	asn  uint32
	bits int
}

// bitsHist is a histogram of prefix-length samples, one bin per length
// 0..64.
type bitsHist struct {
	n   int
	bin [65]int
}

// median is analysis.MedianInt over the histogram's samples: the lower
// median, s[(n-1)/2] of the sorted samples.
func (h *bitsHist) median() int {
	k := (h.n - 1) / 2
	for bits, n := range h.bin {
		if k < n {
			return bits
		}
		k -= n
	}
	panic("core: median of an empty histogram")
}

// asHists holds one bitsHist per AS that has samples.
type asHists map[uint32]*bitsHist

// add counts (delta +1) or retracts (delta -1) one sample; an AS left
// with none leaves the map, as the batch per-AS maps hold only ASes
// that have samples.
func (t asHists) add(s sample, delta int) {
	h := t[s.asn]
	if h == nil {
		h = new(bitsHist)
		t[s.asn] = h
	}
	h.bin[s.bits] += delta
	h.n += delta
	if h.n == 0 {
		delete(t, s.asn)
	}
}

// medians reduces every AS's histogram to its median.
func (t asHists) medians() map[uint32]int {
	out := make(map[uint32]int, len(t))
	for asn, h := range t {
		out[asn] = h.median()
	}
	return out
}
