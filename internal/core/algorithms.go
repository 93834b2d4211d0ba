package core

import (
	"sort"

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
		rec := c.iids[iid]
		// A device may appear in several prefixes on one day (rotation
		// mid-scan); take the widest same-response span, which is the
		// conservative reading of Algorithm 1's per-EUI target map.
		best := -1
		var asn uint32
		for i := range rec.Days {
			d := &rec.Days[i]
			if d.Day != day {
				continue
			}
			if b := spanBits(d.MinTargetHi, d.MaxTargetHi); b > best {
				best = b
				asn = c.asnOfLocked(rec, d)
			}
		}
		if best >= 0 {
			out = append(out, AllocationSample{IID: iid, ASN: asn, Bits: prefixFromSpan(best)})
		}
	}
	return out
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
		rec := c.iids[iid]
		out = append(out, PoolSample{
			IID:  iid,
			ASN:  c.primaryASNLocked(rec),
			Bits: prefixFromSpan(spanBits(rec.MinRespHi, rec.MaxRespHi)),
		})
	}
	return out
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
	out := make([]IID, 0, len(c.iids))
	for iid := range c.iids {
		out = append(out, iid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// asnOfLocked attributes one day-observation to an AS.
func (c *Corpus) asnOfLocked(rec *IIDRecord, d *DayObs) uint32 {
	if r, ok := c.rib.Lookup(d.Resp); ok {
		return r.ASN
	}
	return 0
}

// primaryASNLocked is the AS an IID was seen in on the most days;
// ties go to the lowest ASN.
func (c *Corpus) primaryASNLocked(rec *IIDRecord) uint32 {
	var best uint32
	bestDays := 0
	for _, ad := range rec.asDays {
		n := 0
		for _, o := range rec.asDays {
			if o.asn == ad.asn {
				n++
			}
		}
		if n > bestDays || n == bestDays && ad.asn < best {
			best, bestDays = ad.asn, n
		}
	}
	return best
}
