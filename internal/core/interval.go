package core

import (
	"sort"

	"followscent/internal/analysis"
)

// Rotation-interval estimation — the paper's stated future work ("we
// plan to more exhaustively explore the range of provider behaviors,
// including rotations on a weekly or monthly basis", §4.3).
//
// The two-snapshot detector only answers "did anything change in 24
// hours". With the longitudinal corpus we can do better: for every
// device, the gaps between consecutive observation days on which its
// /64 changed estimate the provider's rotation period; the per-AS
// median is robust to missed days (devices rotating out of the probed
// window) and to churn.

// IntervalSample is one device's estimated rotation period in days.
type IntervalSample struct {
	IID  IID
	ASN  uint32
	Days float64 // median days between observed prefix changes; +Inf-like sentinel not used: devices with no change are skipped
}

// IntervalSamples estimates the rotation period per device. Devices
// observed in only one prefix contribute nothing (their period exceeds
// the campaign; the detector cannot distinguish "static" from "slow").
func (c *Corpus) IntervalSamples() []IntervalSample {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []IntervalSample
	for _, iid := range c.sortedIIDsLocked() {
		rec := c.iids[iid]
		if rec.prefixCount < 2 {
			continue
		}
		// Build the day -> prefix map (first observation wins; a device
		// is in exactly one prefix per day outside pathologies).
		byDay := map[int]uint64{}
		days := make([]int, 0, len(rec.Days))
		for i := range rec.Days {
			d := rec.Days[i].Day
			if _, ok := byDay[d]; !ok {
				byDay[d] = rec.Days[i].Resp.High64()
				days = append(days, d)
			}
		}
		sort.Ints(days)
		// Gaps between consecutive observations whose prefix differs.
		var gaps []float64
		lastChange := days[0]
		for k := 1; k < len(days); k++ {
			if byDay[days[k]] != byDay[days[k-1]] {
				gaps = append(gaps, float64(days[k]-lastChange))
				lastChange = days[k]
			}
		}
		if len(gaps) == 0 {
			continue
		}
		out = append(out, IntervalSample{
			IID:  iid,
			ASN:  primaryASN(rec),
			Days: analysis.Median(gaps),
		})
	}
	return out
}

// RotationIntervalByAS returns the per-AS median rotation period in
// days. ASes whose devices never changed prefix are absent.
func RotationIntervalByAS(samples []IntervalSample) map[uint32]float64 {
	perAS := map[uint32][]float64{}
	for _, s := range samples {
		perAS[s.ASN] = append(perAS[s.ASN], s.Days)
	}
	out := make(map[uint32]float64, len(perAS))
	for asn, days := range perAS {
		out[asn] = analysis.Median(days)
	}
	return out
}
