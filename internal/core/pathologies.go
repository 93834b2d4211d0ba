package core

import (
	"sort"
)

// This file implements the §5.5 pathology analyses: EUI-64 IIDs that
// appear in multiple ASes. The paper distinguishes three causes:
// default/all-zero MACs, vendor MAC reuse (the same IID visible on
// several continents on the same days, Figure 11), and customers
// switching providers (observations in one AS cease exactly when they
// begin in another, Figure 12).

// MultiASIID describes one IID observed in more than one AS.
type MultiASIID struct {
	IID  IID
	ASNs []uint32
	// DaysByAS maps each AS to the sorted observation days.
	DaysByAS map[uint32][]int
	// Overlapping is true when the IID was seen in two or more ASes on
	// the same day — the MAC-reuse signature (Figure 11).
	Overlapping bool
}

// MultiASIIDs returns every IID attributed to more than one AS, sorted
// by IID.
func (c *Corpus) MultiASIIDs() []MultiASIID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []MultiASIID
	for _, iid := range c.sortedIIDsLocked() {
		rec := c.iids[iid]
		asns := rec.ASNs()
		if len(asns) < 2 {
			continue
		}
		m := MultiASIID{IID: iid, ASNs: asns, DaysByAS: rec.daysByAS()}
		// Same-day presence in distinct ASes?
		seen := map[int]uint32{}
	overlap:
		for asn, ds := range m.DaysByAS {
			for _, d := range ds {
				if prev, ok := seen[d]; ok && prev != asn {
					m.Overlapping = true
					break overlap
				}
				seen[d] = asn
			}
		}
		out = append(out, m)
	}
	return out
}

// Switch describes an apparent provider change: an IID whose
// observations in FromASN end strictly before its observations in ToASN
// begin, never to return (Figure 12).
type Switch struct {
	IID      IID
	FromASN  uint32
	ToASN    uint32
	LastFrom int // last day observed in FromASN
	FirstTo  int // first day observed in ToASN
}

// ProviderSwitches extracts clean AS-to-AS moves from the multi-AS IIDs:
// exactly two ASes, disjoint in time.
func (c *Corpus) ProviderSwitches() []Switch {
	var out []Switch
	for _, m := range c.MultiASIIDs() {
		if len(m.ASNs) != 2 || m.Overlapping {
			continue
		}
		a, b := m.ASNs[0], m.ASNs[1]
		da, db := m.DaysByAS[a], m.DaysByAS[b]
		lastA, firstB := da[len(da)-1], db[0]
		lastB, firstA := db[len(db)-1], da[0]
		switch {
		case lastA < firstB:
			out = append(out, Switch{IID: m.IID, FromASN: a, ToASN: b, LastFrom: lastA, FirstTo: firstB})
		case lastB < firstA:
			out = append(out, Switch{IID: m.IID, FromASN: b, ToASN: a, LastFrom: lastB, FirstTo: firstA})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IID < out[j].IID })
	return out
}
