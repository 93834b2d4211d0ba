package core

import (
	"fmt"
	"sort"

	"followscent/internal/ip6"
	"followscent/internal/oui"
)

// HomogeneityEntry is one AS's manufacturer profile (§5.1, Figure 4).
type HomogeneityEntry struct {
	ASN         uint32
	IIDs        int            // unique EUI-64 IIDs attributed to the AS
	Vendors     map[string]int // vendor -> unique IID count
	TopVendor   string
	TopCount    int
	Homogeneity float64 // TopCount / IIDs
}

// Homogeneity computes per-AS manufacturer homogeneity from the campaign
// corpus: for every AS, the fraction of unique EUI-64 IIDs whose embedded
// MAC belongs to the most common vendor. ASes with fewer than minIIDs
// unique IIDs are excluded (the paper uses 100).
func Homogeneity(c *Corpus, reg *oui.Registry, minIIDs int) []HomogeneityEntry {
	c.mu.RLock()
	defer c.mu.RUnlock()

	perAS := map[uint32]map[string]int{}
	counts := map[uint32]int{}
	for _, iid := range c.sortedIIDsLocked() {
		rec := c.iids[iid]
		mac, ok := ip6.MACFromEUI64(uint64(iid))
		if !ok {
			continue
		}
		vendor, known := reg.Lookup(mac)
		if !known {
			// Unknown OUIs are still distinct manufacturers; group by OUI
			// so they cannot inflate any single vendor's share.
			vendor = fmt.Sprintf("unknown:%s", mac.OUI())
		}
		for _, asn := range rec.ASNs() {
			if perAS[asn] == nil {
				perAS[asn] = map[string]int{}
			}
			perAS[asn][vendor]++
			counts[asn]++
		}
	}

	var out []HomogeneityEntry
	for asn, vendors := range perAS {
		if counts[asn] < minIIDs {
			continue
		}
		e := HomogeneityEntry{ASN: asn, IIDs: counts[asn], Vendors: vendors}
		// Deterministic top-vendor pick: highest count, then name.
		names := make([]string, 0, len(vendors))
		for v := range vendors {
			names = append(names, v)
		}
		sort.Strings(names)
		for _, v := range names {
			if vendors[v] > e.TopCount {
				e.TopVendor, e.TopCount = v, vendors[v]
			}
		}
		e.Homogeneity = float64(e.TopCount) / float64(e.IIDs)
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// VendorTotals counts unique IIDs per vendor across the whole corpus —
// the "~200 distinct manufacturers" observation and the §8 "2 million
// MAC addresses from one vendor" disclosure trigger.
func VendorTotals(c *Corpus, reg *oui.Registry) map[string]int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := map[string]int{}
	for iid := range c.iids {
		mac, ok := ip6.MACFromEUI64(uint64(iid))
		if !ok {
			continue
		}
		vendor, known := reg.Lookup(mac)
		if !known {
			vendor = fmt.Sprintf("unknown:%s", mac.OUI())
		}
		out[vendor]++
	}
	return out
}
