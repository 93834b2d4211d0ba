package core

import (
	"bytes"
	"maps"
	"slices"
	"sort"

	"followscent/internal/ip6"
)

// Snapshot is an immutable view of a Corpus at one ingestion boundary:
// fenced copies of every record header over the live append-only
// history, plus the derived views the serving layer queries, carried by
// value: the vendor census (devices per OUI) and the per-AS Algorithm
// 1/2 medians, read at publish from the tables ScanDay.Commit keeps
// current. A Snapshot is safe for unlimited concurrent readers while
// the originating Corpus keeps ingesting — the corpus never writes
// below a length a snapshot saw — and every answer it gives is
// byte-identical to the batch computation over the day set it captured.
type Snapshot struct {
	c    *Corpus // frozen: never mutated after Snapshot returns
	days []int

	census    map[ip6.OUI]int
	allocByAS map[uint32]int
	poolByAS  map[uint32]int
}

// Snapshot publishes an immutable view of the corpus in O(records),
// independent of history length. It copies the counter totals, the day
// set and every IID record's header by value; each header's history
// slices share the live backing arrays, cut to their current length and
// capacity (s[:n:n]). The view stays frozen because the live corpus
// never writes below a length it has published: later days append past
// the fence, and an out-of-order day copies a record's history instead
// of shifting it (see mergeLocked). The non-EUI-64 responder list is
// fenced the same way; no per-address set is copied. The census and the
// per-AS medians are copied out of the warm tables in O(OUIs + ASes).
func (c *Corpus) Snapshot() *Snapshot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cl := &Corpus{
		rib:            c.rib,
		iids:           make(map[IID]*IIDRecord, len(c.iids)),
		TotalProbes:    c.TotalProbes,
		TotalResponses: c.TotalResponses,
		days:           maps.Clone(c.days),
		euiCount:       c.euiCount,
		others:         slices.Clip(c.others),
	}
	headers := make([]IIDRecord, 0, len(c.iids))
	for iid, rec := range c.iids {
		h := *rec
		h.Days = slices.Clip(rec.Days)
		h.asDays = slices.Clip(rec.asDays)
		headers = append(headers, h)
		cl.iids[iid] = &headers[len(headers)-1]
	}
	return &Snapshot{
		c:         cl,
		days:      slices.Sorted(maps.Keys(cl.days)),
		census:    maps.Clone(c.census),
		allocByAS: c.allocHist.medians(),
		poolByAS:  c.poolHist.medians(),
	}
}

// Corpus exposes the frozen view for the full batch API (TimeSeries,
// AllocationSamples, Save, …). Callers must treat it as read-only: the
// snapshot's isolation guarantee is exactly that nothing writes here.
// The view holds no warm tables, so publish snapshots from the live
// corpus, not from this view.
func (s *Snapshot) Corpus() *Corpus { return s.c }

// Days returns the committed scan-day set the snapshot captured,
// sorted ascending. The returned slice is shared — do not modify.
func (s *Snapshot) Days() []int { return s.days }

// NumIIDs returns the distinct EUI-64 IID count.
func (s *Snapshot) NumIIDs() int { return s.c.NumIIDs() }

// Observed resolves a response address ever seen in the corpus to its
// IID. Records hold only EUI-64 responders, whose IID is the address's
// low 64 bits (RFC 4291 App. A), so this is one record lookup plus one
// pass over that device's history.
func (s *Snapshot) Observed(a ip6.Addr) (IID, bool) {
	iid := IID(a.IID())
	rec, ok := s.c.iids[iid]
	if !ok || !slices.ContainsFunc(rec.Days, func(d DayObs) bool { return d.Resp == a }) {
		return 0, false
	}
	return iid, true
}

// OUICount is one vendor-census row: how many distinct devices carry
// MACs from one OUI block.
type OUICount struct {
	OUI     ip6.OUI
	Devices int
}

// VendorCensus counts devices per vendor OUI, optionally restricted to
// devices observed inside pool (zero Prefix = whole corpus, answered
// from the carried census). Rows are sorted by descending population,
// ties by OUI, so the census is deterministic.
func (s *Snapshot) VendorCensus(pool ip6.Prefix) []OUICount {
	counts := s.census
	if !pool.IsZero() {
		counts = map[ip6.OUI]int{}
		for iid, rec := range s.c.iids {
			mac, ok := ip6.MACFromEUI64(uint64(iid))
			if ok && slices.ContainsFunc(rec.Days, func(d DayObs) bool { return pool.Contains(d.Resp) }) {
				counts[mac.OUI()]++
			}
		}
	}
	out := make([]OUICount, 0, len(counts))
	for o, n := range counts {
		out = append(out, OUICount{OUI: o, Devices: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Devices != out[j].Devices {
			return out[i].Devices > out[j].Devices
		}
		return bytes.Compare(out[i].OUI[:], out[j].OUI[:]) < 0
	})
	return out
}

// AllocationByAS is Algorithm 1 over every captured day: the per-AS
// median customer-allocation prefix length. The returned map is shared
// — do not modify.
func (s *Snapshot) AllocationByAS() map[uint32]int { return s.allocByAS }

// PoolByAS is Algorithm 2 over the whole captured corpus: the per-AS
// median rotation-pool prefix length. The returned map is shared — do
// not modify.
func (s *Snapshot) PoolByAS() map[uint32]int { return s.poolByAS }
