// Package core implements the paper's measurement methodology: the
// allocation-size and rotation-pool inference algorithms (§3.2,
// Algorithms 1-2), the Internet-wide rotating-prefix discovery pipeline
// (§4), the longitudinal campaign analyses (§5), and the targeted device
// tracker (§6).
//
// Everything here consumes only probe observations — ⟨target, response
// source⟩ pairs over time — through the zmap Scanner abstraction. The
// package never imports the network simulator; pointed at a raw-socket
// transport it would measure the real Internet.
package core

import (
	"cmp"
	"maps"
	"slices"
	"sort"
	"sync"

	"followscent/internal/bgp"
	"followscent/internal/ip6"
)

// IID is a 64-bit interface identifier (the lower half of an address).
type IID uint64

// DayObs aggregates one device-day: every probe on `Day` whose response
// came from the same source address `Resp`.
type DayObs struct {
	Day  int
	Resp ip6.Addr // the responding WAN address
	// MinTargetHi/MaxTargetHi bound the upper-64 bits of the *probed*
	// targets answered by Resp that day — Algorithm 1's input.
	MinTargetHi, MaxTargetHi uint64
	// Count is how many probes Resp answered that day.
	Count int
}

// IIDRecord accumulates everything the campaign learned about one EUI-64
// interface identifier. Its slices are day-ordered history that
// snapshots share with the live corpus (see Corpus.Snapshot): once a
// length is published, nothing below it is ever written again.
type IIDRecord struct {
	IID  IID
	Days []DayObs // chronological; multiple entries per day possible
	// MinRespHi/MaxRespHi bound the upper-64 bits of every response
	// address ever seen for this IID — Algorithm 2's input.
	MinRespHi, MaxRespHi uint64
	// prefixCount is the number of distinct /64 prefixes the IID was
	// observed in (Figure 8).
	prefixCount int
	// asDays lists the distinct (origin AS, day) pairs the IID was
	// observed in, in day order (§5.5 pathologies).
	asDays []asDay
	// multiAS records that asDays holds more than one AS.
	multiAS bool
}

type asDay struct {
	asn uint32
	day int
}

// PrefixCount returns the number of distinct /64s the IID appeared in.
func (r *IIDRecord) PrefixCount() int { return r.prefixCount }

// ASNs returns the origin ASes the IID was observed in, sorted.
func (r *IIDRecord) ASNs() []uint32 {
	out := make([]uint32, 0, len(r.asDays))
	for _, ad := range r.asDays {
		out = append(out, ad.asn)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// daysByAS groups the record's observation days by origin AS, each
// list sorted.
func (r *IIDRecord) daysByAS() map[uint32][]int {
	out := make(map[uint32][]int, 1)
	for _, ad := range r.asDays {
		out[ad.asn] = append(out[ad.asn], ad.day)
	}
	for _, days := range out {
		slices.Sort(days)
	}
	return out
}

// MAC recovers the embedded hardware address.
func (r *IIDRecord) MAC() (ip6.MAC, bool) { return ip6.MACFromEUI64(uint64(r.IID)) }

// Corpus is the accumulated campaign dataset: per-IID records plus
// per-day global statistics. Reads are safe from any goroutine and may
// interleave with ScanDay.Commit, which applies a whole day under one
// lock.
type Corpus struct {
	rib *bgp.Table

	mu   sync.RWMutex
	iids map[IID]*IIDRecord

	// Totals across the campaign (the §5 headline numbers).
	TotalProbes    uint64
	TotalResponses uint64
	days           map[int]struct{}
	// Unique responders: euiSet holds the EUI-64 ones (DayObs.Resp) and
	// euiCount counts them for snapshots, which do not copy the set;
	// others lists the rest, append-only for snapshots; otherSet indexes it.
	euiCount int
	euiSet   map[ip6.Addr]struct{}
	others   []ip6.Addr
	otherSet map[ip6.Addr]struct{}

	// Warm tables, kept current by mergeLocked so that a snapshot
	// carries the vendor census and the Algorithm 1/2 per-AS medians
	// without scanning the records: devices per OUI, and per AS a
	// histogram of Algorithm 1's per-(IID, day) samples and one of
	// Algorithm 2's per-IID samples.
	census    map[ip6.OUI]int
	allocHist asHists
	poolHist  asHists
}

// NewCorpus returns an empty corpus attributing addresses via rib.
func NewCorpus(rib *bgp.Table) *Corpus {
	return &Corpus{
		rib:       rib,
		iids:      make(map[IID]*IIDRecord),
		days:      make(map[int]struct{}),
		euiSet:    make(map[ip6.Addr]struct{}),
		otherSet:  make(map[ip6.Addr]struct{}),
		census:    make(map[ip6.OUI]int),
		allocHist: make(asHists),
		poolHist:  make(asHists),
	}
}

// ScanDay collects one day's scan. It is day-local until Commit: Record
// and AddProbes touch only the ScanDay, so a day that is never committed
// leaves no trace in the corpus. Use NewScanDay, feed it every probe
// result from one goroutine, then Commit.
type ScanDay struct {
	c     *Corpus
	day   int
	agg   map[ip6.Addr]int      // index in obs of each EUI-64 responder; nil once committed
	obs   []DayObs              // the day's EUI-64 responses, one per responder
	other map[ip6.Addr]struct{} // the day's non-EUI-64 responders
	meta  DaySegmentMeta        // see Meta
}

// NewScanDay starts collecting observations for the given day index.
func (c *Corpus) NewScanDay(day int) *ScanDay {
	return &ScanDay{c: c, day: day, agg: make(map[ip6.Addr]int), other: make(map[ip6.Addr]struct{})}
}

// Day returns the day index the ScanDay collects.
func (s *ScanDay) Day() int { return s.day }

// Meta returns what the day's journal segment persists beside its
// observations: the probes and responses recorded and, once committed,
// the non-EUI-64 responders the commit added to the corpus.
func (s *ScanDay) Meta() DaySegmentMeta { return s.meta }

// Record adds one probe result: the probed target and the source of the
// response. Non-EUI-64 responses count toward the global counters only,
// as in the paper (14.8M of 19.4M discovered addresses were EUI-64; only
// those drive the per-IID analyses).
func (s *ScanDay) Record(target, from ip6.Addr) {
	s.meta.Responses++
	if !ip6.AddrIsEUI64(from) {
		s.other[from] = struct{}{}
		return
	}
	hi := target.High64()
	obs := s.obsFor(from, hi, hi)
	if hi < obs.MinTargetHi {
		obs.MinTargetHi = hi
	}
	if hi > obs.MaxTargetHi {
		obs.MaxTargetHi = hi
	}
	obs.Count++
}

// obsFor returns the day's aggregate for the EUI-64 responder resp,
// starting one with the given target span if it has none.
func (s *ScanDay) obsFor(resp ip6.Addr, minHi, maxHi uint64) *DayObs {
	i, ok := s.agg[resp]
	if !ok {
		i = len(s.obs)
		s.agg[resp] = i
		s.obs = append(s.obs, DayObs{Day: s.day, Resp: resp, MinTargetHi: minHi, MaxTargetHi: maxHi})
	}
	return &s.obs[i]
}

// AddProbes accounts probes sent (responsive or not).
func (s *ScanDay) AddProbes(n uint64) { s.meta.Probes += n }

// Commit folds the day into the corpus under one lock: the probe and
// response counters, the day's non-EUI-64 responders into the corpus's
// set of them (Meta then lists the new ones), and its observations.
// A second Commit adds nothing.
func (s *ScanDay) Commit() {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.agg == nil {
		return
	}
	c.TotalProbes += s.meta.Probes
	c.TotalResponses += s.meta.Responses
	s.meta.NewOtherAddrs = c.addOthersLocked(slices.Collect(maps.Keys(s.other)))
	s.other = nil
	s.mergeLocked()
}

// addOthersLocked adds to the corpus the non-EUI-64 responders in addrs
// it has not seen yet and returns those. The caller holds c.mu.
func (c *Corpus) addOthersLocked(addrs []ip6.Addr) []ip6.Addr {
	n := len(c.others)
	for _, a := range addrs {
		if _, ok := c.otherSet[a]; !ok {
			c.otherSet[a] = struct{}{}
			c.others = append(c.others, a)
		}
	}
	return slices.Clip(c.others[n:])
}

// mergeLocked appends the day's observations to their IID records,
// marks the day present and keeps the warm tables current. The caller
// holds c.mu.
//
// Snapshots share each record's slices up to the length they saw, so
// merging never writes below a record's current length: an in-order
// day appends past it, and a day that lands before later ones copies
// the history into a new backing array instead of shifting it in place.
//
// The tables are kept by retract-then-add: a touched record's samples
// leave the histograms before its merge and re-enter after it, which
// stays exact when a day is merged twice, lands out of order, or moves
// the record's primary AS.
//
// A merge costs O(the day's observations): each one is placed from the
// tail of its record's day-ordered history, is checked against the
// corpus's EUI-64 responder set, and costs one RIB lookup.
func (s *ScanDay) mergeLocked() {
	c := s.c
	c.days[s.day] = struct{}{}
	// Deterministic merge order (map iteration is randomized), grouped
	// by IID: sorted by IID, then by response address.
	obs := s.obs
	slices.SortFunc(obs, func(a, b DayObs) int {
		return cmp.Or(cmp.Compare(a.Resp.IID(), b.Resp.IID()), cmp.Compare(a.Resp.High64(), b.Resp.High64()))
	})
	asns := make([]uint32, len(obs)) // origin AS of each observation
	for i, j := 0, 0; i < len(obs); i = j {
		iid := IID(obs[i].Resp.IID())
		for j = i + 1; j < len(obs) && IID(obs[j].Resp.IID()) == iid; j++ {
		}
		rec, ok := c.iids[iid]
		if ok {
			c.tallyLocked(rec, s.day, -1, c.OriginASN)
		} else {
			hi := obs[i].Resp.High64()
			rec = &IIDRecord{IID: iid, MinRespHi: hi, MaxRespHi: hi}
			c.iids[iid] = rec
			if mac, ok := rec.MAC(); ok {
				c.census[mac.OUI()]++
			}
		}
		for k := i; k < j; k++ {
			asns[k] = c.OriginASN(obs[k].Resp)
			c.appendLocked(rec, &obs[k], asns[k])
		}
		// The day's allocation sample comes from one of its responses,
		// most often one just merged, whose AS is already known.
		c.tallyLocked(rec, s.day, +1, func(a ip6.Addr) uint32 {
			for k := i; k < j; k++ {
				if obs[k].Resp == a {
					return asns[k]
				}
			}
			return c.OriginASN(a)
		})
	}
	s.agg, s.obs = nil, nil
}

// tallyLocked adds (delta +1) or retracts (delta -1) rec's samples in
// the warm tables: its Algorithm 2 pool sample and, if it was seen on
// day, its Algorithm 1 allocation sample for that day, attributed by
// origin. The caller holds c.mu.
func (c *Corpus) tallyLocked(rec *IIDRecord, day, delta int, origin func(ip6.Addr) uint32) {
	c.poolHist.add(poolSample(rec), delta)
	if at, bits := widestOnDay(rec, day); at != nil {
		c.allocHist.add(sample{asn: origin(at.Resp), bits: bits}, delta)
	}
}

// appendLocked merges one aggregated observation, whose response
// address originates in asn, into rec.
func (c *Corpus) appendLocked(rec *IIDRecord, obs *DayObs, asn uint32) {
	if _, ok := c.euiSet[obs.Resp]; !ok {
		// The IID is fixed, so a new address is a new /64.
		c.euiSet[obs.Resp] = struct{}{}
		c.euiCount++
		rec.prefixCount++
	}
	// A day committed after a later one still lands in day order.
	_, at := dayRange(rec.Days, obs.Day)
	rec.Days = insertFenced(rec.Days, at, *obs)
	hi := obs.Resp.High64()
	if hi < rec.MinRespHi {
		rec.MinRespHi = hi
	}
	if hi > rec.MaxRespHi {
		rec.MaxRespHi = hi
	}
	rec.addASDay(asDay{asn: asn, day: obs.Day})
}

// addASDay adds ad to rec's (AS, day) pairs unless it is there. Only
// the pairs of ad's day and later ones are looked at, from the tail.
func (rec *IIDRecord) addASDay(ad asDay) {
	at := len(rec.asDays)
	for at > 0 && rec.asDays[at-1].day >= ad.day {
		if rec.asDays[at-1] == ad {
			return
		}
		at--
	}
	if len(rec.asDays) > 0 && rec.asDays[0].asn != ad.asn {
		rec.multiAS = true
	}
	rec.asDays = insertFenced(rec.asDays, at, ad)
}

// dayRange returns the bounds [lo, hi) of day's entries in the
// day-ordered history days, found from its tail: days mostly land in
// order, so the newest day costs only its own entries.
func dayRange(days []DayObs, day int) (lo, hi int) {
	hi = len(days)
	for hi > 0 && days[hi-1].Day > day {
		hi--
	}
	lo = hi
	for lo > 0 && days[lo-1].Day == day {
		lo--
	}
	return lo, hi
}

// insertFenced inserts v at index at of s without writing below
// len(s): at the end it appends, and anywhere else it copies s into a
// new backing array, which a snapshot sharing s never sees.
func insertFenced[T any](s []T, at int, v T) []T {
	if at == len(s) {
		return append(s, v)
	}
	return slices.Concat(s[:at], []T{v}, s[at:])
}

// Lookup returns the record for an IID.
func (c *Corpus) Lookup(iid IID) (*IIDRecord, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.iids[iid]
	return r, ok
}

// IIDs returns all observed EUI-64 IIDs, sorted.
func (c *Corpus) IIDs() []IID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.sortedIIDsLocked()
}

// NumIIDs returns the count of distinct EUI-64 IIDs.
func (c *Corpus) NumIIDs() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.iids)
}

// Totals returns the global probe/response counters as one consistent
// pair.
func (c *Corpus) Totals() (probes, responses uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.TotalProbes, c.TotalResponses
}

// UniqueAddrs returns (total unique response addresses, unique EUI-64
// response addresses) — the paper's "134M unique addresses, 110M EUI-64".
func (c *Corpus) UniqueAddrs() (total, eui int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.euiCount + len(c.others), c.euiCount
}

// Days returns the scan-day indices present, sorted.
func (c *Corpus) Days() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]int, 0, len(c.days))
	for d := range c.days {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// RIB exposes the table used for origin attribution.
func (c *Corpus) RIB() *bgp.Table { return c.rib }

// OriginASN maps an address to its origin AS (0 if unrouted).
func (c *Corpus) OriginASN(a ip6.Addr) uint32 {
	if r, ok := c.rib.Lookup(a); ok {
		return r.ASN
	}
	return 0
}
