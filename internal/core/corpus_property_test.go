package core_test

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"followscent/internal/bgp"
	"followscent/internal/core"
	"followscent/internal/ip6"
	"followscent/internal/uint128"
)

// obsScript is a generated sequence of observations for property tests.
type obsScript struct {
	// Each entry: (day, responder index, prefix index) — built over a
	// small universe so aggregation paths actually collide.
	Steps []obsStep
}

type obsStep struct {
	Day    uint8
	Device uint8
	Prefix uint8
}

// Generate implements quick.Generator.
func (obsScript) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(200) + 1
	s := obsScript{Steps: make([]obsStep, n)}
	for i := range s.Steps {
		s.Steps[i] = obsStep{
			Day:    uint8(r.Intn(6)),
			Device: uint8(r.Intn(8)),
			Prefix: uint8(r.Intn(10)),
		}
	}
	return reflect.ValueOf(s)
}

// TestCorpusInvariants replays random observation scripts and checks the
// structural invariants every analysis relies on.
func TestCorpusInvariants(t *testing.T) {
	base := ip6.MustParsePrefix("2001:db8::/32")
	macs := make([]ip6.MAC, 8)
	for i := range macs {
		macs[i] = ip6.MAC{0x38, 0x10, 0xd5, 0, 0, byte(i + 1)}
	}
	f := func(script obsScript) bool {
		rib := bgp.New()
		rib.Insert(bgp.Route{Prefix: base, ASN: 65000, Country: "XX"})
		corpus := core.NewCorpus(rib)

		// Replay grouped by day (the campaign contract: one ScanDay per
		// day, committed in order).
		byDay := map[int][]obsStep{}
		for _, st := range script.Steps {
			byDay[int(st.Day)] = append(byDay[int(st.Day)], st)
		}
		truthPrefixes := map[core.IID]map[uint64]struct{}{}
		for day := 0; day < 6; day++ {
			steps := byDay[day]
			if len(steps) == 0 {
				continue
			}
			sd := corpus.NewScanDay(day)
			for _, st := range steps {
				iid := ip6.EUI64FromMAC(macs[st.Device])
				p64 := base.Subprefix(uint64(st.Prefix), 64)
				resp := p64.Addr().WithIID(iid)
				target := p64.RandomAddr(uint64(st.Device), uint64(st.Prefix))
				sd.Record(target, resp)
				k := core.IID(iid)
				if truthPrefixes[k] == nil {
					truthPrefixes[k] = map[uint64]struct{}{}
				}
				truthPrefixes[k][resp.High64()] = struct{}{}
			}
			sd.Commit()
		}

		for _, iid := range corpus.IIDs() {
			rec, ok := corpus.Lookup(iid)
			if !ok {
				return false
			}
			// Span invariant: min <= max and both inside the universe.
			if rec.MinRespHi > rec.MaxRespHi {
				return false
			}
			// Prefix count matches the independently tracked truth.
			if rec.PrefixCount() != len(truthPrefixes[iid]) {
				return false
			}
			// Chronology: days non-decreasing.
			for i := 1; i < len(rec.Days); i++ {
				if rec.Days[i].Day < rec.Days[i-1].Day {
					return false
				}
			}
			// Per-day target spans are well-formed.
			for _, d := range rec.Days {
				if d.MinTargetHi > d.MaxTargetHi || d.Count < 1 {
					return false
				}
			}
			// Pool inference never exceeds /64 or the observed span.
			span := uint128.From64(rec.MaxRespHi - rec.MinRespHi).Log2Ceil()
			_ = span
		}
		// Every recorded IID is attributable to the single test AS.
		for _, s := range corpus.PoolSamples() {
			if s.ASN != 65000 {
				return false
			}
			if s.Bits < 0 || s.Bits > 64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCorpusCountsAnyCommitOrder: the counts a commit keeps do not
// depend on the order days land in. Random days are committed shuffled,
// one of them twice, over two ASes (the script's /64s 8 and 9 sit in a
// second one). After every commit each record's PrefixCount, ASNs, days
// per AS and primary AS, and the corpus's UniqueAddrs, equal a recount
// from the records' histories through the RIB, and the warm tables equal
// the batch functions.
func TestCorpusCountsAnyCommitOrder(t *testing.T) {
	base := ip6.MustParsePrefix("2001:db8::/32")
	rib := bgp.New()
	rib.Insert(bgp.Route{Prefix: base, ASN: 65000, Country: "XX"})
	rib.Insert(bgp.Route{Prefix: ip6.MustParsePrefix("2001:db8:0:8::/61"), ASN: 65001, Country: "YY"})
	// Device 7 answers from a fixed non-EUI-64 address per /64.
	resp := func(st obsStep) ip6.Addr {
		p64 := base.Subprefix(uint64(st.Prefix), 64)
		if st.Device == 7 {
			return p64.Addr().WithIID(7)
		}
		return p64.Addr().WithIID(ip6.EUI64FromMAC(ip6.MAC{0x38, 0x10, 0xd5, 0, 0, st.Device + 1}))
	}
	// recount checks c against its own histories; others holds the
	// non-EUI-64 responders recorded so far.
	recount := func(c *core.Corpus, others map[ip6.Addr]struct{}) string {
		pools := map[core.IID]uint32{}
		for _, s := range c.PoolSamples() {
			pools[s.IID] = s.ASN
		}
		multi := map[core.IID]core.MultiASIID{}
		for _, m := range c.MultiASIIDs() {
			multi[m.IID] = m
		}
		eui := 0
		for _, iid := range c.IIDs() {
			rec, _ := c.Lookup(iid)
			prefixes := map[uint64]struct{}{}
			daysByAS := map[uint32][]int{}
			for i, d := range rec.Days {
				if i > 0 && d.Day < rec.Days[i-1].Day {
					return fmt.Sprintf("IID %016x: history out of day order", uint64(iid))
				}
				prefixes[d.Resp.High64()] = struct{}{}
				asn := c.OriginASN(d.Resp)
				if ds := daysByAS[asn]; len(ds) == 0 || ds[len(ds)-1] != d.Day {
					daysByAS[asn] = append(ds, d.Day)
				}
			}
			eui += len(prefixes)
			asns := slices.Sorted(maps.Keys(daysByAS))
			primary := asns[0]
			for _, asn := range asns {
				if len(daysByAS[asn]) > len(daysByAS[primary]) {
					primary = asn
				}
			}
			m, isMulti := multi[iid]
			switch {
			case rec.PrefixCount() != len(prefixes):
				return fmt.Sprintf("IID %016x: PrefixCount %d, recount %d", uint64(iid), rec.PrefixCount(), len(prefixes))
			case !slices.Equal(rec.ASNs(), asns):
				return fmt.Sprintf("IID %016x: ASNs %v, recount %v", uint64(iid), rec.ASNs(), asns)
			case pools[iid] != primary:
				return fmt.Sprintf("IID %016x: primary AS %d, recount %d of %v", uint64(iid), pools[iid], primary, daysByAS)
			case isMulti != (len(asns) > 1) || isMulti && !reflect.DeepEqual(m.DaysByAS, daysByAS):
				return fmt.Sprintf("IID %016x: days by AS %v, recount %v", uint64(iid), m.DaysByAS, daysByAS)
			}
		}
		if total, e := c.UniqueAddrs(); e != eui || total != eui+len(others) {
			return fmt.Sprintf("unique addrs %d/%d, recount %d/%d", total, e, eui+len(others), eui)
		}
		return warmTablesDiff(c.Snapshot())
	}
	f := func(script obsScript, seed int64) bool {
		byDay := map[int][]obsStep{}
		for _, st := range script.Steps {
			byDay[int(st.Day)] = append(byDay[int(st.Day)], st)
		}
		order := slices.Sorted(maps.Keys(byDay))
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		order = append(order, order[rng.Intn(len(order))])

		c := core.NewCorpus(rib)
		others := map[ip6.Addr]struct{}{}
		for n, day := range order {
			sd := c.NewScanDay(day)
			for _, st := range byDay[day] {
				a := resp(st)
				sd.Record(base.Subprefix(uint64(st.Prefix), 64).RandomAddr(uint64(st.Device), uint64(st.Prefix)), a)
				if !ip6.AddrIsEUI64(a) {
					others[a] = struct{}{}
				}
			}
			sd.Commit()
			if d := recount(c, others); d != "" {
				t.Logf("commit %d of %v (day %d): %s", n, order, day, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestObservedEqualsAddressIndex: Snapshot.Observed answers exactly as
// an index of every recorded responder address would — for recorded
// addresses, for a known IID in a /64 it never held, for non-EUI-64
// responders, and for addresses never probed.
func TestObservedEqualsAddressIndex(t *testing.T) {
	base := ip6.MustParsePrefix("2001:db8::/32")
	macs := make([]ip6.MAC, 8)
	for i := range macs {
		macs[i] = ip6.MAC{0x38, 0x10, 0xd5, 0, 0, byte(i + 1)}
	}
	f := func(script obsScript) bool {
		rib := bgp.New()
		rib.Insert(bgp.Route{Prefix: base, ASN: 65000, Country: "XX"})
		corpus := core.NewCorpus(rib)
		byDay := map[int][]obsStep{}
		for _, st := range script.Steps {
			byDay[int(st.Day)] = append(byDay[int(st.Day)], st)
		}
		var probe []ip6.Addr
		for day, steps := range byDay {
			sd := corpus.NewScanDay(day)
			for _, st := range steps {
				p64 := base.Subprefix(uint64(st.Prefix), 64)
				resp := p64.Addr().WithIID(ip6.EUI64FromMAC(macs[st.Device]))
				if st.Device == 7 {
					resp = p64.Addr().WithIID(uint64(st.Day) + 1) // not EUI-64
				}
				sd.Record(p64.RandomAddr(uint64(st.Device), uint64(st.Prefix)), resp)
				probe = append(probe, resp)
			}
			sd.Commit()
		}

		index := map[ip6.Addr]core.IID{}
		for _, iid := range corpus.IIDs() {
			rec, _ := corpus.Lookup(iid)
			for _, d := range rec.Days {
				index[d.Resp] = iid
			}
		}
		// Every device in every /64 of the universe and one beyond it:
		// held and never-held /64s of known and unknown IIDs alike.
		for _, mac := range macs {
			for p := uint64(0); p <= 10; p++ {
				probe = append(probe, base.Subprefix(p, 64).Addr().WithIID(ip6.EUI64FromMAC(mac)))
			}
		}
		probe = append(probe, ip6.MustParseAddr("2001:db9::1"))

		snap := corpus.Snapshot()
		for _, a := range probe {
			want, wantOK := index[a]
			got, ok := snap.Observed(a)
			if ok != wantOK || got != want {
				t.Logf("Observed(%s) = %016x, %v; index says %016x, %v", a, uint64(got), ok, uint64(want), wantOK)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestUniqueAddrsRestartExact: the unique-address counts are a function
// of the responders recorded, not of where a journal was reopened.
// Random days, committed in shuffled order, repeat EUI-64 and non-EUI-64
// responders across days. For every split point k the first k days are
// journaled and replayed into a fresh corpus, which then commits the
// rest; its UniqueAddrs must equal the distinct responders over every
// Record call, as must the corpus's after a Save → LoadCorpus round
// trip, the whole journal's replay, and a corpus resumed from the
// k-day corpus compacted into one snap segment.
func TestUniqueAddrsRestartExact(t *testing.T) {
	base := ip6.MustParsePrefix("2001:db8::/32")
	rib := bgp.New()
	rib.Insert(bgp.Route{Prefix: base, ASN: 65000, Country: "XX"})
	f := func(script obsScript, seed int64) bool {
		// Devices 6 and 7 answer from a fixed non-EUI-64 address per /64,
		// so both kinds of responder repeat whenever a /64 does.
		resp := func(st obsStep) ip6.Addr {
			p64 := base.Subprefix(uint64(st.Prefix), 64)
			if st.Device >= 6 {
				return p64.Addr().WithIID(uint64(st.Device))
			}
			return p64.Addr().WithIID(ip6.EUI64FromMAC(ip6.MAC{0x38, 0x10, 0xd5, 0, 0, st.Device + 1}))
		}
		byDay := map[int][]obsStep{}
		truth := map[ip6.Addr]struct{}{}
		for _, st := range script.Steps {
			byDay[int(st.Day)] = append(byDay[int(st.Day)], st)
			truth[resp(st)] = struct{}{}
		}
		wantEUI := 0
		for a := range truth {
			if ip6.AddrIsEUI64(a) {
				wantEUI++
			}
		}
		order := make([]int, 0, len(byDay))
		for day := range byDay {
			order = append(order, day)
		}
		sort.Ints(order)
		rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

		// commit records one day into c and journals it.
		commit := func(c *core.Corpus, journal *bytes.Buffer, day int) {
			sd := c.NewScanDay(day)
			for _, st := range byDay[day] {
				sd.Record(base.Subprefix(uint64(st.Prefix), 64).RandomAddr(uint64(st.Device), uint64(st.Prefix)), resp(st))
			}
			sd.AddProbes(uint64(len(byDay[day])))
			sd.Commit()
			c.SaveDay(journal, day, sd.Meta())
		}
		load := func(file []byte) *core.Corpus {
			c := core.NewCorpus(rib)
			if err := core.LoadCorpus(bytes.NewReader(file), c); err != nil {
				t.Fatal(err)
			}
			return c
		}
		check := func(what string, k int, c *core.Corpus) bool {
			if total, eui := c.UniqueAddrs(); total != len(truth) || eui != wantEUI {
				t.Logf("split %d of %v, %s: unique addrs %d/%d, want %d/%d", k, order, what, total, eui, len(truth), wantEUI)
				return false
			}
			return true
		}
		for k := 0; k <= len(order); k++ {
			src := core.NewCorpus(rib)
			var journal bytes.Buffer
			core.WriteCorpusJournalHeader(&journal)
			for _, day := range order[:k] {
				commit(src, &journal, day)
			}
			var compacted bytes.Buffer
			src.Save(&compacted)

			resumed := load(journal.Bytes())
			fromSnap := load(compacted.Bytes())
			for _, day := range order[k:] {
				commit(resumed, &journal, day)
				commit(fromSnap, &compacted, day)
			}
			var saved bytes.Buffer
			resumed.Save(&saved)
			if !check("resumed", k, resumed) ||
				!check("Save → LoadCorpus", k, load(saved.Bytes())) ||
				!check("journal replay", k, load(journal.Bytes())) ||
				!check("resumed from a snap segment", k, fromSnap) ||
				!check("its journal replay", k, load(compacted.Bytes())) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
