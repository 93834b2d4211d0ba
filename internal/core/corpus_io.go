package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"followscent/internal/ip6"
)

// Corpus persistence. Two line-oriented text formats share one loader:
//
//   - v1 is the whole-corpus snapshot batch mode always used: global
//     counters up front, then every observation. Save writes it.
//   - v2 is the append-friendly journal incremental ingestion needs:
//     a header line, then self-contained per-day segments (day-local
//     counter deltas plus that day's observations, closed by an
//     `endday` marker). SaveDay appends one segment; a serving store
//     appends a segment per committed day and never rewrites history.
//
// The EUI-64 observation records are persisted exactly; the global
// probe/response counters are carried as scalars (per-day deltas in
// v2). Per-address sets for non-EUI responders are not persisted —
// they feed no analysis — so UniqueAddrs on a loaded corpus reports
// the persisted totals rather than recounting.
//
// Loading is idempotent at day granularity: observations for a day the
// corpus already contains are skipped, counters included (v2 ties the
// counters to the day segment, so the skip is exact; v1's file-global
// counters are applied only when the file contributes at least one new
// day, which makes re-loading the same snapshot a no-op). That is what
// lets a resumed ingester re-play its journal — or re-ingest a day file
// it already consumed — without double-counting probes, responses, or
// DayObs entries.

const (
	corpusMagic   = "# followscent corpus v1"
	corpusMagicV2 = "# followscent corpus v2"

	// maxCorpusLine caps the loader's line buffer. A line this long is
	// not a corpus file (the longest legal line is an obs record, well
	// under 200 bytes); the loader reports it as a clear per-line
	// error rather than a generic scanner failure.
	maxCorpusLine = 1 << 20
)

// Save writes the corpus in the v1 whole-corpus text format.
func (c *Corpus) Save(w io.Writer) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, corpusMagic)
	fmt.Fprintf(bw, "probes %d\n", c.TotalProbes)
	fmt.Fprintf(bw, "responses %d\n", c.TotalResponses)
	fmt.Fprintf(bw, "uniqueaddrs %d %d\n", len(c.totalAddrs)+c.loadedTotalAddrs, len(c.euiAddrs)+c.loadedEUIAddrs)
	for _, iid := range c.sortedIIDsLocked() {
		rec := c.iids[iid]
		for i := range rec.Days {
			d := &rec.Days[i]
			fmt.Fprintf(bw, "obs %016x %d %s %016x %016x %d\n",
				uint64(iid), d.Day, d.Resp, d.MinTargetHi, d.MaxTargetHi, d.Count)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: saving corpus: %w", err)
	}
	return nil
}

// WriteCorpusJournalHeader starts a v2 journal: the header line every
// SaveDay segment appends after.
func WriteCorpusJournalHeader(w io.Writer) error {
	if _, err := fmt.Fprintln(w, corpusMagicV2); err != nil {
		return fmt.Errorf("core: writing journal header: %w", err)
	}
	return nil
}

// DaySegmentMeta carries the day-local counter deltas a v2 segment
// persists alongside its observations: probes sent and responses heard
// that day, and how many previously-unseen unique (total, EUI-64)
// response addresses the day introduced.
type DaySegmentMeta struct {
	Probes, Responses          uint64
	NewTotalAddrs, NewEUIAddrs int
}

// SaveDay appends one self-contained v2 journal segment: the given
// day's counter deltas and every observation committed for that day.
// The segment is closed by an `endday` marker — a torn tail (crash
// mid-append) is recognizable and discarded on load.
func (c *Corpus) SaveDay(w io.Writer, day int, meta DaySegmentMeta) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "day %d\n", day)
	fmt.Fprintf(bw, "probes %d\n", meta.Probes)
	fmt.Fprintf(bw, "responses %d\n", meta.Responses)
	fmt.Fprintf(bw, "newaddrs %d %d\n", meta.NewTotalAddrs, meta.NewEUIAddrs)
	for _, iid := range c.sortedIIDsLocked() {
		rec := c.iids[iid]
		for i := range rec.Days {
			d := &rec.Days[i]
			if d.Day != day {
				continue
			}
			fmt.Fprintf(bw, "obs %016x %d %s %016x %016x %d\n",
				uint64(iid), d.Day, d.Resp, d.MinTargetHi, d.MaxTargetHi, d.Count)
		}
	}
	fmt.Fprintf(bw, "endday %d\n", day)
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: saving day %d segment: %w", day, err)
	}
	return nil
}

// SaveSnap writes the corpus's entire committed history as one v2 snap
// segment: the sorted day set, the accumulated counters, and every
// observation, closed by an `endsnap` marker. A journal rewritten as
// header + snap segment (Store.Compact) replays to exactly the corpus
// the original day-by-day journal does, and stays appendable — SaveDay
// segments follow it for the days after the compaction horizon. A
// corpus with no committed days writes nothing.
func (c *Corpus) SaveSnap(w io.Writer) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.days) == 0 {
		return nil
	}
	days := make([]int, 0, len(c.days))
	for d := range c.days {
		days = append(days, d)
	}
	for i := 1; i < len(days); i++ {
		for j := i; j > 0 && days[j] < days[j-1]; j-- {
			days[j], days[j-1] = days[j-1], days[j]
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "snap")
	for _, d := range days {
		fmt.Fprintf(bw, " %d", d)
	}
	fmt.Fprintln(bw)
	fmt.Fprintf(bw, "probes %d\n", c.TotalProbes)
	fmt.Fprintf(bw, "responses %d\n", c.TotalResponses)
	fmt.Fprintf(bw, "newaddrs %d %d\n", len(c.totalAddrs)+c.loadedTotalAddrs, len(c.euiAddrs)+c.loadedEUIAddrs)
	for _, iid := range c.sortedIIDsLocked() {
		rec := c.iids[iid]
		for i := range rec.Days {
			d := &rec.Days[i]
			fmt.Fprintf(bw, "obs %016x %d %s %016x %016x %d\n",
				uint64(iid), d.Day, d.Resp, d.MinTargetHi, d.MaxTargetHi, d.Count)
		}
	}
	fmt.Fprintln(bw, "endsnap")
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: saving snap segment: %w", err)
	}
	return nil
}

// LoadCorpus reads a corpus saved by Save (v1) or appended by SaveDay
// segments (v2), re-deriving every index (prefix sets, AS attribution,
// response spans) against the corpus's RIB. Loading into a non-empty
// corpus is idempotent per day: observations (and, in v2, counters)
// for days already present are skipped, so re-ingesting the same day
// never double-counts. A v2 journal's trailing segment missing its
// `endday` marker (a torn append) is silently discarded — the day was
// never committed.
func LoadCorpus(src io.Reader, c *Corpus) error {
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, maxCorpusLine), maxCorpusLine)
	if !sc.Scan() {
		if err := scanErr(sc, 1); err != nil {
			return err
		}
		return fmt.Errorf("core: empty corpus file")
	}
	switch magic := strings.TrimSpace(sc.Text()); magic {
	case corpusMagic:
		return loadV1(sc, c)
	case corpusMagicV2:
		return loadV2(sc, c)
	default:
		return fmt.Errorf("core: not a corpus file (got %q)", magic)
	}
}

// scanErr converts a scanner failure into a loader error, turning the
// line-buffer overflow into a clear "line too long" diagnostic naming
// the offending line.
func scanErr(sc *bufio.Scanner, line int) error {
	err := sc.Err()
	if err == nil {
		return nil
	}
	if errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("core: corpus line %d: line too long (over %d bytes) — not a corpus file?", line, maxCorpusLine)
	}
	return fmt.Errorf("core: reading corpus: %w", err)
}

// existingDays snapshots which days the corpus already holds, the
// skip-set for idempotent re-ingestion.
func existingDays(c *Corpus) map[int]bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	have := make(map[int]bool, len(c.days))
	for d := range c.days {
		have[d] = true
	}
	return have
}

// parseObs parses one `obs` line (shared between both formats).
func parseObs(fields []string, line int) (day int, resp ip6.Addr, minHi, maxHi uint64, count int, err error) {
	if len(fields) != 7 {
		return 0, ip6.Addr{}, 0, 0, 0, fmt.Errorf("core: line %d: malformed obs", line)
	}
	day, err = strconv.Atoi(fields[2])
	if err != nil {
		return 0, ip6.Addr{}, 0, 0, 0, fmt.Errorf("core: line %d: bad day: %w", line, err)
	}
	resp, err = ip6.ParseAddr(fields[3])
	if err != nil {
		return 0, ip6.Addr{}, 0, 0, 0, fmt.Errorf("core: line %d: %w", line, err)
	}
	minHi, err1 := strconv.ParseUint(fields[4], 16, 64)
	maxHi, err2 := strconv.ParseUint(fields[5], 16, 64)
	count, err3 := strconv.Atoi(fields[6])
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, ip6.Addr{}, 0, 0, 0, fmt.Errorf("core: line %d: bad obs numbers", line)
	}
	return day, resp, minHi, maxHi, count, nil
}

// loadV1 consumes the whole-corpus snapshot format. Days already in
// the corpus are skipped; the file-global counter lines are deferred
// and applied only if the file contributed at least one new day (or
// carries no observations at all), which makes re-loading the same
// snapshot a no-op.
func loadV1(sc *bufio.Scanner, c *Corpus) error {
	line := 1 // the magic line was consumed by LoadCorpus
	have := existingDays(c)
	var (
		pending = map[int]*ScanDay{}
		newDays bool
		sawDay  bool
		meta    DaySegmentMeta
	)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "probes", "responses":
			if len(fields) != 2 {
				return fmt.Errorf("core: line %d: malformed %s", line, fields[0])
			}
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return fmt.Errorf("core: line %d: %w", line, err)
			}
			if fields[0] == "probes" {
				meta.Probes += v
			} else {
				meta.Responses += v
			}
		case "uniqueaddrs":
			if len(fields) != 3 {
				return fmt.Errorf("core: line %d: malformed uniqueaddrs", line)
			}
			total, err1 := strconv.Atoi(fields[1])
			eui, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return fmt.Errorf("core: line %d: bad uniqueaddrs", line)
			}
			meta.NewTotalAddrs += total
			meta.NewEUIAddrs += eui
		case "obs":
			day, resp, minHi, maxHi, count, err := parseObs(fields, line)
			if err != nil {
				return err
			}
			sawDay = true
			if have[day] {
				continue // idempotent re-ingestion: day already present
			}
			newDays = true
			sd, ok := pending[day]
			if !ok {
				sd = c.NewScanDay(day)
				pending[day] = sd
			}
			sd.insertLoaded(resp, minHi, maxHi, count)
		default:
			return fmt.Errorf("core: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := scanErr(sc, line+1); err != nil {
		return err
	}
	if newDays || !sawDay {
		sds := make([]*ScanDay, 0, len(pending))
		for _, sd := range pending {
			sds = append(sds, sd)
		}
		c.addLoaded(meta, sds...)
	}
	return nil
}

// loadV2 consumes the journal format: a sequence of segments, each
// committed when its closing marker arrives. Two segment kinds share
// the grammar: `day N … endday N` carries one day, and `snap d1 d2 … /
// … endsnap` — written by compaction — carries a whole corpus history
// at once. A day segment for a day the corpus already holds is
// discarded whole — counters included — so replaying a journal (or
// re-appending a day) is exactly idempotent; a snap segment is skipped
// only if *every* day it carries is present (its counters are
// indivisible, so a partial overlap is an error). A trailing segment
// with no closing marker is a torn append and is dropped.
func loadV2(sc *bufio.Scanner, c *Corpus) error {
	line := 1
	have := existingDays(c)
	type segment struct {
		day  int   // day segment; -1 for a snap segment
		days []int // snap: its sorted day set
		meta DaySegmentMeta
		sd   *ScanDay         // day segment's aggregation
		sds  map[int]*ScanDay // snap segment's, keyed by day
		skip bool             // snap: every day already present
	}
	var seg *segment
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if seg == nil {
			switch fields[0] {
			case "day":
				if len(fields) != 2 {
					return fmt.Errorf("core: line %d: malformed day header", line)
				}
				day, err := strconv.Atoi(fields[1])
				if err != nil {
					return fmt.Errorf("core: line %d: bad day: %w", line, err)
				}
				seg = &segment{day: day, sd: c.NewScanDay(day)}
			case "snap":
				if len(fields) < 2 {
					return fmt.Errorf("core: line %d: snap header without days", line)
				}
				s := &segment{day: -1, sds: map[int]*ScanDay{}}
				present := 0
				for _, f := range fields[1:] {
					day, err := strconv.Atoi(f)
					if err != nil {
						return fmt.Errorf("core: line %d: bad snap day: %w", line, err)
					}
					s.days = append(s.days, day)
					if have[day] {
						present++
					}
				}
				switch present {
				case 0:
				case len(s.days):
					s.skip = true
				default:
					return fmt.Errorf("core: line %d: snap segment days %v partially overlap the corpus — counters are indivisible", line, s.days)
				}
				seg = s
			default:
				return fmt.Errorf("core: line %d: expected day or snap header, got %q", line, fields[0])
			}
			continue
		}
		switch fields[0] {
		case "probes", "responses":
			if len(fields) != 2 {
				return fmt.Errorf("core: line %d: malformed %s", line, fields[0])
			}
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return fmt.Errorf("core: line %d: %w", line, err)
			}
			if fields[0] == "probes" {
				seg.meta.Probes += v
			} else {
				seg.meta.Responses += v
			}
		case "newaddrs":
			if len(fields) != 3 {
				return fmt.Errorf("core: line %d: malformed newaddrs", line)
			}
			total, err1 := strconv.Atoi(fields[1])
			eui, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return fmt.Errorf("core: line %d: bad newaddrs", line)
			}
			seg.meta.NewTotalAddrs += total
			seg.meta.NewEUIAddrs += eui
		case "obs":
			day, resp, minHi, maxHi, count, err := parseObs(fields, line)
			if err != nil {
				return err
			}
			if seg.day >= 0 {
				if day != seg.day {
					return fmt.Errorf("core: line %d: obs for day %d inside day %d segment", line, day, seg.day)
				}
				seg.sd.insertLoaded(resp, minHi, maxHi, count)
				break
			}
			if seg.skip {
				break
			}
			sd, ok := seg.sds[day]
			if !ok {
				found := false
				for _, d := range seg.days {
					if d == day {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("core: line %d: obs for day %d outside the snap segment's day set %v", line, day, seg.days)
				}
				sd = c.NewScanDay(day)
				seg.sds[day] = sd
			}
			sd.insertLoaded(resp, minHi, maxHi, count)
		case "endday":
			if seg.day < 0 {
				return fmt.Errorf("core: line %d: endday inside a snap segment", line)
			}
			if len(fields) != 2 || fields[1] != strconv.Itoa(seg.day) {
				return fmt.Errorf("core: line %d: endday does not close day %d", line, seg.day)
			}
			if !have[seg.day] {
				c.addLoaded(seg.meta, seg.sd)
				have[seg.day] = true
			}
			seg = nil
		case "endsnap":
			if seg.day >= 0 {
				return fmt.Errorf("core: line %d: endsnap inside a day %d segment", line, seg.day)
			}
			if !seg.skip {
				// A day with no observations still counts as committed —
				// an all-silent scan day is corpus history too.
				sds := make([]*ScanDay, 0, len(seg.days))
				for _, d := range seg.days {
					sd, ok := seg.sds[d]
					if !ok {
						sd = c.NewScanDay(d)
					}
					sds = append(sds, sd)
					have[d] = true
				}
				c.addLoaded(seg.meta, sds...)
			}
			seg = nil
		default:
			return fmt.Errorf("core: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := scanErr(sc, line+1); err != nil {
		return err
	}
	// seg != nil here means a torn trailing segment: dropped, per the
	// journal contract — the day was never durably committed.
	return nil
}

// addLoaded commits days read from a corpus file, in day order for a
// deterministic chronology, and applies the file's counters, all under
// one lock. The days' responders stay out of the live address sets: the
// file carries no per-address sets, so its counts are carried instead.
func (c *Corpus) addLoaded(m DaySegmentMeta, days ...*ScanDay) {
	sort.Slice(days, func(i, j int) bool { return days[i].day < days[j].day })
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sd := range days {
		sd.mergeLocked()
	}
	c.TotalProbes += m.Probes
	c.TotalResponses += m.Responses
	c.loadedTotalAddrs += m.NewTotalAddrs
	c.loadedEUIAddrs += m.NewEUIAddrs
}

// insertLoaded restores one aggregated observation, bypassing the
// per-probe accounting Record does (the saved file already carries the
// aggregates and the global counters).
func (s *ScanDay) insertLoaded(resp ip6.Addr, minHi, maxHi uint64, count int) {
	if !ip6.AddrIsEUI64(resp) {
		return
	}
	k := dayKey{IID(resp.IID()), resp}
	obs, ok := s.agg[k]
	if !ok {
		s.agg[k] = &DayObs{
			Day: s.day, Resp: resp,
			MinTargetHi: minHi, MaxTargetHi: maxHi, Count: count,
		}
		return
	}
	if minHi < obs.MinTargetHi {
		obs.MinTargetHi = minHi
	}
	if maxHi > obs.MaxTargetHi {
		obs.MaxTargetHi = maxHi
	}
	obs.Count += count
}
