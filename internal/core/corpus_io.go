package core

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"followscent/internal/ip6"
)

// Corpus persistence: one line-oriented text format, the journal. A
// header line is followed by self-contained segments, each carrying
// counter, addr and obs lines and committed by its closing line:
//
//   - a day segment, `day N` … `endday N`, carries one day's counter
//     deltas, observations and newly seen non-EUI-64 responders. SaveDay
//     appends one; a serving store appends one per committed day and
//     never rewrites history.
//   - a snap segment, `snap d1 d2 …` … `endsnap`, carries a whole
//     corpus history at once. Save is the header plus one snap segment;
//     Store.Compact rewrites a journal that way. Day segments for later
//     days may follow it.
//
// A segment is committed once its closing line is complete, newline
// included; ReplayJournal, the one reader, returns the byte length up
// to there, and whatever follows is a torn append to drop. The EUI-64
// observation records and the non-EUI-64 responders (`addr` lines) are
// persisted exactly, so UniqueAddrs recounts them on load; the
// probe/response counters are carried as scalars.
//
// Loading is idempotent at day granularity: a segment whose days the
// corpus already holds is skipped whole, counters included. That is
// what lets a resumed ingester re-play its journal — or re-ingest a day
// file it already consumed — without double-counting probes,
// responses, or DayObs entries.

const (
	corpusMagic = "# followscent corpus v3"

	// maxCorpusLine caps the loader's line buffer. A line this long is
	// not a corpus file (the longest legal line is an obs record, well
	// under 200 bytes); the loader reports it as a clear per-line
	// error rather than a generic scanner failure.
	maxCorpusLine = 1 << 20
)

// Save writes the whole corpus as a journal: the header line and one
// snap segment. A store opened on the file replays it and appends later
// days after it.
func (c *Corpus) Save(w io.Writer) error {
	if err := WriteCorpusJournalHeader(w); err != nil {
		return err
	}
	return c.SaveSnap(w)
}

// WriteCorpusJournalHeader starts a journal: the header line every
// segment appends after.
func WriteCorpusJournalHeader(w io.Writer) error {
	if _, err := fmt.Fprintln(w, corpusMagic); err != nil {
		return fmt.Errorf("core: writing journal header: %w", err)
	}
	return nil
}

// ErrCorpusV2 refuses the retired v2 format, which carried counts, not address sets.
var ErrCorpusV2 = errors.New("core: corpus format v2 is retired: it carries address counts, not address sets; rebuild the corpus")

// DaySegmentMeta carries what a day segment persists alongside its
// observations: probes sent and responses heard that day, and the
// non-EUI-64 responders the day added to the corpus.
type DaySegmentMeta struct {
	Probes, Responses uint64
	NewOtherAddrs     []ip6.Addr
}

// SaveDay appends one self-contained day segment: the given day's
// counter deltas and every observation committed for that day. The
// segment is closed by an `endday` marker — a torn tail (crash
// mid-append) is recognizable and discarded on load. Each record's
// entries for the day are found from the tail of its history, so the
// segment costs O(records + the day's observations), not O(history).
func (c *Corpus) SaveDay(w io.Writer, day int, meta DaySegmentMeta) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sw := newSegmentWriter(w)
	sw.intLine("day ", day)
	c.writeSegmentBodyLocked(sw, meta, func(rec *IIDRecord) []DayObs {
		lo, hi := dayRange(rec.Days, day)
		return rec.Days[lo:hi]
	})
	sw.intLine("endday ", day)
	if err := sw.bw.Flush(); err != nil {
		return fmt.Errorf("core: saving day %d segment: %w", day, err)
	}
	return nil
}

// SaveSnap writes the corpus's entire committed history as one snap
// segment: the sorted day set, the accumulated counters, every
// non-EUI-64 responder and every observation, closed by an `endsnap`
// marker. A journal rewritten as header + snap segment (Store.Compact)
// replays to exactly the corpus the original day-by-day journal does, and stays appendable — SaveDay
// segments follow it for the days after the compaction horizon. A
// corpus with no committed days writes nothing.
func (c *Corpus) SaveSnap(w io.Writer) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.days) == 0 {
		return nil
	}
	sw := newSegmentWriter(w)
	sw.buf = append(sw.buf, "snap"...)
	for _, d := range slices.Sorted(maps.Keys(c.days)) {
		sw.buf = strconv.AppendInt(append(sw.buf, ' '), int64(d), 10)
	}
	sw.endLine()
	c.writeSegmentBodyLocked(sw, DaySegmentMeta{
		Probes:        c.TotalProbes,
		Responses:     c.TotalResponses,
		NewOtherAddrs: c.others,
	}, func(rec *IIDRecord) []DayObs { return rec.Days })
	sw.buf = append(sw.buf, "endsnap"...)
	sw.endLine()
	if err := sw.bw.Flush(); err != nil {
		return fmt.Errorf("core: saving snap segment: %w", err)
	}
	return nil
}

// segmentWriter writes journal segment lines, each built with strconv
// and netip appends in one reused buffer rather than formatted by fmt.
type segmentWriter struct {
	bw  *bufio.Writer
	buf []byte // the line being built
}

// newSegmentWriter buffers 64 KiB: an obs line is about 100 bytes, so
// a day of thousands of devices reaches w in a few writes, not one per
// 4 KiB.
func newSegmentWriter(w io.Writer) *segmentWriter {
	return &segmentWriter{bw: bufio.NewWriterSize(w, 64<<10)}
}

// endLine writes the line built in buf and empties buf. A write error
// sticks in the bufio.Writer and surfaces at Flush.
func (sw *segmentWriter) endLine() {
	sw.bw.Write(append(sw.buf, '\n'))
	sw.buf = sw.buf[:0]
}

// intLine writes `key n`; key carries its trailing space.
func (sw *segmentWriter) intLine(key string, n int) {
	sw.buf = strconv.AppendInt(append(sw.buf, key...), int64(n), 10)
	sw.endLine()
}

// uintLine writes `key n`; key carries its trailing space.
func (sw *segmentWriter) uintLine(key string, n uint64) {
	sw.buf = strconv.AppendUint(append(sw.buf, key...), n, 10)
	sw.endLine()
}

// writeSegmentBodyLocked writes a segment's counter lines, its addr
// lines sorted in a copy (m may hold the corpus's shared history), then
// in IID order the obs line of every observation entries picks from
// each record's history. The caller holds c.mu.
func (c *Corpus) writeSegmentBodyLocked(sw *segmentWriter, m DaySegmentMeta, entries func(*IIDRecord) []DayObs) {
	sw.uintLine("probes ", m.Probes)
	sw.uintLine("responses ", m.Responses)
	others := slices.Clone(m.NewOtherAddrs)
	sort.Slice(others, func(i, j int) bool { return others[i].Less(others[j]) })
	for _, a := range others {
		sw.buf = a.Netip().AppendTo(append(sw.buf, "addr "...))
		sw.endLine()
	}
	for _, iid := range c.sortedIIDsLocked() {
		ds := entries(c.iids[iid])
		for i := range ds {
			sw.buf = appendObsLine(sw.buf, iid, &ds[i])
			sw.endLine()
		}
	}
}

// appendObsLine appends `obs IID DAY RESP MINHI MAXHI COUNT`, the IID
// and the target bounds as 16 hex digits.
func appendObsLine(b []byte, iid IID, d *DayObs) []byte {
	b = appendHex16(append(b, "obs "...), uint64(iid))
	b = strconv.AppendInt(append(b, ' '), int64(d.Day), 10)
	b = d.Resp.Netip().AppendTo(append(b, ' '))
	b = appendHex16(append(b, ' '), d.MinTargetHi)
	b = appendHex16(append(b, ' '), d.MaxTargetHi)
	return strconv.AppendInt(append(b, ' '), int64(d.Count), 10)
}

// appendHex16 appends v as 16 lower-case hex digits, zero-padded.
func appendHex16(b []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[v>>shift&0xf])
	}
	return b
}

// LoadCorpus reads a corpus written by Save, or a journal of SaveDay
// segments, into c, re-deriving every index (prefix sets, AS
// attribution, response spans) against the corpus's RIB. It is
// ReplayJournal for input that must be a corpus: one without a complete
// header line is an error.
func LoadCorpus(r io.Reader, c *Corpus) error {
	n, err := ReplayJournal(r, c)
	if err == nil && n == 0 {
		return fmt.Errorf("core: empty corpus file (no complete header line)")
	}
	return err
}

// ReplayJournal loads every committed segment of the journal r into c
// and returns the journal's committed length: the bytes up to and
// including the last complete closing line, `endday N` or `endsnap`
// with its newline. What follows is a torn append — a crash mid-write —
// and is dropped; a store truncates its journal to the returned length
// before appending. Empty input, or a torn header line (a prefix of
// the header WriteCorpusJournalHeader writes), has committed length 0.
//
// A segment whose days the corpus already holds is skipped whole,
// counters included, so replaying a journal (or re-appending a day) is
// exactly idempotent. A snap segment's counters are indivisible, so one
// that only partially overlaps the corpus is an error. Every complete
// line is parsed strictly, committed or not: a malformed one is a
// named error, never mistaken for a tear.
func ReplayJournal(r io.Reader, c *Corpus) (int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxCorpusLine)
	sc.Split(scanTerminatedLines)
	var (
		off, committed int64
		seg            *segment
		line           int
	)
	for sc.Scan() {
		line++
		raw := sc.Text()
		if !strings.HasSuffix(raw, "\n") {
			// The last line was torn mid-write: it commits nothing.
			if line == 1 && !strings.HasPrefix(corpusMagic+"\n", raw) {
				return 0, fmt.Errorf("core: not a corpus file (got %q)", raw)
			}
			break
		}
		off += int64(len(raw))
		text := strings.TrimSpace(raw)
		if line == 1 {
			if text == "# followscent corpus v2" {
				return 0, ErrCorpusV2
			}
			if text != corpusMagic {
				return 0, fmt.Errorf("core: not a corpus file (got %q)", text)
			}
			committed = off
			continue
		}
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if seg == nil {
			s, err := openSegment(c, fields, line)
			if err != nil {
				return 0, err
			}
			seg = s
			continue
		}
		closed, err := seg.add(fields, line)
		if err != nil {
			return 0, err
		}
		if closed {
			if !seg.skip {
				c.addLoaded(seg.meta, seg.sds)
			}
			seg, committed = nil, off
		}
	}
	if err := scanErr(sc, line+1); err != nil {
		return 0, err
	}
	return committed, nil
}

// scanTerminatedLines is bufio.ScanLines keeping each line's newline, so
// the reader can tell a complete line from a torn one and count bytes.
func scanTerminatedLines(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
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

// segment is one journal segment being read: a day segment (one day)
// or a snap segment (a whole history), with one ScanDay per day it
// carries.
type segment struct {
	snap bool
	day  int // a day segment's day
	meta DaySegmentMeta
	sds  map[int]*ScanDay
	skip bool // every day already present: applying it would double-count
}

// openSegment parses a segment header line, `day N` or `snap d1 d2 …`,
// and checks its days against those c already holds.
func openSegment(c *Corpus, fields []string, line int) (*segment, error) {
	s := &segment{snap: fields[0] == "snap", sds: map[int]*ScanDay{}}
	switch {
	case fields[0] == "day" && len(fields) == 2:
	case s.snap && len(fields) >= 2:
	default:
		return nil, fmt.Errorf("core: line %d: expected a day or snap header, got %q", line, strings.Join(fields, " "))
	}
	for _, f := range fields[1:] {
		day, err := strconv.Atoi(f)
		if err != nil || day < 0 {
			return nil, fmt.Errorf("core: line %d: bad day %q", line, f)
		}
		if s.sds[day] != nil {
			return nil, fmt.Errorf("core: line %d: day %d repeated", line, day)
		}
		s.day, s.sds[day] = day, c.NewScanDay(day)
	}
	present := 0
	c.mu.RLock()
	for day := range s.sds {
		if _, ok := c.days[day]; ok {
			present++
		}
	}
	c.mu.RUnlock()
	switch present {
	case 0:
	case len(s.sds):
		s.skip = true
	default:
		return nil, fmt.Errorf("core: line %d: snap segment days %v partially overlap the corpus — counters are indivisible", line, fields[1:])
	}
	return s, nil
}

// add parses one line inside the segment and reports whether it was the
// segment's closing line.
func (s *segment) add(fields []string, line int) (closed bool, err error) {
	switch fields[0] {
	case "probes", "responses":
		if len(fields) != 2 {
			return false, fmt.Errorf("core: line %d: malformed %s", line, fields[0])
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return false, fmt.Errorf("core: line %d: %w", line, err)
		}
		if fields[0] == "probes" {
			s.meta.Probes += v
		} else {
			s.meta.Responses += v
		}
	case "addr":
		if len(fields) != 2 {
			return false, fmt.Errorf("core: line %d: malformed addr", line)
		}
		a, err := ip6.ParseAddr(fields[1])
		if err != nil {
			return false, fmt.Errorf("core: line %d: bad addr: %w", line, err)
		}
		if ip6.AddrIsEUI64(a) {
			// EUI-64 responders are counted from obs lines only.
			return false, fmt.Errorf("core: line %d: addr %s is EUI-64", line, a)
		}
		s.meta.NewOtherAddrs = append(s.meta.NewOtherAddrs, a)
	case "obs":
		return false, s.addObs(fields, line)
	case "endday":
		if s.snap || len(fields) != 2 || fields[1] != strconv.Itoa(s.day) {
			return false, fmt.Errorf("core: line %d: %q does not close this segment", line, strings.Join(fields, " "))
		}
		return true, nil
	case "endsnap":
		if !s.snap || len(fields) != 1 {
			return false, fmt.Errorf("core: line %d: %q does not close this segment", line, strings.Join(fields, " "))
		}
		return true, nil
	default:
		return false, fmt.Errorf("core: line %d: unknown record %q", line, fields[0])
	}
	return false, nil
}

// addObs parses one `obs IID DAY RESP MINHI MAXHI COUNT` line into the
// ScanDay of its day, which the segment must carry.
func (s *segment) addObs(fields []string, line int) error {
	if len(fields) != 7 {
		return fmt.Errorf("core: line %d: malformed obs", line)
	}
	day, err := strconv.Atoi(fields[2])
	if err != nil {
		return fmt.Errorf("core: line %d: bad day: %w", line, err)
	}
	sd := s.sds[day]
	if sd == nil {
		return fmt.Errorf("core: line %d: obs for day %d outside its segment", line, day)
	}
	resp, err := ip6.ParseAddr(fields[3])
	if err != nil {
		return fmt.Errorf("core: line %d: %w", line, err)
	}
	minHi, err1 := strconv.ParseUint(fields[4], 16, 64)
	maxHi, err2 := strconv.ParseUint(fields[5], 16, 64)
	count, err3 := strconv.Atoi(fields[6])
	if err1 != nil || err2 != nil || err3 != nil {
		return fmt.Errorf("core: line %d: bad obs numbers", line)
	}
	if !s.skip {
		sd.insertLoaded(resp, minHi, maxHi, count)
	}
	return nil
}

// addLoaded commits a segment's days, in day order for a deterministic
// chronology, and applies its counters and non-EUI-64 responders, all
// under one lock.
func (c *Corpus) addLoaded(m DaySegmentMeta, days map[int]*ScanDay) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range slices.Sorted(maps.Keys(days)) {
		days[d].mergeLocked()
	}
	c.TotalProbes += m.Probes
	c.TotalResponses += m.Responses
	c.addOthersLocked(m.NewOtherAddrs)
}

// insertLoaded restores one aggregated observation, bypassing the
// per-probe accounting Record does (the saved file already carries the
// aggregates and the global counters).
func (s *ScanDay) insertLoaded(resp ip6.Addr, minHi, maxHi uint64, count int) {
	if !ip6.AddrIsEUI64(resp) {
		return
	}
	obs := s.obsFor(resp, minHi, maxHi)
	if minHi < obs.MinTargetHi {
		obs.MinTargetHi = minHi
	}
	if maxHi > obs.MaxTargetHi {
		obs.MaxTargetHi = maxHi
	}
	obs.Count += count
}
