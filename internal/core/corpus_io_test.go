package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"followscent/internal/bgp"
	"followscent/internal/core"
	"followscent/internal/ip6"
)

// ioFixtureRIB covers the fixture addresses with one AS.
func ioFixtureRIB() *bgp.Table {
	rib := bgp.New()
	rib.Insert(bgp.Route{Prefix: ip6.MustParsePrefix("2001:16b8::/32"), ASN: 8881, Country: "DE"})
	return rib
}

// fixtureAddr places device d (EUI-64) in /64 block p of the fixture AS.
func fixtureAddr(d, p int) ip6.Addr {
	mac := ip6.MAC{0x38, 0x10, 0xd5, 0, byte(d >> 8), byte(d)}
	pfx := ip6.MustParsePrefix(fmt.Sprintf("2001:16b8:%x::/64", 0x100+p))
	return pfx.Addr().WithIID(ip6.EUI64FromMAC(mac))
}

// ingestFixtureDay records a deterministic day of observations: each of
// n devices answers from a day-dependent /64, plus probe accounting.
func ingestFixtureDay(c *core.Corpus, day, n int) {
	sd := c.NewScanDay(day)
	for d := 0; d < n; d++ {
		a := fixtureAddr(d, (d+day)%7)
		sd.Record(a, a)
		// A second probe of the same device from a different target hi
		// exercises the span aggregation.
		sd.Record(ip6.MustParsePrefix(fmt.Sprintf("2001:16b8:%x::/64", 0x200+d)).Addr().WithIID(a.IID()), a)
	}
	sd.AddProbes(uint64(n * 4))
	sd.Commit()
}

// corpusFingerprint condenses everything persistence must preserve:
// counters, day set, and every DayObs of every record in sorted order —
// the bytes Save writes.
func corpusFingerprint(t *testing.T, c *core.Corpus) string {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestLoadCorpusReloadIdempotent is the resumable-ingestion regression:
// a Save → LoadCorpus round trip keeps every committed day and counter,
// and re-loading the same file into an already-loaded corpus changes
// nothing — no doubled probe/response counters, no duplicated DayObs
// entries. The fixture includes a day whose only responder is not
// EUI-64 and an all-silent day: both carry no obs line, and both are
// still committed corpus history.
func TestLoadCorpusReloadIdempotent(t *testing.T) {
	src := core.NewCorpus(ioFixtureRIB())
	for day := 0; day < 3; day++ {
		ingestFixtureDay(src, day, 5)
	}
	nonEUI := src.NewScanDay(3)
	nonEUI.Record(fixtureAddr(0, 3), ip6.MustParseAddr("2001:16b8:103::1"))
	nonEUI.AddProbes(4)
	nonEUI.Commit()
	silent := src.NewScanDay(4)
	silent.AddProbes(7)
	silent.Commit()
	var file bytes.Buffer
	if err := src.Save(&file); err != nil {
		t.Fatal(err)
	}
	type summary struct {
		days              []int
		probes, responses uint64
		unique, uniqueEUI int
	}
	sum := func(c *core.Corpus) summary {
		p, r := c.Totals()
		ta, ea := c.UniqueAddrs()
		return summary{c.Days(), p, r, ta, ea}
	}
	wantSum := sum(src)

	dst := core.NewCorpus(ioFixtureRIB())
	if err := core.LoadCorpus(bytes.NewReader(file.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	if got := sum(dst); fmt.Sprint(got) != fmt.Sprint(wantSum) {
		t.Errorf("Save → LoadCorpus round trip: got %+v, want %+v", got, wantSum)
	}
	want := corpusFingerprint(t, dst)
	if want != file.String() {
		t.Errorf("Save of the loaded corpus differs from the file it loaded:\n%s\nvs\n%s", want, file.String())
	}

	if err := core.LoadCorpus(bytes.NewReader(file.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	if got := corpusFingerprint(t, dst); got != want {
		t.Errorf("re-loading the same corpus changed it:\nfirst load:\n%s\nafter reload:\n%s", want, got)
	}
	if got := sum(dst); fmt.Sprint(got) != fmt.Sprint(wantSum) {
		t.Errorf("re-load double-counted: got %+v, want %+v", got, wantSum)
	}
	if rec, ok := dst.Lookup(core.IID(fixtureAddr(0, 0).IID())); ok {
		seen := map[int]int{}
		for _, d := range rec.Days {
			seen[d.Day]++
		}
		for day, n := range seen {
			if n > 2 { // fixture records at most 2 distinct (day, resp) rows per day
				t.Errorf("day %d has %d DayObs rows after reload (duplicated)", day, n)
			}
		}
	} else {
		t.Fatal("fixture device missing after reload")
	}
}

// TestLoadCorpusPartialOverlapAddsOnlyNewDays loads a 2-day journal
// into a corpus already holding day 0: only day 1 may land.
func TestLoadCorpusPartialOverlapAddsOnlyNewDays(t *testing.T) {
	src := core.NewCorpus(ioFixtureRIB())
	var journal bytes.Buffer
	if err := core.WriteCorpusJournalHeader(&journal); err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 2; day++ {
		pBefore, rBefore := src.Totals()
		ingestFixtureDay(src, day, 4)
		pAfter, rAfter := src.Totals()
		if err := src.SaveDay(&journal, day, core.DaySegmentMeta{
			Probes:    pAfter - pBefore,
			Responses: rAfter - rBefore,
		}); err != nil {
			t.Fatal(err)
		}
	}

	dst := core.NewCorpus(ioFixtureRIB())
	ingestFixtureDay(dst, 0, 4) // day 0 already ingested live
	fpBefore := corpusFingerprint(t, dst)
	if err := core.LoadCorpus(bytes.NewReader(journal.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	days := dst.Days()
	if len(days) != 2 || days[0] != 0 || days[1] != 1 {
		t.Fatalf("days after overlap load = %v, want [0 1]", days)
	}
	// Loading the journal again must now be a complete no-op.
	fpAfter := corpusFingerprint(t, dst)
	if fpAfter == fpBefore {
		t.Fatal("day 1 did not land")
	}
	if err := core.LoadCorpus(bytes.NewReader(journal.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	if got := corpusFingerprint(t, dst); got != fpAfter {
		t.Errorf("re-loading the journal changed the corpus")
	}
}

// TestLoadCorpusLineTooLong pins the over-long-line diagnostic: the
// loader must name the line and say "line too long", not surface a
// generic bufio error.
func TestLoadCorpusLineTooLong(t *testing.T) {
	var file bytes.Buffer
	if err := core.WriteCorpusJournalHeader(&file); err != nil {
		t.Fatal(err)
	}
	file.WriteString("day 0\n")
	file.WriteString(strings.Repeat("x", 2<<20)) // one 2 MiB line, over the 1 MiB cap
	file.WriteString("\nendday 0\n")
	err := core.LoadCorpus(bytes.NewReader(file.Bytes()), core.NewCorpus(ioFixtureRIB()))
	if err == nil {
		t.Fatal("oversized line loaded without error")
	}
	if !strings.Contains(err.Error(), "line too long") {
		t.Errorf("error %q does not say 'line too long'", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not name line 3", err)
	}
}

// TestJournalRoundTripEqualsBatch proves a day-by-day journal
// reconstructs the identical corpus the live ingestion built.
func TestJournalRoundTripEqualsBatch(t *testing.T) {
	src := core.NewCorpus(ioFixtureRIB())
	var journal bytes.Buffer
	if err := core.WriteCorpusJournalHeader(&journal); err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 4; day++ {
		pBefore, rBefore := src.Totals()
		ingestFixtureDay(src, day, 6)
		pAfter, rAfter := src.Totals()
		if err := src.SaveDay(&journal, day, core.DaySegmentMeta{
			Probes:    pAfter - pBefore,
			Responses: rAfter - rBefore,
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := corpusFingerprint(t, src)

	fromJournal := core.NewCorpus(ioFixtureRIB())
	if err := core.LoadCorpus(bytes.NewReader(journal.Bytes()), fromJournal); err != nil {
		t.Fatal(err)
	}
	if got := corpusFingerprint(t, fromJournal); got != want {
		t.Errorf("journal replay diverges from the live corpus:\nlive:\n%s\nreplayed:\n%s", want, got)
	}
}

// TestLoadCorpusTornTailDropped: a journal whose final segment lost its
// endday marker (crash mid-append) loads cleanly without the torn day.
func TestLoadCorpusTornTailDropped(t *testing.T) {
	src := core.NewCorpus(ioFixtureRIB())
	var journal bytes.Buffer
	if err := core.WriteCorpusJournalHeader(&journal); err != nil {
		t.Fatal(err)
	}
	ingestFixtureDay(src, 0, 3)
	if err := src.SaveDay(&journal, 0, core.DaySegmentMeta{Probes: 12, Responses: 6}); err != nil {
		t.Fatal(err)
	}
	// A torn day-1 segment: header and one obs, no endday.
	fmt.Fprintf(&journal, "day 1\nprobes 12\nobs %016x 1 %s %016x %016x 1\n",
		fixtureAddr(0, 1).IID(), fixtureAddr(0, 1), fixtureAddr(0, 1).High64(), fixtureAddr(0, 1).High64())

	dst := core.NewCorpus(ioFixtureRIB())
	if err := core.LoadCorpus(bytes.NewReader(journal.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	if days := dst.Days(); len(days) != 1 || days[0] != 0 {
		t.Fatalf("days = %v, want just [0] (torn day 1 dropped)", days)
	}
	if probes, _ := dst.Totals(); probes != 12 {
		t.Errorf("probes = %d, want 12 (torn segment's counters dropped)", probes)
	}
}

// derivedFingerprint condenses everything a snapshot answers from: the
// Save bytes plus the views Save leaves out — the unique-address counts,
// per-record /64 counts and AS sets, the per-AS inferences and their
// inputs, the vendor census, and the address index for every recorded
// responder.
// Safe to call from any goroutine.
func derivedFingerprint(snap *core.Snapshot) string {
	c := snap.Corpus()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		return "save: " + err.Error()
	}
	total, eui := c.UniqueAddrs()
	fmt.Fprintf(&buf, "unique %d %d\ndays %v\nprefixes %v\nmultias %+v\nintervals %+v\npools %+v\ncensus %+v\n",
		total, eui, snap.Days(), c.PrefixesPerIID(), c.MultiASIIDs(), c.IntervalSamples(), c.PoolSamples(),
		snap.VendorCensus(ip6.Prefix{}))
	for _, day := range snap.Days() {
		fmt.Fprintf(&buf, "alloc %d %+v\n", day, c.AllocationSamples(day))
	}
	fmt.Fprintf(&buf, "allocByAS %v\npoolByAS %v\n", snap.AllocationByAS(), snap.PoolByAS())
	for _, iid := range c.IIDs() {
		rec, _ := c.Lookup(iid)
		fmt.Fprintf(&buf, "iid %016x /64s %d asns %v\n", uint64(iid), rec.PrefixCount(), rec.ASNs())
		for _, d := range rec.Days {
			got, ok := snap.Observed(d.Resp)
			fmt.Fprintf(&buf, "observed %s %016x %v\n", d.Resp, uint64(got), ok)
		}
	}
	return buf.String()
}

// TestSnapshotIsolatedFromIngestion: a snapshot must not see days
// committed after it was taken, in its Save bytes or in any view derived
// from its records.
func TestSnapshotIsolatedFromIngestion(t *testing.T) {
	c := core.NewCorpus(ioFixtureRIB())
	ingestFixtureDay(c, 0, 4)
	snap := c.Snapshot()
	want := derivedFingerprint(snap)

	ingestFixtureDay(c, 1, 4)
	ingestFixtureDay(c, 2, 4)
	if got := derivedFingerprint(snap); got != want {
		t.Errorf("snapshot changed after further ingestion:\n%s\nvs\n%s", got, want)
	}
	if days := snap.Days(); len(days) != 1 || days[0] != 0 {
		t.Errorf("snapshot days = %v, want [0]", days)
	}
	if days := c.Days(); len(days) != 3 {
		t.Errorf("live corpus days = %v, want 3 days", days)
	}
	// The address index resolves a day-0 responder, and the census
	// counts the fixture vendor.
	if _, ok := snap.Observed(fixtureAddr(0, 0)); !ok {
		t.Error("snapshot address index misses a day-0 responder")
	}
	census := snap.VendorCensus(ip6.Prefix{})
	if len(census) != 1 || census[0].Devices != 4 {
		t.Errorf("census = %+v, want one OUI with 4 devices", census)
	}
}

// fenceRIB is ioFixtureRIB plus a second AS devices can migrate into.
func fenceRIB() *bgp.Table {
	rib := ioFixtureRIB()
	rib.Insert(bgp.Route{Prefix: ip6.MustParsePrefix("2001:16b9::/32"), ASN: 3320, Country: "DE"})
	return rib
}

// ingestFenceDay commits one day of a fixture built to reach every
// record field: device 0 moves to the second AS from day 2 on, devices 0
// and 2 answer from two /64s every day, device 4 shows up on odd days
// only, device 5 only on days 1 and 4, one non-EUI-64 responder answers
// every day and another is new each day. It returns the committed day.
func ingestFenceDay(c *core.Corpus, day int) *core.ScanDay {
	addr := func(d, p int) ip6.Addr {
		a := fixtureAddr(d, p)
		if d == 0 && day >= 2 {
			return ip6.MustParsePrefix(fmt.Sprintf("2001:16b9:%x::/64", p)).Addr().WithIID(a.IID())
		}
		return a
	}
	sd := c.NewScanDay(day)
	for d := 0; d < 6; d++ {
		if d == 4 && day%2 == 0 || d == 5 && day != 1 && day != 4 {
			continue
		}
		a := addr(d, (d+day)%3)
		sd.Record(a, a)
		if d == 0 || d == 2 {
			b := addr(d, 5)
			sd.Record(b, b)
		}
	}
	sd.Record(fixtureAddr(0, 6), ip6.MustParseAddr("2001:16b8:106::1"))
	sd.Record(fixtureAddr(1, 6), ip6.MustParseAddr(fmt.Sprintf("2001:16b8:106::%x", 0x100+day)))
	sd.AddProbes(16)
	sd.Commit()
	return sd
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/journal.golden from the current writer")

// TestJournalGolden pins the journal bytes: the header and each SaveDay
// segment written right after its commit, then Save of the final
// corpus, must equal testdata/journal.golden byte for byte. The fence
// fixture's days land in order, out of order (day 1 after day 3) and
// twice (day 3), with an AS migration and non-EUI-64 addr lines.
func TestJournalGolden(t *testing.T) {
	c := core.NewCorpus(fenceRIB())
	var got bytes.Buffer
	if err := core.WriteCorpusJournalHeader(&got); err != nil {
		t.Fatal(err)
	}
	for _, day := range []int{0, 2, 3, 1, 3, 4} {
		sd := ingestFenceDay(c, day)
		if err := c.SaveDay(&got, day, sd.Meta()); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Save(&got); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "journal.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("journal bytes differ from %s:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}

// TestSnapshotFenceOutOfOrderDay: a snapshot shares its records' history
// with the live corpus, so committing a day below it (an insert into
// every record's history) or after it (an append) while readers walk the
// snapshot must leave every view it answers from equal to the batch
// corpus over the days it captured.
func TestSnapshotFenceOutOfOrderDay(t *testing.T) {
	batch := func(days ...int) string {
		c := core.NewCorpus(fenceRIB())
		for _, day := range days {
			ingestFenceDay(c, day)
		}
		return derivedFingerprint(c.Snapshot())
	}
	want := batch(0, 2, 3)
	// Device 0's AS-day set counts each (AS, day) once, however many
	// /64s it answered from that day.
	if !strings.Contains(want, "DaysByAS:map[3320:[2 3] 8881:[0]]") {
		t.Fatalf("fixture's AS migration is missing or miscounted:\n%s", want)
	}

	live := core.NewCorpus(fenceRIB())
	for _, day := range []int{0, 2, 3} {
		ingestFenceDay(live, day)
	}
	snap := live.Snapshot()
	if got := derivedFingerprint(snap); got != want {
		t.Fatalf("snapshot differs from the batch corpus:\n%s\nvs\n%s", got, want)
	}

	// Readers each finish one pass before the commits start, then keep
	// reading until both have landed.
	stop := make(chan struct{})
	var ready, done sync.WaitGroup
	for r := 0; r < 4; r++ {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			for pass := 0; ; pass++ {
				got := derivedFingerprint(snap)
				if pass == 0 {
					ready.Done()
				}
				if got != want {
					t.Errorf("a reader saw the snapshot change:\n%s\nvs\n%s", got, want)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	ready.Wait()
	ingestFenceDay(live, 1)
	ingestFenceDay(live, 4)
	close(stop)
	done.Wait()

	if got := derivedFingerprint(snap); got != want {
		t.Errorf("snapshot changed after days 1 and 4 committed:\n%s\nvs\n%s", got, want)
	}
	if got, all := derivedFingerprint(live.Snapshot()), batch(0, 1, 2, 3, 4); got != all {
		t.Errorf("live corpus after an out-of-order day differs from the batch corpus:\n%s\nvs\n%s", got, all)
	}
}

// warmTablesDiff compares what a snapshot carries from the corpus's
// warm tables with the batch functions over its frozen records:
// Algorithm 1 pooled over every captured day, Algorithm 2, and an
// O(records) recount of the vendor census. It returns "" when all three
// agree.
func warmTablesDiff(snap *core.Snapshot) string {
	c := snap.Corpus()
	var alloc []core.AllocationSample
	for _, day := range snap.Days() {
		alloc = append(alloc, c.AllocationSamples(day)...)
	}
	census := map[ip6.OUI]int{}
	for _, iid := range c.IIDs() {
		if mac, ok := ip6.MACFromEUI64(uint64(iid)); ok {
			census[mac.OUI()]++
		}
	}
	rows := snap.VendorCensus(ip6.Prefix{})
	warm := map[ip6.OUI]int{}
	for _, r := range rows {
		warm[r.OUI] = r.Devices
	}
	var diff strings.Builder
	if got, want := snap.AllocationByAS(), core.AllocationSizeByAS(alloc); !maps.Equal(got, want) {
		fmt.Fprintf(&diff, "AllocationByAS %v, batch %v\n", got, want)
	}
	if got, want := snap.PoolByAS(), core.PoolSizeByAS(c.PoolSamples()); !maps.Equal(got, want) {
		fmt.Fprintf(&diff, "PoolByAS %v, batch %v\n", got, want)
	}
	if len(rows) != len(warm) || !maps.Equal(warm, census) {
		fmt.Fprintf(&diff, "census %+v, recount %v\n", rows, census)
	}
	return diff.String()
}

// TestSnapshotWarmTablesEqualBatch: the census and per-AS inferences a
// snapshot carries from the tables Commit keeps equal the batch
// functions after every step of a sequence that reaches each way a
// record's samples change: in-order days, out-of-order days that move a
// device's primary AS back and forth, a second scan of a day already
// present that widens one device's allocation span and adds a device of
// a second vendor, a repeat of an earlier day's scan, and a
// Save/LoadCorpus round trip.
func TestSnapshotWarmTablesEqualBatch(t *testing.T) {
	c := core.NewCorpus(fenceRIB())
	// Device 0 answers from AS 3320 from day 2 on, so its primary AS is
	// 3320 with days {0, 3} (a tie goes to the lower ASN), 8881 once day
	// 1 lands, and 3320 again with day 2.
	const moved = 3320
	check := func(step string, wantMoved bool) {
		t.Helper()
		snap := c.Snapshot()
		if d := warmTablesDiff(snap); d != "" {
			t.Fatalf("after %s: %s", step, d)
		}
		if _, ok := snap.PoolByAS()[moved]; ok != wantMoved {
			t.Fatalf("after %s: AS %d in PoolByAS = %v, want %v: %v", step, moved, ok, wantMoved, snap.PoolByAS())
		}
	}
	ingestFenceDay(c, 0)
	check("day 0", false)
	ingestFenceDay(c, 3)
	check("day 3", true)
	ingestFenceDay(c, 1)
	check("out-of-order day 1", false)
	ingestFenceDay(c, 2)
	check("out-of-order day 2", true)

	sd := c.NewScanDay(2)
	resp := fixtureAddr(1, 3)
	for p := 0; p < 4; p++ {
		target := ip6.MustParsePrefix(fmt.Sprintf("2001:16b8:%x::/64", 0x140+p*0x20)).Addr().WithIID(resp.IID())
		sd.Record(target, resp)
	}
	other := ip6.MustParsePrefix("2001:16b8:101::/64").Addr().WithIID(ip6.EUI64FromMAC(ip6.MAC{0x00, 0x1a, 0x2b, 0, 0, 9}))
	sd.Record(other, other)
	sd.Commit()
	check("a second scan of day 2", true)
	for _, a := range c.AllocationSamples(2) {
		if a.IID == core.IID(resp.IID()) && a.Bits == 64 {
			t.Fatalf("the second scan of day 2 left device 1 at /64; the fixture no longer widens a span")
		}
	}
	ingestFenceDay(c, 3)
	check("the same scan of day 3 again", true)
	ingestFenceDay(c, 4)
	check("day 4", true)

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := core.NewCorpus(fenceRIB())
	if err := core.LoadCorpus(&buf, loaded); err != nil {
		t.Fatal(err)
	}
	before, after := c.Snapshot(), loaded.Snapshot()
	if d := warmTablesDiff(after); d != "" {
		t.Fatalf("after Save and LoadCorpus: %s", d)
	}
	if !maps.Equal(before.AllocationByAS(), after.AllocationByAS()) || !maps.Equal(before.PoolByAS(), after.PoolByAS()) ||
		!slices.Equal(before.VendorCensus(ip6.Prefix{}), after.VendorCensus(ip6.Prefix{})) {
		t.Fatalf("Save and LoadCorpus changed the warm tables")
	}
}

// FuzzLoadCorpus feeds arbitrary bytes to the corpus loader. It never
// panics; whatever it accepts is a fixed point after one Save (Save of
// the loaded corpus loads back to identical Save bytes and unique-address
// counts); the committed prefix ReplayJournal reports loads to the
// same corpus and counts as the whole input, so what a store truncates
// away was never corpus history; the warm tables the load built equal
// the batch functions; and the SaveDay segment of each of its days holds
// exactly Save's obs lines for that day, in the same order.
// The seeds are a Save file, a day-by-day journal, one compacted after
// two days and then appended to, and one whose days arrive out of order.
func FuzzLoadCorpus(f *testing.F) {
	// journal commits the given days in order into a fresh corpus, one
	// SaveDay segment each, compacting before day compactAt.
	journal := func(compactAt int, days ...int) (*core.Corpus, []byte) {
		c := core.NewCorpus(ioFixtureRIB())
		var buf bytes.Buffer
		core.WriteCorpusJournalHeader(&buf)
		for _, day := range days {
			if day == compactAt {
				buf.Reset()
				core.WriteCorpusJournalHeader(&buf)
				c.SaveSnap(&buf)
			}
			sd := c.NewScanDay(day)
			for d := 0; d < 3; d++ {
				a := fixtureAddr(d, (d+day)%5)
				sd.Record(a, a)
			}
			sd.Record(fixtureAddr(0, day), ip6.MustParseAddr("2001:16b8:100::1"))
			sd.AddProbes(8)
			sd.Commit()
			c.SaveDay(&buf, day, sd.Meta())
		}
		return c, buf.Bytes()
	}
	src, days := journal(-1, 0, 1, 2, 3)
	_, compacted := journal(2, 0, 1, 2, 3)
	_, shuffled := journal(-1, 2, 0, 3, 1)
	var saved bytes.Buffer
	src.Save(&saved)
	for _, seed := range [][]byte{saved.Bytes(), days, compacted, shuffled} {
		f.Add(seed)
		f.Add(seed[:len(seed)-7]) // a torn tail
	}
	save := func(t *testing.T, c *core.Corpus) []byte {
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := core.NewCorpus(ioFixtureRIB())
		n, err := core.ReplayJournal(bytes.NewReader(data), c)
		if err != nil || n == 0 {
			return
		}
		once := save(t, c)
		again := core.NewCorpus(ioFixtureRIB())
		if err := core.LoadCorpus(bytes.NewReader(once), again); err != nil {
			t.Fatalf("Save output of an accepted input does not load: %v\n%s", err, once)
		}
		if twice := save(t, again); !bytes.Equal(once, twice) {
			t.Fatalf("Save(load(Save(load(x)))) differs:\n%s\nvs\n%s", once, twice)
		}
		total, eui := c.UniqueAddrs()
		if t2, e2 := again.UniqueAddrs(); t2 != total || e2 != eui {
			t.Fatalf("unique addrs %d/%d after Save∘Load, %d/%d before", t2, e2, total, eui)
		}
		prefix := core.NewCorpus(ioFixtureRIB())
		if err := core.LoadCorpus(bytes.NewReader(data[:n]), prefix); err != nil {
			t.Fatalf("committed prefix of %d bytes does not load: %v", n, err)
		}
		if p := save(t, prefix); !bytes.Equal(p, once) {
			t.Fatalf("committed prefix loads to\n%s\nthe whole input to\n%s", p, once)
		}
		if tp, ep := prefix.UniqueAddrs(); tp != total || ep != eui {
			t.Fatalf("committed prefix counts unique addrs %d/%d, the whole input %d/%d", tp, ep, total, eui)
		}
		if d := warmTablesDiff(c.Snapshot()); d != "" {
			t.Fatalf("warm tables of the loaded corpus differ from the batch functions: %s", d)
		}
		for _, day := range c.Days() {
			var seg bytes.Buffer
			if err := c.SaveDay(&seg, day, core.DaySegmentMeta{}); err != nil {
				t.Fatal(err)
			}
			want := slices.DeleteFunc(obsLines(once), func(l string) bool { return strings.Fields(l)[2] != strconv.Itoa(day) })
			if got := obsLines(seg.Bytes()); !slices.Equal(got, want) {
				t.Fatalf("SaveDay(%d) obs lines\n%s\nSave's for that day\n%s", day, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	})
}

// obsLines returns the obs lines of journal bytes, in order.
func obsLines(journal []byte) []string {
	var out []string
	for _, l := range strings.Split(string(journal), "\n") {
		if strings.HasPrefix(l, "obs ") {
			out = append(out, l)
		}
	}
	return out
}
