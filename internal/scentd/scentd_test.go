package scentd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"followscent/internal/bgp"
	"followscent/internal/core"
	"followscent/internal/experiments"
	"followscent/internal/ip6"
	"followscent/internal/oui"
	"followscent/internal/scentd"
	"followscent/internal/wire"
)

// Synthetic-fixture half: store semantics, snapshot isolation and the
// wire protocol are exercised with deterministic hand-built days (fast,
// no simulator); the end-to-end half at the bottom runs real campaigns.

func fixtureRIB() *bgp.Table {
	rib := bgp.New()
	rib.Insert(bgp.Route{Prefix: ip6.MustParsePrefix("2001:16b8::/32"), ASN: 8881, Country: "DE"})
	return rib
}

func fixtureAddr(d, p int) ip6.Addr {
	mac := ip6.MAC{0x38, 0x10, 0xd5, 0, byte(d >> 8), byte(d)}
	pfx := ip6.MustParsePrefix(fmt.Sprintf("2001:16b8:%x::/64", 0x100+p))
	return pfx.Addr().WithIID(ip6.EUI64FromMAC(mac))
}

// feedDay streams one synthetic day into any Record/AddProbes sink:
// each of n devices answers from a day-dependent /64, returning to it
// every 7 days, and two non-EUI-64 responders answer too: one every
// day, one cycling through three addresses.
func feedDay(day, n int, record func(target, from ip6.Addr), addProbes func(uint64)) {
	for d := 0; d < n; d++ {
		a := fixtureAddr(d, (d+day)%7)
		record(a, a)
		record(ip6.MustParsePrefix(fmt.Sprintf("2001:16b8:%x::/64", 0x200+d)).Addr().WithIID(a.IID()), a)
	}
	record(fixtureAddr(0, 0), ip6.MustParseAddr("2001:16b8:1ff::1"))
	record(fixtureAddr(0, 1), ip6.MustParseAddr(fmt.Sprintf("2001:16b8:1ff::%x", 2+day%3)))
	addProbes(uint64(n*4 + 2))
}

// ingestFixtureDay commits one synthetic day into a store.
func ingestFixtureDay(t *testing.T, st *scentd.Store, day, n int) {
	t.Helper()
	di, err := st.BeginDay(day)
	if err != nil {
		t.Fatal(err)
	}
	feedDay(day, n, di.Record, di.AddProbes)
	if err := di.Commit(); err != nil {
		t.Fatal(err)
	}
}

// batchCorpusThrough builds the plain batch corpus over days [0, days).
func batchCorpusThrough(days, n int) *core.Corpus {
	c := core.NewCorpus(fixtureRIB())
	for day := 0; day < days; day++ {
		sd := c.NewScanDay(day)
		feedDay(day, n, sd.Record, sd.AddProbes)
		sd.Commit()
	}
	return c
}

func corpusBytes(t *testing.T, c *core.Corpus) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// uniqueAddrs is c.UniqueAddrs as one comparable value. Save bytes
// carry the address sets, not the counts derived from them, so tests
// compare the counts separately.
func uniqueAddrs(c *core.Corpus) [2]int {
	total, eui := c.UniqueAddrs()
	return [2]int{total, eui}
}

// queryOps are the read-only requests the concurrency tests fire.
func queryOps() []scentd.Request {
	return []scentd.Request{
		{Op: "stats"},
		{Op: "vendors"},
		{Op: "pools"},
		{Op: "prefixes", IID: fmt.Sprintf("%016x", fixtureAddr(0, 0).IID())},
		{Op: "lookup", Addr: fixtureAddr(1, 1).String()},
	}
}

func respJSON(t *testing.T, resp scentd.Response) []byte {
	t.Helper()
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// startServer serves st on a loopback listener and returns its address.
func startServer(t *testing.T, srv *scentd.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("server: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestScentdSnapshotIsolationUnderRace is the tentpole proof: N
// concurrent clients query over real TCP while the main goroutine
// ingests day after day. Every response must be byte-identical to the
// batch answer over the day set it claims — a torn read (one index
// from day k, another from day k+1) produces bytes matching no batch
// state and fails. Run with -race to also catch unsynchronized access.
func TestScentdSnapshotIsolationUnderRace(t *testing.T) {
	const days, devices, clients = 5, 24, 8

	// Oracle: for every committed-day count, the batch answer bytes.
	reg := oui.Builtin()
	oracle := make([]map[string][]byte, days+1)
	for k := 0; k <= days; k++ {
		snap := batchCorpusThrough(k, devices).Snapshot()
		oracle[k] = map[string][]byte{}
		for _, req := range queryOps() {
			oracle[k][req.Op] = respJSON(t, scentd.Answer(snap, reg, req))
		}
	}

	st, err := scentd.OpenStore(filepath.Join(t.TempDir(), "c.journal"), fixtureRIB())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	addr := startServer(t, &scentd.Server{Store: st})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := scentd.Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			ops := queryOps()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				req := ops[(n+i)%len(ops)]
				resp, err := c.Do(req)
				if err != nil {
					errc <- err
					return
				}
				k := len(resp.Days)
				if k > days {
					errc <- fmt.Errorf("response claims %d days, only %d ever committed", k, days)
					return
				}
				if got, want := respJSON(t, resp), oracle[k][req.Op]; !bytes.Equal(got, want) {
					errc <- fmt.Errorf("op %s at %d days: served answer diverges from batch:\n got %s\nwant %s",
						req.Op, k, got, want)
					return
				}
			}
		}(i)
	}

	for day := 0; day < days; day++ {
		ingestFixtureDay(t, st, day, devices)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Post-ingest: the final served state equals the full batch corpus.
	final := respJSON(t, scentd.Answer(st.Snapshot(), reg, scentd.Request{Op: "stats"}))
	if !bytes.Equal(final, oracle[days]["stats"]) {
		t.Errorf("final stats diverge from batch: %s vs %s", final, oracle[days]["stats"])
	}
}

// TestScentdRestartEqualsUninterrupted is the durability proof: a store
// killed between days and reopened — even with a torn half-written
// segment at the tail — converges on exactly the corpus and answers an
// uninterrupted ingestion produces. The run is long enough that devices
// return to /64s they held before the restart, and feedDay's non-EUI-64
// responders repeat across it, so an address the reopened store knows
// only from its journal must not count as new again.
func TestScentdRestartEqualsUninterrupted(t *testing.T) {
	const days, devices = 10, 16
	dir := t.TempDir()
	rib := fixtureRIB

	// Uninterrupted run.
	stA, err := scentd.OpenStore(filepath.Join(dir, "a.journal"), rib())
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < days; day++ {
		ingestFixtureDay(t, stA, day, devices)
	}
	want := corpusBytes(t, stA.Snapshot().Corpus())
	wantUniq := uniqueAddrs(stA.Snapshot().Corpus())
	stA.Close()

	// Interrupted run: two days, a hard kill mid-append, restart.
	pathB := filepath.Join(dir, "b.journal")
	stB, err := scentd.OpenStore(pathB, rib())
	if err != nil {
		t.Fatal(err)
	}
	ingestFixtureDay(t, stB, 0, devices)
	ingestFixtureDay(t, stB, 1, devices)
	stB.Close()
	// The crash left a torn segment: a day header and one obs line,
	// no endday.
	f, err := os.OpenFile(pathB, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, "day 2\nprobes 64\nobs %016x 2 %s %016x %016x 1\n",
		fixtureAddr(0, 2).IID(), fixtureAddr(0, 2), fixtureAddr(0, 2).High64(), fixtureAddr(0, 2).High64())
	f.Close()

	stB2, err := scentd.OpenStore(pathB, rib())
	if err != nil {
		t.Fatal(err)
	}
	defer stB2.Close()
	if got := stB2.Corpus().Days(); len(got) != 2 {
		t.Fatalf("restarted store has days %v, want the 2 committed ones", got)
	}
	for day := 2; day < days; day++ {
		ingestFixtureDay(t, stB2, day, devices)
	}
	if got := corpusBytes(t, stB2.Snapshot().Corpus()); !bytes.Equal(got, want) {
		t.Errorf("restarted corpus diverges from uninterrupted:\n%s\nvs\n%s", got, want)
	}
	if got := uniqueAddrs(stB2.Snapshot().Corpus()); got != wantUniq {
		t.Errorf("restarted corpus counts unique addrs %v, uninterrupted %v", got, wantUniq)
	}

	// And the served answers, stats included, are byte-identical too.
	reg := oui.Builtin()
	snapA := batchCorpusThrough(days, devices).Snapshot()
	for _, req := range queryOps() {
		got := respJSON(t, scentd.Answer(stB2.Snapshot(), reg, req))
		want := respJSON(t, scentd.Answer(snapA, reg, req))
		if !bytes.Equal(got, want) {
			t.Errorf("op %s: restarted answer diverges: %s vs %s", req.Op, got, want)
		}
	}
}

// TestStoreMisuse pins the ingestion-discipline errors.
func TestStoreMisuse(t *testing.T) {
	dir := t.TempDir()
	st, err := scentd.OpenStore(filepath.Join(dir, "c.journal"), fixtureRIB())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ingestFixtureDay(t, st, 0, 4)

	if _, err := st.BeginDay(0); err == nil {
		t.Error("re-ingesting an existing day did not error")
	}
	di, err := st.BeginDay(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.BeginDay(2); err == nil {
		t.Error("two concurrent DayIngests did not error")
	}
	if err := st.Commit(st.Corpus().NewScanDay(2)); err == nil {
		t.Error("Store.Commit with a DayIngest open did not error")
	}
	di.Abandon()
	if err := st.Commit(st.Corpus().NewScanDay(0)); err == nil {
		t.Error("Store.Commit of an existing day did not error")
	}
	if _, err := st.BeginDay(2); err != nil {
		t.Errorf("BeginDay after Abandon: %v", err)
	}

	// An abandoned day leaves no trace: counters stay at day 0's.
	snap := st.Snapshot()
	if got := snap.Days(); len(got) != 1 || got[0] != 0 {
		t.Errorf("snapshot days = %v, want [0]", got)
	}

	// A file in the retired v1 corpus format is not a journal.
	v1 := filepath.Join(dir, "v1.corpus")
	if err := os.WriteFile(v1, []byte("# followscent corpus v1\nprobes 4\nresponses 2\nuniqueaddrs 1 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := scentd.OpenStore(v1, fixtureRIB()); err == nil {
		t.Error("OpenStore accepted a v1 corpus file")
	}

	// Save output is a journal: it opens as a store, replays to the
	// same Save bytes, and takes the next day.
	saved := filepath.Join(dir, "saved.corpus")
	if err := os.WriteFile(saved, corpusBytes(t, batchCorpusThrough(2, 4)), 0o644); err != nil {
		t.Fatal(err)
	}
	sst, err := scentd.OpenStore(saved, fixtureRIB())
	if err != nil {
		t.Fatalf("OpenStore on Save output: %v", err)
	}
	if got, want := corpusBytes(t, sst.Corpus()), corpusBytes(t, batchCorpusThrough(2, 4)); !bytes.Equal(got, want) {
		t.Errorf("store over Save output replays to\n%s\nwant\n%s", got, want)
	}
	ingestFixtureDay(t, sst, 2, 4)
	sst.Close()
	sst, err = scentd.OpenStore(saved, fixtureRIB())
	if err != nil {
		t.Fatal(err)
	}
	defer sst.Close()
	if got, want := corpusBytes(t, sst.Corpus()), corpusBytes(t, batchCorpusThrough(3, 4)); !bytes.Equal(got, want) {
		t.Errorf("day appended to Save output replays to\n%s\nwant\n%s", got, want)
	}
}

// TestStoreOpensEveryTornPrefix cuts a 12-day journal (so `endday` has
// two digits) at every byte offset, as a crash mid-append can. Every
// cut opens as a store holding exactly the days [0, k) whose segments
// are complete, with the reference corpus's Save bytes, and takes one
// more day that leaves it equal to the reference corpus over [0, k+1)
// and survives a reopen byte for byte. The fixture's device returns to
// a /64 every 7 days, so for k ≥ 7 that day repeats an address the
// reopened store only knows from its journal.
func TestStoreOpensEveryTornPrefix(t *testing.T) {
	const days, devices = 12, 1
	dir := t.TempDir()
	full := filepath.Join(dir, "full.journal")
	st, err := scentd.OpenStore(full, fixtureRIB())
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < days; day++ {
		ingestFixtureDay(t, st, day, devices)
	}
	st.Close()
	journal, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, days+2)
	wantUniq := make([][2]int, days+2)
	for k := range want {
		ref := batchCorpusThrough(k, devices)
		want[k], wantUniq[k] = corpusBytes(t, ref), uniqueAddrs(ref)
	}
	path := filepath.Join(dir, "cut.journal")
	for cut := 0; cut <= len(journal); cut++ {
		if err := os.WriteFile(path, journal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := scentd.OpenStore(path, fixtureRIB())
		if err != nil {
			t.Fatalf("cut %d of %d: OpenStore: %v", cut, len(journal), err)
		}
		got := st.Corpus().Days()
		k := len(got)
		for i, d := range got {
			if d != i {
				t.Fatalf("cut %d: days %v are not a prefix [0, k)", cut, got)
			}
		}
		if b := corpusBytes(t, st.Corpus()); !bytes.Equal(b, want[k]) {
			t.Fatalf("cut %d: %d-day store saves\n%s\nwant\n%s", cut, k, b, want[k])
		}
		if u := uniqueAddrs(st.Corpus()); u != wantUniq[k] {
			t.Fatalf("cut %d: %d-day store counts unique addrs %v, want %v", cut, k, u, wantUniq[k])
		}
		ingestFixtureDay(t, st, k, devices)
		if b := corpusBytes(t, st.Corpus()); !bytes.Equal(b, want[k+1]) {
			t.Fatalf("cut %d: store after day %d saves\n%s\nwant\n%s", cut, k, b, want[k+1])
		}
		if u := uniqueAddrs(st.Corpus()); u != wantUniq[k+1] {
			t.Fatalf("cut %d: store after day %d counts unique addrs %v, want %v", cut, k, u, wantUniq[k+1])
		}
		st.Close()
		if st, err = scentd.OpenStore(path, fixtureRIB()); err != nil {
			t.Fatalf("cut %d: reopening after day %d: %v", cut, k, err)
		}
		if b := corpusBytes(t, st.Corpus()); !bytes.Equal(b, want[k+1]) {
			t.Fatalf("cut %d: day %d did not survive a reopen:\n%s\nwant\n%s", cut, k, b, want[k+1])
		}
		if u := uniqueAddrs(st.Corpus()); u != wantUniq[k+1] {
			t.Fatalf("cut %d: reopened store counts unique addrs %v, want %v", cut, u, wantUniq[k+1])
		}
		st.Close()
	}
}

// TestStoreCompactReplayEquivalence: compacting an N-day journal into
// one snap segment changes the bytes on disk but nothing observable —
// a store reopened from the compacted journal replays to the identical
// corpus, further days append normally, and compaction composes with
// itself. This is the journal-growth answer: N days of segments
// collapse into each observation appearing once.
func TestStoreCompactReplayEquivalence(t *testing.T) {
	const days, devices = 4, 16
	dir := t.TempDir()
	path := filepath.Join(dir, "c.journal")

	st, err := scentd.OpenStore(path, fixtureRIB())
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < days; day++ {
		ingestFixtureDay(t, st, day, devices)
	}
	want := corpusBytes(t, st.Snapshot().Corpus())
	preSize := fileSize(t, path)

	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got >= preSize {
		t.Errorf("compacted journal is %d bytes, not smaller than the %d-byte day-by-day one", got, preSize)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("\nendday ")) || !bytes.Contains(b, []byte("\nendsnap\n")) {
		t.Error("compacted journal still carries day segments (or no snap segment)")
	}

	// The live store is untouched by compaction...
	if got := corpusBytes(t, st.Snapshot().Corpus()); !bytes.Equal(got, want) {
		t.Error("compaction changed the live corpus")
	}
	// ...and appends keep working on the swapped handle.
	ingestFixtureDay(t, st, days, devices)
	wantPlus := corpusBytes(t, st.Snapshot().Corpus())
	st.Close()

	// Replay equivalence: reopening the compacted-then-appended journal
	// reconstructs exactly the corpus the uninterrupted store serves.
	st2, err := scentd.OpenStore(path, fixtureRIB())
	if err != nil {
		t.Fatal(err)
	}
	if got := corpusBytes(t, st2.Snapshot().Corpus()); !bytes.Equal(got, wantPlus) {
		t.Error("corpus replayed from the compacted journal diverges")
	}
	// And the served answers match the batch oracle byte for byte.
	reg := oui.Builtin()
	snapB := batchCorpusThrough(days+1, devices).Snapshot()
	for _, req := range queryOps() {
		got := respJSON(t, scentd.Answer(st2.Snapshot(), reg, req))
		if want := respJSON(t, scentd.Answer(snapB, reg, req)); !bytes.Equal(got, want) {
			t.Errorf("op %s: answer after compaction diverges: %s vs %s", req.Op, got, want)
		}
	}

	// Compaction composes: a second compact folds the appended day into
	// the snap segment and still replays identically.
	if err := st2.Compact(); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, err := scentd.OpenStore(path, fixtureRIB())
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := corpusBytes(t, st3.Snapshot().Corpus()); !bytes.Equal(got, wantPlus) {
		t.Error("corpus replayed from the twice-compacted journal diverges")
	}

	// Compacting mid-ingest is refused: the open day is not yet corpus
	// history and must not be frozen into a snap segment.
	di, err := st3.BeginDay(days + 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st3.Compact(); err == nil {
		t.Error("Compact succeeded with a DayIngest open")
	}
	di.Abandon()
	if err := st3.Compact(); err != nil {
		t.Errorf("Compact after Abandon: %v", err)
	}
}

// TestSnapSegmentPartialOverlapRejected pins the snap segment's
// indivisibility: loading one into a corpus that already holds some —
// but not all — of its days cannot apportion the segment's counters and
// must fail loudly rather than double-count.
func TestSnapSegmentPartialOverlapRejected(t *testing.T) {
	full := batchCorpusThrough(3, 8)
	var snap bytes.Buffer
	if err := core.WriteCorpusJournalHeader(&snap); err != nil {
		t.Fatal(err)
	}
	if err := full.SaveSnap(&snap); err != nil {
		t.Fatal(err)
	}

	// Into a corpus holding a strict subset of the snap's days: error.
	partial := batchCorpusThrough(2, 8)
	if err := core.LoadCorpus(bytes.NewReader(snap.Bytes()), partial); err == nil {
		t.Error("snap segment partially overlapping the corpus loaded without error")
	}

	// Into a corpus holding every snap day: skipped whole, a no-op.
	same := batchCorpusThrough(3, 8)
	before := corpusBytes(t, same)
	if err := core.LoadCorpus(bytes.NewReader(snap.Bytes()), same); err != nil {
		t.Fatal(err)
	}
	if got := corpusBytes(t, same); !bytes.Equal(got, before) {
		t.Error("re-loading a fully-present snap segment changed the corpus")
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestWireFrameLimits pins the framing edges: oversized frames are
// rejected, unknown ops answer with an error response, and errors
// still carry the snapshot's day set.
func TestWireFrameLimits(t *testing.T) {
	st, err := scentd.OpenStore(filepath.Join(t.TempDir(), "c.journal"), fixtureRIB())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ingestFixtureDay(t, st, 0, 4)
	addr := startServer(t, &scentd.Server{Store: st})

	c, err := scentd.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(scentd.Request{Op: "no-such-op"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Error == "" {
		t.Errorf("unknown op answered OK: %+v", resp)
	}
	if len(resp.Days) != 1 {
		t.Errorf("error response days = %v, want the snapshot's [0]", resp.Days)
	}
	resp, err = c.Do(scentd.Request{Op: "track", Addr: fixtureAddr(0, 0).String()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Error("track answered OK on a server with no TrackBackend")
	}

	var huge bytes.Buffer
	if err := wire.WriteFrame(&huge, scentd.Request{Addr: string(make([]byte, wire.MaxFrame))}); err == nil {
		t.Error("WriteFrame accepted a frame over MaxFrame")
	}
}

// End-to-end half: real campaigns over the simulated Internet. -----------

const campaignSalt = uint64(0x5eed) ^ 0xca59 // the Study's default

// worldPools returns every rotation-pool prefix of the world — the
// campaign target set, known a priori instead of via the (slow)
// seed+discovery pipeline, which cmd/scentd runs but these tests skip.
func worldPools(env *experiments.Env) []ip6.Prefix {
	var out []ip6.Prefix
	for _, p := range env.World.Providers() {
		for _, pool := range p.Pools {
			out = append(out, pool.Prefix)
		}
	}
	return out
}

// ingestCampaign ingests a scanned campaign over prefixes into the
// store with the core.Campaign call cmd/scentd makes, resuming after any
// days the store already holds.
func ingestCampaign(t *testing.T, env *experiments.Env, st *scentd.Store, prefixes []ip6.Prefix, days int) {
	t.Helper()
	camp := core.Campaign{
		Scanner:  env.Scanner,
		Corpus:   st.Corpus(),
		Prefixes: prefixes,
		Days:     days,
		Wait:     env.Wait,
		Salt:     campaignSalt,
		Commit:   st.Commit,
	}
	if err := camp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestScentdIngestEqualsBatchCampaign: the incremental, journaled,
// snapshot-published ingestion path produces bit-for-bit the corpus
// the one-shot batch core.Campaign builds — over a real scanned
// campaign, not fixtures.
func TestScentdIngestEqualsBatchCampaign(t *testing.T) {
	const seed, days = 7, 3

	// Batch: core.Campaign in one shot.
	benv := experiments.NewSmallEnv(seed)
	bc := core.NewCorpus(benv.World.RIB())
	camp := core.Campaign{
		Scanner:  benv.Scanner,
		Corpus:   bc,
		Prefixes: worldPools(benv),
		Days:     days,
		Wait:     benv.Wait,
		Salt:     campaignSalt,
	}
	if err := camp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := corpusBytes(t, bc)

	// Incremental: a fresh identical world, ingested day by day. The
	// store's RIB is the serving world's, so attribution lines up.
	env := experiments.NewSmallEnv(seed)
	path := filepath.Join(t.TempDir(), "c2.journal")
	st2, err := scentd.OpenStore(path, env.World.RIB())
	if err != nil {
		t.Fatal(err)
	}
	ingestCampaign(t, env, st2, worldPools(env), days)

	if got := corpusBytes(t, st2.Snapshot().Corpus()); !bytes.Equal(got, want) {
		t.Error("incremental campaign corpus diverges from the batch campaign corpus")
	}
	st2.Close()

	// The journal replays to the same bytes: every segment's counter
	// deltas (ScanDay.Meta) were right.
	st3, err := scentd.OpenStore(path, env.World.RIB())
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := corpusBytes(t, st3.Snapshot().Corpus()); !bytes.Equal(got, want) {
		t.Errorf("corpus replayed from the journal diverges from the batch campaign corpus:\n%s\nvs\n%s", got, want)
	}
}

// TestScentdTrackOp: the live op=track endpoint, seeded from the
// snapshot's inferences, re-finds a rotated device — and produces the
// same history the direct in-process core.Tracker does on an identical
// world.
func TestScentdTrackOp(t *testing.T) {
	const seed, days, trackDays = 7, 3, 2

	// Server world: ingest, then serve with tracking enabled.
	env := experiments.NewSmallEnv(seed)
	st, err := scentd.OpenStore(filepath.Join(t.TempDir(), "c.journal"), env.World.RIB())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ingestCampaign(t, env, st, worldPools(env), days)
	snap := st.Snapshot()

	// Subject: a device from the corpus, last seen at its most recent
	// observed address.
	iids := snap.Corpus().IIDs()
	if len(iids) == 0 {
		t.Fatal("campaign observed no devices")
	}
	rec, _ := snap.Corpus().Lookup(iids[0])
	last := rec.Days[len(rec.Days)-1].Resp

	addr := startServer(t, &scentd.Server{
		Store: st,
		Track: &scentd.TrackBackend{NewSession: func(*core.Snapshot) (*scentd.TrackSession, error) {
			return &scentd.TrackSession{Scanner: env.Scanner, RIB: env.World.RIB(), Wait: env.Wait}, nil
		}},
	})
	c, err := scentd.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(scentd.Request{Op: "track", Addr: last.String(), Days: trackDays})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Track == nil {
		t.Fatalf("track failed: %+v", resp)
	}
	if len(resp.Track.History) != trackDays {
		t.Fatalf("track history has %d days, want %d", len(resp.Track.History), trackDays)
	}

	// Replica world: the same campaign then a direct core.Tracker run
	// must match the served history exactly.
	env2 := experiments.NewSmallEnv(seed)
	st2, err := scentd.OpenStore(filepath.Join(t.TempDir(), "c2.journal"), env2.World.RIB())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ingestCampaign(t, env2, st2, worldPools(env2), days)
	snap2 := st2.Snapshot()
	tracker := &core.Tracker{
		Scanner:   env2.Scanner,
		RIB:       env2.World.RIB(),
		AllocBits: snap2.AllocationByAS(),
		PoolBits:  snap2.PoolByAS(),
	}
	state, err := core.NewTrackState(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracker.Track(context.Background(), state, trackDays, 0x7ac4, env2.Wait); err != nil {
		t.Fatal(err)
	}
	for i, d := range state.History {
		got := resp.Track.History[i]
		if got.Found != d.Found || got.Probes != d.ProbesSent ||
			(d.Found && got.Addr != d.Addr.String()) {
			t.Errorf("track day %d: served %+v vs direct %+v", i, got, d)
		}
	}
}

// TestScentdTrackDedicatedEnv: with a NewSession backend — the mode
// cmd/scentd wires for in-process worlds — every track request runs in
// its own same-seed replica aligned to the snapshot's last committed
// day. The ingestion world's clock never moves, concurrent tracks agree
// exactly, and the history equals a direct core.Tracker run on an
// identically built replica.
func TestScentdTrackDedicatedEnv(t *testing.T) {
	const seed, days, trackDays = 7, 3, 2

	env := experiments.NewSmallEnv(seed)
	st, err := scentd.OpenStore(filepath.Join(t.TempDir(), "c.journal"), env.World.RIB())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ingestCampaign(t, env, st, worldPools(env), days)
	snap := st.Snapshot()

	iids := snap.Corpus().IIDs()
	if len(iids) == 0 {
		t.Fatal("campaign observed no devices")
	}
	rec, _ := snap.Corpus().Lookup(iids[0])
	last := rec.Days[len(rec.Days)-1].Resp
	lastDay := snap.Days()[len(snap.Days())-1]

	// The session factory cmd/scentd installs: fresh replica, clock on
	// the last committed day.
	newSession := func(s *core.Snapshot) (*scentd.TrackSession, error) {
		senv := experiments.NewSmallEnv(seed)
		if d := s.Days(); len(d) > 0 {
			senv.Wait(time.Duration(d[len(d)-1]) * 24 * time.Hour)
		}
		return &scentd.TrackSession{Scanner: senv.Scanner, RIB: senv.World.RIB(), Wait: senv.Wait}, nil
	}
	addr := startServer(t, &scentd.Server{
		Store: st,
		Track: &scentd.TrackBackend{NewSession: newSession},
	})

	// Three concurrent tracks of the same device on separate
	// connections: dedicated sessions mean no serialization and no
	// cross-talk, so all three histories must be identical.
	clockBefore := env.World.Clock().Now()
	const clients = 3
	results := make([]*scentd.TrackResult, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := scentd.Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			resp, err := c.Do(scentd.Request{Op: "track", Addr: last.String(), Days: trackDays})
			if err != nil {
				errs[i] = err
				return
			}
			if !resp.OK || resp.Track == nil {
				errs[i] = fmt.Errorf("track failed: %+v", resp)
				return
			}
			results[i] = resp.Track
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < clients; i++ {
		a, b := respJSON(t, scentd.Response{Track: results[0]}), respJSON(t, scentd.Response{Track: results[i]})
		if !bytes.Equal(a, b) {
			t.Errorf("concurrent tracks diverge:\n%s\nvs\n%s", a, b)
		}
	}

	// The ingestion world's clock did not move: tracking ran entirely
	// off the shared ingestion clock.
	if got := env.World.Clock().Now(); !got.Equal(clockBefore) {
		t.Errorf("ingestion clock moved from %v to %v during tracking", clockBefore, got)
	}

	// Oracle: a direct core.Tracker on an identically built replica —
	// same seed, clock advanced to the same day.
	oenv := experiments.NewSmallEnv(seed)
	oenv.Wait(time.Duration(lastDay) * 24 * time.Hour)
	tracker := &core.Tracker{
		Scanner:   oenv.Scanner,
		RIB:       oenv.World.RIB(),
		AllocBits: snap.AllocationByAS(),
		PoolBits:  snap.PoolByAS(),
	}
	state, err := core.NewTrackState(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracker.Track(context.Background(), state, trackDays, 0x7ac4, oenv.Wait); err != nil {
		t.Fatal(err)
	}
	if sum := core.Summarize(state); sum.DaysFound == 0 {
		t.Error("tracker never found the device — fixture subject is not trackable")
	}
	for i, d := range state.History {
		got := results[0].History[i]
		if got.Found != d.Found || got.Moved != d.Moved || got.Probes != d.ProbesSent ||
			(d.Found && got.Addr != d.Addr.String()) {
			t.Errorf("track day %d: served %+v vs direct %+v", i, got, d)
		}
	}
}
