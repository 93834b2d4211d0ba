// Package scentd is the serving layer: it turns the batch measurement
// library into continuously-operated tracking infrastructure. A Store
// ingests scan observations day by day into a core.Corpus, journals
// every committed day to an append-only corpus journal, and publishes
// an immutable core.Snapshot at each commit boundary; a Server answers
// concurrent client queries against whichever snapshot is current.
//
// The isolation contract: queries never see a half-ingested day. A day
// being ingested lives in a core.ScanDay, which touches the live corpus
// only when it commits, and the snapshot pointer advances only after
// that commit and the day's journal append are complete. Every answer is
// therefore byte-identical to the batch computation over the snapshot's
// day set — the snapshot *is* that batch computation, over a frozen
// view of the append-only history.
package scentd

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"followscent/internal/bgp"
	"followscent/internal/core"
	"followscent/internal/ip6"
)

// Store is a journal-backed corpus with atomically published snapshots.
// One goroutine ingests (BeginDay → Record/AddProbes → Commit); any
// number of goroutines read via Snapshot.
type Store struct {
	path string
	f    *os.File // append-only journal handle
	c    *core.Corpus

	snap atomic.Pointer[core.Snapshot]

	mu        sync.Mutex
	ingesting bool  // a DayIngest is open
	broken    error // sticky: a failed journal append poisons the store
}

// OpenStore opens (or creates) the journal at path and replays it into
// a fresh corpus attributed against rib. A torn trailing segment — the
// mark of a crash mid-append — is truncated away so the next append
// starts on a clean boundary; the day it carried was never committed,
// so nothing is lost that was ever queryable. The initial snapshot
// reflects the replayed corpus.
func OpenStore(path string, rib *bgp.Table) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("scentd: opening store: %w", err)
	}
	st := &Store{path: path, f: f, c: core.NewCorpus(rib)}
	if err := st.replay(); err != nil {
		f.Close()
		return nil, err
	}
	st.snap.Store(st.c.Snapshot())
	return st, nil
}

// replay loads the journal's committed segments into the corpus and
// truncates whatever follows them, a torn append, so the next append
// starts on a clean boundary. A journal with nothing committed, not
// even a complete header line, starts over with a fresh header.
func (s *Store) replay() error {
	good, err := core.ReplayJournal(s.f, s.c)
	if err != nil {
		return fmt.Errorf("scentd: %s: %w", s.path, err)
	}
	if err := s.f.Truncate(good); err != nil {
		return fmt.Errorf("scentd: truncating torn tail of %s: %w", s.path, err)
	}
	if _, err := s.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("scentd: store: %w", err)
	}
	if good > 0 {
		return nil
	}
	if err := core.WriteCorpusJournalHeader(s.f); err != nil {
		return fmt.Errorf("scentd: %s: %w", s.path, err)
	}
	return s.f.Sync()
}

// Snapshot returns the currently published snapshot: the corpus as of
// the last committed day. Never nil after OpenStore; safe from any
// goroutine.
func (s *Store) Snapshot() *core.Snapshot { return s.snap.Load() }

// Corpus exposes the live corpus for ingestion-side bookkeeping (day
// membership, counters). Readers serving queries must use Snapshot.
func (s *Store) Corpus() *core.Corpus { return s.c }

// Close releases the journal handle. Outstanding DayIngests must be
// committed or abandoned first.
func (s *Store) Close() error { return s.f.Close() }

// DayIngest accumulates one scan day. Obtain with BeginDay, feed every
// probe result through Record, account probes with AddProbes, then
// Commit — which journals the day, publishes the new snapshot, and
// makes the day durable. The day lives in a core.ScanDay until then,
// so an abandoned day leaves no trace anywhere.
type DayIngest struct {
	s  *Store
	sd *core.ScanDay
}

// BeginDay starts ingesting the given day. It fails if the store is
// broken, another DayIngest is open (one ingester at a time — days are
// a total order), or the day is already in the corpus.
func (s *Store) BeginDay(day int) (*DayIngest, error) {
	if err := s.claim(day); err != nil {
		return nil, err
	}
	return &DayIngest{s: s, sd: s.c.NewScanDay(day)}, nil
}

// Record adds one probe result (the probed target and the response
// source). Like core.ScanDay.Record, it is fed from one scan's handler
// and is not itself goroutine-safe.
func (d *DayIngest) Record(target, from ip6.Addr) { d.sd.Record(target, from) }

// AddProbes accounts probes sent this day (responsive or not).
func (d *DayIngest) AddProbes(n uint64) { d.sd.AddProbes(n) }

// Commit applies the day to the corpus, appends its journal segment,
// and publishes the new snapshot.
func (d *DayIngest) Commit() error { return d.s.commit(d.sd) }

// Commit journals a day scanned into sd, a ScanDay of s.Corpus(), and
// publishes it: BeginDay and DayIngest.Commit in one call, the commit
// hook core.Campaign takes. It fails where BeginDay would.
func (s *Store) Commit(sd *core.ScanDay) error {
	if err := s.claim(sd.Day()); err != nil {
		return err
	}
	return s.commit(sd)
}

// claim takes the ingestion slot for day, or says why it cannot.
func (s *Store) claim(day int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return fmt.Errorf("scentd: store is broken: %w", s.broken)
	}
	if s.ingesting {
		return fmt.Errorf("scentd: another day is being ingested")
	}
	for _, d := range s.c.Days() {
		if d == day {
			return fmt.Errorf("scentd: day %d already ingested", day)
		}
	}
	s.ingesting = true
	return nil
}

// commit applies a claimed day to the corpus, appends its journal
// segment, fsyncs, publishes the new snapshot, and frees the slot. On
// journal failure the store goes sticky-broken: the in-memory corpus
// and the file disagree, and serving on must not pretend otherwise.
func (s *Store) commit(sd *core.ScanDay) error {
	sd.Commit()
	err := s.c.SaveDay(s.f, sd.Day(), sd.Meta())
	if err == nil {
		err = s.f.Sync()
	}
	s.mu.Lock()
	s.ingesting = false
	if err != nil {
		s.broken = fmt.Errorf("journaling day %d: %w", sd.Day(), err)
		s.mu.Unlock()
		return fmt.Errorf("scentd: %w", s.broken)
	}
	s.mu.Unlock()
	s.snap.Store(s.c.Snapshot())
	return nil
}

// Abandon discards an uncommitted DayIngest, freeing the store for the
// next BeginDay. Nothing reached the corpus or the journal.
func (d *DayIngest) Abandon() {
	d.s.mu.Lock()
	d.s.ingesting = false
	d.s.mu.Unlock()
}

// Compact rewrites the journal as its header plus one snap segment
// covering every committed day — an N-day journal collapses into a
// single segment holding each observation once instead of one segment
// per day. The rewrite goes to a temporary file in the same directory,
// is fsynced, and replaces the journal with an atomic rename: a crash
// at any point leaves either the old day-by-day journal or the complete
// compacted one, never a mix. Replaying the compacted journal
// reconstructs the identical corpus (TestStoreCompactReplayEquivalence)
// and later days append after the snap segment exactly as before.
// Compact fails while a DayIngest is open; a failure after the rename
// (reopening the new journal) leaves the store broken, like a failed
// append would.
func (s *Store) Compact() error {
	s.mu.Lock()
	if s.broken != nil {
		s.mu.Unlock()
		return fmt.Errorf("scentd: store is broken: %w", s.broken)
	}
	if s.ingesting {
		s.mu.Unlock()
		return fmt.Errorf("scentd: cannot compact while a day is being ingested")
	}
	// Hold the ingestion slot so no day lands between the rewrite and
	// the handle swap.
	s.ingesting = true
	s.mu.Unlock()
	done := func(err error, sticky bool) error {
		s.mu.Lock()
		s.ingesting = false
		if err != nil && sticky {
			s.broken = err
		}
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("scentd: compacting %s: %w", s.path, err)
		}
		return nil
	}

	tmpPath := s.path + ".compact"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return done(err, false)
	}
	err = core.WriteCorpusJournalHeader(tmp)
	if err == nil {
		err = s.c.SaveSnap(tmp)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpPath)
		return done(err, false)
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		os.Remove(tmpPath)
		return done(err, false)
	}
	// The journal on disk is now the compacted one; the old handle
	// points at the unlinked file. Swap to a handle positioned at the
	// new end — failure here leaves handle and file out of step, which
	// is exactly what broken means.
	f, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return done(err, true)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return done(err, true)
	}
	s.f.Close()
	s.f = f
	return done(nil, false)
}
