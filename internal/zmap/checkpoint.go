package zmap

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Checkpoint is a scan's serializable resume state: one high-water mark
// per worker. It leans entirely on the source-layer determinism
// contract (TargetSource doc): each worker's stream order is a pure
// function of (cfg, worker), so "how many positions worker w consumed
// in attempt pass a" identifies the exact remainder — a resumed scan
// re-creates the streams and skips that many positions, probing the
// rest byte-identically to an uninterrupted run
// (TestCheckpointResumeEquivalence).
//
// A checkpoint is only meaningful against the same scan: same seed,
// shard split, worker count, attempt count, module multiplier and — not
// recordable here — the same target source. Config.Resume validates
// everything it can and trusts the caller for the source.
type Checkpoint struct {
	Version int    `json:"version"`
	Seed    uint64 `json:"seed"`
	Shard   int    `json:"shard"`
	Shards  int    `json:"shards"`
	Workers int    `json:"workers"`
	// Attempts is the scan's ProbesPerTarget: each attempt pass walks
	// the same per-worker stream again.
	Attempts int `json:"attempts"`
	// Multiplier is the probe module's per-target position count — a
	// cheap fingerprint against resuming under a different module.
	Multiplier int `json:"multiplier"`
	// Marks holds one high-water mark per worker, indexed by worker.
	Marks []WorkerMark `json:"marks"`
}

// WorkerMark is one worker's high-water position: the attempt pass it
// was in (== Attempts when the worker finished) and how many stream
// positions it had consumed within that pass.
type WorkerMark struct {
	Attempt int    `json:"attempt"`
	Done    uint64 `json:"done"`
}

const checkpointVersion = 1

// Complete reports whether every worker finished every attempt pass —
// a resumed scan over a complete checkpoint sends nothing.
func (c *Checkpoint) Complete() bool {
	for _, m := range c.Marks {
		if m.Attempt < c.Attempts {
			return false
		}
	}
	return true
}

// compatible validates c against a filled scan configuration. Every
// mismatch would silently desynchronize the resumed walk from the
// interrupted one, so all of them are hard errors.
func (c *Checkpoint) compatible(cfg *Config) error {
	switch {
	case c.Version != checkpointVersion:
		return fmt.Errorf("zmap: checkpoint version %d, want %d", c.Version, checkpointVersion)
	case c.Seed != cfg.Seed:
		return fmt.Errorf("zmap: checkpoint seed %#x does not match scan seed %#x", c.Seed, cfg.Seed)
	case c.Shard != cfg.Shard || c.Shards != cfg.Shards:
		return fmt.Errorf("zmap: checkpoint shard %d/%d does not match scan shard %d/%d",
			c.Shard, c.Shards, cfg.Shard, cfg.Shards)
	case c.Workers != cfg.Workers || len(c.Marks) != cfg.Workers:
		return fmt.Errorf("zmap: checkpoint has %d workers (%d marks), scan has %d",
			c.Workers, len(c.Marks), cfg.Workers)
	case c.Attempts != cfg.ProbesPerTarget:
		return fmt.Errorf("zmap: checkpoint attempts %d does not match ProbesPerTarget %d",
			c.Attempts, cfg.ProbesPerTarget)
	case c.Multiplier != int(cfg.multiplier()):
		return fmt.Errorf("zmap: checkpoint multiplier %d does not match module multiplier %d",
			c.Multiplier, cfg.multiplier())
	}
	// A resumed worker walks from its mark's attempt pass onward, so a
	// mark outside the scan's passes would re-walk the shard or corrupt
	// the packed progress word.
	for w, m := range c.Marks {
		if m.Attempt < 0 || m.Attempt > c.Attempts || m.Done > markMask {
			return fmt.Errorf("zmap: checkpoint worker %d mark (attempt %d, done %d) out of range: attempt 0..%d, done at most %d",
				w, m.Attempt, m.Done, c.Attempts, uint64(markMask))
		}
	}
	return nil
}

// Compatible reports whether c can resume a scan that would run under
// cfg (which need not be pre-filled). The exported form of the check
// the engine applies on resume: distributed workers validate a
// coordinator-held checkpoint against their local configuration before
// trusting it, falling back to a full shard scan on any mismatch.
func (c *Checkpoint) Compatible(cfg Config) error {
	cfg.fill()
	return c.compatible(&cfg)
}

// WriteCheckpoint serializes c as JSON.
func WriteCheckpoint(w io.Writer, c *Checkpoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// ReadCheckpoint deserializes a checkpoint written by WriteCheckpoint.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	c := &Checkpoint{}
	if err := json.NewDecoder(r).Decode(c); err != nil {
		return nil, fmt.Errorf("zmap: reading checkpoint: %w", err)
	}
	if c.Version != checkpointVersion {
		return nil, fmt.Errorf("zmap: checkpoint version %d, want %d", c.Version, checkpointVersion)
	}
	if c.Workers != len(c.Marks) {
		return nil, fmt.Errorf("zmap: checkpoint claims %d workers but carries %d marks", c.Workers, len(c.Marks))
	}
	return c, nil
}

// Progress tracks a running scan's per-worker high-water marks, safe to
// snapshot from any goroutine at any time — the SIGINT path snapshots
// it while the scan is still unwinding. Attach one Progress to one scan
// at a time via Config.Progress; the engine (re)initializes it at scan
// start and advances a worker's mark only after the corresponding probe
// was handed to the transport, so a snapshot never claims unsent work.
type Progress struct {
	mu    sync.Mutex
	tmpl  Checkpoint
	marks []paddedMark
	ready bool
}

// paddedMark keeps each worker's atomic mark on its own cache line: the
// mark is stored once per probe on the send hot path, and false sharing
// between workers would put that store in contention
// (BenchmarkTable1_WithCheckpointing gates the overhead).
type paddedMark struct {
	v atomic.Uint64
	_ [56]byte
}

// The mark packs (attempt, positions consumed) into one word: attempt
// in the top 16 bits, count in the low 48. 2^48 positions per attempt
// pass is years of sending at line rate — far beyond a resumable scan.
const (
	markShift = 48
	markMask  = 1<<markShift - 1
)

// NewProgress returns an empty tracker, ready for Config.Progress.
func NewProgress() *Progress { return &Progress{} }

// start is called by the engine at scan start: it records the filled
// configuration's identity and seeds the marks from the checkpoint the
// scan resumes, so later snapshots stay cumulative across runs.
func (p *Progress) start(cfg *Config, resume *Checkpoint) {
	p.mu.Lock()
	p.tmpl = Checkpoint{
		Version:    checkpointVersion,
		Seed:       cfg.Seed,
		Shard:      cfg.Shard,
		Shards:     cfg.Shards,
		Workers:    cfg.Workers,
		Attempts:   cfg.ProbesPerTarget,
		Multiplier: int(cfg.multiplier()),
	}
	p.marks = make([]paddedMark, cfg.Workers)
	if resume != nil {
		for w, m := range resume.Marks {
			p.marks[w].v.Store(uint64(m.Attempt)<<markShift | m.Done&markMask)
		}
	}
	p.ready = true
	p.mu.Unlock()
}

// mark advances worker w's high-water position: done stream positions
// consumed within attempt. One uncontended atomic store per probe.
func (p *Progress) mark(w, attempt int, done uint64) {
	p.marks[w].v.Store(uint64(attempt)<<markShift | done&markMask)
}

// Checkpoint snapshots the current marks. Each worker's mark is read
// atomically and advances monotonically, so a snapshot taken mid-scan
// is conservative: it never claims a position that was not consumed.
func (p *Progress) Checkpoint() (*Checkpoint, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.ready {
		return nil, errors.New("zmap: progress not attached to a scan")
	}
	cp := p.tmpl
	cp.Marks = make([]WorkerMark, len(p.marks))
	for i := range p.marks {
		v := p.marks[i].v.Load()
		cp.Marks[i] = WorkerMark{Attempt: int(v >> markShift), Done: v & markMask}
	}
	return &cp, nil
}
