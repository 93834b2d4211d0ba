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
// function of (cfg, worker), so "how many positions worker w consumed"
// identifies the exact remainder — a resumed scan re-creates the
// streams and skips that many positions, probing the rest
// byte-identically to an uninterrupted run
// (TestCheckpointResumeEquivalence).
//
// A checkpoint is only meaningful against the same scan: same seed,
// shard split, worker count, module multiplier and — not recordable
// here — the same target source. Config.Resume validates everything it
// can and trusts the caller for the source.
type Checkpoint struct {
	Version int    `json:"version"`
	Seed    uint64 `json:"seed"`
	Shard   int    `json:"shard"`
	Shards  int    `json:"shards"`
	Workers int    `json:"workers"`
	// Multiplier is the probe module's per-target position count — a
	// cheap fingerprint against resuming under a different module.
	Multiplier int `json:"multiplier"`
	// Marks holds, per worker, how many stream positions it consumed; a
	// worker that finished keeps its stream's full length.
	Marks []uint64 `json:"marks"`
}

const checkpointVersion = 2

// ErrCheckpointV1 refuses the retired v1 format, whose marks named an
// attempt pass as well as a position.
var ErrCheckpointV1 = errors.New("zmap: checkpoint format v1 is retired: its marks carry re-probe attempts; rescan")

// checkVersion accepts the current format and names the retired one.
func checkVersion(v int) error {
	switch v {
	case checkpointVersion:
		return nil
	case 1:
		return ErrCheckpointV1
	}
	return fmt.Errorf("zmap: checkpoint version %d, want %d", v, checkpointVersion)
}

// compatible validates c against a filled scan configuration. Every
// mismatch would silently desynchronize the resumed walk from the
// interrupted one, so all of them are hard errors.
func (c *Checkpoint) compatible(cfg *Config) error {
	if err := checkVersion(c.Version); err != nil {
		return err
	}
	switch {
	case c.Seed != cfg.Seed:
		return fmt.Errorf("zmap: checkpoint seed %#x does not match scan seed %#x", c.Seed, cfg.Seed)
	case c.Shard != cfg.Shard || c.Shards != cfg.Shards:
		return fmt.Errorf("zmap: checkpoint shard %d/%d does not match scan shard %d/%d",
			c.Shard, c.Shards, cfg.Shard, cfg.Shards)
	case c.Workers != cfg.Workers || len(c.Marks) != cfg.Workers:
		return fmt.Errorf("zmap: checkpoint has %d workers (%d marks), scan has %d",
			c.Workers, len(c.Marks), cfg.Workers)
	case c.Multiplier != int(cfg.multiplier()):
		return fmt.Errorf("zmap: checkpoint multiplier %d does not match module multiplier %d",
			c.Multiplier, cfg.multiplier())
	}
	return nil
}

// within refuses a mark above the scan's position count n: no worker
// consumes more than the whole scan, so such a mark names no position
// of it (a corrupt or foreign checkpoint).
func (c *Checkpoint) within(n uint64) error {
	for w, m := range c.Marks {
		if m > n {
			return fmt.Errorf("zmap: checkpoint worker %d mark %d exceeds the scan's %d positions", w, m, n)
		}
	}
	return nil
}

// WriteCheckpoint serializes c as JSON.
func WriteCheckpoint(w io.Writer, c *Checkpoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// ReadCheckpoint deserializes a checkpoint written by WriteCheckpoint.
// The version is read first, so a retired format is refused by name
// rather than by whatever its fields fail to decode into.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var raw json.RawMessage
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, fmt.Errorf("zmap: reading checkpoint: %w", err)
	}
	var v struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("zmap: reading checkpoint: %w", err)
	}
	if err := checkVersion(v.Version); err != nil {
		return nil, err
	}
	c := &Checkpoint{}
	if err := json.Unmarshal(raw, c); err != nil {
		return nil, fmt.Errorf("zmap: reading checkpoint: %w", err)
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
// between workers would put that store in contention (the bench
// harness reports the cost as zmap.checkpoint_overhead_ratio).
type paddedMark struct {
	v atomic.Uint64
	_ [56]byte
}

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
		Multiplier: int(cfg.multiplier()),
	}
	p.marks = make([]paddedMark, cfg.Workers)
	if resume != nil {
		for w, m := range resume.Marks {
			p.marks[w].v.Store(m)
		}
	}
	p.ready = true
	p.mu.Unlock()
}

// mark advances worker w's high-water position to done stream
// positions consumed. One uncontended atomic store per probe.
func (p *Progress) mark(w int, done uint64) {
	p.marks[w].v.Store(done)
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
	cp.Marks = make([]uint64, len(p.marks))
	for i := range p.marks {
		cp.Marks[i] = p.marks[i].v.Load()
	}
	return &cp, nil
}
