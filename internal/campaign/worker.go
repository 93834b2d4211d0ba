package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"followscent/internal/zmap"
)

// Worker is one scanner node of a distributed campaign: it leases
// shards from a Coordinator over the wire, scans each through the
// unchanged engine with its own transports, streams results back in
// batches, and exits when the coordinator reports the campaign done.
// Everything campaign-global (targets, seed, salt, shard count, lease
// TTL) arrives with the first lease grant; only node-local knobs live
// here. A worker killed mid-shard simply stops renewing — the
// coordinator re-issues its shard and the replacement's re-scan is
// absorbed by the merge dedupe — and a restarted worker re-learns the
// campaign from its next grant (TestWorkerKillAndRestart).
type Worker struct {
	// Name identifies this node in the lease table.
	Name string
	// Addr is the coordinator's address.
	Addr string
	// NewTransport builds the per-scan-worker transport factory for one
	// leased shard. day and shard let tests inject faults on specific
	// leases; real nodes ignore them.
	NewTransport func(day, shard int) zmap.TransportFactory
	// Config carries node-local engine knobs: Workers, Rate, Cooldown,
	// Batch. Campaign fields (Source, Seed, Shard/Shards) are
	// overwritten from the coordinator's Spec — none of the local knobs
	// may change the probed target set.
	Config zmap.Config
	// Failure is this node's failure policy. nil (AbortAll) means a
	// transport error kills the node and its shard re-issues in full;
	// QuarantineWorker makes the node deposit a checkpoint of the
	// partially scanned shard so the next holder resumes the remainder.
	Failure zmap.FailurePolicy
	// Poll is the wait between lease asks when no shard is free
	// (default 25ms).
	Poll time.Duration
	// FlushEvery streams results in batches of this many (default 1024).
	FlushEvery int
	// AdvanceTo aligns a worker-local simulated world's clock with the
	// campaign day (the worker is told the day with every grant). Nil
	// when the world is shared with the coordinator, whose Wait hook
	// then owns the clock.
	AdvanceTo func(day int)
	// Logf, when set, receives lifecycle lines.
	Logf func(format string, args ...any)

	spec    *Spec
	ts      *zmap.SubnetTargets
	baseCfg zmap.Config
	lastDay int
}

// errLeaseLost signals a fenced-out lease inside a lease run; it never
// escapes Run.
var errLeaseLost = errors.New("campaign: lease lost")

// Run leases and scans shards until the campaign finishes (nil), ctx is
// cancelled, or the node fails (transport death under AbortAll, a
// PartialError under quarantine after depositing its checkpoint, or a
// lost coordinator connection).
func (w *Worker) Run(ctx context.Context) error {
	cl, err := Dial(w.Addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	poll := w.Poll
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := cl.Do(Request{Op: "lease", Node: w.Name})
		if err != nil {
			return err
		}
		if !resp.OK {
			return fmt.Errorf("campaign: lease refused: %s", resp.Error)
		}
		switch resp.Status {
		case StatusDone:
			return nil
		case StatusWait:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(poll):
			}
		case StatusGranted:
			if err := w.runLease(ctx, cl, resp); err != nil {
				return err
			}
		default:
			return fmt.Errorf("campaign: unexpected lease status %q", resp.Status)
		}
	}
}

// learn caches the campaign contract from the first grant.
func (w *Worker) learn(grant Response) error {
	if w.spec != nil {
		return nil
	}
	if grant.Spec == nil {
		return fmt.Errorf("campaign: lease grant without a campaign spec")
	}
	sp := *grant.Spec
	ts, cfg, err := sp.Build()
	if err != nil {
		return err
	}
	cfg.Workers = w.Config.Workers
	cfg.Rate = w.Config.Rate
	cfg.Cooldown = w.Config.Cooldown
	cfg.Batch = w.Config.Batch
	cfg.Failure = w.Failure
	w.spec, w.ts, w.baseCfg = &sp, ts, cfg
	return nil
}

// runLease scans one granted shard: renewer heartbeat at TTL/3, result
// batches streamed (each stream extends the lease), completion or
// checkpoint deposit at the end. A fenced-out lease aborts the scan and
// returns nil — the replacement holder covers the shard.
func (w *Worker) runLease(ctx context.Context, cl *Client, grant Response) error {
	if err := w.learn(grant); err != nil {
		return err
	}
	day := grant.Day
	if w.AdvanceTo != nil && day != w.lastDay {
		w.AdvanceTo(day)
	}
	w.lastDay = day
	ident := Request{Node: w.Name, Day: day, Shard: grant.Shard, Epoch: grant.Epoch}

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	lost := make(chan struct{})
	var lostOnce sync.Once
	markLost := func() {
		lostOnce.Do(func() {
			close(lost)
			cancel()
		})
	}
	isLost := func() bool {
		select {
		case <-lost:
			return true
		default:
			return false
		}
	}
	var errMu sync.Mutex
	var commErr error
	setCommErr := func(err error) {
		errMu.Lock()
		if commErr == nil {
			commErr = err
		}
		errMu.Unlock()
		cancel()
	}
	getCommErr := func() error {
		errMu.Lock()
		defer errMu.Unlock()
		return commErr
	}

	// Heartbeat: renew at a third of the TTL until the scan ends.
	renewEvery := w.spec.TTL() / 3
	if renewEvery <= 0 {
		renewEvery = time.Millisecond
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(renewEvery)
		defer tick.Stop()
		for {
			select {
			case <-sctx.Done():
				return
			case <-tick.C:
				req := ident
				req.Op = "renew"
				resp, err := cl.Do(req)
				if err != nil {
					setCommErr(err)
					return
				}
				if !resp.OK || resp.Status != StatusOK {
					// Fenced out: the shard belongs to someone else
					// now. Stop scanning it immediately.
					markLost()
					return
				}
			}
		}
	}()

	// Result streaming: the engine handler batches into buf; flushes go
	// over the shared client (serialized with the renewer by its
	// mutex). buf is only touched by the engine's merge goroutine
	// during the scan and by this goroutine after ScanSource returns.
	flushEvery := w.FlushEvery
	if flushEvery <= 0 {
		flushEvery = 1024
	}
	buf := make([]zmap.Result, 0, flushEvery)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		req := ident
		req.Op = "result"
		req.Results = make([]WireResult, len(buf))
		for i, r := range buf {
			req.Results[i] = ToWire(r)
		}
		buf = buf[:0]
		resp, err := cl.Do(req)
		if err != nil {
			setCommErr(err)
			return err
		}
		if !resp.OK {
			err := fmt.Errorf("campaign: result rejected: %s", resp.Error)
			setCommErr(err)
			return err
		}
		if resp.Status != StatusOK {
			markLost()
			return errLeaseLost
		}
		return nil
	}
	handler := func(r zmap.Result) {
		if isLost() || getCommErr() != nil {
			return
		}
		buf = append(buf, r)
		if len(buf) >= flushEvery {
			flush()
		}
	}

	cfg := w.baseCfg
	cfg.Shard = grant.Shard
	if grant.Checkpoint != nil {
		if err := grant.Checkpoint.Compatible(cfg); err == nil {
			cfg.Resume = grant.Checkpoint
		} else if w.Logf != nil {
			w.Logf("shard %d: deposited checkpoint unusable here (%v), scanning in full", grant.Shard, err)
		}
	}
	_, scanErr := zmap.ScanSource(sctx, w.NewTransport(day, grant.Shard), zmap.NewPermutedSource(w.ts), cfg, handler)
	cancel()
	wg.Wait()

	var perr *zmap.PartialError
	switch {
	case scanErr == nil:
		// Shard fully covered: stream the tail, then complete. The
		// connection answers in order, so the coordinator has merged
		// every result before it sees the done.
		if err := flush(); err != nil {
			if errors.Is(err, errLeaseLost) {
				return nil
			}
			return err
		}
		if isLost() {
			return nil
		}
		req := ident
		req.Op = "done"
		if _, err := cl.Do(req); err != nil {
			return err
		}
		// A done answered StatusLost means the lease lapsed in the last
		// instant; the next holder re-covers the shard and the merge
		// dedupe absorbs the overlap. Not a node error either way.
		return nil
	case errors.As(scanErr, &perr):
		// Quarantined transport death: the scan's results are valid but
		// incomplete and perr.Checkpoint records exactly the remainder.
		// Stream what we have, deposit the checkpoint, release the
		// lease so the remainder re-issues immediately — then report
		// this node unhealthy.
		if err := flush(); err == nil && !isLost() && getCommErr() == nil {
			req := ident
			req.Op = "checkpoint"
			req.Checkpoint = perr.Checkpoint
			req.Release = true
			if resp, err := cl.Do(req); err == nil && w.Logf != nil && resp.Status == StatusOK {
				w.Logf("shard %d: deposited checkpoint, lease released", grant.Shard)
			}
		}
		return scanErr
	default:
		if err := getCommErr(); err != nil {
			return err
		}
		if isLost() {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return scanErr
	}
}
