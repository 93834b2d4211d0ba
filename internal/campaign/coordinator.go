package campaign

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"followscent/internal/wire"
	"followscent/internal/zmap"
)

// Coordinator serves one campaign over the wire: it grants epoch-fenced
// shard leases day by day, merges streamed results with cross-shard
// dedupe, holds deposited checkpoints for partially scanned shards, and
// re-issues lapsed leases — the Manager/Merger machinery behind the
// shared internal/wire framing. Determinism contract: the finalized
// result set of every day is byte-identical to a single-node
// core.Campaign over the same Spec, for any number of workers and any
// interleaving of node deaths (TestCoordinatedCampaignByteIdentical,
// TestCoordinatedCampaignNodeKill).
type Coordinator struct {
	// Spec is the campaign contract handed to every worker. TTLMS is
	// filled from TTL if zero.
	Spec Spec
	// TTL is the lease TTL granted to workers.
	TTL time.Duration
	// EpochBase fences out a predecessor coordinator: every lease this
	// incarnation issues carries an epoch above it (NewManagerFrom).
	EpochBase uint64
	// Now overrides the lease clock (tests); nil means time.Now.
	Now func() time.Time
	// Wait advances 24 hours between days — the same hook as
	// core.Campaign.Wait. When the simulated world is shared with the
	// workers (UDP serving), this is the one place its clock moves.
	Wait func(time.Duration)
	// Record receives each finalized day: the merged, deduplicated,
	// sorted results and the campaign's deterministic probe count for
	// the day (the scan's position count — what an uninterrupted
	// single-node scan sends; re-scans of re-issued shards do not
	// inflate it).
	Record func(day int, results []zmap.Result, probes uint64) error
	// Logf, when set, receives lifecycle lines.
	Logf func(format string, args ...any)

	mu        sync.Mutex
	day       int
	mgr       *Manager
	merge     *Merger
	cps       map[int]*zmap.Checkpoint
	dayDone   chan struct{}
	epochBase uint64
	dupes     int
	reissues  int
	finished  bool
	finishedC chan struct{}
}

// Run serves the campaign on ln until it finishes and ctx is cancelled
// (serving continues after the last day so workers polling for leases
// learn StatusDone). It returns nil after a finished campaign, ctx's
// error if cancelled mid-campaign, and the first Record or listener
// error otherwise.
func (c *Coordinator) Run(ctx context.Context, ln net.Listener) error {
	ts, cfg, err := c.Spec.Build()
	if err != nil {
		return err
	}
	if c.TTL <= 0 {
		return fmt.Errorf("campaign: coordinator needs a lease TTL")
	}
	if c.Spec.TTLMS == 0 {
		c.Spec.TTLMS = c.TTL.Milliseconds()
	}
	src := zmap.NewPermutedSource(ts)
	probes, ok := src.Positions(&cfg)
	if !ok {
		return fmt.Errorf("campaign: target space overflows the probe counter")
	}

	c.mu.Lock()
	if c.finishedC == nil {
		c.finishedC = make(chan struct{})
	}
	c.epochBase = c.EpochBase
	c.startDayLocked(0)
	c.mu.Unlock()

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- wire.Serve(sctx, ln, wire.Handle(c.answer), c.Logf) }()
	stop := func(err error) error {
		cancel()
		if serr := <-serveErr; err == nil {
			err = serr
		}
		return err
	}

	for day := 0; day < c.Spec.Days; day++ {
		c.mu.Lock()
		done := c.dayDone
		c.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return stop(ctx.Err())
		case err := <-serveErr:
			if err == nil {
				err = fmt.Errorf("campaign: listener closed mid-campaign")
			}
			return err
		}

		c.mu.Lock()
		results := c.merge.Results()
		c.retireDayLocked()
		c.mu.Unlock()
		if c.Logf != nil {
			c.Logf("day %2d: %d probes, %d distinct results", day, probes, len(results))
		}
		if c.Record != nil {
			if err := c.Record(day, results, probes); err != nil {
				return stop(fmt.Errorf("campaign: recording day %d: %w", day, err))
			}
		}
		if day != c.Spec.Days-1 {
			if c.Wait != nil {
				c.Wait(24 * time.Hour)
			}
			c.mu.Lock()
			c.startDayLocked(day + 1)
			c.mu.Unlock()
		}
	}

	c.mu.Lock()
	c.finished = true
	close(c.finishedC)
	c.mu.Unlock()
	<-ctx.Done()
	return stop(nil)
}

// startDayLocked installs day's fresh lease table and merger. Epochs
// continue above every epoch issued so far, so a straggler holding a
// previous day's lease can never renew into the new day.
func (c *Coordinator) startDayLocked(day int) {
	c.day = day
	c.mgr = NewManagerFrom(c.Spec.Shards, c.TTL, c.Now, c.epochBase)
	c.merge = NewMerger()
	c.cps = make(map[int]*zmap.Checkpoint)
	c.dayDone = make(chan struct{})
}

// retireDayLocked folds the finished day's counters into the campaign
// totals and tears down its lease table: until the next startDayLocked,
// every renew/result answers StatusLost and every lease ask waits.
func (c *Coordinator) retireDayLocked() {
	if c.mgr == nil {
		return
	}
	c.reissues += c.mgr.Reissues()
	c.dupes += c.merge.Dupes()
	if e := c.mgr.MaxEpoch(); e > c.epochBase {
		c.epochBase = e
	}
	c.mgr = nil
	c.cps = nil
}

// Finished is closed once every day has been recorded.
func (c *Coordinator) Finished() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finishedC == nil {
		c.finishedC = make(chan struct{})
	}
	return c.finishedC
}

// Reissues counts leases granted again after a holder lapsed or
// released, across all days so far — the campaign's node-loss count.
func (c *Coordinator) Reissues() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.reissues
	if c.mgr != nil {
		n += c.mgr.Reissues()
	}
	return n
}

// Dupes counts merged duplicate results across all days so far —
// re-scan overlap absorbed by the dedupe.
func (c *Coordinator) Dupes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.dupes
	if c.mgr != nil {
		n += c.merge.Dupes()
	}
	return n
}

// answer applies one request to the lease table.
func (c *Coordinator) answer(_ context.Context, req Request) Response {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Node == "" {
		return Response{Error: "campaign: request needs a node name"}
	}
	switch req.Op {
	case "lease":
		if c.finished {
			return Response{OK: true, Status: StatusDone}
		}
		if c.mgr == nil {
			// Between days (finalize/Record/Wait in progress).
			return Response{OK: true, Status: StatusWait, Day: c.day}
		}
		l, ok := c.mgr.Grant(req.Node)
		if !ok {
			return Response{OK: true, Status: StatusWait, Day: c.day}
		}
		spec := c.Spec
		resp := Response{
			OK: true, Status: StatusGranted,
			Day: c.day, Shard: l.Shard, Epoch: l.Epoch,
			Spec: &spec,
		}
		if cp := c.cps[l.Shard]; cp != nil {
			resp.Checkpoint = cp
		}
		return resp
	case "renew", "result":
		l, ok := c.heldLeaseLocked(req)
		if !ok {
			return Response{OK: true, Status: StatusLost}
		}
		// A streaming or renewing worker is alive: extend the lease.
		if _, ok := c.mgr.Renew(l); !ok {
			return Response{OK: true, Status: StatusLost}
		}
		for _, wr := range req.Results {
			r, err := wr.Result()
			if err != nil {
				return Response{Error: err.Error()}
			}
			c.merge.Add(r)
		}
		return Response{OK: true, Status: StatusOK}
	case "checkpoint":
		l, ok := c.heldLeaseLocked(req)
		if !ok {
			return Response{OK: true, Status: StatusLost}
		}
		if _, ok := c.mgr.Renew(l); !ok {
			return Response{OK: true, Status: StatusLost}
		}
		if req.Checkpoint == nil {
			return Response{Error: "campaign: checkpoint op without a checkpoint"}
		}
		c.cps[req.Shard] = req.Checkpoint
		if req.Release {
			c.mgr.Release(l)
		}
		return Response{OK: true, Status: StatusOK}
	case "done":
		l, ok := c.heldLeaseLocked(req)
		if !ok || !c.mgr.Complete(l) {
			return Response{OK: true, Status: StatusLost}
		}
		// The shard is fully covered: any deposited remainder is moot.
		delete(c.cps, req.Shard)
		if c.mgr.Done() {
			close(c.dayDone)
		}
		return Response{OK: true, Status: StatusOK}
	default:
		return Response{Error: fmt.Sprintf("campaign: unknown op %q", req.Op)}
	}
}

// heldLeaseLocked reconstructs the lease a request claims to hold and
// checks its day is still the live one.
func (c *Coordinator) heldLeaseLocked(req Request) (Lease, bool) {
	if c.mgr == nil || req.Day != c.day {
		return Lease{}, false
	}
	if req.Shard < 0 || req.Shard >= c.mgr.Shards() {
		return Lease{}, false
	}
	return Lease{Shard: req.Shard, Node: req.Node, Epoch: req.Epoch}, true
}
