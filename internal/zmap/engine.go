package zmap

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"followscent/internal/icmp6"
	"followscent/internal/ip6"
)

// Config tunes a scan.
type Config struct {
	// Source is the vantage point's address, used as the probe source.
	Source ip6.Addr
	// Rate is the probe rate in packets per second, divided evenly
	// among the workers; 0 disables pacing (full speed, the right
	// choice against the in-process simulator).
	Rate int
	// HopLimit for probe packets; 0 means 64. Sweep modules that own
	// the hop limit (e.g. yarrp's hop-limit module) ignore it.
	HopLimit int
	// Shard/Shards split the scan zmap-style: this instance sends only
	// the positions congruent to Shard modulo Shards. Defaults to 0/1.
	Shard, Shards int
	// Workers is the number of concurrent sender/receiver pairs this
	// instance runs, each on its own transport; 0 means GOMAXPROCS. The
	// instance's shard is partitioned into Workers sub-shards by
	// position, so the probed target set is identical for every worker
	// count and each worker sends its subsequence in the sequential
	// engine's order. Scan results are worker-count-invariant as long
	// as the simulated world's ICMPv6 rate limits are not saturated:
	// token consumption is arrival-ordered, so which probes a saturated
	// device drops depends on worker scheduling (exactly as on a real
	// network — the paper's randomized scan order exists to stay below
	// those limits).
	Workers int
	// Batch is the width of asynchronous wire I/O: each worker builds
	// probes into a preallocated ring and moves up to Batch packets per
	// transport operation (one sendmmsg/recvmmsg syscall on the UDP
	// transport; other transports run the same engine loops through a
	// batch-over-single adapter). The probed target set, probe order
	// per worker and validated results are byte-identical at every
	// width — only the syscall count changes. 0 or 1: batches of one,
	// each a plain Send/Recv on the transport (and in-process
	// Exchanger transports keep their synchronous fast path, which
	// Batch > 1 overrides).
	Batch int
	// ConcurrentHandlers invokes the Handler concurrently from every
	// worker instead of serializing calls through the merge mutex. The
	// handler must then be safe for concurrent use (see Result.Worker).
	ConcurrentHandlers bool
	// Seed randomizes the scan order and the per-target validation
	// field. Scans with equal seeds probe in identical order.
	Seed uint64
	// Cooldown is how long to keep receiving after the last probe
	// (needed on asynchronous transports; the loopback needs none).
	Cooldown time.Duration
	// Module selects the probe type: construction, validation and the
	// per-target position multiplier. Nil means EchoModule — the
	// paper's single full-hop-limit ICMPv6 echo per target.
	Module ProbeModule
	// Failure selects how the scan responds to transport errors; nil
	// means AbortAll, the historical first-error-cancels-everything
	// semantics. See FailurePolicy.
	Failure FailurePolicy
	// Progress, when non-nil, tracks per-worker high-water marks the
	// caller can snapshot into a Checkpoint at any moment (the SIGINT
	// path). A QuarantineWorker scan allocates one internally when nil,
	// so its PartialError always carries a resumable remainder.
	Progress *Progress
	// Resume, when non-nil, skips the stream positions a previous run
	// of the same scan already covered; it is validated against this
	// configuration at scan start. The caller must supply the same
	// target source — the checkpoint cannot record it.
	Resume *Checkpoint
}

func (c *Config) fill() {
	if c.HopLimit == 0 {
		c.HopLimit = 64
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Module == nil {
		c.Module = EchoModule{}
	}
	if c.Batch < 1 {
		c.Batch = 1
	}
	c.Workers = c.NumWorkers()
}

// NumWorkers resolves the effective worker count: Workers when
// positive, GOMAXPROCS otherwise. fill() delegates here so the engine
// and callers sizing worker-indexed state always agree.
func (c Config) NumWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// multiplier resolves the module's per-target position count (>= 1).
func (c Config) multiplier() uint64 {
	if c.Module == nil {
		return 1
	}
	if m := c.Module.Multiplier(); m > 1 {
		return uint64(m)
	}
	return 1
}

// Stats summarizes a completed scan.
type Stats struct {
	Sent     uint64 // probes transmitted
	Received uint64 // packets seen by the receiver
	Matched  uint64 // packets that validated and produced a Result
	Invalid  uint64 // packets that failed parsing or validation
	// SendTime is the wall-clock duration of the send phase — workers
	// launched until the last sender finished, cooldown excluded. Sent
	// over SendTime is the scan's true probe rate, free of the cooldown
	// timer's multi-millisecond slop.
	SendTime time.Duration
}

// TransportFactory builds the transport a scan worker owns for one
// scan. It is called once per worker, so each worker gets its own
// sender+receiver pair (its own socket, against a wire transport).
type TransportFactory func(worker int) (Transport, error)

// ScanWorkers runs a multi-worker scan over an indexable TargetSet,
// walked through the cyclic permutation: cfg.Workers workers, each with
// its own transport from the factory, partition this instance's shard of
// the probe-position permutation (targets × the module's multiplier).
// The union of the workers' probe sets is byte-identical to a sequential
// scan with the same seed, and each worker's probe order is a
// subsequence of the sequential order.
func ScanWorkers(ctx context.Context, factory TransportFactory, ts TargetSet, cfg Config, h Handler) (Stats, error) {
	return ScanSource(ctx, factory, NewPermutedSource(ts), cfg, h)
}

// ScanSource runs a multi-worker scan over an arbitrary TargetSource —
// the general entry point behind ScanWorkers. The source owns target
// generation (which pairs, in what order, partitioned how); the engine
// owns everything else. Sources with a known length of zero fail
// up-front; unbounded sources run until their streams end or the
// context is cancelled.
func ScanSource(ctx context.Context, factory TransportFactory, src TargetSource, cfg Config, h Handler) (Stats, error) {
	return scan(ctx, factory, src, cfg, h, nil)
}

// scan is the one entry behind every exported scan; stop, when non-nil,
// arms ScanUntil's early stop.
func scan(ctx context.Context, factory TransportFactory, src TargetSource, cfg Config, h Handler, stop *earlyStop) (Stats, error) {
	cfg.fill()
	if cfg.Shard < 0 || cfg.Shard >= cfg.Shards {
		return Stats{}, fmt.Errorf("zmap: shard %d of %d out of range", cfg.Shard, cfg.Shards)
	}
	n, known := src.Positions(&cfg)
	if known && n == 0 {
		return Stats{}, fmt.Errorf("zmap: empty target set")
	}
	if cfg.Resume != nil {
		if err := cfg.Resume.compatible(&cfg); err != nil {
			return Stats{}, err
		}
		if known {
			if err := cfg.Resume.within(n); err != nil {
				return Stats{}, err
			}
		}
	}

	// A worker hitting a transport error aborts the whole scan promptly
	// through this derived context, rather than letting the surviving
	// workers finish their sub-shards before the error surfaces.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	e := &engine{cfg: cfg, src: src, handler: h, abort: cancel, stop: stop, tally: make([]workerTally, cfg.Workers)}
	e.raw, _ = cfg.Module.(RawValidator)
	switch cfg.Failure.(type) {
	case nil, AbortAll:
		// First error cancels every worker — the historical default.
	case QuarantineWorker:
		e.quarantine = true
	default:
		return Stats{}, fmt.Errorf("zmap: unknown failure policy %T", cfg.Failure)
	}
	e.prog = cfg.Progress
	if e.prog == nil && e.quarantine {
		e.prog = NewProgress()
	}
	if e.prog != nil {
		e.prog.start(&cfg, cfg.Resume)
	}
	if h != nil && cfg.Workers > 1 && !cfg.ConcurrentHandlers {
		// Merge stage: funnel every worker's results through one lock so
		// the Handler sees serialized calls, as with a single worker.
		var mu sync.Mutex
		e.handler = func(r Result) {
			mu.Lock()
			h(r)
			mu.Unlock()
		}
	}

	trs := make([]Transport, cfg.Workers)
	for w := range trs {
		tr, err := factory(w)
		if err != nil {
			for _, open := range trs[:w] {
				open.Close()
			}
			return Stats{}, err
		}
		trs[w] = tr
	}

	var sendWG, recvWG sync.WaitGroup
	sendStart := time.Now()
	for w, tr := range trs {
		// Two sinks for the one walk. A synchronous transport answers
		// each probe inline — no receiver goroutine, queue or buffer
		// recycling on the hot path. Everything else goes through the
		// ring and a receiver: Batch > 1 wins over the Exchanger (batch
		// semantics are what the caller asked to exercise) and uses the
		// transport's own vectored calls; width 1 is always the loop
		// adapter, so each probe stays one plain Send, each reply one Recv.
		ex, _ := tr.(Exchanger)
		var bt BatchTransport
		switch {
		case cfg.Batch > 1:
			ex, bt = nil, NewBatchAdapter(tr)
		case ex == nil:
			bt = &batchAdapter{tr}
		}
		if bt != nil {
			recvWG.Add(1)
			go func() {
				defer recvWG.Done()
				e.receiveBatch(w, &e.tally[w], bt)
			}()
		}
		sendWG.Add(1)
		go func() {
			defer sendWG.Done()
			e.send(ctx, w, &e.tally[w], bt, ex)
		}()
	}
	sendWG.Wait()
	sendTime := time.Since(sendStart)

	if cfg.Cooldown > 0 && e.firstErr() == nil {
		select {
		case <-time.After(cfg.Cooldown):
		case <-ctx.Done():
		}
	}
	for _, tr := range trs {
		if err := tr.Close(); err != nil {
			e.setErr(err)
		}
	}
	recvWG.Wait()

	err := e.firstErr()
	if err == nil && len(e.qerrs) > 0 {
		// Quarantined workers but no systemic error: the results stand,
		// and the error carries exactly the remainder a resumed scan
		// must cover. (qerrs is read lock-free: every worker goroutine
		// has exited by now.)
		cp, cperr := e.prog.Checkpoint()
		if cperr != nil {
			err = cperr
		} else {
			err = &PartialError{Checkpoint: cp, WorkerErrs: e.qerrs}
		}
	}
	// Every sender and receiver has exited, whichever way the scan
	// ended, so the fold is exact.
	st := Stats{SendTime: sendTime}
	for i := range e.tally {
		t := &e.tally[i]
		st.Sent += t.sent.Load()
		st.Received += t.received.Load()
		st.Matched += t.matched.Load()
		st.Invalid += t.invalid.Load()
	}
	return st, err
}

// engine is the shared state of one scan's worker pool.
type engine struct {
	cfg     Config
	src     TargetSource
	handler Handler
	raw     RawValidator // non-nil when the module validates non-ICMPv6 responses
	abort   context.CancelFunc

	// Failure-policy state, resolved once at scan start.
	quarantine bool       // record dead workers instead of aborting
	prog       *Progress  // per-worker high-water marks; may be nil
	stop       *earlyStop // ScanUntil's lowest find; nil in every other scan

	tally []workerTally // one per worker; scan folds them into Stats

	errMu sync.Mutex
	err   error
	qerrs map[int]error // quarantined workers' terminal errors
}

// workerTally is one worker's share of Stats. The per-probe path writes
// only lines its own worker owns: the walk writes sent, the receive side
// (a separate goroutine when Batch > 1) writes the rest, so the two
// groups sit on different cache lines, and the struct spans three lines
// so neighbouring workers' tallies never share one, however the slice is
// aligned (DESIGN.md §2). The counters stay atomic so they can be read
// while the scan runs.
type workerTally struct {
	sent atomic.Uint64
	_    [56]byte
	// received, matched, invalid: written by whoever delivers replies.
	received, matched, invalid atomic.Uint64
	_                          [104]byte
}

func (e *engine) setErr(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
}

// fail records the first error and cancels the other workers.
func (e *engine) fail(err error) {
	e.setErr(err)
	e.abort()
}

func (e *engine) firstErr() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

// quarantineWorker records worker w's terminal error without aborting:
// the surviving workers finish their sub-shards, and the scan returns a
// *PartialError carrying the resumable remainder.
func (e *engine) quarantineWorker(w int, err error) {
	e.errMu.Lock()
	if e.qerrs == nil {
		e.qerrs = make(map[int]error)
	}
	e.qerrs[w] = err
	e.errMu.Unlock()
}

// send is worker w's probe walk — the only one. It walks the source's
// per-worker stream (the source owns ordering and the two-level shard
// partition), paces, and hands each probe to one of two sinks: ex, a
// synchronous transport answered inline, or bt through the worker's
// ring, flushed when full and at walk end. Exactly one of the two is
// non-nil. All probe knowledge lives in the module's Prober: the engine
// only walks streams and moves bytes.
func (e *engine) send(ctx context.Context, w int, t *workerTally, bt BatchTransport, ex Exchanger) {
	cfg := &e.cfg
	// Each worker paces at Rate/Workers, expressed as a stretched
	// interval so the aggregate rate honours the cap exactly even when
	// Rate does not divide by Workers (or is smaller than Workers).
	pc := newPacer(0)
	if cfg.Rate > 0 {
		pc = newPacerInterval(time.Second * time.Duration(cfg.Workers) / time.Duration(cfg.Rate))
	}
	prober := cfg.Module.NewProber(cfg, w)
	respBuf := make([]byte, 0, 2048)
	var ring *probeRing
	if ex == nil {
		ring = &probeRing{pkts: lanes(cfg.Batch, probeLaneSize)}
	}
	var pkt icmp6.Packet
	done := ctx.Done()
	stop := e.stop
	// Resuming: skip is this worker's high-water mark from the previous
	// run, the stream positions it had consumed. The source-layer
	// determinism contract makes position counts a sound coordinate
	// system: the resumed stream replays the same order.
	var skip uint64
	if cfg.Resume != nil {
		skip = cfg.Resume.Marks[w]
	}
	st, err := e.src.Stream(cfg, w)
	if err != nil {
		e.fail(err)
		return
	}
	poll := 0
	var consumed uint64
walk:
	for {
		target, pos, ok := st.Next()
		if !ok {
			break
		}
		if poll--; poll < 0 {
			// Cancellation is polled every 64 probes: cheap enough to
			// never matter, frequent enough to stop promptly — the only
			// stop an unbounded source gets besides stream exhaustion.
			// Probes ringed but unsent are re-probed by a resume.
			poll = 63
			select {
			case <-done:
				err = ctx.Err()
				break walk
			default:
			}
		}
		if consumed++; consumed <= skip {
			continue
		}
		ord := noOrdinal
		if stop != nil {
			// Ranks only grow along a walk, so the first one above the
			// lowest find ends it: what was sent below the find is then
			// exactly a prefix of the sequential order.
			if ord = (consumed-1)*uint64(cfg.Workers) + uint64(w); ord > stop.ord.Load() {
				consumed-- // refused, so no progress mark may claim it
				break
			}
		}
		probe := prober.MakeProbe(target, pos, 0)
		if ex == nil {
			ring.push(probe)
			if ring.full() {
				if err = e.flush(w, t, bt, ring, pc, consumed); err != nil {
					break
				}
			}
			continue
		}
		resp, ok := ex.Exchange(probe, respBuf[:0])
		t.sent.Add(1)
		if ok {
			respBuf = resp
			t.received.Add(1)
			e.deliver(w, t, &pkt, resp, ord)
		}
		// Marked only now that the probe reached the transport: a
		// checkpoint never claims unsent work (see flush).
		if e.prog != nil {
			e.prog.mark(w, consumed)
		}
		pc.wait()
	}
	if err == nil && ring != nil {
		err = e.flush(w, t, bt, ring, pc, consumed)
	}
	closeStream(st)
	switch {
	case err == nil:
	case err == ctx.Err():
		e.setErr(err)
	case e.quarantine:
		e.quarantineWorker(w, err)
	default:
		e.fail(err)
	}
}

// probeRing is a worker-private set of reusable probe buffers. Probers
// return slices aliasing their own template state, valid only until the
// next MakeProbe call, so the walk copies each probe into its ring
// lane; copying ~80 bytes is noise next to the syscall it saves. Lanes
// never shrink and are reused across every flush, so a steady send
// loop allocates nothing.
type probeRing struct {
	pkts [][]byte // one preallocated lane per batch slot; pkts[:n] are filled
	n    int
}

// probeLaneSize fits every shipped module's probe (the largest, the MLD
// general query, is 76 bytes) with slack; an outsized probe simply
// regrows its lane once.
const probeLaneSize = 512

func (r *probeRing) push(pkt []byte) {
	r.pkts[r.n] = append(r.pkts[r.n][:0], pkt...)
	r.n++
}

func (r *probeRing) full() bool { return r.n == len(r.pkts) }

// lanes carves n buffers of size bytes out of one allocation.
func lanes(n, size int) [][]byte {
	backing := make([]byte, n*size)
	out := make([][]byte, n)
	for i := range out {
		out[i] = backing[i*size : (i+1)*size : (i+1)*size]
	}
	return out
}

// flush sends the ring. Every packet the transport accepted counts as
// sent, also on the error path; the progress mark advances only when
// the whole ring went out — every consumed position up to a mark was
// either resume-skipped or handed to the transport, so a checkpoint
// never claims unsent work, and a batch that died part-way is re-probed
// whole by a resume.
func (e *engine) flush(w int, t *workerTally, bt BatchTransport, ring *probeRing, pc *pacer, consumed uint64) error {
	n := ring.n
	if n == 0 {
		return nil
	}
	ring.n = 0
	sent, err := bt.SendBatch(ring.pkts[:n])
	if err != nil && sent < n {
		t.sent.Add(uint64(sent))
		return err
	}
	t.sent.Add(uint64(n))
	if e.prog != nil {
		e.prog.mark(w, consumed)
	}
	pc.waitN(n)
	return nil
}

// receiveBatch drains worker w's transport in RecvBatch strides until
// it is closed, validating each packet and handing results to the merge
// stage.
func (e *engine) receiveBatch(w int, t *workerTally, bt BatchTransport) {
	batch := e.cfg.Batch
	// Simulated responses are bounded well under 2 KiB (the ICMPv6
	// error path quotes at most 1224 bytes), so a stride's lanes are
	// flat 2 KiB buffers; width 1 is a plain Recv and keeps the 64 KiB
	// ceiling of a datagram.
	laneSize := 2048
	if batch == 1 {
		laneSize = 64 << 10
	}
	bufs, sizes := lanes(batch, laneSize), make([]int, batch)
	var pkt icmp6.Packet
	for {
		n, err := bt.RecvBatch(bufs, sizes)
		for i := 0; i < n; i++ {
			t.received.Add(1)
			e.deliver(w, t, &pkt, bufs[i][:sizes[i]], noOrdinal)
		}
		if err != nil {
			if Transient(err) {
				continue // a stall or timeout: no packet was lost, keep draining
			}
			if err != io.EOF {
				// Transport failure: surface through stats only; the
				// sender side will also fail if it matters.
				t.invalid.Add(1)
			}
			return
		}
	}
}

// deliver parses one inbound packet (generic IPv6+ICMPv6 with checksum
// verification — most probe types' responses arrive as ICMPv6) and
// hands it to the module for validation before invoking the handler.
// Packets carrying another upper-layer protocol (a TCP RST/ACK) go to
// the module's optional RawValidator instead. ord is the eliciting
// probe's rank where the caller holds it (see earlyStop).
func (e *engine) deliver(w int, t *workerTally, pkt *icmp6.Packet, b []byte, ord uint64) {
	var res Result
	ok := false
	if err := pkt.Unmarshal(b); err == nil {
		res, ok = e.cfg.Module.Validate(&e.cfg, pkt)
	} else if err == icmp6.ErrNotICMPv6 && e.raw != nil {
		res, ok = e.raw.ValidateRaw(&e.cfg, b)
	}
	if !ok {
		t.invalid.Add(1)
		return
	}
	t.matched.Add(1)
	if e.stop != nil {
		e.offer(res, ord)
	} else if e.handler != nil {
		res.Worker = w
		e.handler(res)
	}
}

// noOrdinal is "no find yet" in earlyStop.ord, and "rank unknown" from
// the asynchronous receivers, which see replies and not the walk.
const noOrdinal = ^uint64(0)

// earlyStop is the state of a ScanUntil scan: the lowest-ranked result
// match accepted so far. A probe's rank is its position in the scan's
// sequential order — the one-worker walk of this instance's shard — so
// worker w's consumed-th position has rank (consumed-1)*Workers + w,
// whatever the worker count.
type earlyStop struct {
	match func(Result) bool
	// ord is the rank of res, noOrdinal before the first find. Every
	// walk loads it before each probe; offer alone lowers it, under mu.
	ord atomic.Uint64
	mu  sync.Mutex
	res Result
}

// offer records res as the find if it matches and ranks below the
// current one. With several matches the lowest rank wins whichever
// arrives first, so the outcome does not depend on scheduling.
func (e *engine) offer(res Result, ord uint64) {
	s := e.stop
	if !s.match(res) {
		return
	}
	if ord == noOrdinal {
		var ok bool
		if ord, ok = sequentialRank(e.src, e.cfg, res.Target); !ok {
			return // validated, yet not a target of this scan's shard
		}
	}
	s.mu.Lock()
	if ord < s.ord.Load() {
		s.res = res
		s.ord.Store(ord)
	}
	s.mu.Unlock()
}

// pacer is a simple token-bucket rate limiter over real time.
type pacer struct {
	interval time.Duration
	next     time.Time
}

func newPacer(rate int) *pacer {
	if rate <= 0 {
		return &pacer{}
	}
	return newPacerInterval(time.Second / time.Duration(rate))
}

func newPacerInterval(interval time.Duration) *pacer {
	return &pacer{interval: interval, next: time.Now()}
}

func (p *pacer) wait() { p.waitN(1) }

// waitN paces a batch of n probes: sleep until the current slot opens,
// then advance the schedule n intervals, so the aggregate rate matches
// n single waits while sleeping at most once per batch.
func (p *pacer) waitN(n int) {
	if p.interval == 0 || n <= 0 {
		return
	}
	now := time.Now()
	if p.next.After(now) {
		time.Sleep(p.next.Sub(now))
	}
	p.next = p.next.Add(time.Duration(n) * p.interval)
}
