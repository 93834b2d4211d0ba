package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"followscent/internal/zmap"
)

// runEnv is what every workload's set-up receives.
type runEnv struct {
	seed uint64
	// dur is how long the measured phase will run, for workloads that
	// must size an input to outlast it.
	dur time.Duration
	// tmp is a directory for journals and stores, inside the checkout.
	tmp string
	// tiny selects the smoke-test sizes: every code path, a fraction of
	// the work, no timing meaning.
	tiny bool
	// corrupt deliberately damages one expected result during set-up, so
	// the correctness gate can be shown to trip.
	corrupt bool
}

// phase is what one measured phase of a workload produced.
type phase struct {
	wall time.Duration
	cpu  time.Duration
	// ops holds one latency per completed operation; aux one per
	// auxiliary operation (workload.op, workload.aux).
	ops []time.Duration
	aux []time.Duration
	// work counts probes sent (scanning workloads) or observations
	// committed (serve-ingest).
	work uint64
	// attempted/failed are the correctness gate's tallies.
	attempted, failed int
	// notes carries workload-specific extras for the result file.
	notes map[string]float64
}

func (p *phase) check(ok bool) {
	p.attempted++
	if !ok {
		p.failed++
	}
}

// instance is one set-up of a workload, ready to be measured.
type instance interface {
	// run drives the workload for about the given duration (it stops at
	// the first operation boundary past it). tr is nil with tracing off.
	run(ctx context.Context, d time.Duration, tr *Recorder) (*phase, error)
	close() error
	// sizes describes the inputs, for the result file.
	sizes() map[string]any
}

// workload binds a name to its set-up, to what the shared end-to-end
// metric names measure on it, and to the percentile its tail metric
// reports — the highest one that has at least ten samples beyond it at
// the committed size, fixed here so a run is never compared to a run of
// a different percentile.
type workload struct {
	name  string
	tail  float64
	setup func(env runEnv) (instance, error)
	// op, aux and work say what an operation, an auxiliary operation and
	// a unit of work are here.
	op, aux, work string
	// issue lists the names ISSUE 11 gave this workload's numbers, each
	// a shared metric times a unit conversion; the run prints them
	// beside the shared names so a later issue can quote either.
	issue []alias
}

type alias struct {
	name, unit, from string
	scale            float64
}

var workloads = []workload{
	{
		name: "study-loopback", tail: 0.5, setup: setupStudy,
		op:    "one discovery + campaign + Table 1 iteration",
		aux:   "the RunDiscovery part of it",
		work:  "probes",
		issue: []alias{{"study_p50_s", "s", "op_p50_us", 1e-6}, {"probes_per_s", "1/s", "work_per_s", 1}},
	},
	{
		name: "campaign-wire", tail: 0.5, setup: setupCampaignWire,
		op:    "one campaign day, first shard leased to day committed",
		aux:   "the day's scentd.Store commit",
		work:  "probes",
		issue: []alias{{"day_p50_s", "s", "op_p50_us", 1e-6}, {"probes_per_s", "1/s", "work_per_s", 1}},
	},
	{
		name: "track-loopback", tail: 0.99, setup: setupTrack,
		op:   "one Tracker.Step",
		aux:  "a step on the 16-block `short` pools: per-scan set-up",
		work: "probes",
		issue: []alias{{"track_steps_per_s", "1/s", "ops_per_s", 1}, {"track_step_p50_us", "us", "op_p50_us", 1},
			{"track_step_p99_us", "us", "op_tail_us", 1}, {"probes_per_s", "1/s", "work_per_s", 1}},
	},
	{
		name: "serve-ingest", tail: 0.99, setup: setupServe,
		op:   "one query round trip",
		aux:  "one day commit, from when it was due",
		work: "observations committed",
		issue: []alias{{"queries_per_s", "1/s", "ops_per_s", 1}, {"query_p50_us", "us", "op_p50_us", 1},
			{"query_p99_us", "us", "op_tail_us", 1}, {"commit_p50_ms", "ms", "aux_p50_us", 1e-3}},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics derives the shared end-to-end metrics from a phase.
func endToEndMetrics(w workload, p *phase, setupS float64) map[string]float64 {
	ops, aux := micros(p.ops), micros(p.aux)
	sort.Float64s(ops)
	sort.Float64s(aux)
	n := float64(len(ops))
	return map[string]float64{
		"op_p50_us":     quantile(ops, 0.5),
		"op_tail_us":    quantile(ops, w.tail),
		"ops_per_s":     n / p.wall.Seconds(),
		"aux_p50_us":    quantile(aux, 0.5),
		"work_per_s":    float64(p.work) / p.wall.Seconds(),
		"cpu_us_per_op": float64(p.cpu.Microseconds()) / n,
		"peak_rss_mb":   peakRSSMB(),
		"setup_s":       setupS,
	}
}

// measure times fn as one phase: wall and CPU around it.
func measure(fn func(p *phase) error) (*phase, error) {
	p := &phase{notes: map[string]float64{}}
	cpu0, t0 := cpuTime(), time.Now()
	err := fn(p)
	p.wall, p.cpu = time.Since(t0), cpuTime()-cpu0
	return p, err
}

// --- digests the correctness gates compare ---

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// resultSet is an order-independent digest of a scan's result set, so
// runs that deliver results in different orders (workers, shards,
// nodes) compare equal exactly when the sets are.
type resultSet struct {
	n   int
	sum uint64
}

func (s *resultSet) add(r zmap.Result) {
	h := mix64(uint64(r.Type)<<24 | uint64(r.Code)<<16 | uint64(r.Seq))
	for _, word := range [...]uint64{r.Target.High64(), r.Target.IID(), r.From.High64(), r.From.IID()} {
		h = mix64(h ^ word)
	}
	s.n++
	s.sum += h
}

// --- tracing interposer ---

// tracedLoopback stands between Loopback transports and the world: the
// one place the harness can see every probe of an in-process scan from
// outside. Traced runs install it (untraced runs hand the world to the
// Loopback directly, so the measured hot path is the program's own).
// Every transport gets its own responder, so counting adds no sharing
// between scan workers; each counts its HandlePacket calls and times
// one in 64.
type tracedLoopback struct {
	world zmap.Responder

	mu  sync.Mutex
	all []*countingResponder
}

type countingResponder struct {
	inner                 zmap.Responder
	calls, sampled, nanos atomic.Int64
}

func (c *countingResponder) HandlePacket(req, buf []byte) ([]byte, bool) {
	if c.calls.Add(1)&63 != 0 {
		return c.inner.HandlePacket(req, buf)
	}
	t := time.Now()
	out, ok := c.inner.HandlePacket(req, buf)
	c.nanos.Add(time.Since(t).Nanoseconds())
	c.sampled.Add(1)
	return out, ok
}

// newTransport is a zmap.Scanner.NewTransport.
func (t *tracedLoopback) newTransport() (zmap.Transport, error) {
	c := &countingResponder{inner: t.world}
	t.mu.Lock()
	t.all = append(t.all, c)
	t.mu.Unlock()
	return zmap.NewLoopback(c, 0), nil
}

// flush moves the responders' tallies into the trace.
func (t *tracedLoopback) flush(tr *Recorder) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.all {
		tr.Count("simnet.HandlePacket.calls", c.calls.Load())
		tr.Count("simnet.HandlePacket.sampled_calls", c.sampled.Load())
		tr.Count("simnet.HandlePacket.sampled_ns", c.nanos.Load())
	}
}

// tempDir makes a fresh directory under env.tmp.
func tempDir(env runEnv, prefix string) (string, error) {
	if err := os.MkdirAll(env.tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(env.tmp, prefix+"-")
}

func journalPath(dir string) string { return filepath.Join(dir, "corpus.journal") }

func errf(workload, format string, args ...any) error {
	return fmt.Errorf("%s: %s", workload, fmt.Sprintf(format, args...))
}
