package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"followscent/internal/campaign"
	"followscent/internal/zmap"
)

// The layer walk times each package's public API from outside, on
// inputs shaped like the workloads', in loops long enough that the
// timer's own cost stays out of the per-call figure. It runs only in
// traced runs; every loop is one span in the trace. Which end-to-end
// metric each number should move, and on which workload, is tabulated
// in README.md.

type walker struct {
	ctx  context.Context
	m    map[string]float64
	tr   *Recorder
	root int
	seed uint64
	tmp  string
	// calls is the length of a timed loop of cheap calls, sweep the
	// number of targets in a full engine sweep, reps how many times an
	// expensive single call is repeated for its median.
	calls, sweep, reps int
	tiny               bool
	// ledgerIn is what the ledger needs from the study step, measured on
	// the study iteration's own probe mix: the simulator's mean cost per
	// probe, the parse+validate cost per reply, and the share answered.
	ledgerIn struct{ handle, parse, answered float64 }
	// results caches one campaign-shaped scan's results for the steps
	// that need real results as input; mgr is the lease table under test.
	results []zmap.Result
	mgr     *campaign.Manager
}

func newWalker(ctx context.Context, env runEnv, tr *Recorder) *walker {
	w := &walker{ctx: ctx, m: map[string]float64{}, tr: tr, seed: env.seed, tmp: env.tmp,
		calls: 1 << 14, sweep: 1 << 19, reps: 3, tiny: env.tiny}
	if env.tiny {
		w.calls, w.sweep, w.reps = 64, 1<<10, 1
	}
	return w
}

// timed runs fn as one span and returns how long it took.
func (w *walker) timed(name string, fn func()) time.Duration {
	id := w.tr.Start(name, w.root, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	w.tr.End(id)
	return d
}

// perCall times n calls of fn in one span and records the mean cost of
// a call under metric, in the unit the metric's suffix names.
func (w *walker) perCall(metric string, n int, fn func(i int)) {
	d := w.timed(metric, func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	})
	w.m[metric] = inUnit(metric, d) / float64(n)
}

// median runs fn w.reps times, each in its own span, and records the
// median duration under metric.
func (w *walker) median(metric string, fn func()) {
	vals := make([]float64, w.reps)
	for i := range vals {
		vals[i] = inUnit(metric, w.timed(metric, fn))
	}
	w.m[metric] = median(vals)
}

// inUnit converts d to the unit declared for metric in the manifest
// tables.
func inUnit(metric string, d time.Duration) float64 {
	for _, l := range perLayer {
		if l.Name != metric {
			continue
		}
		switch l.Unit {
		case "ns":
			return float64(d.Nanoseconds())
		case "us":
			return float64(d.Nanoseconds()) / 1e3
		case "ms":
			return float64(d.Nanoseconds()) / 1e6
		case "s":
			return d.Seconds()
		}
	}
	panic(fmt.Sprintf("layer walk: %q is not a timed per-layer metric", metric))
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runLayerWalk measures every per-layer metric except
// trace.overhead_ratio, which needs a workload's two phases.
func runLayerWalk(ctx context.Context, env runEnv, tr *Recorder) (map[string]float64, error) {
	w := newWalker(ctx, env, tr)
	w.root = tr.Start("layerwalk", 0, 0)
	defer tr.End(w.root)
	for _, step := range []func() error{
		w.packets, w.engine, w.sockets, w.study, w.corpus, w.tracking,
		w.store, w.frames, w.leases, w.experiments,
	} {
		if err := step(); err != nil {
			return nil, fmt.Errorf("layer walk: %w", err)
		}
	}
	w.ledger()
	return w.m, nil
}
