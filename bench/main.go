// Command bench is the repository's benchmark: four workloads that
// between them exercise every layer of a probe's life, measured end to
// end with tracing off and layer by layer in a separate traced run. See
// README.md for why each workload exists and how the layer metrics map
// onto the end-to-end ones; BENCHMARK.json at the repository root is
// the contract this program is held to.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, runEnv{})) }

// options is the parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	sets     int
	out      string
	manifest string
}

// result is one run of one workload: what is printed as the last line
// (the first four fields) plus what the result file records beside it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    int                `json:"trace"`
	Box      Box                `json:"box"`
	Sizes    map[string]any     `json:"sizes"`
	Samples  *samples           `json:"samples,omitempty"`
	Notes    map[string]float64 `json:"notes,omitempty"`
}

// samples says how much an untraced run's timings rest on.
type samples struct {
	Ops int `json:"ops"`
	Aux int `json:"aux"`
	// TailReported is the percentile op_tail_us reports; TailSupported
	// the highest one this run's sample count supports (0: none).
	TailReported  float64   `json:"tail_reported"`
	TailSupported float64   `json:"tail_supported"`
	SetupsS       []float64 `json:"setups_s"`
	WallS         float64   `json:"wall_s"`
	CPUS          float64   `json:"cpu_s"`
	FailRatio     float64   `json:"fail_ratio"`
}

// lastLine is the contract's result object.
func (r *result) lastLine() string {
	b, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(b)
}

// run is the command. env carries what the command line cannot set —
// the smoke-test sizes and the deliberate corruption the tests use to
// show the correctness gate trips; main passes it empty.
func run(args []string, stdout, stderr io.Writer, env runEnv) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all four, each in a process of its own)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for cohorts, op mix, synthetic devices and scan order")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "length of the measured phase")
	fs.IntVar(&o.trace, "trace", 0, "1: the traced run (per-layer metrics, spans, tracing overhead); 0: end-to-end metrics, tracing off")
	fs.IntVar(&o.sets, "sets", 1, "run every workload this many times and fail if an end-to-end metric spreads beyond its bound")
	fs.StringVar(&o.out, "out", "", "directory for result and trace files (default bench/out)")
	fs.StringVar(&o.manifest, "manifest", "", "path to BENCHMARK.json (default: found beside bench/)")
	printManifest := fs.Bool("print-manifest", false, "print the BENCHMARK.json this harness implements and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printManifest {
		b, _ := json.MarshalIndent(harnessManifest(), "", "  ")
		fmt.Fprintln(stdout, string(b))
		return 0
	}
	if fs.NArg() > 0 || o.seconds < 1 || o.sets < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	if err := o.locate(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if err := checkManifest(o.manifest); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	todo := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		todo = []workload{w}
	}

	if o.workload == "" || o.sets > 1 {
		return runEach(o, todo, stdout, stderr)
	}

	dur := time.Duration(o.seconds) * time.Second
	if env.tiny {
		dur /= 10
	}
	box := describeBox()
	fmt.Fprintf(stdout, "box: %d cpus (GOMAXPROCS %d), %s, linux %s, %s, netbatch batched=%v, commit %s\n",
		box.NProc, box.GOMAXPROCS, box.CPUModel, box.Kernel, box.GoVersion, box.Batched, box.GitCommit)
	fmt.Fprintf(stdout, "traffic: %s\n", box.Link)

	env.seed, env.dur, env.tmp = o.seed, dur, filepath.Join(o.out, fmt.Sprintf("tmp-%d", os.Getpid()))
	defer os.RemoveAll(env.tmp)
	w, ctx := todo[0], context.Background()
	var r *result
	var err error
	name := fmt.Sprintf("result-%s.json", w.name)
	if o.trace == 1 {
		name = fmt.Sprintf("result-%s-traced.json", w.name)
		r, err = runTraced(ctx, w, env, dur, o.out, box)
	} else {
		r, err = runUntraced(ctx, w, env, dur)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	r.Seed, r.Seconds, r.Trace, r.Box = o.seed, o.seconds, o.trace, box
	report(stdout, w, r)
	if err := writeJSON(filepath.Join(o.out, name), r); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, r.lastLine())
	if !r.Correct {
		return 1
	}
	return 0
}

// runEach runs every workload in todo, o.sets times over, each run in a
// process of its own — as the driver runs them — so no run inherits
// another's heap, high-water RSS or warmed caches. With more than one
// set it then prints each end-to-end metric's values and their spread
// against the metric's bound.
func runEach(o options, todo []workload, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	sets := make([][]*result, o.sets)
	for s := range sets {
		for _, w := range todo {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(o.trace), "-out", o.out, "-manifest", o.manifest)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &out), stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				code = 1
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			r := &result{Workload: w.name}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), r); err != nil {
				fmt.Fprintf(stderr, "bench: %s printed no result\n", w.name)
				return 1
			}
			sets[s] = append(sets[s], r)
		}
	}
	if o.sets > 1 && o.trace == 0 && !reportSpread(stdout, sets) {
		code = 1
	}
	return code
}

// locate fills in the output directory and manifest path: run from the
// repository root (as BENCHMARK.json's command does) they are bench/out
// and ./BENCHMARK.json; run from bench/ they are out and
// ../BENCHMARK.json.
func (o *options) locate() error {
	inRoot := false
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		inRoot = true
	}
	if o.out == "" {
		o.out = "out"
		if inRoot {
			o.out = filepath.Join("bench", "out")
		}
	}
	if o.manifest == "" {
		o.manifest = filepath.Join("..", "BENCHMARK.json")
		if inRoot {
			o.manifest = "BENCHMARK.json"
		}
	}
	return os.MkdirAll(o.out, 0o755)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// setupCount is how many times a run sets its workload up; setup_s is
// the median, so one slow start does not read as a regression.
const setupCount = 3

// runUntraced is the end-to-end run: set up (setupCount times, keeping
// the last), measure with tracing off, check, report.
func runUntraced(ctx context.Context, w workload, env runEnv, dur time.Duration) (*result, error) {
	var inst instance
	setups := make([]float64, setupCount)
	for i := range setups {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(env); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	defer inst.close()
	p, err := inst.run(ctx, dur, nil)
	if err != nil {
		return nil, err
	}
	if len(p.ops) == 0 || len(p.aux) == 0 || p.attempted == 0 {
		return nil, errf(w.name, "the measured phase completed no operation")
	}
	r := &result{
		Correct:   p.failed == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics:   map[string]metricValue{},
		Workload:  w.name,
		Sizes:     inst.sizes(),
		Notes:     p.notes,
	}
	vals := endToEndMetrics(w, p, median(setups))
	for _, def := range endToEnd {
		r.Metrics[def.Name] = metricValue{vals[def.Name], def.Unit}
	}
	supported, _ := supportedTail(len(p.ops))
	r.Samples = &samples{
		Ops:           len(p.ops),
		Aux:           len(p.aux),
		TailReported:  w.tail,
		TailSupported: supported,
		SetupsS:       setups,
		WallS:         p.wall.Seconds(),
		CPUS:          p.cpu.Seconds(),
		FailRatio:     float64(p.failed) / float64(p.attempted),
	}
	return r, nil
}

// runTraced is the traced run: the layer walk, then the workload for
// half the time with tracing off and half with it on — each on a fresh
// set-up, so the second does not inherit the first's state — whose
// ratio is the tracing overhead.
func runTraced(ctx context.Context, w workload, env runEnv, dur time.Duration, out string, box Box) (*result, error) {
	rec := NewRecorder()
	walk, err := runLayerWalk(ctx, env, rec)
	if err != nil {
		return nil, err
	}
	var phases [2]*phase
	var sizes map[string]any
	for i, tr := range []*Recorder{nil, rec} {
		inst, err := w.setup(env)
		if err != nil {
			return nil, err
		}
		phases[i], err = inst.run(ctx, dur/2, tr)
		sizes = inst.sizes()
		if cerr := inst.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if len(phases[i].ops) == 0 {
			return nil, errf(w.name, "the measured phase completed no operation")
		}
	}
	perOp := func(p *phase) float64 { return p.wall.Seconds() / float64(len(p.ops)) }
	r := &result{
		Attempted: phases[0].attempted + phases[1].attempted,
		Failed:    phases[0].failed + phases[1].failed,
		Metrics:   map[string]metricValue{},
		Workload:  w.name,
		Sizes:     sizes,
		Notes:     phases[1].notes,
	}
	r.Correct = r.Failed == 0
	for _, def := range perLayer {
		v, ok := walk[def.Name]
		if def.Name == "trace.overhead_ratio" {
			v, ok = perOp(phases[1])/perOp(phases[0]), true
		}
		if !ok {
			return nil, fmt.Errorf("layer walk did not produce %s", def.Name)
		}
		r.Metrics[def.Name] = metricValue{v, def.Unit}
	}
	if err := rec.WriteFile(filepath.Join(out, fmt.Sprintf("trace-%s.json", w.name)), w.name, box); err != nil {
		return nil, err
	}
	return r, nil
}

// report prints every metric of r by name, with its unit.
func report(out io.Writer, w workload, r *result) {
	fmt.Fprintf(out, "\n%s  seed %d  trace %d  %d s measured\n", w.name, r.Seed, r.Trace, r.Seconds)
	if r.Trace == 0 {
		fmt.Fprintf(out, "  op   = %s\n  aux  = %s\n  work = %s\n", w.op, w.aux, w.work)
		for _, def := range endToEnd {
			fmt.Fprintf(out, "  %-16s %14.4f %-4s (%s is better, bound %.0f%%)\n", def.Name, r.Metrics[def.Name].Value, def.Unit, def.Better, def.Bound*100)
		}
		for _, a := range w.issue {
			fmt.Fprintf(out, "  %-16s %14.4f %-4s (= %s)\n", a.name, r.Metrics[a.from].Value*a.scale, a.unit, a.from)
		}
		s := r.Samples
		supports := "no percentile has ten samples beyond it, so the tail repeats the median"
		if s.TailSupported > 0 {
			supports = fmt.Sprintf("the sample supports up to p%g", 100*s.TailSupported)
		}
		fmt.Fprintf(out, "  samples: %d ops, %d aux; op_tail_us is p%g (%s)\n", s.Ops, s.Aux, 100*w.tail, supports)
		fmt.Fprintf(out, "  fail_ratio %.6f (%d failed of %d attempted)\n", s.FailRatio, r.Failed, r.Attempted)
	} else {
		for _, def := range perLayer {
			fmt.Fprintf(out, "  %-42s %16.4f %s\n", def.Name, r.Metrics[def.Name].Value, def.Unit)
		}
		fmt.Fprintf(out, "  ledger (study-loopback, one worker): %.1f ns/probe end to end = %.1f in the layers + %.1f residual (engine loop, goroutine hand-off, handler mutex, pipeline bookkeeping)\n",
			r.Metrics["ledger.e2e_ns_per_probe"].Value, r.Metrics["ledger.sum_layers_ns_per_probe"].Value, r.Metrics["ledger.residual_ns_per_probe"].Value)
	}
	keys := make([]string, 0, len(r.Notes))
	for k := range r.Notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  note %-24s %.4f\n", k, r.Notes[k])
	}
}

// reportSpread prints, for every workload and end-to-end metric, each
// set's value and their relative spread, and reports whether every
// spread is within the metric's bound.
func reportSpread(out io.Writer, sets [][]*result) bool {
	ok := true
	fmt.Fprintf(out, "\nrepeatability over %d sets (spread = (max-min)/mean)\n", len(sets))
	for wi := range sets[0] {
		fmt.Fprintf(out, "%s\n", sets[0][wi].Workload)
		for _, def := range endToEnd {
			vals := make([]float64, len(sets))
			for s := range sets {
				vals[s] = sets[s][wi].Metrics[def.Name].Value
			}
			spread := relSpread(vals)
			verdict := "ok"
			if spread > def.Bound {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Fprintf(out, "  %-16s %.6g %s  spread %.1f%% (bound %.0f%%) %s\n", def.Name, vals, def.Unit, spread*100, def.Bound*100, verdict)
		}
	}
	return ok
}
