package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// The smoke tests run every workload and the layer walk at tiny scale:
// no timing assertions, only that the harness still compiles against
// and drives every public API it measures, that every metric it
// promises comes out, and that the correctness gates pass — and trip.

func tinyEnv(t *testing.T) runEnv {
	return runEnv{seed: 7, tmp: t.TempDir(), tiny: true}
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// Traced: the untraced run is the same code with a nil recorder
			// and no interposer (TestCommandPrintsContractResult drives it).
			rec := NewRecorder()
			inst, err := w.setup(tinyEnv(t))
			if err != nil {
				t.Fatal(err)
			}
			p, err := inst.run(context.Background(), 100*time.Millisecond, rec)
			if cerr := inst.close(); cerr != nil {
				t.Error(cerr)
			}
			if err != nil {
				t.Fatal(err)
			}
			if p.attempted == 0 || p.failed != 0 {
				t.Errorf("attempted %d, failed %d", p.attempted, p.failed)
			}
			for name, v := range endToEndMetrics(w, p, 1) {
				if !(v > 0) {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
			if len(inst.sizes()) == 0 {
				t.Error("no sizes recorded")
			}
			if len(selfTimes(rec.spans)) == 0 {
				t.Error("the traced run recorded no spans")
			}
		})
	}
}

func TestCorruptedExpectationFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			env := tinyEnv(t)
			env.corrupt = true
			inst, err := w.setup(env)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			p, err := inst.run(context.Background(), 50*time.Millisecond, nil)
			if err != nil {
				t.Fatal(err)
			}
			if p.failed == 0 {
				t.Errorf("one expected result was corrupted, yet 0 of %d checks failed", p.attempted)
			}
		})
	}
}

func TestLayerWalkSmoke(t *testing.T) {
	rec := NewRecorder()
	m, err := runLayerWalk(context.Background(), tinyEnv(t), rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range perLayer {
		if def.Name == "trace.overhead_ratio" {
			continue // needs a workload's two phases
		}
		if _, ok := m[def.Name]; !ok {
			t.Errorf("layer walk did not produce %s", def.Name)
		}
	}
	if len(m) != len(perLayer)-1 {
		t.Errorf("layer walk produced %d metrics, the manifest lists %d", len(m), len(perLayer)-1)
	}
}

// lastJSON decodes the last line of a run's output.
func lastJSON(t *testing.T, out string) (r struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metricValue
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return r
}

func TestCommandPrintsContractResult(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "serve-ingest", "--seed", "3", "--seconds", "1", "--trace", trace,
			"-out", t.TempDir(), "-manifest", "../BENCHMARK.json"}
		if code := run(args, &stdout, &stderr, runEnv{tiny: true}); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		r := lastJSON(t, stdout.String())
		if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
			t.Errorf("trace %s: %+v", trace, r)
		}
		want := len(endToEnd)
		if trace == "1" {
			want = len(perLayer)
		}
		if len(r.Metrics) != want {
			t.Errorf("trace %s: %d metrics in the result, want %d", trace, len(r.Metrics), want)
		}
	}
}

func TestCommandExitsNonZeroOnMismatch(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "serve-ingest", "-seconds", "1", "-out", t.TempDir(), "-manifest", "../BENCHMARK.json"}
	if code := run(args, &stdout, &stderr, runEnv{tiny: true, corrupt: true}); code == 0 {
		t.Fatalf("corrupted expectation, exit 0:\n%s", stdout.String())
	}
	if r := lastJSON(t, stdout.String()); r.Correct || r.Failed == 0 {
		t.Errorf("result claims correct: %+v", r)
	}
}
