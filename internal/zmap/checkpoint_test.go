package zmap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"followscent/internal/icmp6"
	"followscent/internal/ip6"
)

// echoResponder answers echo requests purely as a function of the probe
// bytes: three of every four targets reply from the probed address, one
// stays silent. Statelessness is the point — resume-equivalence and
// fault-determinism tests need responses that do not depend on probe
// arrival order or on any world-side token state.
type echoResponder struct{}

func (echoResponder) HandlePacket(req, buf []byte) ([]byte, bool) {
	var pkt icmp6.Packet
	if err := pkt.Unmarshal(req); err != nil {
		return buf, false
	}
	id, seq, ok := pkt.Message.Echo()
	if !ok {
		return buf, false
	}
	if hashWord(hashSeed, pkt.Header.Dst.IID())%4 == 0 {
		return buf, false
	}
	return icmp6.AppendEchoReply(buf, pkt.Header.Dst, pkt.Header.Src, id, seq, nil), true
}

// resultSet collects handler results keyed by everything except the
// worker index, which is scheduling-dependent by design.
type resultSet struct {
	mu sync.Mutex
	m  map[string]int
}

func newResultSet() *resultSet { return &resultSet{m: map[string]int{}} }

func (s *resultSet) handler(r Result) {
	s.mu.Lock()
	s.m[fmt.Sprintf("%s|%s|%d|%d|%d", r.Target, r.From, r.Type, r.Code, r.Seq)]++
	s.mu.Unlock()
}

// keys returns the distinct results, sorted.
func (s *resultSet) keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (s *resultSet) merge(o *resultSet) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for k, n := range o.m {
		s.m[k] += n
	}
}

// faultFactory builds per-worker FaultTransports over per-worker
// loopbacks on a stateless responder; planFor picks each worker's plan.
func faultFactory(planFor func(w int) FaultPlan) TransportFactory {
	return func(w int) (Transport, error) {
		return NewFaultTransport(NewLoopback(echoResponder{}, 0), planFor(w), w), nil
	}
}

// TestCheckpointResumeEquivalence is the core resume invariant: a scan
// whose workers die mid-flight (fault-injected transport death under
// QuarantineWorker) and is then resumed from its checkpoint produces
// exactly the uninterrupted scan's result set — no result missing, none
// probed twice — for workers 1, 2 and 4.
func TestCheckpointResumeEquivalence(t *testing.T) {
	ts := testTargets(t)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := Config{Source: vantage, Seed: 77, Workers: workers}

			ref := newResultSet()
			refStats, err := ScanSource(context.Background(),
				faultFactory(func(int) FaultPlan { return FaultPlan{} }),
				NewPermutedSource(ts), cfg, ref.handler)
			if err != nil {
				t.Fatal(err)
			}

			// Interrupted run: worker 0's transport dies after 5 sends.
			icfg := cfg
			icfg.Failure = QuarantineWorker{}
			part := newResultSet()
			partStats, err := ScanSource(context.Background(),
				faultFactory(func(w int) FaultPlan {
					if w == 0 {
						return FaultPlan{DieAfterSends: 5}
					}
					return FaultPlan{}
				}),
				NewPermutedSource(ts), icfg, part.handler)
			var pe *PartialError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *PartialError", err)
			}
			if _, dead := pe.WorkerErrs[0]; !dead || len(pe.WorkerErrs) != 1 {
				t.Fatalf("quarantined workers = %v, want exactly worker 0", pe.WorkerErrs)
			}
			if covered(pe.Checkpoint) >= ts.Len() {
				t.Fatal("partial scan's checkpoint claims completion")
			}

			// Round-trip the checkpoint through its serialized form, as
			// the CLI does.
			var buf bytes.Buffer
			if err := WriteCheckpoint(&buf, pe.Checkpoint); err != nil {
				t.Fatal(err)
			}
			cp, err := ReadCheckpoint(&buf)
			if err != nil {
				t.Fatal(err)
			}

			// Resumed run: healthy transports, same scan + checkpoint.
			rcfg := cfg
			rcfg.Resume = cp
			rest := newResultSet()
			restStats, err := ScanSource(context.Background(),
				faultFactory(func(int) FaultPlan { return FaultPlan{} }),
				NewPermutedSource(ts), rcfg, rest.handler)
			if err != nil {
				t.Fatal(err)
			}

			if got := partStats.Sent + restStats.Sent; got != refStats.Sent {
				t.Fatalf("interrupted %d + resumed %d = %d sends, want %d: checkpoint marks are not exact",
					partStats.Sent, restStats.Sent, got, refStats.Sent)
			}
			union := newResultSet()
			union.merge(part)
			union.merge(rest)
			if gu, gr := union.keys(), ref.keys(); !equalStrings(gu, gr) {
				t.Fatalf("interrupted+resumed results differ from uninterrupted:\n got %d results\nwant %d results",
					len(gu), len(gr))
			}
			for k, n := range union.m {
				if n != ref.m[k] {
					t.Fatalf("result %s seen %d times across interrupted+resumed, want %d", k, n, ref.m[k])
				}
			}
		})
	}
}

// TestCheckpointCancelResume covers the SIGINT shape: an external
// context cancellation stops the scan at an arbitrary point, the
// attached Progress is snapshotted, and the resumed scan completes the
// exact remainder — wherever the workers happened to stop.
func TestCheckpointCancelResume(t *testing.T) {
	ts := testTargets(t)
	cfg := Config{Source: vantage, Seed: 31, Workers: 2}

	ref := newResultSet()
	refStats, err := ScanSource(context.Background(),
		faultFactory(func(int) FaultPlan { return FaultPlan{} }),
		NewPermutedSource(ts), cfg, ref.handler)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel after the 20th result; workers stop at their next poll.
	// The interrupted run is paced so the scan is still mid-flight when
	// the cancellation lands (pacing changes timing, never the probe
	// space, so the send-count equation below still holds).
	prog := NewProgress()
	icfg := cfg
	icfg.Progress = prog
	icfg.Rate = 1500
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	part := newResultSet()
	var seen int
	partStats, err := ScanSource(ctx,
		faultFactory(func(int) FaultPlan { return FaultPlan{} }),
		NewPermutedSource(ts), icfg, func(r Result) {
			part.handler(r)
			if seen++; seen == 20 {
				cancel()
			}
		})
	if err == nil {
		t.Fatal("cancelled scan returned no error")
	}
	cp, err := prog.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.Resume = cp
	rest := newResultSet()
	restStats, err := ScanSource(context.Background(),
		faultFactory(func(int) FaultPlan { return FaultPlan{} }),
		NewPermutedSource(ts), rcfg, rest.handler)
	if err != nil {
		t.Fatal(err)
	}
	if got := partStats.Sent + restStats.Sent; got != refStats.Sent {
		t.Fatalf("interrupted %d + resumed %d = %d sends, want %d",
			partStats.Sent, restStats.Sent, got, refStats.Sent)
	}
	union := newResultSet()
	union.merge(part)
	union.merge(rest)
	if !equalStrings(union.keys(), ref.keys()) {
		t.Fatal("interrupted+resumed results differ from uninterrupted")
	}
}

// covered sums a checkpoint's marks: the stream positions its workers
// consumed, which equals a one-shard scan's position count exactly
// when every worker finished.
func covered(cp *Checkpoint) uint64 {
	var n uint64
	for _, m := range cp.Marks {
		n += m
	}
	return n
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCheckpointRejectsMismatchedConfig pins the compatibility gate:
// every field a checkpoint records about its scan is validated, since a
// silent mismatch would desynchronize the resumed walk.
func TestCheckpointRejectsMismatchedConfig(t *testing.T) {
	ok := Checkpoint{
		Version: checkpointVersion, Seed: 42, Shard: 0, Shards: 1,
		Workers: 2, Multiplier: 1,
		Marks: make([]uint64, 2),
	}
	base := Config{Source: vantage, Seed: 42, Workers: 2}
	run := func(cp Checkpoint, cfg Config) error {
		cp2 := cp
		cfg.Resume = &cp2
		_, err := ScanSource(context.Background(),
			faultFactory(func(int) FaultPlan { return FaultPlan{} }),
			NewPermutedSource(testTargets(t)), cfg, nil)
		return err
	}
	if err := run(ok, base); err != nil {
		t.Fatalf("matching checkpoint rejected: %v", err)
	}
	mutations := map[string]func(*Checkpoint, *Config){
		"version":    func(cp *Checkpoint, _ *Config) { cp.Version = 99 },
		"seed":       func(_ *Checkpoint, cfg *Config) { cfg.Seed = 43 },
		"shards":     func(_ *Checkpoint, cfg *Config) { cfg.Shards = 2; cfg.Shard = 0 },
		"workers":    func(_ *Checkpoint, cfg *Config) { cfg.Workers = 4 },
		"multiplier": func(cp *Checkpoint, _ *Config) { cp.Multiplier = 5 },
	}
	for name, mutate := range mutations {
		cp, cfg := ok, base
		mutate(&cp, &cfg)
		if err := run(cp, cfg); err == nil {
			t.Errorf("%s mismatch accepted", name)
		}
	}
}

// TestCheckpointRejectsOutOfRangeMarks pins the mark bound: no worker
// consumes more positions than the whole scan has, so a mark above the
// source's known position count names no position of the scan and the
// engine refuses it before any probe. A mark at the count is a finished
// worker: accepted, with nothing left to send.
func TestCheckpointRejectsOutOfRangeMarks(t *testing.T) {
	ts := testTargets(t)
	cfg := Config{Source: vantage, Seed: 42, Workers: 1}
	resume := func(mark uint64) (Stats, error) {
		rcfg := cfg
		rcfg.Resume = &Checkpoint{
			Version: checkpointVersion, Seed: 42, Shards: 1, Workers: 1,
			Multiplier: 1, Marks: []uint64{mark},
		}
		return ScanWorkers(context.Background(),
			faultFactory(func(int) FaultPlan { return FaultPlan{} }), ts, rcfg, nil)
	}
	for _, mark := range []uint64{ts.Len() + 1, 1 << 62, ^uint64(0)} {
		if st, err := resume(mark); err == nil || st.Sent != 0 {
			t.Errorf("mark %d of %d positions: resumed scan sent %d probes, err %v; want a refusal before any probe",
				mark, ts.Len(), st.Sent, err)
		}
	}
	if st, err := resume(ts.Len()); err != nil || st.Sent != 0 {
		t.Errorf("finished mark: resumed scan sent %d probes, err %v; want nothing sent", st.Sent, err)
	}
}

// FuzzReadCheckpoint feeds the checkpoint reader arbitrary bytes, seeded
// with real Progress snapshots. It must never panic; an accepted
// checkpoint must survive a write/read round trip unchanged; and one
// that is also compatible with the small scan it describes must resume
// that scan without sending more probes than the uninterrupted scan —
// or, when a mark exceeds the scan's position count, which compatible
// cannot see, be refused before any probe.
func FuzzReadCheckpoint(f *testing.F) {
	ts := make(AddrTargets, 16)
	for i := range ts {
		ts[i] = ip6.MustParseAddr(fmt.Sprintf("2001:db8:%x::1", i+1))
	}
	healthy := faultFactory(func(int) FaultPlan { return FaultPlan{} })
	for _, workers := range []int{1, 3} {
		for _, die := range []uint64{0, 4} {
			// A dying worker ends the scan with a *PartialError; the
			// snapshot it leaves in prog is what seeds the corpus.
			prog := NewProgress()
			_, _ = ScanWorkers(context.Background(), faultFactory(func(w int) FaultPlan {
				if w == 0 {
					return FaultPlan{DieAfterSends: die}
				}
				return FaultPlan{}
			}), ts, Config{
				Source: vantage, Seed: 5, Workers: workers,
				Progress: prog, Failure: QuarantineWorker{},
			}, nil)
			cp, err := prog.Checkpoint()
			if err != nil {
				f.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteCheckpoint(&buf, cp); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, cp); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCheckpoint(&buf)
		if err != nil {
			t.Fatalf("written checkpoint rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, cp) {
			t.Fatalf("round trip changed the checkpoint: %+v -> %+v", cp, back)
		}
		if cp.Workers < 1 || cp.Workers > 4 ||
			cp.Shards < 1 || cp.Shards > 4 || cp.Shard < 0 || cp.Shard >= cp.Shards {
			return // not a scan small enough to run here
		}
		cfg := Config{
			Source: vantage, Seed: cp.Seed, Shard: cp.Shard, Shards: cp.Shards,
			Workers: cp.Workers,
		}
		filled := cfg
		filled.fill()
		if cp.compatible(&filled) != nil {
			return
		}
		full, err := ScanWorkers(context.Background(), healthy, ts, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Resume = cp
		rest, err := ScanWorkers(context.Background(), healthy, ts, cfg, nil)
		if err != nil {
			if slices.Max(cp.Marks) <= ts.Len() {
				t.Fatalf("compatible checkpoint did not resume: %v", err)
			}
			if rest.Sent != 0 {
				t.Fatalf("refused resume from %+v sent %d probes", cp.Marks, rest.Sent)
			}
			return
		}
		if rest.Sent > full.Sent {
			t.Fatalf("resume from %+v sent %d probes, the uninterrupted scan %d", cp.Marks, rest.Sent, full.Sent)
		}
	})
}

func TestReadCheckpointRejectsCorrupt(t *testing.T) {
	if _, err := ReadCheckpoint(bytes.NewReader([]byte("not json"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadCheckpoint(bytes.NewReader([]byte(`{"version":99}`))); err == nil {
		t.Error("unknown version accepted")
	}
	if _, err := ReadCheckpoint(bytes.NewReader([]byte(`{"version":2,"workers":3,"marks":[]}`))); err == nil {
		t.Error("marks/workers mismatch accepted")
	}
}

// TestReadCheckpointRefusesV1: a file in the retired v1 format — whose
// marks carried an attempt pass beside the position count — is refused
// by name, not half-decoded into a v2 resume coordinate.
func TestReadCheckpointRefusesV1(t *testing.T) {
	v1 := `{
  "version": 1,
  "seed": 9,
  "shard": 0,
  "shards": 1,
  "workers": 2,
  "attempts": 1,
  "multiplier": 1,
  "marks": [
    {"attempt": 1, "done": 0},
    {"attempt": 0, "done": 3}
  ]
}
`
	cp, err := ReadCheckpoint(strings.NewReader(v1))
	if !errors.Is(err, ErrCheckpointV1) {
		t.Fatalf("v1 checkpoint: got %+v, error %v; want ErrCheckpointV1", cp, err)
	}
}

func TestProgressUnattached(t *testing.T) {
	if _, err := NewProgress().Checkpoint(); err == nil {
		t.Error("snapshot of unattached progress succeeded")
	}
}
