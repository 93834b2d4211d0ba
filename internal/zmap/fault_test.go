package zmap

import (
	"context"
	"errors"
	"testing"
)

// TestFaultScheduleDeterminism pins the fault injector's cross-worker
// contract: fault decisions are keyed by (seed, packet content), so the
// same plan injects the same faults on the same probe set however it is
// split across workers — the final result set and send count are
// identical for workers 1, 2 and 4.
func TestFaultScheduleDeterminism(t *testing.T) {
	ts := testTargets(t)
	plan := FaultPlan{
		Seed:      909,
		DropProb:  0.15,
		DupProb:   0.1,
		StallProb: 0.05, // worker-local, must not affect the result set
	}
	type outcome struct {
		sent    uint64
		results []string
	}
	runs := map[int]outcome{}
	for _, workers := range []int{1, 2, 4} {
		cfg := Config{Source: vantage, Seed: 55, Workers: workers}
		rs := newResultSet()
		stats, err := ScanSource(context.Background(),
			faultFactory(func(int) FaultPlan { return plan }),
			NewPermutedSource(ts), cfg, rs.handler)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		runs[workers] = outcome{sent: stats.Sent, results: rs.keys()}
	}
	ref := runs[1]
	if ref.sent != ts.Len() {
		t.Fatalf("sent %d probes, want %d (receive faults never cost a send)", ref.sent, ts.Len())
	}
	if len(ref.results) == 0 {
		t.Fatal("no results under fault injection")
	}
	for _, workers := range []int{2, 4} {
		got := runs[workers]
		if got.sent != ref.sent {
			t.Errorf("workers=%d sent %d, workers=1 sent %d", workers, got.sent, ref.sent)
		}
		if !equalStrings(got.results, ref.results) {
			t.Errorf("workers=%d result set differs from workers=1 (%d vs %d results)",
				workers, len(got.results), len(ref.results))
		}
	}
}

// TestFaultTransportDropsAndDups exercises the recv-side faults
// directly: a plan with certain drop discards every response, a plan
// with certain dup delivers every response twice.
func TestFaultTransportDropsAndDups(t *testing.T) {
	ts := testTargets(t)
	cfg := Config{Source: vantage, Seed: 7, Workers: 1}

	ref := newResultSet()
	refStats, err := ScanSource(context.Background(),
		faultFactory(func(int) FaultPlan { return FaultPlan{} }),
		NewPermutedSource(ts), cfg, ref.handler)
	if err != nil {
		t.Fatal(err)
	}
	if refStats.Matched == 0 {
		t.Fatal("reference scan matched nothing")
	}

	drop := newResultSet()
	dropStats, err := ScanSource(context.Background(),
		faultFactory(func(int) FaultPlan { return FaultPlan{Seed: 1, DropProb: 1} }),
		NewPermutedSource(ts), cfg, drop.handler)
	if err != nil {
		t.Fatal(err)
	}
	if dropStats.Received != 0 || len(drop.m) != 0 {
		t.Fatalf("full drop still delivered %d packets", dropStats.Received)
	}

	dup := newResultSet()
	dupStats, err := ScanSource(context.Background(),
		faultFactory(func(int) FaultPlan { return FaultPlan{Seed: 1, DupProb: 1} }),
		NewPermutedSource(ts), cfg, dup.handler)
	if err != nil {
		t.Fatal(err)
	}
	if dupStats.Received != 2*refStats.Received {
		t.Fatalf("full dup delivered %d packets, want %d", dupStats.Received, 2*refStats.Received)
	}
	if !equalStrings(dup.keys(), ref.keys()) {
		t.Fatal("duplication changed the distinct result set")
	}
	for k, n := range dup.m {
		if n != 2*ref.m[k] {
			t.Fatalf("result %s delivered %d times, want %d", k, n, 2*ref.m[k])
		}
	}
}

// TestQuarantineWorkerPartialResults: a worker whose transport dies is
// quarantined, the survivors finish, and the scan returns partial
// results plus a resumable remainder instead of nothing.
func TestQuarantineWorkerPartialResults(t *testing.T) {
	ts := testTargets(t)
	base := Config{Source: vantage, Seed: 21, Workers: 2}

	ref := newResultSet()
	refStats, err := ScanSource(context.Background(),
		faultFactory(func(int) FaultPlan { return FaultPlan{} }),
		NewPermutedSource(ts), base, ref.handler)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.Failure = QuarantineWorker{}
	got := newResultSet()
	stats, err := ScanSource(context.Background(),
		faultFactory(func(w int) FaultPlan {
			if w == 1 {
				return FaultPlan{DieAfterSends: 4}
			}
			return FaultPlan{}
		}),
		NewPermutedSource(ts), cfg, got.handler)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if _, dead := pe.WorkerErrs[1]; !dead || len(pe.WorkerErrs) != 1 {
		t.Fatalf("quarantined = %v, want exactly worker 1", pe.WorkerErrs)
	}
	if errors.Is(err, ErrTransient) {
		t.Error("hard transport death classified as transient")
	}
	// The survivor finished its whole sub-shard; the dead worker stopped
	// at its 4th send.
	if stats.Sent >= refStats.Sent || stats.Sent < refStats.Sent/2 {
		t.Fatalf("partial scan sent %d of %d", stats.Sent, refStats.Sent)
	}
	cp := pe.Checkpoint
	if covered(cp) >= ts.Len() {
		t.Fatal("partial checkpoint claims completion")
	}
	if cp.Marks[1] != 4 {
		t.Fatalf("dead worker's mark = %d, want 4", cp.Marks[1])
	}
	if cp.Marks[0] != stats.Sent-4 {
		t.Fatalf("survivor's mark = %d, want finished (its %d sends)", cp.Marks[0], stats.Sent-4)
	}
	// Partial results are a subset of the reference set.
	for k := range got.m {
		if ref.m[k] == 0 {
			t.Fatalf("partial scan produced result %s the reference lacks", k)
		}
	}
}

// TestFaultTransportDeath pins the death fault's shape: non-transient,
// permanent, and only after the scheduled number of successful sends.
func TestFaultTransportDeath(t *testing.T) {
	tr := NewFaultTransport(NewLoopback(echoResponder{}, 0), FaultPlan{DieAfterSends: 2}, 0)
	probe := make([]byte, 48)
	for i := 0; i < 2; i++ {
		if err := tr.Send(probe); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		err := tr.Send(probe)
		if err == nil {
			t.Fatal("send after death succeeded")
		}
		if Transient(err) {
			t.Fatal("death classified as transient")
		}
	}
}

// TestUnknownFailurePolicyRejected guards the sealed-policy contract.
func TestUnknownFailurePolicyRejected(t *testing.T) {
	cfg := Config{Source: vantage, Failure: bogusPolicy{}}
	_, err := ScanSource(context.Background(),
		faultFactory(func(int) FaultPlan { return FaultPlan{} }),
		NewPermutedSource(testTargets(t)), cfg, nil)
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
}

type bogusPolicy struct{}

func (bogusPolicy) failurePolicy() {}
