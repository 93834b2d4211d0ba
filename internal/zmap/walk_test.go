package zmap

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestWidthOneIsTheBatchPath: a Batch 0 scan over a non-Exchanger
// transport is the ring path at width 1, so a fault schedule — drops,
// duplicates, then a worker quarantined by transport death and the scan
// resumed — yields the same result sets, Stats.Sent and checkpoints at
// Batch 0 and 64. The death
// lands on a multiple of 64 sends so both widths reach it at a flush
// boundary; TestPartialBatchAccounting covers a death inside a batch.
func TestWidthOneIsTheBatchPath(t *testing.T) {
	ts := testTargets(t)
	plan := FaultPlan{Seed: 909, DropProb: 0.15, DupProb: 0.1}
	type outcome struct {
		faulty, partial, resumed []string
		sent                     [3]uint64
		partialCP, finalCP       *Checkpoint
	}
	run := func(batch int) outcome {
		var o outcome
		cfg := Config{Source: vantage, Seed: 55, Workers: 2, Batch: batch}
		rs := newResultSet()
		st, err := ScanSource(context.Background(), faultFactory(func(int) FaultPlan { return plan }),
			NewPermutedSource(ts), cfg, rs.handler)
		if err != nil {
			t.Fatalf("batch=%d faulty scan: %v", batch, err)
		}
		o.faulty, o.sent[0] = rs.keys(), st.Sent

		cfg.Failure = QuarantineWorker{}
		rs = newResultSet()
		st, err = ScanSource(context.Background(), faultFactory(func(w int) FaultPlan {
			p := plan
			if w == 0 {
				p.DieAfterSends = 64
			}
			return p
		}), NewPermutedSource(ts), cfg, rs.handler)
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("batch=%d: err = %v, want *PartialError", batch, err)
		}
		o.partial, o.sent[1], o.partialCP = rs.keys(), st.Sent, pe.Checkpoint

		cfg.Resume, cfg.Progress = pe.Checkpoint, NewProgress()
		rs = newResultSet()
		st, err = ScanSource(context.Background(), faultFactory(func(int) FaultPlan { return plan }),
			NewPermutedSource(ts), cfg, rs.handler)
		if err != nil {
			t.Fatalf("batch=%d resumed scan: %v", batch, err)
		}
		o.resumed, o.sent[2] = rs.keys(), st.Sent
		if o.finalCP, err = cfg.Progress.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return o
	}
	one, wide := run(0), run(64)
	if one.sent[0] != ts.Len() || one.sent[1]+one.sent[2] != ts.Len() || covered(one.finalCP) != ts.Len() {
		t.Fatalf("width 1: sent %v of %d, final checkpoint %+v", one.sent, ts.Len(), one.finalCP)
	}
	if one.partialCP.Marks[0] != 64 {
		t.Fatalf("dead worker's mark = %d, want 64", one.partialCP.Marks[0])
	}
	if one.sent != wide.sent {
		t.Errorf("Stats.Sent: width 1 %v, width 64 %v", one.sent, wide.sent)
	}
	if !equalStrings(one.faulty, wide.faulty) || !equalStrings(one.partial, wide.partial) || !equalStrings(one.resumed, wide.resumed) {
		t.Error("result sets differ between width 1 and width 64")
	}
	if !reflect.DeepEqual(one.partialCP, wide.partialCP) || !reflect.DeepEqual(one.finalCP, wide.finalCP) {
		t.Errorf("checkpoints differ: partial %+v vs %+v, final %+v vs %+v",
			one.partialCP, wide.partialCP, one.finalCP, wide.finalCP)
	}
}

// TestPartialBatchAccounting: when a transport dies inside a batch, the
// prefix it accepted is on the wire and counts in Stats.Sent, while the
// progress mark stays at the last whole batch — a resume re-probes the
// broken batch from its start.
func TestPartialBatchAccounting(t *testing.T) {
	ts := testTargets(t)
	var ft *FaultTransport
	cfg := Config{Source: vantage, Seed: 21, Workers: 1, Batch: 64, Failure: QuarantineWorker{}}
	stats, err := ScanSource(context.Background(), func(w int) (Transport, error) {
		ft = NewFaultTransport(NewLoopback(echoResponder{}, 0), FaultPlan{DieAfterSends: 75}, w)
		return ft, nil
	}, NewPermutedSource(ts), cfg, nil)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if ft.sent != 75 || stats.Sent != ft.sent {
		t.Fatalf("Stats.Sent = %d, the transport accepted %d (want 75)", stats.Sent, ft.sent)
	}
	if m := pe.Checkpoint.Marks[0]; m != 64 {
		t.Fatalf("mark = %d, want 64: the broken batch must be re-probed whole", m)
	}
}
