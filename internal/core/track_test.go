package core_test

import (
	"context"
	"testing"

	"followscent/internal/core"
	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

// TestTrackerStepWorkerInvariance: a tracking day's outcome — the probe
// count above all, the paper's §6 cost — is a function of the
// permutation, not of scheduling. The allocation is inferred finer than
// truth (/60 against /56 delegations), so sixteen targets elicit the
// tracked CPE each day and the workers reach them in no fixed order;
// the history must still be equal, ProbesSent included, for 1, 2 and 4
// workers.
func TestTrackerStepWorkerInvariance(t *testing.T) {
	const days = 4
	run := func(workers int) []core.TrackDay {
		w := simnet.TestWorld(44)
		pool := poolOf(t, w, 65001, 0) // /56 allocs, daily stride 3
		var target *simnet.CPE
		for i := range pool.CPEs() {
			if c := &pool.CPEs()[i]; c.Mode == simnet.ModeEUI64 && !c.Silent {
				target = c
				break
			}
		}
		tracker := &core.Tracker{
			Scanner: &zmap.Scanner{
				NewTransport: func() (zmap.Transport, error) { return zmap.NewLoopback(w, 0), nil },
				Config:       zmap.Config{Source: vantage, Seed: 0xfee1, Workers: workers},
			},
			RIB:       w.RIB(),
			AllocBits: map[uint32]int{65001: 60},
			PoolBits:  map[uint32]int{65001: 48},
		}
		st, err := core.NewTrackState(pool.WANAddrNow(target))
		if err != nil {
			t.Fatal(err)
		}
		if err := tracker.Track(context.Background(), st, days, 5, w.Clock().Advance); err != nil {
			t.Fatal(err)
		}
		return st.History
	}
	ref := run(1)
	found := 0
	for _, d := range ref {
		if d.Found {
			found++
			if d.ProbesSent == 0 || d.ProbesSent >= 4096 {
				t.Errorf("day %d: found after %d of 4096 probes", d.Day, d.ProbesSent)
			}
		}
	}
	if found < days-1 {
		t.Fatalf("found on %d/%d days", found, days)
	}
	for _, workers := range []int{2, 4} {
		got := run(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("workers=%d day %d: %+v, one worker has %+v", workers, i, got[i], ref[i])
			}
		}
	}
}
