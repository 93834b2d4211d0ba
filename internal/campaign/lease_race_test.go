package campaign_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"followscent/internal/campaign"
)

// TestLeaseRaceRenewExpireReissue hammers one Manager from eight
// goroutines on a real clock with a tiny TTL, so renew, expiry,
// re-issue and complete genuinely interleave (run under
// -race). The invariant that must survive every interleaving: each
// shard is completed exactly once, and only by a holder the epoch
// fence still recognizes.
func TestLeaseRaceRenewExpireReissue(t *testing.T) {
	const (
		shards = 4
		ttl    = 2 * time.Millisecond
	)
	m := campaign.NewManager(shards, ttl, nil)

	// A dead node grabs every shard and vanishes: every shard must
	// lapse and be re-issued at least once before anyone can finish.
	for i := 0; i < shards; i++ {
		if _, ok := m.Grant("dead"); !ok {
			t.Fatalf("dead node could not grab shard %d", i)
		}
	}
	time.Sleep(2 * ttl)

	var completed [shards]int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("g%d", g)
			first := true
			for !m.Done() {
				l, ok := m.Grant(name)
				if !ok {
					time.Sleep(200 * time.Microsecond)
					continue
				}
				if first {
					// Everyone dawdles past the TTL on their first
					// lease, forcing expire-vs-renew-vs-reissue races.
					first = false
					time.Sleep(ttl + ttl/2)
				}
				if _, ok := m.Renew(l); !ok {
					continue // fenced out mid-dawdle
				}
				if m.Complete(l) {
					atomic.AddInt32(&completed[l.Shard], 1)
				}
			}
		}(g)
	}
	wg.Wait()

	for s := range completed {
		if n := atomic.LoadInt32(&completed[s]); n != 1 {
			t.Errorf("shard %d completed %d times, want exactly 1", s, n)
		}
	}
	if !m.Done() {
		t.Fatal("campaign not done")
	}
	if r := m.Reissues(); r < shards {
		t.Fatalf("reissues = %d, want at least %d (the dead node's lapsed shards)", r, shards)
	}
}

// TestTwoCoordinatorEpochFencing is the split-brain guard: a successor
// coordinator seeded with the predecessor's highest epoch
// (NewManagerFrom) fences out every lease the dead incarnation granted,
// while its own fresh grants proceed — and inherited epochs are not
// mistaken for prior grants (no phantom re-issue counts).
func TestTwoCoordinatorEpochFencing(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }

	m1 := campaign.NewManager(2, time.Minute, clock)
	la, ok := m1.Grant("a")
	if !ok {
		t.Fatal("coordinator 1 could not grant shard 0")
	}
	lb, ok := m1.Grant("a")
	if !ok {
		t.Fatal("coordinator 1 could not grant shard 1")
	}

	// Coordinator 1 dies mid-campaign; coordinator 2 takes over,
	// fencing above everything its predecessor could have issued.
	m2 := campaign.NewManagerFrom(2, time.Minute, clock, m1.MaxEpoch())
	if got := m2.MaxEpoch(); got != m1.MaxEpoch() {
		t.Fatalf("successor MaxEpoch = %d, want inherited %d", got, m1.MaxEpoch())
	}

	// The old incarnation's leases are dead on arrival here — even
	// though by wall clock they have not expired.
	if _, ok := m2.Renew(la); ok {
		t.Fatal("predecessor's lease renewed on the successor")
	}
	if m2.Complete(lb) {
		t.Fatal("predecessor's lease completed a shard on the successor")
	}

	// Fresh grants proceed immediately (inherited epochs are not
	// "granted" state) and carry strictly higher epochs.
	l2, ok := m2.Grant("b")
	if !ok {
		t.Fatal("successor could not grant")
	}
	if l2.Epoch <= la.Epoch || l2.Epoch != m1.MaxEpoch()+1 {
		t.Fatalf("successor epoch = %d, want %d", l2.Epoch, m1.MaxEpoch()+1)
	}
	if m2.Reissues() != 0 {
		t.Fatalf("successor counted %d phantom re-issues from inherited epochs", m2.Reissues())
	}

	// The old holder still loses against the re-granted shard, and the
	// new holder operates normally.
	if _, ok := m1.Renew(la); !ok {
		// On its own (partitioned) table the old holder may still
		// renew — that is exactly the split brain the epoch base
		// neutralizes: nothing it does reaches the successor's table.
		t.Fatal("old holder lost its lease on its own partitioned table")
	}
	if _, ok := m2.Renew(l2); !ok {
		t.Fatal("successor's holder could not renew")
	}
	if !m2.Complete(l2) {
		t.Fatal("successor's holder could not complete")
	}
}
