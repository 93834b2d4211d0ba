package campaign_test

import (
	"testing"
	"time"

	"followscent/internal/campaign"
	"followscent/internal/ip6"
	"followscent/internal/zmap"
)

var vantage = ip6.MustParseAddr("2001:db8:ffff::53")

// TestLeaseExpiryReissue drives the lease lifecycle on a fake clock:
// grant, renew-extends, expiry, epoch-fenced re-issue, and stale
// holders locked out of renew and complete.
func TestLeaseExpiryReissue(t *testing.T) {
	now := time.Unix(1000, 0)
	m := campaign.NewManager(2, time.Minute, func() time.Time { return now })

	l0, ok := m.Grant("a")
	if !ok || l0.Shard != 0 || l0.Epoch != 1 {
		t.Fatalf("first grant = %+v, %v", l0, ok)
	}
	l1, ok := m.Grant("a")
	if !ok || l1.Shard != 1 {
		t.Fatalf("second grant = %+v, %v", l1, ok)
	}
	if _, ok := m.Grant("b"); ok {
		t.Fatal("grant succeeded with every shard leased")
	}

	// Renewing shard 0 at t+30s extends it to t+90s.
	now = now.Add(30 * time.Second)
	r0, ok := m.Renew(l0)
	if !ok || !r0.Expiry.Equal(now.Add(time.Minute)) {
		t.Fatalf("renew = %+v, %v", r0, ok)
	}

	// At t+75s shard 1's lease (expiry t+60s) has lapsed, shard 0's
	// renewed lease (t+90s) has not.
	now = now.Add(45 * time.Second)
	lb, ok := m.Grant("b")
	if !ok || lb.Shard != 1 || lb.Epoch != 2 {
		t.Fatalf("re-issue = %+v, %v", lb, ok)
	}
	if m.Reissues() != 1 {
		t.Fatalf("reissues = %d, want 1", m.Reissues())
	}

	// The original holder is fenced out of its lapsed lease.
	if _, ok := m.Renew(l1); ok {
		t.Fatal("stale lease renewed")
	}
	if m.Complete(l1) {
		t.Fatal("stale lease completed its shard")
	}

	if !m.Complete(lb) || !m.Complete(r0) {
		t.Fatal("valid holders could not complete")
	}
	if !m.Done() {
		t.Fatal("campaign not done after all shards completed")
	}
	if _, ok := m.Grant("c"); ok {
		t.Fatal("grant succeeded on a finished campaign")
	}
}

func TestMergerDedupes(t *testing.T) {
	g := campaign.NewMerger()
	r := zmap.Result{Target: vantage, From: vantage, Type: 129, Seq: 7}
	g.Add(r)
	r.Worker = 3 // worker index must not defeat the dedupe
	g.Add(r)
	other := r
	other.Seq = 8
	g.Add(other)
	if got := g.Results(); len(got) != 2 {
		t.Fatalf("distinct results = %d, want 2", len(got))
	}
	if g.Dupes() != 1 {
		t.Fatalf("dupes = %d, want 1", g.Dupes())
	}
}
