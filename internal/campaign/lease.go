// Package campaign runs one campaign's daily scan across several nodes
// with expiring shard leases. A Coordinator (cmd/campaignd) splits each
// day into Spec.Shards zmap-style shards and serves epoch-fenced leases
// over internal/wire; Workers (scent work) lease shards, scan them, and
// stream results back, which the coordinator merges with cross-shard
// deduplication. A node that dies mid-shard
// simply stops renewing: its lease expires and the shard is re-issued to
// a survivor, whose re-scan of the partially-covered shard is absorbed
// by the merge dedupe (TestCoordinatedCampaignNodeKill).
package campaign

import (
	"sync"
	"time"
)

// Lease is a node's time-bounded claim on one shard. The epoch
// fences stale holders zmap/etcd-style: every grant of a shard bumps
// its epoch, so a node that lost its lease cannot renew or complete
// with the old one.
type Lease struct {
	Shard  int
	Node   string
	Epoch  uint64
	Expiry time.Time
}

// Manager owns the lease table of one campaign day: grant, renew and
// complete, all epoch-fenced, under one mutex (not consensus). The
// Coordinator opens one per day and answers workers' lease requests
// from it.
type Manager struct {
	ttl time.Duration
	now func() time.Time

	mu       sync.Mutex
	shards   []shardState
	reissues int
}

type shardState struct {
	node    string
	epoch   uint64
	granted bool
	expiry  time.Time
	done    bool
}

// NewManager creates a manager for shards shards with the given lease
// TTL. now overrides the clock (tests); nil means time.Now.
func NewManager(shards int, ttl time.Duration, now func() time.Time) *Manager {
	return NewManagerFrom(shards, ttl, now, 0)
}

// NewManagerFrom creates a manager whose epochs start above epochBase:
// the first grant of any shard carries epoch epochBase+1. A coordinator
// taking over a campaign passes the highest epoch the previous
// incarnation could have issued, so every lease the old coordinator
// granted is fenced out of the new one — the two-coordinator
// split-brain guard (TestTwoCoordinatorEpochFencing).
func NewManagerFrom(shards int, ttl time.Duration, now func() time.Time, epochBase uint64) *Manager {
	if now == nil {
		now = time.Now
	}
	m := &Manager{ttl: ttl, now: now, shards: make([]shardState, shards)}
	for i := range m.shards {
		m.shards[i].epoch = epochBase
	}
	return m
}

// Shards returns the campaign's shard count.
func (m *Manager) Shards() int { return len(m.shards) }

// TTL returns the lease duration.
func (m *Manager) TTL() time.Duration { return m.ttl }

// Grant leases the lowest-numbered available shard — never granted,
// or granted but expired un-completed — to node. It returns false when
// every remaining shard is done or validly leased.
func (m *Manager) Grant(node string) (Lease, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	for i := range m.shards {
		s := &m.shards[i]
		if s.done || (s.granted && s.expiry.After(now)) {
			continue
		}
		if s.granted {
			// A previous holder let this shard lapse: re-issue.
			m.reissues++
		}
		s.granted = true
		s.epoch++
		s.node = node
		s.expiry = now.Add(m.ttl)
		return Lease{Shard: i, Node: node, Epoch: s.epoch, Expiry: s.expiry}, true
	}
	return Lease{}, false
}

// Renew extends l by one TTL. It fails if the shard was re-issued
// (epoch fence) or completed — the holder must then stop scanning it.
func (m *Manager) Renew(l Lease) (Lease, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &m.shards[l.Shard]
	if s.done || s.epoch != l.Epoch || s.node != l.Node {
		return Lease{}, false
	}
	s.expiry = m.now().Add(m.ttl)
	l.Expiry = s.expiry
	return l, true
}

// Complete marks l's shard done. It fails behind the same epoch fence
// as Renew: a holder that lost its lease cannot complete the shard,
// since the new holder may still be mid-scan.
func (m *Manager) Complete(l Lease) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &m.shards[l.Shard]
	if s.done || s.epoch != l.Epoch || s.node != l.Node {
		return false
	}
	s.done = true
	return true
}

// Done reports whether every shard has been completed.
func (m *Manager) Done() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.shards {
		if !m.shards[i].done {
			return false
		}
	}
	return true
}

// Reissues counts shards that were granted again after a previous
// holder's lease lapsed — the campaign's node-loss indicator.
func (m *Manager) Reissues() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reissues
}

// MaxEpoch returns the highest epoch issued (or inherited via
// NewManagerFrom) across all shards — the epochBase a successor
// coordinator must start above.
func (m *Manager) MaxEpoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var max uint64
	for i := range m.shards {
		if e := m.shards[i].epoch; e > max {
			max = e
		}
	}
	return max
}
