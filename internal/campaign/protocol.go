package campaign

import (
	"fmt"
	"time"

	"followscent/internal/ip6"
	"followscent/internal/zmap"
)

// Wire protocol of the distributed coordinator: internal/wire framing
// (4-byte big-endian length + one JSON object, one response per
// request, in order per connection) carrying the five campaign ops.
// The lease table semantics are exactly the in-process Manager's —
// epoch-fenced grant/renew/complete — lifted onto the wire, plus
// result streaming and checkpoint deposit.
//
//	lease      → ask for a shard of the current day (grants carry the
//	             campaign Spec and any deposited checkpoint)
//	renew      → extend a held lease (heartbeat)
//	result     → stream a batch of scan results for a held lease
//	             (also extends it — a streaming worker is alive)
//	checkpoint → deposit the resumable remainder of a partially
//	             scanned shard, optionally releasing the lease so the
//	             remainder re-issues immediately
//	done       → complete a shard

// Lease-response statuses (Response.Status).
const (
	// StatusGranted: a shard lease was granted.
	StatusGranted = "granted"
	// StatusWait: no shard free right now — poll again.
	StatusWait = "wait"
	// StatusDone: the campaign is finished — disconnect.
	StatusDone = "done"
	// StatusOK: renew/result/checkpoint/done accepted.
	StatusOK = "ok"
	// StatusLost: the lease is fenced out (expired and re-issued, shard
	// completed, or day finalized) — stop scanning that shard.
	StatusLost = "lost"
)

// Request is one worker→coordinator message.
type Request struct {
	// Op is one of lease, renew, result, checkpoint, done.
	Op string `json:"op"`
	// Node names the requesting worker (lease fencing identity).
	Node string `json:"node"`
	// Day + Shard + Epoch identify the held lease for every op except
	// lease itself.
	Day   int    `json:"day,omitempty"`
	Shard int    `json:"shard,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
	// Results is op=result's batch.
	Results []WireResult `json:"results,omitempty"`
	// Checkpoint is op=checkpoint's resumable remainder.
	Checkpoint *zmap.Checkpoint `json:"checkpoint,omitempty"`
	// Release, on op=checkpoint, relinquishes the lease immediately
	// (deposit-and-release) instead of letting it run out its TTL.
	Release bool `json:"release,omitempty"`
}

// Response is one coordinator→worker answer.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Status is one of the Status* constants above.
	Status string `json:"status,omitempty"`
	// Day + Shard + Epoch describe a granted lease.
	Day   int    `json:"day,omitempty"`
	Shard int    `json:"shard,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
	// Spec rides along with every grant so a worker needs no
	// out-of-band campaign configuration.
	Spec *Spec `json:"spec,omitempty"`
	// Checkpoint, on a grant, is a previous holder's deposited
	// remainder — resume from it (after validating compatibility)
	// instead of re-scanning the whole shard.
	Checkpoint *zmap.Checkpoint `json:"checkpoint,omitempty"`
}

// Spec is the campaign's shared contract: everything a worker needs to
// reproduce the exact probe stream of the single-node core.Campaign.
// All nodes must scan the same target set with the same effective seed
// and shard count or the byte-equality guarantee is void, so the
// coordinator is the single source of truth and workers take the whole
// Spec from their first lease grant.
type Spec struct {
	// Prefixes are the rotating /48s (or sub-pools) to probe, CIDR.
	Prefixes []string `json:"prefixes"`
	// SubBits is the probed granularity (default 64: one address per
	// /64, the §5 campaign shape).
	SubBits int `json:"sub_bits,omitempty"`
	// Source is the vantage address probes claim to come from.
	Source string `json:"source"`
	// Seed is the scanner's base Config.Seed; workers derive the
	// effective per-pass seed as zmap.ScanSeed(Seed, Salt), exactly as
	// Scanner.Scan would.
	Seed uint64 `json:"seed"`
	// Salt pins target IIDs and scan order across days (the campaign
	// contract: identical addresses, identical order, every day).
	Salt uint64 `json:"salt"`
	// Days is the campaign length.
	Days int `json:"days"`
	// Shards is the lease-table width: the permutation is split into
	// this many zmap-style shards, leased one per worker at a time.
	Shards int `json:"shards"`
	// TTLMS is the lease TTL in milliseconds; workers renew at a third
	// of it.
	TTLMS int64 `json:"ttl_ms,omitempty"`
}

// TTL returns the lease TTL carried by the spec.
func (s *Spec) TTL() time.Duration { return time.Duration(s.TTLMS) * time.Millisecond }

// Build validates the spec and materializes the shared target set plus
// the base scan configuration every node must agree on. Node-local
// knobs (Workers, Rate, Cooldown, Batch, Failure) are left zero for
// the caller to fill — none of them may change the probed set.
func (s *Spec) Build() (*zmap.SubnetTargets, zmap.Config, error) {
	var cfg zmap.Config
	switch {
	case s.Days <= 0:
		return nil, cfg, fmt.Errorf("campaign: spec needs Days > 0")
	case s.Shards <= 0:
		return nil, cfg, fmt.Errorf("campaign: spec needs Shards > 0")
	case len(s.Prefixes) == 0:
		return nil, cfg, fmt.Errorf("campaign: spec needs prefixes")
	}
	src, err := ip6.ParseAddr(s.Source)
	if err != nil {
		return nil, cfg, fmt.Errorf("campaign: spec source: %w", err)
	}
	pfx := make([]ip6.Prefix, len(s.Prefixes))
	for i, p := range s.Prefixes {
		if pfx[i], err = ip6.ParsePrefix(p); err != nil {
			return nil, cfg, fmt.Errorf("campaign: spec prefix %q: %w", p, err)
		}
	}
	subBits := s.SubBits
	if subBits == 0 {
		subBits = 64
	}
	ts, err := zmap.NewSubnetTargets(pfx, subBits, s.Salt)
	if err != nil {
		return nil, cfg, err
	}
	cfg = zmap.Config{
		Source: src,
		Seed:   zmap.ScanSeed(s.Seed, s.Salt),
		Shards: s.Shards,
	}
	return ts, cfg, nil
}

// WireResult is one scan result on the wire. The worker index is
// deliberately absent: it is scheduling-dependent (and the Merger
// zeroes it anyway) — shipping it would leak nondeterminism into a
// protocol whose whole point is byte-identical merges.
type WireResult struct {
	Target string `json:"t"`
	From   string `json:"f"`
	Type   uint8  `json:"y"`
	Code   uint8  `json:"c,omitempty"`
	Seq    uint16 `json:"s,omitempty"`
}

// ToWire converts an engine result for transmission.
func ToWire(r zmap.Result) WireResult {
	return WireResult{
		Target: r.Target.String(),
		From:   r.From.String(),
		Type:   r.Type,
		Code:   r.Code,
		Seq:    r.Seq,
	}
}

// Result converts back to the engine form (Worker zero).
func (w WireResult) Result() (zmap.Result, error) {
	target, err := ip6.ParseAddr(w.Target)
	if err != nil {
		return zmap.Result{}, fmt.Errorf("campaign: result target: %w", err)
	}
	from, err := ip6.ParseAddr(w.From)
	if err != nil {
		return zmap.Result{}, fmt.Errorf("campaign: result from: %w", err)
	}
	return zmap.Result{Target: target, From: from, Type: w.Type, Code: w.Code, Seq: w.Seq}, nil
}
