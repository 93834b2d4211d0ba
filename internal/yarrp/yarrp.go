// Package yarrp implements a yarrp-style randomized traceroute prober:
// the baseline the paper compares its zmap-based method against (§3.1).
//
// yarrp (Beverly 2016) probes the (target × TTL) space in a random order,
// reconstructing full forwarding paths without per-flow state. That is
// ideal for topology mapping but wasteful for periphery discovery: it
// spends MaxTTL probes per target and elicits Hop Limit Exceeded errors
// from every intermediate router, where the paper's method needs exactly
// one full-hop-limit probe per customer prefix and hears only from the
// CPE. The benchmark harness quantifies that gap (Figure 2's ablation).
//
// The prober itself is a thin zmap.ProbeModule: a sweep is a zmap.Config
// whose Module is HopLimitModule{MaxTTL}, run through the engine like
// any scan, so it inherits multi-worker parallelism, sharding, pacing
// and the loopback Exchanger fast path. This package adds only the TTL
// encoding and the path reconstruction helpers: Collector.Add is a
// zmap.Handler that turns the sweep's Results into per-target paths.
package yarrp

import (
	"sort"
	"sync"

	"followscent/internal/icmp6"
	"followscent/internal/ip6"
	"followscent/internal/zmap"
)

// Hop is one discovered (target, ttl) observation.
type Hop struct {
	Target ip6.Addr
	TTL    int
	From   ip6.Addr
	Type   uint8
	Code   uint8
}

// HopLimitModule implements zmap.ProbeModule: echo requests swept over
// hop limits 1..MaxTTL, the TTL riding in the echo sequence field —
// yarrp's trick for recovering the probed hop from the quoted packet
// without per-probe state. Multiplier exposes the sweep to the engine as
// targets × MaxTTL positions of one cyclic permutation.
type HopLimitModule struct {
	// MaxTTL bounds the sweep; each target is probed at every hop limit
	// in [1, MaxTTL]. A hop limit is one byte, so MaxTTL must lie in
	// 1..255; callers check it where the value enters.
	MaxTTL int
}

// Multiplier implements zmap.ProbeModule.
func (m HopLimitModule) Multiplier() int { return m.MaxTTL }

// NewProber implements zmap.ProbeModule.
func (m HopLimitModule) NewProber(cfg *zmap.Config, worker int) zmap.Prober {
	return &hopProber{tmpl: icmp6.NewEchoTemplate(cfg.Source), seed: cfg.Seed}
}

type hopProber struct {
	tmpl *icmp6.EchoTemplate
	seed uint64
}

// MakeProbe implements zmap.Prober: position pos probes at hop limit
// pos+1, carried both in the IPv6 header and the low byte of the echo
// sequence field (a TTL always fits one byte). The re-probe attempt
// rides in the sequence high byte so retransmissions are independent
// loss trials — and so attempt 0 probes stay byte-identical to the
// original single-pass yarrp loop.
func (p *hopProber) MakeProbe(target ip6.Addr, pos, attempt int) []byte {
	ttl := pos + 1
	seq := uint16(ttl) | uint16(attempt)<<8
	b := p.tmpl.Packet(target, validationID(p.seed, target), seq)
	b[7] = uint8(ttl) // IPv6 header hop-limit byte; checksum-neutral
	return b
}

// Validate implements zmap.ProbeModule. Result.Seq carries the TTL
// (the sequence low byte; the high byte is the re-probe attempt).
func (m HopLimitModule) Validate(cfg *zmap.Config, pkt *icmp6.Packet) (zmap.Result, bool) {
	switch pkt.Message.Type {
	case icmp6.TypeEchoReply:
		id, seq, ok := pkt.Message.Echo()
		if !ok || id != validationID(cfg.Seed, pkt.Header.Src) {
			return zmap.Result{}, false
		}
		return zmap.Result{
			Target: pkt.Header.Src,
			From:   pkt.Header.Src,
			Type:   pkt.Message.Type,
			Code:   pkt.Message.Code,
			Seq:    seq & 0xff,
		}, true
	case icmp6.TypeDestinationUnreachable, icmp6.TypeTimeExceeded:
		quoted, ok := pkt.Message.InvokingPacket()
		if !ok {
			return zmap.Result{}, false
		}
		var orig icmp6.Packet
		if err := orig.UnmarshalNoVerify(quoted); err != nil {
			return zmap.Result{}, false
		}
		id, seq, ok := orig.Message.Echo()
		if !ok || orig.Message.Type != icmp6.TypeEchoRequest {
			return zmap.Result{}, false
		}
		if id != validationID(cfg.Seed, orig.Header.Dst) {
			return zmap.Result{}, false
		}
		return zmap.Result{
			Target: orig.Header.Dst,
			From:   pkt.Header.Src,
			Type:   pkt.Message.Type,
			Code:   pkt.Message.Code,
			Seq:    seq & 0xff,
		}, true
	}
	return zmap.Result{}, false
}

// validationID is the sweep's per-target validation field. (Kept as the
// historical yarrp hash — distinct from zmap's — so seed datasets remain
// byte-stable across the engine unification.)
func validationID(seed uint64, target ip6.Addr) uint16 {
	return uint16(seed>>32) ^ uint16(seed) ^ uint16(target.High64()>>48) ^
		uint16(target.High64()) ^ uint16(target.IID()>>32) ^ uint16(target.IID())
}

// Path is a reconstructed forwarding path toward one target.
type Path struct {
	Target ip6.Addr
	Hops   []Hop // sorted by TTL, one entry per responding TTL
}

// LastHop returns the final responding interface on the path — the CPE
// for probes into customer space — preferring the lowest-TTL
// non-time-exceeded response (the device that terminated the probe), and
// otherwise the highest-TTL responder.
func (p Path) LastHop() (Hop, bool) {
	if len(p.Hops) == 0 {
		return Hop{}, false
	}
	for _, h := range p.Hops {
		if h.Type != icmp6.TypeTimeExceeded {
			return h, true
		}
	}
	return p.Hops[len(p.Hops)-1], true
}

// Collector accumulates hops into per-target paths.
type Collector struct {
	mu    sync.Mutex
	paths map[ip6.Addr]*Path
}

// NewCollector returns an empty collector; its Add method is a
// zmap.Handler.
func NewCollector() *Collector {
	return &Collector{paths: make(map[ip6.Addr]*Path)}
}

// Add records one sweep result as a hop; Result.Seq carries its TTL.
func (c *Collector) Add(r zmap.Result) {
	h := Hop{Target: r.Target, TTL: int(r.Seq), From: r.From, Type: r.Type, Code: r.Code}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.paths[h.Target]
	if !ok {
		p = &Path{Target: h.Target}
		c.paths[h.Target] = p
	}
	p.Hops = append(p.Hops, h)
}

// Paths returns the reconstructed paths, hops sorted by TTL, targets
// sorted by address.
func (c *Collector) Paths() []Path {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Path, 0, len(c.paths))
	for _, p := range c.paths {
		sort.Slice(p.Hops, func(i, j int) bool { return p.Hops[i].TTL < p.Hops[j].TTL })
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target.Less(out[j].Target) })
	return out
}
