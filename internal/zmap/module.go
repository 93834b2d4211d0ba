package zmap

import (
	"followscent/internal/icmp6"
	"followscent/internal/ip6"
)

// ProbeModule is the probe-type plugin the scan engine is parameterized
// by, following real zmap's probe-module architecture (Durumeric et al.):
// the engine owns the cyclic permutation, sharding, worker pool, pacing,
// transports and stats, while the module owns every byte of probe
// construction and every rule of response validation. One engine, many
// probe types — an ICMPv6 echo scan, a yarrp-style hop-limit sweep, a
// UDP- or TCP-to-closed-port scan and an on-link Neighbor Discovery
// sweep differ only in the module plugged into Config.
//
// Modules must be stateless values: all per-scan state lives in the
// Prober instances they hand out, one per worker, so a module value can
// be shared across concurrent scans.
type ProbeModule interface {
	// Multiplier returns the number of probe positions per target.
	// Values below 1 are treated as 1. A hop-limit sweep returns MaxTTL:
	// the engine then walks targets × MaxTTL positions in one cyclic
	// permutation, so the sweep inherits the engine's byte-identical
	// worker-count determinism (position i probes target i/Multiplier at
	// position i%Multiplier).
	Multiplier() int
	// NewProber returns worker-local probe-construction state for one
	// scan pass. It is called once per worker, so Probers may keep
	// non-thread-safe fast-path state (packet templates, scratch
	// buffers). cfg is the filled scan configuration (Source, Seed,
	// HopLimit, ...).
	NewProber(cfg *Config, worker int) Prober
	// Validate checks one parsed inbound packet against the scan's
	// validation scheme and recovers the original probe's target and
	// sequence. It must be stateless (zmap's design: no per-probe state,
	// authenticity from validation fields derived from cfg.Seed) and
	// safe for concurrent use from every worker.
	Validate(cfg *Config, pkt *icmp6.Packet) (Result, bool)
}

// RawValidator is an optional ProbeModule extension for modules whose
// probes elicit responses that are not themselves ICMPv6. The engine
// parses every inbound packet as IPv6+ICMPv6 first (that covers echo
// replies, periphery errors and Neighbor Advertisements alike); when
// the next header is something else and the scan's module implements
// RawValidator, the raw packet is handed to ValidateRaw instead of
// being counted invalid. The TCP-SYN module uses this for the RST/ACK
// segments live hosts send from closed ports.
//
// Like Validate, ValidateRaw must be stateless and safe for concurrent
// use from every worker, and must authenticate the response purely from
// validation fields derived from cfg.Seed.
type RawValidator interface {
	// ValidateRaw checks one raw inbound IPv6 packet whose next header
	// is not ICMPv6. The module owns all parsing, including checksum
	// verification of its transport header.
	ValidateRaw(cfg *Config, b []byte) (Result, bool)
}

// Prober builds the wire bytes of one worker's probes.
type Prober interface {
	// MakeProbe returns the full probe packet for target at sweep
	// position pos (0 <= pos < Multiplier()) and re-probe attempt; every
	// scan is one pass, so the engine always passes attempt 0. The
	// returned slice may alias internal state: it is valid until the
	// next MakeProbe call, and the caller must not retain it.
	MakeProbe(target ip6.Addr, pos, attempt int) []byte
}

// Result is one validated probe response.
type Result struct {
	Target ip6.Addr // the address we probed
	From   ip6.Addr // the source of the ICMPv6 response (e.g. the CPE WAN)
	Type   uint8
	Code   uint8
	// Seq is the module-defined sequence recovered from the response:
	// the re-probe attempt (0 in engine scans) for single-position
	// modules, the hop limit for hop-limit sweeps.
	Seq uint16
	// Worker identifies which scan worker produced the result,
	// 0 <= Worker < Config.NumWorkers(). Handlers that opt into
	// Config.ConcurrentHandlers use it to index worker-local
	// accumulators without locking.
	Worker int
}

// IsEcho reports whether the response was an Echo Reply (the target
// itself exists) rather than an error from an intermediate device.
func (r Result) IsEcho() bool { return r.Type == icmp6.TypeEchoReply }

// Handler consumes results. By default calls are serialized across all
// scan workers (a merge stage funnels every worker's results through one
// mutex), so existing single-threaded handlers stay correct. Setting
// Config.ConcurrentHandlers waives that: the handler is then invoked
// concurrently from each worker and must synchronize itself (typically
// by sharding state on Result.Worker).
type Handler func(Result)

// validationID derives the 16-bit validation field a probe to target
// must carry — zmap's trick for rejecting spoofed or mismatched
// responses without keeping per-probe state. The echo module puts it in
// the echo identifier; the UDP module in the source port; the TCP
// module combines it (in the source port) with the further 32 bits of
// validationSeq in the SYN sequence number.
func validationID(seed uint64, target ip6.Addr) uint16 {
	return uint16(hashWord(hashWord(seed, target.High64()), target.IID()))
}

// validationSeq derives the 32-bit second half of the TCP module's
// validation state, carried in the SYN sequence number and echoed back
// either verbatim (quoted inside ICMPv6 errors) or incremented by one
// (the acknowledgment number of a closed port's RST/ACK). A distinct
// tweak keeps it independent of validationID.
func validationSeq(seed uint64, target ip6.Addr) uint32 {
	return uint32(hashWord(hashWord(seed^0x7cb5, target.High64()), target.IID()))
}
