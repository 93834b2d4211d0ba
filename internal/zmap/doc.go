// Package zmap implements a zmap-style IPv6 scanning engine: a cyclic
// multiplicative-group permutation over the target space, two-level
// sharding (instance shard, worker sub-shard), per-worker transports,
// pacing, and stateless response validation — the paper's probing
// substrate, reusable for every probe type through pluggable modules.
//
// # Architecture
//
// The engine (ScanWorkers, ScanSource, Scanner) owns everything
// probe-type agnostic: walking target streams, partitioning them across
// workers and shards so the probed set is byte-identical for every
// worker count, moving bytes through Transports, pacing, and the stats
// counters. Every scan is one pass over its source's streams — each
// position probed once — and a transport error goes, unretried, to the
// scan's FailurePolicy (AbortAll or QuarantineWorker); an interrupted
// scan resumes from a Checkpoint of per-worker consumed positions. Two
// plugin layers parameterize it. A TargetSource owns
// target generation — PermutedSource walks an indexable TargetSet
// through the cyclic permutation (the classic fixed workload),
// CandidateSource streams EUI-64 candidates synthesized from vendor
// OUIs, and FeedbackSource turns confirmed discoveries into the next
// round's refinement targets (adaptive snowball discovery); the
// contract and determinism rules are DESIGN.md §8. A ProbeModule owns
// everything probe-type specific: how a probe packet is built (Prober)
// and how a response is authenticated and mapped back to the probed
// target (Validate, and optionally RawValidator for responses that are
// not ICMPv6). Six modules exist across the repository:
//
//	EchoModule        ICMPv6 Echo Request, the paper's §3.1 probe (default)
//	yarrp.HopLimitModule  echo at TTL 1..MaxTTL, the traceroute baseline
//	UDPModule         UDP datagram to a closed high port
//	TCPSynModule      TCP SYN to closed ports, RST-bearing edges
//	NDPModule         Neighbor Solicitation, the on-link vantage
//	MLDModule         MLD General Query per link, on-link listener census
//
// # Writing a probe module
//
// A module is a small stateless value answering three questions:
//
//  1. Multiplier — how many probe positions does one target occupy?
//     Return 1 for one-probe-per-target scans. Return N to fold a
//     per-target sweep (hop limits, ports) into the engine's single
//     permutation: position i then probes target i/N at sweep position
//     i%N, and the sweep inherits worker-count determinism for free.
//  2. NewProber — what per-worker state does probe construction need?
//     Called once per worker, so the Prober may hold non-thread-safe
//     fast-path state (packet templates, scratch buffers). MakeProbe
//     may return a slice aliasing that state; the engine uses it before
//     the next call.
//  3. Validate — is this inbound packet a genuine answer to one of our
//     probes, and to which target? Must be stateless and safe for
//     concurrent use: authenticity comes from validation fields derived
//     from Config.Seed and the target (zmap's trick for scanning
//     without per-probe state), carried in whatever probe field the
//     response echoes — the echo identifier, the UDP source port, the
//     TCP source port plus SYN sequence number. NDP and MLD responses
//     echo nothing, so those modules instead lean on their protocols'
//     on-link boundaries (hop limit 255 for ND, hop limit 1 for MLD);
//     new modules should prefer seed-derived fields whenever the
//     protocol offers one.
//
// Modules whose probes elicit non-ICMPv6 responses additionally
// implement RawValidator; see its documentation. The full module-author
// contract, including the simulator answer-path matrix every module is
// tested against, is DESIGN.md §5. For a compilable end-to-end module,
// see the package example.
package zmap
