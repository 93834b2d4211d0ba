package zmap_test

import (
	"context"
	"fmt"
	"log"

	"followscent/internal/icmp6"
	"followscent/internal/ip6"
	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

// farNearModule is a complete custom ProbeModule: it probes every
// target twice — once at full hop limit ("far", reaching the customer
// edge) and once at hop limit 1 ("near", expiring at the first transit
// router). Multiplier folds the two positions into the engine's one
// permutation, so the sweep inherits worker-count determinism; the
// position rides in the echo sequence number and the per-target
// validation id in the echo identifier, recoverable from both echo
// replies and the quote inside ICMPv6 errors.
type farNearModule struct{}

// hopLimits maps sweep position to probe hop limit.
var hopLimits = [2]uint8{64, 1}

func (farNearModule) Multiplier() int { return 2 }

func (farNearModule) NewProber(cfg *zmap.Config, worker int) zmap.Prober {
	// One prober per worker: the scratch buffer may be reused across
	// MakeProbe calls without synchronization.
	return &farNearProber{src: cfg.Source, seed: cfg.Seed, buf: make([]byte, 0, 48)}
}

type farNearProber struct {
	src  ip6.Addr
	seed uint64
	buf  []byte
}

// exampleID is the per-target validation field. Real modules derive it
// from Config.Seed with a mixing hash (so off-path responders cannot
// guess it); a xor fold keeps the example short.
func exampleID(seed uint64, target ip6.Addr) uint16 {
	return uint16(seed) ^ uint16(target.High64()) ^ uint16(target.IID())
}

func (p *farNearProber) MakeProbe(target ip6.Addr, pos, attempt int) []byte {
	p.buf = icmp6.AppendEchoRequest(p.buf[:0], p.src, target,
		exampleID(p.seed, target), uint16(pos), nil)
	p.buf[7] = hopLimits[pos] // IPv6 hop-limit byte; checksum-neutral
	return p.buf
}

func (farNearModule) Validate(cfg *zmap.Config, pkt *icmp6.Packet) (zmap.Result, bool) {
	switch pkt.Message.Type {
	case icmp6.TypeEchoReply:
		id, seq, ok := pkt.Message.Echo()
		if !ok || id != exampleID(cfg.Seed, pkt.Header.Src) {
			return zmap.Result{}, false
		}
		return zmap.Result{Target: pkt.Header.Src, From: pkt.Header.Src,
			Type: pkt.Message.Type, Seq: seq}, true
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
		if !ok || orig.Message.Type != icmp6.TypeEchoRequest ||
			id != exampleID(cfg.Seed, orig.Header.Dst) {
			return zmap.Result{}, false
		}
		return zmap.Result{Target: orig.Header.Dst, From: pkt.Header.Src,
			Type: pkt.Message.Type, Code: pkt.Message.Code, Seq: seq}, true
	}
	return zmap.Result{}, false
}

// Example_customModule writes a two-position sweep module from scratch
// and runs it against the simulated Internet — the worked "write your
// own ProbeModule" walkthrough for DESIGN.md §5.
func Example_customModule() {
	world := simnet.TestWorld(1)
	targets, err := zmap.NewSubnetTargets(
		[]ip6.Prefix{ip6.MustParsePrefix("2001:db8:10::/48")}, 56, 7)
	if err != nil {
		log.Fatal(err)
	}

	var byPos [2]int
	stats, err := zmap.ScanWorkers(context.Background(),
		func(int) (zmap.Transport, error) { return zmap.NewLoopback(world, 0), nil }, targets,
		zmap.Config{
			Source:  ip6.MustParseAddr("2620:11f:7000::53"),
			Seed:    42,
			Workers: 1,
			Module:  farNearModule{},
		},
		func(r zmap.Result) { byPos[r.Seq]++ })
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("sent %d probes to %d targets\n", stats.Sent, targets.Len())
	fmt.Printf("far  (hop limit 64): %d responses\n", byPos[0])
	fmt.Printf("near (hop limit  1): %d responses\n", byPos[1])
	// Output:
	// sent 512 probes to 256 targets
	// far  (hop limit 64): 173 responses
	// near (hop limit  1): 242 responses
}
