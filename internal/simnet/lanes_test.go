package simnet

import (
	"sync"
	"testing"
	"unsafe"

	"followscent/internal/icmp6"
	"followscent/internal/ip6"
)

// TestWorldStatsSumsLanes probes one world from more goroutines than it
// has counter lanes — most through a Lane of their own, some through
// HandlePacket and Query directly — with every modality the wire path
// answers, and requires Stats to equal exactly the probes sent and the
// answers received. Lanes wrap around here, so several goroutines share
// one; the race detector checks the sharing stays atomic.
func TestWorldStatsSumsLanes(t *testing.T) {
	w := TestWorld(21)
	pool := testPool(t, w, 65001, 0)
	now := w.Clock().Now()
	src := ip6.MustParseAddr("2620:11f:7000::53")
	var probes [][]byte
	var targets []ip6.Addr
	for i := range pool.cpes {
		if i == 16 {
			break
		}
		c := &pool.cpes[i]
		j := pool.blockAt(c, now)
		wan := pool.wanAddr(c, j, now)
		vacant := pool.Block(j).RandomAddr(uint64(i), 9)
		targets = append(targets, wan, vacant)
		probes = append(probes,
			icmp6.AppendEchoRequest(nil, src, wan, 1, uint16(i), nil),
			icmp6.AppendEchoRequest(nil, src, vacant, 1, uint16(i), nil),
			icmp6.AppendNeighborSolicitation(nil, ip6.LinkLocal(0x53), wan),
			icmp6.AppendMLDQuery(nil, ip6.LinkLocal(0x53), ip6.AllNodesGroup(wan.Slash64()), ip6.Addr{}),
			icmp6.AppendUDPProbe(nil, src, wan, 4321, 33434, nil),
			icmp6.AppendTCPSyn(nil, src, vacant, 4321, 33434, uint32(i)),
			// Silence: a vacant address does not defend itself, and
			// unrouted space answers nothing.
			icmp6.AppendNeighborSolicitation(nil, ip6.LinkLocal(0x53), vacant),
			icmp6.AppendEchoRequest(nil, src, ip6.MustParseAddr("2a00:dead::1"), 1, uint16(i), nil),
		)
	}

	const laned, direct, rounds = 2*statLanes + 3, 3, 5
	var wg sync.WaitGroup
	var mu sync.Mutex
	var sent, answered uint64
	tally := func(s, a uint64) {
		mu.Lock()
		sent += s
		answered += a
		mu.Unlock()
	}
	for g := 0; g < laned+2*direct; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s, a uint64
			switch {
			case g < laned+direct:
				handle := w.HandlePacket
				if g < laned {
					handle = w.NewLane().HandlePacket
				}
				buf := make([]byte, 0, 2048)
				for r := 0; r < rounds; r++ {
					for k := range probes {
						var ok bool
						buf, ok = handle(probes[(k+g)%len(probes)], buf[:0])
						s++
						if ok {
							a++
						}
					}
				}
			default:
				for r := 0; r < rounds; r++ {
					for k, target := range targets {
						if _, ok := w.Query(target, 64, uint64(r*len(targets)+k)); ok {
							a++
						}
						s++
					}
				}
			}
			tally(s, a)
		}()
	}
	wg.Wait()

	gotProbes, gotResps := w.Stats()
	if gotProbes != sent || gotResps != answered {
		t.Fatalf("Stats = %d probes / %d responses, sent %d / answered %d", gotProbes, gotResps, sent, answered)
	}
	if answered == 0 || answered == sent {
		t.Fatalf("answered %d of %d: the probe mix exercises nothing", answered, sent)
	}
}

// TestWorldLaneLayout guards the layout that keeps simnet's per-probe
// counting off the lines every probe reads: each counter lane fills
// whole cache lines, and wherever the World lands in memory no lane's
// counters share a 64-byte line with another lane's or with the
// read-hot routing and mixing fields.
func TestWorldLaneLayout(t *testing.T) {
	var w World
	laneSize := unsafe.Sizeof(w.lanes[0])
	if laneSize%64 != 0 {
		t.Errorf("statLane is %d bytes, not a whole number of 64-byte lines", laneSize)
	}
	counters := unsafe.Sizeof(w.lanes[0].probes) + unsafe.Sizeof(w.lanes[0].resps)
	hot := map[string][2]uintptr{
		"ranges":    {unsafe.Offsetof(w.ranges), unsafe.Sizeof(w.ranges)},
		"providers": {unsafe.Offsetof(w.providers), unsafe.Sizeof(w.providers)},
		"hBorder":   {unsafe.Offsetof(w.hBorder), unsafe.Sizeof(w.hBorder)},
		"hLoss":     {unsafe.Offsetof(w.hLoss), unsafe.Sizeof(w.hLoss)},
		"hLink":     {unsafe.Offsetof(w.hLink), unsafe.Sizeof(w.hLink)},
	}
	for i := range w.lanes {
		lane := unsafe.Offsetof(w.lanes) + uintptr(i)*laneSize
		for name, f := range hot {
			if shareLine(lane, counters, f[0], f[1]) {
				t.Errorf("lane %d's counters can share a line with %s", i, name)
			}
		}
		if i > 0 && shareLine(lane-laneSize, counters, lane, counters) {
			t.Errorf("lanes %d and %d's counters can share a line", i-1, i)
		}
	}
}

// shareLine reports whether bytes [a, a+an) and [b, b+bn) of one object
// can fall on a common 64-byte line for some 8-byte-aligned placement of
// the object. (Go's allocator guarantees only 8: an object with
// pointers larger than 512 bytes sits behind an 8-byte header.)
func shareLine(a, an, b, bn uintptr) bool {
	for base := uintptr(0); base < 64; base += 8 {
		af, al := (base+a)/64, (base+a+an-1)/64
		bf, bl := (base+b)/64, (base+b+bn-1)/64
		if af <= bl && bf <= al {
			return true
		}
	}
	return false
}
