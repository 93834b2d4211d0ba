package simnet

import (
	"testing"
	"time"

	"followscent/internal/ip6"
)

// TestOccupancyCacheFollowsClock proves the per-pool occupancy snapshot
// is invalidated when the virtual clock moves: a rotating device's WAN
// address answers echo before a rotation and stops answering from the
// old block after it, with the ground-truth WANAddrNow always agreeing
// with the probe path.
func TestOccupancyCacheFollowsClock(t *testing.T) {
	w := TestWorld(9)
	pool := testPool(t, w, 65001, 0) // DailyStride(3): rotates every day
	var c *CPE
	for i := range pool.cpes {
		if !pool.cpes[i].Silent {
			c = &pool.cpes[i]
			break
		}
	}

	for day := 0; day < 4; day++ {
		wan := pool.WANAddrNow(c)
		r, ok := w.Query(wan, 64, uint64(day))
		if !ok || !r.Echo || r.From != wan {
			t.Fatalf("day %d: probe to current WAN %s: ok=%v echo=%v from=%s", day, wan, ok, r.Echo, r.From)
		}
		w.Clock().Advance(24 * time.Hour)
		if next := pool.WANAddrNow(c); next == wan {
			t.Fatalf("day %d: device did not rotate", day)
		}
		// The stale address must no longer produce an echo: the cache
		// rebuilt for the new instant.
		if r, ok := w.Query(wan, 64, uint64(day)<<8); ok && r.Echo && r.From == wan {
			t.Fatalf("day %d: stale WAN %s still answers echo after rotation", day, wan)
		}
	}
}

// TestOccupancyCacheAmortizesNoChangeClockMoves is the regression test
// for clock moves that change no occupancy (Figure 10's hourly waits,
// Env.At flips, here 100ms steps against daily rotation intervals):
// they must not rebuild the pool snapshot. The snapshot's validity
// window ends exactly at the next reassignment or churn day boundary.
func TestOccupancyCacheAmortizesNoChangeClockMoves(t *testing.T) {
	w := TestWorld(12)
	// Park the clock mid-day, past every pool's reassignment window
	// (Daily-style policies reassign within the first hours of the day).
	w.Clock().Set(Epoch.Add(10*24*time.Hour + 12*time.Hour))

	probeOf := func(pool *Pool) ip6.Addr { return pool.Prefix.RandomAddr(5, 6) }
	tick := func(n int, pool *Pool) {
		for i := 0; i < n; i++ {
			w.Clock().Advance(100 * time.Millisecond) // simnetd's -timescale cadence
			w.Query(probeOf(pool), 64, uint64(i))
		}
	}

	rotating := testPool(t, w, 65001, 0) // DailyStride(3)
	static := testPool(t, w, 65003, 0)   // RotateNone with churn
	for _, pool := range []*Pool{rotating, static} {
		w.Query(probeOf(pool), 64, 0) // build the snapshot
		before := pool.occBuilds.Load()
		tick(50, pool) // 5 virtual seconds of timescale ticks
		if got := pool.occBuilds.Load(); got != before {
			t.Fatalf("pool %s: %d rebuilds across no-change ticks, want 0", pool.Prefix, got-before)
		}
	}

	// Crossing a day boundary must invalidate both: the rotating pool
	// rotates and the churn pool may gain or lose devices.
	w.Clock().Advance(13 * time.Hour)
	for _, pool := range []*Pool{rotating, static} {
		before := pool.occBuilds.Load()
		w.Query(probeOf(pool), 64, 1)
		if got := pool.occBuilds.Load(); got != before+1 {
			t.Fatalf("pool %s: %d rebuilds after day boundary, want 1", pool.Prefix, got-before)
		}
	}

	// And the rebuilt snapshot must be correct: the rotating device
	// answers echo at its new WAN, not the old one (the substance of
	// TestOccupancyCacheFollowsClock, re-checked under window reuse).
	var c *CPE
	for i := range rotating.cpes {
		if !rotating.cpes[i].Silent {
			c = &rotating.cpes[i]
			break
		}
	}
	wan := rotating.WANAddrNow(c)
	if r, ok := w.Query(wan, 64, 2); !ok || !r.Echo || r.From != wan {
		t.Fatalf("probe to current WAN %s after window rebuild: ok=%v %+v", wan, ok, r)
	}
}

// TestOccupancyCacheMatchesSlowPath cross-checks the cached occupant
// lookup against first-principles enumeration of every device's block.
func TestOccupancyCacheMatchesSlowPath(t *testing.T) {
	w := TestWorld(10)
	for _, asn := range []uint32{65001, 65002, 65003} {
		p, _ := w.ProviderByASN(asn)
		for _, pool := range p.Pools {
			for _, hours := range []int{0, 5, 29, 1003} {
				at := Epoch.Add(time.Duration(hours) * time.Hour)
				day := dayOf(at)
				want := map[uint64]*CPE{}
				for i := range pool.cpes {
					c := &pool.cpes[i]
					if !c.activeAt(day) {
						continue
					}
					j := pool.blockAt(c, at)
					if prev, ok := want[j]; !ok || pool.epochOf(c, at) > pool.epochOf(prev, at) {
						want[j] = c
					}
				}
				for j := uint64(0); j < pool.blocks; j++ {
					if got := pool.occupantAt(j, at); got != want[j] {
						t.Fatalf("AS%d pool %s t=+%dh block %d: occupant %v, want %v",
							asn, pool.Prefix, hours, j, got, want[j])
					}
				}
			}
		}
	}
}
