package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"followscent/internal/ip6"
	"followscent/internal/zmap"
)

// Campaign is the §5 measurement: daily scans of the rotating /48s at
// /64 granularity, with identical target addresses and probe order every
// day ("to ensure temporal consistency across daily zmap runs, we probed
// the same addresses every 24 hours in the same order").
type Campaign struct {
	Scanner  *zmap.Scanner
	Corpus   *Corpus
	Prefixes []ip6.Prefix // the rotating /48s (or sub-pools) to probe
	// Days is the campaign length (the paper ran 44).
	Days int
	// Wait advances 24 hours between scans.
	Wait func(d time.Duration)
	// Salt pins target IIDs and scan order across days.
	Salt uint64
	// Logf, when set, receives per-day progress.
	Logf func(format string, args ...any)
	// Commit commits each scanned day (nil: ScanDay.Commit); a journaled
	// store passes scentd.Store.Commit. An error ends the campaign.
	Commit func(*ScanDay) error
}

// Run executes the campaign, filling the corpus. Over a corpus holding
// days 0..k-1 it resumes: it first advances Wait by k days, as a freshly
// built world needs, then scans days k..Days-1.
func (c *Campaign) Run(ctx context.Context) error {
	if c.Days <= 0 {
		return fmt.Errorf("core: campaign needs Days > 0")
	}
	if c.Wait == nil {
		return fmt.Errorf("core: campaign needs a Wait hook")
	}
	if len(c.Prefixes) == 0 {
		return fmt.Errorf("core: campaign needs prefixes")
	}
	ts, err := zmap.NewSubnetTargets(c.Prefixes, 64, c.Salt)
	if err != nil {
		return err
	}
	commit := c.Commit
	if commit == nil {
		commit = func(sd *ScanDay) error { sd.Commit(); return nil }
	}
	start := 0
	if have := c.Corpus.Days(); len(have) > 0 {
		start = have[len(have)-1] + 1
	}
	if start > 0 && start < c.Days {
		c.Wait(time.Duration(start) * 24 * time.Hour)
	}
	for day := start; day < c.Days; day++ {
		sd := c.Corpus.NewScanDay(day)
		stats, err := c.Scanner.Scan(ctx, ts, c.Salt, func(r zmap.Result) {
			sd.Record(r.Target, r.From)
		})
		if err != nil {
			return fmt.Errorf("core: campaign day %d: %w", day, err)
		}
		sd.AddProbes(stats.Sent)
		if err := commit(sd); err != nil {
			return fmt.Errorf("core: campaign day %d: %w", day, err)
		}
		if c.Logf != nil {
			c.Logf("day %2d committed: %d probes, %d responses", day, stats.Sent, stats.Matched)
		}
		if day != c.Days-1 {
			c.Wait(24 * time.Hour)
		}
	}
	return nil
}

// TimePoint is one (day, /64 prefix) observation for Figure 9.
type TimePoint struct {
	Day      int
	PrefixHi uint64 // upper 64 bits of the observed /64
}

// TimeSeries returns an IID's observed /64 positions over time,
// chronological, deduplicated per (day, prefix).
func (c *Corpus) TimeSeries(iid IID) []TimePoint {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rec, ok := c.iids[iid]
	if !ok {
		return nil
	}
	out := make([]TimePoint, len(rec.Days))
	for i := range rec.Days {
		out[i] = TimePoint{Day: rec.Days[i].Day, PrefixHi: rec.Days[i].Resp.High64()}
	}
	slices.SortFunc(out, func(a, b TimePoint) int {
		return cmp.Or(cmp.Compare(a.Day, b.Day), cmp.Compare(a.PrefixHi, b.PrefixHi))
	})
	return slices.Compact(out)
}

// DensitySnapshot is one hourly measurement for Figure 10: per /48 of a
// rotation pool, the fraction of its /64s occupied by an EUI-64 address.
type DensitySnapshot struct {
	Hour     int
	Fraction map[ip6.Prefix]float64 // keyed by /48
}

// PoolDensity probes every /64 of the pool once per hour for the given
// number of hours (Figure 10 ran a week: 168).
func PoolDensity(ctx context.Context, sc *zmap.Scanner, pool ip6.Prefix, hours int, salt uint64, wait func(time.Duration)) ([]DensitySnapshot, error) {
	if pool.Bits() > 64 {
		return nil, fmt.Errorf("core: pool %s too long", pool)
	}
	ts, err := zmap.NewSubnetTargets([]ip6.Prefix{pool}, 64, salt)
	if err != nil {
		return nil, err
	}
	per48Total := float64(uint64(1) << uint(64-48)) // /64s per /48
	if pool.Bits() > 48 {
		per48Total = float64(uint64(1) << uint(64-pool.Bits()))
	}
	var out []DensitySnapshot
	for h := 0; h < hours; h++ {
		count := map[ip6.Prefix]int{}
		_, err := sc.Scan(ctx, ts, salt^uint64(h)<<32, func(r zmap.Result) {
			if !ip6.AddrIsEUI64(r.From) {
				return
			}
			count[r.Target.TruncateTo(48)]++
		})
		if err != nil {
			return nil, fmt.Errorf("core: density hour %d: %w", h, err)
		}
		snap := DensitySnapshot{Hour: h, Fraction: map[ip6.Prefix]float64{}}
		for p48, n := range count {
			snap.Fraction[p48] = float64(n) / per48Total
		}
		out = append(out, snap)
		if h != hours-1 {
			wait(time.Hour)
		}
	}
	return out, nil
}
