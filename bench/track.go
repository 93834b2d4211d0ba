package main

import (
	"context"
	_ "embed"
	"math/rand"
	"time"

	"followscent/internal/core"
	"followscent/internal/experiments"
	"followscent/internal/ip6"
	"followscent/internal/simnet"
)

// track-loopback: the §6 attack. The same engine as study-loopback,
// used the other way round: thousands of scans, each cancelled from
// inside its handler the moment the device answers. Steps on the
// `short` provider's 16-block pools are almost pure per-scan set-up;
// steps on the `long` provider's 16384-block pool are, on average, half
// a sweep plus however long the cancel takes to land.

//go:embed worlds/track.json
var trackWorldJSON []byte

const (
	trackLongASN  = 65101
	trackShortASN = 65102
	trackDays     = 8
)

// The allocation and pool sizes the tracker is given are the world's
// ground truth, not inferences: the workload measures the search, not
// Algorithms 1 and 2.
var (
	trackAllocBits = map[uint32]int{trackLongASN: 60, trackShortASN: 56}
	trackPoolBits  = map[uint32]int{trackLongASN: 46, trackShortASN: 52}
)

type trackDevice struct {
	start ip6.Addr
	short bool
}

type trackOutcome struct {
	found bool
	addr  ip6.Addr
}

type trackInstance struct {
	seed   uint64
	cohort []trackDevice
	days   int
	// want[day][device] is the reference's outcome.
	want [][]trackOutcome
}

func trackEnv(seed uint64, workers int) (*experiments.Env, error) {
	spec, err := simnet.ParseWorldSpec(trackWorldJSON)
	if err != nil {
		return nil, err
	}
	spec.Seed = mix64(seed ^ 0x7ac4)
	return experiments.NewSpecEnv(spec, workers)
}

// trackNoon is the instant of a tracking day: past every pool's
// reassignment window, so each day's step chases a completed rotation.
func trackNoon(day int) time.Time {
	return simnet.Epoch.Add(time.Duration(day)*24*time.Hour + 12*time.Hour)
}

func setupTrack(env runEnv) (instance, error) {
	long, short, days := 192, 64, trackDays
	if env.tiny {
		long, short, days = 3, 3, 2
	}
	e, err := trackEnv(env.seed, 0)
	if err != nil {
		return nil, errf("track-loopback", "%v", err)
	}
	t := &trackInstance{seed: env.seed, days: days}

	// The cohort is drawn from pool ground truth at day 0.
	e.World.Clock().Set(trackNoon(0))
	rng := rand.New(rand.NewSource(int64(mix64(env.seed))))
	for _, p := range e.World.Providers() {
		var addrs []ip6.Addr
		for _, pool := range p.Pools {
			cpes := pool.CPEs()
			for i := range cpes {
				if cpes[i].Mode == simnet.ModeEUI64 && !cpes[i].Silent {
					addrs = append(addrs, pool.WANAddrNow(&cpes[i]))
				}
			}
		}
		rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
		n, isShort := long, p.ASN == trackShortASN
		if isShort {
			n = short
		}
		if len(addrs) < n {
			return nil, errf("track-loopback", "provider %s has %d trackable devices, cohort needs %d", p.Name, len(addrs), n)
		}
		for _, a := range addrs[:n] {
			t.cohort = append(t.cohort, trackDevice{start: a, short: isShort})
		}
	}
	// Interleave the providers so a pass stopped early by the clock has
	// seen the same mix as a whole one.
	rng.Shuffle(len(t.cohort), func(i, j int) { t.cohort[i], t.cohort[j] = t.cohort[j], t.cohort[i] })

	// Reference: pass 0 on a same-seed world replica with one worker.
	ref, err := trackEnv(env.seed, 1)
	if err != nil {
		return nil, err
	}
	refPhase := &phase{}
	if err := t.pass(context.Background(), ref, 0, time.Time{}, nil, refPhase, func(day, dev int, out trackOutcome) {
		for len(t.want) <= day {
			t.want = append(t.want, make([]trackOutcome, len(t.cohort)))
		}
		t.want[day][dev] = out
		refPhase.check(out.found)
	}); err != nil {
		return nil, errf("track-loopback", "reference run: %v", err)
	}
	if refPhase.failed > 0 {
		// The cohort is drawn from live, answering devices in loss-free
		// pools: every step is findable, or the workload is mis-sized.
		return nil, errf("track-loopback", "reference run missed %d of %d steps", refPhase.failed, refPhase.attempted)
	}
	if env.corrupt {
		t.want[0][0].found = false
	}
	return t, nil
}

// pass tracks the whole cohort for t.days days on env's world, starting
// from each device's day-0 address. The probing salt varies with the
// pass, so later passes sweep in other orders; where a device is does
// not depend on the salt, so every pass must find what the reference
// found. It stops at the first step past deadline (zero = never).
func (t *trackInstance) pass(ctx context.Context, env *experiments.Env, pass int, deadline time.Time, tr *Recorder, p *phase, each func(day, dev int, out trackOutcome)) error {
	tracker := &core.Tracker{Scanner: env.Scanner, RIB: env.World.RIB(), AllocBits: trackAllocBits, PoolBits: trackPoolBits}
	states := make([]*core.TrackState, len(t.cohort))
	for i, d := range t.cohort {
		st, err := core.NewTrackState(d.start)
		if err != nil {
			return err
		}
		states[i] = st
	}
	for day := 0; day < t.days; day++ {
		env.World.Clock().Set(trackNoon(day))
		for i, st := range states {
			if !deadline.IsZero() && time.Now().After(deadline) {
				return nil
			}
			name := "core.Tracker.Step.long"
			if t.cohort[i].short {
				name = "core.Tracker.Step.short"
			}
			salt := mix64(t.seed ^ uint64(pass)<<40 ^ uint64(day)<<20 ^ uint64(i))
			t0 := time.Now()
			id := tr.Start(name, 0, len(p.ops)+1)
			td, err := tracker.Step(ctx, st, day, salt)
			tr.End(id)
			el := time.Since(t0)
			if err != nil {
				return err
			}
			p.ops = append(p.ops, el)
			if t.cohort[i].short {
				p.aux = append(p.aux, el)
			}
			p.work += td.ProbesSent
			each(day, i, trackOutcome{found: td.Found, addr: td.Addr})
		}
	}
	return nil
}

func (t *trackInstance) run(ctx context.Context, d time.Duration, tr *Recorder) (*phase, error) {
	passes := 0
	p, err := measure(func(p *phase) error {
		deadline := time.Now().Add(d)
		for ; time.Now().Before(deadline); passes++ {
			// A fresh same-seed world per pass (a few milliseconds in
			// two seconds of steps): where a world's tables land in
			// memory moves its per-probe cost by up to a tenth, and one
			// world for the whole run would make that luck the result.
			env, err := trackEnv(t.seed, 0)
			if err != nil {
				return err
			}
			tl := &tracedLoopback{world: env.World}
			if tr != nil {
				env.Scanner.NewTransport = tl.newTransport
			}
			err = t.pass(ctx, env, passes, deadline, tr, p, func(day, dev int, out trackOutcome) {
				p.check(out == t.want[day][dev])
			})
			tl.flush(tr)
			if err != nil {
				return errf("track-loopback", "pass %d: %v", passes, err)
			}
		}
		return nil
	})
	if p != nil {
		p.notes["passes"] = float64(passes)
	}
	return p, err
}

func (t *trackInstance) close() error { return nil }

func (t *trackInstance) sizes() map[string]any {
	long := 0
	for _, d := range t.cohort {
		if !d.short {
			long++
		}
	}
	return map[string]any{
		"world":          "bench/worlds/track.json, seed f(seed)",
		"long_devices":   long,
		"short_devices":  len(t.cohort) - long,
		"days":           t.days,
		"steps_per_pass": len(t.cohort) * t.days,
		"workers":        "GOMAXPROCS",
		"transport":      "zmap.Loopback",
	}
}
