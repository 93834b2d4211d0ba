package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"followscent/internal/experiments"
	"followscent/internal/ip6"
	"followscent/internal/simnet"
)

// study-loopback: the paper's §4 + §5 in one process. Every iteration
// runs the same discovery + campaign + Table 1 on the same world from
// the same virtual instant, so every iteration must reproduce the
// reference byte for byte.

// studyWorldSeed pins the simulated world. The probing salt comes from
// -seed; the world does not, because which TestWorld pools classify as
// rotating varies with the world seed (2 or 3 of them) and that alone
// would move an iteration's probe count by 8% between seeds.
const studyWorldSeed = 101

var studySeed48s = []ip6.Prefix{
	ip6.MustParsePrefix("2001:db8:10::/48"),
	ip6.MustParsePrefix("2001:db9:30::/48"),
	ip6.MustParsePrefix("2001:dba:40::/48"),
}

type studyOutput struct {
	rotating string // the rotating-/48 set, in discovery order
	corpus   string // sha256 of Corpus.Save: every day's observations
	table1   string // sha256 of the rendered Table 1
	probes   uint64
}

type studyInstance struct {
	cfg  experiments.StudyConfig
	want studyOutput
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func setupStudy(env runEnv) (instance, error) {
	cfg := experiments.StudyConfig{ProbesPer48: 16, CampaignDays: 5, Salt: mix64(env.seed) | 1}
	if env.tiny {
		cfg.ProbesPer48, cfg.CampaignDays = 4, 2
	}
	// Reference: a same-seed world replica, one worker.
	ref := experiments.NewSmallEnv(studyWorldSeed)
	ref.Scanner.Config.Workers = 1
	want, _, _, err := studyIteration(context.Background(), ref, cfg, nil, 0)
	if err != nil {
		return nil, errf("study-loopback", "reference run: %v", err)
	}
	if env.corrupt {
		want.corpus = sha([]byte(want.corpus))
	}
	return &studyInstance{cfg: cfg, want: want}, nil
}

// studyIteration runs one discovery + campaign + Table 1 from Epoch and
// returns what it produced, how long the discovery part took and how
// long all three took (the digests are taken after that clock stops).
func studyIteration(ctx context.Context, env *experiments.Env, cfg experiments.StudyConfig, tr *Recorder, op int) (out studyOutput, discovery, total time.Duration, err error) {
	env.World.Clock().Set(simnet.Epoch)
	probes0, _ := env.World.Stats()
	s := &experiments.Study{Env: env, Cfg: cfg, SeedEUI48s: studySeed48s}

	root := tr.Start("study.iteration", 0, op)
	defer tr.End(root)
	t0 := time.Now()
	id := tr.Start("experiments.Study.RunDiscovery", root, op)
	err = s.RunDiscovery(ctx)
	tr.End(id)
	discovery = time.Since(t0)
	if err != nil {
		return out, 0, 0, err
	}
	id = tr.Start("experiments.Study.RunCampaign", root, op)
	err = s.RunCampaign(ctx)
	tr.End(id)
	if err != nil {
		return out, 0, 0, err
	}
	var table bytes.Buffer
	id = tr.Start("experiments.Study.Table1Render", root, op)
	err = s.Table1Render(5, &table)
	tr.End(id)
	total = time.Since(t0)
	if err != nil {
		return out, 0, 0, err
	}
	probes1, _ := env.World.Stats()

	var corpus bytes.Buffer
	if err := s.Corpus.Save(&corpus); err != nil {
		return out, 0, 0, err
	}
	return studyOutput{
		rotating: fmt.Sprint(s.Discovery.Rotating48s),
		corpus:   sha(corpus.Bytes()),
		table1:   sha(table.Bytes()),
		probes:   probes1 - probes0,
	}, discovery, total, nil
}

func (s *studyInstance) run(ctx context.Context, d time.Duration, tr *Recorder) (*phase, error) {
	return measure(func(p *phase) error {
		for start := time.Now(); time.Since(start) < d; {
			// A fresh world per iteration (a millisecond, outside the
			// timed operation): where a world's tables land in memory
			// moves an iteration by several percent, and one world for
			// the whole run would make that luck the run's result.
			env := experiments.NewSmallEnv(studyWorldSeed)
			tl := &tracedLoopback{world: env.World}
			if tr != nil {
				env.Scanner.NewTransport = tl.newTransport
			}
			got, discovery, total, err := studyIteration(ctx, env, s.cfg, tr, len(p.ops)+1)
			tl.flush(tr)
			if err != nil {
				return errf("study-loopback", "iteration %d: %v", len(p.ops), err)
			}
			p.ops = append(p.ops, total)
			p.aux = append(p.aux, discovery)
			p.work += got.probes
			p.check(got.rotating == s.want.rotating)
			p.check(got.corpus == s.want.corpus)
			p.check(got.table1 == s.want.table1)
		}
		return nil
	})
}

func (s *studyInstance) close() error { return nil }

func (s *studyInstance) sizes() map[string]any {
	return map[string]any{
		"world":           fmt.Sprintf("simnet.TestWorld(%d)", studyWorldSeed),
		"seed_48s":        len(studySeed48s),
		"probes_per_48":   s.cfg.ProbesPer48,
		"campaign_days":   s.cfg.CampaignDays,
		"probes_per_iter": s.want.probes,
		"rotating_48s":    s.want.rotating,
		"workers":         "GOMAXPROCS",
		"transport":       "zmap.Loopback",
	}
}
