package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"followscent/internal/core"
	"followscent/internal/ip6"
	"followscent/internal/seed"
	"followscent/internal/simnet"
)

const (
	// defaultSalt is StudyConfig's default Salt.
	defaultSalt = 0x5eed
	// campaignSaltMask derives the §5 campaign's salt from the study's.
	campaignSaltMask = 0xca59

	// DefaultCampaignSalt is the salt a default Study's campaign probes
	// with. scentd's ingestion and campaignd's leases use it too, so all
	// three probe the same targets in the same order.
	DefaultCampaignSalt uint64 = defaultSalt ^ campaignSaltMask
)

// StudyConfig scales the end-to-end reproduction. Zero values take the
// paper-faithful defaults (scaled to the simulated world).
type StudyConfig struct {
	// SeedAgeDays is how stale the seed traceroute campaign is
	// (the paper's CAIDA data was over a year old; default 400).
	SeedAgeDays int
	// SeedTargetsPer48 and ProbesPer48 compensate for the scaled-down
	// world's few /48s per AS (see DESIGN.md; default 4 and 16).
	SeedTargetsPer48 int
	ProbesPer48      int
	// CampaignDays is the §5 longitudinal length (paper: 44).
	CampaignDays int
	// Salt seeds all probing decisions.
	Salt uint64
	// Logf receives progress lines when set.
	Logf func(format string, args ...any)
}

func (c *StudyConfig) fill() {
	if c.SeedAgeDays == 0 {
		c.SeedAgeDays = 400
	}
	if c.SeedTargetsPer48 == 0 {
		c.SeedTargetsPer48 = 4
	}
	if c.ProbesPer48 == 0 {
		c.ProbesPer48 = 16
	}
	if c.CampaignDays == 0 {
		c.CampaignDays = 44
	}
	if c.Salt == 0 {
		c.Salt = defaultSalt
	}
}

// Study holds the end-to-end state: seed data, discovery output and the
// longitudinal corpus that all figures draw from.
type Study struct {
	Env *Env
	Cfg StudyConfig

	SeedRecords []seed.Record
	SeedEUI48s  []ip6.Prefix
	Discovery   *core.DiscoveryResult
	Corpus      *core.Corpus

	// Inferences reused by the tracker and several figures.
	AllocSamples []core.AllocationSample // day 0 of the campaign
	AllocByAS    map[uint32]int
	PoolSamples  []core.PoolSample
	PoolByAS     map[uint32]int
}

func (s *Study) logf(format string, args ...any) {
	if s.Cfg.Logf != nil {
		s.Cfg.Logf(format, args...)
	}
}

// RunSeed generates the stale seed dataset by winding the clock back.
func (s *Study) RunSeed(ctx context.Context) error {
	s.Cfg.fill()
	back := simnet.Epoch.Add(-time.Duration(s.Cfg.SeedAgeDays) * 24 * time.Hour)
	err := s.Env.At(back, func() error {
		records, err := seed.Generate(ctx, s.Env.Scanner, s.Env.World.RIB(), seed.Config{
			MaxTTL:       8,
			Seed:         s.Cfg.Salt,
			TargetsPer48: s.Cfg.SeedTargetsPer48,
		})
		s.SeedRecords = records
		return err
	})
	if err != nil {
		return fmt.Errorf("experiments: seed campaign: %w", err)
	}
	s.SeedEUI48s = seed.EUIPrefixes(s.SeedRecords)
	s.logf("seed: %d records, %d unique-EUI /48s", len(s.SeedRecords), len(s.SeedEUI48s))
	return nil
}

// RunDiscovery executes the §4 pipeline from the seed /48s.
func (s *Study) RunDiscovery(ctx context.Context) error {
	s.Cfg.fill()
	if len(s.SeedEUI48s) == 0 {
		return fmt.Errorf("experiments: no seed /48s; run RunSeed first")
	}
	p := &core.Pipeline{
		Scanner:     s.Env.Scanner,
		RIB:         s.Env.World.RIB(),
		Wait:        s.Env.Wait,
		Salt:        s.Cfg.Salt ^ 0xd15c,
		ProbesPer48: s.Cfg.ProbesPer48,
		Logf:        s.Cfg.Logf,
	}
	res, err := p.Run(ctx, s.SeedEUI48s)
	if err != nil {
		return fmt.Errorf("experiments: discovery: %w", err)
	}
	s.Discovery = res
	return nil
}

// RunCampaign executes the §5 longitudinal scans over the rotating /48s
// and computes the standing inferences.
func (s *Study) RunCampaign(ctx context.Context) error {
	s.Cfg.fill()
	if s.Discovery == nil || len(s.Discovery.Rotating48s) == 0 {
		return fmt.Errorf("experiments: no rotating /48s; run RunDiscovery first")
	}
	s.Corpus = core.NewCorpus(s.Env.World.RIB())
	c := core.Campaign{
		Scanner:  s.Env.Scanner,
		Corpus:   s.Corpus,
		Prefixes: s.Discovery.Rotating48s,
		Days:     s.Cfg.CampaignDays,
		Wait:     s.Env.Wait,
		Salt:     s.Cfg.Salt ^ campaignSaltMask,
		Logf:     s.Cfg.Logf,
	}
	if err := c.Run(ctx); err != nil {
		return fmt.Errorf("experiments: campaign: %w", err)
	}
	s.AllocSamples = s.Corpus.AllocationSamples(0)
	s.AllocByAS = core.AllocationSizeByAS(s.AllocSamples)
	s.PoolSamples = s.Corpus.PoolSamples()
	s.PoolByAS = core.PoolSizeByAS(s.PoolSamples)
	return nil
}

// CampaignPrefixes resolves what a campaign scans: the comma-separated
// prefix list when one is given, otherwise the rotating /48s the §4
// pipeline finds from env (deterministic per seed, so every daemon and
// scanner node resolves the same set).
func CampaignPrefixes(ctx context.Context, env *Env, list string, logf func(format string, args ...any)) ([]ip6.Prefix, error) {
	if list != "" {
		var out []ip6.Prefix
		for _, s := range strings.Split(list, ",") {
			p, err := ip6.ParsePrefix(strings.TrimSpace(s))
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
		return out, nil
	}
	s := &Study{Env: env, Cfg: StudyConfig{Logf: logf}}
	if err := s.RunSeed(ctx); err != nil {
		return nil, err
	}
	if err := s.RunDiscovery(ctx); err != nil {
		return nil, err
	}
	if len(s.Discovery.Rotating48s) == 0 {
		return nil, fmt.Errorf("discovery found no rotating /48s to campaign over")
	}
	return s.Discovery.Rotating48s, nil
}

// RunAll is seed -> discovery -> campaign.
func (s *Study) RunAll(ctx context.Context) error {
	if err := s.RunSeed(ctx); err != nil {
		return err
	}
	if err := s.RunDiscovery(ctx); err != nil {
		return err
	}
	return s.RunCampaign(ctx)
}
