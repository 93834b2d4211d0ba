package experiments

import (
	"bytes"
	"context"
	"net"
	"slices"
	"testing"

	"followscent/internal/core"
	"followscent/internal/ip6"
	"followscent/internal/seed"
	"followscent/internal/simnet"
)

// clockSpec is a world small enough to trace and scan over a socket in
// about a second: one routed /46 (four /48s for the seed sweep) holding
// one daily-rotating /48 pool of EUI-64 devices.
var clockSpec = simnet.WorldSpec{
	Seed: 29,
	Providers: []simnet.ProviderSpec{{
		ASN: 65201, Name: "ClockNet", Country: "DE",
		Allocations: []string{"2001:db8::/46"},
		RouterHops:  3,
		Pools: []simnet.PoolSpec{{
			Prefix: "2001:db8:1::/48", AllocBits: 60,
			Rotation:  simnet.Daily(),
			Occupancy: 0.5, EUIFrac: 1,
		}},
	}},
}

// TestRemoteEnvCarriesReplicaClock: an env probing a served world over
// UDP (probeAt, as BuildEnv wires -server) sees what the in-process
// env sees at every instant its own clock takes — the seed sweep's
// wound-back Env.At and each campaign day's Wait — because each
// transport first sets the server's clock to the replica's. The seed
// records and the 2-day campaign's Save bytes match byte for byte; the
// in-process run itself shows that the instants differ.
func TestRemoteEnvCarriesReplicaClock(t *testing.T) {
	ctx := context.Background()
	prefix := ip6.MustParsePrefix("2001:db8:1::/52")
	cfg := StudyConfig{SeedTargetsPer48: 16}

	run := func(env *Env) ([]seed.Record, []byte, *core.Corpus) {
		t.Helper()
		env.Scanner.Config.Workers = 2
		s := &Study{Env: env, Cfg: cfg}
		if err := s.RunSeed(ctx); err != nil {
			t.Fatal(err)
		}
		corpus := core.NewCorpus(env.World.RIB())
		camp := &core.Campaign{
			Scanner:  env.Scanner,
			Corpus:   corpus,
			Prefixes: []ip6.Prefix{prefix},
			Days:     2,
			Wait:     env.Wait,
			Salt:     DefaultCampaignSalt,
		}
		if err := camp.Run(ctx); err != nil {
			t.Fatal(err)
		}
		var saved bytes.Buffer
		if err := corpus.Save(&saved); err != nil {
			t.Fatal(err)
		}
		return s.SeedRecords, saved.Bytes(), corpus
	}

	local := NewEnvFor(simnet.MustBuild(clockSpec), clockSpec.Seed)
	wantSeed, wantCorpus, corpus := run(local)

	// Teeth: a server left at the epoch would answer the seed sweep
	// with today's devices and both campaign days with day 0's.
	now, err := seed.Generate(ctx, local.Scanner, local.World.RIB(), seed.Config{
		MaxTTL: 8, Seed: defaultSalt, TargetsPer48: cfg.SeedTargetsPer48,
	})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(now, wantSeed) {
		t.Fatal("seed records at the epoch equal the wound-back ones: the test cannot see the clock")
	}
	if slices.Max(corpus.PrefixesPerIID()) < 2 {
		t.Fatal("no device moved between day 0 and day 1: the test cannot see the clock")
	}

	addr := serveWorld(t, simnet.MustBuild(clockSpec))
	remote := NewEnvFor(simnet.MustBuild(clockSpec), clockSpec.Seed)
	remote.probeAt(addr)
	remote.Scanner.Config.Rate = 20000 // loopback UDP drops bursts on a busy box
	gotSeed, gotCorpus, _ := run(remote)
	if !slices.Equal(gotSeed, wantSeed) {
		t.Errorf("remote seed records differ from in-process (%d vs %d records)", len(gotSeed), len(wantSeed))
	}
	if !bytes.Equal(gotCorpus, wantCorpus) {
		t.Errorf("remote campaign corpus (%d bytes) differs from in-process (%d bytes)", len(gotCorpus), len(wantCorpus))
	}
}

// serveWorld serves w as simnetd does — probes over UDP, clock over TCP,
// one address — until the test ends, and returns that address.
func serveWorld(t *testing.T, w *simnet.World) string {
	t.Helper()
	conn, err := simnet.ListenUDP(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 2)
	go func() { errs <- w.ServeUDP(ctx, conn, 0) }()
	go func() { errs <- w.ServeClock(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		for range 2 {
			if err := <-errs; err != nil {
				t.Errorf("serving: %v", err)
			}
		}
		conn.Close()
	})
	return conn.LocalAddr().String()
}
