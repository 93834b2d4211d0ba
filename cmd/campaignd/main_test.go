package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"followscent/internal/campaign"
	"followscent/internal/core"
	"followscent/internal/experiments"
	"followscent/internal/ip6"
	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

// TestCampaigndEndToEnd drives the daemon glue end to end: two scanner
// nodes — wired exactly as `scent work` wires them, each probing its
// own same-seed world replica — lease shards from a campaignd built by
// buildCoordinator, and the corpus it saves to -out is byte-identical
// to the single-node core.Campaign over the same world.
func TestCampaigndEndToEnd(t *testing.T) {
	const (
		seed   = 7
		prefix = "2001:db8:10::/48"
		days   = 2
		salt   = uint64(0x5eed) ^ 0xca59
	)

	// The determinism oracle: one uninterrupted single-node run.
	refEnv := experiments.NewSmallEnv(seed)
	refEnv.Scanner.Config.Workers = 2
	refCorpus := core.NewCorpus(refEnv.World.RIB())
	camp := &core.Campaign{
		Scanner:  refEnv.Scanner,
		Corpus:   refCorpus,
		Prefixes: []ip6.Prefix{ip6.MustParsePrefix(prefix)},
		Days:     days,
		Salt:     salt,
		Wait:     refEnv.Wait,
	}
	if err := camp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := refCorpus.Save(&ref); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(t.TempDir(), "campaign.corpus")
	o := &options{
		seed: seed, world: "test", prefixes: prefix,
		days: days, shards: 3, ttl: 2 * time.Second, out: out,
	}
	coord, corpus, npfx, err := buildCoordinator(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if npfx != 1 {
		t.Fatalf("resolved %d prefixes, want 1", npfx)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve(sctx, o, coord, corpus, ln) }()

	nodeErrs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range nodeErrs {
		w := testNode(fmt.Sprintf("n%d", i), ln.Addr().String(), seed)
		wg.Add(1)
		go func(i int, w *campaign.Worker) {
			defer wg.Done()
			nodeErrs[i] = w.Run(context.Background())
		}(i, w)
	}
	wg.Wait()
	for i, err := range nodeErrs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}

	select {
	case <-coord.Finished():
	case <-time.After(60 * time.Second):
		t.Fatal("campaign did not finish")
	}
	cancel()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}

	saved, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) == 0 {
		t.Fatal("saved corpus is empty")
	}
	if !bytes.Equal(saved, ref.Bytes()) {
		t.Fatalf("campaignd corpus (%d bytes) differs from single-node reference (%d bytes)",
			len(saved), ref.Len())
	}
}

// testNode builds one scanner node the way runWork in cmd/scent does
// for the in-process case: its own same-seed world replica, transports
// through the env's factory, clock following the campaign day.
func testNode(name, coordAddr string, seed uint64) *campaign.Worker {
	return nodeOn(name, coordAddr, experiments.NewSmallEnv(seed))
}

// nodeOn builds a scanner node over env as runWork does.
func nodeOn(name, coordAddr string, env *experiments.Env) *campaign.Worker {
	cfg := env.Scanner.Config
	cfg.Workers = 2
	return &campaign.Worker{
		Name:   name,
		Addr:   coordAddr,
		Config: cfg,
		Poll:   25 * time.Millisecond,
		NewTransport: func(int, int) zmap.TransportFactory {
			return func(int) (zmap.Transport, error) { return env.Scanner.NewTransport() }
		},
		Wait: env.Wait,
	}
}

// TestCampaigndSharedSimnet is TestCampaigndEndToEnd with both nodes
// probing one shared simnetd through -server envs (experiments.BuildEnv,
// as `scent work -server` builds them): each node carries its replica's
// day to the server as it dials, so -out equals the single-node
// in-process corpus byte for byte. The reference itself shows devices
// moving between the two days, so a server left on day 0 would fail.
func TestCampaigndSharedSimnet(t *testing.T) {
	const (
		seed   = 7
		prefix = "2001:db8:10::/52"
		days   = 2
	)
	refEnv := experiments.NewSmallEnv(seed)
	refCorpus := core.NewCorpus(refEnv.World.RIB())
	camp := &core.Campaign{
		Scanner:  refEnv.Scanner,
		Corpus:   refCorpus,
		Prefixes: []ip6.Prefix{ip6.MustParsePrefix(prefix)},
		Days:     days,
		Salt:     experiments.DefaultCampaignSalt,
		Wait:     refEnv.Wait,
	}
	if err := camp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if slices.Max(refCorpus.PrefixesPerIID()) < 2 {
		t.Fatal("no device moved between day 0 and day 1: the test cannot see the clock")
	}
	var ref bytes.Buffer
	if err := refCorpus.Save(&ref); err != nil {
		t.Fatal(err)
	}

	// The shared world, served as simnetd serves it: probes over UDP,
	// the clock over TCP at the same address.
	world := simnet.TestWorld(seed)
	conn, err := simnet.ListenUDP(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	clockLn, err := net.Listen("tcp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	servedErrs := make(chan error, 2)
	go func() { servedErrs <- world.ServeUDP(wctx, conn, 0) }()
	go func() { servedErrs <- world.ServeClock(wctx, clockLn) }()
	defer func() {
		wcancel()
		for range 2 {
			if err := <-servedErrs; err != nil {
				t.Errorf("serving the world: %v", err)
			}
		}
	}()

	out := filepath.Join(t.TempDir(), "campaign.corpus")
	o := &options{
		seed: seed, world: "test", prefixes: prefix,
		days: days, shards: 3, ttl: 2 * time.Second, out: out,
	}
	coord, corpus, _, err := buildCoordinator(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve(sctx, o, coord, corpus, ln) }()

	nodeErrs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range nodeErrs {
		env, err := experiments.BuildEnv(seed, "test", conn.LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		env.Scanner.Config.Rate = 20000 // loopback UDP drops bursts on a busy box
		w := nodeOn(fmt.Sprintf("n%d", i), ln.Addr().String(), env)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nodeErrs[i] = w.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range nodeErrs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	<-coord.Finished()
	cancel()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	saved, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, ref.Bytes()) {
		t.Fatalf("campaignd corpus over a shared simnetd (%d bytes) differs from the single-node reference (%d bytes)",
			len(saved), ref.Len())
	}
}

func TestBuildCoordinatorRejects(t *testing.T) {
	if _, err := buildEnv(7, "bogus"); err == nil {
		t.Error("bogus world accepted")
	}
	bad := &options{seed: 7, world: "test", prefixes: "nonsense", days: 2, shards: 2, ttl: time.Second}
	if _, _, _, err := buildCoordinator(context.Background(), bad); err == nil {
		t.Error("bad -prefix accepted")
	}
}
