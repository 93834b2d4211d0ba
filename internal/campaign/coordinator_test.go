package campaign_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"followscent/internal/campaign"
	"followscent/internal/core"
	"followscent/internal/ip6"
	"followscent/internal/simnet"
	"followscent/internal/wire"
	"followscent/internal/zmap"
)

// Campaign fixture shared by the distributed tests: a small daily-
// rotating pool so the multi-day corpus actually exercises the
// coordinator's day/clock progression, loss- and rate-limit-free so
// results are a pure function of probe bytes.
const (
	campSeed   = 4242
	campSalt   = 17
	campDays   = 3
	campShards = 4
	campTTL    = 400 * time.Millisecond
)

var campPrefixes = []string{"2001:db8:50::/56"}

func campWorld(seed uint64) *simnet.World {
	return simnet.MustBuild(simnet.WorldSpec{
		Seed: seed,
		Providers: []simnet.ProviderSpec{{
			ASN: 65051, Name: "LeaseNet", Country: "DE",
			Allocations:    []string{"2001:db8::/32"},
			BorderRespProb: 0.3,
			Pools: []simnet.PoolSpec{{
				Prefix: "2001:db8:50::/56", AllocBits: 64,
				Rotation:  simnet.Daily(),
				Occupancy: 0.5, EUIFrac: 1,
			}},
		}},
	})
}

func corpusBytes(t *testing.T, c *core.Corpus) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceCorpus is the determinism oracle: the uninterrupted
// single-node core.Campaign over a fresh same-seed world, serialized.
func referenceCorpus(t *testing.T) []byte {
	t.Helper()
	w := campWorld(9)
	corpus := core.NewCorpus(w.RIB())
	camp := &core.Campaign{
		Scanner: &zmap.Scanner{
			NewTransport: func() (zmap.Transport, error) { return zmap.NewLoopback(w, 0), nil },
			Config:       zmap.Config{Source: vantage, Seed: campSeed, Workers: 2},
		},
		Corpus:   corpus,
		Prefixes: []ip6.Prefix{ip6.MustParsePrefix(campPrefixes[0])},
		Days:     campDays,
		Salt:     campSalt,
		Wait:     func(d time.Duration) { w.Clock().Advance(d) },
	}
	if err := camp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return corpusBytes(t, corpus)
}

type coordRun struct {
	coord    *campaign.Coordinator
	corpus   []byte
	results  int
	nodeErrs []error
}

// dialFactory is a healthy node's transport builder against the shared
// UDP world.
func dialFactory(addr string) func(day, shard int) zmap.TransportFactory {
	return func(int, int) zmap.TransportFactory {
		return func(int) (zmap.Transport, error) { return zmap.DialUDP(addr) }
	}
}

// dyingFactory injects transports that die after 5 sends — the node
// fails mid-shard on its first lease.
func dyingFactory(addr string) func(day, shard int) zmap.TransportFactory {
	return func(int, int) zmap.TransportFactory {
		return func(w int) (zmap.Transport, error) {
			tr, err := zmap.DialUDP(addr)
			if err != nil {
				return nil, err
			}
			return zmap.NewFaultTransport(tr, zmap.FaultPlan{DieAfterSends: 5}, w), nil
		}
	}
}

// runCoordinated drives one distributed campaign: a Coordinator serving
// TCP, the world served over UDP like a real simnetd, and n workers
// built by mkWorker (which may inject faults or wrap contexts). Nodes
// started outside the n slots are counted in others; the coordinator
// stops serving only after they return too, since it answers no request
// sent after it is cancelled.
func runCoordinated(t *testing.T, n int, mkWorker func(i int, worldAddr, coordAddr string) (*campaign.Worker, context.Context), others ...*sync.WaitGroup) *coordRun {
	t.Helper()
	world := campWorld(9)
	conn, err := simnet.ListenUDP(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	sctx, scancel := context.WithCancel(context.Background())
	var swg sync.WaitGroup
	swg.Add(1)
	go func() {
		defer swg.Done()
		world.ServeUDP(sctx, conn, 0)
	}()
	defer func() {
		scancel()
		conn.Close()
		swg.Wait()
	}()

	corpus := core.NewCorpus(world.RIB())
	run := &coordRun{}
	coord := &campaign.Coordinator{
		Spec: campaign.Spec{
			Prefixes: campPrefixes,
			Source:   vantage.String(),
			Seed:     campSeed,
			Salt:     campSalt,
			Days:     campDays,
			Shards:   campShards,
		},
		TTL:  campTTL,
		Wait: func(d time.Duration) { world.Clock().Advance(d) },
		Record: func(day int, results []zmap.Result, probes uint64) error {
			sd := corpus.NewScanDay(day)
			for _, r := range results {
				sd.Record(r.Target, r.From)
			}
			sd.AddProbes(probes)
			sd.Commit()
			run.results += len(results)
			return nil
		},
	}
	run.coord = coord

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cctx, ccancel := context.WithCancel(context.Background())
	defer ccancel()
	runErr := make(chan error, 1)
	go func() { runErr <- coord.Run(cctx, ln) }()

	run.nodeErrs = make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w, wctx := mkWorker(i, conn.LocalAddr().String(), ln.Addr().String())
		wg.Add(1)
		go func(i int, w *campaign.Worker, wctx context.Context) {
			defer wg.Done()
			run.nodeErrs[i] = w.Run(wctx)
		}(i, w, wctx)
	}
	wg.Wait()
	for _, o := range others {
		o.Wait()
	}

	select {
	case <-coord.Finished():
	case err := <-runErr:
		t.Fatalf("coordinator exited before finishing: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("campaign did not finish")
	}
	ccancel()
	if err := <-runErr; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	run.corpus = corpusBytes(t, corpus)
	return run
}

// healthyWorker is the plain node shape shared by the tests.
func healthyWorker(name, worldAddr, coordAddr string) *campaign.Worker {
	return &campaign.Worker{
		Name:         name,
		Addr:         coordAddr,
		NewTransport: dialFactory(worldAddr),
		Config:       zmap.Config{Workers: 2, Rate: 20000, Cooldown: 250 * time.Millisecond},
		Poll:         25 * time.Millisecond,
	}
}

// TestCoordinatedCampaignByteIdentical is the ROADMAP determinism
// contract: an N-node campaign over simnetd converges on a corpus
// byte-identical to the single-node core.Campaign run, for 1, 2 and 4
// nodes.
func TestCoordinatedCampaignByteIdentical(t *testing.T) {
	ref := referenceCorpus(t)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("nodes=%d", n), func(t *testing.T) {
			run := runCoordinated(t, n, func(i int, worldAddr, coordAddr string) (*campaign.Worker, context.Context) {
				return healthyWorker(fmt.Sprintf("n%d", i), worldAddr, coordAddr), context.Background()
			})
			for i, err := range run.nodeErrs {
				if err != nil {
					t.Fatalf("node %d: %v", i, err)
				}
			}
			if run.results == 0 {
				t.Fatal("campaign merged no results")
			}
			if !bytes.Equal(run.corpus, ref) {
				t.Fatalf("distributed corpus (%d bytes) differs from single-node reference (%d bytes)",
					len(run.corpus), len(ref))
			}
		})
	}
}

// TestCoordinatedCampaignNodeKill kills one of three nodes mid-shard
// (hard death: AbortAll, no checkpoint). Its lease lapses, the shard
// re-issues, the replacement re-scans it in full, and the corpus still
// equals the uninterrupted single-node run.
func TestCoordinatedCampaignNodeKill(t *testing.T) {
	ref := referenceCorpus(t)
	run := runCoordinated(t, 3, func(i int, worldAddr, coordAddr string) (*campaign.Worker, context.Context) {
		w := healthyWorker(fmt.Sprintf("n%d", i), worldAddr, coordAddr)
		if i == 0 {
			w.NewTransport = dyingFactory(worldAddr)
		}
		return w, context.Background()
	})
	if run.nodeErrs[0] == nil {
		t.Error("dying node reported no error")
	}
	if run.nodeErrs[1] != nil || run.nodeErrs[2] != nil {
		t.Fatalf("surviving nodes errored: %v, %v", run.nodeErrs[1], run.nodeErrs[2])
	}
	if run.coord.Reissues() == 0 {
		t.Error("dead node's lease was never re-issued")
	}
	if !bytes.Equal(run.corpus, ref) {
		t.Fatal("corpus after node kill differs from single-node reference")
	}
}

// TestWorkerKillAndRestart cancels one worker mid-campaign and starts a
// replacement — the scent-work restart story. The campaign converges
// and the corpus equals the reference.
func TestWorkerKillAndRestart(t *testing.T) {
	ref := referenceCorpus(t)
	var restartWG sync.WaitGroup
	var restartErr error
	run := runCoordinated(t, 2, func(i int, worldAddr, coordAddr string) (*campaign.Worker, context.Context) {
		w := healthyWorker(fmt.Sprintf("n%d", i), worldAddr, coordAddr)
		if i != 1 {
			return w, context.Background()
		}
		// Node n1 is killed ~700ms in; its replacement n1b starts right
		// after and re-learns the campaign from its first grant.
		wctx, kill := context.WithCancel(context.Background())
		restartWG.Add(1)
		time.AfterFunc(700*time.Millisecond, func() {
			kill()
			go func() {
				defer restartWG.Done()
				nb := healthyWorker("n1b", worldAddr, coordAddr)
				restartErr = nb.Run(context.Background())
			}()
		})
		return w, wctx
	}, &restartWG)
	if run.nodeErrs[0] != nil {
		t.Fatalf("surviving node errored: %v", run.nodeErrs[0])
	}
	if run.nodeErrs[1] != nil && !errors.Is(run.nodeErrs[1], context.Canceled) {
		t.Fatalf("killed node returned %v, want nil or context.Canceled", run.nodeErrs[1])
	}
	if restartErr != nil {
		t.Fatalf("restarted node errored: %v", restartErr)
	}
	if !bytes.Equal(run.corpus, ref) {
		t.Fatal("corpus after worker kill-and-restart differs from single-node reference")
	}
}

// TestCoordinatorRefusesHostileRequests sends one campaign the requests
// an honest worker never makes, before any honest node starts. A raw
// client leases a shard, then tries to deposit a "fully scanned"
// checkpoint and release it (an op the protocol lacks), to smuggle a
// forged result in front of a malformed one, to stream under a fenced
// epoch and for a shard it does not hold, and to replay a genuine
// batch. Then it goes silent, so its lease lapses and the shard is
// re-issued in full. Every answer is checked, and the corpus must
// still equal the single-node reference.
func TestCoordinatorRefusesHostileRequests(t *testing.T) {
	ref := referenceCorpus(t)
	forged := campaign.WireResult{Target: "2001:db8:50:1::1", From: "2001:db8:50:1:211:22ff:fe33:4455", Type: 129}
	run := runCoordinated(t, 2, func(i int, worldAddr, coordAddr string) (*campaign.Worker, context.Context) {
		if i == 0 {
			hostileClient(t, coordAddr, forged)
		}
		return healthyWorker(fmt.Sprintf("n%d", i), worldAddr, coordAddr), context.Background()
	})
	for i, err := range run.nodeErrs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	if run.coord.Reissues() == 0 {
		t.Error("the silent client's shard was never re-issued")
	}
	if !bytes.Equal(run.corpus, ref) {
		if bytes.Contains(run.corpus, []byte(forged.From)) {
			t.Error("a result from a refused batch was merged")
		}
		t.Fatalf("corpus after hostile requests (%d bytes) differs from single-node reference (%d bytes)",
			len(run.corpus), len(ref))
	}
}

// hostileClient runs the hostile request sequence against the
// coordinator at addr and asserts each answer. It returns holding a
// lease it will never renew.
func hostileClient(t *testing.T, addr string, forged campaign.WireResult) {
	t.Helper()
	cl, err := campaign.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	do := func(req campaign.Request) campaign.Response {
		t.Helper()
		resp, err := cl.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	grant := do(campaign.Request{Op: "lease", Node: "hostile"})
	if grant.Status != campaign.StatusGranted || grant.Spec == nil {
		t.Fatalf("lease = %+v, want a grant with a spec", grant)
	}
	held := campaign.Request{Node: "hostile", Day: grant.Day, Shard: grant.Shard, Epoch: grant.Epoch}
	ts, cfg, err := grant.Spec.Build()
	if err != nil {
		t.Fatal(err)
	}

	// A deposit claiming every position scanned, with release: were it
	// honoured, the successor would resume past the whole shard.
	type deposit struct {
		campaign.Request
		Checkpoint *zmap.Checkpoint `json:"checkpoint"`
		Release    bool             `json:"release"`
	}
	dc, err := wire.Dial[deposit, campaign.Response](addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	dep := deposit{Request: held, Release: true, Checkpoint: &zmap.Checkpoint{
		Version: 2, Seed: cfg.Seed, Shard: grant.Shard, Shards: cfg.Shards,
		Workers: 2, Multiplier: 1, Marks: []uint64{ts.Len(), ts.Len()},
	}}
	dep.Op = "checkpoint"
	if resp, err := dc.Do(dep); err != nil {
		t.Fatal(err)
	} else if resp.OK || !strings.Contains(resp.Error, `unknown op "checkpoint"`) {
		t.Errorf("checkpoint deposit answered %+v, want the unknown-op error", resp)
	}

	// A batch with one malformed result is refused whole: the forged
	// result ahead of it must not be merged.
	req := held
	req.Op = "result"
	req.Results = []campaign.WireResult{forged, {Target: "not-an-address", From: forged.From, Type: 129}}
	if resp := do(req); resp.OK || resp.Error == "" {
		t.Errorf("malformed batch answered %+v, want an error", resp)
	}

	// Results under a fenced epoch or for an unheld shard are lost.
	req.Results = []campaign.WireResult{forged}
	req.Epoch = grant.Epoch + 1
	if resp := do(req); resp.Status != campaign.StatusLost {
		t.Errorf("result under epoch+1 answered %+v, want %q", resp, campaign.StatusLost)
	}
	req.Epoch = grant.Epoch
	req.Shard = (grant.Shard + 1) % cfg.Shards
	if resp := do(req); resp.Status != campaign.StatusLost {
		t.Errorf("result for an unheld shard answered %+v, want %q", resp, campaign.StatusLost)
	}

	// A genuine batch sent twice is absorbed by the merge dedupe. It
	// is half of the shard's own day-0 scan over a same-seed world
	// replica, so the day stays short unless the shard's next holder
	// scans it whole.
	world := campWorld(9)
	cfg.Shard, cfg.Workers = grant.Shard, 2
	req = held
	req.Op = "result"
	if _, err := zmap.ScanSource(context.Background(), func(int) (zmap.Transport, error) {
		return zmap.NewLoopback(world, 0), nil
	}, zmap.NewPermutedSource(ts), cfg, func(r zmap.Result) {
		req.Results = append(req.Results, campaign.ToWire(r))
	}); err != nil {
		t.Fatal(err)
	}
	if len(req.Results) < 2 {
		t.Fatal("the genuine scan found too little to replay")
	}
	req.Results = req.Results[:len(req.Results)/2]
	for range 2 {
		if resp := do(req); resp.Status != campaign.StatusOK {
			t.Errorf("genuine batch answered %+v, want %q", resp, campaign.StatusOK)
		}
	}
}
