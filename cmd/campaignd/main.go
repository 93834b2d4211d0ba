// Command campaignd coordinates one distributed measurement campaign:
// it grants epoch-fenced shard leases to scanner nodes (scent work)
// over the length-prefixed JSON protocol, merges their streamed results
// with cross-shard dedupe, re-issues the leases of dead nodes, and
// records each finalized day into a corpus — one scan, many scanners,
// byte-identical to the single-node run.
//
// Usage:
//
//	campaignd [-listen 127.0.0.1:4793] [-seed 42] [-world default|test]
//	          [-prefix P[,Q,...]] [-days N] [-shards N] [-ttl D]
//	          [-epoch N] [-out campaign.corpus]
//
// The daemon never probes: it builds the same in-process world the
// nodes use only to resolve the campaign prefixes (seed+discovery,
// deterministic per -seed) and to attribute results against the BGP
// table. Scanner nodes probe their own worlds — in-process replicas
// started with the same -seed and -world, or a shared simnetd whose
// clock each node sets to the granted day before it scans. After
// the last day the finished corpus is written to -out and the daemon
// keeps answering lease asks with done-status until interrupted, so
// late-polling nodes shut down cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"time"

	"followscent/internal/campaign"
	"followscent/internal/core"
	"followscent/internal/experiments"
	"followscent/internal/zmap"
)

type options struct {
	listen   string
	seed     uint64
	world    string
	prefixes string
	days     int
	shards   int
	ttl      time.Duration
	epoch    uint64
	out      string
}

// campaigndFlags registers every daemon flag — the single source of
// truth the docs-drift test holds README.md's campaignd section
// against.
func campaigndFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.listen, "listen", "127.0.0.1:4793", "TCP listen address for the lease protocol")
	fs.Uint64Var(&o.seed, "seed", 42, "simulated world seed (nodes must use the same)")
	fs.StringVar(&o.world, "world", "default", "in-process world: default or test")
	fs.StringVar(&o.prefixes, "prefix", "", "comma-separated campaign prefixes (default: run seed+discovery)")
	fs.IntVar(&o.days, "days", 7, "campaign length in days")
	fs.IntVar(&o.shards, "shards", 8, "shards per day (the unit of lease granularity and node loss)")
	fs.DurationVar(&o.ttl, "ttl", 10*time.Second, "lease TTL: a node silent this long forfeits its shard")
	fs.Uint64Var(&o.epoch, "epoch", 0, "epoch fence base; a successor of a dead coordinator must pass a value above every epoch it issued")
	fs.StringVar(&o.out, "out", "campaign.corpus", "write the finished corpus here")
	return o
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("campaignd: ")
	o := campaigndFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, o); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, o *options) error {
	coord, corpus, npfx, err := buildCoordinator(ctx, o)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	fmt.Printf("campaignd: coordinating %d prefixes x %d days over %d shards on %s (ttl %v, seed %d, world %s)\n",
		npfx, o.days, o.shards, ln.Addr(), o.ttl, o.seed, o.world)
	return serve(ctx, o, coord, corpus, ln)
}

// buildCoordinator assembles the campaign: local world, resolved
// prefixes, a corpus accumulating the finalized days, and the
// coordinator wired to record into it.
func buildCoordinator(ctx context.Context, o *options) (*campaign.Coordinator, *core.Corpus, int, error) {
	env, err := buildEnv(o.seed, o.world)
	if err != nil {
		return nil, nil, 0, err
	}
	prefixes, err := experiments.CampaignPrefixes(ctx, env, o.prefixes, log.Printf)
	if err != nil {
		return nil, nil, 0, err
	}
	specPrefixes := make([]string, len(prefixes))
	for i, p := range prefixes {
		specPrefixes[i] = p.String()
	}

	// The salt matches experiments.Study's campaign default, and the
	// seed is the env-derived scanner seed: nodes probe the exact target
	// sequence `scent campaign` and scentd's ingestion would.
	corpus := core.NewCorpus(env.World.RIB())
	coord := &campaign.Coordinator{
		Spec: campaign.Spec{
			Prefixes: specPrefixes,
			Source:   env.Scanner.Config.Source.String(),
			Seed:     env.Scanner.Config.Seed,
			Salt:     experiments.DefaultCampaignSalt,
			Days:     o.days,
			Shards:   o.shards,
		},
		TTL:       o.ttl,
		EpochBase: o.epoch,
		Wait:      env.Wait, // keep the local attribution world aligned
		Record: func(day int, results []zmap.Result, probes uint64) error {
			sd := corpus.NewScanDay(day)
			for _, r := range results {
				sd.Record(r.Target, r.From)
			}
			sd.AddProbes(probes)
			sd.Commit()
			log.Printf("day %2d committed: %d results, %d probes", day, len(results), probes)
			return nil
		},
		Logf: log.Printf,
	}
	return coord, corpus, len(prefixes), nil
}

// serve runs the campaign on ln until it finishes, saves the corpus,
// and keeps answering lease asks with done-status until ctx is
// cancelled (SIGINT) so late-polling nodes shut down cleanly.
func serve(ctx context.Context, o *options, coord *campaign.Coordinator, corpus *core.Corpus, ln net.Listener) error {
	runErr := make(chan error, 1)
	go func() { runErr <- coord.Run(ctx, ln) }()

	select {
	case <-coord.Finished():
	case err := <-runErr:
		if err == nil {
			err = fmt.Errorf("coordinator exited before the campaign finished")
		}
		return err
	}
	if err := writeCorpus(o.out, corpus); err != nil {
		// The campaign itself succeeded; keep serving so nodes drain,
		// but report the save failure.
		log.Printf("saving corpus: %v", err)
	} else {
		log.Printf("campaign finished: corpus written to %s (%d re-issues, %d duplicate results absorbed)",
			o.out, coord.Reissues(), coord.Dupes())
	}
	log.Printf("serving done-status to polling nodes until interrupted")
	return <-runErr
}

func writeCorpus(path string, c *core.Corpus) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildEnv builds the local world the daemon uses for discovery and
// result attribution. The coordinator never probes a remote simnetd —
// the scanner nodes do — so unlike scent/scentd there is no -server
// here.
func buildEnv(seedVal uint64, kind string) (*experiments.Env, error) {
	return experiments.BuildEnv(seedVal, kind, "")
}
