// Command scentd serves the corpus as tracking-as-a-service: it ingests
// a live measurement campaign day by day into a journal-backed store
// and simultaneously answers client queries (scent query, or anything
// speaking the length-prefixed JSON protocol) with snapshot isolation —
// every answer reflects a committed-day boundary, never a half-ingested
// scan.
//
// Usage:
//
//	scentd [-listen 127.0.0.1:4792] [-store scent.corpus] [-seed 42]
//	       [-world default|test] [-server host:port] [-workers N]
//	       [-days N] [-prefix P[,Q,...]] [-track]
//
// The daemon scans the simulated Internet in-process (or a remote
// simnetd with -server), exactly as `scent campaign` would: same seed,
// same salts, same probe order. Killing it and restarting over the same
// -store resumes at the first unjournaled day and converges on the
// corpus an uninterrupted run would have built — the journal's commit
// boundaries are the only durable states.
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

	"followscent/internal/core"
	"followscent/internal/experiments"
	"followscent/internal/ip6"
	"followscent/internal/scentd"
	"followscent/internal/zmap"
)

type options struct {
	listen   string
	store    string
	seed     uint64
	world    string
	server   string
	workers  int
	days     int
	prefixes string
	track    bool
}

// scentdFlags registers every daemon flag — the single source of truth
// the docs-drift test holds README.md's scentd section against.
func scentdFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.listen, "listen", "127.0.0.1:4792", "TCP listen address for the query API")
	fs.StringVar(&o.store, "store", "scent.corpus", "journal-backed corpus store path (created if missing)")
	fs.Uint64Var(&o.seed, "seed", 42, "simulated world seed")
	fs.StringVar(&o.world, "world", "default", "in-process world: default or test")
	fs.StringVar(&o.server, "server", "", "probe a simnetd at host:port instead of in-process")
	fs.IntVar(&o.workers, "workers", 0, "scan workers per pass (0 = GOMAXPROCS)")
	fs.IntVar(&o.days, "days", 7, "campaign length in days (0 = serve the stored corpus, no ingestion)")
	fs.StringVar(&o.prefixes, "prefix", "", "comma-separated campaign prefixes (default: run seed+discovery)")
	fs.BoolVar(&o.track, "track", false, "enable op=track live tracking (dedicated per-request worlds in-process; with -server, tracks share the one Internet and serialize)")
	return o
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("scentd: ")
	o := scentdFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, o); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, o *options) error {
	env, err := experiments.BuildEnv(o.seed, o.world, o.server)
	if err != nil {
		return err
	}
	if o.server != "" {
		fmt.Printf("probing %s over UDP (run simnetd with -seed %d -world %s)\n", o.server, o.seed, o.world)
	}
	env.Scanner.Config.Workers = o.workers

	store, err := scentd.OpenStore(o.store, env.World.RIB())
	if err != nil {
		return err
	}
	defer store.Close()

	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	srv := &scentd.Server{Store: store, Logf: log.Printf}
	if o.track {
		srv.Track = trackBackend(env, o)
	}
	serveCtx, stopServe := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(serveCtx, ln) }()

	have := store.Corpus().Days()
	fmt.Printf("scentd: serving %s (%d days, %d devices) on %s\n",
		o.store, len(have), store.Snapshot().NumIIDs(), ln.Addr())

	if err := ingest(ctx, env, store, o, have); err != nil {
		stopServe()
		<-serveErr
		return err
	}

	// Ingestion done (or disabled): keep serving until interrupted.
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		stopServe()
		return err
	}
	stopServe()
	return <-serveErr
}

// ingest brings the store up to o.days ingested days, scanning exactly
// as `scent campaign` does so the resulting corpus is bit-for-bit the
// batch one. A store already holding days resumes after the last one,
// with the virtual clock advanced to where the uninterrupted run would
// stand.
func ingest(ctx context.Context, env *experiments.Env, store *scentd.Store, o *options, have []int) error {
	startDay := 0
	if len(have) > 0 {
		startDay = have[len(have)-1] + 1
	}
	if o.days <= startDay {
		return nil
	}
	prefixes, err := experiments.CampaignPrefixes(ctx, env, o.prefixes, log.Printf)
	if err != nil {
		return err
	}
	// The campaign salt and target set match experiments.Study's
	// defaults: identical targets, identical probe order, every day.
	salt := experiments.DefaultCampaignSalt
	ts, err := zmap.NewSubnetTargets(prefixes, 64, salt)
	if err != nil {
		return err
	}
	env.Wait(time.Duration(startDay) * 24 * time.Hour)
	for day := startDay; day < o.days; day++ {
		if ctx.Err() != nil {
			return nil // interrupted: committed days are durable
		}
		err := store.IngestScanDay(day, func(record func(target, from ip6.Addr)) (uint64, error) {
			stats, err := env.Scanner.Scan(ctx, ts, salt, func(r zmap.Result) {
				record(r.Target, r.From)
			})
			return stats.Sent, err
		})
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		snap := store.Snapshot()
		log.Printf("day %2d committed: %d devices over %d days", day, snap.NumIIDs(), len(snap.Days()))
		if day != o.days-1 {
			env.Wait(24 * time.Hour)
		}
	}
	return nil
}

// trackBackend wires op=track. An in-process world is deterministic per
// seed, so every request gets a dedicated session: a fresh same-seed
// replica with its clock advanced to the serving snapshot's last
// committed day — tracks run concurrently, off their own clocks, and
// never perturb the ingestion clock. A -server world is one shared
// Internet that cannot be replicated, so the legacy shared-environment
// path serializes tracks on it (and interleaves their probes with
// ingestion — combine with care).
func trackBackend(env *experiments.Env, o *options) *scentd.TrackBackend {
	if o.server != "" {
		return &scentd.TrackBackend{
			Scanner: env.Scanner,
			RIB:     env.World.RIB(),
			Wait:    env.Wait,
		}
	}
	return &scentd.TrackBackend{
		NewSession: func(snap *core.Snapshot) (*scentd.TrackSession, error) {
			senv, err := experiments.BuildEnv(o.seed, o.world, "")
			if err != nil {
				return nil, err
			}
			senv.Scanner.Config.Workers = o.workers
			if days := snap.Days(); len(days) > 0 {
				// "Today" is the last committed day: the address the
				// snapshot last saw the device at is current there.
				senv.Wait(time.Duration(days[len(days)-1]) * 24 * time.Hour)
			}
			return &scentd.TrackSession{
				Scanner: senv.Scanner,
				RIB:     senv.World.RIB(),
				Wait:    senv.Wait,
			}, nil
		},
	}
}
