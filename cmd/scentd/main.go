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
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"time"

	"followscent/internal/core"
	"followscent/internal/experiments"
	"followscent/internal/scentd"
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
	fs.BoolVar(&o.track, "track", false, "enable op=track live tracking, each request on a dedicated same-seed world (refused with -server)")
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

// errTrackServer refuses -track with -server: a track scans a world
// replica of its own, and a simnetd's one world is ingestion's.
var errTrackServer = errors.New("scentd: -track needs the in-process world; it cannot be combined with -server")

func run(ctx context.Context, o *options) error {
	if o.track && o.server != "" {
		return errTrackServer
	}
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
		srv.Track = trackBackend(o)
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

// ingest brings the store up to o.days ingested days with the same
// core.Campaign `scent campaign` runs, so the resulting corpus is
// bit-for-bit the batch one; the store's Commit journals and publishes
// each day. A store already holding days resumes after the last one.
func ingest(ctx context.Context, env *experiments.Env, store *scentd.Store, o *options, have []int) error {
	next := 0
	if len(have) > 0 {
		next = have[len(have)-1] + 1
	}
	if o.days <= next {
		return nil // nothing left to ingest
	}
	prefixes, err := experiments.CampaignPrefixes(ctx, env, o.prefixes, log.Printf)
	if err != nil {
		return err
	}
	camp := core.Campaign{
		Scanner:  env.Scanner,
		Corpus:   store.Corpus(),
		Prefixes: prefixes,
		Days:     o.days,
		Wait:     env.Wait,
		Salt:     experiments.DefaultCampaignSalt,
		Logf:     log.Printf,
		Commit:   store.Commit,
	}
	if err := camp.Run(ctx); err != nil && ctx.Err() == nil {
		return err
	}
	return nil // done, or interrupted: committed days are durable
}

// trackBackend wires op=track. The world is deterministic per seed, so
// every request gets a dedicated session: a fresh same-seed replica
// with its clock advanced to the serving snapshot's last committed day
// — tracks run concurrently, off their own clocks, and never perturb
// the ingestion clock.
func trackBackend(o *options) *scentd.TrackBackend {
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
