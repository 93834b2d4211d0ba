// Command scent is the operator CLI for the prefix-rotation measurement
// toolkit: seed generation, rotating-prefix discovery, allocation grids,
// longitudinal campaigns and targeted device tracking — the paper's §3-§6
// as subcommands.
//
// By default every subcommand runs against an in-process simulated
// Internet (deterministic under -seed). With -server host:port it speaks
// ICMPv6-in-UDP to a simnetd instead, exercising the full wire path.
//
// Usage:
//
//	scent [global flags] <command> [command flags]
//
// Commands:
//
//	seed      run the traceroute seed campaign and print its records
//	discover  run the §4 pipeline and print Table 1
//	grid      scan one /48's allocation grid (Figure 3)
//	campaign  run the §5 daily campaign and print the headline analyses
//	work      join a distributed campaign as a scanner node, leasing
//	          shards from a campaignd
//	track     track one EUI-64 address for a week (§6)
//	trace     yarrp-style hop-limit sweep of a prefix (§3.1 baseline)
//	tcp       TCP-SYN-to-closed-port sweep of a prefix (RST-bearing edges)
//	ndp       solicit addresses or OUI-synthesized EUI-64 candidates
//	          on-link (NDP ground truth)
//	mld       MLD listener discovery: one General Query per delegation
//	          link, full addresses from reports — no guessing
//	snowball  adaptive coarse-then-refine discovery of a prefix set,
//	          or (with -learn-oui) the on-link vendor-learning loop
//	query     ask a running scentd: corpus stats, device lookups,
//	          prefix histories, vendor censuses, pool inferences,
//	          live tracking
//	experiment
//	          run the modality × defense evaluation matrix over the
//	          embedded defense worlds, emit it as JSON
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"followscent/internal/campaign"
	"followscent/internal/core"
	"followscent/internal/experiments"
	"followscent/internal/icmp6"
	"followscent/internal/ip6"
	"followscent/internal/oui"
	"followscent/internal/scentd"
	"followscent/internal/seed"
	"followscent/internal/yarrp"
	"followscent/internal/zmap"
)

// usageText is the complete CLI synopsis. The docs-drift test asserts
// it (and README.md's command reference) names every command and flag
// cliFlagSets registers — edit them together.
const usageText = `usage: scent [-seed N] [-world default|test] [-server host:port] [-workers N]
             [-batch N] [-checkpoint FILE] [-resume FILE] <command> [args]

commands:
  seed                      run the stale traceroute seed campaign
  discover [-seeds FILE]    run the discovery pipeline, print Table 1
  grid -prefix P            allocation grid of a /48 (ASCII)
  campaign [-days N]        run the daily campaign, print analyses
  work [-coordinator host:port] [-name ID] [-poll D]
                            join a distributed campaign as one scanner
                            node: lease shards from a campaignd, scan
                            them through the local engine, stream the
                            results back. -poll sets the wait between
                            lease asks. A killed node, or one whose
                            transport dies, just stops renewing: its
                            shard is re-issued in full — restart it
                            (same or new -name) and the campaign
                            converges on the same corpus
  track -addr A [-days N] [-alloc B] [-pool B]
                            track an EUI-64 address across rotations
  trace -prefix P [-max-ttl N] [-sub B]
                            hop-limit sweep of one random target per /B
                            sub-prefix (the paper's §3.1 yarrp baseline)
  tcp -prefix P [-sub B] [-ports N] [-base-port B]
                            TCP-SYN-to-closed-port sweep: RSTs from live
                            hosts, periphery errors from vacant space
  ndp -addr A[,B,...] | -prefix P [-sub B] [-oui O[,O,...]] [-span N]
                            solicit addresses as an on-link vantage:
                            either an explicit list, or EUI-64
                            candidates synthesized from vendor OUIs
                            across a prefix (N MAC suffixes per OUI per
                            /B sub-prefix) — occupied addresses
                            advertise themselves, even when they
                            filter ICMP
  mld -prefix P [-sub B]    multicast listener discovery as an on-link
                            vantage: one MLD General Query per /B
                            delegation link — every listener reports
                            its full address, ICMP-silent devices
                            included, with nothing guessed
  snowball -prefix P[,Q,...] [-coarse B] [-fine B] [-step B] [-rounds N]
           [-budget N] [-learn-oui [-seed-links N] [-learn-span N]]
                            adaptive discovery: sample each /B-coarse
                            sub-prefix once, then follow the scent into
                            the responsive blocks round by round down
                            to the /B-fine delegation floor. With
                            -learn-oui: the on-link vendor loop instead
                            — MLD-seed N links, learn each confirmed
                            device's vendor OUI, sweep the vendor's
                            N-suffix neighborhood across every /B-fine
                            delegation via NDP, within the probe budget
  experiment [-days N] [-out FILE]
                            run the modality x defense evaluation
                            matrix: every probe modality against every
                            embedded defense world at two probe
                            budgets, plus tracking and abuse-blocking
                            rows (-days sets the blocking horizon),
                            emitted as JSON to -out (default stdout).
                            Worlds carry their own seeds — the global
                            -seed overrides them only when passed
                            explicitly — and -workers applies; the
                            other global flags are ignored
  query -op OP [-connect host:port] [-addr A] [-iid I] [-prefix P]
        [-days N] [-salt N]
                            ask a running scentd. Ops: stats (corpus
                            headline numbers), lookup -addr (device
                            behind an observed address), prefixes -iid
                            (every /64 the IID held), vendors [-prefix]
                            (OUI census, optionally one pool), pools
                            (per-AS allocation/pool inferences), track
                            -addr [-days] [-salt] (live §6 tracking).
                            Answers carry the serving snapshot's day
                            set; query needs no world and ignores the
                            other global flags

wire path:
  -batch N           move N probes per wire operation (vectored
                     sendmmsg/recvmmsg against a -server; the in-process
                     world loops). Results are byte-identical to -batch 0
                     — only the syscall count changes

fault tolerance (single-pass scans: tcp, ndp, mld):
  -checkpoint FILE   arm quarantine-on-worker-death and, on partial
                     completion or SIGINT, write a resume checkpoint
  -resume FILE       skip everything a previous run's checkpoint covers
                     (same seed, shard and -workers required)

exit codes:
  0  clean completion        2  usage error
  1  hard failure            3  partial results, checkpoint written
`

func usage() {
	fmt.Fprint(os.Stderr, usageText)
	os.Exit(2)
}

// Flag construction ---------------------------------------------------------
//
// Every subcommand builds its FlagSet through a named constructor, and
// cliFlagSets indexes them all: one source of truth shared by the runX
// functions, usageText above, and the docs-drift test that keeps
// README.md's command reference honest.

type globalOpts struct {
	seed       uint64
	world      string
	server     string
	workers    int
	batch      int
	checkpoint string
	resume     string
}

func globalFlags(fs *flag.FlagSet) *globalOpts {
	o := &globalOpts{}
	fs.Uint64Var(&o.seed, "seed", 42, "simulated world seed")
	fs.StringVar(&o.world, "world", "default", "in-process world: default or test")
	fs.StringVar(&o.server, "server", "", "probe a simnetd at host:port instead of in-process")
	fs.IntVar(&o.workers, "workers", 0, "scan workers per pass (0 = GOMAXPROCS); each owns its own transport")
	fs.IntVar(&o.batch, "batch", 0, "probes per wire operation (vectored I/O; 0/1 = one per syscall, results identical)")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "write a resume checkpoint here on partial completion or SIGINT (tcp/ndp/mld)")
	fs.StringVar(&o.resume, "resume", "", "resume a tcp/ndp/mld scan from a checkpoint written by -checkpoint")
	return o
}

type discoverOpts struct{ seeds string }

func discoverFlags() (*flag.FlagSet, *discoverOpts) {
	o := &discoverOpts{}
	fs := flag.NewFlagSet("discover", flag.ExitOnError)
	fs.StringVar(&o.seeds, "seeds", "", "seed records file (default: generate)")
	return fs, o
}

type gridOpts struct{ prefix string }

func gridFlags() (*flag.FlagSet, *gridOpts) {
	o := &gridOpts{}
	fs := flag.NewFlagSet("grid", flag.ExitOnError)
	fs.StringVar(&o.prefix, "prefix", "", "the /48 to scan (required)")
	return fs, o
}

type campaignOpts struct{ days int }

func campaignFlags() (*flag.FlagSet, *campaignOpts) {
	o := &campaignOpts{}
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	fs.IntVar(&o.days, "days", 7, "campaign length in days")
	return fs, o
}

type workOpts struct {
	coordinator string
	name        string
	poll        time.Duration
}

func workFlags() (*flag.FlagSet, *workOpts) {
	o := &workOpts{}
	fs := flag.NewFlagSet("work", flag.ExitOnError)
	fs.StringVar(&o.coordinator, "coordinator", "127.0.0.1:4793", "campaignd address")
	fs.StringVar(&o.name, "name", "", "node name in the coordinator's lease table (default: host-pid)")
	fs.DurationVar(&o.poll, "poll", time.Second, "wait between lease asks when no shard is free")
	return fs, o
}

type trackOpts struct {
	addr      string
	days      int
	allocBits int
	poolBits  int
}

func trackFlags() (*flag.FlagSet, *trackOpts) {
	o := &trackOpts{}
	fs := flag.NewFlagSet("track", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", "", "current EUI-64 address of the device (required)")
	fs.IntVar(&o.days, "days", 7, "tracking days")
	fs.IntVar(&o.allocBits, "alloc", 0, "known allocation size (0 = assume /64)")
	fs.IntVar(&o.poolBits, "pool", 0, "known rotation pool size (0 = whole advertisement)")
	return fs, o
}

type traceOpts struct {
	prefix  string
	subBits int
	maxTTL  int
}

func traceFlags() (*flag.FlagSet, *traceOpts) {
	o := &traceOpts{}
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	fs.StringVar(&o.prefix, "prefix", "", "prefix to sweep (required)")
	fs.IntVar(&o.subBits, "sub", 56, "probe one random target per sub-prefix of this length")
	fs.IntVar(&o.maxTTL, "max-ttl", 16, "hop-limit sweep depth")
	return fs, o
}

type tcpOpts struct {
	prefix   string
	subBits  int
	ports    int
	basePort int
}

func tcpFlags() (*flag.FlagSet, *tcpOpts) {
	o := &tcpOpts{}
	fs := flag.NewFlagSet("tcp", flag.ExitOnError)
	fs.StringVar(&o.prefix, "prefix", "", "prefix to sweep (required)")
	fs.IntVar(&o.subBits, "sub", 56, "probe one random target per sub-prefix of this length")
	fs.IntVar(&o.ports, "ports", 1, "closed ports swept per target")
	fs.IntVar(&o.basePort, "base-port", zmap.DefaultTCPBasePort, "first destination port of the sweep")
	return fs, o
}

type ndpOpts struct {
	addrs   string
	prefix  string
	subBits int
	ouis    string
	span    int
}

func ndpFlags() (*flag.FlagSet, *ndpOpts) {
	o := &ndpOpts{}
	fs := flag.NewFlagSet("ndp", flag.ExitOnError)
	fs.StringVar(&o.addrs, "addr", "", "comma-separated addresses to solicit")
	fs.StringVar(&o.prefix, "prefix", "", "sweep synthesized EUI-64 candidates across this prefix instead of an explicit list")
	fs.IntVar(&o.subBits, "sub", 64, "candidate delegation granularity within -prefix")
	fs.StringVar(&o.ouis, "oui", "", "comma-separated vendor OUIs to synthesize candidates from (default: every builtin registry OUI)")
	fs.IntVar(&o.span, "span", 256, "MAC suffixes swept per OUI per sub-prefix (the full space is 16777216)")
	return fs, o
}

type mldOpts struct {
	prefix  string
	subBits int
}

func mldFlags() (*flag.FlagSet, *mldOpts) {
	o := &mldOpts{}
	fs := flag.NewFlagSet("mld", flag.ExitOnError)
	fs.StringVar(&o.prefix, "prefix", "", "prefix to sweep (required)")
	fs.IntVar(&o.subBits, "sub", 56, "query one link per delegation of this length")
	return fs, o
}

type snowballOpts struct {
	prefixes  string
	coarse    int
	fine      int
	step      int
	rounds    int
	learnOUI  bool
	seedLinks int
	learnSpan int
	budget    uint64
}

func snowballFlags() (*flag.FlagSet, *snowballOpts) {
	o := &snowballOpts{}
	fs := flag.NewFlagSet("snowball", flag.ExitOnError)
	fs.StringVar(&o.prefixes, "prefix", "", "comma-separated seed prefixes to discover (required)")
	fs.IntVar(&o.coarse, "coarse", 52, "round-0 sampling granularity")
	fs.IntVar(&o.fine, "fine", 56, "refinement floor: the snowball stops descending at this sub-prefix length")
	fs.IntVar(&o.step, "step", 2, "bits descended per refinement round")
	fs.IntVar(&o.rounds, "rounds", 16, "maximum snowball rounds")
	fs.BoolVar(&o.learnOUI, "learn-oui", false, "on-link vendor loop: MLD-seed some links, learn vendors from EUI-64 listeners, sweep their suffix neighborhoods via NDP")
	fs.IntVar(&o.seedLinks, "seed-links", 32, "with -learn-oui: delegation links MLD-queried in round 0")
	fs.IntVar(&o.learnSpan, "learn-span", 64, "with -learn-oui: MAC-suffix window swept around each learned device")
	fs.Uint64Var(&o.budget, "budget", 0, "hard probe budget: rounds that would overshoot are split to fit (0 = unbounded)")
	return fs, o
}

type experimentOpts struct {
	days int
	out  string
}

func experimentFlags() (*flag.FlagSet, *experimentOpts) {
	o := &experimentOpts{}
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	fs.IntVar(&o.days, "days", 8, "abuse-blocking evaluation horizon in days")
	fs.StringVar(&o.out, "out", "", "write the matrix JSON here instead of stdout")
	return fs, o
}

type queryOpts struct {
	connect string
	op      string
	addr    string
	iid     string
	prefix  string
	days    int
	salt    uint64
}

func queryFlags() (*flag.FlagSet, *queryOpts) {
	o := &queryOpts{}
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	fs.StringVar(&o.connect, "connect", "127.0.0.1:4792", "scentd address")
	fs.StringVar(&o.op, "op", "", "query op: stats, lookup, prefixes, vendors, pools or track (required)")
	fs.StringVar(&o.addr, "addr", "", "subject address (lookup, track)")
	fs.StringVar(&o.iid, "iid", "", "subject interface identifier, 16 hex digits (prefixes)")
	fs.StringVar(&o.prefix, "prefix", "", "restrict the vendor census to this pool")
	fs.IntVar(&o.days, "days", 0, "tracking days (track; 0 = server default)")
	fs.Uint64Var(&o.salt, "salt", 0, "tracking probe salt (track; 0 = server default)")
	return fs, o
}

// cliFlagSets returns the exact flag set each subcommand parses, keyed
// by command name.
func cliFlagSets() map[string]*flag.FlagSet {
	discoverFS, _ := discoverFlags()
	gridFS, _ := gridFlags()
	campaignFS, _ := campaignFlags()
	workFS, _ := workFlags()
	trackFS, _ := trackFlags()
	traceFS, _ := traceFlags()
	tcpFS, _ := tcpFlags()
	ndpFS, _ := ndpFlags()
	mldFS, _ := mldFlags()
	snowballFS, _ := snowballFlags()
	queryFS, _ := queryFlags()
	experimentFS, _ := experimentFlags()
	return map[string]*flag.FlagSet{
		"seed":       flag.NewFlagSet("seed", flag.ExitOnError),
		"discover":   discoverFS,
		"grid":       gridFS,
		"campaign":   campaignFS,
		"work":       workFS,
		"track":      trackFS,
		"trace":      traceFS,
		"tcp":        tcpFS,
		"ndp":        ndpFS,
		"mld":        mldFS,
		"snowball":   snowballFS,
		"query":      queryFS,
		"experiment": experimentFS,
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("scent: ")

	g := globalFlags(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}

	// query talks to a scentd, not to a world: no env, no checkpoints.
	if flag.Arg(0) == "query" {
		if g.checkpoint != "" || g.resume != "" {
			log.Fatal("-checkpoint/-resume do not apply to query")
		}
		if err := runQuery(flag.Args()[1:]); err != nil {
			log.Fatal(err)
		}
		return
	}

	// experiment builds its own worlds from the embedded defense specs,
	// each carrying its own seed: no shared env, no checkpoints. The
	// global -seed overrides the spec seeds only when passed explicitly.
	if flag.Arg(0) == "experiment" {
		if g.checkpoint != "" || g.resume != "" {
			log.Fatal("-checkpoint/-resume do not apply to experiment")
		}
		var seedVal uint64
		flag.CommandLine.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedVal = g.seed
			}
		})
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if err := runExperiment(ctx, seedVal, g.workers, flag.Args()[1:]); err != nil {
			log.Fatal(err)
		}
		return
	}

	env, err := buildEnv(g.seed, g.world, g.server)
	if err != nil {
		log.Fatal(err)
	}
	env.Scanner.Config.Workers = g.workers
	env.Scanner.Config.Batch = g.batch
	prog, err := applyCheckpointFlags(env, flag.Arg(0), g.checkpoint, g.resume)
	if err != nil {
		log.Fatal(err)
	}
	// Trap SIGINT so an interrupted scan drains in-flight responses and
	// checkpoints instead of dying mid-packet; a second SIGINT kills.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var cmdErr error
	switch cmd := flag.Arg(0); cmd {
	case "seed":
		cmdErr = runSeed(ctx, env)
	case "discover":
		cmdErr = runDiscover(ctx, env, flag.Args()[1:])
	case "grid":
		cmdErr = runGrid(ctx, env, flag.Args()[1:])
	case "campaign":
		cmdErr = runCampaign(ctx, env, flag.Args()[1:])
	case "work":
		cmdErr = runWork(ctx, env, flag.Args()[1:])
	case "track":
		cmdErr = runTrack(ctx, env, flag.Args()[1:])
	case "trace":
		cmdErr = runTraceSweep(ctx, env, flag.Args()[1:])
	case "tcp":
		cmdErr = runTCPScan(ctx, env, flag.Args()[1:])
	case "ndp":
		cmdErr = runNDP(ctx, env, flag.Args()[1:])
	case "mld":
		cmdErr = runMLD(ctx, env, flag.Args()[1:])
	case "snowball":
		cmdErr = runSnowball(ctx, env, flag.Args()[1:])
	default:
		log.Printf("unknown command %q", cmd)
		usage()
	}
	os.Exit(finish(cmdErr, g.checkpoint, prog))
}

// applyCheckpointFlags wires -checkpoint/-resume into the scanner
// config. Both apply only to the single-pass scan commands — the
// multi-round studies re-derive their target sets per round, so a
// per-worker position checkpoint has nothing stable to index into.
// Returns the progress tracker main snapshots on SIGINT (nil when
// -checkpoint is unset).
func applyCheckpointFlags(env *experiments.Env, cmd, checkpoint, resume string) (*zmap.Progress, error) {
	if checkpoint == "" && resume == "" {
		return nil, nil
	}
	switch cmd {
	case "tcp", "ndp", "mld":
	default:
		return nil, fmt.Errorf("-checkpoint/-resume apply to the single-pass scans (tcp, ndp, mld), not %q", cmd)
	}
	if resume != "" {
		f, err := os.Open(resume)
		if err != nil {
			return nil, err
		}
		cp, err := zmap.ReadCheckpoint(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", resume, err)
		}
		env.Scanner.Config.Resume = cp
	}
	var prog *zmap.Progress
	if checkpoint != "" {
		prog = zmap.NewProgress()
		env.Scanner.Config.Progress = prog
		// A checkpointed run quarantines a dead worker instead of
		// aborting the whole scan: survivors finish their sub-shards and
		// the checkpoint records the casualty's remainder.
		env.Scanner.Config.Failure = zmap.QuarantineWorker{}
	}
	return prog, nil
}

// finish resolves the exit-code contract once a command returns: 0 for
// clean completion, 3 when partial results are backed by a checkpoint
// written to checkpointPath, 1 for hard failures. (Exit code 2 — usage
// errors — is issued by usage() and flag.ExitOnError before any
// command runs.) Results printed so far are valid in every case.
func finish(cmdErr error, checkpointPath string, prog *zmap.Progress) int {
	if cmdErr == nil {
		return 0
	}
	cp := resumableState(cmdErr, prog)
	if checkpointPath == "" || cp == nil {
		log.Print(cmdErr)
		return 1
	}
	if err := writeCheckpointFile(checkpointPath, cp); err != nil {
		log.Print(cmdErr)
		log.Print(err)
		return 1
	}
	log.Printf("%v; checkpoint written (resume with -resume %s)", cmdErr, checkpointPath)
	return 3
}

// resumableState extracts the checkpoint a failed command left behind.
// A quarantine PartialError carries its own; an interrupt snapshots the
// live progress tracker. Anything else is a hard failure.
func resumableState(err error, prog *zmap.Progress) *zmap.Checkpoint {
	var pe *zmap.PartialError
	if errors.As(err, &pe) {
		return pe.Checkpoint
	}
	if errors.Is(err, context.Canceled) && prog != nil {
		if cp, cerr := prog.Checkpoint(); cerr == nil {
			return cp
		}
	}
	return nil
}

func writeCheckpointFile(path string, cp *zmap.Checkpoint) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := zmap.WriteCheckpoint(f, cp); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildEnv assembles the probing environment (experiments.BuildEnv)
// and, for a -server world, reminds that the remote simnetd must run
// with the same -seed and -world for the attribution to line up.
func buildEnv(seedVal uint64, kind, server string) (*experiments.Env, error) {
	env, err := experiments.BuildEnv(seedVal, kind, server)
	if err == nil && server != "" {
		log.Printf("probing %s over UDP (run simnetd with -seed %d -world %s)", server, seedVal, kind)
	}
	return env, err
}

func runSeed(ctx context.Context, env *experiments.Env) error {
	s := &experiments.Study{Env: env, Cfg: experiments.StudyConfig{Logf: log.Printf}}
	if err := s.RunSeed(ctx); err != nil {
		return err
	}
	return seed.Write(os.Stdout, s.SeedRecords)
}

func runDiscover(ctx context.Context, env *experiments.Env, args []string) error {
	fs, o := discoverFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := &experiments.Study{Env: env, Cfg: experiments.StudyConfig{Logf: log.Printf}}
	if o.seeds != "" {
		f, err := os.Open(o.seeds)
		if err != nil {
			return err
		}
		records, err := seed.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		s.SeedRecords = records
		s.SeedEUI48s = seed.EUIPrefixes(records)
	} else if err := s.RunSeed(ctx); err != nil {
		return err
	}
	if err := s.RunDiscovery(ctx); err != nil {
		return err
	}
	if err := s.PipelineRender(os.Stdout); err != nil {
		return err
	}
	return s.Table1Render(5, os.Stdout)
}

func runGrid(ctx context.Context, env *experiments.Env, args []string) error {
	fs, o := gridFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.prefix == "" {
		return fmt.Errorf("grid: -prefix is required")
	}
	p48, err := ip6.ParsePrefix(o.prefix)
	if err != nil {
		return err
	}
	g, err := core.ScanGrid(ctx, env.Scanner, p48, 1)
	if err != nil {
		return err
	}
	return experiments.RenderGrid(g, os.Stdout)
}

func runCampaign(ctx context.Context, env *experiments.Env, args []string) error {
	fs, o := campaignFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := &experiments.Study{Env: env, Cfg: experiments.StudyConfig{
		CampaignDays: o.days,
		Logf:         log.Printf,
	}}
	if err := s.RunAll(ctx); err != nil {
		return err
	}
	if err := s.CampaignRender(os.Stdout); err != nil {
		return err
	}
	if err := s.Fig5Render(os.Stdout); err != nil {
		return err
	}
	if err := s.Fig7Render(os.Stdout); err != nil {
		return err
	}
	if err := s.IntervalRender(os.Stdout); err != nil {
		return err
	}
	return s.Fig4Render(100, os.Stdout)
}

// runWork joins a distributed campaign as one scanner node. The
// campaign contract (targets, seed, salt, shards, TTL) arrives with the
// first lease grant; this side only supplies the node name, its
// transports and the local engine knobs (-workers, -batch, and the
// rate limits buildEnv sets for a -server world).
func runWork(ctx context.Context, env *experiments.Env, args []string) error {
	fs, o := workFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	name := o.name
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "node"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &campaign.Worker{
		Name:   name,
		Addr:   o.coordinator,
		Config: env.Scanner.Config,
		Poll:   o.poll,
		// env.Scanner.NewTransport is the loopback into the in-process
		// world, or the simnetd UDP dialer when -server is set — exactly
		// what the single-node commands scan through. Either way it
		// probes at the replica's clock, which Wait keeps on the day.
		NewTransport: func(int, int) zmap.TransportFactory {
			return func(int) (zmap.Transport, error) { return env.Scanner.NewTransport() }
		},
		Wait: env.Wait,
	}
	log.Printf("node %s: leasing shards from %s", name, o.coordinator)
	return w.Run(ctx)
}

// runTraceSweep exposes the hop-limit-sweep probe module from the CLI:
// the §3.1 yarrp baseline over one prefix, with the same -workers
// parallelism as every other subcommand. Comparing its probe count
// against `discover` (one echo per sub-prefix) is the paper's
// probing-cost ablation, runnable without the benchmark harness.
func runTraceSweep(ctx context.Context, env *experiments.Env, args []string) error {
	fs, o := traceFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.prefix == "" {
		return fmt.Errorf("trace: -prefix is required")
	}
	if o.maxTTL < 1 || o.maxTTL > 255 {
		return fmt.Errorf("trace: -max-ttl %d out of range 1..255", o.maxTTL)
	}
	p, err := ip6.ParsePrefix(o.prefix)
	if err != nil {
		return err
	}
	ts, err := zmap.NewSubnetTargets([]ip6.Prefix{p}, o.subBits, env.Scanner.Config.Seed)
	if err != nil {
		return err
	}
	cfg := env.Scanner.Config
	cfg.Module = yarrp.HopLimitModule{MaxTTL: o.maxTTL}
	col := yarrp.NewCollector()
	st, err := zmap.ScanWorkers(ctx, func(int) (zmap.Transport, error) {
		return env.Scanner.NewTransport()
	}, ts, cfg, col.Add)
	if err != nil {
		return err
	}
	paths := col.Paths()
	for _, path := range paths {
		last, ok := path.LastHop()
		if !ok {
			continue
		}
		fmt.Printf("%s  hops=%d  last=%s ttl=%d (%s)\n",
			path.Target, len(path.Hops), last.From, last.TTL, icmp6.TypeName(last.Type, last.Code))
	}
	fmt.Printf("swept %d targets x %d TTLs: sent %d, matched %d, %d paths\n",
		ts.Len(), o.maxTTL, st.Sent, st.Matched, len(paths))
	return nil
}

// runTCPScan exposes the TCP-SYN-to-closed-port probe module: the
// periphery discovery that survives edges filtering ICMPv6 entirely,
// because suppressing RSTs would break every TCP connection behind the
// CPE. With -ports > 1 the (target × port) sweep rides the engine's one
// permutation, so it parallelizes and shards like every other scan.
func runTCPScan(ctx context.Context, env *experiments.Env, args []string) error {
	fs, o := tcpFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.prefix == "" {
		return fmt.Errorf("tcp: -prefix is required")
	}
	p, err := ip6.ParsePrefix(o.prefix)
	if err != nil {
		return err
	}
	if o.basePort < 1 || o.basePort > 0xffff {
		return fmt.Errorf("tcp: -base-port %d out of range", o.basePort)
	}
	if o.ports < 1 || o.ports > 0x10000-o.basePort {
		// The module clamps dports to [base, 65535], so a sweep wider
		// than the remaining port space would alias positions onto the
		// same ports while claiming full coverage.
		return fmt.Errorf("tcp: -ports %d does not fit above base port %d", o.ports, o.basePort)
	}
	ts, err := zmap.NewSubnetTargets([]ip6.Prefix{p}, o.subBits, env.Scanner.Config.Seed)
	if err != nil {
		return err
	}
	res, err := experiments.ScanModality(ctx, env,
		zmap.TCPSynModule{BasePort: uint16(o.basePort), Ports: o.ports}, ts, 0x7c9)
	if err != nil {
		return err
	}
	rsts, errors := 0, 0
	for _, from := range res.Sources() {
		r := res.ByFrom[from]
		if r.Type == icmp6.TypeTCPRstAck {
			rsts++
		} else {
			errors++
		}
		fmt.Printf("%s  %s\n", from, icmp6.TypeName(r.Type, r.Code))
	}
	fmt.Printf("scanned %d targets x %d ports: sent %d, matched %d; %d responders (%d rst, %d periphery errors)\n",
		ts.Len(), o.ports, res.Stats.Sent, res.Stats.Matched, len(res.ByFrom), rsts, errors)
	return nil
}

// runNDP exposes the Neighbor Solicitation probe module: the §6 on-link
// vantage. Candidates come either as an explicit address list (gleaned
// elsewhere — an off-link scan, multicast chatter, a leaked neighbor
// cache) or, with -prefix, synthesized on the fly: EUI-64 addresses
// embedding vendor-OUI MACs, streamed from a zmap.CandidateSource with
// no materialized list. Occupied addresses defend themselves with
// advertisements; vacant ones are silence.
func runNDP(ctx context.Context, env *experiments.Env, args []string) error {
	fs, o := ndpFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case o.addrs == "" && o.prefix == "":
		return fmt.Errorf("ndp: one of -addr or -prefix is required")
	case o.addrs != "" && o.prefix != "":
		return fmt.Errorf("ndp: -addr and -prefix are mutually exclusive")
	case o.prefix != "":
		p, err := ip6.ParsePrefix(o.prefix)
		if err != nil {
			return err
		}
		if o.span < 1 || o.span > 1<<24 {
			return fmt.Errorf("ndp: -span %d outside the 24-bit MAC suffix space", o.span)
		}
		var ouis []ip6.OUI
		if o.ouis == "" {
			ouis = oui.Builtin().All()
		} else {
			for _, s := range strings.Split(o.ouis, ",") {
				ou, err := ip6.ParseOUI(strings.TrimSpace(s))
				if err != nil {
					return err
				}
				ouis = append(ouis, ou)
			}
		}
		src := &zmap.CandidateSource{
			Prefix: p, SubBits: o.subBits, OUIs: ouis, SuffixSpan: uint32(o.span),
		}
		res, err := experiments.ScanModalitySource(ctx, env, zmap.NDPModule{}, src, 0xd9)
		if err != nil {
			return err
		}
		for _, a := range res.Sources() {
			mac, _ := ip6.MACFromAddr(a)
			fmt.Printf("%s  neighbor (%s, %s)\n", a, mac, oui.Builtin().NameOrUnknown(mac.OUI()))
		}
		fmt.Printf("swept %d synthesized candidates (%d OUIs x %d suffixes per /%d): %d neighbors\n",
			res.Stats.Sent, len(ouis), o.span, o.subBits, len(res.ByFrom))
		return nil
	}
	var ts zmap.AddrTargets
	for _, s := range strings.Split(o.addrs, ",") {
		a, err := ip6.ParseAddr(strings.TrimSpace(s))
		if err != nil {
			return err
		}
		ts = append(ts, a)
	}
	res, err := experiments.ScanModality(ctx, env, zmap.NDPModule{}, ts, 0xd9)
	if err != nil {
		return err
	}
	for _, a := range ts {
		if _, ok := res.ByFrom[a]; ok {
			fmt.Printf("%s  neighbor (advertised itself)\n", a)
		} else {
			fmt.Printf("%s  no answer (vacant or off-link)\n", a)
		}
	}
	fmt.Printf("solicited %d addresses: %d neighbors\n", len(ts), len(res.ByFrom))
	return nil
}

// runMLD exposes the multicast-listener-discovery probe module: the
// second §6 on-link enumeration path. One MLD General Query per
// delegation link, and every listener reports its full address — no
// candidate synthesis, no address list, and even ICMP-silent devices
// answer, because multicast listening is how the link delivers their
// traffic.
func runMLD(ctx context.Context, env *experiments.Env, args []string) error {
	fs, o := mldFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.prefix == "" {
		return fmt.Errorf("mld: -prefix is required")
	}
	p, err := ip6.ParsePrefix(o.prefix)
	if err != nil {
		return err
	}
	if o.subBits > 64 {
		// Links are /64s: delegations narrower than that are never
		// distinct links, just byte-identical repeat queries.
		return fmt.Errorf("mld: -sub %d past the /64 link granularity", o.subBits)
	}
	links, err := zmap.NewBaseTargets([]ip6.Prefix{p}, o.subBits)
	if err != nil {
		return err
	}
	res, err := experiments.ScanModality(ctx, env, zmap.MLDModule{}, links, 0x71d)
	if err != nil {
		return err
	}
	for _, a := range res.Sources() {
		if mac, ok := ip6.MACFromAddr(a); ok {
			fmt.Printf("%s  listener (%s, %s)\n", a, mac, oui.Builtin().NameOrUnknown(mac.OUI()))
		} else {
			fmt.Printf("%s  listener (non-EUI-64 IID)\n", a)
		}
	}
	fmt.Printf("queried %d links (one per /%d): %d listeners\n",
		links.Len(), o.subBits, len(res.ByFrom))
	return nil
}

// runSnowball exposes the adaptive-discovery studies: the paper's
// follow-the-scent workflow over the engine's FeedbackSource. Plain
// mode is the §3-style echo snowball with the one-shot and exhaustive
// strategies printed alongside; -learn-oui is the §6 on-link vendor
// loop (MLD listener seed, then learned vendor-window NDP rounds) with
// the blind guess-every-vendor sweep as the comparison.
func runSnowball(ctx context.Context, env *experiments.Env, args []string) error {
	fs, o := snowballFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.prefixes == "" {
		return fmt.Errorf("snowball: -prefix is required")
	}
	var prefixes []ip6.Prefix
	for _, s := range strings.Split(o.prefixes, ",") {
		p, err := ip6.ParsePrefix(strings.TrimSpace(s))
		if err != nil {
			return err
		}
		prefixes = append(prefixes, p)
	}
	// Mode-specific knobs explicitly set for the other mode would be
	// silently ignored — the user would believe they tuned a loop that
	// never runs. Reject the combination instead.
	var conflict []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "coarse", "step":
			if o.learnOUI {
				conflict = append(conflict, "-"+f.Name)
			}
		case "seed-links", "learn-span":
			if !o.learnOUI {
				conflict = append(conflict, "-"+f.Name)
			}
		}
	})
	if len(conflict) > 0 {
		mode := "the plain snowball, not -learn-oui"
		if !o.learnOUI {
			mode = "-learn-oui, which is not set"
		}
		return fmt.Errorf("snowball: %s: only meaningful for %s", strings.Join(conflict, ", "), mode)
	}
	if o.learnOUI {
		if len(prefixes) != 1 {
			return fmt.Errorf("snowball: -learn-oui sweeps one pool prefix, got %d", len(prefixes))
		}
		if o.learnSpan < 1 || o.learnSpan > 1<<24 {
			return fmt.Errorf("snowball: -learn-span %d outside the 24-bit MAC suffix space", o.learnSpan)
		}
		res, err := experiments.OUISnowball(ctx, env, experiments.OUISnowballConfig{
			Prefix:    prefixes[0],
			SubBits:   o.fine,
			SeedLinks: o.seedLinks,
			LearnSpan: uint32(o.learnSpan),
			MaxRounds: o.rounds,
			MaxProbes: o.budget,
			Salt:      env.Scanner.Config.Seed,
		})
		if err != nil {
			return err
		}
		return experiments.OUISnowballRender(res, os.Stdout)
	}
	res, err := experiments.AdaptiveDiscovery(ctx, env, experiments.AdaptiveConfig{
		Prefixes:   prefixes,
		CoarseBits: o.coarse,
		FineBits:   o.fine,
		StepBits:   o.step,
		MaxRounds:  o.rounds,
		MaxProbes:  o.budget,
		Salt:       env.Scanner.Config.Seed,
	})
	if err != nil {
		return err
	}
	return experiments.AdaptiveRender(res, os.Stdout)
}

// runQuery is the scentd client: one framed request, one framed
// response, rendered for the operator. The answer's committed-day set
// is always printed — it is the snapshot version that produced it.
func runQuery(args []string) error {
	fs, o := queryFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.op == "" {
		return fmt.Errorf("query: -op is required (stats, lookup, prefixes, vendors, pools, track)")
	}
	c, err := scentd.Dial(o.connect)
	if err != nil {
		return err
	}
	defer c.Close()
	resp, err := c.Do(scentd.Request{
		Op: o.op, Addr: o.addr, IID: o.iid, Prefix: o.prefix,
		Days: o.days, Salt: o.salt,
	})
	if err != nil {
		return err
	}
	fmt.Printf("snapshot: %d committed days %v\n", len(resp.Days), resp.Days)
	if !resp.OK {
		return fmt.Errorf("query: %s", resp.Error)
	}
	switch {
	case resp.Stats != nil:
		s := resp.Stats
		fmt.Printf("devices %d, probes %d, responses %d, unique addrs %d (%d EUI-64)\n",
			s.IIDs, s.Probes, s.Responses, s.UniqueAddrs, s.UniqueEUI)
	case resp.Lookup != nil:
		l := resp.Lookup
		if !l.Found {
			fmt.Println("address never observed")
			break
		}
		fmt.Printf("IID %s  MAC %s (%s)  seen %d days across %d /64s\n",
			l.IID, l.MAC, l.Vendor, l.DaysSeen, l.Prefixes)
	case resp.Prefixes != nil:
		p := resp.Prefixes
		if !p.Found {
			fmt.Printf("IID %s never observed\n", p.IID)
			break
		}
		for _, h := range p.History {
			fmt.Printf("  day %2d  %s\n", h.Day, h.Prefix)
		}
		fmt.Printf("IID %s held %d (day, /64) positions\n", p.IID, len(p.History))
	case resp.Vendors != nil:
		for _, v := range resp.Vendors {
			fmt.Printf("  %s  %-24s %d devices\n", v.OUI, v.Vendor, v.Devices)
		}
	case resp.Pools != nil:
		for _, p := range resp.Pools {
			fmt.Printf("  AS%-6d alloc /%d  pool /%d\n", p.ASN, p.AllocBits, p.PoolBits)
		}
	case resp.Track != nil:
		t := resp.Track
		for _, d := range t.History {
			status := "not found"
			if d.Found {
				status = d.Addr
				if d.Moved {
					status += "  (moved)"
				}
			}
			fmt.Printf("  day %d: %6d probes  %s\n", d.Day, d.Probes, status)
		}
		fmt.Printf("IID %s found %d/%d days, %d distinct /64s\n",
			t.IID, t.DaysFound, len(t.History), t.Slash64s)
	default:
		fmt.Println("empty answer")
	}
	return nil
}

// runExperiment runs the modality × defense evaluation matrix — the
// same sweep the internal/experiments tests assert cell by cell — and
// emits it as JSON. The headline goes to stderr so -out (or a stdout
// pipe) stays pure JSON.
func runExperiment(ctx context.Context, seedVal uint64, workers int, args []string) error {
	fs, o := experimentFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.days < 1 {
		return fmt.Errorf("experiment: -days %d is not a usable blocking horizon", o.days)
	}
	m, err := experiments.RunDefenseMatrix(ctx, experiments.MatrixConfig{
		Seed:    seedVal,
		Workers: workers,
		Days:    o.days,
	})
	if err != nil {
		return err
	}
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		if err := encodeMatrix(f, m); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	} else if err := encodeMatrix(os.Stdout, m); err != nil {
		return err
	}
	log.Print(m.Headline())
	return nil
}

func encodeMatrix(w io.Writer, m *experiments.Matrix) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

func runTrack(ctx context.Context, env *experiments.Env, args []string) error {
	fs, o := trackFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.addr == "" {
		return fmt.Errorf("track: -addr is required")
	}
	a, err := ip6.ParseAddr(o.addr)
	if err != nil {
		return err
	}
	st, err := core.NewTrackState(a)
	if err != nil {
		return err
	}
	route, ok := env.World.RIB().Lookup(a)
	if !ok {
		return fmt.Errorf("track: %s is not in the BGP table", a)
	}
	tracker := &core.Tracker{
		Scanner:   env.Scanner,
		RIB:       env.World.RIB(),
		AllocBits: map[uint32]int{},
		PoolBits:  map[uint32]int{},
	}
	if o.allocBits != 0 {
		tracker.AllocBits[route.ASN] = o.allocBits
	}
	if o.poolBits != 0 {
		tracker.PoolBits[route.ASN] = o.poolBits
	}
	fmt.Printf("tracking IID %016x in AS%d (%s), %d days\n", uint64(st.IID), route.ASN, route.Country, o.days)
	if err := tracker.Track(ctx, st, o.days, 0x7ac4, env.Wait); err != nil {
		return err
	}
	for _, d := range st.History {
		status := "not found"
		if d.Found {
			status = d.Addr.String()
			if d.Moved {
				status += "  (moved)"
			}
		}
		fmt.Printf("  day %d: %6d probes  %s\n", d.Day, d.ProbesSent, status)
	}
	sum := core.Summarize(st)
	fmt.Printf("found %d/%d days, %d distinct /64s, mean probes %.1f (sd %.1f)\n",
		sum.DaysFound, sum.DaysTotal, sum.Slash64s, sum.MeanProbes, sum.StdProbes)
	return nil
}
