package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"followscent/internal/bgp"
	"followscent/internal/campaign"
	"followscent/internal/core"
	"followscent/internal/experiments"
	"followscent/internal/ip6"
	"followscent/internal/oui"
	"followscent/internal/scentd"
	"followscent/internal/simnet"
	"followscent/internal/wire"
	"followscent/internal/zmap"
)

// walkFleet is the serve-ingest population at the walk's size.
func (w *walker) walkFleet() (serveFleet, *bgp.Table) {
	f := serveFleet{base: uint32(mix64(w.seed)), devices: serveDevices}
	if w.tiny {
		f.devices = 64
	}
	rib := bgp.New()
	rib.Insert(serveRoute)
	return f, rib
}

// applyDay feeds one serve-ingest day straight into a core.Corpus.
func applyDay(c *core.Corpus, f serveFleet, day int) *core.ScanDay {
	sd := c.NewScanDay(day)
	f.observe(day, sd.Record)
	sd.AddProbes(uint64(f.devices * 2))
	return sd
}

// corpus times core's persistence on the serve-ingest population: the
// deep clone every snapshot publish pays (at two corpus sizes, so the
// growth shows), and day save and journal load.
func (w *walker) corpus() error {
	f, rib := w.walkFleet()
	c := core.NewCorpus(rib)
	var journal bytes.Buffer
	if err := core.WriteCorpusJournalHeader(&journal); err != nil {
		return err
	}
	day := 0
	grow := func(upTo int) error {
		for ; day < upTo; day++ {
			applyDay(c, f, day).Commit()
			if err := c.SaveDay(&journal, day, core.DaySegmentMeta{Probes: uint64(2 * f.devices), Responses: uint64(f.devices)}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := grow(servePreloadDays); err != nil {
		return err
	}
	var seg bytes.Buffer
	w.median("core.save_day_ms", func() {
		seg.Reset()
		c.SaveDay(&seg, day-1, core.DaySegmentMeta{})
	})
	w.m["core.save_bytes_per_obs"] = float64(seg.Len()) / float64(f.devices)

	w.median("core.snapshot_clone_ms.d14", func() { c.Snapshot() })
	var loadErr error
	w.median("core.load_corpus_ms", func() {
		if err := core.LoadCorpus(bytes.NewReader(journal.Bytes()), core.NewCorpus(rib)); err != nil {
			loadErr = err
		}
	})
	if loadErr != nil {
		return loadErr
	}
	if err := grow(2 * servePreloadDays); err != nil {
		return err
	}
	w.median("core.snapshot_clone_ms.d28", func() { c.Snapshot() })
	w.m["core.snapshot_clone_us_per_record"] = w.m["core.snapshot_clone_ms.d28"] * 1e3 / float64(day*f.devices)
	return nil
}

// tracking times core.Tracker.Step on the track-loopback world: the
// 16-block pools (set-up bound) and the 16384-block pool (sweep bound).
func (w *walker) tracking() error {
	env := runEnv{seed: w.seed, tiny: true}
	inst, err := setupTrack(env)
	if err != nil {
		return err
	}
	t := inst.(*trackInstance)
	world, err := trackEnv(w.seed, 0)
	if err != nil {
		return err
	}
	passes := max(w.calls/1024, 1)
	p := &phase{}
	for i := 0; i < passes; i++ {
		if err := t.pass(w.ctx, world, i, time.Time{}, w.tr, p, func(int, int, trackOutcome) {}); err != nil {
			return err
		}
	}
	var long, short []float64
	for i := range p.ops {
		dev := i % len(t.cohort)
		us := float64(p.ops[i].Nanoseconds()) / 1e3
		if t.cohort[dev].short {
			short = append(short, us)
		} else {
			long = append(long, us)
		}
	}
	w.m["core.track_step_us.short"] = median(short)
	w.m["core.track_step_us.long"] = median(long)
	w.m["core.track_probes_per_find"] = float64(p.work) / float64(len(p.ops))
	return nil
}

// store times scentd.Store and scentd.Answer on the serve-ingest
// population: a day commit and the parts of it an outside observer can
// reproduce (apply, save, fsync, clone — the rest is the stated
// residual), journal replay, compaction, and each query op answered
// directly and over TCP.
func (w *walker) store() error {
	f, rib := w.walkFleet()
	if err := os.MkdirAll(w.tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.tmp, "walk-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := journalPath(dir)
	st, err := scentd.OpenStore(path, rib)
	if err != nil {
		return err
	}
	defer func() { st.Close() }()
	day := 0
	for ; day < servePreloadDays; day++ {
		if err := f.commitDay(st, day, nil, 0); err != nil {
			return err
		}
	}

	// commit_ms and its parts, w.reps days in a row.
	var commit, apply, save, fsync, clone []float64
	shadow := core.NewCorpus(rib)
	for d := 0; d < day; d++ {
		applyDay(shadow, f, d).Commit()
	}
	scratch, err := os.Create(filepath.Join(dir, "fsync.scratch"))
	if err != nil {
		return err
	}
	defer scratch.Close()
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for r := 0; r < w.reps; r++ {
		di, err := st.BeginDay(day)
		if err != nil {
			return err
		}
		// The day's addresses are made first, so the loop times Record.
		var addrs []ip6.Addr
		f.observe(day, func(a, _ ip6.Addr) { addrs = append(addrs, a) })
		w.perCall("scentd.record_ns", len(addrs), func(i int) { di.Record(addrs[i], addrs[i]) })
		di.AddProbes(uint64(2 * f.devices))
		var cerr error
		commit = append(commit, ms(w.timed("scentd.commit_ms", func() { cerr = di.Commit() })))
		if cerr != nil {
			return cerr
		}
		// The same day through the same steps, one at a time, on a
		// shadow corpus of the same size.
		apply = append(apply, ms(w.timed("scentd.commit_apply_ms", func() { applyDay(shadow, f, day).Commit() })))
		var seg bytes.Buffer
		save = append(save, ms(w.timed("scentd.commit_save_ms", func() { shadow.SaveDay(&seg, day, core.DaySegmentMeta{}) })))
		var ferr error
		fsync = append(fsync, ms(w.timed("scentd.commit_fsync_ms", func() {
			if _, ferr = scratch.Write(seg.Bytes()); ferr == nil {
				ferr = scratch.Sync()
			}
		})))
		if ferr != nil {
			return ferr
		}
		clone = append(clone, ms(w.timed("core.Corpus.Snapshot", func() { shadow.Snapshot() })))
		day++
	}
	w.m["scentd.commit_ms"] = median(commit)
	w.m["scentd.commit_apply_ms"] = median(apply)
	w.m["scentd.commit_save_ms"] = median(save)
	w.m["scentd.commit_fsync_ms"] = median(fsync)
	w.m["scentd.commit_residual_ms"] = median(commit) - median(apply) - median(save) - median(fsync) - median(clone)

	// Queries, answered directly on the published snapshot.
	snap := st.Snapshot()
	reg := oui.Builtin()
	n := w.calls
	lookup := func(i int) scentd.Request {
		return scentd.Request{Op: "lookup", Addr: f.addr(i%f.devices, i%servePlacements).String()}
	}
	w.perCall("scentd.answer_us.stats", n, func(int) { scentd.Answer(snap, reg, scentd.Request{Op: "stats"}) })
	w.perCall("scentd.answer_us.lookup", n, func(i int) { scentd.Answer(snap, reg, lookup(i)) })
	w.perCall("scentd.answer_us.prefixes", n, func(i int) {
		scentd.Answer(snap, reg, scentd.Request{Op: "prefixes", IID: fmt.Sprintf("%016x", ip6.EUI64FromMAC(f.mac(i%f.devices)))})
	})
	w.perCall("scentd.answer_us.vendors", max(n/64, 2), func(int) { scentd.Answer(snap, reg, scentd.Request{Op: "vendors"}) })
	// Cold: the first pools query on a snapshot derives the per-AS
	// inferences; every publish makes the next one cold again.
	cold := make([]float64, w.reps)
	for i := range cold {
		fresh := st.Corpus().Snapshot()
		cold[i] = inUnit("scentd.answer_us.pools_cold", w.timed("scentd.answer_us.pools_cold", func() {
			scentd.Answer(fresh, reg, scentd.Request{Op: "pools"})
		}))
	}
	w.m["scentd.answer_us.pools_cold"] = median(cold)
	scentd.Answer(snap, reg, scentd.Request{Op: "pools"})
	w.perCall("scentd.answer_us.pools_warm", n, func(int) { scentd.Answer(snap, reg, scentd.Request{Op: "pools"}) })

	// The same lookup over TCP.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(w.ctx)
	served := make(chan error, 1)
	go func() { served <- (&scentd.Server{Store: st}).Serve(ctx, ln) }()
	client, err := scentd.Dial(ln.Addr().String())
	if err == nil {
		var rerr error
		w.perCall("scentd.rtt_us.lookup", n/4, func(i int) {
			if _, err := client.Do(lookup(i)); err != nil && rerr == nil {
				rerr = err
			}
		})
		client.Close()
		err = rerr
	}
	cancel()
	<-served
	if err != nil {
		return err
	}

	// Journal size, replay and compaction.
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	w.m["scentd.journal_bytes_per_obs"] = float64(info.Size()) / float64(day*f.devices)
	if err := st.Close(); err != nil {
		return err
	}
	var oerr error
	w.median("scentd.open_replay_ms", func() {
		if oerr != nil {
			return
		}
		if st, oerr = scentd.OpenStore(path, rib); oerr == nil {
			oerr = st.Close()
		}
	})
	if oerr != nil {
		return oerr
	}
	if st, err = scentd.OpenStore(path, rib); err != nil {
		return err
	}
	var cerr error
	w.m["scentd.compact_ms"] = inUnit("scentd.compact_ms", w.timed("scentd.compact_ms", func() { cerr = st.Compact() }))
	return cerr
}

// frames times internal/wire: encoding and decoding a small frame (a
// query) and a large one (a shard's result batch), and a framed round
// trip over TCP.
func (w *walker) frames() error {
	small := scentd.Request{Op: "lookup", Addr: "2001:16b8:100:0:3a10:d5ff:fe00:1"}
	large := campaign.Request{Op: "result", Node: "bench", Results: w.wireResults(1024)}
	n := w.calls
	for _, fr := range []struct {
		name  string
		v     any
		into  func() any
		calls int
	}{
		{"small", small, func() any { return new(scentd.Request) }, n},
		{"large", large, func() any { return new(campaign.Request) }, max(n/64, 2)},
	} {
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, fr.v); err != nil {
			return err
		}
		encoded := buf.Bytes()
		w.perCall("wire.write_frame_ns."+fr.name, fr.calls, func(int) {
			buf.Reset()
			wire.WriteFrame(&buf, fr.v)
		})
		var rerr error
		rd := bytes.NewReader(encoded)
		w.perCall("wire.read_frame_ns."+fr.name, fr.calls, func(int) {
			rd.Reset(encoded)
			if err := wire.ReadFrame(rd, fr.into()); err != nil {
				rerr = err
			}
		})
		if rerr != nil {
			return rerr
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(w.ctx)
	served := make(chan error, 1)
	echo := func(ctx context.Context, conn net.Conn) error {
		for {
			var req scentd.Request
			if err := wire.ReadFrame(conn, &req); err != nil {
				return nil
			}
			if err := wire.WriteFrame(conn, req); err != nil {
				return err
			}
		}
	}
	go func() { served <- wire.Serve(ctx, ln, echo, nil) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err == nil {
		var rerr error
		w.perCall("wire.rtt_us", n/4, func(int) {
			var back scentd.Request
			if err := wire.WriteFrame(conn, small); err != nil && rerr == nil {
				rerr = err
			}
			if err := wire.ReadFrame(conn, &back); err != nil && rerr == nil {
				rerr = err
			}
		})
		conn.Close()
		err = rerr
	}
	cancel()
	<-served
	return err
}

// wireResults is n campaign results in wire form, from a real scan of
// the campaign-wire world.
func (w *walker) wireResults(n int) []campaign.WireResult {
	out := make([]campaign.WireResult, 0, n)
	for _, r := range w.scanResults(n) {
		out = append(out, campaign.ToWire(r))
	}
	return out
}

// scanResults returns up to n results of a campaign-shaped scan.
func (w *walker) scanResults(n int) []zmap.Result {
	if len(w.results) == 0 {
		world, pools := w.walkWorld()
		ts, err := zmap.NewSubnetTargets(pools[:1], 64, w.seed)
		if err != nil {
			return nil
		}
		cfg := zmap.Config{Source: experiments.Vantage, Seed: mix64(w.seed), Workers: 1}
		zmap.ScanWorkers(w.ctx, func(int) (zmap.Transport, error) { return zmap.NewLoopback(world, 0), nil }, ts, cfg,
			func(r zmap.Result) { w.results = append(w.results, r) })
	}
	return w.results[:min(n, len(w.results))]
}

// leases times internal/campaign: the lease table alone, a lease RPC
// over TCP, the result merge, the bytes a result costs on the wire, and
// a whole coordinated day against the same shard scans run directly.
func (w *walker) leases() error {
	const shards = 64
	w.perCall("campaign.lease_grant_ns", max(w.calls/shards, 1)*shards, func(i int) {
		if i%shards == 0 {
			w.mgr = campaign.NewManager(shards, time.Minute, nil)
		}
		if l, ok := w.mgr.Grant("bench"); ok {
			w.mgr.Complete(l)
		}
	})

	results := w.scanResults(1 << 15)
	if len(results) == 0 {
		return fmt.Errorf("no scan results to merge")
	}
	var merged int
	d := w.timed("campaign.merge_ns_per_result", func() {
		g := campaign.NewMerger()
		for _, r := range results {
			g.Add(r)
		}
		merged = len(g.Results())
	})
	if merged != len(results) {
		return fmt.Errorf("merge kept %d of %d distinct results", merged, len(results))
	}
	w.m["campaign.merge_ns_per_result"] = float64(d.Nanoseconds()) / float64(len(results))
	frame, err := json.Marshal(campaign.Request{Op: "result", Node: "bench", Results: w.wireResults(1024)})
	if err != nil {
		return err
	}
	w.m["campaign.frame_bytes_per_result"] = float64(len(frame)) / float64(min(1024, len(results)))

	// Lease RPCs against a live coordinator with more shards than asks.
	world, pools := w.walkWorld()
	rpcs := max(w.calls/8, 4)
	spec := campaign.Spec{Prefixes: []string{pools[0].String()}, SubBits: 56, Source: experiments.Vantage.String(),
		Seed: mix64(w.seed), Salt: 9, Days: 1, Shards: rpcs}
	err = w.withCoordinator(spec, nil, func(addr string) error {
		cl, err := campaign.Dial(addr)
		if err != nil {
			return err
		}
		defer cl.Close()
		var rerr error
		w.perCall("campaign.lease_rpc_us", rpcs, func(int) {
			resp, err := cl.Do(campaign.Request{Op: "lease", Node: "bench"})
			if err == nil && resp.Status == campaign.StatusGranted {
				_, err = cl.Do(campaign.Request{Op: "renew", Node: "bench", Day: resp.Day, Shard: resp.Shard, Epoch: resp.Epoch})
			} else if err == nil {
				err = fmt.Errorf("lease %s: %s", resp.Status, resp.Error)
			}
			if err != nil && rerr == nil {
				rerr = err
			}
		})
		w.m["campaign.lease_rpc_us"] /= 2 // two round trips per call
		return rerr
	})
	if err != nil {
		return err
	}

	// One coordinated day over Loopback against the same four shard
	// scans run directly: what leases, framing and merge add.
	subBits := 64
	if w.tiny {
		subBits = 56
	}
	spec = campaign.Spec{Prefixes: []string{pools[0].String()}, SubBits: subBits, Source: experiments.Vantage.String(),
		Seed: mix64(w.seed), Salt: 9, Days: 1, Shards: cwShards}
	ts, cfg, err := spec.Build()
	if err != nil {
		return err
	}
	loopback := func(int) (zmap.Transport, error) { return zmap.NewLoopback(world, 0), nil }
	var direct, coordinated []float64
	for r := 0; r < w.reps; r++ {
		var derr error
		direct = append(direct, w.timed("campaign.direct_day", func() {
			for shard := 0; shard < cwShards; shard++ {
				c := cfg
				c.Workers, c.Shard = 1, shard
				if _, err := zmap.ScanWorkers(w.ctx, loopback, ts, c, func(zmap.Result) {}); err != nil {
					derr = err
				}
			}
		}).Seconds())
		if derr != nil {
			return derr
		}
		var got int
		record := func(day int, rs []zmap.Result, probes uint64) error {
			got = len(rs)
			return nil
		}
		err := w.withCoordinator(spec, record, func(addr string) error {
			wk := &campaign.Worker{
				Name: "bench", Addr: addr,
				NewTransport: func(int, int) zmap.TransportFactory { return loopback },
				Config:       zmap.Config{Workers: 1},
				Poll:         time.Millisecond,
				FlushEvery:   1 << 16,
			}
			var werr error
			coordinated = append(coordinated, w.timed("campaign.coordinated_day", func() { werr = wk.Run(w.ctx) }).Seconds())
			return werr
		})
		if err != nil {
			return err
		}
		if got == 0 {
			return fmt.Errorf("coordinated day recorded no results")
		}
	}
	w.m["campaign.coordinated_over_direct"] = median(coordinated) / median(direct)
	return nil
}

// withCoordinator serves spec on a loopback TCP listener for the
// duration of fn.
func (w *walker) withCoordinator(spec campaign.Spec, record func(int, []zmap.Result, uint64) error, fn func(addr string) error) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	coord := &campaign.Coordinator{Spec: spec, TTL: time.Minute, Record: record}
	ctx, cancel := context.WithCancel(w.ctx)
	var wg sync.WaitGroup
	var runErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		runErr = coord.Run(ctx, ln)
	}()
	err = fn(ln.Addr().String())
	cancel()
	wg.Wait()
	if err == nil && runErr != nil && ctx.Err() == nil {
		err = runErr
	}
	return err
}

// experiments guards the shape of the two experiment drivers that sit
// on thousands of small scans.
func (w *walker) experiments() error {
	var err error
	w.median("experiments.defense_matrix_ms", func() {
		if _, merr := experiments.RunDefenseMatrix(w.ctx, experiments.MatrixConfig{}); merr != nil {
			err = merr
		}
	})
	if err != nil {
		return err
	}
	env := experiments.NewEnv(42)
	salt := uint64(0)
	w.median("experiments.snowball_ms", func() {
		salt++
		env.World.Clock().Set(simnet.Epoch)
		_, aerr := experiments.AdaptiveDiscovery(w.ctx, env, experiments.AdaptiveConfig{
			Prefixes: []ip6.Prefix{experiments.Fig9Pool}, FineBits: 64, Salt: mix64(w.seed) + salt,
		})
		if aerr != nil {
			err = aerr
		}
	})
	return err
}

// ledger decomposes study-loopback's end-to-end cost per probe (one
// worker, so wall time is CPU time) into per-call layer costs. Every
// probe pays the permutation step, target derivation, probe build and
// the simulator; the share the world answers also pays parse,
// validation and the handler's record. The simulator and parse costs
// are measured on the iteration's own probe mix. What is left — the
// engine loop, the Loopback exchange, the handler call and merge, the
// pipeline's own bookkeeping — is the stated residual.
func (w *walker) ledger() {
	in := w.ledgerIn
	send := w.m["zmap.cycle_next_ns"] + w.m["zmap.targets_at_ns"] + w.m["zmap.probe_build_ns.echo"] + in.handle
	reply := in.parse + w.m["core.scanday_record_ns"]
	w.m["ledger.sum_layers_ns_per_probe"] = send + in.answered*reply
	w.m["ledger.residual_ns_per_probe"] = w.m["ledger.e2e_ns_per_probe"] - w.m["ledger.sum_layers_ns_per_probe"]
}
