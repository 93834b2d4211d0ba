package main

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"syscall"
	"time"

	"followscent/internal/core"
	"followscent/internal/experiments"
	"followscent/internal/icmp6"
	"followscent/internal/ip6"
	"followscent/internal/netbatch"
	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

// walkWorld is the world the per-packet and engine steps probe: the
// campaign-wire world, so the inputs are that workload's.
func (w *walker) walkWorld() (*simnet.World, []ip6.Prefix) {
	world := cwWorld(w.seed)
	var pools []ip6.Prefix
	for _, p := range world.Providers() {
		for _, pool := range p.Pools {
			pools = append(pools, pool.Prefix)
		}
	}
	return world, pools
}

// packets times everything that happens to one probe, one call at a
// time: permutation step, target derivation, probe build per module,
// the simulator's answer per next-header path, reply parse, validation,
// and the synchronous loopback exchange that strings them together.
func (w *walker) packets() error {
	world, pools := w.walkWorld()
	n := w.calls
	src := experiments.Vantage
	cfg := zmap.Config{Source: src, Seed: mix64(w.seed), HopLimit: 64}

	cycle, err := zmap.NewCycle(uint64(w.sweep), w.seed)
	if err != nil {
		return err
	}
	w.perCall("zmap.cycle_next_ns", w.sweep, func(int) { cycle.Next() })

	ts, err := zmap.NewSubnetTargets(pools, 64, w.seed)
	if err != nil {
		return err
	}
	tn := ts.Len()
	var sink ip6.Addr
	w.perCall("zmap.targets_at_ns", 16*n, func(i int) { sink = ts.At(uint64(i) % tn) })
	_ = sink

	// A sample of the campaign's targets, in permutation order, split by
	// whether the world answers them.
	targets := make([]ip6.Addr, n)
	walk, _ := zmap.NewCycle(tn, w.seed^1)
	for i := range targets {
		pos, _ := walk.Next()
		targets[i] = ts.At(pos)
	}
	echo := zmap.EchoModule{}.NewProber(&cfg, 0)
	var hits, misses, replies [][]byte
	for _, t := range targets {
		probe := append([]byte(nil), echo.MakeProbe(t, 0, 0)...)
		if resp, ok := world.HandlePacket(probe, nil); ok {
			hits = append(hits, probe)
			replies = append(replies, resp)
		} else {
			misses = append(misses, probe)
		}
	}
	if len(hits) == 0 || len(misses) == 0 {
		return fmt.Errorf("sampled targets are all hits or all misses (%d/%d)", len(hits), len(misses))
	}

	// On-link modalities need on-link inputs: live WAN addresses for
	// NDP, one base address per delegation for MLD.
	var wans []ip6.Addr
	for _, p := range world.Providers() {
		for _, pool := range p.Pools {
			cpes := pool.CPEs()
			for i := range cpes {
				wans = append(wans, pool.WANAddrNow(&cpes[i]))
			}
		}
	}
	links, err := zmap.NewBaseTargets(pools[:1], 56)
	if err != nil {
		return err
	}

	modules := []struct {
		name   string
		module zmap.ProbeModule
		target func(i int) ip6.Addr
	}{
		{"echo", zmap.EchoModule{}, func(i int) ip6.Addr { return targets[i%n] }},
		{"ndp", zmap.NDPModule{}, func(i int) ip6.Addr { return wans[i%len(wans)] }},
		{"tcp", zmap.TCPSynModule{}, func(i int) ip6.Addr { return targets[i%n] }},
		{"udp", zmap.UDPModule{}, func(i int) ip6.Addr { return targets[i%n] }},
		{"mld", zmap.MLDModule{}, func(i int) ip6.Addr { return links.At(uint64(i) % links.Len()) }},
	}
	buf := make([]byte, 0, 2048)
	for _, m := range modules {
		prober := m.module.NewProber(&cfg, 0)
		w.perCall("zmap.probe_build_ns."+m.name, 4*n, func(i int) { prober.MakeProbe(m.target(i), 0, 0) })
		if m.name == "echo" {
			continue // split into hit and miss below
		}
		probes := make([][]byte, n)
		for i := range probes {
			probes[i] = append([]byte(nil), prober.MakeProbe(m.target(i), 0, 0)...)
		}
		w.perCall("simnet.handle_packet_ns."+m.name, n, func(i int) { world.HandlePacket(probes[i], buf[:0]) })
	}
	w.perCall("simnet.handle_packet_ns.echo_hit", n, func(i int) { world.HandlePacket(hits[i%len(hits)], buf[:0]) })
	w.perCall("simnet.handle_packet_ns.echo_miss", n, func(i int) { world.HandlePacket(misses[i%len(misses)], buf[:0]) })

	// Validation alone: the replies are parsed once, outside the loop.
	parsed := make([]icmp6.Packet, len(replies))
	for i := range parsed {
		if err := parsed[i].Unmarshal(replies[i]); err != nil {
			return err
		}
	}
	valid := 0
	w.perCall("zmap.validate_ns.echo", 4*n, func(i int) {
		if _, ok := (zmap.EchoModule{}).Validate(&cfg, &parsed[i%len(parsed)]); ok {
			valid++
		}
	})
	if valid != 4*n {
		return fmt.Errorf("echo validation rejected %d of %d of the world's own replies", 4*n-valid, 4*n)
	}

	var pkt icmp6.Packet
	dst := targets[0]
	unreach := icmp6.AppendError(nil, icmp6.TypeDestinationUnreachable, icmp6.CodeAddrUnreachable, wans[0], src, hits[0])
	if err := pkt.Unmarshal(unreach); err != nil {
		return err
	}
	w.perCall("icmp6.unmarshal_ns.dest_unreach", 16*n, func(int) { pkt.Unmarshal(unreach) })
	tmpl := icmp6.NewEchoTemplate(src)
	w.perCall("icmp6.template_packet_ns.echo", 16*n, func(i int) { tmpl.Packet(dst, uint16(i), 1) })
	w.perCall("icmp6.append_echo_ns", 16*n, func(i int) { buf = icmp6.AppendEchoRequest(buf[:0], src, dst, uint16(i), 1, nil) })
	echoReply := icmp6.AppendEchoReply(nil, dst, src, 7, 1, nil)
	w.perCall("icmp6.unmarshal_ns.echo_reply", 16*n, func(int) { pkt.Unmarshal(echoReply) })
	report := icmp6.AppendMLDv2Report(nil, wans[0], src, []ip6.Addr{ip6.SolicitedNode(wans[0])})
	if err := pkt.UnmarshalMLD(report); err != nil {
		return err
	}
	w.perCall("icmp6.unmarshal_ns.mld_report", 16*n, func(int) { pkt.UnmarshalMLD(report) })

	lb := zmap.NewLoopback(world, 0)
	defer lb.Close()
	mixed := make([][]byte, n)
	for i, t := range targets {
		mixed[i] = append([]byte(nil), echo.MakeProbe(t, 0, 0)...)
	}
	w.perCall("zmap.loopback_exchange_ns", 4*n, func(i int) { lb.Exchange(mixed[i%n], buf[:0]) })

	rib := world.RIB()
	w.perCall("bgp.lookup_ns", 16*n, func(i int) { rib.Lookup(targets[i%n]) })

	w.median("simnet.build_world_ms.test", func() { simnet.TestWorld(w.seed) })
	w.median("simnet.build_world_ms.default", func() { simnet.DefaultWorld(w.seed) })
	return nil
}

// engine times whole scans through zmap.ScanWorkers over the in-process
// Loopback: the per-probe cost of a full sweep in each worker/batch
// shape, what arming checkpoints adds, allocations per probe, what a
// scan costs before its first probe, and how far a scan runs on after
// its handler cancels it.
func (w *walker) engine() error {
	world, pools := w.walkWorld()
	per := max(w.sweep/(len(pools)<<16), 1)
	ts, err := zmap.NewSubnetTargetsN(pools, 64, w.seed, per)
	if err != nil {
		return err
	}
	if w.tiny {
		if ts, err = zmap.NewSubnetTargets(pools, 56, w.seed); err != nil {
			return err
		}
	}
	loopback := func(int) (zmap.Transport, error) { return zmap.NewLoopback(world, 0), nil }
	base := zmap.Config{Source: experiments.Vantage, Seed: mix64(w.seed)}

	var scanErr error
	// sweep scans ts w.reps times and returns the median wall
	// nanoseconds per probe sent.
	sweep := func(span string, cfg zmap.Config) float64 {
		vals := make([]float64, w.reps)
		for i := range vals {
			var sent uint64
			d := w.timed(span, func() {
				// One padded slot per worker: under ConcurrentHandlers each
				// worker writes only its own, otherwise calls are serialized.
				var hits [8]struct {
					n uint64
					_ [56]byte
				}
				st, err := zmap.ScanWorkers(w.ctx, loopback, ts, cfg, func(r zmap.Result) { hits[r.Worker&7].n++ })
				if err != nil && scanErr == nil {
					scanErr = fmt.Errorf("%s: %w", span, err)
				}
				sent = st.Sent
			})
			vals[i] = float64(d.Nanoseconds()) / float64(max(sent, 1))
		}
		return median(vals)
	}
	for _, s := range []struct {
		name           string
		workers, batch int
		concurrent     bool
	}{
		{"w1_b0", 1, 0, false},
		{"w1_b64", 1, 64, false},
		{"w2_b0", 2, 0, false},
		{"w2_b64", 2, 64, false},
		{"w2_b0_concurrent", 2, 0, true},
	} {
		cfg := base
		cfg.Workers, cfg.Batch, cfg.ConcurrentHandlers = s.workers, s.batch, s.concurrent
		metric := "zmap.scan_ns_per_probe." + s.name
		m0 := mallocs()
		w.m[metric] = sweep(metric, cfg)
		if s.name == "w1_b0" {
			w.m["zmap.allocs_per_probe.loopback"] = float64(mallocs()-m0) / float64(uint64(w.reps)*ts.Len())
		}
	}

	// Checkpointing armed as `scent -checkpoint` arms it, over unarmed,
	// both at the engine's default worker count.
	armed := base
	armed.Progress, armed.Failure = zmap.NewProgress(), zmap.QuarantineWorker{}
	unarmedNS := sweep("zmap.checkpoint_overhead_ratio.unarmed", base)
	w.m["zmap.checkpoint_overhead_ratio"] = sweep("zmap.checkpoint_overhead_ratio.armed", armed) / unarmedNS

	// Allocations per probe on the batched UDP path, scanner and
	// in-process server together.
	if err := w.udpAllocs(world, pools, base); err != nil {
		return err
	}

	one := zmap.AddrTargets{ts.At(0)}
	w.perCall("zmap.scan_setup_us", max(w.calls/8, 8), func(int) {
		if _, err := zmap.ScanWorkers(w.ctx, loopback, one, base, nil); err != nil && scanErr == nil {
			scanErr = err
		}
	})

	// Cancel overshoot: how many more probes a scan sends after the
	// handler that cancelled it has run, counted at the responder.
	sent := &countingResponder{inner: world} // one for every transport: a scan-wide count
	counted := func(int) (zmap.Transport, error) { return zmap.NewLoopback(sent, 0), nil }
	var overshoot []float64
	for i := 0; i < max(w.calls/512, 4); i++ {
		cctx, cancel := context.WithCancel(w.ctx)
		cfg := base
		cfg.Seed = mix64(w.seed + uint64(i))
		stopAt := min(ts.Len()/8, 4096) + uint64(i)*17 // results; about half of all targets answer
		before := sent.calls.Load()
		var results atomic.Uint64
		var sentAtCancel atomic.Int64
		st, _ := zmap.ScanWorkers(cctx, counted, ts, cfg, func(zmap.Result) {
			if results.Add(1) == stopAt {
				sentAtCancel.Store(sent.calls.Load() - before)
				cancel()
			}
		})
		cancel()
		if at := sentAtCancel.Load(); at > 0 {
			overshoot = append(overshoot, float64(st.Sent)-float64(at))
		}
	}
	if len(overshoot) == 0 {
		return fmt.Errorf("cancel overshoot: no scan reached its cancel point")
	}
	w.m["zmap.cancel_overshoot_probes"] = median(overshoot)
	return scanErr
}

func (w *walker) udpAllocs(world *simnet.World, pools []ip6.Prefix, base zmap.Config) error {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer conn.Close()
	ctx, cancel := context.WithCancel(w.ctx)
	done := make(chan error, 1)
	go func() { done <- world.ServeUDP(ctx, conn, 0) }()
	defer func() {
		cancel()
		<-done
	}()
	subBits := 64
	if w.tiny {
		subBits = 56
	}
	ts, err := zmap.NewSubnetTargets(pools[:1], subBits, w.seed)
	if err != nil {
		return err
	}
	cfg := base
	cfg.Workers, cfg.Batch, cfg.Rate, cfg.Cooldown = 1, 64, cwRate/2, cwCooldown
	var st zmap.Stats
	m0 := mallocs()
	w.timed("zmap.allocs_per_probe.udp_b64", func() {
		st, err = zmap.ScanWorkers(w.ctx, zmap.UDPFactory(conn.LocalAddr().String()), ts, cfg, func(zmap.Result) {})
	})
	if err != nil {
		return err
	}
	w.m["zmap.allocs_per_probe.udp_b64"] = float64(mallocs()-m0) / float64(max(st.Sent, 1))
	return nil
}

// sockets times netbatch's vectored I/O over a loopback socket pair at
// batch sizes 1, 16 and 64.
func (w *walker) sockets() error {
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer srv.Close()
	_ = srv.SetReadBuffer(4 << 20)
	cli, err := net.DialUDP("udp", nil, srv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return err
	}
	defer cli.Close()
	rx, err := netbatch.NewConn(srv)
	if err != nil {
		return err
	}
	tx, err := netbatch.NewConn(cli)
	if err != nil {
		return err
	}
	w.m["netbatch.batched"] = 0
	if tx.Batched() {
		w.m["netbatch.batched"] = 1
	}
	w.m["netbatch.gso"] = kernelHasUDPSegment(cli)

	// One probe-sized datagram, repeated: equal sizes are what lets a
	// batch ride UDP segmentation offload.
	probe := icmp6.NewEchoTemplate(experiments.Vantage).Packet(ip6.MustParseAddr("2001:db8:10:20::42"), 1, 1)
	const burst = 64 // datagrams in flight per round; fits a default socket buffer
	pkts := make([][]byte, burst)
	bufs := make([][]byte, burst)
	for i := range pkts {
		pkts[i] = probe
		bufs[i] = make([]byte, 2048)
	}
	sizes := make([]int, burst)
	rounds := max(w.calls/burst, 2)
	for _, b := range []int{1, 16, 64} {
		var wr, rd time.Duration
		id := w.tr.Start(fmt.Sprintf("netbatch.b%d", b), w.root, 0)
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			for sent := 0; sent < burst; sent += b {
				if _, err := tx.WriteBatch(pkts[:b], nil); err != nil {
					return err
				}
			}
			wr += time.Since(t0)
			_ = srv.SetReadDeadline(time.Now().Add(2 * time.Second))
			t0 = time.Now()
			for got := 0; got < burst; {
				n, err := rx.ReadBatch(bufs[:min(b, burst-got)], sizes, nil)
				if err != nil {
					return fmt.Errorf("netbatch read (b=%d): %w", b, err)
				}
				got += n
			}
			rd += time.Since(t0)
		}
		w.tr.End(id)
		total := float64(rounds * burst)
		w.m[fmt.Sprintf("netbatch.write_ns_per_pkt.b%d", b)] = float64(wr.Nanoseconds()) / total
		w.m[fmt.Sprintf("netbatch.read_ns_per_pkt.b%d", b)] = float64(rd.Nanoseconds()) / total
	}
	return nil
}

// kernelHasUDPSegment reports (1/0) whether the kernel accepts the
// UDP_SEGMENT socket option — the condition for netbatch's GSO send
// path to engage. netbatch keeps whether it did to itself, so this is
// the closest an outside observer gets.
func kernelHasUDPSegment(c *net.UDPConn) float64 {
	const solUDP, udpSegment = 17, 103
	raw, err := c.SyscallConn()
	if err != nil {
		return 0
	}
	ok := 0.0
	_ = raw.Control(func(fd uintptr) {
		if _, err := syscall.GetsockoptInt(int(fd), solUDP, udpSegment); err == nil {
			ok = 1
		}
	})
	return ok
}

// study times the pieces of one study-loopback iteration through core's
// own entry points, with one worker so wall time is CPU time, and keeps
// what the ledger needs: the end-to-end cost per probe, and — from a
// second, identical pass with a sampling responder in the path — what
// the layers cost on the iteration's own probe mix (most of its probes
// fall in unpooled space, unlike a campaign's).
func (w *walker) study() error {
	salt := mix64(w.seed) | 1
	per48, days := 16, 5
	if w.tiny {
		per48, days = 4, 1
	}
	var res *core.DiscoveryResult
	var corpus *core.Corpus
	iteration := func(env *experiments.Env, timed bool) (pipeline, campaign time.Duration, err error) {
		env.Scanner.Config.Workers = 1
		env.World.Clock().Set(simnet.Epoch)
		span := func(name string, fn func()) time.Duration {
			if !timed {
				fn()
				return 0
			}
			return w.timed(name, fn)
		}
		pipeline = span("core.pipeline_s", func() {
			p := &core.Pipeline{Scanner: env.Scanner, RIB: env.World.RIB(), Wait: env.Wait, Salt: salt, ProbesPer48: per48}
			res, err = p.Run(w.ctx, studySeed48s)
		})
		if err != nil {
			return 0, 0, err
		}
		if len(res.Rotating48s) == 0 {
			return 0, 0, fmt.Errorf("pipeline found no rotating /48s")
		}
		corpus = core.NewCorpus(env.World.RIB())
		camp := core.Campaign{Scanner: env.Scanner, Corpus: corpus, Prefixes: res.Rotating48s, Days: days, Wait: env.Wait, Salt: salt}
		campaign = span("core.campaign_day_ms", func() { err = camp.Run(w.ctx) })
		return pipeline, campaign, err
	}

	env := experiments.NewSmallEnv(studyWorldSeed)
	pipeline, campaign, err := iteration(env, true)
	if err != nil {
		return err
	}
	probes, _ := env.World.Stats()
	w.m["core.pipeline_s"] = pipeline.Seconds()
	w.m["core.campaign_day_ms"] = float64(campaign.Nanoseconds()) / 1e6 / float64(days)
	w.m["ledger.e2e_ns_per_probe"] = float64((pipeline + campaign).Nanoseconds()) / float64(probes)

	s := &experiments.Study{Env: env, Discovery: res}
	var sink discard
	w.perCall("core.table1_render_ms", max(w.calls/64, 2), func(int) { s.Table1Render(5, &sink) })

	// One more campaign day through the harness's own handler, so the
	// corpus ingest can be timed on a real day's results: a day probes
	// every /64 of a delegation, so most records land on a key the day
	// already holds.
	ts, err := zmap.NewSubnetTargets(res.Rotating48s, 64, salt)
	if err != nil {
		return err
	}
	var day []zmap.Result
	if _, err := env.Scanner.Scan(w.ctx, ts, salt, func(r zmap.Result) { day = append(day, r) }); err != nil {
		return err
	}
	if len(day) == 0 {
		return fmt.Errorf("a campaign day over %v drew no responses", res.Rotating48s)
	}
	sd := core.NewCorpus(env.World.RIB()).NewScanDay(0)
	w.perCall("core.scanday_record_ns", len(day), func(i int) { sd.Record(day[i].Target, day[i].From) })
	w.m["core.scanday_commit_ms"] = inUnit("core.scanday_commit_ms", w.timed("core.scanday_commit_ms", sd.Commit))

	// The same iteration again, keeping every 64th probe.
	sampled := experiments.NewSmallEnv(studyWorldSeed)
	sampler := &probeSampler{inner: sampled.World}
	sampled.Scanner.NewTransport = func() (zmap.Transport, error) { return zmap.NewLoopback(sampler, 0), nil }
	if _, _, err := iteration(sampled, false); err != nil {
		return err
	}
	mix := sampler.kept
	if len(mix) == 0 {
		return fmt.Errorf("no probes sampled from the study iteration")
	}
	sampled.World.Clock().Set(simnet.Epoch)
	var replies [][]byte
	for _, probe := range mix {
		if resp, ok := sampled.World.HandlePacket(probe, nil); ok {
			replies = append(replies, resp)
		}
	}
	if len(replies) == 0 {
		return fmt.Errorf("none of %d sampled study probes was answered", len(mix))
	}
	buf := make([]byte, 0, 2048)
	rounds := max(4*w.calls/len(mix), 1)
	cfg := zmap.Config{Source: experiments.Vantage}
	var pkt icmp6.Packet
	d := w.timed("ledger.handle_packet_mix", func() {
		for r := 0; r < rounds; r++ {
			for _, probe := range mix {
				sampled.World.HandlePacket(probe, buf[:0])
			}
		}
	})
	w.ledgerIn.handle = float64(d.Nanoseconds()) / float64(rounds*len(mix))
	d = w.timed("ledger.parse_validate_mix", func() {
		for r := 0; r < rounds; r++ {
			for _, reply := range replies {
				if pkt.Unmarshal(reply) == nil {
					zmap.EchoModule{}.Validate(&cfg, &pkt)
				}
			}
		}
	})
	w.ledgerIn.parse = float64(d.Nanoseconds()) / float64(rounds*len(replies))
	w.ledgerIn.answered = float64(len(replies)) / float64(len(mix))
	return nil
}

// probeSampler keeps a copy of every 64th probe that reaches the world.
// It is used with one scan worker, so it needs no locking.
type probeSampler struct {
	inner zmap.Responder
	n     int
	kept  [][]byte
}

func (s *probeSampler) HandlePacket(req, buf []byte) ([]byte, bool) {
	if s.n++; s.n&63 == 0 {
		s.kept = append(s.kept, append([]byte(nil), req...))
	}
	return s.inner.HandlePacket(req, buf)
}

type discard struct{}

func (*discard) Write(p []byte) (int, error) { return len(p), nil }
