// Package followscent's top-level benchmarks regenerate each table and
// figure of the paper (see DESIGN.md's experiment index). They run at
// reduced scale so `go test -bench .` finishes in minutes on one core;
// cmd/figures produces the full-scale artifacts.
//
// Shared fixtures (a small-world study and a default-world mini
// campaign) are built once and reused across benchmarks.
package followscent_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"followscent/internal/bgp"
	"followscent/internal/campaign"
	"followscent/internal/core"
	"followscent/internal/experiments"
	"followscent/internal/icmp6"
	"followscent/internal/ip6"
	"followscent/internal/oui"
	"followscent/internal/scentd"
	"followscent/internal/simnet"
	"followscent/internal/yarrp"
	"followscent/internal/zmap"
)

var (
	smallOnce  sync.Once
	smallStudy *experiments.Study

	miniOnce  sync.Once
	miniStudy *experiments.Study
)

// small returns a completed study over the compact test world.
func small(b *testing.B) *experiments.Study {
	b.Helper()
	smallOnce.Do(func() {
		s := &experiments.Study{
			Env: experiments.NewSmallEnv(101),
			Cfg: experiments.StudyConfig{CampaignDays: 5, ProbesPer48: 16, Salt: 3},
		}
		s.SeedEUI48s = []ip6.Prefix{
			ip6.MustParsePrefix("2001:db8:10::/48"),
			ip6.MustParsePrefix("2001:db9:30::/48"),
			ip6.MustParsePrefix("2001:dba:40::/48"),
		}
		ctx := context.Background()
		if err := s.RunDiscovery(ctx); err != nil {
			panic(err)
		}
		if err := s.RunCampaign(ctx); err != nil {
			panic(err)
		}
		smallStudy = s
	})
	return smallStudy
}

// mini returns a short default-world campaign over the Wersatel Figure 9
// pool only (the pieces Figures 9-12 need), not the whole rotating set.
func mini(b *testing.B) *experiments.Study {
	b.Helper()
	miniOnce.Do(func() {
		s := &experiments.Study{
			Env: experiments.NewEnv(42),
			Cfg: experiments.StudyConfig{CampaignDays: 6, Salt: 3},
		}
		pool := experiments.Fig9Pool
		var prefixes []ip6.Prefix
		pool48s, _ := pool.NumSubprefixes(48)
		for i := uint64(0); i < pool48s; i++ {
			prefixes = append(prefixes, pool.Subprefix(i, 48))
		}
		// Also cover the provider-switch destinations so Figure 12 has
		// both sides of each move.
		dt, _ := s.Env.World.ProviderByASN(simnet.ASDTRes)
		dtPool := dt.Pools[0].Prefix
		dt48s, _ := dtPool.NumSubprefixes(48)
		for i := uint64(0); i < dt48s; i++ {
			prefixes = append(prefixes, dtPool.Subprefix(i, 48))
		}
		s.Discovery = &core.DiscoveryResult{Rotating48s: prefixes}
		if err := s.RunCampaign(context.Background()); err != nil {
			panic(err)
		}
		miniStudy = s
	})
	return miniStudy
}

// --- Table 1 & pipeline stage counts (§4) ---

func BenchmarkTable1_RotatingPrefixDiscovery(b *testing.B) {
	benchTable1(b, 0) // Workers = GOMAXPROCS
}

// BenchmarkTable1_Workers pins the worker count, quantifying the
// parallel engine's scaling against the one-worker baseline. Each count
// runs once, however many CPUs the box has, and all must discover the
// same number of rotating /48s.
func BenchmarkTable1_Workers(b *testing.B) {
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	slices.Sort(counts)
	want, wantWorkers := -1, 0
	for _, workers := range slices.Compact(counts) {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			got := benchTable1(b, workers)
			if want < 0 {
				want, wantWorkers = got, workers
			}
			if got != want {
				b.Fatalf("workers=%d found %d rotating /48s, workers=%d found %d", workers, got, wantWorkers, want)
			}
		})
	}
}

// benchTable1 times the Table 1 discovery and returns the number of
// rotating /48s it found. Every iteration runs the same pass — one salt,
// on a fresh world (built off the clock), since a pass advances the
// world's virtual clock and spends its rate-limit tokens — so the count
// and the work timed do not depend on b.N.
func benchTable1(b *testing.B, workers int) int {
	seeds := []ip6.Prefix{
		ip6.MustParsePrefix("2001:db8:10::/48"),
		ip6.MustParsePrefix("2001:db9:30::/48"),
	}
	found := -1
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := experiments.NewSmallEnv(103)
		env.Scanner.Config.Workers = workers
		b.StartTimer()
		s := &experiments.Study{Env: env, Cfg: experiments.StudyConfig{ProbesPer48: 16, Salt: 1}}
		s.SeedEUI48s = seeds
		if err := s.RunDiscovery(context.Background()); err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Table1Render(5, &buf); err != nil {
			b.Fatal(err)
		}
		if n := len(s.Discovery.Rotating48s); found < 0 {
			found = n
		} else if n != found {
			b.Fatalf("iteration %d found %d rotating /48s, the first found %d", i, n, found)
		}
	}
	b.ReportMetric(float64(found), "rotating48s")
	return found
}

func BenchmarkPipeline_StageCounts(b *testing.B) {
	s := small(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.PipelineRender(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 2 & Figure 13 (§6) ---

func BenchmarkTable2_TrackingCaseStudy(b *testing.B) {
	s := small(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		states, err := s.SelectCohort(3, true)
		if err != nil {
			b.Fatal(err)
		}
		cohort, err := s.TrackCohort(context.Background(), states, 3)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Table2Render(cohort, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13_TrackingOutcomes(b *testing.B) {
	s := small(b)
	states, err := s.SelectCohort(3, false)
	if err != nil {
		b.Fatal(err)
	}
	cohort, err := s.TrackCohort(context.Background(), states, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig13Render(cohort, "Figure 13", io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 2: search-space reduction ---

func BenchmarkFig2_SearchSpaceReduction(b *testing.B) {
	s := small(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Fig2Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 3 & 6: allocation grids ---

func BenchmarkFig3_AllocationGrids(b *testing.B) {
	env := experiments.NewEnv(42)
	s := &experiments.Study{Env: env, Cfg: experiments.StudyConfig{Salt: 5}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grids, err := s.Grids(context.Background(), experiments.Fig3Prefixes[:1])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(grids[0].ResponseCount()), "responders")
	}
}

func BenchmarkFig6_MultiAllocationProvider(b *testing.B) {
	env := experiments.NewEnv(42)
	s := &experiments.Study{Env: env, Cfg: experiments.StudyConfig{Salt: 6}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grids, err := s.Grids(context.Background(), experiments.Fig6Prefixes)
		if err != nil {
			b.Fatal(err)
		}
		// The same provider must show two different allocation sizes.
		a, c := grids[0].InferAllocBits(), grids[1].InferAllocBits()
		if a == c {
			b.Fatalf("both /48s inferred /%d", a)
		}
	}
}

// --- Figures 4, 5, 7, 8: campaign distributions ---

func BenchmarkFig4_Homogeneity(b *testing.B) {
	s := small(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries := core.Homogeneity(s.Corpus, oui.Builtin(), 10)
		if len(entries) == 0 {
			b.Fatal("no homogeneity entries")
		}
	}
}

func BenchmarkFig5_AllocationSizeCDF(b *testing.B) {
	s := small(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samples := s.Corpus.AllocationSamples(0)
		byAS := core.AllocationSizeByAS(samples)
		if len(byAS) == 0 {
			b.Fatal("no allocation inferences")
		}
	}
}

func BenchmarkFig7_RotationPoolVsBGP(b *testing.B) {
	s := small(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samples := s.Corpus.PoolSamples()
		byAS := core.PoolSizeByAS(samples)
		if len(byAS) == 0 {
			b.Fatal("no pool inferences")
		}
	}
}

func BenchmarkFig8_PrefixesPerIID(b *testing.B) {
	s := small(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := s.Corpus.PrefixesPerIID()
		if len(counts) == 0 {
			b.Fatal("empty distribution")
		}
	}
}

// --- Figures 9-12: default-world dynamics ---

func BenchmarkFig9_RotationTimeSeries(b *testing.B) {
	s := mini(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := s.Fig9(simnet.ASWersatel, experiments.Fig9Pool, 3)
		if len(series) == 0 {
			b.Fatal("no rotation series")
		}
	}
}

func BenchmarkFig10_PoolDensity(b *testing.B) {
	s := mini(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snaps, err := s.Fig10(context.Background(), 2)
		if err != nil {
			b.Fatal(err)
		}
		if len(snaps) != 2 {
			b.Fatal("missing snapshots")
		}
	}
}

func BenchmarkFig11_MACReuse(b *testing.B) {
	s := mini(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multi := s.Corpus.MultiASIIDs()
		_ = multi
	}
}

func BenchmarkFig12_ProviderSwitch(b *testing.B) {
	s := mini(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switches := s.Corpus.ProviderSwitches()
		_ = switches
	}
}

// --- Engine microbenchmarks (BENCH_*.json trajectory points) ---

// BenchmarkICMP6_MarshalEchoRequest times probe packet crafting, both
// through the general builder and the scan engine's template fast path.
func BenchmarkICMP6_MarshalEchoRequest(b *testing.B) {
	src := ip6.MustParseAddr("2620:11f:7000::53")
	dst := ip6.MustParseAddr("2001:db8:10:20::42")
	b.Run("append", func(b *testing.B) {
		buf := make([]byte, 0, 128)
		for i := 0; i < b.N; i++ {
			buf = icmp6.AppendEchoRequest(buf[:0], src, dst, uint16(i), 1, nil)
		}
	})
	b.Run("template", func(b *testing.B) {
		tmpl := icmp6.NewEchoTemplate(src)
		for i := 0; i < b.N; i++ {
			_ = tmpl.Packet(dst, uint16(i), 1)
		}
	})
}

// BenchmarkICMP6_UnmarshalValidate times the receive side: parsing and
// checksum-verifying an echo reply.
func BenchmarkICMP6_UnmarshalValidate(b *testing.B) {
	src := ip6.MustParseAddr("2620:11f:7000::53")
	dst := ip6.MustParseAddr("2001:db8:10:20::42")
	reply := icmp6.AppendEchoReply(nil, dst, src, 7, 1, nil)
	var pkt icmp6.Packet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pkt.Unmarshal(reply); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoopbackRoundTrip times one full probe round trip against the
// simulator: craft, answer, parse — the unit cost every scan pays.
func BenchmarkLoopbackRoundTrip(b *testing.B) {
	w := simnet.TestWorld(27)
	p, _ := w.ProviderByASN(65001)
	pool := p.Pools[0]
	var c *simnet.CPE
	for i := range pool.CPEs() {
		if !pool.CPEs()[i].Silent {
			c = &pool.CPEs()[i]
			break
		}
	}
	target := pool.WANAddrNow(c)
	src := ip6.MustParseAddr("2620:11f:7000::53")
	lb := zmap.NewLoopback(w, 0)
	tmpl := icmp6.NewEchoTemplate(src)
	respBuf := make([]byte, 0, 2048)
	var pkt icmp6.Packet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := tmpl.Packet(target, uint16(i), 0)
		resp, ok := lb.Exchange(req, respBuf[:0])
		if !ok {
			b.Fatal("no response from occupied WAN")
		}
		respBuf = resp
		if err := pkt.Unmarshal(resp); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Batched wire path (DESIGN.md §12) ---

// BenchmarkWirePPS measures raw wire throughput — probes per second
// into a live simnetd-style UDP server — per-packet vs vectored
// sendmmsg/recvmmsg batches (Config.Batch), at 1, 2 and 4 workers with
// one socket each. The pps metric counts sent probes over the scan's
// active phase (cooldown excluded); batched pps should stay >= 5x the
// per-packet loop at workers=1, where the syscall
// count is the whole difference. Results are byte-identical across the
// grid (TestScanBatchUDPEquivalence); this measures what the syscalls
// cost.
func BenchmarkWirePPS(b *testing.B) {
	w := simnet.TestWorld(61)
	conn, err := simnet.ListenUDP(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.ServeUDP(ctx, conn, 0) }()
	b.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			b.Errorf("ServeUDP: %v", err)
		}
		conn.Close()
	})
	addr := conn.LocalAddr().String()

	p, _ := w.ProviderByASN(65001)
	ts, err := zmap.NewSubnetTargets([]ip6.Prefix{p.Pools[0].Prefix}, 60, 9)
	if err != nil {
		b.Fatal(err)
	}
	const cooldown = 100 * time.Millisecond
	for _, workers := range []int{1, 2, 4} {
		for _, batch := range []int{0, 64} {
			b.Run(fmt.Sprintf("workers=%d,batch=%d", workers, batch), func(b *testing.B) {
				b.ReportAllocs()
				var pps float64
				for i := 0; i < b.N; i++ {
					cfg := zmap.Config{
						Source:   ip6.MustParseAddr("2620:11f:7000::53"),
						Seed:     uint64(i) + 1,
						Workers:  workers,
						Batch:    batch,
						Cooldown: cooldown,
					}
					st, err := zmap.ScanWorkers(context.Background(), zmap.UDPFactory(addr), ts, cfg, nil)
					if err != nil {
						b.Fatal(err)
					}
					// Stats.SendTime is the engine's own send-phase clock:
					// subtracting the cooldown from wall time instead would
					// fold several ms of timer slop into a window this short.
					pps += float64(st.Sent) / st.SendTime.Seconds()
				}
				b.ReportMetric(pps/float64(b.N), "pps")
			})
		}
	}
}

// --- Distributed campaign coordination (DESIGN.md §13) ---

// BenchmarkCampaignCoordinated runs one coordinated campaign day over a
// live simnetd-style UDP world at 1 and 4 scanner nodes, next to the
// same scan run directly through the engine with no coordinator. The
// nodes=1 vs direct gap is the coordination overhead — lease RPCs,
// result framing, merge-and-dedupe — and nodes=4 shows what the
// fan-out buys back. The result sets are byte-identical across the
// whole grid (TestCoordinatedCampaignByteIdentical); this measures
// what the coordination costs.
func BenchmarkCampaignCoordinated(b *testing.B) {
	w := simnet.TestWorld(62)
	conn, err := simnet.ListenUDP(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.ServeUDP(ctx, conn, 0) }()
	b.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			b.Errorf("ServeUDP: %v", err)
		}
		conn.Close()
	})
	addr := conn.LocalAddr().String()

	p, _ := w.ProviderByASN(65001)
	prefix := p.Pools[0].Prefix
	const (
		subBits  = 64 // one probe per /64 delegation — the §5 campaign shape
		salt     = uint64(9)
		shards   = 4
		cooldown = 250 * time.Millisecond // drain in-flight UDP replies after each shard
		rate     = 50000                  // the scent -server pacing default; unpaced blast overruns the one-socket server
	)
	src := ip6.MustParseAddr("2620:11f:7000::53")

	// The direct baseline covers the identical 4 shards as 4 sequential
	// engine scans — the exact probe work a nodes=1 campaign leases —
	// so the coordinated gap is lease RPCs, framing and merge, not a
	// different scan shape.
	b.Run("direct", func(b *testing.B) {
		ts, err := zmap.NewSubnetTargets([]ip6.Prefix{prefix}, subBits, salt)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			var n int
			for shard := 0; shard < shards; shard++ {
				cfg := zmap.Config{
					Source:   src,
					Seed:     zmap.ScanSeed(uint64(i)+1, salt),
					Workers:  1,
					Shard:    shard,
					Shards:   shards,
					Rate:     rate,
					Cooldown: cooldown,
				}
				_, err := zmap.ScanWorkers(context.Background(), zmap.UDPFactory(addr), ts, cfg,
					func(zmap.Result) { n++ })
				if err != nil {
					b.Fatal(err)
				}
			}
			if n == 0 {
				b.Fatal("no results")
			}
			b.ReportMetric(float64(n), "results")
		}
	})

	for _, nodes := range []int{1, 4} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				var results int
				coord := &campaign.Coordinator{
					Spec: campaign.Spec{
						Prefixes: []string{prefix.String()},
						SubBits:  subBits,
						Source:   src.String(),
						Seed:     uint64(i) + 1,
						Salt:     salt,
						Days:     1,
						Shards:   shards,
					},
					TTL:  30 * time.Second,
					Wait: func(d time.Duration) { w.Clock().Advance(d) },
					Record: func(day int, rs []zmap.Result, probes uint64) error {
						results = len(rs)
						return nil
					},
				}
				cctx, stop := context.WithCancel(context.Background())
				runErr := make(chan error, 1)
				go func() { runErr <- coord.Run(cctx, ln) }()

				errs := make([]error, nodes)
				var wg sync.WaitGroup
				for n := 0; n < nodes; n++ {
					wk := &campaign.Worker{
						Name: fmt.Sprintf("bench-n%d", n),
						Addr: ln.Addr().String(),
						NewTransport: func(int, int) zmap.TransportFactory {
							return zmap.UDPFactory(addr)
						},
						Config: zmap.Config{Workers: 1, Rate: rate, Cooldown: cooldown},
						Poll:   time.Millisecond,
						// Flush each shard's results in one batch after the
						// scan: a mid-scan flush RPC stalls the receive
						// pipeline, and at full per-packet blast that
						// overflows the kernel socket buffer.
						FlushEvery: 1 << 16,
					}
					wg.Add(1)
					go func(n int) {
						defer wg.Done()
						errs[n] = wk.Run(context.Background())
					}(n)
				}
				wg.Wait()
				for n, err := range errs {
					if err != nil {
						b.Fatalf("node %d: %v", n, err)
					}
				}
				<-coord.Finished()
				stop()
				if err := <-runErr; err != nil {
					b.Fatal(err)
				}
				if results == 0 {
					b.Fatal("no results")
				}
				b.ReportMetric(float64(results), "results")
			}
		})
	}
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblation_ZmapVsYarrp quantifies §3.1's probing-cost claim:
// last-hop discovery via zmap-style single probes versus yarrp-style
// TTL sweeps over the same /48.
func BenchmarkAblation_ZmapVsYarrp(b *testing.B) {
	w := simnet.TestWorld(104)
	p, _ := w.ProviderByASN(65001)
	ts, _ := zmap.NewSubnetTargets([]ip6.Prefix{p.Pools[0].Prefix}, 56, 1)
	src := ip6.MustParseAddr("2620:11f:7000::53")
	loopback := func(int) (zmap.Transport, error) { return zmap.NewLoopback(w, 0), nil }

	b.Run("zmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := zmap.ScanWorkers(context.Background(), loopback, ts,
				zmap.Config{Source: src, Seed: uint64(i), Workers: 1}, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(st.Sent), "probes")
		}
	})
	b.Run("yarrp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := zmap.ScanWorkers(context.Background(), loopback, ts,
				zmap.Config{Source: src, Seed: uint64(i), Workers: 1, Module: yarrp.HopLimitModule{MaxTTL: 16}}, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(st.Sent), "probes")
		}
	})
	// The UDP-to-closed-port module: same single-probe cost as the echo
	// scan, reaching echo-filtering edges.
	b.Run("zmap-udp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := zmap.ScanWorkers(context.Background(), loopback, ts,
				zmap.Config{Source: src, Seed: uint64(i), Workers: 1, Module: zmap.UDPModule{}}, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(st.Sent), "probes")
		}
	})
	// The TCP-SYN module: still one probe per target, and its RST
	// observable survives edges that filter ICMPv6 wholesale.
	b.Run("zmap-tcp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := zmap.ScanWorkers(context.Background(), loopback, ts,
				zmap.Config{Source: src, Seed: uint64(i), Workers: 1, Module: zmap.TCPSynModule{}}, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(st.Sent), "probes")
		}
	})
}

// BenchmarkAblation_ProbeModalities quantifies discovery completeness
// per probe modality against a deliberately silent-heavy edge
// (TestModalityCompleteness in internal/experiments proves the
// orderings; this reports the live counts). The off-link modalities
// (echo, UDP, TCP) hear the same responsive periphery; the on-link NDP
// sweep over the same ground-truth candidates also hears the
// ICMP-silent devices no off-link probe can reach.
func BenchmarkAblation_ProbeModalities(b *testing.B) {
	w := simnet.MustBuild(simnet.WorldSpec{
		Seed: 104,
		Providers: []simnet.ProviderSpec{{
			ASN: 65021, Name: "FilterNet", Country: "DE",
			Allocations:    []string{"2001:db8::/32"},
			BorderRespProb: 0.3,
			Pools: []simnet.PoolSpec{{
				Prefix: "2001:db8:10::/48", AllocBits: 56,
				Rotation:  simnet.RotationPolicy{Kind: simnet.RotateNone},
				Occupancy: 0.5, EUIFrac: 1, SilentFrac: 0.3,
			}},
		}},
	})
	pool := w.Providers()[0].Pools[0]
	ts, _ := zmap.NewSubnetTargets([]ip6.Prefix{pool.Prefix}, 56, 1)
	var candidates zmap.AddrTargets
	for i := range pool.CPEs() {
		candidates = append(candidates, pool.WANAddrNow(&pool.CPEs()[i]))
	}
	src := ip6.MustParseAddr("2620:11f:7000::53")

	run := func(module zmap.ProbeModule, targets zmap.TargetSet) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				found := map[ip6.Addr]bool{}
				var mu sync.Mutex
				_, err := zmap.ScanWorkers(context.Background(), func(int) (zmap.Transport, error) {
					return zmap.NewLoopback(w, 0), nil
				}, targets, zmap.Config{Source: src, Seed: 9, Workers: 1, Module: module},
					func(r zmap.Result) {
						if pool.Prefix.Contains(r.From) {
							mu.Lock()
							found[r.From] = true
							mu.Unlock()
						}
					})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(found)), "found")
			}
		}
	}
	b.Run("echo", run(zmap.EchoModule{}, ts))
	b.Run("udp", run(zmap.UDPModule{}, ts))
	b.Run("tcp", run(zmap.TCPSynModule{}, ts))
	b.Run("ndp-onlink", run(zmap.NDPModule{}, candidates))
}

// BenchmarkAdaptive_Snowball times the §3-style adaptive-discovery
// study end to end on the default world's clustered Wersatel /46:
// coarse sampling, feedback-driven refinement rounds down to the /64
// delegations, and the exhaustive reference scan it is compared to.
func BenchmarkAdaptive_Snowball(b *testing.B) {
	env := experiments.NewEnv(42)
	prefixes := []ip6.Prefix{ip6.MustParsePrefix("2001:16b8:100::/46")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AdaptiveDiscovery(context.Background(), env, experiments.AdaptiveConfig{
			Prefixes: prefixes,
			FineBits: 64,
			Salt:     uint64(i) + 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Snowball()), "periphery")
		b.ReportMetric(float64(res.SnowballProbes), "probes")
	}
}

// BenchmarkAdaptive_OUILearning times the §6 OUI-learning snowball end
// to end on a vendor-fleet world: the MLD listener seed, the learned
// vendor-window NDP rounds through the feedback source, and the blind
// guess-every-vendor reference sweep it is compared to.
func BenchmarkAdaptive_OUILearning(b *testing.B) {
	fleetPool := ip6.MustParsePrefix("2001:db8:40::/48")
	var extras []simnet.ExtraCPESpec
	for i := 0; i < 64; i++ {
		suffix := 0x7a00 + i
		extras = append(extras, simnet.ExtraCPESpec{
			MAC:    fmt.Sprintf("38:10:d5:%02x:%02x:%02x", suffix>>16, suffix>>8&0xff, suffix&0xff),
			Silent: i%2 == 0,
		})
	}
	env := experiments.NewEnvFor(simnet.MustBuild(simnet.WorldSpec{
		Seed: 31,
		Providers: []simnet.ProviderSpec{{
			ASN: 65051, Name: "FleetNet", Country: "DE",
			Allocations:    []string{"2001:db8::/32"},
			BorderRespProb: 0.3,
			Pools: []simnet.PoolSpec{{
				Prefix: fleetPool.String(), AllocBits: 56,
				Rotation: simnet.RotationPolicy{Kind: simnet.RotateNone},
				ExtraCPE: extras,
			}},
		}},
	}), 31)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.OUISnowball(context.Background(), env, experiments.OUISnowballConfig{
			Prefix: fleetPool,
			Salt:   uint64(i) + 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Snowball()), "listeners")
		b.ReportMetric(float64(res.SnowballProbes), "probes")
	}
}

// BenchmarkAblation_SearchSpaceKnowledge measures tracking cost with and
// without the Algorithm 1/2 inferences (the Figure 2 rows, live).
func BenchmarkAblation_SearchSpaceKnowledge(b *testing.B) {
	run := func(b *testing.B, alloc, pool map[uint32]int) {
		w := simnet.TestWorld(105)
		scanner := &zmap.Scanner{
			NewTransport: func() (zmap.Transport, error) { return zmap.NewLoopback(w, 0), nil },
			Config:       zmap.Config{Source: ip6.MustParseAddr("2620:11f:7000::53")},
		}
		pv, _ := w.ProviderByASN(65001)
		var target ip6.Addr
		for i := range pv.Pools[0].CPEs() {
			c := &pv.Pools[0].CPEs()[i]
			if c.Mode == simnet.ModeEUI64 && !c.Silent {
				target = pv.Pools[0].WANAddrNow(c)
				break
			}
		}
		tracker := &core.Tracker{Scanner: scanner, RIB: w.RIB(), AllocBits: alloc, PoolBits: pool}
		b.ResetTimer()
		var probes uint64
		for i := 0; i < b.N; i++ {
			st, err := core.NewTrackState(target)
			if err != nil {
				b.Fatal(err)
			}
			td, err := tracker.Step(context.Background(), st, 0, uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			if !td.Found {
				b.Fatal("device not found")
			}
			probes += td.ProbesSent
		}
		b.ReportMetric(float64(probes)/float64(b.N), "probes/day")
	}
	b.Run("with-inferences", func(b *testing.B) {
		run(b, map[uint32]int{65001: 56}, map[uint32]int{65001: 48})
	})
	b.Run("alloc-only", func(b *testing.B) {
		run(b, map[uint32]int{65001: 56}, nil) // pool falls back to the /32
	})
}

// BenchmarkAblation_DensityThreshold sweeps §4.2's low/high cut.
func BenchmarkAblation_DensityThreshold(b *testing.B) {
	env := experiments.NewSmallEnv(106)
	seeds := []ip6.Prefix{
		ip6.MustParsePrefix("2001:db8:10::/48"),
		ip6.MustParsePrefix("2001:db9:30::/48"),
	}
	for _, thr := range []float64{0.005, 0.01, 0.05, 0.2} {
		name := "thr"
		switch thr {
		case 0.005:
			name = "0.005"
		case 0.01:
			name = "0.01(paper)"
		case 0.05:
			name = "0.05"
		case 0.2:
			name = "0.20"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := &core.Pipeline{
					Scanner:          env.Scanner,
					RIB:              env.World.RIB(),
					Wait:             env.Wait,
					Salt:             uint64(i) + 7,
					ProbesPer48:      16,
					DensityThreshold: thr,
				}
				res, err := p.Run(context.Background(), seeds)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(res.HighDensity)), "high-density")
			}
		})
	}
}

// --- Serving layer (DESIGN.md §10) ---

// scentdBenchAddr mirrors internal/scentd's synthetic fixture: device d
// answering from /64 number p of a fixed AS8881 allocation.
func scentdBenchAddr(d, p int) ip6.Addr {
	mac := ip6.MAC{0x38, 0x10, 0xd5, 0, byte(d >> 8), byte(d)}
	pfx := ip6.MustParsePrefix(fmt.Sprintf("2001:16b8:%x::/64", 0x100+p))
	return pfx.Addr().WithIID(ip6.EUI64FromMAC(mac))
}

// scentdBenchDay commits one synthetic day: each device answers from a
// day-dependent /64, so every commit changes every index a query reads.
func scentdBenchDay(st *scentd.Store, day, devices int) error {
	di, err := st.BeginDay(day)
	if err != nil {
		return err
	}
	for d := 0; d < devices; d++ {
		a := scentdBenchAddr(d, (d+day)%7)
		di.Record(a, a)
	}
	di.AddProbes(uint64(devices * 2))
	return di.Commit()
}

// BenchmarkScentdQuery measures query round trips per second against a
// populated corpus over scentd's real TCP wire protocol — quiet, and
// while a writer commits day after day concurrently. The two numbers
// should be close: queries only swap in the atomically published
// snapshot pointer, they never wait on ingestion
// (TestScentdSnapshotIsolationUnderRace proves the answers stay
// byte-identical to batch; this measures what that isolation costs).
func BenchmarkScentdQuery(b *testing.B) {
	const days, devices = 7, 256
	rib := bgp.New()
	rib.Insert(bgp.Route{Prefix: ip6.MustParsePrefix("2001:16b8::/32"), ASN: 8881, Country: "DE"})

	// newServer builds a store with a week of synthetic days, serves it
	// on loopback TCP and returns a connected client.
	newServer := func(b *testing.B) (*scentd.Store, *scentd.Client) {
		b.Helper()
		st, err := scentd.OpenStore(filepath.Join(b.TempDir(), "bench.journal"), rib)
		if err != nil {
			b.Fatal(err)
		}
		for day := 0; day < days; day++ {
			if err := scentdBenchDay(st, day, devices); err != nil {
				b.Fatal(err)
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		srv := &scentd.Server{Store: st}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ctx, ln) }()
		c, err := scentd.Dial(ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			c.Close()
			cancel()
			<-done
			st.Close()
		})
		return st, c
	}

	query := func(b *testing.B, c *scentd.Client) {
		b.Helper()
		resp, err := c.Do(scentd.Request{Op: "stats"})
		if err != nil {
			b.Fatal(err)
		}
		if !resp.OK {
			b.Fatal(resp.Error)
		}
	}

	b.Run("quiet", func(b *testing.B) {
		_, c := newServer(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			query(b, c)
		}
	})
	b.Run("during-ingestion", func(b *testing.B) {
		st, c := newServer(b)
		stop := make(chan struct{})
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			for day := days; ; day++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := scentdBenchDay(st, day, devices); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			query(b, c)
		}
		b.StopTimer()
		close(stop)
		<-writerDone
	})
}

// BenchmarkAblation_PoolWidening measures the §6 "motivated adversary"
// extension: recovering a device whose rotation pool was under-estimated
// by widening the search after misses (core.Tracker.WidenBits).
func BenchmarkAblation_PoolWidening(b *testing.B) {
	w := simnet.MustBuild(simnet.WorldSpec{
		Seed: 17,
		Providers: []simnet.ProviderSpec{{
			ASN: 65401, Name: "WidePool", Country: "DE",
			Allocations: []string{"2001:de0::/32"},
			Pools: []simnet.PoolSpec{{
				Prefix: "2001:de0:10::/44", AllocBits: 56,
				Rotation:  simnet.Every(24 * time.Hour),
				Occupancy: 0.3, EUIFrac: 1,
			}},
		}},
	})
	scanner := &zmap.Scanner{
		NewTransport: func() (zmap.Transport, error) { return zmap.NewLoopback(w, 0), nil },
		Config:       zmap.Config{Source: ip6.MustParseAddr("2620:11f:7000::53")},
	}
	pool := w.Providers()[0].Pools[0]
	start := pool.WANAddrNow(&pool.CPEs()[0])

	for _, widen := range []int{0, 2} {
		name := "no-widening"
		if widen > 0 {
			name = "widen-2-bits"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.Clock().Set(simnet.Epoch)
				tracker := &core.Tracker{
					Scanner:   scanner,
					RIB:       w.RIB(),
					AllocBits: map[uint32]int{65401: 56},
					PoolBits:  map[uint32]int{65401: 48},
					WidenBits: widen,
				}
				st, err := core.NewTrackState(start)
				if err != nil {
					b.Fatal(err)
				}
				found := 0
				for d := 0; d < 8; d++ {
					td, err := tracker.Step(context.Background(), st, d, uint64(i)<<8|uint64(d))
					if err != nil {
						b.Fatal(err)
					}
					if td.Found {
						found++
					}
					w.Clock().Advance(24 * time.Hour)
				}
				b.ReportMetric(float64(found), "days-found/8")
			}
		})
	}
}

// --- Defense evaluation matrix (§8 / DESIGN.md §11) ---

// BenchmarkDefenseMatrix times the full modality × defense matrix —
// the sweep `scent experiment` emits and internal/experiments asserts
// cell by cell — and reports its headline counts, so the benchmark
// output carries the defense scorecard's shape next to its timing.
func BenchmarkDefenseMatrix(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		m, err := experiments.RunDefenseMatrix(ctx, experiments.MatrixConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(m.Worlds)), "worlds")
		b.ReportMetric(float64(len(m.Cells)), "cells")
		if i == 0 {
			b.Log(m.Headline())
		}
	}
}
