package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"followscent/internal/campaign"
	"followscent/internal/core"
	"followscent/internal/experiments"
	"followscent/internal/scentd"
	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

// campaign-wire: a §5 campaign as it is deployed — a coordinator
// leasing shards over TCP to scanner nodes that probe a UDP-served
// world over 127.0.0.1 in sendmmsg batches, every finalized day
// journalled, fsynced and published by a scentd.Store. The offered rate
// is fixed, so the signal is CPU per probe and the time the
// coordination adds to a paced day, not wall time.

const (
	// cwRate is the aggregate offered probe rate. Paced batched probing
	// is loss-free on the reference box from 50k to 400k pps; an unpaced
	// blast loses a quarter of its replies to socket-buffer overruns.
	cwRate     = 200_000
	cwShards   = 4
	cwCooldown = 50 * time.Millisecond
)

// cwDay is the reference's knowledge of one campaign day.
type cwDay struct {
	results resultSet
	corpus  string // sha256 of Corpus.Save after this day committed
}

type cwInstance struct {
	env     runEnv
	seed    uint64
	spec    campaign.Spec
	perDay  uint64
	nodes   int
	want    []cwDay
	dir     string
	subBits int
}

func cwWorld(seed uint64) *simnet.World { return simnet.TestWorld(mix64(seed ^ 0xc4a9)) }

func setupCampaignWire(env runEnv) (instance, error) {
	w := cwWorld(env.seed)
	var prefixes []string
	for _, p := range w.Providers() {
		for _, pool := range p.Pools {
			prefixes = append(prefixes, pool.Prefix.String())
		}
	}
	c := &cwInstance{env: env, seed: env.seed, nodes: min(runtime.NumCPU(), cwShards), subBits: 64}
	if env.tiny {
		c.subBits = 56
	}
	c.spec = campaign.Spec{
		Prefixes: prefixes,
		SubBits:  c.subBits,
		Source:   experiments.Vantage.String(),
		Seed:     mix64(env.seed),
		Salt:     mix64(env.seed^0x5a17) | 1,
		Shards:   cwShards,
	}
	c.spec.Days = 1
	ts, _, err := c.spec.Build()
	if err != nil {
		return nil, errf("campaign-wire", "%v", err)
	}
	c.perDay = ts.Len()
	// The pacer bounds a day from below, so this many days cannot finish
	// inside the run: the measured phase always ends by its own clock.
	c.spec.Days = int(env.dur.Seconds()*cwRate/float64(c.perDay)) + 2
	if err := c.reference(); err != nil {
		return nil, errf("campaign-wire", "reference run: %v", err)
	}
	if env.corrupt {
		c.want[0].results.sum++
	}
	if c.dir, err = tempDir(env, "campaign-wire"); err != nil {
		return nil, err
	}
	return c, nil
}

// reference runs every day of the spec through a same-seed world
// replica over the in-process Loopback with one worker and no
// sharding, feeding a plain core.Corpus exactly as core.Campaign does.
func (c *cwInstance) reference() error {
	w := cwWorld(c.seed)
	spec := c.spec
	ts, cfg, err := spec.Build()
	if err != nil {
		return err
	}
	cfg.Workers, cfg.Shards = 1, 1
	corpus := core.NewCorpus(w.RIB())
	factory := func(int) (zmap.Transport, error) { return zmap.NewLoopback(w, 0), nil }
	for day := 0; day < spec.Days; day++ {
		var rs resultSet
		sd := corpus.NewScanDay(day)
		stats, err := zmap.ScanWorkers(context.Background(), factory, ts, cfg, func(r zmap.Result) {
			r.Worker = 0
			rs.add(r)
			sd.Record(r.Target, r.From)
		})
		if err != nil {
			return err
		}
		sd.AddProbes(stats.Sent)
		sd.Commit()
		var buf bytes.Buffer
		if err := corpus.Save(&buf); err != nil {
			return err
		}
		c.want = append(c.want, cwDay{results: rs, corpus: sha(buf.Bytes())})
		w.Clock().Advance(24 * time.Hour)
	}
	return nil
}

func (c *cwInstance) run(ctx context.Context, d time.Duration, tr *Recorder) (*phase, error) {
	w := cwWorld(c.seed)
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	srvCtx, stopServer := context.WithCancel(ctx)
	serveErr := make(chan error, 1)
	go func() { serveErr <- w.ServeUDP(srvCtx, conn, 0) }()
	defer func() {
		stopServer()
		<-serveErr
	}()
	udpAddr := conn.LocalAddr().String()

	st, err := scentd.OpenStore(journalPath(c.dir), w.RIB())
	if err != nil {
		return nil, err
	}
	defer st.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	// dayStart[d] is when a node first built a transport for day d —
	// the closest an outside observer gets to "first shard leased".
	var mu sync.Mutex
	dayStart := map[int]time.Time{}
	dayRoot := map[int]int{}
	var counters batchCounters

	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	var start time.Time
	days, stopped := 0, false
	p, err := measure(func(p *phase) error {
		start = time.Now()
		coord := &campaign.Coordinator{
			Spec: c.spec,
			TTL:  30 * time.Second,
			Wait: func(d time.Duration) { w.Clock().Advance(d) },
			Record: func(day int, rs []zmap.Result, probes uint64) error {
				mu.Lock()
				t0, root := dayStart[day], dayRoot[day]
				mu.Unlock()
				op := day + 1
				commit0 := time.Now()
				id := tr.Start("scentd.Store.BeginDay+Record", root, op)
				di, err := st.BeginDay(day)
				if err != nil {
					return err
				}
				var got resultSet
				for _, r := range rs {
					got.add(r)
					di.Record(r.Target, r.From)
				}
				di.AddProbes(probes)
				tr.End(id)
				id = tr.Start("scentd.DayIngest.Commit", root, op)
				err = di.Commit()
				tr.End(id)
				tr.End(root)
				if err != nil {
					return err
				}
				now := time.Now()
				p.aux = append(p.aux, now.Sub(commit0))
				p.ops = append(p.ops, now.Sub(t0))
				p.work += probes
				p.check(got == c.want[day].results)
				days = day + 1
				if now.Sub(start) >= d || days == c.spec.Days {
					stopped = true
					stop()
				}
				return nil
			},
		}
		coordErr := make(chan error, 1)
		go func() { coordErr <- coord.Run(runCtx, ln) }()

		var wg sync.WaitGroup
		nodeErrs := make([]error, c.nodes) // only exits before the stop
		for n := 0; n < c.nodes; n++ {
			wk := &campaign.Worker{
				Name: fmt.Sprintf("bench-n%d", n),
				Addr: ln.Addr().String(),
				NewTransport: func(day, shard int) zmap.TransportFactory {
					mu.Lock()
					if _, seen := dayStart[day]; !seen {
						dayStart[day] = time.Now()
						dayRoot[day] = tr.Start("campaign.day", 0, day+1)
					}
					mu.Unlock()
					if tr == nil {
						return zmap.UDPFactory(udpAddr)
					}
					return counters.factory(udpAddr)
				},
				Config: zmap.Config{Workers: 1, Batch: 64, Rate: cwRate / c.nodes, Cooldown: cwCooldown},
				Poll:   time.Millisecond,
				// One result frame per shard (~30k results, ~3 MB), after
				// its scan: a flush RPC in mid-scan stalls the receive loop
				// behind a TCP round trip and overruns the socket buffer.
				FlushEvery: 1 << 16,
			}
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				if err := wk.Run(runCtx); runCtx.Err() == nil {
					nodeErrs[n] = fmt.Errorf("node %d left mid-campaign: %v", n, err)
				}
			}(n)
		}
		wg.Wait()
		err := <-coordErr
		for _, nerr := range nodeErrs {
			if nerr != nil {
				return nerr
			}
		}
		// Stopping at a day boundary cancels the coordinator mid-lease;
		// only a coordinator that ended before the stop has failed.
		if !stopped {
			return fmt.Errorf("campaign ended after %d days: %v", days, err)
		}
		return nil
	})
	if err != nil {
		return p, errf("campaign-wire", "%v", err)
	}
	// The store's corpus after N days must be the reference's after N.
	var buf bytes.Buffer
	if err := st.Corpus().Save(&buf); err != nil {
		return p, err
	}
	p.check(sha(buf.Bytes()) == c.want[days-1].corpus)
	p.notes["days"] = float64(days)
	p.notes["cpu_us_per_probe"] = float64(p.cpu.Microseconds()) / float64(p.work)
	counters.flush(tr)
	return p, nil
}

func (c *cwInstance) close() error { return os.RemoveAll(c.dir) }

func (c *cwInstance) sizes() map[string]any {
	return map[string]any{
		"world":          "simnet.TestWorld(f(seed)), all pools",
		"sub_bits":       c.subBits,
		"probes_per_day": c.perDay,
		"rate_pps":       cwRate,
		"shards_per_day": cwShards,
		"nodes":          c.nodes,
		"node_config":    "Workers 1, Batch 64",
		"cooldown_ms":    cwCooldown.Milliseconds(),
		"max_days":       c.spec.Days,
		"transport":      "UDP over 127.0.0.1 to World.ServeUDP; leases over TCP 127.0.0.1",
	}
}

// batchCounters wraps the nodes' UDP transports in a traced run to
// count packets per vectored call — the batch fill the engine achieves.
type batchCounters struct {
	mu                  sync.Mutex
	sendCalls, sendPkts int64
	recvCalls, recvPkts int64
	sendNanos           int64
}

type countedBatch struct {
	zmap.BatchTransport
	c *batchCounters
}

func (b *batchCounters) factory(addr string) zmap.TransportFactory {
	return func(int) (zmap.Transport, error) {
		u, err := zmap.DialUDP(addr)
		if err != nil {
			return nil, err
		}
		return &countedBatch{BatchTransport: u, c: b}, nil
	}
}

func (t *countedBatch) SendBatch(pkts [][]byte) (int, error) {
	t0 := time.Now()
	n, err := t.BatchTransport.SendBatch(pkts)
	el := time.Since(t0).Nanoseconds()
	t.c.mu.Lock()
	t.c.sendCalls++
	t.c.sendPkts += int64(n)
	t.c.sendNanos += el
	t.c.mu.Unlock()
	return n, err
}

func (t *countedBatch) RecvBatch(bufs [][]byte, sizes []int) (int, error) {
	n, err := t.BatchTransport.RecvBatch(bufs, sizes)
	t.c.mu.Lock()
	t.c.recvCalls++
	t.c.recvPkts += int64(n)
	t.c.mu.Unlock()
	return n, err
}

func (b *batchCounters) flush(tr *Recorder) {
	b.mu.Lock()
	defer b.mu.Unlock()
	tr.Count("zmap.UDP.SendBatch.calls", b.sendCalls)
	tr.Count("zmap.UDP.SendBatch.packets", b.sendPkts)
	tr.Count("zmap.UDP.SendBatch.ns", b.sendNanos)
	tr.Count("zmap.UDP.RecvBatch.calls", b.recvCalls)
	tr.Count("zmap.UDP.RecvBatch.packets", b.recvPkts)
}
