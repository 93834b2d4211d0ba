package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"followscent/internal/bgp"
	"followscent/internal/core"
	"followscent/internal/ip6"
	"followscent/internal/oui"
	"followscent/internal/scentd"
)

// serve-ingest: reads beside writes on one store. One closed-loop
// client (an analyst waits for each reply) issues a seeded query mix
// over real TCP while a writer commits a new day on an open-loop
// schedule. Every commit deep-clones the corpus into a fresh snapshot,
// and the first `pools` query after each publish re-derives the per-AS
// inferences, so a cheaper commit that slows lookups — or the reverse —
// shows in one run. The scanning layers do nothing here.

const (
	serveDevices     = 5000
	servePreloadDays = 14
	serveCommitEvery = 500 * time.Millisecond
	serveCheckEvery  = 1000
	// servePlacements is how many /64s each synthetic device cycles
	// through: every day moves every device, so every commit changes
	// every index a query reads.
	servePlacements = 7
)

var serveRoute = bgp.Route{Prefix: ip6.MustParsePrefix("2001:16b8::/32"), ASN: 8881, Country: "DE"}

// The query mix, in cumulative shares.
var serveMix = []struct {
	op    string
	upTo  float64
	share string
}{
	{"lookup", 0.70, "70%"},
	{"prefixes", 0.90, "20%"},
	{"stats", 0.95, "5%"},
	{"vendors", 0.995, "4.5%"},
	{"pools", 1, "0.5%"},
}

// serveFleet is the synthetic device population: EUI-64 devices of one
// vendor whose MAC suffixes start at a seed-derived offset.
type serveFleet struct {
	base    uint32
	devices int
}

func (f serveFleet) mac(d int) ip6.MAC {
	return ip6.MACFromOUI(ip6.OUI{0x38, 0x10, 0xd5}, (f.base+uint32(d))&0xffffff)
}

// addr is device d's address while it sits in placement p.
func (f serveFleet) addr(d, p int) ip6.Addr {
	hi := serveRoute.Prefix.Addr().High64() | uint64(0x100+p)<<16
	return ip6.AddrFromBytes(append(be64(hi), be64(ip6.EUI64FromMAC(f.mac(d)))...))
}

func be64(v uint64) []byte {
	return []byte{byte(v >> 56), byte(v >> 48), byte(v >> 40), byte(v >> 32), byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// observe feeds one synthetic day to record: every device answers from
// the day's placement of it. A day sends two probes per device.
func (f serveFleet) observe(day int, record func(target, from ip6.Addr)) {
	for d := 0; d < f.devices; d++ {
		a := f.addr(d, (d+day)%servePlacements)
		record(a, a)
	}
}

// commitDay ingests one synthetic day into the store.
func (f serveFleet) commitDay(st *scentd.Store, day int, tr *Recorder, op int) error {
	root := tr.Start("serve.commit", 0, op)
	defer tr.End(root)
	id := tr.Start("scentd.Store.BeginDay+Record", root, op)
	di, err := st.BeginDay(day)
	if err != nil {
		return err
	}
	f.observe(day, di.Record)
	di.AddProbes(uint64(f.devices * 2))
	tr.End(id)
	id = tr.Start("scentd.DayIngest.Commit", root, op)
	defer tr.End(id)
	return di.Commit()
}

type serveInstance struct {
	fleet   serveFleet
	seed    uint64
	preload int
	days    int // committed so far
	// checkEvery is how often a response is replayed through
	// scentd.Answer on the snapshot it was stamped with.
	checkEvery  int
	commitEvery time.Duration
	dir         string
	st          *scentd.Store
	// corrupt makes the replay check expect a wrong answer.
	corrupt bool
}

func setupServe(env runEnv) (instance, error) {
	s := &serveInstance{
		fleet:       serveFleet{base: uint32(mix64(env.seed)), devices: serveDevices},
		seed:        env.seed,
		preload:     servePreloadDays,
		checkEvery:  serveCheckEvery,
		commitEvery: serveCommitEvery,
		corrupt:     env.corrupt,
	}
	if env.tiny {
		s.fleet.devices, s.preload, s.checkEvery, s.commitEvery = 64, 3, 20, 20*time.Millisecond
	}
	var err error
	if s.dir, err = tempDir(env, "serve-ingest"); err != nil {
		return nil, err
	}
	rib := bgp.New()
	rib.Insert(serveRoute)
	if s.st, err = scentd.OpenStore(journalPath(s.dir), rib); err != nil {
		return nil, err
	}
	for ; s.days < s.preload; s.days++ {
		if err := s.fleet.commitDay(s.st, s.days, nil, 0); err != nil {
			return nil, errf("serve-ingest", "preload day %d: %v", s.days, err)
		}
	}
	return s, nil
}

// snapshotRing remembers the last few published snapshots, so a
// response can be replayed on the snapshot its Days stamp names even
// when a commit landed while it was in flight.
type snapshotRing struct {
	mu    sync.Mutex
	snaps []*core.Snapshot
}

func (r *snapshotRing) push(s *core.Snapshot) {
	r.mu.Lock()
	r.snaps = append(r.snaps, s)
	if len(r.snaps) > 4 {
		r.snaps = r.snaps[1:]
	}
	r.mu.Unlock()
}

func (r *snapshotRing) find(days []int) *core.Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.snaps {
		if slices.Equal(s.Days(), days) {
			return s
		}
	}
	return nil
}

func (s *serveInstance) request(rng *rand.Rand) scentd.Request {
	u := rng.Float64()
	op := serveMix[len(serveMix)-1].op
	for _, m := range serveMix {
		if u < m.upTo {
			op = m.op
			break
		}
	}
	switch op {
	case "lookup":
		return scentd.Request{Op: op, Addr: s.fleet.addr(rng.Intn(s.fleet.devices), rng.Intn(servePlacements)).String()}
	case "prefixes":
		return scentd.Request{Op: op, IID: fmt.Sprintf("%016x", ip6.EUI64FromMAC(s.fleet.mac(rng.Intn(s.fleet.devices))))}
	}
	return scentd.Request{Op: op}
}

func (s *serveInstance) run(ctx context.Context, d time.Duration, tr *Recorder) (*phase, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srvCtx, stopServer := context.WithCancel(ctx)
	srv := &scentd.Server{Store: s.st}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(srvCtx, ln) }()
	defer func() {
		stopServer()
		<-serveErr
	}()
	client, err := scentd.Dial(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer client.Close()

	ring := &snapshotRing{}
	ring.push(s.st.Snapshot())
	reg := oui.Builtin()
	rng := rand.New(rand.NewSource(int64(mix64(s.seed ^ 0x5e12))))

	// The writer: one day due every commitEvery, whatever the
	// previous one took. Each commit is timed from when it was due.
	type commitLog struct {
		latency, late []time.Duration
		err           error
	}
	stopWriter := make(chan struct{})
	writerDone := make(chan commitLog, 1)
	startWriter := func(start time.Time) {
		go func() {
			var log commitLog
			defer func() { writerDone <- log }()
			for i := 0; ; i++ {
				due := start.Add(time.Duration(i+1) * s.commitEvery)
				select {
				case <-stopWriter:
					if len(log.latency) > 0 {
						return
					}
					// A run too short to reach the first due time still
					// commits once: every run measures a commit.
				case <-time.After(time.Until(due)):
				}
				began := time.Now()
				if err := s.fleet.commitDay(s.st, s.days, tr, -(i + 1)); err != nil {
					log.err = err
					return
				}
				s.days++
				ring.push(s.st.Snapshot())
				log.late = append(log.late, began.Sub(due))
				log.latency = append(log.latency, time.Since(due))
			}
		}()
	}

	byOp := map[string]int{}
	p, err := measure(func(p *phase) error {
		start := time.Now()
		startWriter(start)
		for n := 1; time.Since(start) < d; n++ {
			req := s.request(rng)
			t0 := time.Now()
			id := tr.Start("scentd.Client.Do."+req.Op, 0, n)
			resp, err := client.Do(req)
			tr.End(id)
			p.ops = append(p.ops, time.Since(t0))
			byOp[req.Op]++
			if err != nil {
				return errf("serve-ingest", "query %d (%s): %v", n, req.Op, err)
			}
			ok := resp.OK
			if ok && n%s.checkEvery == 0 {
				ok = s.replays(ring, reg, req, resp)
			}
			p.check(ok)
		}
		close(stopWriter)
		log := <-writerDone
		if log.err != nil {
			return errf("serve-ingest", "commit: %v", log.err)
		}
		p.aux = log.latency
		p.attempted += len(log.latency)
		p.work = uint64(len(log.latency) * s.fleet.devices)
		if len(log.late) > 0 {
			late := sortedCopy(micros(log.late))
			p.notes["commit_late_p50_us"] = quantile(late, 0.5)
			p.notes["commit_late_max_us"] = late[len(late)-1]
		}
		return nil
	})
	if p != nil {
		p.notes["commits"] = float64(len(p.aux))
		for op, n := range byOp {
			p.notes["queries."+op] = float64(n)
		}
	}
	return p, err
}

// replays reports whether resp is exactly what scentd.Answer gives for
// req on the snapshot resp is stamped with.
func (s *serveInstance) replays(ring *snapshotRing, reg *oui.Registry, req scentd.Request, resp scentd.Response) bool {
	snap := ring.find(resp.Days)
	if snap == nil {
		return false
	}
	want := scentd.Answer(snap, reg, req)
	if s.corrupt {
		want.OK = !want.OK
	}
	a, errA := json.Marshal(want)
	b, errB := json.Marshal(resp)
	return errA == nil && errB == nil && string(a) == string(b)
}

func (s *serveInstance) close() error {
	err := s.st.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func (s *serveInstance) sizes() map[string]any {
	mix := map[string]string{}
	for _, m := range serveMix {
		mix[m.op] = m.share
	}
	return map[string]any{
		"devices":         s.fleet.devices,
		"preload_days":    s.preload,
		"commit_every_ms": s.commitEvery.Milliseconds(),
		"query_mix":       mix,
		"clients":         "1 closed-loop",
		"check_every":     s.checkEvery,
		"transport":       "TCP over 127.0.0.1",
	}
}
