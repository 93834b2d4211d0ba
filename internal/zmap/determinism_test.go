package zmap

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sort"
	"sync"
	"testing"

	"followscent/internal/icmp6"
	"followscent/internal/ip6"
)

// recTransport records every sent probe packet and never produces
// responses: Recv blocks until Close. It exercises the asynchronous
// sender+receiver machinery (no Exchanger fast path).
type recTransport struct {
	mu     sync.Mutex
	pkts   [][]byte
	closed chan struct{}
	once   sync.Once
}

func newRecTransport() *recTransport {
	return &recTransport{closed: make(chan struct{})}
}

func (r *recTransport) Send(pkt []byte) error {
	r.mu.Lock()
	r.pkts = append(r.pkts, append([]byte(nil), pkt...))
	r.mu.Unlock()
	return nil
}

func (r *recTransport) Recv(buf []byte) (int, error) {
	<-r.closed
	return 0, io.EOF
}

func (r *recTransport) Close() error {
	r.once.Do(func() { close(r.closed) })
	return nil
}

// probes decodes the recorded packets into (target, seq) pairs.
func (r *recTransport) probes(t *testing.T) []probe {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]probe, 0, len(r.pkts))
	var pkt icmp6.Packet
	for _, b := range r.pkts {
		if err := pkt.Unmarshal(b); err != nil {
			t.Fatalf("recorded probe does not parse: %v", err)
		}
		_, seq, ok := pkt.Message.Echo()
		if !ok {
			t.Fatal("recorded probe is not an echo request")
		}
		out = append(out, probe{pkt.Header.Dst, seq})
	}
	return out
}

type probe struct {
	target ip6.Addr
	seq    uint16
}

func sortedProbes(ps []probe) []probe {
	out := append([]probe(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].target.Cmp(out[j].target); c != 0 {
			return c < 0
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// isSubsequence reports whether sub appears within full in order.
func isSubsequence(sub, full []probe) bool {
	j := 0
	for _, p := range full {
		if j < len(sub) && p == sub[j] {
			j++
		}
	}
	return j == len(sub)
}

func scanRecorded(t *testing.T, ts TargetSet, cfg Config) [][]probe {
	t.Helper()
	cfg.fill()
	recs := make([]*recTransport, cfg.Workers)
	_, err := ScanWorkers(context.Background(), func(w int) (Transport, error) {
		recs[w] = newRecTransport()
		return recs[w], nil
	}, ts, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]probe, len(recs))
	for w, r := range recs {
		out[w] = r.probes(t)
	}
	return out
}

func testTargets(t *testing.T) TargetSet {
	t.Helper()
	ts, err := NewSubnetTargets([]ip6.Prefix{
		ip6.MustParsePrefix("2001:db8:1::/48"),
		ip6.MustParsePrefix("2001:db8:2::/52"),
	}, 56, 11)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestScanWorkerDeterminism proves the parallel engine's partitioning
// contract: for any worker count, the union of the workers' probes is
// byte-identical to the sequential engine's probe sequence, and each
// worker's order is a subsequence of the sequential order.
func TestScanWorkerDeterminism(t *testing.T) {
	ts := testTargets(t)
	base := Config{Source: vantage, Seed: 42, Workers: 1}
	seq := scanRecorded(t, ts, base)[0]
	if uint64(len(seq)) != ts.Len() {
		t.Fatalf("sequential engine sent %d probes, want %d", len(seq), ts.Len())
	}
	wantSorted := sortedProbes(seq)

	for _, workers := range []int{2, 3, 8} {
		cfg := base
		cfg.Workers = workers
		perWorker := scanRecorded(t, ts, cfg)
		var all []probe
		for w, ps := range perWorker {
			if !isSubsequence(ps, seq) {
				t.Errorf("workers=%d: worker %d probe order is not a subsequence of the sequential order", workers, w)
			}
			all = append(all, ps...)
		}
		if len(all) != len(seq) {
			t.Fatalf("workers=%d: sent %d probes, want %d", workers, len(all), len(seq))
		}
		gotSorted := sortedProbes(all)
		for i := range gotSorted {
			if gotSorted[i] != wantSorted[i] {
				t.Fatalf("workers=%d: probed target set differs from sequential engine at %d", workers, i)
			}
		}
	}
}

// TestScanWorkerShardDeterminism runs the full Workers x Shards grid:
// the union over shards and workers must be the complete target set,
// identically to a one-worker one-shard scan.
func TestScanWorkerShardDeterminism(t *testing.T) {
	ts := testTargets(t)
	full := sortedProbes(scanRecorded(t, ts, Config{Source: vantage, Seed: 7, Workers: 1})[0])

	for _, shards := range []int{1, 3} {
		for _, workers := range []int{1, 4} {
			var all []probe
			for shard := 0; shard < shards; shard++ {
				cfg := Config{Source: vantage, Seed: 7, Workers: workers, Shard: shard, Shards: shards}
				for _, ps := range scanRecorded(t, ts, cfg) {
					all = append(all, ps...)
				}
			}
			got := sortedProbes(all)
			if len(got) != len(full) {
				t.Fatalf("shards=%d workers=%d: %d probes, want %d", shards, workers, len(got), len(full))
			}
			for i := range got {
				if got[i] != full[i] {
					t.Fatalf("shards=%d workers=%d: probe set differs at %d", shards, workers, i)
				}
			}
		}
	}
}

// TestScanShardedResumeProbesSameTargets is the one-pass form of the
// regression test for the shard-filter bug where the position counter
// carried over between walks of a re-created stream, so with Shards > 1
// the second walk probed a different target subset than the first. A
// resume is the walk that re-creates a stream: for each shard, the
// probes sent before a worker death plus those of the resumed scan must
// be exactly the uninterrupted shard scan's probes, in its order.
func TestScanShardedResumeProbesSameTargets(t *testing.T) {
	ts := testTargets(t)
	for shard := 0; shard < 2; shard++ {
		cfg := Config{Source: vantage, Seed: 3, Workers: 1, Shard: shard, Shards: 2}
		want := scanRecorded(t, ts, cfg)[0]

		died := newRecTransport()
		icfg := cfg
		icfg.Failure = QuarantineWorker{}
		_, err := ScanWorkers(context.Background(), func(w int) (Transport, error) {
			return NewFaultTransport(died, FaultPlan{DieAfterSends: 10}, w), nil
		}, ts, icfg, nil)
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("shard %d: err = %v, want *PartialError", shard, err)
		}
		rcfg := cfg
		rcfg.Resume = pe.Checkpoint
		got := append(died.probes(t), scanRecorded(t, ts, rcfg)[0]...)
		if len(got) != len(want) {
			t.Fatalf("shard %d: interrupted+resumed sent %d probes, want %d", shard, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shard %d: probe %d is %v, the uninterrupted scan's is %v", shard, i, got[i], want[i])
			}
		}
	}
}

// TestEchoTemplateMatchesAppend pins the template fast path to the
// reference packet builder byte for byte.
func TestEchoTemplateMatchesAppend(t *testing.T) {
	src := ip6.MustParseAddr("2620:11f:7000::53")
	tmpl := icmp6.NewEchoTemplate(src)
	targets := []ip6.Addr{
		ip6.MustParseAddr("2001:db8::1"),
		ip6.MustParseAddr("2001:db8:ffff:eeee:dddd:cccc:bbbb:aaaa"),
		ip6.MustParseAddr("::"),
	}
	for _, target := range targets {
		for _, idseq := range [][2]uint16{{0, 0}, {0xffff, 7}, {0x1234, 0xffff}} {
			want := icmp6.AppendEchoRequest(nil, src, target, idseq[0], idseq[1], nil)
			got := tmpl.Packet(target, idseq[0], idseq[1])
			if !bytes.Equal(got, want) {
				t.Fatalf("template packet for %s id=%#x seq=%d differs\n got %x\nwant %x",
					target, idseq[0], idseq[1], got, want)
			}
		}
	}
}
