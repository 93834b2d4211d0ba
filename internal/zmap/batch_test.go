package zmap_test

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"followscent/internal/ip6"
	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

// The batched wire path's contract is invisibility: Config.Batch trades
// syscalls for nothing else, so a scan's validated result set must be
// byte-identical whether probes move one per syscall or in vectored
// batches, at any worker count. These tests are the transport half of
// that promise (TestScanWorkerDeterminism is the partitioning half, and
// experiments.TestMatrixLoopbackUDPEquivalence the artifact-level one).

func resultKey(r zmap.Result) string {
	return fmt.Sprintf("%s|%s|%d|%d|%d", r.Target, r.From, r.Type, r.Code, r.Seq)
}

// collectScan runs one scan via the provided runner and returns the
// sorted result keys.
func collectScan(t *testing.T, want uint64, scan func(zmap.Handler) (zmap.Stats, error)) []string {
	t.Helper()
	var mu sync.Mutex
	var keys []string
	stats, err := scan(func(r zmap.Result) {
		mu.Lock()
		keys = append(keys, resultKey(r))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != want {
		t.Fatalf("sent %d probes, want %d", stats.Sent, want)
	}
	if stats.Matched == 0 {
		t.Fatal("scan validated no responses")
	}
	sort.Strings(keys)
	return keys
}

func diffKeys(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, baseline has %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: result %d differs: %q vs baseline %q", label, i, got[i], want[i])
		}
	}
}

// TestScanBatchLoopbackEquivalence pins batched scans over the
// in-process transport (through the batch-over-single adapter — the
// Loopback has no native vectored path) to the per-packet baseline:
// identical result sets at batch widths 7 and 64, workers 1, 2 and 4,
// each worker on its own loopback. The world is rebuilt per scan so
// stateful simulation (rate limiters) starts identically for every
// configuration under comparison.
func TestScanBatchLoopbackEquivalence(t *testing.T) {
	source := ip6.MustParseAddr("2620:11f:7000::53")
	pool := simnet.TestWorld(21).Providers()[0].Pools[0]
	ts, err := zmap.NewSubnetTargets([]ip6.Prefix{pool.Prefix}, 56, 9)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers, batch int) []string {
		w := simnet.TestWorld(21)
		cfg := zmap.Config{Source: source, Seed: 17, Workers: workers, Batch: batch}
		return collectScan(t, ts.Len(), func(h zmap.Handler) (zmap.Stats, error) {
			return zmap.ScanWorkers(context.Background(), func(int) (zmap.Transport, error) {
				return zmap.NewLoopback(w, 0), nil
			}, ts, cfg, h)
		})
	}
	baseline := run(1, 0)
	for _, workers := range []int{1, 2, 4} {
		for _, batch := range []int{7, 64} {
			got := run(workers, batch)
			diffKeys(t, fmt.Sprintf("workers=%d batch=%d", workers, batch), baseline, got)
		}
	}
}

// TestScanBatchUDPEquivalence is the wire half: per-worker UDP sockets
// into a live simnetd-style server, per-packet vs sendmmsg/recvmmsg
// batches, workers 1, 2 and 4 — one result set, bit-identical.
func TestScanBatchUDPEquivalence(t *testing.T) {
	source := ip6.MustParseAddr("2620:11f:7000::53")
	pool := simnet.TestWorld(61).Providers()[0].Pools[0]
	ts, err := zmap.NewSubnetTargets([]ip6.Prefix{pool.Prefix}, 56, 9)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers, batch int) []string {
		w := simnet.TestWorld(61)
		conn, err := simnet.ListenUDP(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- w.ServeUDP(ctx, conn, 0) }()
		defer func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("ServeUDP: %v", err)
			}
			conn.Close()
		}()
		cfg := zmap.Config{
			Source:  source,
			Seed:    17,
			Workers: workers,
			Batch:   batch,
			// Pace gently and linger: loopback UDP still drops on bursts,
			// and byte-equality tolerates zero drops.
			Rate:     20000,
			Cooldown: 400 * time.Millisecond,
		}
		return collectScan(t, ts.Len(), func(h zmap.Handler) (zmap.Stats, error) {
			return zmap.ScanWorkers(context.Background(),
				zmap.UDPFactory(conn.LocalAddr().String()), ts, cfg, h)
		})
	}
	baseline := run(1, 0)
	for _, workers := range []int{1, 2, 4} {
		for _, batch := range []int{0, 64} {
			if workers == 1 && batch == 0 {
				continue
			}
			got := run(workers, batch)
			diffKeys(t, fmt.Sprintf("workers=%d batch=%d", workers, batch), baseline, got)
		}
	}
}
