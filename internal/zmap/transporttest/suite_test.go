package transporttest_test

import (
	"context"
	"net"
	"testing"

	"followscent/internal/ip6"
	"followscent/internal/simnet"
	"followscent/internal/zmap"
	"followscent/internal/zmap/transporttest"
)

// conformanceWorld is a tiny deterministic responder: one provider, one
// fully-occupied pool of always-answering EUI-64 CPEs, no rotation, no
// loss — so the same probe elicits the same response forever (the
// Harness.Probe determinism requirement).
func conformanceWorld(t *testing.T) (*simnet.World, ip6.Addr) {
	t.Helper()
	w, err := simnet.Build(simnet.WorldSpec{
		Seed: 11,
		Providers: []simnet.ProviderSpec{{
			ASN: 64700, Name: "ConformNet", Country: "DE",
			Allocations:    []string{"2001:db8::/32"},
			RouterHops:     2,
			BorderRespProb: 1,
			Pools: []simnet.PoolSpec{{
				Prefix: "2001:db8:10::/48", AllocBits: 60,
				Occupancy: 1, EUIFrac: 1,
			}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := w.Providers()[0].Pools[0]
	cpes := pool.CPEs()
	if len(cpes) == 0 {
		t.Fatal("conformance world has no CPEs")
	}
	return w, pool.WANAddrNow(&cpes[0])
}

// echoProbeTo builds a standalone ICMPv6 echo probe the same way the
// engine's echo module does.
func echoProbeTo(target ip6.Addr) []byte {
	cfg := &zmap.Config{
		Source:   ip6.MustParseAddr("2620:11f:7000::53"),
		Seed:     99,
		HopLimit: 64,
	}
	pr := zmap.EchoModule{}.NewProber(cfg, 0)
	return append([]byte(nil), pr.MakeProbe(target, 0, 0)...)
}

// quietProbe probes unrouted space: the world answers with silence.
func quietProbe() []byte {
	return echoProbeTo(ip6.MustParseAddr("3fff::1"))
}

func TestLoopbackConformance(t *testing.T) {
	w, target := conformanceWorld(t)
	transporttest.Run(t, transporttest.Harness{
		New: func(t *testing.T) zmap.Transport {
			return zmap.NewLoopback(w, 8)
		},
		Probe:    func() []byte { return echoProbeTo(target) },
		Quiet:    quietProbe,
		Buffered: true,
	})
}

// TestBatchAdapterConformance runs the suite against the loop-based
// BatchTransport adapter over a Loopback — the reference implementation
// of batch semantics. Together with TestUDPConformance (whose UDP
// transport implements BatchTransport natively via sendmmsg/recvmmsg)
// this pins both batched wire paths to the same contract.
func TestBatchAdapterConformance(t *testing.T) {
	w, target := conformanceWorld(t)
	transporttest.Run(t, transporttest.Harness{
		New: func(t *testing.T) zmap.Transport {
			return zmap.NewBatchAdapter(zmap.NewLoopback(w, 8))
		},
		Probe:    func() []byte { return echoProbeTo(target) },
		Quiet:    quietProbe,
		Buffered: true,
	})
}

func TestUDPConformance(t *testing.T) {
	w, target := conformanceWorld(t)
	conn, err := simnet.ListenUDP(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.ServeUDP(ctx, conn, 0) }()
	addr := conn.LocalAddr().String()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeUDP: %v", err)
		}
		conn.Close()
	})

	transporttest.Run(t, transporttest.Harness{
		New: func(t *testing.T) zmap.Transport {
			tr, err := zmap.DialUDP(addr)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
		Probe: func() []byte { return echoProbeTo(target) },
		Quiet: quietProbe,
		// Datagrams buffered in the kernel are dropped at close.
		Buffered: false,
	})
}
