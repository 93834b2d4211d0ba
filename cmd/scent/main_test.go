package main

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"

	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

// The CLI's command funcs run against the in-process test world; output
// goes to stdout, which `go test` swallows unless -v. These are smoke
// tests for the wiring, not the measurement logic (tested in internal/).

func TestBuildEnv(t *testing.T) {
	env, err := buildEnv(7, "test", "")
	if err != nil {
		t.Fatal(err)
	}
	if env.World == nil || env.Scanner == nil {
		t.Fatal("incomplete env")
	}
	if _, err := buildEnv(7, "bogus", ""); err == nil {
		t.Fatal("bogus world accepted")
	}
	// Remote mode swaps the transport factory and paces the scan.
	envR, err := buildEnv(7, "test", "127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	if envR.Scanner.Config.Rate == 0 {
		t.Fatal("remote env not paced")
	}
	// With no clock server at the address, a remote transport fails
	// closed — the dial error wrapped — instead of probing a world whose
	// clock it could not set.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	envD, err := buildEnv(7, "test", dead)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := envD.Scanner.NewTransport()
	var opErr *net.OpError
	if tr != nil || !errors.As(err, &opErr) || opErr.Op != "dial" {
		t.Fatalf("NewTransport with no clock server at %s = %v, %v; want a wrapped dial error", dead, tr, err)
	}
}

func TestRunGrid(t *testing.T) {
	env, _ := buildEnv(7, "test", "")
	if err := runGrid(context.Background(), env, []string{"-prefix", "2001:db8:10::/48"}); err != nil {
		t.Fatal(err)
	}
	if err := runGrid(context.Background(), env, nil); err == nil {
		t.Fatal("missing -prefix accepted")
	}
	if err := runGrid(context.Background(), env, []string{"-prefix", "bogus"}); err == nil {
		t.Fatal("bad prefix accepted")
	}
}

func TestRunTraceSweep(t *testing.T) {
	env, _ := buildEnv(7, "test", "")
	env.Scanner.Config.Workers = 2
	if err := runTraceSweep(context.Background(), env, []string{"-prefix", "2001:db8:10::/48", "-max-ttl", "5"}); err != nil {
		t.Fatal(err)
	}
	if err := runTraceSweep(context.Background(), env, nil); err == nil {
		t.Fatal("missing -prefix accepted")
	}
	if err := runTraceSweep(context.Background(), env, []string{"-prefix", "bogus"}); err == nil {
		t.Fatal("bad prefix accepted")
	}
	// An out-of-range sweep depth is refused before any probe: exit 1,
	// no transport opened.
	opened := 0
	env.Scanner.NewTransport = func() (zmap.Transport, error) {
		opened++
		return zmap.NewLoopback(env.World, 0), nil
	}
	for _, ttl := range []string{"0", "256", "999"} {
		err := runTraceSweep(context.Background(), env, []string{"-prefix", "2001:db8:10::/48", "-max-ttl", ttl})
		if err == nil || !strings.Contains(err.Error(), "-max-ttl "+ttl+" out of range") {
			t.Fatalf("-max-ttl %s: err = %v", ttl, err)
		}
		if code := finish(err, "", nil); code != 1 {
			t.Fatalf("-max-ttl %s: exit %d, want 1", ttl, code)
		}
	}
	if opened != 0 {
		t.Fatalf("%d transports opened for refused sweeps", opened)
	}
}

func TestRunTCPScan(t *testing.T) {
	env, _ := buildEnv(7, "test", "")
	env.Scanner.Config.Workers = 2
	if err := runTCPScan(context.Background(), env, []string{"-prefix", "2001:db8:10::/48", "-ports", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := runTCPScan(context.Background(), env, nil); err == nil {
		t.Fatal("missing -prefix accepted")
	}
	if err := runTCPScan(context.Background(), env, []string{"-prefix", "bogus"}); err == nil {
		t.Fatal("bad prefix accepted")
	}
	if err := runTCPScan(context.Background(), env, []string{"-prefix", "2001:db8:10::/48", "-ports", "0"}); err == nil {
		t.Fatal("bad -ports accepted")
	}
	if err := runTCPScan(context.Background(), env, []string{"-prefix", "2001:db8:10::/48", "-base-port", "70000"}); err == nil {
		t.Fatal("bad -base-port accepted")
	}
	if err := runTCPScan(context.Background(), env, []string{
		"-prefix", "2001:db8:10::/48", "-base-port", "60000", "-ports", "10000",
	}); err == nil {
		t.Fatal("port sweep overflowing the port space accepted")
	}
}

func TestRunNDP(t *testing.T) {
	env, _ := buildEnv(7, "test", "")
	// Ground truth: one live WAN address plus one vacant candidate.
	p, _ := env.World.ProviderByASN(65001)
	pool := p.Pools[0]
	wan := pool.WANAddrNow(&pool.CPEs()[0])
	err := runNDP(context.Background(), env, []string{
		"-addr", wan.String() + ", 2001:db8:10:ff00::1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := runNDP(context.Background(), env, nil); err == nil {
		t.Fatal("missing -addr accepted")
	}
	if err := runNDP(context.Background(), env, []string{"-addr", "bogus"}); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestRunTrack(t *testing.T) {
	env, _ := buildEnv(7, "test", "")
	// Ground truth: a live EUI device in the daily /56 pool.
	p, _ := env.World.ProviderByASN(65001)
	pool := p.Pools[0]
	var addr string
	for i := range pool.CPEs() {
		c := &pool.CPEs()[i]
		if c.Mode == simnet.ModeEUI64 && !c.Silent {
			addr = pool.WANAddrNow(c).String()
			break
		}
	}
	err := runTrack(context.Background(), env, []string{
		"-addr", addr, "-days", "2", "-alloc", "56", "-pool", "48",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := runTrack(context.Background(), env, nil); err == nil {
		t.Fatal("missing -addr accepted")
	}
	if err := runTrack(context.Background(), env, []string{"-addr", "2001:db8::1"}); err == nil {
		t.Fatal("non-EUI addr accepted")
	}
	if err := runTrack(context.Background(), env, []string{"-addr", "2a00:dead::3a10:d5ff:fe00:1"}); err == nil {
		t.Fatal("unrouted addr accepted")
	}
}
