package experiments

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"followscent/internal/ip6"
	"followscent/internal/simnet"
)

// fleetRoot is the pool the vendor-fleet fixtures populate.
var fleetRoot = ip6.MustParsePrefix("2001:db8:40::/48")

// fleetWorld builds the vendor-fleet-structured world the OUI-learning
// snowball exists for: one ISP pool whose CPE population is a single
// vendor's fleet with a dense device-suffix run starting well above 0
// (real IEEE assignment: consecutive serial numbers, consecutive MAC
// suffixes), scattered across the pool's delegations, half of it
// ICMP-silent. No loss, no rate limits: every probe's outcome is a pure
// function of its target, so studies over it must be bit-identical for
// every worker count.
func fleetWorld(seed uint64) (*Env, int, int) {
	const avm = "38:10:d5"
	const devices = 80
	var extras []simnet.ExtraCPESpec
	silent := 0
	for i := 0; i < devices; i++ {
		suffix := 0x4100 + i // dense run 0x4100..0x414f
		extras = append(extras, simnet.ExtraCPESpec{
			MAC: fmt.Sprintf("%s:%02x:%02x:%02x", avm,
				suffix>>16, suffix>>8&0xff, suffix&0xff),
			Silent: i%2 == 0,
		})
		if i%2 == 0 {
			silent++
		}
	}
	w := simnet.MustBuild(simnet.WorldSpec{
		Seed: seed,
		Providers: []simnet.ProviderSpec{{
			ASN: 65051, Name: "FleetNet", Country: "DE",
			Allocations:    []string{"2001:db8::/32"},
			BorderRespProb: 0.3,
			Pools: []simnet.PoolSpec{{
				Prefix: fleetRoot.String(), AllocBits: 56,
				Rotation: simnet.RotationPolicy{Kind: simnet.RotateNone},
				// Occupancy 0: the population is exactly the fleet.
				ExtraCPE: extras,
			}},
		}},
	})
	return NewEnvFor(w, seed), devices, silent
}

// TestOUISnowballBeatsPlainSnowball is the acceptance assertion for the
// OUI-learning snowball: on a vendor-fleet-structured world, at an
// equal probe budget, `snowball -learn-oui` (MLD seed, then learned
// vendor-window NDP rounds) is strictly more complete than both the
// plain echo snowball (which never hears the silent half of the fleet)
// and the blind guess-every-vendor candidate sweep (which spends the
// same budget on ~45 vendors' suffixes from 0 and misses the fleet's
// run entirely).
func TestOUISnowballBeatsPlainSnowball(t *testing.T) {
	const budget = 50000
	ctx := context.Background()

	env, devices, silent := fleetWorld(23)
	learned, err := OUISnowball(ctx, env, OUISnowballConfig{
		Prefix:    fleetRoot,
		MaxProbes: budget,
		Salt:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if learned.Rounds[0].NewPeriphery == 0 {
		t.Fatal("MLD seed round heard nothing: fixture or sampling broken")
	}
	if learned.Snowball() != devices {
		t.Fatalf("oui-learning snowball heard %d listeners, want the whole %d-device fleet",
			learned.Snowball(), devices)
	}
	if learned.SnowballProbes > budget {
		t.Fatalf("snowball spent %d probes, over the %d budget", learned.SnowballProbes, budget)
	}
	if len(learned.LearnedOUIs) != 1 || learned.LearnedOUIs[0] != ip6.MustParseOUI("38:10:d5") {
		t.Fatalf("learned OUIs = %v, want the fleet vendor alone", learned.LearnedOUIs)
	}

	// The plain echo snowball at the same budget: it follows periphery
	// errors, so the ICMP-silent half of the fleet is invisible to it.
	plainEnv, _, _ := fleetWorld(23)
	plain, err := AdaptiveDiscovery(ctx, plainEnv, AdaptiveConfig{
		Prefixes:  []ip6.Prefix{fleetRoot},
		MaxProbes: budget,
		Salt:      0xada1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.SnowballProbes > budget {
		t.Fatalf("plain snowball spent %d probes, over the %d budget", plain.SnowballProbes, budget)
	}
	if plain.Snowball() == 0 {
		t.Fatal("plain snowball heard nothing at all: comparison degenerate")
	}
	if plain.Snowball() > devices-silent {
		t.Fatalf("plain snowball heard %d listeners, more than the %d echo-visible devices",
			plain.Snowball(), devices-silent)
	}
	if learned.Snowball() <= plain.Snowball() {
		t.Fatalf("oui-learning snowball (%d) not strictly more complete than the plain snowball (%d) at budget %d",
			learned.Snowball(), plain.Snowball(), budget)
	}

	// The blind reference got at least the same budget and still lost.
	if learned.BlindProbes < learned.SnowballProbes {
		t.Fatalf("blind reference got %d probes, less than the snowball's %d",
			learned.BlindProbes, learned.SnowballProbes)
	}
	if learned.Snowball() <= learned.Blind {
		t.Fatalf("oui-learning snowball (%d) not strictly more complete than the blind vendor sweep (%d)",
			learned.Snowball(), learned.Blind)
	}

	var buf bytes.Buffer
	if err := OUISnowballRender(learned, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mld", "learned OUIs", "oui-learning snowball:", "blind vendor sweep:"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, buf.String())
		}
	}
}

// TestOUISnowballWorkerInvariant pins the OUI-learning feedback path's
// determinism end to end, mirroring TestAdaptiveWorkerInvariant:
// per-round stats and the discovered listener set are identical for 1,
// 2 and 4 workers — the MLD and NDP answer paths carry no loss or rate
// limiting, and feedback rounds are sorted and deduplicated.
func TestOUISnowballWorkerInvariant(t *testing.T) {
	cfg := OUISnowballConfig{Prefix: fleetRoot, Salt: 0x5e7}
	type outcome struct {
		rounds []AdaptiveRound
		froms  []ip6.Addr
	}
	var base *outcome
	for _, workers := range []int{1, 2, 4} {
		env, _, _ := fleetWorld(23)
		env.Scanner.Config.Workers = workers
		res, err := OUISnowball(context.Background(), env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := &outcome{rounds: res.Rounds, froms: sortedAddrKeys(res.ByFrom)}
		if base == nil {
			base = got
			if len(base.froms) == 0 {
				t.Fatal("snowball discovered nothing: fixture broken")
			}
			continue
		}
		if len(got.rounds) != len(base.rounds) {
			t.Fatalf("workers=%d: %d rounds, want %d", workers, len(got.rounds), len(base.rounds))
		}
		for i := range got.rounds {
			if got.rounds[i] != base.rounds[i] {
				t.Fatalf("workers=%d: round %d = %+v, want %+v", workers, i, got.rounds[i], base.rounds[i])
			}
		}
		if len(got.froms) != len(base.froms) {
			t.Fatalf("workers=%d: %d listeners, want %d", workers, len(got.froms), len(base.froms))
		}
		for i := range got.froms {
			if got.froms[i] != base.froms[i] {
				t.Fatalf("workers=%d: listener set differs at %d: %s vs %s",
					workers, i, got.froms[i], base.froms[i])
			}
		}
	}
}

// TestOUISnowballRejectsBadConfig pins the materialization and
// granularity guards.
func TestOUISnowballRejectsBadConfig(t *testing.T) {
	env, _, _ := fleetWorld(29)
	for name, cfg := range map[string]OUISnowballConfig{
		"delegation shorter than root": {Prefix: fleetRoot, SubBits: 40},
		"delegation past the IID":      {Prefix: fleetRoot, SubBits: 72},
		"negative seed links":          {Prefix: fleetRoot, SeedLinks: -1},
		"window bound": {Prefix: ip6.MustParsePrefix("2001:db8::/32"),
			SubBits: 64, LearnSpan: 1 << 20},
		// subs x span here wraps a uint64 to a small value: the bound
		// must be checked by division, not multiplication.
		"window bound wraps uint64": {Prefix: ip6.MustParsePrefix("::/6"),
			SubBits: 64, LearnSpan: 64},
	} {
		if _, err := OUISnowball(context.Background(), env, cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
