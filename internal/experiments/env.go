// Package experiments wires the measurement library to the simulated
// Internet and reproduces every table and figure in the paper's
// evaluation. cmd/figures renders the results to files; the repository's
// top-level benchmarks time the same entry points at reduced scale.
package experiments

import (
	"fmt"
	"time"

	"followscent/internal/ip6"
	"followscent/internal/simnet"
	"followscent/internal/zmap"
)

// Vantage is the measurement source address, standing in for the
// paper's "well-connected vantage point in a European IXP".
var Vantage = ip6.MustParseAddr("2620:11f:7000::53")

// Env binds a world to a prober.
type Env struct {
	World   *simnet.World
	Scanner *zmap.Scanner
}

// NewEnv builds the full default world (DESIGN.md §6).
func NewEnv(seed uint64) *Env {
	return envFor(simnet.DefaultWorld(seed), seed)
}

// NewSmallEnv builds the compact test world — used by benchmarks so a
// full `go test -bench .` stays minutes, not hours.
func NewSmallEnv(seed uint64) *Env {
	return envFor(simnet.TestWorld(seed), seed)
}

// NewEnvFor binds a prober to an explicitly built world — the entry
// point for examples and studies over purpose-built fixtures (a vendor
// fleet, a silent-heavy edge).
func NewEnvFor(w *simnet.World, seed uint64) *Env {
	return envFor(w, seed)
}

// BuildEnv builds the environment a command names by its -seed, -world
// (default or test) and -server flags: the in-process world, probed
// in-process, or — with server set — probed over UDP at a simnetd,
// rate-limited for a real socket. A remote world still builds the
// local one for the BGP table and clock control, so the simnetd must
// run with the same seed and world for attribution to line up.
func BuildEnv(seed uint64, world, server string) (*Env, error) {
	var env *Env
	switch world {
	case "default":
		env = NewEnv(seed)
	case "test":
		env = NewSmallEnv(seed)
	default:
		return nil, fmt.Errorf("unknown world %q", world)
	}
	if server != "" {
		env.Scanner.NewTransport = func() (zmap.Transport, error) {
			return zmap.DialUDP(server)
		}
		env.Scanner.Config.Rate = 50000
		env.Scanner.Config.Cooldown = 500 * time.Millisecond
	}
	return env, nil
}

func envFor(w *simnet.World, seed uint64) *Env {
	return &Env{
		World: w,
		Scanner: &zmap.Scanner{
			NewTransport: func() (zmap.Transport, error) {
				return zmap.NewLoopback(w.NewLane(), 0), nil
			},
			Config: zmap.Config{Source: Vantage, Seed: seed ^ 0x5ce47},
		},
	}
}

// Wait advances the world's virtual clock (the experiment "sleep").
func (e *Env) Wait(d time.Duration) { e.World.Clock().Advance(d) }

// At runs fn with the clock temporarily set to t, restoring it after.
func (e *Env) At(t time.Time, fn func() error) error {
	prev := e.World.Clock().Now()
	e.World.Clock().Set(t)
	defer e.World.Clock().Set(prev)
	return fn()
}
