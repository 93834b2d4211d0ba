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

// Env binds a world to a prober; World's clock is its only clock.
type Env struct {
	World   *simnet.World
	Scanner *zmap.Scanner
}

// NewEnv builds the full default world (DESIGN.md §6).
func NewEnv(seed uint64) *Env {
	return NewEnvFor(simnet.DefaultWorld(seed), seed)
}

// NewSmallEnv builds the compact test world — used by benchmarks so a
// full `go test -bench .` stays minutes, not hours.
func NewSmallEnv(seed uint64) *Env {
	return NewEnvFor(simnet.TestWorld(seed), seed)
}

// BuildEnv builds the environment a command names by its -seed, -world
// (default or test) and -server flags: the in-process world, probed
// in-process, or — with server set — probed at a simnetd (probeAt). A
// remote world still builds the local one: its BGP table attributes
// results and its clock is the only clock, so the simnetd must run with
// the same seed and world for the two to line up.
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
		env.probeAt(server)
	}
	return env, nil
}

// probeAt points the scanner at a simnetd, paced for a real socket.
// Each transport first sets the server's clock to the replica's, so Wait
// and At reach it, and fails rather than probe at a stale instant.
func (e *Env) probeAt(server string) {
	e.Scanner.NewTransport = func() (zmap.Transport, error) {
		if err := simnet.SetClock(server, e.World.Clock().Now()); err != nil {
			return nil, fmt.Errorf("experiments: setting the clock of %s: %w", server, err)
		}
		return zmap.DialUDP(server)
	}
	e.Scanner.Config.Rate = 50000
	e.Scanner.Config.Cooldown = 500 * time.Millisecond
}

// NewEnvFor binds a prober to an explicitly built world — the entry
// point for examples and studies over purpose-built fixtures (a vendor
// fleet, a silent-heavy edge).
func NewEnvFor(w *simnet.World, seed uint64) *Env {
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
