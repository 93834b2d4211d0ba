package experiments

import (
	"context"
	"embed"
	"fmt"
	"io/fs"
	"sort"
	"strings"
	"time"

	"followscent/internal/blocking"
	"followscent/internal/ip6"
	"followscent/internal/simnet"
	"followscent/internal/yarrp"
	"followscent/internal/zmap"
)

// The modality × defense evaluation matrix (DESIGN.md §11): every probe
// modality swept against every declarative defense world, at more than
// one probe budget, with tracking and abuse-blocking rows on top. Each
// number the runner emits is pinned by an assertion in matrix_test.go —
// the matrix is the regression suite for the engine's observable
// behaviour, and `scent experiment` serializes it as a JSON artifact.

//go:embed worlds/*.json
var worldSpecFS embed.FS

// DefenseWorld is one embedded defense scenario: a declarative
// simnet.WorldSpec modelling a provider-side defense (RFC 4941 privacy,
// DHCPv6 pools, edge filtering, a lossy link) or a control (all-EUI-64
// baseline, non-rotating pool).
type DefenseWorld struct {
	Name string
	Spec simnet.WorldSpec
}

// DefenseWorlds loads the embedded defense scenarios, sorted by name.
// They are full WorldSpec JSON documents — the same files work as
// `simnetd -world` arguments.
func DefenseWorlds() ([]DefenseWorld, error) {
	entries, err := fs.ReadDir(worldSpecFS, "worlds")
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	out := make([]DefenseWorld, 0, len(entries))
	for _, e := range entries {
		data, err := fs.ReadFile(worldSpecFS, "worlds/"+e.Name())
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		spec, err := simnet.ParseWorldSpec(data)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.Name(), err)
		}
		out = append(out, DefenseWorld{Name: strings.TrimSuffix(e.Name(), ".json"), Spec: spec})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// MatrixModalities are the six probe modalities the matrix sweeps, in
// column order: the three off-link periphery modalities, the hop-limit
// (yarrp) sweep, and the two on-link modalities.
var MatrixModalities = []string{"echo", "udp", "tcp", "hoplimit", "ndp", "mld"}

// matrixMaxTTL bounds the hop-limit sweep: the defense worlds place a
// CPE at most router_hops (3) + border + customer edge hops away.
const matrixMaxTTL = 8

// Cell is one world × modality × budget measurement. The probe budget
// is expressed as a sub-prefix granularity: off-link and hop-limit
// sweeps probe one target per /SubBits, MLD queries one link per
// /SubBits, NDP confirms the ground-truth candidate list (its budget is
// the population itself).
type Cell struct {
	World    string `json:"world"`
	Modality string `json:"modality"`
	SubBits  int    `json:"sub_bits"`
	Probes   uint64 `json:"probes"`
	// Discovered counts distinct responding sources inside customer pool
	// space — devices, not border or transit routers.
	Discovered int `json:"discovered"`
	// Active is the ground-truth device count (silent devices included).
	Active       int     `json:"active"`
	Completeness float64 `json:"completeness"`
}

// TrackingRow is the §6 adversary against one world: observe IIDs, let
// one full rotation pass, observe again, and count re-identified
// devices. Scans use the TCP-SYN modality — the one that survives
// ICMPv6 filtering — at a fixed probe budget, so the row isolates the
// addressing-mode defense.
type TrackingRow struct {
	World string `json:"world"`
	// Observed is the count of distinct IIDs seen on day 0.
	Observed int `json:"observed"`
	// Refound is how many of those IIDs are seen again on day 1.
	Refound int `json:"refound"`
	// Active is the ground-truth device count — the fixed denominator.
	Active int `json:"active"`
	// Rate is Refound / Active: the fraction of the population the
	// adversary re-identifies across one rotation.
	Rate float64 `json:"rate"`
}

// BlockingRow is the §9 defender against one world: block observed
// abuse at one granularity, measure effectiveness and collateral.
type BlockingRow struct {
	World         string  `json:"world"`
	Granularity   string  `json:"granularity"`
	Days          int     `json:"days"`
	Effectiveness float64 `json:"effectiveness"`
	// CollateralDays counts innocent-customer-days blocked alongside.
	CollateralDays int `json:"collateral_days"`
	Entries        int `json:"entries"`
}

// Matrix is the full evaluation artifact `scent experiment` emits.
type Matrix struct {
	Seed     uint64        `json:"seed"`
	Budgets  []int         `json:"budgets"`
	Days     int           `json:"days"`
	Worlds   []string      `json:"worlds"`
	Cells    []Cell        `json:"cells"`
	Tracking []TrackingRow `json:"tracking"`
	Blocking []BlockingRow `json:"blocking"`
}

// Cell returns the named cell, or false.
func (m *Matrix) Cell(world, modality string, subBits int) (Cell, bool) {
	for _, c := range m.Cells {
		if c.World == world && c.Modality == modality && c.SubBits == subBits {
			return c, true
		}
	}
	return Cell{}, false
}

// TrackingFor returns the named tracking row, or false.
func (m *Matrix) TrackingFor(world string) (TrackingRow, bool) {
	for _, r := range m.Tracking {
		if r.World == world {
			return r, true
		}
	}
	return TrackingRow{}, false
}

// BlockingFor returns the named blocking row, or false.
func (m *Matrix) BlockingFor(world, granularity string) (BlockingRow, bool) {
	for _, r := range m.Blocking {
		if r.World == world && r.Granularity == granularity {
			return r, true
		}
	}
	return BlockingRow{}, false
}

// Headline is the matrix's one-line summary: its worlds, modalities,
// budgets and cell count.
func (m *Matrix) Headline() string {
	return fmt.Sprintf("defense matrix: %d worlds x %d modalities x %d budgets, %d cells",
		len(m.Worlds), len(MatrixModalities), len(m.Budgets), len(m.Cells))
}

// MatrixConfig parameterizes a matrix run.
type MatrixConfig struct {
	// Seed, when nonzero, overrides every world spec's own seed.
	Seed uint64
	// Workers is the scanner worker count (0 = engine default).
	Workers int
	// Budgets are the sub-prefix granularities to sweep (default
	// {alloc, alloc+2} per world: one probe per delegation, then four).
	Budgets []int
	// Days is the abuse-blocking horizon (default 8).
	Days int
}

// NewSpecEnv builds a world from a declarative spec and binds the
// in-process prober to it.
func NewSpecEnv(spec simnet.WorldSpec, workers int) (*Env, error) {
	w, err := simnet.Build(spec)
	if err != nil {
		return nil, err
	}
	env := NewEnvFor(w, spec.Seed)
	env.Scanner.Config.Workers = workers
	return env, nil
}

// worldGroundTruth collects the scan inputs a sweep derives from the
// world: every pool prefix, every current WAN address (the NDP candidate
// list), and the active device count.
func worldGroundTruth(w *simnet.World) (prefixes []ip6.Prefix, wans []ip6.Addr, active int) {
	for _, p := range w.Providers() {
		for _, pool := range p.Pools {
			prefixes = append(prefixes, pool.Prefix)
			cpes := pool.CPEs()
			for i := range cpes {
				wans = append(wans, pool.WANAddrNow(&cpes[i]))
				active++
			}
		}
	}
	return prefixes, wans, active
}

// ModalitySweep measures every matrix modality against env's world at
// one probe budget, returning cells with the World field unset (the
// caller names the world). The sweep is read-only: it never advances
// the clock, and the defense worlds carry no cross-probe state, so one
// env serves all modalities and budgets.
func ModalitySweep(ctx context.Context, env *Env, subBits int) ([]Cell, error) {
	prefixes, wans, active := worldGroundTruth(env.World)
	inPool := func(a ip6.Addr) bool {
		for _, p := range prefixes {
			if p.Contains(a) {
				return true
			}
		}
		return false
	}

	cells := make([]Cell, 0, len(MatrixModalities))
	for mi, name := range MatrixModalities {
		salt := uint64(subBits)<<8 | uint64(mi+1)
		var (
			module zmap.ProbeModule
			ts     zmap.TargetSet
			err    error
		)
		switch name {
		case "echo":
			module = zmap.EchoModule{}
		case "udp":
			module = zmap.UDPModule{}
		case "tcp":
			module = zmap.TCPSynModule{}
		case "hoplimit":
			module = yarrp.HopLimitModule{MaxTTL: matrixMaxTTL}
		case "ndp":
			module = zmap.NDPModule{}
			ts = zmap.AddrTargets(wans)
		case "mld":
			module = zmap.MLDModule{}
			ts, err = zmap.NewBaseTargets(prefixes, subBits)
		default:
			return nil, fmt.Errorf("experiments: unknown modality %q", name)
		}
		if ts == nil && err == nil {
			ts, err = zmap.NewSubnetTargets(prefixes, subBits, env.World.Seed()^uint64(subBits))
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: %s targets: %w", name, err)
		}
		res, err := ScanModality(ctx, env, module, ts, salt)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s sweep: %w", name, err)
		}
		discovered := 0
		for a := range res.ByFrom {
			if inPool(a) {
				discovered++
			}
		}
		cells = append(cells, Cell{
			Modality:     name,
			SubBits:      subBits,
			Probes:       res.Stats.Sent,
			Discovered:   discovered,
			Active:       active,
			Completeness: float64(discovered) / float64(active),
		})
	}
	return cells, nil
}

// TrackOneRotation runs the §6 re-identification experiment against
// env's world: a TCP-SYN sweep at noon on day 0, one full rotation
// (every reassignment window closed), the same sweep on day 1, and the
// IID intersection. It advances env's clock — use a fresh env.
func TrackOneRotation(ctx context.Context, env *Env, subBits int) (TrackingRow, error) {
	prefixes, _, active := worldGroundTruth(env.World)
	ts, err := zmap.NewSubnetTargets(prefixes, subBits, env.World.Seed()^0x7a11)
	if err != nil {
		return TrackingRow{}, err
	}
	observe := func(salt uint64) (map[uint64]bool, error) {
		res, err := ScanModality(ctx, env, zmap.TCPSynModule{}, ts, salt)
		if err != nil {
			return nil, err
		}
		iids := map[uint64]bool{}
		for a := range res.ByFrom {
			for _, p := range prefixes {
				if p.Contains(a) {
					iids[a.IID()] = true
					break
				}
			}
		}
		return iids, nil
	}

	// Noon day 0: outside every reassignment window.
	env.World.Clock().Advance(12 * time.Hour)
	day0, err := observe(0x51)
	if err != nil {
		return TrackingRow{}, err
	}
	// Noon day 1: exactly one rotation later.
	env.World.Clock().Advance(24 * time.Hour)
	day1, err := observe(0x52)
	if err != nil {
		return TrackingRow{}, err
	}
	row := TrackingRow{Observed: len(day0), Active: active}
	for iid := range day0 {
		if day1[iid] {
			row.Refound++
		}
	}
	row.Rate = float64(row.Refound) / float64(active)
	return row, nil
}

// worldPopulation adapts a world's ground truth to blocking.Population:
// the first CPE of the first pool is the attacker, everyone else is
// innocent, and each day is sampled at noon (reassignments settled).
type worldPopulation struct {
	world *simnet.World
	pool  *simnet.Pool
}

func (p worldPopulation) at(d int) {
	p.world.Clock().Set(simnet.Epoch.Add(time.Duration(d)*24*time.Hour + 12*time.Hour))
}

func (p worldPopulation) AttackerAddr(d int) ip6.Addr {
	p.at(d)
	return p.pool.WANAddrNow(&p.pool.CPEs()[0])
}

func (p worldPopulation) InnocentAddrs(d int, fn func(ip6.Addr) bool) {
	p.at(d)
	cpes := p.pool.CPEs()
	for i := 1; i < len(cpes); i++ {
		if !fn(p.pool.WANAddrNow(&cpes[i])) {
			return
		}
	}
}

// blockingRows evaluates the three §9 granularities against one world.
func blockingRows(spec simnet.WorldSpec, name string, days int) ([]BlockingRow, error) {
	w, err := simnet.Build(spec)
	if err != nil {
		return nil, err
	}
	provider := w.Providers()[0]
	pool := provider.Pools[0]
	ps := spec.Providers[0].Pools[0]
	pop := worldPopulation{world: w, pool: pool}
	policies := []blocking.Policy{
		{Granularity: blocking.ByAddress},
		{Granularity: blocking.ByAllocation, AllocBits: ps.AllocBits},
		{Granularity: blocking.ByPool, PoolBits: pool.Prefix.Bits()},
	}
	rows := make([]BlockingRow, 0, len(policies))
	for _, policy := range policies {
		out, err := blocking.Evaluate(pop, policy, days)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BlockingRow{
			World:          name,
			Granularity:    policy.Granularity.String(),
			Days:           days,
			Effectiveness:  out.Effectiveness(),
			CollateralDays: out.CollateralDays,
			Entries:        out.Entries,
		})
	}
	return rows, nil
}

// RunDefenseMatrix sweeps the embedded defense worlds.
func RunDefenseMatrix(ctx context.Context, cfg MatrixConfig) (*Matrix, error) {
	worlds, err := DefenseWorlds()
	if err != nil {
		return nil, err
	}
	return RunDefenseMatrixWorlds(ctx, cfg, worlds)
}

// RunDefenseMatrixWorlds sweeps an explicit world list: every modality
// × every budget per world, plus the tracking and blocking rows. Each
// world is rebuilt fresh for each phase, so no phase observes another's
// clock movement.
func RunDefenseMatrixWorlds(ctx context.Context, cfg MatrixConfig, worlds []DefenseWorld) (*Matrix, error) {
	days := cfg.Days
	if days == 0 {
		days = 8
	}
	m := &Matrix{Seed: cfg.Seed, Days: days}

	for _, dw := range worlds {
		spec := dw.Spec
		if cfg.Seed != 0 {
			spec.Seed = cfg.Seed
		}
		budgets := cfg.Budgets
		if len(budgets) == 0 {
			alloc := spec.Providers[0].Pools[0].AllocBits
			budgets = []int{alloc, alloc + 2}
		}
		if len(m.Budgets) == 0 {
			m.Budgets = budgets
		}
		m.Worlds = append(m.Worlds, dw.Name)

		env, err := NewSpecEnv(spec, cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("experiments: world %s: %w", dw.Name, err)
		}
		for _, sb := range budgets {
			cells, err := ModalitySweep(ctx, env, sb)
			if err != nil {
				return nil, fmt.Errorf("experiments: world %s: %w", dw.Name, err)
			}
			for i := range cells {
				cells[i].World = dw.Name
			}
			m.Cells = append(m.Cells, cells...)
		}

		tenv, err := NewSpecEnv(spec, cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("experiments: world %s: %w", dw.Name, err)
		}
		row, err := TrackOneRotation(ctx, tenv, budgets[0])
		if err != nil {
			return nil, fmt.Errorf("experiments: world %s tracking: %w", dw.Name, err)
		}
		row.World = dw.Name
		m.Tracking = append(m.Tracking, row)

		rows, err := blockingRows(spec, dw.Name, days)
		if err != nil {
			return nil, fmt.Errorf("experiments: world %s blocking: %w", dw.Name, err)
		}
		m.Blocking = append(m.Blocking, rows...)
	}
	return m, nil
}
