// Package seed generates and serializes the bootstrap dataset the §4
// discovery pipeline starts from: a CAIDA "IPv6 Routed /48" style
// traceroute campaign, recording for each routed /48 the last responsive
// hop toward one random target inside it.
//
// The real study used a CAIDA campaign from March-April 2019 — more than
// a year older than the measurements it seeded. The generator here runs
// a yarrp sweep over whatever network the supplied scanner reaches
// (normally the simulator with its clock wound back), producing records
// with the same schema and the same staleness properties: devices that
// have since churned away appear in the seed but no longer respond.
package seed

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strings"

	"followscent/internal/bgp"
	"followscent/internal/ip6"
	"followscent/internal/yarrp"
	"followscent/internal/zmap"
)

// Record is one seed observation: a routed /48 and the last-hop address
// a traceroute into it elicited.
type Record struct {
	Slash48 ip6.Prefix
	LastHop ip6.Addr
}

// IsEUI reports whether the record's last hop has an EUI-64 IID — the
// selection criterion for the pipeline's seed set.
func (r Record) IsEUI() bool { return ip6.AddrIsEUI64(r.LastHop) }

// Config tunes seed generation. The engine knobs — vantage address,
// workers, batch width, pacing and cooldown — come from the scanner
// handed to Generate.
type Config struct {
	// MaxTTL bounds the traceroute depth (default 12, at most 255).
	MaxTTL int
	// Seed randomizes target IIDs, probe order and validation; it is the
	// sweep's engine seed as given, not mixed with the scanner's.
	Seed uint64
	// MaxPrefixBits skips advertisements shorter than /32, as the CAIDA
	// campaign targets "networks /32 or smaller".
	MaxPrefixBits int
	// TargetsPer48 traces this many random targets per /48 (default 1,
	// the CAIDA density). A scaled-down world with few /48s per AS needs
	// a few more to keep per-/48 hit statistics comparable; see
	// DESIGN.md's scaling notes.
	TargetsPer48 int
}

// Generate runs the traceroute campaign: one random target per /48 of
// every routed prefix of length >= MaxPrefixBits (default 32), swept
// with yarrp's hop-limit module under sc's engine configuration (each
// worker drawing its own transport from sc) and keeping each /48's last
// responsive hop. The traced (target, ttl) set — and so the seed
// records — is identical for every worker count and batch width.
func Generate(ctx context.Context, sc *zmap.Scanner, rib *bgp.Table, cfg Config) ([]Record, error) {
	if cfg.MaxTTL == 0 {
		cfg.MaxTTL = 12
	}
	if cfg.MaxTTL < 1 || cfg.MaxTTL > 255 {
		return nil, fmt.Errorf("seed: MaxTTL %d out of range 1..255", cfg.MaxTTL)
	}
	if cfg.MaxPrefixBits == 0 {
		cfg.MaxPrefixBits = 32
	}
	var roots []ip6.Prefix
	for _, r := range rib.Routes() {
		if r.Prefix.Bits() >= cfg.MaxPrefixBits && r.Prefix.Bits() <= 48 {
			roots = append(roots, r.Prefix)
		}
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("seed: no routed prefixes of /%d or longer", cfg.MaxPrefixBits)
	}
	per := cfg.TargetsPer48
	if per == 0 {
		per = 1
	}
	ts, err := zmap.NewSubnetTargetsN(roots, 48, cfg.Seed, per)
	if err != nil {
		return nil, err
	}
	zcfg := sc.Config
	zcfg.Seed = cfg.Seed
	zcfg.Module = yarrp.HopLimitModule{MaxTTL: cfg.MaxTTL}
	col := yarrp.NewCollector()
	factory := func(int) (zmap.Transport, error) { return sc.NewTransport() }
	if _, err := zmap.ScanWorkers(ctx, factory, ts, zcfg, col.Add); err != nil {
		return nil, fmt.Errorf("seed: tracing: %w", err)
	}

	// One record per /48, preferring an EUI-64 last hop when several
	// targets in the /48 were traced.
	best := map[ip6.Prefix]ip6.Addr{}
	var order []ip6.Prefix
	for _, path := range col.Paths() {
		last, ok := path.LastHop()
		if !ok {
			continue
		}
		p48 := path.Target.TruncateTo(48)
		prev, seen := best[p48]
		if !seen {
			order = append(order, p48)
			best[p48] = last.From
			continue
		}
		if !ip6.AddrIsEUI64(prev) && ip6.AddrIsEUI64(last.From) {
			best[p48] = last.From
		}
	}
	out := make([]Record, 0, len(order))
	for _, p48 := range order {
		out = append(out, Record{Slash48: p48, LastHop: best[p48]})
	}
	return out, nil
}

// EUIPrefixes filters records to /48s whose last hop is a *unique*
// EUI-64 address — "no other target address in a different /48 resulted
// in the same last hop EUI-64 address" (§4) — returning the seed /48s
// the pipeline consumes.
func EUIPrefixes(records []Record) []ip6.Prefix {
	count := map[ip6.Addr]int{}
	for _, r := range records {
		if r.IsEUI() {
			count[r.LastHop]++
		}
	}
	var out []ip6.Prefix
	for _, r := range records {
		if r.IsEUI() && count[r.LastHop] == 1 {
			out = append(out, r.Slash48)
		}
	}
	return out
}

// Write serializes records as "slash48 lasthop" lines.
func Write(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range records {
		if _, err := fmt.Fprintf(bw, "%s %s\n", r.Slash48, r.LastHop); err != nil {
			return fmt.Errorf("seed: writing: %w", err)
		}
	}
	return bw.Flush()
}

// Read parses the Write format. Blank lines and '#' comments are skipped.
func Read(src io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(src)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("seed: line %d: want 'prefix addr', got %q", line, text)
		}
		p, err := ip6.ParsePrefix(fields[0])
		if err != nil {
			return nil, fmt.Errorf("seed: line %d: %w", line, err)
		}
		a, err := ip6.ParseAddr(fields[1])
		if err != nil {
			return nil, fmt.Errorf("seed: line %d: %w", line, err)
		}
		out = append(out, Record{Slash48: p, LastHop: a})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("seed: reading: %w", err)
	}
	return out, nil
}
