package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// The tables below are the harness's half of the contract in
// BENCHMARK.json: workload names, every end-to-end metric with its
// unit, direction and regression bound, and every per-layer metric.
// checkManifest refuses to run when the two disagree, and
// `-print-manifest` regenerates the file from these tables, so they
// cannot drift.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// manifest is the exact shape of BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []e2eDef      `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

const runSeconds = 25

var workloadDefs = []workloadDef{
	{"study-loopback", "CPU-bound per-probe hot path, no sockets/store/wire: discovery (3 seed /48s, 16 probes per /48) + 5-day campaign + Table 1 on TestWorld(101), ~4.5M probes per closed-loop iteration over zmap.Loopback"},
	{"campaign-wire", "only workload on netbatch/UDP/ServeUDP/wire/leases/merge: coordinator + 2 workers (Workers 1, Batch 64) paced to 200k pps, 4 shards/day, 262144 probes/day at /64, each day committed to a scentd.Store"},
	{"track-loopback", "same engine, thousands of scans cancelled from the handler: Tracker.Step for 192 long (/46 pool, 16384 /60 blocks) + 64 short (/52 pools, 16 blocks) devices over 8 days, closed loop, repeated passes"},
	{"serve-ingest", "reads beside writes on one store: closed-loop client (70% lookup, 20% prefixes, 5% stats, 4.5% vendors, 0.5% pools) over TCP on 14 days x 5000 devices while a 5000-device day commits every 500 ms"},
}

// The end-to-end metrics are shared by all four workloads; what "op",
// "aux" and "work" mean on each is fixed in workloads.go and README.md. The bounds are what the reference box can resolve: over
// ten seeds its run-to-run spread (interquartile range over median) on
// the CPU-bound metrics reaches 8-10% on track-loopback, and a bound
// has to clear the spread or it only reports noise.
var endToEnd = []e2eDef{
	{"op_p50_us", "us", "lower", 0.20},
	{"op_tail_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"aux_p50_us", "us", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.20},
	{"cpu_us_per_op", "us", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

func lower(unit string, names ...string) []layerDef {
	out := make([]layerDef, len(names))
	for i, n := range names {
		out[i] = layerDef{n, unit, "lower"}
	}
	return out
}

var perLayer = concat(
	// zmap
	lower("ns", "zmap.cycle_next_ns", "zmap.targets_at_ns",
		"zmap.probe_build_ns.echo", "zmap.probe_build_ns.ndp", "zmap.probe_build_ns.tcp",
		"zmap.probe_build_ns.udp", "zmap.probe_build_ns.mld",
		"zmap.validate_ns.echo", "zmap.loopback_exchange_ns",
		"zmap.scan_ns_per_probe.w1_b0", "zmap.scan_ns_per_probe.w1_b64",
		"zmap.scan_ns_per_probe.w2_b0", "zmap.scan_ns_per_probe.w2_b64",
		"zmap.scan_ns_per_probe.w2_b0_concurrent"),
	lower("ratio", "zmap.checkpoint_overhead_ratio"),
	lower("count", "zmap.allocs_per_probe.loopback", "zmap.allocs_per_probe.udp_b64"),
	lower("us", "zmap.scan_setup_us"),
	lower("count", "zmap.cancel_overshoot_probes"),
	// icmp6
	lower("ns", "icmp6.template_packet_ns.echo", "icmp6.append_echo_ns",
		"icmp6.unmarshal_ns.echo_reply", "icmp6.unmarshal_ns.dest_unreach", "icmp6.unmarshal_ns.mld_report"),
	// simnet
	lower("ns", "simnet.handle_packet_ns.echo_hit", "simnet.handle_packet_ns.echo_miss",
		"simnet.handle_packet_ns.ndp", "simnet.handle_packet_ns.tcp",
		"simnet.handle_packet_ns.udp", "simnet.handle_packet_ns.mld"),
	lower("ms", "simnet.build_world_ms.test", "simnet.build_world_ms.default"),
	// netbatch
	lower("ns", "netbatch.write_ns_per_pkt.b1", "netbatch.write_ns_per_pkt.b16", "netbatch.write_ns_per_pkt.b64",
		"netbatch.read_ns_per_pkt.b1", "netbatch.read_ns_per_pkt.b16", "netbatch.read_ns_per_pkt.b64"),
	[]layerDef{{"netbatch.batched", "count", "higher"}, {"netbatch.gso", "count", "higher"}},
	// core
	lower("s", "core.pipeline_s"),
	lower("ms", "core.campaign_day_ms"),
	lower("ns", "core.scanday_record_ns"),
	lower("ms", "core.scanday_commit_ms", "core.table1_render_ms",
		"core.snapshot_clone_ms.d14", "core.snapshot_clone_ms.d28"),
	lower("us", "core.snapshot_clone_us_per_record"),
	lower("ms", "core.save_day_ms", "core.load_corpus_ms"),
	lower("count", "core.save_bytes_per_obs"),
	lower("us", "core.track_step_us.short", "core.track_step_us.long"),
	lower("count", "core.track_probes_per_find"),
	// bgp
	lower("ns", "bgp.lookup_ns"),
	// scentd
	lower("ns", "scentd.record_ns"),
	lower("ms", "scentd.commit_ms", "scentd.commit_apply_ms", "scentd.commit_save_ms",
		"scentd.commit_fsync_ms", "scentd.commit_residual_ms", "scentd.open_replay_ms", "scentd.compact_ms"),
	lower("count", "scentd.journal_bytes_per_obs"),
	lower("us", "scentd.answer_us.stats", "scentd.answer_us.lookup", "scentd.answer_us.prefixes",
		"scentd.answer_us.vendors", "scentd.answer_us.pools_cold", "scentd.answer_us.pools_warm",
		"scentd.rtt_us.lookup"),
	// wire
	lower("ns", "wire.write_frame_ns.small", "wire.write_frame_ns.large",
		"wire.read_frame_ns.small", "wire.read_frame_ns.large"),
	lower("us", "wire.rtt_us"),
	// campaign
	lower("ns", "campaign.lease_grant_ns"),
	lower("us", "campaign.lease_rpc_us"),
	lower("ns", "campaign.merge_ns_per_result"),
	lower("count", "campaign.frame_bytes_per_result"),
	lower("ratio", "campaign.coordinated_over_direct"),
	// experiments
	lower("ms", "experiments.defense_matrix_ms", "experiments.snowball_ms"),
	// ledger and tracing
	lower("ns", "ledger.e2e_ns_per_probe", "ledger.sum_layers_ns_per_probe", "ledger.residual_ns_per_probe"),
	lower("ratio", "trace.overhead_ratio"),
)

func concat(parts ...[]layerDef) []layerDef {
	var out []layerDef
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func harnessManifest() manifest {
	return manifest{
		Command:    []string{"sh", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validateNames checks every workload and metric name of m against the
// contract's alphabet and for duplicates.
func validateNames(m manifest) error {
	seen := map[string]bool{}
	check := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s name %q is not [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			return fmt.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range m.Workloads {
		if err := check("workload", w.Name); err != nil {
			return err
		}
	}
	for _, e := range m.EndToEnd {
		if err := check("end-to-end metric", e.Name); err != nil {
			return err
		}
	}
	for _, l := range m.PerLayer {
		if err := check("per-layer metric", l.Name); err != nil {
			return err
		}
	}
	return nil
}

// checkManifest loads BENCHMARK.json from path and fails unless it
// names exactly the workloads and metrics this harness emits, with the
// same units, directions and bounds.
func checkManifest(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var got manifest
	if err := json.Unmarshal(data, &got); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := validateNames(got); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want, _ := json.Marshal(harnessManifest())
	have, _ := json.Marshal(got)
	if string(want) != string(have) {
		return fmt.Errorf("%s does not match the harness's metric tables; regenerate it with -print-manifest", path)
	}
	return nil
}
