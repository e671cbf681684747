//! The metric tables and the report a workload fills.
//!
//! The names, units and directions here are the ones `BENCHMARK.json`
//! declares; `run.sh --smoke` fails when the two disagree. A workload
//! can only set a declared name, every end-to-end metric must be set
//! by every workload, and a per-layer metric a workload never reaches
//! is printed as 0 (the layer is not on that workload's path).

use crate::fingerprint::Fingerprint;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One declared metric.
pub struct Def {
    /// Name, as later issues cite it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// What a user of the system sees; reported by every workload with
/// tracing off. README.md gives each one's meaning per workload.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower"),
    def("wall_s", "s", "lower"),
    def("peak_rss_mb", "MB", "lower"),
    def("work_per_s", "1/s", "higher"),
    def("op_p50_us", "us", "lower"),
];

/// Single-layer metrics, reported by the traced run.
pub const PER_LAYER: &[Def] = &[
    // the issue's workload-specific end-to-end names (see README.md:
    // the driver's contract wants every end-to-end metric from every
    // workload, so the ones only some workloads have live here)
    def("pieces_per_s", "1/s", "higher"),
    def("records_per_s", "1/s", "higher"),
    def("duplicate_ratio", "ratio", "lower"),
    def("wire_bytes_per_piece", "B", "lower"),
    def("wire_bytes_per_record", "B", "lower"),
    def("converge_virtual_ms", "ms", "lower"),
    def("query_p50_us", "us", "lower"),
    def("query_p99_us", "us", "lower"),
    def("evaluators_per_s", "1/s", "higher"),
    def("rounds_per_s", "1/s", "higher"),
    // the tail of the operation `op_p50_us` is the median of: it has
    // every workload, but its run-to-run spread on the benchmark host
    // (up to 0.23 of its median) is too close to the largest bound a
    // metric may have, so it carries none (README.md, findings)
    def("op_tail_us", "us", "lower"),
    // the traced run itself
    def("trace_overhead_pct", "%", "lower"),
    def("trace.spans", "count", "lower"),
    def("trace.unaccounted_share", "ratio", "lower"),
    // node.reactor: lockstep steps by instant kind
    def("node.reactor.steps", "count", "lower"),
    def("node.reactor.step_delivery_ms", "ms", "lower"),
    def("node.reactor.step_delivery_p50_us", "us", "lower"),
    def("node.reactor.step_delivery_p99_us", "us", "lower"),
    def("node.reactor.step_exchange_ms", "ms", "lower"),
    def("node.reactor.step_exchange_p50_us", "us", "lower"),
    def("node.reactor.step_exchange_p99_us", "us", "lower"),
    def("node.reactor.step_choke_ms", "ms", "lower"),
    def("node.reactor.step_choke_p50_us", "us", "lower"),
    def("node.reactor.step_choke_p95_us", "us", "lower"),
    def("node.reactor.residual_share", "ratio", "lower"),
    // node.stats: exact counters summed over nodes
    def("node.stats.records_sent", "count", "lower"),
    def("node.stats.records_received", "count", "lower"),
    def("node.stats.records_duplicate", "count", "lower"),
    def("node.stats.records_suppressed", "count", "higher"),
    def("node.stats.bytes_sent", "B", "lower"),
    def("node.stats.digests_sent", "count", "lower"),
    def("node.stats.deltas_sent", "count", "lower"),
    def("node.stats.full_syncs", "count", "lower"),
    def("node.stats.sessions_opened", "count", "lower"),
    def("node.stats.reconnects", "count", "lower"),
    def("node.stats.shed_session", "count", "lower"),
    def("node.stats.protocol_errors", "count", "lower"),
    def("node.stats.useful_record_ratio", "ratio", "higher"),
    def("node.mem.frames_dropped", "count", "lower"),
    // layer replay on the run's real state
    def("core.history.slice_ns_per_call", "ns", "lower"),
    def("core.history.record_ns", "ns", "lower"),
    def("core.history.busy_ms_est", "ms", "lower"),
    def("core.frontier.frontier_ns_per_record", "ns", "lower"),
    def("core.frontier.plan_ns_per_call", "ns", "lower"),
    def("core.frontier.busy_ms_est", "ms", "lower"),
    def("core.codec.encode_ns_per_record", "ns", "lower"),
    def("core.codec.decode_ns_per_record", "ns", "lower"),
    def("core.codec.delta_encode_ns_per_record", "ns", "lower"),
    def("core.codec.delta_decode_ns_per_record", "ns", "lower"),
    def("core.codec.digest_roundtrip_ns", "ns", "lower"),
    def("core.codec.frame_decode_ns_per_byte", "ns", "lower"),
    def("core.codec.busy_ms_est", "ms", "lower"),
    def("node.wire.envelope_roundtrip_ns", "ns", "lower"),
    def("core.repcache.absorb_ns_per_record", "ns", "lower"),
    def("core.repcache.absorb_dup_ns_per_record", "ns", "lower"),
    def("core.repcache.query_cold_us", "us", "lower"),
    def("core.repcache.query_warm_us", "us", "lower"),
    def("core.repcache.hit_ratio", "ratio", "higher"),
    def("core.repcache.invalidated", "count", "lower"),
    def("core.repcache.busy_ms_est", "ms", "lower"),
    def("graph.ssat.sweep_us", "us", "lower"),
    def("graph.contribution.edges", "count", "lower"),
    def("bt.choke.unchoke_us", "us", "lower"),
    def("bt.choke.candidates", "count", "lower"),
    def("bt.choke.busy_ms_est", "ms", "lower"),
    // core.shard and the shard-parallel sweep
    def("core.shard.add_transfer_bulk_ns", "ns", "lower"),
    def("core.shard.add_transfer_mixed_ns", "ns", "lower"),
    def("core.shard.publish_all_ms", "ms", "lower"),
    def("core.shard.epoch_query_us", "us", "lower"),
    def("core.shard.query_cold_us", "us", "lower"),
    def("core.shard.query_warm_us", "us", "lower"),
    def("core.shard.replica_ratio", "ratio", "lower"),
    def("core.shard.locality", "ratio", "higher"),
    def("sim.sweep.wall_cold_ms", "ms", "lower"),
    def("sim.sweep.wall_warm_ms", "ms", "lower"),
    def("sim.sweep.task_p50_us", "us", "lower"),
    def("sim.sweep.task_p99_us", "us", "lower"),
    def("sim.sweep.stolen", "count", "lower"),
    def("sim.sweep.shard_imbalance", "ratio", "lower"),
    // the trace simulator
    def("sim.engine.new_ms", "ms", "lower"),
    def("sim.engine.steps", "count", "lower"),
    def("sim.engine.step_p50_us", "us", "lower"),
    def("sim.engine.step_p99_us", "us", "lower"),
    def("sim.engine.system_reputations_ms", "ms", "lower"),
    def("sim.report.messages_delivered", "count", "higher"),
    def("sim.report.records_suppressed", "count", "higher"),
    def("sim.report.pieces_transferred", "count", "higher"),
    def("sim.report.meetings", "count", "higher"),
    def("trace.synth.build_ms", "ms", "lower"),
    // boot
    def("swarm.cluster.boot_ms", "ms", "lower"),
    def("node.cluster.boot_ms", "ms", "lower"),
];

fn table(traced: bool) -> &'static [Def] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn declared(name: &str) -> bool {
    END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name)
}

/// `--list`: the declared workloads and metrics, one per line, for the
/// smoke test's comparison against `BENCHMARK.json`.
pub fn print_declared(workloads: &[&str]) {
    for w in workloads {
        println!("workload {w}");
    }
    for (kind, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        for d in defs {
            println!("{kind} {} {} {}", d.name, d.unit, d.better);
        }
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, usize)>,
    /// Operations the failure share is counted against (≥ 1).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Timed repetitions behind the medians.
    pub reps: usize,
    /// What `op_*` and the tail percentile mean for this workload.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report over `reps` repetitions with the given failure
    /// share.
    pub fn new(attempted: u64, failed: u64, reps: usize) -> Self {
        Report {
            attempted,
            failed,
            reps,
            ..Report::default()
        }
    }

    /// Record `value` for the declared metric `name`, derived from
    /// `samples` measurements.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(declared(name), "metric {name} is not declared");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, (value, samples));
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// `(def, value, samples)` for every metric the run must print.
    fn rows(&self, traced: bool) -> Vec<(&'static Def, f64, usize)> {
        table(traced)
            .iter()
            .map(|d| match self.values.get(d.name) {
                Some(&(v, n)) => (d, v, n),
                None if traced => (d, 0.0, 0),
                None => panic!("end-to-end metric {} was not measured", d.name),
            })
            .collect()
    }
}

/// Every metric by name with its unit, for people.
pub fn print_human(workload: &str, traced: bool, report: &Report) {
    let mode = if traced { "traced" } else { "untraced" };
    println!(
        "# {workload} ({mode}): {} repetitions, {} ops attempted, {} failed",
        report.reps, report.attempted, report.failed
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for (d, v, n) in report.rows(traced) {
        println!("{:<42} {:>18.6} {:<6} n={n}", d.name, v, d.unit);
    }
}

/// The contract's result object (the last line of standard output).
pub fn result_line(traced: bool, report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted.max(1),
        report.failed
    );
    for (i, (d, v, _)) in report.rows(traced).into_iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    out.push_str("}}");
    out
}

/// Write `<dir>/<workload>.<mode>.json`: the fingerprint, then every
/// metric with its unit and sample count.
pub fn write_results(
    dir: &Path,
    workload: &str,
    traced: bool,
    report: &Report,
    print: &Fingerprint,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mode = if traced { "traced" } else { "untraced" };
    let mut doc = format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"mode\": \"{mode}\",\n  \"fingerprint\": {},\n  \
         \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{",
        print.json(),
        report.attempted,
        report.failed
    );
    for (i, (d, v, n)) in report.rows(traced).into_iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            doc,
            "{sep}\n    \"{}\": {{\"value\": {v}, \"unit\": \"{}\", \"samples\": {n}}}",
            d.name, d.unit
        );
    }
    doc.push_str("\n  }\n}\n");
    let path = dir.join(format!("{workload}.{mode}.json"));
    std::fs::write(&path, doc)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
