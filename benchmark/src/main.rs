//! The benchmark of record for the BarterCast reproduction.
//!
//! One process runs one workload, either untraced (printing every
//! end-to-end metric) or traced (printing every per-layer metric), and
//! ends with one JSON line on standard output. `run.sh` is the entry
//! point; see `README.md` beside it for the workloads, the metrics and
//! how they interact.

mod fingerprint;
mod inputs;
mod metrics;
mod replay;
mod stats;
mod trace;
mod workloads;

use metrics::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// A deliberate defect the smoke test injects to show a correctness
/// gate is live: the run must exit non-zero without printing metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `gossip_delta` checks convergence against a wrong edge set.
    ExpectedEdges,
    /// One node's `protocol_errors` counter reads one too many.
    ProtocolErrors,
    /// `shard_1m` compares against a perturbed epoch-view checksum.
    ShardChecksum,
}

/// Everything a workload needs from the command line.
pub struct Ctx {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement budget in seconds: repetitions are added until the
    /// timed region has lasted this long.
    pub seconds: f64,
    /// Smoke sizes (seconds instead of minutes; same code paths).
    pub smoke: bool,
    /// Injected defect, if any.
    pub fault: Option<Fault>,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// Span recorder; keeps spans only in a traced run.
    pub tracer: Tracer,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    fault: Option<Fault>,
    out_dir: Option<PathBuf>,
}

const USAGE: &str = "usage: bartercast-benchmark --workload NAME [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out-dir DIR] [--fault expected-edges|protocol-errors|shard-checksum]\n       \
bartercast-benchmark --list";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        trace: false,
        smoke: false,
        fault: None,
        out_dir: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = Some(PathBuf::from(value("--out-dir")?)),
            "--fault" => {
                args.fault = Some(match value("--fault")?.as_str() {
                    "expected-edges" => Fault::ExpectedEdges,
                    "protocol-errors" => Fault::ProtocolErrors,
                    "shard-checksum" => Fault::ShardChecksum,
                    other => return Err(format!("unknown fault {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--list") {
        metrics::print_declared(&workloads::NAMES);
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        fault: args.fault,
        traced: args.trace,
        tracer: Tracer::new(args.trace),
    };
    let report: Report = match workloads::run(&args.workload, &mut ctx) {
        Ok(report) => report,
        Err(e) => {
            // a failed gate prints no metrics: a number measured on a
            // broken run is worse than no number
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let print = fingerprint::Fingerprint::collect(args.seed, &report);
    if let Some(dir) = &args.out_dir {
        if let Err(e) = metrics::write_results(dir, &args.workload, args.trace, &report, &print) {
            eprintln!("error: cannot write results under {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        if args.trace {
            let path = dir.join(format!("trace_{}.json", args.workload));
            let doc = ctx.tracer.to_json(&args.workload, &print.json());
            if let Err(e) = std::fs::write(&path, doc) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
    }
    metrics::print_human(&args.workload, args.trace, &report);
    println!("{}", metrics::result_line(args.trace, &report));
    ExitCode::SUCCESS
}
