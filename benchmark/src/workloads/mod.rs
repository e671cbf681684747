//! The four workloads and what they share: the repetition budget, the
//! process's peak memory, and the lockstep-cluster step loop pieces
//! (`swarm_rank` and `gossip_delta` both drive reactors in virtual
//! time and read the same `NodeStats`).

pub mod gossip_delta;
pub mod shard_1m;
pub mod sim_rank;
pub mod swarm_rank;

use crate::metrics::Report;
use crate::stats::{latency, median, Latency};
use crate::Ctx;
use bartercast_node::NodeStats;
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["swarm_rank", "gossip_delta", "shard_1m", "sim_rank"];

/// Run workload `name`. `Err` means a correctness gate failed.
pub fn run(name: &str, ctx: &mut Ctx) -> Result<Report, String> {
    type Workload = fn(&mut Ctx) -> Result<Report, String>;
    let (root_span, workload): (&'static str, Workload) = match name {
        "swarm_rank" => ("workload.swarm_rank", swarm_rank::run),
        "gossip_delta" => ("workload.gossip_delta", gossip_delta::run),
        "shard_1m" => ("workload.shard_1m", shard_1m::run),
        "sim_rank" => ("workload.sim_rank", sim_rank::run),
        other => unreachable!("workload {other} passed argument checking"),
    };
    ctx.tracer.open(root_span);
    let mut report = workload(ctx)?;
    ctx.tracer.close();
    if report.failed > 0 {
        return Err(format!(
            "{} of {} operations failed",
            report.failed, report.attempted
        ));
    }
    if ctx.traced {
        trace_metrics(ctx, &mut report);
    } else {
        report.set("peak_rss_mb", peak_rss_mb()?, 1);
    }
    Ok(report)
}

/// Span count, and the share of the root span no child span covers
/// (loop bookkeeping and checks between layer calls).
fn trace_metrics(ctx: &Ctx, report: &mut Report) {
    let spans = ctx.tracer.spans();
    let summary = ctx.tracer.summary();
    let root = summary
        .iter()
        .find(|(name, _)| name.starts_with("workload."))
        .map(|(_, s)| *s)
        .expect("root span recorded");
    let containers: f64 = summary
        .iter()
        .filter(|(name, _)| name.starts_with("workload.") || name.ends_with(".rep"))
        .map(|(_, s)| s.self_ms)
        .sum();
    report.set("trace.spans", spans.len() as f64, 1);
    report.set(
        "trace.unaccounted_share",
        containers / root.total_ms.max(1e-9),
        1,
    );
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One repetition of a repeatable workload.
pub trait Repetition {
    /// Wall-clock of the whole repetition, the benchmark's own checks
    /// and span recording included: what tracing makes longer.
    fn outer_s(&self) -> f64;
    /// Whether every exact count equals `other`'s.
    fn same_counts(&self, other: &Self) -> bool;
    /// The duration of every timed call of the repetition, in call
    /// order, grouped as the workload likes (microseconds).
    fn calls_us(&self) -> Vec<&[f64]>;
}

/// How a workload repeats.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Run one discarded repetition first.
    pub warm_up: bool,
    /// Fewest timed repetitions.
    pub min: usize,
    /// Most timed repetitions.
    pub max: usize,
}

/// The repetitions of one run of a workload.
pub struct Reps<R> {
    /// The repetitions the metrics come from: all of them in an
    /// untraced run, the traced half in a traced run.
    pub timed: Vec<R>,
    /// [`best_of`] the timed repetitions, per group of
    /// [`Repetition::calls_us`].
    pub best: Vec<Vec<f64>>,
    /// Traced run only: `trace_overhead_pct`, the traced half's fastest
    /// `outer_s` against the untraced half's.
    pub trace_overhead_pct: f64,
}

/// A further repetition that lowers the burst-free total by less than
/// this share has nothing left to remove.
const SETTLED: f64 = 0.005;

/// Repetitions of identical work: a discarded warm-up if the plan has
/// one, then timed repetitions — at least the plan's minimum, then on
/// until the burst-free total has settled or `--seconds` of repetitions
/// have run, whichever is first. On a quiet host that is the minimum;
/// under interference the extra repetitions are what brings the total
/// back down to the same value. A traced run makes the plan's minimum,
/// alternating untraced and traced repetitions so it prices the
/// tracing on the same machine state. Fails when two repetitions
/// disagree on an exact count.
pub fn repeat<R: Repetition>(
    ctx: &mut Ctx,
    plan: Plan,
    mut one: impl FnMut(&mut Ctx) -> Result<R, String>,
) -> Result<Reps<R>, String> {
    // a traced run keeps one span per untraced repetition, so the trace
    // accounts for the whole run
    let mut run_one = |ctx: &mut Ctx, trace_this: bool| {
        ctx.tracer.set_on(trace_this);
        let start = Instant::now();
        let rep = one(ctx);
        if ctx.traced && !trace_this {
            ctx.tracer.record("rep.untraced", start, Instant::now());
        }
        rep
    };
    let warm = if plan.warm_up {
        Some(run_one(ctx, false)?)
    } else {
        None
    };
    let mut timed: Vec<R> = Vec::new();
    let mut plain: Vec<R> = Vec::new();
    let mut best: Vec<Vec<f64>> = Vec::new();
    let mut total = f64::INFINITY;
    let started = Instant::now();
    for r in 0..plan.max {
        let trace_this = ctx.traced && r % 2 == 1;
        ctx.tracer.set_rep(r as u32 + 1);
        let rep = run_one(ctx, trace_this)?;
        if ctx.traced && !trace_this {
            plain.push(rep);
            continue;
        }
        best = match best.is_empty() {
            true => rep.calls_us().into_iter().map(<[f64]>::to_vec).collect(),
            false => best
                .iter()
                .zip(rep.calls_us())
                .map(|(so_far, new)| best_of(&[so_far, new]))
                .collect(),
        };
        timed.push(rep);
        let before = std::mem::replace(&mut total, best.iter().flatten().sum());
        let settled = (before - total) / total < SETTLED;
        let enough = match ctx.traced {
            true => r + 1 >= plan.min.next_multiple_of(2),
            false => {
                r + 1 >= plan.min && (settled || started.elapsed().as_secs_f64() >= ctx.seconds)
            }
        };
        if enough {
            break;
        }
    }
    ctx.tracer.set_on(ctx.traced);
    ctx.tracer.set_rep(0);
    if warm
        .iter()
        .chain(&plain)
        .any(|rep| !rep.same_counts(&timed[0]))
        || timed.iter().any(|rep| !rep.same_counts(&timed[0]))
    {
        return Err(format!(
            "two repetitions of seed {} disagree on an exact count",
            ctx.seed
        ));
    }
    // fastest against fastest: the halves alternate, so each has seen
    // the host at its quietest about as often
    let trace_overhead_pct = if ctx.traced {
        let fastest = |reps: &[R]| reps.iter().map(R::outer_s).fold(f64::INFINITY, f64::min);
        overhead_pct(fastest(&timed), fastest(&plain))
    } else {
        0.0
    };
    Ok(Reps {
        timed,
        best,
        trace_overhead_pct,
    })
}

/// The burst-free time of every timed call of a repetition: for call
/// `i`, the fastest of the repetitions' `i`-th calls. The repetitions
/// do identical work in identical order (the exact-count gate checks
/// it), so call `i` differs between them only by interference, and
/// interference on the benchmark host comes in short bursts that only
/// ever add time (README.md, findings): the minimum removes a burst
/// unless it hit every repetition at the same call.
pub fn best_of(reps: &[&[f64]]) -> Vec<f64> {
    let len = reps[0].len();
    assert!(
        reps.iter().all(|r| r.len() == len),
        "repetitions of identical work made different numbers of calls"
    );
    (0..len)
        .map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Percentage by which `traced` exceeds `untraced`.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    (traced / untraced.max(1e-12) - 1.0) * 100.0
}

/// What a lockstep step mostly did, judged from the virtual instant it
/// started at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Between ticks: only message deliveries are due.
    Delivery = 0,
    /// An exchange tick (every node pushes or digests).
    Exchange = 1,
    /// A choke round (which coincides with an exchange tick).
    Choke = 2,
}

impl Kind {
    /// Span name of a step of this kind.
    pub fn span(self) -> &'static str {
        match self {
            Kind::Delivery => "node.reactor.step.delivery",
            Kind::Exchange => "node.reactor.step.exchange",
            Kind::Choke => "node.reactor.step.choke",
        }
    }
}

/// Classify the instant `elapsed` (virtual time since boot, read
/// before the step). All nodes boot at the same instant, so their
/// timers fire at common multiples of the intervals.
pub fn classify(elapsed: Duration, exchange: Duration, choke: Option<Duration>) -> Kind {
    let on = |interval: Duration| elapsed.as_nanos().is_multiple_of(interval.as_nanos());
    match choke {
        Some(c) if !elapsed.is_zero() && on(c) => Kind::Choke,
        _ if on(exchange) => Kind::Exchange,
        _ => Kind::Delivery,
    }
}

/// Step durations of one repetition, microseconds, by [`Kind`].
#[derive(Debug, Default, Clone)]
pub struct StepTimes {
    /// Indexed by `Kind as usize`.
    pub us: [Vec<f64>; 3],
}

impl StepTimes {
    /// The three kinds as call groups ([`Repetition::calls_us`]).
    pub fn groups(&self) -> Vec<&[f64]> {
        self.us.iter().map(Vec::as_slice).collect()
    }

    /// Back from (burst-free) call groups.
    pub fn from_groups(groups: Vec<Vec<f64>>) -> StepTimes {
        StepTimes {
            us: groups.try_into().expect("one group per step kind"),
        }
    }

    /// Record one step.
    pub fn push(&mut self, kind: Kind, secs: f64) {
        self.us[kind as usize].push(secs * 1e6);
    }

    /// Steps taken.
    pub fn steps(&self) -> usize {
        self.us.iter().map(Vec::len).sum()
    }

    /// Time inside `step()`, seconds.
    pub fn total_s(&self) -> f64 {
        self.us.iter().flatten().sum::<f64>() / 1e6
    }
}

/// Field-wise sum of per-node counters.
pub fn sum_stats<'a>(all: impl IntoIterator<Item = &'a NodeStats>) -> NodeStats {
    let mut t = NodeStats::default();
    for s in all {
        t.sessions_opened += s.sessions_opened;
        t.sessions_failed += s.sessions_failed;
        t.sessions_closed += s.sessions_closed;
        t.reconnects += s.reconnects;
        t.records_sent += s.records_sent;
        t.records_received += s.records_received;
        t.records_duplicate += s.records_duplicate;
        t.bytes_sent += s.bytes_sent;
        t.bytes_received += s.bytes_received;
        t.shed_accept += s.shed_accept;
        t.shed_session += s.shed_session;
        t.protocol_errors += s.protocol_errors;
        t.pieces_sent += s.pieces_sent;
        t.pieces_received += s.pieces_received;
        t.digests_sent += s.digests_sent;
        t.deltas_sent += s.deltas_sent;
        t.full_syncs += s.full_syncs;
        t.records_suppressed += s.records_suppressed;
    }
    t
}

/// Records whose merge changed the receiver's graph.
pub fn records_applied(t: &NodeStats) -> u64 {
    t.records_received - t.records_duplicate
}

/// The `node.reactor` step metrics from the burst-free step times of
/// `reps` repetitions: per kind the total, the median and the tail (the
/// declared names say p99 and, for the ~137 choke instants of a
/// repetition, p95).
pub fn set_step_metrics(report: &mut Report, best: &StepTimes, reps: usize) {
    const NAMES: [[&str; 3]; 3] = [
        [
            "node.reactor.step_delivery_ms",
            "node.reactor.step_delivery_p50_us",
            "node.reactor.step_delivery_p99_us",
        ],
        [
            "node.reactor.step_exchange_ms",
            "node.reactor.step_exchange_p50_us",
            "node.reactor.step_exchange_p99_us",
        ],
        [
            "node.reactor.step_choke_ms",
            "node.reactor.step_choke_p50_us",
            "node.reactor.step_choke_p95_us",
        ],
    ];
    report.set("node.reactor.steps", best.steps() as f64, reps);
    for (kind, [total, p50, tail]) in NAMES.into_iter().enumerate() {
        let us = &best.us[kind];
        if us.is_empty() {
            continue;
        }
        let tail_p = if kind == Kind::Choke as usize {
            0.95
        } else {
            0.99
        };
        let lat = latency(us, Some(tail_p));
        report.set(total, us.iter().sum::<f64>() / 1e3, reps);
        report.set(p50, lat.p50, lat.n);
        report.set(tail, lat.tail, lat.n);
    }
}

/// Time `set_up` until `setups_s` holds `want` samples: setting up is
/// cheap next to a repetition, so the median set-up time rests on more
/// samples than there are repetitions.
pub fn top_up_setups<T>(
    ctx: &mut Ctx,
    setups_s: &mut Vec<f64>,
    want: usize,
    span: &'static str,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(), String> {
    while setups_s.len() < want {
        let (made, secs) = ctx.tracer.timed(span, &mut set_up);
        made?;
        setups_s.push(secs);
    }
    Ok(())
}

/// The end-to-end metrics of a workload (all but `peak_rss_mb`), and
/// `op_tail_us`: the median set-up, the burst-free wall time, the work
/// rate, and the median and tail of the workload's operation.
pub fn set_end_to_end(
    report: &mut Report,
    setups_s: &[f64],
    wall_s: f64,
    (work_per_s, work_is): (f64, &str),
    (op, op_is): (Latency, &str),
) {
    report.set("setup_s", median(setups_s), setups_s.len());
    report.set("wall_s", wall_s, report.reps);
    report.set("work_per_s", work_per_s, report.reps);
    report.set("op_p50_us", op.p50, op.n);
    report.set("op_tail_us", op.tail, op.n);
    report.notes.push(format!(
        "work = {work_is}; op = {op_is} ({} per repetition), tail = p{}",
        op.n,
        op.tail_p * 100.0
    ));
}

/// The `node.stats` metrics from the run's exact counter totals.
pub fn set_node_stats(report: &mut Report, t: &NodeStats, frames_dropped: u64) {
    let c = |v: u64| v as f64;
    report.set("node.stats.records_sent", c(t.records_sent), 1);
    report.set("node.stats.records_received", c(t.records_received), 1);
    report.set("node.stats.records_duplicate", c(t.records_duplicate), 1);
    report.set("node.stats.records_suppressed", c(t.records_suppressed), 1);
    report.set("node.stats.bytes_sent", c(t.bytes_sent), 1);
    report.set("node.stats.digests_sent", c(t.digests_sent), 1);
    report.set("node.stats.deltas_sent", c(t.deltas_sent), 1);
    report.set("node.stats.full_syncs", c(t.full_syncs), 1);
    report.set("node.stats.sessions_opened", c(t.sessions_opened), 1);
    report.set("node.stats.reconnects", c(t.reconnects), 1);
    report.set("node.stats.shed_session", c(t.shed_session), 1);
    report.set("node.stats.protocol_errors", c(t.protocol_errors), 1);
    report.set(
        "node.stats.useful_record_ratio",
        c(records_applied(t)) / c(t.records_received.max(1)),
        1,
    );
    report.set("node.mem.frames_dropped", c(frames_dropped), 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_takes_each_call_from_its_fastest_repetition() {
        let a = [10.0, 50.0, 30.0];
        let b = [12.0, 20.0, 90.0];
        assert_eq!(best_of(&[&a, &b]), vec![10.0, 20.0, 30.0]);
        assert_eq!(best_of(&[&a]), a.to_vec());
    }

    #[test]
    fn instants_classify_by_the_tick_they_start_on() {
        let ms = Duration::from_millis;
        let (exchange, choke) = (ms(500), Some(ms(2_000)));
        assert_eq!(classify(ms(0), exchange, choke), Kind::Exchange);
        assert_eq!(classify(ms(500), exchange, choke), Kind::Exchange);
        assert_eq!(classify(ms(2_000), exchange, choke), Kind::Choke);
        assert_eq!(
            classify(Duration::from_micros(500_137), exchange, choke),
            Kind::Delivery
        );
        assert_eq!(classify(ms(2_000), exchange, None), Kind::Exchange);
    }
}
