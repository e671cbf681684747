//! `gossip_delta`: record exchange alone, under loss. A 64-node
//! record-only lockstep cluster at the default digest cadence, timed
//! for 3.5 virtual seconds (every node holds every expected edge after
//! 1.7–3.5 s for 99 seeds in 100, depending on which frames the seed
//! drops; timing a fixed span keeps the work the same for every seed,
//! where timing to convergence let the luck of the last few records
//! move the wall time by ±15 %). A seed whose last records are still
//! in repair at 3.5 s is stepped on, untimed, until it converges: an
//! expected edge fails only if a node lacks it at 10 virtual seconds.
//! Frontier planning, the digest/delta codec, session retry and history
//! merge do nearly all the work and no reputation query or choke round
//! runs, so it bypasses the engine/flow/choke layers `swarm_rank` and
//! `shard_1m` stress.
//!
//! `pss.view_size` is set to the node count: with the default view of
//! 20 the record-only cluster never converges beyond 21 nodes (the
//! reactor samples a static truncated view; see README.md, findings).

use super::{
    classify, records_applied, repeat, set_end_to_end, set_node_stats, set_step_metrics, sum_stats,
    top_up_setups, Kind, Plan, Repetition, Reps, StepTimes,
};
use crate::inputs::SplitMix;
use crate::metrics::Report;
use crate::replay::{self, NodeView, OpCounts};
use crate::stats::{latency, median};
use crate::{Ctx, Fault};
use bartercast_node::NodeStats;
use bartercast_node::{Cluster, ClusterConfig, DeterministicCluster, MemConfig, NodeConfig};
use bartercast_util::units::{Bytes, PeerId};
use std::time::{Duration, Instant};

/// Virtual length of the timed span.
const TIMED: Duration = Duration::from_millis(3_500);

/// An expected edge a node still lacks at this virtual instant failed.
const HORIZON: Duration = Duration::from_secs(10);

/// A discarded warm-up, then at least five timed repetitions: the
/// 28 MB working set makes this the workload the host's interference
/// hits hardest, and every further repetition makes `best_of` cleaner.
const PLAN: Plan = Plan {
    warm_up: true,
    min: 5,
    max: 12,
};

struct Size {
    nodes: usize,
    uplinks: usize,
}

const FULL: Size = Size {
    nodes: 64,
    uplinks: 24,
};
const SMOKE: Size = Size {
    nodes: 16,
    uplinks: 6,
};

type Edge = (PeerId, PeerId, Bytes);

/// The seeded inputs: population size, the transport's and the nodes'
/// RNG seeds, 5 % frame loss. The histories are the harness's
/// deterministic ring; every other knob is `ClusterConfig::default()`
/// (25 ms exchange, `full_sync_every` 16).
fn config(seed: u64, size: &Size) -> ClusterConfig {
    let mut rng = SplitMix::new(seed, 0x90);
    let defaults = ClusterConfig::default();
    let mut node = NodeConfig {
        seed: rng.next_u64(),
        ..defaults.node
    };
    node.pss.view_size = size.nodes;
    ClusterConfig {
        n: size.nodes,
        uplinks: size.uplinks,
        mem: MemConfig {
            loss: 0.05,
            seed: rng.next_u64(),
            ..defaults.mem
        },
        node,
        ..defaults
    }
}

/// The edge set every node must end up with: the union of what every
/// node's history advertises, computed by the benchmark from the
/// generated histories rather than read back from the cluster.
fn expected_edges(config: &ClusterConfig, fault: Option<Fault>) -> Vec<Edge> {
    let histories = Cluster::seed_histories(config);
    let mut edges = Cluster::expected_edges(&histories, config.node.bartercast);
    if fault == Some(Fault::ExpectedEdges) {
        edges[0].2 .0 += 1;
    }
    edges
}

struct Rep {
    setup_s: f64,
    outer_s: f64,
    steps: StepTimes,
    exact: Exact,
    edges: Vec<NodeView>,
}

#[derive(PartialEq)]
struct Exact {
    converged_at: Option<Duration>,
    stats: Vec<NodeStats>,
    frames_dropped: u64,
    missing: u64,
}

fn one_rep(ctx: &mut Ctx, seed: u64, size: &Size) -> Result<Rep, String> {
    let started = Instant::now();
    ctx.tracer.open("node.cluster.rep");
    let ((config, cluster), setup_s) = ctx.tracer.timed("node.cluster.boot", || {
        let config = config(seed, size);
        (config, DeterministicCluster::boot(config))
    });
    let mut cluster = cluster.map_err(|e| format!("cluster boot failed: {e}"))?;
    let expected = expected_edges(&config, ctx.fault);
    let exchange = config.node.exchange_interval;

    let mut steps = StepTimes::default();
    let mut converged_at = None;
    loop {
        let at = cluster.elapsed();
        let kind = classify(at, exchange, None);
        if at >= TIMED {
            break;
        }
        // convergence is O(n * edges) to check: only on exchange-tick
        // boundaries until it first holds, and outside the timed spans
        // (the cluster's own check stops at the first node that lags;
        // the benchmark's expected set judges the final state below)
        if kind != Kind::Delivery && converged_at.is_none() && cluster.converged() {
            converged_at = Some(at);
        }
        let (alive, secs) = ctx.tracer.timed(kind.span(), || cluster.step());
        steps.push(kind, secs);
        if !alive {
            break;
        }
    }
    ctx.tracer.close();
    let outer_s = started.elapsed().as_secs_f64();
    // the counters of the timed span are the ones reported
    let stats = cluster.stats();
    let frames_dropped = cluster.transport().frames_dropped();
    // the last records of an unlucky seed wait for the full-sync
    // fallback: step on, untimed, to the exchange tick they land on
    while converged_at.is_none() {
        let at = cluster.elapsed();
        if classify(at, exchange, None) != Kind::Delivery && cluster.converged() {
            converged_at = Some(at);
        } else if at >= HORIZON || !cluster.step() {
            break;
        }
    }

    // under loss a dropped `Hello` leaves a handshake asymmetric and
    // the responder fails the session as a protocol error, which
    // backoff retries (crates/node/tests/cluster.rs): expected exhaust,
    // gated the way that test gates it; the exact count is reported
    // and must repeat
    let errors: u64 = stats.iter().map(|s| s.protocol_errors).sum();
    let opened: u64 = stats.iter().map(|s| s.sessions_opened).sum();
    if errors > opened / 2 {
        return Err(format!("{errors} protocol errors across {opened} sessions"));
    }
    let edges = cluster.edges();
    // one op per (node, expected edge): failed if the node lacks it
    let missing: usize = edges
        .iter()
        .map(|have| {
            expected
                .iter()
                .filter(|e| have.binary_search(e).is_err())
                .count()
        })
        .sum();
    if missing == 0 && edges.iter().any(|have| have.len() != expected.len()) {
        return Err("a node holds an edge nobody advertised".into());
    }
    Ok(Rep {
        setup_s,
        outer_s,
        steps,
        exact: Exact {
            converged_at,
            stats,
            frames_dropped,
            missing: missing as u64,
        },
        edges: edges
            .into_iter()
            .enumerate()
            .map(|(i, edges)| NodeView {
                id: PeerId(i as u32),
                edges,
            })
            .collect(),
    })
}

impl Repetition for Rep {
    fn outer_s(&self) -> f64 {
        self.outer_s
    }
    fn same_counts(&self, other: &Self) -> bool {
        self.exact == other.exact
    }
    fn calls_us(&self) -> Vec<&[f64]> {
        self.steps.groups()
    }
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Result<Report, String> {
    let size = if ctx.smoke { &SMOKE } else { &FULL };
    let seed = ctx.seed;
    let Reps {
        timed: reps,
        best,
        trace_overhead_pct,
    } = repeat(ctx, PLAN, |ctx| one_rep(ctx, seed, size))?;
    let best = StepTimes::from_groups(best);
    let wall_s = best.total_s();

    let exact = &reps[0].exact;
    let totals = sum_stats(&exact.stats);
    let applied = records_applied(&totals);
    let pairs = (expected_edges(&config(seed, size), None).len() * size.nodes) as u64;
    let n = reps.len();
    let mut report = Report::new(pairs * n as u64, exact.missing * n as u64, n);

    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    top_up_setups(ctx, &mut setups, 9, "node.cluster.boot", || {
        DeterministicCluster::boot(config(seed, size))
            .map_err(|e| format!("cluster boot failed: {e}"))
    })?;
    set_end_to_end(
        &mut report,
        &setups,
        wall_s,
        (
            applied as f64 / wall_s,
            &format!("{applied} non-duplicate records applied"),
        ),
        (
            latency(&best.us[Kind::Exchange as usize], None),
            "one exchange-tick lockstep step",
        ),
    );
    if !ctx.traced {
        return Ok(report);
    }

    set_step_metrics(&mut report, &best, reps.len());
    set_node_stats(&mut report, &totals, exact.frames_dropped);
    report.set("records_per_s", applied as f64 / wall_s, n);
    report.set(
        "duplicate_ratio",
        totals.records_duplicate as f64 / totals.records_received.max(1) as f64,
        1,
    );
    report.set(
        "wire_bytes_per_record",
        totals.bytes_sent as f64 / applied.max(1) as f64,
        1,
    );
    report.set(
        "converge_virtual_ms",
        exact.converged_at.unwrap_or(HORIZON).as_secs_f64() * 1e3,
        1,
    );
    report.set(
        "node.cluster.boot_ms",
        median(&reps.iter().map(|r| r.setup_s * 1e3).collect::<Vec<_>>()),
        n,
    );
    report.set("trace_overhead_pct", trace_overhead_pct, n);
    let ops = OpCounts {
        totals,
        history_writes: 0,
        exchange_node_ticks: (best.us[Kind::Exchange as usize].len() * size.nodes) as u64,
        choke_node_rounds: 0,
    };
    replay::cluster(
        ctx,
        &mut report,
        &reps[0].edges,
        ClusterConfig::default().node.bartercast,
        None,
        &ops,
        wall_s * 1e3,
    );
    Ok(report)
}
