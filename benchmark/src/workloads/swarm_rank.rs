//! `swarm_rank`: the paper's loop over the wire. A 32-node
//! piece-transfer swarm under the rank policy on the lockstep reactor
//! runtime, run until every cooperator holds the content — the only
//! workload where reactor pump, wire codec, history merge, engine
//! sync, the SSAT kernel and choke scoring all run together.

use super::{
    classify, records_applied, repeat, set_end_to_end, set_node_stats, set_step_metrics, sum_stats,
    top_up_setups, Kind, Plan, Repetition, Reps, StepTimes,
};
use crate::inputs::SplitMix;
use crate::metrics::Report;
use crate::replay::{self, NodeView, OpCounts};
use crate::stats::{latency, median};
use crate::{Ctx, Fault};
use bartercast_core::policy::ReputationPolicy;
use bartercast_node::{MemConfig, NodeConfig, NodeStats};
use bartercast_swarm::{
    NodeSpec, PeerBehaviour, SwarmCluster, SwarmClusterConfig, SwarmLedger, SwarmParams,
    SwarmPolicy,
};
use bartercast_util::units::PeerId;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Virtual horizon: a piece still owed to a cooperator by then failed.
const HORIZON: Duration = Duration::from_secs(900);

/// A discarded warm-up, then at least four timed repetitions.
const PLAN: Plan = Plan {
    warm_up: true,
    min: 4,
    max: 12,
};

struct Size {
    nodes: u32,
    freeriders: u32,
    pieces: usize,
}

const FULL: Size = Size {
    nodes: 32,
    freeriders: 8,
    pieces: 128,
};
const SMOKE: Size = Size {
    nodes: 8,
    freeriders: 2,
    pieces: 16,
};

/// The inputs. The population is fixed — node 0 seeds, the next
/// `nodes - freeriders - 1` ids cooperate, the last ids freeride —
/// because which ids freeride moves the median choke round by more
/// than 10 % (the reactors are pumped in id order), which would drown
/// what the workload is here to measure. `--seed` supplies the seeds of
/// the transport's and the nodes' RNGs: frame delays, peer sampling,
/// backoff jitter. Everything else is the program's default
/// (`SwarmClusterConfig::default()`: loss 0, full-push cadence), so a
/// later change to a default shows up here.
fn config(seed: u64, size: &Size) -> SwarmClusterConfig {
    let mut rng = SplitMix::new(seed, 0x5a);
    let first_freerider = size.nodes - size.freeriders;
    let nodes = (0..size.nodes)
        .map(|id| {
            let behaviour = if id >= first_freerider {
                PeerBehaviour::Freerider
            } else {
                PeerBehaviour::Cooperator
            };
            NodeSpec::new(id, behaviour, id == 0)
        })
        .collect();
    let defaults = SwarmClusterConfig::default();
    SwarmClusterConfig {
        nodes,
        params: SwarmParams {
            piece_count: size.pieces,
            policy: SwarmPolicy::Reputation(ReputationPolicy::Rank),
            ..SwarmParams::default()
        },
        mem: MemConfig {
            seed: rng.next_u64(),
            ..defaults.mem
        },
        node: NodeConfig {
            seed: rng.next_u64(),
            ..defaults.node
        },
        ..defaults
    }
}

/// What one repetition produced. `exact` must be identical across
/// repetitions of one seed.
struct Rep {
    setup_s: f64,
    outer_s: f64,
    steps: StepTimes,
    exact: Exact,
    edges: Vec<NodeView>,
}

#[derive(PartialEq)]
struct Exact {
    virtual_elapsed: Duration,
    ledger: SwarmLedger,
    stats: BTreeMap<PeerId, NodeStats>,
    frames_dropped: u64,
    undelivered: u64,
}

impl Exact {
    fn pieces(&self) -> u64 {
        self.ledger.progress.values().map(|p| p.pieces).sum()
    }
}

/// Pieces still owed to non-seeding cooperators.
fn undelivered(config: &SwarmClusterConfig, ledger: &SwarmLedger) -> u64 {
    let want = config.params.piece_count as u64;
    config
        .nodes
        .iter()
        .filter(|s| s.behaviour == PeerBehaviour::Cooperator && !s.seed_initial)
        .map(|s| want.saturating_sub(ledger.progress_of(s.id).pieces))
        .sum()
}

fn one_rep(ctx: &mut Ctx, seed: u64, size: &Size) -> Result<Rep, String> {
    let started = Instant::now();
    ctx.tracer.open("swarm.cluster.rep");
    let ((config, cluster), setup_s) = ctx.tracer.timed("swarm.cluster.boot", || {
        let config = config(seed, size);
        let cluster = SwarmCluster::boot(config.clone());
        (config, cluster)
    });
    let mut cluster = cluster.map_err(|e| format!("swarm boot failed: {e}"))?;
    let exchange = config.node.exchange_interval;
    let choke = Some(config.choke_interval);

    let mut steps = StepTimes::default();
    loop {
        let at = cluster.elapsed();
        let kind = classify(at, exchange, choke);
        // completion is checked on tick boundaries only, and outside
        // the timed spans
        if kind != Kind::Delivery && (undelivered(&config, &cluster.ledger()) == 0 || at >= HORIZON)
        {
            break;
        }
        let (alive, secs) = ctx.tracer.timed(kind.span(), || cluster.step());
        steps.push(kind, secs);
        if !alive {
            break;
        }
    }
    ctx.tracer.close();
    let outer_s = started.elapsed().as_secs_f64();

    let mut stats = cluster.stats();
    if ctx.fault == Some(Fault::ProtocolErrors) {
        if let Some(first) = stats.values_mut().next() {
            first.protocol_errors += 1;
        }
    }
    let errors: u64 = stats.values().map(|s| s.protocol_errors).sum();
    if errors > 0 {
        return Err(format!("{errors} protocol errors"));
    }
    if !cluster.all_from_pieces() {
        return Err("a contribution record did not come from a piece transfer".into());
    }
    let outcome = cluster.report();
    let coop = outcome.mean_completeness(PeerBehaviour::Cooperator);
    let free = outcome.mean_completeness(PeerBehaviour::Freerider);
    if free >= coop {
        return Err(format!(
            "freeriders ({free:?}) did not fall behind cooperators ({coop:?})"
        ));
    }
    let ledger = cluster.ledger();
    Ok(Rep {
        setup_s,
        outer_s,
        steps,
        exact: Exact {
            virtual_elapsed: cluster.elapsed(),
            undelivered: undelivered(&config, &ledger),
            ledger,
            stats,
            frames_dropped: cluster.transport().frames_dropped(),
        },
        edges: cluster
            .edges()
            .into_iter()
            .map(|(id, edges)| NodeView { id, edges })
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
    let totals = sum_stats(exact.stats.values());
    let pieces = exact.pieces();
    let owed = (size.nodes - size.freeriders - 1) as u64 * size.pieces as u64;

    let mut report = Report::new(
        owed * reps.len() as u64,
        exact.undelivered * reps.len() as u64,
        reps.len(),
    );
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    top_up_setups(ctx, &mut setups, 9, "swarm.cluster.boot", || {
        SwarmCluster::boot(config(seed, size)).map_err(|e| format!("swarm boot failed: {e}"))
    })?;
    set_end_to_end(
        &mut report,
        &setups,
        wall_s,
        (
            pieces as f64 / wall_s,
            &format!("{pieces} pieces delivered"),
        ),
        (
            latency(&best.us[Kind::Choke as usize], None),
            "one choke-instant lockstep step",
        ),
    );
    if !ctx.traced {
        return Ok(report);
    }

    set_step_metrics(&mut report, &best, reps.len());
    set_node_stats(&mut report, &totals, exact.frames_dropped);
    let n = reps.len();
    report.set("pieces_per_s", pieces as f64 / wall_s, n);
    report.set("records_per_s", records_applied(&totals) as f64 / wall_s, n);
    report.set(
        "duplicate_ratio",
        totals.records_duplicate as f64 / totals.records_received.max(1) as f64,
        1,
    );
    report.set(
        "wire_bytes_per_piece",
        totals.bytes_sent as f64 / pieces.max(1) as f64,
        1,
    );
    report.set(
        "swarm.cluster.boot_ms",
        median(&reps.iter().map(|r| r.setup_s * 1e3).collect::<Vec<_>>()),
        n,
    );
    report.set("trace_overhead_pct", trace_overhead_pct, n);

    let defaults = SwarmClusterConfig::default();
    let node_rounds = |kind: Kind| (best.us[kind as usize].len() as u64) * size.nodes as u64;
    let ops = OpCounts {
        totals,
        history_writes: 2 * pieces,
        exchange_node_ticks: node_rounds(Kind::Exchange) + node_rounds(Kind::Choke),
        choke_node_rounds: node_rounds(Kind::Choke),
    };
    replay::cluster(
        ctx,
        &mut report,
        &reps[0].edges,
        defaults.node.bartercast,
        Some((defaults.params.bt, &ReputationPolicy::Rank)),
        &ops,
        wall_s * 1e3,
    );
    Ok(report)
}
