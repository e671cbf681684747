//! Parallel sweeps: parameter fan-out and the Equation-2 scheduler.
//!
//! Two kinds of parallelism live here:
//!
//! * [`run_configs`] — the Figure 2c/3a/3b experiments run
//!   the same trace under several configurations; runs are independent
//!   and fan out one-per-thread.
//! * [`system_reputation_sums`] — the Equation-2 sweep inside one
//!   simulation: every evaluator scores every target through its own
//!   engine. Evaluator workloads are far from uniform (an archival
//!   seeder's subjective graph dwarfs a leecher's), so equal-size
//!   chunks would leave threads idle behind the chunk that drew the
//!   heavy evaluators. [`SweepSchedule::WorkStealing`] instead runs a
//!   cost-ordered task list — the arcs in the evaluator's k-hop balls
//!   for the bounds with a single-source sweep (`k ≤ 2`, the arcs that
//!   sweep actually traverses), raw edge count for every per-pair
//!   method — claimed by an atomic counter, so threads that finish
//!   early pull the next pending evaluator instead of waiting.
//!
//! Every schedule is bit-identical by construction: threads only
//! *gather* each evaluator's value vector, and the floating-point
//! reduction happens afterwards on one thread, in evaluator order.
//! Which thread computed which evaluator can never change a result.

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::metrics::SimReport;
use crate::peer::SimPeer;
use bartercast_bt::choke::{Candidate, PeerScore};
use bartercast_bt::RatioPolicy;
use bartercast_core::policy::ReputationPolicy;
use bartercast_core::ShardedEngine;
use bartercast_graph::maxflow::Method;
use bartercast_graph::ContributionGraph;
use bartercast_trace::model::Trace;
use bartercast_util::units::PeerId;
use bartercast_util::FxHashMap;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Run one simulation per configuration, in parallel, preserving input
/// order in the output.
pub fn run_configs(trace: &Trace, configs: Vec<SimConfig>) -> Vec<SimReport> {
    let n = configs.len();
    let mut slots: Vec<Option<SimReport>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (idx, config) in configs.into_iter().enumerate() {
            let trace = trace.clone();
            handles.push((
                idx,
                scope.spawn(move || Simulation::new(trace, config).run()),
            ));
        }
        for (idx, h) in handles {
            slots[idx] = Some(h.join().expect("simulation thread panicked"));
        }
    });
    slots.into_iter().map(|s| s.expect("slot filled")).collect()
}

/// Below this many evaluators the thread-spawn overhead outweighs the
/// sweep work and [`SweepSchedule::auto`] stays serial.
pub const PARALLEL_THRESHOLD: usize = 32;

/// Ceiling on sweep worker threads.
const MAX_THREADS: usize = 8;

fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// How the Equation-2 sweep distributes evaluators over threads. All
/// schedules produce bit-identical sums (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepSchedule {
    /// One thread, evaluators in index order.
    Serial,
    /// Cost-ordered task list claimed via an atomic counter: threads
    /// take the heaviest pending evaluator (by k-hop ball size where
    /// the method sweeps) as soon as they free up.
    WorkStealing,
}

impl SweepSchedule {
    /// The production choice: serial below [`PARALLEL_THRESHOLD`]
    /// evaluators or on single-core hosts, work stealing otherwise.
    pub fn auto(evaluators: usize) -> Self {
        if evaluators < PARALLEL_THRESHOLD || max_threads() < 2 {
            SweepSchedule::Serial
        } else {
            SweepSchedule::WorkStealing
        }
    }
}

/// Equation-2 numerators: for each target in `indices` (by peer
/// index), the sum of `R_j(target)` over every evaluator `j` in
/// `indices`, `j ≠ target`. Each evaluator scores all targets through
/// its engine's batch path (`reputations_from`), so the deployed
/// two-hop configuration pays one neighbourhood traversal per
/// evaluator; unbounded ablations pay one maxflow pair per target.
///
/// Threads gather per-evaluator value vectors under `schedule`; the
/// reduction then runs serially in `indices` order, so every schedule
/// returns bit-identical sums.
pub fn system_reputation_sums(
    peers: &mut [SimPeer],
    indices: &[usize],
    schedule: SweepSchedule,
) -> Vec<f64> {
    let target_ids: Vec<PeerId> = indices.iter().map(|&i| peers[i].id).collect();
    let gathered = match schedule {
        SweepSchedule::Serial => gather_serial(peers, indices, &target_ids),
        SweepSchedule::WorkStealing => gather_stealing(peers, indices, &target_ids),
    };
    let mut sums = vec![0.0; target_ids.len()];
    for (pos, values) in gathered.iter().enumerate() {
        let evaluator = target_ids[pos];
        for (k, &target) in target_ids.iter().enumerate() {
            if target != evaluator {
                sums[k] += values[k];
            }
        }
    }
    sums
}

/// Policy-facing scores for a choke round's candidates, as a
/// `candidate -> PeerScore` map. A plain `ReputationPolicy::None` run
/// never consults the engine and returns an empty map (the choker
/// substitutes [`PeerScore::NEUTRAL`]); rank/ban score all candidates
/// through the peer's epoch-cached batch path, sharing one two-hop
/// traversal; an active [`RatioPolicy`] instead reads the lifetime
/// `up`/`down` totals the peer's subjective contribution graph holds
/// for each candidate — the decentralised stand-in for a private
/// tracker's ledger.
pub fn score_candidates(
    peer: &mut SimPeer,
    policy: &ReputationPolicy,
    ratio: Option<&RatioPolicy>,
    candidates: &[Candidate],
    epoch: u64,
) -> FxHashMap<PeerId, PeerScore> {
    let needs_reputation = ratio.is_none() && !matches!(policy, ReputationPolicy::None);
    if !needs_reputation && ratio.is_none() {
        return FxHashMap::default();
    }
    let candidate_ids: Vec<PeerId> = candidates.iter().map(|c| c.peer).collect();
    let reputations = if needs_reputation {
        peer.reputations_of(&candidate_ids, epoch)
    } else {
        vec![0.0; candidate_ids.len()]
    };
    let graph = peer.engine.graph();
    candidate_ids
        .iter()
        .zip(reputations)
        .map(|(&q, reputation)| {
            (
                q,
                PeerScore {
                    reputation,
                    up: graph.total_up(q),
                    down: graph.total_down(q),
                },
            )
        })
        .collect()
}

fn gather_serial(peers: &mut [SimPeer], indices: &[usize], target_ids: &[PeerId]) -> Vec<Vec<f64>> {
    indices
        .iter()
        .map(|&i| {
            let evaluator = peers[i].id;
            peers[i].engine.reputations_from(evaluator, target_ids)
        })
        .collect()
}

/// Scheduling cost of one evaluator's sweep. The single-source sweep
/// (`Bounded(k ≤ 2)`) only traverses the evaluator's k-hop forward
/// and reverse balls, so the raw edge count of the whole subjective
/// graph badly overestimates peers whose graphs are large but whose
/// neighbourhoods are thin, inverting the LPT order. Every other
/// method runs per-pair flow over the whole graph and keeps the edge
/// count as its cost.
fn sweep_cost(peer: &SimPeer) -> usize {
    match peer.engine.method() {
        Method::Bounded(k) if k <= 2 => ball_arc_cost(peer.engine.graph(), peer.id, k),
        _ => peer.engine.graph().edge_count(),
    }
}

/// The number of arcs in `evaluator`'s forward and reverse k-hop balls
/// (arcs whose tail/head lies within `k − 1` hops of it): the work a
/// bounded-`k` single-source sweep actually performs.
fn ball_arc_cost(graph: &ContributionGraph, evaluator: PeerId, k: usize) -> usize {
    ball_arcs(evaluator, k, |u| graph.out_edges(u).map(|(v, _)| v))
        + ball_arcs(evaluator, k, |u| graph.in_edges(u).map(|(v, _)| v))
}

/// Arcs scanned by a depth-`k` layered BFS from `source` following
/// `neighbours`: every edge out of a node on a level `≤ k − 1`.
fn ball_arcs<F, I>(source: PeerId, k: usize, neighbours: F) -> usize
where
    F: Fn(PeerId) -> I,
    I: Iterator<Item = PeerId>,
{
    if k == 0 {
        return 0;
    }
    let mut dist: FxHashMap<PeerId, usize> = FxHashMap::default();
    dist.insert(source, 0);
    let mut q = VecDeque::from([source]);
    let mut arcs = 0usize;
    while let Some(u) = q.pop_front() {
        let du = dist[&u];
        if du >= k {
            continue;
        }
        for v in neighbours(u) {
            arcs += 1;
            if let Entry::Vacant(e) = dist.entry(v) {
                e.insert(du + 1);
                q.push_back(v);
            }
        }
    }
    arcs
}

fn gather_stealing(
    peers: &mut [SimPeer],
    indices: &[usize],
    target_ids: &[PeerId],
) -> Vec<Vec<f64>> {
    // position in `indices` per peer index: the loop below walks the
    // peer slice directly
    let pos_of: FxHashMap<usize, usize> = indices
        .iter()
        .enumerate()
        .map(|(pos, &i)| (i, pos))
        .collect();
    // one claimable task per evaluator, costliest first so the long
    // poles start immediately (classic LPT ordering)
    let mut slots: Vec<(usize, usize, &mut SimPeer)> = Vec::with_capacity(indices.len());
    for (i, peer) in peers.iter_mut().enumerate() {
        if let Some(&pos) = pos_of.get(&i) {
            let cost = sweep_cost(peer);
            slots.push((cost, pos, peer));
        }
    }
    slots.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let tasks: Vec<Mutex<Option<(usize, &mut SimPeer)>>> = slots
        .into_iter()
        .map(|(_, pos, peer)| Mutex::new(Some((pos, peer))))
        .collect();
    let claim = AtomicUsize::new(0);
    let mut gathered: Vec<Option<Vec<f64>>> = Vec::new();
    gathered.resize_with(indices.len(), || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..max_threads() {
            let tasks = &tasks;
            let claim = &claim;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, Vec<f64>)> = Vec::new();
                loop {
                    let t = claim.fetch_add(1, Ordering::Relaxed);
                    if t >= tasks.len() {
                        break;
                    }
                    let (pos, peer) = tasks[t]
                        .lock()
                        .expect("task mutex poisoned")
                        .take()
                        .expect("each task claimed exactly once");
                    let evaluator = peer.id;
                    local.push((pos, peer.engine.reputations_from(evaluator, target_ids)));
                }
                local
            }));
        }
        for h in handles {
            for (pos, values) in h.join().expect("sweep thread panicked") {
                gathered[pos] = Some(values);
            }
        }
    });
    gathered
        .into_iter()
        .map(|v| v.expect("every evaluator gathered"))
        .collect()
}

/// The result of a shard-parallel sweep: per-evaluator value vectors
/// in input order, plus per-task timings.
#[derive(Debug, Clone)]
pub struct ShardedSweepOutcome {
    /// `reputations_from(evaluator, targets)` per evaluator, in the
    /// order the evaluators were passed.
    pub values: Vec<Vec<f64>>,
    /// `(owner_shard, microseconds)` per completed task, one entry per
    /// evaluator (completion order).
    pub task_us: Vec<(usize, f64)>,
    /// Wall-clock time of the whole threaded sweep, milliseconds.
    pub wall_ms: f64,
    /// Tasks completed in the tail-steal phase against epoch views
    /// rather than on the owner's live engine.
    pub stolen: usize,
}

/// Shard-parallel Equation-1 sweeps: `reputations_from(e, targets)`
/// for every `e` in `evaluators`, bit-identical to the monolithic
/// engine at any worker count. See [`sharded_reputations_timed`].
pub fn sharded_reputations(
    service: &mut ShardedEngine,
    evaluators: &[PeerId],
    targets: &[PeerId],
    workers: usize,
) -> Vec<Vec<f64>> {
    sharded_reputations_timed(service, evaluators, targets, workers).values
}

/// Shard-parallel sweep with per-task timing.
///
/// The scheduler gives the work-stealing task list a **shard
/// dimension**: evaluators are grouped by owner shard into per-shard
/// queues, each LPT-ordered by k-hop ball cost, with one atomic claim
/// counter per shard. Worker `w` owns the live engines of shards
/// `w, w + W, w + 2W, …` and drains their queues through those engines
/// (memoized, synced to the live graph); only when its own shards run
/// dry does it **steal across shards**, evaluating tail tasks against
/// the epoch views published at sweep start. During the sweep no writer
/// runs — the service is `&mut`-borrowed — so each epoch *is* its
/// shard's live graph (publishing shares it, copying nothing) and
/// stolen results are bit-identical to owner-evaluated ones; threads
/// only gather `(position, values)` pairs, so the output is independent
/// of the schedule. The views are dropped before returning, so the
/// service's next write takes each graph back by move.
pub fn sharded_reputations_timed(
    service: &mut ShardedEngine,
    evaluators: &[PeerId],
    targets: &[PeerId],
    workers: usize,
) -> ShardedSweepOutcome {
    let shards = service.shard_count();
    let workers = workers.max(1);
    let k = match service.method() {
        Method::Bounded(k) => k,
        other => unreachable!("sharded service is always bounded, got {other:?}"),
    };
    let epochs = service.publish_all();
    // per-shard claimable queues, costliest evaluator first (LPT)
    let mut queues: Vec<Vec<(usize, PeerId)>> = vec![Vec::new(); shards];
    for (pos, &e) in evaluators.iter().enumerate() {
        queues[service.shard_of(e)].push((pos, e));
    }
    for (s, queue) in queues.iter_mut().enumerate() {
        let graph = epochs[s].graph();
        let mut costed: Vec<(usize, usize, PeerId)> = queue
            .drain(..)
            .map(|(pos, e)| (ball_arc_cost(graph, e, k), pos, e))
            .collect();
        costed.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        queue.extend(costed.into_iter().map(|(_, pos, e)| (pos, e)));
    }
    let claims: Vec<AtomicUsize> = (0..shards).map(|_| AtomicUsize::new(0)).collect();
    let mut engine_slots: Vec<Option<&mut bartercast_core::ReputationEngine>> =
        service.shard_engines_mut().into_iter().map(Some).collect();

    let mut gathered: Vec<Option<Vec<f64>>> = Vec::new();
    gathered.resize_with(evaluators.len(), || None);
    let mut task_us: Vec<(usize, f64)> = Vec::with_capacity(evaluators.len());
    let mut stolen_total = 0usize;
    let started = Instant::now();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            // worker w takes the live engines of shards ≡ w (mod W)
            let mut own: Vec<(usize, &mut bartercast_core::ReputationEngine)> = engine_slots
                .iter_mut()
                .enumerate()
                .filter(|(s, _)| s % workers == w)
                .map(|(s, slot)| (s, slot.take().expect("engine taken once")))
                .collect();
            let queues = &queues;
            let claims = &claims;
            let epochs = &epochs;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, Vec<f64>, usize, f64)> = Vec::new();
                let mut stolen = 0usize;
                // phase 1: drain owned shards on their live engines
                for (s, engine) in &mut own {
                    loop {
                        let t = claims[*s].fetch_add(1, Ordering::Relaxed);
                        if t >= queues[*s].len() {
                            break;
                        }
                        let (pos, e) = queues[*s][t];
                        let t0 = Instant::now();
                        let values = engine.reputations_from(e, targets);
                        local.push((pos, values, *s, t0.elapsed().as_secs_f64() * 1e6));
                    }
                }
                // phase 2: steal the tail of other shards via epochs
                loop {
                    let mut claimed_any = false;
                    for (s, epoch) in epochs.iter().enumerate() {
                        let t = claims[s].fetch_add(1, Ordering::Relaxed);
                        if t >= queues[s].len() {
                            continue;
                        }
                        claimed_any = true;
                        let (pos, e) = queues[s][t];
                        let t0 = Instant::now();
                        let values = epoch.reputations_from(e, targets);
                        local.push((pos, values, s, t0.elapsed().as_secs_f64() * 1e6));
                        stolen += 1;
                    }
                    if !claimed_any {
                        break;
                    }
                }
                (local, stolen)
            }));
        }
        for h in handles {
            let (local, stolen) = h.join().expect("sharded sweep worker panicked");
            stolen_total += stolen;
            for (pos, values, shard, us) in local {
                gathered[pos] = Some(values);
                task_us.push((shard, us));
            }
        }
    });
    ShardedSweepOutcome {
        values: gathered
            .into_iter()
            .map(|v| v.expect("every evaluator swept"))
            .collect(),
        task_us,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        stolen: stolen_total,
    }
}

/// Equation-2 numerators over a sharded service: for each target in
/// `evaluators`, the sum of `R_j(target)` over every other evaluator
/// `j`. Values are gathered shard-parallel ([`sharded_reputations`])
/// and reduced serially in input order, so the sums are bit-identical
/// at any shard and worker count.
pub fn sharded_reputation_sums(
    service: &mut ShardedEngine,
    evaluators: &[PeerId],
    workers: usize,
) -> Vec<f64> {
    let gathered = sharded_reputations(service, evaluators, evaluators, workers);
    let mut sums = vec![0.0; evaluators.len()];
    for (pos, values) in gathered.iter().enumerate() {
        let evaluator = evaluators[pos];
        for (k, &target) in evaluators.iter().enumerate() {
            if target != evaluator {
                sums[k] += values[k];
            }
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use bartercast_core::ReputationEngine;
    use bartercast_gossip::PssConfig;
    use bartercast_trace::synth::{SynthConfig, TraceBuilder};
    use bartercast_util::units::{Bandwidth, Bytes, Seconds};
    use proptest::prelude::*;

    fn tiny_trace() -> Trace {
        TraceBuilder::new(SynthConfig {
            peers: 12,
            swarms: 2,
            horizon: Seconds::from_hours(12),
            ..Default::default()
        })
        .build(1)
    }

    fn cfg() -> SimConfig {
        SimConfig {
            round: Seconds(60),
            bt: bartercast_bt::BtConfig {
                regular_slots: 4,
                unchoke_period: Seconds(60),
                optimistic_period: Seconds(60),
            },
            ..Default::default()
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let trace = tiny_trace();
        let configs = vec![cfg(), cfg(), cfg()];
        let parallel = run_configs(&trace, configs.clone());
        let sequential: Vec<_> = configs
            .into_iter()
            .map(|c| Simulation::new(trace.clone(), c).run())
            .collect();
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.pieces_transferred, s.pieces_transferred);
            assert_eq!(p.messages_delivered, s.messages_delivered);
            assert_eq!(p.records_suppressed, s.records_suppressed);
        }
    }

    #[test]
    fn sweep_preserves_order() {
        let trace = tiny_trace();
        let configs = [-0.3, -0.5, -0.7].map(|delta| SimConfig {
            policy: ReputationPolicy::Ban { delta },
            ..cfg()
        });
        let reports = run_configs(&trace, configs.to_vec());
        assert_eq!(reports.len(), 3);
        // determinism: rerunning any single config gives the same totals
        let again = Simulation::new(
            trace.clone(),
            SimConfig {
                policy: ReputationPolicy::Ban { delta: -0.5 },
                ..cfg()
            },
        )
        .run();
        assert_eq!(reports[1].pieces_transferred, again.pieces_transferred);
    }

    /// A synthetic population whose transfer pattern concentrates
    /// degree on the first few peers (the skew the work-stealing
    /// scheduler exists for).
    fn skewed_population(n: u32, edges_seed: u64) -> Vec<SimPeer> {
        let mut peers: Vec<SimPeer> = (0..n)
            .map(|i| {
                SimPeer::new(
                    PeerId(i),
                    crate::config::Behaviour::Sharer,
                    crate::adversary::Conduct::Honest,
                    true,
                    Bandwidth::from_mbps(3),
                    Bandwidth::from_kbps(512),
                    PssConfig::default(),
                    ReputationEngine::new(),
                )
            })
            .collect();
        // deterministic pseudo-random transfers, heavy on low indices
        let mut state = edges_seed | 1;
        for step in 0..(n as u64 * 8) {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let hub = (state >> 33) % (1 + n as u64 / 4);
            let other = (state >> 17) % n as u64;
            if hub == other {
                continue;
            }
            let amount = Bytes(1 + (state % 1_000_000));
            let (a, b) = (PeerId(hub as u32), PeerId(other as u32));
            let idx = if step % 3 == 0 { hub } else { other } as usize;
            peers[idx].engine.graph_mut().add_transfer(a, b, amount);
        }
        peers
    }

    #[test]
    fn ball_cost_matches_local_structure() {
        // star: evaluator 0 connected to 1..=4, plus a distant clique
        let mut g = ContributionGraph::new();
        for i in 1..=4 {
            g.add_transfer(PeerId(0), PeerId(i), Bytes(1));
        }
        for f in 10..20u32 {
            for t in 10..20u32 {
                if f != t {
                    g.add_transfer(PeerId(f), PeerId(t), Bytes(1));
                }
            }
        }
        let local = ball_arc_cost(&g, PeerId(0), 2);
        assert_eq!(local, 4, "distant clique must not inflate the cost");
        assert!(ball_arc_cost(&g, PeerId(10), 2) > local);
        assert_eq!(ball_arc_cost(&g, PeerId(0), 0), 0);
    }

    #[test]
    fn cost_uses_ball_size_where_the_method_sweeps() {
        let mut peers = skewed_population(2, 7);
        // evaluator 0: a two-edge local neighbourhood plus a distant
        // 6-node clique it can never reach within the deployed bound
        let g = peers[0].engine.graph_mut();
        *g = Default::default();
        g.add_transfer(PeerId(0), PeerId(1), Bytes(10));
        g.add_transfer(PeerId(1), PeerId(0), Bytes(10));
        for f in 10..16u32 {
            for t in 10..16u32 {
                if f != t {
                    g.add_transfer(PeerId(f), PeerId(t), Bytes(1));
                }
            }
        }
        let edges = peers[0].engine.graph().edge_count();
        let bounded_cost = sweep_cost(&peers[0]);
        assert!(
            bounded_cost < edges,
            "bounded cost {bounded_cost} must ignore the distant clique ({edges} edges)"
        );
        // per-pair flow really does touch every edge
        for method in [Method::Bounded(3), Method::Dinic] {
            let engine = peers[0].engine.clone().with_method(method);
            peers[0].engine = engine;
            assert_eq!(sweep_cost(&peers[0]), edges, "{method:?}");
        }
    }

    #[test]
    fn schedules_agree_bitwise() {
        let indices: Vec<usize> = (0..40).collect();
        let serial = {
            let mut peers = skewed_population(40, 99);
            system_reputation_sums(&mut peers, &indices, SweepSchedule::Serial)
        };
        let stolen = {
            let mut peers = skewed_population(40, 99);
            system_reputation_sums(&mut peers, &indices, SweepSchedule::WorkStealing)
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&serial), bits(&stolen));
    }

    #[test]
    fn subset_of_evaluators_is_supported() {
        // archival peers are excluded from Equation 2: the scheduler
        // must handle indices that skip peers
        let indices: Vec<usize> = (0..40).filter(|i| i % 3 != 0).collect();
        let mut a = skewed_population(40, 5);
        let mut b = skewed_population(40, 5);
        let serial = system_reputation_sums(&mut a, &indices, SweepSchedule::Serial);
        let stolen = system_reputation_sums(&mut b, &indices, SweepSchedule::WorkStealing);
        assert_eq!(serial.len(), indices.len());
        for (s, w) in serial.iter().zip(&stolen) {
            assert_eq!(s.to_bits(), w.to_bits());
        }
    }

    /// A deterministic skewed edge batch for the sharded-sweep tests.
    fn sharded_fixture(shards: usize, n: u32, seed: u64) -> (ShardedEngine, ReputationEngine) {
        let mut svc = ShardedEngine::new(shards);
        let mut mono = ReputationEngine::new();
        let mut state = seed | 1;
        for _ in 0..(n as u64 * 6) {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let hub = ((state >> 33) % (1 + n as u64 / 4)) as u32;
            let other = ((state >> 17) % n as u64) as u32;
            let amount = Bytes(1 + (state % 1_000_000));
            svc.add_transfer(PeerId(hub), PeerId(other), amount);
            mono.graph_mut()
                .add_transfer(PeerId(hub), PeerId(other), amount);
        }
        (svc, mono)
    }

    #[test]
    fn sharded_sweep_matches_monolith_at_every_worker_count() {
        let n = 36u32;
        let evaluators: Vec<PeerId> = (0..n).map(PeerId).collect();
        for shards in [1usize, 2, 4, 8] {
            for workers in [1usize, 2, 3, 8] {
                let (mut svc, mut mono) = sharded_fixture(shards, n, 42);
                let swept = sharded_reputations(&mut svc, &evaluators, &evaluators, workers);
                for (pos, &e) in evaluators.iter().enumerate() {
                    let expect = mono.reputations_from(e, &evaluators);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&expect),
                        bits(&swept[pos]),
                        "shards={shards} workers={workers} evaluator={e}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_sums_match_serial_reduction() {
        let n = 40u32;
        let evaluators: Vec<PeerId> = (0..n).map(PeerId).collect();
        let (mut svc, mut mono) = sharded_fixture(4, n, 7);
        let sums = sharded_reputation_sums(&mut svc, &evaluators, 3);
        // serial monolithic reference, reduced in the same input order
        let mut expect = vec![0.0; evaluators.len()];
        for &e in &evaluators {
            let values = mono.reputations_from(e, &evaluators);
            for (k, &target) in evaluators.iter().enumerate() {
                if target != e {
                    expect[k] += values[k];
                }
            }
        }
        for (a, b) in expect.iter().zip(&sums) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn sharded_outcome_reports_every_task() {
        let n = 30u32;
        let evaluators: Vec<PeerId> = (0..n).map(PeerId).collect();
        let (mut svc, _) = sharded_fixture(4, n, 11);
        let outcome = sharded_reputations_timed(&mut svc, &evaluators, &evaluators, 2);
        assert_eq!(outcome.values.len(), evaluators.len());
        assert_eq!(outcome.task_us.len(), evaluators.len());
        assert!(outcome.task_us.iter().all(|&(s, us)| s < 4 && us >= 0.0));
        assert!(outcome.wall_ms >= 0.0);
        // the sweep kept no view: the next write copies no graph
        svc.add_transfer(PeerId(0), PeerId(1), Bytes(1));
        assert_eq!(svc.stats().graph_copies, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn work_stealing_is_bit_identical_to_serial(seed in 0u64..1000, n in 33u32..48) {
            let indices: Vec<usize> = (0..n as usize).collect();
            let mut serial_peers = skewed_population(n, seed);
            let mut stealing_peers = skewed_population(n, seed);
            let serial =
                system_reputation_sums(&mut serial_peers, &indices, SweepSchedule::Serial);
            let stolen =
                system_reputation_sums(&mut stealing_peers, &indices, SweepSchedule::WorkStealing);
            for (k, (s, w)) in serial.iter().zip(&stolen).enumerate() {
                prop_assert_eq!(s.to_bits(), w.to_bits(), "target {} differs", k);
            }
        }
    }
}
