//! Scalability study — the paper's future work: "we plan to perform
//! simulations with up to 100,000 peers and assess the scalability of
//! our mechanism".
//!
//! BarterCast's per-peer cost does not depend on swarm dynamics, so
//! this study drops the piece-level BitTorrent layer and models the
//! mechanism itself at population scale:
//!
//! * every peer runs a synthetic transfer process (sharers move ~5×
//!   the upload volume of freeriders) feeding its private history;
//! * a sample of **probe** peers maintains full BarterCast state —
//!   subjective graph, reputation engine — and receives gossip from
//!   random peers plus its own transfer partners each round
//!   (maintaining full state for all 100 k peers would measure the
//!   host machine's RAM, not the mechanism: what matters is the
//!   *per-peer* cost, which the probes exhibit exactly);
//! * at the end we measure what the deployed mechanism cares about:
//!   subjective graph size, two-hop reputation query latency, and
//!   discrimination accuracy (how often a random sharer outranks a
//!   random freerider in a probe's subjective view).
//!
//! Each probe carries its **own** RNG — seeded from the global seed
//! plus the probe's slot — for its sampling and loss draws, so probe
//! processing is order-independent and runs on parallel threads;
//! `probe_order_is_irrelevant` pins the order independence.
//!
//! [`run_shard_scale`] is the ROADMAP's next 10×–100×: the population
//! is ingested into a [`ShardedEngine`] partitioned by planted
//! community (the stratified structure of real P2P populations —
//! like-bandwidth peers cluster with sparse cross-links — is what
//! keeps boundary replication small), swept shard-parallel through
//! epoch snapshots, and checksummed so every shard count can be
//! pinned bit-identical to the monolith.
//!
//! Run via `cargo run -p bartercast-experiments --release --bin scale`
//! (probe study) or `bash benchmark/run.sh --workload shard_1m`
//! (sharded study).

use crate::config::Behaviour;
use crate::sweep::sharded_reputations_timed;
use bartercast_core::history::PrivateHistory;
use bartercast_core::message::{BarterCastConfig, BarterCastMessage};
use bartercast_core::shard::Partitioner;
use bartercast_core::{ReputationEngine, ShardedEngine};
use bartercast_util::stats::{percentile, Running};
use bartercast_util::units::{Bytes, PeerId, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Transfers each peer initiates per synthetic round: one upload to
/// one of its stable partners (EXPERIMENTS.md, "Beyond the paper",
/// Scalability).
const TRANSFERS_PER_PEER: usize = 1;

/// Gossip messages each probe hears per round from random peers, on
/// top of its transfer partners (EXPERIMENTS.md, "Beyond the paper",
/// Scalability).
const GOSSIP_PER_PROBE: usize = 20;

/// Fraction of the population that freerides: §5.1's 50/50 split.
const FREERIDER_FRACTION: f64 = 0.5;

/// Scalability-study parameters.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Population size (the paper's future-work target: 100 000).
    pub peers: usize,
    /// Number of probe peers with full BarterCast state.
    pub probes: usize,
    /// Synthetic protocol rounds.
    pub rounds: usize,
    /// RNG seed.
    pub seed: u64,
    /// Probability each gossip message is lost in transit. Survivors
    /// are absorbed within the round they were sent in.
    pub message_loss: f64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            peers: 10_000,
            probes: 100,
            rounds: 30,
            seed: 1,
            message_loss: 0.0,
        }
    }
}

/// Measured outcomes of one scalability run.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Population size.
    pub peers: usize,
    /// Mean subjective-graph edge count across probes.
    pub mean_graph_edges: f64,
    /// Median two-hop reputation query latency (microseconds).
    pub query_us_p50: f64,
    /// 95th-percentile query latency (microseconds).
    pub query_us_p95: f64,
    /// Fraction of (sharer, freerider) target pairs a probe ranks
    /// correctly (sharer above freerider), over informed pairs.
    pub pairwise_accuracy: f64,
    /// Total messages delivered to probes.
    pub messages: u64,
    /// Messages lost in transit.
    pub messages_lost: u64,
}

/// Ceiling on probe worker threads.
fn probe_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// One probe's self-contained state: engine, RNG, and the
/// measurement accumulators. Nothing here is shared between probes,
/// which is what makes probe processing order- and thread-free.
struct ProbeState {
    /// Population index of the probe peer.
    peer: usize,
    engine: ReputationEngine,
    rng: StdRng,
    messages: u64,
    messages_lost: u64,
    latencies: Vec<f64>,
    correct: u64,
    informed: u64,
}

/// Apply `f` to every probe — serially (forward or reversed, for the
/// order-independence regression test) or across worker threads.
fn process_probes<F>(probes: &mut [ProbeState], reverse: bool, f: F)
where
    F: Fn(&mut ProbeState) + Sync,
{
    let threads = probe_threads();
    if threads < 2 || probes.len() < 32 {
        if reverse {
            probes.iter_mut().rev().for_each(f);
        } else {
            probes.iter_mut().for_each(f);
        }
        return;
    }
    let chunk = probes.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for slice in probes.chunks_mut(chunk) {
            let f = &f;
            scope.spawn(move || slice.iter_mut().for_each(f));
        }
    });
}

/// Run the study.
pub fn run_scale(config: &ScaleConfig) -> ScaleReport {
    run_scale_ordered(config, false)
}

/// [`run_scale`] with an explicit probe processing order (`reverse`
/// flips the serial iteration). Results must not depend on it: every
/// probe draws only from its own RNG seeded by `config.seed + slot +
/// 1`, so the probes never contend for shared random state. Exposed to
/// the regression test only.
fn run_scale_ordered(config: &ScaleConfig, reverse: bool) -> ScaleReport {
    assert!(config.peers >= 10);
    assert!(config.probes >= 1 && config.probes <= config.peers);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.peers;

    // behaviour split
    let behaviours: Vec<Behaviour> = (0..n)
        .map(|_| {
            if rng.gen_bool(FREERIDER_FRACTION) {
                Behaviour::Freerider
            } else {
                Behaviour::Sharer
            }
        })
        .collect();

    // stable partner sets: peers transfer repeatedly within a bounded
    // neighbourhood, as real BitTorrent peers do across swarms — this
    // is what gives contribution edges their weight
    let partners_per_peer = 8usize;
    let partner_sets: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            (0..partners_per_peer)
                .map(|_| loop {
                    let j = rng.gen_range(0..n);
                    if j != i {
                        break j;
                    }
                })
                .collect()
        })
        .collect();

    // reverse partner sets: who uploads *to* each peer
    let mut sources: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, set) in partner_sets.iter().enumerate() {
        for &j in set {
            sources[j].push(i);
        }
    }

    // private histories for everyone (cheap), full state only for the
    // probes — each probe self-contained (own engine, transport, RNG)
    let mut histories: Vec<PrivateHistory> = (0..n)
        .map(|i| PrivateHistory::new(PeerId(i as u32)))
        .collect();
    let probe_ids: Vec<usize> = (0..config.probes)
        .map(|i| i * (n / config.probes))
        .collect();
    let mut probes: Vec<ProbeState> = probe_ids
        .iter()
        .enumerate()
        .map(|(slot, &peer)| ProbeState {
            peer,
            engine: ReputationEngine::new(),
            rng: StdRng::seed_from_u64(config.seed.wrapping_add(slot as u64 + 1)),
            messages: 0,
            messages_lost: 0,
            latencies: Vec::new(),
            correct: 0,
            informed: 0,
        })
        .collect();

    for round in 0..config.rounds {
        let now = Seconds((round + 1) as u64 * 600);
        // 1. synthetic transfers: uploader i pushes to a random partner
        //    (shared-RNG phase: population state, inherently serial)
        for i in 0..n {
            for _ in 0..TRANSFERS_PER_PEER {
                // sharers upload ~5x what freeriders do
                let mb = match behaviours[i] {
                    Behaviour::Sharer => rng.gen_range(20..120),
                    Behaviour::Freerider => rng.gen_range(2..26),
                };
                let j = partner_sets[i][rng.gen_range(0..partners_per_peer)];
                if i == j {
                    continue;
                }
                let amount = Bytes::from_mb(mb);
                histories[i].record_upload(PeerId(j as u32), amount, now);
                histories[j].record_download(PeerId(i as u32), amount, now);
            }
        }
        // 2. gossip into the probes: each probe hears its transfer
        //    counterparties — upload targets *and* upload sources, met
        //    continuously — plus `GOSSIP_PER_PROBE` random peers. The
        //    sources' messages are what carry the j -> k edges of the
        //    two-hop paths j -> k -> probe (k reports its own top
        //    uploaders, §3.4). Per-probe state only: runs in parallel.
        let histories = &histories;
        let partner_sets = &partner_sets;
        let sources = &sources;
        process_probes(&mut probes, reverse, |probe| {
            probe.engine.absorb_private(&histories[probe.peer]);
            let senders: Vec<usize> = partner_sets[probe.peer]
                .iter()
                .copied()
                .chain(sources[probe.peer].iter().copied())
                .chain((0..GOSSIP_PER_PROBE).map(|_| probe.rng.gen_range(0..n)))
                .collect();
            for sender in senders {
                if sender == probe.peer {
                    continue;
                }
                if config.message_loss > 0.0 && probe.rng.gen_bool(config.message_loss) {
                    probe.messages_lost += 1;
                    continue;
                }
                // Discarded draw: keeps each probe's RNG stream, and so
                // every seeded report, identical to runs that drew a
                // per-message delay here. No result could observe that
                // delay: deliveries never crossed a round boundary and
                // absorption is an order-free max-merge.
                let _delay: u64 = probe.rng.gen_range(0..=600);
                // the paper's Nh = Nr = 10 (§5.1)
                let msg = BarterCastMessage::from_history(
                    &histories[sender],
                    BarterCastConfig::default(),
                );
                probe.engine.absorb_message(&msg);
                probe.messages += 1;
            }
        });
    }
    // take the measurements — still per-probe, still order-free
    let behaviours = &behaviours;
    let sources = &sources;
    process_probes(&mut probes, reverse, |probe| {
        let me = PeerId(probe.peer as u32);
        // query latency over random targets
        for _ in 0..50 {
            let t = PeerId(probe.rng.gen_range(0..n) as u32);
            let start = Instant::now();
            let _ = probe.engine.flows(me, t);
            probe.latencies.push(start.elapsed().as_secs_f64() * 1e6);
        }
        // discrimination over the operationally relevant targets: the
        // peers with a two-hop path *into* the probe (j -> k -> probe
        // with k one of the probe's upload sources) — the population
        // whose service can reach it and about whom it makes choking
        // decisions
        let mut neighbourhood: Vec<usize> = Vec::new();
        for &k in &sources[probe.peer] {
            neighbourhood.push(k);
            neighbourhood.extend(sources[k].iter().copied());
        }
        neighbourhood.sort_unstable();
        neighbourhood.dedup();
        neighbourhood.retain(|&x| x != probe.peer);
        let sharers_nb: Vec<usize> = neighbourhood
            .iter()
            .copied()
            .filter(|&x| behaviours[x] == Behaviour::Sharer)
            .collect();
        let freeriders_nb: Vec<usize> = neighbourhood
            .iter()
            .copied()
            .filter(|&x| behaviours[x] == Behaviour::Freerider)
            .collect();
        if !sharers_nb.is_empty() && !freeriders_nb.is_empty() {
            for _ in 0..50 {
                let sharer = sharers_nb[probe.rng.gen_range(0..sharers_nb.len())];
                let freerider = freeriders_nb[probe.rng.gen_range(0..freeriders_nb.len())];
                let rs = probe.engine.reputation(me, PeerId(sharer as u32));
                let rf = probe.engine.reputation(me, PeerId(freerider as u32));
                if rs == 0.0 && rf == 0.0 {
                    continue; // uninformed pair
                }
                probe.informed += 1;
                if rs > rf {
                    probe.correct += 1;
                }
            }
        }
    });

    // 3. reduce in probe-slot order, whatever order (or thread) the
    //    probes ran in
    let mut edges = Running::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut messages = 0u64;
    let mut messages_lost = 0u64;
    let mut correct = 0u64;
    let mut informed = 0u64;
    for probe in &probes {
        edges.push(probe.engine.graph().edge_count() as f64);
        latencies.extend_from_slice(&probe.latencies);
        messages += probe.messages;
        messages_lost += probe.messages_lost;
        correct += probe.correct;
        informed += probe.informed;
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ScaleReport {
        peers: n,
        mean_graph_edges: edges.mean(),
        query_us_p50: percentile(&latencies, 0.5).unwrap_or(0.0),
        query_us_p95: percentile(&latencies, 0.95).unwrap_or(0.0),
        pairwise_accuracy: if informed > 0 {
            correct as f64 / informed as f64
        } else {
            0.0
        },
        messages,
        messages_lost,
    }
}

/// Contiguous-block community partitioner for the synthetic sharded
/// population: peer `i` belongs to community `i / community_size`,
/// communities round-robin onto shards. A zero-storage demonstration
/// of the pluggable [`Partitioner`] trait for populations whose
/// community labels are implicit in the id layout.
#[derive(Debug, Clone, Copy)]
pub struct ContiguousCommunities {
    /// Peers per community.
    pub community_size: u32,
}

impl Partitioner for ContiguousCommunities {
    fn shard_of(&self, peer: PeerId, shards: usize) -> usize {
        (peer.0 / self.community_size.max(1)) as usize % shards
    }
}

/// Parameters of the sharded million-peer study.
#[derive(Debug, Clone)]
pub struct ShardScaleConfig {
    /// Population size (ROADMAP north star: 1 000 000).
    pub peers: usize,
    /// Peers per planted community; communities map round-robin onto
    /// shards, so intra-community records stay shard-local.
    pub community_size: usize,
    /// Probability a record stays inside the peer's own community
    /// (the stratification observation: ~0.95 for real populations).
    pub intra_probability: f64,
    /// Contribution records ingested per peer.
    pub records_per_peer: usize,
    /// Shard count (1 = the monolithic engine, byte for byte).
    pub shards: usize,
    /// Evaluators sampled for the Equation-1 sweep.
    pub evaluators: usize,
    /// Targets scored per evaluator.
    pub targets: usize,
    /// Sweep worker threads for the measured wall time.
    pub workers: usize,
    /// RNG seed. The record stream is a pure function of the seed —
    /// independent of `shards` — so checksums are comparable across
    /// shard counts.
    pub seed: u64,
    /// Cross-check this many evaluators' sweeps bitwise against a
    /// monolithic [`ReputationEngine`] built from the same records
    /// (0 skips the check; keep it on for correctness gates, off for
    /// the million-peer timing run where shard-count checksum
    /// equality is the gate).
    pub verify_evaluators: usize,
}

impl Default for ShardScaleConfig {
    fn default() -> Self {
        ShardScaleConfig {
            peers: 1_000_000,
            community_size: 1_000,
            intra_probability: 0.95,
            records_per_peer: 4,
            shards: 4,
            evaluators: 2_000,
            targets: 128,
            workers: 4,
            seed: 1,
            verify_evaluators: 0,
        }
    }
}

/// Measured outcomes of one sharded scale run.
#[derive(Debug, Clone)]
pub struct ShardScaleReport {
    /// Population size.
    pub peers: usize,
    /// Shard count.
    pub shards: usize,
    /// Records ingested.
    pub records: u64,
    /// Ingest wall time, milliseconds.
    pub ingest_ms: f64,
    /// Ingest throughput, records per second.
    pub records_per_sec: f64,
    /// Measured wall time of the threaded shard-parallel sweep.
    pub sweep_wall_ms: f64,
    /// Sweep tasks completed via cross-shard stealing.
    pub stolen: usize,
    /// Wrapping sum of `to_bits` over every swept value — equal
    /// across shard counts iff the sharded results are bit-identical.
    pub checksum: u64,
    /// Fraction of authoritative edges that are shard-local.
    pub locality: f64,
    /// Shard graphs copied because a write found an epoch view alive
    /// (`ShardStats::graph_copies`); zero for this ingest-then-sweep
    /// run, whose sweep drops its views before returning.
    pub graph_copies: u64,
    /// Authoritative (union-graph) edge count.
    pub authoritative_edges: usize,
    /// Total replica edges across shards.
    pub replica_edges: usize,
}

/// The deterministic record stream of the sharded study: a pure
/// function of the seed, community geometry, and record budget —
/// never of the shard count.
fn shard_scale_records(
    config: &ShardScaleConfig,
) -> impl Iterator<Item = (PeerId, PeerId, Bytes)> + '_ {
    let n = config.peers as u64;
    let community = config.community_size.max(1) as u64;
    let intra_cut = (config.intra_probability.clamp(0.0, 1.0) * (1u64 << 32) as f64) as u64;
    let mut state = config.seed | 1;
    let mut split = move || {
        // splitmix64: cheap, full-period, and stable across runs
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    (0..n).flat_map(move |i| {
        (0..config.records_per_peer)
            .filter_map(|_| {
                let r = split();
                let partner = if r & 0xffff_ffff < intra_cut {
                    // stay in the community block
                    let base = i / community * community;
                    base + (r >> 32) % community.min(n - base)
                } else {
                    (r >> 32) % n
                };
                if partner == i {
                    return None;
                }
                let amount = Bytes::from_mb(1 + (split() % 200));
                Some((PeerId(i as u32), PeerId(partner as u32), amount))
            })
            .collect::<Vec<_>>()
    })
}

/// Run the sharded scale study: ingest the deterministic synthetic
/// population into a [`ShardedEngine`] partitioned by planted
/// community, sweep a sample of evaluators shard-parallel against
/// epoch snapshots, and report throughput, scaling, and the
/// bit-identity checksum.
///
/// With `verify_evaluators > 0` the first evaluators' sweeps are also
/// compared bitwise against a monolithic engine built from the same
/// record stream — the function panics on any drift, so correctness
/// gates fail before timings are reported.
pub fn run_shard_scale(config: &ShardScaleConfig) -> ShardScaleReport {
    assert!(config.peers >= 10 && config.shards >= 1);
    let mut service =
        ShardedEngine::new(config.shards).with_partitioner(Arc::new(ContiguousCommunities {
            community_size: config.community_size.max(1) as u32,
        }));

    let ingest_start = Instant::now();
    let mut records = 0u64;
    for (f, t, amount) in shard_scale_records(config) {
        service.add_transfer(f, t, amount);
        records += 1;
    }
    let ingest_ms = ingest_start.elapsed().as_secs_f64() * 1e3;

    // deterministic evaluator/target samples: strided over the
    // population, so every shard count sweeps the same peers
    let stride = (config.peers / config.evaluators.max(1)).max(1);
    let evaluators: Vec<PeerId> = (0..config.peers)
        .step_by(stride)
        .take(config.evaluators)
        .map(|i| PeerId(i as u32))
        .collect();
    let t_stride = (config.peers / config.targets.max(1)).max(1);
    let targets: Vec<PeerId> = (0..config.peers)
        .step_by(t_stride)
        .take(config.targets)
        .map(|i| PeerId(i as u32))
        .collect();

    if config.verify_evaluators > 0 {
        let mut monolith = ReputationEngine::new();
        for (f, t, amount) in shard_scale_records(config) {
            monolith.graph_mut().add_transfer(f, t, amount);
        }
        for &e in evaluators.iter().take(config.verify_evaluators) {
            let expect = monolith.reputations_from(e, &targets);
            let got = service.reputations_from(e, &targets);
            for (k, (a, b)) in expect.iter().zip(&got).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "shard-vs-monolith drift: shards={} evaluator={e} target={}",
                    config.shards,
                    targets[k]
                );
            }
        }
    }

    let outcome = sharded_reputations_timed(&mut service, &evaluators, &targets, config.workers);
    let checksum = outcome
        .values
        .iter()
        .flatten()
        .fold(0u64, |acc, v| acc.wrapping_add(v.to_bits()));
    let stats = service.stats();
    ShardScaleReport {
        peers: config.peers,
        shards: config.shards,
        records,
        ingest_ms,
        records_per_sec: records as f64 / (ingest_ms / 1e3).max(1e-9),
        sweep_wall_ms: outcome.wall_ms,
        stolen: outcome.stolen,
        checksum,
        locality: stats.locality,
        graph_copies: stats.graph_copies,
        authoritative_edges: stats.authoritative_edges,
        replica_edges: stats.replica_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaleConfig {
        // 500 peers: large enough that the probes' two-hop
        // neighbourhoods give a stable discrimination estimate (at 300
        // the per-seed variance straddles the 0.7 threshold)
        ScaleConfig {
            peers: 500,
            probes: 10,
            rounds: 25,
            ..Default::default()
        }
    }

    #[test]
    fn study_runs_and_discriminates() {
        let report = run_scale(&tiny());
        assert_eq!(report.peers, 500);
        assert!(
            report.mean_graph_edges > 50.0,
            "graphs too sparse: {}",
            report.mean_graph_edges
        );
        assert!(report.messages > 0);
        assert!(
            report.pairwise_accuracy > 0.7,
            "sharers must outrank freeriders: {}",
            report.pairwise_accuracy
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_scale(&tiny());
        let b = run_scale(&tiny());
        assert_eq!(a.mean_graph_edges, b.mean_graph_edges);
        assert_eq!(a.pairwise_accuracy, b.pairwise_accuracy);
        assert_eq!(a.messages, b.messages);
    }

    /// The satellite fix pinned: probe RNGs are per-probe (global seed
    /// plus slot), so processing probes in reverse — or on however
    /// many threads the shard-parallel loop uses — changes nothing.
    #[test]
    fn probe_order_is_irrelevant() {
        let forward = run_scale_ordered(&tiny(), false);
        let reversed = run_scale_ordered(&tiny(), true);
        assert_eq!(forward.mean_graph_edges, reversed.mean_graph_edges);
        assert_eq!(
            forward.query_us_p50.is_finite(),
            reversed.query_us_p50.is_finite()
        );
        assert_eq!(forward.pairwise_accuracy, reversed.pairwise_accuracy);
        assert_eq!(forward.messages, reversed.messages);
        assert_eq!(forward.messages_lost, reversed.messages_lost);
    }

    /// `run_scale` reports pinned at the last commit that routed probe
    /// gossip through the `gossip::transport` delay queue: the inline
    /// loss draw must reproduce them bit for bit.
    #[test]
    fn reports_match_the_delay_queue_transport() {
        let pins = [
            (500, 0.0, 2787.5, 0.7449392712550608, 9265, 0),
            (500, 0.3, 2370.3, 0.7318548387096774, 6518, 2750),
            (1200, 0.0, 3988.1000000000004, 0.7686116700201208, 9245, 0),
            (1200, 0.3, 3079.3, 0.805668016194332, 6510, 2738),
        ];
        for (peers, message_loss, edges, accuracy, messages, lost) in pins {
            let report = run_scale(&ScaleConfig {
                peers,
                message_loss,
                ..tiny()
            });
            assert_eq!(report.mean_graph_edges.to_bits(), f64::to_bits(edges));
            assert_eq!(report.pairwise_accuracy.to_bits(), f64::to_bits(accuracy));
            assert_eq!((report.messages, report.messages_lost), (messages, lost));
        }
    }

    #[test]
    fn message_loss_degrades_gracefully() {
        let clean = run_scale(&tiny());
        let lossy = run_scale(&ScaleConfig {
            message_loss: 0.3,
            ..tiny()
        });
        assert!(lossy.messages_lost > 0);
        assert!(lossy.messages < clean.messages);
        // epidemic redundancy: discrimination survives 30 % loss
        assert!(
            lossy.pairwise_accuracy > 0.6,
            "30% loss must not break discrimination: {}",
            lossy.pairwise_accuracy
        );
    }

    #[test]
    fn larger_population_larger_graphs() {
        let small = run_scale(&tiny());
        let big = run_scale(&ScaleConfig {
            peers: 1200,
            ..tiny()
        });
        // probes hear the same number of messages, so graphs grow with
        // the record diversity of a larger population
        assert!(big.mean_graph_edges >= small.mean_graph_edges * 0.8);
        assert_eq!(big.peers, 1200);
    }

    fn small_shard_config(shards: usize) -> ShardScaleConfig {
        ShardScaleConfig {
            peers: 2_000,
            community_size: 100,
            records_per_peer: 3,
            shards,
            evaluators: 60,
            targets: 40,
            workers: shards,
            verify_evaluators: 8,
            ..Default::default()
        }
    }

    /// The tier-1 smoke: a 4-shard study completes with the
    /// monolith cross-check on, and its checksum matches the 1-shard
    /// (monolithic) run bit for bit.
    #[test]
    fn four_shard_smoke() {
        let four = run_shard_scale(&small_shard_config(4));
        let one = run_shard_scale(&small_shard_config(1));
        assert_eq!(
            four.checksum, one.checksum,
            "4-shard sweep drifted from the monolithic checksum"
        );
        assert_eq!(
            four.records, one.records,
            "record stream must not depend on shards"
        );
        assert_eq!(four.authoritative_edges, one.authoritative_edges);
        assert!(
            four.locality > 0.9,
            "planted communities should keep records local: {}",
            four.locality
        );
        assert!(four.records_per_sec > 0.0);
        assert_eq!(four.graph_copies, 0, "no write met a live epoch view");
    }

    #[test]
    fn shard_scale_records_are_shard_independent() {
        let a: Vec<_> = shard_scale_records(&small_shard_config(1)).collect();
        let b: Vec<_> = shard_scale_records(&small_shard_config(8)).collect();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn contiguous_communities_keep_blocks_together() {
        let part = ContiguousCommunities {
            community_size: 100,
        };
        for base in [0u32, 100, 1900] {
            let s = part.shard_of(PeerId(base), 4);
            for k in 1..100 {
                assert_eq!(part.shard_of(PeerId(base + k), 4), s);
            }
        }
        // communities round-robin across shards
        assert_ne!(part.shard_of(PeerId(0), 4), part.shard_of(PeerId(100), 4));
    }
}
