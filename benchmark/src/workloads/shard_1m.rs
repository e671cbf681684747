//! `shard_1m`: the reputation service at scale, with none of
//! node/codec/swarm in the path. One 4-shard `ShardedEngine` over a
//! million community-structured peers is used three ways in a row —
//! write-only (bulk ingest), write-beside-read (mixed) and read-only
//! (shard-parallel sweeps) — so a memo or journal gain that taxes
//! ingest, or a parallel-sweep gain that taxes point queries, shows.
//!
//! A run is three passes on fresh engines (no separate warm-up), timed
//! in small units — 500-record ingest batches, 200-write batches,
//! single queries — whose burst-free times (`best_of` across the
//! passes) the metrics come from: a million-peer engine is
//! memory-bound, and this host's interference moved a single pass's
//! wall time by ±15 %. To pay for the third pass inside the contract's
//! time cap the issue's repetition counts are cut, as it allows: 3
//! mixed blocks and 3 sweeps a pass where it sized 5 and 5. The
//! population and every batch size are the issue's.

use super::{overhead_pct, repeat, set_end_to_end, top_up_setups, Plan, Repetition, Reps};
use crate::inputs::{community_records, Record, SplitMix};
use crate::metrics::Report;
use crate::stats::{latency, median, Latency};
use crate::trace::Tracer;
use crate::{Ctx, Fault};
use bartercast_core::ShardedEngine;
use bartercast_sim::scale::{run_shard_scale, ContiguousCommunities, ShardScaleConfig};
use bartercast_sim::sweep::sharded_reputations_timed;
use bartercast_util::units::PeerId;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 4;
/// The only threads of the whole benchmark (`nproc` is 2).
const SWEEP_WORKERS: usize = 2;

/// Three passes, each on a fresh engine; no discarded warm-up (a pass
/// is eight seconds, and `best_of` already discards the slower passes
/// of every unit).
const PLAN: Plan = Plan {
    warm_up: false,
    min: 3,
    max: 4,
};
/// Records per timed bulk-ingest batch.
const BULK_BATCH: usize = 500;
/// Transfers per timed batch inside a mixed round.
const WRITE_BATCH: usize = 200;

struct Size {
    peers: u32,
    community: u32,
    records_per_peer: usize,
    blocks: usize,
    rounds: usize,
    writes_per_round: usize,
    queries_per_round: usize,
    hot_evaluators: usize,
    targets: usize,
    sweep_evaluators: usize,
    sweeps: usize,
    gate_samples: usize,
}

const FULL: Size = Size {
    peers: 1_000_000,
    community: 1_000,
    records_per_peer: 4,
    blocks: 3,
    rounds: 40,
    writes_per_round: 2_000,
    queries_per_round: 50,
    hot_evaluators: 64,
    targets: 128,
    sweep_evaluators: 2_000,
    sweeps: 3,
    gate_samples: 256,
};
const SMOKE: Size = Size {
    peers: 20_000,
    community: 1_000,
    records_per_peer: 4,
    blocks: 3,
    rounds: 8,
    writes_per_round: 200,
    queries_per_round: 50,
    hot_evaluators: 16,
    targets: 64,
    sweep_evaluators: 200,
    sweeps: 3,
    gate_samples: 64,
};

/// Everything the program is handed, generated from the seed.
struct Inputs {
    bulk: Vec<Record>,
    /// `blocks * rounds` batches of `writes_per_round` transfers.
    mixed_writes: Vec<Record>,
    /// `blocks * rounds * queries_per_round` evaluators: alternately
    /// one of a fixed hot set (memo hits between writes) and a random
    /// peer (memo misses).
    mixed_evaluators: Vec<PeerId>,
    targets: Vec<PeerId>,
    sweep_evaluators: Vec<PeerId>,
    gate_evaluators: Vec<PeerId>,
}

fn strided(peers: u32, count: usize) -> Vec<PeerId> {
    let stride = (peers as usize / count.max(1)).max(1);
    (0..peers as usize)
        .step_by(stride)
        .take(count)
        .map(|i| PeerId(i as u32))
        .collect()
}

fn generate(seed: u64, size: &Size) -> Inputs {
    let mut rng = SplitMix::new(seed, 0x51);
    let n = u64::from(size.peers);
    let mut peer = move || PeerId(rng.below(n) as u32);
    let hot: Vec<PeerId> = (0..size.hot_evaluators).map(|_| peer()).collect();
    let rounds = size.blocks * size.rounds;
    let mixed_evaluators = (0..rounds * size.queries_per_round)
        .map(|q| {
            if q % 2 == 0 {
                hot[(q / 2) % hot.len()]
            } else {
                peer()
            }
        })
        .collect();
    let gate_evaluators = (0..size.gate_samples).map(|_| peer()).collect();
    // the mixed writes follow the bulk stream's community structure:
    // one more record for some peers, from a second stream of the seed
    let mut mixed_writes = community_records(
        SplitMix::new(seed, 0x53).next_u64(),
        size.peers,
        size.community,
        1,
    );
    SplitMix::new(seed, 0x52).shuffle(&mut mixed_writes);
    mixed_writes.truncate(rounds * size.writes_per_round);
    assert_eq!(mixed_writes.len(), rounds * size.writes_per_round);
    Inputs {
        bulk: community_records(seed, size.peers, size.community, size.records_per_peer),
        mixed_writes,
        mixed_evaluators,
        targets: strided(size.peers, size.targets),
        sweep_evaluators: strided(size.peers, size.sweep_evaluators),
        gate_evaluators,
    }
}

fn new_engine(size: &Size) -> ShardedEngine {
    ShardedEngine::new(SHARDS).with_partitioner(Arc::new(ContiguousCommunities {
        community_size: size.community,
    }))
}

/// The 4 k-peer shard-vs-monolith gate of `bench_scale`: the sharded
/// sweep is compared bitwise against a monolithic engine inside
/// `run_shard_scale` (it panics on drift), and the swept checksum must
/// not depend on the shard count.
fn monolith_gate(seed: u64) -> Result<(), String> {
    let gate = |shards: usize| {
        run_shard_scale(&ShardScaleConfig {
            peers: 4_000,
            community_size: 200,
            records_per_peer: 3,
            shards,
            evaluators: 80,
            targets: 60,
            workers: SWEEP_WORKERS.min(shards),
            seed,
            verify_evaluators: 16,
            ..ShardScaleConfig::default()
        })
        .checksum
    };
    let (one, four) = (gate(1), gate(SHARDS));
    if one != four {
        return Err(format!(
            "shard-vs-monolith gate drifted: {one:#018x} at 1 shard, {four:#018x} at {SHARDS}"
        ));
    }
    Ok(())
}

/// Nanoseconds one recorded span adds over an untraced `timed` call.
fn span_cost_ns() -> f64 {
    const CALLS: usize = 200_000;
    let cost = |on: bool| {
        let mut t = Tracer::new(on);
        let start = std::time::Instant::now();
        for i in 0..CALLS {
            black_box(t.timed("calibration", || black_box(i)));
        }
        start.elapsed().as_secs_f64() * 1e9 / CALLS as f64
    };
    (cost(true) - cost(false)).max(0.0)
}

/// What one pass measured. The `_us` vectors line up between passes
/// (same inputs, same order).
struct Pass {
    setup_s: f64,
    outer_s: f64,
    /// Records the bulk phase ingested.
    bulk_records: usize,
    bulk_us: Vec<f64>,
    write_us: Vec<f64>,
    /// Every mixed-phase query in order: `blocks` runs of
    /// `rounds * queries_per_round`.
    query_us: Vec<f64>,
    publish_us: Vec<f64>,
    /// Whole `sharded_reputations_timed` calls (each re-publishes every
    /// epoch before it sweeps).
    sweep_call_us: Vec<f64>,
    /// The sweeps proper, from the outcome's own `wall_ms`.
    sweep_wall_us: Vec<f64>,
    gate_cold_us: Vec<f64>,
    gate_warm_us: Vec<f64>,
    gate_epoch_us: Vec<f64>,
    /// Per-task `(shard, us)` and steal count of each warm sweep.
    tasks: Vec<(Vec<(usize, f64)>, usize)>,
    /// `(replica_ratio, locality)`, traced run only (it walks every
    /// authoritative edge).
    shape: Option<(f64, f64)>,
    exact: Exact,
}

/// What the passes of one seed must agree on.
#[derive(PartialEq)]
struct Exact {
    live_sum: u64,
    sweep_sum: u64,
    mismatched: u64,
}

impl Repetition for Pass {
    fn outer_s(&self) -> f64 {
        self.outer_s
    }
    fn same_counts(&self, other: &Self) -> bool {
        self.exact == other.exact
    }
    fn calls_us(&self) -> Vec<&[f64]> {
        vec![
            &self.bulk_us,
            &self.write_us,
            &self.query_us,
            &self.publish_us,
            &self.sweep_call_us,
            &self.sweep_wall_us,
            &self.gate_cold_us,
            &self.gate_warm_us,
            &self.gate_epoch_us,
        ]
    }
}

fn bits(values: &[f64]) -> u64 {
    values.iter().fold(0u64, |a, v| a.wrapping_add(v.to_bits()))
}

fn one_pass(ctx: &mut Ctx, seed: u64, size: &Size) -> Result<Pass, String> {
    let started = Instant::now();
    ctx.tracer.open("core.shard.rep");
    let ((inputs, mut engine), setup_s) = ctx.tracer.timed("shard_1m.setup", || {
        (generate(seed, size), new_engine(size))
    });
    let t = &mut ctx.tracer;

    // bulk: write-only
    let mut bulk_us = Vec::with_capacity(inputs.bulk.len() / BULK_BATCH + 1);
    for batch in inputs.bulk.chunks(BULK_BATCH) {
        let (_, secs) = t.timed("core.shard.add_transfer.bulk", || {
            for &(from, to, amount) in batch {
                engine.add_transfer(from, to, amount);
            }
        });
        bulk_us.push(secs * 1e6);
    }

    // mixed: write beside read
    let mut write_us = Vec::new();
    let mut query_us = Vec::with_capacity(inputs.mixed_evaluators.len());
    let rounds = inputs
        .mixed_writes
        .chunks(size.writes_per_round)
        .zip(inputs.mixed_evaluators.chunks(size.queries_per_round));
    for (writes, evaluators) in rounds {
        for batch in writes.chunks(WRITE_BATCH) {
            let (_, secs) = t.timed("core.shard.add_transfer.mixed", || {
                for &(from, to, amount) in batch {
                    engine.add_transfer(from, to, amount);
                }
            });
            write_us.push(secs * 1e6);
        }
        for &e in evaluators {
            let (_, secs) = t.timed("core.shard.reputations_from", || {
                black_box(engine.reputations_from(e, &inputs.targets));
            });
            query_us.push(secs * 1e6);
        }
    }

    // read-only: publish, then shard-parallel sweeps (first cold)
    let (_, publish_s) = t.timed("core.shard.publish_all", || {
        black_box(engine.publish_all());
    });
    let mut sweep_call_us = Vec::new();
    let mut sweep_wall_us = Vec::new();
    let mut tasks = Vec::new();
    let mut sweep_sum = 0u64;
    for i in 0..size.sweeps {
        let (outcome, secs) = t.timed("sim.sweep.sharded_reputations", || {
            sharded_reputations_timed(
                &mut engine,
                &inputs.sweep_evaluators,
                &inputs.targets,
                SWEEP_WORKERS,
            )
        });
        sweep_call_us.push(secs * 1e6);
        sweep_wall_us.push(outcome.wall_ms * 1e3);
        sweep_sum = outcome
            .values
            .iter()
            .fold(sweep_sum, |a, v| a.wrapping_add(bits(v)));
        if i > 0 {
            tasks.push((outcome.task_us, outcome.stolen));
        }
    }

    // gate: sampled final-state sweeps, live owner shard against the
    // pure epoch view, bitwise
    let epochs = engine.publish_all();
    let (mut live_sum, mut epoch_sum, mut mismatched) = (0u64, 0u64, 0u64);
    let (mut gate_cold_us, mut gate_warm_us, mut gate_epoch_us) =
        (Vec::new(), Vec::new(), Vec::new());
    for &e in &inputs.gate_evaluators {
        let (live, cold) = t.timed("core.shard.query_cold", || {
            engine.reputations_from(e, &inputs.targets)
        });
        let (_, warm) = t.timed("core.shard.query_warm", || {
            black_box(engine.reputations_from(e, &inputs.targets));
        });
        let view = &epochs[engine.shard_of(e)];
        let (pure, epoch) = t.timed("core.shard.epoch_query", || {
            view.reputations_from(e, &inputs.targets)
        });
        live_sum = live_sum.wrapping_add(bits(&live));
        epoch_sum = epoch_sum.wrapping_add(bits(&pure));
        mismatched += u64::from(
            live.iter()
                .zip(&pure)
                .any(|(a, b)| a.to_bits() != b.to_bits()),
        );
        gate_cold_us.push(cold * 1e6);
        gate_warm_us.push(warm * 1e6);
        gate_epoch_us.push(epoch * 1e6);
    }
    if ctx.fault == Some(Fault::ShardChecksum) {
        epoch_sum ^= 1;
    }
    if live_sum != epoch_sum {
        return Err(format!(
            "live shard checksum {live_sum:#018x} differs from the epoch views' {epoch_sum:#018x}"
        ));
    }
    let shape = ctx.traced.then(|| {
        let stats = engine.stats();
        (
            stats.replica_edges as f64 / stats.authoritative_edges.max(1) as f64,
            stats.locality,
        )
    });
    // the engine and the inputs are freed inside the repetition, so the
    // next pass starts from the same memory state and the peak stays
    // one engine
    let bulk_records = inputs.bulk.len();
    drop((epochs, engine, inputs));
    ctx.tracer.close();
    Ok(Pass {
        setup_s,
        outer_s: started.elapsed().as_secs_f64(),
        bulk_records,
        bulk_us,
        write_us,
        query_us,
        publish_us: vec![publish_s * 1e6],
        sweep_call_us,
        sweep_wall_us,
        gate_cold_us,
        gate_warm_us,
        gate_epoch_us,
        tasks,
        shape,
        exact: Exact {
            live_sum,
            sweep_sum,
            mismatched,
        },
    })
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Result<Report, String> {
    let size = if ctx.smoke { &SMOKE } else { &FULL };
    let seed = ctx.seed;
    monolith_gate(seed)?;
    let Reps {
        timed: passes,
        best,
        trace_overhead_pct: _,
    } = repeat(ctx, PLAN, |ctx| one_pass(ctx, seed, size))?;
    // the groups of `Pass::calls_us`, burst-free
    let [bulk_us, write_us, query_us, publish_us, sweep_call_us, sweep_wall_us, gate_cold_us, gate_warm_us, gate_epoch_us]: [Vec<f64>; 9] =
        best.try_into().expect("nine call groups");
    let sum_s = |us: &[f64]| us.iter().sum::<f64>() / 1e6;
    let wall_s = sum_s(&bulk_us)
        + sum_s(&write_us)
        + sum_s(&query_us)
        + sum_s(&publish_us)
        + sum_s(&sweep_call_us);
    let sweep_evaluators = size.sweep_evaluators.min(size.peers as usize) as f64;
    // a warm sweep is ~17 ms on two threads: the fastest of the four is
    // the one the scheduler left alone
    let fastest_warm_us = sweep_wall_us[1..]
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let evaluators_per_s = sweep_evaluators / (fastest_warm_us / 1e6);
    // query latency per block: the median of the blocks' medians and
    // of their tails
    let per_block = size.rounds * size.queries_per_round;
    let block_latency = |force_p: Option<f64>| {
        let lat: Vec<Latency> = query_us
            .chunks(per_block)
            .map(|us| latency(us, force_p))
            .collect();
        Latency {
            p50: median(&lat.iter().map(|l| l.p50).collect::<Vec<_>>()),
            tail: median(&lat.iter().map(|l| l.tail).collect::<Vec<_>>()),
            ..lat[0]
        }
    };

    let n = passes.len();
    let exact = &passes[0].exact;
    let mut report = Report::new(
        size.gate_samples as u64 * n as u64,
        exact.mismatched * n as u64,
        n,
    );
    // a set-up first-touches ~100 MB, which the kernel's page-fault path
    // makes the noisiest 80 ms of the run: a dozen more than one a pass
    let mut setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    top_up_setups(ctx, &mut setups, 15, "shard_1m.setup", || {
        Ok((generate(seed, size), new_engine(size)))
    })?;
    // work is bulk ingest: 8 000 half-millisecond batches make it the
    // steadiest throughput of the three phases (a 17 ms two-thread
    // sweep read 2x apart between runs on this 2-vCPU host)
    let bulk_records = passes[0].bulk_records;
    let records_per_s = bulk_records as f64 / sum_s(&bulk_us);
    set_end_to_end(
        &mut report,
        &setups,
        wall_s,
        (
            records_per_s,
            &format!("{bulk_records} records ingested in the bulk phase"),
        ),
        (
            block_latency(None),
            "one reputations_from in the mixed phase, per block",
        ),
    );
    if !ctx.traced {
        return Ok(report);
    }

    let query = block_latency(Some(0.99));
    report.set("records_per_s", records_per_s, bulk_us.len());
    report.set("query_p50_us", query.p50, per_block);
    report.set("query_p99_us", query.tail, per_block);
    report.set("evaluators_per_s", evaluators_per_s, size.sweeps - 1);
    report.set(
        "core.shard.add_transfer_bulk_ns",
        median(&bulk_us) * 1e3 / BULK_BATCH as f64,
        bulk_us.len(),
    );
    report.set(
        "core.shard.add_transfer_mixed_ns",
        median(&write_us) * 1e3 / WRITE_BATCH.min(size.writes_per_round) as f64,
        write_us.len(),
    );
    report.set("core.shard.publish_all_ms", publish_us[0] / 1e3, n);
    let last = passes.last().expect("at least one pass");
    let k = size.gate_samples;
    report.set("core.shard.epoch_query_us", median(&gate_epoch_us), k);
    report.set("core.shard.query_cold_us", median(&gate_cold_us), k);
    report.set("core.shard.query_warm_us", median(&gate_warm_us), k);
    if let Some((replica_ratio, locality)) = last.shape {
        report.set("core.shard.replica_ratio", replica_ratio, 1);
        report.set("core.shard.locality", locality, 1);
    }

    report.set("sim.sweep.wall_cold_ms", sweep_wall_us[0] / 1e3, n);
    report.set(
        "sim.sweep.wall_warm_ms",
        median(&sweep_wall_us[1..]) / 1e3,
        size.sweeps - 1,
    );
    let task_us: Vec<f64> = last
        .tasks
        .iter()
        .flat_map(|(tasks, _)| tasks.iter().map(|t| t.1))
        .collect();
    let tasks = latency(&task_us, Some(0.99));
    report.set("sim.sweep.task_p50_us", tasks.p50, tasks.n);
    report.set("sim.sweep.task_p99_us", tasks.tail, tasks.n);
    report.set(
        "sim.sweep.stolen",
        median(
            &last
                .tasks
                .iter()
                .map(|(_, s)| *s as f64)
                .collect::<Vec<_>>(),
        ),
        last.tasks.len(),
    );
    let mut shard_busy = [0.0f64; SHARDS];
    for &(shard, us) in last.tasks.iter().flat_map(|(tasks, _)| tasks) {
        shard_busy[shard] += us;
    }
    let mean_busy = shard_busy.iter().sum::<f64>() / SHARDS as f64;
    report.set(
        "sim.sweep.shard_imbalance",
        shard_busy.iter().fold(0.0f64, |a, &b| a.max(b)) / mean_busy.max(1e-9),
        SHARDS,
    );
    // a traced run has a single traced pass, whose units the recorder
    // does not lengthen (a span is kept after its call is timed): the
    // tracing is priced from a calibrated per-span cost
    let span_s = span_cost_ns() * ctx.tracer.spans().len() as f64 / 1e9;
    let outer_s = last.outer_s;
    report.set(
        "trace_overhead_pct",
        overhead_pct(outer_s, (outer_s - span_s).max(1e-9)),
        1,
    );
    Ok(report)
}
