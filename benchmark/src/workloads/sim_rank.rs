//! `sim_rank`: what a researcher reproducing Fig 1–3 waits for. The
//! paper's synthetic trace (100 peers, 10 swarms, 7 days) driven
//! through the trace simulator under the rank policy, one `step()` per
//! 30-second round to the horizon. It reaches `bt::swarm`,
//! `bt::choke`, the engine sweep and `gossip` without any reactor or
//! wire code.

use super::{repeat, set_end_to_end, top_up_setups, Plan, Repetition, Reps};
use crate::inputs::SplitMix;
use crate::metrics::Report;
use crate::replay;
use crate::stats::{latency, median};
use crate::Ctx;
use bartercast_bt::BtConfig;
use bartercast_core::policy::ReputationPolicy;
use bartercast_core::PrivateHistory;
use bartercast_sim::{SimConfig, Simulation};
use bartercast_trace::{SynthConfig, TraceBuilder};
use bartercast_util::units::Seconds;
use std::time::Instant;

/// Seed of the synthetic trace. The trace is the workload's data set,
/// the way the paper's one tracker log is: ten swarms whose file sizes
/// are drawn from a two-class mix, so another trace seed is another
/// amount of work (pieces moved differ by 1.5x, round cost by 2x
/// between trace seeds). `--seed` instead drives everything random the
/// simulator does with the trace.
const TRACE_SEED: u64 = 42;

/// Rounds per reported operation: one simulated hour at the default
/// 30-second round.
const ROUNDS_PER_OP: usize = 120;

/// The trace and simulator configuration for `seed`: the program's
/// defaults at full size, the experiments crate's `Scale::Quick`
/// geometry (cut from four days to eight hours) for the smoke run. Only the seeds and the policy are the
/// benchmark's; `--seed` becomes `SimConfig::seed` (who freerides, peer
/// sampling, gossip and choke tie-breaks).
fn configs(seed: u64, smoke: bool) -> (SynthConfig, u64, SimConfig) {
    let mut rng = SplitMix::new(seed, 0x51b);
    let trace_seed = TRACE_SEED;
    let base = SimConfig {
        seed: rng.next_u64(),
        policy: ReputationPolicy::Rank,
        ..SimConfig::default()
    };
    if !smoke {
        return (SynthConfig::default(), trace_seed, base);
    }
    let synth = SynthConfig {
        peers: 50,
        swarms: 5,
        horizon: Seconds::from_hours(8),
        ..SynthConfig::default()
    };
    let sim = SimConfig {
        round: Seconds(60),
        bt: BtConfig {
            regular_slots: 4,
            unchoke_period: Seconds(60),
            optimistic_period: Seconds(60),
        },
        reputation_sample_interval: Seconds::from_hours(3),
        ..base
    };
    (synth, trace_seed, sim)
}

struct Rep {
    build_s: f64,
    new_s: f64,
    outer_s: f64,
    step_us: Vec<f64>,
    exact: Exact,
}

/// The `SimReport` counters, which two repetitions of one seed must
/// agree on exactly.
#[derive(PartialEq)]
struct Exact {
    rounds: u64,
    messages_delivered: u64,
    records_suppressed: u64,
    meetings: u64,
    pieces_transferred: u64,
    speed_bits: (u64, u64),
}

impl Repetition for Rep {
    fn outer_s(&self) -> f64 {
        self.outer_s
    }
    fn same_counts(&self, other: &Self) -> bool {
        self.exact == other.exact
    }
    fn calls_us(&self) -> Vec<&[f64]> {
        vec![&self.step_us]
    }
}

/// Per-layer costs on a finished simulation's state: the Equation-2
/// sweep over every non-archival peer, and the reputation layers
/// (`core.repcache`, `graph.ssat`, `bt.choke`) on the peers' histories.
fn replay_layers(ctx: &mut Ctx, layers: &mut Report, sim: &mut Simulation, config: &SimConfig) {
    let indices: Vec<usize> = (0..sim.peers().len())
        .filter(|&i| !sim.is_archival(i))
        .collect();
    let (_, secs) = ctx.tracer.timed("sim.engine.system_reputations", || {
        std::hint::black_box(sim.system_reputations(&indices));
    });
    layers.set(
        "sim.engine.system_reputations_ms",
        secs * 1e3,
        indices.len(),
    );
    let histories: Vec<&PrivateHistory> =
        indices.iter().map(|&i| &sim.peers()[i].history).collect();
    replay::reputation(
        ctx,
        layers,
        &histories,
        config.bartercast,
        (config.bt, &config.policy),
    );
}

fn one_rep(ctx: &mut Ctx, seed: u64, layers: &mut Report) -> Result<Rep, String> {
    let started = Instant::now();
    ctx.tracer.open("sim.engine.rep");
    let (synth, trace_seed, config) = configs(seed, ctx.smoke);
    let (trace, build_s) = ctx.tracer.timed("trace.synth.build", || {
        TraceBuilder::new(synth).build(trace_seed)
    });
    let horizon = trace.horizon;
    let (mut sim, new_s) = ctx
        .tracer
        .timed("sim.engine.new", || Simulation::new(trace, config.clone()));
    let mut step_us = Vec::new();
    while sim.now() < horizon {
        let (_, secs) = ctx.tracer.timed("sim.engine.step", || sim.step());
        step_us.push(secs * 1e6);
    }
    ctx.tracer.close();
    let outer_s = started.elapsed().as_secs_f64();

    // the first traced repetition also replays the layers on its final
    // state (engine memos only: no report counter moves)
    if ctx.tracer.is_on() && layers.get("sim.engine.system_reputations_ms").is_none() {
        replay_layers(ctx, layers, &mut sim, &config);
    }
    // the horizon is reached, so `run` only assembles the report
    let report = sim.run();
    Ok(Rep {
        build_s,
        new_s,
        outer_s,
        exact: Exact {
            rounds: step_us.len() as u64,
            messages_delivered: report.messages_delivered,
            records_suppressed: report.records_suppressed,
            meetings: report.meetings,
            pieces_transferred: report.pieces_transferred,
            speed_bits: (
                report.overall_speed_sharers.to_bits(),
                report.overall_speed_freeriders.to_bits(),
            ),
        },
        step_us,
    })
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Result<Report, String> {
    let seed = ctx.seed;
    let mut report = Report::default();
    let plan = Plan {
        warm_up: true,
        min: 3,
        max: 12,
    };
    let Reps {
        timed: reps,
        best,
        trace_overhead_pct,
    } = repeat(ctx, plan, |ctx| one_rep(ctx, seed, &mut report))?;
    let best = best.into_iter().next().expect("one call group");
    let wall_s = best.iter().sum::<f64>() / 1e6;
    let exact = &reps[0].exact;
    let n = reps.len();
    // one op per simulated round; a round cannot fail short of a panic
    report.attempted = exact.rounds * n as u64;
    report.reps = n;
    let rounds_per_s = exact.rounds as f64 / wall_s;

    // every repetition builds its own trace and simulation; a few
    // more builds make nine set-up samples
    let mut setups: Vec<f64> = reps.iter().map(|r| r.build_s + r.new_s).collect();
    let smoke = ctx.smoke;
    top_up_setups(ctx, &mut setups, 9, "sim_rank.setup", || {
        let (synth, trace_seed, config) = configs(seed, smoke);
        Ok(Simulation::new(
            TraceBuilder::new(synth).build(trace_seed),
            config,
        ))
    })?;
    // a round's cost is bimodal (idle rounds against rounds with
    // transfers and choking), which leaves the median round on a
    // cliff; an hour of rounds is what the operation is
    let hours: Vec<f64> = best.chunks(ROUNDS_PER_OP).map(|h| h.iter().sum()).collect();
    set_end_to_end(
        &mut report,
        &setups,
        wall_s,
        (rounds_per_s, &format!("{} simulated rounds", exact.rounds)),
        (
            latency(&hours, None),
            "one simulated hour (120 calls of Simulation::step)",
        ),
    );
    if !ctx.traced {
        return Ok(report);
    }

    let lat = latency(&best, Some(0.99));
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    report.set("rounds_per_s", rounds_per_s, n);
    report.set("pieces_per_s", exact.pieces_transferred as f64 / wall_s, n);
    report.set("sim.engine.new_ms", med(&|r| r.new_s * 1e3), n);
    report.set("trace.synth.build_ms", med(&|r| r.build_s * 1e3), n);
    report.set("sim.engine.steps", exact.rounds as f64, 1);
    report.set("sim.engine.step_p50_us", lat.p50, lat.n);
    report.set("sim.engine.step_p99_us", lat.tail, lat.n);
    let count = |v: u64| v as f64;
    report.set(
        "sim.report.messages_delivered",
        count(exact.messages_delivered),
        1,
    );
    report.set(
        "sim.report.records_suppressed",
        count(exact.records_suppressed),
        1,
    );
    report.set(
        "sim.report.pieces_transferred",
        count(exact.pieces_transferred),
        1,
    );
    report.set("sim.report.meetings", count(exact.meetings), 1);
    report.set("trace_overhead_pct", trace_overhead_pct, n);
    Ok(report)
}
