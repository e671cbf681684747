//! Determinism regression: the 8-node lossy cluster, run twice in
//! lockstep on virtual time, must produce **bitwise-identical** results
//! — every per-node counter and every converged edge list.
//!
//! This pins the whole chain the reactor refactor had to keep intact:
//! per-connection RNG streams split by direction and seeded from
//! per-pair ordinals (poll-order independence in `MemTransport`),
//! sorted-token pump order in the reactor, virtual-clock-driven timer
//! and delay schedules, and Vec-backed peer sampling. Any regression
//! that lets wall-clock time, map iteration order, or poll cadence leak
//! into behaviour shows up here as a diff between the two runs.

use bartercast_core::PrivateHistory;
use bartercast_node::clock::VirtualClock;
use bartercast_node::cluster::{ClusterConfig, DeterministicCluster};
use bartercast_node::mem::{MemConfig, MemTransport};
use bartercast_node::reactor::Reactor;
use bartercast_node::stats::NodeStats;
use bartercast_node::NodeConfig;
use bartercast_util::units::{Bytes, PeerId, Seconds};
use std::rc::Rc;
use std::time::Duration;

fn lossy_config() -> ClusterConfig {
    let mut config = ClusterConfig {
        mem: MemConfig {
            loss: 0.05,
            seed: 0xBC00,
            ..MemConfig::default()
        },
        ..ClusterConfig::default()
    };
    config.node.seed = 0xBC00;
    config
}

/// One full deterministic run: boot, force-disconnect every node once
/// at a fixed virtual instant, then drive to convergence.
#[allow(clippy::type_complexity)]
fn run_once() -> (Vec<NodeStats>, Vec<Vec<(PeerId, PeerId, Bytes)>>, Duration) {
    let mut cluster = DeterministicCluster::boot(lossy_config()).expect("boot");
    let mut disconnected = false;
    let max_virtual = Duration::from_secs(60);
    while cluster.elapsed() < max_virtual {
        // one forced disconnect per node, injected at the same virtual
        // instant in every run
        if !disconnected && cluster.elapsed() >= Duration::from_millis(200) {
            for i in 0..8u32 {
                cluster.force_disconnect(PeerId(i));
            }
            disconnected = true;
        }
        if disconnected && cluster.converged() {
            break;
        }
        if !cluster.step() {
            break;
        }
    }
    assert!(
        disconnected && cluster.converged(),
        "run did not converge after {:?} virtual: progress={:?}",
        cluster.elapsed(),
        cluster.progress()
    );
    (cluster.stats(), cluster.edges(), cluster.elapsed())
}

#[test]
fn lossy_cluster_is_bitwise_reproducible() {
    let (stats_a, edges_a, elapsed_a) = run_once();
    let (stats_b, edges_b, elapsed_b) = run_once();
    assert_eq!(
        elapsed_a, elapsed_b,
        "the two runs must converge at the same virtual instant"
    );
    for (i, (a, b)) in stats_a.iter().zip(&stats_b).enumerate() {
        assert_eq!(a, b, "node {i} counters diverged between runs");
    }
    assert_eq!(edges_a, edges_b, "converged graphs diverged between runs");
    // and the converged graphs actually agree across nodes
    for window in edges_a.windows(2) {
        assert_eq!(window[0], window[1], "nodes converged to different sets");
    }
}

/// The delta sync path under loss: an 8-node cluster running a tight
/// full-sync fallback cadence over a lossier transport must still reach
/// bit-identical convergence across two runs — dropped `Digest` and
/// `Delta` frames are repaired by the periodic full push, and every
/// repair decision (backoff streaks, frontier caches, fallback ticks)
/// is a pure function of the seeds.
#[test]
fn lossy_delta_sync_is_bitwise_reproducible() {
    fn delta_config() -> ClusterConfig {
        let mut config = ClusterConfig {
            mem: MemConfig {
                loss: 0.15,
                seed: 0xBC0D,
                ..MemConfig::default()
            },
            ..ClusterConfig::default()
        };
        config.node.seed = 0xBC0D;
        // tight fallback so full syncs actually fire within the horizon
        config.node.full_sync_every = 4;
        config
    }

    type EdgeSets = Vec<Vec<(PeerId, PeerId, Bytes)>>;
    fn run() -> (Vec<NodeStats>, EdgeSets, u64, Duration) {
        let mut cluster = DeterministicCluster::boot(delta_config()).expect("boot");
        assert!(
            cluster.run_until_converged(Duration::from_secs(60)),
            "no convergence after {:?} virtual: progress={:?}",
            cluster.elapsed(),
            cluster.progress()
        );
        let dropped = cluster.transport().frames_dropped();
        (cluster.stats(), cluster.edges(), dropped, cluster.elapsed())
    }

    let (stats_a, edges_a, dropped_a, elapsed_a) = run();
    let (stats_b, edges_b, dropped_b, elapsed_b) = run();
    assert_eq!(elapsed_a, elapsed_b, "runs converged at different instants");
    assert_eq!(dropped_a, dropped_b, "loss schedules diverged");
    for (i, (a, b)) in stats_a.iter().zip(&stats_b).enumerate() {
        assert_eq!(a, b, "node {i} counters diverged between runs");
    }
    assert_eq!(edges_a, edges_b, "converged graphs diverged between runs");
    for window in edges_a.windows(2) {
        assert_eq!(window[0], window[1], "nodes converged to different sets");
    }
    // the run must actually have exercised the delta machinery AND the
    // loss injection — otherwise this pins nothing
    let totals = |f: fn(&NodeStats) -> u64| stats_a.iter().map(f).sum::<u64>();
    assert!(dropped_a > 0, "no frames dropped; raise the loss rate");
    assert!(totals(|s| s.digests_sent) > 0, "no digests sent");
    assert!(totals(|s| s.deltas_sent) > 0, "no deltas sent");
    assert!(
        totals(|s| s.full_syncs) > 0,
        "fallback full sync never fired"
    );
    assert!(
        totals(|s| s.records_suppressed) > 0,
        "digest rounds never suppressed anything"
    );
}

/// Per-instant settling must be independent of *how* the reactors are
/// pumped: reversing the pump order, throwing in redundant polls, and
/// skipping every poll `Reactor::has_work` calls idle (what `Lockstep`
/// does) must leave every counter identical once the same virtual
/// horizon is reached. This is the poll-order-independence property
/// the split send/receive RNG streams in `MemTransport` exist for; the
/// poll-everything loop the others are compared against lives here.
#[test]
fn pump_order_and_redundant_polls_change_nothing() {
    fn history_with_upload(owner: u32, peer: u32, mb: u64) -> PrivateHistory {
        let mut h = PrivateHistory::new(PeerId(owner));
        h.record_upload(PeerId(peer), Bytes::from_mb(mb), Seconds(1));
        h
    }

    fn drive(pump_b_first: bool, extra_polls: usize, skip_idle: bool) -> (NodeStats, NodeStats) {
        let clock = Rc::new(VirtualClock::new());
        let transport = MemTransport::with_clock(
            MemConfig {
                loss: 0.10,
                seed: 7,
                ..MemConfig::default()
            },
            Rc::clone(&clock),
        );
        let config = |seed| NodeConfig {
            exchange_interval: Duration::from_millis(20),
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(200),
            seed,
            ..NodeConfig::default()
        };
        let mut a = Reactor::new(
            PeerId(0),
            &transport,
            vec![PeerId(1)],
            history_with_upload(0, 1, 64),
            config(1),
        );
        let mut b = Reactor::new(
            PeerId(1),
            &transport,
            vec![PeerId(0)],
            history_with_upload(1, 2, 32),
            config(2),
        );

        // a poll, unless skipping is on and the reactor reports no work
        let poll = |r: &mut Reactor| (!skip_idle || r.has_work()) && r.poll_once();
        let horizon = Duration::from_millis(500);
        while clock.elapsed() < horizon {
            // settle everything available at this virtual instant,
            // under the requested perturbation
            loop {
                // the branches differ only in evaluation ORDER of the
                // two side-effecting polls — which is the perturbation
                // under test, invisible to clippy's structural equality
                #[allow(clippy::if_same_then_else)]
                let mut progress = if pump_b_first {
                    poll(&mut b) | poll(&mut a)
                } else {
                    poll(&mut a) | poll(&mut b)
                };
                for _ in 0..extra_polls {
                    progress |= poll(&mut a);
                    progress |= poll(&mut b);
                }
                if !progress {
                    break;
                }
            }
            let Some(next) = [a.next_wake(), b.next_wake()].into_iter().flatten().min() else {
                break;
            };
            let now = clock.now();
            clock.advance_to(next.max(now + Duration::from_micros(1)));
        }
        (*a.stats(), *b.stats())
    }

    let baseline = drive(false, 0, false);
    assert_eq!(
        baseline,
        drive(true, 0, false),
        "pump order must not affect the schedule"
    );
    assert_eq!(
        baseline,
        drive(false, 3, false),
        "redundant polls must not affect the schedule"
    );
    assert_eq!(
        baseline,
        drive(false, 0, true),
        "skipping polls of a reactor without work must not affect the schedule"
    );
    // sanity: the run actually did something
    assert!(baseline.0.records_sent + baseline.1.records_sent > 0);
}
