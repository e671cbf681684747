//! The in-process cluster harness.
//!
//! [`Cluster::boot`] starts `n` full [`Node`]s on one shared
//! [`MemTransport`], seeds each with a deterministic private history
//! (node `i` uploads to its next few ring neighbors, and both parties
//! record the transfer — the paper's symmetric bookkeeping), and
//! exposes the two operations integration tests need:
//!
//! * [`Cluster::run_until_converged`] — poll until every node's
//!   subjective graph equals the gossip-reachable record set, i.e. the
//!   union of what every node's top-`Nh`/`Nr` message advertises.
//!   Because merges are max-merges, that target is independent of
//!   message order, loss, and timing — convergence is bit-identical
//!   across runs by construction, which the tier-1 cluster test
//!   asserts with two seeded runs.
//! * [`Cluster::force_disconnect`] — sever every live connection of
//!   one peer through the transport kill-switch, exercising the
//!   reconnect/backoff machinery mid-run.
//!
//! The harness keeps `nh`/`nr` large enough that every node's message
//! covers its whole (small) history; with partial advertisement the
//! reachable set would still converge, but the expected value would
//! depend on recency tie-breaks rather than on the harness's simple
//! union computation.

use crate::lockstep::{Edges, Lockstep};
use crate::mem::{MemConfig, MemTransport};
use crate::node::{Node, NodeConfig};
use crate::stats::NodeStats;
use crate::transport::Transport;
use bartercast_core::message::BarterCastConfig;
use bartercast_core::{BarterCastMessage, PrivateHistory};
use bartercast_graph::ContributionGraph;
use bartercast_util::units::{Bytes, PeerId, Seconds};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Megabytes for each seed history's `i → i+1` transfer; later uplinks
/// scale it so every edge weight is distinct, which keeps the expected
/// edge set free of max-merge ties (see module docs).
const BASE_MB: u64 = 16;

/// Cluster parameters.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub n: usize,
    /// How many ring neighbors each node uploads to when seeding
    /// histories (each transfer is recorded by both parties).
    pub uplinks: usize,
    /// Transport adversity (loss, delay, fragmentation, seed).
    pub mem: MemConfig,
    /// Per-node runtime configuration; the per-node RNG seed is derived
    /// from `node.seed` and the node index.
    pub node: NodeConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        let node = NodeConfig {
            exchange_interval: Duration::from_millis(25),
            backoff_base: Duration::from_millis(20),
            backoff_max: Duration::from_millis(500),
            // cover whole histories so the converged set is the plain
            // union of everyone's records (see module docs)
            bartercast: BarterCastConfig { nh: 64, nr: 64 },
            ..NodeConfig::default()
        };
        ClusterConfig {
            n: 8,
            uplinks: 2,
            mem: MemConfig::default(),
            node,
        }
    }
}

/// Every node's boot inputs: id, full-membership bootstrap list, seed
/// history, and per-node config (RNG seed offset by the node index).
/// The reactor samples a static view, so the view is widened to hold
/// the whole membership — a bootstrap list truncated to the default
/// view leaves any cluster above `view_size + 1` nodes unconverged.
fn boot_inputs(
    config: &ClusterConfig,
    histories: Vec<PrivateHistory>,
) -> impl Iterator<Item = (PeerId, Vec<PeerId>, PrivateHistory, NodeConfig)> {
    let n = config.n;
    assert!(n >= 2);
    let mut node = config.node;
    node.pss.view_size = node.pss.view_size.max(n - 1);
    histories.into_iter().enumerate().map(move |(i, history)| {
        let bootstrap = (0..n)
            .filter(|&j| j != i)
            .map(|j| PeerId(j as u32))
            .collect();
        let node_config = NodeConfig {
            seed: node.seed.wrapping_add(i as u64),
            ..node
        };
        (PeerId(i as u32), bootstrap, history, node_config)
    })
}

/// A booted cluster.
pub struct Cluster {
    nodes: Vec<Node>,
    transport: Arc<MemTransport>,
    expected: Vec<(PeerId, PeerId, Bytes)>,
}

impl Cluster {
    /// Deterministic seed history for node `i` of `n`: it uploads to
    /// its next `uplinks` ring neighbors, and the counterpart download
    /// is recorded on the receiving side, so pairwise books agree and
    /// the max-merge union is exact. Public so callers can boot the
    /// same population over other transports.
    pub fn seed_histories(config: &ClusterConfig) -> Vec<PrivateHistory> {
        let n = config.n;
        let mut histories: Vec<PrivateHistory> = (0..n)
            .map(|i| PrivateHistory::new(PeerId(i as u32)))
            .collect();
        for i in 0..n {
            for k in 1..=config.uplinks {
                let j = (i + k) % n;
                if j == i {
                    continue;
                }
                let amount = Bytes::from_mb(BASE_MB * (i as u64 + 1) * k as u64);
                let when = Seconds((i * config.uplinks + k) as u64);
                histories[i].record_upload(PeerId(j as u32), amount, when);
                histories[j].record_download(PeerId(i as u32), amount, when);
            }
        }
        histories
    }

    /// The gossip-reachable record set: the union graph of every
    /// node's advertised message applied to an empty graph.
    pub fn expected_edges(
        histories: &[PrivateHistory],
        bartercast: BarterCastConfig,
    ) -> Vec<(PeerId, PeerId, Bytes)> {
        let mut graph = ContributionGraph::new();
        for history in histories {
            BarterCastMessage::from_history(history, bartercast).apply(&mut graph);
        }
        let mut edges: Vec<_> = graph.edges().collect();
        edges.sort_unstable();
        edges
    }

    /// Boot all nodes with full-membership bootstrap views. BarterCast
    /// messages carry only the *sender's* own transfers (no relaying),
    /// so a record is gossip-reachable exactly when its owner can
    /// eventually talk to everyone — the sampled overlay over full
    /// membership guarantees that.
    pub fn boot(config: ClusterConfig) -> io::Result<Cluster> {
        let transport = Arc::new(MemTransport::new(config.mem));
        let histories = Self::seed_histories(&config);
        let expected = Self::expected_edges(&histories, config.node.bartercast);
        let nodes = boot_inputs(&config, histories)
            .map(|(id, bootstrap, history, node_config)| {
                let transport = Arc::clone(&transport) as Arc<dyn Transport>;
                Node::spawn(id, transport, bootstrap, history, node_config)
            })
            .collect::<io::Result<Vec<Node>>>()?;
        Ok(Cluster {
            nodes,
            transport,
            expected,
        })
    }

    /// The edge set every node must converge to.
    pub fn expected(&self) -> &[(PeerId, PeerId, Bytes)] {
        &self.expected
    }

    /// The booted nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The shared transport (for loss counters).
    pub fn transport(&self) -> &MemTransport {
        &self.transport
    }

    /// Whether every node's subjective graph currently equals the
    /// expected set.
    pub fn converged(&self) -> bool {
        self.nodes
            .iter()
            .all(|node| node.subjective_edges() == self.expected)
    }

    /// Sever every live connection touching `peer`; returns how many
    /// were cut. The node's listener survives, so the cluster heals by
    /// reconnecting.
    pub fn force_disconnect(&self, peer: PeerId) -> usize {
        self.transport.disconnect(peer)
    }

    /// Poll until [`Cluster::converged`] or the deadline passes.
    /// Returns whether convergence was reached.
    pub fn run_until_converged(&self, deadline: Duration) -> bool {
        let until = Instant::now() + deadline;
        loop {
            if self.converged() {
                return true;
            }
            if Instant::now() >= until {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Diagnostic: each node's current edge count versus expected,
    /// for convergence-failure messages.
    pub fn progress(&self) -> Vec<(PeerId, usize)> {
        self.nodes
            .iter()
            .map(|n| (n.id(), n.subjective_edges().len()))
            .collect()
    }

    /// Shut every node down gracefully, returning per-node stats in
    /// node-id order.
    pub fn shutdown(self) -> Vec<NodeStats> {
        self.nodes.into_iter().map(Node::shutdown).collect()
    }
}

/// A lockstep cluster: the same `n` reactors as [`Cluster`] on a
/// [`Lockstep`] driver — a swarm with no workload. Two runs with the
/// same config produce bitwise-identical [`NodeStats`] and converged
/// graphs, which the determinism regression test asserts.
pub struct DeterministicCluster {
    lockstep: Lockstep,
    expected: Edges,
}

impl DeterministicCluster {
    /// Boot `n` reactors with the same seed histories and
    /// full-membership bootstrap as [`Cluster::boot`]. Nothing runs
    /// until [`Self::step`] is called.
    pub fn boot(config: ClusterConfig) -> io::Result<DeterministicCluster> {
        let mut lockstep = Lockstep::new(config.mem);
        let histories = Cluster::seed_histories(&config);
        let expected = Cluster::expected_edges(&histories, config.node.bartercast);
        for (id, bootstrap, history, node_config) in boot_inputs(&config, histories) {
            lockstep.spawn(id, bootstrap, history, node_config)?;
        }
        Ok(DeterministicCluster { lockstep, expected })
    }

    /// The edge set every node must converge to.
    pub fn expected(&self) -> &[(PeerId, PeerId, Bytes)] {
        &self.expected
    }

    /// The driver underneath, for leave/join churn
    /// ([`Lockstep::retire`], [`Lockstep::spawn`]).
    pub fn lockstep_mut(&mut self) -> &mut Lockstep {
        &mut self.lockstep
    }

    /// The shared transport (for loss counters and forced disconnects).
    pub fn transport(&self) -> &MemTransport {
        self.lockstep.transport()
    }

    /// Virtual time elapsed since boot.
    pub fn elapsed(&self) -> Duration {
        self.lockstep.elapsed()
    }

    /// Sever every live connection touching `peer` (the forced-failure
    /// injection); returns how many were cut.
    pub fn force_disconnect(&self, peer: PeerId) -> usize {
        self.transport().disconnect(peer)
    }

    /// One [`Lockstep::step`].
    pub fn step(&mut self) -> bool {
        self.lockstep.step()
    }

    /// Whether every live reactor's subjective graph equals the
    /// expected set.
    pub fn converged(&self) -> bool {
        all_hold(&self.lockstep, &self.expected)
    }

    /// Step until converged or `max_virtual` simulated time has passed.
    /// Returns whether convergence was reached.
    pub fn run_until_converged(&mut self, max_virtual: Duration) -> bool {
        let expected = &self.expected;
        self.lockstep
            .run_until(|lockstep| all_hold(lockstep, expected), max_virtual)
    }

    /// Per-node counter snapshots in node-id order (live nodes plus the
    /// final snapshots of retired ones).
    pub fn stats(&self) -> Vec<NodeStats> {
        self.lockstep.stats().into_values().collect()
    }

    /// Per-node subjective edge lists in node-id order.
    pub fn edges(&self) -> Vec<Edges> {
        self.lockstep.edges().into_values().collect()
    }

    /// Diagnostic: each node's current edge count versus expected.
    pub fn progress(&self) -> Vec<(PeerId, usize)> {
        self.lockstep
            .edges()
            .into_iter()
            .map(|(id, edges)| (id, edges.len()))
            .collect()
    }
}

fn all_hold(lockstep: &Lockstep, expected: &Edges) -> bool {
    lockstep
        .reactors()
        .all(|r| r.state().lock().expect("state lock").subjective_edges() == *expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_set_is_the_pairwise_union() {
        let config = ClusterConfig {
            n: 4,
            ..ClusterConfig::default()
        };
        let histories = Cluster::seed_histories(&config);
        let edges = Cluster::expected_edges(&histories, config.node.bartercast);
        // 4 nodes × 2 uplinks, every directed upload edge distinct
        assert_eq!(edges.len(), 8);
        // pairwise bookkeeping: i's upload to j appears exactly once,
        // whether advertised by i (as up) or j (as down)
        assert!(edges
            .iter()
            .any(|&(f, t, _)| f == PeerId(0) && t == PeerId(1)));
        assert!(edges
            .iter()
            .any(|&(f, t, _)| f == PeerId(3) && t == PeerId(1)));
    }

    #[test]
    fn tiny_deterministic_cluster_converges_on_virtual_time() {
        let mut cluster = DeterministicCluster::boot(ClusterConfig {
            n: 3,
            ..ClusterConfig::default()
        })
        .unwrap();
        assert!(
            cluster.run_until_converged(Duration::from_secs(30)),
            "no convergence after {:?} virtual: progress={:?} expected={}",
            cluster.elapsed(),
            cluster.progress(),
            cluster.expected().len()
        );
        let stats = cluster.stats();
        assert!(stats.iter().all(|s| s.protocol_errors == 0));
        assert!(stats.iter().map(|s| s.records_received).sum::<u64>() > 0);
    }

    #[test]
    fn tiny_lossless_cluster_converges() {
        let cluster = Cluster::boot(ClusterConfig {
            n: 3,
            ..ClusterConfig::default()
        })
        .unwrap();
        assert!(
            cluster.run_until_converged(Duration::from_secs(20)),
            "no convergence: progress={:?} expected={}",
            cluster.progress(),
            cluster.expected().len()
        );
        let stats = cluster.shutdown();
        assert!(stats.iter().all(|s| s.protocol_errors == 0));
        assert!(stats.iter().map(|s| s.records_received).sum::<u64>() > 0);
    }
}
