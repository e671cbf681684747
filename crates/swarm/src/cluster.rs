//! The deterministic swarm harness.
//!
//! [`SwarmCluster`] spawns one reactor per [`NodeSpec`] on the node
//! crate's [`Lockstep`] driver — the same one under its record-only
//! `DeterministicCluster` — and attaches a [`SwarmWorkload`] to each.
//! All nodes attach their workloads at the same boot instant, so every
//! choke round fires at identical virtual times across the swarm.
//!
//! On top of the driver the harness keeps the specs, the ground-truth
//! ledger and the churn schedule, and drives the scenarios the trace
//! simulator cannot:
//!
//! * **churn** — scheduled [`SwarmEvent`]s remove or add nodes at
//!   fixed virtual instants, severing their transport connections;
//! * **whitewashing** — a leave paired with a join under a fresh
//!   identity and an empty history, the §5.3 attack on grace-based
//!   admission;
//! * **connectability limits** — a non-connectable node appears in no
//!   one's bootstrap list, so all its sessions are outbound (it can
//!   dial, nobody dials it), the paper's firewalled-peer asymmetry;
//! * **session caps** — per-node `max_sessions` overrides exercise the
//!   reactor's shed path under swarm load;
//! * **loss** — the `MemConfig` loss/delay adversity applies to piece
//!   frames and gossip alike.
//!
//! Everything is a pure function of the seeds: two runs of the same
//! config produce bitwise-identical ledgers, per-node stats, and
//! subjective graphs. The driver keeps departed nodes' final counters
//! and state (stats, edges, history provenance), so post-run
//! assertions cover them too.

use crate::config::{PeerBehaviour, SwarmParams};
use crate::ledger::SwarmLedger;
use crate::report::{SwarmReport, SwarmRow};
use crate::workload::SwarmWorkload;
use bartercast_bt::Contention;
use bartercast_core::PrivateHistory;
use bartercast_node::lockstep::{Edges, Lockstep};
use bartercast_node::mem::{MemConfig, MemTransport};
use bartercast_node::stats::NodeStats;
use bartercast_node::NodeConfig;
use bartercast_util::units::PeerId;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::rc::Rc;
use std::time::Duration;

/// One node of the swarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSpec {
    /// Peer identity (must be unique for the whole run, including
    /// departed and whitewashed nodes).
    pub id: PeerId,
    /// Behaviour class.
    pub behaviour: PeerBehaviour,
    /// Starts with the complete content.
    pub seed_initial: bool,
    /// Whether other peers may dial this node. Non-connectable nodes
    /// appear in nobody's bootstrap list; all their sessions are
    /// outbound.
    pub connectable: bool,
    /// Per-node session cap override (reactor sheds beyond it).
    pub max_sessions: Option<usize>,
}

impl NodeSpec {
    /// A connectable, uncapped node.
    pub fn new(id: u32, behaviour: PeerBehaviour, seed_initial: bool) -> Self {
        NodeSpec {
            id: PeerId(id),
            behaviour,
            seed_initial,
            connectable: true,
            max_sessions: None,
        }
    }
}

/// What a scheduled event does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwarmEventKind {
    /// The node departs: connections severed, reactor torn down.
    Leave(PeerId),
    /// A new node boots and joins the swarm.
    Join(NodeSpec),
    /// Whitewash: `old` leaves and immediately rejoins as `fresh` —
    /// same behaviour, fresh identity, empty history.
    Whitewash {
        /// The departing identity.
        old: PeerId,
        /// The replacement identity (must be unused).
        fresh: PeerId,
    },
}

/// A churn event at a fixed virtual instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwarmEvent {
    /// Virtual time since boot from which the event is due; it fires
    /// at the first step boundary at or after this.
    pub at: Duration,
    /// What happens.
    pub kind: SwarmEventKind,
}

/// Full configuration of one swarm run.
#[derive(Debug, Clone)]
pub struct SwarmClusterConfig {
    /// Initial membership.
    pub nodes: Vec<NodeSpec>,
    /// Shared workload tuning (per-node `behaviour`/`seed_initial`
    /// are taken from each [`NodeSpec`]).
    pub params: SwarmParams,
    /// Transport adversity (loss, delay, fragmentation, seed).
    pub mem: MemConfig,
    /// Per-node runtime configuration; the per-node RNG seed derives
    /// from `node.seed` and the node id.
    pub node: NodeConfig,
    /// Virtual time between choke rounds (same on every node).
    pub choke_interval: Duration,
    /// Scheduled churn, sorted by `at` (boot sorts it if not).
    pub events: Vec<SwarmEvent>,
}

impl Default for SwarmClusterConfig {
    fn default() -> Self {
        SwarmClusterConfig {
            nodes: Vec::new(),
            params: SwarmParams::default(),
            mem: MemConfig::default(),
            node: NodeConfig {
                // gossip must outpace choke rounds so reputations are
                // live by the time policies consult them
                exchange_interval: Duration::from_millis(500),
                backoff_base: Duration::from_millis(50),
                backoff_max: Duration::from_secs(2),
                outbound_queue: 64,
                // push the full slice on every tick: choke decisions
                // consult reputations live, and the policy-ladder
                // dynamics are calibrated to push-cadence propagation —
                // digest round-trips would add a tick of latency right
                // where Fig 2–3 measures
                full_sync_every: 1,
                ..NodeConfig::default()
            },
            choke_interval: Duration::from_secs(2),
            events: Vec::new(),
        }
    }
}

/// A booted lockstep swarm.
pub struct SwarmCluster {
    lockstep: Lockstep,
    specs: BTreeMap<PeerId, NodeSpec>,
    /// Every spec ever booted, including departed and whitewashed
    /// identities (for the final report).
    ever: BTreeMap<PeerId, NodeSpec>,
    ledger: Rc<RefCell<SwarmLedger>>,
    events: Vec<SwarmEvent>,
    next_event: usize,
    config: SwarmClusterConfig,
}

impl SwarmCluster {
    /// Boot every initial node. Nothing runs until [`Self::step`].
    /// Booting cannot fail; the `io::Result` is the signature the
    /// benchmark crate builds against.
    pub fn boot(mut config: SwarmClusterConfig) -> io::Result<SwarmCluster> {
        assert!(config.nodes.len() >= 2, "a swarm needs at least two nodes");
        config.params.validate();
        let mut ids: Vec<PeerId> = config.nodes.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), config.nodes.len(), "duplicate node ids");
        config.events.sort_by_key(|e| e.at);
        let mut cluster = SwarmCluster {
            lockstep: Lockstep::new(config.mem),
            specs: BTreeMap::new(),
            ever: BTreeMap::new(),
            ledger: Rc::default(),
            events: std::mem::take(&mut config.events),
            next_event: 0,
            config,
        };
        for spec in cluster.config.nodes.clone() {
            cluster.boot_node(spec);
        }
        Ok(cluster)
    }

    /// Peers a new node may dial: every *connectable* current member
    /// except itself. Non-connectable members are left out, so nobody
    /// ever dials them.
    fn dialable_peers(&self, me: PeerId) -> Vec<PeerId> {
        self.specs
            .values()
            .filter(|s| s.connectable && s.id != me)
            .map(|s| s.id)
            .collect()
    }

    fn boot_node(&mut self, spec: NodeSpec) {
        assert!(
            !self.ever.contains_key(&spec.id),
            "node id {} reused",
            spec.id
        );
        let bootstrap = self.dialable_peers(spec.id);
        let node_config = NodeConfig {
            seed: self.config.node.seed.wrapping_add(spec.id.0 as u64),
            max_sessions: spec.max_sessions.unwrap_or(self.config.node.max_sessions),
            ..self.config.node
        };
        let params = SwarmParams {
            behaviour: spec.behaviour,
            seed_initial: spec.seed_initial,
            ..self.config.params
        };
        let workload =
            SwarmWorkload::new(spec.id, params, bootstrap.clone(), Rc::clone(&self.ledger));
        self.lockstep
            .spawn(
                spec.id,
                bootstrap,
                PrivateHistory::new(spec.id),
                node_config,
            )
            .attach_workload(Box::new(workload), self.config.choke_interval);
        self.specs.insert(spec.id, spec);
        self.ever.insert(spec.id, spec);
    }

    fn remove_node(&mut self, id: PeerId) {
        self.lockstep.retire(id);
        self.specs.remove(&id);
    }

    /// Apply every scheduled event whose instant has been reached —
    /// what [`Self::run_until`] does at each step boundary, for callers
    /// that step the driver themselves.
    pub fn apply_due_events(&mut self) {
        while self.next_event < self.events.len()
            && self.events[self.next_event].at <= self.lockstep.elapsed()
        {
            let event = self.events[self.next_event];
            self.next_event += 1;
            match event.kind {
                SwarmEventKind::Leave(id) => self.remove_node(id),
                SwarmEventKind::Join(spec) => self.boot_node(spec),
                SwarmEventKind::Whitewash { old, fresh } => {
                    let behaviour = self
                        .specs
                        .get(&old)
                        .map(|s| s.behaviour)
                        .unwrap_or(PeerBehaviour::Freerider);
                    self.remove_node(old);
                    self.boot_node(NodeSpec {
                        id: fresh,
                        behaviour,
                        seed_initial: false,
                        connectable: true,
                        max_sessions: None,
                    });
                }
            }
        }
    }

    /// One [`Lockstep::step`]. Churn events are applied by
    /// [`Self::run_until`], not here.
    pub fn step(&mut self) -> bool {
        self.lockstep.step()
    }

    /// Step until `done` returns true or `max_virtual` elapses,
    /// applying each churn event at the first step boundary at or after
    /// its instant (the clock only ever stops at reactor wakes). Returns
    /// whether `done` was reached.
    pub fn run_until<F>(&mut self, mut done: F, max_virtual: Duration) -> bool
    where
        F: FnMut(&SwarmCluster) -> bool,
    {
        loop {
            self.apply_due_events();
            if done(self) {
                return true;
            }
            if self.elapsed() >= max_virtual {
                return false;
            }
            if !self.step() {
                return done(self);
            }
        }
    }

    /// Run until every cooperator (including initial seeders) holds
    /// the complete content, or `max_virtual` elapses.
    pub fn run_until_cooperators_complete(&mut self, max_virtual: Duration) -> bool {
        let piece_count = self.config.params.piece_count as u64;
        self.run_until(
            |c| {
                let ledger = c.ledger.borrow();
                c.specs.values().all(|s| {
                    s.behaviour != PeerBehaviour::Cooperator
                        || s.seed_initial
                        || ledger.progress_of(s.id).pieces >= piece_count
                })
            },
            max_virtual,
        )
    }

    /// Virtual time elapsed since boot.
    pub fn elapsed(&self) -> Duration {
        self.lockstep.elapsed()
    }

    /// The driver underneath.
    pub fn lockstep_mut(&mut self) -> &mut Lockstep {
        &mut self.lockstep
    }

    /// The shared ground-truth ledger, snapshotted.
    pub fn ledger(&self) -> SwarmLedger {
        self.ledger.borrow().clone()
    }

    /// The shared transport (loss counters).
    pub fn transport(&self) -> &MemTransport {
        self.lockstep.transport()
    }

    /// Per-node counters in id order — live nodes plus the final
    /// counters of departed ones.
    pub fn stats(&self) -> BTreeMap<PeerId, NodeStats> {
        self.lockstep.stats()
    }

    /// Per-node subjective edge lists in id order (live + departed).
    pub fn edges(&self) -> BTreeMap<PeerId, Edges> {
        self.lockstep.edges()
    }

    /// Whether every node's private history (live + departed) was fed
    /// exclusively by piece transfers — the "sole source of
    /// contribution edges" invariant.
    pub fn all_from_pieces(&self) -> bool {
        self.lockstep.all_from_pieces()
    }

    /// Per-peer outcome rows (live + departed, id order) under the
    /// run's policy label.
    pub fn report(&self) -> SwarmReport {
        let ledger = self.ledger.borrow();
        let policy = self.config.params.policy.label();
        let piece_count = self.config.params.piece_count as u64;
        let rows = self
            .ever
            .values()
            .map(|spec| {
                let p = ledger.progress_of(spec.id);
                let pieces = if spec.seed_initial {
                    piece_count
                } else {
                    p.pieces
                };
                SwarmRow {
                    peer: spec.id,
                    behaviour: spec.behaviour,
                    policy: policy.clone(),
                    pieces,
                    completeness: pieces as f64 / piece_count as f64,
                    downloaded: p.downloaded,
                    uploaded: p.uploaded,
                    completed_round: p.completed_round,
                }
            })
            .collect();
        let mut contention = Contention::default();
        for counts in ledger.contention.values() {
            contention.add(counts);
        }
        SwarmReport { rows, contention }
    }
}
