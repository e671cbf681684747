//! The node handle: one running BarterCast peer.
//!
//! A [`Node`] owns its private history and subjective
//! [`ReputationEngine`](bartercast_core::repcache::ReputationEngine)
//! behind a single [`Reactor`] thread. Where
//! the previous runtime spent a thread per live connection (plus an
//! acceptor and a core loop), the reactor multiplexes *every* session
//! of this node — accepts, handshakes, exchanges, timeouts, dial
//! retries — through one readiness-polled loop, so a node's thread
//! count is 1 regardless of fan-out.
//!
//! The handle itself only holds the shared pieces the outside world
//! needs: the counters (for [`Node::stats`]), the node state (for
//! [`Node::subjective_edges`]), the shutdown
//! flag, and the reactor's wake queue so [`Node::shutdown`] can
//! interrupt a parked reactor immediately instead of waiting out its
//! poll timeout.

use crate::clock::SystemClock;
use crate::reactor::Reactor;
use crate::stats::{NodeCounters, NodeStats};
use crate::transport::{Transport, WakeQueue};
use bartercast_core::PrivateHistory;
use bartercast_util::units::{Bytes, PeerId};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

pub use crate::reactor::NodeConfig;

/// One running peer. Dropping the handle without calling
/// [`Node::shutdown`] still drains gracefully; call `shutdown` to get
/// the final counter snapshot back.
pub struct Node {
    id: PeerId,
    counters: Arc<NodeCounters>,
    state: Arc<Mutex<bartercast_core::PeerState>>,
    shutdown: Arc<AtomicBool>,
    wake: Arc<WakeQueue>,
    reactor: Option<JoinHandle<()>>,
}

impl Node {
    /// Boot a node: bind its listener (synchronously, so the peer is
    /// dialable as soon as `spawn` returns), start the reactor thread,
    /// and begin exchanging on `config.exchange_interval`. `bootstrap`
    /// seeds the peer-sampling view.
    pub fn spawn(
        id: PeerId,
        transport: Arc<dyn Transport>,
        bootstrap: Vec<PeerId>,
        history: PrivateHistory,
        config: NodeConfig,
    ) -> io::Result<Node> {
        let mut reactor = Reactor::new(
            id,
            transport,
            bootstrap,
            history,
            config,
            Arc::new(SystemClock),
        )?;
        let counters = reactor.counters();
        let state = reactor.state();
        let wake = reactor.wake_handle();
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name(format!("node-{}", id.0))
                .spawn(move || reactor.run(&shutdown))
                .expect("spawn reactor")
        };
        Ok(Node {
            id,
            counters,
            state,
            shutdown,
            wake,
            reactor: Some(thread),
        })
    }

    /// This node's peer id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// Snapshot of the operational counters.
    pub fn stats(&self) -> NodeStats {
        self.counters.snapshot()
    }

    /// The node's subjective contribution graph as a sorted edge list
    /// `(from, to, bytes)` — the convergence check compares these
    /// across nodes.
    pub fn subjective_edges(&self) -> Vec<(PeerId, PeerId, Bytes)> {
        self.state.lock().expect("state lock").subjective_edges()
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.wake.kick(); // interrupt a parked reactor immediately
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }

    /// Stop gracefully: drain and `Bye` every session, join the reactor
    /// thread, and return the final counter snapshot.
    pub fn shutdown(mut self) -> NodeStats {
        self.stop();
        self.counters.snapshot()
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{MemConfig, MemTransport};
    use bartercast_util::units::Seconds;
    use std::time::{Duration, Instant};

    fn fast_config(seed: u64) -> NodeConfig {
        NodeConfig {
            exchange_interval: Duration::from_millis(20),
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(200),
            seed,
            ..NodeConfig::default()
        }
    }

    fn history_with_upload(owner: u32, peer: u32, mb: u64) -> PrivateHistory {
        let mut h = PrivateHistory::new(PeerId(owner));
        h.record_upload(PeerId(peer), Bytes::from_mb(mb), Seconds(1));
        h
    }

    #[test]
    fn two_nodes_converge_to_each_others_records() {
        let transport = Arc::new(MemTransport::new(MemConfig::default()));
        let a = Node::spawn(
            PeerId(0),
            Arc::clone(&transport) as Arc<dyn Transport>,
            vec![PeerId(1)],
            history_with_upload(0, 1, 64),
            fast_config(1),
        )
        .unwrap();
        let b = Node::spawn(
            PeerId(1),
            Arc::clone(&transport) as Arc<dyn Transport>,
            vec![PeerId(0)],
            history_with_upload(1, 2, 32),
            fast_config(2),
        )
        .unwrap();

        // each node must learn the edge only the other one knew
        let deadline = Instant::now() + Duration::from_secs(10);
        let want = 2; // 0→1 (a's upload) and 1→2 (b's upload)
        loop {
            let ea = a.subjective_edges();
            let eb = b.subjective_edges();
            if ea.len() >= want && ea == eb {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "no convergence: a={ea:?} b={eb:?}, a_stats={:?}, b_stats={:?}",
                a.stats(),
                b.stats()
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        let sa = a.shutdown();
        let sb = b.shutdown();
        assert!(sa.sessions_opened + sb.sessions_opened >= 1);
        assert!(sa.records_received + sb.records_received >= 2);
        assert_eq!(sa.sessions_live, 0, "shutdown must reap every session");
        assert_eq!(sb.sessions_live, 0);
    }

    #[test]
    fn shutdown_is_prompt_and_joins_everything() {
        let transport = Arc::new(MemTransport::new(MemConfig::default()));
        let node = Node::spawn(
            PeerId(7),
            transport as Arc<dyn Transport>,
            vec![],
            history_with_upload(7, 8, 1),
            fast_config(7),
        )
        .unwrap();
        let started = Instant::now();
        let stats = node.shutdown();
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(stats.protocol_errors, 0);
    }
}
