//! [`FlowKernel`]: the one flow evaluator behind the reputation
//! engine, fixed by the configured [`Method`].
//!
//! * Point queries ([`FlowKernel::flow`]) evaluate one directed flow
//!   with the configured method on a shared, lazily rebuilt
//!   [`FlowNetwork`].
//! * Batch sweeps ([`FlowKernel::all_flows_from`]) exist for the path
//!   bounds whose flows have a closed form, `k ≤ 2`: direct edges for
//!   `k = 1`, the two-hop sum for the deployed `k = 2`, both in the one
//!   pass [`crate::ssat::sweep_into`] (the shard epoch views call it
//!   too), bit-identical to per-pair bounded evaluation. Every other
//!   method — `Bounded(k)` with `k ≥ 3` and `Dinic` — has no sweep and
//!   returns `false`; the caller evaluates it pair by pair.
//!
//! The flow network is keyed by [`ContributionGraph::version`], so a
//! burst of queries against an unchanged graph shares one construction
//! and a graph mutation invalidates lazily — no explicit reset calls.

use crate::contribution::ContributionGraph;
use crate::maxflow::{self, Method};
use crate::network::FlowNetwork;
use crate::ssat;
use bartercast_util::units::{Bytes, PeerId};
use bartercast_util::FxHashMap;

/// The two directed Equation-1 flows of one `(evaluator, target)`
/// pair, from the evaluator `i`'s point of view: `toward` is
/// `maxflow(j → i)` (service the target rendered), `away` is
/// `maxflow(i → j)` (service the target consumed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowPair {
    /// `maxflow(target → evaluator)`.
    pub toward: Bytes,
    /// `maxflow(evaluator → target)`.
    pub away: Bytes,
}

/// A lazily rebuilt [`FlowNetwork`] tagged with the graph version it
/// was built at.
#[derive(Debug, Clone, Default)]
struct VersionedNet {
    net: Option<(u64, FlowNetwork)>,
}

impl VersionedNet {
    /// The network for the graph's current version, rebuilding at most
    /// once per version.
    fn at(&mut self, graph: &ContributionGraph) -> &mut FlowNetwork {
        let version = graph.version();
        if self.net.as_ref().map(|(v, _)| *v) != Some(version) {
            self.net = Some((version, FlowNetwork::from_graph(graph)));
        }
        &mut self.net.as_mut().expect("net built above").1
    }
}

/// The reputation engine's flow evaluator for one [`Method`].
#[derive(Debug, Clone)]
pub struct FlowKernel {
    method: Method,
    net: VersionedNet,
}

impl FlowKernel {
    /// A kernel evaluating point queries and sweeps with `method`.
    pub fn new(method: Method) -> Self {
        FlowKernel {
            method,
            net: VersionedNet::default(),
        }
    }

    /// The method this kernel evaluates with.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Directed flow `s → t`. Zero when either endpoint is absent or
    /// `s == t`.
    pub fn flow(&mut self, graph: &ContributionGraph, s: PeerId, t: PeerId) -> Bytes {
        maxflow::compute_on(self.net.at(graph), s, t, self.method)
    }

    /// Both Equation-1 flows from evaluator `i` to **every** reachable
    /// peer in one sweep ([`ssat::sweep_into`]) written into `flows`,
    /// which the caller owns and may reuse: `true` when the method has
    /// a sweep, `false` (and `flows` untouched) when it has none and
    /// the caller falls back to per-pair [`FlowKernel::flow`] calls.
    /// Peers absent from `flows` have zero flow in both directions.
    pub fn all_flows_from(
        &self,
        graph: &ContributionGraph,
        i: PeerId,
        flows: &mut FxHashMap<PeerId, FlowPair>,
    ) -> bool {
        match self.method {
            Method::Bounded(k) if k <= 2 => {
                ssat::sweep_into(graph, i, k, flows);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    fn chain() -> ContributionGraph {
        // 2 -> 1 -> 0
        let mut g = ContributionGraph::new();
        g.add_transfer(p(2), p(1), Bytes::from_mb(300));
        g.add_transfer(p(1), p(0), Bytes::from_mb(200));
        g
    }

    #[test]
    fn ssat_sweep_matches_point_queries() {
        let g = chain();
        let mut b = FlowKernel::new(Method::DEPLOYED);
        let mut flows = FxHashMap::default();
        assert!(b.all_flows_from(&g, p(0), &mut flows), "ssat has a sweep");
        for j in [p(1), p(2)] {
            let pair = flows.get(&j).copied().unwrap_or_default();
            assert_eq!(pair.toward, b.flow(&g, j, p(0)), "toward {j}");
            assert_eq!(pair.away, b.flow(&g, p(0), j), "away {j}");
        }
    }

    #[test]
    fn ssat_bounded_one_reads_direct_edges() {
        let g = chain();
        let mut b = FlowKernel::new(Method::Bounded(1));
        let mut flows = FxHashMap::default();
        assert!(b.all_flows_from(&g, p(0), &mut flows));
        // only the direct 1 -> 0 edge reaches peer 0 within one hop
        assert_eq!(flows.get(&p(1)).unwrap().toward, Bytes::from_mb(200));
        assert!(!flows.contains_key(&p(2)));
        assert_eq!(b.flow(&g, p(2), p(0)), Bytes::ZERO);
    }

    #[test]
    fn pairwise_supports_everything_but_has_no_sweep() {
        let g = chain();
        for method in [Method::Dinic, Method::Bounded(3)] {
            let mut b = FlowKernel::new(method);
            let mut flows = FxHashMap::default();
            assert!(!b.all_flows_from(&g, p(0), &mut flows), "{method:?}");
            assert_eq!(b.flow(&g, p(2), p(0)), Bytes::from_mb(200), "{method:?}");
        }
    }
}
