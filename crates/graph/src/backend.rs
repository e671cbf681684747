//! [`FlowKernel`]: the one flow evaluator behind the reputation
//! engine, fixed by the configured [`Method`].
//!
//! * Point queries ([`FlowKernel::flow`]) evaluate one directed flow
//!   with the configured method on a shared, lazily rebuilt
//!   [`FlowNetwork`]; `Bounded(k)` with `k ≥ 3` goes through the
//!   layered-DAG kernel ([`crate::boundedk::BoundedKKernel`]) instead,
//!   so points and sweeps share its caches.
//! * Batch sweeps ([`FlowKernel::all_flows_from`]) exist for **every**
//!   finite path-length bound: direct edges for `k = 1`, the two-hop
//!   closed form ([`crate::ssat`]) for the deployed `k = 2`, the
//!   layered-DAG kernel for `k ≥ 3`. All are bit-identical to per-pair
//!   bounded evaluation. Unbounded methods have no sweep and return
//!   `None`; the caller evaluates them pair by pair.
//!
//! Per-version state (flow network, layered DAGs) is keyed by
//! [`ContributionGraph::version`], so a burst of queries against an
//! unchanged graph shares one construction and a graph mutation
//! invalidates lazily — no explicit reset calls.

use crate::boundedk::BoundedKKernel;
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
    /// The layered-DAG kernel, present exactly when `method` is
    /// `Bounded(k)` with `k ≥ 3`.
    kernel: Option<BoundedKKernel>,
}

impl FlowKernel {
    /// A kernel evaluating point queries and sweeps with `method`.
    pub fn new(method: Method) -> Self {
        let kernel = match method {
            Method::Bounded(k) if k >= 3 => Some(BoundedKKernel::new(k)),
            _ => None,
        };
        FlowKernel {
            method,
            net: VersionedNet::default(),
            kernel,
        }
    }

    /// The method this kernel evaluates with.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Directed flow `s → t`. Zero when either endpoint is absent or
    /// `s == t`.
    pub fn flow(&mut self, graph: &ContributionGraph, s: PeerId, t: PeerId) -> Bytes {
        match self.kernel.as_mut() {
            // k ≥ 3: the kernel is bit-identical to per-pair bounded
            // evaluation and shares its DAG/value caches with sweeps
            Some(kernel) => kernel.flow(graph, s, t),
            None => maxflow::compute_on(self.net.at(graph), s, t, self.method),
        }
    }

    /// Both Equation-1 flows from evaluator `i` to **every** reachable
    /// peer in one sweep, or `None` exactly when the method is
    /// unbounded (the caller then falls back to per-pair
    /// [`FlowKernel::flow`] calls). Peers absent from the returned map
    /// have zero flow in both directions.
    pub fn all_flows_from(
        &mut self,
        graph: &ContributionGraph,
        i: PeerId,
    ) -> Option<FxHashMap<PeerId, FlowPair>> {
        let (toward, away) = match self.method {
            Method::Bounded(0) => (FxHashMap::default(), FxHashMap::default()),
            Method::Bounded(1) => (
                graph.in_edges(i).collect::<FxHashMap<_, _>>(),
                graph.out_edges(i).collect::<FxHashMap<_, _>>(),
            ),
            Method::Bounded(2) => (ssat::flows_into(graph, i), ssat::flows_from(graph, i)),
            Method::Bounded(_) => {
                let kernel = self.kernel.as_mut().expect("kernel built for k >= 3");
                (kernel.flows_into(graph, i), kernel.flows_from(graph, i))
            }
            _ => return None,
        };
        let mut flows: FxHashMap<PeerId, FlowPair> = FxHashMap::default();
        for (&j, &t) in &toward {
            flows.entry(j).or_default().toward = t;
        }
        for (&j, &a) in &away {
            flows.entry(j).or_default().away = a;
        }
        Some(flows)
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
        let flows = b.all_flows_from(&g, p(0)).expect("ssat has a sweep");
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
        let flows = b.all_flows_from(&g, p(0)).unwrap();
        // only the direct 1 -> 0 edge reaches peer 0 within one hop
        assert_eq!(flows.get(&p(1)).unwrap().toward, Bytes::from_mb(200));
        assert!(!flows.contains_key(&p(2)));
        assert_eq!(b.flow(&g, p(2), p(0)), Bytes::ZERO);
    }

    #[test]
    fn ssat_serves_all_finite_bounds() {
        // regression: k ≥ 3 used to degrade silently to per-pair
        // evaluation with no sweep
        let mut g = ContributionGraph::new();
        // 3 -> 2 -> 1 -> 0 plus a shortcut 3 -> 1
        g.add_transfer(p(3), p(2), Bytes::from_mb(100));
        g.add_transfer(p(2), p(1), Bytes::from_mb(80));
        g.add_transfer(p(1), p(0), Bytes::from_mb(60));
        g.add_transfer(p(3), p(1), Bytes::from_mb(10));
        for k in [3usize, 4, 7] {
            let method = Method::Bounded(k);
            let mut b = FlowKernel::new(method);
            let flows = b.all_flows_from(&g, p(0)).expect("k >= 3 has a sweep");
            for j in [p(1), p(2), p(3)] {
                let pair = flows.get(&j).copied().unwrap_or_default();
                assert_eq!(pair.toward, maxflow::compute(&g, j, p(0), method));
                assert_eq!(pair.away, maxflow::compute(&g, p(0), j, method));
                assert_eq!(pair.toward, b.flow(&g, j, p(0)));
            }
        }
        let mut zero = FlowKernel::new(Method::Bounded(0));
        assert!(zero.all_flows_from(&g, p(0)).unwrap().is_empty());
    }

    #[test]
    fn pairwise_supports_everything_but_has_no_sweep() {
        let g = chain();
        for method in [
            Method::FordFulkerson,
            Method::EdmondsKarp,
            Method::Dinic,
            Method::PushRelabel,
        ] {
            let mut b = FlowKernel::new(method);
            assert!(b.all_flows_from(&g, p(0)).is_none(), "{method:?}");
            assert_eq!(b.flow(&g, p(2), p(0)), Bytes::from_mb(200), "{method:?}");
        }
    }
}
