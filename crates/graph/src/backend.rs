//! [`FlowKernel`]: the one flow evaluator behind the reputation
//! engine, fixed by the configured [`Method`].
//!
//! * Point queries ([`FlowKernel::flow`]) on the path bounds with a
//!   closed form, `k ≤ 2`, read only the two endpoints' adjacency:
//!   `c(s, t) + Σ_m min(c(s, m), c(m, t))` (the direct edge alone for
//!   `k = 1`, nothing for `k = 0`), joining `s`'s out-slots with `t`'s
//!   in-slots on dense node indices through one scratch vector the
//!   kernel reuses, in O(deg⁺ s + deg⁻ t). Every other method —
//!   `Bounded(k)` with `k ≥ 3` and `Dinic` — runs on a shared, lazily
//!   rebuilt [`FlowNetwork`], which the closed-form bounds never build.
//! * Batch sweeps exist for the same bounds, `k ≤ 2`
//!   ([`FlowKernel::sweep_bound`]): one pass [`crate::ssat::sweep_into`]
//!   yields the flows between one evaluator and every peer at once,
//!   bit-identical to per-pair bounded evaluation. Every other method
//!   has no sweep; the caller evaluates it pair by pair.
//!
//! The caller picks between the two, because only the caller knows how
//! many targets it asks for: a point query costs the two endpoints'
//! degrees, a sweep the evaluator's whole two-hop ball.
//!
//! The flow network is keyed by [`ContributionGraph::version`], so a
//! burst of queries against an unchanged graph shares one construction
//! and a graph mutation invalidates lazily — no explicit reset calls.

use crate::contribution::ContributionGraph;
use crate::maxflow::{self, Method};
use crate::network::FlowNetwork;
use bartercast_util::units::{Bytes, PeerId};

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
    /// The residual network of `Bounded(k ≥ 3)` and `Dinic`; never
    /// built for the closed-form bounds.
    net: VersionedNet,
    /// `c(s, m)` at dense index `m` during a two-hop point query, and
    /// zero everywhere outside one, so it is reused query to query.
    scratch: Vec<u64>,
}

impl FlowKernel {
    /// A kernel evaluating point queries and sweeps with `method`.
    pub fn new(method: Method) -> Self {
        FlowKernel {
            method,
            net: VersionedNet::default(),
            scratch: Vec::new(),
        }
    }

    /// The method this kernel evaluates with.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Directed flow `s → t`. Zero when either endpoint is absent or
    /// `s == t`.
    pub fn flow(&mut self, graph: &ContributionGraph, s: PeerId, t: PeerId) -> Bytes {
        match self.sweep_bound() {
            Some(k) => self.closed_form(graph, s, t, k),
            None => maxflow::compute_on(self.net.at(graph), s, t, self.method),
        }
    }

    /// The path bound `k` when the method is `Bounded(k ≤ 2)`, whose
    /// flows have a closed form and a single-source sweep
    /// ([`crate::ssat::sweep_into`]); `None` for every other method,
    /// which is evaluated pair by pair on the residual network.
    pub fn sweep_bound(&self) -> Option<usize> {
        match self.method {
            Method::Bounded(k) if k <= 2 => Some(k),
            _ => None,
        }
    }

    /// `flow(s, t)` for `hops ≤ 2`: the direct edge plus, for two hops,
    /// `min(c(s, m), c(m, t))` over every middle `m` — the out-neighbours
    /// of `s` that are in-neighbours of `t`. Neither adjacency lists a
    /// self-loop, so no middle is `s` or `t`.
    ///
    /// The two-hop join runs on dense indices: the scratch takes `c(s,
    /// m)` at each out-neighbour `m` and `u64::MAX` at `s` itself, so
    /// one `min` per in-slot of `t` yields the middle's share, the
    /// direct edge, or zero for a non-neighbour; the slots written are
    /// then zeroed again.
    fn closed_form(
        &mut self,
        graph: &ContributionGraph,
        s: PeerId,
        t: PeerId,
        hops: usize,
    ) -> Bytes {
        if hops == 0 || s == t {
            return Bytes::ZERO;
        }
        if hops == 1 {
            return graph.edge(s, t);
        }
        let (Some(s), Some(t)) = (graph.node(s), graph.node(t)) else {
            return Bytes::ZERO;
        };
        if self.scratch.len() < graph.node_count() {
            self.scratch.resize(graph.node_count(), 0);
        }
        let out = graph.out_slots(s);
        self.scratch[s as usize] = u64::MAX;
        for e in out {
            self.scratch[e.other as usize] = e.weight;
        }
        let mut flow = Bytes::ZERO;
        for e in graph.in_slots(t) {
            flow += Bytes(self.scratch[e.other as usize].min(e.weight));
        }
        self.scratch[s as usize] = 0;
        for e in out {
            self.scratch[e.other as usize] = 0;
        }
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssat;
    use bartercast_util::FxHashMap;

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
        let b = FlowKernel::new(Method::DEPLOYED);
        assert_eq!(b.sweep_bound(), Some(2), "ssat has a sweep");
        let mut flows = FxHashMap::default();
        ssat::sweep_into(&g, p(0), 2, &mut flows);
        for j in [p(1), p(2)] {
            let pair = flows.get(&j).copied().unwrap_or_default();
            let compute = |s, t| maxflow::compute(&g, s, t, Method::DEPLOYED);
            assert_eq!(pair.toward, compute(j, p(0)), "toward {j}");
            assert_eq!(pair.away, compute(p(0), j), "away {j}");
        }
    }

    /// The closed-form bounds answer point queries from the endpoints'
    /// adjacency alone: the residual network is never built, and the
    /// join's scratch is all zero again after every query.
    #[test]
    fn closed_form_point_queries_never_build_the_network() {
        let mut g = chain();
        // a direct edge beside the two-hop path, and a two-cycle
        g.add_transfer(p(2), p(0), Bytes::from_mb(7));
        g.add_transfer(p(0), p(2), Bytes::from_mb(5));
        for k in 0..=2 {
            let mut b = FlowKernel::new(Method::Bounded(k));
            for s in 0..4 {
                for t in 0..4 {
                    let want = maxflow::compute(&g, p(s), p(t), Method::Bounded(k));
                    assert_eq!(b.flow(&g, p(s), p(t)), want, "k={k}: {s} -> {t}");
                    assert!(b.scratch.iter().all(|&w| w == 0), "k={k}: {s} -> {t}");
                }
            }
            assert!(b.net.net.is_none(), "k={k} built a residual network");
        }
        let mut dinic = FlowKernel::new(Method::Dinic);
        dinic.flow(&g, p(2), p(0));
        assert!(dinic.net.net.is_some());
    }

    #[test]
    fn ssat_bounded_one_reads_direct_edges() {
        let g = chain();
        let mut b = FlowKernel::new(Method::Bounded(1));
        assert_eq!(b.sweep_bound(), Some(1));
        let mut flows = FxHashMap::default();
        ssat::sweep_into(&g, p(0), 1, &mut flows);
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
            assert_eq!(b.sweep_bound(), None, "{method:?}");
            assert_eq!(b.flow(&g, p(2), p(0)), Bytes::from_mb(200), "{method:?}");
        }
    }
}
