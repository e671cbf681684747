//! Layered-DAG bounded-k maxflow kernel: single-source all-targets
//! path-bounded flows for **any** finite hop bound.
//!
//! [`crate::ssat`] handles the deployed `k ≤ 2` bound with a closed
//! form, but for `3 ≤ k < ∞` the engine used to fall back to per-pair
//! evaluation — one full residual-network reset plus an augmentation
//! loop over the *whole* graph per `(s, t)` pair. This module
//! generalizes the sharing idea: unroll the contribution graph from an
//! evaluator into a **layered DAG** of at most `k` levels (one BFS +
//! level assignment per source), then answer every target from that
//! pruned structure.
//!
//! # Why pruning is exact
//!
//! For `k ≥ 3` the bounded flow value is *augmentation-order
//! dependent* (unlike `k ≤ 2`, saturating one short path can block a
//! different short path elsewhere), so an exact kernel cannot choose
//! its own paths — it must reproduce [`crate::maxflow::bounded`]'s
//! augmentation sequence verbatim. What it *can* do is drop arcs that
//! sequence provably never looks at:
//!
//! * `bounded` augments along **shortest** residual paths (BFS, first
//!   arrival at `t` wins). By the Edmonds–Karp monotonicity lemma,
//!   residual distances from `s` never decrease across augmentations,
//!   so every node the search visits at depth `d` satisfies
//!   `dist_G(s, v) ≤ d ≤ k` in the *original* graph.
//! * Therefore only forward arcs whose tail lies within the
//!   `(k − 1)`-ball of `s` are ever scanned with positive capacity,
//!   and only their residual twins ever carry flow. Every other arc —
//!   and every node outside the `k`-ball — is invisible for the whole
//!   run, for **every** target.
//!
//! Keeping exactly those arcs, **in their original relative order**
//! (each node's adjacency list is a subsequence of the full network's),
//! makes running the identical procedure on the pruned subnetwork
//! bit-identical to running it on the full graph — the differential
//! suite in `tests/boundedk_differential.rs` pins this for every
//! tested `k`.
//!
//! # What the sharing buys
//!
//! Per evaluator the full-network per-pair path pays
//! `O(E)` reset + `O(V)` scratch per target, `2(n − 1)` times. The
//! kernel pays one ball BFS, then per target a reset + augmentation
//! loop over only the layered DAG (`|B_k|` nodes), and memoizes each
//! `(source, target)` value per graph version — so a full Equation-2
//! system sweep computes every ordered pair at most once, sharing
//! layered DAGs across evaluators for the `toward` direction.
//! EXPERIMENTS.md (legacy microbenchmarks) records the last measured
//! speedup.

use crate::contribution::ContributionGraph;
use crate::maxflow;
use crate::network::FlowNetwork;
use bartercast_util::units::{Bytes, PeerId};
use bartercast_util::FxHashMap;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// The unrolled `≤ k`-level view of the graph from one source: the
/// subnetwork induced by forward arcs whose tail is within `k − 1`
/// hops of the source, with arc order preserved, plus the BFS level of
/// every retained node.
///
/// Running [`crate::maxflow::bounded`] on this structure is
/// bit-identical to running it on the full network (see the module
/// docs), and per-target flow values are memoized so each target is
/// augmented at most once per graph version.
#[derive(Debug, Clone)]
pub struct LayeredDag {
    k: usize,
    net: FlowNetwork,
    /// Dense index of the source in `net`, when the source has any
    /// outgoing arc at all (otherwise every flow is trivially zero).
    source: Option<u32>,
    /// BFS level (hop distance from the source) per dense node index.
    levels: Vec<u32>,
    /// Memoized `target index → flow` values.
    memo: FxHashMap<u32, u64>,
}

impl LayeredDag {
    /// Unroll `full` from `source` to depth `k`: BFS over forward
    /// arcs, keeping every arc whose tail sits on a level `≤ k − 1`.
    /// Kept arcs are re-added **sorted by their global arc index**, so
    /// each node's adjacency in the subnetwork is a subsequence of its
    /// adjacency in `full` — the property the exactness argument
    /// needs.
    pub fn unroll(full: &FlowNetwork, source: PeerId, k: usize) -> LayeredDag {
        let n = full.node_count();
        let radius = k.min(n); // hop distances never exceed n − 1
        let mut kept: Vec<u32> = Vec::new();
        let mut dist = vec![u32::MAX; n];
        if let Some(s) = full.node(source) {
            if radius > 0 {
                dist[s as usize] = 0;
                let mut q = VecDeque::from([s]);
                while let Some(u) = q.pop_front() {
                    if dist[u as usize] as usize >= radius {
                        continue;
                    }
                    for &ai in full.arcs_of(u) {
                        if ai % 2 != 0 {
                            continue; // residual twin: not a graph edge
                        }
                        kept.push(ai);
                        let v = full.arcs[ai as usize].to as usize;
                        if dist[v] == u32::MAX {
                            dist[v] = dist[u as usize] + 1;
                            q.push_back(v as u32);
                        }
                    }
                }
            }
        }
        kept.sort_unstable();
        let net = FlowNetwork::build(kept.iter().map(|&ai| {
            let tail = full.arcs[(ai ^ 1) as usize].to;
            let head = full.arcs[ai as usize].to;
            (
                full.peer(tail),
                full.peer(head),
                Bytes(full.original_cap(ai)),
            )
        }));
        let levels = (0..net.node_count())
            .map(|i| {
                let fi = full.node(net.peer(i as u32)).expect("node came from full");
                dist[fi as usize]
            })
            .collect();
        LayeredDag {
            k,
            source: net.node(source),
            levels,
            net,
            memo: FxHashMap::default(),
        }
    }

    /// The hop bound this DAG was unrolled for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Nodes retained in the layered DAG (the source's `k`-ball).
    pub fn node_count(&self) -> usize {
        self.net.node_count()
    }

    /// Forward arcs retained in the layered DAG.
    pub fn arc_count(&self) -> usize {
        self.net.arc_count()
    }

    /// BFS level of `node` within the DAG, if retained.
    pub fn level(&self, node: PeerId) -> Option<u32> {
        self.net.node(node).map(|i| self.levels[i as usize])
    }

    /// Bounded flow from the DAG's source to `target`, bit-identical
    /// to [`crate::maxflow::bounded`] on the full network. Memoized
    /// per target.
    pub fn flow_to(&mut self, target: PeerId) -> Bytes {
        let (Some(s), Some(t)) = (self.source, self.net.node(target)) else {
            return Bytes::ZERO;
        };
        if s == t {
            return Bytes::ZERO;
        }
        if let Some(&f) = self.memo.get(&t) {
            return Bytes(f);
        }
        self.net.reset();
        let f = maxflow::bounded(&mut self.net, s, t, self.k);
        self.memo.insert(t, f);
        Bytes(f)
    }

    /// Bounded flow from the source to **every** retained node, one
    /// augmentation loop per not-yet-memoized target. Zero-flow
    /// targets are omitted.
    pub fn sweep(&mut self) -> FxHashMap<PeerId, Bytes> {
        let mut out = FxHashMap::default();
        for i in 0..self.net.node_count() as u32 {
            if Some(i) == self.source {
                continue;
            }
            let peer = self.net.peer(i);
            let f = self.flow_to(peer);
            if f > Bytes::ZERO {
                out.insert(peer, f);
            }
        }
        out
    }
}

/// The shared-traversal bounded-k kernel: per-source [`LayeredDag`]s
/// and per-pair flow values cached against the graph version, so a
/// burst of queries (or a whole Equation-2 system sweep) against an
/// unchanged graph unrolls each source once and augments each ordered
/// pair once.
#[derive(Debug, Clone)]
pub struct BoundedKKernel {
    k: usize,
    state: Option<KernelState>,
}

#[derive(Debug, Clone)]
struct KernelState {
    version: u64,
    full: FlowNetwork,
    dags: FxHashMap<PeerId, LayeredDag>,
}

impl BoundedKKernel {
    /// A kernel evaluating `Method::Bounded(k)` flows.
    pub fn new(k: usize) -> Self {
        BoundedKKernel { k, state: None }
    }

    /// The hop bound this kernel evaluates.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of layered DAGs currently cached (diagnostics: lets
    /// tests assert sources are unrolled once per graph version).
    pub fn cached_dags(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.dags.len())
    }

    fn state_at(&mut self, graph: &ContributionGraph) -> &mut KernelState {
        let version = graph.version();
        if self.state.as_ref().map(|s| s.version) != Some(version) {
            self.state = Some(KernelState {
                version,
                full: FlowNetwork::from_graph(graph),
                dags: FxHashMap::default(),
            });
        }
        self.state.as_mut().expect("state built above")
    }

    /// Bounded flow `s → t`, bit-identical to
    /// `maxflow::compute(graph, s, t, Method::Bounded(k))`.
    pub fn flow(&mut self, graph: &ContributionGraph, s: PeerId, t: PeerId) -> Bytes {
        if s == t || self.k == 0 {
            return Bytes::ZERO;
        }
        let k = self.k;
        let KernelState { full, dags, .. } = self.state_at(graph);
        dags.entry(s)
            .or_insert_with(|| LayeredDag::unroll(full, s, k))
            .flow_to(t)
    }

    /// Bounded flow from `source` to every reachable peer (the `away`
    /// side of Equation 1): one layered DAG shared by all targets.
    /// Absent peers have zero flow.
    pub fn flows_from(
        &mut self,
        graph: &ContributionGraph,
        source: PeerId,
    ) -> FxHashMap<PeerId, Bytes> {
        if self.k == 0 {
            return FxHashMap::default();
        }
        let k = self.k;
        let KernelState { full, dags, .. } = self.state_at(graph);
        dags.entry(source)
            .or_insert_with(|| LayeredDag::unroll(full, source, k))
            .sweep()
    }

    /// Bounded flow **into** `target` from every peer that can reach
    /// it (the `toward` side of Equation 1). The candidate set is the
    /// reverse `k`-ball of `target`; each candidate's flow is computed
    /// on *its own* layered DAG — running the procedure from the
    /// candidate, exactly as the per-pair evaluation would — so the
    /// values stay bit-identical, and the DAGs are shared with every
    /// other query against this graph version.
    pub fn flows_into(
        &mut self,
        graph: &ContributionGraph,
        target: PeerId,
    ) -> FxHashMap<PeerId, Bytes> {
        if self.k == 0 {
            return FxHashMap::default();
        }
        let k = self.k;
        let KernelState { full, dags, .. } = self.state_at(graph);
        let mut out = FxHashMap::default();
        let Some(t) = full.node(target) else {
            return out;
        };
        // reverse BFS to depth k over residual twins (each twin in a
        // node's adjacency points at an in-neighbour)
        let n = full.node_count();
        let radius = k.min(n);
        let mut dist = vec![u32::MAX; n];
        dist[t as usize] = 0;
        let mut q = VecDeque::from([t]);
        let mut sources: Vec<PeerId> = Vec::new();
        while let Some(u) = q.pop_front() {
            if dist[u as usize] as usize >= radius {
                continue;
            }
            for &ai in full.arcs_of(u) {
                if ai % 2 == 0 {
                    continue; // forward arc: wrong direction
                }
                let v = full.arcs[ai as usize].to as usize;
                if dist[v] == u32::MAX {
                    dist[v] = dist[u as usize] + 1;
                    sources.push(full.peer(v as u32));
                    q.push_back(v as u32);
                }
            }
        }
        for j in sources {
            let f = dags
                .entry(j)
                .or_insert_with(|| LayeredDag::unroll(full, j, k))
                .flow_to(target);
            if f > Bytes::ZERO {
                out.insert(j, f);
            }
        }
        out
    }
}

/// Scheduling cost estimate for one evaluator's bounded-`k` sweep: the
/// number of arcs in its forward and reverse layered DAGs (arcs whose
/// tail/head lies within `k − 1` hops of the evaluator). This is the
/// work the kernel actually performs, unlike the raw edge count of the
/// whole subjective graph — `sim::sweep` uses it to order its
/// work-stealing task list.
pub fn layered_dag_cost(graph: &ContributionGraph, evaluator: PeerId, k: usize) -> usize {
    ball_arcs(evaluator, k, |u| graph.out_edges(u).map(|(v, _)| v))
        + ball_arcs(evaluator, k, |u| graph.in_edges(u).map(|(v, _)| v))
}

/// Arcs scanned by a depth-`k` layered BFS from `source` following
/// `neighbours`: every edge out of a node on a level `≤ k − 1`.
fn ball_arcs<F, I>(source: PeerId, k: usize, neighbours: F) -> usize
where
    F: Fn(PeerId) -> I,
    I: Iterator<Item = PeerId>,
{
    if k == 0 {
        return 0;
    }
    let mut dist: FxHashMap<PeerId, usize> = FxHashMap::default();
    dist.insert(source, 0);
    let mut q = VecDeque::from([source]);
    let mut arcs = 0usize;
    while let Some(u) = q.pop_front() {
        let du = dist[&u];
        if du >= k {
            continue;
        }
        for v in neighbours(u) {
            arcs += 1;
            if let Entry::Vacant(e) = dist.entry(v) {
                e.insert(du + 1);
                q.push_back(v);
            }
        }
    }
    arcs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxflow::{compute, Method};

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    /// Order-dependence witness: at k = 3 the bounded value depends on
    /// which augmenting path BFS commits to first, so the kernel must
    /// reproduce the exact sequence — this graph is the counterexample
    /// that rules out "any blocking flow" implementations.
    fn order_sensitive() -> ContributionGraph {
        let mut g = ContributionGraph::new();
        for (f, t) in [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)] {
            g.add_transfer(p(f), p(t), Bytes(1));
        }
        g
    }

    #[test]
    fn kernel_reproduces_order_sensitive_value() {
        let g = order_sensitive();
        let mut kernel = BoundedKKernel::new(3);
        assert_eq!(
            kernel.flow(&g, p(0), p(5)),
            compute(&g, p(0), p(5), Method::Bounded(3))
        );
    }

    #[test]
    fn dag_prunes_beyond_k_hops() {
        // 0 -> 1 -> 2 -> 3 -> 4: the 2-level DAG from 0 stops at node 2
        let mut g = ContributionGraph::new();
        for i in 0..4 {
            g.add_transfer(p(i), p(i + 1), Bytes(10));
        }
        let full = FlowNetwork::from_graph(&g);
        let dag = LayeredDag::unroll(&full, p(0), 2);
        assert_eq!(dag.node_count(), 3);
        assert_eq!(dag.arc_count(), 2);
        assert_eq!(dag.level(p(0)), Some(0));
        assert_eq!(dag.level(p(2)), Some(2));
        assert_eq!(dag.level(p(3)), None);
    }

    #[test]
    fn sweep_and_point_agree() {
        let g = order_sensitive();
        let mut kernel = BoundedKKernel::new(4);
        let away = kernel.flows_from(&g, p(0));
        for i in 1..=5 {
            assert_eq!(
                away.get(&p(i)).copied().unwrap_or(Bytes::ZERO),
                kernel.flow(&g, p(0), p(i)),
                "target {i}"
            );
        }
        let toward = kernel.flows_into(&g, p(5));
        for i in 0..5 {
            assert_eq!(
                toward.get(&p(i)).copied().unwrap_or(Bytes::ZERO),
                kernel.flow(&g, p(i), p(5)),
                "source {i}"
            );
        }
    }

    #[test]
    fn dags_cached_per_version() {
        let mut g = order_sensitive();
        let mut kernel = BoundedKKernel::new(3);
        kernel.flows_from(&g, p(0));
        kernel.flow(&g, p(0), p(5));
        assert_eq!(kernel.cached_dags(), 1, "same source reuses its DAG");
        kernel.flows_into(&g, p(5));
        assert!(kernel.cached_dags() > 1, "toward sweep adds source DAGs");
        g.add_transfer(p(0), p(5), Bytes(7));
        kernel.flow(&g, p(0), p(5));
        assert_eq!(kernel.cached_dags(), 1, "mutation drops stale DAGs");
    }

    #[test]
    fn zero_and_missing_cases() {
        let g = order_sensitive();
        let mut kernel = BoundedKKernel::new(0);
        assert_eq!(kernel.flow(&g, p(0), p(5)), Bytes::ZERO);
        assert!(kernel.flows_from(&g, p(0)).is_empty());
        let mut kernel = BoundedKKernel::new(3);
        assert_eq!(kernel.flow(&g, p(0), p(0)), Bytes::ZERO);
        assert_eq!(kernel.flow(&g, p(99), p(5)), Bytes::ZERO);
        assert!(kernel.flows_from(&g, p(99)).is_empty());
        assert!(kernel.flows_into(&g, p(99)).is_empty());
    }

    #[test]
    fn layered_cost_matches_local_structure() {
        // star: evaluator 0 connected to 1..=4, plus a distant clique
        let mut g = ContributionGraph::new();
        for i in 1..=4 {
            g.add_transfer(p(0), p(i), Bytes(1));
        }
        for f in 10..20u32 {
            for t in 10..20u32 {
                if f != t {
                    g.add_transfer(p(f), p(t), Bytes(1));
                }
            }
        }
        let local = layered_dag_cost(&g, p(0), 3);
        assert_eq!(local, 4, "distant clique must not inflate the cost");
        assert!(layered_dag_cost(&g, p(10), 3) > local);
        assert_eq!(layered_dag_cost(&g, p(0), 0), 0);
    }
}
