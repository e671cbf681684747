//! Single-source all-targets (SSAT) two-hop bounded maxflow.
//!
//! The deployed BarterCast variant ([`Method::DEPLOYED`](crate::Method::DEPLOYED), §3.2) only
//! admits augmenting paths of at most two edges. That restriction has
//! a structural consequence the per-pair algorithm never exploits:
//! every admissible `s → t` path is either the direct edge `(s, t)` or
//! a two-edge path `s → m → t` through a middle node `m`, and paths
//! through **distinct** middles are internally disjoint — no two of
//! them share an edge, and none shares an edge with the direct path.
//! Residual (reverse) arcs never open new ≤2-edge paths either: a
//! reverse arc pointing *at* `t` would require flow leaving `t`, and
//! one leaving `s` would require flow entering `s`, neither of which a
//! bounded `s → t` augmentation produces. Greedy augmentation therefore
//! saturates each disjoint path independently, and the flow has the
//! closed form
//!
//! ```text
//! flow(s, t) = c(s, t) + Σ_{m ∉ {s, t}} min(c(s, m), c(m, t))
//! ```
//!
//! which means one traversal of `s`'s two-hop out-neighbourhood yields
//! the flows from `s` to **every** target at once — `O(Σ_{m ∈ N⁺(s)}
//! deg⁺(m))` for all targets, versus one full residual-network
//! construction and augmentation loop per target. [`flows_from`]
//! computes that out-direction map; [`flows_into`] is the symmetric
//! in-direction pass needed for the `maxflow(j → i)` side of
//! Equation 1.
//!
//! [`sweep_into`] computes both directions at once, for any path bound
//! `k ≤ 2`, written into one caller-owned [`FlowPair`] map reused from
//! call to call. It is [`sweep_adjacency`] over one graph; the sharded service
//! runs that form directly, reading each node's edges at the shard
//! that owns the node, since a sweep from `i` reads only `i`'s edges
//! and one direction of each neighbour's. [`flows_from`] and
//! [`flows_into`] are its one-direction, `k = 2` oracles. The
//! reputation engine runs [`sweep_dense`], the same sums over the
//! graph's dense node indices into a reused vector, with no hashing;
//! [`sweep_into`] is its oracle. A single
//! pair needs none of this:
//! [`FlowKernel::flow`](crate::FlowKernel::flow) evaluates the same
//! sum from `s`'s out-edges and `t`'s in-edges alone.
//!
//! All three return exactly the values `maxflow::compute` returns for
//! `Method::Bounded(k)` (bit-identical `u64` totals; the property tests
//! in `tests/proptests.rs` pin this), so callers may substitute them
//! freely for per-pair computation.
//!
//! The traversal is expressed entirely through
//! [`ContributionGraph::out_edges`] / [`ContributionGraph::in_edges`],
//! so the kernel picked up the arena-backed CSR adjacency (see
//! `crate::csr`) without code changes: the two-hop neighbourhood walk
//! now reads contiguous edge slots instead of chasing hash buckets.

use crate::backend::FlowPair;
use crate::contribution::ContributionGraph;
use crate::csr::EdgeSlot;
use bartercast_util::units::{Bytes, PeerId};
use bartercast_util::FxHashMap;

/// Both Equation-1 flows of evaluator `i` under the path bound `hops ≤
/// 2`, for every peer at once: after the call `flows[j]` holds
/// `toward = flow(j → i)` and `away = flow(i → j)`, and a peer absent
/// from `flows` has zero flow both ways. `flows` is cleared first, so
/// one map can serve call after call.
///
/// # Panics
/// If `hops > 2`: longer paths share edges and have no closed form.
pub fn sweep_into(
    graph: &ContributionGraph,
    i: PeerId,
    hops: usize,
    flows: &mut FxHashMap<PeerId, FlowPair>,
) {
    sweep_adjacency(
        i,
        hops,
        |p| graph.in_edges(p),
        |p| graph.out_edges(p),
        flows,
    );
}

/// [`sweep_into`] on dense node indices: after the call `flows` has one
/// entry per node of `graph`, and `flows[u]` holds the flows of the
/// node whose dense index ([`ContributionGraph::node`]) is `u`. All
/// entries are zeroed first, so one vector can serve call after call.
///
/// # Panics
/// If `hops > 2`: longer paths share edges and have no closed form.
pub fn sweep_dense(graph: &ContributionGraph, i: PeerId, hops: usize, flows: &mut Vec<FlowPair>) {
    assert!(hops <= 2, "no single-source sweep for {hops}-hop paths");
    flows.clear();
    flows.resize(graph.node_count(), FlowPair::default());
    let Some(i) = graph.node(i).filter(|_| hops > 0) else {
        return;
    };
    dense_half(flows, i, hops, |u| graph.in_slots(u), |f| &mut f.toward);
    dense_half(flows, i, hops, |u| graph.out_slots(u), |f| &mut f.away);
}

/// One direction of [`sweep_dense`], as [`half_sweep`] on dense slots.
fn dense_half<'g>(
    flows: &mut [FlowPair],
    i: u32,
    hops: usize,
    slots: impl Fn(u32) -> &'g [EdgeSlot],
    side: fn(&mut FlowPair) -> &mut Bytes,
) {
    for e in slots(i) {
        *side(&mut flows[e.other as usize]) += Bytes(e.weight);
    }
    if hops < 2 {
        return;
    }
    for im in slots(i) {
        for mj in slots(im.other) {
            if mj.other != i {
                *side(&mut flows[mj.other as usize]) += Bytes(im.weight.min(mj.weight));
            }
        }
    }
}

/// [`sweep_into`] over any adjacency: `in_edges(p)` and `out_edges(p)`
/// give node `p`'s edges, wherever they are stored. The sweep asks for
/// `i`'s own edges and, under `hops = 2`, for `in(m)` of each
/// in-neighbour `m` and `out(m)` of each out-neighbour — nothing else
/// — so an adjacency split across stores answers it as long as each
/// node's edges are read where that node's edges are kept whole.
///
/// # Panics
/// If `hops > 2`: longer paths share edges and have no closed form.
pub fn sweep_adjacency<I, O>(
    i: PeerId,
    hops: usize,
    in_edges: impl Fn(PeerId) -> I,
    out_edges: impl Fn(PeerId) -> O,
    flows: &mut FxHashMap<PeerId, FlowPair>,
) where
    I: Iterator<Item = (PeerId, Bytes)>,
    O: Iterator<Item = (PeerId, Bytes)>,
{
    assert!(hops <= 2, "no single-source sweep for {hops}-hop paths");
    flows.clear();
    if hops == 0 {
        return;
    }
    half_sweep(flows, i, hops, in_edges, |f| &mut f.toward);
    half_sweep(flows, i, hops, out_edges, |f| &mut f.away);
}

/// One direction of [`sweep_adjacency`]: `edges(p)` walks away from `i`
/// (in-edges for `toward`, out-edges for `away`) and `side` picks the
/// field the flows add into.
fn half_sweep<I: Iterator<Item = (PeerId, Bytes)>>(
    flows: &mut FxHashMap<PeerId, FlowPair>,
    i: PeerId,
    hops: usize,
    edges: impl Fn(PeerId) -> I,
    side: fn(&mut FlowPair) -> &mut Bytes,
) {
    for (j, c) in edges(i) {
        *side(flows.entry(j).or_default()) += c;
    }
    if hops < 2 {
        return;
    }
    for (m, c_im) in edges(i) {
        for (j, c_mj) in edges(m) {
            if j != i {
                *side(flows.entry(j).or_default()) += Bytes(c_im.0.min(c_mj.0));
            }
        }
    }
}

/// Two-hop bounded maxflow from `source` to every reachable target.
///
/// The returned map holds an entry for each node with nonzero flow
/// from `source`; absent nodes (including `source` itself) have zero
/// flow. Equals `compute(graph, source, t, Method::Bounded(2))` for
/// every `t`.
///
/// ```
/// use bartercast_graph::ssat::flows_from;
/// use bartercast_graph::{compute, ContributionGraph, Method};
/// use bartercast_util::units::{Bytes, PeerId};
///
/// // 0 -> 1 -> 2 plus a direct 0 -> 2 edge
/// let mut g = ContributionGraph::new();
/// g.add_transfer(PeerId(0), PeerId(1), Bytes::from_mb(10));
/// g.add_transfer(PeerId(1), PeerId(2), Bytes::from_mb(4));
/// g.add_transfer(PeerId(0), PeerId(2), Bytes::from_mb(3));
///
/// let flows = flows_from(&g, PeerId(0));
/// assert_eq!(flows[&PeerId(2)], Bytes::from_mb(7)); // min(10, 4) + 3
/// assert_eq!(flows[&PeerId(2)], compute(&g, PeerId(0), PeerId(2), Method::DEPLOYED));
/// ```
pub fn flows_from(graph: &ContributionGraph, source: PeerId) -> FxHashMap<PeerId, Bytes> {
    let mut flows: FxHashMap<PeerId, Bytes> = FxHashMap::default();
    for (t, c_st) in graph.out_edges(source) {
        flows.insert(t, c_st);
    }
    for (m, c_sm) in graph.out_edges(source) {
        for (t, c_mt) in graph.out_edges(m) {
            if t == source {
                continue;
            }
            *flows.entry(t).or_insert(Bytes::ZERO) += Bytes(c_sm.0.min(c_mt.0));
        }
    }
    flows
}

/// Two-hop bounded maxflow into `target` from every source that can
/// reach it.
///
/// Symmetric to [`flows_from`], walking the in-adjacency instead:
/// entries are `s ↦ flow(s, target)` and equal
/// `compute(graph, s, target, Method::Bounded(2))` for every `s`.
pub fn flows_into(graph: &ContributionGraph, target: PeerId) -> FxHashMap<PeerId, Bytes> {
    let mut flows: FxHashMap<PeerId, Bytes> = FxHashMap::default();
    for (s, c_st) in graph.in_edges(target) {
        flows.insert(s, c_st);
    }
    for (m, c_mt) in graph.in_edges(target) {
        for (s, c_sm) in graph.in_edges(m) {
            if s == target {
                continue;
            }
            *flows.entry(s).or_insert(Bytes::ZERO) += Bytes(c_sm.0.min(c_mt.0));
        }
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxflow::{compute, Method};

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    fn diamond() -> ContributionGraph {
        // two middles plus a direct edge, and a back-edge to the source
        let mut g = ContributionGraph::new();
        g.add_transfer(p(0), p(1), Bytes(10));
        g.add_transfer(p(1), p(9), Bytes(4));
        g.add_transfer(p(0), p(2), Bytes(6));
        g.add_transfer(p(2), p(9), Bytes(8));
        g.add_transfer(p(0), p(9), Bytes(3));
        g.add_transfer(p(1), p(0), Bytes(5));
        g
    }

    #[test]
    fn matches_bounded_two_on_diamond() {
        let g = diamond();
        let out = flows_from(&g, p(0));
        for t in [p(1), p(2), p(9)] {
            assert_eq!(
                out.get(&t).copied().unwrap_or(Bytes::ZERO),
                compute(&g, p(0), t, Method::DEPLOYED),
                "flow 0 -> {t}"
            );
        }
        // direct + min(10,4) + min(6,8) = 3 + 4 + 6
        assert_eq!(out[&p(9)], Bytes(13));
    }

    #[test]
    fn into_matches_bounded_two() {
        let g = diamond();
        let into = flows_into(&g, p(9));
        for s in [p(0), p(1), p(2)] {
            assert_eq!(
                into.get(&s).copied().unwrap_or(Bytes::ZERO),
                compute(&g, s, p(9), Method::DEPLOYED),
                "flow {s} -> 9"
            );
        }
    }

    #[test]
    fn source_never_appears_as_target() {
        let g = diamond();
        // 0 -> 1 -> 0 is a two-edge cycle back to the source
        assert!(!flows_from(&g, p(0)).contains_key(&p(0)));
        assert!(!flows_into(&g, p(9)).contains_key(&p(9)));
    }

    #[test]
    fn absent_source_yields_empty_map() {
        let g = diamond();
        assert!(flows_from(&g, p(77)).is_empty());
        assert!(flows_into(&g, p(77)).is_empty());
    }

    #[test]
    fn empty_graph() {
        let g = ContributionGraph::new();
        assert!(flows_from(&g, p(0)).is_empty());
        assert!(flows_into(&g, p(0)).is_empty());
    }
}
