//! Maximum-flow algorithms.
//!
//! The reputation engine evaluates one of two [`Method`]s:
//!
//! * [`bounded`] — augmenting paths restricted to at most `max_edges`
//!   edges. With [`DEPLOYED_MAX_PATH_LEN`]` = 2` this is the variant
//!   BarterCast actually deploys (§3.2). For `max_edges = 2` the result
//!   is exact (all ≤2-edge paths are internally disjoint through
//!   distinct middle nodes) and has a closed form ([`crate::ssat`]);
//!   for `3 ≤ max_edges < n − 1` saturating one short path can block
//!   another, so the value is the one this shortest-path-first order
//!   yields and is evaluated pair by pair; for `max_edges ≥ n − 1` it
//!   degenerates to plain Ford–Fulkerson.
//! * [`dinic`] — level graphs + blocking flows, the unbounded method
//!   the ablation study runs against the bounded ones.
//!
//! Three more unbounded algorithms are kept as reference oracles for
//! [`dinic`] and the min-cut certificates; no [`Method`] selects them:
//!
//! * [`ford_fulkerson`] — depth-first augmenting paths, a faithful
//!   rendering of the paper's Algorithm 1 ("for finding the paths in
//!   line 5 we use a common depth-first search").
//! * [`edmonds_karp`] — breadth-first (shortest) augmenting paths,
//!   strongly polynomial.
//! * [`push_relabel`] — FIFO preflow-push: a non-augmenting-path
//!   algorithm fails differently from the augmenting-path family.
//!
//! All of them mutate arc capacities in place; [`FlowNetwork::reset`]
//! restores the original graph.

use crate::contribution::ContributionGraph;
use crate::network::FlowNetwork;
use bartercast_util::units::{Bytes, PeerId};
use std::collections::VecDeque;

/// The path-length bound used by the deployed BarterCast (§3.2).
pub const DEPLOYED_MAX_PATH_LEN: usize = 2;

/// Which maxflow algorithm the reputation engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Dinic's algorithm: the unbounded maxflow.
    Dinic,
    /// Augmenting paths of at most the given number of edges.
    Bounded(usize),
}

impl Method {
    /// The deployed configuration: two-hop bounded flow.
    pub const DEPLOYED: Method = Method::Bounded(DEPLOYED_MAX_PATH_LEN);
}

/// Compute the maxflow from `source` to `target` in `graph` using
/// `method`. Returns zero when either endpoint is absent from the
/// graph or when they are equal.
///
/// ```
/// use bartercast_graph::{compute, ContributionGraph, Method};
/// use bartercast_util::units::{Bytes, PeerId};
///
/// // 0 -> 1 -> 2 plus a direct 0 -> 2 edge
/// let mut g = ContributionGraph::new();
/// g.add_transfer(PeerId(0), PeerId(1), Bytes::from_mb(10));
/// g.add_transfer(PeerId(1), PeerId(2), Bytes::from_mb(4));
/// g.add_transfer(PeerId(0), PeerId(2), Bytes::from_mb(3));
///
/// let flow = compute(&g, PeerId(0), PeerId(2), Method::DEPLOYED);
/// assert_eq!(flow, Bytes::from_mb(7)); // min(10, 4) + 3
/// ```
pub fn compute(graph: &ContributionGraph, source: PeerId, target: PeerId, method: Method) -> Bytes {
    if source == target {
        return Bytes::ZERO;
    }
    let mut net = FlowNetwork::from_graph(graph);
    compute_on(&mut net, source, target, method)
}

/// Compute on a pre-built network (reset is performed first, so a
/// network can be reused across many `(s, t)` queries).
pub fn compute_on(net: &mut FlowNetwork, source: PeerId, target: PeerId, method: Method) -> Bytes {
    let (Some(s), Some(t)) = (net.node(source), net.node(target)) else {
        return Bytes::ZERO;
    };
    if s == t {
        return Bytes::ZERO;
    }
    net.reset();
    let flow = match method {
        Method::Dinic => dinic(net, s, t),
        Method::Bounded(k) => bounded(net, s, t, k),
    };
    Bytes(flow)
}

/// Ford–Fulkerson with depth-first augmenting-path search
/// (paper Algorithm 1, lines 5–12 with DFS path finding).
pub fn ford_fulkerson(net: &mut FlowNetwork, s: u32, t: u32) -> u64 {
    let n = net.node_count();
    let mut total = 0u64;
    let mut parent_arc: Vec<Option<u32>> = vec![None; n];
    let mut visited = vec![false; n];
    loop {
        visited.fill(false);
        parent_arc.fill(None);
        // iterative DFS for an augmenting path
        let mut stack = vec![s];
        visited[s as usize] = true;
        let mut found = false;
        'dfs: while let Some(u) = stack.pop() {
            for &ai in net.arcs_of(u) {
                let arc = net.arcs[ai as usize];
                if arc.cap > 0 && !visited[arc.to as usize] {
                    visited[arc.to as usize] = true;
                    parent_arc[arc.to as usize] = Some(ai);
                    if arc.to == t {
                        found = true;
                        break 'dfs;
                    }
                    stack.push(arc.to);
                }
            }
        }
        if !found {
            break;
        }
        total += augment(net, s, t, &parent_arc);
    }
    total
}

/// Edmonds–Karp: BFS (shortest) augmenting paths.
pub fn edmonds_karp(net: &mut FlowNetwork, s: u32, t: u32) -> u64 {
    let n = net.node_count();
    let mut total = 0u64;
    let mut parent_arc: Vec<Option<u32>> = vec![None; n];
    let mut visited = vec![false; n];
    loop {
        visited.fill(false);
        parent_arc.fill(None);
        let mut q = VecDeque::new();
        q.push_back(s);
        visited[s as usize] = true;
        let mut found = false;
        'bfs: while let Some(u) = q.pop_front() {
            for &ai in net.arcs_of(u) {
                let arc = net.arcs[ai as usize];
                if arc.cap > 0 && !visited[arc.to as usize] {
                    visited[arc.to as usize] = true;
                    parent_arc[arc.to as usize] = Some(ai);
                    if arc.to == t {
                        found = true;
                        break 'bfs;
                    }
                    q.push_back(arc.to);
                }
            }
        }
        if !found {
            break;
        }
        total += augment(net, s, t, &parent_arc);
    }
    total
}

/// Dinic's algorithm: BFS level graph + DFS blocking flow.
pub fn dinic(net: &mut FlowNetwork, s: u32, t: u32) -> u64 {
    let n = net.node_count();
    let mut total = 0u64;
    let mut level = vec![-1i32; n];
    let mut iter = vec![0usize; n];
    let mut q = VecDeque::new();
    loop {
        // build level graph (the BFS drains `q`, so it starts empty)
        level.fill(-1);
        level[s as usize] = 0;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for &ai in net.arcs_of(u) {
                let arc = net.arcs[ai as usize];
                if arc.cap > 0 && level[arc.to as usize] < 0 {
                    level[arc.to as usize] = level[u as usize] + 1;
                    q.push_back(arc.to);
                }
            }
        }
        if level[t as usize] < 0 {
            break;
        }
        iter.fill(0);
        loop {
            let f = dinic_dfs(net, s, t, u64::MAX, &level, &mut iter);
            if f == 0 {
                break;
            }
            total += f;
        }
    }
    total
}

fn dinic_dfs(
    net: &mut FlowNetwork,
    u: u32,
    t: u32,
    limit: u64,
    level: &[i32],
    iter: &mut [usize],
) -> u64 {
    if u == t {
        return limit;
    }
    while iter[u as usize] < net.arcs_of(u).len() {
        let ai = net.arcs_of(u)[iter[u as usize]];
        let arc = net.arcs[ai as usize];
        if arc.cap > 0 && level[arc.to as usize] == level[u as usize] + 1 {
            let pushed = dinic_dfs(net, arc.to, t, limit.min(arc.cap), level, iter);
            if pushed > 0 {
                net.arcs[ai as usize].cap -= pushed;
                net.arcs[(ai ^ 1) as usize].cap += pushed;
                return pushed;
            }
        }
        iter[u as usize] += 1;
    }
    0
}

/// FIFO push–relabel (preflow-push) maximum flow.
///
/// A differential-test oracle for [`dinic`]: unlike the augmenting-path
/// family it saturates arcs eagerly and relabels nodes, so it shares no
/// failure mode with the other three.
/// Uses the standard FIFO active-node queue; no gap heuristic (graphs
/// here are small enough not to need it).
pub fn push_relabel(net: &mut FlowNetwork, s: u32, t: u32) -> u64 {
    let n = net.node_count();
    if n == 0 || s == t {
        return 0;
    }
    let mut height = vec![0usize; n];
    let mut excess = vec![0i128; n];
    height[s as usize] = n;
    // saturate source arcs (index loop: `arcs_of` borrows are released
    // between iterations so arc capacities can be mutated in place)
    for i in 0..net.arcs_of(s).len() {
        let ai = net.arcs_of(s)[i];
        let cap = net.arcs[ai as usize].cap;
        if cap > 0 && ai.is_multiple_of(2) {
            let to = net.arcs[ai as usize].to;
            net.arcs[ai as usize].cap = 0;
            net.arcs[(ai ^ 1) as usize].cap += cap;
            excess[to as usize] += cap as i128;
        }
    }
    let mut queue: VecDeque<u32> = (0..n as u32)
        .filter(|&v| v != s && v != t && excess[v as usize] > 0)
        .collect();
    let mut in_queue = vec![false; n];
    for &v in &queue {
        in_queue[v as usize] = true;
    }
    while let Some(u) = queue.pop_front() {
        in_queue[u as usize] = false;
        let ui = u as usize;
        while excess[ui] > 0 {
            let mut pushed = false;
            for i in 0..net.arcs_of(u).len() {
                let ai = net.arcs_of(u)[i];
                let arc = net.arcs[ai as usize];
                if arc.cap > 0 && height[ui] == height[arc.to as usize] + 1 {
                    let delta = (excess[ui].min(arc.cap as i128)) as u64;
                    net.arcs[ai as usize].cap -= delta;
                    net.arcs[(ai ^ 1) as usize].cap += delta;
                    excess[ui] -= delta as i128;
                    let to = arc.to as usize;
                    excess[to] += delta as i128;
                    if to != s as usize && to != t as usize && !in_queue[to] {
                        queue.push_back(arc.to);
                        in_queue[to] = true;
                    }
                    pushed = true;
                    if excess[ui] == 0 {
                        break;
                    }
                }
            }
            if excess[ui] == 0 {
                break;
            }
            if !pushed {
                // relabel
                let mut min_h = usize::MAX;
                for &ai in net.arcs_of(u) {
                    let arc = net.arcs[ai as usize];
                    if arc.cap > 0 {
                        min_h = min_h.min(height[arc.to as usize]);
                    }
                }
                if min_h == usize::MAX {
                    break; // no residual arcs: trapped excess
                }
                height[ui] = min_h + 1;
                if height[ui] > 2 * n {
                    break; // defensive bound
                }
            }
        }
    }
    excess[t as usize] as u64
}

/// Maxflow restricted to augmenting paths of at most `max_edges` edges,
/// found with BFS (so shorter paths are preferred). This is the deployed
/// BarterCast computation for `max_edges = 2`.
pub fn bounded(net: &mut FlowNetwork, s: u32, t: u32, max_edges: usize) -> u64 {
    if max_edges == 0 {
        return 0;
    }
    let n = net.node_count();
    let mut total = 0u64;
    let mut parent_arc: Vec<Option<u32>> = vec![None; n];
    let mut depth = vec![usize::MAX; n];
    loop {
        parent_arc.fill(None);
        depth.fill(usize::MAX);
        let mut q = VecDeque::new();
        depth[s as usize] = 0;
        q.push_back(s);
        let mut found = false;
        'bfs: while let Some(u) = q.pop_front() {
            if depth[u as usize] >= max_edges {
                continue;
            }
            for &ai in net.arcs_of(u) {
                let arc = net.arcs[ai as usize];
                if arc.cap > 0 && depth[arc.to as usize] == usize::MAX {
                    depth[arc.to as usize] = depth[u as usize] + 1;
                    parent_arc[arc.to as usize] = Some(ai);
                    if arc.to == t {
                        found = true;
                        break 'bfs;
                    }
                    q.push_back(arc.to);
                }
            }
        }
        if !found {
            break;
        }
        total += augment(net, s, t, &parent_arc);
    }
    total
}

/// Apply the bottleneck of the found path and update residuals
/// (paper Algorithm 1 lines 6–10).
fn augment(net: &mut FlowNetwork, s: u32, t: u32, parent_arc: &[Option<u32>]) -> u64 {
    // bottleneck
    let mut bottleneck = u64::MAX;
    let mut v = t;
    while v != s {
        let ai = parent_arc[v as usize].expect("path must reach source");
        bottleneck = bottleneck.min(net.arcs[ai as usize].cap);
        v = net.arcs[(ai ^ 1) as usize].to;
    }
    // apply
    let mut v = t;
    while v != s {
        let ai = parent_arc[v as usize].unwrap();
        net.arcs[ai as usize].cap -= bottleneck;
        net.arcs[(ai ^ 1) as usize].cap += bottleneck;
        v = net.arcs[(ai ^ 1) as usize].to;
    }
    bottleneck
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    /// CLRS-style example network with a known maxflow of 23.
    fn clrs_graph() -> ContributionGraph {
        let mut g = ContributionGraph::new();
        let edges = [
            (0, 1, 16),
            (0, 2, 13),
            (1, 2, 10),
            (2, 1, 4),
            (1, 3, 12),
            (3, 2, 9),
            (2, 4, 14),
            (4, 3, 7),
            (3, 5, 20),
            (4, 5, 4),
        ];
        for (f, t, c) in edges {
            g.add_transfer(p(f), p(t), Bytes(c));
        }
        g
    }

    type Kernel = fn(&mut FlowNetwork, u32, u32) -> u64;

    /// Every kernel in this module, the oracles included.
    const KERNELS: [(&str, Kernel); 5] = [
        ("ford_fulkerson", ford_fulkerson),
        ("edmonds_karp", edmonds_karp),
        ("dinic", dinic),
        ("push_relabel", push_relabel),
        ("bounded_2", |net, s, t| bounded(net, s, t, 2)),
    ];

    /// `s → t` by `kernel` on a fresh network of `g`, and the network
    /// it leaves behind.
    fn run(g: &ContributionGraph, s: u32, t: u32, kernel: Kernel) -> (u64, FlowNetwork, u32, u32) {
        let mut net = FlowNetwork::from_graph(g);
        let (s, t) = (net.node(p(s)).unwrap(), net.node(p(t)).unwrap());
        (kernel(&mut net, s, t), net, s, t)
    }

    #[test]
    fn clrs_example_all_methods() {
        let g = clrs_graph();
        for (name, kernel) in &KERNELS[..4] {
            assert_eq!(run(&g, 0, 5, *kernel).0, 23, "{name}");
        }
        for m in [Method::Dinic, Method::Bounded(100)] {
            assert_eq!(compute(&g, p(0), p(5), m), Bytes(23), "method {m:?}");
        }
    }

    #[test]
    fn single_edge() {
        let mut g = ContributionGraph::new();
        g.add_transfer(p(0), p(1), Bytes(42));
        assert_eq!(compute(&g, p(0), p(1), Method::Dinic), Bytes(42));
        assert_eq!(compute(&g, p(1), p(0), Method::Dinic), Bytes::ZERO);
    }

    #[test]
    fn missing_nodes_and_self_query() {
        let g = clrs_graph();
        assert_eq!(compute(&g, p(0), p(99), Method::Dinic), Bytes::ZERO);
        assert_eq!(compute(&g, p(99), p(0), Method::Dinic), Bytes::ZERO);
        assert_eq!(compute(&g, p(0), p(0), Method::Dinic), Bytes::ZERO);
    }

    #[test]
    fn bounded_two_hops_counts_only_short_paths() {
        // 0 -> a -> t (2 edges, counts) and 0 -> b -> c -> t (3 edges, excluded)
        let mut g = ContributionGraph::new();
        g.add_transfer(p(0), p(1), Bytes(5));
        g.add_transfer(p(1), p(9), Bytes(5));
        g.add_transfer(p(0), p(2), Bytes(7));
        g.add_transfer(p(2), p(3), Bytes(7));
        g.add_transfer(p(3), p(9), Bytes(7));
        assert_eq!(compute(&g, p(0), p(9), Method::Dinic), Bytes(12));
        assert_eq!(compute(&g, p(0), p(9), Method::DEPLOYED), Bytes(5));
        assert_eq!(compute(&g, p(0), p(9), Method::Bounded(3)), Bytes(12));
    }

    #[test]
    fn bounded_one_hop_is_direct_edge() {
        let g = clrs_graph();
        assert_eq!(compute(&g, p(0), p(1), Method::Bounded(1)), Bytes(16));
        assert_eq!(compute(&g, p(0), p(5), Method::Bounded(1)), Bytes::ZERO);
        assert_eq!(compute(&g, p(0), p(5), Method::Bounded(0)), Bytes::ZERO);
    }

    #[test]
    fn deployed_two_hop_direct_plus_intermediaries() {
        // direct 0->t of 3, plus 0->k->t min(10, 4) = 4, total 7
        let mut g = ContributionGraph::new();
        g.add_transfer(p(0), p(9), Bytes(3));
        g.add_transfer(p(0), p(1), Bytes(10));
        g.add_transfer(p(1), p(9), Bytes(4));
        assert_eq!(compute(&g, p(0), p(9), Method::DEPLOYED), Bytes(7));
    }

    #[test]
    fn maxflow_bounded_by_cut() {
        // The flow into t can never exceed t's total in-capacity — the
        // property §3.4 relies on to contain liars.
        let g = clrs_graph();
        let into_t: u64 = g.in_edges(p(5)).map(|(_, b)| b.0).sum();
        let f = compute(&g, p(0), p(5), Method::Dinic);
        assert!(f.0 <= into_t);
    }

    #[test]
    fn conservation_holds_for_all_methods() {
        let g = clrs_graph();
        for (name, kernel) in KERNELS {
            let (_, net, s, t) = run(&g, 0, 5, kernel);
            net.check_conservation(s, t)
                .unwrap_or_else(|e| panic!("{name}: {e:?}"));
        }
    }

    #[test]
    fn reverse_flow_cancellation_needed() {
        // Classic case where a greedy path must be partially undone via
        // the residual arc (Algorithm 1 line 9).
        let mut g = ContributionGraph::new();
        g.add_transfer(p(0), p(1), Bytes(1));
        g.add_transfer(p(0), p(2), Bytes(1));
        g.add_transfer(p(1), p(2), Bytes(1));
        g.add_transfer(p(1), p(3), Bytes(1));
        g.add_transfer(p(2), p(3), Bytes(1));
        assert_eq!(run(&g, 0, 3, ford_fulkerson).0, 2);
    }

    #[test]
    fn empty_graph() {
        let g = ContributionGraph::new();
        assert_eq!(compute(&g, p(0), p(1), Method::Dinic), Bytes::ZERO);
    }
}
