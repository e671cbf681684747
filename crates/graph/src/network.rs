//! Residual flow networks over contribution graphs.
//!
//! The maxflow algorithms operate on a compact arc-list representation:
//! arcs are stored in pairs so that arc `a` and arc `a ^ 1` are each
//! other's residual, the classic adjacency-list flow-network layout.
//! Node ids are remapped to dense indices (through the same
//! [`PeerIndex`] the contribution graph uses) so the inner loops are
//! pure array arithmetic (no hashing), and per-node arc lists live in one
//! flat CSR array (`adj_off`/`adj_arcs`) instead of a `Vec` per node:
//! a whole Dinic level sweep walks two contiguous allocations.

use crate::contribution::{ContributionGraph, PeerIndex};
use bartercast_util::units::{Bytes, PeerId};

/// One directed arc in the residual network.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arc {
    /// Head node (dense index).
    pub to: u32,
    /// Remaining capacity.
    pub cap: u64,
}

/// A residual flow network with dense node indices.
///
/// Build one from a [`ContributionGraph`] with
/// [`FlowNetwork::from_graph`], then run any algorithm in
/// [`crate::maxflow`]. Call [`FlowNetwork::reset`] to restore original
/// capacities between runs.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    pub(crate) arcs: Vec<Arc>,
    original_caps: Vec<u64>,
    /// CSR offsets: node `u`'s incident arcs are
    /// `adj_arcs[adj_off[u]..adj_off[u + 1]]`, in increasing arc-index
    /// order (the order the old per-node `Vec`s produced).
    adj_off: Vec<u32>,
    adj_arcs: Vec<u32>,
    index: PeerIndex,
}

impl FlowNetwork {
    /// Build the network containing every edge of `graph`.
    pub fn from_graph(graph: &ContributionGraph) -> Self {
        Self::build(graph.edges())
    }

    /// Build a network from an explicit edge list. Node indices are
    /// interned in first-appearance order and each edge's arc pair is
    /// appended in iteration order.
    fn build<I: Iterator<Item = (PeerId, PeerId, Bytes)>>(edges: I) -> Self {
        let mut net = FlowNetwork {
            arcs: Vec::new(),
            original_caps: Vec::new(),
            adj_off: Vec::new(),
            adj_arcs: Vec::new(),
            index: PeerIndex::default(),
        };
        // First pass: intern endpoints and lay down the arc pairs; the
        // dense tail of each arc is recoverable from its residual twin
        // (`arcs[a ^ 1].to`), so no separate tail array is needed.
        for (f, t, b) in edges {
            let fi = net.index.intern(f).0;
            let ti = net.index.intern(t).0;
            net.arcs.push(Arc { to: ti, cap: b.0 });
            net.arcs.push(Arc { to: fi, cap: 0 });
            net.original_caps.push(b.0);
            net.original_caps.push(0);
        }
        // Second pass: counting sort of arc indices by tail node. Each
        // arc `a` is incident to the tail `arcs[a ^ 1].to`; visiting
        // arcs in index order reproduces, per node, exactly the
        // increasing-arc-index order the old per-node `Vec` pushes
        // produced, which fixes the augmentation order of every
        // order-sensitive algorithm (bounded `k ≥ 3`, Ford–Fulkerson).
        let n = net.index.ids().len();
        let mut degree = vec![0u32; n + 1];
        for ai in 0..net.arcs.len() {
            degree[net.arcs[ai ^ 1].to as usize + 1] += 1;
        }
        for u in 0..n {
            degree[u + 1] += degree[u];
        }
        net.adj_off = degree;
        let mut cursor = net.adj_off.clone();
        net.adj_arcs = vec![0u32; net.arcs.len()];
        for ai in 0..net.arcs.len() {
            let tail = net.arcs[ai ^ 1].to as usize;
            net.adj_arcs[cursor[tail] as usize] = ai as u32;
            cursor[tail] += 1;
        }
        net
    }

    /// The arc indices incident to `node` (forward arcs and residual
    /// twins), in increasing arc-index order.
    #[inline]
    pub(crate) fn arcs_of(&self, node: u32) -> &[u32] {
        let u = node as usize;
        &self.adj_arcs[self.adj_off[u] as usize..self.adj_off[u + 1] as usize]
    }

    /// Number of nodes in the network.
    pub fn node_count(&self) -> usize {
        self.index.ids().len()
    }

    /// Number of forward arcs (residual twins not counted).
    #[cfg(test)]
    pub fn arc_count(&self) -> usize {
        self.arcs.len() / 2
    }

    /// Dense index of a peer, if it appears in this network.
    pub fn node(&self, id: PeerId) -> Option<u32> {
        self.index.get(id)
    }

    /// Peer id of a dense index.
    #[cfg(test)]
    pub fn peer(&self, node: u32) -> PeerId {
        self.index.peer(node)
    }

    /// Restore all arcs to their original capacities (undo any flow).
    pub fn reset(&mut self) {
        for (arc, &cap) in self.arcs.iter_mut().zip(&self.original_caps) {
            arc.cap = cap;
        }
    }

    /// Flow conservation check: every node except `s` and `t` must have
    /// in-flow equal to out-flow. Returns `Err` with the offending node.
    pub fn check_conservation(&self, s: u32, t: u32) -> Result<(), u32> {
        let n = self.node_count();
        let mut balance = vec![0i64; n];
        for ai in (0..self.arcs.len()).step_by(2) {
            let flow = (self.original_caps[ai] - self.arcs[ai].cap) as i64;
            let to = self.arcs[ai].to as usize;
            let from = self.arcs[ai + 1].to as usize;
            balance[from] -= flow;
            balance[to] += flow;
        }
        for (i, &b) in balance.iter().enumerate() {
            let i = i as u32;
            if i != s && i != t && b != 0 {
                return Err(i);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    fn diamond() -> ContributionGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut g = ContributionGraph::new();
        g.add_transfer(p(0), p(1), Bytes(10));
        g.add_transfer(p(1), p(3), Bytes(5));
        g.add_transfer(p(0), p(2), Bytes(8));
        g.add_transfer(p(2), p(3), Bytes(8));
        g
    }

    #[test]
    fn builds_dense_network() {
        let net = FlowNetwork::from_graph(&diamond());
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.arc_count(), 4);
        assert!(net.node(p(0)).is_some());
        assert!(net.node(p(9)).is_none());
        let n1 = net.node(p(1)).unwrap();
        assert_eq!(net.peer(n1), p(1));
    }

    #[test]
    fn reset_restores_caps() {
        let g = diamond();
        let mut net = FlowNetwork::from_graph(&g);
        let s = net.node(p(0)).unwrap();
        let t = net.node(p(3)).unwrap();
        let f1 = crate::maxflow::dinic(&mut net, s, t);
        assert!(f1 > 0);
        net.reset();
        let f2 = crate::maxflow::dinic(&mut net, s, t);
        assert_eq!(f1, f2);
    }

    #[test]
    fn conservation_after_flow() {
        let g = diamond();
        let mut net = FlowNetwork::from_graph(&g);
        let s = net.node(p(0)).unwrap();
        let t = net.node(p(3)).unwrap();
        let _ = crate::maxflow::edmonds_karp(&mut net, s, t);
        net.check_conservation(s, t).unwrap();
    }
}
