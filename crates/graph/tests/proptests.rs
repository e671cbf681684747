//! Property-based tests for the maxflow algorithms and contribution
//! graph, using random graphs.
//!
//! Verified invariants:
//! * all four unbounded algorithms agree on every random graph;
//! * the max-flow/min-cut certificate holds for every computed flow;
//! * flow conservation holds at every interior node;
//! * bounded flow is monotone in the bound and converges to the
//!   unbounded value;
//! * adding capacity never decreases maxflow;
//! * `merge_record` is idempotent and order-insensitive (max-merge);
//! * the SSAT kernel reproduces per-pair `Bounded(2)` flows exactly,
//!   in both directions, including absent and saturated nodes, and
//!   the fused pass reproduces `Bounded(0 | 1 | 2)` through one reused
//!   map;
//! * `FlowKernel`'s point closed form for `Bounded(0 | 1 | 2)` equals
//!   per-pair bounded maxflow and the sweep's entry, both directions;
//! * all five methods' flows carry a min-cut certificate: the residual
//!   cut separates s from t and its capacity equals the flow value;
//! * the CSR-backed `ContributionGraph` is observationally equivalent
//!   to a map of insertion-ordered adjacency lists under random
//!   interleaved `add_transfer` / `merge_record` sequences, edge order
//!   and version included;
//! * the paged `PeerIndex` behind it interns exactly as a plain hash
//!   map would, under any interleaving of dense ids, ids far past the
//!   table's bound and one id per table page, and never allocates more
//!   pages than its bound allows;
//! * the dense two-hop closed form equals `Bounded(0 | 1 | 2)` maxflow
//!   on such ids with weights up to `u64::MAX`.

use bartercast_graph::contribution::{ContributionGraph, PeerIndex};
use bartercast_graph::maxflow::{self, Method};
use bartercast_graph::mincut;
use bartercast_graph::network::FlowNetwork;
use bartercast_graph::ssat;
use bartercast_graph::{FlowKernel, FlowPair};
use bartercast_util::units::{Bytes, PeerId};
use bartercast_util::FxHashMap;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A random edge list over up to `n` nodes.
fn edges_strategy(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32, u64)>> {
    prop::collection::vec((0..n, 0..n, 1u64..1000), 0..max_edges)
}

/// One of the `maxflow` kernels, engine method or reference oracle.
type Kernel = fn(&mut FlowNetwork, u32, u32) -> u64;

/// `s → t` maxflow of `g` by `kernel`: zero when either endpoint is
/// absent or they coincide, as `maxflow::compute` answers.
fn flow_by(g: &ContributionGraph, s: u32, t: u32, kernel: Kernel) -> Bytes {
    let mut net = FlowNetwork::from_graph(g);
    match (net.node(PeerId(s)), net.node(PeerId(t))) {
        (Some(si), Some(ti)) if si != ti => Bytes(kernel(&mut net, si, ti)),
        _ => Bytes::ZERO,
    }
}

fn build(edges: &[(u32, u32, u64)]) -> ContributionGraph {
    let mut g = ContributionGraph::new();
    for &(f, t, c) in edges {
        if f != t {
            g.add_transfer(PeerId(f), PeerId(t), Bytes(c));
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unbounded_methods_agree(edges in edges_strategy(12, 40), s in 0u32..12, t in 0u32..12) {
        let g = build(&edges);
        let ff = flow_by(&g, s, t, maxflow::ford_fulkerson);
        let ek = flow_by(&g, s, t, maxflow::edmonds_karp);
        let dn = maxflow::compute(&g, PeerId(s), PeerId(t), Method::Dinic);
        let pr = flow_by(&g, s, t, maxflow::push_relabel);
        prop_assert_eq!(ff, ek);
        prop_assert_eq!(ek, dn);
        prop_assert_eq!(dn, pr);
    }

    #[test]
    fn mincut_certifies_maxflow(edges in edges_strategy(10, 30), s in 0u32..10, t in 0u32..10) {
        let g = build(&edges);
        let mut net = FlowNetwork::from_graph(&g);
        if let (Some(si), Some(ti)) = (net.node(PeerId(s)), net.node(PeerId(t))) {
            if si != ti {
                let flow = maxflow::dinic(&mut net, si, ti);
                let side = mincut::source_side(&net, si);
                prop_assert!(!side[ti as usize], "target must be cut off at optimum");
                prop_assert_eq!(mincut::cut_capacity(&net, &side), flow);
                prop_assert!(net.check_conservation(si, ti).is_ok());
            }
        }
    }

    #[test]
    fn bounded_is_monotone_and_converges(edges in edges_strategy(10, 30), s in 0u32..10, t in 0u32..10) {
        let g = build(&edges);
        let s = PeerId(s);
        let t = PeerId(t);
        let unbounded = maxflow::compute(&g, s, t, Method::Dinic);
        let mut prev = Bytes::ZERO;
        for k in 0..=10 {
            let f = maxflow::compute(&g, s, t, Method::Bounded(k));
            prop_assert!(f >= prev, "bound {k}: flow decreased from {prev:?} to {f:?}");
            prop_assert!(f <= unbounded);
            prev = f;
        }
        // with bound >= n-1, every simple path is admissible
        prop_assert_eq!(maxflow::compute(&g, s, t, Method::Bounded(10)), unbounded);
    }

    #[test]
    fn adding_capacity_never_decreases_flow(
        edges in edges_strategy(8, 20),
        extra in (0u32..8, 0u32..8, 1u64..500),
        s in 0u32..8, t in 0u32..8,
    ) {
        let g = build(&edges);
        let before = maxflow::compute(&g, PeerId(s), PeerId(t), Method::Dinic);
        let mut g2 = g.clone();
        let (ef, et, ec) = extra;
        if ef != et {
            g2.add_transfer(PeerId(ef), PeerId(et), Bytes(ec));
        }
        let after = maxflow::compute(&g2, PeerId(s), PeerId(t), Method::Dinic);
        prop_assert!(after >= before);
    }

    #[test]
    fn flow_bounded_by_degrees(edges in edges_strategy(10, 30), s in 0u32..10, t in 0u32..10) {
        let g = build(&edges);
        let f = flow_by(&g, s, t, maxflow::edmonds_karp);
        let out_s: u64 = g.out_edges(PeerId(s)).map(|(_, b)| b.0).sum();
        let in_t: u64 = g.in_edges(PeerId(t)).map(|(_, b)| b.0).sum();
        prop_assert!(f.0 <= out_s);
        prop_assert!(f.0 <= in_t);
    }

    #[test]
    fn merge_records_order_insensitive(
        records in prop::collection::vec((0u32..6, 0u32..6, 1u64..1000), 0..25),
        seed in 0u64..1000,
    ) {
        let mut a = ContributionGraph::new();
        for &(f, t, c) in &records {
            a.merge_record(PeerId(f), PeerId(t), Bytes(c));
        }
        // shuffle deterministically by seed
        let mut shuffled = records.clone();
        let mut state = seed.wrapping_add(1);
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let mut b = ContributionGraph::new();
        for &(f, t, c) in &shuffled {
            b.merge_record(PeerId(f), PeerId(t), Bytes(c));
        }
        for &(f, t, _) in &records {
            prop_assert_eq!(a.edge(PeerId(f), PeerId(t)), b.edge(PeerId(f), PeerId(t)));
        }
        a.check_invariants().unwrap();
        b.check_invariants().unwrap();
    }

    #[test]
    fn merge_record_idempotent(f in 0u32..5, t in 0u32..5, c in 1u64..1000) {
        let mut g = ContributionGraph::new();
        g.merge_record(PeerId(f), PeerId(t), Bytes(c));
        let v = g.version();
        let changed = g.merge_record(PeerId(f), PeerId(t), Bytes(c));
        prop_assert!(!changed);
        prop_assert_eq!(g.version(), v);
    }

    #[test]
    fn invariants_hold_after_random_ops(
        ops in prop::collection::vec((0u32..8, 0u32..8, 1u64..100, prop::bool::ANY), 0..50)
    ) {
        let mut g = ContributionGraph::new();
        for &(f, t, c, merge) in &ops {
            if merge {
                g.merge_record(PeerId(f), PeerId(t), Bytes(c));
            } else {
                g.add_transfer(PeerId(f), PeerId(t), Bytes(c));
            }
        }
        prop_assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn ssat_matches_per_pair_bounded_two(edges in edges_strategy(12, 40), s in 0u32..14) {
        // s in 0..14 > node range so absent sources are exercised too;
        // self-loops are filtered by build(), and random graphs with
        // repeated (f, t) pairs produce saturated middles.
        let g = build(&edges);
        let source = PeerId(s);
        let out = ssat::flows_from(&g, source);
        let into = ssat::flows_into(&g, source);
        for t in 0..14u32 {
            let target = PeerId(t);
            let expect_out = maxflow::compute(&g, source, target, Method::Bounded(2));
            let got_out = out.get(&target).copied().unwrap_or(Bytes::ZERO);
            prop_assert_eq!(got_out, expect_out, "flows_from({source})[{target}]");
            let expect_in = maxflow::compute(&g, target, source, Method::Bounded(2));
            let got_in = into.get(&target).copied().unwrap_or(Bytes::ZERO);
            prop_assert_eq!(got_in, expect_in, "flows_into({source})[{target}]");
        }
        // the kernel must never report the source as its own target
        prop_assert!(!out.contains_key(&source));
        prop_assert!(!into.contains_key(&source));
    }

    /// The fused pass the engine runs equals both one-direction oracles
    /// and per-pair `Bounded(k)` flows for `k ∈ {0, 1, 2}`, on graphs
    /// fed self-loops (which the graph ignores) and from evaluators the
    /// graph may not hold. One map serves every call, as the engine's
    /// buffer does, so a stale entry would read as flow.
    #[test]
    fn fused_sweep_matches_oracles_for_every_closed_form_bound(
        edges in edges_strategy(10, 40),
        evaluators in prop::collection::vec(0u32..12, 1..4),
    ) {
        let mut g = ContributionGraph::new();
        for &(f, t, c) in &edges {
            g.add_transfer(PeerId(f), PeerId(t), Bytes(c));
        }
        let mut flows = FxHashMap::default();
        for &e in &evaluators {
            let i = PeerId(e);
            let (into, from) = (ssat::flows_into(&g, i), ssat::flows_from(&g, i));
            for hops in [2, 0, 1] {
                ssat::sweep_into(&g, i, hops, &mut flows);
                prop_assert!(!flows.contains_key(&i), "sweep_into({i}, {hops}) names i");
                for j in (0..12u32).map(PeerId) {
                    let pair = flows.get(&j).copied().unwrap_or_default();
                    let method = Method::Bounded(hops);
                    prop_assert_eq!(pair.toward, maxflow::compute(&g, j, i, method), "toward {} -> {} k={}", j, i, hops);
                    prop_assert_eq!(pair.away, maxflow::compute(&g, i, j, method), "away {} -> {} k={}", i, j, hops);
                    if hops == 2 {
                        prop_assert_eq!(pair.toward, into.get(&j).copied().unwrap_or_default());
                        prop_assert_eq!(pair.away, from.get(&j).copied().unwrap_or_default());
                    }
                }
            }
        }
    }

    /// The point query of a closed-form kernel — `out_edges(s)` joined
    /// with `in_edges(t)` — equals bounded maxflow on a `FlowNetwork`
    /// and the `sweep_into` entry, in both directions, for `k ∈ {0, 1,
    /// 2}`. Mirrored edges make two-cycles back to the source; every
    /// direct edge puts one endpoint in the other's adjacency, where a
    /// middle could be mistaken for it; targets include the evaluator
    /// itself and ids the graph never saw. One kernel answers every
    /// query, so a stale scratch entry would read as flow.
    #[test]
    fn point_closed_form_is_the_bounded_maxflow(
        edges in edges_strategy(8, 40),
        mirrored in prop::collection::vec((0u32..8, 0u32..8, 1u64..1000), 0..8),
        evaluators in prop::collection::vec(0u32..10, 1..4),
    ) {
        let mut g = build(&edges);
        for &(a, b, c) in &mirrored {
            g.add_transfer(PeerId(a), PeerId(b), Bytes(c));
            g.add_transfer(PeerId(b), PeerId(a), Bytes(c));
        }
        let mut net = FlowNetwork::from_graph(&g);
        let mut flows = FxHashMap::default();
        for k in 0..=2 {
            let method = Method::Bounded(k);
            let mut kernel = FlowKernel::new(method);
            for &e in &evaluators {
                let i = PeerId(e);
                ssat::sweep_into(&g, i, k, &mut flows);
                for j in (0..10u32).map(PeerId) {
                    let (toward, away) = (kernel.flow(&g, j, i), kernel.flow(&g, i, j));
                    prop_assert_eq!(toward, maxflow::compute_on(&mut net, j, i, method), "{} -> {} k={}", j, i, k);
                    prop_assert_eq!(away, maxflow::compute_on(&mut net, i, j, method), "{} -> {} k={}", i, j, k);
                    let pair = flows.get(&j).copied().unwrap_or_default();
                    prop_assert_eq!((pair.toward, pair.away), (toward, away), "sweep({}) at {} k={}", i, j, k);
                }
            }
        }
    }

    #[test]
    fn ssat_matches_on_saturated_middles(
        caps in (1u64..50, 1u64..50, 1u64..50, 1u64..50),
    ) {
        // hub graph: s feeds one middle that fans out to two targets,
        // plus a direct edge — capacities chosen so the middle's in-
        // or out-capacity saturates in either order
        let (a, b, c, d) = caps;
        let mut g = ContributionGraph::new();
        g.add_transfer(PeerId(0), PeerId(1), Bytes(a)); // s -> m
        g.add_transfer(PeerId(1), PeerId(2), Bytes(b)); // m -> t1
        g.add_transfer(PeerId(1), PeerId(3), Bytes(c)); // m -> t2
        g.add_transfer(PeerId(0), PeerId(2), Bytes(d)); // s -> t1 direct
        let out = ssat::flows_from(&g, PeerId(0));
        for t in 1..4u32 {
            let expect = maxflow::compute(&g, PeerId(0), PeerId(t), Method::Bounded(2));
            prop_assert_eq!(out.get(&PeerId(t)).copied().unwrap_or(Bytes::ZERO), expect);
        }
    }

    #[test]
    fn compute_is_deterministic(edges in edges_strategy(10, 30), s in 0u32..10, t in 0u32..10) {
        let g = build(&edges);
        let kernels: [Kernel; 5] = [
            maxflow::ford_fulkerson,
            maxflow::edmonds_karp,
            maxflow::dinic,
            maxflow::push_relabel,
            |n, s, t| maxflow::bounded(n, s, t, 2),
        ];
        for kernel in kernels {
            prop_assert_eq!(flow_by(&g, s, t, kernel), flow_by(&g, s, t, kernel));
        }
    }

    #[test]
    fn every_backend_flow_carries_a_mincut_certificate(
        edges in prop::collection::vec((0u32..10, 0u32..10, 1u64..1000), 0..30),
        s in 0u32..10,
        t in 0u32..10,
    ) {
        let g = build(&edges);
        let mut net = FlowNetwork::from_graph(&g);
        let (Some(si), Some(ti)) = (net.node(PeerId(s)), net.node(PeerId(t))) else {
            return Ok(());
        };
        if si == ti {
            return Ok(());
        }
        type Backend = (&'static str, Kernel);
        let backends: [Backend; 5] = [
            ("ford_fulkerson", maxflow::ford_fulkerson),
            ("edmonds_karp", maxflow::edmonds_karp),
            ("dinic", maxflow::dinic),
            ("push_relabel", maxflow::push_relabel),
            ("bounded_full", |n, s, t| maxflow::bounded(n, s, t, 64)),
        ];
        for (name, run) in backends {
            net.reset();
            let flow = run(&mut net, si, ti);
            // the sink-side certificate holds for flows and preflows
            let side = mincut::sink_side_complement(&net, ti);
            prop_assert!(side[si as usize], "{name}: s left the S side");
            prop_assert!(!side[ti as usize], "{name}: t not cut off");
            prop_assert_eq!(mincut::cut_capacity(&net, &side), flow, "{name} cut capacity");
            if name != "push_relabel" {
                let side = mincut::source_side(&net, si);
                prop_assert!(side[si as usize] && !side[ti as usize], "{name} separation");
                prop_assert_eq!(mincut::cut_capacity(&net, &side), flow, "{name} source cut");
            }
        }
    }

    /// The CSR arena behind `ContributionGraph` is observationally
    /// equivalent to a map of insertion-ordered adjacency lists: same
    /// edges in first-recorded order, same totals, same counts, and a
    /// version that moves exactly on the effective mutations, under any
    /// interleaving of the two mutation entry points. Forty ids and up
    /// to 400 ops carry nodes through three or more block size classes
    /// while their growth interleaves, so order is checked across
    /// relocation and block reuse.
    #[test]
    fn csr_adjacency_matches_hashmap_model(
        ops in prop::collection::vec((0u32..40, 0u32..40, 1u64..200, prop::bool::ANY), 1..400),
    ) {
        /// The weight of `key` in an insertion-ordered list, inserting
        /// it at the end when absent.
        fn entry(list: &mut Vec<(u32, u64)>, key: u32) -> &mut u64 {
            let at = match list.iter().position(|&(k, _)| k == key) {
                Some(at) => at,
                None => {
                    list.push((key, 0));
                    list.len() - 1
                }
            };
            &mut list[at].1
        }
        let mut g = ContributionGraph::new();
        let mut out: BTreeMap<u32, Vec<(u32, u64)>> = BTreeMap::new();
        let mut inc: BTreeMap<u32, Vec<(u32, u64)>> = BTreeMap::new();
        let mut version = 0u64;
        for &(f, t, w, merge) in &ops {
            let effective = if merge {
                let cur = out
                    .get(&f)
                    .and_then(|l| l.iter().find(|&&(k, _)| k == t))
                    .map_or(0, |&(_, w)| w);
                let eff = f != t && w > cur;
                if eff {
                    *entry(out.entry(f).or_default(), t) = w;
                    *entry(inc.entry(t).or_default(), f) = w;
                }
                prop_assert_eq!(g.merge_record(PeerId(f), PeerId(t), Bytes(w)), eff);
                eff
            } else {
                let eff = f != t;
                if eff {
                    *entry(out.entry(f).or_default(), t) += w;
                    *entry(inc.entry(t).or_default(), f) += w;
                }
                g.add_transfer(PeerId(f), PeerId(t), Bytes(w));
                eff
            };
            version += u64::from(effective);
            prop_assert_eq!(g.version(), version);
        }
        g.check_invariants().unwrap();
        let model_nodes: BTreeSet<u32> =
            out.keys().chain(inc.keys()).copied().collect();
        prop_assert_eq!(g.node_count(), model_nodes.len());
        prop_assert_eq!(g.edge_count(), out.values().map(Vec::len).sum::<usize>());
        for f in 0..40u32 {
            let expect_out = out.get(&f).cloned().unwrap_or_default();
            let expect_in = inc.get(&f).cloned().unwrap_or_default();
            for t in 0..40u32 {
                let expect = expect_out.iter().find(|&&(k, _)| k == t).map_or(0, |&(_, w)| w);
                prop_assert_eq!(g.edge(PeerId(f), PeerId(t)).0, expect, "edge ({f}, {t})");
            }
            let got_out: Vec<(u32, u64)> =
                g.out_edges(PeerId(f)).map(|(id, b)| (id.0, b.0)).collect();
            prop_assert_eq!(&got_out, &expect_out, "out_edges({f})");
            let got_in: Vec<(u32, u64)> =
                g.in_edges(PeerId(f)).map(|(id, b)| (id.0, b.0)).collect();
            prop_assert_eq!(&got_in, &expect_in, "in_edges({f})");
            prop_assert_eq!(g.total_up(PeerId(f)).0, expect_out.iter().map(|&(_, w)| w).sum::<u64>());
            prop_assert_eq!(g.total_down(PeerId(f)).0, expect_in.iter().map(|&(_, w)| w).sum::<u64>());
        }
    }
}

/// Peer ids that take every path through [`PeerIndex`]: small dense
/// ids, ids past any bound it reaches here (`2^31`, `u32::MAX`), and
/// one id per table page, which land in the table or the hash map
/// depending on how many ids came before them.
fn mixed_id() -> impl Strategy<Value = u32> {
    (0u32..7 * 48).prop_map(|r| match r / 48 {
        0..=3 => r % 24,
        4 => [1 << 31, u32::MAX - 1, u32::MAX][r as usize % 3],
        _ => (r % 48) * 256 + 255,
    })
}

/// Every id [`mixed_id`] can draw, plus two no graph ever sees.
fn id_universe() -> Vec<PeerId> {
    (0u32..24)
        .chain([1 << 31, u32::MAX - 1, u32::MAX, 5_000, u32::MAX - 2])
        .chain((0u32..48).map(|page| page * 256 + 255))
        .map(PeerId)
        .collect()
}

/// Edge weights small enough to add up and close enough to `u64::MAX`
/// that sums saturate.
fn weight() -> impl Strategy<Value = u64> {
    (0u8..4, 0u64..200).prop_map(|(pick, w)| match pick {
        0 => u64::MAX - w / 2,
        _ => w + 1,
    })
}

/// `ContributionGraph` as it behaves when peer ids are interned
/// through a plain `FxHashMap`: dense indices in first-sighting order
/// and insertion-ordered adjacency lists.
#[derive(Default)]
struct HashInterned {
    index: FxHashMap<PeerId, u32>,
    ids: Vec<PeerId>,
    out: Vec<Vec<(u32, u64)>>,
    inc: Vec<Vec<(u32, u64)>>,
}

impl HashInterned {
    fn intern(&mut self, id: PeerId) -> u32 {
        if let Some(&i) = self.index.get(&id) {
            return i;
        }
        let i = self.ids.len() as u32;
        self.index.insert(id, i);
        self.ids.push(id);
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
        i
    }

    /// Set `from → to` to `weight(stored)` unless it says `None`.
    fn write(&mut self, from: PeerId, to: PeerId, weight: impl FnOnce(u64) -> Option<u64>) {
        let (f, t) = (self.intern(from), self.intern(to));
        let at = self.out[f as usize].iter().position(|&(k, _)| k == t);
        let Some(w) = weight(at.map_or(0, |at| self.out[f as usize][at].1)) else {
            return;
        };
        for (list, key) in [
            (&mut self.out[f as usize], t),
            (&mut self.inc[t as usize], f),
        ] {
            match list.iter_mut().find(|(k, _)| *k == key) {
                Some(slot) => slot.1 = w,
                None => list.push((key, w)),
            }
        }
    }

    fn named(&self, list: &[(u32, u64)]) -> Vec<(PeerId, Bytes)> {
        list.iter()
            .map(|&(k, w)| (self.ids[k as usize], Bytes(w)))
            .collect()
    }

    fn adjacency(&self, lists: &[Vec<(u32, u64)>], id: PeerId) -> Vec<(PeerId, Bytes)> {
        self.index
            .get(&id)
            .map_or_else(Vec::new, |&u| self.named(&lists[u as usize]))
    }

    fn edges(&self) -> Vec<(PeerId, PeerId, Bytes)> {
        (0..self.ids.len())
            .flat_map(|u| {
                self.named(&self.out[u])
                    .into_iter()
                    .map(move |(t, b)| (self.ids[u], t, b))
            })
            .collect()
    }
}

/// Whether the direct table of `index` holds at most
/// `direct_bound() / 256 + 1` pages.
fn table_is_bounded(index: &PeerIndex) -> bool {
    index.table_pages() as u64 <= index.direct_bound() / 256 + 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interning through the paged, bounded `PeerIndex` is invisible:
    /// under any interleaving of dense, far and one-per-page ids the
    /// graph's edges, adjacency, point reads, node count and
    /// insertion order equal those of a graph that interns through a
    /// plain hash map, and a bare `PeerIndex` fed the same ids hands
    /// out the same dense indices while its table stays in bound.
    #[test]
    fn peer_index_matches_hash_interning(
        ops in prop::collection::vec((mixed_id(), mixed_id(), weight(), prop::bool::ANY), 1..300),
    ) {
        let mut g = ContributionGraph::new();
        let mut model = HashInterned::default();
        let mut index = PeerIndex::default();
        for &(f, t, w, merge) in &ops {
            let (f, t) = (PeerId(f), PeerId(t));
            if merge {
                g.merge_record(f, t, Bytes(w));
            } else {
                g.add_transfer(f, t, Bytes(w));
            }
            if f == t {
                continue;
            }
            model.write(f, t, |stored| {
                if merge {
                    (w > stored).then_some(w)
                } else {
                    Some(stored.saturating_add(w))
                }
            });
            for id in [f, t] {
                prop_assert_eq!(index.intern(id).0, model.index[&id], "index of {}", id);
                prop_assert!(table_is_bounded(&index), "{} pages for {} ids", index.table_pages(), index.ids().len());
            }
        }
        g.check_invariants().unwrap();
        prop_assert_eq!(g.node_count(), model.ids.len());
        prop_assert_eq!(index.ids(), &model.ids[..]);
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), model.edges());
        let universe = id_universe();
        for &a in &universe {
            prop_assert_eq!(index.get(a), model.index.get(&a).copied(), "get({})", a);
            prop_assert_eq!(g.out_edges(a).collect::<Vec<_>>(), model.adjacency(&model.out, a), "out_edges({})", a);
            prop_assert_eq!(g.in_edges(a).collect::<Vec<_>>(), model.adjacency(&model.inc, a), "in_edges({})", a);
            for &b in &universe {
                let expect = model.adjacency(&model.out, a).into_iter().find(|&(k, _)| k == b);
                prop_assert_eq!(g.edge(a, b), expect.map_or(Bytes::ZERO, |(_, w)| w), "edge({}, {})", a, b);
            }
        }
    }

    /// The dense closed form joins on the indices the paged index
    /// hands out, wherever the ids landed: it equals bounded maxflow
    /// for `k ∈ {0, 1, 2}` with weights near `u64::MAX`, where the
    /// sum saturates. One kernel answers every query, so a scratch
    /// slot left set by one query would read as flow in the next.
    #[test]
    fn dense_closed_form_is_the_bounded_maxflow_on_any_ids(
        edges in prop::collection::vec((mixed_id(), mixed_id(), weight()), 0..40),
        queries in prop::collection::vec((mixed_id(), mixed_id()), 1..40),
    ) {
        let mut g = ContributionGraph::new();
        for &(f, t, w) in &edges {
            g.add_transfer(PeerId(f), PeerId(t), Bytes(w));
        }
        let mut net = FlowNetwork::from_graph(&g);
        for k in 0..=2 {
            let method = Method::Bounded(k);
            let mut kernel = FlowKernel::new(method);
            for &(s, t) in &queries {
                let (s, t) = (PeerId(s), PeerId(t));
                prop_assert_eq!(kernel.flow(&g, s, t), maxflow::compute_on(&mut net, s, t, method), "{} -> {} k={}", s, t, k);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The dense sweep is `sweep_into` by another index: on graphs over
    /// any ids, with weights whose sums saturate, every node's entry
    /// equals the map's (zero where the map has none, the evaluator's
    /// own included) for `k ∈ {0, 1, 2}`, and an evaluator outside the
    /// graph gets all zeros. One vector serves every call, so an entry
    /// left from one sweep would show in the next.
    #[test]
    fn dense_sweep_equals_sweep_into_on_any_ids(
        edges in prop::collection::vec((mixed_id(), mixed_id(), weight()), 0..40),
        evaluators in prop::collection::vec(mixed_id(), 1..12),
    ) {
        let mut g = ContributionGraph::new();
        for &(f, t, w) in &edges {
            g.add_transfer(PeerId(f), PeerId(t), Bytes(w));
        }
        let (mut dense, mut map) = (Vec::new(), FxHashMap::default());
        for &i in &evaluators {
            for hops in 0..=2 {
                let i = PeerId(i);
                ssat::sweep_dense(&g, i, hops, &mut dense);
                ssat::sweep_into(&g, i, hops, &mut map);
                prop_assert_eq!(dense.len(), g.node_count());
                for j in id_universe() {
                    let got = g.node(j).map_or_else(FlowPair::default, |u| dense[u as usize]);
                    let want = map.get(&j).copied().unwrap_or_default();
                    prop_assert_eq!(got, want, "{} -> {} k={}", i, j, hops);
                }
            }
        }
    }
}

/// A hostile peer can only steer which tier an id lands in, not what
/// the table costs: ids one per page, each as far out as the bound
/// lets it land, interleaved with ids no table could hold, leave at
/// most `direct_bound() / 256 + 1` pages (about 32 B per id).
#[test]
fn hostile_ids_cost_a_bounded_table() {
    let mut index = PeerIndex::default();
    for n in 0..20_000u32 {
        let edge = index.direct_bound() as u32 - 1;
        for id in [edge, u32::MAX - n, n * 256] {
            index.intern(PeerId(id));
            assert!(
                table_is_bounded(&index),
                "{} pages for {} ids",
                index.table_pages(),
                index.ids().len()
            );
        }
    }
    let table_bytes = index.table_pages() * 256 * 4;
    assert!(
        table_bytes <= 32 * index.ids().len() + 5 * 1024,
        "{table_bytes} B"
    );
    // an id stays in the tier it was first interned in, even once
    // the table reaches its page
    for (i, &id) in index.ids().iter().enumerate() {
        assert_eq!(index.get(id), Some(i as u32), "{id}");
    }
    assert_eq!(index.get(PeerId(20_000 * 256)), None);
}
