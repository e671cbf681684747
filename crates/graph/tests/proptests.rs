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
//! * all five methods' flows carry a min-cut certificate: the residual
//!   cut separates s from t and its capacity equals the flow value;
//! * the CSR-backed `ContributionGraph` is observationally equivalent
//!   to a plain map-of-maps model under random interleaved
//!   `add_transfer` / `merge_record` sequences, dirty-node list and
//!   `forget_changes_through` trims included.

use bartercast_graph::contribution::ContributionGraph;
use bartercast_graph::maxflow::{self, Method};
use bartercast_graph::mincut;
use bartercast_graph::network::FlowNetwork;
use bartercast_graph::ssat;
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
    /// equivalent to the old hash-of-hash adjacency: same edges, same
    /// totals, same counts, same dirty sets, under any interleaving of
    /// the two mutation entry points. Random `forget_changes_through`
    /// calls trim the dirty list; for every `since` at or above the
    /// last one, `changed_nodes_since` still yields exactly the model's
    /// dirty set, each node once, from a list no longer than the node
    /// count.
    #[test]
    fn csr_adjacency_matches_hashmap_model(
        ops in prop::collection::vec((0u32..9, 0u32..9, 1u64..200, prop::bool::ANY, 0u8..6), 1..60),
        since_at in 0usize..60,
    ) {
        let mut g = ContributionGraph::new();
        let mut out: BTreeMap<u32, BTreeMap<u32, u64>> = BTreeMap::new();
        let mut inc: BTreeMap<u32, BTreeMap<u32, u64>> = BTreeMap::new();
        let mut model_dirty: BTreeSet<u32> = BTreeSet::new();
        let mut model_at: BTreeMap<u32, u64> = BTreeMap::new();
        let (mut since, mut version, mut floor) = (0u64, 0u64, 0u64);
        for (i, &(f, t, w, merge, forget)) in ops.iter().enumerate() {
            if i == since_at {
                since = g.version();
                model_dirty.clear();
            }
            if forget == 0 {
                // anywhere from the last floor up to the current version
                floor += w % (version - floor + 1);
                g.forget_changes_through(floor);
            }
            let effective = if merge {
                let cur = out.get(&f).and_then(|m| m.get(&t)).copied().unwrap_or(0);
                let eff = f != t && w > cur;
                if eff {
                    out.entry(f).or_default().insert(t, w);
                    inc.entry(t).or_default().insert(f, w);
                }
                prop_assert_eq!(g.merge_record(PeerId(f), PeerId(t), Bytes(w)), eff);
                eff
            } else {
                let eff = f != t;
                if eff {
                    *out.entry(f).or_default().entry(t).or_default() += w;
                    *inc.entry(t).or_default().entry(f).or_default() += w;
                }
                g.add_transfer(PeerId(f), PeerId(t), Bytes(w));
                eff
            };
            if effective {
                version += 1;
                model_dirty.insert(f);
                model_dirty.insert(t);
                model_at.insert(f, version);
                model_at.insert(t, version);
            }
            prop_assert_eq!(g.version(), version);
            if floor > 0 {
                prop_assert!(g.changed_nodes_since(floor - 1).is_none(), "below floor {floor}");
            }
            for s in floor..=version {
                let mut got: Vec<u32> = g.changed_nodes_since(s).unwrap().map(|n| n.0).collect();
                got.sort_unstable();
                let expect: Vec<u32> =
                    model_at.iter().filter(|&(_, &at)| at > s).map(|(&n, _)| n).collect();
                prop_assert_eq!(got, expect, "changed_nodes_since({s}), floor {floor}");
            }
            prop_assert!(g.changed_nodes_since(floor).unwrap().count() <= g.node_count());
        }
        g.check_invariants().unwrap();
        let model_nodes: BTreeSet<u32> =
            out.keys().chain(inc.keys()).copied().collect();
        prop_assert_eq!(g.node_count(), model_nodes.len());
        prop_assert_eq!(g.edge_count(), out.values().map(BTreeMap::len).sum::<usize>());
        for f in 0..9u32 {
            for t in 0..9u32 {
                let expect = out.get(&f).and_then(|m| m.get(&t)).copied().unwrap_or(0);
                prop_assert_eq!(g.edge(PeerId(f), PeerId(t)).0, expect, "edge ({f}, {t})");
            }
            let mut got_out: Vec<(u32, u64)> =
                g.out_edges(PeerId(f)).map(|(id, b)| (id.0, b.0)).collect();
            got_out.sort_unstable();
            let expect_out: Vec<(u32, u64)> = out
                .get(&f)
                .map(|m| m.iter().map(|(&t, &w)| (t, w)).collect())
                .unwrap_or_default();
            prop_assert_eq!(got_out, expect_out, "out_edges({f})");
            let mut got_in: Vec<(u32, u64)> =
                g.in_edges(PeerId(f)).map(|(id, b)| (id.0, b.0)).collect();
            got_in.sort_unstable();
            let expect_in: Vec<(u32, u64)> = inc
                .get(&f)
                .map(|m| m.iter().map(|(&s, &w)| (s, w)).collect())
                .unwrap_or_default();
            prop_assert_eq!(got_in, expect_in, "in_edges({f})");
            prop_assert_eq!(g.total_up(PeerId(f)).0, expect_out.iter().map(|&(_, w)| w).sum::<u64>());
            prop_assert_eq!(g.total_down(PeerId(f)).0, expect_in.iter().map(|&(_, w)| w).sum::<u64>());
        }
        // ids 0..9 cover every node the ops can name, plus absent ones
        for n in 0..9u32 {
            prop_assert_eq!(
                g.changed_since(PeerId(n), since),
                model_dirty.contains(&n),
                "changed_since({n}, {since})"
            );
        }
    }
}
