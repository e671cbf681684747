//! Layer replay: per-operation cost of each layer on the state a
//! cluster run really ended in.
//!
//! The crates carry no spans yet, so a lockstep `step()` is opaque
//! from outside. After a swarm or gossip run the benchmark therefore
//! rebuilds every node's `PrivateHistory` from the node's own edges in
//! `edges()` and times the public pipeline on it: slice selection,
//! frontier planning, the codecs, engine absorb and query, the SSAT
//! kernel and the choker. Each per-operation cost, multiplied by how
//! often the run's `node.stats` say the operation happened, gives the
//! layer's `busy_ms_est`; what the estimates leave of the run's wall
//! time is `node.reactor.residual_share` (reactor pump, sessions,
//! timers, the in-memory transport). They are estimates: the replay
//! runs each operation hot, in a loop, on final rather than growing
//! state.

use crate::metrics::Report;
use crate::stats::median;
use crate::Ctx;
use bartercast_bt::{BtConfig, Candidate, ChokePolicy, Choker, PeerScore, Role};
use bartercast_core::codec::{self, BufPool, FrameDecoder};
use bartercast_core::frontier::{self, SliceRecord};
use bartercast_core::{
    BarterCastConfig, BarterCastMessage, DeltaMsg, PrivateHistory, ReputationEngine,
};
use bartercast_graph::ssat;
use bartercast_node::wire::{decode_envelope, encode_envelope, Envelope};
use bartercast_node::NodeStats;
use bartercast_util::units::{Bytes, PeerId, Seconds};
use std::collections::BTreeMap;
use std::hint::black_box;

/// One node's final subjective graph.
pub struct NodeView {
    /// The node.
    pub id: PeerId,
    /// Its sorted subjective edges `(from, to, bytes)`.
    pub edges: Vec<(PeerId, PeerId, Bytes)>,
}

/// How often the run performed each replayed operation.
pub struct OpCounts {
    /// `NodeStats` summed over nodes.
    pub totals: NodeStats,
    /// Writes to private histories (two per delivered piece; none in a
    /// record-only cluster).
    pub history_writes: u64,
    /// Exchange ticks summed over nodes.
    pub exchange_node_ticks: u64,
    /// Choke rounds summed over nodes.
    pub choke_node_rounds: u64,
}

/// How many times each operation is repeated per node, so a per-call
/// cost is an average over warm calls rather than one cold one.
const ROUNDS: usize = 16;

/// Per-operation costs of one node, in the unit of the metric each
/// feeds.
#[derive(Default)]
struct Costs {
    by_metric: BTreeMap<&'static str, Vec<f64>>,
}

impl Costs {
    fn push(&mut self, metric: &'static str, value: f64) {
        if value.is_finite() {
            self.by_metric.entry(metric).or_default().push(value);
        }
    }

    /// Median over nodes; 0 when no node could measure it.
    fn median(&self, metric: &str) -> f64 {
        self.by_metric.get(metric).map_or(0.0, |v| median(v))
    }
}

/// Rebuild `node`'s private history from the edges it is an endpoint
/// of, in edge order on a monotone write clock.
fn rebuild_history(node: &NodeView) -> (PrivateHistory, usize) {
    let mut history = PrivateHistory::new(node.id);
    let mut writes = 0;
    for &(from, to, bytes) in &node.edges {
        let now = Seconds(writes as u64 + 1);
        if from == node.id {
            history.record_piece_upload(to, bytes, now);
        } else if to == node.id {
            history.record_piece_download(from, bytes, now);
        } else {
            continue;
        }
        writes += 1;
    }
    (history, writes)
}

/// `core.history` slice selection, `core.frontier` and `core.codec` on
/// one node's history. Returns the node's advertised message.
fn replay_exchange(
    ctx: &mut Ctx,
    costs: &mut Costs,
    history: &PrivateHistory,
    config: BarterCastConfig,
    pool: &mut BufPool,
) -> BarterCastMessage {
    let t = &mut ctx.tracer;
    let id = history.owner();
    let per = |secs: f64, n: usize| secs * 1e9 / (ROUNDS * n.max(1)) as f64;

    let (slice, secs) = t.timed("core.history.advertised_slice", || {
        let mut slice: Vec<SliceRecord> = Vec::new();
        for _ in 0..ROUNDS {
            slice = black_box(frontier::advertised_slice(black_box(history), config));
        }
        slice
    });
    costs.push("core.history.slice_ns_per_call", per(secs, 1));
    let msg = frontier::message_from_slice(id, &slice);
    if slice.is_empty() {
        return msg;
    }
    let records = slice.len();

    let (ours, secs) = t.timed("core.frontier.frontier_of", || {
        let mut f = frontier::frontier_of(&slice);
        for _ in 1..ROUNDS {
            f = black_box(frontier::frontier_of(black_box(&slice)));
        }
        f
    });
    costs.push("core.frontier.frontier_ns_per_record", per(secs, records));

    // a lagging claim: the frontier of the older half of the slice, so
    // the plan is a watermark delta rather than "in sync" or a resync
    let mut stamps: Vec<Seconds> = slice.iter().map(|r| r.totals.last_seen).collect();
    stamps.sort_unstable();
    let cut = stamps[stamps.len() / 2];
    let older: Vec<SliceRecord> = slice
        .iter()
        .filter(|r| r.totals.last_seen < cut)
        .copied()
        .collect();
    let claim = frontier::frontier_of(&older);
    let (_, secs) = t.timed("core.frontier.plan_sync", || {
        for _ in 0..ROUNDS {
            black_box(frontier::plan_sync(black_box(&slice), ours, claim));
        }
    });
    costs.push("core.frontier.plan_ns_per_call", per(secs, 1));

    let mut buf = pool.take();
    let (_, secs) = t.timed("core.codec.encode", || {
        for _ in 0..ROUNDS {
            buf.clear();
            codec::encode_into(black_box(&msg), &mut buf);
        }
    });
    costs.push("core.codec.encode_ns_per_record", per(secs, records));
    let (_, secs) = t.timed("core.codec.decode", || {
        for _ in 0..ROUNDS {
            black_box(codec::decode(black_box(&buf)).expect("own encoding decodes"));
        }
    });
    costs.push("core.codec.decode_ns_per_record", per(secs, records));

    let delta = DeltaMsg {
        sender: id,
        full: false,
        stamp: ours,
        records: msg.records.clone(),
    };
    let (_, secs) = t.timed("core.codec.encode_delta", || {
        for _ in 0..ROUNDS {
            buf.clear();
            codec::encode_delta_into(black_box(&delta), &mut buf);
        }
    });
    costs.push("core.codec.delta_encode_ns_per_record", per(secs, records));
    let (_, secs) = t.timed("core.codec.decode_delta", || {
        for _ in 0..ROUNDS {
            black_box(codec::decode_delta(black_box(&buf)).expect("own delta decodes"));
        }
    });
    costs.push("core.codec.delta_decode_ns_per_record", per(secs, records));

    let (_, secs) = t.timed("core.codec.digest_roundtrip", || {
        for _ in 0..ROUNDS {
            buf.clear();
            codec::encode_digest_into(id, black_box(&ours), &mut buf);
            black_box(codec::decode_digest(&buf).expect("own digest decodes"));
        }
    });
    costs.push("core.codec.digest_roundtrip_ns", per(secs, 1));
    pool.put(buf);

    // the stream path: a framed message arrives in the transport's
    // 64-byte read chunks (`MemConfig::max_read_chunk`)
    let framed = codec::encode_framed(&msg);
    let (_, secs) = t.timed("core.codec.frame_decode", || {
        for _ in 0..ROUNDS {
            let mut decoder = FrameDecoder::new();
            for chunk in framed.chunks(64) {
                decoder.feed(chunk);
            }
            black_box(decoder.next_frame().expect("own frame is well formed"));
        }
    });
    costs.push(
        "core.codec.frame_decode_ns_per_byte",
        per(secs, framed.len()),
    );

    let envelope = Envelope::Records(msg.clone());
    let (_, secs) = t.timed("node.wire.envelope_roundtrip", || {
        for _ in 0..ROUNDS {
            // `encode_envelope` yields the framed form; the decoder
            // takes the payload after the 4-byte length prefix
            let frame = encode_envelope(black_box(&envelope));
            black_box(decode_envelope(&frame[4..]).expect("own envelope decodes"));
        }
    });
    costs.push("node.wire.envelope_roundtrip_ns", per(secs, 1));
    msg
}

/// `core.repcache`, `graph.ssat` and `bt.choke` for one node: absorb
/// the other nodes' advertised messages, query, and run a choke round
/// over everyone else as candidates.
fn replay_reputation(
    ctx: &mut Ctx,
    costs: &mut Costs,
    me: PeerId,
    history: &PrivateHistory,
    others: &[&BarterCastMessage],
    choke: Option<(BtConfig, &dyn ChokePolicy)>,
) -> (u64, u64, u64) {
    let t = &mut ctx.tracer;
    let targets: Vec<PeerId> = others.iter().map(|m| m.sender).collect();
    let mut engine = ReputationEngine::from_private(history);
    let (first, second) = others.split_at(others.len() / 2);
    let record_count = |msgs: &[&BarterCastMessage]| msgs.iter().map(|m| m.len()).sum::<usize>();

    let (_, absorb_a) = t.timed("core.repcache.absorb", || {
        for msg in first {
            black_box(engine.absorb_message(msg));
        }
    });
    let (_, cold_a) = t.timed("core.repcache.query_cold", || {
        black_box(engine.reputations_from(me, &targets));
    });
    // the second half lands after a query: its records invalidate memo
    // entries, as gossip arriving between choke rounds does
    let (_, absorb_b) = t.timed("core.repcache.absorb", || {
        for msg in second {
            black_box(engine.absorb_message(msg));
        }
    });
    let (_, cold_b) = t.timed("core.repcache.query_cold", || {
        black_box(engine.reputations_from(me, &targets));
    });
    let (reputations, warm) = t.timed("core.repcache.query_warm", || {
        let mut out = Vec::new();
        for _ in 0..ROUNDS {
            out = black_box(engine.reputations_from(me, &targets));
        }
        out
    });
    let (_, dup) = t.timed("core.repcache.absorb_dup", || {
        for msg in others {
            black_box(engine.absorb_message(msg));
        }
    });
    let records = record_count(others);
    if records > 0 {
        costs.push(
            "core.repcache.absorb_ns_per_record",
            (absorb_a + absorb_b) * 1e9 / records as f64,
        );
        costs.push(
            "core.repcache.absorb_dup_ns_per_record",
            dup * 1e9 / records as f64,
        );
    }
    costs.push("core.repcache.query_cold_us", (cold_a + cold_b) * 1e6 / 2.0);
    costs.push("core.repcache.query_warm_us", warm * 1e6 / ROUNDS as f64);

    let graph = engine.graph();
    let (_, secs) = t.timed("graph.ssat.sweep", || {
        for _ in 0..ROUNDS {
            black_box(ssat::flows_into(black_box(graph), me));
            black_box(ssat::flows_from(black_box(graph), me));
        }
    });
    costs.push("graph.ssat.sweep_us", secs * 1e6 / ROUNDS as f64);
    costs.push("graph.contribution.edges", graph.edge_count() as f64);

    if let Some((bt, policy)) = choke {
        let score: BTreeMap<PeerId, f64> = targets.iter().copied().zip(reputations).collect();
        let candidates: Vec<Candidate> = targets
            .iter()
            .map(|&peer| {
                let totals = history.get(peer).unwrap_or_default();
                Candidate {
                    peer,
                    rate_to_me: totals.down.0,
                    rate_from_me: totals.up.0,
                }
            })
            .collect();
        let mut choker = Choker::new(bt);
        let (_, secs) = t.timed("bt.choke.unchoke", || {
            for _ in 0..ROUNDS {
                black_box(choker.unchoke(Role::Leecher, &candidates, policy, |p| {
                    PeerScore::reputation_only(score[&p])
                }));
            }
        });
        costs.push("bt.choke.unchoke_us", secs * 1e6 / ROUNDS as f64);
        costs.push("bt.choke.candidates", candidates.len() as f64);
    }
    let stats = engine.stats();
    (stats.hits, stats.misses, stats.invalidated)
}

/// `replay_reputation` for every history, each absorbing the others'
/// messages; then every measured per-operation cost becomes its
/// metric (median over nodes).
fn reputation_layers(
    ctx: &mut Ctx,
    report: &mut Report,
    costs: &mut Costs,
    histories: &[&PrivateHistory],
    messages: &[BarterCastMessage],
    choke: Option<(BtConfig, &dyn ChokePolicy)>,
) {
    let (mut hits, mut misses, mut invalidated) = (0, 0, 0);
    for (i, history) in histories.iter().enumerate() {
        let others: Vec<&BarterCastMessage> = messages
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, m)| m)
            .collect();
        let (h, m, inv) = replay_reputation(ctx, costs, history.owner(), history, &others, choke);
        hits += h;
        misses += m;
        invalidated += inv;
    }
    let n = histories.len();
    for metric in costs.by_metric.keys().copied() {
        report.set(metric, costs.median(metric), n);
    }
    report.set(
        "core.repcache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        n,
    );
    report.set("core.repcache.invalidated", invalidated as f64, n);
}

/// The reputation layers only (`core.repcache`, `graph.ssat`,
/// `bt.choke`), on histories the caller already holds: the trace
/// simulator's peers, which exchange messages without a wire.
pub fn reputation(
    ctx: &mut Ctx,
    report: &mut Report,
    histories: &[&PrivateHistory],
    config: BarterCastConfig,
    choke: (BtConfig, &dyn ChokePolicy),
) {
    ctx.tracer.open("replay");
    let messages: Vec<BarterCastMessage> = histories
        .iter()
        .map(|h| BarterCastMessage::from_history(h, config))
        .collect();
    let mut costs = Costs::default();
    reputation_layers(ctx, report, &mut costs, histories, &messages, Some(choke));
    ctx.tracer.close();
}

/// Replay every layer on a cluster's final state and set the layer
/// metrics, the `busy_ms_est` estimates and
/// `node.reactor.residual_share`.
pub fn cluster(
    ctx: &mut Ctx,
    report: &mut Report,
    nodes: &[NodeView],
    config: BarterCastConfig,
    choke: Option<(BtConfig, &dyn ChokePolicy)>,
    ops: &OpCounts,
    wall_ms: f64,
) {
    ctx.tracer.open("replay");
    let mut costs = Costs::default();
    let mut pool = BufPool::new();

    let mut histories = Vec::with_capacity(nodes.len());
    for node in nodes {
        let ((history, writes), secs) = ctx
            .tracer
            .timed("core.history.record", || rebuild_history(node));
        if writes > 0 {
            costs.push("core.history.record_ns", secs * 1e9 / writes as f64);
        }
        histories.push(history);
    }
    let messages: Vec<BarterCastMessage> = histories
        .iter()
        .map(|history| replay_exchange(ctx, &mut costs, history, config, &mut pool))
        .collect();
    let borrowed: Vec<&PrivateHistory> = histories.iter().collect();
    reputation_layers(ctx, report, &mut costs, &borrowed, &messages, choke);
    ctx.tracer.close();

    // per-operation cost x how often the run did it
    let n = nodes.len();
    let t = &ops.totals;
    let c = |metric: &str| costs.median(metric);
    let slice_len = median(&messages.iter().map(|m| m.len() as f64).collect::<Vec<_>>());
    // a node re-selects its slice only when its history was written
    // since the last tick (the reactor memoises it)
    let slice_refreshes = ops.exchange_node_ticks.min(ops.history_writes + n as u64) as f64;
    let applied = (t.records_received - t.records_duplicate) as f64;
    let busy = [
        (
            "core.history.busy_ms_est",
            c("core.history.record_ns") * ops.history_writes as f64
                + c("core.history.slice_ns_per_call") * slice_refreshes,
        ),
        (
            "core.frontier.busy_ms_est",
            c("core.frontier.plan_ns_per_call") * t.digests_sent as f64
                + c("core.frontier.frontier_ns_per_record") * slice_len * slice_refreshes,
        ),
        (
            "core.codec.busy_ms_est",
            c("core.codec.encode_ns_per_record") * t.records_sent as f64
                + c("core.codec.decode_ns_per_record") * t.records_received as f64
                + c("core.codec.digest_roundtrip_ns") * t.digests_sent as f64
                + c("core.codec.frame_decode_ns_per_byte") * t.bytes_sent as f64,
        ),
        (
            "core.repcache.busy_ms_est",
            c("core.repcache.absorb_ns_per_record") * applied
                + c("core.repcache.absorb_dup_ns_per_record") * t.records_duplicate as f64
                + c("core.repcache.query_cold_us") * 1e3 * ops.choke_node_rounds as f64,
        ),
        (
            "bt.choke.busy_ms_est",
            c("bt.choke.unchoke_us") * 1e3 * ops.choke_node_rounds as f64,
        ),
    ];
    let mut explained_ms = 0.0;
    for (metric, ns) in busy {
        report.set(metric, ns / 1e6, n);
        explained_ms += ns / 1e6;
    }
    report.set(
        "node.reactor.residual_share",
        1.0 - explained_ms / wall_ms.max(1e-9),
        1,
    );
}
