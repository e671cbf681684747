//! End-to-end measurement of the node runtime: how fast the reactor
//! (one thread per node, readiness-polled sessions) disseminates every
//! gossip-reachable record, and how it behaves under session-count
//! overload.
//!
//! Emits `BENCH_node.json` in the current directory (override with a
//! path argument). Rows:
//!
//! * **mem** — 8 nodes on the deterministic in-process transport,
//!   lossless: the runtime's own overhead, no adversity.
//! * **mem_lossy** — the tier-1 gate's shape: 5% frame loss plus one
//!   forced disconnect per node mid-run, so the row also reports how
//!   much reconnect/backoff traffic the adversity cost.
//! * **tcp** — the same population on real loopback sockets (4 nodes,
//!   to keep OS socket churn modest). Skipped gracefully — row kept,
//!   `"skipped": true` — on hosts without loopback (sandboxes).
//! * **mem_overload** — 5,000 scripted dialers slam one reactor capped
//!   at 2,048 sessions: accepted-vs-shed split, records/sec the single
//!   thread sustained, p50/p99 dial-to-done latency, and resident
//!   memory growth per peak session.
//! * **tcp_overload** — 512 dialers over real loopback sockets against
//!   a 256-session cap; skipped without loopback.
//!
//! Cluster rows report wall-clock to convergence, records/sec received
//! across the cluster, bytes on the wire per record sent, reconnect and
//! shed counts, and the summed `NodeStats` counters. Overload rows
//! report the `LoadGenReport` plus the target's own counters.

use bartercast_core::PrivateHistory;
use bartercast_node::cluster::{Cluster, ClusterConfig};
use bartercast_node::loadgen::{rss_bytes, run_loadgen, LoadGenConfig, LoadGenReport};
use bartercast_node::mem::{MemConfig, MemTransport};
use bartercast_node::node::{Node, NodeConfig};
use bartercast_node::stats::NodeStats;
use bartercast_node::transport::{TcpTransport, Transport};
use bartercast_util::units::PeerId;
use bench::write_bench_json;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Row {
    transport: &'static str,
    n: usize,
    skipped: bool,
    converge_ms: f64,
    records_per_sec: f64,
    bytes_per_record: f64,
    duplicate_ratio: f64,
    exchange_bytes_saved: u64,
    frames_dropped: u64,
    stats: NodeStats,
}

impl Row {
    fn json(&self) -> String {
        format!(
            "    {{\"transport\": \"{}\", \"n\": {}, \"skipped\": {}, \
             \"converge_ms\": {:.3}, \"records_per_sec\": {:.1}, \
             \"bytes_per_record\": {:.2}, \"duplicate_ratio\": {:.4}, \
             \"exchange_bytes_saved\": {}, \"frames_dropped\": {}, \
             \"node\": {{{}}}}}",
            self.transport,
            self.n,
            self.skipped,
            self.converge_ms,
            self.records_per_sec,
            self.bytes_per_record,
            self.duplicate_ratio,
            self.exchange_bytes_saved,
            self.frames_dropped,
            self.stats.json_fields()
        )
    }

    fn report(&self) {
        if self.skipped {
            eprintln!("{:18}  skipped", self.transport);
            return;
        }
        eprintln!(
            "{:18}  n={}  converged in {:8.1} ms   {:9.0} records/s   {:6.1} bytes/record   \
             dup_ratio={:.3}  saved={}B  reconnects={}  shed={}/{}  dropped_frames={}",
            self.transport,
            self.n,
            self.converge_ms,
            self.records_per_sec,
            self.bytes_per_record,
            self.duplicate_ratio,
            self.exchange_bytes_saved,
            self.stats.reconnects,
            self.stats.shed_accept,
            self.stats.shed_session,
            self.frames_dropped
        );
    }
}

/// One overload scenario: `dialers` scripted peers against a single
/// reactor capped at `max_sessions`.
struct OverloadRow {
    transport: &'static str,
    skipped: bool,
    dialers: usize,
    max_sessions: usize,
    report: Option<LoadGenReport>,
    stats: NodeStats,
    mem_per_session_bytes: u64,
    note: &'static str,
}

impl OverloadRow {
    fn skipped(transport: &'static str, note: &'static str) -> OverloadRow {
        OverloadRow {
            transport,
            skipped: true,
            dialers: 0,
            max_sessions: 0,
            report: None,
            stats: NodeStats::default(),
            mem_per_session_bytes: 0,
            note,
        }
    }

    fn json(&self) -> String {
        let r = self.report.unwrap_or_default();
        format!(
            "    {{\"transport\": \"{}\", \"skipped\": {}, \"dialers\": {}, \
             \"max_sessions\": {}, \"records_per_sec\": {:.1}, \
             \"p50_session_ms\": {:.3}, \"p99_session_ms\": {:.3}, \
             \"established\": {}, \"shed\": {}, \"failed\": {}, \"completed\": {}, \
             \"frames_sent\": {}, \"records_sent\": {}, \
             \"frames_received\": {}, \"records_received\": {}, \
             \"mem_per_session_bytes\": {}, \"note\": \"{}\", \"node\": {{{}}}}}",
            self.transport,
            self.skipped,
            self.dialers,
            self.max_sessions,
            r.records_per_sec(),
            r.p50_session_ms,
            r.p99_session_ms,
            r.established,
            r.shed,
            r.failed,
            r.completed,
            r.frames_sent,
            r.records_sent,
            r.frames_received,
            r.records_received,
            self.mem_per_session_bytes,
            self.note,
            self.stats.json_fields()
        )
    }

    fn report(&self) {
        if self.skipped {
            eprintln!("{:18}  skipped ({})", self.transport, self.note);
            return;
        }
        let r = self.report.as_ref().expect("non-skipped rows have reports");
        eprintln!(
            "{:18}  dialers={} cap={}  {:9.0} records/s   p50={:.1}ms p99={:.1}ms   \
             established={} shed={} failed={}   {} B/session",
            self.transport,
            self.dialers,
            self.max_sessions,
            r.records_per_sec(),
            r.p50_session_ms,
            r.p99_session_ms,
            r.established,
            r.shed,
            r.failed,
            self.mem_per_session_bytes
        );
    }
}

fn sum_stats(all: &[NodeStats]) -> NodeStats {
    let mut total = NodeStats::default();
    for s in all {
        total.sessions_opened += s.sessions_opened;
        total.sessions_failed += s.sessions_failed;
        total.sessions_closed += s.sessions_closed;
        total.sessions_live += s.sessions_live;
        total.sessions_peak += s.sessions_peak;
        total.reconnects += s.reconnects;
        total.records_sent += s.records_sent;
        total.records_received += s.records_received;
        total.records_duplicate += s.records_duplicate;
        total.bytes_sent += s.bytes_sent;
        total.bytes_received += s.bytes_received;
        total.shed_accept += s.shed_accept;
        total.shed_session += s.shed_session;
        total.protocol_errors += s.protocol_errors;
        total.digests_sent += s.digests_sent;
        total.deltas_sent += s.deltas_sent;
        total.full_syncs += s.full_syncs;
        total.records_suppressed += s.records_suppressed;
    }
    total
}

fn finish(
    transport: &'static str,
    n: usize,
    elapsed: Duration,
    frames_dropped: u64,
    stats: NodeStats,
) -> Row {
    let secs = elapsed.as_secs_f64().max(1e-9);
    // bytes per *applied* record: wire cost divided by records that
    // actually changed a receiver's graph. Dividing by records_sent
    // would hide redundant pushes (the sender's cost per attempt stays
    // flat no matter how much of it is waste); this denominator charges
    // duplicates to the protocol that sent them.
    let applied = stats
        .records_received
        .saturating_sub(stats.records_duplicate);
    Row {
        transport,
        n,
        skipped: false,
        converge_ms: secs * 1e3,
        records_per_sec: stats.records_received as f64 / secs,
        bytes_per_record: stats.bytes_sent as f64 / (applied.max(1)) as f64,
        duplicate_ratio: stats.records_duplicate as f64 / (stats.records_received.max(1)) as f64,
        exchange_bytes_saved: stats.records_suppressed
            * bartercast_core::codec::RECORD_WIRE_BYTES as u64,
        frames_dropped,
        stats,
    }
}

/// One in-process cluster run; `loss > 0` also injects one forced
/// disconnect per node, mirroring the tier-1 cluster gate.
fn run_mem(name: &'static str, n: usize, loss: f64) -> Row {
    let config = ClusterConfig {
        n,
        mem: MemConfig {
            loss,
            seed: 0xBC0B,
            ..MemConfig::default()
        },
        ..ClusterConfig::default()
    };
    let started = Instant::now();
    let cluster = Cluster::boot(config).expect("boot in-process cluster");
    if loss > 0.0 {
        std::thread::sleep(Duration::from_millis(50));
        for i in 0..n {
            cluster.force_disconnect(PeerId(i as u32));
        }
    }
    if !cluster.run_until_converged(Duration::from_secs(120)) {
        eprintln!(
            "error: {name} cluster did not converge: progress={:?}",
            cluster.progress()
        );
        std::process::exit(1);
    }
    let elapsed = started.elapsed();
    let frames_dropped = cluster.transport().frames_dropped();
    let stats = sum_stats(&cluster.shutdown());
    finish(name, n, elapsed, frames_dropped, stats)
}

/// The same population over real loopback sockets.
fn run_tcp(n: usize) -> Row {
    let config = ClusterConfig {
        n,
        ..ClusterConfig::default()
    };
    let histories = Cluster::seed_histories(&config);
    let expected = Cluster::expected_edges(&histories, config.node.bartercast);
    let transport = Arc::new(TcpTransport::new());
    let started = Instant::now();
    let nodes: Vec<Node> = histories
        .into_iter()
        .enumerate()
        .map(|(i, history)| {
            let bootstrap: Vec<PeerId> = (0..n)
                .filter(|&j| j != i)
                .map(|j| PeerId(j as u32))
                .collect();
            Node::spawn(
                PeerId(i as u32),
                Arc::clone(&transport) as Arc<dyn Transport>,
                bootstrap,
                history,
                NodeConfig {
                    seed: config.node.seed.wrapping_add(i as u64),
                    ..config.node
                },
            )
            .expect("boot tcp node")
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if nodes.iter().all(|node| node.subjective_edges() == expected) {
            break;
        }
        if Instant::now() >= deadline {
            eprintln!("error: tcp cluster did not converge");
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let elapsed = started.elapsed();
    let stats = sum_stats(&nodes.into_iter().map(Node::shutdown).collect::<Vec<_>>());
    finish("tcp", n, elapsed, 0, stats)
}

/// Overload scenario: `dialers` scripted peers against one reactor
/// capped at `max_sessions`, on the given transport. The target stays
/// gossip-passive so every byte measured is loadgen traffic.
fn run_overload(
    transport_name: &'static str,
    transport: Arc<dyn Transport>,
    dialers: usize,
    max_sessions: usize,
) -> OverloadRow {
    let rss_before = rss_bytes().unwrap_or(0);
    let node = Node::spawn(
        PeerId(0),
        Arc::clone(&transport),
        vec![],
        PrivateHistory::new(PeerId(0)),
        NodeConfig {
            exchange_interval: Duration::from_secs(3600), // serve, don't gossip
            max_sessions,
            ..NodeConfig::default()
        },
    )
    .expect("boot overload target");
    let report = run_loadgen(
        Arc::clone(&transport),
        PeerId(0),
        LoadGenConfig {
            dialers,
            frames_per_dialer: 4,
            records_per_frame: 8,
            dial_batch: dialers, // slam the whole population in at once
            timeout: Duration::from_secs(120),
            first_peer: 1000,
        },
    );
    let rss_after = rss_bytes().unwrap_or(rss_before);
    let stats = node.shutdown();
    let mem_per_session_bytes = rss_after
        .saturating_sub(rss_before)
        .checked_div(stats.sessions_peak)
        .unwrap_or(0);
    OverloadRow {
        transport: transport_name,
        skipped: false,
        dialers,
        max_sessions,
        report: Some(report),
        stats,
        mem_per_session_bytes,
        note: "",
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_node.json".to_string());

    let mut cluster_rows = vec![run_mem("mem", 8, 0.0), run_mem("mem_lossy", 8, 0.05)];
    if TcpTransport::loopback_available() {
        cluster_rows.push(run_tcp(4));
    } else {
        eprintln!("tcp: no loopback in this environment, skipping");
        cluster_rows.push(Row {
            transport: "tcp",
            n: 0,
            skipped: true,
            converge_ms: 0.0,
            records_per_sec: 0.0,
            bytes_per_record: 0.0,
            duplicate_ratio: 0.0,
            exchange_bytes_saved: 0,
            frames_dropped: 0,
            stats: NodeStats::default(),
        });
    }

    let mut overload_rows = vec![run_overload(
        "mem_overload",
        Arc::new(MemTransport::new(MemConfig::default())) as Arc<dyn Transport>,
        5000,
        2048,
    )];
    if TcpTransport::loopback_available() {
        overload_rows.push(run_overload(
            "tcp_overload",
            Arc::new(TcpTransport::new()) as Arc<dyn Transport>,
            512,
            256,
        ));
    } else {
        eprintln!("tcp_overload: no loopback in this environment, skipping");
        overload_rows.push(OverloadRow::skipped("tcp_overload", "no loopback"));
    }

    for r in &cluster_rows {
        r.report();
    }
    for r in &overload_rows {
        r.report();
    }

    let body: Vec<String> = cluster_rows
        .iter()
        .map(Row::json)
        .chain(overload_rows.iter().map(OverloadRow::json))
        .collect();
    write_bench_json(&out_path, "node_runtime", "ms_to_convergence", &body);
}
