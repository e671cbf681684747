//! Synthetic `filelist.org`-style trace generation.
//!
//! The real traces are proprietary; this generator reproduces the
//! workload **shape** the paper describes (§5.1):
//!
//! * `N = 100` peers active in `10` swarms during one week;
//! * file sizes "from several tens of megabytes to about one to two
//!   gigabytes, representing mostly audio and movie files" — drawn
//!   from a mixture of a small-file (audio) and a large-file (movie)
//!   log-uniform component;
//! * diurnal online sessions: each peer has a preferred daily online
//!   window plus random extra sessions;
//! * staggered file requests: each peer requests a subset of the
//!   swarms at random times inside its sessions;
//! * common ADSL bandwidth (3 MBps down / 512 KBps up) and a fixed
//!   fraction of unconnectable (NATed) peers.
//!
//! All randomness flows from one seed, so a `(SynthConfig, seed)` pair
//! defines the trace exactly.

use crate::model::{FileRequest, PeerTrace, Session, SwarmId, SwarmTrace, Trace};
use bartercast_util::units::{Bandwidth, Bytes, PeerId, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Fraction of regular peers behind NATs, which reach only connectable
/// peers: the §5.1 traces record each peer's connectability, and the
/// synthetic trace draws it (DESIGN.md, "Substitutions", item 1).
const UNCONNECTABLE_FRACTION: f64 = 0.2;

/// Mean number of swarms each peer requests: with 10 swarms, every
/// peer wants most of the week's files (EXPERIMENTS.md, "Calibration
/// decisions", item 2).
const REQUESTS_PER_PEER: f64 = 10.0;

/// Uplink of the archival initial seeders. Kept below the regular
/// uplink so the always-on seeders bootstrap the swarms without
/// absorbing all demand — the community's own sharers must carry the
/// load, as in the paper's private-tracker setting (EXPERIMENTS.md,
/// "Calibration decisions", item 3).
const SEEDER_UP_BW: Bandwidth = Bandwidth::from_kbps(32);

/// Probability a file is a small "audio" file rather than a large
/// "movie" file: §5.1's "mostly audio and movie files", tilted to
/// movies (EXPERIMENTS.md, "Calibration decisions", item 2).
const SMALL_FILE_PROB: f64 = 0.15;

/// Generator parameters. Defaults match the paper's simulation setup.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Number of peers (paper: 100).
    pub peers: usize,
    /// Number of swarms (paper: 10).
    pub swarms: usize,
    /// Trace length (paper: one week).
    pub horizon: Seconds,
    /// Downlink (paper: 3 MBps).
    pub down_bw: Bandwidth,
    /// Uplink (paper: 512 KBps).
    pub up_bw: Bandwidth,
    /// Piece size for all swarms.
    pub piece_size: Bytes,
    /// Optional heterogeneous access-link mix. When non-empty, each
    /// regular peer draws its `(down, up)` from these weighted classes
    /// instead of the flat `down_bw`/`up_bw` pair (the paper models
    /// uniform ADSL because it lacked real bandwidth data; the mix
    /// lets experiments test sensitivity to heterogeneity).
    pub bandwidth_classes: Vec<BandwidthClass>,
}

/// One access-link class for heterogeneous populations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthClass {
    /// Relative weight of this class.
    pub weight: f64,
    /// Downlink.
    pub down: Bandwidth,
    /// Uplink.
    pub up: Bandwidth,
}

impl BandwidthClass {
    /// The paper's ADSL profile (3 MBps down / 512 KBps up).
    pub fn adsl(weight: f64) -> Self {
        BandwidthClass {
            weight,
            down: Bandwidth::from_mbps(3),
            up: Bandwidth::from_kbps(512),
        }
    }

    /// A symmetric fibre profile (10 MBps each way).
    pub fn fibre(weight: f64) -> Self {
        BandwidthClass {
            weight,
            down: Bandwidth::from_mbps(10),
            up: Bandwidth::from_mbps(10),
        }
    }
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            peers: 100,
            swarms: 10,
            horizon: Seconds::from_days(7),
            down_bw: Bandwidth::from_mbps(3),
            up_bw: Bandwidth::from_kbps(512),
            piece_size: Bytes::from_mb(1),
            bandwidth_classes: Vec::new(),
        }
    }
}

/// Builds [`Trace`]s from a [`SynthConfig`] and a seed.
///
/// ```
/// use bartercast_trace::{SynthConfig, TraceBuilder};
///
/// let builder = TraceBuilder::new(SynthConfig::default());
/// let trace = builder.build(42);
/// assert_eq!(trace.peer_count(), 100); // the paper's N
/// assert_eq!(trace.swarm_count(), 10);
/// assert_eq!(trace, builder.build(42)); // deterministic per seed
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    config: SynthConfig,
}

impl TraceBuilder {
    /// A builder with the given configuration.
    pub fn new(config: SynthConfig) -> Self {
        TraceBuilder { config }
    }

    /// Generate a trace. Identical `(config, seed)` pairs give
    /// identical traces.
    pub fn build(&self, seed: u64) -> Trace {
        let cfg = &self.config;
        assert!(
            cfg.peers >= 2,
            "need at least an initial seeder and a leecher"
        );
        assert!(cfg.swarms >= 1);
        let mut rng = StdRng::seed_from_u64(seed);

        // Swarm files: log-uniform audio (30-120 MB) or movie (500-2000 MB).
        let swarms: Vec<SwarmTrace> = (0..cfg.swarms)
            .map(|i| {
                let small = rng.gen_bool(SMALL_FILE_PROB);
                let (lo, hi) = if small {
                    (30.0, 120.0)
                } else {
                    (600.0, 2500.0)
                };
                let mb = log_uniform(&mut rng, lo, hi);
                SwarmTrace {
                    swarm: SwarmId(i as u32),
                    file_size: Bytes::from_mb(mb as u64),
                    piece_size: cfg.piece_size,
                    // Initial seeders are spread across the first peers;
                    // they are always-online archival peers (see below).
                    initial_seeder: PeerId((i % cfg.peers.min(cfg.swarms)) as u32),
                }
            })
            .collect();

        let seeder_count = cfg.swarms.min(cfg.peers);
        let peers: Vec<PeerTrace> = (0..cfg.peers)
            .map(|i| {
                let peer = PeerId(i as u32);
                let is_initial_seeder = i < seeder_count;
                let sessions = if is_initial_seeder {
                    // archival seeders stay online for the whole trace
                    vec![Session {
                        start: Seconds::ZERO,
                        end: cfg.horizon,
                    }]
                } else {
                    diurnal_sessions(&mut rng, cfg.horizon)
                };
                let requests = if is_initial_seeder {
                    Vec::new()
                } else {
                    random_requests(&mut rng, cfg)
                };
                let (down_bw, up_bw) = if is_initial_seeder {
                    (cfg.down_bw, SEEDER_UP_BW)
                } else if cfg.bandwidth_classes.is_empty() {
                    (cfg.down_bw, cfg.up_bw)
                } else {
                    let class = pick_class(&mut rng, &cfg.bandwidth_classes);
                    (class.down, class.up)
                };
                PeerTrace {
                    peer,
                    sessions,
                    requests,
                    connectable: is_initial_seeder || !rng.gen_bool(UNCONNECTABLE_FRACTION),
                    down_bw,
                    up_bw,
                }
            })
            .collect();

        let trace = Trace {
            horizon: cfg.horizon,
            peers,
            swarms,
        };
        debug_assert!(trace.validate().is_ok(), "{:?}", trace.validate());
        trace
    }
}

/// Weighted draw from the bandwidth classes.
fn pick_class(rng: &mut StdRng, classes: &[BandwidthClass]) -> BandwidthClass {
    let total: f64 = classes.iter().map(|c| c.weight).sum();
    let mut pick = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
    for c in classes {
        if pick < c.weight {
            return *c;
        }
        pick -= c.weight;
    }
    *classes.last().expect("non-empty class list")
}

/// Log-uniform sample in `[lo, hi]`.
fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    let u = rng.gen_range(lo.ln()..=hi.ln());
    u.exp()
}

/// Release times: swarm `i` is "released" at a staggered point in the
/// first 70 % of the trace; peers request a file shortly after its
/// release (private-tracker flashcrowd behaviour), which is what
/// builds up concurrent swarm membership.
fn release_time(swarm: u32, swarms: usize, horizon: Seconds) -> Seconds {
    // releases span ~90 % of the trace so demand persists to the end;
    // a fixed coprime permutation decorrelates release order from the
    // Zipf popularity ranks (otherwise the most popular file is always
    // the oldest)
    let n = swarms.max(1) as u64;
    let pos = (swarm as u64 * 7 + 3) % n;
    let span = horizon.0 * 9 / 10;
    Seconds(span * pos / n)
}

/// Diurnal sessions: one main online window per day (centred on a
/// per-peer preferred hour) with jittered start/length, occasionally
/// skipped.
fn diurnal_sessions(rng: &mut StdRng, horizon: Seconds) -> Vec<Session> {
    let days = (horizon.0 / 86_400).max(1);
    // preferred start hour, biased toward evenings
    let pref_hour: f64 = if rng.gen_bool(0.7) {
        rng.gen_range(17.0..23.0)
    } else {
        rng.gen_range(7.0..17.0)
    };
    let mut sessions = Vec::new();
    for day in 0..days {
        if rng.gen_bool(0.1) {
            continue; // offline day
        }
        let start_h = (pref_hour + rng.gen_range(-1.5..1.5)).clamp(0.0, 23.0);
        // Private-community members keep their client running long —
        // sharing-ratio enforcement rewards seeding time (cf. [2] in
        // the paper) — so sessions run 6–18 h rather than an evening.
        let len_h = rng.gen_range(6.0..18.0);
        let start = day as f64 * 24.0 + start_h;
        let end = (start + len_h).min(horizon.as_hours());
        let start_s = Seconds((start * 3600.0) as u64);
        let end_s = Seconds((end * 3600.0) as u64);
        if end_s.0 > start_s.0 {
            sessions.push(Session {
                start: start_s,
                end: end_s,
            });
        }
    }
    if sessions.is_empty() {
        // guarantee at least one session so the peer exists in the trace
        sessions.push(Session {
            start: Seconds::ZERO,
            end: Seconds::from_hours(4).min(horizon),
        });
    }
    // clamp overlaps introduced by jitter across midnight
    sessions.sort_by_key(|s| s.start);
    let mut merged: Vec<Session> = Vec::with_capacity(sessions.len());
    for s in sessions {
        if let Some(last) = merged.last_mut() {
            if s.start < last.end {
                last.end = last.end.max(s.end);
                continue;
            }
        }
        merged.push(s);
    }
    merged
}

fn random_requests(rng: &mut StdRng, cfg: &SynthConfig) -> Vec<FileRequest> {
    let mean = REQUESTS_PER_PEER;
    // Poisson-ish: sample count from a geometric-like distribution
    // around the mean, clamped to the number of swarms.
    let count = ((mean * rng.gen_range(0.5..1.5)).round() as usize).clamp(1, cfg.swarms);
    // choose distinct swarms with Zipf-like popularity: low swarm ids
    // are requested far more often, so popular swarms build up the
    // concurrent membership real trackers show while niche swarms stay
    // sparse.
    let mut ids: Vec<u32> = Vec::with_capacity(count);
    let weights: Vec<f64> = (0..cfg.swarms).map(|r| 1.0 / (r as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    while ids.len() < count {
        let mut pick = rng.gen_range(0.0..total);
        let mut chosen = 0;
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                chosen = i;
                break;
            }
            pick -= w;
        }
        if !ids.contains(&(chosen as u32)) {
            ids.push(chosen as u32);
        }
    }
    let mut requests: Vec<FileRequest> = ids
        .into_iter()
        .map(|sid| {
            // flashcrowd: request soon after the swarm's release, with
            // an exponential-ish tail (mean ~12 h)
            let release = release_time(sid, cfg.swarms, cfg.horizon);
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let delay_h = -12.0 * u.ln();
            let t = Seconds(
                (release.0 + (delay_h * 3600.0) as u64).min(cfg.horizon.0.saturating_sub(1)),
            );
            FileRequest {
                swarm: SwarmId(sid),
                time: t,
            }
        })
        .collect();
    requests.sort_by_key(|r| r.time);
    requests
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let cfg = SynthConfig::default();
        assert_eq!(cfg.peers, 100);
        assert_eq!(cfg.swarms, 10);
        assert_eq!(cfg.horizon, Seconds::from_days(7));
        assert_eq!(cfg.down_bw, Bandwidth::from_mbps(3));
        assert_eq!(cfg.up_bw, Bandwidth::from_kbps(512));
    }

    #[test]
    fn generated_trace_is_valid() {
        let t = TraceBuilder::new(SynthConfig::default()).build(1);
        t.validate().unwrap();
        assert_eq!(t.peer_count(), 100);
        assert_eq!(t.swarm_count(), 10);
    }

    #[test]
    fn deterministic_per_seed() {
        let b = TraceBuilder::new(SynthConfig::default());
        assert_eq!(b.build(7), b.build(7));
        assert_ne!(b.build(7), b.build(8));
    }

    #[test]
    fn file_sizes_in_paper_range() {
        let t = TraceBuilder::new(SynthConfig::default()).build(3);
        for s in &t.swarms {
            let mb = s.file_size.as_mb();
            assert!(
                (25.0..=2600.0).contains(&mb),
                "file size {mb} MB out of range"
            );
        }
    }

    #[test]
    fn initial_seeders_always_online_and_request_nothing() {
        let t = TraceBuilder::new(SynthConfig::default()).build(5);
        for s in &t.swarms {
            let p = t.peer(s.initial_seeder).unwrap();
            assert!(p.online_at(Seconds::ZERO));
            assert!(p.online_at(Seconds(t.horizon.0 - 1)));
            assert!(p.requests.is_empty());
        }
    }

    #[test]
    fn non_seeders_have_requests_and_bounded_sessions() {
        let t = TraceBuilder::new(SynthConfig::default()).build(9);
        let seeders: Vec<PeerId> = t.swarms.iter().map(|s| s.initial_seeder).collect();
        let mut with_requests = 0;
        for p in &t.peers {
            if seeders.contains(&p.peer) {
                continue;
            }
            if !p.requests.is_empty() {
                with_requests += 1;
            }
            for s in &p.sessions {
                assert!(s.end <= t.horizon);
            }
        }
        assert!(with_requests > 80, "most peers should request files");
    }

    #[test]
    fn small_config_works() {
        let cfg = SynthConfig {
            peers: 5,
            swarms: 2,
            horizon: Seconds::from_days(1),
            ..Default::default()
        };
        let t = TraceBuilder::new(cfg).build(0);
        t.validate().unwrap();
        assert_eq!(t.peer_count(), 5);
    }

    #[test]
    fn bandwidth_classes_are_applied() {
        let cfg = SynthConfig {
            peers: 60,
            bandwidth_classes: vec![BandwidthClass::adsl(0.5), BandwidthClass::fibre(0.5)],
            ..Default::default()
        };
        let t = TraceBuilder::new(cfg).build(3);
        t.validate().unwrap();
        let adsl = t
            .peers
            .iter()
            .skip(10) // skip archival seeders
            .filter(|p| p.up_bw == Bandwidth::from_kbps(512))
            .count();
        let fibre = t
            .peers
            .iter()
            .skip(10)
            .filter(|p| p.up_bw == Bandwidth::from_mbps(10))
            .count();
        assert_eq!(adsl + fibre, 50, "every regular peer is in a class");
        assert!(adsl > 10 && fibre > 10, "roughly even mix: {adsl}/{fibre}");
    }

    #[test]
    fn empty_classes_fall_back_to_flat_profile() {
        let t = TraceBuilder::new(SynthConfig::default()).build(4);
        for p in t.peers.iter().skip(10) {
            assert_eq!(p.down_bw, Bandwidth::from_mbps(3));
            assert_eq!(p.up_bw, Bandwidth::from_kbps(512));
        }
    }

    #[test]
    fn requests_lie_within_horizon() {
        let t = TraceBuilder::new(SynthConfig::default()).build(11);
        for p in &t.peers {
            for r in &p.requests {
                assert!(r.time < t.horizon);
            }
        }
    }
}
