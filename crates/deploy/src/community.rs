//! Synthetic open-community generation.
//!
//! Models the Tribler population the customized peer observed:
//!
//! * a fraction of **install-only** peers with exactly zero transfer
//!   (the paper: peers at zero "have most likely just installed the
//!   client without using it");
//! * active peers whose download volume is log-normal (most move a few
//!   hundred MB to a few GB over a month, heavy upper tail into TB);
//! * per-peer **sharing ratios** skewed below 1 — "a majority of the
//!   peers has downloaded more than what they have uploaded" — with a
//!   small altruist minority whose ratio is far above 1;
//! * an open-network imbalance knob: Tribler peers also exchange data
//!   with non-Tribler BitTorrent clients, so observed upload and
//!   download totals need not balance globally (§5.5 notes this
//!   explicitly).
//!
//! Pairwise transfers are materialized by weighted matching: repeated
//! draws pick an uploader (weighted by unassigned upload volume) and a
//! downloader (weighted by unassigned download volume), creating the
//! contribution edges the gossip layer will report.

use bartercast_util::units::{Bytes, PeerId};
use bartercast_util::FxHashMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr_shim::sample_lognormal;

/// Minimal log-normal sampling without the `rand_distr` crate
/// (outside the allowed dependency set): Box–Muller over `Rng`.
mod rand_distr_shim {
    use rand::Rng;

    /// Sample `exp(mu + sigma * Z)` with `Z ~ N(0,1)`.
    pub fn sample_lognormal<R: Rng>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mu + sigma * z).exp()
    }
}

/// Median download volume of active peers, in MB: most move a few
/// hundred MB to a few GB over the month the §5.5 observer watches
/// (DESIGN.md, "Substitutions", item 2).
const MEDIAN_DOWNLOAD_MB: f64 = 1500.0;

/// Log-normal sigma of download volumes: the heavy upper tail into TB
/// that Figure 4a shows.
const DOWNLOAD_SIGMA: f64 = 1.6;

/// Mean number of transfer partners per active peer, which bounds how
/// many observed peers share a partner with the observer and so the
/// negative mass of Figure 4b (EXPERIMENTS.md, Figure 4b).
const MEAN_DEGREE: f64 = 18.0;

/// Community generation parameters.
#[derive(Debug, Clone)]
pub struct CommunityConfig {
    /// Number of peers the observer will have seen (paper: ~5000).
    pub peers: usize,
    /// Fraction with exactly zero transfers (fresh installs).
    pub install_only_fraction: f64,
    /// Fraction of active peers that are altruists (ratio >> 1).
    pub altruist_fraction: f64,
}

impl Default for CommunityConfig {
    fn default() -> Self {
        CommunityConfig {
            peers: 5000,
            install_only_fraction: 0.25,
            altruist_fraction: 0.02,
        }
    }
}

/// One generated community: ground-truth totals plus the pairwise
/// transfer edges.
#[derive(Debug, Clone)]
pub struct Community {
    /// Ground-truth per-peer upload totals.
    pub upload: Vec<Bytes>,
    /// Ground-truth per-peer download totals.
    pub download: Vec<Bytes>,
    /// Directed transfer edges `(from, to) -> bytes`.
    pub transfers: FxHashMap<(PeerId, PeerId), Bytes>,
}

impl Community {
    /// Generate a community. Deterministic per `(config, seed)`.
    pub fn generate(config: &CommunityConfig, seed: u64) -> Self {
        assert!(config.peers >= 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = config.peers;
        let mu = MEDIAN_DOWNLOAD_MB.ln();

        let mut download_target = vec![0f64; n]; // in MB
        let mut upload_target = vec![0f64; n];
        for i in 0..n {
            if rng.gen_bool(config.install_only_fraction) {
                continue; // install-only: both stay zero
            }
            let down = sample_lognormal(&mut rng, mu, DOWNLOAD_SIGMA);
            // sharing ratio: most below 1 (lazy tendency), altruists far above
            let ratio = if rng.gen_bool(config.altruist_fraction) {
                rng.gen_range(2.0..20.0)
            } else {
                // Beta-ish skew toward low ratios: cube a uniform.
                // P(ratio > 1) ≈ 14% of actives ≈ 10% of all peers,
                // matching Figure 4's "only 10% have uploaded more
                // than they have downloaded".
                let u: f64 = rng.gen_range(0.0..1.0);
                u * u * u * 1.6
            };
            download_target[i] = down;
            upload_target[i] = down * ratio;
        }

        // Materialize pairwise transfers by weighted matching in MB
        // chunks. Uploads and downloads need not globally balance (the
        // open-network effect): leftover mass on either side is
        // attributed to "external" BitTorrent clients and simply kept
        // in the totals.
        let mut transfers: FxHashMap<(PeerId, PeerId), Bytes> = FxHashMap::default();
        let mut up_left = upload_target.clone();
        let mut down_left = download_target.clone();
        let target_edges = (n as f64 * MEAN_DEGREE) as usize;
        let mut up_pool: Vec<usize> = (0..n).filter(|&i| up_left[i] > 1.0).collect();
        let mut down_pool: Vec<usize> = (0..n).filter(|&i| down_left[i] > 1.0).collect();
        for _ in 0..target_edges {
            if up_pool.is_empty() || down_pool.is_empty() {
                break;
            }
            let ui = up_pool[rng.gen_range(0..up_pool.len())];
            let di = down_pool[rng.gen_range(0..down_pool.len())];
            if ui == di {
                continue;
            }
            // transfer a random share of the smaller remaining side
            let amount = (up_left[ui].min(down_left[di]) * rng.gen_range(0.2..0.9)).max(1.0);
            up_left[ui] -= amount;
            down_left[di] -= amount;
            let bytes = Bytes((amount * 1024.0 * 1024.0) as u64);
            *transfers
                .entry((PeerId(ui as u32), PeerId(di as u32)))
                .or_insert(Bytes::ZERO) += bytes;
            if up_left[ui] <= 1.0 {
                up_pool.retain(|&x| x != ui);
            }
            if down_left[di] <= 1.0 {
                down_pool.retain(|&x| x != di);
            }
        }

        // Ground-truth totals are the *targets* (they include transfer
        // volume with external, non-Tribler clients).
        let upload = upload_target
            .iter()
            .map(|&mb| Bytes((mb * 1024.0 * 1024.0) as u64))
            .collect();
        let download = download_target
            .iter()
            .map(|&mb| Bytes((mb * 1024.0 * 1024.0) as u64))
            .collect();
        Community {
            upload,
            download,
            transfers,
        }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.upload.len()
    }

    /// True iff the community has no peers.
    pub fn is_empty(&self) -> bool {
        self.upload.is_empty()
    }

    /// Ground-truth net contribution (upload − download) per peer, in
    /// bytes (possibly negative) — the quantity behind Figure 4a.
    pub fn net_contributions(&self) -> Vec<f64> {
        self.upload
            .iter()
            .zip(&self.download)
            .map(|(u, d)| u.0 as f64 - d.0 as f64)
            .collect()
    }

    /// The peers a given peer uploaded to, with amounts.
    pub fn uploads_of(&self, peer: PeerId) -> Vec<(PeerId, Bytes)> {
        self.transfers
            .iter()
            .filter(|(&(from, _), _)| from == peer)
            .map(|(&(_, to), &b)| (to, b))
            .collect()
    }

    /// The peers a given peer downloaded from, with amounts.
    pub fn downloads_of(&self, peer: PeerId) -> Vec<(PeerId, Bytes)> {
        self.transfers
            .iter()
            .filter(|(&(_, to), _)| to == peer)
            .map(|(&(from, _), &b)| (from, b))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CommunityConfig {
        CommunityConfig {
            peers: 300,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic() {
        let a = Community::generate(&small(), 5);
        let b = Community::generate(&small(), 5);
        assert_eq!(a.upload, b.upload);
        assert_eq!(a.transfers.len(), b.transfers.len());
    }

    #[test]
    fn install_only_peers_exist() {
        let c = Community::generate(&small(), 1);
        let zeros = c
            .upload
            .iter()
            .zip(&c.download)
            .filter(|(u, d)| u.is_zero() && d.is_zero())
            .count();
        // ~25% of 300
        assert!(zeros > 30 && zeros < 150, "zeros = {zeros}");
    }

    #[test]
    fn majority_downloads_exceed_uploads() {
        let c = Community::generate(&CommunityConfig::default(), 2);
        let nets = c.net_contributions();
        let negative = nets.iter().filter(|&&x| x < 0.0).count();
        let positive = nets.iter().filter(|&&x| x > 0.0).count();
        assert!(
            negative > positive * 2,
            "paper shape: majority negative (neg={negative}, pos={positive})"
        );
    }

    #[test]
    fn altruists_contribute_tens_of_gb() {
        let c = Community::generate(&CommunityConfig::default(), 3);
        let max_net = c
            .net_contributions()
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max_net > 10.0 * 1024.0 * 1024.0 * 1024.0,
            "expected an altruist above 10 GB, max {max_net}"
        );
    }

    #[test]
    fn transfers_reference_valid_peers_and_positive_amounts() {
        let c = Community::generate(&small(), 4);
        for (&(f, t), &b) in &c.transfers {
            assert!((f.index()) < c.len());
            assert!((t.index()) < c.len());
            assert_ne!(f, t);
            assert!(!b.is_zero());
        }
        assert!(!c.transfers.is_empty());
    }

    #[test]
    fn uploads_and_downloads_of_are_consistent() {
        let c = Community::generate(&small(), 6);
        let (&(f, t), &b) = c.transfers.iter().next().unwrap();
        assert!(c.uploads_of(f).iter().any(|&(to, amt)| to == t && amt == b));
        assert!(c
            .downloads_of(t)
            .iter()
            .any(|&(from, amt)| from == f && amt == b));
    }
}
