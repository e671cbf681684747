//! The Tribler deployment study model (§5.5, Figure 4).
//!
//! The paper reports one month of measurements from a customized peer
//! participating in the live Tribler network (~5000 peers observed):
//!
//! * Figure 4a — upload − download of every observed peer, on a
//!   symmetric log scale from −1 TB to +1 TB: a majority downloaded
//!   more than they uploaded, a spike of exactly-zero peers that "have
//!   most likely just installed the client", and a few very generous
//!   altruists with tens of GB contributed;
//! * Figure 4b — the CDF of the observer-computed reputation of those
//!   peers: about 40 % negative, roughly half ≈ 0, and only ~10 %
//!   positive.
//!
//! We cannot rerun the live measurement, so [`community`] generates a
//! synthetic open community with a heavy-tailed contribution imbalance
//! (log-normal transfer volumes, install-only peers, a sharing-ratio
//! distribution skewed below 1, rare altruists) and [`observer`]
//! replays the instrumented peer: it meets community members over a
//! month, collects their BarterCast messages, and computes Equation 1
//! reputations over the resulting subjective graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod community;
pub mod observer;

pub use community::{Community, CommunityConfig};
pub use observer::{DeploymentReport, Observer, ObserverConfig};
