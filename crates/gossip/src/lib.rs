//! An epidemic Peer Sampling Service (PSS).
//!
//! BarterCast assumes "that peers can discover other peers by using a
//! Peer Sampling Service" whose implementation is transparent to the
//! protocol (§3.4); Tribler uses the BuddyCast epidemic protocol. This
//! crate provides a faithful random-view PSS in the Cyclon/Newscast
//! family:
//!
//! * every peer keeps a bounded [`PartialView`] of node descriptors
//!   with ages;
//! * on each gossip cycle the driver ages the view ([`PssNode::tick`])
//!   and picks the exchange partner; the two peers then swap random
//!   subsets of their views ([`shuffle`]);
//! * a full view replaces its oldest descriptor with a younger one, so
//!   stale peers wash out of views.
//!
//! The partner choice belongs to the driver, not to this crate. The
//! simulator drives one [`PssNode`] per peer and meets a
//! [`PssNode::sample`]d peer, which also serves BitTorrent peer
//! discovery; the live node calls [`PssNode::sample_many`] on its
//! exchange tick.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pss;
pub mod view;

pub use pss::{shuffle, PssConfig, PssNode};
pub use view::{Descriptor, PartialView};
