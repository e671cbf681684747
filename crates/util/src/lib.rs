//! Shared utilities for the BarterCast reproduction.
//!
//! This crate holds the small, dependency-light building blocks used by
//! every other crate in the workspace:
//!
//! * [`fxhash`] — an FxHash-style fast hasher plus [`FxHashMap`] /
//!   [`FxHashSet`] aliases, per the Rust Performance Book's guidance on
//!   hashing hot integer keys.
//! * [`units`] — byte/bandwidth/time units used throughout the simulator
//!   (the paper reasons in bytes, KBps, and days).
//! * [`stats`] — streaming statistics, percentiles and empirical CDFs
//!   used by the experiment harness.
//! * [`csv`] — a minimal CSV writer for experiment output.
//! * [`plot`] — ASCII line/scatter plots so figure shapes can be checked
//!   directly in a terminal.
//! * [`series`] — time-series accumulation helpers (per-day averages as
//!   plotted in the paper's Figures 1–3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod fxhash;
pub mod plot;
pub mod series;
pub mod stats;
pub mod units;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
