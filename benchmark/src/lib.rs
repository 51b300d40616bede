//! # selprop-benchmark
//!
//! A repeatable serving-and-batch benchmark for the selprop engine:
//! four fixed-script workloads, per-op-min timing over replayed
//! episodes, and a traced run that replays the same script against the
//! layers unbundled. See `README.md` for the metric and workload tables
//! and `NOISE.md` for the measured repeatability behind every bound.

#![warn(missing_docs)]

pub mod catalog;
pub mod compare;
pub mod driver;
pub mod json;
pub mod kernels;
pub mod oracle;
pub mod run;
pub mod script;
pub mod stats;
pub mod trace;
