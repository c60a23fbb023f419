//! The repository benchmark: four workloads built from the workspace
//! crates' public API, timed from outside through transparent decorators
//! around the control-plane tiers and the arrival stream. See README.md.

pub mod metrics;
pub mod probe;
pub mod stats;
pub mod workloads;
