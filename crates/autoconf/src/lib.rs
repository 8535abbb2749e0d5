//! # tebaldi-autoconf
//!
//! Automatic MCC configuration (Chapter 5 of the dissertation): the
//! machinery that lets Tebaldi monitor its own workload, detect the data
//! contention bottleneck, propose new hierarchical-MCC configurations and
//! switch to the best one online.
//!
//! * [`profiler`] — the blocking-time sampler and the conflict-edge scoring
//!   with nested-waiting re-attribution (§5.3.2),
//! * [`latency_profiler`] — the Callas-style latency-growth technique used
//!   as the negative baseline of Fig. 5.5 (§5.3.1),
//! * [`optimizer`] — the Case 1/2/3 configuration rewrites with CC-specific
//!   filters and preprocessing (§5.4),
//! * [`controller`] — the iterative analysis → optimization → testing loop
//!   (Fig. 5.1); the reconfiguration protocols themselves (§5.5) live in
//!   `tebaldi-core::reconfig` because they manipulate the engine.

pub mod controller;
pub mod latency_profiler;
pub mod optimizer;
pub mod profiler;

pub use controller::{run_auto_configuration, AutoConfOptions, AutoConfReport, IterationRecord};
pub use optimizer::{propose, Candidate, OptimizerOptions};
pub use profiler::{analyze, ConflictEdge, ProfileReport};
