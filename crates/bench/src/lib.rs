//! # tebaldi-bench
//!
//! The experiment harness of the Tebaldi reproduction. One binary,
//! `figures`, regenerates every table and figure of the paper's evaluation
//! (§3.4.1, §4.6, §5.6) plus the cluster scale-out sweeps and the engine
//! scaling probe:
//!
//! ```text
//! figures <id>... | all [--quick] [--json PATH]
//! ```
//!
//! Each experiment id is the `<id>` of the `BENCH_<id>.json` trajectory
//! it rewrites in the working directory; `--json PATH` writes the one
//! experiment named to PATH instead. Every report carries a `provenance`
//! block (cores, commit, quick or full, seed, seconds per cell, warm-up).
//! `bench_diff` compares two sets of trajectories.
//!
//! [`experiments`] is the table of experiments; most are data for the
//! shared runners — the single-node leg loop ([`legs`]), the cluster leg
//! ([`cluster`]) and the automatic-configuration loop ([`autoconf`]) —
//! and every report goes through [`common::Report::write`]. The Criterion
//! benchmarks under `benches/` cover the hot code paths (storage, locking,
//! SSI validation, RP steps, profiler scoring).

pub mod autoconf;
pub mod chapter5;
pub mod cluster;
pub mod common;
pub mod engine_scaling;
pub mod experiments;
pub mod legs;
