//! # tebaldi-workloads
//!
//! The benchmark workloads of the Tebaldi evaluation and the closed-loop
//! driver that runs them:
//!
//! * [`tpcc`] — TPC-C adapted to the key-value interface (§4.6.1), with
//!   every CC-tree configuration of Fig. 4.6 and the hot_item extension of
//!   §4.6.3,
//! * [`seats`] — the SEATS airline-reservation benchmark (§4.6.2) with its
//!   monolithic, two-layer and per-flight three-layer configurations, plus
//!   the flight-partitioned cluster variant ([`seats::cluster`]),
//! * [`micro`] — the microbenchmarks of §4.6.4 (cross-group mechanisms and
//!   hierarchies) and §4.6.5 (layer overhead),
//! * [`driver`] / [`metrics`] — closed-loop clients, latency recording and
//!   merged benchmark results,
//! * [`hops`] — the hop reader the read-only bodies are written against,
//!   served by a [`Txn`](tebaldi_core::Txn) or by a cluster snapshot.

pub mod driver;
pub mod hops;
pub mod metrics;
pub mod micro;
pub mod seats;
pub mod tpcc;
pub mod workload;

pub use driver::{
    bench_cluster_config, bench_config, run_benchmark, run_cluster_benchmark, BenchOptions,
};
pub use hops::{HopReader, KeyGroup};
pub use metrics::{process_cpu_ms, BenchResult, LatencyStats};
pub use workload::{ClusterWorkload, WorkUnit, Workload};
