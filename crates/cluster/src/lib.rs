//! # tebaldi-cluster
//!
//! Sharded multi-database federation for the Tebaldi reproduction: runs N
//! independent [`Database`](tebaldi_core::Database) shards — each with its
//! own hierarchical CC tree, multiversion store, and WAL — behind a
//! [`ShardRouter`], and stitches cross-shard transactions together with a
//! two-phase-commit [`TxnCoordinator`].
//!
//! The shard boundary is a *declared operation interface*, not code: every
//! interaction is a serializable [`ShardRequest`]/[`ShardResponse`] pair
//! naming a transaction body by [`ProcId`](tebaldi_core::ProcId) in the
//! shard's [`ProcRegistry`](tebaldi_core::ProcRegistry), with encoded
//! arguments. Requests travel over a pluggable [`ShardTransport`]:
//!
//! ```text
//!                 ┌────────────────────────────────────────────┐
//!   Cluster ──────│ ShardRequest { Execute | Prepare | Commit  │
//!   (router, 2PC  │   | Abort | SnapshotRead | Flush | Metrics │
//!   coordinator)  │   }                                        │
//!                 └────────────────┬───────────────────────────┘
//!                                  │  ShardTransport
//!                   ┌──────────────┴─────────────┐
//!            InProcessTransport            TcpTransport
//!            (mailbox enum calls,          (length-prefixed frames,
//!             zero-copy fast path)          per-shard server loops)
//!                   └──────────────┬─────────────┘
//!                         ShardWorkers + ProcRegistry
//!                         (per-shard pools, Database)
//! ```
//!
//! The execution paths:
//!
//! * **single-shard fast path** — the router classifies the transaction's
//!   partition keys; when they land on one shard, the call ships the
//!   procedure id + arguments to that shard
//!   ([`Cluster::execute_single`] — inline on the calling thread for the
//!   in-process transport, a frame round trip over TCP);
//! * **multi-shard 2PC** — each participant shard *prepares* its part
//!   (execute, validate, wait dependencies, flush a `Prepare` WAL record,
//!   keep the locks), the coordinator logs the commit decision durably (the
//!   commit point), and only then do the shards commit
//!   ([`Cluster::execute_multi`]);
//! * **recovery** — a shard crash between prepare and decision leaves the
//!   transaction in doubt; [`recover_cluster`] resolves it against the
//!   coordinator's decision log (presumed abort when no decision exists).
//!
//! The crate sits between `tebaldi-core` and the workloads in the
//! dependency stack: `storage → cc → core → cluster → workloads/bench`.
//!
//! ## Observability
//!
//! Every layer records into `tebaldi-obs`: shard engines keep per-procedure
//! latency histograms and pipeline counters in their own
//! [`MetricsRegistry`](tebaldi_obs::MetricsRegistry); the coordinator
//! (`cluster.*`, `coord.*`, 2PC-phase histograms) and the TCP transport
//! (`transport.*`) count in the cluster's. [`Cluster::metrics`] merges
//! everything into one [`MetricsSnapshot`](tebaldi_obs::MetricsSnapshot) by
//! fetching each shard's registry through the transport
//! ([`ShardRequest::Metrics`]), and [`ClusterStats`] and
//! [`CoordinatorStats`] are views of that snapshot.
//! Sampled transactions (`ClusterConfig::trace_sample_every`) additionally
//! carry a trace id across the shard boundary — including over the TCP wire
//! format — and leave coordinator + shard spans in the process trace sink
//! ([`tebaldi_obs::collect`]).

pub mod api;
pub mod cluster;
pub mod coordinator;
pub mod faults;
pub mod procs;
pub mod replication;
pub mod router;
pub mod tcp;
pub mod transport;
pub mod wire;
pub mod worker;

pub use api::{ShardRequest, ShardResponse, ShardResult};
pub use cluster::{
    recover_cluster, test_read_consistency, test_replication, test_transport, BatchKeySets,
    BatchTxn, Cluster, ClusterBuilder, ClusterClock, ClusterConfig, ClusterStats, ReadConsistency,
    ReadPart, ShardPart, SnapshotHandle,
};
pub use coordinator::{CoordinatorStats, TxnCoordinator};
pub use faults::{FaultPlan, FaultyTransport, LogLinkVerdict, ReplicaLinkLane};
pub use replication::{
    truncate_divergent_suffix, ReplicaNode, ReplicationConfig, ShardReplication, StaleFollower,
};
pub use router::{Partitioning, Routing, ShardRouter};
pub use tcp::{ReconnectPolicy, TcpShardServer, TcpTransport};
pub use transport::{InProcessTransport, ShardTransport, TransportKind};
pub use worker::{ShardWorkers, Ticket, Vote};
