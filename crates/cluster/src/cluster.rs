//! The cluster facade: N independent [`Database`] shards behind a
//! [`ShardRouter`], per-shard worker pools, a pluggable [`ShardTransport`],
//! and the cross-shard 2PC coordinator.

use crate::api::{ShardRequest, ShardResponse, ShardResult};
use crate::coordinator::{CoordinatorStats, TxnCoordinator};
use crate::faults::{FaultPlan, FaultyTransport};
use crate::replication::{ReplicationConfig, ShardReplication};
use crate::router::{Partitioning, Routing, ShardRouter};
use crate::tcp::TcpShardServer;
use crate::transport::{InProcessTransport, ShardTransport, TransportFactory, TransportKind};
use crate::worker::{ShardWorkers, Ticket, Vote};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tebaldi_cc::{CcResult, CcTreeSpec, ProcedureSet};
use tebaldi_core::{Database, DbConfig, Hlc, ProcId, ProcRegistry, ProcedureCall};
use tebaldi_obs::{self as obs, Counter, Histogram, MetricsRegistry, MetricsSnapshot, TraceCtx};
use tebaldi_storage::recovery::{recover_with_resolver, RecoveryReport};
use tebaldi_storage::wal::{LogDevice, MemLogDevice};
use tebaldi_storage::{Key, MvStore, Value};

/// A monotonic nanosecond clock the cluster uses to measure the
/// prepared-lock window. Passed in so tests can inject a deterministic
/// clock; the default anchors `Instant` at cluster construction.
pub type ClusterClock = Arc<dyn Fn() -> u64 + Send + Sync>;

fn default_clock() -> ClusterClock {
    let anchor = std::time::Instant::now();
    Arc::new(move || anchor.elapsed().as_nanos() as u64)
}

/// Cluster-level configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of database shards.
    pub shards: usize,
    /// Worker threads serving each shard's mailbox.
    pub workers_per_shard: usize,
    /// Engine configuration applied to every shard.
    pub db_config: DbConfig,
    /// Partition-key → shard mapping.
    pub partitioning: Partitioning,
    /// Upper bound on how long the coordinator waits for one shard's
    /// prepare vote. A wedged shard then counts as a "no" vote (the
    /// transaction aborts with `CcError::Internal`) instead of hanging
    /// `execute_multi` forever. The same bound applies to phase-two
    /// decision acknowledgements, so a shard that wedges *after* voting
    /// cannot hang the finalize step either (the decision is durable; the
    /// straggler resolves it on recovery).
    pub prepare_timeout_ms: u64,
    /// How the coordinator reaches the shards: the in-process mailbox
    /// fast path, or length-prefixed frames over TCP loopback sockets.
    pub transport: TransportKind,
    /// Upper bound (at least 1) on body-running requests
    /// (`Execute`/`Prepare`/`SnapshotRead`) one shard may have in flight
    /// at once — executing on a worker or parked in the hardening stage of
    /// the prepare pipeline. (A committed execute awaiting only its
    /// durability acknowledgement releases its slot early: it holds no
    /// locks and runs no body.) A worker appends a prepare's WAL record
    /// without waiting for the flush, hands the continuation to the
    /// shard's completion loop, and starts the next body, so with a window
    /// above `workers_per_shard` one worker multiplexes many in-flight
    /// prepares. The value is only a size — every value runs the same
    /// pipeline, `1` keeps one body in flight per shard. Admission beyond
    /// the bound queues (backpressure); over TCP the bound also caps
    /// outstanding body-running requests per shard connection, with
    /// submissions failing after `prepare_timeout_ms` if the window never
    /// opens (a wedged shard's full pipeline must not hang queued
    /// requests).
    pub max_inflight_per_shard: usize,
    /// Distributed-trace sampling rate: every Nth transaction entering the
    /// cluster gets a trace id that is propagated to its shards (over the
    /// wire too) and collects coordinator + shard spans in the process
    /// trace sink. `0` disables tracing entirely; `1` traces everything.
    pub trace_sample_every: u64,
    /// When non-zero, a *sampled* transaction whose end-to-end latency
    /// exceeds this threshold dumps its full structured trace into the
    /// slow-trace buffer, drained per cluster via
    /// [`Cluster::take_slow_traces`]. The threshold is armed for this
    /// cluster's trace scope only; other clusters in the process keep
    /// their own. `0` arms nothing.
    pub slow_trace_threshold_ms: u64,
    /// When set, the cluster's transport is wrapped in a
    /// [`FaultyTransport`] injecting the plan's deterministic
    /// drop/delay/duplicate/partition schedule.
    /// Chaos-test machinery; `None` in every production configuration.
    pub fault_plan: Option<FaultPlan>,
    /// When set, every shard primary ships its WAL to
    /// `replication.replicas` backups and the group-commit completion
    /// loop waits for `replication.quorum` acks (bounded by
    /// `replication.ack_timeout_ms`) before a hardened batch is
    /// acknowledged. `None` runs unreplicated single-copy shards.
    pub replication: Option<ReplicationConfig>,
    /// The consistency level reads run at when the caller does not pick
    /// one explicitly (workload read profiles route through this, so one
    /// config/env switch moves a whole benchmark or test run between the
    /// vote path and the HLC snapshot path).
    pub default_read_consistency: ReadConsistency,
}

impl ClusterConfig {
    /// A small cluster configuration for tests: range partitioning with
    /// span 1 (consecutive partition keys round-robin over the shards), two
    /// workers per shard, the test engine config. The transport honors
    /// `TEBALDI_TEST_TRANSPORT=tcp` so CI can run the whole cluster test
    /// group over the wire protocol.
    pub fn for_tests(shards: usize) -> Self {
        ClusterConfig {
            shards,
            workers_per_shard: 2,
            db_config: DbConfig::for_tests(),
            partitioning: Partitioning::Range { span: 1 },
            prepare_timeout_ms: 10_000,
            transport: test_transport(),
            max_inflight_per_shard: 32,
            // Tracing off under test by default (tests that assert on
            // traces opt in explicitly). Scoped trace ids keep parallel
            // clusters isolated in the shared sink either way.
            trace_sample_every: 0,
            slow_trace_threshold_ms: 0,
            fault_plan: None,
            replication: test_replication(),
            default_read_consistency: test_read_consistency(),
        }
    }

    /// Benchmark configuration: range partitioning with span 1 and enough
    /// workers to keep a shard busy under closed-loop load.
    pub fn for_benchmarks(shards: usize) -> Self {
        ClusterConfig {
            shards,
            workers_per_shard: 4,
            db_config: DbConfig::for_benchmarks(),
            partitioning: Partitioning::Range { span: 1 },
            prepare_timeout_ms: 10_000,
            transport: TransportKind::InProcess,
            max_inflight_per_shard: 32,
            // Default sampling: one traced transaction per 64 keeps the
            // observability cost off the bench hot path.
            trace_sample_every: 64,
            slow_trace_threshold_ms: 0,
            fault_plan: None,
            replication: None,
            default_read_consistency: ReadConsistency::Strong,
        }
    }

    /// The prepare-vote (and decision-ack) timeout as a [`Duration`].
    pub fn prepare_timeout(&self) -> Duration {
        Duration::from_millis(self.prepare_timeout_ms)
    }
}

/// The transport under test: `TEBALDI_TEST_TRANSPORT=tcp` switches the
/// cluster test group onto the wire protocol (the CI matrix runs both).
pub fn test_transport() -> TransportKind {
    match std::env::var("TEBALDI_TEST_TRANSPORT").as_deref() {
        Ok("tcp") => TransportKind::Tcp,
        _ => TransportKind::InProcess,
    }
}

/// The replication setup under test: `TEBALDI_TEST_REPLICAS=n` (n > 0)
/// runs the cluster test group with n backups per shard and a majority
/// quorum, so CI can exercise the quorum-gated commit path across the
/// whole suite.
pub fn test_replication() -> Option<ReplicationConfig> {
    match std::env::var("TEBALDI_TEST_REPLICAS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n > 0 => Some(ReplicationConfig::majority(n)),
        _ => None,
    }
}

/// The default read consistency under test:
/// `TEBALDI_TEST_READ_CONSISTENCY=snapshot` (or `bounded`) moves every
/// default-consistency read in the test suite onto the HLC snapshot path
/// (or the follower path), so CI can run the whole cluster group at each
/// level.
pub fn test_read_consistency() -> ReadConsistency {
    match std::env::var("TEBALDI_TEST_READ_CONSISTENCY").as_deref() {
        Ok("snapshot") => ReadConsistency::Snapshot,
        Ok("bounded") => ReadConsistency::BoundedStaleness {
            max_lag: Duration::from_millis(500),
        },
        _ => ReadConsistency::Strong,
    }
}

/// The phase-one vote tickets of one multi-shard transaction, tagged with
/// their shards.
type VoteTickets = Vec<(usize, Ticket<ShardResult>)>;

/// One shard's part of a multi-shard transaction: pure data — a registered
/// procedure id plus its encoded arguments — so the same part can cross a
/// mailbox or a socket.
#[derive(Clone, Debug)]
pub struct ShardPart {
    /// Target shard.
    pub shard: usize,
    /// The per-shard procedure call (type + instance seed + promises).
    pub call: ProcedureCall,
    /// The registered transaction body to run.
    pub proc: ProcId,
    /// Encoded arguments for the body.
    pub args: Vec<u8>,
}

impl ShardPart {
    /// Builds a part.
    pub fn new(shard: usize, call: ProcedureCall, proc: ProcId, args: Vec<u8>) -> Self {
        ShardPart {
            shard,
            call,
            proc,
            args,
        }
    }
}

/// How a read observes the cluster — the one knob of the unified read API
/// ([`Cluster::read`] / [`Cluster::execute_read`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadConsistency {
    /// Serializable: the read runs as a read-only transaction through the
    /// regular execute/2PC machinery, serializing at its vote point
    /// against every concurrent writer. Linearizable with respect to
    /// commits, and the only level that participates in the global
    /// serialization order.
    Strong,
    /// Snapshot isolation at a cluster-wide HLC snapshot: the coordinator
    /// picks one hybrid-logical-clock stamp and every shard answers from
    /// its lock-free version chains exactly as of that stamp — zero 2PC,
    /// zero locks, zero WAL records. A multi-shard commit is visible
    /// either on all shards or none (decision stamps are drawn above
    /// every participant's vote clock), so the snapshot is never torn. An
    /// uncommitted writer overlapping the snapshot is waited out, bounded
    /// by the cluster's prepare timeout.
    Snapshot,
    /// Served by each shard's most caught-up follower after it proves it
    /// has applied the primary's durable prefix as of the read, waiting
    /// up to `max_lag` for the follower to catch up (an error names the
    /// LSN gap when it cannot). Offloads the primary entirely. Shards
    /// without replication fall back to [`ReadConsistency::Snapshot`].
    BoundedStaleness {
        /// How long a lagging follower may take to catch up before the
        /// read refuses rather than return stale data.
        max_lag: Duration,
    },
}

/// One shard's slice of a multi-key read: the target shard plus the keys
/// it owns. The read-side analogue of [`ShardPart`].
#[derive(Clone, Debug)]
pub struct ReadPart {
    /// Target shard.
    pub shard: usize,
    /// The keys to read there.
    pub keys: Vec<Key>,
}

impl ReadPart {
    /// Builds a read part.
    pub fn new(shard: usize, keys: Vec<Key>) -> Self {
        ReadPart { shard, keys }
    }
}

/// The keys a batched transaction declares it will touch, used by the
/// dependency-graph batch scheduler to order conflicting transactions
/// instead of letting the CC layer abort them. Declarations are a
/// performance hint, not a contract: the mechanisms still validate every
/// actual access, so an incomplete declaration costs retries, never
/// correctness.
#[derive(Clone, Debug, Default)]
pub struct BatchKeySets {
    /// Keys the transaction reads (and does not write).
    pub reads: Vec<Key>,
    /// Keys the transaction writes.
    pub writes: Vec<Key>,
}

impl BatchKeySets {
    /// Builds a declaration from read and write key sets.
    pub fn new(reads: Vec<Key>, writes: Vec<Key>) -> Self {
        BatchKeySets { reads, writes }
    }

    /// A write-only declaration (the common case for update procedures).
    pub fn writes(writes: Vec<Key>) -> Self {
        BatchKeySets {
            reads: Vec::new(),
            writes,
        }
    }
}

/// One multi-shard transaction inside a scheduled batch: its shard parts
/// plus an optional key-set declaration. Transactions without a
/// declaration always run in the first wave (exactly the pre-scheduling
/// overlapped path).
#[derive(Debug)]
pub struct BatchTxn {
    /// The per-shard parts, as for [`Cluster::execute_multi`].
    pub parts: Vec<ShardPart>,
    /// Declared read/write key sets, or `None` to opt out of scheduling.
    pub keys: Option<BatchKeySets>,
}

impl BatchTxn {
    /// A transaction with no declaration (first-wave, unscheduled).
    pub fn undeclared(parts: Vec<ShardPart>) -> Self {
        BatchTxn { parts, keys: None }
    }

    /// A transaction with a declared key-set footprint.
    pub fn declared(parts: Vec<ShardPart>, keys: BatchKeySets) -> Self {
        BatchTxn {
            parts,
            keys: Some(keys),
        }
    }
}

/// Aggregate counters across the cluster: a view of the merged metrics
/// snapshot ([`ClusterStats::from_metrics`] of [`Cluster::metrics`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterStats {
    /// Transactions committed across all shards (single- and multi-shard
    /// parts both count on their shard).
    pub committed: u64,
    /// Aborted attempts across all shards.
    pub aborted: u64,
    /// Single-shard fast-path transactions executed through the cluster.
    pub single_shard: u64,
    /// Multi-shard 2PC transactions driven to a commit decision.
    pub multi_shard: u64,
    /// Device flushes across every shard WAL plus the coordinator's
    /// decision log.
    pub flushes: u64,
    /// `flushes / committed` — the commit-path cost group commit and the
    /// vote-class optimizations drive down. Zero when nothing committed.
    pub flushes_per_commit: f64,
    /// Mean prepared-lock window in nanoseconds — last prepare vote
    /// collected → every decision applied — over the multi-shard
    /// transactions that actually parked a prepared participant (fully
    /// read-only and all-parts-self-aborted globals hold no locks across
    /// phase two and are excluded).
    pub prepared_lock_window_ns: u64,
    /// Participant parts that voted `ReadOnly` (committed at phase one,
    /// no prepare record, excluded from the decision).
    pub read_only_votes: u64,
    /// Flushes that concurrent transactions shared through group commit
    /// (each one a device flush saved).
    pub coalesced_flushes: u64,
    /// Request messages the transport put on the wire (zero in process).
    pub messages_sent: u64,
    /// Frame bytes the transport moved in either direction (zero in
    /// process).
    pub bytes_on_wire: u64,
    /// Successful transport re-dials after lost connections (zero in
    /// process; nonzero means the cluster rode out connection churn).
    pub reconnects: u64,
    /// Phase-two decisions whose acknowledgement did not arrive within the
    /// prepare timeout. The transaction outcome is unaffected (the
    /// decision is durable; the shard resolves it on recovery or late
    /// delivery), but each one means a shard wedged after voting.
    pub decision_ack_timeouts: u64,
    /// Mean nanoseconds a body-running request waited in a shard's
    /// submission queue before a worker picked it up — the *execute-wait*
    /// share of the prepare latency (scheduling, not hardware).
    pub prepare_queue_wait_ns: u64,
    /// Mean nanoseconds between a read-write prepare's body completion
    /// and its durable yes-vote acknowledgement — the *hardening* share
    /// (the WAL flush the completion loop batches across transactions).
    pub prepare_hardening_ns: u64,
    /// Peak number of simultaneously in-flight bodies observed on any
    /// shard (bounded by `max_inflight_per_shard`). Values above
    /// `workers_per_shard` prove requests overlapped beyond the worker
    /// count — the pipeline at work.
    pub max_pipeline_depth: u64,
    /// Batched transactions the dependency-graph scheduler deferred past
    /// the first wave because their declared key sets conflicted with an
    /// earlier batch-mate — each one a likely abort-and-retry converted
    /// into an ordered execution.
    pub batch_scheduled: u64,
    /// Batched transactions (scheduled or not) that still returned an
    /// error. Compared against `batch_scheduled` in the benches: the
    /// scheduler earns its keep when declared legs abort less at equal or
    /// better throughput.
    pub batch_aborts: u64,
    /// Bounded-staleness reads served by shard followers (zero without
    /// replication).
    pub follower_reads: u64,
    /// HLC snapshot reads served by the shards (each one a multi-key
    /// cross-shard read that ran with zero 2PC, zero locks, and zero WAL
    /// records).
    pub snapshot_reads: u64,
    /// Total nanoseconds snapshot reads spent waiting out uncommitted
    /// writers overlapping their snapshot stamp.
    pub snapshot_read_wait_ns: u64,
    /// Backup promotions performed (each installed a recovered backup as
    /// a shard's new primary).
    pub failovers: u64,
    /// Hardened batches acknowledged on local durability alone because
    /// the replica quorum missed its ack deadline — replication running
    /// degraded, not data loss on the primary.
    pub replica_acks_timed_out: u64,
    /// Coordinator activity.
    pub coordinator: CoordinatorStats,
}

impl ClusterStats {
    /// Reads the counters out of a merged cluster snapshot. `flushes` sums
    /// every shard WAL's device flushes (`durability.flushes` and
    /// `durability.group_flushes`) with the decision log's
    /// (`coord.decision_flushes`); `flushes_per_commit` divides by the
    /// committed transactions across all shards (`db.committed`, where each
    /// multi-shard part counts on its shard). The `transport.*` counters
    /// are zero in process.
    pub fn from_metrics(metrics: &MetricsSnapshot) -> Self {
        let count = |name: &str| metrics.counter(name).unwrap_or(0);
        let mean = |sum: &str, n: &str| count(sum).checked_div(count(n)).unwrap_or(0);
        let coordinator = CoordinatorStats::from_metrics(metrics);
        let committed = count("db.committed");
        let flushes = count("durability.flushes")
            + count("durability.group_flushes")
            + coordinator.decision_flushes;
        ClusterStats {
            committed,
            aborted: metrics
                .counters
                .iter()
                .filter(|(name, _)| name.starts_with("db.aborts."))
                .map(|&(_, n)| n)
                .sum(),
            single_shard: count("cluster.single_shard"),
            multi_shard: count("cluster.multi_shard"),
            flushes,
            flushes_per_commit: if committed > 0 {
                flushes as f64 / committed as f64
            } else {
                0.0
            },
            prepared_lock_window_ns: mean("cluster.lock_window_ns", "cluster.lock_windows"),
            read_only_votes: count("cluster.read_only_votes"),
            coalesced_flushes: count("durability.coalesced"),
            messages_sent: count("transport.messages_sent"),
            bytes_on_wire: count("transport.bytes_on_wire"),
            reconnects: count("transport.reconnects"),
            decision_ack_timeouts: count("cluster.decision_ack_timeouts"),
            prepare_queue_wait_ns: mean("pipeline.queue_wait_ns", "pipeline.queued"),
            prepare_hardening_ns: mean("pipeline.hardening_ns", "pipeline.hardened"),
            max_pipeline_depth: metrics.gauge("pipeline.max_depth").unwrap_or(0),
            batch_scheduled: count("cluster.batch_scheduled"),
            batch_aborts: count("cluster.batch_aborts"),
            follower_reads: count("replication.follower_reads"),
            snapshot_reads: count("snapshot.reads"),
            snapshot_read_wait_ns: count("snapshot.read_wait_ns"),
            failovers: count("replication.failovers"),
            replica_acks_timed_out: count("replication.acks_timed_out"),
            coordinator,
        }
    }
}

/// Builder for a [`Cluster`].
pub struct ClusterBuilder {
    config: ClusterConfig,
    procedures: ProcedureSet,
    registry: ProcRegistry,
    spec: Option<CcTreeSpec>,
    shard_logs: Option<Vec<Arc<dyn LogDevice>>>,
    decision_log: Option<Arc<dyn LogDevice>>,
    stores: Option<Vec<MvStore>>,
    clock: Option<ClusterClock>,
    transport_factory: Option<TransportFactory>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl ClusterBuilder {
    /// Starts a builder. The shard-procedure registry starts with the
    /// builtin KV procedures (see [`crate::procs`]).
    pub fn new(config: ClusterConfig) -> Self {
        let mut registry = ProcRegistry::new();
        crate::procs::register_builtins(&mut registry);
        ClusterBuilder {
            config,
            procedures: ProcedureSet::new(),
            registry,
            spec: None,
            shard_logs: None,
            decision_log: None,
            stores: None,
            clock: None,
            transport_factory: None,
            metrics: None,
        }
    }

    /// Registers the workload's procedure descriptions (shared by every
    /// shard).
    pub fn procedures(mut self, procedures: ProcedureSet) -> Self {
        self.procedures = procedures;
        self
    }

    /// Registers one shard procedure (transaction body) by id.
    pub fn shard_procedure(
        mut self,
        id: ProcId,
        body: impl Fn(&mut tebaldi_core::Txn<'_>, &[u8]) -> CcResult<Value> + Send + Sync + 'static,
    ) -> Self {
        self.registry.register_fn(id, body);
        self
    }

    /// Merges a whole registry of shard procedures (what
    /// `ClusterWorkload::register_procedures` fills in).
    pub fn shard_procedures(mut self, registry: ProcRegistry) -> Self {
        self.registry.merge(registry);
        self
    }

    /// Sets the MCC configuration installed on every shard.
    pub fn cc_spec(mut self, spec: CcTreeSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Uses specific per-shard WAL devices (defaults to in-memory devices).
    pub fn shard_logs(mut self, logs: Vec<Arc<dyn LogDevice>>) -> Self {
        self.shard_logs = Some(logs);
        self
    }

    /// Uses a specific coordinator decision-log device.
    pub fn decision_log(mut self, log: Arc<dyn LogDevice>) -> Self {
        self.decision_log = Some(log);
        self
    }

    /// Opens the shards over existing (e.g. recovered) stores.
    pub fn stores(mut self, stores: Vec<MvStore>) -> Self {
        self.stores = Some(stores);
        self
    }

    /// Installs a monotonic nanosecond clock for the prepared-lock-window
    /// measurement (tests inject a deterministic one; defaults to a
    /// process-monotonic `Instant` clock).
    pub fn clock(mut self, clock: ClusterClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Installs a custom transport factory, overriding
    /// [`ClusterConfig::transport`]. Tests use this to wrap the default
    /// transports (e.g. delaying decision acks to exercise the finalize
    /// timeout).
    pub fn transport_factory(mut self, factory: TransportFactory) -> Self {
        self.transport_factory = Some(factory);
        self
    }

    /// Installs the coordinator-side metrics registry (defaults to a fresh
    /// enabled registry). Passing [`MetricsRegistry::disabled`] turns the
    /// latency histograms off cluster-wide — every shard database inherits
    /// the enabled flag — which is the obs-off leg of the overhead bench.
    pub fn metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Builds and starts the cluster.
    pub fn build(self) -> Result<Cluster, String> {
        let mut spec = self.spec.ok_or("a CC-tree specification is required")?;
        // The builtin read-path calls ([`crate::procs::KV_READ_TYPE`])
        // must route to *some* CC group on every tree, or strong reads
        // through [`Cluster::read`] would fail on clusters that only
        // registered their workload types. Attach it to the first leaf
        // unless the spec already claims it — read-only multi-gets are
        // mechanism-agnostic.
        if !spec.types().contains(&crate::procs::KV_READ_TYPE) {
            fn first_leaf(
                node: &mut tebaldi_cc::CcNodeSpec,
            ) -> Option<&mut tebaldi_cc::CcNodeSpec> {
                if node.is_leaf() {
                    return Some(node);
                }
                node.children.iter_mut().find_map(first_leaf)
            }
            if let Some(leaf) = first_leaf(&mut spec.root) {
                leaf.txn_types.push(crate::procs::KV_READ_TYPE);
            }
        }
        let n = self.config.shards;
        if n == 0 {
            return Err("a cluster needs at least one shard".to_string());
        }
        let shard_logs = match self.shard_logs {
            Some(logs) => {
                if logs.len() != n {
                    return Err(format!("expected {n} shard logs, got {}", logs.len()));
                }
                logs
            }
            None => (0..n)
                .map(|_| Arc::new(MemLogDevice::new()) as Arc<dyn LogDevice>)
                .collect(),
        };
        let stores: Vec<Option<MvStore>> = match self.stores {
            Some(stores) => {
                if stores.len() != n {
                    return Err(format!("expected {n} stores, got {}", stores.len()));
                }
                stores.into_iter().map(Some).collect()
            }
            None => (0..n).map(|_| None).collect(),
        };

        let metrics = self
            .metrics
            .unwrap_or_else(|| Arc::new(MetricsRegistry::new()));
        let registry = Arc::new(self.registry);
        let replicas = self.config.replication.filter(|rcfg| rcfg.replicas > 0);
        let mut shards = Vec::with_capacity(n);
        let mut replication = Vec::with_capacity(n);
        for (index, (log, store)) in shard_logs.iter().zip(stores).enumerate() {
            let shard_metrics = Arc::new(if metrics.is_enabled() {
                MetricsRegistry::new()
            } else {
                MetricsRegistry::disabled()
            });
            // A replication group follows the shard's WAL device: it ships
            // only what `log.durable_len()` covers, so a follower's log is
            // always a durable prefix of its primary's. The database writes
            // through the group's handle on that device, whose every flush
            // wakes the shippers.
            let group = match replicas {
                Some(rcfg) => Some(ShardReplication::spawn(
                    index,
                    rcfg,
                    Arc::clone(log),
                    self.config.db_config.shards,
                    &shard_metrics,
                    self.config.fault_plan.as_ref(),
                )?),
                None => None,
            };
            let device = match &group {
                Some(group) => group.primary_log(),
                None => Arc::clone(log),
            };
            let mut builder = Database::builder(self.config.db_config.clone())
                .procedures(self.procedures.clone())
                .cc_spec(spec.clone())
                .metrics(shard_metrics)
                .log_device(device);
            if let Some(store) = store {
                builder = builder.store(store);
            }
            let db = Arc::new(builder.build().inspect_err(|_| {
                if let Some(group) = &group {
                    group.shutdown();
                }
            })?);
            let workers = ShardWorkers::spawn(
                index,
                db,
                self.config.workers_per_shard,
                Arc::clone(&registry),
                self.config.max_inflight_per_shard,
            );
            if let Some(group) = &group {
                workers.set_replication(Arc::clone(group));
            }
            shards.push(workers);
            replication.push(group);
        }

        let mut transport: Arc<dyn ShardTransport> = match self.transport_factory {
            Some(factory) => factory(&shards, &metrics)?,
            None => match self.config.transport {
                TransportKind::InProcess => Arc::new(InProcessTransport::new(shards.clone())),
                TransportKind::Tcp => Arc::new(crate::tcp::TcpTransport::over_loopback(
                    &shards,
                    self.config.max_inflight_per_shard,
                    self.config.prepare_timeout(),
                    &metrics,
                )?),
            },
        };
        if let Some(plan) = &self.config.fault_plan {
            // Chaos wrapping applies to factory-built transports too, so a
            // test can compose faults over any custom transport.
            transport = Arc::new(FaultyTransport::new(transport, plan.clone(), &metrics));
        }

        let decision_log = self
            .decision_log
            .unwrap_or_else(|| Arc::new(MemLogDevice::new()) as Arc<dyn LogDevice>);
        // A process-unique scope tags this cluster's trace ids (high bits)
        // so concurrent clusters in one process can't read each other's
        // spans or slow-trace dumps out of the shared sink.
        let trace_scope = {
            static NEXT_SCOPE: AtomicU64 = AtomicU64::new(1);
            NEXT_SCOPE.fetch_add(1, Ordering::Relaxed)
        };
        if self.config.slow_trace_threshold_ms > 0 {
            obs::set_slow_threshold_ns_scoped(
                trace_scope,
                self.config.slow_trace_threshold_ms * 1_000_000,
            );
        }
        Ok(Cluster {
            router: ShardRouter::new(n, self.config.partitioning),
            coordinator: TxnCoordinator::new(decision_log, &metrics),
            shards: RwLock::new(shards),
            transport,
            shard_logs: RwLock::new(shard_logs),
            replication: RwLock::new(replication),
            promoted_servers: Mutex::new(Vec::new()),
            procedures: self.procedures,
            spec,
            proc_registry: registry,
            clock: self.clock.unwrap_or_else(default_clock),
            hlc: Arc::new(Hlc::new()),
            single_shard: metrics.counter("cluster.single_shard"),
            multi_shard: metrics.counter("cluster.multi_shard"),
            read_only_votes: metrics.counter("cluster.read_only_votes"),
            batch_scheduled: metrics.counter("cluster.batch_scheduled"),
            batch_aborts: metrics.counter("cluster.batch_aborts"),
            decision_ack_timeouts: metrics.counter("cluster.decision_ack_timeouts"),
            lock_window_ns: metrics.counter("cluster.lock_window_ns"),
            lock_windows: metrics.counter("cluster.lock_windows"),
            phase_fanout: metrics.histogram("2pc.prepare_fanout_ns"),
            phase_vote_collect: metrics.histogram("2pc.vote_collect_ns"),
            phase_decision_log: metrics.histogram("2pc.decision_log_ns"),
            phase_finalize: metrics.histogram("2pc.finalize_ns"),
            metrics,
            trace_seq: AtomicU64::new(0),
            next_trace_id: AtomicU64::new(1),
            trace_scope,
            last_trace_id: AtomicU64::new(0),
            config: self.config,
        })
    }
}

/// N database shards, a router, worker pools, a transport, and a 2PC
/// coordinator.
pub struct Cluster {
    router: ShardRouter,
    coordinator: TxnCoordinator,
    /// Shard worker pools, behind a lock because failover replaces a
    /// shard's pool with one rebuilt over the promoted backup's log.
    shards: RwLock<Vec<Arc<ShardWorkers>>>,
    transport: Arc<dyn ShardTransport>,
    shard_logs: RwLock<Vec<Arc<dyn LogDevice>>>,
    /// Per-shard replication groups; `None` per slot when the cluster is
    /// unreplicated or after that shard's backup was promoted.
    replication: RwLock<Vec<Option<Arc<ShardReplication>>>>,
    /// TCP server loops started by promotions, torn down with the cluster.
    promoted_servers: Mutex<Vec<Arc<TcpShardServer>>>,
    /// Retained so a promotion can rebuild the shard `Database` with the
    /// same procedures, CC spec, and procedure registry the builder used.
    procedures: ProcedureSet,
    spec: CcTreeSpec,
    proc_registry: Arc<ProcRegistry>,
    clock: ClusterClock,
    /// Coordinator-side hybrid logical clock. Safety does not depend on
    /// frame-level convergence: every decision stamp is drawn *after*
    /// observing all participant vote clocks, so the stamp is greater
    /// than every clock that witnessed a prepared write.
    hlc: Arc<Hlc>,
    config: ClusterConfig,
    /// Coordinator-side metrics registry. Shard databases carry their own
    /// registries; [`Cluster::metrics`] merges everything into one
    /// snapshot.
    metrics: Arc<MetricsRegistry>,
    single_shard: Arc<Counter>,
    multi_shard: Arc<Counter>,
    read_only_votes: Arc<Counter>,
    /// Batched transactions deferred past wave zero by the dependency
    /// scheduler.
    batch_scheduled: Arc<Counter>,
    /// Batched transactions that returned an error.
    batch_aborts: Arc<Counter>,
    decision_ack_timeouts: Arc<Counter>,
    /// Summed prepared-lock windows (votes collected → decisions applied).
    lock_window_ns: Arc<Counter>,
    /// Number of windows in the sum.
    lock_windows: Arc<Counter>,
    /// 2PC phase latency histograms (nanoseconds).
    phase_fanout: Arc<Histogram>,
    phase_vote_collect: Arc<Histogram>,
    phase_decision_log: Arc<Histogram>,
    phase_finalize: Arc<Histogram>,
    /// Transactions seen by the sampler (for the every-Nth decision).
    trace_seq: AtomicU64,
    /// Sequence numbers for this cluster's trace ids (the low bits; the
    /// high bits carry `trace_scope`).
    next_trace_id: AtomicU64,
    /// This cluster's tag in the high bits of its trace ids, so concurrent
    /// clusters sharing the process trace sink stay distinguishable.
    trace_scope: u64,
    /// The most recently allocated trace id (tests use it to collect the
    /// spans of the transaction they just ran).
    last_trace_id: AtomicU64,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("shards", &self.shard_count())
            .finish()
    }
}

impl Cluster {
    /// Shorthand builder entry point.
    pub fn builder(config: ClusterConfig) -> ClusterBuilder {
        ClusterBuilder::new(config)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.read().len()
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The router (workloads use it to place their partition keys).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The 2PC coordinator.
    pub fn coordinator(&self) -> &TxnCoordinator {
        &self.coordinator
    }

    /// The transport in use.
    pub fn transport(&self) -> &Arc<dyn ShardTransport> {
        &self.transport
    }

    /// A shard's database (loaders write through it directly; crash and
    /// recovery tests drive `Database::prepare` by hand). Owned because
    /// failover can replace the shard behind the handle.
    pub fn shard(&self, index: usize) -> Arc<Database> {
        Arc::clone(self.shards.read()[index].db())
    }

    /// A shard's WAL device (crash/recovery tests). After a failover this
    /// is the promoted backup's log.
    pub fn shard_log(&self, index: usize) -> Arc<dyn LogDevice> {
        Arc::clone(&self.shard_logs.read()[index])
    }

    /// The replication group shipping `shard`'s WAL, if the cluster is
    /// replicated and the shard has not been failed over.
    pub fn replication(&self, shard: usize) -> Option<Arc<ShardReplication>> {
        self.replication.read().get(shard).cloned().flatten()
    }

    /// A bounded-staleness read served by backup `replica` of `shard`:
    /// the follower must catch up to the primary's durable LSN as of this
    /// call within `wait`, so the value returned reflects every
    /// transaction acknowledged before the read was issued. Refuses with
    /// an error naming the LSN gap when the follower is too stale.
    ///
    /// Prefer [`Cluster::read`] with
    /// [`ReadConsistency::BoundedStaleness`], which picks the most
    /// caught-up replica itself; this entry point remains for callers that
    /// need to target a *specific* replica (failover and staleness tests).
    pub fn follower_read(
        &self,
        shard: usize,
        replica: usize,
        key: &Key,
        wait: Duration,
    ) -> CcResult<Option<Value>> {
        let group = self.replication(shard).ok_or_else(|| {
            tebaldi_cc::CcError::Internal(format!("shard {shard} is not replicated"))
        })?;
        let min_lsn = self.shard_logs.read()[shard].durable_len() as u64;
        group
            .follower_read(replica, key, min_lsn, wait)
            .map_err(|stale| tebaldi_cc::CcError::Internal(stale.to_string()))
    }

    /// The consistency level default-consistency reads run at (from the
    /// configuration; `TEBALDI_TEST_READ_CONSISTENCY` under test).
    pub fn default_read_consistency(&self) -> ReadConsistency {
        self.config.default_read_consistency
    }

    /// Reads `keys` — each tagged with the partition key that routes it —
    /// at the requested consistency level, returning the values in input
    /// order (`None` for absent keys). Groups the keys by shard and
    /// delegates to [`Cluster::execute_read`].
    pub fn read(
        &self,
        keys: Vec<(u64, Key)>,
        consistency: ReadConsistency,
    ) -> CcResult<Vec<Option<Value>>> {
        let (parts, order) = self.keyed_parts(&keys);
        let flat = self.execute_read(parts, consistency)?;
        let mut values = vec![None; keys.len()];
        for (value, index) in flat.into_iter().zip(order) {
            values[index] = value;
        }
        Ok(values)
    }

    /// Groups partition-keyed reads into per-shard [`ReadPart`]s plus the
    /// flat-result-position → input-position mapping.
    fn keyed_parts(&self, keys: &[(u64, Key)]) -> (Vec<ReadPart>, Vec<usize>) {
        let mut by_shard: BTreeMap<usize, (Vec<Key>, Vec<usize>)> = BTreeMap::new();
        for (index, &(partition_key, key)) in keys.iter().enumerate() {
            let entry = by_shard.entry(self.shard_of(partition_key)).or_default();
            entry.0.push(key);
            entry.1.push(index);
        }
        let mut parts = Vec::with_capacity(by_shard.len());
        let mut order = Vec::with_capacity(keys.len());
        for (shard, (keys, indices)) in by_shard {
            parts.push(ReadPart::new(shard, keys));
            order.extend(indices);
        }
        (parts, order)
    }

    /// Runs a multi-shard read at the requested consistency level.
    /// Returns the values flattened in part order, each part's keys in
    /// declaration order, `None` for absent keys.
    ///
    /// * [`Strong`](ReadConsistency::Strong) — one read-only 2PC part per
    ///   shard through the vote path (serializable, and the only level in
    ///   the global serialization order).
    /// * [`Snapshot`](ReadConsistency::Snapshot) — one cluster-wide HLC
    ///   stamp, every shard answering from its version chains as of that
    ///   stamp: zero 2PC, zero locks, zero WAL records.
    /// * [`BoundedStaleness`](ReadConsistency::BoundedStaleness) — served
    ///   by each shard's most caught-up follower; shards without
    ///   replication fall back to the snapshot path.
    pub fn execute_read(
        &self,
        parts: Vec<ReadPart>,
        consistency: ReadConsistency,
    ) -> CcResult<Vec<Option<Value>>> {
        match consistency {
            ReadConsistency::Strong => self.strong_read(parts),
            ReadConsistency::Snapshot => self.snapshot_read_at(self.hlc.now(), parts),
            ReadConsistency::BoundedStaleness { max_lag } => {
                // Follower reads need a replication group per touched
                // shard; a partially-replicated (or failed-over) cluster
                // degrades to the snapshot path rather than erroring.
                if parts
                    .iter()
                    .any(|part| self.replication(part.shard).is_none())
                {
                    return self.snapshot_read_at(self.hlc.now(), parts);
                }
                self.bounded_read(&parts, max_lag)
            }
        }
    }

    /// Pins an HLC snapshot for a multi-hop read: every
    /// [`SnapshotHandle::read`] against the handle observes the cluster as
    /// of the same stamp, so a workload profile reading dependent keys in
    /// several rounds (look up the order, then its lines) still sees one
    /// consistent cut.
    pub fn snapshot(&self) -> SnapshotHandle<'_> {
        SnapshotHandle {
            cluster: self,
            snapshot: self.hlc.now(),
        }
    }

    /// The vote-path read: one `KV_MULTI_GET` part per shard through the
    /// regular execute/2PC machinery. Single-shard reads take the
    /// single-shard fast path.
    fn strong_read(&self, parts: Vec<ReadPart>) -> CcResult<Vec<Option<Value>>> {
        let call = ProcedureCall::new(crate::procs::KV_READ_TYPE);
        let mut shard_parts = Vec::with_capacity(parts.len());
        for part in &parts {
            shard_parts.push(ShardPart::new(
                part.shard,
                call.clone(),
                crate::procs::KV_MULTI_GET,
                crate::procs::multi_get_args(&part.keys),
            ));
        }
        let results = if shard_parts.len() == 1 {
            let part = shard_parts.pop().expect("one part");
            vec![
                self.execute_single(part.shard, part.proc, &part.call, part.args, 1)?
                    .0,
            ]
        } else {
            self.execute_multi(shard_parts)?
        };
        let mut values = Vec::new();
        for result in &results {
            values.extend(crate::procs::decode_multi_get(result)?);
        }
        Ok(values)
    }

    /// The HLC snapshot fan-out: every part's shard traverses its version
    /// chains as of `snapshot`, in parallel, and the replies' clocks merge
    /// back into the coordinator's.
    fn snapshot_read_at(
        &self,
        snapshot: u64,
        parts: Vec<ReadPart>,
    ) -> CcResult<Vec<Option<Value>>> {
        let wait_ms = self.config.prepare_timeout_ms;
        // Single-shard hop on an inline transport: run the read on the
        // calling thread. A snapshot read takes no locks and writes
        // nothing, so it needs no worker; skipping the mailbox round-trip
        // matters because the multi-hop read profiles (look up the order,
        // then its lines) pay it once per hop. Only inline transports
        // qualify — the generic `call` waits unboundedly on a ticket a
        // faulty transport may drop.
        if parts.len() == 1 && self.transport.call_is_inline() {
            let part = &parts[0];
            let (shard_values, hlc) = self
                .transport
                .call(
                    part.shard,
                    ShardRequest::SnapshotRead {
                        snapshot,
                        wait_ms,
                        keys: part.keys.clone(),
                    },
                )
                .and_then(|reply| reply.into_snapshot())?;
            self.hlc.observe(hlc);
            return Ok(shard_values
                .into_iter()
                .map(|value| {
                    if value == Value::Null {
                        None
                    } else {
                        Some(value)
                    }
                })
                .collect());
        }
        let tickets: Vec<Ticket<ShardResult>> = parts
            .iter()
            .map(|part| {
                self.transport.submit(
                    part.shard,
                    ShardRequest::SnapshotRead {
                        snapshot,
                        wait_ms,
                        keys: part.keys.clone(),
                    },
                )
            })
            .collect();
        // The shard itself may spend up to `wait_ms` waiting out an
        // overlapping writer, so the outer deadline adds the transport's
        // own budget on top rather than racing the shard's.
        let timeout = Duration::from_millis(wait_ms) + self.config.prepare_timeout();
        let mut values = Vec::new();
        let mut failure: Option<tebaldi_cc::CcError> = None;
        for ticket in tickets {
            // Drain every ticket even past a failure: the reads are
            // independent, and abandoning a ticket would leak its window
            // slot until the transport times it out.
            match ticket
                .wait_timeout(timeout)
                .map(|r| r.and_then(|r| r.into_snapshot()))
            {
                Ok(Ok((shard_values, hlc))) => {
                    self.hlc.observe(hlc);
                    values.extend(shard_values.into_iter().map(|value| {
                        if value == Value::Null {
                            None
                        } else {
                            Some(value)
                        }
                    }));
                }
                Ok(Err(err)) | Err(err) => {
                    if failure.is_none() {
                        failure = Some(err);
                    }
                }
            }
        }
        match failure {
            Some(err) => Err(err),
            None => Ok(values),
        }
    }

    /// The follower-read fan-out behind
    /// [`ReadConsistency::BoundedStaleness`]: each shard's most caught-up
    /// replica serves its keys once it proves it holds the primary's
    /// durable prefix as of this call.
    fn bounded_read(&self, parts: &[ReadPart], max_lag: Duration) -> CcResult<Vec<Option<Value>>> {
        let mut values = Vec::new();
        for part in parts {
            let group = self
                .replication(part.shard)
                .expect("caller checked every shard is replicated");
            let replica = (0..group.replica_count())
                .max_by_key(|&index| group.acked_lsn(index))
                .ok_or_else(|| {
                    tebaldi_cc::CcError::Internal(format!("shard {} has no backups", part.shard))
                })?;
            let min_lsn = self.shard_logs.read()[part.shard].durable_len() as u64;
            for key in &part.keys {
                let value = group
                    .follower_read(replica, key, min_lsn, max_lag)
                    .map_err(|stale| tebaldi_cc::CcError::Internal(stale.to_string()))?;
                // Normalize tombstones to absence, matching the other
                // consistency levels.
                values.push(value.filter(|value| *value != Value::Null));
            }
        }
        Ok(values)
    }

    /// Fails `shard` over to its most caught-up backup: stops the old
    /// primary's worker pool, seals and recovers the follower's log
    /// (resolving in-doubt prepares against the coordinator's durable
    /// decision log — presumed abort without a commit decision), rebases
    /// the timestamp oracle past the recovered high-water mark, spawns a
    /// fresh worker pool + TCP server loop over the recovered store, and
    /// repoints the transport. Requires an addressed transport (TCP); the
    /// in-process transport holds direct worker handles and cannot
    /// repoint. The old primary's WAL is untouched — rejoin it with
    /// [`crate::replication::truncate_divergent_suffix`].
    pub fn promote_backup(&self, shard: usize) -> Result<RecoveryReport, String> {
        if !self.transport.supports_repoint() {
            return Err(
                "transport does not support repointing; failover needs the TCP transport"
                    .to_string(),
            );
        }
        let group = self
            .replication(shard)
            .ok_or_else(|| format!("shard {shard} has no replication group"))?;
        // Fence the ship stream BEFORE stopping the old primary: any
        // prepare still in flight on it now fails its quorum gate and
        // votes abort, so the dying primary cannot cast a yes-vote the
        // promoted backup never heard about. (Votes cast before the
        // failover are quorum-shipped by construction and resolve below
        // through the coordinator's decision log.)
        group.stop_shipping();
        // The most caught-up backup holds the longest durable prefix, so
        // nothing a quorum acknowledged is lost.
        let best = (0..group.replica_count())
            .max_by_key(|&index| group.acked_lsn(index))
            .ok_or_else(|| format!("shard {shard} has no backups"))?;

        // Stop the failed primary (idempotent if it already crashed).
        {
            let shards = self.shards.read();
            shards[shard].shutdown();
            shards[shard].db().shutdown();
        }

        let follower_log: Arc<dyn LogDevice> = group.promote(best)?;
        group.shutdown();

        // Re-poll-until-stable: a commit decision can be logged *while*
        // the replay below runs (another coordinator thread finishing a
        // 2PC whose vote the follower already holds). A single decision
        // snapshot taken before the replay would presume-abort such a
        // transaction — a durable commit decision silently losing its
        // writes on the promoted primary. So after each replay, re-poll
        // the decision log; if any global the replay presumed-aborted has
        // gained a commit decision, replay again against the fresh
        // snapshot. The loop terminates because only a presumed-abort
        // turning into a commit repeats it, and the in-doubt set is
        // finite. After `stop_shipping` above no *new* votes can land on
        // the follower log, so the final replay is authoritative.
        let mut decisions = self.coordinator.committed_globals_with_stamps();
        let (store, report) = loop {
            let (store, report) = recover_with_resolver(
                follower_log.as_ref(),
                MvStore::new(self.config.db_config.shards),
                &|global| decisions.get(&global).copied(),
            );
            if report.in_doubt_aborted_globals.is_empty() {
                break (store, report);
            }
            let latest = self.coordinator.committed_globals_with_stamps();
            let raced = report
                .in_doubt_aborted_globals
                .iter()
                .any(|global| latest.contains_key(global));
            if !raced {
                break (store, report);
            }
            decisions = latest;
        };

        let shard_metrics = Arc::new(if self.metrics.is_enabled() {
            MetricsRegistry::new()
        } else {
            MetricsRegistry::disabled()
        });
        // The promoted primary carries the failover count so the shard's
        // metrics reply reports it.
        shard_metrics.counter("replication.failovers").inc();
        let db = Arc::new(
            Database::builder(self.config.db_config.clone())
                .procedures(self.procedures.clone())
                .cc_spec(self.spec.clone())
                .metrics(shard_metrics)
                .log_device(Arc::clone(&follower_log))
                .store(store)
                .build()?,
        );
        // A fresh database starts its timestamp oracle and txn-id
        // allocator at zero; new commits must order above every recovered
        // version, and new records appended to the inherited log must not
        // reuse txn ids the shipped prefix already holds (a collision
        // would corrupt the next replay of this log).
        db.oracle().advance_past(report.max_commit_ts);
        db.advance_txn_ids_past(report.max_txn_id);
        // The HLC re-bases alongside the other generators: new commits must
        // stamp above every recovered stamp, or a snapshot read could see a
        // post-failover commit ordered below a pre-failover one.
        db.hlc().advance_past(report.max_hlc);

        let workers = ShardWorkers::spawn(
            shard,
            db,
            self.config.workers_per_shard,
            Arc::clone(&self.proc_registry),
            self.config.max_inflight_per_shard,
        );
        let server = TcpShardServer::spawn(
            shard,
            Arc::clone(&workers),
            self.config.max_inflight_per_shard,
        )
        .map_err(|err| format!("promoted shard {shard} server: {err}"))?;
        if !self.transport.repoint(shard, server.addr()) {
            server.shutdown();
            workers.shutdown();
            return Err(
                "transport does not support repointing; failover needs the TCP transport"
                    .to_string(),
            );
        }

        self.shards.write()[shard] = workers;
        self.shard_logs.write()[shard] = follower_log;
        self.replication.write()[shard] = None;
        self.promoted_servers.lock().push(server);
        Ok(report)
    }

    /// Routes a partition key.
    pub fn shard_of(&self, partition_key: u64) -> usize {
        self.router.shard_of(partition_key)
    }

    /// Classifies a transaction's partition keys.
    pub fn classify(&self, partition_keys: impl IntoIterator<Item = u64>) -> Routing {
        self.router.classify(partition_keys)
    }

    /// Single-shard fast path: runs the registered procedure `proc` with
    /// `args` on `shard` through the transport (inline on the calling
    /// thread for the in-process transport, a frame round trip over TCP).
    /// Returns the body result and the number of aborted attempts.
    pub fn execute_single(
        &self,
        shard: usize,
        proc: ProcId,
        call: &ProcedureCall,
        args: Vec<u8>,
        max_attempts: usize,
    ) -> CcResult<(Value, usize)> {
        self.single_shard.inc();
        self.transport
            .call(
                shard,
                ShardRequest::Execute {
                    proc,
                    call: call.clone(),
                    args,
                    max_attempts: max_attempts as u32,
                    trace: self.next_trace(),
                },
            )?
            .into_executed()
            .map(|(value, aborts)| (value, aborts as usize))
    }

    /// Decides whether the next transaction is traced, allocating a
    /// process-unique trace id when it is. Every `trace_sample_every`-th
    /// transaction samples; `0` turns the sampler off.
    fn next_trace(&self) -> TraceCtx {
        let every = self.config.trace_sample_every;
        if every == 0 {
            return TraceCtx::NONE;
        }
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        if !seq.is_multiple_of(every) {
            return TraceCtx::NONE;
        }
        // The trace id carries this cluster's scope in its high bits: ids
        // from concurrent clusters in one process never collide in the
        // shared sink, and scoped slow-trace APIs only see their own
        // cluster's dumps.
        let id = obs::scoped_trace_id(
            self.trace_scope,
            self.next_trace_id.fetch_add(1, Ordering::Relaxed),
        );
        self.last_trace_id.store(id, Ordering::Relaxed);
        TraceCtx::sampled(id)
    }

    /// The id of the most recently sampled trace (0 when nothing sampled
    /// yet). Pair with [`tebaldi_obs::collect`] to read its spans back.
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace_id.load(Ordering::Relaxed)
    }

    /// This cluster's trace scope: the tag in the high bits of every trace
    /// id it allocates, distinguishing its spans and slow-trace dumps from
    /// other clusters sharing the process sink.
    pub fn trace_scope(&self) -> u64 {
        self.trace_scope
    }

    /// Drains the slow-transaction dumps belonging to *this* cluster
    /// (other clusters' dumps stay in the shared backlog).
    pub fn take_slow_traces(&self) -> Vec<obs::SlowTrace> {
        obs::take_slow_traces_scoped(self.trace_scope)
    }

    /// Runs one multi-shard transaction through two-phase commit. Every
    /// part prepares on its shard in parallel and reports its vote class:
    /// read-only parts (empty write set) commit and release at phase one
    /// and are excluded from phase two. When all vote yes, the commit point
    /// depends on how many read-write participants remain:
    ///
    /// * **≥ 2** — the commit decision is group-commit flushed to the
    ///   decision log, then applied on every read-write shard;
    /// * **exactly 1** — one-phase fast path: the surviving participant's
    ///   own commit record is the commit point, no decision record at all;
    /// * **0** — every part already committed at phase one; nothing to do.
    ///
    /// A prepare vote that does not arrive within the configured
    /// `prepare_timeout` counts as a "no": the transaction aborts with
    /// `CcError::Internal` instead of hanging on a wedged shard (the late
    /// prepare, if it ever lands, is aborted by the shard's orphan-decision
    /// check). Phase-two decision *acknowledgements* are bounded by the
    /// same timeout, so a shard that wedges after voting cannot hang the
    /// finalize step either — the outcome is already durable and the
    /// straggler resolves it on recovery. Returns the parts' results in
    /// submission order.
    pub fn execute_multi(&self, parts: Vec<ShardPart>) -> CcResult<Vec<Value>> {
        let trace = self.next_trace();
        let started = trace.is_sampled().then(obs::now_ns);
        let global = self.begin_phase_one(&parts)?;
        let tickets = self.submit_phase_one(global, parts, trace);
        let result = self.collect_and_decide(global, tickets, trace);
        if let Some(start) = started {
            obs::maybe_dump_slow(trace, obs::now_ns().saturating_sub(start));
        }
        result
    }

    /// Overlaps phase one across a whole batch of multi-shard
    /// transactions: every transaction's prepares are submitted before any
    /// vote is collected, so one caller thread keeps
    /// `batch.len() × parts` prepares in the shard pipelines at once
    /// (bounded by `max_inflight_per_shard` backpressure) instead of
    /// driving them one 2PC at a time. Votes are then collected and each
    /// transaction decided independently — a transaction's outcome never
    /// depends on its batch-mates.
    ///
    /// On top of the overlap sits dependency-graph scheduling over
    /// declared key sets (the DGCC idea from the paper's batching line of
    /// work): instead of racing every transaction in the batch and letting
    /// the CC mechanisms abort the conflicting ones, the coordinator builds
    /// the intra-batch conflict graph from the declared read/write sets and
    /// defers a transaction until the wave after its last conflicting
    /// predecessor. Waves are fully overlapped internally (every member's
    /// phase one is in flight before any vote is collected), so
    /// non-conflicting transactions keep the pipeline parallelism while
    /// conflicting ones serialize by scheduling instead of aborting.
    ///
    /// Transaction `j` conflicts with an earlier `i` when `i`'s writes
    /// intersect `j`'s reads or writes, or `i`'s reads intersect `j`'s
    /// writes (WR, WW, or RW dependency). Earlier batch index wins, so the
    /// graph is acyclic by construction and the wave number is just the
    /// longest dependency chain ending at `j`. Transactions without a
    /// declaration all run in wave zero — exactly the pre-scheduling
    /// behavior — and never defer anyone (their footprint is unknown, so
    /// edges against them would be guesses). Declarations are hints:
    /// mechanisms still validate every real access, so a wrong or missing
    /// declaration can cost an abort but never correctness. Returns one
    /// result per input transaction, in input order.
    pub fn execute_multi_batch_declared(&self, batch: Vec<BatchTxn>) -> Vec<CcResult<Vec<Value>>> {
        // Wave assignment: longest declared-conflict chain ending at each
        // transaction. O(n²) set intersections — batches are small (tens),
        // and each comparison is a hash probe per key.
        let footprints: Vec<Option<(HashSet<Key>, HashSet<Key>)>> = batch
            .iter()
            .map(|txn| {
                txn.keys.as_ref().map(|k| {
                    (
                        k.reads.iter().copied().collect::<HashSet<Key>>(),
                        k.writes.iter().copied().collect::<HashSet<Key>>(),
                    )
                })
            })
            .collect();
        let mut wave = vec![0usize; batch.len()];
        for j in 0..batch.len() {
            let Some((reads_j, writes_j)) = &footprints[j] else {
                continue;
            };
            for i in 0..j {
                let Some((reads_i, writes_i)) = &footprints[i] else {
                    continue;
                };
                let conflict = writes_i
                    .iter()
                    .any(|k| reads_j.contains(k) || writes_j.contains(k))
                    || reads_i.iter().any(|k| writes_j.contains(k));
                if conflict {
                    wave[j] = wave[j].max(wave[i] + 1);
                }
            }
            if wave[j] > 0 {
                self.batch_scheduled.inc();
            }
        }
        let n_waves = wave.iter().max().map_or(0, |w| w + 1);

        // Execute wave by wave. Within a wave: submit every phase one,
        // then collect and decide — the same two-stage overlap as the
        // undeclared path. Between waves: a barrier, so a deferred
        // transaction only starts once its conflicting predecessors have
        // released their write intents (committed or aborted).
        let mut results: Vec<Option<CcResult<Vec<Value>>>> = batch.iter().map(|_| None).collect();
        let mut remaining: Vec<Option<BatchTxn>> = batch.into_iter().map(Some).collect();
        // One staged phase-one submission: (global txn id, per-shard vote
        // tickets, trace context, start ns).
        type Staged = CcResult<(u64, VoteTickets, TraceCtx, u64)>;
        for current in 0..n_waves {
            let mut staged: Vec<(usize, Staged)> = Vec::new();
            for (j, slot) in remaining.iter_mut().enumerate() {
                if wave[j] != current {
                    continue;
                }
                let txn = slot
                    .take()
                    .expect("each transaction runs in exactly one wave");
                let trace = self.next_trace();
                let started = if trace.is_sampled() { obs::now_ns() } else { 0 };
                let stage = self.begin_phase_one(&txn.parts).map(|global| {
                    (
                        global,
                        self.submit_phase_one(global, txn.parts, trace),
                        trace,
                        started,
                    )
                });
                staged.push((j, stage));
            }
            for (j, stage) in staged {
                let result = stage.and_then(|(global, tickets, trace, started)| {
                    let result = self.collect_and_decide(global, tickets, trace);
                    if trace.is_sampled() {
                        obs::maybe_dump_slow(trace, obs::now_ns().saturating_sub(started));
                    }
                    result
                });
                if result.is_err() {
                    self.batch_aborts.inc();
                }
                results[j] = Some(result);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every transaction was assigned to a wave"))
            .collect()
    }

    /// Validates a multi-shard part list and assigns the global id.
    fn begin_phase_one(&self, parts: &[ShardPart]) -> CcResult<u64> {
        if parts.len() < 2 {
            return Err(tebaldi_cc::CcError::Internal(
                "multi-shard execution needs at least two parts; use execute_single".to_string(),
            ));
        }
        {
            // Two parts on one shard would share the global id in the
            // shard's in-doubt table: the second prepare would silently
            // replace (and thereby abort) the first, breaking atomicity.
            let mut sorted: Vec<usize> = parts.iter().map(|p| p.shard).collect();
            sorted.sort_unstable();
            if sorted.windows(2).any(|w| w[0] == w[1]) {
                return Err(tebaldi_cc::CcError::Internal(
                    "each shard may contribute at most one part of a multi-shard transaction"
                        .to_string(),
                ));
            }
            let shard_count = self.shard_count();
            if let Some(&out_of_range) = sorted.iter().find(|&&s| s >= shard_count) {
                return Err(tebaldi_cc::CcError::Internal(format!(
                    "part targets shard {out_of_range}, but the cluster has {shard_count} shards"
                )));
            }
        }
        self.multi_shard.inc();
        Ok(self.coordinator.begin_global())
    }

    /// Submits every part's prepare to its shard (phase one, in parallel)
    /// and returns the vote tickets.
    fn submit_phase_one(&self, global: u64, parts: Vec<ShardPart>, trace: TraceCtx) -> VoteTickets {
        let started = (self.metrics.is_enabled() || trace.is_sampled()).then(obs::now_ns);
        let tickets = parts
            .into_iter()
            .map(|part| {
                (
                    part.shard,
                    self.transport.submit(
                        part.shard,
                        ShardRequest::Prepare {
                            global,
                            proc: part.proc,
                            call: part.call,
                            args: part.args,
                            trace,
                        },
                    ),
                )
            })
            .collect();
        if let Some(start) = started {
            let end = obs::now_ns();
            self.phase_fanout.record(end.saturating_sub(start));
            obs::record_span(trace, "coord.prepare_fanout", -1, start, end, "ok");
        }
        tickets
    }

    /// Collects the phase-one votes of `global` and drives phase two to a
    /// decision (the second half of [`execute_multi`](Cluster::execute_multi)).
    fn collect_and_decide(
        &self,
        global: u64,
        tickets: VoteTickets,
        trace: TraceCtx,
    ) -> CcResult<Vec<Value>> {
        let timeout = self.config.prepare_timeout();
        let collect_start = (self.metrics.is_enabled() || trace.is_sampled()).then(obs::now_ns);
        let mut values = Vec::with_capacity(tickets.len());
        let mut failure: Option<tebaldi_cc::CcError> = None;
        // Shards that hold (read-write) or may still come to hold
        // (timed-out vote) a prepared transaction: exactly the set that
        // needs a decision. Read-only and no-voting parts released already.
        let mut rw_shards: Vec<usize> = Vec::new();
        let mut unknown_shards: Vec<usize> = Vec::new();
        for (shard, ticket) in tickets {
            let vote_start = trace.is_sampled().then(obs::now_ns);
            // Keep collecting: every vote must resolve (or time out)
            // before the decision is sent.
            let vote = ticket
                .wait_timeout(timeout)
                .map(|r| r.and_then(|r| r.into_prepared()));
            if let Some(start) = vote_start {
                // One span per vote, tagged with the shard and the reason
                // the vote failed (mechanism or timeout) when it did.
                let status = match &vote {
                    Ok(Ok(_)) => "ok",
                    Ok(Err(err)) => err.mechanism(),
                    Err(_) => "timeout",
                };
                obs::record_span(
                    trace,
                    "coord.vote",
                    shard as i32,
                    start,
                    obs::now_ns(),
                    status,
                );
            }
            match vote {
                Ok(Ok((value, Vote::ReadWrite, vote_hlc))) => {
                    self.hlc.observe(vote_hlc);
                    values.push(value);
                    rw_shards.push(shard);
                }
                Ok(Ok((value, Vote::ReadOnly, vote_hlc))) => {
                    self.hlc.observe(vote_hlc);
                    values.push(value);
                    self.read_only_votes.inc();
                }
                Ok(Err(err)) => {
                    // The part aborted itself; nothing is parked there.
                    if failure.is_none() {
                        failure = Some(err);
                    }
                }
                Err(err) => {
                    // Timed out (or the connection died): the shard's vote
                    // is unknown and a late prepare may still park, so the
                    // abort decision must reach it.
                    unknown_shards.push(shard);
                    if failure.is_none() {
                        failure = Some(err);
                    }
                }
            }
        }
        if let Some(start) = collect_start {
            let end = obs::now_ns();
            self.phase_vote_collect.record(end.saturating_sub(start));
            obs::record_span(trace, "coord.vote_collect", -1, start, end, "ok");
        }

        // Phase two: decide. The decision requests resolve inline for the
        // in-process transport — commit of a prepared transaction is
        // infallible and lock-free to reach — and as acknowledged frames
        // over TCP. The window measured here (all votes in → all decisions
        // acknowledged) is exactly the span the flush coalescing and
        // vote-class fast paths shorten.
        let votes_collected = (self.clock)();
        // The decision stamp is drawn after *every* vote clock has been
        // observed, so it exceeds each participant's clock as of the
        // moment its prepared versions were installed. A snapshot reader
        // whose snapshot `h >= d` on any shard therefore started (and
        // observed `h` into that shard's clock) after all prepares were
        // visible — the commit is all-or-nothing at `h` on every shard.
        let decision_hlc = self.hlc.now();
        let result = match failure {
            None => {
                match rw_shards.len() {
                    0 => {
                        // Every part voted ReadOnly and already committed.
                        self.coordinator.commit_read_only();
                    }
                    1 => {
                        // One-phase fast path: the lone read-write
                        // participant's own commit record is the commit
                        // point; no decision record is written. If the
                        // decision acknowledgement fails, the participant
                        // may still be parked in doubt with NO commit
                        // record anywhere — recovery would presume abort
                        // for a transaction this call is about to report
                        // committed — so the fast path falls back to a
                        // durable decision record before returning.
                        self.coordinator.commit_one_phase();
                        if self.finalize(
                            &rw_shards[..1],
                            global,
                            true,
                            decision_hlc,
                            timeout,
                            trace,
                        ) > 0
                        {
                            self.coordinator.log_straggler_commit(global, decision_hlc);
                        }
                    }
                    _ => {
                        // Commit point: the decision is durable before any
                        // shard learns about it.
                        self.log_decision(trace, "commit", || {
                            self.coordinator.log_commit(global, decision_hlc)
                        });
                        self.finalize(&rw_shards, global, true, decision_hlc, timeout, trace);
                    }
                }
                Ok(values)
            }
            Some(err) => {
                if !rw_shards.is_empty() || !unknown_shards.is_empty() {
                    self.log_decision(trace, "abort", || self.coordinator.log_abort(global));
                    let targets: Vec<usize> = rw_shards
                        .iter()
                        .chain(unknown_shards.iter())
                        .copied()
                        .collect();
                    self.finalize(&targets, global, false, 0, timeout, trace);
                } else {
                    // Every part self-aborted (or was read-only): nothing
                    // is prepared anywhere, but the global still aborted.
                    self.coordinator.note_abort();
                }
                Err(err)
            }
        };
        // Only transactions that actually parked a prepared participant
        // (or may have — timed-out votes) held locks across phase two;
        // averaging in read-only/self-aborted globals would dilute the
        // metric toward zero.
        if !rw_shards.is_empty() || !unknown_shards.is_empty() {
            self.lock_window_ns
                .add((self.clock)().saturating_sub(votes_collected));
            self.lock_windows.inc();
        }
        result
    }

    /// Runs (and times) the durable decision-log append: one histogram
    /// sample plus — for sampled transactions — a `coord.decision_log`
    /// span tagged with the decision.
    fn log_decision(&self, trace: TraceCtx, decision: &'static str, append: impl FnOnce()) {
        let started = (self.metrics.is_enabled() || trace.is_sampled()).then(obs::now_ns);
        append();
        if let Some(start) = started {
            let end = obs::now_ns();
            self.phase_decision_log.record(end.saturating_sub(start));
            obs::record_span(trace, "coord.decision_log", -1, start, end, decision);
        }
    }

    /// Delivers the phase-two decision to every target shard in parallel
    /// and waits for the acknowledgements under one shared deadline of
    /// `timeout` total (not per shard — k wedged shards must not stall the
    /// caller k × timeout). A timed-out ack is counted (the shard wedged
    /// after voting) but does not change the outcome: the decision record
    /// (written by the caller — before finalize for multi-participant
    /// commits, as a fallback after it for one-phase) lets the straggler
    /// resolve on recovery or late delivery. Returns how many
    /// acknowledgements failed.
    fn finalize(
        &self,
        shards: &[usize],
        global: u64,
        commit: bool,
        hlc: u64,
        timeout: Duration,
        trace: TraceCtx,
    ) -> usize {
        let started = (self.metrics.is_enabled() || trace.is_sampled()).then(obs::now_ns);
        let acks: Vec<Ticket<ShardResult>> = shards
            .iter()
            .map(|&shard| {
                let request = if commit {
                    ShardRequest::Commit { global, hlc }
                } else {
                    ShardRequest::Abort { global }
                };
                self.transport.submit(shard, request)
            })
            .collect();
        let deadline = std::time::Instant::now() + timeout;
        let mut failed = 0;
        for ack in acks {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            // Delivered means the shard positively acknowledged: an outer
            // error is a timeout/disconnect, an *inner* error is a
            // transport-reported failure (e.g. the send itself failed and
            // came back as a ready Err ticket) — both mean the decision
            // may never have reached the shard.
            if !matches!(ack.wait_timeout(remaining), Ok(Ok(_))) {
                self.decision_ack_timeouts.inc();
                failed += 1;
            }
        }
        if let Some(start) = started {
            let end = obs::now_ns();
            self.phase_finalize.record(end.saturating_sub(start));
            let status = match (commit, failed) {
                (true, 0) => "commit",
                (false, 0) => "abort",
                _ => "timeout",
            };
            obs::record_span(trace, "coord.finalize", -1, start, end, status);
        }
        failed
    }

    /// Retries [`execute_multi`](Cluster::execute_multi) on retryable
    /// conflicts and unreachable shards, up to `max_attempts` attempts in
    /// total (1 = no retry), rebuilding the parts each attempt (fresh
    /// instance seeds, re-read dependent state). Distributed deadlocks
    /// resolve through lock timeouts, so retry is the normal path under
    /// contention. Returns the results and the number of aborted attempts.
    pub fn execute_multi_with_retry(
        &self,
        max_attempts: usize,
        mut parts: impl FnMut() -> Vec<ShardPart>,
    ) -> CcResult<(Vec<Value>, usize)> {
        // One part is a single-shard transaction, not a 2PC — it goes down
        // the fast path, which carries its own retry budget: whatever it
        // returns is final.
        let single = std::cell::Cell::new(false);
        // Unreachable errors are coordinator-retry-safe even when
        // `maybe_delivered` is true: a prepare whose vote was lost counts as
        // "no", the transaction presumed-aborts, and any shard that did
        // prepare aborts on resolution — so a fresh attempt under a new
        // transaction id cannot double-apply.
        let retry_if = |err: &tebaldi_cc::CcError| {
            !single.get() && (err.is_retryable() || err.is_unreachable())
        };
        tebaldi_core::retry_attempts(max_attempts, retry_if, || {
            let mut attempt = parts();
            if attempt.len() == 1 {
                single.set(true);
                let part = attempt.pop().expect("one part");
                return self
                    .execute_single(part.shard, part.proc, &part.call, part.args, max_attempts)
                    .map(|(value, part_aborts)| (vec![value], part_aborts));
            }
            self.execute_multi(attempt).map(|values| (values, 0))
        })
        .map(|((values, part_aborts), aborts)| (values, aborts + part_aborts))
    }

    /// Loads a key on the shard owning `partition_key`, bypassing
    /// concurrency control (workload loaders).
    pub fn load(&self, partition_key: u64, key: tebaldi_storage::Key, value: Value) {
        self.shard(self.shard_of(partition_key)).load(key, value);
    }

    /// Aggregate counters: [`ClusterStats::from_metrics`] of
    /// [`Cluster::metrics`].
    pub fn stats(&self) -> ClusterStats {
        ClusterStats::from_metrics(&self.metrics())
    }

    /// One merged metrics snapshot for the whole cluster: the coordinator
    /// registry plus every shard's, fetched through the transport
    /// ([`ShardRequest::Metrics`] — an admin frame over TCP, an inline
    /// call in process). Counters sum, gauges max, histograms merge
    /// bucket-wise across shards.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut merged = self.metrics.snapshot();
        for shard in 0..self.shard_count() {
            if let Ok(ShardResponse::Metrics(snapshot)) =
                self.transport.call(shard, ShardRequest::Metrics)
            {
                merged.merge(&snapshot);
            }
        }
        merged
    }

    /// Number of prepared transactions currently in doubt across shards.
    pub fn in_doubt_count(&self) -> usize {
        self.shards.read().iter().map(|s| s.in_doubt_count()).sum()
    }

    /// Stops the transport, worker pools, replication groups, and every
    /// shard.
    pub fn shutdown(&self) {
        self.transport.shutdown();
        for server in self.promoted_servers.lock().iter() {
            server.shutdown();
        }
        let shards = self.shards.read().clone();
        for shard in &shards {
            shard.shutdown();
        }
        for group in self.replication.read().iter().flatten() {
            group.shutdown();
        }
        for shard in &shards {
            shard.db().shutdown();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A pinned HLC snapshot over the whole cluster (see
/// [`Cluster::snapshot`]): every read through the handle observes the
/// same cut, across shards and across calls, so multi-hop read profiles
/// (read an index, then the rows it names) stay mutually consistent
/// without a transaction.
pub struct SnapshotHandle<'a> {
    cluster: &'a Cluster,
    snapshot: u64,
}

impl SnapshotHandle<'_> {
    /// The pinned HLC stamp.
    pub fn hlc(&self) -> u64 {
        self.snapshot
    }

    /// Reads `parts` as of the pinned stamp (flattened in part order,
    /// `None` for absent keys).
    pub fn read(&self, parts: Vec<ReadPart>) -> CcResult<Vec<Option<Value>>> {
        self.cluster.snapshot_read_at(self.snapshot, parts)
    }

    /// Reads partition-keyed `keys` as of the pinned stamp, values in
    /// input order.
    pub fn read_keyed(&self, keys: Vec<(u64, Key)>) -> CcResult<Vec<Option<Value>>> {
        let (parts, order) = self.cluster.keyed_parts(&keys);
        let flat = self.read(parts)?;
        let mut values = vec![None; keys.len()];
        for (value, index) in flat.into_iter().zip(order) {
            values[index] = value;
        }
        Ok(values)
    }
}

/// Recovers every shard store from its WAL, resolving in-doubt prepared
/// transactions against the coordinator's decision log: a prepared global
/// id commits iff the decision log holds a durable commit decision for it
/// (presumed abort otherwise). Returns one `(store, report)` per shard, in
/// shard order; reopen them with
/// [`ClusterBuilder::stores`].
pub fn recover_cluster(
    shard_logs: &[Arc<dyn LogDevice>],
    decision_log: &dyn LogDevice,
    shards_per_store: usize,
) -> Vec<(MvStore, RecoveryReport)> {
    let decisions: HashMap<u64, u64> = decision_log
        .read_back()
        .into_iter()
        .filter_map(|record| match record {
            tebaldi_storage::wal::LogRecord::Decision {
                global,
                commit: true,
                hlc,
            } => Some((global, hlc)),
            _ => None,
        })
        .collect();
    shard_logs
        .iter()
        .map(|log| {
            recover_with_resolver(log.as_ref(), MvStore::new(shards_per_store), &|global| {
                decisions.get(&global).copied()
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procs;
    use tebaldi_cc::{AccessMode, CcError, CcKind, ProcedureInfo};
    use tebaldi_storage::{Key, TableId, TxnTypeId};

    const TABLE: TableId = TableId(0);
    const TY: TxnTypeId = TxnTypeId(0);
    /// Test-only procedure: sleep 400ms, then increment (wedges a shard
    /// past the prepare timeout).
    const WEDGE: ProcId = ProcId(900);
    /// Test-only procedure: increment, then request an abort.
    const POISON: ProcId = ProcId(901);

    fn procedures() -> ProcedureSet {
        let mut set = ProcedureSet::new();
        set.insert(ProcedureInfo::new(
            TY,
            "transfer",
            vec![(TABLE, AccessMode::Write)],
        ));
        set
    }

    fn builder_with_test_procs(config: ClusterConfig) -> ClusterBuilder {
        Cluster::builder(config)
            .procedures(procedures())
            .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TY]))
            .shard_procedure(WEDGE, |txn, args| {
                let mut r = tebaldi_storage::codec::ByteReader::new(args);
                let key = r.key().map_err(|e| CcError::Internal(e.to_string()))?;
                std::thread::sleep(std::time::Duration::from_millis(400));
                txn.increment(key, 0, 30).map(Value::Int)
            })
            .shard_procedure(POISON, |txn, args| {
                let mut r = tebaldi_storage::codec::ByteReader::new(args);
                let key = r.key().map_err(|e| CcError::Internal(e.to_string()))?;
                txn.increment(key, 0, 30)?;
                Err(txn.request_abort())
            })
    }

    fn cluster(shards: usize) -> Cluster {
        let mut config = ClusterConfig::for_tests(shards);
        config.db_config.durability = tebaldi_core::DurabilityMode::Synchronous;
        builder_with_test_procs(config).build().unwrap()
    }

    fn account_key(account: u64) -> Key {
        Key::simple(TABLE, account)
    }

    fn balance(cluster: &Cluster, account: u64) -> i64 {
        let shard = cluster.shard_of(account);
        let (value, _) = cluster
            .execute_single(
                shard,
                procs::KV_GET,
                &ProcedureCall::new(TY),
                procs::key_args(account_key(account)),
                10,
            )
            .unwrap();
        value.as_int().unwrap_or(0)
    }

    #[test]
    fn cross_shard_transfer_commits_atomically() {
        let cluster = cluster(4);
        // Accounts 1 and 2 live on different shards under modulo routing.
        cluster.load(1, account_key(1), Value::Int(100));
        cluster.load(2, account_key(2), Value::Int(100));
        assert!(!cluster.classify([1u64, 2u64]).is_single());

        let parts = vec![
            procs::increment_part(
                cluster.shard_of(1),
                ProcedureCall::new(TY),
                account_key(1),
                0,
                -30,
            ),
            procs::increment_part(
                cluster.shard_of(2),
                ProcedureCall::new(TY),
                account_key(2),
                0,
                30,
            ),
        ];
        let values = cluster.execute_multi(parts).unwrap();
        assert_eq!(values, vec![Value::Int(70), Value::Int(130)]);
        assert_eq!(balance(&cluster, 1), 70);
        assert_eq!(balance(&cluster, 2), 130);
        assert_eq!(cluster.in_doubt_count(), 0);
        assert_eq!(cluster.stats().multi_shard, 1);
        assert_eq!(cluster.stats().coordinator.committed, 1);
    }

    #[test]
    fn one_read_write_participant_commits_one_phase_without_decision_records() {
        let cluster = cluster(2);
        cluster.load(1, account_key(1), Value::Int(100));
        cluster.load(2, account_key(2), Value::Int(100));
        // Part on shard of account 1 writes; part on shard of account 2
        // only reads → it votes ReadOnly and the commit degenerates to
        // one-phase: zero decision-log appends.
        let parts = vec![
            procs::increment_part(
                cluster.shard_of(1),
                ProcedureCall::new(TY),
                account_key(1),
                0,
                5,
            ),
            procs::get_part(cluster.shard_of(2), ProcedureCall::new(TY), account_key(2)),
        ];
        let values = cluster.execute_multi(parts).unwrap();
        assert_eq!(values, vec![Value::Int(105), Value::Int(100)]);
        assert_eq!(balance(&cluster, 1), 105);
        assert_eq!(cluster.in_doubt_count(), 0);
        let stats = cluster.stats();
        assert_eq!(stats.read_only_votes, 1);
        assert_eq!(stats.coordinator.committed, 1);
        assert_eq!(stats.coordinator.one_phase, 1);
        assert_eq!(
            stats.coordinator.decisions_logged, 0,
            "one-phase commit must not append to the decision log"
        );
        // Only the once-per-block id-reservation marker may exist — never
        // a commit decision, and nothing for this transaction's id.
        assert!(
            cluster
                .coordinator()
                .decision_log()
                .read_back()
                .iter()
                .all(|r| matches!(
                    r,
                    tebaldi_storage::wal::LogRecord::Decision { commit: false, .. }
                )),
            "decision log must hold no commit decisions"
        );
    }

    #[test]
    fn fully_read_only_transaction_writes_no_log_records() {
        let cluster = cluster(2);
        cluster.load(1, account_key(1), Value::Int(10));
        cluster.load(2, account_key(2), Value::Int(20));
        let parts = vec![
            procs::get_part(cluster.shard_of(1), ProcedureCall::new(TY), account_key(1)),
            procs::get_part(cluster.shard_of(2), ProcedureCall::new(TY), account_key(2)),
        ];
        let values = cluster.execute_multi(parts).unwrap();
        assert_eq!(values, vec![Value::Int(10), Value::Int(20)]);
        let stats = cluster.stats();
        assert_eq!(stats.read_only_votes, 2);
        assert_eq!(stats.coordinator.read_only, 1);
        assert_eq!(stats.coordinator.decisions_logged, 0);
        // No prepare records either: both shard WALs saw no Prepare.
        for index in 0..2 {
            assert!(cluster
                .shard(index)
                .durability()
                .device()
                .read_back()
                .iter()
                .all(|r| !matches!(r, tebaldi_storage::wal::LogRecord::Prepare { .. })));
        }
        assert_eq!(cluster.in_doubt_count(), 0);
    }

    #[test]
    fn wedged_shard_prepare_times_out_and_aborts() {
        let mut config = ClusterConfig::for_tests(2);
        config.db_config.durability = tebaldi_core::DurabilityMode::Synchronous;
        config.prepare_timeout_ms = 100;
        let cluster = builder_with_test_procs(config).build().unwrap();
        cluster.load(1, account_key(1), Value::Int(100));
        cluster.load(2, account_key(2), Value::Int(100));
        let parts = vec![
            procs::increment_part(
                cluster.shard_of(1),
                ProcedureCall::new(TY),
                account_key(1),
                0,
                -30,
            ),
            // Wedge the other shard well past the prepare timeout.
            ShardPart::new(
                cluster.shard_of(2),
                ProcedureCall::new(TY),
                WEDGE,
                procs::key_args(account_key(2)),
            ),
        ];
        let err = cluster.execute_multi(parts).unwrap_err();
        assert!(
            matches!(err, tebaldi_cc::CcError::Internal(_)),
            "a vote timeout surfaces as CcError::Internal, got {err:?}"
        );
        assert_eq!(balance(&cluster, 1), 100, "prepared part must roll back");
        // Give the wedged prepare time to land and hit the orphaned abort
        // decision: it must abort rather than park holding locks.
        std::thread::sleep(std::time::Duration::from_millis(600));
        assert_eq!(cluster.in_doubt_count(), 0, "late prepare must not park");
        assert_eq!(balance(&cluster, 2), 100);
    }

    /// A transport decorator that swallows phase-two decision requests:
    /// the shard never acknowledges, simulating a participant that wedges
    /// *after* voting. `execute_multi` must still return within the
    /// timeout and count the missing acks.
    struct DecisionBlackhole {
        inner: InProcessTransport,
        /// `true`: decision submissions fail fast with a ready `Err`
        /// ticket (a dead connection's failed send). `false`: they stay
        /// pending forever (a wedged shard), via `swallowed` keeping the
        /// reply senders alive so the tickets time out instead of
        /// resolving with a disconnect error.
        reject: bool,
        swallowed: parking_lot::Mutex<Vec<std::sync::mpsc::Sender<ShardResult>>>,
    }

    impl ShardTransport for DecisionBlackhole {
        fn shard_count(&self) -> usize {
            self.inner.shard_count()
        }

        fn submit(&self, shard: usize, request: ShardRequest) -> Ticket<ShardResult> {
            if request.is_decision() {
                if self.reject {
                    // The send itself failed: the inner result is the
                    // error, the ticket resolves instantly.
                    return Ticket::ready(Err(CcError::Internal(
                        "decision send failed".to_string(),
                    )));
                }
                // Never delivered, never acknowledged.
                let (tx, ticket) = Ticket::pending();
                self.swallowed.lock().push(tx);
                return ticket;
            }
            self.inner.submit(shard, request)
        }

        fn call(&self, shard: usize, request: ShardRequest) -> ShardResult {
            self.inner.call(shard, request)
        }
    }

    #[test]
    fn wedged_decision_ack_cannot_hang_finalize() {
        let mut config = ClusterConfig::for_tests(2);
        config.db_config.durability = tebaldi_core::DurabilityMode::Synchronous;
        config.prepare_timeout_ms = 150;
        let cluster = builder_with_test_procs(config)
            .transport_factory(Box::new(|shards, _| {
                Ok(Arc::new(DecisionBlackhole {
                    inner: InProcessTransport::new(shards.to_vec()),
                    reject: false,
                    swallowed: parking_lot::Mutex::new(Vec::new()),
                }) as Arc<dyn ShardTransport>)
            }))
            .build()
            .unwrap();
        cluster.load(1, account_key(1), Value::Int(100));
        cluster.load(2, account_key(2), Value::Int(100));
        let parts = vec![
            procs::increment_part(
                cluster.shard_of(1),
                ProcedureCall::new(TY),
                account_key(1),
                0,
                -30,
            ),
            procs::increment_part(
                cluster.shard_of(2),
                ProcedureCall::new(TY),
                account_key(2),
                0,
                30,
            ),
        ];
        let started = std::time::Instant::now();
        // Both parts prepare fine; the decisions vanish. The transaction
        // still commits (the decision is durable) and the call returns
        // within ~2 timeouts instead of hanging.
        let values = cluster.execute_multi(parts).unwrap();
        assert_eq!(values.len(), 2);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "finalize must not hang on missing decision acks"
        );
        let stats = cluster.stats();
        assert_eq!(stats.decision_ack_timeouts, 2);
        assert_eq!(stats.coordinator.committed, 1);
        // The decisions never reached the shards: both parts stay parked
        // until recovery would resolve them against the decision log.
        assert_eq!(cluster.in_doubt_count(), 2);
    }

    #[test]
    fn one_phase_straggler_ack_logs_a_durable_commit_decision() {
        // One read-write + one read-only part → one-phase fast path, but
        // the decision frame vanishes. The participant's own commit record
        // (the usual one-phase commit point) was never written, so the
        // coordinator must fall back to a durable decision record — or
        // recovery would presume abort for a transaction this call
        // reported committed.
        let mut config = ClusterConfig::for_tests(2);
        config.db_config.durability = tebaldi_core::DurabilityMode::Synchronous;
        config.prepare_timeout_ms = 150;
        let cluster = builder_with_test_procs(config)
            .transport_factory(Box::new(|shards, _| {
                Ok(Arc::new(DecisionBlackhole {
                    inner: InProcessTransport::new(shards.to_vec()),
                    reject: false,
                    swallowed: parking_lot::Mutex::new(Vec::new()),
                }) as Arc<dyn ShardTransport>)
            }))
            .build()
            .unwrap();
        cluster.load(1, account_key(1), Value::Int(100));
        cluster.load(2, account_key(2), Value::Int(100));
        let parts = vec![
            procs::increment_part(
                cluster.shard_of(1),
                ProcedureCall::new(TY),
                account_key(1),
                0,
                5,
            ),
            procs::get_part(cluster.shard_of(2), ProcedureCall::new(TY), account_key(2)),
        ];
        let values = cluster.execute_multi(parts).unwrap();
        assert_eq!(values, vec![Value::Int(105), Value::Int(100)]);
        let stats = cluster.stats();
        assert_eq!(stats.coordinator.one_phase, 1);
        assert_eq!(stats.decision_ack_timeouts, 1);
        assert_eq!(
            cluster.coordinator().committed_globals().len(),
            1,
            "the fallback decision record must be durable"
        );
        // Recovery resolves the still-parked participant to COMMIT.
        let logs: Vec<Arc<dyn LogDevice>> = (0..2).map(|i| cluster.shard_log(i)).collect();
        let decision_log = cluster.coordinator().decision_log();
        let recovered = recover_cluster(&logs, decision_log.as_ref(), 4);
        let rw_shard = cluster.shard_of(1);
        assert_eq!(recovered[rw_shard].1.in_doubt, 1);
        assert_eq!(recovered[rw_shard].1.in_doubt_committed, 1);
        assert_eq!(
            recovered[rw_shard]
                .0
                .read(&account_key(1), tebaldi_storage::ReadSpec::LatestCommitted),
            Some(Value::Int(105)),
            "the write the caller was told committed must survive"
        );
    }

    #[test]
    fn one_phase_rejected_decision_send_also_logs_a_commit_decision() {
        // Same scenario, but the decision *send* fails instantly (dead
        // connection → ready Err ticket) instead of timing out: the inner
        // error must count as an undelivered ack too, or the fallback
        // decision record is skipped and recovery presumes abort.
        let mut config = ClusterConfig::for_tests(2);
        config.db_config.durability = tebaldi_core::DurabilityMode::Synchronous;
        let cluster = builder_with_test_procs(config)
            .transport_factory(Box::new(|shards, _| {
                Ok(Arc::new(DecisionBlackhole {
                    inner: InProcessTransport::new(shards.to_vec()),
                    reject: true,
                    swallowed: parking_lot::Mutex::new(Vec::new()),
                }) as Arc<dyn ShardTransport>)
            }))
            .build()
            .unwrap();
        cluster.load(1, account_key(1), Value::Int(100));
        cluster.load(2, account_key(2), Value::Int(100));
        let parts = vec![
            procs::increment_part(
                cluster.shard_of(1),
                ProcedureCall::new(TY),
                account_key(1),
                0,
                5,
            ),
            procs::get_part(cluster.shard_of(2), ProcedureCall::new(TY), account_key(2)),
        ];
        cluster.execute_multi(parts).unwrap();
        let stats = cluster.stats();
        assert_eq!(stats.coordinator.one_phase, 1);
        assert_eq!(
            stats.decision_ack_timeouts, 1,
            "a failed send counts as an undelivered ack"
        );
        assert_eq!(
            cluster.coordinator().committed_globals().len(),
            1,
            "the fallback decision record must be durable"
        );
    }

    #[test]
    fn prepared_lock_window_uses_injected_clock() {
        let ticks = Arc::new(AtomicU64::new(0));
        let clock_ticks = Arc::clone(&ticks);
        let mut config = ClusterConfig::for_tests(2);
        config.db_config.durability = tebaldi_core::DurabilityMode::Synchronous;
        let cluster = builder_with_test_procs(config)
            // Deterministic clock: every reading advances 1000ns, so one
            // decided transaction measures exactly one tick.
            .clock(Arc::new(move || {
                clock_ticks.fetch_add(1, Ordering::Relaxed) * 1_000
            }))
            .build()
            .unwrap();
        cluster.load(1, account_key(1), Value::Int(0));
        cluster.load(2, account_key(2), Value::Int(0));
        let parts = vec![
            procs::increment_part(
                cluster.shard_of(1),
                ProcedureCall::new(TY),
                account_key(1),
                0,
                1,
            ),
            procs::increment_part(
                cluster.shard_of(2),
                ProcedureCall::new(TY),
                account_key(2),
                0,
                1,
            ),
        ];
        cluster.execute_multi(parts).unwrap();
        assert_eq!(
            cluster.stats().prepared_lock_window_ns,
            1_000,
            "window = decision clock reading - vote clock reading"
        );
    }

    /// Builds a 2-shard, one-worker-per-shard cluster with the given
    /// in-flight window over flush-latency WAL devices, so hardening takes
    /// real time — the only way a single submitting thread finishes a batch
    /// quickly is overlapping prepares in the pipeline.
    fn slow_flush_cluster(window: usize) -> Cluster {
        let mut config = ClusterConfig::for_tests(2);
        config.db_config.durability = tebaldi_core::DurabilityMode::Synchronous;
        config.workers_per_shard = 1;
        config.max_inflight_per_shard = window;
        let flush_latency = std::time::Duration::from_millis(2);
        let shard_logs: Vec<Arc<dyn LogDevice>> = (0..2)
            .map(|_| {
                Arc::new(tebaldi_storage::wal::MemLogDevice::with_flush_latency(
                    flush_latency,
                )) as _
            })
            .collect();
        builder_with_test_procs(config)
            .shard_logs(shard_logs)
            .build()
            .unwrap()
    }

    fn transfer_parts(cluster: &Cluster, from: u64, to: u64, amount: i64) -> Vec<ShardPart> {
        vec![
            procs::increment_part(
                cluster.shard_of(from),
                ProcedureCall::new(TY),
                account_key(from),
                0,
                -amount,
            ),
            procs::increment_part(
                cluster.shard_of(to),
                ProcedureCall::new(TY),
                account_key(to),
                0,
                amount,
            ),
        ]
    }

    #[test]
    fn batched_phase_one_overlaps_prepares_from_one_thread() {
        let cluster = slow_flush_cluster(32);
        let n = 8u64;
        for account in 1..=2 * n {
            cluster.load(account, account_key(account), Value::Int(100));
        }
        // One thread, one call: every transaction's phase one is submitted
        // before any vote is collected.
        let batch: Vec<BatchTxn> = (0..n)
            .map(|i| BatchTxn::undeclared(transfer_parts(&cluster, 2 * i + 1, 2 * i + 2, 30)))
            .collect();
        let results = cluster.execute_multi_batch_declared(batch);
        assert_eq!(results.len(), n as usize);
        for result in &results {
            assert!(result.is_ok(), "batched transfer failed: {result:?}");
        }
        for i in 0..n {
            assert_eq!(balance(&cluster, 2 * i + 1), 70);
            assert_eq!(balance(&cluster, 2 * i + 2), 130);
        }
        assert_eq!(cluster.in_doubt_count(), 0);
        let stats = cluster.stats();
        assert_eq!(stats.coordinator.committed, n);
        assert!(
            stats.max_pipeline_depth >= 2,
            "a single worker must have overlapped in-flight prepares, depth={}",
            stats.max_pipeline_depth
        );
        assert!(
            stats.prepare_hardening_ns > 0,
            "deferred hardening must be measured"
        );
    }

    #[test]
    fn window_one_keeps_one_body_in_flight_per_shard() {
        let cluster = slow_flush_cluster(1);
        for account in 1..=8 {
            cluster.load(account, account_key(account), Value::Int(100));
        }
        let batch: Vec<BatchTxn> = (0..4)
            .map(|i| BatchTxn::undeclared(transfer_parts(&cluster, 2 * i + 1, 2 * i + 2, 10)))
            .collect();
        for result in cluster.execute_multi_batch_declared(batch) {
            result.unwrap();
        }
        let stats = cluster.stats();
        assert_eq!(stats.coordinator.committed, 4);
        assert_eq!(
            stats.max_pipeline_depth, 1,
            "window 1 must keep one body in flight per shard"
        );
        assert_eq!(cluster.in_doubt_count(), 0);
        // Same pipeline, smaller window: every transfer moved its 10 and
        // nothing was created or lost.
        for i in 0..4 {
            assert_eq!(balance(&cluster, 2 * i + 1), 90);
            assert_eq!(balance(&cluster, 2 * i + 2), 110);
        }
        assert_eq!((1..=8).map(|a| balance(&cluster, a)).sum::<i64>(), 800);
    }

    #[test]
    fn batch_with_invalid_transaction_fails_only_that_transaction() {
        let cluster = cluster(2);
        cluster.load(1, account_key(1), Value::Int(100));
        cluster.load(2, account_key(2), Value::Int(100));
        let batch = vec![
            BatchTxn::undeclared(transfer_parts(&cluster, 1, 2, 25)),
            // Both parts on one shard: rejected at validation.
            BatchTxn::undeclared(vec![
                procs::increment_part(0, ProcedureCall::new(TY), account_key(4), 0, 1),
                procs::increment_part(0, ProcedureCall::new(TY), account_key(6), 0, 1),
            ]),
        ];
        let results = cluster.execute_multi_batch_declared(batch);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert_eq!(balance(&cluster, 1), 75);
        assert_eq!(balance(&cluster, 2), 125);
        assert_eq!(cluster.in_doubt_count(), 0);
        // The failed transaction counts as a batch abort; nothing was
        // deferred (no declarations).
        let stats = cluster.stats();
        assert_eq!(stats.batch_scheduled, 0);
        assert_eq!(stats.batch_aborts, 1);
    }

    #[test]
    fn declared_conflicts_schedule_into_waves_and_all_commit() {
        let cluster = slow_flush_cluster(32);
        let n = 4u64;
        cluster.load(1, account_key(1), Value::Int(100));
        for i in 1..=n {
            cluster.load(2 * i, account_key(2 * i), Value::Int(100));
        }
        // Every transaction debits account 1: a WW chain through the whole
        // batch. The scheduler must put each in its own wave, so they
        // serialize by scheduling and all commit.
        let batch: Vec<BatchTxn> = (1..=n)
            .map(|i| {
                BatchTxn::declared(
                    transfer_parts(&cluster, 1, 2 * i, 10),
                    BatchKeySets::writes(vec![account_key(1), account_key(2 * i)]),
                )
            })
            .collect();
        let results = cluster.execute_multi_batch_declared(batch);
        assert_eq!(results.len(), n as usize);
        for result in &results {
            assert!(result.is_ok(), "scheduled transfer failed: {result:?}");
        }
        assert_eq!(balance(&cluster, 1), 100 - 10 * n as i64);
        for i in 1..=n {
            assert_eq!(balance(&cluster, 2 * i), 110);
        }
        let stats = cluster.stats();
        assert_eq!(
            stats.batch_scheduled,
            n - 1,
            "every transaction after the first must defer behind the chain"
        );
        assert_eq!(stats.batch_aborts, 0);
        assert_eq!(cluster.in_doubt_count(), 0);
    }

    #[test]
    fn disjoint_declarations_keep_the_whole_batch_in_wave_zero() {
        let cluster = slow_flush_cluster(32);
        let n = 8u64;
        for account in 1..=2 * n {
            cluster.load(account, account_key(account), Value::Int(100));
        }
        // Fully declared but key-disjoint: the scheduler must not defer
        // anything, preserving the overlapped phase-one pipeline.
        let batch: Vec<BatchTxn> = (0..n)
            .map(|i| {
                let (from, to) = (2 * i + 1, 2 * i + 2);
                BatchTxn::declared(
                    transfer_parts(&cluster, from, to, 30),
                    BatchKeySets::writes(vec![account_key(from), account_key(to)]),
                )
            })
            .collect();
        for result in cluster.execute_multi_batch_declared(batch) {
            result.unwrap();
        }
        let stats = cluster.stats();
        assert_eq!(
            stats.batch_scheduled, 0,
            "disjoint footprints must not defer"
        );
        assert_eq!(stats.batch_aborts, 0);
        assert!(
            stats.max_pipeline_depth >= 2,
            "wave zero must still overlap prepares, depth={}",
            stats.max_pipeline_depth
        );
        assert_eq!(cluster.in_doubt_count(), 0);
    }

    #[test]
    fn read_write_conflicts_defer_and_mixed_declarations_compose() {
        let cluster = cluster(2);
        for account in 1..=4 {
            cluster.load(account, account_key(account), Value::Int(100));
        }
        // Txn 0 writes {1,2}; txn 1 declares a read of 2 (RW edge → wave
        // 1); txn 2 is undeclared (wave 0 regardless of its real keys).
        let batch = vec![
            BatchTxn::declared(
                transfer_parts(&cluster, 1, 2, 25),
                BatchKeySets::writes(vec![account_key(1), account_key(2)]),
            ),
            BatchTxn::declared(
                transfer_parts(&cluster, 2, 3, 5),
                BatchKeySets::new(vec![account_key(2)], vec![account_key(3)]),
            ),
            BatchTxn::undeclared(transfer_parts(&cluster, 3, 4, 1)),
        ];
        let results = cluster.execute_multi_batch_declared(batch);
        for result in &results {
            assert!(result.is_ok(), "mixed batch failed: {result:?}");
        }
        let stats = cluster.stats();
        assert_eq!(stats.batch_scheduled, 1, "only the RW-dependent txn defers");
        assert_eq!(cluster.in_doubt_count(), 0);
    }

    #[test]
    fn failed_part_aborts_every_shard() {
        let cluster = cluster(2);
        cluster.load(1, account_key(1), Value::Int(100));
        cluster.load(2, account_key(2), Value::Int(100));
        let parts = vec![
            procs::increment_part(
                cluster.shard_of(1),
                ProcedureCall::new(TY),
                account_key(1),
                0,
                -30,
            ),
            ShardPart::new(
                cluster.shard_of(2),
                ProcedureCall::new(TY),
                POISON,
                procs::key_args(account_key(2)),
            ),
        ];
        assert!(cluster.execute_multi(parts).is_err());
        assert_eq!(balance(&cluster, 1), 100, "debit must roll back");
        assert_eq!(balance(&cluster, 2), 100, "credit must roll back");
        assert_eq!(cluster.in_doubt_count(), 0);
        assert_eq!(cluster.stats().coordinator.aborted, 1);
    }

    #[test]
    fn recovery_resolves_in_doubt_against_decision_log() {
        // Simulate a crash between prepare and decide: prepare both parts
        // by hand, log the commit decision, then "crash" (drop without
        // deciding) and recover from the WALs + decision log.
        let cluster = cluster(2);
        cluster.load(1, account_key(1), Value::Int(50));
        cluster.load(2, account_key(2), Value::Int(50));
        // Baseline commits so the recovered stores have the loads hardened.
        for account in [1u64, 2u64] {
            let shard = cluster.shard_of(account);
            cluster
                .execute_single(
                    shard,
                    procs::KV_INCREMENT,
                    &ProcedureCall::new(TY),
                    procs::increment_args(account_key(account), 0, 0),
                    10,
                )
                .unwrap();
        }

        let global = cluster.coordinator().begin_global();
        let (_, p1) = cluster
            .shard(cluster.shard_of(1))
            .prepare(&ProcedureCall::new(TY), global, |txn| {
                txn.increment(account_key(1), 0, -20)
            })
            .map(|(v, vote)| (v, vote.expect_prepared()))
            .unwrap();
        let (_, p2) = cluster
            .shard(cluster.shard_of(2))
            .prepare(&ProcedureCall::new(TY), global, |txn| {
                txn.increment(account_key(2), 0, 20)
            })
            .map(|(v, vote)| (v, vote.expect_prepared()))
            .unwrap();
        for index in 0..2 {
            cluster.shard(index).durability().seal_current_epoch();
        }
        // Commit point reached...
        cluster.coordinator().log_commit(global, 0);
        let logs: Vec<Arc<dyn LogDevice>> = (0..2).map(|index| cluster.shard_log(index)).collect();
        let decision_log = cluster.coordinator().decision_log();
        // ...then the cluster crashes before the decision is delivered.
        std::mem::forget(p1);
        std::mem::forget(p2);

        let recovered = recover_cluster(&logs, decision_log.as_ref(), 4);
        let mut balances = Vec::new();
        for (store, report) in &recovered {
            assert_eq!(report.in_doubt, 1);
            assert_eq!(report.in_doubt_committed, 1, "decision log says commit");
            for account in [1u64, 2u64] {
                if let Some(v) = store.read(
                    &account_key(account),
                    tebaldi_storage::ReadSpec::LatestCommitted,
                ) {
                    balances.push(v.as_int().unwrap());
                }
            }
        }
        balances.sort_unstable();
        assert_eq!(balances, vec![30, 70], "the transfer survived the crash");
    }

    #[test]
    fn undecided_prepare_presumed_aborted_on_recovery() {
        let cluster = cluster(2);
        cluster.load(1, account_key(1), Value::Int(50));
        let shard = cluster.shard_of(1);
        cluster
            .execute_single(
                shard,
                procs::KV_INCREMENT,
                &ProcedureCall::new(TY),
                procs::increment_args(account_key(1), 0, 0),
                10,
            )
            .unwrap();
        cluster.shard(shard).durability().seal_current_epoch();
        let global = cluster.coordinator().begin_global();
        let (_, prepared) = cluster
            .shard(shard)
            .prepare(&ProcedureCall::new(TY), global, |txn| {
                txn.increment(account_key(1), 0, -20)
            })
            .map(|(v, vote)| (v, vote.expect_prepared()))
            .unwrap();
        // Crash with no decision logged.
        let log = cluster.shard_log(shard);
        let decision_log = cluster.coordinator().decision_log();
        std::mem::forget(prepared);

        let recovered = recover_cluster(&[log], decision_log.as_ref(), 4);
        let (store, report) = &recovered[0];
        assert_eq!(report.in_doubt, 1);
        assert_eq!(report.in_doubt_aborted, 1);
        assert_eq!(
            store.read(&account_key(1), tebaldi_storage::ReadSpec::LatestCommitted),
            Some(Value::Int(50)),
            "presumed abort keeps the old balance"
        );
    }

    /// The unified read API returns identical answers at every
    /// consistency level against quiesced data, in input order, `None`
    /// for absent keys — including cross-shard batches.
    #[test]
    fn read_api_answers_match_across_consistency_levels() {
        let cluster = cluster(4);
        for account in 1..=8u64 {
            cluster.load(
                account,
                account_key(account),
                Value::Int(account as i64 * 10),
            );
        }
        let keys: Vec<(u64, Key)> = [3u64, 7, 1, 99, 6]
            .iter()
            .map(|&account| (account, account_key(account)))
            .collect();
        let expected = vec![
            Some(Value::Int(30)),
            Some(Value::Int(70)),
            Some(Value::Int(10)),
            None,
            Some(Value::Int(60)),
        ];
        let levels = [
            ReadConsistency::Strong,
            ReadConsistency::Snapshot,
            ReadConsistency::BoundedStaleness {
                max_lag: Duration::from_millis(500),
            },
        ];
        for level in levels {
            assert_eq!(
                cluster.read(keys.clone(), level).unwrap(),
                expected,
                "consistency level {level:?}"
            );
        }
    }

    /// A `Snapshot` read writes no prepare WAL records and no decision-log
    /// entries — the zero-2PC contract, asserted at the durability layer.
    #[test]
    fn snapshot_reads_write_no_prepare_or_decision_records() {
        let cluster = cluster(4);
        for account in 1..=4u64 {
            cluster.load(account, account_key(account), Value::Int(1));
        }
        let prepares_before: u64 = (0..4)
            .map(|shard| cluster.shard(shard).durability().stats().prepares)
            .sum();
        let decisions_before = cluster.stats().coordinator.decisions_logged;
        let decision_log_len = cluster.coordinator().decision_log().read_back().len();

        let keys: Vec<(u64, Key)> = (1..=4u64)
            .map(|account| (account, account_key(account)))
            .collect();
        let values = cluster.read(keys, ReadConsistency::Snapshot).unwrap();
        assert_eq!(values.len(), 4);
        assert!(values.iter().all(|v| v == &Some(Value::Int(1))));

        let prepares_after: u64 = (0..4)
            .map(|shard| cluster.shard(shard).durability().stats().prepares)
            .sum();
        assert_eq!(prepares_after, prepares_before, "zero prepare records");
        assert_eq!(
            cluster.stats().coordinator.decisions_logged,
            decisions_before,
            "zero decisions logged"
        );
        assert_eq!(
            cluster.coordinator().decision_log().read_back().len(),
            decision_log_len,
            "zero decision-log appends"
        );
        assert!(cluster.stats().snapshot_reads >= 1);
    }

    /// A pinned [`SnapshotHandle`] keeps answering from its stamp: writes
    /// committed after the pin stay invisible through the handle while a
    /// fresh read sees them.
    #[test]
    fn snapshot_handle_pins_its_cut() {
        let cluster = cluster(2);
        cluster.load(1, account_key(1), Value::Int(100));
        cluster.load(2, account_key(2), Value::Int(200));
        let keys: Vec<(u64, Key)> = vec![(1, account_key(1)), (2, account_key(2))];

        let pinned = cluster.snapshot();
        assert_eq!(
            pinned.read_keyed(keys.clone()).unwrap(),
            vec![Some(Value::Int(100)), Some(Value::Int(200))]
        );

        // Commit a cross-shard transfer after the pin.
        cluster
            .execute_multi(vec![
                procs::increment_part(
                    cluster.shard_of(1),
                    ProcedureCall::new(TY),
                    account_key(1),
                    0,
                    -30,
                ),
                procs::increment_part(
                    cluster.shard_of(2),
                    ProcedureCall::new(TY),
                    account_key(2),
                    0,
                    30,
                ),
            ])
            .unwrap();

        assert_eq!(
            pinned.read_keyed(keys.clone()).unwrap(),
            vec![Some(Value::Int(100)), Some(Value::Int(200))],
            "the pinned handle must not see the later commit"
        );
        assert_eq!(
            cluster.read(keys, ReadConsistency::Snapshot).unwrap(),
            vec![Some(Value::Int(70)), Some(Value::Int(230))],
            "a fresh snapshot sees it"
        );
    }

    /// Snapshot reads racing cross-shard transfers always observe a
    /// conserved total — a commit is visible on all shards or none.
    #[test]
    fn snapshot_reads_never_observe_a_torn_transfer() {
        let cluster = Arc::new(cluster(2));
        cluster.load(1, account_key(1), Value::Int(500));
        cluster.load(2, account_key(2), Value::Int(500));
        let writer = {
            let cluster = Arc::clone(&cluster);
            std::thread::spawn(move || {
                for _ in 0..40 {
                    cluster
                        .execute_multi_with_retry(10, || {
                            vec![
                                procs::increment_part(
                                    cluster.shard_of(1),
                                    ProcedureCall::new(TY),
                                    account_key(1),
                                    0,
                                    -5,
                                ),
                                procs::increment_part(
                                    cluster.shard_of(2),
                                    ProcedureCall::new(TY),
                                    account_key(2),
                                    0,
                                    5,
                                ),
                            ]
                        })
                        .unwrap();
                }
            })
        };
        let keys: Vec<(u64, Key)> = vec![(1, account_key(1)), (2, account_key(2))];
        while !writer.is_finished() {
            let values = cluster
                .read(keys.clone(), ReadConsistency::Snapshot)
                .unwrap();
            let total: i64 = values
                .iter()
                .map(|v| v.as_ref().and_then(Value::as_int).unwrap())
                .sum();
            assert_eq!(total, 1000, "torn snapshot: {values:?}");
        }
        writer.join().unwrap();
        assert_eq!(balance(&cluster, 1), 300);
        assert_eq!(balance(&cluster, 2), 700);
    }

    /// `execute_multi_with_retry` surfaces a non-retryable abort at once
    /// and routes a one-part list down the single-shard fast path.
    #[test]
    fn execute_multi_with_retry_surfaces_poisoned_attempts() {
        let cluster = cluster(2);
        cluster.load(1, account_key(1), Value::Int(10));
        // POISON increments then self-aborts: never commits, not
        // retryable. A single-attempt execute surfaces the abort.
        let poisoned = vec![ShardPart::new(
            cluster.shard_of(1),
            ProcedureCall::new(TY),
            POISON,
            procs::key_args(account_key(1)),
        )];
        let err = cluster
            .execute_multi_with_retry(3, || poisoned.clone())
            .unwrap_err();
        assert!(matches!(err, CcError::Requested), "got {err:?}");
        // A clean increment through the same entry point commits.
        let (values, aborts) = cluster
            .execute_multi_with_retry(3, || {
                vec![procs::increment_part(
                    cluster.shard_of(1),
                    ProcedureCall::new(TY),
                    account_key(1),
                    0,
                    7,
                )]
            })
            .unwrap();
        assert_eq!(values, vec![Value::Int(17)]);
        assert_eq!(aborts, 0);
        assert_eq!(balance(&cluster, 1), 17);
    }
}
