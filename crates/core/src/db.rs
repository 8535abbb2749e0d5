//! The Tebaldi database engine.
//!
//! A [`Database`] bundles the multiversion store, the transaction
//! directory, the timestamp oracle, the durability manager, the GC manager
//! and — behind a swappable handle — the current CC tree. Client threads
//! (the paper's transaction coordinators) call [`Database::execute`] with a
//! closure that issues reads and writes through a [`Txn`](crate::txn::Txn)
//! handle; the engine drives the four-phase protocol across the
//! transaction's root→leaf path.

use crate::config::{DbConfig, DurabilityMode};
use crate::gate::ReconfigGate;
use crate::hlc::Hlc;
use crate::procedure::ProcedureCall;
use crate::stats::AbortCounters;
use crate::txn::Txn;
use parking_lot::RwLock;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tebaldi_cc::history::HistoryRecorder;
use tebaldi_cc::{
    CcError, CcResult, CcTree, CcTreeSpec, EventSink, NullSink, ProcedureSet, TreeServices,
    TsOracle, TxnRegistry, TxnStatus,
};
use tebaldi_obs::metrics::Counter;
use tebaldi_obs::{Histogram, MetricsRegistry};
use tebaldi_storage::durability::{DurabilityManager, FlushPolicy};
use tebaldi_storage::gc::GcManager;
use tebaldi_storage::wal::{LogDevice, MemLogDevice};
use tebaldi_storage::{GroupId, MvStore, TxnId, TxnTypeId};

/// The transactional key-value store.
pub struct Database {
    pub(crate) config: DbConfig,
    pub(crate) store: Arc<MvStore>,
    pub(crate) registry: Arc<TxnRegistry>,
    pub(crate) oracle: Arc<TsOracle>,
    pub(crate) hlc: Arc<Hlc>,
    pub(crate) events: Arc<dyn EventSink>,
    pub(crate) procedures: ProcedureSet,
    pub(crate) tree: RwLock<Arc<CcTree>>,
    pub(crate) durability: Arc<DurabilityManager>,
    pub(crate) gc: GcManager,
    pub(crate) history: Option<Arc<HistoryRecorder>>,
    /// `db.committed` and the abort counters of [`crate::stats`].
    pub(crate) committed: Arc<Counter>,
    pub(crate) aborts: AbortCounters,
    pub(crate) gate: ReconfigGate,
    pub(crate) txn_ids: AtomicU64,
    pub(crate) reconfigurations: AtomicU64,
    pub(crate) metrics: Arc<MetricsRegistry>,
    /// Per-procedure commit-latency histograms, cached by type id so the
    /// hot path never formats a metric name.
    proc_latency: RwLock<HashMap<TxnTypeId, Arc<Histogram>>>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("groups", &self.tree.read().group_count())
            .finish()
    }
}

/// Builder for a [`Database`].
pub struct DatabaseBuilder {
    config: DbConfig,
    procedures: ProcedureSet,
    spec: Option<CcTreeSpec>,
    events: Arc<dyn EventSink>,
    log_device: Option<Arc<dyn LogDevice>>,
    store: Option<MvStore>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl DatabaseBuilder {
    /// Starts a builder with the given engine configuration.
    pub fn new(config: DbConfig) -> Self {
        DatabaseBuilder {
            config,
            procedures: ProcedureSet::new(),
            spec: None,
            events: Arc::new(NullSink),
            log_device: None,
            store: None,
            metrics: None,
        }
    }

    /// Registers the stored-procedure descriptions of the workload.
    pub fn procedures(mut self, procedures: ProcedureSet) -> Self {
        self.procedures = procedures;
        self
    }

    /// Sets the initial MCC configuration.
    pub fn cc_spec(mut self, spec: CcTreeSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Installs a blocking-event sink (the autoconf profiler).
    pub fn events(mut self, events: Arc<dyn EventSink>) -> Self {
        self.events = events;
        self
    }

    /// Uses a specific log device for durability (default: in-memory).
    pub fn log_device(mut self, device: Arc<dyn LogDevice>) -> Self {
        self.log_device = Some(device);
        self
    }

    /// Opens the database over an existing (e.g. recovered) store instead of
    /// an empty one.
    pub fn store(mut self, store: MvStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Uses a specific metrics registry (default: a fresh enabled one).
    /// Pass [`MetricsRegistry::disabled`] for the obs-off configuration:
    /// histograms stop recording while counters — the commit and abort
    /// counts [`Database::stats`] reads, durability stats — stay live.
    pub fn metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Builds the database.
    pub fn build(self) -> Result<Database, String> {
        let spec = self.spec.ok_or("a CC-tree specification is required")?;
        let mut store = self
            .store
            .unwrap_or_else(|| MvStore::new(self.config.shards));
        let registry = Arc::new(TxnRegistry::default());
        let oracle = Arc::new(TsOracle::new());
        let metrics = self
            .metrics
            .unwrap_or_else(|| Arc::new(MetricsRegistry::new()));
        let services = TreeServices {
            registry: Arc::clone(&registry),
            oracle: Arc::clone(&oracle),
            events: Arc::clone(&self.events),
            wait_timeout: self.config.wait_timeout(),
            metrics: Arc::clone(&metrics),
        };
        let tree = CcTree::build(spec, &self.procedures, &services)?;
        let policy = match self.config.durability {
            DurabilityMode::Off => FlushPolicy::Disabled,
            DurabilityMode::Synchronous => FlushPolicy::Synchronous,
            DurabilityMode::Asynchronous { epoch_ms } => FlushPolicy::Asynchronous {
                epoch_interval: Duration::from_millis(epoch_ms),
            },
        };
        let device: Arc<dyn LogDevice> = self
            .log_device
            .unwrap_or_else(|| Arc::new(MemLogDevice::new()));
        store.attach_metrics(&metrics);
        let durability = DurabilityManager::with_metrics(device, policy, &metrics);
        let history = if self.config.record_history {
            Some(Arc::new(HistoryRecorder::new()))
        } else {
            None
        };
        Ok(Database {
            config: self.config,
            store: Arc::new(store),
            registry,
            oracle,
            hlc: Arc::new(Hlc::new()),
            events: self.events,
            procedures: self.procedures,
            tree: RwLock::new(Arc::new(tree)),
            durability,
            gc: GcManager::new(),
            history,
            committed: metrics.counter("db.committed"),
            aborts: std::array::from_fn(|_| Default::default()),
            gate: ReconfigGate::new(),
            txn_ids: AtomicU64::new(1),
            reconfigurations: AtomicU64::new(0),
            metrics,
            proc_latency: RwLock::new(HashMap::new()),
        })
    }
}

impl Database {
    /// Shorthand builder entry point.
    pub fn builder(config: DbConfig) -> DatabaseBuilder {
        DatabaseBuilder::new(config)
    }

    /// The engine configuration.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// The procedure descriptions registered at build time.
    pub fn procedures(&self) -> &ProcedureSet {
        &self.procedures
    }

    /// The multiversion store (loaders write through it directly).
    pub fn store(&self) -> &Arc<MvStore> {
        &self.store
    }

    /// The currently active CC tree.
    pub fn current_tree(&self) -> Arc<CcTree> {
        Arc::clone(&self.tree.read())
    }

    /// The currently active MCC configuration.
    pub fn current_spec(&self) -> CcTreeSpec {
        self.tree.read().spec().clone()
    }

    /// The transaction directory (exposed for the profiler and tests).
    pub fn registry(&self) -> &Arc<TxnRegistry> {
        &self.registry
    }

    /// The timestamp oracle.
    pub fn oracle(&self) -> &Arc<TsOracle> {
        &self.oracle
    }

    /// The shard's hybrid logical clock (see [`crate::hlc`]). Commits are
    /// stamped from it, wire frames carry and merge it, and recovery
    /// re-bases it alongside the txn-id / commit-ts generators.
    pub fn hlc(&self) -> &Arc<Hlc> {
        &self.hlc
    }

    /// Advances the transaction-id allocator so the next id is greater
    /// than `floor`. Needed after recovery whenever this database keeps
    /// appending to a log that already holds records up to txn `floor`
    /// (a promoted replica inheriting its primary's shipped WAL): reusing
    /// a txn id that is live in the log would corrupt a later replay.
    pub fn advance_txn_ids_past(&self, floor: u64) {
        use std::sync::atomic::Ordering;
        let target = floor + 1;
        let mut cur = self.txn_ids.load(Ordering::Relaxed);
        while cur < target {
            match self
                .txn_ids
                .compare_exchange(cur, target, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// The durability manager.
    pub fn durability(&self) -> &Arc<DurabilityManager> {
        &self.durability
    }

    /// The metrics registry: commit and abort counters, durability
    /// counters, shard-pipeline instruments and per-procedure latency
    /// histograms all live here.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The commit-latency histogram of procedure type `ty`
    /// (`proc.<name>.latency_ns`), cached per type.
    pub fn proc_latency_histogram(&self, ty: TxnTypeId) -> Arc<Histogram> {
        if let Some(h) = self.proc_latency.read().get(&ty) {
            return Arc::clone(h);
        }
        let mut map = self.proc_latency.write();
        Arc::clone(map.entry(ty).or_insert_with(|| {
            self.metrics
                .histogram(&format!("proc.{}.latency_ns", self.procedures.name(ty)))
        }))
    }

    /// Number of reconfigurations applied so far.
    pub fn reconfiguration_count(&self) -> u64 {
        self.reconfigurations.load(Ordering::Relaxed)
    }

    /// Loads a key with an initial value, bypassing concurrency control.
    /// Used by workload loaders before the benchmark starts.
    pub fn load(&self, key: tebaldi_storage::Key, value: tebaldi_storage::Value) {
        self.store.load(&key, value);
    }

    /// Executes one transaction attempt described by `call` with the body
    /// `body`. Returns the body's result on commit, or the abort reason.
    pub fn execute<R>(
        &self,
        call: &ProcedureCall,
        body: impl FnOnce(&mut Txn<'_>) -> CcResult<R>,
    ) -> CcResult<R> {
        self.execute_inner(call, false, body)
            .map(|(value, _)| value)
    }

    /// The pipelined variant of [`execute`](Database::execute): the commit
    /// records are appended (fixing their place in the log order) but the
    /// durability wait is returned as a group-commit funnel sequence
    /// instead of blocking the calling thread. The caller **must** pass it
    /// to [`wait_hardened`](Database::wait_hardened) before acknowledging
    /// the commit to anyone; versions are already visible and locks
    /// released, so deferring only delays the acknowledgement — a shard
    /// worker hands the sequence to its completion loop and immediately
    /// starts the next transaction's body. `None` means the commit is
    /// already as durable as the flushing policy requires.
    ///
    /// The two forms are kept on purpose (unlike `prepare`, whose blocking
    /// form is this one plus a wait: a prepared transaction keeps its
    /// locks either way). [`execute`](Database::execute) is
    /// durable-then-visible, so nobody can read a version a crash would
    /// lose and in-process snapshot reads never wait on a flush;
    /// `execute_deferred` is visible-then-durable, so the flush leaves the
    /// lock window and every read-only acknowledgement takes the read
    /// barrier instead. The shard selects by what it observes — an inline
    /// caller (in-process `execute_single`) blocks, a queued worker (all
    /// of TCP, every 2PC prepare) defers — and the benchmark sits on both
    /// sides (`cluster_inproc`/`cluster_readmix_snap` vs
    /// `cluster_tcp_repl`). Measured at PR 19, 10 alternating pairs: with
    /// `execute` rewritten as this plus a wait, `cluster_inproc` stays
    /// inside its spread (tps +1.5 %, p50 −3.5 %) but
    /// `cluster_readmix_snap` p50 rises 16.0 % in 10/10 pairs (0.0576 →
    /// 0.0669 ms, parent IQR 1.3 %) once its snapshot reads honour the
    /// barrier.
    pub fn execute_deferred<R>(
        &self,
        call: &ProcedureCall,
        body: impl FnOnce(&mut Txn<'_>) -> CcResult<R>,
    ) -> CcResult<(R, Option<u64>)> {
        self.execute_inner(call, true, body)
    }

    fn execute_inner<R>(
        &self,
        call: &ProcedureCall,
        defer_harden: bool,
        body: impl FnOnce(&mut Txn<'_>) -> CcResult<R>,
    ) -> CcResult<(R, Option<u64>)> {
        let timer = self.metrics.is_enabled().then(Instant::now);
        // Declared read-only only when it runs whole here: a 2PC part
        // (`prepare`) may be the read-only half of a writing transaction.
        let read_only = self.procedures.get(call.ty).is_some_and(|p| p.read_only);
        let result = self.attempt(
            call,
            read_only,
            |txn| {
                let value = body(txn)?;
                let (commit_ts, harden) = if defer_harden {
                    txn.commit_deferred()?
                } else {
                    (txn.commit()?, None)
                };
                Ok((value, commit_ts, harden))
            },
            |_txn, (value, commit_ts, harden), gate_group, gc_epoch| {
                self.gc.transaction_finished(gc_epoch, Some(commit_ts));
                self.record_commit();
                self.gate.exit(gate_group);
                (value, harden)
            },
        );
        if let (Some(started), Ok(_)) = (timer, &result) {
            self.proc_latency_histogram(call.ty)
                .record_duration(started.elapsed());
        }
        result
    }

    /// The prologue of every transaction attempt, and its abort path:
    /// admission through the reconfiguration gate, the start phase (of a
    /// transaction declared read-only when `read_only` is set), then
    /// `run` — the body plus whatever else of the caller's may still abort
    /// the attempt (the commit, or a 2PC part's validation). When `run`
    /// fails, the attempt is aborted, accounted for and its gate slot
    /// released here. When it succeeds the attempt can no longer abort and
    /// `epilogue` takes over the transaction, its gate group (whose slot it
    /// must release, now or at the 2PC decision) and its GC epoch.
    fn attempt<V, T>(
        &self,
        call: &ProcedureCall,
        read_only: bool,
        run: impl FnOnce(&mut Txn<'_>) -> CcResult<V>,
        epilogue: impl FnOnce(Txn<'_>, V, GroupId, u64) -> T,
    ) -> CcResult<T> {
        let no_group = || CcError::Internal(format!("no group for {:?}", call.ty));
        let tree = self.current_tree();
        let gate_group = tree
            .group_for(call.ty, call.instance_seed)
            .ok_or_else(no_group)?;

        // Admission: blocked while the group is being drained for a
        // reconfiguration.
        if !self.gate.enter(
            gate_group,
            self.config.wait_timeout().max(Duration::from_millis(500)),
        ) {
            return Err(CcError::Requested);
        }
        // Re-read the tree *after* admission: a reconfiguration may have
        // swapped it while this transaction waited at the gate, and running
        // on the stale tree's mechanism instances (with their own private
        // lock tables) would let updates race past the new tree's locks.
        // Once admitted, the drain protocol waits for us, so this read is
        // stable for the whole execution.
        let tree = self.current_tree();
        let Some(group) = tree.group_for(call.ty, call.instance_seed) else {
            self.gate.exit(gate_group);
            return Err(no_group());
        };

        let txn_id = TxnId(self.txn_ids.fetch_add(1, Ordering::Relaxed));
        let gc_epoch = self.gc.transaction_started();
        // Pin the reclamation epoch once for the whole attempt: every
        // store access inside is then a cheap nested pin (one refcount
        // bump) instead of an announcement store.
        let _epoch_pin = tebaldi_storage::ebr::pin();
        self.registry.register(txn_id, call.ty, group);
        if let Some(history) = &self.history {
            history.begin(txn_id, call.ty, group);
        }

        let mut txn = Txn::new(self, &tree, txn_id, call.ty, group, read_only);
        let outcome = txn.begin(&call.promised_keys).and_then(|()| run(&mut txn));
        match outcome {
            Ok(value) => Ok(epilogue(txn, value, gate_group, gc_epoch)),
            Err(err) => {
                txn.abort();
                self.gc.transaction_finished(gc_epoch, None);
                self.record_abort(&err);
                self.gate.exit(gate_group);
                Err(err)
            }
        }
    }

    /// Blocks until the deferred record behind `seq` (returned by
    /// [`prepare_deferred`](Database::prepare_deferred) or
    /// [`execute_deferred`](Database::execute_deferred)) is durable.
    /// Waiting on the highest sequence of a batch hardens the whole batch
    /// with at most one device flush.
    pub fn wait_hardened(&self, seq: u64) {
        self.durability.wait_group_seq(seq);
    }

    /// Runs one transaction attempt up to the *prepared* state — the
    /// participant half of the cluster's cross-shard two-phase commit.
    ///
    /// The body executes, every mechanism validates, the dependency set is
    /// waited out, and the vote is classified:
    ///
    /// * **read-write part** — (when durability is on) a `Prepare` record
    ///   carrying `global` — the cluster-global transaction id — is group-
    ///   commit flushed to the WAL, and the transaction is parked in a
    ///   [`PreparedTxn`](crate::prepared::PreparedTxn), still holding its
    ///   locks, until the coordinator decides;
    /// * **read-only part** — the write set is empty, so there is nothing
    ///   the decision could roll back: the part commits and releases
    ///   immediately after phase one, writes no prepare record, and votes
    ///   [`ParticipantVote::ReadOnly`](crate::prepared::ParticipantVote)
    ///   so the coordinator excludes it from phase two.
    ///
    /// On error the transaction has already been aborted and its resources
    /// released.
    pub fn prepare<R>(
        self: &Arc<Self>,
        call: &ProcedureCall,
        global: u64,
        body: impl FnOnce(&mut Txn<'_>) -> CcResult<R>,
    ) -> CcResult<(R, crate::prepared::ParticipantVote)> {
        let (value, vote, harden) = self.prepare_deferred(call, global, body)?;
        if let Some(seq) = harden {
            self.wait_hardened(seq);
        }
        Ok((value, vote))
    }

    /// [`prepare`](Database::prepare) without the wait at the edge: the
    /// `Prepare` WAL record is appended into the group-commit funnel and
    /// its funnel sequence returned instead of blocking until the flush.
    /// The caller — a shard's acknowledgement path — **must** call
    /// [`wait_hardened`](Database::wait_hardened) with that sequence
    /// before acknowledging the yes-vote to anyone: a vote on an unflushed
    /// prepare record could be silently lost by a crash. A `None` sequence
    /// means there is nothing to wait for (durability disabled). A read-only
    /// vote may also carry a sequence: the read-acknowledgement barrier
    /// over deferred commits it may have read from.
    pub fn prepare_deferred<R>(
        self: &Arc<Self>,
        call: &ProcedureCall,
        global: u64,
        body: impl FnOnce(&mut Txn<'_>) -> CcResult<R>,
    ) -> CcResult<(R, crate::prepared::ParticipantVote, Option<u64>)> {
        self.attempt(
            call,
            false,
            |txn| {
                let value = body(txn)?;
                txn.validate_and_wait_deps()?;
                // Stabilize the yes-vote: every mechanism must guarantee the
                // parked transaction can still commit when the decision
                // arrives.
                txn.mark_prepared()?;
                Ok(value)
            },
            |txn, value, gate_group, gc_epoch| {
                let read_only = txn.ctx().write_keys.is_empty();
                let mut harden = None;
                if !read_only && self.durability.is_enabled() {
                    // Harden the yes-vote: once the prepare record is
                    // flushed, a crash leaves the transaction in doubt
                    // (resolvable), never silently lost. The record is
                    // appended now (log order is fixed); the flush wait is
                    // the caller's, so a shard worker is free for the next
                    // transaction's body meanwhile.
                    let writes = crate::txn::collect_writes(self, txn.ctx());
                    harden = self.durability.prepare(txn.id(), global, writes);
                }
                let (path, ctx) = txn.into_parts();
                // The parked transaction keeps its gate slot until the
                // decision.
                let prepared = crate::prepared::PreparedTxn::new(
                    Arc::clone(self),
                    path,
                    ctx,
                    gate_group,
                    gc_epoch,
                    global,
                );
                if read_only {
                    // Read-only participant optimization: the decision
                    // cannot change anything this part did, so commit now,
                    // release the locks, and skip phase two entirely (no
                    // prepare record, nothing in doubt at recovery). The
                    // vote still carries the read barrier: the part's
                    // result may reflect a published deferred commit whose
                    // flush is pending.
                    prepared.commit();
                    let barrier = self.durability.read_barrier();
                    (value, crate::prepared::ParticipantVote::ReadOnly, barrier)
                } else {
                    (
                        value,
                        crate::prepared::ParticipantVote::ReadWrite(prepared),
                        harden,
                    )
                }
            },
        )
    }

    /// Executes a transaction, retrying aborted attempts like the paper's
    /// closed-loop clients. Returns the result together with the number of
    /// aborted attempts.
    ///
    /// The back-off after an abort is [`retry_attempts`]'s, with one rule
    /// on top: an attempt that lost a conflict to a named winner
    /// ([`CcError::winner`]) waits for that winner to end instead, on the
    /// winner's parking spot in the [`TxnRegistry`] and never longer than
    /// the back-off, and retries as soon as a fresh snapshot can see the
    /// winner's outcome.
    pub fn execute_with_retry<R>(
        &self,
        call: &ProcedureCall,
        max_attempts: usize,
        mut body: impl FnMut(&mut Txn<'_>) -> CcResult<R>,
    ) -> CcResult<(R, usize)> {
        self.retry_on_winner(max_attempts, |attempt| {
            self.execute(call, |txn| {
                attempt.set(txn.id());
                body(txn)
            })
        })
    }

    /// [`execute_with_retry`](Database::execute_with_retry) over the
    /// pipelined [`execute_deferred`](Database::execute_deferred): aborted
    /// attempts retry as usual, and the final successful attempt's
    /// durability wait is returned to the caller as a funnel sequence
    /// (`None` = already durable enough) instead of blocking here.
    pub fn execute_with_retry_deferred<R>(
        &self,
        call: &ProcedureCall,
        max_attempts: usize,
        mut body: impl FnMut(&mut Txn<'_>) -> CcResult<R>,
    ) -> CcResult<(R, usize, Option<u64>)> {
        self.retry_on_winner(max_attempts, |attempt| {
            self.execute_deferred(call, |txn| {
                attempt.set(txn.id());
                body(txn)
            })
        })
        .map(|((value, harden), aborts)| (value, aborts, harden))
    }

    /// The engine's retry loop: [`retry_attempts`], where `attempt` records
    /// the id of the transaction it runs, and a loser that names its winner
    /// pauses on it, listed under it in the wait-for graph. The retry starts
    /// as soon as the winner has aborted, or has committed at a timestamp a
    /// fresh snapshot covers; otherwise the rest of the back-off runs as
    /// usual. So does a loss to an ended winner the loop already retried
    /// past once: the snapshot the retry took did not cover that winner
    /// after all (a batched SSI lane keeps its batch's), and trying again at
    /// once would only lose again.
    ///
    /// Without the snapshot test a loser would spin: a durable-then-visible
    /// commit holds [`TsOracle::snapshot_ts`] below its timestamp while it
    /// flushes, so the winner of a first-committer-wins conflict can be
    /// marked committed while every new snapshot still misses it.
    fn retry_on_winner<T>(
        &self,
        max_attempts: usize,
        mut attempt: impl FnMut(&Cell<TxnId>) -> CcResult<T>,
    ) -> CcResult<(T, usize)> {
        let loser = Cell::new(TxnId::BOOTSTRAP);
        let mut rushed = None;
        retry_paused(
            max_attempts,
            CcError::is_retryable,
            || attempt(&loser),
            |err, deadline| {
                let Some(winner) = err.winner() else {
                    return false;
                };
                let visible = match self.registry.await_end(loser.get(), winner, deadline) {
                    TxnStatus::Committed(ts) => self.oracle.snapshot_ts() >= ts,
                    TxnStatus::Aborted => true,
                    TxnStatus::Active => false,
                };
                visible && rushed.replace(winner) != Some(winner)
            },
        )
    }

    /// Runs one garbage-collection cycle: advances the GC epoch, collects
    /// prunable versions bounded by every mechanism's low watermark, and
    /// compacts the transaction directory.
    pub fn run_gc_cycle(&self) -> tebaldi_storage::gc::GcReport {
        self.gc.advance_epoch();
        let low_watermark = self.current_tree().low_watermark();
        let report = self.gc.collect(&self.store, low_watermark);
        self.registry.compact();
        report
    }

    /// Finishes history recording and returns the Adya history (only when
    /// `record_history` was enabled).
    pub fn take_history(&self) -> Option<tebaldi_cc::history::History> {
        self.history.as_ref().map(|h| h.finish())
    }

    /// Gracefully shuts down background machinery (durability flusher).
    pub fn shutdown(&self) {
        self.durability.shutdown();
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        self.durability.shutdown();
    }
}

/// The closed-loop retry policy — the one loop that follows an abort, for
/// the engine's execute entry points, the cluster's multi-shard
/// transactions and workload drivers alike: run `attempt` up to
/// `max_attempts` times (1 = no retry), retrying an error `retry_if`
/// accepts after a short back-off (as the paper does for SSI retries), and
/// report how many attempts aborted. The back-off is `200 µs × min(aborts,
/// 10)`.
pub fn retry_attempts<R>(
    max_attempts: usize,
    retry_if: impl Fn(&CcError) -> bool,
    attempt: impl FnMut() -> CcResult<R>,
) -> CcResult<(R, usize)> {
    retry_paused(max_attempts, retry_if, attempt, |_, _| false)
}

/// [`retry_attempts`] with a `pause` that may cut an abort's back-off
/// short: handed the error and the back-off's deadline, it may wait — until
/// the deadline at most — for whatever the error names, and returns true
/// when the retry may start at once. Otherwise the rest of the back-off is
/// slept.
fn retry_paused<R>(
    max_attempts: usize,
    retry_if: impl Fn(&CcError) -> bool,
    mut attempt: impl FnMut() -> CcResult<R>,
    mut pause: impl FnMut(&CcError, Instant) -> bool,
) -> CcResult<(R, usize)> {
    let mut aborts = 0;
    loop {
        match attempt() {
            Ok(value) => return Ok((value, aborts)),
            Err(err) if retry_if(&err) && aborts + 1 < max_attempts => {
                aborts += 1;
                let backoff = Duration::from_micros(200 * aborts.min(10) as u64);
                let deadline = Instant::now() + backoff;
                if !pause(&err, deadline) {
                    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                }
            }
            Err(err) => return Err(err),
        }
    }
}
