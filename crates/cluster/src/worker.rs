//! Per-shard worker pools with a pipelined submission queue and a
//! hardening completion loop, speaking the serializable shard-RPC API.
//!
//! Clients submit [`ShardRequest`]s to a shard asynchronously: a job lands
//! in the shard's submission queue, one of the shard's worker threads pops
//! it and resolves the request's [`ProcId`] against the shard's
//! [`ProcRegistry`], runs the registered body against the shard
//! [`Database`], and the result comes back through the job's reply sink
//! (a [`Ticket`] in process, a connection outbox over TCP).
//!
//! ## The prepare pipeline
//!
//! A 2PC prepare has two halves with very different costs: *executing* the
//! body (CPU + lock waits) and *hardening* the yes-vote (waiting for the
//! `Prepare` WAL record's device flush). Run both on the worker thread and
//! one in-flight prepare pins one worker for its whole latency, so the
//! number of overlapping prepares is bounded by the pool size —
//! scheduling, not hardware. A worker instead:
//!
//! 1. pops the next submission (admission is bounded by the in-flight
//!    window `max_inflight` — backpressure, not an unbounded queue),
//! 2. runs the body and **appends** the prepare record into the
//!    group-commit funnel without waiting for the flush
//!    ([`Database::prepare_deferred`]),
//! 3. hands the continuation (prepared transaction + funnel sequence +
//!    reply sink) to the shard's *completion loop* and immediately starts
//!    the next body.
//!
//! The completion loop drains whole batches of continuations, waits for the
//! highest funnel sequence once (one coalesced device flush hardens the
//! whole batch), parks each prepared transaction in the in-doubt table, and
//! only then acknowledges the yes-votes. One worker thereby multiplexes
//! many in-flight prepares; the prepared-lock window is bounded by the
//! flush latency, not by queueing behind other transactions' flushes.
//! That acknowledgement rule — durable, then quorum-replicated, then
//! parked, then answered — is one function (`acknowledge`): the loop
//! calls it per batch, and a prepare handled inline calls it on the
//! caller's thread for its own single continuation.
//!
//! On a replicated shard a hardened batch additionally waits for the
//! replica quorum to reach the batch's own LSN — the log's durable length
//! as its flush returned ([`ShardReplication::wait_quorum`]). The loop
//! blocks in that gate on purpose: completions that arrive meanwhile pile
//! up behind it and share the next flush, the next shipped frame and the
//! next ack, which on a CPU-bound box is worth more than overlapping the
//! flush of batch N+1 with the shipping of batch N (measured both ways,
//! see CHANGES.md, PR 14).
//!
//! Every shard runs this one pipeline; `max_inflight` is only its size.
//! `1` means one body in flight at a time (executing or awaiting its
//! hardening), not another engine.
//!
//! ## Who publishes before the flush, and which reads wait
//!
//! A *queued* execute commits visible-then-durable
//! ([`Database::execute_deferred`]): its versions are published and its
//! locks released before the flush, and only the acknowledgement waits.
//! An *inline* execute ([`ShardWorkers::execute_now`], the in-process
//! single-shard path) commits durable-then-visible. So a read may observe
//! a version a crash could still lose only if a queued execute wrote it,
//! and every read-only answer — execute, read-only vote, snapshot read —
//! is held until [`DurabilityManager::read_barrier`](tebaldi_storage::durability::DurabilityManager::read_barrier)
//! is durable; with no queued commit outstanding that costs one load.
//!
//! The 2PC coordinator submits its `Prepare` phase through the same queue
//! (prepares of one global transaction run on their shards in parallel);
//! decisions apply inline on the delivering thread so they never queue
//! behind blocking prepares.

use crate::api::{ShardRequest, ShardResponse, ShardResult};
use crate::replication::ShardReplication;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use tebaldi_cc::{CcError, CcResult, WaitLabel};
use tebaldi_core::{Database, ParticipantVote, PreparedTxn, ProcId, ProcRegistry, ProcedureCall};
use tebaldi_obs::{self as obs, Counter, Histogram, MaxGauge, TraceCtx};
use tebaldi_storage::{SnapshotRead, Value};

/// A participant's phase-one vote class, as reported back to the
/// coordinator alongside the part's result value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Vote {
    /// The part wrote nothing: it committed and released at phase one and
    /// must be excluded from the decision.
    ReadOnly,
    /// The part is parked in the shard's in-doubt table holding its locks
    /// until the decision arrives.
    ReadWrite,
}

/// One-shot result channel for an asynchronously submitted job.
pub struct Ticket<T> {
    inner: TicketInner<T>,
}

enum TicketInner<T> {
    /// Resolved synchronously — no channel behind it. The in-process
    /// transport answers decisions and admin ops this way on the hottest
    /// coordinator path, so the synchronous case must not allocate.
    Ready(T),
    Pending(mpsc::Receiver<T>),
}

impl<T> Ticket<T> {
    /// A ticket that is already resolved (requests a transport handled
    /// synchronously, e.g. in-process decisions).
    pub fn ready(value: T) -> Self {
        Ticket {
            inner: TicketInner::Ready(value),
        }
    }

    /// A pending ticket plus the sender that resolves it.
    pub fn pending() -> (mpsc::Sender<T>, Self) {
        let (tx, rx) = mpsc::channel();
        (
            tx,
            Ticket {
                inner: TicketInner::Pending(rx),
            },
        )
    }

    /// Blocks until the shard delivers the result.
    pub fn wait(self) -> CcResult<T> {
        match self.inner {
            TicketInner::Ready(value) => Ok(value),
            TicketInner::Pending(rx) => rx
                .recv()
                .map_err(|_| CcError::Internal("shard dropped the reply channel".to_string())),
        }
    }

    /// Blocks until the shard delivers the result or the timeout elapses.
    /// A timeout means the shard is wedged (or hopelessly backlogged); the
    /// coordinator treats it as a "no" vote so one stuck shard cannot hang
    /// a multi-shard transaction forever.
    pub fn wait_timeout(self, timeout: Duration) -> CcResult<T> {
        match self.inner {
            TicketInner::Ready(value) => Ok(value),
            TicketInner::Pending(rx) => rx.recv_timeout(timeout).map_err(|err| match err {
                mpsc::RecvTimeoutError::Timeout => {
                    CcError::Internal("shard did not answer within the timeout".to_string())
                }
                mpsc::RecvTimeoutError::Disconnected => {
                    CcError::Internal("shard dropped the reply channel".to_string())
                }
            }),
        }
    }
}

/// Where a finished job's result goes. In process this resolves a
/// [`Ticket`]; on the TCP server it forwards into the connection's outbox
/// tagged with the wire request id.
pub type ReplySink = Box<dyn FnOnce(ShardResult) + Send>;

/// A body-running request waiting in the submission queue.
struct Submission {
    request: ShardRequest,
    reply: ReplySink,
    enqueued_at: Instant,
}

/// A request whose body finished and whose acknowledgement is still owed:
/// the continuation a worker hands to the completion loop, or that the
/// inline path acknowledges on the caller's thread.
struct Completion {
    /// Group-commit funnel sequence the acknowledgement waits on — the
    /// request's own appended records, or the read barrier a read-only
    /// result is gated by. `None` when the body left nothing unflushed
    /// behind it (durability off, or a read with no deferred commit
    /// outstanding).
    seq: Option<u64>,
    kind: CompletionKind,
    /// Trace context of the originating request (for the hardening span).
    trace: TraceCtx,
}

enum CompletionKind {
    /// A 2PC prepare awaiting its yes-vote hardening; parked in the
    /// in-doubt table once durable, then acknowledged. Boxed: a parked
    /// prepared transaction is much larger than an execute continuation,
    /// and the completion queue holds many of either.
    Prepare {
        global: u64,
        value: tebaldi_storage::Value,
        prepared: Box<PreparedTxn>,
        /// When the body finished: the start of the hardening share.
        body_done_at: Instant,
    },
    /// A finished request whose acknowledgement waits on durability only:
    /// a committed execute (its own commit records), or a read-only
    /// result — execute, vote or snapshot read — gated by the read barrier
    /// (deferred commits it may have read from). Versions are already
    /// visible and locks released.
    Reply(ShardResponse),
}

impl Completion {
    /// A finished request with nothing left to park: only its answer is
    /// owed, once `seq` (if any) is durable.
    fn reply(response: ShardResponse, seq: Option<u64>, trace: TraceCtx) -> Self {
        Completion {
            seq,
            kind: CompletionKind::Reply(response),
            trace,
        }
    }
}

/// Shared pipeline state: the submission queue workers pop from and the
/// completion queue the hardening loop drains. One mutex guards both — the
/// queues are touched for microseconds and the simplicity is worth more
/// than a second lock.
struct PipeState {
    queue: VecDeque<Submission>,
    completions: VecDeque<(Completion, ReplySink)>,
    /// Body-running requests admitted and not yet fully completed
    /// (executing on a worker or parked awaiting hardening).
    inflight: usize,
    stopping: bool,
}

/// How long an orphaned abort decision (the coordinator gave up on a
/// prepare that had not answered yet) is remembered so the late prepare
/// can be aborted when it finally lands. Generous: timeouts are rare and
/// the entries are tiny.
const ORPHAN_DECISION_TTL: Duration = Duration::from_secs(30);

/// How long an applied Commit/Abort decision is remembered so replayed or
/// duplicated decision frames (hostile network, coordinator retry) are
/// recognized as no-ops instead of being re-applied. Without this memory a
/// replayed Abort would plant an orphan-abort tombstone for a global that
/// was already decided. Matches the orphan TTL: both bound how long the
/// network may replay a frame.
const DECISION_MEMORY_TTL: Duration = Duration::from_secs(30);

/// Recently applied decisions (global id → committed?), remembered so a
/// replayed frame is recognized. Two generations rotated every
/// [`DECISION_MEMORY_TTL`] give O(1) amortized insert/lookup/expiry (a
/// per-decision TTL scan would be O(n) on every decision under bench
/// load): an entry survives between one and two TTLs, which only errs on
/// the safe side (remembering longer).
struct DecisionMemory {
    current: HashMap<u64, bool>,
    previous: HashMap<u64, bool>,
    rotated_at: Instant,
}

impl DecisionMemory {
    fn new() -> Self {
        DecisionMemory {
            current: HashMap::new(),
            previous: HashMap::new(),
            rotated_at: Instant::now(),
        }
    }

    /// Records `commit` for `global` unless a decision is already
    /// remembered; returns the remembered outcome in that case.
    fn record(&mut self, global: u64, commit: bool) -> Option<bool> {
        let now = Instant::now();
        if now.duration_since(self.rotated_at) >= DECISION_MEMORY_TTL {
            self.previous = std::mem::take(&mut self.current);
            self.rotated_at = now;
        }
        if let Some(&prior) = self
            .current
            .get(&global)
            .or_else(|| self.previous.get(&global))
        {
            return Some(prior);
        }
        self.current.insert(global, commit);
        None
    }
}

/// The worker pool of one shard.
pub struct ShardWorkers {
    db: Arc<Database>,
    registry: Arc<ProcRegistry>,
    state: Mutex<PipeState>,
    /// Wakes workers: queue non-empty (within the admission window) or
    /// stopping.
    work_cv: Condvar,
    /// Wakes the completion loop: completions non-empty or stopping.
    done_cv: Condvar,
    in_doubt: Arc<Mutex<HashMap<u64, PreparedTxn>>>,
    /// Abort decisions that arrived before their prepare finished (the
    /// coordinator timed the vote out). The late prepare consults this and
    /// aborts instead of parking, so no prepared transaction can leak its
    /// locks. Global id → when the decision arrived (for TTL pruning).
    orphan_aborts: Mutex<HashMap<u64, Instant>>,
    /// Recently applied decisions, kept for at least
    /// [`DECISION_MEMORY_TTL`] so duplicated/replayed decision frames are
    /// absorbed idempotently rather than re-applied.
    decided: Mutex<DecisionMemory>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    stopping: std::sync::atomic::AtomicBool,
    /// Upper bound on in-flight bodies — executing on a worker or parked
    /// awaiting their hardening. At least 1.
    max_inflight: usize,
    /// This shard's index, tagged onto trace spans.
    shard: i32,
    /// Pipeline counters, registered in the shard database's metrics
    /// registry under `pipeline.*` so one snapshot carries them alongside
    /// the engine's own metrics.
    queued: Arc<Counter>,
    queue_wait_ns: Arc<Counter>,
    hardened: Arc<Counter>,
    hardening_ns: Arc<Counter>,
    max_depth: Arc<MaxGauge>,
    /// Duplicated/replayed decision frames absorbed (same outcome again).
    dup_decisions: Arc<Counter>,
    /// Replayed decisions that contradicted the remembered outcome —
    /// counted and dropped, the first decision wins.
    conflict_decisions: Arc<Counter>,
    /// Primary-side replication for this shard, when configured: the
    /// quorum gate the ack paths call before a hardened batch (or an
    /// inline execute) is acknowledged.
    replication: Mutex<Option<Arc<ShardReplication>>>,
    /// `snapshot.*` instruments for the zero-2PC HLC read path: requests
    /// served, total nanoseconds spent waiting out in-flight writers, and
    /// the per-request service latency distribution.
    snapshot_reads: Arc<Counter>,
    snapshot_read_wait_ns: Arc<Counter>,
    snapshot_read_latency: Arc<Histogram>,
}

impl ShardWorkers {
    /// Spawns `workers` threads serving `db`'s submission queue, resolving
    /// procedure ids against `registry`, plus the shard's completion loop,
    /// with up to `max_inflight` (at least 1) body-running requests in
    /// flight at once.
    pub fn spawn(
        shard_index: usize,
        db: Arc<Database>,
        workers: usize,
        registry: Arc<ProcRegistry>,
        max_inflight: usize,
    ) -> Arc<Self> {
        let workers = workers.max(1);
        let metrics = Arc::clone(db.metrics());
        let pool = Arc::new(ShardWorkers {
            db,
            registry,
            state: Mutex::new(PipeState {
                queue: VecDeque::new(),
                completions: VecDeque::new(),
                inflight: 0,
                stopping: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            in_doubt: Arc::new(Mutex::new(HashMap::new())),
            orphan_aborts: Mutex::new(HashMap::new()),
            decided: Mutex::new(DecisionMemory::new()),
            handles: Mutex::new(Vec::new()),
            stopping: std::sync::atomic::AtomicBool::new(false),
            max_inflight: max_inflight.max(1),
            shard: shard_index as i32,
            queued: metrics.counter("pipeline.queued"),
            queue_wait_ns: metrics.counter("pipeline.queue_wait_ns"),
            hardened: metrics.counter("pipeline.hardened"),
            hardening_ns: metrics.counter("pipeline.hardening_ns"),
            max_depth: metrics.max_gauge("pipeline.max_depth"),
            dup_decisions: metrics.counter("decisions.duplicate"),
            conflict_decisions: metrics.counter("decisions.conflict"),
            replication: Mutex::new(None),
            snapshot_reads: metrics.counter("snapshot.reads"),
            snapshot_read_wait_ns: metrics.counter("snapshot.read_wait_ns"),
            snapshot_read_latency: metrics.histogram("snapshot.read_ns"),
        });
        let mut handles = pool.handles.lock();
        for worker in 0..workers {
            let pool_ref = Arc::clone(&pool);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("tebaldi-shard-{shard_index}-worker-{worker}"))
                    .spawn(move || pool_ref.run())
                    .expect("spawn shard worker"),
            );
        }
        let pool_ref = Arc::clone(&pool);
        handles.push(
            std::thread::Builder::new()
                .name(format!("tebaldi-shard-{shard_index}-completer"))
                .spawn(move || pool_ref.run_completer())
                .expect("spawn shard completer"),
        );
        drop(handles);
        pool
    }

    /// The shard database served by this pool.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The procedure registry requests are resolved against.
    pub fn registry(&self) -> &Arc<ProcRegistry> {
        &self.registry
    }

    /// Number of prepared transactions currently awaiting a decision.
    pub fn in_doubt_count(&self) -> usize {
        self.in_doubt.lock().len()
    }

    /// Installs the shard's replication group: from here on every
    /// durability wait on the ack paths also waits out the replica
    /// quorum (bounded by the configured ack timeout).
    pub fn set_replication(&self, replication: Arc<ShardReplication>) {
        *self.replication.lock() = Some(replication);
    }

    /// This shard's replication group, if configured.
    pub fn replication(&self) -> Option<Arc<ShardReplication>> {
        self.replication.lock().clone()
    }

    /// The quorum gate, called once the caller's own records are durable:
    /// a no-op without replication; otherwise
    /// blocks until a quorum of replicas acked the durable log as it stands
    /// (which is at least what the caller needs).
    /// Returns `false` only when a quorum was required and the ack
    /// timeout expired first. Commit acks proceed degraded on `false`
    /// (local durability, counted for the operator); read-write prepare
    /// votes must NOT — a yes-vote on a record the replicas never saw
    /// could commit a cross-shard transaction whose part dies with this
    /// primary.
    fn quorum_gate(&self) -> bool {
        match self.replication() {
            Some(replication) => replication.wait_quorum(replication.durable_lsn()),
            None => true,
        }
    }

    /// The configured in-flight window.
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Queues a body-running request ([`Execute`](ShardRequest::Execute) or
    /// [`Prepare`](ShardRequest::Prepare)) on the shard's worker pool. Any
    /// other request is handled inline (decisions and admin ops must never
    /// queue behind blocking prepares).
    pub fn submit_request(&self, request: ShardRequest, reply: ReplySink) {
        if request.runs_body() {
            let mut state = self.state.lock();
            if state.stopping {
                // Dropping the sink resolves the caller's ticket with a
                // clean disconnect error.
                return;
            }
            state.queue.push_back(Submission {
                request,
                reply,
                enqueued_at: Instant::now(),
            });
            self.work_cv.notify_one();
        } else {
            reply(self.handle_inline(request));
        }
    }

    /// Handles a request synchronously on the calling thread. This is the
    /// single entry point behind both transports: the in-process fast path
    /// calls it directly, the TCP server calls it from its connection
    /// threads (body-running requests via the submission queue, everything
    /// else inline).
    pub fn handle_inline(&self, request: ShardRequest) -> ShardResult {
        match request {
            ShardRequest::Execute {
                proc,
                call,
                args,
                max_attempts,
                ..
            } => self.execute_now(proc, &call, &args, max_attempts),
            ShardRequest::Prepare {
                global,
                proc,
                call,
                args,
                trace,
            } => {
                let completion = self.prepare_body(global, proc, &call, &args, trace)?;
                self.acknowledge_now(completion)
            }
            ShardRequest::Commit { global, hlc } => {
                self.decide_stamped(global, true, hlc);
                Ok(ShardResponse::Decided)
            }
            ShardRequest::Abort { global } => {
                self.decide_stamped(global, false, 0);
                Ok(ShardResponse::Decided)
            }
            ShardRequest::SnapshotRead {
                snapshot,
                wait_ms,
                keys,
            } => self.snapshot_read_now(snapshot, wait_ms, &keys),
            ShardRequest::Flush => {
                self.db.durability().seal_current_epoch();
                Ok(ShardResponse::Flushed)
            }
            ShardRequest::Metrics => Ok(ShardResponse::Metrics(Box::new(
                self.db.metrics().snapshot(),
            ))),
        }
    }

    fn resolve(&self, proc: ProcId) -> CcResult<Arc<dyn tebaldi_core::ShardProcedure>> {
        self.registry
            .get(proc)
            .ok_or_else(|| CcError::Internal(format!("no shard procedure registered for {proc}")))
    }

    /// Closed-loop execution with engine-side retry, on the calling thread.
    pub fn execute_now(
        &self,
        proc: ProcId,
        call: &ProcedureCall,
        args: &[u8],
        max_attempts: u32,
    ) -> ShardResult {
        let body = self.resolve(proc)?;
        let result = self
            .db
            .execute_with_retry(call, max_attempts.max(1) as usize, |txn| {
                body.run(txn, args)
            })
            .map(|(value, aborts)| ShardResponse::Executed {
                value,
                aborts: aborts as u32,
            });
        // The inline path must honor the read barrier too: this execute
        // may have read a queued execute's deferred commit whose flush is
        // still pending, and a read-only transaction appends nothing of
        // its own to wait on. (A writing transaction's own synchronous
        // flush already hardened everything appended before it, making
        // this a no-op.)
        if result.is_ok() {
            self.wait_read_barrier();
            // Quorum gate: what this ack makes visible must survive the
            // loss of the primary's device.
            self.quorum_gate();
        }
        result
    }

    /// Holds a read-only answer back until every deferred commit it may
    /// reflect is durable. With none outstanding this costs one load.
    fn wait_read_barrier(&self) {
        if let Some(seq) = self.db.durability().read_barrier() {
            self.db.wait_hardened(seq);
        }
    }

    /// Parks a hardened read-write prepare in the in-doubt table, unless
    /// the coordinator already aborted the global while the part was
    /// validating or hardening (the orphan-abort race).
    fn park_prepared(
        &self,
        global: u64,
        value: tebaldi_storage::Value,
        prepared: PreparedTxn,
    ) -> ShardResult {
        // Re-check under the in-doubt lock: a timed-out vote's abort
        // decision may have raced in while the part was validating (or,
        // pipelined, while its record was waiting for the flush).
        let mut in_doubt = self.in_doubt.lock();
        if self.orphan_aborts.lock().remove(&global).is_some() {
            drop(in_doubt);
            prepared.abort();
            Err(CcError::Internal(
                "coordinator aborted the transaction during its prepare".to_string(),
            ))
        } else {
            in_doubt.insert(global, prepared);
            // The vote clock is drawn after the prepare hardened and its
            // versions were installed: any decision stamp `d` the
            // coordinator derives from this clock therefore satisfies
            // "d <= h implies the prepared version was already on the
            // chain when a snapshot reader at h traversed it" — the
            // atomic-visibility argument of cross-shard snapshot reads.
            Ok(ShardResponse::Prepared {
                value,
                vote: Vote::ReadWrite,
                hlc: self.db.hlc().now(),
            })
        }
    }

    /// Runs a body-running request up to the point where only its
    /// acknowledgement is owed: records appended (their place in the log
    /// order fixed), nothing waited for.
    fn run_body(&self, request: ShardRequest) -> CcResult<Completion> {
        match request {
            ShardRequest::Prepare {
                global,
                proc,
                call,
                args,
                trace,
            } => self.prepare_body(global, proc, &call, &args, trace),
            ShardRequest::Execute {
                proc,
                call,
                args,
                max_attempts,
                trace,
            } => {
                let body = self.resolve(proc)?;
                let (value, aborts, seq) = self.db.execute_with_retry_deferred(
                    &call,
                    max_attempts.max(1) as usize,
                    |txn| body.run(txn, &args),
                )?;
                let response = ShardResponse::Executed {
                    value,
                    aborts: aborts as u32,
                };
                Ok(Completion::reply(response, seq, trace))
            }
            ShardRequest::SnapshotRead {
                snapshot,
                wait_ms,
                keys,
            } => {
                let response = self.read_snapshot(snapshot, wait_ms, &keys)?;
                let barrier = self.db.durability().read_barrier();
                Ok(Completion::reply(response, barrier, TraceCtx::NONE))
            }
            other => Ok(Completion::reply(
                self.handle_inline(other)?,
                None,
                TraceCtx::NONE,
            )),
        }
    }

    /// 2PC phase one up to the vote: run the registered body to the
    /// prepared state and append its prepare record. A read-write part's
    /// vote is owed once that record is durable and quorum-replicated; a
    /// read-only part has already committed and released, and its vote is
    /// gated only by the read barrier.
    fn prepare_body(
        &self,
        global: u64,
        proc: ProcId,
        call: &ProcedureCall,
        args: &[u8],
        trace: TraceCtx,
    ) -> CcResult<Completion> {
        let body = self.resolve(proc)?;
        // The coordinator may already have aborted this global (vote
        // timeout): don't waste the execution.
        if self.orphan_aborts.lock().remove(&global).is_some() {
            return Err(CcError::Internal(
                "coordinator aborted the transaction before its prepare ran".to_string(),
            ));
        }
        let (value, vote, seq) = self
            .db
            .prepare_deferred(call, global, |txn| body.run(txn, args))?;
        Ok(match vote {
            ParticipantVote::ReadOnly => Completion::reply(
                ShardResponse::Prepared {
                    value,
                    vote: Vote::ReadOnly,
                    hlc: self.db.hlc().now(),
                },
                seq,
                trace,
            ),
            ParticipantVote::ReadWrite(prepared) => Completion {
                seq,
                kind: CompletionKind::Prepare {
                    global,
                    value,
                    prepared: Box::new(prepared),
                    body_done_at: Instant::now(),
                },
                trace,
            },
        })
    }

    /// Acknowledges a batch of finished bodies — the one place a vote or a
    /// reply is released. Waits once for the batch's highest funnel
    /// sequence (one coalesced flush hardens the whole batch) and, on a
    /// replicated shard, for the replica quorum to reach the LSN that flush
    /// produced; then parks each prepare in the in-doubt table and hands
    /// every result to `deliver`. The completion loop calls this for queued
    /// requests, [`handle_inline`](ShardWorkers::handle_inline) on the
    /// caller's thread.
    fn acknowledge<R>(&self, batch: Vec<(Completion, R)>, mut deliver: impl FnMut(R, ShardResult)) {
        // The quorum gate rides the coalesced-flush path: one wait for the
        // whole hardened batch, not one per transaction. A batch that
        // appended nothing has nothing to replicate either.
        let quorum_ok = match batch.iter().filter_map(|(c, _)| c.seq).max() {
            Some(highest) => {
                self.db.wait_hardened(highest);
                self.quorum_gate()
            }
            None => true,
        };
        for (completion, reply) in batch {
            let result = match completion.kind {
                CompletionKind::Prepare {
                    global,
                    value,
                    prepared,
                    body_done_at,
                } => {
                    // Only prepares count in the hardening metrics: they
                    // are what the queue-wait/hardening decomposition of
                    // the prepared-lock window is about (executes and read
                    // acks released their locks before parking).
                    let hardening = body_done_at.elapsed().as_nanos() as u64;
                    self.hardened.inc();
                    self.hardening_ns.add(hardening);
                    if completion.trace.is_sampled() {
                        let end = obs::now_ns();
                        obs::record_span(
                            completion.trace,
                            "shard.harden",
                            self.shard,
                            end.saturating_sub(hardening),
                            end,
                            "ok",
                        );
                    }
                    if quorum_ok {
                        self.park_prepared(global, value, *prepared)
                    } else {
                        // The yes-vote promises commit-on-demand even
                        // across the loss of this primary: a prepare the
                        // replicas never saw aborts rather than voting
                        // degraded. Commit acks (Reply) proceed degraded.
                        prepared.abort();
                        Err(CcError::Internal(
                            "prepare not quorum-replicated within the ack timeout".to_string(),
                        ))
                    }
                }
                CompletionKind::Reply(response) => Ok(response),
            };
            deliver(reply, result);
        }
    }

    /// [`acknowledge`](ShardWorkers::acknowledge) for one completion on
    /// the calling thread.
    fn acknowledge_now(&self, completion: Completion) -> ShardResult {
        let mut acked = None;
        self.acknowledge(vec![(completion, ())], |(), result| acked = Some(result));
        acked.expect("acknowledge delivers every completion it is given")
    }

    /// Parks a continuation for the completion loop. A `Reply` completion
    /// (committed execute or barrier-gated read ack) holds no locks and
    /// runs no body — only its acknowledgement is pending — so it releases
    /// its in-flight window slot here instead of throttling new admissions
    /// until the flush; a `Prepare` completion keeps its slot until the
    /// yes-vote is hardened (that hardening *is* the pipeline stage the
    /// window bounds).
    fn park_completion(&self, completion: Completion, reply: ReplySink) {
        let release_slot = matches!(completion.kind, CompletionKind::Reply(_));
        let mut state = self.state.lock();
        state.completions.push_back((completion, reply));
        if release_slot {
            state.inflight -= 1;
            self.work_cv.notify_all();
        }
        drop(state);
        self.done_cv.notify_one();
    }

    /// Applies the coordinator's decision for `global` inline on the
    /// calling thread. Decisions never queue behind prepares in the
    /// submission queue: a queued decision would stretch the window in
    /// which the prepared transaction holds its locks and convoy the whole
    /// shard.
    ///
    /// An abort decision that finds nothing parked is remembered: the
    /// coordinator may have timed the vote out while the prepare was still
    /// running (or hardening), and the late prepare must abort instead of
    /// parking forever.
    ///
    /// `hlc` is the coordinator's decision stamp: a commit stamps its
    /// versions with exactly `hlc` (after merging it into the shard
    /// clock), which is what makes the cross-shard commit atomically
    /// visible to snapshot reads (`0` draws a fresh local stamp).
    pub fn decide_stamped(&self, global: u64, commit: bool, hlc: u64) {
        // Replay guard first: a duplicated or replayed decision frame must
        // be absorbed without side effects. In particular a replayed Abort
        // for an already-decided global must not plant a fresh orphan
        // tombstone (which could later kill an unrelated prepare that
        // reuses the id), and a contradictory replay must not override the
        // outcome already applied.
        match self.decided.lock().record(global, commit) {
            Some(prior) if prior == commit => {
                self.dup_decisions.inc();
                return;
            }
            Some(_) => {
                self.conflict_decisions.inc();
                return;
            }
            None => {}
        }
        // Lock order (in_doubt, then orphan_aborts) matches the prepare
        // handler's parking path, so a decision and a late-finishing
        // prepare serialize: exactly one of them wins the global id.
        let prepared = {
            let mut in_doubt = self.in_doubt.lock();
            let prepared = in_doubt.remove(&global);
            if prepared.is_none() && !commit {
                let mut orphans = self.orphan_aborts.lock();
                let now = Instant::now();
                orphans.retain(|_, arrived| now.duration_since(*arrived) < ORPHAN_DECISION_TTL);
                orphans.insert(global, now);
            }
            prepared
        };
        if let Some(prepared) = prepared {
            if commit {
                prepared.commit_stamped(hlc);
            } else {
                prepared.abort();
            }
        }
    }

    /// Serves a multi-key read at the global HLC snapshot `snapshot` — the
    /// zero-2PC, zero-lock read path. Merges the snapshot into the shard
    /// clock *first* (from here on every local commit stamps above it, so
    /// the snapshot's visible set is frozen), then reads each key from the
    /// newest committed version stamped `<= snapshot`, waiting out (up to
    /// `wait_ms` in total) any in-flight writer whose outcome is still
    /// unknown. Writes nothing: no prepare record, no decision-log entry,
    /// no vote. The answer is held until the read barrier is durable: a
    /// queued execute publishes before its flush, and an acknowledged read
    /// must not reflect a commit a crash could still lose.
    pub fn snapshot_read_now(
        &self,
        snapshot: u64,
        wait_ms: u64,
        keys: &[tebaldi_storage::Key],
    ) -> ShardResult {
        let response = self.read_snapshot(snapshot, wait_ms, keys)?;
        self.wait_read_barrier();
        Ok(response)
    }

    /// The read half of [`snapshot_read_now`](ShardWorkers::snapshot_read_now);
    /// the caller owes the read-barrier wait before it answers.
    fn read_snapshot(
        &self,
        snapshot: u64,
        wait_ms: u64,
        keys: &[tebaldi_storage::Key],
    ) -> ShardResult {
        let started = Instant::now();
        // Observe-first is the linchpin: after this merge, any commit this
        // shard stamps is `> snapshot`, so a version we find missing now
        // can never later appear below the snapshot.
        self.db.hlc().observe(snapshot);
        let deadline = started + Duration::from_millis(wait_ms);
        let store = Arc::clone(self.db.store());
        let mut values = Vec::with_capacity(keys.len());
        let mut wait_ns = 0u64;
        for key in keys {
            loop {
                match store.read_snapshot_hlc(key, snapshot) {
                    SnapshotRead::Value(value) => {
                        values.push(value.unwrap_or(Value::Null));
                        break;
                    }
                    SnapshotRead::Blocked => {
                        // An uncommitted writer overlaps the snapshot: its
                        // decision stamp may land below `snapshot`, so the
                        // read cannot skip it — wait for the decision.
                        if Instant::now() >= deadline {
                            self.snapshot_reads.inc();
                            self.snapshot_read_wait_ns.add(wait_ns);
                            return Err(CcError::Timeout(WaitLabel::SnapshotWriter));
                        }
                        let wait_start = Instant::now();
                        std::thread::sleep(Duration::from_micros(50));
                        wait_ns += wait_start.elapsed().as_nanos() as u64;
                    }
                }
            }
        }
        self.snapshot_reads.inc();
        self.snapshot_read_wait_ns.add(wait_ns);
        self.snapshot_read_latency
            .record(started.elapsed().as_nanos() as u64);
        Ok(ShardResponse::Snapshot {
            values,
            hlc: self.db.hlc().last(),
        })
    }

    /// Stops every worker and the completion loop (after it drains and
    /// hardens any still-pending continuations) and joins them. Parked
    /// prepared transactions are aborted by presumption when the pool drops
    /// its in-doubt table.
    pub fn shutdown(&self) {
        if self
            .stopping
            .swap(true, std::sync::atomic::Ordering::SeqCst)
        {
            return;
        }
        {
            let mut state = self.state.lock();
            state.stopping = true;
            // Queued-but-unstarted jobs are dropped; their reply sinks
            // resolve the waiting tickets with a clean disconnect error.
            state.queue.clear();
            self.work_cv.notify_all();
        }
        let mut handles = self.handles.lock();
        // Join workers first: after they exit, no new continuations can
        // appear, so the completion loop can drain to empty and stop. The
        // completer is the last handle.
        for handle in handles.drain(..) {
            self.done_cv.notify_all();
            let _ = handle.join();
        }
    }

    /// Worker loop: pop a submission (respecting the in-flight window),
    /// run its body, and either park its continuation for the completion
    /// loop or — nothing left to wait for — acknowledge it here.
    fn run(&self) {
        loop {
            let submission = {
                let mut state = self.state.lock();
                loop {
                    if state.stopping {
                        return;
                    }
                    if state.inflight < self.max_inflight {
                        if let Some(submission) = state.queue.pop_front() {
                            state.inflight += 1;
                            self.max_depth.observe(state.inflight as u64);
                            break submission;
                        }
                    }
                    self.work_cv.wait(&mut state);
                }
            };
            let waited_ns = submission.enqueued_at.elapsed().as_nanos() as u64;
            self.queued.inc();
            self.queue_wait_ns.add(waited_ns);
            let trace = submission.request.trace();
            if trace.is_sampled() {
                let end = obs::now_ns();
                obs::record_span(
                    trace,
                    "shard.queue_wait",
                    self.shard,
                    end.saturating_sub(waited_ns),
                    end,
                    "ok",
                );
            }
            let exec_start = trace.is_sampled().then(obs::now_ns);
            let Submission { request, reply, .. } = submission;
            let outcome = self.run_body(request);
            if let Some(start) = exec_start {
                let status = match &outcome {
                    Err(err) => err.mechanism(),
                    Ok(_) => "ok",
                };
                obs::record_span(
                    trace,
                    "shard.execute",
                    self.shard,
                    start,
                    obs::now_ns(),
                    status,
                );
            }
            match outcome {
                Ok(completion) if completion.seq.is_some() => {
                    self.park_completion(completion, reply)
                }
                outcome => {
                    reply(outcome.and_then(|completion| self.acknowledge_now(completion)));
                    self.finish_inflight(1);
                }
            }
        }
    }

    /// Decrements the in-flight count and wakes waiting workers (and the
    /// completion loop, whose shutdown condition watches the in-flight
    /// count).
    fn finish_inflight(&self, n: usize) {
        let mut state = self.state.lock();
        state.inflight -= n;
        drop(state);
        self.work_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// Completion loop: drain every parked continuation and
    /// [`acknowledge`](ShardWorkers::acknowledge) them as one batch —
    /// parking prepares in the in-doubt table, releasing executes and
    /// read answers to their clients.
    fn run_completer(&self) {
        loop {
            let batch: Vec<(Completion, ReplySink)> = {
                let mut state = self.state.lock();
                while state.completions.is_empty() {
                    // Exit only once no body is still executing: a worker
                    // mid-body at shutdown may yet park a continuation,
                    // and its caller's reply must not be orphaned. Both
                    // fields change only under `state`, and every path
                    // that changes them notifies `done_cv` after
                    // releasing it.
                    if state.stopping && state.inflight == 0 {
                        return;
                    }
                    self.done_cv.wait(&mut state);
                }
                state.completions.drain(..).collect()
            };
            // Only `Prepare` completions still hold a window slot (`Reply`
            // completions released theirs when they were parked).
            let slots = batch
                .iter()
                .filter(|(c, _)| matches!(c.kind, CompletionKind::Prepare { .. }))
                .count();
            self.acknowledge(batch, |reply, result| reply(result));
            self.finish_inflight(slots);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tebaldi_cc::{AccessMode, CcKind, CcTreeSpec, ProcedureInfo, ProcedureSet};
    use tebaldi_core::DbConfig;
    use tebaldi_storage::codec::{ByteReader, ByteWriter};
    use tebaldi_storage::{Key, TableId, TxnTypeId, Value};

    const TABLE: TableId = TableId(0);
    const TY: TxnTypeId = TxnTypeId(0);
    const BUMP: ProcId = ProcId(1);
    const PUT5: ProcId = ProcId(2);
    const GET: ProcId = ProcId(3);

    /// A `pipeline.*` counter or gauge of `pool`, as its shard reports it.
    fn pipeline(pool: &ShardWorkers, name: &str) -> u64 {
        let snapshot = pool.db().metrics().snapshot();
        snapshot.counter(name).or(snapshot.gauge(name)).unwrap_or(0)
    }

    fn registry() -> Arc<ProcRegistry> {
        let mut reg = ProcRegistry::new();
        // bump(key_id): increment field 0 by 1.
        reg.register_fn(BUMP, |txn, args| {
            let mut r = ByteReader::new(args);
            let id = r.u64().map_err(|e| CcError::Internal(e.to_string()))?;
            txn.increment(Key::simple(TABLE, id), 0, 1).map(Value::Int)
        });
        // put5(key_id): write Int(5).
        reg.register_fn(PUT5, |txn, args| {
            let mut r = ByteReader::new(args);
            let id = r.u64().map_err(|e| CcError::Internal(e.to_string()))?;
            txn.put(Key::simple(TABLE, id), Value::Int(5))
                .map(|()| Value::Null)
        });
        // get(key_id): read-only.
        reg.register_fn(GET, |txn, args| {
            let mut r = ByteReader::new(args);
            let id = r.u64().map_err(|e| CcError::Internal(e.to_string()))?;
            Ok(txn.get(Key::simple(TABLE, id))?.unwrap_or(Value::Null))
        });
        Arc::new(reg)
    }

    fn args(id: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(id);
        w.into_bytes()
    }

    fn db_builder(config: DbConfig) -> tebaldi_core::DatabaseBuilder {
        let mut procedures = ProcedureSet::new();
        procedures.insert(ProcedureInfo::new(
            TY,
            "bump",
            vec![(TABLE, AccessMode::Write)],
        ));
        Database::builder(config)
            .procedures(procedures)
            .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TY]))
    }

    fn db() -> Arc<Database> {
        Arc::new(db_builder(DbConfig::for_tests()).build().unwrap())
    }

    /// A synchronous-durability database over `device`.
    fn durable_db(device: Arc<dyn tebaldi_storage::wal::LogDevice>) -> Arc<Database> {
        let mut config = DbConfig::for_tests();
        config.durability = tebaldi_core::DurabilityMode::Synchronous;
        Arc::new(db_builder(config).log_device(device).build().unwrap())
    }

    /// Queues `request` on the pool and returns the ticket for its reply.
    fn submit(pool: &ShardWorkers, request: ShardRequest) -> Ticket<ShardResult> {
        let (tx, ticket) = Ticket::pending();
        pool.submit_request(
            request,
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
        );
        ticket
    }

    fn prepare_put5(global: u64, key_id: u64) -> ShardRequest {
        ShardRequest::Prepare {
            global,
            proc: PUT5,
            call: ProcedureCall::new(TY),
            args: args(key_id),
            trace: TraceCtx::NONE,
        }
    }

    fn execute(proc: ProcId, key_id: u64) -> ShardRequest {
        ShardRequest::Execute {
            proc,
            call: ProcedureCall::new(TY),
            args: args(key_id),
            max_attempts: 20,
            trace: TraceCtx::NONE,
        }
    }

    #[test]
    fn mailbox_executes_data_requests() {
        let pool = ShardWorkers::spawn(0, db(), 2, registry(), 2);
        pool.db().load(Key::simple(TABLE, 1), Value::Int(0));
        let tickets: Vec<_> = (0..32).map(|_| submit(&pool, execute(BUMP, 1))).collect();
        for ticket in tickets {
            ticket.wait().unwrap().unwrap();
        }
        let sum = pool
            .db()
            .execute(&ProcedureCall::new(TY), |txn| {
                txn.get(Key::simple(TABLE, 1))
            })
            .unwrap();
        assert_eq!(sum, Some(Value::Int(32)));
        assert_eq!(pipeline(&pool, "pipeline.queued"), 32);
        let depth = pipeline(&pool, "pipeline.max_depth");
        assert!((1..=2).contains(&depth));
        pool.shutdown();
    }

    #[test]
    fn prepare_then_decide_roundtrip() {
        let pool = ShardWorkers::spawn(0, db(), 1, registry(), 1);
        // Inline on the caller's thread, then through the queue: both
        // park the part and carry a vote clock.
        let inline = pool.handle_inline(prepare_put5(7, 9));
        let queued = submit(&pool, prepare_put5(8, 10)).wait().unwrap();
        for result in [inline, queued] {
            let (value, vote, vote_hlc) = result.unwrap().into_prepared().unwrap();
            assert!(vote_hlc > 0, "a read-write vote carries its vote clock");
            assert_eq!(value, Value::Null);
            assert_eq!(vote, Vote::ReadWrite);
        }
        assert_eq!(pool.in_doubt_count(), 2);
        pool.decide_stamped(7, true, 0);
        pool.decide_stamped(8, false, 0);
        assert_eq!(pool.in_doubt_count(), 0);
        let read = |id| {
            pool.db()
                .execute(&ProcedureCall::new(TY), |txn| {
                    txn.get(Key::simple(TABLE, id))
                })
                .unwrap()
        };
        assert_eq!(read(9), Some(Value::Int(5)));
        assert_eq!(read(10), None, "the aborted part rolled back");
        pool.shutdown();
    }

    #[test]
    fn replayed_decisions_are_absorbed_idempotently() {
        let pool = ShardWorkers::spawn(0, db(), 1, registry(), 1);
        pool.handle_inline(prepare_put5(7, 9))
            .unwrap()
            .into_prepared()
            .unwrap();
        pool.decide_stamped(7, true, 0);
        // A duplicated Commit frame and a contradictory Abort replay are
        // both absorbed: the committed write stays and no orphan tombstone
        // is planted.
        pool.decide_stamped(7, true, 0);
        pool.decide_stamped(7, false, 0);
        let metrics = Arc::clone(pool.db().metrics());
        assert_eq!(metrics.counter("decisions.duplicate").get(), 1);
        assert_eq!(metrics.counter("decisions.conflict").get(), 1);
        let read = pool
            .db()
            .execute(&ProcedureCall::new(TY), |txn| {
                txn.get(Key::simple(TABLE, 9))
            })
            .unwrap();
        assert_eq!(read, Some(Value::Int(5)));
        // The replayed Abort planted no orphan: a prepare reusing the id
        // parks normally instead of being killed on arrival.
        submit(&pool, prepare_put5(7, 10))
            .wait()
            .unwrap()
            .unwrap()
            .into_prepared()
            .unwrap();
        assert_eq!(pool.in_doubt_count(), 1);
        pool.shutdown();
    }

    #[test]
    fn quorum_gate_timeout_aborts_the_prepare_inline_and_queued() {
        // One rule, two callers: a read-write prepare whose record the
        // replicas never acknowledged must abort — not vote degraded —
        // whether it was acknowledged on the caller's thread or by the
        // completion loop.
        let log: Arc<dyn tebaldi_storage::wal::LogDevice> =
            Arc::new(tebaldi_storage::wal::MemLogDevice::new());
        let replication = ShardReplication::spawn(
            0,
            crate::replication::ReplicationConfig {
                replicas: 1,
                quorum: 1,
                ack_timeout_ms: 40,
            },
            log,
            2,
            &tebaldi_obs::MetricsRegistry::new(),
            None,
        )
        .unwrap();
        let pool = ShardWorkers::spawn(0, durable_db(replication.primary_log()), 1, registry(), 4);
        pool.set_replication(Arc::clone(&replication));
        replication.set_paused(true);
        let inline = pool.handle_inline(prepare_put5(1, 9));
        let queued = submit(&pool, prepare_put5(2, 9)).wait().unwrap();
        for result in [inline, queued] {
            match result {
                Err(CcError::Internal(why)) => assert!(why.contains("not quorum-replicated")),
                other => panic!("an unreplicated prepare must abort, got {other:?}"),
            }
        }
        assert_eq!(pool.in_doubt_count(), 0);
        // Both aborts released the key's lock: with shipping back, the
        // same key prepares and parks.
        replication.set_paused(false);
        let (_, vote, _) = pool
            .handle_inline(prepare_put5(3, 9))
            .unwrap()
            .into_prepared()
            .unwrap();
        assert_eq!(vote, Vote::ReadWrite);
        assert_eq!(pipeline(&pool, "pipeline.hardened"), 3);
        pool.decide_stamped(3, true, 0);
        pool.shutdown();
        replication.shutdown();
    }

    #[test]
    fn prepares_overlap_and_harden_before_acking() {
        // Sync durability on a flush device with real latency: the only way
        // many prepares finish fast is the pipeline (append now, one
        // coalesced flush per completion batch).
        let device: Arc<dyn tebaldi_storage::wal::LogDevice> = Arc::new(
            tebaldi_storage::wal::MemLogDevice::with_flush_latency(Duration::from_millis(2)),
        );
        let pool = ShardWorkers::spawn(0, durable_db(Arc::clone(&device)), 1, registry(), 16);
        let n = 8u64;
        let tickets: Vec<_> = (0..n)
            .map(|i| submit(&pool, prepare_put5(100 + i, 1000 + i)))
            .collect();
        for ticket in tickets {
            let (_, vote, _) = ticket.wait().unwrap().unwrap().into_prepared().unwrap();
            assert_eq!(vote, Vote::ReadWrite);
        }
        assert_eq!(pool.in_doubt_count(), n as usize);
        // The yes-votes were only acknowledged once their records were
        // durable: every prepare record is already on the device.
        let prepares = device
            .read_back()
            .iter()
            .filter(|r| matches!(r, tebaldi_storage::wal::LogRecord::Prepare { .. }))
            .count();
        assert_eq!(prepares, n as usize);
        assert_eq!(
            pipeline(&pool, "pipeline.hardened"),
            n,
            "every prepare went through the pipeline"
        );
        let depth = pipeline(&pool, "pipeline.max_depth");
        assert!(
            depth > 1,
            "a single worker must overlap in-flight prepares, depth={depth}"
        );
        for i in 0..n {
            pool.decide_stamped(100 + i, true, 0);
        }
        assert_eq!(pool.in_doubt_count(), 0);
        pool.shutdown();
    }

    #[test]
    fn read_only_ack_waits_for_deferred_commits_it_may_have_read() {
        // A deferred commit publishes before its flush; a read-only
        // request scheduled right after it reads the new value. Its
        // acknowledgement must not beat the writer's commit record to
        // durability — or a crash could lose data an acknowledged read
        // already reflected.
        let mut config = DbConfig::for_tests();
        config.durability = tebaldi_core::DurabilityMode::Synchronous;
        let device: Arc<dyn tebaldi_storage::wal::LogDevice> = Arc::new(
            tebaldi_storage::wal::MemLogDevice::with_flush_latency(Duration::from_millis(20)),
        );
        let mut procedures = ProcedureSet::new();
        procedures.insert(ProcedureInfo::new(
            TY,
            "bump",
            vec![(TABLE, AccessMode::Write)],
        ));
        let db = Arc::new(
            Database::builder(config)
                .procedures(procedures)
                .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TY]))
                .log_device(Arc::clone(&device))
                .build()
                .unwrap(),
        );
        db.load(Key::simple(TABLE, 1), Value::Int(0));
        let pool = ShardWorkers::spawn(0, db, 1, registry(), 16);
        let submit = |proc: ProcId| {
            let (tx, ticket) = Ticket::pending();
            pool.submit_request(
                ShardRequest::Execute {
                    proc,
                    call: ProcedureCall::new(TY),
                    args: args(1),
                    max_attempts: 10,
                    trace: TraceCtx::NONE,
                },
                Box::new(move |result| {
                    let _ = tx.send(result);
                }),
            );
            ticket
        };
        let write_ticket = submit(BUMP);
        let read_ticket = submit(GET);
        let (value, _) = read_ticket
            .wait()
            .unwrap()
            .unwrap()
            .into_executed()
            .unwrap();
        assert_eq!(value, Value::Int(1), "the read saw the published write");
        // The read was acknowledged: the write's commit record must
        // already be durable (read_back returns only flushed records).
        assert!(
            device
                .read_back()
                .iter()
                .any(|r| matches!(r, tebaldi_storage::wal::LogRecord::Commit { .. })),
            "read-only ack must wait out the read barrier"
        );
        write_ticket.wait().unwrap().unwrap();
        pool.shutdown();
    }

    #[test]
    fn snapshot_read_ack_waits_for_deferred_commits_it_may_have_read() {
        // The same hole through the zero-2PC read path: a queued execute
        // publishes before its flush, and a snapshot read takes no locks
        // and appends nothing — its answer must wait out the read barrier.
        let device: Arc<dyn tebaldi_storage::wal::LogDevice> = Arc::new(
            tebaldi_storage::wal::MemLogDevice::with_flush_latency(Duration::from_millis(20)),
        );
        let pool = ShardWorkers::spawn(0, durable_db(Arc::clone(&device)), 1, registry(), 16);
        pool.db().load(Key::simple(TABLE, 1), Value::Int(0));
        let write_ticket = submit(&pool, execute(BUMP, 1));
        let read_ticket = submit(
            &pool,
            ShardRequest::SnapshotRead {
                // A minute ahead of the shard clock: above the stamp the
                // queued write is about to draw.
                snapshot: pool.db().hlc().now() + (60_000 << tebaldi_core::hlc::LOGICAL_BITS),
                wait_ms: 1_000,
                keys: vec![Key::simple(TABLE, 1)],
            },
        );
        match read_ticket.wait().unwrap().unwrap() {
            ShardResponse::Snapshot { values, .. } => {
                assert_eq!(
                    values,
                    vec![Value::Int(1)],
                    "the read saw the published write"
                )
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert!(
            device
                .read_back()
                .iter()
                .any(|r| matches!(r, tebaldi_storage::wal::LogRecord::Commit { .. })),
            "snapshot-read ack must wait out the read barrier"
        );
        write_ticket.wait().unwrap().unwrap();
        pool.shutdown();
    }

    #[test]
    fn window_bounds_inflight_bodies() {
        let pool = ShardWorkers::spawn(0, db(), 2, registry(), 4);
        pool.db().load(Key::simple(TABLE, 1), Value::Int(0));
        let tickets: Vec<_> = (0..64).map(|_| submit(&pool, execute(BUMP, 1))).collect();
        for ticket in tickets {
            ticket.wait().unwrap().unwrap();
        }
        assert!(
            pipeline(&pool, "pipeline.max_depth") <= 4,
            "admission must respect the in-flight window"
        );
        pool.shutdown();
    }

    #[test]
    fn unknown_procedure_is_a_clean_error() {
        let pool = ShardWorkers::spawn(0, db(), 1, registry(), 1);
        let err = pool
            .execute_now(ProcId(999), &ProcedureCall::new(TY), &[], 1)
            .unwrap_err();
        assert!(matches!(err, CcError::Internal(_)));
        pool.shutdown();
    }

    #[test]
    fn metrics_and_flush_admin_requests() {
        let pool = ShardWorkers::spawn(0, db(), 1, registry(), 1);
        pool.db().load(Key::simple(TABLE, 1), Value::Int(0));
        pool.execute_now(BUMP, &ProcedureCall::new(TY), &args(1), 5)
            .unwrap();
        match pool.handle_inline(ShardRequest::Metrics).unwrap() {
            ShardResponse::Metrics(metrics) => {
                let latency = metrics.histogram("proc.bump.latency_ns");
                assert_eq!(latency.map(|h| h.count), Some(1));
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(
            pool.handle_inline(ShardRequest::Flush).unwrap(),
            ShardResponse::Flushed
        );
        pool.shutdown();
    }
}
