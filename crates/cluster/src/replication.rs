//! Primary/backup WAL shipping with quorum-gated acknowledgement and
//! follower reads.
//!
//! Every shard primary streams its WAL to N backups as length-prefixed
//! frames — the same wire idiom `tcp.rs`/`wire.rs` speak — and the group-
//! commit completion loop releases a hardened batch to its clients once a
//! quorum of replicas has acknowledged the LSN that batch needs
//! ([`ShardReplication::wait_quorum`]). Replication therefore rides the
//! existing coalesced-flush path: one gate per hardened batch, not one
//! blocking seam per transaction.
//!
//! ## The ship stream
//!
//! Each replica link is a *stream*, not a request/response exchange. The
//! shipper thread follows the primary's durable log without ever asking
//! the device for its length: each flush that may have grown the log wakes
//! the shipper ([`ShardReplication::primary_log`]), which reads the durable
//! tail past its position once per wake-up (an empty tail: nothing new),
//! and writes batch after batch without waiting for acknowledgements,
//! bounded by a fixed window of unacknowledged bytes
//! (`SHIP_WINDOW_BYTES`). An ack reader on the same connection advances
//! the replica's acknowledged LSN, reopens the window and wakes exactly
//! the quorum waiters that LSN now covers. Nothing on this path polls:
//! every wait is a condition wait whose notifier holds the waiter's mutex,
//! so a wake-up cannot be lost.
//!
//! Only *durable* records are ever shipped, in order (ship-after-flush), so
//! a follower's log is always a durable prefix of the primary's.
//!
//! A [`ReplicaNode`] accepts shipper connections on the same loopback
//! acceptor as the shard RPC server (`wire::Acceptor`): each connection is
//! applied on its own thread and forgotten when it ends, so a replica that
//! sees its shipper redial many times holds only the live connection.
//!
//! The protocol is deliberately idempotent. A replica applies a batch only
//! where it extends its applied prefix — overlapping resends are
//! deduplicated, gapped batches refused — and answers every batch with its
//! current LSN. A link that loses its connection, or whose replica refuses
//! a batch, restarts the stream on a fresh connection from the replica's
//! *acknowledged* LSN; a frame the fault lane drops or partitions away
//! stops the stream at that frame until the lane delivers it. Dropped or
//! partitioned frames therefore cost lag, never divergence.
//!
//! Followers materialize a read snapshot from their shipped log via the
//! standard recovery replay ([`recover_with_resolver`]) and serve
//! bounded-staleness reads (participant votes always come from the
//! primary): a follower whose applied LSN is behind the caller's minimum
//! waits it out, then refuses the read rather than serve a snapshot it
//! cannot justify. Because the primary ships only *durable* records in
//! order, sealing the epochs a follower holds before replay is exactly as
//! safe as the primary's own group-commit ack discipline.
//!
//! Failover: [`ShardReplication::promote`] stops shipping and hands back
//! the chosen backup's log (sealed) for the cluster to recover a fresh
//! primary from; [`truncate_divergent_suffix`] cuts a rejoining old
//! primary's unreplicated tail so records past the surviving quorum never
//! resurface.

use crate::faults::{FaultPlan, LogLinkVerdict, ReplicaLinkLane};
use crate::wire::{self, FrameReader};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tebaldi_obs::{Counter, MaxGauge, MetricsRegistry};
use tebaldi_storage::codec::{ByteReader, ByteWriter, CodecResult};
use tebaldi_storage::recovery::recover_with_resolver;
use tebaldi_storage::wal::{LogDevice, LogRecord, MemLogDevice};
use tebaldi_storage::{Key, MvStore, Value};

/// A shipped frame is full at this many records or [`SHIP_FRAME_BYTES`],
/// whichever comes first: small enough that several fit the in-flight
/// window, far below `wire::MAX_FRAME_LEN` even with one oversized record
/// on top.
const SHIP_CHUNK: usize = 256;
const SHIP_FRAME_BYTES: usize = 64 << 10;

/// Bytes one link may have on the wire without an acknowledgement. The
/// shipper streams freely below it and waits for acks above it (a single
/// frame larger than the window still goes out, alone), so a slow replica
/// backs the stream up here instead of in socket buffers.
const SHIP_WINDOW_BYTES: usize = 256 << 10;

/// How a replication group is sized and how long the group-commit path
/// waits for replica acknowledgements before degrading to local-only
/// durability for that batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Backups per shard.
    pub replicas: usize,
    /// Acks (out of `replicas`) required before a hardened batch is
    /// acknowledged. Clamped to `replicas`; zero disables the gate.
    pub quorum: usize,
    /// Upper bound on the quorum wait per batch. On expiry the batch is
    /// acked on local durability alone and `replication.acks_timed_out`
    /// is incremented — replication lag must not wedge the pipeline.
    pub ack_timeout_ms: u64,
}

impl ReplicationConfig {
    /// `replicas` backups with a majority quorum and a generous timeout.
    pub fn majority(replicas: usize) -> Self {
        ReplicationConfig {
            replicas,
            quorum: replicas / 2 + usize::from(replicas > 0),
            ack_timeout_ms: 2_000,
        }
    }

    /// The effective quorum (clamped to the replica count).
    pub fn effective_quorum(&self) -> usize {
        self.quorum.min(self.replicas)
    }
}

/// A follower could not serve a read at the required LSN within the wait
/// budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaleFollower {
    /// The follower's applied LSN at refusal time.
    pub applied: u64,
    /// The LSN the caller required.
    pub required: u64,
}

impl std::fmt::Display for StaleFollower {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "follower at lsn {} cannot serve reads at lsn {}",
            self.applied, self.required
        )
    }
}

/// Serializes the head of `records` as one batch — its start LSN, then
/// records in the storage crate's binary codec until the frame is full —
/// and returns how many records it took (at least one, if there is one).
fn put_batch(w: &mut ByteWriter, start: u64, records: &[LogRecord]) -> usize {
    let begin = w.len();
    w.put_u64(start);
    let mut taken = 0;
    for record in records.iter().take(SHIP_CHUNK) {
        w.put_log_record(record);
        taken += 1;
        if w.len() - begin >= SHIP_FRAME_BYTES {
            break;
        }
    }
    taken
}

/// Decodes a shipped batch (the frame's end delimits it). Malformed
/// frames yield an error and tear the connection down — the shipper
/// reconnects and resyncs from the ack.
fn decode_batch(bytes: &[u8]) -> CodecResult<(u64, Vec<LogRecord>)> {
    let mut r = ByteReader::new(bytes);
    let start = r.u64()?;
    let mut records = Vec::new();
    while r.remaining() > 0 {
        records.push(r.log_record()?);
    }
    Ok((start, records))
}

/// An ack is the replica's applied LSN, nothing else.
fn decode_ack(bytes: &[u8]) -> CodecResult<u64> {
    let mut r = ByteReader::new(bytes);
    let applied = r.u64()?;
    r.expect_end()?;
    Ok(applied)
}

/// The largest GCP epoch named anywhere in `records`.
fn max_epoch(records: &[LogRecord]) -> u64 {
    records
        .iter()
        .map(|r| match r {
            LogRecord::Precommit { gcp_epoch, .. } => *gcp_epoch,
            LogRecord::Commit { global_epoch, .. } => *global_epoch,
            LogRecord::EpochSeal { epoch } => *epoch,
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

/// Replays `records` into a fresh store with all held epochs sealed.
/// Sealing is sound because every shipped record was durable on the
/// primary before it was sent (ship-after-flush discipline); in-doubt
/// prepares resolve through `resolver` exactly as in crash recovery.
fn materialize(
    records: Vec<LogRecord>,
    store_shards: usize,
    resolver: &dyn Fn(u64) -> Option<u64>,
) -> MvStore {
    let mut records = records;
    records.push(LogRecord::EpochSeal {
        epoch: max_epoch(&records),
    });
    recover_with_resolver(&records, MvStore::new(store_shards), resolver).0
}

/// Read-snapshot cache: rebuilt only when the applied LSN moves.
#[derive(Default)]
struct SnapshotCache {
    lsn: u64,
    store: Option<Arc<MvStore>>,
}

/// A backup for one shard: a TCP listener that applies shipped batches
/// into its own in-memory log and serves bounded-staleness reads from a
/// snapshot materialized via crash-recovery replay.
pub struct ReplicaNode {
    log: Arc<MemLogDevice>,
    applied: Mutex<u64>,
    applied_cv: Condvar,
    acceptor: Arc<wire::Acceptor>,
    store_shards: usize,
    cache: Mutex<SnapshotCache>,
}

impl ReplicaNode {
    /// Binds a loopback listener and starts the apply loop.
    /// `store_shards` is the shard count for materialized read stores
    /// (the engine's `DbConfig::shards`).
    pub fn spawn(store_shards: usize) -> std::io::Result<Arc<Self>> {
        ReplicaNode::spawn_on(Arc::new(MemLogDevice::new()), store_shards)
    }

    /// [`spawn`](ReplicaNode::spawn) over a given follower log.
    fn spawn_on(log: Arc<MemLogDevice>, store_shards: usize) -> std::io::Result<Arc<Self>> {
        let node = Arc::new(ReplicaNode {
            log,
            applied: Mutex::new(0),
            applied_cv: Condvar::new(),
            acceptor: wire::Acceptor::bind()?,
            store_shards,
            cache: Mutex::new(SnapshotCache::default()),
        });
        let serving = Arc::clone(&node);
        node.acceptor
            .start("tebaldi-replica", move |stream, stopping| {
                serving.serve(stream, stopping)
            })?;
        Ok(node)
    }

    /// The listener address a shipper connects to.
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Records applied so far (the follower's LSN).
    pub fn applied_lsn(&self) -> u64 {
        *self.applied.lock()
    }

    /// The follower's own log (a faithful durable prefix of the
    /// primary's). Promotion recovers a new primary from this.
    pub fn log(&self) -> Arc<MemLogDevice> {
        Arc::clone(&self.log)
    }

    /// Blocks until the applied LSN reaches `lsn` or `timeout` expires.
    pub fn wait_applied(&self, lsn: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut applied = self.applied.lock();
        while *applied < lsn {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.applied_cv.wait_for(&mut applied, deadline - now);
        }
        true
    }

    /// The follower's current read snapshot: (applied LSN, store).
    /// Rebuilt by recovery replay only when the LSN has moved since the
    /// last call; in-doubt prepares read as aborted (their writes are
    /// invisible until a shipped decision resolves them).
    pub fn snapshot(&self) -> (u64, Arc<MvStore>) {
        let applied = *self.applied.lock();
        let mut cache = self.cache.lock();
        if cache.store.is_none() || cache.lsn != applied {
            let store = materialize(self.log.read_back(), self.store_shards, &|_| None);
            cache.lsn = applied;
            cache.store = Some(Arc::new(store));
        }
        (applied, Arc::clone(cache.store.as_ref().expect("cached")))
    }

    /// One shipper connection: apply each batch of the stream, answer each
    /// with the applied LSN.
    fn serve(&self, stream: TcpStream, stopping: &AtomicBool) {
        let Ok(mut acks) = stream.try_clone() else {
            return;
        };
        let mut frames = FrameReader::new(stream);
        let mut ack = Vec::new();
        while !stopping.load(Ordering::SeqCst) {
            let applied = match frames.next_frame() {
                Ok(Some(payload)) => match decode_batch(payload) {
                    Ok((start, records)) => self.apply(start, records),
                    Err(_) => return,
                },
                Ok(None) | Err(_) => return,
            };
            ack.clear();
            wire::append_frame(&mut ack, |w| w.put_u64(applied));
            if acks.write_all(&ack).is_err() {
                return;
            }
        }
    }

    /// Applies a batch where it extends the applied prefix; overlapping
    /// resends are deduplicated, gapped batches refused. Always returns
    /// the current applied LSN — an ack below a batch's start tells the
    /// shipper the batch was refused and where to restart the stream.
    fn apply(&self, start: u64, records: Vec<LogRecord>) -> u64 {
        let mut applied = self.applied.lock();
        if start <= *applied {
            let skip = (*applied - start) as usize;
            if skip < records.len() {
                for record in &records[skip..] {
                    self.log.append(record);
                }
                self.log.flush();
                *applied += (records.len() - skip) as u64;
                self.applied_cv.notify_all();
            }
        }
        *applied
    }

    /// Stops the listener and closes every connection.
    pub fn shutdown(&self) {
        self.acceptor.shutdown();
    }
}

impl Drop for ReplicaNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A frame written to a replica and not yet covered by one of its acks.
struct SentFrame {
    start: u64,
    end: u64,
    bytes: usize,
}

/// One replica link's position in the ship stream.
#[derive(Default)]
struct Link {
    /// Next LSN the shipper puts on the wire.
    next: u64,
    /// Frames on the wire, oldest first, and their total size — what the
    /// in-flight window bounds.
    inflight: VecDeque<SentFrame>,
    inflight_bytes: usize,
    /// The shipper is waiting for the window to open (so an ack is worth a
    /// wake-up; otherwise it waits for a flush, which acks know nothing of).
    window_full: bool,
    /// The stream must restart from the acknowledged LSN on a fresh
    /// connection: the old one died, or the replica refused a frame.
    broken: bool,
}

/// Everything the shippers, the ack readers and the quorum waiters
/// coordinate through, under one mutex: whoever changes a condition another
/// thread waits for does so — and notifies — holding it, so no wake-up
/// falls between a waiter's check and its wait.
struct ShipState {
    paused: bool,
    stopping: bool,
    /// How many times the durable log may have grown: counted by every
    /// flush through `primary_log` and every quorum waiter a link has not
    /// reached. A shipper reads the tail again whenever this moved since
    /// its last read.
    grown: u64,
    links: Vec<Link>,
    /// The LSNs `wait_quorum` callers are blocked on, so an ack wakes them
    /// only when it covers one.
    waiting: Vec<u64>,
}

/// A shipper's live connection: the write half it streams batches into and
/// the thread reading acks off the other half.
struct ShipConn {
    stream: TcpStream,
    ack_reader: JoinHandle<()>,
}

impl ShipConn {
    fn close(self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        let _ = self.ack_reader.join();
    }
}

/// Primary-side replication for one shard: per-replica shipper threads
/// streaming the durable log, the quorum gate commit acknowledgements wait
/// on, and the follower-read entry points.
pub struct ShardReplication {
    cfg: ReplicationConfig,
    log: Arc<dyn LogDevice>,
    replicas: Vec<Arc<ReplicaNode>>,
    /// Per-replica acknowledged LSN. Written under `state`; read lock-free
    /// by the gate's fast path and the accessors.
    acked: Vec<AtomicU64>,
    state: Mutex<ShipState>,
    /// Shippers wait here: for durable records past their `next`, for the
    /// in-flight window to open, for shipping to resume.
    ship_cv: Condvar,
    /// Blocking quorum waiters wait here for the quorum LSN to advance.
    quorum_cv: Condvar,
    shippers: Mutex<Vec<JoinHandle<()>>>,
    shipped_records: Arc<Counter>,
    shipped_bytes: Arc<Counter>,
    lag_records: Arc<MaxGauge>,
    lag_bytes: Arc<MaxGauge>,
    inflight_frames: Arc<MaxGauge>,
    inflight_bytes: Arc<MaxGauge>,
    quorum_waits: Arc<Counter>,
    quorum_wait_ns: Arc<Counter>,
    acks_timed_out: Arc<Counter>,
    follower_reads: Arc<Counter>,
    follower_read_refusals: Arc<Counter>,
    frames_dropped: Arc<Counter>,
    frames_delayed: Arc<Counter>,
    frames_partitioned: Arc<Counter>,
}

/// The primary's WAL as its database sees it: the shard's own device, plus
/// a wake-up of the shippers behind every flush — the durable watermark
/// moves nowhere else, so the shippers never have to poll for it.
struct ShippedLog {
    device: Arc<dyn LogDevice>,
    replication: Arc<ShardReplication>,
}

impl LogDevice for ShippedLog {
    fn append(&self, record: &LogRecord) {
        self.device.append(record);
    }
    fn flush(&self) {
        self.device.flush();
        self.replication.wake_shippers();
    }
    fn read_back(&self) -> Vec<LogRecord> {
        self.device.read_back()
    }
    fn durable_len(&self) -> usize {
        self.device.durable_len()
    }
    fn read_from(&self, from: usize) -> Vec<LogRecord> {
        self.device.read_from(from)
    }
    fn truncate_to(&self, len: usize) -> bool {
        self.device.truncate_to(len)
    }
}

impl ShardReplication {
    /// Spawns the replica nodes and one shipper thread per replica.
    /// `log` is the primary's device (records ship strictly from its
    /// durable prefix); `store_shards` sizes follower read stores;
    /// `faults` carves per-link lanes out of the cluster fault plan.
    pub fn spawn(
        shard: usize,
        cfg: ReplicationConfig,
        log: Arc<dyn LogDevice>,
        store_shards: usize,
        metrics: &MetricsRegistry,
        faults: Option<&FaultPlan>,
    ) -> Result<Arc<Self>, String> {
        let mut replicas = Vec::with_capacity(cfg.replicas);
        for _ in 0..cfg.replicas {
            replicas.push(ReplicaNode::spawn(store_shards).map_err(|e| e.to_string())?);
        }
        Ok(ShardReplication::spawn_over(
            shard, cfg, log, replicas, metrics, faults,
        ))
    }

    /// [`spawn`](ShardReplication::spawn) over already-running replicas.
    fn spawn_over(
        shard: usize,
        cfg: ReplicationConfig,
        log: Arc<dyn LogDevice>,
        replicas: Vec<Arc<ReplicaNode>>,
        metrics: &MetricsRegistry,
        faults: Option<&FaultPlan>,
    ) -> Arc<Self> {
        let repl = Arc::new(ShardReplication {
            cfg,
            log,
            acked: replicas.iter().map(|_| AtomicU64::new(0)).collect(),
            state: Mutex::new(ShipState {
                paused: false,
                stopping: false,
                grown: 0,
                links: replicas.iter().map(|_| Link::default()).collect(),
                waiting: Vec::new(),
            }),
            replicas,
            ship_cv: Condvar::new(),
            quorum_cv: Condvar::new(),
            shippers: Mutex::new(Vec::new()),
            shipped_records: metrics.counter("replication.shipped_records"),
            shipped_bytes: metrics.counter("replication.shipped_bytes"),
            lag_records: metrics.max_gauge("replication.lag_records"),
            lag_bytes: metrics.max_gauge("replication.lag_bytes"),
            inflight_frames: metrics.max_gauge("replication.inflight_frames"),
            inflight_bytes: metrics.max_gauge("replication.inflight_bytes"),
            quorum_waits: metrics.counter("replication.quorum_waits"),
            quorum_wait_ns: metrics.counter("replication.quorum_wait_ns"),
            acks_timed_out: metrics.counter("replication.acks_timed_out"),
            follower_reads: metrics.counter("replication.follower_reads"),
            follower_read_refusals: metrics.counter("replication.follower_read_refusals"),
            frames_dropped: metrics.counter("replication.frames_dropped"),
            frames_delayed: metrics.counter("replication.frames_delayed"),
            frames_partitioned: metrics.counter("replication.frames_partitioned"),
        });
        let shippers = (0..repl.replicas.len())
            .map(|index| {
                let shipper = Arc::clone(&repl);
                let lane = faults.map(|plan| plan.replica_lane(shard, index));
                std::thread::Builder::new()
                    .name(format!("tebaldi-shard-{shard}-ship-{index}"))
                    .spawn(move || shipper.run_shipper(index, lane))
                    .expect("spawn log shipper")
            })
            .collect();
        *repl.shippers.lock() = shippers;
        repl
    }

    /// The device to build the primary's database on: the shard's log with
    /// every flush waking the shippers. A flush made on the bare device
    /// still ships — at the next flush through this handle, or the next
    /// [`wait_quorum`](ShardReplication::wait_quorum).
    pub fn primary_log(self: &Arc<Self>) -> Arc<dyn LogDevice> {
        Arc::new(ShippedLog {
            device: Arc::clone(&self.log),
            replication: Arc::clone(self),
        })
    }

    /// The replication configuration in force.
    pub fn config(&self) -> ReplicationConfig {
        self.cfg
    }

    /// The replica at `index`, if any.
    pub fn replica(&self, index: usize) -> Option<&Arc<ReplicaNode>> {
        self.replicas.get(index)
    }

    /// Number of backups.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// LSN the replica at `index` has acknowledged.
    pub fn acked_lsn(&self, index: usize) -> u64 {
        self.acked
            .get(index)
            .map(|a| a.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Times the quorum gate expired and a batch was acknowledged on
    /// local durability alone (the `replication.acks_timed_out` counter).
    pub fn acks_timed_out(&self) -> u64 {
        self.acks_timed_out.get()
    }

    /// The highest LSN any replica holds — what survives the loss of the
    /// primary, and the truncation point for its rejoin.
    pub fn replicated_len(&self) -> usize {
        self.acked
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0) as usize
    }

    /// The LSN acknowledged by at least `quorum` replicas (the k-th
    /// highest ack). `u64::MAX` when the gate is disabled.
    pub fn quorum_lsn(&self) -> u64 {
        let quorum = self.cfg.effective_quorum();
        if quorum == 0 {
            return u64::MAX;
        }
        // The k-th highest ack: the largest acked LSN that at least
        // `quorum` replicas have reached. Replica counts are tiny, so the
        // quadratic scan beats sorting a copy on every ack.
        let acks = || self.acked.iter().map(|a| a.load(Ordering::Relaxed));
        acks()
            .filter(|&lsn| acks().filter(|&other| other >= lsn).count() >= quorum)
            .max()
            .unwrap_or(0)
    }

    /// The primary's durable length right now — the LSN a batch that has
    /// just hardened needs the quorum to reach.
    pub(crate) fn durable_lsn(&self) -> u64 {
        self.log.durable_len() as u64
    }

    /// The quorum gate: blocks until a quorum of replicas has acknowledged
    /// `lsn` — the durable length the caller's own records need, not
    /// whatever later transactions have made durable since — or the
    /// configured ack timeout expires. Returns `false` on timeout: the
    /// caller proceeds on local durability (degraded mode) so a dead
    /// replica cannot wedge the commit pipeline, and the timeout is counted
    /// for the operator.
    pub fn wait_quorum(&self, lsn: u64) -> bool {
        if self.quorum_lsn() >= lsn {
            return true;
        }
        self.quorum_waits.inc();
        let start = Instant::now();
        let deadline = start + Duration::from_millis(self.cfg.ack_timeout_ms.max(1));
        let mut state = self.state.lock();
        // Whatever made `lsn` durable may not have come through
        // `primary_log`: a shipper that has not put it on the wire yet may
        // not know it is there.
        if state.links.iter().any(|link| link.next < lsn) {
            self.report_growth(&mut state);
        }
        state.waiting.push(lsn);
        let ok = loop {
            if self.quorum_lsn() >= lsn {
                break true;
            }
            if self.quorum_cv.wait_until(&mut state, deadline).timed_out() {
                break self.quorum_lsn() >= lsn;
            }
        };
        let slot = state.waiting.iter().position(|&l| l == lsn);
        state.waiting.swap_remove(slot.expect("registered above"));
        drop(state);
        self.quorum_wait_ns.add(start.elapsed().as_nanos() as u64);
        if !ok {
            self.acks_timed_out.inc();
        }
        ok
    }

    /// [`wait_quorum`](ShardReplication::wait_quorum) for everything
    /// durable on the primary right now — for callers with no LSN of their
    /// own (tests, operators draining a shard).
    pub fn sync(&self) -> bool {
        self.wait_quorum(self.durable_lsn())
    }

    /// Wakes the shippers to read the durable tail again. Safe to call
    /// after any flush: a shipper is either before its check (and will
    /// read a tail that holds the flush) or already waiting (and gets the
    /// notification).
    fn wake_shippers(&self) {
        self.report_growth(&mut self.state.lock());
    }

    /// Counts a possible growth of the durable log and wakes the shippers.
    fn report_growth(&self, state: &mut ShipState) {
        state.grown += 1;
        self.ship_cv.notify_all();
    }

    /// Pauses or resumes shipping (fault-injection hook for staleness
    /// tests; the quorum gate keeps timing out while paused). A pause takes
    /// effect at the next frame.
    pub fn set_paused(&self, paused: bool) {
        let mut state = self.state.lock();
        state.paused = paused;
        self.ship_cv.notify_all();
    }

    /// A bounded-staleness read of `keys` served by the replica at
    /// `index`: waits once, up to `wait`, for the follower to reach
    /// `min_lsn`, then reads each key's latest committed version from its
    /// materialized snapshot in one pass ([`MvStore::read_many`]), a
    /// delete reading as `None`. Answers in input order. Refuses with
    /// [`StaleFollower`] if the follower cannot catch up in time.
    pub fn follower_read(
        &self,
        index: usize,
        keys: &[Key],
        min_lsn: u64,
        wait: Duration,
    ) -> Result<Vec<Option<Value>>, StaleFollower> {
        let refuse = |applied| {
            self.follower_read_refusals.inc();
            StaleFollower {
                applied,
                required: min_lsn,
            }
        };
        let node = self.replicas.get(index).ok_or_else(|| refuse(0))?;
        if !node.wait_applied(min_lsn, wait) {
            return Err(refuse(node.applied_lsn()));
        }
        let (_lsn, store) = node.snapshot();
        self.follower_reads.add(keys.len() as u64);
        let mut values = Vec::with_capacity(keys.len());
        store.read_many(keys, &mut values, |chain| {
            let latest = chain.latest_committed()?;
            (!latest.value.is_null()).then(|| latest.value.clone())
        });
        Ok(values)
    }

    /// Stops shipping and the replica listeners, then hands back the
    /// promoted backup's log with its shipped epochs sealed — the
    /// recovery source for the new primary. Sealing what the follower
    /// holds is sound because only primary-durable records were ever
    /// shipped.
    pub fn promote(&self, index: usize) -> Result<Arc<MemLogDevice>, String> {
        let node = self
            .replicas
            .get(index)
            .ok_or_else(|| format!("no replica {index}"))?;
        self.stop_shipping();
        let log = node.log();
        let records = log.read_back();
        log.append(&LogRecord::EpochSeal {
            epoch: max_epoch(&records),
        });
        log.flush();
        Ok(log)
    }

    /// Stops the shipper threads (idempotent); replica listeners stay up.
    ///
    /// Failover calls this as a fence *before* stopping the old primary:
    /// with shipping stopped, any prepare still in flight on the primary
    /// fails its quorum gate and votes abort instead of yes.
    pub fn stop_shipping(&self) {
        {
            let mut state = self.state.lock();
            if state.stopping {
                return;
            }
            state.stopping = true;
            self.ship_cv.notify_all();
        }
        for handle in self.shippers.lock().drain(..) {
            let _ = handle.join();
        }
    }

    /// Full teardown: shippers and replica nodes.
    pub fn shutdown(&self) {
        self.stop_shipping();
        for node in &self.replicas {
            node.shutdown();
        }
    }

    /// One shipper: streams the primary's durable log to replica `index`
    /// from its acknowledged LSN, cut into frames judged one by one by the
    /// fault lane, never waiting for an ack except on a full window.
    fn run_shipper(self: Arc<Self>, index: usize, mut lane: Option<ReplicaLinkLane>) {
        let addr = self.replicas[index].addr();
        let mut conn: Option<ShipConn> = None;
        let mut frame = Vec::new();
        // The `grown` count as of the last tail put on the wire in full;
        // `None` while a stream is cut short, so its tail is read (and
        // judged) again.
        let mut shipped_at = None;
        'stream: while let Some((from, grown)) = self.next_to_ship(index, &mut conn, shipped_at) {
            shipped_at = None;
            let records = self.log.read_from(from as usize);
            self.lag_records.observe(records.len() as u64);
            let mut tail_bytes = 0u64;
            let mut start = from;
            let mut unsent = &records[..];
            while !unsent.is_empty() {
                frame.clear();
                let taken = wire::append_frame(&mut frame, |w| put_batch(w, start, unsent));
                let end = start + taken as u64;
                let payload_bytes = frame.len() - 4;
                tail_bytes += payload_bytes as u64;
                self.lag_bytes.observe(tail_bytes);
                // A frame the lane swallows stops the stream here: `next`
                // stays at `start`, exactly where the replica's acks will
                // stop too, and the frame is judged again.
                match lane.as_mut().map(|l| l.judge()) {
                    Some(LogLinkVerdict::Drop) => {
                        self.frames_dropped.inc();
                        continue 'stream;
                    }
                    Some(LogLinkVerdict::Partitioned) => {
                        self.frames_partitioned.inc();
                        continue 'stream;
                    }
                    Some(LogLinkVerdict::Delay(delay)) => {
                        self.frames_delayed.inc();
                        std::thread::sleep(delay);
                    }
                    Some(LogLinkVerdict::Deliver) | None => {}
                }
                if conn.is_none() {
                    conn = self.connect(index, addr);
                }
                let Some(live) = conn.as_mut() else {
                    // Replica unreachable: back off before the next dial.
                    std::thread::sleep(Duration::from_millis(1));
                    continue 'stream;
                };
                let sent = SentFrame {
                    start,
                    end,
                    bytes: frame.len(),
                };
                if !self.admit(index, sent) {
                    continue 'stream;
                }
                if live.stream.write_all(&frame).is_err() {
                    self.break_link(index);
                    continue 'stream;
                }
                self.shipped_records.add(taken as u64);
                self.shipped_bytes.add(payload_bytes as u64);
                start = end;
                unsent = &unsent[taken..];
            }
            shipped_at = Some(grown);
        }
        if let Some(conn) = conn {
            conn.close();
        }
    }

    /// Blocks until shipper `index` has a tail to read — the log may have
    /// grown since `shipped_at`, or the last stream was cut short — and
    /// returns the LSN to read from with the `grown` count it reads at;
    /// `None` once shipping is stopped. A broken link is reset here: its
    /// connection closed, its stream position moved back to the replica's
    /// acknowledged LSN.
    fn next_to_ship(
        &self,
        index: usize,
        conn: &mut Option<ShipConn>,
        mut shipped_at: Option<u64>,
    ) -> Option<(u64, u64)> {
        let mut state = self.state.lock();
        loop {
            if state.stopping {
                return None;
            }
            if state.links[index].broken {
                // Joining the ack reader needs the lock released: it is
                // about to take it to report the connection's end.
                drop(state);
                if let Some(conn) = conn.take() {
                    conn.close();
                }
                state = self.state.lock();
                let link = &mut state.links[index];
                link.broken = false;
                link.inflight.clear();
                link.inflight_bytes = 0;
                link.next = self.acked[index].load(Ordering::Relaxed);
                shipped_at = None;
                continue;
            }
            if !state.paused && shipped_at != Some(state.grown) {
                return Some((state.links[index].next, state.grown));
            }
            self.ship_cv.wait(&mut state);
        }
    }

    /// Dials the replica and starts the ack reader on the connection.
    fn connect(self: &Arc<Self>, index: usize, addr: SocketAddr) -> Option<ShipConn> {
        let stream = TcpStream::connect(addr).ok()?;
        wire::tune(&stream);
        let acks = stream.try_clone().ok()?;
        let reader = Arc::clone(self);
        let ack_reader = std::thread::Builder::new()
            .name(format!("tebaldi-ship-acks-{index}"))
            .spawn(move || reader.run_ack_reader(index, acks))
            .ok()?;
        Some(ShipConn { stream, ack_reader })
    }

    /// Takes window space for `frame` and advances the stream position
    /// past it, waiting (for acks) while the window is full. `false` means
    /// the stream must not continue from here: shipping stopped or paused,
    /// or the link broke while waiting.
    fn admit(&self, index: usize, frame: SentFrame) -> bool {
        let mut state = self.state.lock();
        loop {
            if state.stopping || state.paused || state.links[index].broken {
                return false;
            }
            let link = &mut state.links[index];
            if link.inflight_bytes == 0 || link.inflight_bytes + frame.bytes <= SHIP_WINDOW_BYTES {
                link.inflight_bytes += frame.bytes;
                link.next = frame.end;
                link.inflight.push_back(frame);
                self.inflight_frames.observe(link.inflight.len() as u64);
                self.inflight_bytes.observe(link.inflight_bytes as u64);
                return true;
            }
            link.window_full = true;
            self.ship_cv.wait(&mut state);
            state.links[index].window_full = false;
        }
    }

    /// Marks link `index` for a restart from its acknowledged LSN.
    fn break_link(&self, index: usize) {
        let mut state = self.state.lock();
        state.links[index].broken = true;
        self.ship_cv.notify_all();
    }

    /// The ack half of one ship connection: every ack advances the
    /// replica's acknowledged LSN, retires the frames it covers, reopens
    /// the window if the shipper waits on it, and wakes the quorum waiters
    /// once the quorum LSN covers one of them. Ends (breaking the link)
    /// with the connection.
    fn run_ack_reader(self: Arc<Self>, index: usize, stream: TcpStream) {
        let mut frames = FrameReader::new(stream);
        while let Ok(Some(payload)) = frames.next_frame() {
            let Ok(ack) = decode_ack(payload) else {
                break;
            };
            let mut state = self.state.lock();
            self.acked[index].store(ack, Ordering::Relaxed);
            let link = &mut state.links[index];
            while link.inflight.front().is_some_and(|f| f.end <= ack) {
                let covered = link.inflight.pop_front().expect("front exists");
                link.inflight_bytes -= covered.bytes;
            }
            // An ack below the oldest frame's start is a refusal: the
            // replica saw a gap before it.
            if link.inflight.front().is_some_and(|f| ack < f.start) {
                link.broken = true;
            }
            if link.window_full || link.broken {
                self.ship_cv.notify_all();
            }
            let quorum = self.quorum_lsn();
            if state.waiting.iter().any(|&lsn| lsn <= quorum) {
                self.quorum_cv.notify_all();
            }
        }
        self.break_link(index);
    }
}

impl Drop for ShardReplication {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Cuts a rejoining old primary's divergent suffix: every record past
/// what the surviving replication quorum holds is discarded (buffered
/// tail included) so it cannot resurface on recovery. Returns `false`
/// when the device does not support truncation.
pub fn truncate_divergent_suffix(device: &dyn LogDevice, replicated_len: usize) -> bool {
    device.truncate_to(replicated_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tebaldi_storage::schema::TableId;
    use tebaldi_storage::{ReadSpec, Timestamp, TxnId};

    fn committed_write(txn: u64, id: u64, value: i64, epoch: u64) -> LogRecord {
        LogRecord::Precommit {
            txn: TxnId(txn),
            gcp_epoch: epoch,
            commit_ts: Timestamp(txn),
            hlc: 0,
            writes: vec![(Key::simple(TableId(1), id), Value::Int(value))],
        }
    }

    fn metrics() -> MetricsRegistry {
        MetricsRegistry::new()
    }

    #[test]
    fn batch_and_ack_codecs_roundtrip() {
        let records = vec![committed_write(7, 3, 30, 2), committed_write(8, 4, 40, 2)];
        let mut batch = Vec::new();
        let taken = wire::append_frame(&mut batch, |w| put_batch(w, 41, &records));
        assert_eq!(taken, records.len());
        let payload = &batch[4..];
        assert_eq!(batch[..4], (payload.len() as u32).to_le_bytes());
        let (start, back) = decode_batch(payload).unwrap();
        assert_eq!(start, 41);
        assert_eq!(back, records);
        assert!(decode_batch(&payload[..payload.len() - 1]).is_err());
        let mut ack = Vec::new();
        wire::append_frame(&mut ack, |w| w.put_u64(99));
        assert_eq!(decode_ack(&ack[4..]).unwrap(), 99);
    }

    /// A group of one replica whose every apply takes `apply_latency` (its
    /// log's flush barrier), so its acks trail the stream by that much.
    fn group_with_slow_replica(
        log: &Arc<dyn LogDevice>,
        apply_latency: Duration,
        reg: &MetricsRegistry,
        faults: Option<&FaultPlan>,
    ) -> Arc<ShardReplication> {
        let follower_log = Arc::new(MemLogDevice::with_flush_latency(apply_latency));
        let replica = ReplicaNode::spawn_on(follower_log, 4).unwrap();
        let cfg = ReplicationConfig {
            replicas: 1,
            quorum: 1,
            ack_timeout_ms: 30_000,
        };
        ShardReplication::spawn_over(0, cfg, Arc::clone(log), vec![replica], reg, faults)
    }

    #[test]
    fn wait_quorum_returns_at_its_own_lsn_while_the_log_runs_ahead() {
        let log: Arc<dyn LogDevice> = Arc::new(MemLogDevice::new());
        let reg = metrics();
        let repl = group_with_slow_replica(&log, Duration::from_millis(20), &reg, None);
        let primary = repl.primary_log();
        primary.append(&committed_write(1, 1, 10, 1));
        primary.flush();
        let lsn = repl.durable_lsn();
        // A writer keeps appending and flushing behind the caller's LSN.
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (primary, stop) = (Arc::clone(&primary), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut txn = 2;
                while !stop.load(Ordering::SeqCst) {
                    primary.append(&committed_write(txn, txn, 1, 1));
                    primary.flush();
                    txn += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
            })
        };
        // The log is well past the caller's LSN before it even asks.
        while repl.durable_lsn() < lsn + 40 {
            std::thread::yield_now();
        }
        let durable_when_asked = repl.durable_lsn();
        assert!(repl.wait_quorum(lsn));
        let quorum = repl.quorum_lsn();
        assert!(quorum >= lsn);
        assert!(
            quorum < durable_when_asked,
            "the gate over-waited: it returned at quorum LSN {quorum}, past everything \
             that was durable ({durable_when_asked}) when lsn {lsn} was asked for"
        );
        stop.store(true, Ordering::SeqCst);
        writer.join().unwrap();
        assert!(repl.sync());
        assert_eq!(repl.replica(0).unwrap().log().read_back(), log.read_back());
        repl.shutdown();
    }

    /// One `Prepare` record of about 34 KB.
    fn fat_record(txn: u64) -> LogRecord {
        LogRecord::Prepare {
            txn: TxnId(txn),
            global: txn,
            writes: (0..600)
                .map(|i| (Key::simple(TableId(1), i), Value::row(&[1, 2, 3, 4])))
                .collect(),
        }
    }

    #[test]
    fn slow_acks_put_several_frames_in_flight_but_never_more_than_the_window() {
        let log: Arc<dyn LogDevice> = Arc::new(MemLogDevice::new());
        let reg = metrics();
        let repl = group_with_slow_replica(&log, Duration::from_millis(3), &reg, None);
        let primary = repl.primary_log();
        // ~1.3 MB in 40 flushes: five windows' worth, faster than the
        // replica acknowledges any of it.
        for txn in 0..40 {
            primary.append(&fat_record(txn));
            primary.flush();
        }
        assert!(repl.sync());
        let frames = reg.max_gauge("replication.inflight_frames").get();
        let bytes = reg.max_gauge("replication.inflight_bytes").get();
        assert!(
            frames > 1,
            "the shipper waited for every ack ({frames} in flight)"
        );
        assert!(
            bytes as usize <= SHIP_WINDOW_BYTES,
            "{bytes} bytes in flight exceed the {SHIP_WINDOW_BYTES}-byte window"
        );
        assert!(
            bytes as usize > SHIP_WINDOW_BYTES / 2,
            "the window never filled ({bytes} bytes): the test is not testing the bound"
        );
        assert_eq!(repl.replica(0).unwrap().log().read_back(), log.read_back());
        repl.shutdown();
    }

    /// A primary log that counts how often it is asked for its length and
    /// for its tail.
    #[derive(Default)]
    struct CountingLog {
        inner: MemLogDevice,
        lengths: AtomicU64,
        tails: AtomicU64,
    }

    impl LogDevice for CountingLog {
        fn append(&self, record: &LogRecord) {
            self.inner.append(record);
        }
        fn flush(&self) {
            self.inner.flush();
        }
        fn read_back(&self) -> Vec<LogRecord> {
            self.inner.read_back()
        }
        fn durable_len(&self) -> usize {
            self.lengths.fetch_add(1, Ordering::SeqCst);
            self.inner.durable_len()
        }
        fn read_from(&self, from: usize) -> Vec<LogRecord> {
            self.tails.fetch_add(1, Ordering::SeqCst);
            self.inner.read_from(from)
        }
    }

    #[test]
    fn the_shipper_reads_one_tail_per_report_and_never_the_length() {
        let counting = Arc::new(CountingLog::default());
        let log: Arc<dyn LogDevice> = counting.clone();
        let reg = metrics();
        let repl = group_with_slow_replica(&log, Duration::ZERO, &reg, None);
        let primary = repl.primary_log();
        for txn in 0..20 {
            primary.append(&committed_write(txn, txn, 1, 1));
            primary.flush();
            assert!(repl.wait_quorum(txn + 1));
        }
        assert_eq!(repl.replica(0).unwrap().log().read_back(), log.read_back());
        // One read at start, then at most one per report; an idle shipper
        // reads nothing.
        let reads_allowed = || 1 + repl.state.lock().grown;
        assert!(counting.tails.load(Ordering::SeqCst) <= reads_allowed());
        std::thread::sleep(Duration::from_millis(20));
        assert!(counting.tails.load(Ordering::SeqCst) <= reads_allowed());
        assert_eq!(
            counting.lengths.load(Ordering::SeqCst),
            0,
            "the ship path asked the device for its length"
        );
        repl.shutdown();
    }

    #[test]
    fn a_dropped_frame_stops_the_stream_which_resumes_from_the_acked_lsn() {
        let log: Arc<dyn LogDevice> = Arc::new(MemLogDevice::new());
        let reg = metrics();
        let mut plan = FaultPlan::quiet(0xd209);
        plan.drop_log_frame = 0.4;
        // Slow acks keep frames in flight around every dropped one.
        let repl = group_with_slow_replica(&log, Duration::from_millis(1), &reg, Some(&plan));
        let primary = repl.primary_log();
        for txn in 0..60 {
            primary.append(&committed_write(txn, txn, txn as i64, 1));
            primary.flush();
        }
        assert!(repl.sync(), "drops cost lag, not loss");
        assert!(reg.counter("replication.frames_dropped").get() > 0);
        // Nothing skipped, nothing doubled, nothing reordered.
        assert_eq!(repl.replica(0).unwrap().log().read_back(), log.read_back());
        assert_eq!(repl.acked_lsn(0), log.durable_len() as u64);
        repl.shutdown();
    }

    /// Sends one batch on a raw ship connection and returns the replica's
    /// answer.
    fn ship_raw(conn: &mut TcpStream, start: u64, records: &[LogRecord]) -> u64 {
        let mut frame = Vec::new();
        wire::append_frame(&mut frame, |w| put_batch(w, start, records));
        conn.write_all(&frame).unwrap();
        let ack = wire::read_frame(conn).unwrap().expect("an ack");
        decode_ack(&ack).unwrap()
    }

    #[test]
    fn replica_refuses_a_gap_and_reacks_until_the_stream_resumes_there() {
        let node = ReplicaNode::spawn(4).unwrap();
        let mut conn = TcpStream::connect(node.addr()).unwrap();
        let records: Vec<LogRecord> = (0..12).map(|t| committed_write(t, t, 1, 1)).collect();
        assert_eq!(ship_raw(&mut conn, 0, &records[..4]), 4);
        // Records 4..8 are lost on the way: what follows leaves a gap.
        assert_eq!(ship_raw(&mut conn, 8, &records[8..10]), 4, "gap refused");
        assert_eq!(ship_raw(&mut conn, 10, &records[10..]), 4, "still refused");
        assert_eq!(node.log().read_back(), records[..4]);
        // The stream resumes from the re-acked LSN; an overlapping resend
        // is deduplicated.
        assert_eq!(ship_raw(&mut conn, 2, &records[2..8]), 8);
        assert_eq!(ship_raw(&mut conn, 8, &records[8..]), 12);
        assert_eq!(node.log().read_back(), records);
        node.shutdown();
    }

    #[test]
    fn a_lost_connection_restarts_the_stream_from_the_acked_lsn() {
        let log: Arc<dyn LogDevice> = Arc::new(MemLogDevice::new());
        let reg = metrics();
        let repl = group_with_slow_replica(&log, Duration::ZERO, &reg, None);
        let primary = repl.primary_log();
        for round in 0..5u64 {
            for txn in 0..10 {
                primary.append(&committed_write(round * 10 + txn, txn, 1, 1));
                primary.flush();
            }
            assert!(repl.sync());
            // The replica hangs up; the next records find a dead link.
            repl.replica(0).unwrap().acceptor.hang_up();
        }
        assert_eq!(repl.replica(0).unwrap().log().read_back(), log.read_back());
        repl.shutdown();
    }

    #[test]
    fn a_replica_holds_only_its_live_connection_across_reconnects() {
        const RECONNECTS: u64 = 4;
        let log: Arc<dyn LogDevice> = Arc::new(MemLogDevice::new());
        let reg = metrics();
        let repl = group_with_slow_replica(&log, Duration::ZERO, &reg, None);
        let node = Arc::clone(repl.replica(0).unwrap());
        let primary = repl.primary_log();
        for round in 0..=RECONNECTS {
            if round > 0 {
                // The replica hangs up; the shipper redials for this round.
                node.acceptor.hang_up();
            }
            primary.append(&committed_write(round, round, 1, 1));
            primary.flush();
            assert!(repl.sync());
        }
        // Each hung-up connection's handler removed its own entry.
        let deadline = Instant::now() + Duration::from_secs(5);
        while node.acceptor.live_connections() != 1 {
            let live = node.acceptor.live_connections();
            assert!(
                Instant::now() < deadline,
                "{live} connections after {RECONNECTS} reconnects"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        repl.shutdown();
        assert_eq!(node.acceptor.live_connections(), 0);
    }

    #[test]
    fn shipper_follows_a_file_device_without_ever_flushing_it() {
        let dir = std::env::temp_dir().join(format!("tebaldi-ship-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let file = tebaldi_storage::wal::FileLogDevice::open(&path).unwrap();
        let log: Arc<dyn LogDevice> = Arc::new(file);
        let reg = metrics();
        let repl = group_with_slow_replica(&log, Duration::ZERO, &reg, None);
        let flushed = vec![committed_write(1, 1, 10, 1)];
        let buffered = vec![committed_write(2, 2, 20, 1)];
        for record in &flushed {
            log.append(record);
        }
        log.flush();
        for record in &buffered {
            log.append(record);
        }
        assert!(repl.wait_quorum(flushed.len() as u64));
        // Wake the shipper a few more times: it must find nothing new.
        for _ in 0..5 {
            repl.wake_shippers();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            log.durable_len(),
            flushed.len(),
            "a reader moved the durable prefix"
        );
        assert_eq!(repl.replica(0).unwrap().log().read_back(), flushed);
        log.flush();
        assert!(repl.sync());
        let all: Vec<LogRecord> = flushed.into_iter().chain(buffered).collect();
        assert_eq!(repl.replica(0).unwrap().log().read_back(), all);
        repl.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ships_to_quorum_and_serves_follower_reads() {
        let log: Arc<dyn LogDevice> = Arc::new(MemLogDevice::new());
        let reg = metrics();
        let repl = ShardReplication::spawn(
            0,
            ReplicationConfig {
                replicas: 2,
                quorum: 2,
                ack_timeout_ms: 5_000,
            },
            Arc::clone(&log),
            4,
            &reg,
            None,
        )
        .unwrap();
        log.append(&committed_write(1, 5, 50, 1));
        log.flush();
        assert!(repl.sync(), "both replicas must ack before the batch acks");
        assert_eq!(repl.quorum_lsn(), log.durable_len() as u64);
        let values = repl
            .follower_read(
                0,
                &[Key::simple(TableId(1), 5), Key::simple(TableId(1), 6)],
                log.durable_len() as u64,
                Duration::from_secs(1),
            )
            .unwrap();
        assert_eq!(values, vec![Some(Value::Int(50)), None]);
        assert_eq!(
            reg.counter("replication.follower_reads").get(),
            2,
            "follower reads count keys"
        );
        assert!(reg.counter("replication.shipped_records").get() >= 2);
        repl.shutdown();
    }

    #[test]
    fn stale_follower_refuses_until_caught_up() {
        let log: Arc<dyn LogDevice> = Arc::new(MemLogDevice::new());
        let reg = metrics();
        let repl = ShardReplication::spawn(
            0,
            ReplicationConfig {
                replicas: 1,
                quorum: 1,
                ack_timeout_ms: 40,
            },
            Arc::clone(&log),
            4,
            &reg,
            None,
        )
        .unwrap();
        repl.set_paused(true);
        log.append(&committed_write(2, 8, 80, 1));
        log.flush();
        let want = log.durable_len() as u64;
        let refused = repl.follower_read(0, &[Key::simple(TableId(1), 8)], want, Duration::ZERO);
        assert_eq!(
            refused,
            Err(StaleFollower {
                applied: 0,
                required: want
            })
        );
        assert!(!repl.sync(), "paused shipping must time the quorum out");
        assert_eq!(reg.counter("replication.acks_timed_out").get(), 1);
        repl.set_paused(false);
        let values = repl
            .follower_read(
                0,
                &[Key::simple(TableId(1), 8)],
                want,
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(values, vec![Some(Value::Int(80))]);
        repl.shutdown();
    }

    #[test]
    fn hostile_lane_lags_but_converges() {
        let log: Arc<dyn LogDevice> = Arc::new(MemLogDevice::new());
        let reg = metrics();
        let plan = FaultPlan::hostile(0xfeed);
        let repl = ShardReplication::spawn(
            3,
            ReplicationConfig {
                replicas: 1,
                quorum: 1,
                ack_timeout_ms: 10_000,
            },
            Arc::clone(&log),
            4,
            &reg,
            Some(&plan),
        )
        .unwrap();
        for txn in 1..=20u64 {
            log.append(&committed_write(txn, txn, txn as i64, 1));
            log.flush();
        }
        assert!(repl.sync(), "drops and partitions cost lag, not loss");
        assert_eq!(repl.acked_lsn(0), log.durable_len() as u64);
        repl.shutdown();
    }

    #[test]
    fn promote_seals_shipped_epochs_and_recovers_acked_writes() {
        let log: Arc<dyn LogDevice> = Arc::new(MemLogDevice::new());
        let reg = metrics();
        let repl = ShardReplication::spawn(
            0,
            ReplicationConfig {
                replicas: 1,
                quorum: 1,
                ack_timeout_ms: 5_000,
            },
            Arc::clone(&log),
            4,
            &reg,
            None,
        )
        .unwrap();
        log.append(&committed_write(3, 11, 110, 4));
        log.flush();
        assert!(repl.sync());
        // The primary's device dies here; the follower log is the truth.
        let follower_log = repl.promote(0).unwrap();
        let (store, report) =
            recover_with_resolver(&follower_log.read_back(), MvStore::new(4), &|_| None);
        assert_eq!(report.recovered_txns, 1);
        assert_eq!(report.discarded_unsealed_epoch, 0, "promotion seals epochs");
        assert_eq!(
            store.read_visible(&Key::simple(TableId(1), 11), ReadSpec::LatestCommitted),
            Some(Value::Int(110))
        );
        // Rejoin: the old primary had an unreplicated (never-acked,
        // never-shipped) suffix — truncate it to the replicated length.
        log.append(&committed_write(9, 99, 990, 5));
        log.flush();
        let replicated = repl.replicated_len();
        assert!(truncate_divergent_suffix(log.as_ref(), replicated));
        assert_eq!(log.durable_len(), replicated);
        repl.shutdown();
    }
}
