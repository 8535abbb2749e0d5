//! TCP/loopback shard transport: per-shard server loops in front of the
//! worker pools, and a multiplexed frame client.
//!
//! ## Server
//!
//! A [`TcpShardServer`] runs on the crate's one loopback acceptor
//! (`wire::Acceptor`, which the replica of `replication.rs` runs on too):
//! it accepts any number of connections on `127.0.0.1:0`, registers each
//! so shutdown can close it, and forgets it when its handler returns. Each
//! connection gets a reader thread and a writer thread joined by an outbox
//! channel:
//!
//! * the reader decodes `(req_id, ShardRequest)` frames. Body-running
//!   requests (`Execute`, `Prepare`) go through the shard's batched
//!   mailbox with a reply sink that forwards into the outbox, so a
//!   blocking prepare never stalls the connection; decisions and admin
//!   ops are handled inline on the reader thread — the same
//!   "decisions never queue behind prepares" rule the mailbox enforces
//!   in process;
//! * the writer blocks for a reply, drains whatever else the outbox holds
//!   by then, and writes the whole burst of `(req_id, ShardResult)` frames
//!   — completion order — with one `write`.
//!
//! Both halves are built for small frames on `TCP_NODELAY` sockets
//! (`wire::tune`, applied at both ends): nothing ever waits in the kernel
//! for a Nagle/delayed-ACK timer, and the syscalls that would cost are
//! bought back by batching in user space — a burst of replies is one
//! `write`, and the readers pull a burst of frames in with one `read`
//! through a `wire::FrameReader`.
//!
//! A malformed frame (truncated, oversized, garbage) drops the connection;
//! the server itself stays up and keeps serving other connections.
//!
//! ## Client
//!
//! [`TcpTransport`] keeps one connection per shard. Requests are tagged
//! with a fresh id, registered in a pending map, and written (one frame,
//! one `write`) under a small send lock; a per-shard reader thread resolves
//! tickets as reply frames arrive. A lost connection fails every pending ticket with a clean
//! [`CcError::Unreachable`] (the waiting transactions abort) instead of
//! hanging them — and then the transport *re-dials*: the next submission
//! establishes a fresh connection (a new `Link` generation) under a
//! capped exponential backoff ([`ReconnectPolicy`]), so a restarted
//! [`TcpShardServer`] becomes reachable again without rebuilding the
//! transport. While the backoff window is closed, submissions fail fast
//! with a retryable `Unreachable` instead of dialing a dead address in a
//! tight loop. [`TcpTransport::set_shard_addr`] re-points one shard at a
//! new address (a server restarted on a different port).

use crate::api::{ShardRequest, ShardResult};
use crate::transport::ShardTransport;
use crate::wire;
use crate::worker::{ShardWorkers, Ticket};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use tebaldi_cc::CcError;
use tebaldi_core::Hlc;
use tebaldi_obs::{Counter, MetricsRegistry};

/// How long the server waits for a connection's admission budget to open
/// before giving up on the connection entirely. A client that keeps its
/// whole budget saturated this long is wedged or hostile; dropping the
/// connection fails its pending tickets cleanly and returns the budget,
/// instead of parking the reader forever.
const CONN_BUDGET_DEADLINE: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// One shard's RPC server loop.
pub struct TcpShardServer {
    acceptor: Arc<wire::Acceptor>,
}

impl TcpShardServer {
    /// Binds a loopback listener and starts accepting connections served
    /// by `workers`, each admitting at most `conn_inflight` (at least 1)
    /// body-running requests into the shard pipeline at once. A connection
    /// at its budget stops being *read* until one of its requests
    /// completes — kernel-level TCP backpressure — so one bursty (or
    /// hostile) client cannot monopolize the shard's submission queue and
    /// starve the others. Well-behaved clients bound themselves with the
    /// same window and never hit the server-side cap.
    pub fn spawn(
        shard_index: usize,
        workers: Arc<ShardWorkers>,
        conn_inflight: usize,
    ) -> std::io::Result<Arc<Self>> {
        let acceptor = wire::Acceptor::bind()?;
        acceptor.start(
            &format!("tebaldi-shard-{shard_index}-rpc"),
            move |stream, stopping| serve_connection(stream, &workers, conn_inflight, stopping),
        )?;
        Ok(Arc::new(TcpShardServer { acceptor }))
    }

    /// The bound loopback address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Stops accepting, closes every live connection, and joins the
    /// acceptor.
    pub fn shutdown(&self) {
        self.acceptor.shutdown();
    }
}

impl Drop for TcpShardServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reader half of one server connection. Returns (dropping the connection)
/// on the first I/O or protocol error.
fn serve_connection(
    stream: TcpStream,
    workers: &ShardWorkers,
    conn_inflight: usize,
    stopping: &AtomicBool,
) {
    let mut frames = match stream.try_clone() {
        Ok(clone) => wire::FrameReader::new(clone),
        Err(_) => return,
    };
    // Completion-order writer: jobs finish on worker threads and forward
    // their results here; the writer frames whatever has piled up into one
    // burst per `write`.
    let reply_clock = Arc::clone(workers.db().hlc());
    let (outbox, outbox_rx) = mpsc::channel::<(u64, ShardResult)>();
    let writer_handle = std::thread::spawn(move || {
        let mut stream = stream;
        write_replies(&outbox_rx, &mut stream, &reply_clock);
    });

    // This connection's share of the shard pipeline: body-running requests
    // currently admitted on its behalf. When the budget is exhausted the
    // reader stops pulling frames — the kernel socket buffer fills and the
    // peer blocks — so one connection's burst cannot crowd every other
    // client out of the submission queue. A well-behaved client bounds
    // itself with the same window client-side and never trips this.
    //
    // Known limitation of stop-reading backpressure: frames already behind
    // the throttled body frame in this connection's stream (including the
    // client's own phase-two decisions) are not decoded until the budget
    // opens. A budget-matched client never gets here; a client that wedges
    // its whole budget (e.g. bursting lock-blocked prepares whose decision
    // sits behind them) is dropped after `CONN_BUDGET_DEADLINE`, failing
    // its tickets cleanly — other connections are unaffected throughout.
    let admitted = Arc::new(InflightGate::new(conn_inflight, "connection".to_string()));

    // A clean close, I/O error, or oversized frame ends the loop and drops
    // the connection. Pending pipeline jobs still complete; their replies
    // are discarded when the outbox disconnects.
    while let Ok(Some(payload)) = frames.next_frame() {
        let (req_id, frame_hlc, request) = match wire::decode_request(payload) {
            Ok(decoded) => decoded,
            // Garbage frame: protocol error, drop the connection (the
            // client fails its pending tickets cleanly).
            Err(_) => break,
        };
        // Merge the sender's clock before dispatching: whatever the sender
        // had seen when it built this frame happens-before everything the
        // shard does on the frame's behalf.
        workers.db().hlc().observe(frame_hlc);
        if request.runs_body() {
            // Wait for budget in short slices so server shutdown stays
            // prompt even with a throttled connection parked here.
            let deadline = Instant::now() + CONN_BUDGET_DEADLINE;
            let admitted_ok = loop {
                if stopping.load(Ordering::SeqCst) {
                    break false;
                }
                if admitted.acquire(Duration::from_millis(50)).is_ok() {
                    break true;
                }
                if Instant::now() >= deadline {
                    break false;
                }
            };
            if !admitted_ok {
                break;
            }
            let outbox = outbox.clone();
            let admitted = Arc::clone(&admitted);
            workers.submit_request(
                request,
                Box::new(move |result| {
                    admitted.release();
                    let _ = outbox.send((req_id, result));
                }),
            );
        } else {
            // Decisions/admin inline on the reader thread — never queued
            // behind blocking prepares and never counted against the
            // admission budget.
            let result = workers.handle_inline(request);
            let _ = outbox.send((req_id, result));
        }
    }
    // Actively shut the socket down: the server's shutdown list holds
    // another clone of this stream, so merely dropping ours would never
    // send FIN and the peer would block forever.
    let _ = frames.get_ref().shutdown(std::net::Shutdown::Both);
    drop(outbox);
    let _ = writer_handle.join();
}

/// Upper bound on one reply burst: past this the writer stops draining and
/// writes, so a flood of completions cannot grow the buffer without bound.
const REPLY_BURST_BYTES: usize = 64 << 10;

/// Writer half of one server connection: blocks for a reply, then drains
/// everything else the outbox already holds into the same buffer and puts
/// the burst on the wire with one `write` — with `TCP_NODELAY` set, one
/// syscall and one segment per burst instead of per reply. Every reply
/// frame carries the shard's current HLC reading, so the client's clock
/// converges on the shard's within one reply delay. Returns when the outbox
/// disconnects or the peer stops taking bytes.
fn write_replies(outbox: &mpsc::Receiver<(u64, ShardResult)>, out: &mut impl Write, clock: &Hlc) {
    let mut burst = Vec::new();
    while let Ok((req_id, result)) = outbox.recv() {
        burst.clear();
        wire::append_result_frame(&mut burst, req_id, clock.last(), &result);
        while burst.len() < REPLY_BURST_BYTES {
            let Ok((req_id, result)) = outbox.try_recv() else {
                break;
            };
            wire::append_result_frame(&mut burst, req_id, clock.last(), &result);
        }
        if out.write_all(&burst).is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Pending entry: the reply sender plus whether the request counted
/// against the connection's in-flight window (body-running requests do;
/// decisions and admin ops bypass it — backpressuring a phase-two decision
/// behind queued prepares would stretch the prepared-lock window).
type PendingMap = Arc<Mutex<Option<HashMap<u64, (mpsc::Sender<ShardResult>, bool)>>>>;

/// Bound on concurrently admitted body-running requests, used on both
/// sides of a connection: the client gates its outstanding submissions per
/// shard (the transport's backpressure), the server gates each
/// connection's share of the shard pipeline. Acquire blocks (bounded by
/// the given wait) while the window is full and fails fast once the gate
/// is closed.
struct InflightGate {
    /// Slots in the window; at least 1.
    limit: usize,
    /// Who the gate protects, for error messages ("shard 3", "connection").
    label: String,
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    inflight: usize,
    closed: bool,
}

impl InflightGate {
    fn new(limit: usize, label: String) -> Self {
        InflightGate {
            limit: limit.max(1),
            label,
            state: Mutex::new(GateState {
                inflight: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Takes one window slot, waiting at most `timeout` for one to open.
    fn acquire(&self, timeout: Duration) -> Result<(), CcError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock();
        loop {
            if state.closed {
                // The connection died while this submission waited for a
                // slot: the request was never written, so a retry is safe.
                return Err(CcError::unreachable(self.label.clone(), false));
            }
            if state.inflight < self.limit {
                state.inflight += 1;
                return Ok(());
            }
            if self.cv.wait_until(&mut state, deadline).timed_out() {
                // The pipeline stayed full for the whole wait: it is
                // wedged or hopelessly backlogged. Failing here keeps the
                // prepare-timeout promise for requests that never even
                // reached the wire.
                return Err(CcError::Internal(format!(
                    "{}'s in-flight window stayed full past the timeout",
                    self.label
                )));
            }
        }
    }

    fn release(&self) {
        let mut state = self.state.lock();
        state.inflight = state.inflight.saturating_sub(1);
        drop(state);
        self.cv.notify_one();
    }

    /// Marks the connection dead: waiters fail immediately instead of
    /// sitting out the timeout on slots that can never free up.
    fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        drop(state);
        self.cv.notify_all();
    }
}

/// How a [`TcpTransport`] re-dials a shard whose connection died: the
/// first re-dial happens immediately (a clean server restart should be
/// invisible beyond the tickets that were in flight), and each consecutive
/// *failed* dial doubles the wait before the next attempt, capped at
/// `max`. While the backoff window is closed, submissions fail fast with a
/// retryable [`CcError::Unreachable`] instead of hammering a dead address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Delay after the first failed dial; doubles per consecutive failure.
    pub base: Duration,
    /// Upper bound on the delay.
    pub max: Duration,
}

impl ReconnectPolicy {
    /// A policy with the given base and cap.
    pub const fn new(base: Duration, max: Duration) -> Self {
        ReconnectPolicy { base, max }
    }

    /// How long to wait after `failures` consecutive failed dials
    /// (`failures` >= 1): `base * 2^(failures-1)`, capped at `max`.
    fn delay_after(&self, failures: u32) -> Duration {
        let exp = failures.saturating_sub(1).min(16);
        self.base.saturating_mul(1u32 << exp).min(self.max)
    }
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            base: Duration::from_millis(20),
            max: Duration::from_secs(1),
        }
    }
}

/// One connection generation to a shard. A died link is retired whole —
/// pending map, window gate, reader thread — and the next submission
/// dials a fresh one, so late frames from an old generation can never
/// resolve tickets of a new one.
struct Link {
    /// Write half, serialized by a lock (frames are small and atomic).
    writer: Mutex<TcpStream>,
    pending: PendingMap,
    gate: Arc<InflightGate>,
    reader_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Link {
    /// Tears the link down: closes the socket (unblocking the reader,
    /// which fails the pending tickets) and the window gate.
    fn retire(&self) {
        self.gate.close();
        let _ = self.writer.lock().shutdown(std::net::Shutdown::Both);
    }
}

/// Per-shard connection state: the live link (if any) plus the re-dial
/// bookkeeping.
struct LinkState {
    addr: SocketAddr,
    live: Option<Arc<Link>>,
    /// Consecutive failed dials since the last success.
    failures: u32,
    /// Earliest instant the next dial may be attempted (`None` = now).
    next_attempt: Option<Instant>,
}

struct ShardConn {
    shard: usize,
    /// Client-side in-flight window limit for each link.
    window: usize,
    state: Mutex<LinkState>,
    /// Request ids stay unique across link generations (diagnostics only;
    /// correctness needs uniqueness per link, which this also gives).
    next_id: AtomicU64,
}

/// The `transport.*` counters, shared between connections: request
/// messages sent, frame bytes moved in either direction, and successful
/// re-dials after a lost connection.
struct WireCounters {
    messages_sent: Arc<Counter>,
    bytes_on_wire: Arc<Counter>,
    reconnects: Arc<Counter>,
}

/// Dials `addr` and spawns the reader thread that resolves this link's
/// tickets. On connection loss the reader fails every pending ticket with
/// [`CcError::Unreachable`] (`maybe_delivered = true`: the request reached
/// the wire, its *reply* is what was lost) and closes the window gate.
fn dial(
    shard: usize,
    addr: SocketAddr,
    window: usize,
    counters: Arc<WireCounters>,
    clock: Arc<Hlc>,
) -> std::io::Result<Arc<Link>> {
    let stream = TcpStream::connect(addr)?;
    wire::tune(&stream);
    let reader_stream = stream.try_clone()?;
    let pending: PendingMap = Arc::new(Mutex::new(Some(HashMap::new())));
    let gate = Arc::new(InflightGate::new(window, format!("shard {shard}")));
    let link = Arc::new(Link {
        writer: Mutex::new(stream),
        pending: Arc::clone(&pending),
        gate: Arc::clone(&gate),
        reader_thread: Mutex::new(None),
    });
    let handle = std::thread::Builder::new()
        .name(format!("tebaldi-rpc-client-shard-{shard}"))
        .spawn(move || {
            let mut frames = wire::FrameReader::new(reader_stream);
            while let Ok(Some(payload)) = frames.next_frame() {
                counters.bytes_on_wire.add(payload.len() as u64 + 4);
                let Ok((req_id, frame_hlc, result)) = wire::decode_result(payload) else {
                    // Garbage reply: the stream is no longer trustworthy.
                    break;
                };
                // Merge the shard's clock: whatever the shard committed
                // before building this reply is now below the client's
                // clock reading.
                clock.observe(frame_hlc);
                let entry = pending.lock().as_mut().and_then(|map| map.remove(&req_id));
                if let Some((sender, windowed)) = entry {
                    if windowed {
                        gate.release();
                    }
                    let _ = sender.send(result);
                }
            }
            // Connection lost: fail every pending ticket with an explicit
            // shard-unreachable error — the request was written, so it
            // *may* have executed; only its reply is known lost — then
            // reject future submissions on this link and release the
            // window waiters so they fail fast too.
            if let Some(map) = pending.lock().take() {
                for (_, (sender, _)) in map {
                    let _ = sender.send(Err(CcError::unreachable(format!("shard {shard}"), true)));
                }
            }
            gate.close();
        })?;
    *link.reader_thread.lock() = Some(handle);
    Ok(link)
}

/// The frame client: one multiplexed connection per shard, re-dialed
/// under [`ReconnectPolicy`] when it dies.
pub struct TcpTransport {
    conns: Vec<Arc<ShardConn>>,
    counters: Arc<WireCounters>,
    /// The client-side hybrid logical clock: stamped onto every request
    /// frame and merged from every reply frame, so it tracks the highest
    /// clock of every shard this transport talks to (within one message
    /// delay). The cluster layer shares this instance for drawing snapshot
    /// timestamps.
    clock: Arc<Hlc>,
    /// How long a submission may wait for the in-flight window.
    window_wait: Duration,
    /// Backoff applied to re-dials after a lost connection.
    policy: ReconnectPolicy,
    /// The per-shard servers, when this transport owns them (the default
    /// loopback deployment). Kept so shutdown tears both halves down.
    servers: Vec<Arc<TcpShardServer>>,
    stopping: AtomicBool,
}

impl TcpTransport {
    /// Spawns a loopback server in front of every worker pool and connects
    /// to each — the single-process deployment of the wire protocol — with
    /// at most `window` (at least 1) body-running requests outstanding per
    /// shard connection, waiting at most `window_wait` for a slot before
    /// failing the submission (a full pipeline on a wedged shard must not
    /// turn into an unbounded head-of-line hang). The same bound is
    /// installed server-side as each connection's admission budget. The
    /// `transport.*` counters go into `metrics`.
    pub fn over_loopback(
        shards: &[Arc<ShardWorkers>],
        window: usize,
        window_wait: Duration,
        metrics: &MetricsRegistry,
    ) -> Result<Self, String> {
        let mut servers = Vec::with_capacity(shards.len());
        for (index, workers) in shards.iter().enumerate() {
            servers.push(
                TcpShardServer::spawn(index, Arc::clone(workers), window)
                    .map_err(|err| format!("shard {index} rpc server: {err}"))?,
            );
        }
        let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.addr()).collect();
        let mut transport = TcpTransport::connect(&addrs, window, window_wait, metrics)?;
        transport.servers = servers;
        Ok(transport)
    }

    /// Connects to already-running shard servers (which may live in other
    /// processes; this client does not own them), with the in-flight
    /// window of [`over_loopback`](TcpTransport::over_loopback), counting
    /// `transport.*` into `metrics`.
    pub fn connect(
        addrs: &[SocketAddr],
        window: usize,
        window_wait: Duration,
        metrics: &MetricsRegistry,
    ) -> Result<Self, String> {
        let counters = Arc::new(WireCounters {
            messages_sent: metrics.counter("transport.messages_sent"),
            bytes_on_wire: metrics.counter("transport.bytes_on_wire"),
            reconnects: metrics.counter("transport.reconnects"),
        });
        let clock = Arc::new(Hlc::new());
        let mut conns = Vec::with_capacity(addrs.len());
        for (shard, addr) in addrs.iter().enumerate() {
            let link = dial(
                shard,
                *addr,
                window,
                Arc::clone(&counters),
                Arc::clone(&clock),
            )
            .map_err(|err| format!("connect to shard {shard} at {addr}: {err}"))?;
            conns.push(Arc::new(ShardConn {
                shard,
                window,
                state: Mutex::new(LinkState {
                    addr: *addr,
                    live: Some(link),
                    failures: 0,
                    next_attempt: None,
                }),
                next_id: AtomicU64::new(1),
            }));
        }
        Ok(TcpTransport {
            conns,
            counters,
            clock,
            window_wait,
            policy: ReconnectPolicy::default(),
            servers: Vec::new(),
            stopping: AtomicBool::new(false),
        })
    }

    /// Replaces the re-dial backoff policy (builder-style, before the
    /// transport is shared).
    pub fn set_reconnect_policy(&mut self, policy: ReconnectPolicy) {
        self.policy = policy;
    }

    /// The transport's hybrid logical clock — stamped onto request frames,
    /// merged from reply frames. The cluster layer shares this instance so
    /// snapshot timestamps it draws track every shard it has heard from.
    pub fn clock(&self) -> &Arc<Hlc> {
        &self.clock
    }

    /// Re-points `shard` at a new address — a shard server restarted on a
    /// different port — retiring the current link (its pending tickets
    /// fail as unreachable) and clearing the backoff so the next
    /// submission dials the new address immediately.
    pub fn set_shard_addr(&self, shard: usize, addr: SocketAddr) {
        let Some(conn) = self.conns.get(shard) else {
            return;
        };
        let retired = {
            let mut state = conn.state.lock();
            state.addr = addr;
            state.failures = 0;
            state.next_attempt = None;
            state.live.take()
        };
        if let Some(link) = retired {
            link.retire();
        }
    }

    /// Returns `shard`'s live link, re-dialing within the backoff policy
    /// when the previous connection died. Fails fast with a retryable
    /// [`CcError::Unreachable`] while the backoff window is closed or the
    /// dial fails.
    fn live_link(&self, conn: &ShardConn) -> Result<Arc<Link>, CcError> {
        let mut state = conn.state.lock();
        if let Some(link) = &state.live {
            // A link whose reader died has its pending map taken; detect
            // that here so this submission re-dials instead of queueing on
            // a corpse.
            if link.pending.lock().is_some() {
                return Ok(Arc::clone(link));
            }
            let dead = Arc::clone(link);
            state.live = None;
            dead.retire();
        }
        if self.stopping.load(Ordering::SeqCst) {
            return Err(CcError::unreachable(
                format!("shard {} (transport shut down)", conn.shard),
                false,
            ));
        }
        let now = Instant::now();
        if let Some(at) = state.next_attempt {
            if now < at {
                return Err(CcError::unreachable(
                    format!("shard {} (reconnect backoff)", conn.shard),
                    false,
                ));
            }
        }
        match dial(
            conn.shard,
            state.addr,
            conn.window,
            Arc::clone(&self.counters),
            Arc::clone(&self.clock),
        ) {
            Ok(link) => {
                state.live = Some(Arc::clone(&link));
                state.failures = 0;
                state.next_attempt = None;
                self.counters.reconnects.inc();
                Ok(link)
            }
            Err(err) => {
                state.failures += 1;
                state.next_attempt = Some(now + self.policy.delay_after(state.failures));
                Err(CcError::unreachable(
                    format!("shard {} ({err})", conn.shard),
                    false,
                ))
            }
        }
    }

    /// Retires `link` after a send failure: closes it (failing its other
    /// pending tickets) and clears it from the shard's state so the next
    /// submission re-dials.
    fn retire_link(&self, conn: &ShardConn, link: &Arc<Link>) {
        {
            let mut state = conn.state.lock();
            if state
                .live
                .as_ref()
                .is_some_and(|live| Arc::ptr_eq(live, link))
            {
                state.live = None;
            }
        }
        link.retire();
    }
}

impl ShardTransport for TcpTransport {
    fn shard_count(&self) -> usize {
        self.conns.len()
    }

    fn supports_repoint(&self) -> bool {
        true
    }

    fn repoint(&self, shard: usize, addr: SocketAddr) -> bool {
        if shard >= self.conns.len() {
            return false;
        }
        self.set_shard_addr(shard, addr);
        true
    }

    fn submit(&self, shard: usize, request: ShardRequest) -> Ticket<ShardResult> {
        let Some(conn) = self.conns.get(shard) else {
            return Ticket::ready(Err(CcError::Internal(format!(
                "request targets shard {shard}, but the transport reaches {}",
                self.conns.len()
            ))));
        };
        // A live link, re-dialed if the previous one died (bounded by the
        // backoff policy — within the window this fails fast).
        let link = match self.live_link(conn) {
            Ok(link) => link,
            Err(err) => return Ticket::ready(Err(err)),
        };
        // Backpressure: body-running requests take a window slot (released
        // when their reply lands). Decisions and admin ops bypass the
        // window — stalling a phase-two decision behind queued prepares
        // would stretch every prepared participant's lock window.
        let windowed = request.runs_body();
        if windowed {
            if let Err(err) = link.gate.acquire(self.window_wait) {
                return Ticket::ready(Err(err));
            }
        }
        let req_id = conn.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, ticket) = Ticket::pending();
        {
            let mut pending = link.pending.lock();
            match pending.as_mut() {
                Some(map) => {
                    map.insert(req_id, (tx, windowed));
                }
                None => {
                    if windowed {
                        link.gate.release();
                    }
                    // The link died between lookup and registration: the
                    // request was never written, retry is safe.
                    return Ticket::ready(Err(CcError::unreachable(
                        format!("shard {shard}"),
                        false,
                    )));
                }
            }
        }
        let mut frame = Vec::with_capacity(128);
        wire::append_request_frame(&mut frame, req_id, self.clock.last(), &request);
        let written = link.writer.lock().write_all(&frame);
        match written {
            Ok(()) => {
                self.counters.messages_sent.inc();
                self.counters.bytes_on_wire.add(frame.len() as u64);
                ticket
            }
            Err(err) => {
                if let Some(map) = link.pending.lock().as_mut() {
                    map.remove(&req_id);
                }
                if windowed {
                    link.gate.release();
                }
                self.retire_link(conn, &link);
                // A failed or partial write never decodes server-side (the
                // length-prefixed frame is incomplete, which drops the
                // connection), so the request provably did not execute.
                Ticket::ready(Err(CcError::unreachable(
                    format!("shard {shard} ({err})"),
                    false,
                )))
            }
        }
    }

    fn shutdown(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        for conn in &self.conns {
            let link = conn.state.lock().live.take();
            if let Some(link) = link {
                // Close the gate first so no submitter sits out its full
                // window wait against a transport that is going away.
                link.retire();
                if let Some(handle) = link.reader_thread.lock().take() {
                    let _ = handle.join();
                }
            }
        }
        for server in &self.servers {
            server.shutdown();
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        ShardTransport::shutdown(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tebaldi_cc::{AccessMode, CcKind, CcTreeSpec, ProcedureInfo, ProcedureSet};
    use tebaldi_core::{Database, DbConfig, ProcId, ProcRegistry, ProcedureCall};
    use tebaldi_storage::{Key, TableId, TxnTypeId, Value};

    const TABLE: TableId = TableId(0);
    const TY: TxnTypeId = TxnTypeId(0);
    const BUMP: ProcId = ProcId(1);
    /// In-flight window used on every side of these tests.
    const WINDOW: usize = 8;
    const WINDOW_WAIT: Duration = Duration::from_secs(10);

    fn pool() -> Arc<ShardWorkers> {
        let mut procedures = ProcedureSet::new();
        procedures.insert(ProcedureInfo::new(
            TY,
            "bump",
            vec![(TABLE, AccessMode::Write)],
        ));
        let db = Arc::new(
            Database::builder(DbConfig::for_tests())
                .procedures(procedures)
                .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TY]))
                .build()
                .unwrap(),
        );
        db.load(Key::simple(TABLE, 1), Value::Int(0));
        let mut reg = ProcRegistry::new();
        reg.register_fn(BUMP, |txn, _args| {
            txn.increment(Key::simple(TABLE, 1), 0, 1).map(Value::Int)
        });
        ShardWorkers::spawn(0, db, 2, Arc::new(reg), WINDOW, None)
    }

    fn execute() -> ShardRequest {
        ShardRequest::Execute {
            proc: BUMP,
            call: ProcedureCall::new(TY),
            args: Vec::new(),
            max_attempts: 10,
            trace: tebaldi_obs::TraceCtx::NONE,
        }
    }

    #[test]
    fn loopback_roundtrip_counts_wire_traffic() {
        let workers = pool();
        let metrics = MetricsRegistry::new();
        let transport =
            TcpTransport::over_loopback(&[Arc::clone(&workers)], WINDOW, WINDOW_WAIT, &metrics)
                .unwrap();
        let (value, _) = transport
            .call(0, execute())
            .unwrap()
            .into_executed()
            .unwrap();
        assert_eq!(value, Value::Int(1));
        let ticket = transport.submit(0, execute());
        ticket.wait().unwrap().unwrap();
        assert_eq!(metrics.counter("transport.messages_sent").get(), 2);
        assert!(metrics.counter("transport.bytes_on_wire").get() > 0);
        ShardTransport::shutdown(&transport);
        workers.shutdown();
    }

    /// Records every `write` call it receives.
    #[derive(Default)]
    struct RecordingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn queued_replies_leave_in_one_write() {
        let clock = Hlc::new();
        let (outbox, outbox_rx) = mpsc::channel::<(u64, ShardResult)>();
        // Eight replies pile up before the writer gets to run.
        for id in 0..8u64 {
            let reply = if id % 2 == 0 {
                Ok(crate::api::ShardResponse::Executed {
                    value: Value::Int(id as i64),
                    aborts: 0,
                })
            } else {
                Err(CcError::Requested)
            };
            outbox.send((id, reply)).unwrap();
        }
        drop(outbox);
        let mut out = RecordingWriter::default();
        write_replies(&outbox_rx, &mut out, &clock);
        assert_eq!(out.writes.len(), 1, "one burst, one write");
        let mut frames = wire::FrameReader::new(std::io::Cursor::new(&out.writes[0]));
        for id in 0..8u64 {
            let payload = frames.next_frame().unwrap().expect("a reply frame");
            let (req_id, _hlc, result) = wire::decode_result(payload).unwrap();
            assert_eq!(req_id, id);
            assert_eq!(result.is_ok(), id % 2 == 0);
        }
        assert!(frames.next_frame().unwrap().is_none());
    }

    #[test]
    fn a_reply_flood_is_cut_into_bounded_bursts() {
        let clock = Hlc::new();
        let (outbox, outbox_rx) = mpsc::channel::<(u64, ShardResult)>();
        let big = vec![0x42u8; REPLY_BURST_BYTES / 4];
        for id in 0..16u64 {
            let value = Value::Bytes(big.clone().into());
            let reply = crate::api::ShardResponse::Executed { value, aborts: 0 };
            outbox.send((id, Ok(reply))).unwrap();
        }
        drop(outbox);
        let mut out = RecordingWriter::default();
        write_replies(&outbox_rx, &mut out, &clock);
        assert!(out.writes.len() > 1, "sixteen quarter-bursts need several");
        // A burst stops growing once it passes the bound: at most one
        // reply over it.
        let limit = REPLY_BURST_BYTES + big.len() + 64;
        assert!(out.writes.iter().all(|w| w.len() <= limit));
        let stream: Vec<u8> = out.writes.concat();
        let mut frames = wire::FrameReader::new(std::io::Cursor::new(stream));
        for id in 0..16u64 {
            let payload = frames.next_frame().unwrap().expect("a reply frame");
            assert_eq!(wire::decode_result(payload).unwrap().0, id);
        }
    }

    #[test]
    fn garbage_frame_drops_connection_but_server_survives() {
        let workers = pool();
        let server = TcpShardServer::spawn(0, Arc::clone(&workers), WINDOW).unwrap();

        // A hostile client: raw garbage bytes.
        {
            let mut raw = TcpStream::connect(server.addr()).unwrap();
            // A plausible length prefix followed by garbage payload.
            let mut frame = (8u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04]);
            raw.write_all(&frame).unwrap();
            raw.flush().unwrap();
            // The server must close the connection (clean EOF or reset),
            // not panic or answer.
            assert!(!matches!(wire::read_frame(&mut raw), Ok(Some(_))));
        }

        // An oversized frame announcement is also rejected.
        {
            let mut raw = TcpStream::connect(server.addr()).unwrap();
            raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
            raw.flush().unwrap();
            assert!(!matches!(wire::read_frame(&mut raw), Ok(Some(_))));
        }

        // A well-formed client still gets served afterwards.
        let transport = TcpTransport::connect(
            &[server.addr()],
            WINDOW,
            WINDOW_WAIT,
            &MetricsRegistry::new(),
        )
        .unwrap();
        let (value, _) = transport
            .call(0, execute())
            .unwrap()
            .into_executed()
            .unwrap();
        assert_eq!(value, Value::Int(1));
        ShardTransport::shutdown(&transport);
        server.shutdown();
        workers.shutdown();
    }

    #[test]
    fn lost_connection_fails_pending_tickets_cleanly() {
        let workers = pool();
        let server = TcpShardServer::spawn(0, Arc::clone(&workers), WINDOW).unwrap();
        let transport = TcpTransport::connect(
            &[server.addr()],
            WINDOW,
            WINDOW_WAIT,
            &MetricsRegistry::new(),
        )
        .unwrap();
        // Kill the server, then submit: either the send fails or the
        // pending ticket resolves with a shard-unreachable error — never a
        // hang, and never a generic internal error a retry loop cannot
        // classify.
        server.shutdown();
        let ticket = transport.submit(0, execute());
        let outcome = ticket.wait_timeout(std::time::Duration::from_secs(5));
        match outcome {
            Ok(Err(err)) => assert!(err.is_unreachable(), "classifiable error, got {err}"),
            Ok(Ok(_)) => panic!("request cannot succeed on a dead server"),
            Err(err) => assert!(err.is_unreachable(), "classifiable error, got {err}"),
        }
        ShardTransport::shutdown(&transport);
        workers.shutdown();
    }

    #[test]
    fn reconnects_to_restarted_server_without_rebuilding() {
        let workers = pool();
        let server = TcpShardServer::spawn(0, Arc::clone(&workers), WINDOW).unwrap();
        let metrics = MetricsRegistry::new();
        let mut transport =
            TcpTransport::connect(&[server.addr()], WINDOW, WINDOW_WAIT, &metrics).unwrap();
        transport.set_reconnect_policy(ReconnectPolicy::new(
            Duration::from_millis(5),
            Duration::from_millis(50),
        ));
        let (value, _) = transport
            .call(0, execute())
            .unwrap()
            .into_executed()
            .unwrap();
        assert_eq!(value, Value::Int(1));

        // Kill the server. Requests fail as unreachable (never hang)...
        server.shutdown();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match transport.submit(0, execute()).wait() {
                Ok(Err(err)) if err.is_unreachable() => break,
                Err(err) if err.is_unreachable() => break,
                Ok(Err(err)) | Err(err) => panic!("expected unreachable, got {err}"),
                Ok(Ok(_)) => assert!(
                    Instant::now() < deadline,
                    "server gone, requests must start failing"
                ),
            }
        }

        // ...until a replacement comes up (a fresh port: loopback binds to
        // port 0) and the transport is re-pointed at it. Traffic resumes
        // on the same transport — no rebuild.
        let restarted = TcpShardServer::spawn(0, Arc::clone(&workers), WINDOW).unwrap();
        transport.set_shard_addr(0, restarted.addr());
        let deadline = Instant::now() + Duration::from_secs(10);
        let value = loop {
            match transport.call(0, execute()) {
                Ok(response) => break response.into_executed().unwrap().0,
                Err(err) => {
                    assert!(
                        err.is_unreachable(),
                        "only unreachable during re-dial: {err}"
                    );
                    assert!(Instant::now() < deadline, "reconnect must succeed");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        };
        assert_eq!(value, Value::Int(2));
        assert!(
            metrics.counter("transport.reconnects").get() >= 1,
            "the re-dial must be counted"
        );
        ShardTransport::shutdown(&transport);
        restarted.shutdown();
        workers.shutdown();
    }

    #[test]
    fn backoff_fails_fast_while_the_window_is_closed() {
        let workers = pool();
        let server = TcpShardServer::spawn(0, Arc::clone(&workers), WINDOW).unwrap();
        let mut transport = TcpTransport::connect(
            &[server.addr()],
            WINDOW,
            WINDOW_WAIT,
            &MetricsRegistry::new(),
        )
        .unwrap();
        transport.set_reconnect_policy(ReconnectPolicy::new(
            Duration::from_secs(60),
            Duration::from_secs(60),
        ));
        server.shutdown();
        // Exhaust the live link, then force one failed dial to open the
        // (deliberately huge) backoff window.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut failures = 0;
        while failures < 2 {
            match transport.submit(0, execute()).wait() {
                Ok(Err(_)) | Err(_) => failures += 1,
                Ok(Ok(_)) => {
                    assert!(Instant::now() < deadline, "dead server must fail requests");
                }
            }
        }
        // Now every submission fails fast without touching the network.
        let started = Instant::now();
        for _ in 0..100 {
            let err = match transport.submit(0, execute()).wait() {
                Ok(Err(err)) | Err(err) => err,
                Ok(Ok(_)) => panic!("no server to answer"),
            };
            assert!(err.is_unreachable());
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "backoff submissions must fail fast, took {:?}",
            started.elapsed()
        );
        ShardTransport::shutdown(&transport);
        workers.shutdown();
    }
}
