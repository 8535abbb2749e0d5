//! Per-transaction distributed traces.
//!
//! A [`TraceCtx`] is a single `u64` trace id allocated at the coordinator
//! and propagated with every shard request (`0` means *unsampled* — every
//! recording call bails on the first branch, which is what keeps default
//! sampling cheap). Each layer that touches a sampled transaction records
//! [`SpanRecord`]s — coordinator phases, shard queue wait, body execution,
//! hardening — into a process-global sink of bounded, striped ring
//! buffers. Nothing is ever allocated per span beyond the ring slot, and
//! span names/statuses are `&'static str` (mechanism strings from
//! `CcError::mechanism` qualify).
//!
//! The sink is per-process: in the loopback TCP deployment coordinator and
//! shards share it, so [`collect`] reassembles a full end-to-end trace. In
//! a genuinely multi-process deployment each process holds its own spans
//! for the shared trace id, ready for an external collector.
//!
//! A *slow-transaction threshold* can be armed ([`set_slow_threshold_ns`]):
//! when a finished transaction's wall time crosses it, the full structured
//! trace is copied into a small bounded dump buffer
//! ([`take_slow_traces`]), so a latency outlier leaves evidence even after
//! the ring has wrapped.

use parking_lot::Mutex;
use serde::Json;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Bits of a trace id reserved for the sequence number; the bits above
/// carry the *scope* tag (a per-cluster id). The sink is process-global,
/// so two clusters in one process share its rings; the scope in the id's
/// high bits keeps their traces distinguishable — ids never collide across
/// scopes, per-scope slow thresholds don't fight, and a scoped drain only
/// takes its own dumps — without widening the wire format (the id is still
/// one `u64`).
pub const TRACE_SCOPE_SHIFT: u32 = 40;

/// Builds a trace id carrying `scope` in its high bits. `seq` must be
/// nonzero (0 means unsampled) and wraps within 2^40 ids per scope.
#[inline]
pub fn scoped_trace_id(scope: u64, seq: u64) -> u64 {
    (scope << TRACE_SCOPE_SHIFT) | (seq & ((1u64 << TRACE_SCOPE_SHIFT) - 1))
}

/// The scope tag embedded in a trace id's high bits (0 = unscoped).
#[inline]
pub fn trace_scope_of(trace_id: u64) -> u64 {
    trace_id >> TRACE_SCOPE_SHIFT
}

/// Spans each ring-buffer stripe retains before evicting the oldest.
const RING_CAPACITY: usize = 4096;
/// Ring-buffer stripes (threads hash onto one, like histogram stripes).
const STRIPES: usize = 4;
/// Bounded backlog of slow-transaction dumps.
const SLOW_TRACE_CAPACITY: usize = 64;

/// The trace context carried by a shard request: just the trace id.
/// `0` = unsampled (the common case; recording is a no-op).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Cluster-wide trace id, `0` when the transaction is not sampled.
    pub trace_id: u64,
}

impl TraceCtx {
    /// The unsampled context.
    pub const NONE: TraceCtx = TraceCtx { trace_id: 0 };

    /// A sampled context with the given id.
    pub fn sampled(trace_id: u64) -> TraceCtx {
        TraceCtx { trace_id }
    }

    /// Whether spans should be recorded for this transaction.
    #[inline]
    pub fn is_sampled(&self) -> bool {
        self.trace_id != 0
    }
}

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// Static span name (e.g. `"coord.prepare_fanout"`, `"shard.execute"`).
    pub name: &'static str,
    /// Shard index, or `-1` for coordinator-side spans.
    pub shard: i32,
    /// Span start, nanoseconds on the process trace clock ([`now_ns`]).
    pub start_ns: u64,
    /// Span end, same clock.
    pub end_ns: u64,
    /// Outcome tag: `"ok"`, the failure's `CcError::mechanism()` (the name
    /// its abort is counted under), `"timeout"`, `"abort"`, …
    pub status: &'static str,
}

impl SpanRecord {
    /// JSON form of the span (for slow-trace dumps and test tooling).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("trace_id".to_string(), Json::U(self.trace_id as u128)),
            ("name".to_string(), Json::Str(self.name.to_string())),
            ("shard".to_string(), serde::Serialize::to_json(&self.shard)),
            ("start_ns".to_string(), Json::U(self.start_ns as u128)),
            ("end_ns".to_string(), Json::U(self.end_ns as u128)),
            ("status".to_string(), Json::Str(self.status.to_string())),
        ])
    }
}

/// A dumped slow transaction: its id, total wall time, and full trace.
#[derive(Clone, Debug)]
pub struct SlowTrace {
    /// The transaction's trace id.
    pub trace_id: u64,
    /// End-to-end wall time that crossed the threshold.
    pub total_ns: u64,
    /// Every span recorded for the trace, ascending by start.
    pub spans: Vec<SpanRecord>,
}

impl SlowTrace {
    /// JSON form of the dump.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("trace_id".to_string(), Json::U(self.trace_id as u128)),
            ("total_ns".to_string(), Json::U(self.total_ns as u128)),
            (
                "spans".to_string(),
                Json::Arr(self.spans.iter().map(SpanRecord::to_json).collect()),
            ),
        ])
    }
}

struct TraceSink {
    stripes: Vec<Mutex<VecDeque<SpanRecord>>>,
    /// Spans evicted from full rings (visibility into ring pressure).
    dropped: AtomicU64,
    /// Slow-transaction threshold; 0 disarms the dump. The unscoped
    /// (process-wide) default, used for traces whose scope has no entry in
    /// `scoped_thresholds`.
    slow_threshold_ns: AtomicU64,
    /// Per-scope slow thresholds, so concurrent clusters in one process
    /// arm their own limits instead of overwriting each other's.
    scoped_thresholds: Mutex<HashMap<u64, u64>>,
    slow_traces: Mutex<VecDeque<SlowTrace>>,
}

fn sink() -> &'static TraceSink {
    static SINK: OnceLock<TraceSink> = OnceLock::new();
    SINK.get_or_init(|| TraceSink {
        stripes: (0..STRIPES)
            .map(|_| Mutex::new(VecDeque::with_capacity(RING_CAPACITY)))
            .collect(),
        dropped: AtomicU64::new(0),
        slow_threshold_ns: AtomicU64::new(0),
        scoped_thresholds: Mutex::new(HashMap::new()),
        slow_traces: Mutex::new(VecDeque::new()),
    })
}

/// Nanoseconds on the process-wide trace clock (anchored at first use).
/// All spans in one process share this clock, so their intervals are
/// directly comparable.
#[inline]
pub fn now_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    let anchor = ANCHOR.get_or_init(Instant::now);
    u64::try_from(anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The stripe this thread records into (round-robin at first use).
#[inline]
fn stripe_id() -> usize {
    use std::cell::Cell;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|cell| {
        let mut id = cell.get();
        if id == usize::MAX {
            id = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
            cell.set(id);
        }
        id
    })
}

/// Records one span; a no-op for the unsampled context.
#[inline]
pub fn record_span(
    ctx: TraceCtx,
    name: &'static str,
    shard: i32,
    start_ns: u64,
    end_ns: u64,
    status: &'static str,
) {
    if !ctx.is_sampled() {
        return;
    }
    let record = SpanRecord {
        trace_id: ctx.trace_id,
        name,
        shard,
        start_ns,
        end_ns,
        status,
    };
    let sink = sink();
    let mut ring = sink.stripes[stripe_id()].lock();
    if ring.len() >= RING_CAPACITY {
        ring.pop_front();
        sink.dropped.fetch_add(1, Ordering::Relaxed);
    }
    ring.push_back(record);
}

/// Every span currently retained for `trace_id`, ascending by start time.
/// Spans evicted by ring wrap-around are gone; recent traces are complete.
pub fn collect(trace_id: u64) -> Vec<SpanRecord> {
    if trace_id == 0 {
        return Vec::new();
    }
    let sink = sink();
    let mut spans: Vec<SpanRecord> = sink
        .stripes
        .iter()
        .flat_map(|stripe| {
            stripe
                .lock()
                .iter()
                .filter(|s| s.trace_id == trace_id)
                .copied()
                .collect::<Vec<_>>()
        })
        .collect();
    spans.sort_by_key(|s| (s.start_ns, s.end_ns));
    spans
}

/// Spans evicted from full ring stripes so far (ring-pressure telemetry).
pub fn dropped_spans() -> u64 {
    sink().dropped.load(Ordering::Relaxed)
}

/// Arms (or, with 0, disarms) the process-wide slow-transaction dump
/// threshold. Traces whose scope armed its own threshold
/// ([`set_slow_threshold_ns_scoped`]) use that instead.
pub fn set_slow_threshold_ns(threshold_ns: u64) {
    sink()
        .slow_threshold_ns
        .store(threshold_ns, Ordering::Relaxed);
}

/// Arms (or, with 0, disarms) the slow-transaction threshold for one trace
/// scope only. Scope 0 (unscoped ids) falls through to the process-wide
/// threshold.
pub fn set_slow_threshold_ns_scoped(scope: u64, threshold_ns: u64) {
    if scope == 0 {
        set_slow_threshold_ns(threshold_ns);
        return;
    }
    let mut map = sink().scoped_thresholds.lock();
    if threshold_ns == 0 {
        map.remove(&scope);
    } else {
        map.insert(scope, threshold_ns);
    }
}

/// Called once per sampled transaction at completion: when `total_ns`
/// crosses the armed threshold (the trace's scope threshold, or the
/// process-wide one when the scope armed none), snapshots the full trace
/// into the bounded slow-trace backlog.
pub fn maybe_dump_slow(ctx: TraceCtx, total_ns: u64) {
    if !ctx.is_sampled() {
        return;
    }
    let sink = sink();
    let scope = trace_scope_of(ctx.trace_id);
    let scoped = if scope != 0 {
        sink.scoped_thresholds.lock().get(&scope).copied()
    } else {
        None
    };
    let threshold = scoped.unwrap_or_else(|| sink.slow_threshold_ns.load(Ordering::Relaxed));
    if threshold == 0 || total_ns < threshold {
        return;
    }
    let spans = collect(ctx.trace_id);
    let mut backlog = sink.slow_traces.lock();
    if backlog.len() >= SLOW_TRACE_CAPACITY {
        backlog.pop_front();
    }
    backlog.push_back(SlowTrace {
        trace_id: ctx.trace_id,
        total_ns,
        spans,
    });
}

/// Drains the accumulated slow-transaction dumps — every scope's. Prefer
/// [`take_slow_traces_scoped`] when other clusters may share the process
/// (a global drain steals their dumps).
pub fn take_slow_traces() -> Vec<SlowTrace> {
    sink().slow_traces.lock().drain(..).collect()
}

/// Drains only the slow-transaction dumps whose trace ids carry `scope`;
/// other scopes' dumps stay in the backlog for their owners.
pub fn take_slow_traces_scoped(scope: u64) -> Vec<SlowTrace> {
    let mut backlog = sink().slow_traces.lock();
    let mut taken = Vec::new();
    backlog.retain(|dump| {
        if trace_scope_of(dump.trace_id) == scope {
            taken.push(dump.clone());
            false
        } else {
            true
        }
    });
    taken
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsampled_records_nothing() {
        record_span(TraceCtx::NONE, "noop", -1, 0, 1, "ok");
        assert!(collect(0).is_empty());
    }

    #[test]
    fn record_and_collect_sorted() {
        let ctx = TraceCtx::sampled(0xfeed_0001);
        record_span(ctx, "b", 1, 20, 30, "ok");
        record_span(ctx, "a", -1, 10, 40, "ok");
        let spans = collect(ctx.trace_id);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[1].name, "b");
        assert_eq!(spans[0].shard, -1);
    }

    #[test]
    fn slow_trace_dump_thresholds() {
        let ctx = TraceCtx::sampled(0xfeed_0002);
        record_span(ctx, "whole", -1, 0, 5_000_000, "ok");
        set_slow_threshold_ns(1_000_000);
        maybe_dump_slow(ctx, 500_000);
        maybe_dump_slow(TraceCtx::NONE, u64::MAX);
        maybe_dump_slow(ctx, 5_000_000);
        set_slow_threshold_ns(0);
        let dumps = take_slow_traces();
        let dump = dumps
            .iter()
            .find(|d| d.trace_id == ctx.trace_id)
            .expect("slow trace dumped");
        assert_eq!(dump.total_ns, 5_000_000);
        assert!(dump.spans.iter().any(|s| s.name == "whole"));
        assert!(take_slow_traces().is_empty(), "drained");
        let json = dump.to_json();
        assert!(json.get("spans").is_some());
    }

    #[test]
    fn scoped_thresholds_and_drains_are_isolated() {
        let scope_a = 0xA11CE;
        let scope_b = 0xB0B;
        let ctx_a = TraceCtx::sampled(scoped_trace_id(scope_a, 1));
        let ctx_b = TraceCtx::sampled(scoped_trace_id(scope_b, 1));
        assert_ne!(ctx_a.trace_id, ctx_b.trace_id);
        assert_eq!(trace_scope_of(ctx_a.trace_id), scope_a);
        // Same sequence number, different scopes: collect stays disjoint.
        record_span(ctx_a, "a.only", -1, 0, 1, "ok");
        record_span(ctx_b, "b.only", -1, 0, 1, "ok");
        assert!(collect(ctx_a.trace_id).iter().all(|s| s.name == "a.only"));
        // Scope A arms a low threshold, scope B an unreachable one: only
        // A's transaction dumps (whatever the global threshold says —
        // other tests in this process may arm it concurrently).
        set_slow_threshold_ns_scoped(scope_a, 1);
        set_slow_threshold_ns_scoped(scope_b, u64::MAX);
        maybe_dump_slow(ctx_a, 1_000);
        maybe_dump_slow(ctx_b, 1_000);
        set_slow_threshold_ns_scoped(scope_a, 0);
        set_slow_threshold_ns_scoped(scope_b, 0);
        assert!(take_slow_traces_scoped(scope_b).is_empty());
        let dumps = take_slow_traces_scoped(scope_a);
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].trace_id, ctx_a.trace_id);
        assert!(take_slow_traces_scoped(scope_a).is_empty(), "drained");
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
