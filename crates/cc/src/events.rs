//! Blocking-event instrumentation.
//!
//! The automatic-configuration profiler (§5.3.2) "instruments all
//! blocking-based CC mechanisms to log all blocking events that are caused
//! by data contention". Each log entry carries the affected transaction, the
//! blocking transaction, their static types and the begin/end instants of
//! the wait. Mechanisms report events through an [`EventSink`]: [`NullSink`]
//! drops them at no cost, and [`VecSink`] buffers them for the profiler in
//! `tebaldi-autoconf`.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use tebaldi_storage::{NodeId, TxnId, TxnTypeId};

/// One blocking event: `blocked` waited for `blocking` between `start` and
/// `end` at CC-tree node `node`.
#[derive(Clone, Copy, Debug)]
pub struct BlockingEvent {
    /// The transaction that was blocked.
    pub blocked: TxnId,
    /// Static type of the blocked transaction.
    pub blocked_type: TxnTypeId,
    /// The transaction holding the resource.
    pub blocking: TxnId,
    /// Static type of the blocking transaction.
    pub blocking_type: TxnTypeId,
    /// CC-tree node where the wait happened.
    pub node: NodeId,
    /// When the wait began.
    pub start: Instant,
    /// When the wait ended (lock granted, step allowed, or timeout).
    pub end: Instant,
}

impl BlockingEvent {
    /// Duration of the wait.
    pub fn duration(&self) -> std::time::Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// Consumer of blocking events.
pub trait EventSink: Send + Sync {
    /// Records one event.
    fn record(&self, event: BlockingEvent);

    /// Whether mechanisms should bother producing events at all. Mechanisms
    /// check this before measuring, so a disabled sink has near-zero cost —
    /// this is what the profiling-overhead experiment (Fig. 5.17) measures.
    fn enabled(&self) -> bool {
        true
    }
}

/// Sink that drops everything (profiling disabled).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&self, _event: BlockingEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Sink that appends events to an in-memory vector: the blocking-time
/// profiler's buffer (§5.3.2), with a switch that turns sampling off while
/// the sink stays installed.
#[derive(Debug)]
pub struct VecSink {
    events: Mutex<Vec<BlockingEvent>>,
    enabled: AtomicBool,
}

impl Default for VecSink {
    fn default() -> Self {
        VecSink {
            events: Mutex::new(Vec::new()),
            enabled: AtomicBool::new(true),
        }
    }
}

impl VecSink {
    /// Creates an empty, enabled sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Turns sampling on or off.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Takes all recorded events, leaving the sink empty.
    pub fn drain(&self) -> Vec<BlockingEvent> {
        std::mem::take(&mut self.events.lock())
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for VecSink {
    fn record(&self, event: BlockingEvent) {
        if self.enabled() {
            self.events.lock().push(event);
        }
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BlockingEvent {
        let now = Instant::now();
        BlockingEvent {
            blocked: TxnId(2),
            blocked_type: TxnTypeId(1),
            blocking: TxnId(1),
            blocking_type: TxnTypeId(0),
            node: NodeId(0),
            start: now,
            end: now + std::time::Duration::from_millis(3),
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let s = NullSink;
        assert!(!s.enabled());
        s.record(sample()); // no-op
    }

    #[test]
    fn vec_sink_collects() {
        let s = VecSink::new();
        assert!(s.enabled());
        s.record(sample());
        s.record(sample());
        assert_eq!(s.len(), 2);
        let drained = s.drain();
        assert_eq!(drained.len(), 2);
        assert!(s.is_empty());
        assert!(drained[0].duration() >= std::time::Duration::from_millis(3));
    }

    #[test]
    fn a_disabled_vec_sink_drops_events() {
        let s = VecSink::new();
        s.record(sample());
        assert_eq!(s.len(), 1);
        s.set_enabled(false);
        assert!(!s.enabled());
        s.record(sample());
        assert_eq!(s.len(), 1);
        s.set_enabled(true);
        s.record(sample());
        assert_eq!(s.drain().len(), 2);
        assert!(s.is_empty());
    }
}
