//! The blocking-time profiler (§5.3.2).
//!
//! The sampling side is a [`VecSink`](tebaldi_cc::VecSink) that collects
//! the blocking events produced by the CC mechanisms; the analysis side
//! computes, for every ordered pair of transaction types, the total time
//! instances of the second type spent waiting for instances of the first —
//! *re-attributing nested waits to their root cause*: when `A` blocks `B`
//! while `A` is itself blocked by `C`, that sub-interval is charged to the
//! `(C, A)` pair, recursively. This is what lets the analysis see through the
//! cascading-blocking effect that fools the latency-based technique of
//! §5.3.1 (the payment/stock_level case study).

use std::collections::HashMap;
use std::time::{Duration, Instant};
use tebaldi_cc::BlockingEvent;
use tebaldi_storage::{TxnId, TxnTypeId};

/// An undirected conflict edge between two transaction types with its
/// blocking-time score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConflictEdge {
    /// One endpoint (the smaller type id).
    pub a: TxnTypeId,
    /// The other endpoint.
    pub b: TxnTypeId,
    /// Accumulated blocking time attributed to this edge.
    pub score: Duration,
}

impl ConflictEdge {
    /// True when the edge is a self-conflict (instances of one type blocking
    /// each other).
    pub fn is_self_conflict(&self) -> bool {
        self.a == self.b
    }
}

/// The outcome of one analysis pass.
#[derive(Clone, Debug, Default)]
pub struct ProfileReport {
    /// Directed scores: `(blocking type, blocked type)` → waiting time.
    pub directed: HashMap<(TxnTypeId, TxnTypeId), Duration>,
    /// Undirected conflict edges, sorted by decreasing score.
    pub edges: Vec<ConflictEdge>,
    /// Number of events analysed.
    pub events: usize,
}

impl ProfileReport {
    /// The most severe conflict edge, if any blocking was observed.
    pub fn top_edge(&self) -> Option<ConflictEdge> {
        self.edges.first().copied()
    }
}

/// Analyses a batch of blocking events into per-conflict-edge scores.
pub fn analyze(events: &[BlockingEvent]) -> ProfileReport {
    // Index: for every transaction, the intervals during which it was itself
    // blocked (with the blocker's identity), sorted by start time.
    let mut blocked_intervals: HashMap<TxnId, Vec<&BlockingEvent>> = HashMap::new();
    for event in events {
        blocked_intervals
            .entry(event.blocked)
            .or_default()
            .push(event);
    }
    for list in blocked_intervals.values_mut() {
        list.sort_by_key(|e| e.start);
    }

    let mut directed: HashMap<(TxnTypeId, TxnTypeId), Duration> = HashMap::new();

    // Recursive attribution of one interval during which `blocking`
    // (of `blocking_type`) blocks someone of `blocked_type`.
    #[allow(clippy::too_many_arguments)]
    fn attribute(
        blocked_type: TxnTypeId,
        blocking: TxnId,
        blocking_type: TxnTypeId,
        start: Instant,
        end: Instant,
        blocked_intervals: &HashMap<TxnId, Vec<&BlockingEvent>>,
        directed: &mut HashMap<(TxnTypeId, TxnTypeId), Duration>,
        depth: usize,
    ) {
        if end <= start {
            return;
        }
        if depth >= 8 {
            // Deep nesting: charge the remainder to the direct pair.
            *directed.entry((blocking_type, blocked_type)).or_default() +=
                end.duration_since(start);
            return;
        }
        let mut cursor = start;
        if let Some(inner) = blocked_intervals.get(&blocking) {
            for nested in inner.iter() {
                let ns = nested.start.max(cursor);
                let ne = nested.end.min(end);
                if ne <= ns {
                    continue;
                }
                // Time before the nested wait: the blocker was running, so
                // the direct pair is charged.
                if ns > cursor {
                    *directed.entry((blocking_type, blocked_type)).or_default() +=
                        ns.duration_since(cursor);
                }
                // The nested wait is charged to whoever blocked our blocker.
                attribute(
                    blocking_type,
                    nested.blocking,
                    nested.blocking_type,
                    ns,
                    ne,
                    blocked_intervals,
                    directed,
                    depth + 1,
                );
                cursor = ne;
                if cursor >= end {
                    break;
                }
            }
        }
        if end > cursor {
            *directed.entry((blocking_type, blocked_type)).or_default() +=
                end.duration_since(cursor);
        }
    }

    for event in events {
        attribute(
            event.blocked_type,
            event.blocking,
            event.blocking_type,
            event.start,
            event.end,
            &blocked_intervals,
            &mut directed,
            0,
        );
    }

    // Fold directed scores into undirected conflict edges.
    let mut undirected: HashMap<(TxnTypeId, TxnTypeId), Duration> = HashMap::new();
    for ((blocking, blocked), score) in &directed {
        let key = if blocking <= blocked {
            (*blocking, *blocked)
        } else {
            (*blocked, *blocking)
        };
        *undirected.entry(key).or_default() += *score;
    }
    let mut edges: Vec<ConflictEdge> = undirected
        .into_iter()
        .map(|((a, b), score)| ConflictEdge { a, b, score })
        .collect();
    edges.sort_by_key(|e| std::cmp::Reverse(e.score));

    ProfileReport {
        directed,
        edges,
        events: events.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tebaldi_storage::NodeId;

    fn event(
        blocked: u64,
        blocked_ty: u32,
        blocking: u64,
        blocking_ty: u32,
        start_ms: u64,
        end_ms: u64,
        origin: Instant,
    ) -> BlockingEvent {
        BlockingEvent {
            blocked: TxnId(blocked),
            blocked_type: TxnTypeId(blocked_ty),
            blocking: TxnId(blocking),
            blocking_type: TxnTypeId(blocking_ty),
            node: NodeId(0),
            start: origin + Duration::from_millis(start_ms),
            end: origin + Duration::from_millis(end_ms),
        }
    }

    #[test]
    fn simple_attribution() {
        let origin = Instant::now();
        // T2 (type 1) waits 4 ms for T1 (type 0).
        let events = vec![event(2, 1, 1, 0, 0, 4, origin)];
        let report = analyze(&events);
        let edge = report.top_edge().unwrap();
        assert_eq!((edge.a, edge.b), (TxnTypeId(0), TxnTypeId(1)));
        assert_eq!(edge.score, Duration::from_millis(4));
    }

    #[test]
    fn nested_waiting_reattributed_to_root_cause() {
        // The example of Fig. 5.6: t1 (type A=1) waits for t2 (type B=2) for
        // 8 ms, but during 6 of those ms t2 itself waits for t3 (type C=3).
        let origin = Instant::now();
        let events = vec![
            event(1, 1, 2, 2, 10, 18, origin), // t1 blocked by t2: 8 ms
            event(2, 2, 3, 3, 12, 18, origin), // t2 blocked by t3: 6 ms
        ];
        let report = analyze(&events);
        let score = |a: u32, b: u32| {
            report
                .directed
                .get(&(TxnTypeId(a), TxnTypeId(b)))
                .copied()
                .unwrap_or_default()
        };
        // Only 2 ms stay with (B blocks A); 6 ms move to (C blocks A)'s root
        // cause pair (C, B) plus the direct (C, B) wait of 6 ms.
        assert_eq!(score(2, 1), Duration::from_millis(2));
        assert_eq!(score(3, 1) + score(3, 2), Duration::from_millis(12));
        // The top conflict edge is C–B (12 ms total), not B–A.
        let top = report.top_edge().unwrap();
        assert_eq!((top.a, top.b), (TxnTypeId(2), TxnTypeId(3)));
    }

    #[test]
    fn self_conflicts_detected() {
        let origin = Instant::now();
        let events = vec![
            event(2, 5, 1, 5, 0, 3, origin),
            event(3, 5, 1, 5, 0, 2, origin),
        ];
        let report = analyze(&events);
        let top = report.top_edge().unwrap();
        assert!(top.is_self_conflict());
        assert_eq!(top.score, Duration::from_millis(5));
    }

    #[test]
    fn empty_events_empty_report() {
        let report = analyze(&[]);
        assert!(report.top_edge().is_none());
        assert_eq!(report.events, 0);
    }
}
