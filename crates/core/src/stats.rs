//! Engine-level counters.
//!
//! The evaluation reports throughput, abort rates and per-mechanism abort
//! attribution. The engine keeps cheap atomic counters; latency percentiles
//! are measured by the benchmark driver in `tebaldi-workloads`, which is
//! where the paper measures them too (at the closed-loop clients).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A snapshot of the engine counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transaction attempts.
    pub aborted: u64,
    /// Aborts attributed to each mechanism (by
    /// [`CcError::mechanism`](tebaldi_cc::CcError::mechanism)).
    pub aborts_by_mechanism: HashMap<String, u64>,
}

impl StatsSnapshot {
    /// Abort rate over all attempts.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.committed + self.aborted;
        if attempts == 0 {
            0.0
        } else {
            self.aborted as f64 / attempts as f64
        }
    }
}

/// Live engine counters.
#[derive(Debug, Default)]
pub struct DbStats {
    committed: AtomicU64,
    aborted: AtomicU64,
    aborts_by_mechanism: Mutex<HashMap<&'static str, u64>>,
}

impl DbStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        DbStats::default()
    }

    /// Records a commit.
    pub fn record_commit(&self) {
        self.committed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an aborted attempt attributed to `mechanism`.
    pub fn record_abort(&self, mechanism: &'static str) {
        self.aborted.fetch_add(1, Ordering::Relaxed);
        *self
            .aborts_by_mechanism
            .lock()
            .entry(mechanism)
            .or_insert(0) += 1;
    }

    /// Total committed so far.
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    /// Total aborted attempts so far.
    pub fn aborted(&self) -> u64 {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Snapshot of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            committed: self.committed(),
            aborted: self.aborted(),
            aborts_by_mechanism: self
                .aborts_by_mechanism
                .lock()
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_snapshot() {
        let s = DbStats::new();
        s.record_commit();
        s.record_commit();
        s.record_commit();
        s.record_abort("2PL");
        let snap = s.snapshot();
        assert_eq!(snap.committed, 3);
        assert_eq!(snap.aborted, 1);
        assert_eq!(snap.aborts_by_mechanism["2PL"], 1);
        assert!((snap.abort_rate() - 0.25).abs() < 1e-9);
        assert_eq!(StatsSnapshot::default().abort_rate(), 0.0);
    }
}
