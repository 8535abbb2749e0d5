//! Engine-level counters.
//!
//! The evaluation reports throughput, abort rates and per-mechanism abort
//! attribution. The engine keeps cheap atomic counters; latency percentiles
//! are measured by the benchmark driver in `tebaldi-workloads`, which is
//! where the paper measures them too (at the closed-loop clients).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use tebaldi_obs::metrics::Counter;

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

/// Distinct abort causes the table has room for. Causes are the
/// `&'static str` names of [`CcError::mechanism`](tebaldi_cc::CcError::mechanism)
/// — mechanisms, the engine, workload bodies — about a dozen in this tree.
const CAUSES: usize = 24;

/// One abort cause: its name, claimed by the first abort that carries it,
/// and its count.
#[derive(Debug, Default)]
struct Cause {
    name: OnceLock<&'static str>,
    count: AtomicU64,
}

/// Live engine counters.
#[derive(Debug, Default)]
pub struct DbStats {
    /// Striped: every client thread commits, none should take the line
    /// from another to say so.
    committed: Counter,
    aborted: Counter,
    /// Per-cause abort counts: a fixed table scanned by name, so recording
    /// an abort takes no lock and allocates nothing. Should the table ever
    /// fill, further causes count under `"other"`.
    causes: [Cause; CAUSES],
    other_causes: AtomicU64,
}

impl DbStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        DbStats::default()
    }

    /// Records a commit.
    pub fn record_commit(&self) {
        self.committed.inc();
    }

    /// Records an aborted attempt attributed to `mechanism`.
    pub fn record_abort(&self, mechanism: &'static str) {
        self.aborted.inc();
        for cause in &self.causes {
            // `get_or_init` on a free row claims it; a racing claimant with
            // another name wins or loses the row, never shares it.
            if *cause.name.get_or_init(|| mechanism) == mechanism {
                cause.count.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.other_causes.fetch_add(1, Ordering::Relaxed);
    }

    /// Total committed so far.
    pub fn committed(&self) -> u64 {
        self.committed.get()
    }

    /// Total aborted attempts so far.
    pub fn aborted(&self) -> u64 {
        self.aborted.get()
    }

    /// Snapshot of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            committed: self.committed(),
            aborted: self.aborted(),
            aborts_by_mechanism: self
                .causes
                .iter()
                .filter_map(|c| Some((*c.name.get()?, c.count.load(Ordering::Relaxed))))
                .chain(Some(("other", self.other_causes.load(Ordering::Relaxed))))
                .filter(|&(_, count)| count > 0)
                .map(|(name, count)| (name.to_string(), count))
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

    #[test]
    fn causes_keep_their_names_and_counts_under_concurrency() {
        let s = DbStats::new();
        let names = ["SSI", "2PL", "dependency", "engine"];
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..1000 {
                        s.record_abort(names[(t + i) % names.len()]);
                    }
                });
            }
        });
        let snap = s.snapshot();
        assert_eq!(snap.aborted, 4000);
        assert_eq!(snap.aborts_by_mechanism.len(), names.len());
        for name in names {
            assert_eq!(snap.aborts_by_mechanism[name], 1000, "{name}");
        }
    }
}
