//! The timestamp oracle.
//!
//! SSI start/commit timestamps, TSO serialization timestamps and the
//! engine's commit timestamps are all drawn from one logical clock. The
//! paper dedicates a machine to timestamp assignment and batch management
//! (§4.6); inside a single process an atomic counter gives the same total
//! order.

use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use tebaldi_storage::Timestamp;

/// A monotonically increasing timestamp oracle.
///
/// Besides issuing timestamps, the oracle tracks **commits in flight**: the
/// engine registers a commit timestamp before it starts making the
/// transaction's versions visible and deregisters it once every key has been
/// marked committed. [`TsOracle::snapshot_ts`] returns a timestamp below
/// every in-flight commit, so a snapshot reader can never observe only part
/// of a multi-key commit (the classic "half-applied commit" race).
#[derive(Debug)]
pub struct TsOracle {
    next: AtomicU64,
    inflight_commits: Mutex<BTreeSet<u64>>,
}

impl Default for TsOracle {
    fn default() -> Self {
        TsOracle::new()
    }
}

impl TsOracle {
    /// Creates an oracle whose first issued timestamp is 1 (0 is reserved
    /// for the initial load).
    pub fn new() -> Self {
        TsOracle {
            next: AtomicU64::new(1),
            inflight_commits: Mutex::new(BTreeSet::new()),
        }
    }

    /// Issues a fresh, unique timestamp.
    pub fn issue(&self) -> Timestamp {
        Timestamp(self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// The latest timestamp issued so far (or 0 when none).
    pub fn latest(&self) -> Timestamp {
        Timestamp(self.next.load(Ordering::Relaxed).saturating_sub(1))
    }

    /// Issues a commit timestamp and registers it as in flight. The caller
    /// must pair this with [`TsOracle::end_commit`] once every version of
    /// the transaction has been marked committed in storage.
    pub fn begin_commit(&self) -> Timestamp {
        let mut inflight = self.inflight_commits.lock();
        let ts = self.issue();
        inflight.insert(ts.0);
        ts
    }

    /// Deregisters a commit previously registered with
    /// [`TsOracle::begin_commit`]; snapshot readers may now observe it.
    pub fn end_commit(&self, ts: Timestamp) {
        self.inflight_commits.lock().remove(&ts.0);
    }

    /// A snapshot timestamp: the largest timestamp such that every commit at
    /// or below it has been fully applied. Monotonically non-decreasing.
    pub fn snapshot_ts(&self) -> Timestamp {
        let inflight = self.inflight_commits.lock();
        match inflight.iter().next() {
            Some(min) => Timestamp(min.saturating_sub(1)),
            None => self.latest(),
        }
    }

    /// Advances the oracle so that the next issued timestamp is greater than
    /// `floor` (used after recovery).
    pub fn advance_past(&self, floor: Timestamp) {
        let target = floor.0 + 1;
        let mut cur = self.next.load(Ordering::Relaxed);
        while cur < target {
            match self
                .next
                .compare_exchange(cur, target, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issues_increasing_timestamps() {
        let o = TsOracle::new();
        let a = o.issue();
        let b = o.issue();
        assert!(b > a);
        assert_eq!(o.latest(), b);
    }

    #[test]
    fn advance_past_skips_recovered_range() {
        let o = TsOracle::new();
        o.advance_past(Timestamp(100));
        assert!(o.issue() > Timestamp(100));
        o.advance_past(Timestamp(5)); // never moves backwards
        assert!(o.issue() > Timestamp(100));
    }

    #[test]
    fn snapshot_ts_excludes_inflight_commits() {
        let o = TsOracle::new();
        let a = o.issue();
        assert_eq!(o.snapshot_ts(), a, "no in-flight commit: latest issued");
        let c1 = o.begin_commit();
        let c2 = o.begin_commit();
        assert!(
            o.snapshot_ts() < c1,
            "snapshot must stay below every in-flight commit"
        );
        o.end_commit(c1);
        assert!(o.snapshot_ts() < c2);
        o.end_commit(c2);
        assert_eq!(o.snapshot_ts(), c2, "fully applied commits become visible");
    }

    #[test]
    fn snapshot_ts_is_monotonic_under_concurrent_commits() {
        use std::sync::Arc;
        let o = Arc::new(TsOracle::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let committer = {
            let o = Arc::clone(&o);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let ts = o.begin_commit();
                    o.end_commit(ts);
                }
            })
        };
        let mut last = Timestamp::ZERO;
        for _ in 0..5_000 {
            let s = o.snapshot_ts();
            assert!(s >= last, "snapshot went backwards: {s:?} < {last:?}");
            last = s;
        }
        stop.store(true, Ordering::Relaxed);
        committer.join().unwrap();
    }

    #[test]
    fn concurrent_issues_are_unique() {
        use std::sync::Arc;
        let o = Arc::new(TsOracle::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let o = Arc::clone(&o);
                std::thread::spawn(move || (0..500).map(|_| o.issue().0).collect::<Vec<_>>())
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 2000);
    }
}
