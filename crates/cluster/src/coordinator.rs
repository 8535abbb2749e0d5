//! The cross-shard two-phase-commit coordinator.
//!
//! A multi-shard transaction splits into per-shard parts. The coordinator
//! assigns a cluster-global id, asks every participant shard to *prepare*
//! its part (run it through execution, validation, and the dependency wait,
//! then harden a `Prepare` WAL record and hold the locks), and collects the
//! votes:
//!
//! * **all yes, ≥ 2 read-write participants** — the coordinator flushes a
//!   `Decision { commit: true }` record to its own decision log (*the
//!   commit point*) — coalescing the flush with concurrent decisions via
//!   group commit — then tells every read-write shard to commit;
//! * **all yes, exactly 1 read-write participant** — one-phase fast path:
//!   the surviving participant's own commit record is the commit point, so
//!   no decision record is written at all;
//! * **all yes, 0 read-write participants** — every part voted `ReadOnly`
//!   and already committed at phase one; there is nothing to decide;
//! * **any no** — it tells the prepared shards to abort. No flushed
//!   decision record is needed: recovery presumes abort for undecided
//!   global ids.
//!
//! Read-only participants (empty write set) commit and release at phase
//! one, write no prepare record, and are excluded from the decision — so
//! they are never in doubt and recovery never re-resolves them.
//!
//! A shard crash between prepare and decision leaves the transaction *in
//! doubt* on that shard; shard recovery resolves it against this decision
//! log (see `tebaldi_storage::recovery::recover_with_resolver`).

use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tebaldi_obs::{Counter, MetricsRegistry, MetricsSnapshot};
use tebaldi_storage::durability::GroupCommit;
use tebaldi_storage::wal::{LogDevice, LogRecord};
use tebaldi_storage::{Timestamp, TxnId};

/// Coordinator activity: a view of the `coord.*` counters of a metrics
/// snapshot ([`CoordinatorStats::from_metrics`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct CoordinatorStats {
    /// Global transactions that reached the commit point (including the
    /// one-phase and fully-read-only fast paths).
    pub committed: u64,
    /// Global transactions aborted by a "no" vote (or coordinator error).
    pub aborted: u64,
    /// Commits that degenerated to one-phase (exactly one read-write
    /// participant): no decision record was written.
    pub one_phase: u64,
    /// Commits where every participant voted `ReadOnly`: neither prepare
    /// records nor a decision record were written.
    pub read_only: u64,
    /// Records actually appended to the decision log (commit + abort).
    pub decisions_logged: u64,
    /// Device flushes the decision log performed (group-commit leaders).
    pub decision_flushes: u64,
}

impl CoordinatorStats {
    /// The `coord.*` counters of `metrics`.
    pub fn from_metrics(metrics: &MetricsSnapshot) -> Self {
        let count = |name: &str| metrics.counter(name).unwrap_or(0);
        CoordinatorStats {
            committed: count("coord.committed"),
            aborted: count("coord.aborted"),
            one_phase: count("coord.one_phase"),
            read_only: count("coord.read_only"),
            decisions_logged: count("coord.decisions_logged"),
            decision_flushes: count("coord.decision_flushes"),
        }
    }
}

/// Assigns global transaction ids and owns the decision log.
pub struct TxnCoordinator {
    next_global: AtomicU64,
    /// Exclusive upper bound of the durably reserved id block.
    reserved: AtomicU64,
    /// Serializes block-reservation flushes.
    reserve_lock: Mutex<()>,
    decision_log: Arc<dyn LogDevice>,
    group: GroupCommit,
    committed: Arc<Counter>,
    aborted: Arc<Counter>,
    one_phase: Arc<Counter>,
    read_only: Arc<Counter>,
    decisions_logged: Arc<Counter>,
}

impl std::fmt::Debug for TxnCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnCoordinator")
            .field("next_global", &self.next_global.load(Ordering::Relaxed))
            .finish()
    }
}

/// Size of one durably reserved block of global ids. One-phase and
/// read-only commits write no decision record, so the highest logged
/// decision understates the ids actually handed out; before handing out an
/// id beyond the reserved block, the coordinator flushes a reservation
/// marker (an abort-decision record for the block's last id — harmless to
/// in-doubt resolution, which only honors commit decisions) so a restarted
/// coordinator always resumes above every id ever issued. Costs one
/// flushed record per `ID_BLOCK` global transactions.
const ID_BLOCK: u64 = 1 << 20;

impl TxnCoordinator {
    /// A coordinator over the given decision-log device, with decision
    /// flushes coalesced across concurrent transactions, counting under
    /// `coord.*` in `metrics`.
    pub fn new(decision_log: Arc<dyn LogDevice>, metrics: &MetricsRegistry) -> Self {
        // Resume the id sequence above anything already decided *or
        // reserved*: every id ever handed out lies below some logged
        // record (decision or reservation marker), so restarts can never
        // reuse an id that may still label an undecided prepare somewhere.
        let mut floor = 1;
        for record in decision_log.read_back() {
            if let LogRecord::Decision { global, .. } = record {
                floor = floor.max(global + 1);
            }
        }
        TxnCoordinator {
            next_global: AtomicU64::new(floor),
            reserved: AtomicU64::new(floor),
            reserve_lock: Mutex::new(()),
            group: GroupCommit::with_counters(
                Arc::clone(&decision_log),
                metrics.counter("coord.decision_flushes"),
                metrics.counter("coord.decision_appends"),
                metrics.counter("coord.decision_coalesced"),
            ),
            decision_log,
            committed: metrics.counter("coord.committed"),
            aborted: metrics.counter("coord.aborted"),
            one_phase: metrics.counter("coord.one_phase"),
            read_only: metrics.counter("coord.read_only"),
            decisions_logged: metrics.counter("coord.decisions_logged"),
        }
    }

    /// Starts a new global transaction. The id is covered by a durable
    /// reservation before it is returned (see `ID_BLOCK`), so even a
    /// commit that never logs a decision cannot be reused after a
    /// coordinator restart.
    pub fn begin_global(&self) -> u64 {
        let id = self.next_global.fetch_add(1, Ordering::Relaxed);
        if id >= self.reserved.load(Ordering::Acquire) {
            let _guard = self.reserve_lock.lock();
            let current = self.reserved.load(Ordering::Acquire);
            if id >= current {
                let new_bound = id + ID_BLOCK;
                // An abort decision for the block's last id: in-doubt
                // resolution only honors commit decisions, and a later
                // genuine commit of that id simply adds a commit record.
                self.decision_log.append(&LogRecord::Decision {
                    global: new_bound - 1,
                    commit: false,
                    hlc: 0,
                });
                self.decision_log.flush();
                self.reserved.store(new_bound, Ordering::Release);
            }
        }
        id
    }

    fn append_commit_durable(&self, global: u64, hlc: u64) {
        let record = LogRecord::Decision {
            global,
            commit: true,
            hlc,
        };
        self.decisions_logged.inc();
        self.group.append_durable(std::slice::from_ref(&record));
    }

    /// The commit point: durably records the commit decision for `global`
    /// together with its HLC decision stamp, coalescing the flush with
    /// concurrent decisions. Participants may only be told to commit after
    /// this returns — and they stamp their versions with exactly `hlc`, so
    /// persisting the stamp here lets in-doubt recovery re-install it.
    pub fn log_commit(&self, global: u64, hlc: u64) {
        self.append_commit_durable(global, hlc);
        self.committed.inc();
    }

    /// Durably records a commit decision for a one-phase commit whose
    /// decision acknowledgement never arrived. The lone read-write
    /// participant may still be parked in doubt on a shard that never saw
    /// the decision frame — without this record, recovery would *presume
    /// abort* for a transaction the caller was already told committed.
    /// Counts in `decisions_logged` but not in `committed` (the one-phase
    /// commit itself was already counted).
    pub fn log_straggler_commit(&self, global: u64, hlc: u64) {
        self.append_commit_durable(global, hlc);
    }

    /// Records an abort decision. Optional (absence implies abort), kept
    /// for diagnostics and to stop recovery from re-asking about well-known
    /// aborts.
    pub fn log_abort(&self, global: u64) {
        self.decisions_logged.inc();
        self.decision_log.append(&LogRecord::Decision {
            global,
            commit: false,
            hlc: 0,
        });
        self.aborted.inc();
    }

    /// Registers a global abort that needed no decision record (every part
    /// self-aborted or was read-only, so nothing is prepared anywhere).
    pub fn note_abort(&self) {
        self.aborted.inc();
    }

    /// Registers a one-phase commit (exactly one read-write participant):
    /// the participant's own commit record is the commit point, so nothing
    /// is appended to the decision log.
    pub fn commit_one_phase(&self) {
        self.one_phase.inc();
        self.committed.inc();
    }

    /// Registers a fully-read-only commit (every participant voted
    /// `ReadOnly` and already finished): no log traffic at all.
    pub fn commit_read_only(&self) {
        self.read_only.inc();
        self.committed.inc();
    }

    /// The set of global ids with a durable commit decision.
    pub fn committed_globals(&self) -> HashSet<u64> {
        self.committed_globals_with_stamps().into_keys().collect()
    }

    /// Global ids with a durable commit decision, mapped to the HLC
    /// decision stamp each was committed under (`0` for pre-HLC records).
    /// In-doubt resolution re-installs the stamp so a recovered shard's
    /// chains answer snapshot reads identically to the surviving ones.
    pub fn committed_globals_with_stamps(&self) -> HashMap<u64, u64> {
        self.decision_log
            .read_back()
            .into_iter()
            .filter_map(|record| match record {
                LogRecord::Decision {
                    global,
                    commit: true,
                    hlc,
                } => Some((global, hlc)),
                _ => None,
            })
            .collect()
    }

    /// The decision-log device (shared with recovery).
    pub fn decision_log(&self) -> Arc<dyn LogDevice> {
        Arc::clone(&self.decision_log)
    }
}

/// Marker values some diagnostics use when a coordinator-side pseudo
/// transaction needs storage types.
pub const COORDINATOR_TXN: TxnId = TxnId(u64::MAX);
/// Timestamp used for coordinator bookkeeping records.
pub const COORDINATOR_TS: Timestamp = Timestamp(0);

#[cfg(test)]
mod tests {
    use super::*;
    use tebaldi_storage::wal::MemLogDevice;

    /// A coordinator over an in-memory decision log, counting into its own
    /// registry.
    fn in_memory() -> (TxnCoordinator, MetricsRegistry) {
        let metrics = MetricsRegistry::new();
        let coord = TxnCoordinator::new(Arc::new(MemLogDevice::new()), &metrics);
        (coord, metrics)
    }

    fn stats(metrics: &MetricsRegistry) -> CoordinatorStats {
        CoordinatorStats::from_metrics(&metrics.snapshot())
    }

    #[test]
    fn decision_log_roundtrip() {
        let (coord, metrics) = in_memory();
        let a = coord.begin_global();
        let b = coord.begin_global();
        assert_ne!(a, b);
        coord.log_commit(a, 0xBEEF);
        coord.log_abort(b);
        let committed = coord.committed_globals();
        assert!(committed.contains(&a));
        assert!(!committed.contains(&b));
        let stamps = coord.committed_globals_with_stamps();
        assert_eq!(
            stamps.get(&a),
            Some(&0xBEEF),
            "the decision stamp survives the log roundtrip"
        );
        let stats = stats(&metrics);
        assert_eq!(stats.committed, 1);
        assert_eq!(stats.aborted, 1);
        assert_eq!(stats.decisions_logged, 2);
        assert_eq!(stats.decision_flushes, 1, "only the commit flushed");
    }

    #[test]
    fn one_phase_commit_logs_no_decision_records() {
        let (coord, metrics) = in_memory();
        let global = coord.begin_global();
        coord.commit_one_phase();
        coord.commit_read_only();
        let stats = stats(&metrics);
        assert_eq!(stats.committed, 2);
        assert_eq!(stats.one_phase, 1);
        assert_eq!(stats.read_only, 1);
        assert_eq!(stats.decisions_logged, 0);
        // The log holds only the once-per-ID_BLOCK reservation marker —
        // never a record for the committed transaction itself.
        for record in coord.decision_log().read_back() {
            match record {
                LogRecord::Decision {
                    global: g, commit, ..
                } => {
                    assert!(!commit, "one-phase commit must not log a commit");
                    assert_ne!(g, global, "no record for the transaction's id");
                }
                other => panic!("unexpected record {other:?}"),
            }
        }
    }

    #[test]
    fn global_ids_resume_above_logged_decisions() {
        let log: Arc<dyn LogDevice> = Arc::new(MemLogDevice::new());
        let highest = {
            let coord = TxnCoordinator::new(Arc::clone(&log), &MetricsRegistry::new());
            let g = coord.begin_global();
            coord.log_commit(g, 0);
            g
        };
        let restarted = TxnCoordinator::new(Arc::clone(&log), &MetricsRegistry::new());
        let next = restarted.begin_global();
        assert!(next > highest, "restarted coordinator must not reuse ids");
    }

    #[test]
    fn unlogged_one_phase_ids_are_never_reused_after_restart() {
        // A coordinator that only ever performed one-phase commits (no
        // decision records) must still resume above every id it handed
        // out: the durable block-reservation marker guarantees it.
        let log: Arc<dyn LogDevice> = Arc::new(MemLogDevice::new());
        let handed_out: Vec<u64> = {
            let coord = TxnCoordinator::new(Arc::clone(&log), &MetricsRegistry::new());
            (0..100)
                .map(|_| {
                    let g = coord.begin_global();
                    coord.commit_one_phase();
                    g
                })
                .collect()
        };
        let restarted = TxnCoordinator::new(Arc::clone(&log), &MetricsRegistry::new());
        let next = restarted.begin_global();
        assert!(
            handed_out.iter().all(|&g| next > g),
            "id {next} collides with a previously issued one-phase id"
        );
    }
}
