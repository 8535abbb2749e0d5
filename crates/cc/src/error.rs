//! Error type shared by every concurrency-control mechanism.
//!
//! Every error is an *abort reason*: the engine aborts the transaction and
//! the closed-loop benchmark driver retries it, exactly as the paper's test
//! clients do (§4.6). What the rest of the system needs is (a) that the
//! transaction must abort and (b) which mechanism decided so and why, which
//! feeds the per-mechanism abort rates of the evaluation. So the causes are
//! one closed list: a [`Timeout`](CcError::Timeout) names its wait with a
//! [`WaitLabel`], a [`Conflict`](CcError::Conflict) its rule with a
//! [`Reason`]. Each knows its mechanism name and its text; the wire, the
//! engine's abort counters and trace spans match on the variants instead of
//! keeping copies of the strings.
//!
//! A write-write conflict also names its **winner**: the transaction whose
//! version made the loser abort. The winner is payload, not cause — it does
//! not change [`CcError::cause`] or the abort's counter — and it is what the
//! engine's retry loop waits on instead of a clock.

use crate::mechanism::CcKind;
use std::fmt;
use tebaldi_storage::TxnId;

/// Result alias used throughout the CC layer.
pub type CcResult<T> = Result<T, CcError>;

/// Why a transaction must abort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CcError {
    /// A bounded wait (lock, pipeline step, dependency) timed out. Timeouts
    /// double as deadlock resolution, as in the paper's 2PL implementation.
    Timeout(WaitLabel),
    /// A mechanism detected a conflict it resolves by aborting (write-write
    /// conflict under SSI, stale write under TSO, pivot structure, ...).
    Conflict {
        /// The rule that decided the abort.
        reason: Reason,
        /// The transaction the conflict was lost to, when the rule names
        /// one: the committed or in-flight writer of a write-write conflict
        /// ([`Reason::FirstCommitterWins`], [`Reason::CrossGroupWriteWrite`]).
        winner: Option<TxnId>,
    },
    /// A transaction this one depends on (read-from, pipeline order) aborted,
    /// so this transaction must abort too (cascading abort prevention).
    DependencyAborted,
    /// The engine asked for an abort (user abort, reconfiguration drain).
    Requested,
    /// An internal invariant failed. Should never occur; kept as data rather
    /// than a panic so benchmark runs survive.
    Internal(String),
    /// The remote side of a network boundary could not be reached: the
    /// connection is down, the send failed, a partition is in effect, or
    /// the reply was lost. Distinct from logic errors so coordinators,
    /// retry loops, and bench tooling can classify transient network
    /// failure without string-matching `Internal` messages.
    Unreachable {
        /// What could not be reached ("shard 3", "connection", ...).
        target: String,
        /// Whether the request may have reached the remote side before the
        /// failure (reply lost / connection died while pending). When
        /// `true`, blindly retrying a non-idempotent operation risks
        /// applying it twice; when `false` the request provably never
        /// executed and a retry is always safe.
        maybe_delivered: bool,
    },
}

/// What a wait that timed out was waiting for: one label per blocking rule
/// of [`cc::wait`](crate::wait), plus the cluster's snapshot read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitLabel {
    /// A lock held in another lane, in the lock table of this mechanism
    /// ([`CcKind::TwoPl`] or [`CcKind::Rp`]).
    Lock(CcKind),
    /// RP's trailing rule: a dependency has not entered the step yet.
    PipelineStep,
    /// TSO's promise wait: an earlier transaction promised this key.
    PromisedWrite,
    /// The engine's commit-order wait on a transaction's dependency set.
    DependencyCommit,
    /// A cluster snapshot read: an uncommitted writer overlaps the
    /// snapshot and its decision did not arrive in time.
    SnapshotWriter,
}

impl WaitLabel {
    /// Every label, a lock wait once per [`CcKind`]. A label's place here
    /// is its wire tag and its counter slot: append only.
    pub const ALL: [WaitLabel; 9] = [
        WaitLabel::Lock(CcKind::TwoPl),
        WaitLabel::Lock(CcKind::Rp),
        WaitLabel::Lock(CcKind::Ssi),
        WaitLabel::Lock(CcKind::Tso),
        WaitLabel::Lock(CcKind::NoCc),
        WaitLabel::PipelineStep,
        WaitLabel::PromisedWrite,
        WaitLabel::DependencyCommit,
        WaitLabel::SnapshotWriter,
    ];

    /// This label's place in [`ALL`](WaitLabel::ALL).
    pub fn index(self) -> usize {
        WaitLabel::ALL
            .iter()
            .position(|label| *label == self)
            .expect("ALL lists every label")
    }

    /// The mechanism the timeout is attributed to.
    pub const fn mechanism(self) -> &'static str {
        match self {
            WaitLabel::Lock(owner) => owner.name(),
            WaitLabel::PipelineStep => CcKind::Rp.name(),
            WaitLabel::PromisedWrite => CcKind::Tso.name(),
            WaitLabel::DependencyCommit => "registry",
            WaitLabel::SnapshotWriter => "snapshot",
        }
    }

    /// What was waited for.
    pub const fn what(self) -> &'static str {
        match self {
            WaitLabel::Lock(_) => "lock",
            WaitLabel::PipelineStep => "pipeline step",
            WaitLabel::PromisedWrite => "promised write",
            WaitLabel::DependencyCommit => "dependency commit",
            WaitLabel::SnapshotWriter => "an in-flight writer overlapping the snapshot",
        }
    }
}

/// Why a mechanism resolved a conflict by aborting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reason {
    /// SSI: a version committed after this transaction's snapshot.
    FirstCommitterWins,
    /// SSI: an uncommitted version from another child group.
    CrossGroupWriteWrite,
    /// SSI: the write would make a prepared (voted-yes) reader a pivot.
    DoomsPrepared,
    /// SSI: the write gave this transaction both anti-dependencies.
    PivotOnWrite,
    /// SSI: a pivot at validation.
    Pivot,
    /// SSI: a pivot when the 2PC vote was stabilized.
    PivotAtPrepare,
    /// TSO: a reader with a larger timestamp already read the prior version.
    LaterReader,
    /// TSO: a version from outside the group is ordered after this
    /// transaction's timestamp.
    OrderedAfter,
    /// The engine: a mechanism marked the transaction for abort during an
    /// operation (`TxnCtx::must_abort`).
    MarkedForAbort,
    /// A procedure body's own conditional abort: the request turned out to
    /// be a no-op (a SEATS seat already taken), and the body votes its
    /// distributed transaction down so the other parts roll back. Its names
    /// are those of the first body that built it, so counts and logs keep
    /// them.
    BodyNoOp,
}

impl Reason {
    /// Every reason, in declaration order: a reason's `as u8` is its wire
    /// tag and its place here its counter slot. Append only.
    pub const ALL: [Reason; 10] = [
        Reason::FirstCommitterWins,
        Reason::CrossGroupWriteWrite,
        Reason::DoomsPrepared,
        Reason::PivotOnWrite,
        Reason::Pivot,
        Reason::PivotAtPrepare,
        Reason::LaterReader,
        Reason::OrderedAfter,
        Reason::MarkedForAbort,
        Reason::BodyNoOp,
    ];

    /// The mechanism the conflict is attributed to.
    pub const fn mechanism(self) -> &'static str {
        match self {
            Reason::FirstCommitterWins
            | Reason::CrossGroupWriteWrite
            | Reason::DoomsPrepared
            | Reason::PivotOnWrite
            | Reason::Pivot
            | Reason::PivotAtPrepare => CcKind::Ssi.name(),
            Reason::LaterReader | Reason::OrderedAfter => CcKind::Tso.name(),
            Reason::MarkedForAbort => "engine",
            Reason::BodyNoOp => "seats-workload",
        }
    }

    /// Human-readable reason.
    pub const fn text(self) -> &'static str {
        match self {
            Reason::FirstCommitterWins => "first-committer-wins (concurrent committed write)",
            Reason::CrossGroupWriteWrite => "cross-group write-write conflict",
            Reason::DoomsPrepared => "write would doom a prepared transaction",
            Reason::PivotOnWrite => "pivot (incoming and outgoing anti-dependencies)",
            Reason::Pivot => "pivot detected",
            Reason::PivotAtPrepare => "pivot detected at prepare",
            Reason::LaterReader => "a later reader already read the prior version",
            Reason::OrderedAfter => "a cross-group version is ordered after this timestamp",
            Reason::MarkedForAbort => "marked for abort",
            Reason::BodyNoOp => "reservation no-op",
        }
    }
}

/// Causes with a label or a reason: the first slots of [`CcError::cause`].
const LABELLED: usize = WaitLabel::ALL.len() + Reason::ALL.len();

impl CcError {
    /// How many causes [`cause`](CcError::cause) tells apart.
    pub const CAUSES: usize = LABELLED + 4;

    /// A [`Conflict`](CcError::Conflict) with no winner.
    pub const fn conflict(reason: Reason) -> CcError {
        CcError::Conflict {
            reason,
            winner: None,
        }
    }

    /// The transaction a conflict was lost to, if it names one.
    pub fn winner(&self) -> Option<TxnId> {
        match self {
            CcError::Conflict { winner, .. } => *winner,
            _ => None,
        }
    }

    /// Builds an [`Unreachable`](CcError::Unreachable) error.
    pub fn unreachable(target: impl Into<String>, maybe_delivered: bool) -> CcError {
        CcError::Unreachable {
            target: target.into(),
            maybe_delivered,
        }
    }

    /// The mechanism name to which abort statistics should be attributed.
    pub fn mechanism(&self) -> &'static str {
        match self {
            CcError::Timeout(label) => label.mechanism(),
            CcError::Conflict { reason, .. } => reason.mechanism(),
            CcError::DependencyAborted => "dependency",
            CcError::Requested => "engine",
            CcError::Internal(_) => "internal",
            CcError::Unreachable { .. } => "unreachable",
        }
    }

    /// The abort's cause as an index below [`CAUSES`](CcError::CAUSES):
    /// the variant, told apart further by a `Timeout`'s label and a
    /// `Conflict`'s reason (payloads, a winner included, are not causes).
    /// The engine counts
    /// aborts in a table indexed by it.
    pub fn cause(&self) -> usize {
        match self {
            CcError::Timeout(label) => label.index(),
            CcError::Conflict { reason, .. } => WaitLabel::ALL.len() + *reason as usize,
            CcError::DependencyAborted => LABELLED,
            CcError::Requested => LABELLED + 1,
            CcError::Internal(_) => LABELLED + 2,
            CcError::Unreachable { .. } => LABELLED + 3,
        }
    }

    /// True when retrying the transaction may succeed (all aborts in this
    /// system are retryable except internal errors). An unreachable target
    /// is retryable only when the request provably never reached it — a
    /// lost *reply* means a blind retry could double-apply. (A 2PC
    /// coordinator may retry either kind: presumed abort guarantees the
    /// failed attempt's global cannot commit later. See
    /// [`is_unreachable`](CcError::is_unreachable).)
    pub fn is_retryable(&self) -> bool {
        match self {
            CcError::Internal(_) => false,
            CcError::Unreachable {
                maybe_delivered, ..
            } => !maybe_delivered,
            _ => true,
        }
    }

    /// True when the error is transient network failure rather than a
    /// logic error (either [`Unreachable`](CcError::Unreachable) flavor).
    pub fn is_unreachable(&self) -> bool {
        matches!(self, CcError::Unreachable { .. })
    }
}

impl fmt::Display for CcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CcError::Timeout(label) => write!(
                f,
                "{}: timed out waiting for {}",
                label.mechanism(),
                label.what()
            ),
            CcError::Conflict { reason, .. } => {
                write!(f, "{}: {}", reason.mechanism(), reason.text())
            }
            CcError::DependencyAborted => write!(f, "a dependency aborted"),
            CcError::Requested => write!(f, "abort requested"),
            CcError::Internal(msg) => write!(f, "internal error: {msg}"),
            CcError::Unreachable {
                target,
                maybe_delivered,
            } => write!(
                f,
                "{target} is unreachable ({})",
                if *maybe_delivered {
                    "request may have been delivered"
                } else {
                    "request was never delivered"
                }
            ),
        }
    }
}

impl std::error::Error for CcError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cause with its `mechanism()` and `to_string()`: benchmark
    /// buckets and log lines key on these exact strings.
    fn every_cause() -> Vec<(CcError, &'static str, &'static str)> {
        use CcError::Timeout;
        let conflict = CcError::conflict;
        let table = vec![
            (
                Timeout(WaitLabel::Lock(CcKind::TwoPl)),
                "2PL",
                "2PL: timed out waiting for lock",
            ),
            (
                Timeout(WaitLabel::Lock(CcKind::Rp)),
                "RP",
                "RP: timed out waiting for lock",
            ),
            (
                Timeout(WaitLabel::PipelineStep),
                "RP",
                "RP: timed out waiting for pipeline step",
            ),
            (
                Timeout(WaitLabel::PromisedWrite),
                "TSO",
                "TSO: timed out waiting for promised write",
            ),
            (
                Timeout(WaitLabel::DependencyCommit),
                "registry",
                "registry: timed out waiting for dependency commit",
            ),
            (
                Timeout(WaitLabel::SnapshotWriter),
                "snapshot",
                "snapshot: timed out waiting for an in-flight writer overlapping the snapshot",
            ),
            (
                conflict(Reason::FirstCommitterWins),
                "SSI",
                "SSI: first-committer-wins (concurrent committed write)",
            ),
            (
                conflict(Reason::CrossGroupWriteWrite),
                "SSI",
                "SSI: cross-group write-write conflict",
            ),
            (
                conflict(Reason::DoomsPrepared),
                "SSI",
                "SSI: write would doom a prepared transaction",
            ),
            (
                conflict(Reason::PivotOnWrite),
                "SSI",
                "SSI: pivot (incoming and outgoing anti-dependencies)",
            ),
            (conflict(Reason::Pivot), "SSI", "SSI: pivot detected"),
            (
                conflict(Reason::PivotAtPrepare),
                "SSI",
                "SSI: pivot detected at prepare",
            ),
            (
                conflict(Reason::LaterReader),
                "TSO",
                "TSO: a later reader already read the prior version",
            ),
            (
                conflict(Reason::OrderedAfter),
                "TSO",
                "TSO: a cross-group version is ordered after this timestamp",
            ),
            (
                conflict(Reason::MarkedForAbort),
                "engine",
                "engine: marked for abort",
            ),
            (
                conflict(Reason::BodyNoOp),
                "seats-workload",
                "seats-workload: reservation no-op",
            ),
            (
                CcError::DependencyAborted,
                "dependency",
                "a dependency aborted",
            ),
            (CcError::Requested, "engine", "abort requested"),
            (
                CcError::Internal("bug".into()),
                "internal",
                "internal error: bug",
            ),
            (
                CcError::unreachable("shard 3", false),
                "unreachable",
                "shard 3 is unreachable (request was never delivered)",
            ),
        ];
        // No wildcard: a new label or reason fails to compile here until
        // it has a row above.
        for (err, _, _) in &table {
            match err {
                Timeout(
                    WaitLabel::Lock(_)
                    | WaitLabel::PipelineStep
                    | WaitLabel::PromisedWrite
                    | WaitLabel::DependencyCommit
                    | WaitLabel::SnapshotWriter,
                )
                | CcError::Conflict {
                    reason:
                        Reason::FirstCommitterWins
                        | Reason::CrossGroupWriteWrite
                        | Reason::DoomsPrepared
                        | Reason::PivotOnWrite
                        | Reason::Pivot
                        | Reason::PivotAtPrepare
                        | Reason::LaterReader
                        | Reason::OrderedAfter
                        | Reason::MarkedForAbort
                        | Reason::BodyNoOp,
                    ..
                }
                | CcError::DependencyAborted
                | CcError::Requested
                | CcError::Internal(_)
                | CcError::Unreachable { .. } => {}
            }
        }
        table
    }

    #[test]
    fn every_cause_keeps_its_mechanism_and_text() {
        for (err, mechanism, text) in every_cause() {
            assert_eq!(err.mechanism(), mechanism, "{err:?}");
            assert_eq!(err.to_string(), text, "{err:?}");
        }
    }

    #[test]
    fn causes_are_distinct_indices_below_the_count() {
        let mut seen = [false; CcError::CAUSES];
        for (err, _, _) in every_cause() {
            let cause = err.cause();
            assert!(!std::mem::replace(&mut seen[cause], true), "{err:?}");
        }
        // Every lock owner has its own slot, including the ones that build
        // no lock table (no wildcard: a new kind must be listed here).
        for owner in [CcKind::Ssi, CcKind::Tso, CcKind::NoCc] {
            match owner {
                CcKind::TwoPl | CcKind::Rp | CcKind::Ssi | CcKind::Tso | CcKind::NoCc => {}
            }
            let cause = CcError::Timeout(WaitLabel::Lock(owner)).cause();
            assert!(!std::mem::replace(&mut seen[cause], true), "{owner:?}");
        }
        assert!(seen.iter().all(|&s| s), "an index no cause maps to");
        // A reason's tag is its place in `ALL`.
        for (place, reason) in Reason::ALL.into_iter().enumerate() {
            assert_eq!(reason as usize, place, "{reason:?}");
        }
        // Payloads are not causes: neither a target nor a winner.
        assert_eq!(
            CcError::unreachable("a", true).cause(),
            CcError::unreachable("b", false).cause()
        );
        let lost_to = |winner| CcError::Conflict {
            reason: Reason::CrossGroupWriteWrite,
            winner,
        };
        assert_eq!(lost_to(Some(TxnId(7))).cause(), lost_to(None).cause());
        assert_eq!(
            lost_to(Some(TxnId(7))).to_string(),
            lost_to(None).to_string()
        );
    }

    #[test]
    fn retry_classification() {
        assert!(CcError::Timeout(WaitLabel::Lock(CcKind::TwoPl)).is_retryable());
        assert!(!CcError::Internal("bug".into()).is_retryable());
    }

    #[test]
    fn unreachable_classification() {
        let lost_reply = CcError::unreachable("shard 3", true);
        let never_sent = CcError::unreachable("shard 3", false);
        assert!(lost_reply.is_unreachable() && never_sent.is_unreachable());
        assert!(!CcError::Requested.is_unreachable());
        assert_eq!(lost_reply.mechanism(), "unreachable");
        // A lost reply may have been applied: not blindly retryable. A
        // failed send provably never executed: retryable.
        assert!(!lost_reply.is_retryable());
        assert!(never_sent.is_retryable());
        assert!(lost_reply.to_string().contains("unreachable"));
    }
}
