//! The serializable shard-RPC operation interface.
//!
//! Every interaction between the cluster layer and a shard is one of these
//! requests — a *declared operation*, not opaque code. The transaction
//! bodies themselves live shard-side in the
//! [`ProcRegistry`](tebaldi_core::ProcRegistry); a request names a body by
//! [`ProcId`] and carries its encoded arguments, so the exact same request
//! value works over the in-process mailbox and over a byte-oriented network
//! transport (see [`crate::wire`]).

use crate::worker::Vote;
use tebaldi_cc::{CcError, CcResult};
use tebaldi_core::{ProcId, ProcedureCall};
use tebaldi_obs::{MetricsSnapshot, TraceCtx};
use tebaldi_storage::Value;

/// One operation sent to a shard.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardRequest {
    /// Closed-loop execution of a registered procedure with engine-side
    /// retry of aborted attempts.
    Execute {
        /// The registered transaction body.
        proc: ProcId,
        /// The engine call descriptor (type, instance seed, promises).
        call: ProcedureCall,
        /// Encoded procedure arguments (see `tebaldi_storage::codec`).
        args: Vec<u8>,
        /// Retry budget for aborted attempts.
        max_attempts: u32,
        /// Trace context (`TraceCtx::NONE` when unsampled); carried over
        /// the wire so shard-side spans join the coordinator's trace.
        trace: TraceCtx,
    },
    /// 2PC phase one: run the body up to the prepared state and park it in
    /// the shard's in-doubt table keyed by the cluster-global id (read-write
    /// votes) or commit it outright (read-only votes).
    Prepare {
        /// Cluster-global transaction id.
        global: u64,
        /// The registered transaction body.
        proc: ProcId,
        /// The engine call descriptor.
        call: ProcedureCall,
        /// Encoded procedure arguments.
        args: Vec<u8>,
        /// Trace context (`TraceCtx::NONE` when unsampled).
        trace: TraceCtx,
    },
    /// 2PC phase two: commit the prepared transaction `global`, stamping
    /// its versions with the coordinator's HLC decision stamp (every
    /// participant of one global commit receives the same stamp — the
    /// atomic-visibility rule of cross-shard snapshot reads).
    Commit {
        /// Cluster-global transaction id.
        global: u64,
        /// Coordinator-chosen HLC decision stamp (`0` = unstamped).
        hlc: u64,
    },
    /// 2PC phase two: abort `global` (also delivered for timed-out votes,
    /// where the shard may not have prepared yet: a late prepare finds the
    /// decided abort and aborts — see [`crate::worker`]).
    Abort {
        /// Cluster-global transaction id.
        global: u64,
    },
    /// Multi-key read at a global HLC snapshot — the zero-2PC, zero-lock
    /// read path. The shard merges `snapshot` into its clock *first* (so
    /// every later local commit stamps above it), then serves each key from
    /// the newest committed version stamped `<= snapshot`, waiting out (up
    /// to `wait_ms`) any overlapping uncommitted writer rather than taking
    /// locks. No prepare record, no decision-log record, no vote.
    SnapshotRead {
        /// The global snapshot timestamp (an HLC value the coordinator
        /// drew from its own clock).
        snapshot: u64,
        /// Budget for waiting out in-flight writers before refusing with a
        /// retryable error.
        wait_ms: u64,
        /// The keys to read, all owned by this shard.
        keys: Vec<tebaldi_storage::Key>,
    },
    /// Admin: seal the shard's current durability epoch and flush its WAL
    /// device.
    Flush,
    /// Admin: snapshot the shard's full metrics registry (counters,
    /// gauges, latency histograms) for cluster-wide aggregation.
    Metrics,
}

impl ShardRequest {
    /// True for the requests that run on the shard's worker pool rather
    /// than inline on the transport thread: the two body-running requests,
    /// plus snapshot reads — which run no body but may *block* waiting out
    /// an in-flight writer, and must never stall the connection's reader
    /// thread (that would queue phase-two decisions behind them and
    /// stretch the prepared-lock window).
    pub fn runs_body(&self) -> bool {
        matches!(
            self,
            ShardRequest::Execute { .. }
                | ShardRequest::Prepare { .. }
                | ShardRequest::SnapshotRead { .. }
        )
    }

    /// The trace context carried by this request (`TraceCtx::NONE` for
    /// admin and decision requests, which are never traced shard-side).
    pub fn trace(&self) -> TraceCtx {
        match self {
            ShardRequest::Execute { trace, .. } | ShardRequest::Prepare { trace, .. } => *trace,
            _ => TraceCtx::NONE,
        }
    }

    /// True for 2PC phase-two decisions.
    pub fn is_decision(&self) -> bool {
        matches!(
            self,
            ShardRequest::Commit { .. } | ShardRequest::Abort { .. }
        )
    }
}

/// A shard's reply to a [`ShardRequest`].
#[derive(Clone, Debug, PartialEq)]
pub enum ShardResponse {
    /// Successful [`Execute`](ShardRequest::Execute): the body's result and
    /// how many aborted attempts the retry loop burned.
    Executed {
        /// The body's return value.
        value: Value,
        /// Aborted attempts before the commit.
        aborts: u32,
    },
    /// Successful [`Prepare`](ShardRequest::Prepare): the body's result and
    /// the participant's vote class.
    Prepared {
        /// The body's return value.
        value: Value,
        /// `ReadWrite` (parked in doubt) or `ReadOnly` (already committed).
        vote: Vote,
        /// The shard's HLC reading at vote time, drawn *after* the prepare
        /// hardened. The coordinator observes every vote clock before
        /// drawing the decision stamp, which keeps decision stamps above
        /// every stamp already committed on the participants' chains (and
        /// above every snapshot any participant has served).
        hlc: u64,
    },
    /// Acknowledges a phase-two decision.
    Decided,
    /// Reply to [`SnapshotRead`](ShardRequest::SnapshotRead): per-key
    /// values in request order (`Value::Null` = absent at the snapshot).
    Snapshot {
        /// The value visible at the snapshot for each requested key.
        values: Vec<Value>,
        /// The shard's HLC reading after serving the read (frame-level
        /// clock merge for in-process transports).
        hlc: u64,
    },
    /// Acknowledges [`Flush`](ShardRequest::Flush).
    Flushed,
    /// Reply to [`Metrics`](ShardRequest::Metrics): the shard's full
    /// metrics snapshot.
    Metrics(Box<MetricsSnapshot>),
}

impl ShardResponse {
    /// Extracts the value of an [`Executed`](ShardResponse::Executed) reply.
    pub fn into_executed(self) -> CcResult<(Value, u32)> {
        match self {
            ShardResponse::Executed { value, aborts } => Ok((value, aborts)),
            other => Err(CcError::Internal(format!(
                "expected an Executed reply, got {other:?}"
            ))),
        }
    }

    /// Extracts the value/vote/vote-clock of a
    /// [`Prepared`](ShardResponse::Prepared) reply.
    pub fn into_prepared(self) -> CcResult<(Value, Vote, u64)> {
        match self {
            ShardResponse::Prepared { value, vote, hlc } => Ok((value, vote, hlc)),
            other => Err(CcError::Internal(format!(
                "expected a Prepared reply, got {other:?}"
            ))),
        }
    }

    /// Extracts the values of a [`Snapshot`](ShardResponse::Snapshot) reply.
    pub fn into_snapshot(self) -> CcResult<(Vec<Value>, u64)> {
        match self {
            ShardResponse::Snapshot { values, hlc } => Ok((values, hlc)),
            other => Err(CcError::Internal(format!(
                "expected a Snapshot reply, got {other:?}"
            ))),
        }
    }
}

/// What a shard reports back for one request: the successful response or
/// the abort reason. Transport-level failures (connection lost, vote
/// timeout) live one layer up, in the
/// [`Ticket`](crate::worker::Ticket)'s own result.
pub type ShardResult = Result<ShardResponse, CcError>;
