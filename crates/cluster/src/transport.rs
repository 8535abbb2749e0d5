//! Pluggable shard transports.
//!
//! The cluster never talks to a shard directly: every operation is a
//! [`ShardRequest`] handed to a [`ShardTransport`]. Two implementations
//! ship:
//!
//! * [`InProcessTransport`] — the zero-copy fast path over the shard
//!   worker mailboxes. `Execute` calls run inline on the calling thread
//!   (exactly the pre-transport behavior of `Cluster::execute_single`),
//!   decisions apply inline, asynchronous submissions go through the
//!   batched mailbox. Nothing is serialized, so nothing is counted under
//!   `transport.*`.
//! * [`crate::tcp::TcpTransport`] — length-prefixed frames over
//!   loopback/network sockets, one multiplexed connection per shard, with
//!   a per-shard server loop (`crate::tcp::TcpShardServer`) in front of
//!   the same worker pools. It counts `transport.messages_sent`,
//!   `transport.bytes_on_wire` and `transport.reconnects` into the metrics
//!   registry it is built with.
//!
//! Everything above the trait — `Cluster::execute_multi`, the 2PC
//! coordinator, both cluster workloads — is transport-agnostic.

use crate::api::{ShardRequest, ShardResult};
use crate::worker::{ShardWorkers, Ticket};
use std::sync::Arc;
use tebaldi_cc::{CcError, CcResult};
use tebaldi_obs::MetricsRegistry;

/// Which transport a [`crate::ClusterConfig`] selects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// Shard worker mailboxes in the coordinator's address space.
    InProcess,
    /// Length-prefixed frames over TCP loopback sockets, one server loop
    /// per shard.
    Tcp,
}

/// A connection to the cluster's shards.
pub trait ShardTransport: Send + Sync {
    /// Number of reachable shards.
    fn shard_count(&self) -> usize;

    /// Sends `request` to `shard` and returns a ticket for the reply.
    /// Body-running requests execute asynchronously; decisions and admin
    /// ops may resolve synchronously (the returned ticket is then already
    /// ready).
    fn submit(&self, shard: usize, request: ShardRequest) -> Ticket<ShardResult>;

    /// Synchronous request/reply. Transports may execute inline on the
    /// calling thread (the in-process fast path does, for `Execute`).
    fn call(&self, shard: usize, request: ShardRequest) -> ShardResult {
        match self.submit(shard, request).wait() {
            Ok(result) => result,
            Err(err) => Err(err),
        }
    }

    /// Whether [`ShardTransport::call`] runs the request inline on the
    /// calling thread (no mailbox hop, cannot stall on a lost reply).
    /// Latency-sensitive lock-free paths — snapshot reads — use this to
    /// skip the ticket machinery; the default is conservative because the
    /// generic `call` waits unboundedly on a submitted ticket, which a
    /// fault-injecting or wire transport may never resolve.
    fn call_is_inline(&self) -> bool {
        false
    }

    /// Whether [`ShardTransport::repoint`] can succeed — checked before a
    /// failover stops the old primary, so an unsupporting transport fails
    /// the promotion closed instead of half-way.
    fn supports_repoint(&self) -> bool {
        false
    }

    /// Redirects `shard`'s traffic to a new endpoint (failover installing
    /// a promoted backup). Returns `false` when the transport cannot
    /// repoint — the in-process transport holds direct worker handles, so
    /// only addressed transports (TCP) support promotion.
    fn repoint(&self, _shard: usize, _addr: std::net::SocketAddr) -> bool {
        false
    }

    /// Tears the transport down (closes sockets, joins I/O threads).
    /// Idempotent; called before the shard worker pools stop.
    fn shutdown(&self) {}
}

/// Builds a transport over already-spawned shard worker pools, counting
/// into the cluster's metrics registry. The [`crate::ClusterBuilder`]
/// applies this after it has created the shards; tests inject custom
/// factories to wrap or replace the default transports (e.g. to delay
/// decision acks).
pub type TransportFactory = Box<
    dyn FnOnce(&[Arc<ShardWorkers>], &MetricsRegistry) -> Result<Arc<dyn ShardTransport>, String>,
>;

/// The in-process transport: requests are enum values handed straight to
/// the shard worker pools, no serialization.
pub struct InProcessTransport {
    shards: Vec<Arc<ShardWorkers>>,
}

impl InProcessTransport {
    /// Wraps the given worker pools.
    pub fn new(shards: Vec<Arc<ShardWorkers>>) -> Self {
        InProcessTransport { shards }
    }

    fn shard(&self, shard: usize) -> CcResult<&Arc<ShardWorkers>> {
        self.shards.get(shard).ok_or_else(|| {
            CcError::Internal(format!(
                "request targets shard {shard}, but the transport reaches {}",
                self.shards.len()
            ))
        })
    }
}

impl ShardTransport for InProcessTransport {
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn submit(&self, shard: usize, request: ShardRequest) -> Ticket<ShardResult> {
        let workers = match self.shard(shard) {
            Ok(workers) => workers,
            Err(err) => return Ticket::ready(Err(err)),
        };
        if request.runs_body() {
            let (tx, ticket) = Ticket::pending();
            workers.submit_request(
                request,
                Box::new(move |result| {
                    let _ = tx.send(result);
                }),
            );
            ticket
        } else {
            // Decisions and admin ops apply inline on the calling thread:
            // queuing a decision behind mailbox work would stretch the
            // prepared-lock window.
            Ticket::ready(workers.handle_inline(request))
        }
    }

    fn call(&self, shard: usize, request: ShardRequest) -> ShardResult {
        // Zero-copy fast path: run the request inline on the calling
        // thread (single-shard executions bypass the mailbox hop exactly
        // as they did before the transport existed).
        self.shard(shard)?.handle_inline(request)
    }

    fn call_is_inline(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ShardResponse;
    use tebaldi_cc::{AccessMode, CcKind, CcTreeSpec, ProcedureInfo, ProcedureSet};
    use tebaldi_core::{Database, DbConfig, ProcId, ProcRegistry, ProcedureCall};
    use tebaldi_storage::{Key, TableId, TxnTypeId, Value};

    const TABLE: TableId = TableId(0);
    const TY: TxnTypeId = TxnTypeId(0);
    const BUMP: ProcId = ProcId(1);

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
        ShardWorkers::spawn(0, db, 2, Arc::new(reg), 8)
    }

    #[test]
    fn in_process_calls_and_submits() {
        let workers = pool();
        let transport = InProcessTransport::new(vec![Arc::clone(&workers)]);
        let execute = || ShardRequest::Execute {
            proc: BUMP,
            call: ProcedureCall::new(TY),
            args: Vec::new(),
            max_attempts: 10,
            trace: tebaldi_obs::TraceCtx::NONE,
        };
        // Inline call.
        let (value, _) = transport
            .call(0, execute())
            .unwrap()
            .into_executed()
            .unwrap();
        assert_eq!(value, Value::Int(1));
        // Mailbox submission.
        let ticket = transport.submit(0, execute());
        let (value, _) = ticket.wait().unwrap().unwrap().into_executed().unwrap();
        assert_eq!(value, Value::Int(2));
        // Admin ops resolve synchronously.
        let ticket = transport.submit(0, ShardRequest::Metrics);
        assert!(matches!(
            ticket.wait().unwrap().unwrap(),
            ShardResponse::Metrics(_)
        ));
        assert_eq!(
            transport.call(0, ShardRequest::Flush),
            Ok(ShardResponse::Flushed)
        );
        // Out-of-range shard is a clean error.
        assert!(transport.call(9, ShardRequest::Flush).is_err());
        workers.shutdown();
    }
}
