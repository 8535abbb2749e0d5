//! Remote-shard quickstart: the same cluster calls, but every shard sits
//! behind the length-prefixed-frame TCP transport.
//!
//! The cluster below runs its shards behind loopback sockets: each shard
//! gets a `TcpShardServer` loop in front of its worker pool, and the
//! coordinator reaches it through a multiplexed frame connection. Nothing
//! else changes — `execute_single`, `execute_multi`, and the workloads are
//! transport-agnostic because the shard boundary is a serializable
//! `ShardRequest`, never a closure.
//!
//! The second half of the demo drives one standalone shard server manually
//! — the deployment shape for running a shard in a separate process.
//!
//! ```text
//! cargo run --release --example remote_shard
//! ```

use std::sync::Arc;
use std::time::Duration;
use tebaldi_suite::cc::{AccessMode, CcKind, CcTreeSpec, ProcedureInfo, ProcedureSet};
use tebaldi_suite::cluster::{
    procs, Cluster, ClusterConfig, ShardRequest, ShardResponse, ShardTransport, ShardWorkers,
    TcpShardServer, TcpTransport, TransportKind,
};
use tebaldi_suite::core::{Database, DbConfig, ProcRegistry, ProcedureCall};
use tebaldi_suite::obs::MetricsRegistry;
use tebaldi_suite::storage::{Key, TableId, TxnTypeId, Value};

const ACCOUNTS: TableId = TableId(0);
const TRANSFER: TxnTypeId = TxnTypeId(0);

fn procedures() -> ProcedureSet {
    let mut set = ProcedureSet::new();
    set.insert(ProcedureInfo::new(
        TRANSFER,
        "transfer",
        vec![(ACCOUNTS, AccessMode::Write)],
    ));
    set
}

fn main() {
    // --- A whole cluster over TCP -----------------------------------------
    let mut config = ClusterConfig::for_tests(2);
    config.transport = TransportKind::Tcp;
    let cluster = Arc::new(
        Cluster::builder(config)
            .procedures(procedures())
            .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TRANSFER]))
            .build()
            .expect("cluster build"),
    );
    for account in 0..8u64 {
        cluster.load(account, Key::simple(ACCOUNTS, account), Value::Int(1_000));
    }

    // A cross-shard transfer: prepares, the durable decision, and both
    // commits all travel as frames over loopback sockets.
    let values = cluster
        .execute_multi(vec![
            procs::increment_part(
                cluster.shard_of(1),
                ProcedureCall::new(TRANSFER),
                Key::simple(ACCOUNTS, 1),
                0,
                -250,
            ),
            procs::increment_part(
                cluster.shard_of(2),
                ProcedureCall::new(TRANSFER),
                Key::simple(ACCOUNTS, 2),
                0,
                250,
            ),
        ])
        .expect("cross-shard transfer over TCP");
    let stats = cluster.stats();
    println!("2PC over TCP committed: balances {values:?}");
    println!(
        "wire traffic: {} messages, {} bytes (prepares + decision acks)",
        stats.messages_sent, stats.bytes_on_wire
    );
    assert!(stats.messages_sent > 0 && stats.bytes_on_wire > 0);
    cluster.shutdown();

    // --- One standalone shard server --------------------------------------
    // The per-process deployment shape: build a shard (database + worker
    // pool + procedure registry), put a TcpShardServer in front of it, and
    // talk to it from a frame client that knows only its address.
    let db = Arc::new(
        Database::builder(DbConfig::for_tests())
            .procedures(procedures())
            .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TRANSFER]))
            .build()
            .expect("shard build"),
    );
    db.load(Key::simple(ACCOUNTS, 0), Value::Int(10));
    let mut registry = ProcRegistry::new();
    procs::register_builtins(&mut registry);
    // One in-flight window end to end: the shard's pipeline, the server's
    // per-connection admission budget and the client's outstanding requests.
    const WINDOW: usize = 32;
    let workers = ShardWorkers::spawn(0, Arc::clone(&db), 2, Arc::new(registry), WINDOW, None);
    let server = TcpShardServer::spawn(0, Arc::clone(&workers), WINDOW).expect("shard server");
    println!("standalone shard serving at {}", server.addr());

    let client_metrics = MetricsRegistry::new();
    let client = TcpTransport::connect(
        &[server.addr()],
        WINDOW,
        Duration::from_secs(10),
        &client_metrics,
    )
    .expect("connect");
    let reply = client
        .call(
            0,
            ShardRequest::Execute {
                proc: procs::KV_INCREMENT,
                call: ProcedureCall::new(TRANSFER),
                args: procs::increment_args(Key::simple(ACCOUNTS, 0), 0, 32),
                max_attempts: 5,
                trace: tebaldi_suite::obs::TraceCtx::NONE,
            },
        )
        .expect("remote execute");
    println!("remote increment reply: {reply:?}");
    match client
        .call(0, ShardRequest::Metrics)
        .expect("remote metrics")
    {
        ShardResponse::Metrics(metrics) => println!(
            "remote shard metrics: {} counters, {} histograms",
            metrics.counters.len(),
            metrics.histograms.len()
        ),
        other => panic!("unexpected reply {other:?}"),
    }

    client.shutdown();
    server.shutdown();
    workers.shutdown();
    db.shutdown();
}
