//! Cluster quickstart: a 4-shard federation executing single-shard
//! transactions on the fast path and a cross-shard transfer through the
//! two-phase-commit coordinator.
//!
//! Every shard interaction is *data*: a registered procedure id plus an
//! encoded argument buffer ships over the shard transport (the in-process
//! mailbox here; see `remote_shard.rs` for the same calls over TCP).
//!
//! ```text
//! cargo run --release --example cluster_quickstart
//! ```

use std::sync::Arc;
use tebaldi_suite::cc::{AccessMode, CcKind, CcTreeSpec, ProcedureInfo, ProcedureSet};
use tebaldi_suite::cluster::{procs, BatchTxn, Cluster, ClusterConfig};
use tebaldi_suite::core::{ProcId, ProcedureCall};
use tebaldi_suite::storage::codec::ByteReader;
use tebaldi_suite::storage::{Key, TableId, TxnTypeId, Value};

const ACCOUNTS: TableId = TableId(0);
const TRANSFER: TxnTypeId = TxnTypeId(0);
const N_ACCOUNTS: u64 = 64;

/// A workload-registered procedure: a same-shard transfer (two increments
/// in one transaction body). Registered once at cluster setup; invocations
/// only ship its id and arguments.
const LOCAL_TRANSFER: ProcId = ProcId(1);

fn main() {
    // Describe the workload: one transaction type writing the accounts
    // table. The same procedure set (and CC tree) is installed per shard.
    let mut procedures = ProcedureSet::new();
    procedures.insert(ProcedureInfo::new(
        TRANSFER,
        "transfer",
        vec![(ACCOUNTS, AccessMode::Write)],
    ));

    // Four shards, each a full Tebaldi database with its own 2PL tree;
    // account ids are the partition keys (modulo routing). The transaction
    // bodies are registered here — the shard boundary itself only ever
    // sees serializable ShardRequest values.
    // Durability on: prepares and commits harden WAL records, so the
    // prepare pipeline (batch section below) has real flushes to defer.
    let mut config = ClusterConfig::for_tests(4);
    config.db_config.durability = tebaldi_suite::core::DurabilityMode::Synchronous;
    let cluster = Arc::new(
        Cluster::builder(config)
            .procedures(procedures)
            .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TRANSFER]))
            .shard_procedure(LOCAL_TRANSFER, |txn, args| {
                let mut r = ByteReader::new(args);
                let decode = |e: tebaldi_suite::storage::codec::CodecError| {
                    tebaldi_suite::cc::CcError::Internal(e.to_string())
                };
                let from = r.u64().map_err(decode)?;
                let to = r.u64().map_err(decode)?;
                let amount = r.i64().map_err(decode)?;
                txn.increment(Key::simple(ACCOUNTS, from), 0, -amount)?;
                txn.increment(Key::simple(ACCOUNTS, to), 0, amount)
                    .map(Value::Int)
            })
            .build()
            .expect("cluster build"),
    );
    for account in 0..N_ACCOUNTS {
        cluster.load(account, Key::simple(ACCOUNTS, account), Value::Int(1_000));
    }
    println!(
        "built a {}-shard cluster; account 7 lives on shard {}",
        cluster.shard_count(),
        cluster.shard_of(7),
    );

    // --- Single-shard fast path -------------------------------------------
    // Accounts 8 and 12 both map to shard 0: the call delegates straight to
    // that shard's existing four-phase protocol, no coordination involved.
    assert!(cluster.classify([8u64, 12u64]).is_single());
    let shard = cluster.shard_of(8);
    let mut args = tebaldi_suite::storage::codec::ByteWriter::new();
    args.put_u64(8);
    args.put_u64(12);
    args.put_i64(50);
    let (balance, _aborts) = cluster
        .execute_single(
            shard,
            LOCAL_TRANSFER,
            &ProcedureCall::new(TRANSFER),
            args.into_bytes(),
            10,
        )
        .expect("single-shard transfer");
    println!(
        "single-shard transfer on shard {shard}: account 12 now {:?}",
        balance
    );

    // --- Cross-shard two-phase commit -------------------------------------
    // Accounts 1 and 2 live on different shards: the debit and the credit
    // prepare on their shards in parallel, the coordinator logs the commit
    // decision durably, then both shards commit. The builtin KV increment
    // procedure turns each leg into a pure-data part.
    let routing = cluster.classify([1u64, 2u64]);
    println!("accounts 1 and 2 route as {routing:?}");
    let values = cluster
        .execute_multi(vec![
            procs::increment_part(
                cluster.shard_of(1),
                ProcedureCall::new(TRANSFER),
                Key::simple(ACCOUNTS, 1),
                0,
                -200,
            ),
            procs::increment_part(
                cluster.shard_of(2),
                ProcedureCall::new(TRANSFER),
                Key::simple(ACCOUNTS, 2),
                0,
                200,
            ),
        ])
        .expect("cross-shard transfer");
    println!("cross-shard transfer committed: balances {values:?}");

    // --- Pipelined phase one across a batch of 2PC transactions -----------
    // One thread submits every transaction's prepares before collecting any
    // vote: the shards keep many prepare bodies in flight at once (bounded
    // by `ClusterConfig::max_inflight_per_shard`), hardening their WAL
    // records in batches through each shard's completion loop.
    let batch: Vec<_> = (0..6u64)
        .map(|i| {
            let from = (2 * i + 1) % N_ACCOUNTS;
            let to = (2 * i + 2) % N_ACCOUNTS;
            BatchTxn::undeclared(vec![
                procs::increment_part(
                    cluster.shard_of(from),
                    ProcedureCall::new(TRANSFER),
                    Key::simple(ACCOUNTS, from),
                    0,
                    -10,
                ),
                procs::increment_part(
                    cluster.shard_of(to),
                    ProcedureCall::new(TRANSFER),
                    Key::simple(ACCOUNTS, to),
                    0,
                    10,
                ),
            ])
        })
        .collect();
    let batch_len = batch.len();
    let results = cluster.execute_multi_batch_declared(batch);
    let batch_committed = results.iter().filter(|r| r.is_ok()).count();
    println!(
        "batched 2PC: {batch_committed}/{batch_len} transfers committed with overlapped phase one \
         (peak pipeline depth {})",
        cluster.stats().max_pipeline_depth
    );
    assert_eq!(batch_committed, batch_len);

    // Global invariant: every transfer conserved the total balance.
    let mut total = 0i64;
    for account in 0..N_ACCOUNTS {
        total += cluster
            .shard(cluster.shard_of(account))
            .store()
            .read(
                &Key::simple(ACCOUNTS, account),
                tebaldi_suite::storage::ReadSpec::LatestCommitted,
            )
            .and_then(|v| v.as_int())
            .unwrap_or(0);
    }
    println!("total balance: {total}");
    assert_eq!(total, 1_000 * N_ACCOUNTS as i64);

    let stats = cluster.stats();
    println!(
        "cluster stats: {} committed, {} single-shard calls, {} multi-shard 2PC",
        stats.committed, stats.single_shard, stats.multi_shard
    );
    cluster.shutdown();
}
