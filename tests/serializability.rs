//! Cross-crate serializability tests.
//!
//! Every CC-tree configuration must produce serializable executions
//! (Definition 4.2.1 + consistent ordering). These tests run a concurrent
//! bank-transfer workload under each configuration with history recording
//! enabled and feed the recorded history through the Adya DSG oracle
//! (§2.2.3): no cycle, no aborted read — and the application-level invariant
//! (total balance conserved) must hold.

use std::sync::Arc;
use tebaldi_suite::cc::dsg;
use tebaldi_suite::cc::{AccessMode, CcKind, CcNodeSpec, CcTreeSpec, ProcedureInfo, ProcedureSet};
use tebaldi_suite::core::{Database, DbConfig, ProcedureCall};
use tebaldi_suite::storage::{Key, ReadSpec, TableId, TxnTypeId, Value};

const ACCOUNTS_TABLE: TableId = TableId(0);
const AUDIT_TABLE: TableId = TableId(1);
const TRANSFER: TxnTypeId = TxnTypeId(0);
const AUDIT: TxnTypeId = TxnTypeId(1);
/// A second writer type running the same transfer body, so a spec can put
/// writers in two sibling leaves.
const TRANSFER_B: TxnTypeId = TxnTypeId(2);
const N_ACCOUNTS: u64 = 16;
const INITIAL_BALANCE: i64 = 1_000;

fn procedures() -> ProcedureSet {
    let mut set = ProcedureSet::new();
    for (ty, name) in [(TRANSFER, "transfer"), (TRANSFER_B, "transfer_b")] {
        set.insert(ProcedureInfo::new(
            ty,
            name,
            vec![
                (ACCOUNTS_TABLE, AccessMode::Write),
                (AUDIT_TABLE, AccessMode::Write),
            ],
        ));
    }
    set.insert(ProcedureInfo::new(
        AUDIT,
        "audit",
        vec![(ACCOUNTS_TABLE, AccessMode::Read)],
    ));
    set
}

fn build_db(spec: CcTreeSpec) -> Arc<Database> {
    let db = Arc::new(
        Database::builder(DbConfig::for_tests())
            .procedures(procedures())
            .cc_spec(spec)
            .build()
            .unwrap(),
    );
    for account in 0..N_ACCOUNTS {
        db.load(
            Key::simple(ACCOUNTS_TABLE, account),
            Value::Int(INITIAL_BALANCE),
        );
    }
    db.load(Key::simple(AUDIT_TABLE, 0), Value::Int(0));
    db
}

/// What each worker iteration of [`run_and_check`] runs.
#[derive(Clone, Copy)]
enum Mix {
    /// 80% transfers between random accounts, 20% full-table audits.
    TransfersAndAudits,
    /// Transfers only, `to = from + 1` over the first two accounts: every
    /// pair of concurrent transfers touches the same two rows in opposite
    /// order (the shape that once lost updates under SSI over RP).
    AdjacentTransfers,
    /// `TransfersAndAudits` with every transfer typed `TRANSFER` or
    /// `TRANSFER_B` at random: with the two types in sibling leaves, reads
    /// cross writer groups.
    SplitTransfers,
}

/// Runs `threads` workers each performing `iterations` transactions drawn
/// from `mix`, then checks the DSG and the balance invariant.
fn run_and_check(spec: CcTreeSpec, threads: usize, iterations: usize, mix: Mix) {
    let label = format!("{} threads, {}", threads, spec.describe());
    let db = build_db(spec);
    // (audit txn id, observed total) of any committed audit that saw a
    // non-conserved total; reported together with the DSG verdict below so a
    // failure identifies its configuration.
    let bad_audits: Arc<parking_lot::Mutex<Vec<(u64, i64)>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for worker in 0..threads {
        let db = Arc::clone(&db);
        let bad_audits = Arc::clone(&bad_audits);
        handles.push(std::thread::spawn(move || {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(worker as u64 + 1);
            for _ in 0..iterations {
                let transfer = match mix {
                    Mix::TransfersAndAudits | Mix::SplitTransfers => rng.gen_bool(0.8).then(|| {
                        let from = rng.gen_range(0..N_ACCOUNTS);
                        let mut to = rng.gen_range(0..N_ACCOUNTS);
                        if to == from {
                            to = (to + 1) % N_ACCOUNTS;
                        }
                        (from, to)
                    }),
                    Mix::AdjacentTransfers => {
                        let from = rng.gen_range(0..2);
                        Some((from, (from + 1) % 2))
                    }
                };
                if let Some((from, to)) = transfer {
                    let amount = rng.gen_range(1..20);
                    let ty = match mix {
                        Mix::SplitTransfers if rng.gen_bool(0.5) => TRANSFER_B,
                        _ => TRANSFER,
                    };
                    let call = ProcedureCall::new(ty).with_instance_seed(from);
                    let _ = db.execute_with_retry(&call, 30, |txn| {
                        txn.increment(Key::simple(ACCOUNTS_TABLE, from), 0, -amount)?;
                        txn.increment(Key::simple(ACCOUNTS_TABLE, to), 0, amount)?;
                        txn.increment(Key::simple(AUDIT_TABLE, 0), 0, 1)?;
                        Ok(())
                    });
                } else {
                    let call = ProcedureCall::new(AUDIT);
                    let mut audit_txn = 0u64;
                    let observed = db.execute_with_retry(&call, 30, |txn| {
                        audit_txn = txn.id().0;
                        let mut total = 0i64;
                        for account in 0..N_ACCOUNTS {
                            total += txn
                                .get(Key::simple(ACCOUNTS_TABLE, account))?
                                .and_then(|v| v.as_int())
                                .unwrap_or(0);
                        }
                        Ok(total)
                    });
                    // Serializable isolation: a *committed* audit must have
                    // seen a conserved total. (Mid-flight reads may observe
                    // intermediate state under RP/TSO, but those attempts
                    // must then abort, so only committed results count.)
                    if let Ok((total, _)) = observed {
                        if total != INITIAL_BALANCE * N_ACCOUNTS as i64 {
                            bad_audits.lock().push((audit_txn, total));
                        }
                    }
                }
            }
        }));
    }
    for handle in handles {
        handle.join().expect("worker panicked");
    }

    // DSG oracle first: when something goes wrong the cycle (with its
    // transaction ids) is the most useful diagnostic.
    let history = db.take_history().expect("history recording enabled");
    assert!(history.committed_count() > 0);
    let report = dsg::check(&history);
    if !report.serializable {
        // Dump the full record of every transaction on the cycle so a rare
        // failure is diagnosable from the log alone.
        let cycle_txns: Vec<_> = report.cycle.clone().unwrap_or_default();
        for txn in &cycle_txns {
            if let Some(rec) = history.get(*txn) {
                eprintln!(
                    "cycle member {:?}: ty={:?} group={:?} commit_ts={:?} reads={:?} writes={:?}",
                    rec.txn,
                    rec.ty,
                    rec.group,
                    rec.commit_ts,
                    rec.reads
                        .iter()
                        .map(|r| (r.key, r.from))
                        .collect::<Vec<_>>(),
                    rec.writes
                );
            }
        }
        panic!(
            "[{label}] non-serializable execution: cycle={:?} edges={:?} aborted_reads={:?}",
            report.cycle, report.cycle_edges, report.aborted_reads
        );
    }

    // Final state invariant.
    let mut total = 0i64;
    let mut per_account = Vec::new();
    for account in 0..N_ACCOUNTS {
        let v = db
            .store()
            .read(
                &Key::simple(ACCOUNTS_TABLE, account),
                ReadSpec::LatestCommitted,
            )
            .and_then(|v| v.as_int())
            .unwrap_or(0);
        per_account.push((account, v));
        total += v;
    }
    assert_eq!(
        total,
        INITIAL_BALANCE * N_ACCOUNTS as i64,
        "[{label}] final balances not conserved: {per_account:?}"
    );
    let bad = bad_audits.lock();
    assert!(
        bad.is_empty(),
        "[{label}] committed audits observed non-serializable totals: {:?} \
         (per-audit reads: {:?})",
        *bad,
        bad.iter()
            .map(
                |(txn, _)| history.get(tebaldi_suite::storage::TxnId(*txn)).map(|t| t
                    .reads
                    .iter()
                    .map(|r| (r.key, r.from))
                    .collect::<Vec<_>>())
            )
            .collect::<Vec<_>>()
    );
    db.shutdown();
}

fn two_group_spec(leaf_kind: CcKind, cross: CcKind) -> CcTreeSpec {
    CcTreeSpec::new(CcNodeSpec::inner(
        cross,
        "root",
        vec![
            CcNodeSpec::leaf(leaf_kind, "transfers", vec![TRANSFER]),
            CcNodeSpec::leaf(CcKind::NoCc, "audits", vec![AUDIT]),
        ],
    ))
}

#[test]
fn monolithic_2pl_is_serializable() {
    run_and_check(
        CcTreeSpec::monolithic(CcKind::TwoPl, vec![TRANSFER, AUDIT]),
        4,
        120,
        Mix::TransfersAndAudits,
    );
}

/// Twenty rounds at one and at four threads: SSI keeps its anti-dependency
/// flags in per-transaction atomic words and a striped reader table, so its
/// decisions are only as good as their interleavings — every round is a new
/// one, each checked by the DSG oracle and the conservation invariant.
#[test]
fn monolithic_ssi_is_serializable() {
    for _round in 0..20 {
        for threads in [1, 4] {
            run_and_check(
                CcTreeSpec::monolithic(CcKind::Ssi, vec![TRANSFER, AUDIT]),
                threads,
                120,
                Mix::TransfersAndAudits,
            );
        }
    }
}

#[test]
fn monolithic_tso_is_serializable() {
    run_and_check(
        CcTreeSpec::monolithic(CcKind::Tso, vec![TRANSFER, AUDIT]),
        4,
        120,
        Mix::TransfersAndAudits,
    );
}

#[test]
fn ssi_over_rp_hierarchy_is_serializable() {
    let spec = two_group_spec(CcKind::Rp, CcKind::Ssi);
    run_and_check(spec.clone(), 4, 120, Mix::TransfersAndAudits);
    run_and_check(spec, 4, 120, Mix::AdjacentTransfers);
}

#[test]
fn ssi_over_2pl_hierarchy_is_serializable() {
    run_and_check(
        two_group_spec(CcKind::TwoPl, CcKind::Ssi),
        4,
        120,
        Mix::TransfersAndAudits,
    );
}

#[test]
fn twopl_over_tso_hierarchy_is_serializable() {
    run_and_check(
        two_group_spec(CcKind::Tso, CcKind::TwoPl),
        4,
        120,
        Mix::TransfersAndAudits,
    );
}

#[test]
fn ssi_over_2pl_over_tso_is_serializable() {
    // Same shape as the three-layer test but without instance partitioning:
    // SSI(root) -> [NoCC audits, 2PL -> [TSO transfers]]
    let spec = CcTreeSpec::new(CcNodeSpec::inner(
        CcKind::Ssi,
        "root",
        vec![
            CcNodeSpec::leaf(CcKind::NoCc, "audits", vec![AUDIT]),
            CcNodeSpec::inner(
                CcKind::TwoPl,
                "updates",
                vec![CcNodeSpec::leaf(CcKind::Tso, "transfers", vec![TRANSFER])],
            ),
        ],
    ));
    run_and_check(spec, 4, 120, Mix::TransfersAndAudits);
}

#[test]
fn twopl_over_tso_by_instance_is_serializable() {
    // 2PL(root) -> [NoCC audits, TSO partitioned into 4 instance groups]
    let spec = CcTreeSpec::new(CcNodeSpec::inner(
        CcKind::TwoPl,
        "root",
        vec![
            CcNodeSpec::leaf(CcKind::NoCc, "audits", vec![AUDIT]),
            CcNodeSpec::leaf_by_instance(CcKind::Tso, "transfers", vec![TRANSFER], 4),
        ],
    ));
    run_and_check(spec, 4, 120, Mix::TransfersAndAudits);
}

#[test]
fn three_layer_hierarchy_is_serializable() {
    // SSI(root) -> [NoCC audits, 2PL -> [RP transfers-a, TSO per-instance]]
    let spec = CcTreeSpec::new(CcNodeSpec::inner(
        CcKind::Ssi,
        "root",
        vec![
            CcNodeSpec::leaf(CcKind::NoCc, "audits", vec![AUDIT]),
            CcNodeSpec::inner(
                CcKind::TwoPl,
                "updates",
                vec![CcNodeSpec::leaf_by_instance(
                    CcKind::Tso,
                    "transfers",
                    vec![TRANSFER],
                    4,
                )],
            ),
        ],
    ));
    run_and_check(spec, 4, 120, Mix::TransfersAndAudits);
}

// ---------------------------------------------------------------------------
// Reads that cross sibling writer groups
// ---------------------------------------------------------------------------

/// The writers split over two sibling leaves of kind `leaf`: the smallest
/// shape in which a read at one leaf must see a version its *sibling*
/// committed. (Above, only the instance-partitioned TSO specs have more than
/// one writer leaf.)
fn writer_leaves(leaf: CcKind) -> Vec<CcNodeSpec> {
    vec![
        CcNodeSpec::leaf(leaf, "transfers-a", vec![TRANSFER]),
        CcNodeSpec::leaf(leaf, "transfers-b", vec![TRANSFER_B]),
    ]
}

/// One client (A writes x, B writes x, A reads x: no concurrency needed),
/// then four.
fn check_split_transfers(spec: CcTreeSpec) {
    run_and_check(spec.clone(), 1, 300, Mix::SplitTransfers);
    run_and_check(spec, 4, 120, Mix::SplitTransfers);
}

/// `parent` over the two writer leaves and the read-only audits.
fn check_sibling_writers(parent: CcKind, leaf: CcKind) {
    let mut children = writer_leaves(leaf);
    children.push(CcNodeSpec::leaf(CcKind::NoCc, "audits", vec![AUDIT]));
    check_split_transfers(CcTreeSpec::new(CcNodeSpec::inner(parent, "root", children)));
}

#[test]
fn twopl_over_sibling_rp_writers_is_serializable() {
    check_sibling_writers(CcKind::TwoPl, CcKind::Rp);
}

#[test]
fn twopl_over_sibling_tso_writers_is_serializable() {
    check_sibling_writers(CcKind::TwoPl, CcKind::Tso);
}

#[test]
fn twopl_over_sibling_2pl_writers_is_serializable() {
    check_sibling_writers(CcKind::TwoPl, CcKind::TwoPl);
}

#[test]
fn ssi_over_sibling_rp_writers_is_serializable() {
    check_sibling_writers(CcKind::Ssi, CcKind::Rp);
}

#[test]
fn ssi_over_sibling_tso_writers_is_serializable() {
    check_sibling_writers(CcKind::Ssi, CcKind::Tso);
}

#[test]
fn ssi_over_sibling_2pl_writers_is_serializable() {
    check_sibling_writers(CcKind::Ssi, CcKind::TwoPl);
}

#[test]
fn ssi_over_2pl_over_sibling_rp_writers_is_serializable() {
    // The paper's three-layer shape: SSI(root) -> [NoCC audits, 2PL -> [RP, RP]]
    let spec = CcTreeSpec::new(CcNodeSpec::inner(
        CcKind::Ssi,
        "root",
        vec![
            CcNodeSpec::leaf(CcKind::NoCc, "audits", vec![AUDIT]),
            CcNodeSpec::inner(CcKind::TwoPl, "updates", writer_leaves(CcKind::Rp)),
        ],
    ));
    check_split_transfers(spec);
}

/// One TPC-C client on the paper's trees with a 2PL node over several RP
/// leaves: `new_order` and `payment` run in one leaf, `delivery` in its
/// sibling, and both rewrite the district row. A leaf that reads its own
/// group's older version writes a district counter backwards.
#[test]
fn one_client_tpcc_never_moves_a_district_counter_backwards() {
    use rand::SeedableRng;
    use tebaldi_suite::workloads::tpcc::schema::{types, TpccParams};
    use tebaldi_suite::workloads::tpcc::transactions::district_fields;
    use tebaldi_suite::workloads::tpcc::{configs, Tpcc};
    use tebaldi_suite::workloads::Workload;

    let params = TpccParams::tiny();
    for (label, spec) in [
        ("tebaldi_three_layer", configs::tebaldi_three_layer()),
        ("callas_1", configs::callas_1()),
        ("callas_2", configs::callas_2()),
    ] {
        let workload = Tpcc::new(params).with_mix(vec![
            (types::NEW_ORDER, 0.45),
            (types::PAYMENT, 0.43),
            (types::DELIVERY, 0.12),
        ]);
        let db = Database::builder(DbConfig::for_tests())
            .procedures(workload.procedures())
            .cc_spec(spec)
            .build()
            .unwrap();
        workload.load(&db);
        let counters = |db: &Database| -> Vec<(i64, i64)> {
            (0..params.warehouses)
                .flat_map(|w| (0..params.districts_per_warehouse).map(move |d| (w, d)))
                .map(|(w, d)| {
                    let row = db
                        .store()
                        .read(&workload.keys.district(w, d), ReadSpec::LatestCommitted)
                        .expect("district row");
                    (
                        row.field(district_fields::NEXT_O_ID).unwrap_or(0),
                        row.field(district_fields::NEXT_DELIVERY_O_ID).unwrap_or(0),
                    )
                })
                .collect()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let mut before = counters(&db);
        for unit in 0..400 {
            let outcome = workload.run_once(&db, &mut rng);
            assert!(outcome.committed, "[{label}] unit {unit} failed");
            let after = counters(&db);
            for (district, (b, a)) in before.iter().zip(&after).enumerate() {
                assert!(
                    a.0 >= b.0 && a.1 >= b.1,
                    "[{label}] unit {unit} ({:?}) moved district {district} \
                     (NEXT_O_ID, NEXT_DELIVERY_O_ID) backwards: {b:?} -> {a:?}",
                    outcome.ty
                );
            }
            before = after;
        }
        db.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Cluster: cross-shard two-phase commit
// ---------------------------------------------------------------------------

mod common;

/// Helpers shared by every cluster test group in this file.
mod cluster_common {
    use std::collections::HashMap;
    use tebaldi_suite::cluster::Cluster;
    use tebaldi_suite::storage::wal::LogRecord;
    use tebaldi_suite::storage::TxnId;

    pub use super::common::test_partitioning;

    /// Merges the per-shard histories into one global history: the parts of
    /// a cross-shard transaction (identified through the shards' `Prepare`
    /// WAL records) collapse onto a single DSG node, while local
    /// transactions get shard-disjoint ids. Per-key version orders stay
    /// faithful because every key lives on exactly one shard, so its
    /// writers' commit timestamps all come from that shard's oracle.
    pub fn merged_global_history(cluster: &Cluster) -> tebaldi_suite::cc::history::History {
        const GLOBAL_BASE: u64 = 900_000_000;
        let mut txns = Vec::new();
        for shard in 0..cluster.shard_count() {
            let mut to_global: HashMap<TxnId, u64> = HashMap::new();
            for record in cluster.shard_log(shard).read_back() {
                if let LogRecord::Prepare { txn, global, .. } = record {
                    to_global.insert(txn, global);
                }
            }
            let shard_base = (shard as u64 + 1) * 10_000_000;
            let remap = |txn: TxnId| -> TxnId {
                if txn.is_bootstrap() {
                    txn
                } else if let Some(global) = to_global.get(&txn) {
                    TxnId(GLOBAL_BASE + global)
                } else {
                    TxnId(shard_base + txn.0)
                }
            };
            let history = cluster
                .shard(shard)
                .take_history()
                .expect("history recording enabled");
            for mut record in history.txns {
                record.txn = remap(record.txn);
                for read in &mut record.reads {
                    read.from = remap(read.from);
                }
                txns.push(record);
            }
        }
        tebaldi_suite::cc::history::History { txns }
    }
}

mod cluster_suite {
    use super::cluster_common::{merged_global_history, test_partitioning};
    use super::*;
    use tebaldi_suite::cluster::{procs, recover_cluster, Cluster, ClusterConfig};
    use tebaldi_suite::core::{DurabilityMode, ProcId};
    use tebaldi_suite::storage::codec::{ByteReader, ByteWriter};

    const SHARDS: usize = 4;

    /// Test-registered shard procedure: a same-shard transfer (two
    /// increments in one body). Cross-shard transfers use the builtin KV
    /// increment parts instead.
    const LOCAL_TRANSFER: ProcId = ProcId(900);

    fn local_transfer_args(from: u64, to: u64, amount: i64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(from);
        w.put_u64(to);
        w.put_i64(amount);
        w.into_bytes()
    }

    fn build_cluster_with(kind: CcKind) -> Cluster {
        let mut config = ClusterConfig::for_tests(SHARDS);
        // Synchronous WAL: prepare records double as the local→global id
        // map when merging per-shard histories into one global DSG.
        config.db_config.durability = DurabilityMode::Synchronous;
        config.partitioning = test_partitioning();
        let cluster = Cluster::builder(config)
            .procedures(procedures())
            .cc_spec(CcTreeSpec::monolithic(kind, vec![TRANSFER, AUDIT]))
            .shard_procedure(LOCAL_TRANSFER, |txn, args| {
                let mut r = ByteReader::new(args);
                let decode = |e: tebaldi_suite::storage::codec::CodecError| {
                    tebaldi_suite::cc::CcError::Internal(e.to_string())
                };
                let from = r.u64().map_err(decode)?;
                let to = r.u64().map_err(decode)?;
                let amount = r.i64().map_err(decode)?;
                txn.increment(Key::simple(ACCOUNTS_TABLE, from), 0, -amount)?;
                txn.increment(Key::simple(ACCOUNTS_TABLE, to), 0, amount)
                    .map(Value::Int)
            })
            .build()
            .unwrap();
        for account in 0..N_ACCOUNTS {
            cluster.load(
                account,
                Key::simple(ACCOUNTS_TABLE, account),
                Value::Int(INITIAL_BALANCE),
            );
        }
        cluster
    }

    fn transfer(cluster: &Cluster, from: u64, to: u64, amount: i64) {
        let from_shard = cluster.shard_of(from);
        let to_shard = cluster.shard_of(to);
        if from_shard == to_shard {
            let _ = cluster.execute_single(
                from_shard,
                LOCAL_TRANSFER,
                &ProcedureCall::new(TRANSFER),
                local_transfer_args(from, to, amount),
                30,
            );
            return;
        }
        let _ = cluster.execute_multi_with_retry(30, || {
            vec![
                procs::increment_part(
                    from_shard,
                    ProcedureCall::new(TRANSFER),
                    Key::simple(ACCOUNTS_TABLE, from),
                    0,
                    -amount,
                ),
                procs::increment_part(
                    to_shard,
                    ProcedureCall::new(TRANSFER),
                    Key::simple(ACCOUNTS_TABLE, to),
                    0,
                    amount,
                ),
            ]
        });
    }

    #[test]
    fn concurrent_cross_shard_transfers_yield_acyclic_global_dsg() {
        run_cross_shard_dsg_check(CcKind::TwoPl);
    }

    /// SSI's yes-vote is stabilized at prepare time (a transaction that
    /// would turn a parked prepared transaction into a pivot aborts itself
    /// instead), so optimistic shards must also produce an acyclic global
    /// DSG under concurrent cross-shard traffic.
    #[test]
    fn concurrent_cross_shard_transfers_under_ssi_yield_acyclic_global_dsg() {
        run_cross_shard_dsg_check(CcKind::Ssi);
    }

    fn run_cross_shard_dsg_check(kind: CcKind) {
        let cluster = std::sync::Arc::new(build_cluster_with(kind));
        let mut handles = Vec::new();
        for worker in 0..4u64 {
            let cluster = std::sync::Arc::clone(&cluster);
            handles.push(std::thread::spawn(move || {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(worker + 1);
                for _ in 0..80 {
                    let from = rng.gen_range(0..N_ACCOUNTS);
                    let mut to = rng.gen_range(0..N_ACCOUNTS);
                    if to == from {
                        to = (to + 1) % N_ACCOUNTS;
                    }
                    transfer(&cluster, from, to, rng.gen_range(1..20));
                }
            }));
        }
        for handle in handles {
            handle.join().expect("worker panicked");
        }
        assert_eq!(cluster.in_doubt_count(), 0, "no transaction left parked");
        assert!(
            cluster.stats().multi_shard > 0,
            "the random mix must exercise cross-shard transfers"
        );

        // Global DSG oracle across all shards.
        let history = merged_global_history(&cluster);
        assert!(history.committed_count() > 0);
        let report = dsg::check(&history);
        assert!(
            report.serializable,
            "global execution not serializable: cycle={:?} edges={:?} aborted_reads={:?}",
            report.cycle, report.cycle_edges, report.aborted_reads
        );

        // Atomicity invariant: cross-shard transfers conserve the total.
        let mut total = 0i64;
        for account in 0..N_ACCOUNTS {
            total += cluster
                .shard(cluster.shard_of(account))
                .store()
                .read(
                    &Key::simple(ACCOUNTS_TABLE, account),
                    ReadSpec::LatestCommitted,
                )
                .and_then(|v| v.as_int())
                .unwrap_or(0);
        }
        assert_eq!(total, INITIAL_BALANCE * N_ACCOUNTS as i64);
        cluster.shutdown();
    }

    /// Chain-traversal smoke for the lock-free version store, run under
    /// whichever router leg `TEBALDI_TEST_PARTITIONING` selects (CI runs
    /// both): readers traverse every account's chain continuously — with
    /// zero shard locks — while transfer writers commit and GC cycles
    /// retire versions underneath them. Every observed balance must be a
    /// well-formed committed Int (never a freed slot's garbage), no
    /// traversal may hit a generation-mismatched arena slot, and the
    /// quiescent total must be conserved.
    #[test]
    fn chain_traversal_stays_consistent_under_concurrent_writes_and_gc() {
        let cluster = std::sync::Arc::new(build_cluster_with(CcKind::TwoPl));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut writers = Vec::new();
        for worker in 0..3u64 {
            let cluster = std::sync::Arc::clone(&cluster);
            writers.push(std::thread::spawn(move || {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(worker + 71);
                for _ in 0..60 {
                    let from = rng.gen_range(0..N_ACCOUNTS);
                    let mut to = rng.gen_range(0..N_ACCOUNTS);
                    if to == from {
                        to = (to + 1) % N_ACCOUNTS;
                    }
                    transfer(&cluster, from, to, rng.gen_range(1..10));
                }
            }));
        }
        let mut spinners = Vec::new();
        for _ in 0..2 {
            let cluster = std::sync::Arc::clone(&cluster);
            let stop = std::sync::Arc::clone(&stop);
            spinners.push(std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    for account in 0..N_ACCOUNTS {
                        let observed = cluster
                            .shard(cluster.shard_of(account))
                            .store()
                            .read(
                                &Key::simple(ACCOUNTS_TABLE, account),
                                ReadSpec::LatestCommitted,
                            )
                            .expect("loaded account must always have a committed version");
                        let balance = observed
                            .as_int()
                            .expect("traversal returned a non-Int: freed or torn slot");
                        assert!(
                            balance.abs() < 1_000_000,
                            "balance {balance} outside any reachable range"
                        );
                    }
                }
            }));
        }
        {
            let cluster = std::sync::Arc::clone(&cluster);
            let stop = std::sync::Arc::clone(&stop);
            spinners.push(std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    for shard in 0..cluster.shard_count() {
                        cluster.shard(shard).run_gc_cycle();
                    }
                    std::thread::yield_now();
                }
            }));
        }
        for handle in writers {
            handle.join().expect("writer panicked");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for handle in spinners {
            handle.join().expect("reader or GC thread panicked");
        }
        let mut total = 0i64;
        for account in 0..N_ACCOUNTS {
            total += cluster
                .shard(cluster.shard_of(account))
                .store()
                .read(
                    &Key::simple(ACCOUNTS_TABLE, account),
                    ReadSpec::LatestCommitted,
                )
                .and_then(|v| v.as_int())
                .unwrap_or(0);
        }
        assert_eq!(total, INITIAL_BALANCE * N_ACCOUNTS as i64);
        for shard in 0..cluster.shard_count() {
            assert_eq!(
                cluster.shard(shard).store().gen_mismatches(),
                0,
                "shard {shard} dereferenced a reclaimed slot during traversal"
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn shard_crash_between_prepare_and_commit_resolves_by_decision_log() {
        run_shard_crash_recovery(DurabilityMode::Synchronous);
    }

    /// The same crash under GCP-epoch (asynchronous) flushing with group
    /// commit: prepare records and the coordinator's decision are hardened
    /// synchronously regardless of the policy, so in-doubt resolution must
    /// converge to the identical state.
    #[test]
    fn shard_crash_recovery_converges_under_gcp_epoch_flushing() {
        run_shard_crash_recovery(DurabilityMode::Asynchronous {
            epoch_ms: 3_600_000,
        });
    }

    fn run_shard_crash_recovery(mode: DurabilityMode) {
        let mut config = ClusterConfig::for_tests(SHARDS);
        config.db_config.durability = mode;
        config.partitioning = test_partitioning();
        let cluster = Cluster::builder(config)
            .procedures(procedures())
            .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TRANSFER, AUDIT]))
            .build()
            .unwrap();
        for account in 0..N_ACCOUNTS {
            cluster.load(
                account,
                Key::simple(ACCOUNTS_TABLE, account),
                Value::Int(INITIAL_BALANCE),
            );
        }
        // Harden the initial loads into the recoverable state.
        for account in 0..N_ACCOUNTS {
            let shard = cluster.shard_of(account);
            cluster
                .execute_single(
                    shard,
                    procs::KV_INCREMENT,
                    &ProcedureCall::new(TRANSFER),
                    procs::increment_args(Key::simple(ACCOUNTS_TABLE, account), 0, 0),
                    10,
                )
                .unwrap();
        }
        for shard in 0..SHARDS {
            cluster.shard(shard).durability().seal_current_epoch();
        }

        // Transfer A (decision logged): must commit on recovery. Each
        // account's shard comes from the router, so the scenario holds
        // under both partitioning schemes.
        let decided = cluster.coordinator().begin_global();
        let (_, da) = cluster
            .shard(cluster.shard_of(0))
            .prepare(&ProcedureCall::new(TRANSFER), decided, |txn| {
                txn.increment(Key::simple(ACCOUNTS_TABLE, 0), 0, -100)
            })
            .unwrap();
        let (_, db) = cluster
            .shard(cluster.shard_of(1))
            .prepare(&ProcedureCall::new(TRANSFER), decided, |txn| {
                txn.increment(Key::simple(ACCOUNTS_TABLE, 1), 0, 100)
            })
            .unwrap();
        cluster.coordinator().log_commit(decided, 0);

        // Transfer B (no decision): must roll back on recovery.
        let undecided = cluster.coordinator().begin_global();
        let (_, ua) = cluster
            .shard(cluster.shard_of(2))
            .prepare(&ProcedureCall::new(TRANSFER), undecided, |txn| {
                txn.increment(Key::simple(ACCOUNTS_TABLE, 2), 0, -100)
            })
            .unwrap();
        let (_, ub) = cluster
            .shard(cluster.shard_of(3))
            .prepare(&ProcedureCall::new(TRANSFER), undecided, |txn| {
                txn.increment(Key::simple(ACCOUNTS_TABLE, 3), 0, 100)
            })
            .unwrap();

        // Crash every shard between prepare and decide delivery.
        let logs: Vec<_> = (0..SHARDS).map(|s| cluster.shard_log(s)).collect();
        let decision_log = cluster.coordinator().decision_log();
        std::mem::forget(da);
        std::mem::forget(db);
        std::mem::forget(ua);
        std::mem::forget(ub);

        let recovered = recover_cluster(&logs, decision_log.as_ref(), 4);
        let balance = |shard: usize, account: u64| {
            recovered[shard]
                .0
                .read(
                    &Key::simple(ACCOUNTS_TABLE, account),
                    ReadSpec::LatestCommitted,
                )
                .and_then(|v| v.as_int())
                .unwrap_or(0)
        };
        assert_eq!(
            balance(cluster.shard_of(0), 0),
            INITIAL_BALANCE - 100,
            "decided debit applied"
        );
        assert_eq!(
            balance(cluster.shard_of(1), 1),
            INITIAL_BALANCE + 100,
            "decided credit applied"
        );
        assert_eq!(
            balance(cluster.shard_of(2), 2),
            INITIAL_BALANCE,
            "undecided debit rolled back"
        );
        assert_eq!(
            balance(cluster.shard_of(3), 3),
            INITIAL_BALANCE,
            "undecided credit rolled back"
        );
        let total: i64 = (0..SHARDS as u64)
            .map(|a| balance(cluster.shard_of(a), a))
            .sum();
        assert_eq!(
            total,
            INITIAL_BALANCE * SHARDS as i64,
            "atomicity preserved"
        );
    }
}

// ---------------------------------------------------------------------------
// Cluster: snapshot reads in the global DSG
// ---------------------------------------------------------------------------

/// Property: histories mixing zero-2PC snapshot reads with read-write
/// 2PC traffic stay serializable. Every write carries a globally unique
/// tag, so each value a snapshot read observes identifies its writer;
/// the snapshot reads then join the merged global history as read-only
/// transactions (the wr edges come from the tags, the rw/ww edges from
/// the per-key version orders) and the Adya DSG oracle must find no
/// dangerous structure. A torn read of a cross-shard commit would show
/// up immediately: its parts collapse onto one DSG node, so observing a
/// transaction's write on one shard while missing it on another yields a
/// wr edge into the reader and an rw edge straight back — a cycle.
mod cluster_snapshot_suite {
    use super::cluster_common::merged_global_history;
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use tebaldi_suite::cc::history::{ReadRecord, TxnRecord};
    use tebaldi_suite::cluster::{procs, Cluster, ClusterConfig};
    use tebaldi_suite::core::DurabilityMode;
    use tebaldi_suite::storage::{GroupId, TxnId};

    const SHARDS: usize = 4;
    const KEYS: u64 = 8;

    fn build() -> Cluster {
        let mut config = ClusterConfig::for_tests(SHARDS);
        // Synchronous WAL: prepare records double as the local→global id
        // map when merging per-shard histories into one global DSG.
        config.db_config.durability = DurabilityMode::Synchronous;
        let cluster = Cluster::builder(config)
            .procedures(procedures())
            .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TRANSFER, AUDIT]))
            .build()
            .unwrap();
        for account in 0..KEYS {
            // Negative tags mark bootstrap versions (no DSG writer node).
            cluster.load(
                account,
                Key::simple(ACCOUNTS_TABLE, account),
                Value::Int(-1 - account as i64),
            );
        }
        cluster
    }

    fn acct(account: u64) -> Key {
        Key::simple(ACCOUNTS_TABLE, account)
    }

    /// Runs the tagged writes in program order, returning each key's
    /// committed tags in commit order (one writer thread, so program
    /// order *is* per-key commit order).
    fn run_writes(cluster: &Cluster, ops: &[(u64, u64)]) -> HashMap<Key, Vec<i64>> {
        let mut written: HashMap<Key, Vec<i64>> = HashMap::new();
        for (index, &(a, b_raw)) in ops.iter().enumerate() {
            let b = if b_raw == a {
                (b_raw + 1) % KEYS
            } else {
                b_raw
            };
            let tag_a = (index as i64) * 2 * KEYS as i64 + a as i64;
            let tag_b = (index as i64) * 2 * KEYS as i64 + KEYS as i64 + b as i64;
            let (sa, sb) = (cluster.shard_of(a), cluster.shard_of(b));
            if sa == sb {
                // Same shard: two independent single-shard writes.
                for (account, shard, tag) in [(a, sa, tag_a), (b, sb, tag_b)] {
                    cluster
                        .execute_single(
                            shard,
                            procs::KV_PUT,
                            &ProcedureCall::new(TRANSFER),
                            procs::put_args(acct(account), &Value::Int(tag)),
                            10,
                        )
                        .expect("single-shard put commits");
                    written.entry(acct(account)).or_default().push(tag);
                }
            } else {
                // Cross-shard: both tags commit atomically through 2PC.
                cluster
                    .execute_multi(vec![
                        procs::put_part(
                            sa,
                            ProcedureCall::new(TRANSFER),
                            acct(a),
                            &Value::Int(tag_a),
                        ),
                        procs::put_part(
                            sb,
                            ProcedureCall::new(TRANSFER),
                            acct(b),
                            &Value::Int(tag_b),
                        ),
                    ])
                    .expect("cross-shard put commits: one writer, no conflicts");
                written.entry(acct(a)).or_default().push(tag_a);
                written.entry(acct(b)).or_default().push(tag_b);
            }
        }
        written
    }

    /// Maps each (key, tag) to the merged-history DSG node that wrote it
    /// by aligning the writer thread's per-key commit order with the
    /// history's per-key version order (commit-timestamp order, exactly
    /// as `dsg::build` derives it).
    fn tag_writers(
        history: &tebaldi_suite::cc::history::History,
        written: &HashMap<Key, Vec<i64>>,
    ) -> HashMap<(Key, i64), TxnId> {
        let mut order: HashMap<Key, Vec<(tebaldi_suite::storage::Timestamp, TxnId)>> =
            HashMap::new();
        for txn in history.committed() {
            let ts = txn.commit_ts.expect("committed txns carry a commit ts");
            for key in &txn.writes {
                order.entry(*key).or_default().push((ts, txn.txn));
            }
        }
        let mut writers = HashMap::new();
        for (key, tags) in written {
            let versions = order.entry(*key).or_default();
            versions.sort();
            assert_eq!(
                versions.len(),
                tags.len(),
                "key {key:?}: history writer count must match issued writes"
            );
            for (tag, (_, txn)) in tags.iter().zip(versions.iter()) {
                writers.insert((*key, *tag), *txn);
            }
        }
        writers
    }

    proptest! {
        #[test]
        fn snapshot_reads_merge_into_an_acyclic_global_dsg(
            ops in proptest::collection::vec((0u64..KEYS, 0u64..KEYS), 3..14),
            snapshots in 1usize..4,
        ) {
            let cluster = std::sync::Arc::new(build());
            // Pinned before any write: its cut must stay consistent no
            // matter how late it is read.
            let pinned = cluster.snapshot();
            let all_keys: Vec<(u64, Key)> = (0..KEYS).map(|a| (a, acct(a))).collect();

            let writer = {
                let cluster = std::sync::Arc::clone(&cluster);
                let ops = ops.clone();
                std::thread::spawn(move || run_writes(&cluster, &ops))
            };
            // Snapshot reads race the writer thread.
            let mut observations: Vec<Vec<Option<Value>>> = Vec::new();
            for _ in 0..snapshots {
                observations.push(
                    cluster
                        .snapshot()
                        .read_keyed(all_keys.clone())
                        .expect("snapshot read succeeds"),
                );
            }
            let written = writer.join().expect("writer panicked");
            // The pre-write pin and a post-quiescence snapshot bracket the
            // concurrent ones.
            observations.push(pinned.read_keyed(all_keys.clone()).expect("pinned read"));
            observations.push(
                cluster
                    .snapshot()
                    .read_keyed(all_keys.clone())
                    .expect("quiescent snapshot read"),
            );

            let mut history = merged_global_history(&cluster);
            let writers = tag_writers(&history, &written);
            for (reader, observed) in observations.iter().enumerate() {
                let mut reads = Vec::new();
                for ((_, key), value) in all_keys.iter().zip(observed.iter()) {
                    let tag = value
                        .as_ref()
                        .and_then(|v| v.as_int())
                        .expect("every key was loaded with an Int");
                    let from = if tag < 0 {
                        TxnId::BOOTSTRAP
                    } else {
                        *writers
                            .get(&(*key, tag))
                            .expect("observed tag must belong to an issued write")
                    };
                    reads.push(ReadRecord { key: *key, from });
                }
                history.txns.push(TxnRecord {
                    txn: TxnId(950_000_000 + reader as u64),
                    ty: AUDIT,
                    group: GroupId(0),
                    reads,
                    writes: Vec::new(),
                    committed: true,
                    commit_ts: None,
                });
            }

            let report = dsg::check(&history);
            prop_assert!(
                report.serializable,
                "snapshot reads broke the global DSG: cycle={:?} edges={:?}",
                report.cycle,
                report.cycle_edges
            );
            prop_assert!(cluster.stats().snapshot_reads >= (snapshots + 2) as u64);
            cluster.shutdown();
        }
    }
}

// ---------------------------------------------------------------------------
// Cluster: flight-partitioned SEATS
// ---------------------------------------------------------------------------

mod cluster_seats_suite {
    use super::cluster_common::{merged_global_history, test_partitioning};
    use super::*;
    use tebaldi_suite::cluster::{Cluster, ClusterConfig};
    use tebaldi_suite::core::DurabilityMode;
    use tebaldi_suite::workloads::seats::cluster::ClusterSeats;
    use tebaldi_suite::workloads::seats::{configs, Seats, SeatsParams};
    use tebaldi_suite::workloads::ClusterWorkload;

    const SHARDS: usize = 4;

    fn tiny_params() -> SeatsParams {
        SeatsParams {
            flights: 8,
            seats_per_flight: 48,
            customers: 64,
            open_seat_probes: 6,
        }
    }

    fn build(kind: CcKind, workload: &ClusterSeats) -> Cluster {
        let mut config = ClusterConfig::for_tests(SHARDS);
        // Synchronous WAL: prepare records double as the local→global id
        // map when merging per-shard histories into one global DSG.
        config.db_config.durability = DurabilityMode::Synchronous;
        config.partitioning = test_partitioning();
        let spec = match kind {
            CcKind::TwoPl => configs::monolithic_2pl(),
            _ => configs::monolithic_ssi(),
        };
        let mut registry = tebaldi_suite::core::ProcRegistry::new();
        ClusterWorkload::register_procedures(workload, &mut registry);
        let cluster = Cluster::builder(config)
            .procedures(ClusterWorkload::procedures(workload))
            .shard_procedures(registry)
            .cc_spec(spec)
            .build()
            .unwrap();
        ClusterWorkload::load(workload, &cluster);
        cluster
    }

    /// Runs a mixed ClusterSeats load on four shards, merges the per-shard
    /// histories into the global DSG, and checks acyclicity plus the
    /// cross-shard reservation balance invariant.
    fn run_seats_cluster_dsg(kind: CcKind) {
        let workload =
            std::sync::Arc::new(ClusterSeats::new(Seats::new(tiny_params())).with_remote_rate(0.5));
        let cluster = std::sync::Arc::new(build(kind, &workload));
        let mut handles = Vec::new();
        for worker in 0..4u64 {
            let cluster = std::sync::Arc::clone(&cluster);
            let workload = std::sync::Arc::clone(&workload);
            handles.push(std::thread::spawn(move || {
                use rand::SeedableRng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(worker + 1);
                for _ in 0..60 {
                    let _ = workload.run_once(&cluster, &mut rng);
                }
            }));
        }
        for handle in handles {
            handle.join().expect("worker panicked");
        }
        assert_eq!(cluster.in_doubt_count(), 0, "no transaction left parked");
        assert!(
            cluster.stats().multi_shard > 0,
            "the mix must exercise cross-shard reservations"
        );

        // Global DSG oracle across all shards.
        let history = merged_global_history(&cluster);
        assert!(history.committed_count() > 0);
        let report = dsg::check(&history);
        assert!(
            report.serializable,
            "global SEATS execution not serializable: cycle={:?} edges={:?} aborted_reads={:?}",
            report.cycle, report.cycle_edges, report.aborted_reads
        );

        // Cross-shard balance: every committed reservation bumped one
        // flight's seats_sold and one customer's reservation count, no
        // matter which shards the two rows live on.
        let params = tiny_params();
        let t = workload.inner.tables;
        let read = |partition: u64, key| {
            cluster
                .shard(cluster.shard_of(partition))
                .store()
                // `read_visible` filters deleted reservations' tombstones.
                .read_visible(&key, ReadSpec::LatestCommitted)
        };
        let mut seats_sold = 0i64;
        let mut reservation_rows = 0i64;
        for f in 0..params.flights {
            seats_sold += read(f as u64, t.flight_key(f))
                .and_then(|v| v.field(0))
                .unwrap_or(0);
            for s in 0..params.seats_per_flight {
                if read(f as u64, t.reservation_key(f, s)).is_some() {
                    reservation_rows += 1;
                }
            }
        }
        let mut customer_counts = 0i64;
        for c in 0..params.customers {
            customer_counts += read(c as u64, t.customer_key(c))
                .and_then(|v| v.field(1))
                .unwrap_or(0);
        }
        assert_eq!(
            seats_sold, reservation_rows,
            "every sold seat is exactly one reservation row"
        );
        assert_eq!(
            customer_counts, reservation_rows,
            "customer reservation counts balance across shards"
        );
        cluster.shutdown();
    }

    #[test]
    fn cluster_seats_dsg_acyclic_under_2pl() {
        run_seats_cluster_dsg(CcKind::TwoPl);
    }

    #[test]
    fn cluster_seats_dsg_acyclic_under_ssi() {
        run_seats_cluster_dsg(CcKind::Ssi);
    }
}
