//! A read-modify-write is one operation (`Txn::update`): its write intent
//! goes top-down before the read, write-write validation runs before the
//! read, and the read and the install share one hold of the key's latch —
//! one chain access per row update, and no shared lock to upgrade.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tebaldi_suite::cc::{
    AccessMode, CcError, CcKind, CcTreeSpec, ProcedureInfo, ProcedureSet, Reason,
};
use tebaldi_suite::core::{Database, DbConfig, ProcedureCall};
use tebaldi_suite::storage::{Key, TableId, TxnTypeId, Value};
use tebaldi_suite::workloads::seats::{self, Seats, SeatsParams};
use tebaldi_suite::workloads::tpcc::schema::{types, TpccKeys, TpccParams};
use tebaldi_suite::workloads::tpcc::transactions::{self, PaymentInput};
use tebaldi_suite::workloads::tpcc::{self, Tpcc};
use tebaldi_suite::workloads::Workload;

const TABLE: TableId = TableId(0);
/// Declares `TABLE` written.
const UPDATE: TxnTypeId = TxnTypeId(0);
/// Declares `TABLE` only read.
const READ: TxnTypeId = TxnTypeId(1);

fn db(kind: CcKind, wait_timeout_ms: u64) -> Arc<Database> {
    let mut procedures = ProcedureSet::new();
    procedures.insert(ProcedureInfo::new(
        UPDATE,
        "update",
        vec![(TABLE, AccessMode::Write)],
    ));
    procedures.insert(ProcedureInfo::new(
        READ,
        "read",
        vec![(TABLE, AccessMode::Read)],
    ));
    Arc::new(
        Database::builder(DbConfig {
            wait_timeout_ms,
            ..DbConfig::for_tests()
        })
        .procedures(procedures)
        .cc_spec(CcTreeSpec::monolithic(kind, vec![UPDATE, READ]))
        .build()
        .unwrap(),
    )
}

/// Chain accesses `body` makes, as `(reads, writes)`.
fn accesses(db: &Database, body: impl FnOnce(&Database)) -> (u64, u64) {
    let (reads, writes) = db.store().access_counts();
    body(db);
    let (r, w) = db.store().access_counts();
    (r - reads, w - writes)
}

#[test]
fn an_update_is_one_chain_access_under_every_mechanism() {
    for kind in [CcKind::TwoPl, CcKind::Ssi, CcKind::Tso, CcKind::Rp] {
        let db = db(kind, 1_000);
        let key = Key::simple(TABLE, 1);
        db.load(key, Value::row(&[1, 2]));
        let seen = accesses(&db, |db| {
            let row = db
                .execute(&ProcedureCall::new(UPDATE), |txn| {
                    txn.update(key, |row| row.map(|r| r.with_field(1, 20)))
                })
                .unwrap();
            assert_eq!(row, Some(Value::row(&[1, 20])), "{kind:?}");
        });
        // One latched access at execution, one more at commit to publish it.
        assert_eq!(seen, (0, 2), "{kind:?}: no separate read");
        // Declining to write reads under the latch and installs nothing.
        let seen = accesses(&db, |db| {
            let current = db
                .execute(&ProcedureCall::new(UPDATE), |txn| txn.get_for_update(key))
                .unwrap();
            assert_eq!(current, Some(Value::row(&[1, 20])), "{kind:?}");
        });
        assert_eq!(
            seen,
            (0, 1),
            "{kind:?}: nothing installed, nothing to commit"
        );
        db.shutdown();
    }
}

#[test]
fn an_update_reads_its_own_earlier_write() {
    let db = db(CcKind::TwoPl, 1_000);
    let key = Key::simple(TABLE, 2);
    let total = db
        .execute(&ProcedureCall::new(UPDATE), |txn| {
            txn.put(key, Value::Int(5))?;
            txn.increment(key, 0, 2)?;
            txn.increment(key, 0, 3)
        })
        .unwrap();
    assert_eq!(total, 10);
    let read = db
        .execute(&ProcedureCall::new(READ), |txn| txn.get(key))
        .unwrap();
    assert_eq!(read, Some(Value::Int(10)));
    assert_eq!(db.registry().lock_upgrades(), 0);
    db.shutdown();
}

/// Under first-committer-wins the loser of an update is decided under the
/// key's latch before the read: its `f` never sees a value.
#[test]
fn a_write_write_loser_is_decided_before_it_reads() {
    let db = db(CcKind::Ssi, 1_000);
    let key = Key::simple(TABLE, 3);
    db.load(key, Value::Int(0));
    let (began_tx, began_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let loser = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            let mut read = false;
            let outcome = db.execute(&ProcedureCall::new(UPDATE), |txn| {
                began_tx.send(()).unwrap();
                go_rx.recv().unwrap();
                txn.update(key, |v| {
                    read = true;
                    v.cloned()
                })
            });
            (outcome, read)
        })
    };
    began_rx.recv().unwrap();
    db.execute(&ProcedureCall::new(UPDATE), |txn| txn.increment(key, 0, 1))
        .unwrap();
    go_tx.send(()).unwrap();
    let (outcome, read) = loser.join().unwrap();
    assert!(
        matches!(
            outcome,
            Err(CcError::Conflict {
                reason: Reason::FirstCommitterWins,
                winner: Some(_),
            })
        ),
        "{outcome:?}"
    );
    assert!(!read, "the loser read the key before losing");
    db.shutdown();
}

/// The write intent is taken before the read: under 2PL an update holds
/// the key exclusive, so a plain reader waits for it, and nothing upgrades.
#[test]
fn an_update_holds_its_key_exclusive_from_the_start() {
    let db = db(CcKind::TwoPl, 10_000);
    let key = Key::simple(TABLE, 4);
    db.load(key, Value::Int(0));
    let (held_tx, held_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let holder = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            db.execute(&ProcedureCall::new(UPDATE), |txn| {
                let current = txn.get_for_update(key)?;
                held_tx.send(()).unwrap();
                go_rx.recv().unwrap();
                let next = current.and_then(|v| v.as_int()).unwrap_or(0) + 1;
                txn.put(key, Value::Int(next))
            })
        })
    };
    held_rx.recv().unwrap();
    let reader = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || db.execute(&ProcedureCall::new(READ), |txn| txn.get(key)))
    };
    let started = Instant::now();
    while db.registry().wait_for().is_empty() {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the reader never waited"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    go_tx.send(()).unwrap();
    assert_eq!(holder.join().unwrap(), Ok(()));
    assert_eq!(reader.join().unwrap(), Ok(Some(Value::Int(1))));
    assert_eq!(db.registry().lock_upgrades(), 0);
    db.shutdown();
}

/// A plain read followed by a write of the same key is an upgrade: the
/// lock table counts it (here on a table the procedure declares read-only,
/// so the debug-build check below stays quiet).
#[test]
fn a_read_then_write_is_counted_as_an_upgrade() {
    let db = db(CcKind::TwoPl, 1_000);
    let key = Key::simple(TABLE, 5);
    db.execute(&ProcedureCall::new(READ), |txn| {
        let _ = txn.get(key)?;
        txn.put(key, Value::Int(1))
    })
    .unwrap();
    assert_eq!(db.registry().lock_upgrades(), 1);
    db.shutdown();
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "with `get` and then writes it")]
fn debug_builds_reject_a_read_then_write_on_a_declared_written_table() {
    let db = db(CcKind::Ssi, 1_000);
    let key = Key::simple(TABLE, 6);
    let _ = db.execute(&ProcedureCall::new(UPDATE), |txn| {
        let _ = txn.get(key)?;
        txn.put(key, Value::Int(1))
    });
}

/// Two streams of payments on one warehouse under monolithic 2PL. With a
/// read followed by a write, both payments took the warehouse row shared
/// and then both asked for it exclusive: a deadlock that only the wait
/// deadline broke, once per collision. With the write intent first, the
/// second payment simply queues behind the first.
#[test]
fn payments_on_one_warehouse_never_time_out_under_2pl() {
    const PAYMENTS: u32 = 2_000;
    let params = TpccParams {
        warehouses: 1,
        ..TpccParams::tiny()
    };
    let keys = TpccKeys::default();
    let db = Arc::new(
        Database::builder(DbConfig {
            wait_timeout_ms: 2_000,
            ..DbConfig::for_tests()
        })
        .procedures(tpcc::schema::procedures(&keys.tables, false))
        .cc_spec(tpcc::configs::monolithic_2pl())
        .build()
        .unwrap(),
    );
    transactions::load(&db, &keys, &params);
    let start = Arc::new(Barrier::new(2));
    let streams: Vec<_> = (0..2u32)
        .map(|stream| {
            let (db, start) = (Arc::clone(&db), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                (0..PAYMENTS)
                    .filter_map(|i| {
                        let input = PaymentInput {
                            w: 0,
                            d: i % params.districts_per_warehouse,
                            c: i % params.customers_per_district,
                            amount: 100,
                            history_seq: stream * PAYMENTS + i,
                        };
                        db.execute(&ProcedureCall::new(types::PAYMENT), |txn| {
                            transactions::payment(txn, &keys, &input)
                        })
                        .err()
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let errors: Vec<CcError> = streams
        .into_iter()
        .flat_map(|s| s.join().unwrap())
        .collect();
    assert!(errors.is_empty(), "payments aborted: {errors:?}");
    let ytd = db
        .execute(&ProcedureCall::new(types::ORDER_STATUS), |txn| {
            txn.get(keys.warehouse(0))
        })
        .unwrap()
        .and_then(|v| v.field(0));
    assert_eq!(ytd, Some(2 * PAYMENTS as i64 * 100));
    assert_eq!(db.registry().lock_upgrades(), 0);
    db.shutdown();
}

/// Runs `units` of `workload` on each of two clients against `spec`.
fn run_mix(workload: Arc<dyn Workload>, spec: CcTreeSpec, units: usize) -> Arc<Database> {
    let db = Arc::new(
        Database::builder(DbConfig::for_tests())
            .procedures(workload.procedures())
            .cc_spec(spec)
            .build()
            .unwrap(),
    );
    workload.load(&db);
    let clients: Vec<_> = (0..2u64)
        .map(|seed| {
            let (db, workload) = (Arc::clone(&db), Arc::clone(&workload));
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed + 1);
                for _ in 0..units {
                    workload.run_once(&db, &mut rng);
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    db
}

/// Every TPC-C and SEATS procedure reads what it updates through `update`,
/// so no locking tree ever upgrades a lock on either mix — and in debug
/// builds no procedure reads a key with `get` and then writes it.
#[test]
fn the_tpcc_and_seats_mixes_upgrade_no_lock() {
    let tpcc_workload: Arc<dyn Workload> = Arc::new(Tpcc::new(TpccParams::tiny()));
    let mut tpcc_configs = tpcc::configs::figure_4_7();
    tpcc_configs.push(("autoconf initial", tpcc::configs::autoconf_initial()));
    for (name, spec) in tpcc_configs {
        let db = run_mix(Arc::clone(&tpcc_workload), spec, 60);
        assert!(db.stats().committed > 0, "tpcc {name}");
        assert_eq!(db.registry().lock_upgrades(), 0, "tpcc {name}");
        db.shutdown();
    }
    let seats_workload: Arc<dyn Workload> = Arc::new(Seats::new(SeatsParams::tiny()));
    for (name, spec) in [
        ("2PL", seats::configs::monolithic_2pl()),
        ("2-layer", seats::configs::two_layer()),
        ("3-layer", seats::configs::three_layer(5)),
    ] {
        let db = run_mix(Arc::clone(&seats_workload), spec, 100);
        assert!(db.stats().committed > 0, "seats {name}");
        assert_eq!(db.registry().lock_upgrades(), 0, "seats {name}");
        db.shutdown();
    }
}
