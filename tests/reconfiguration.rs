//! Online reconfiguration integration tests (§5.5).
//!
//! A workload keeps running while the MCC configuration is switched with
//! both protocols; afterwards the application invariant and the DSG oracle
//! must still hold, and the new configuration must be in force.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tebaldi_suite::cc::dsg;
use tebaldi_suite::cc::{AccessMode, CcKind, CcNodeSpec, CcTreeSpec, ProcedureInfo, ProcedureSet};
use tebaldi_suite::core::{Database, DbConfig, ProcedureCall, ReconfigProtocol};
use tebaldi_suite::storage::{Key, ReadSpec, TableId, TxnTypeId, Value};

const TABLE: TableId = TableId(0);
const HOT: TxnTypeId = TxnTypeId(0);
const SCAN: TxnTypeId = TxnTypeId(1);
const ROWS: u64 = 8;

fn procedures() -> ProcedureSet {
    let mut set = ProcedureSet::new();
    set.insert(ProcedureInfo::new(
        HOT,
        "hot_update",
        vec![(TABLE, AccessMode::Write)],
    ));
    set.insert(ProcedureInfo::new(
        SCAN,
        "scan",
        vec![(TABLE, AccessMode::Read)],
    ));
    set
}

fn initial_spec() -> CcTreeSpec {
    CcTreeSpec::new(CcNodeSpec::inner(
        CcKind::Ssi,
        "root",
        vec![
            CcNodeSpec::leaf(CcKind::NoCc, "scans", vec![SCAN]),
            CcNodeSpec::leaf(CcKind::TwoPl, "updates", vec![HOT]),
        ],
    ))
}

fn updated_spec() -> CcTreeSpec {
    // The update leaf switches from 2PL to RP — a change below the root.
    CcTreeSpec::new(CcNodeSpec::inner(
        CcKind::Ssi,
        "root",
        vec![
            CcNodeSpec::leaf(CcKind::NoCc, "scans", vec![SCAN]),
            CcNodeSpec::leaf(CcKind::Rp, "updates", vec![HOT]),
        ],
    ))
}

/// The value of `row` as the store's last commit left it.
fn last_commit(db: &Database, row: u64) -> i64 {
    db.store()
        .read(&Key::simple(TABLE, row), ReadSpec::LatestCommitted)
        .and_then(|v| v.as_int())
        .unwrap_or(0)
}

/// A transaction of every group of the tree in force reads every row as
/// the old tree's last commits left it, and the update group's increments
/// of every row commit.
///
/// A version names its writer's group by id, and ids restart at 0 in every
/// tree: an old version may carry the id of another group of the new tree,
/// or of none. Every such version committed before the new tree's first
/// transaction began, so each node shows it whichever group it reads as.
fn every_group_reads_the_last_commits(db: &Database) {
    let before: Vec<i64> = (0..ROWS).map(|row| last_commit(db, row)).collect();
    let scan = db.execute_with_retry(&ProcedureCall::new(SCAN), 30, |txn| {
        (0..ROWS)
            .map(|row| {
                Ok(txn
                    .get(Key::simple(TABLE, row))?
                    .and_then(|v| v.as_int())
                    .unwrap_or(0))
            })
            .collect::<Result<Vec<i64>, _>>()
    });
    assert_eq!(scan.expect("the scan commits").0, before);
    let update = db.execute_with_retry(&ProcedureCall::new(HOT), 30, |txn| {
        (0..ROWS)
            .map(|row| Ok(txn.increment(Key::simple(TABLE, row), 0, 1)? - 1))
            .collect::<Result<Vec<i64>, _>>()
    });
    assert_eq!(update.expect("the update commits").0, before);
    let after: Vec<i64> = (0..ROWS).map(|row| last_commit(db, row)).collect();
    assert_eq!(after, before.iter().map(|v| v + 1).collect::<Vec<_>>());
}

/// Runs four clients of hot updates and scans on a fresh database in the
/// initial configuration while `switch` reconfigures it, then checks that
/// no increment was lost or duplicated, that every group of the tree in
/// force reads the last commits, and the DSG oracle.
fn run_while(switch: impl FnOnce(&Database)) -> Arc<Database> {
    let db = Arc::new(
        Database::builder(DbConfig::for_tests())
            .procedures(procedures())
            .cc_spec(initial_spec())
            .build()
            .unwrap(),
    );
    for row in 0..ROWS {
        db.load(Key::simple(TABLE, row), Value::Int(0));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for worker in 0..4u64 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(worker);
            let mut committed = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if rng.gen_bool(0.7) {
                    let row = rng.gen_range(0..ROWS);
                    let call = ProcedureCall::new(HOT);
                    if db
                        .execute_with_retry(&call, 30, |txn| {
                            txn.increment(Key::simple(TABLE, row), 0, 1)
                        })
                        .is_ok()
                    {
                        committed += 1;
                    }
                } else {
                    let call = ProcedureCall::new(SCAN);
                    let _ = db.execute_with_retry(&call, 30, |txn| {
                        let mut sum = 0i64;
                        for row in 0..ROWS {
                            sum += txn
                                .get(Key::simple(TABLE, row))?
                                .and_then(|v| v.as_int())
                                .unwrap_or(0);
                        }
                        Ok(sum)
                    });
                }
            }
            committed
        }));
    }

    switch(&db);
    stop.store(true, Ordering::Relaxed);
    let committed_increments: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();

    // Invariant: the sum of the counters equals the number of committed
    // increments (no update lost or duplicated across the switches).
    let total: i64 = (0..ROWS).map(|row| last_commit(&db, row)).sum();
    assert_eq!(total as u64, committed_increments);
    every_group_reads_the_last_commits(&db);

    // Serializability across the switches.
    let history = db.take_history().unwrap();
    let report = dsg::check(&history);
    assert!(
        report.serializable,
        "cycle={:?} aborted_reads={:?}",
        report.cycle, report.aborted_reads
    );
    db.shutdown();
    db
}

fn run_with_protocol(protocol: ReconfigProtocol) {
    let db = run_while(|db| {
        // Let the workload warm up, then switch configurations mid-flight.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let report = db
            .reconfigure(updated_spec(), protocol)
            .expect("reconfigure");
        assert!(report.total_ms >= 0.0);
        std::thread::sleep(std::time::Duration::from_millis(100));
    });
    // The new configuration is in force.
    assert_eq!(db.current_spec(), updated_spec());
    assert_eq!(db.reconfiguration_count(), 1);
}

/// Admission races drains: an attempt registers, then asks the gate, while
/// a drain sets its scope, then lists who is registered. Switching back and
/// forth hundreds of times under load, with both protocols, must neither
/// let an attempt run on a swapped-out tree nor leave a drain waiting.
#[test]
fn admission_races_hundreds_of_reconfigurations() {
    const SWITCHES: u64 = 200;
    let db = run_while(|db| {
        for i in 0..SWITCHES {
            let spec = if i % 2 == 0 {
                updated_spec()
            } else {
                initial_spec()
            };
            let protocol = if i / 2 % 2 == 0 {
                ReconfigProtocol::PartialRestart
            } else {
                ReconfigProtocol::OnlineUpdate
            };
            let report = db.reconfigure(spec, protocol).expect("reconfigure");
            assert!(!report.used_fallback, "every switch is below the root");
        }
    });
    assert_eq!(db.current_spec(), initial_spec());
    assert_eq!(db.reconfiguration_count(), SWITCHES);
}

#[test]
fn partial_restart_preserves_correctness() {
    run_with_protocol(ReconfigProtocol::PartialRestart);
}

#[test]
fn online_update_preserves_correctness() {
    run_with_protocol(ReconfigProtocol::OnlineUpdate);
}

/// The fallback also moves every group id: the monolithic tree's one group
/// (0) wrote the rows, and 0 names the new tree's scan group.
#[test]
fn online_update_falls_back_on_root_change() {
    let db = Database::builder(DbConfig::for_tests())
        .procedures(procedures())
        .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![HOT, SCAN]))
        .build()
        .unwrap();
    for row in 0..ROWS {
        let call = ProcedureCall::new(HOT);
        db.execute_with_retry(&call, 30, |txn| {
            txn.increment(Key::simple(TABLE, row), 0, row as i64)
        })
        .unwrap();
    }
    let report = db
        .reconfigure(initial_spec(), ReconfigProtocol::OnlineUpdate)
        .unwrap();
    assert!(
        report.used_fallback,
        "a root-level change must fall back to a partial restart"
    );
    assert_eq!(db.current_spec(), initial_spec());
    every_group_reads_the_last_commits(&db);
    db.shutdown();
}
