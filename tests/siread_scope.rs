//! SIREAD entries only where a later write can still close a cycle.
//!
//! Monolithic SSI registers a read in its SIREAD table so that a later
//! concurrent writer of the key can mark the anti-dependency. Two kinds of
//! read take no entry: the read of an update that installs (its write-write
//! check passed under the key's latch, so any later writer of the key loses
//! on write-write), and the reads of a transaction declared read-only once
//! its snapshot is safe (no older read-write transaction still runs, none
//! committed with an outgoing edge above the snapshot), checked after every
//! `SAFE_CHECK_EVERY` (64) reads. The SSI node counts
//! the entries it took and the safe and unsafe read-only snapshots in the
//! database's metrics (`cc.ssi.<node>.*`); these tests read those counts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::Arc;
use tebaldi_suite::cc::ssi::SAFE_CHECK_EVERY;
use tebaldi_suite::cc::{
    AccessMode, CcError, CcKind, CcTreeSpec, ProcedureInfo, ProcedureSet, Reason,
};
use tebaldi_suite::cluster::{procs, Cluster, ClusterConfig};
use tebaldi_suite::core::{Database, DbConfig, ProcedureCall};
use tebaldi_suite::obs::MetricsSnapshot;
use tebaldi_suite::storage::{Key, TableId, TxnTypeId, Value};
use tebaldi_suite::workloads::tpcc::schema::TpccParams;
use tebaldi_suite::workloads::tpcc::{self, Tpcc};
use tebaldi_suite::workloads::Workload;

const TABLE: TableId = TableId(0);
/// Reads and writes `TABLE`.
const UPDATE: TxnTypeId = TxnTypeId(0);
/// Only reads `TABLE`: a read-only procedure.
const READ: TxnTypeId = TxnTypeId(1);
/// Keys the tests load, more than two safe-snapshot check intervals.
const KEYS: u64 = 200;

fn procedures() -> ProcedureSet {
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
    procedures
}

fn db() -> Arc<Database> {
    let db = Database::builder(DbConfig::for_tests())
        .procedures(procedures())
        .cc_spec(CcTreeSpec::monolithic(CcKind::Ssi, vec![UPDATE, READ]))
        .build()
        .unwrap();
    for id in 0..KEYS {
        db.load(k(id), Value::Int(0));
    }
    Arc::new(db)
}

fn k(id: u64) -> Key {
    Key::simple(TABLE, id)
}

fn call(ty: TxnTypeId) -> ProcedureCall {
    ProcedureCall::new(ty)
}

/// What the SSI nodes of `db` counted: SIREAD entries taken, read-only
/// transactions that ended on a safe and on an unsafe snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    entries: u64,
    safe: u64,
    unsafe_: u64,
}

fn counts(db: &Database) -> Counts {
    counts_in(&db.metrics().snapshot())
}

fn counts_in(snapshot: &MetricsSnapshot) -> Counts {
    let sum = |what: &str| {
        snapshot
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("cc.ssi.") && name.ends_with(what))
            .map(|(_, n)| n)
            .sum()
    };
    Counts {
        entries: sum(".siread_entries"),
        safe: sum(".safe_snapshots"),
        unsafe_: sum(".unsafe_snapshots"),
    }
}

/// What `body` added to the counts.
fn counted(db: &Database, body: impl FnOnce()) -> Counts {
    let before = counts(db);
    body();
    let after = counts(db);
    Counts {
        entries: after.entries - before.entries,
        safe: after.safe - before.safe,
        unsafe_: after.unsafe_ - before.unsafe_,
    }
}

/// Reads keys `from..to` in `txn`.
fn read_range(txn: &mut tebaldi_suite::core::Txn<'_>, from: u64, to: u64) -> Result<(), CcError> {
    for id in from..to {
        txn.get(k(id))?;
    }
    Ok(())
}

#[test]
fn an_installing_update_takes_no_entry() {
    let db = db();
    let seen = counted(&db, || {
        db.execute(&call(UPDATE), |txn| {
            txn.update(k(1), |v| v.map(|v| v.with_field(0, 5)))?;
            txn.increment(k(2), 0, 1)?;
            txn.put(k(3), Value::Int(7))
        })
        .unwrap();
    });
    assert_eq!(seen, Counts::default());
    db.shutdown();
}

#[test]
fn get_for_update_and_a_declined_update_each_take_one() {
    let db = db();
    let seen = counted(&db, || {
        db.execute(&call(UPDATE), |txn| {
            assert_eq!(txn.get_for_update(k(1))?, Some(Value::Int(0)));
            txn.update(k(2), |_| None)
        })
        .unwrap();
    });
    assert_eq!(
        seen,
        Counts {
            entries: 2,
            ..Counts::default()
        }
    );
    db.shutdown();
}

/// `CHECKED` reads reach the first check.
const CHECKED: u64 = SAFE_CHECK_EVERY as u64;

#[test]
fn a_read_only_transaction_alone_holds_no_entry_after_its_first_check() {
    let db = db();
    let seen = counted(&db, || {
        db.execute(&call(READ), |txn| read_range(txn, 0, KEYS))
            .unwrap();
    });
    assert_eq!(
        seen,
        Counts {
            entries: CHECKED,
            safe: 1,
            ..Counts::default()
        }
    );
    // A shorter one is never checked, and counts as neither.
    let seen = counted(&db, || {
        db.execute(&call(READ), |txn| read_range(txn, 0, 10))
            .unwrap();
    });
    assert_eq!(
        seen,
        Counts {
            entries: 10,
            ..Counts::default()
        }
    );
    db.shutdown();
}

/// A read-write transaction with an older snapshot is still running (a
/// prepared 2PC part, parked): every check finds the snapshot unsafe, and
/// every read registers.
#[test]
fn a_read_only_transaction_beside_an_older_writer_stays_unsafe() {
    let db = db();
    let (_, vote) = db
        .prepare(&call(UPDATE), 1, |txn| txn.put(k(0), Value::Int(1)))
        .unwrap();
    let older = vote.expect_prepared();
    // A commit between the two begins puts the reader's snapshot above the
    // writer's.
    db.execute(&call(UPDATE), |txn| txn.put(k(1), Value::Int(1)))
        .unwrap();
    let seen = counted(&db, || {
        db.execute(&call(READ), |txn| read_range(txn, 0, KEYS))
            .unwrap();
    });
    assert_eq!(
        seen,
        Counts {
            entries: KEYS,
            unsafe_: 1,
            ..Counts::default()
        }
    );
    older.commit();
    db.shutdown();
}

/// The writer `W` is still running when the read-only transaction begins
/// and commits after its first read. With an outgoing edge (`with_out`: a
/// later writer overwrote what `W` read) it may be a pivot whose cycle
/// closes through the snapshot, which stays unsafe; without one the check
/// after it finds the snapshot safe and the reads after it register
/// nothing.
fn reader_beside_a_committing_writer(with_out: bool) -> Counts {
    let db = db();
    let (_, vote) = db
        .prepare(&call(UPDATE), 1, |txn| {
            txn.get(k(KEYS - 1))?;
            txn.put(k(KEYS - 2), Value::Int(1))
        })
        .unwrap();
    let writer = vote.expect_prepared();
    let overwritten = if with_out { KEYS - 1 } else { KEYS - 3 };
    db.execute(&call(UPDATE), |txn| txn.put(k(overwritten), Value::Int(1)))
        .unwrap();
    let mut writer = Some(writer);
    let seen = counted(&db, || {
        db.execute(&call(READ), |txn| {
            read_range(txn, 0, 1)?;
            writer.take().unwrap().commit();
            read_range(txn, 1, 100)
        })
        .unwrap();
    });
    db.shutdown();
    seen
}

/// The counts include `W`'s own entry, counted when it commits.
#[test]
fn a_read_only_transaction_beside_an_out_committer_stays_unsafe() {
    assert_eq!(
        reader_beside_a_committing_writer(true),
        Counts {
            entries: 1 + 100,
            unsafe_: 1,
            ..Counts::default()
        }
    );
    // The control: the same schedule without the outgoing edge turns safe
    // at its first check and takes no entry from there on.
    assert_eq!(
        reader_beside_a_committing_writer(false),
        Counts {
            entries: 1 + CHECKED,
            safe: 1,
            ..Counts::default()
        }
    );
}

/// The read-only anomaly (Fekete et al.): T2 r(y) · T3 w(y) c · T_ro r(y)
/// r(x) · T2 w(x). T3 gave T2 its outgoing edge; T2 is still running, so
/// T_ro's snapshot is unsafe and its read of `x` is registered — T2's
/// write of `x` gives it the incoming edge too, and it aborts as a pivot
/// while T_ro is still active.
#[test]
fn the_read_only_anomaly_aborts_the_pivot() {
    let db = db();
    let (x, y) = (k(10), k(11));
    let t2 = db.execute(&call(UPDATE), |t2| {
        t2.get(y)?;
        db.execute(&call(UPDATE), |t3| t3.put(y, Value::Int(3)))
            .unwrap();
        let mut pivot = None;
        db.execute(&call(READ), |ro| {
            ro.get(y)?;
            ro.get(x)?;
            pivot = Some(t2.put(x, Value::Int(2)));
            Ok(())
        })
        .unwrap();
        pivot.unwrap()
    });
    assert_eq!(t2, Err(CcError::conflict(Reason::PivotOnWrite)));
    db.shutdown();
}

/// The engine refuses a write of a transaction declared read-only before
/// any chain sees it.
#[test]
fn a_declared_read_only_transaction_cannot_write() {
    let db = db();
    let (_, writes) = db.store().access_counts();
    let put = db.execute(&call(READ), |txn| txn.put(k(1), Value::Int(1)));
    let update = db.execute(&call(READ), |txn| txn.increment(k(1), 0, 1));
    for result in [put, update.map(|_| ())] {
        assert!(
            matches!(&result, Err(CcError::Internal(msg)) if msg.contains("declared read-only")),
            "{result:?}"
        );
    }
    assert_eq!(db.store().access_counts().1, writes, "a chain was written");
    db.shutdown();
}

/// A 2PC part is never declared read-only, a read-only procedure's
/// included: its other parts may write. Its reads register.
#[test]
fn a_read_only_typed_2pc_part_still_registers() {
    let db = db();
    let seen = counted(&db, || {
        let (_, vote) = db
            .prepare(&call(READ), 1, |txn| read_range(txn, 0, 3))
            .unwrap();
        assert!(vote.is_read_only());
    });
    assert_eq!(
        seen,
        Counts {
            entries: 3,
            ..Counts::default()
        }
    );
    db.shutdown();
}

/// One client runs the TPC-C mix under monolithic SSI. Every entry a
/// read-write attempt took is a read of a key it never wrote — no
/// installing update left one — and every entry a read-only unit took is
/// one of its first `CHECKED` reads: alone, each is safe at its first
/// check and registers nothing after it.
#[test]
fn a_single_client_tpcc_mix_registers_only_reads_that_never_install() {
    let workload = Tpcc::new(TpccParams::tiny());
    let db = Database::builder(DbConfig::for_tests())
        .procedures(workload.procedures())
        .cc_spec(tpcc::configs::monolithic_ssi())
        .build()
        .unwrap();
    workload.load(&db);
    let mut rng = StdRng::seed_from_u64(7);
    let seen = counted(&db, || {
        for _ in 0..300 {
            workload.run_once(&db, &mut rng);
        }
    });
    let history = db.take_history().unwrap();
    let mut checked_units = 0;
    let mut expected_entries = 0;
    let mut installing_reads = 0;
    for record in &history.txns {
        let read_keys = record.reads.iter().map(|r| r.key);
        if db.procedures().get(record.ty).is_some_and(|p| p.read_only) {
            let before_check: HashSet<Key> = read_keys.take(CHECKED as usize).collect();
            expected_entries += before_check.len() as u64;
            checked_units += u64::from(record.reads.len() as u64 > CHECKED);
            continue;
        }
        let written: HashSet<Key> = record.writes.iter().copied().collect();
        let read: HashSet<Key> = read_keys.collect();
        expected_entries += read.difference(&written).count() as u64;
        installing_reads += read.intersection(&written).count();
    }
    assert!(checked_units > 0 && installing_reads > 0);
    assert_eq!(
        seen,
        Counts {
            entries: expected_entries,
            safe: checked_units,
            unsafe_: 0,
        }
    );
    db.shutdown();
}

/// The counts reach a cluster's merged snapshot through each shard's
/// `ShardRequest::Metrics`.
#[test]
fn a_shards_counts_reach_the_cluster_metrics() {
    let cluster = Cluster::builder(ClusterConfig::for_tests(1))
        .procedures(procedures())
        .cc_spec(CcTreeSpec::monolithic(CcKind::Ssi, vec![UPDATE, READ]))
        .build()
        .unwrap();
    // One shard: every key is its.
    let keys: Vec<Key> = (0..100).map(k).collect();
    for key in &keys {
        cluster.load(0, *key, Value::Int(0));
    }
    let run = |proc, ty, args| cluster.execute_single(0, proc, &call(ty), args, 1).unwrap();
    run(procs::KV_MULTI_GET, READ, procs::multi_get_args(&keys));
    run(
        procs::KV_INCREMENT,
        UPDATE,
        procs::increment_args(k(1), 0, 1),
    );
    run(procs::KV_GET, UPDATE, procs::key_args(k(1)));
    assert_eq!(
        counts_in(&cluster.metrics()),
        Counts {
            entries: CHECKED + 1,
            safe: 1,
            unsafe_: 0,
        }
    );
    cluster.shutdown();
}
