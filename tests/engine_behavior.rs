//! Engine-level behavioural tests: garbage collection, read-only
//! non-blocking behaviour under the SSI root, cascading-abort prevention,
//! partition-by-instance group routing, and who wakes whom.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tebaldi_suite::cc::{
    AccessMode, CcError, CcKind, CcNodeSpec, CcTreeSpec, ProcedureInfo, ProcedureSet, WaitLabel,
};
use tebaldi_suite::core::{Database, DbConfig, ProcedureCall};
use tebaldi_suite::storage::{Key, TableId, TxnTypeId, Value};

const TABLE: TableId = TableId(0);
const UPDATE: TxnTypeId = TxnTypeId(0);
const READ: TxnTypeId = TxnTypeId(1);

fn procedures() -> ProcedureSet {
    let mut set = ProcedureSet::new();
    set.insert(ProcedureInfo::new(
        UPDATE,
        "update",
        vec![(TABLE, AccessMode::Write)],
    ));
    set.insert(ProcedureInfo::new(
        READ,
        "read",
        vec![(TABLE, AccessMode::Read)],
    ));
    set
}

fn two_group_spec() -> CcTreeSpec {
    CcTreeSpec::new(CcNodeSpec::inner(
        CcKind::Ssi,
        "root",
        vec![
            CcNodeSpec::leaf(CcKind::NoCc, "readers", vec![READ]),
            CcNodeSpec::leaf(CcKind::TwoPl, "writers", vec![UPDATE]),
        ],
    ))
}

#[test]
fn gc_prunes_old_versions_between_epochs() {
    let db = Database::builder(DbConfig::for_tests())
        .procedures(procedures())
        .cc_spec(two_group_spec())
        .build()
        .unwrap();
    let key = Key::simple(TABLE, 1);
    db.load(key, Value::Int(0));
    // Accumulate many committed versions of the same key.
    for _ in 0..50 {
        db.execute(&ProcedureCall::new(UPDATE), |txn| txn.increment(key, 0, 1))
            .unwrap();
    }
    let before = db.store().stats();
    assert!(before.versions > 40, "versions accumulate before GC");
    // Two GC cycles: the first retires the epoch, the second collects it.
    db.run_gc_cycle();
    let report = db.run_gc_cycle();
    let after = db.store().stats();
    assert!(
        after.versions < before.versions,
        "GC must prune stale versions (removed {} in the last cycle)",
        report.removed
    );
    // The latest value is intact.
    let value = db
        .execute(&ProcedureCall::new(READ), |txn| {
            Ok(txn.get(key)?.and_then(|v| v.as_int()).unwrap_or(-1))
        })
        .unwrap();
    assert_eq!(value, 50);
    db.shutdown();
}

#[test]
fn read_only_transactions_do_not_block_on_writer_locks() {
    // A writer parks holding its 2PL lock; under the SSI root the reader
    // still commits immediately from the snapshot.
    let db = Arc::new(
        Database::builder(DbConfig::for_tests())
            .procedures(procedures())
            .cc_spec(two_group_spec())
            .build()
            .unwrap(),
    );
    let key = Key::simple(TABLE, 7);
    db.load(key, Value::Int(41));

    let db_writer = Arc::clone(&db);
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let writer = std::thread::spawn(move || {
        db_writer.execute(&ProcedureCall::new(UPDATE), |txn| {
            txn.increment(key, 0, 1)?;
            started_tx.send(()).unwrap();
            // Hold the exclusive lock until the reader has finished.
            let _ = release_rx.recv_timeout(std::time::Duration::from_secs(2));
            Ok(())
        })
    });
    started_rx
        .recv_timeout(std::time::Duration::from_secs(2))
        .expect("writer acquired its lock");

    let start = std::time::Instant::now();
    let observed = db
        .execute(&ProcedureCall::new(READ), |txn| {
            Ok(txn.get(key)?.and_then(|v| v.as_int()).unwrap_or(-1))
        })
        .unwrap();
    assert_eq!(observed, 41, "the reader sees the committed snapshot");
    // The reader never touches the writers' lock table; if it had waited for
    // the writer's lock it would have hit the 50 ms lock timeout and
    // aborted instead of committing, so a successful commit well under the
    // writer's hold time is the real assertion; the elapsed bound is kept
    // loose to stay robust on loaded CI machines.
    assert!(
        start.elapsed() < std::time::Duration::from_millis(1_000),
        "the read-only transaction must not wait for the writer's lock"
    );
    release_tx.send(()).unwrap();
    assert!(writer.join().unwrap().is_ok());
    db.shutdown();
}

#[test]
fn partition_by_instance_routes_by_seed() {
    let spec = CcTreeSpec::new(CcNodeSpec::inner(
        CcKind::TwoPl,
        "root",
        vec![CcNodeSpec::leaf_by_instance(
            CcKind::Tso,
            "partitioned",
            vec![UPDATE, READ],
            4,
        )],
    ));
    let db = Database::builder(DbConfig::for_tests())
        .procedures(procedures())
        .cc_spec(spec)
        .build()
        .unwrap();
    db.load(Key::simple(TABLE, 0), Value::Int(0));
    let tree = db.current_tree();
    assert_eq!(tree.group_count(), 4);
    // Instances with different seeds land in different groups but still
    // execute correctly against shared keys.
    for seed in 0..8u64 {
        let call = ProcedureCall::new(UPDATE).with_instance_seed(seed);
        db.execute_with_retry(&call, 20, |txn| txn.increment(Key::simple(TABLE, 0), 0, 1))
            .unwrap();
    }
    let total = db
        .execute(&ProcedureCall::new(READ), |txn| {
            Ok(txn
                .get(Key::simple(TABLE, 0))?
                .and_then(|v| v.as_int())
                .unwrap_or(0))
        })
        .unwrap();
    assert_eq!(total, 8);
    db.shutdown();
}

#[test]
fn cascading_aborts_do_not_lose_committed_state() {
    // Runtime pipelining exposes uncommitted state; if a transaction aborts
    // after a dependant read it, the dependant must abort too rather than
    // commit a value derived from the aborted write.
    let spec = CcTreeSpec::monolithic(CcKind::Rp, vec![UPDATE, READ]);
    let db = Arc::new(
        Database::builder(DbConfig::for_tests())
            .procedures(procedures())
            .cc_spec(spec)
            .build()
            .unwrap(),
    );
    let key = Key::simple(TABLE, 3);
    db.load(key, Value::Int(0));

    // A transaction that increments and then deliberately aborts.
    let result = db.execute(&ProcedureCall::new(UPDATE), |txn| {
        txn.increment(key, 0, 100)?;
        Err::<(), _>(txn.request_abort())
    });
    assert!(result.is_err());

    // Whatever concurrent readers saw, the committed state must not contain
    // the aborted increment.
    let value = db
        .execute(&ProcedureCall::new(READ), |txn| {
            Ok(txn.get(key)?.and_then(|v| v.as_int()).unwrap_or(-1))
        })
        .unwrap();
    assert_eq!(value, 0);
    // And the serializability oracle agrees.
    let history = db.take_history().unwrap();
    let report = tebaldi_suite::cc::dsg::check(&history);
    assert!(report.serializable);
    db.shutdown();
}

#[test]
fn dependency_wait_is_bounded_once_and_visible_to_the_profiler() {
    use tebaldi_suite::cc::VecSink;

    // A TSO group exposes uncommitted writes and orders commits by
    // timestamp, so a reader depends on every earlier writer still active.
    const TIMEOUT: Duration = Duration::from_millis(400);
    let sink = Arc::new(VecSink::new());
    let db = Arc::new(
        Database::builder(DbConfig {
            wait_timeout_ms: TIMEOUT.as_millis() as u64,
            ..DbConfig::for_tests()
        })
        .procedures(procedures())
        .cc_spec(CcTreeSpec::monolithic(CcKind::Tso, vec![UPDATE, READ]))
        .events(sink.clone())
        .build()
        .unwrap(),
    );

    // Three writers, begun one after the other, each parked inside its body
    // after its write.
    let (wrote_tx, wrote_rx) = mpsc::channel();
    let writers: Vec<_> = (0..3u64)
        .map(|i| {
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let (db, wrote_tx) = (Arc::clone(&db), wrote_tx.clone());
            let writer = std::thread::spawn(move || {
                db.execute(&ProcedureCall::new(UPDATE), |txn| {
                    txn.put(Key::simple(TABLE, i), Value::Int(1))?;
                    wrote_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok(())
                })
            });
            wrote_rx.recv().unwrap();
            (writer, release_tx)
        })
        .collect();

    // The reader reads the first writer's uncommitted value (a read-from
    // dependency, waited for first); the other two writers are ordering
    // dependencies. The first writer commits at 0.7 × TIMEOUT, the others
    // not before the reader is done: a clock restarted per dependency
    // would let the reader wait 1.7 × TIMEOUT.
    let (committing_tx, committing_rx) = mpsc::channel();
    let first_release = writers[0].1.clone();
    let timer = std::thread::spawn(move || {
        committing_rx.recv().unwrap();
        std::thread::sleep(TIMEOUT.mul_f64(0.7));
        first_release.send(()).unwrap();
    });
    let mut commit_started = None;
    let outcome = db.execute(&ProcedureCall::new(READ), |txn| {
        assert_eq!(txn.get(Key::simple(TABLE, 0))?, Some(Value::Int(1)));
        commit_started = Some(Instant::now());
        committing_tx.send(()).unwrap();
        Ok(())
    });
    let waited = commit_started.unwrap().elapsed();
    assert_eq!(
        outcome.unwrap_err(),
        CcError::Timeout(WaitLabel::DependencyCommit)
    );
    assert!(waited >= TIMEOUT, "{waited:?}");
    assert!(waited < TIMEOUT.mul_f64(1.35), "{waited:?}");

    // The commit-order wait is a blocking event like any other: one per
    // dependency the reader slept on, at the reader's leaf.
    let leaf = db
        .current_tree()
        .path(tebaldi_suite::storage::GroupId(0))
        .unwrap()[0]
        .node;
    let events = sink.drain();
    assert_eq!(events.len(), 2, "{events:?}");
    for event in &events {
        assert_eq!((event.blocked_type, event.blocking_type), (READ, UPDATE));
        assert_eq!(event.node, leaf);
    }
    let total: Duration = events.iter().map(|e| e.duration()).sum();
    assert!(total >= TIMEOUT.mul_f64(0.9), "{total:?}");

    timer.join().unwrap();
    for (writer, release) in writers {
        let _ = release.send(());
        let _ = writer.join().unwrap();
    }
    db.shutdown();
}

/// A monolithic database of `kind` whose waits are bounded by 10 s: a
/// missed wake-up shows as a stall long past every bound below.
fn patient_db(kind: CcKind) -> Arc<Database> {
    Arc::new(
        Database::builder(DbConfig {
            wait_timeout_ms: 10_000,
            ..DbConfig::for_tests()
        })
        .procedures(procedures())
        .cc_spec(CcTreeSpec::monolithic(kind, vec![UPDATE, READ]))
        .build()
        .unwrap(),
    )
}

/// Polls until some transaction of `db` is asleep on another.
fn await_a_sleeper(db: &Database) {
    let started = Instant::now();
    while db.registry().wait_for().is_empty() {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "nobody fell asleep"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_lock_holders_end_wakes_its_waiter() {
    // T1 takes the contended key last of many, so its finish releases it
    // last, milliseconds after its first release: a wake-up sent before the
    // locks are gone finds the key still held, and T2 sleeps to its deadline.
    let db = patient_db(CcKind::TwoPl);
    let key = Key::simple(TABLE, 11);
    let (held_tx, held_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let holder = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            db.execute(&ProcedureCall::new(UPDATE), |txn| {
                for filler in 1_000..21_000 {
                    txn.put(Key::simple(TABLE, filler), Value::Int(0))?;
                }
                txn.put(key, Value::Int(1))?;
                held_tx.send(()).unwrap();
                go_rx.recv().unwrap();
                Ok(())
            })
            .unwrap();
            Instant::now()
        })
    };
    held_rx.recv().unwrap();
    let waiter = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            db.execute(&ProcedureCall::new(UPDATE), |txn| {
                txn.put(key, Value::Int(2))
            })
            .unwrap();
            Instant::now()
        })
    };
    await_a_sleeper(&db);
    go_tx.send(()).unwrap();
    let holder_done = holder.join().unwrap();
    let waiter_done = waiter.join().unwrap();
    let lag = waiter_done.saturating_duration_since(holder_done);
    assert!(lag < Duration::from_millis(200), "{lag:?}");
    db.shutdown();
}

#[test]
fn compaction_does_not_turn_an_aborted_dependency_into_a_committed_one() {
    // TSO exposes T1's uncommitted write to the later T2; T1 aborts and a
    // GC cycle compacts the directory before T2 commits.
    let db = patient_db(CcKind::Tso);
    let key = Key::simple(TABLE, 12);
    db.load(key, Value::Int(0));
    let (wrote_tx, wrote_rx) = mpsc::channel();
    let (abort_tx, abort_rx) = mpsc::channel::<()>();
    let writer = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            db.execute(&ProcedureCall::new(UPDATE), |txn| {
                txn.put(key, Value::Int(1))?;
                wrote_tx.send(()).unwrap();
                abort_rx.recv().unwrap();
                Err::<(), _>(txn.request_abort())
            })
        })
    };
    wrote_rx.recv().unwrap();
    let outcome = db.execute(&ProcedureCall::new(READ), |txn| {
        assert_eq!(txn.get(key)?, Some(Value::Int(1)));
        abort_tx.send(()).unwrap();
        assert_eq!(writer.join().unwrap(), Err(CcError::Requested));
        db.run_gc_cycle();
        Ok(())
    });
    assert_eq!(outcome, Err(CcError::DependencyAborted));
    db.shutdown();
}

#[test]
fn a_later_reader_waits_for_a_promised_write_and_reads_it() {
    let db = patient_db(CcKind::Tso);
    let key = Key::simple(TABLE, 13);
    db.load(key, Value::Int(0));
    let (began_tx, began_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let promiser = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            let call = ProcedureCall::new(UPDATE).with_promises(vec![key]);
            db.execute(&call, |txn| {
                began_tx.send(()).unwrap();
                go_rx.recv().unwrap();
                txn.put(key, Value::Int(7))
            })
        })
    };
    began_rx.recv().unwrap();
    let reader = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || db.execute(&ProcedureCall::new(READ), |txn| txn.get(key)))
    };
    // The reader sleeps on the promiser before the promised write exists.
    await_a_sleeper(&db);
    go_tx.send(()).unwrap();
    assert_eq!(promiser.join().unwrap(), Ok(()));
    assert_eq!(reader.join().unwrap(), Ok(Some(Value::Int(7))));
    db.shutdown();
}
