//! Engine-level behavioural tests: garbage collection, read-only
//! non-blocking behaviour under the SSI root, cascading-abort prevention,
//! partition-by-instance group routing, who wakes whom, what the retry
//! loop waits on after an abort, and that a prefetch is only a hint.

use std::sync::Arc;
use std::sync::{mpsc, Barrier, Mutex};
use std::time::{Duration, Instant};
use tebaldi_suite::cc::{
    AccessMode, CcError, CcKind, CcNodeSpec, CcResult, CcTreeSpec, ProcedureInfo, ProcedureSet,
    Reason, WaitLabel,
};
use tebaldi_suite::core::{Database, DbConfig, ProcedureCall, Txn};
use tebaldi_suite::storage::{GroupId, Key, TableId, TxnId, TxnTypeId, Value, Version};
use tebaldi_suite::workloads::tpcc::configs;
use tebaldi_suite::workloads::tpcc::schema::{
    procedures as tpcc_procedures, standard_types, types, TpccKeys, TpccParams,
};
use tebaldi_suite::workloads::tpcc::transactions::{district_fields, load};

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
    // Nothing is in flight, so one cycle prunes up to the last commit.
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

/// GC's horizon is the smaller of the oracle's snapshot timestamp and the
/// oldest live snapshot, so it *is* a reader's snapshot whenever that
/// reader is the oldest. Y begins first and stays open across a GC cycle;
/// R begins with a snapshot above k's version; W overwrites k; Y commits.
/// The next cycle prunes at R's snapshot — and R must still read k's
/// version.
#[test]
fn a_reader_whose_snapshot_is_the_gc_horizon_keeps_its_version() {
    let db = patient_db(CcKind::Ssi);
    let (k, other, y_key) = (
        Key::simple(TABLE, 18),
        Key::simple(TABLE, 19),
        Key::simple(TABLE, 20),
    );
    let put = |key, v| {
        db.execute(&ProcedureCall::new(UPDATE), |txn| {
            txn.put(key, Value::Int(v))
        })
        .unwrap()
    };
    put(k, 1);
    // A later commit anywhere moves every new snapshot past k's version.
    put(other, 1);
    // Each gate is passed twice by its transaction's body: once on entry,
    // once when the test lets it go on.
    let (y_gate, r_gate) = (Barrier::new(2), Barrier::new(2));
    std::thread::scope(|scope| {
        let y = scope.spawn(|| {
            db.execute(&ProcedureCall::new(UPDATE), |txn| {
                y_gate.wait();
                y_gate.wait();
                txn.put(y_key, Value::Int(1))
            })
        });
        y_gate.wait();
        db.run_gc_cycle();
        let r = scope.spawn(|| {
            db.execute(&ProcedureCall::new(READ), |txn| {
                r_gate.wait();
                r_gate.wait();
                txn.get(k)
            })
        });
        r_gate.wait();
        put(k, 2);
        y_gate.wait();
        assert_eq!(y.join().unwrap(), Ok(()));
        db.run_gc_cycle();
        r_gate.wait();
        assert_eq!(r.join().unwrap(), Ok(Some(Value::Int(1))));
    });
    db.shutdown();
}

/// A commit is applied key by key after it takes its timestamp, and the
/// oracle's snapshot timestamp stays below it until it ends. C takes its
/// timestamp and marks its version of k committed; D commits after it and
/// finishes; then a GC cycle runs while C is still being applied. A read
/// at the snapshot timestamp must still find k's version from before C.
#[test]
fn gc_never_prunes_past_a_commit_still_being_applied() {
    let db = Database::builder(DbConfig::for_tests())
        .procedures(procedures())
        .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![UPDATE, READ]))
        .build()
        .unwrap();
    let (k, other) = (Key::simple(TABLE, 23), Key::simple(TABLE, 24));
    let put = |key, v| {
        db.execute(&ProcedureCall::new(UPDATE), |txn| {
            txn.put(key, Value::Int(v))
        })
        .unwrap()
    };
    put(k, 1);
    let c = db.oracle().begin_commit();
    let c_txn = TxnId(1_000_000);
    db.store().with_chain_mut(&k, |chain| {
        chain.install(Version::uncommitted(
            GroupId::NONE,
            c_txn,
            Value::Int(2),
            None,
        ));
        assert!(chain.commit(c_txn, c));
    });
    put(other, 1);
    db.run_gc_cycle();
    let snapshot = db.oracle().snapshot_ts();
    assert!(snapshot < c, "C is still being applied");
    let seen = db.store().with_chain(&k, |chain| {
        chain
            .committed_at_or_before(snapshot)
            .map(|v| v.value.clone())
    });
    assert_eq!(seen, Some(Value::Int(1)));
    db.oracle().end_commit(c);
    db.shutdown();
}

#[test]
fn incrementing_an_absent_field_writes_only_that_field() {
    let db = patient_db(CcKind::Ssi);
    let (row, counter) = (Key::simple(TABLE, 21), Key::simple(TABLE, 22));
    db.execute(&ProcedureCall::new(UPDATE), |txn| {
        txn.increment(row, 2, 5)?;
        txn.increment(counter, 0, 5)
    })
    .unwrap();
    let read = |key| {
        db.execute(&ProcedureCall::new(READ), |txn| txn.get(key))
            .unwrap()
    };
    assert_eq!(read(row), Some(Value::row(&[0, 0, 5])));
    assert_eq!(read(counter), Some(Value::Int(5)));
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

/// The back-off `n` aborts into a unit: `200 µs × min(n, 10)`.
fn backoff(aborts: usize) -> Duration {
    Duration::from_micros(200 * aborts.min(10) as u64)
}

/// Asserts that retry `n` (1-based, from `first` on) of a unit began no
/// sooner than its back-off after attempt `n - 1` lost; `attempts` holds
/// (body entered, losing write returned) per attempt.
fn assert_retries_backed_off(attempts: &[(Instant, Instant)], first: usize) {
    for (n, pair) in attempts.windows(2).enumerate().skip(first - 1) {
        let gap = pair[1].0.duration_since(pair[0].1);
        assert!(gap >= backoff(n + 1), "retry {} after {gap:?}", n + 1);
    }
}

/// The value of `key` as a fresh transaction reads it.
fn read_int(db: &Database, key: Key) -> Option<i64> {
    db.execute(&ProcedureCall::new(READ), |txn| {
        Ok(txn.get(key)?.and_then(|v| v.as_int()))
    })
    .unwrap()
}

#[test]
fn a_write_write_loser_waits_on_its_winner_and_retries_once_it_has_ended() {
    let db = patient_db(CcKind::Ssi);
    let key = Key::simple(TABLE, 14);
    db.load(key, Value::Int(0));
    let lost_to = |winner| {
        move |result: &CcResult<()>| match result {
            Err(CcError::Conflict {
                reason: Reason::CrossGroupWriteWrite | Reason::FirstCommitterWins,
                winner: Some(w),
            }) => *w == winner,
            _ => false,
        }
    };

    // While the winner is open, its loser sleeps listed under it.
    let (wrote_tx, wrote_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let winner = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            db.execute(&ProcedureCall::new(UPDATE), |txn| {
                txn.put(key, Value::Int(1))?;
                wrote_tx.send(txn.id()).unwrap();
                go_rx.recv().unwrap();
                Ok(())
            })
        })
    };
    let w = wrote_rx.recv().unwrap();
    // Each attempt of the loser: its id and how its write went.
    let attempts = Arc::new(Mutex::new(Vec::<(TxnId, CcResult<()>)>::new()));
    let loser = {
        let (db, attempts) = (Arc::clone(&db), Arc::clone(&attempts));
        std::thread::spawn(move || {
            db.execute_with_retry(&ProcedureCall::new(UPDATE), 100_000, |txn| {
                let result = txn.put(key, Value::Int(2));
                attempts.lock().unwrap().push((txn.id(), result.clone()));
                result
            })
        })
    };
    let started = Instant::now();
    let edge = loop {
        if let Some(&edge) = db.registry().wait_for().first() {
            break edge;
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the loser never slept"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(edge.1, w, "the loser sleeps on its winner");
    go_tx.send(()).unwrap();
    assert_eq!(winner.join().unwrap(), Ok(()));
    let (_, aborts) = loser.join().unwrap().unwrap();
    let attempts = attempts.lock().unwrap();
    assert!(attempts.iter().any(|(id, _)| *id == edge.0), "{edge:?}");
    let (last, aborted) = attempts.split_last().unwrap();
    assert_eq!(aborted.len(), aborts);
    assert!(
        aborted.iter().all(|(_, result)| lost_to(w)(result)),
        "{aborted:?}"
    );
    assert_eq!(last.1, Ok(()));
    assert_eq!(read_int(&db, key), Some(2));
    drop(attempts);

    // A winner that has ended by the time its loser pauses: the second
    // attempt commits.
    let (wrote_tx, wrote_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let winner = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            db.execute(&ProcedureCall::new(UPDATE), |txn| {
                txn.put(key, Value::Int(3))?;
                wrote_tx.send(txn.id()).unwrap();
                go_rx.recv().unwrap();
                Ok(())
            })
        })
    };
    let w = wrote_rx.recv().unwrap();
    let mut winner = Some(winner);
    let (_, aborts) = db
        .execute_with_retry(&ProcedureCall::new(UPDATE), 100_000, |txn| {
            let result = txn.put(key, Value::Int(4));
            if let Some(winner) = winner.take() {
                assert!(lost_to(w)(&result), "{result:?}");
                go_tx.send(()).unwrap();
                assert_eq!(winner.join().unwrap(), Ok(()));
            }
            result
        })
        .unwrap();
    assert_eq!(aborts, 1);
    assert_eq!(read_int(&db, key), Some(4));
    db.shutdown();
}

#[test]
fn a_loser_whose_winner_is_not_yet_under_the_snapshot_backs_off() {
    let db = patient_db(CcKind::Ssi);
    let key = Key::simple(TABLE, 15);
    db.load(key, Value::Int(0));
    // An earlier commit still in flight holds every new snapshot below the
    // winner's commit: each attempt of the loser loses to it again.
    let held = db.oracle().begin_commit();
    db.execute(&ProcedureCall::new(UPDATE), |txn| {
        txn.put(key, Value::Int(1))
    })
    .unwrap();
    let attempts = Mutex::new(Vec::new());
    let aborts = std::thread::scope(|scope| {
        let loser = scope.spawn(|| {
            db.execute_with_retry(&ProcedureCall::new(UPDATE), 1_000_000, |txn| {
                let entered = Instant::now();
                let result = txn.put(key, Value::Int(2));
                attempts.lock().unwrap().push((entered, Instant::now()));
                result
            })
        });
        while attempts.lock().unwrap().len() < 12 {
            std::thread::sleep(Duration::from_millis(1));
        }
        db.oracle().end_commit(held);
        loser.join().unwrap().unwrap().1
    });
    // The winner had ended every time, but no retry could see it: each
    // slept its back-off out instead of trying again at once. (The last
    // retry may start at once: the held commit may end just before it.)
    let attempts = attempts.into_inner().unwrap();
    assert!(aborts >= 11, "{aborts}");
    assert_eq!(attempts.len(), aborts + 1);
    assert_retries_backed_off(&attempts[..aborts], 1);
    assert_eq!(read_int(&db, key), Some(2));
    db.shutdown();
}

#[test]
fn a_pivot_abort_still_backs_off() {
    // Write skew: T1 reads x and writes y, T2 reads y and writes x. While
    // T1 is open every attempt of T2 is a pivot — a conflict with no
    // winner to wait on.
    let db = patient_db(CcKind::Ssi);
    let (x, y) = (Key::simple(TABLE, 16), Key::simple(TABLE, 17));
    db.load(x, Value::Int(0));
    db.load(y, Value::Int(0));
    let (read_tx, read_rx) = mpsc::channel();
    let (write_tx, write_rx) = mpsc::channel::<()>();
    let (wrote_tx, wrote_rx) = mpsc::channel();
    let (end_tx, end_rx) = mpsc::channel::<()>();
    let t1 = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            db.execute(&ProcedureCall::new(UPDATE), |txn| {
                txn.get(x)?;
                read_tx.send(()).unwrap();
                write_rx.recv().unwrap();
                txn.put(y, Value::Int(1))?;
                wrote_tx.send(()).unwrap();
                end_rx.recv().unwrap();
                Ok(())
            })
        })
    };
    read_rx.recv().unwrap();
    let mut attempts = Vec::new();
    let mut results = Vec::new();
    let mut end = Some(end_tx);
    let (_, aborts) = db
        .execute_with_retry(&ProcedureCall::new(UPDATE), 1_000, |txn| {
            let entered = Instant::now();
            txn.get(y)?;
            if attempts.is_empty() {
                write_tx.send(()).unwrap();
                wrote_rx.recv().unwrap();
            }
            let result = txn.put(x, Value::Int(2));
            attempts.push((entered, Instant::now()));
            results.push(result.clone());
            if attempts.len() == 4 {
                end.take().unwrap().send(()).unwrap();
            }
            result
        })
        .unwrap();
    assert_eq!(t1.join().unwrap(), Err(CcError::conflict(Reason::Pivot)));
    assert!(aborts >= 4, "{aborts}");
    assert_eq!(attempts.len(), aborts + 1);
    let pivot = Err(CcError::conflict(Reason::PivotOnWrite));
    assert!(results[..aborts].iter().all(|r| *r == pivot), "{results:?}");
    assert_retries_backed_off(&attempts, 1);
    assert_eq!(read_int(&db, x), Some(2));
    db.shutdown();
}

#[test]
fn a_loser_retries_at_once_only_once_past_the_same_ended_winner() {
    // Under a batching SSI root a retry joins its lane's open batch and
    // keeps the batch's snapshot: a fresh oracle snapshot that covers the
    // winner does not mean the retry's does.
    const OTHER: TxnTypeId = TxnTypeId(2);
    let mut procedures = procedures();
    procedures.insert(ProcedureInfo::new(
        OTHER,
        "other update",
        vec![(TABLE, AccessMode::Write)],
    ));
    let spec = CcTreeSpec::new(CcNodeSpec::inner(
        CcKind::Ssi,
        "root",
        vec![
            CcNodeSpec::leaf(CcKind::TwoPl, "updates", vec![UPDATE]),
            CcNodeSpec::leaf(CcKind::TwoPl, "others", vec![OTHER]),
            CcNodeSpec::leaf(CcKind::NoCc, "readers", vec![READ]),
        ],
    ));
    let db = Database::builder(DbConfig {
        wait_timeout_ms: 10_000,
        ..DbConfig::for_tests()
    })
    .procedures(procedures)
    .cc_spec(spec)
    .build()
    .unwrap();
    let key = Key::simple(TABLE, 18);
    db.load(key, Value::Int(0));
    let attempts = Mutex::new(Vec::new());
    let (began_tx, began_rx) = mpsc::channel();
    let (end_tx, end_rx) = mpsc::channel::<()>();
    let aborts = std::thread::scope(|scope| {
        // A member of the loser's lane holds the lane's batch open.
        let db = &db;
        let holder = scope.spawn(move || {
            db.execute(&ProcedureCall::new(UPDATE), |_| {
                began_tx.send(()).unwrap();
                end_rx.recv().unwrap();
                Ok(())
            })
        });
        began_rx.recv().unwrap();
        // The winner, from the other lane, commits after the batch began.
        db.execute(&ProcedureCall::new(OTHER), |txn| {
            txn.put(key, Value::Int(1))
        })
        .unwrap();
        let loser = scope.spawn(|| {
            db.execute_with_retry(&ProcedureCall::new(UPDATE), 1_000_000, |txn| {
                let entered = Instant::now();
                let result = txn.put(key, Value::Int(2));
                attempts.lock().unwrap().push((entered, Instant::now()));
                result
            })
        });
        while attempts.lock().unwrap().len() < 12 {
            std::thread::sleep(Duration::from_millis(1));
        }
        end_tx.send(()).unwrap();
        assert_eq!(holder.join().unwrap(), Ok(()));
        loser.join().unwrap().unwrap().1
    });
    // The first loss retried at once; every later one slept its back-off.
    let attempts = attempts.into_inner().unwrap();
    assert!(aborts >= 11, "{aborts}");
    assert_eq!(attempts.len(), aborts + 1);
    assert_retries_backed_off(&attempts, 2);
    assert_eq!(read_int(&db, key), Some(2));
    db.shutdown();
}

/// Every leaf kind as a monolithic tree, and the 2- and 3-layer TPC-C trees.
fn hint_trees() -> Vec<(&'static str, CcTreeSpec)> {
    let mut trees: Vec<_> = [
        CcKind::TwoPl,
        CcKind::Rp,
        CcKind::Ssi,
        CcKind::Tso,
        CcKind::NoCc,
    ]
    .into_iter()
    .map(|kind| (kind.name(), CcTreeSpec::monolithic(kind, standard_types())))
    .collect();
    trees.push(("tree2", configs::tebaldi_two_layer()));
    trees.push(("tree3", configs::tebaldi_three_layer()));
    trees
}

/// A tiny TPC-C database under `spec`.
fn tpcc_db(spec: CcTreeSpec) -> Arc<Database> {
    let keys = TpccKeys::default();
    let db = Database::builder(DbConfig::for_tests())
        .procedures(tpcc_procedures(&keys.tables, false))
        .cc_spec(spec)
        .build()
        .unwrap();
    load(&db, &keys, &TpccParams::tiny());
    Arc::new(db)
}

/// Keys the payment-shaped body below reads or writes (the first four
/// present, the fifth absent until it inserts it), one more absent key,
/// and present keys it never touches.
fn hint_keys(keys: &TpccKeys) -> Vec<Key> {
    vec![
        keys.warehouse(0),
        keys.district(0, 1),
        keys.customer(0, 1, 2),
        keys.customer(0, 1, 3),
        keys.history(0, 1, 9),
        keys.order(0, 1, 999),
        keys.stock(0, 5),
        keys.item(7),
        keys.customer(1, 0, 4),
    ]
}

/// Prefetches `keys` and checks, around the call, that the store counted
/// no access and inserted no key.
fn prefetch_checked(db: &Database, txn: &Txn<'_>, keys: &[Key]) {
    let store = db.store();
    let before = (store.stats().keys, store.access_counts());
    txn.prefetch(keys.iter().copied());
    assert_eq!(
        (store.stats().keys, store.access_counts()),
        before,
        "a prefetch reads, writes and inserts nothing"
    );
}

/// A payment-shaped body in the declared table order (warehouse →
/// district → customer → history), after prefetching `hint` when it has
/// keys. Returns what it read.
fn pay(db: &Database, hint: &[Key]) -> CcResult<Vec<Option<Value>>> {
    let keys = TpccKeys::default();
    db.execute(&ProcedureCall::new(types::PAYMENT), |txn| {
        if !hint.is_empty() {
            prefetch_checked(db, txn, hint);
        }
        let warehouse = txn.increment(keys.warehouse(0), 0, 7)?;
        let district = txn.increment(keys.district(0, 1), district_fields::YTD, 7)?;
        let neighbour = txn.get(keys.customer(0, 1, 3))?;
        let customer = txn.update(keys.customer(0, 1, 2), |row| {
            Some(row.cloned().unwrap_or(Value::Int(0)).with_field(0, -7))
        })?;
        txn.put(keys.history(0, 1, 9), Value::row(&[7]))?;
        Ok(vec![
            Some(Value::Int(warehouse)),
            Some(Value::Int(district)),
            neighbour,
            customer,
        ])
    })
}

/// SIREAD entries counted by every SSI node of `db`.
fn siread_entries(db: &Database) -> u64 {
    db.metrics()
        .snapshot()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("cc.ssi.") && name.ends_with(".siread_entries"))
        .map(|(_, n)| n)
        .sum()
}

/// What a run left behind that a hint must not change: the store's key
/// count and access counts, the SIREAD entries taken, and the recorded
/// history's reads, writes and outcomes.
fn footprint(db: &Database) -> String {
    let history = db.take_history().expect("tests record history");
    let records: Vec<_> = history
        .txns
        .iter()
        .map(|t| (&t.reads, &t.writes, t.committed))
        .collect();
    format!(
        "{:?} {:?} {} {records:?}",
        db.store().stats(),
        db.store().access_counts(),
        siread_entries(db)
    )
}

#[test]
fn a_prefetch_changes_nothing_a_body_reads_or_leaves_behind() {
    let keys = TpccKeys::default();
    for (name, spec) in hint_trees() {
        let hinted = tpcc_db(spec.clone());
        let plain = tpcc_db(spec);
        let with_hint = pay(&hinted, &hint_keys(&keys));
        let without = pay(&plain, &[]);
        assert!(without.is_ok(), "{name}: {without:?}");
        assert_eq!(
            format!("{with_hint:?}"),
            format!("{without:?}"),
            "{name}: values and outcome"
        );
        assert_eq!(footprint(&hinted), footprint(&plain), "{name}");
        hinted.shutdown();
        plain.shutdown();
    }
}

/// Runs a warehouse update while another payment is open after `hold`;
/// returns the update's outcome.
fn update_beside_open_txn(db: &Arc<Database>, hold: fn(&mut Txn<'_>)) -> CcResult<i64> {
    let keys = TpccKeys::default();
    let (held_tx, held_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let holder = {
        let db = Arc::clone(db);
        std::thread::spawn(move || {
            db.execute(&ProcedureCall::new(types::PAYMENT), |txn| {
                hold(txn);
                held_tx.send(()).unwrap();
                let _ = done_rx.recv_timeout(Duration::from_secs(5));
                Ok(())
            })
        })
    };
    held_rx.recv().unwrap();
    let updated = db.execute(&ProcedureCall::new(types::PAYMENT), |txn| {
        txn.increment(keys.warehouse(0), 0, 1)
    });
    done_tx.send(()).unwrap();
    holder.join().unwrap().expect("the holder commits");
    updated
}

#[test]
fn a_transaction_that_only_prefetched_holds_no_lock() {
    for (name, spec) in hint_trees() {
        let hinted = tpcc_db(spec.clone());
        let idle = tpcc_db(spec.clone());
        let beside_hint = update_beside_open_txn(&hinted, |txn| {
            let hint = hint_keys(&TpccKeys::default());
            txn.prefetch(hint.iter().copied())
        });
        let beside_idle = update_beside_open_txn(&idle, |_| ());
        assert_eq!(
            format!("{beside_hint:?}"),
            format!("{beside_idle:?}"),
            "{name}: an open transaction that only prefetched acts as an idle one"
        );
        if name == CcKind::TwoPl.name() {
            assert!(beside_hint.is_ok(), "{name}: {beside_hint:?}");
            // The same holder reading the key does block the update: the
            // check above would see a lock.
            let reader = tpcc_db(spec);
            let beside_read = update_beside_open_txn(&reader, |txn| {
                txn.get(TpccKeys::default().warehouse(0)).unwrap();
            });
            assert!(beside_read.is_err(), "{beside_read:?}");
            reader.shutdown();
        }
        hinted.shutdown();
        idle.shutdown();
    }
}

#[test]
fn an_aborted_attempt_that_prefetched_leaves_nothing_behind() {
    let keys = TpccKeys::default();
    for (name, spec) in hint_trees() {
        let db = tpcc_db(spec);
        let before = db.store().stats();
        let aborted: CcResult<()> = db.execute(&ProcedureCall::new(types::PAYMENT), |txn| {
            prefetch_checked(&db, txn, &hint_keys(&keys));
            txn.increment(keys.warehouse(0), 0, 1)?;
            Err(CcError::Requested)
        });
        assert!(matches!(aborted, Err(CcError::Requested)), "{name}");
        assert_eq!(db.store().stats(), before, "{name}: no key, no version");
        // Nothing of the attempt is held: the body runs, first try, on the
        // keys it prefetched, and sees the warehouse as loaded.
        let values = pay(&db, &[]).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        assert_eq!(values[0], Some(Value::Int(7)), "{name}");
        db.shutdown();
    }
}
