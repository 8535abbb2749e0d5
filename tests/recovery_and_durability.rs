//! Durability and recovery integration tests (§4.5.4).
//!
//! Run transactions with the durability protocol enabled, simulate a crash
//! by rebuilding the database from the write-ahead log only, and check that
//! exactly the durable committed transactions survive with a consistent
//! state.

use std::sync::Arc;
use tebaldi_suite::cc::{AccessMode, CcKind, CcTreeSpec, ProcedureInfo, ProcedureSet};
use tebaldi_suite::core::{Database, DbConfig, DurabilityMode, ProcedureCall};
use tebaldi_suite::storage::recovery::recover;
use tebaldi_suite::storage::wal::MemLogDevice;
use tebaldi_suite::storage::{Key, ReadSpec, TableId, TxnTypeId, Value};

const TABLE: TableId = TableId(0);
const TY: TxnTypeId = TxnTypeId(0);

fn procedures() -> ProcedureSet {
    let mut set = ProcedureSet::new();
    set.insert(ProcedureInfo::new(
        TY,
        "bump",
        vec![(TABLE, AccessMode::Write)],
    ));
    set
}

fn build(device: Arc<MemLogDevice>, mode: DurabilityMode) -> Arc<Database> {
    Arc::new(
        Database::builder(DbConfig {
            durability: mode,
            ..DbConfig::for_tests()
        })
        .procedures(procedures())
        .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TY]))
        .log_device(device)
        .build()
        .unwrap(),
    )
}

#[test]
fn synchronous_durability_survives_crash() {
    let device = Arc::new(MemLogDevice::new());
    let db = build(Arc::clone(&device), DurabilityMode::Synchronous);
    let committed: u64 = 25;
    for i in 0..committed {
        let call = ProcedureCall::new(TY);
        db.execute(&call, |txn| {
            txn.put(Key::simple(TABLE, i % 5), Value::Int(i as i64))?;
            txn.increment(Key::simple(TABLE, 100), 0, 1)
        })
        .unwrap();
    }
    db.durability().seal_current_epoch();
    db.shutdown();
    drop(db);

    // Crash: rebuild the state purely from the log.
    let (store, report) = recover(device.as_ref());
    assert_eq!(report.recovered_txns as u64, committed);
    assert_eq!(
        store
            .read(&Key::simple(TABLE, 100), ReadSpec::LatestCommitted)
            .and_then(|v| v.as_int()),
        Some(committed as i64),
        "the recovered counter must equal the number of committed transactions"
    );
}

#[test]
fn asynchronous_durability_loses_only_unsealed_epochs() {
    let device = Arc::new(MemLogDevice::new());
    let db = build(
        Arc::clone(&device),
        // Very long epoch so nothing is sealed until we ask for it.
        DurabilityMode::Asynchronous {
            epoch_ms: 3_600_000,
        },
    );
    // First batch: committed and sealed.
    for i in 0..10u64 {
        let call = ProcedureCall::new(TY);
        db.execute(&call, |txn| txn.put(Key::simple(TABLE, i), Value::Int(1)))
            .unwrap();
    }
    db.durability().seal_current_epoch();
    // Second batch: committed but the epoch is never sealed before the
    // crash — these transactions are allowed to be lost.
    for i in 10..20u64 {
        let call = ProcedureCall::new(TY);
        db.execute(&call, |txn| txn.put(Key::simple(TABLE, i), Value::Int(2)))
            .unwrap();
    }
    // Crash without sealing: flush the raw records only.
    db.durability().device().flush();
    // Note: deliberately NOT calling shutdown() (which would seal).
    let (store, report) = recover(device.as_ref());
    assert_eq!(report.recovered_txns, 10);
    assert!(report.discarded_unsealed_epoch >= 10);
    assert_eq!(
        store.read(&Key::simple(TABLE, 5), ReadSpec::LatestCommitted),
        Some(Value::Int(1))
    );
    assert_eq!(
        store.read(&Key::simple(TABLE, 15), ReadSpec::LatestCommitted),
        None,
        "unsealed-epoch writes must not survive"
    );
}

/// Group commit + GCP epochs: a crash between buffer-append and the epoch
/// seal loses only unacknowledged-durable transactions, and what recovery
/// replays is a *prefix* of the commit order — never a hole.
#[test]
fn group_commit_crash_recovers_a_prefix_never_a_hole() {
    let device = Arc::new(MemLogDevice::new());
    let db = build(
        Arc::clone(&device),
        DurabilityMode::Asynchronous {
            epoch_ms: 3_600_000,
        },
    );
    // Sequential increments of one counter: the recovered value v proves
    // transactions 1..=v all survived (cumulative), so any lost
    // transaction would be visible as a hole.
    for _ in 0..10u64 {
        db.execute(&ProcedureCall::new(TY), |txn| {
            txn.increment(Key::simple(TABLE, 0), 0, 1)
        })
        .unwrap();
    }
    db.durability().seal_current_epoch();
    // Ten more acknowledged-but-unsealed commits, then the crash drops the
    // buffered suffix.
    for _ in 0..10u64 {
        db.execute(&ProcedureCall::new(TY), |txn| {
            txn.increment(Key::simple(TABLE, 0), 0, 1)
        })
        .unwrap();
    }
    device.crash();

    let (store, report) = recover(device.as_ref());
    assert_eq!(report.recovered_txns, 10, "exactly the sealed prefix");
    assert_eq!(
        store
            .read(&Key::simple(TABLE, 0), ReadSpec::LatestCommitted)
            .and_then(|v| v.as_int()),
        Some(10),
        "the counter proves a gapless prefix: 10 transactions, value 10"
    );
}

/// Synchronous policy + group commit: a transaction acknowledged to the
/// client is durable *before* the acknowledgement, so a crash at any
/// moment can only lose transactions still in flight.
#[test]
fn group_commit_never_loses_acknowledged_synchronous_commits() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let device = Arc::new(MemLogDevice::new());
    let db = build(Arc::clone(&device), DurabilityMode::Synchronous);
    const THREADS: u64 = 4;
    const OPS: u64 = 25;
    let acked: Arc<Vec<AtomicU64>> = Arc::new((0..THREADS).map(|_| AtomicU64::new(0)).collect());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = Arc::clone(&db);
            let acked = Arc::clone(&acked);
            std::thread::spawn(move || {
                for _ in 0..OPS {
                    db.execute(&ProcedureCall::new(TY), |txn| {
                        txn.increment(Key::simple(TABLE, t), 0, 1)
                    })
                    .unwrap();
                    // The execute returned: its records are durable.
                    acked[t as usize].fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();
    // Crash mid-run: snapshot the acknowledged counts *before* dropping
    // the buffer, so the snapshot is a lower bound on durable commits.
    std::thread::sleep(std::time::Duration::from_millis(3));
    let snapshot: Vec<u64> = acked.iter().map(|a| a.load(Ordering::SeqCst)).collect();
    device.crash();
    for handle in handles {
        handle.join().unwrap();
    }

    let (store, _report) = recover(device.as_ref());
    for (t, &floor) in snapshot.iter().enumerate() {
        let recovered = store
            .read(&Key::simple(TABLE, t as u64), ReadSpec::LatestCommitted)
            .and_then(|v| v.as_int())
            .unwrap_or(0);
        assert!(
            recovered >= floor as i64,
            "thread {t}: {floor} commits were acknowledged before the crash \
             but only {recovered} recovered"
        );
    }
}

#[test]
fn recovered_store_can_reopen_and_continue() {
    let device = Arc::new(MemLogDevice::new());
    let db = build(Arc::clone(&device), DurabilityMode::Synchronous);
    for i in 0..5u64 {
        let call = ProcedureCall::new(TY);
        db.execute(&call, |txn| txn.increment(Key::simple(TABLE, i), 0, 7))
            .unwrap();
    }
    db.durability().seal_current_epoch();
    db.shutdown();
    drop(db);

    let (store, report) = recover(device.as_ref());
    // Reopen a database over the recovered store and keep working.
    let db2 = Database::builder(DbConfig::for_tests())
        .procedures(procedures())
        .cc_spec(CcTreeSpec::monolithic(CcKind::Ssi, vec![TY]))
        .store(store)
        .build()
        .unwrap();
    db2.oracle().advance_past(report.max_commit_ts);
    let call = ProcedureCall::new(TY);
    let value = db2
        .execute(&call, |txn| txn.increment(Key::simple(TABLE, 0), 0, 1))
        .unwrap();
    assert_eq!(value, 8, "recovered value 7 plus the new increment");
    db2.shutdown();
}

/// What a shard log holds (see `storage::wal`): a committed transaction is
/// one `Precommit` carrying its write set — each key once, with the value
/// it commits — and its commit stamp; an aborted attempt is nothing at all.
#[test]
fn a_commit_logs_its_write_set_once_and_an_abort_logs_nothing() {
    use tebaldi_suite::storage::wal::{LogDevice, LogRecord};

    let device = Arc::new(MemLogDevice::new());
    let db = build(Arc::clone(&device), DurabilityMode::Synchronous);
    let key = |id| Key::simple(TABLE, id);

    let aborted = db.execute(&ProcedureCall::new(TY), |txn| {
        txn.put(key(1), Value::Int(1))?;
        txn.put(key(2), Value::Int(2))?;
        Err::<(), _>(txn.request_abort())
    });
    assert!(aborted.is_err());
    device.flush();
    assert_eq!(device.read_back(), Vec::new(), "an abort logs nothing");

    // Ten puts over six keys: overwrites, and a delete of an own write.
    db.execute(&ProcedureCall::new(TY), |txn| {
        for (id, v) in [
            (3, 30),
            (1, 10),
            (4, 40),
            (1, 11),
            (5, 50),
            (9, 90),
            (2, 20),
            (3, 31),
        ] {
            txn.put(key(id), Value::Int(v))?;
        }
        txn.delete(key(4))?;
        txn.put(key(9), Value::Int(91))
    })
    .unwrap();
    let final_values_in_first_write_order = vec![
        (key(3), Value::Int(31)),
        (key(1), Value::Int(11)),
        (key(4), Value::Null),
        (key(5), Value::Int(50)),
        (key(9), Value::Int(91)),
        (key(2), Value::Int(20)),
    ];
    match &device.read_back()[..] {
        [LogRecord::Precommit { writes, .. }] => {
            assert_eq!(writes, &final_values_in_first_write_order)
        }
        other => panic!("expected one Precommit, found {other:?}"),
    }
    let stats = db.durability().stats();
    assert_eq!((stats.precommits, stats.commits), (1, 0));
    db.shutdown();
}

/// Recovery rebuilds exactly the state the engine had: after a random mix
/// of multi-key transactions — overwrites inside a transaction, deletes,
/// requested aborts — every key's latest committed version in the store
/// recovered from the log equals the live store's at the crash.
#[test]
fn recovered_store_equals_the_live_store_at_the_crash() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const KEYS: u64 = 40;
    for seed in [11u64, 12, 13] {
        for mode in [
            DurabilityMode::Synchronous,
            // One long epoch, sealed by hand just before the crash.
            DurabilityMode::Asynchronous {
                epoch_ms: 3_600_000,
            },
        ] {
            let device = Arc::new(MemLogDevice::new());
            let db = build(Arc::clone(&device), mode);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut committed = 0;
            for _ in 0..300 {
                let outcome = db.execute(&ProcedureCall::new(TY), |txn| {
                    for _ in 0..rng.gen_range(1..8) {
                        // A narrow key range: transactions overwrite their
                        // own writes as well as each other's.
                        let key = Key::simple(TABLE, rng.gen_range(0..KEYS));
                        match rng.gen_range(0..10) {
                            0 => txn.delete(key)?,
                            1..=3 => {
                                txn.increment(key, 0, 1)?;
                            }
                            _ => txn.put(key, Value::Int(rng.gen_range(0..1_000_000)))?,
                        }
                    }
                    if rng.gen_range(0..5) == 0 {
                        return Err(txn.request_abort());
                    }
                    Ok(())
                });
                committed += outcome.is_ok() as usize;
            }
            if mode != DurabilityMode::Synchronous {
                db.durability().seal_current_epoch();
            }
            device.crash();

            let (recovered, report) = recover(device.as_ref());
            assert_eq!(report.recovered_txns, committed, "seed {seed} {mode:?}");
            for id in 0..KEYS {
                let key = Key::simple(TABLE, id);
                assert_eq!(
                    recovered.read(&key, ReadSpec::LatestCommitted),
                    db.store().read(&key, ReadSpec::LatestCommitted),
                    "seed {seed} {mode:?} key {id}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cluster: SEATS coordinator crash between prepare and decision
// ---------------------------------------------------------------------------

mod common;

mod cluster_seats_recovery {
    use super::common::test_partitioning;
    use super::*;
    use tebaldi_suite::cluster::{recover_cluster, Cluster, ClusterConfig};
    use tebaldi_suite::core::DurabilityMode;
    use tebaldi_suite::storage::MvStore;
    use tebaldi_suite::workloads::seats::cluster::{cluster_procedures, ClusterSeats};
    use tebaldi_suite::workloads::seats::{configs, types, Seats, SeatsParams};
    use tebaldi_suite::workloads::ClusterWorkload;

    const SHARDS: usize = 2;

    /// Crash the coordinator between SEATS prepare and decision delivery:
    /// a reservation whose commit decision reached the durable decision log
    /// must be fully applied on recovery; one with no logged decision must
    /// be presumed aborted on both shards. Afterwards no seat may be
    /// double-booked and the reservation counts must balance.
    #[test]
    fn cluster_seats_coordinator_crash_keeps_reservations_consistent() {
        run_coordinator_crash_recovery(DurabilityMode::Synchronous);
    }

    /// The same coordinator crash under GCP-epoch (asynchronous) flushing
    /// with group commit: prepare records and commit decisions are hardened
    /// synchronously regardless of the policy, so recovery must converge to
    /// the identical state.
    #[test]
    fn cluster_seats_coordinator_crash_converges_under_gcp_epoch_flushing() {
        run_coordinator_crash_recovery(DurabilityMode::Asynchronous {
            epoch_ms: 3_600_000,
        });
    }

    fn run_coordinator_crash_recovery(mode: DurabilityMode) {
        let params = SeatsParams::tiny();
        let workload = ClusterSeats::new(Seats::new(params));
        let mut config = ClusterConfig::for_tests(SHARDS);
        config.db_config.durability = mode;
        config.partitioning = test_partitioning();
        let mut registry = tebaldi_suite::core::ProcRegistry::new();
        ClusterWorkload::register_procedures(&workload, &mut registry);
        let cluster = Cluster::builder(config)
            .procedures(cluster_procedures(&workload.inner))
            .shard_procedures(registry)
            .cc_spec(configs::monolithic_2pl())
            .build()
            .unwrap();
        ClusterWorkload::load(&workload, &cluster);
        let t = workload.inner.tables;

        // Two flights on different shards, plus a remote customer for each.
        let flight_a = 0u32;
        let flight_b = (1..params.flights)
            .find(|&f| cluster.shard_of(f as u64) != cluster.shard_of(flight_a as u64))
            .expect("a flight on the other shard");
        let remote_customer = |flight: u32, skip: u32| {
            (0..params.customers)
                .find(|&c| {
                    c != skip && cluster.shard_of(c as u64) != cluster.shard_of(flight as u64)
                })
                .expect("a remote customer")
        };
        let customer_base = remote_customer(flight_a, u32::MAX);
        let customer_decided = remote_customer(flight_a, customer_base);
        let customer_undecided = remote_customer(flight_b, u32::MAX);

        // Write the rows the scenario touches through the WAL (loads bypass
        // it, so only logged state survives the crash).
        for (partition, key) in [
            (flight_a as u64, t.flight_key(flight_a)),
            (flight_b as u64, t.flight_key(flight_b)),
            (customer_base as u64, t.customer_key(customer_base)),
            (customer_decided as u64, t.customer_key(customer_decided)),
            (
                customer_undecided as u64,
                t.customer_key(customer_undecided),
            ),
        ] {
            let shard = cluster.shard_of(partition);
            cluster
                .execute_single(
                    shard,
                    tebaldi_suite::cluster::procs::KV_INCREMENT,
                    &ProcedureCall::new(types::UPDATE_CUSTOMER),
                    tebaldi_suite::cluster::procs::increment_args(key, 0, 0),
                    10,
                )
                .unwrap();
        }

        // Baseline: one committed cross-shard reservation (flight A seat 0).
        let unit = workload.new_reservation(&cluster, flight_a, 0, customer_base);
        assert!(unit.committed, "baseline reservation must commit");
        // Double-booking the same seat is a committed no-op.
        let unit = workload.new_reservation(&cluster, flight_a, 0, customer_decided);
        assert!(unit.committed);

        for shard in 0..SHARDS {
            cluster.shard(shard).durability().seal_current_epoch();
        }

        // Reservation A (decision logged): flight A seat 1.
        let decided = cluster.coordinator().begin_global();
        let fa_shard = cluster.shard_of(flight_a as u64);
        let ca_shard = cluster.shard_of(customer_decided as u64);
        let (_, pa_flight) = cluster
            .shard(fa_shard)
            .prepare(
                &ProcedureCall::new(types::NEW_RESERVATION),
                decided,
                |txn| {
                    txn.increment(t.flight_key(flight_a), 0, 1)?;
                    txn.put(
                        t.reservation_key(flight_a, 1),
                        Value::row(&[customer_decided as i64, 300, 0]),
                    )
                },
            )
            .unwrap();
        let (_, pa_customer) = cluster
            .shard(ca_shard)
            .prepare(
                &ProcedureCall::new(types::NEW_RESERVATION),
                decided,
                |txn| {
                    txn.increment(t.customer_key(customer_decided), 1, 1)?;
                    txn.put(
                        t.customer_res_key(customer_decided),
                        Value::row(&[flight_a as i64, 1]),
                    )
                },
            )
            .unwrap();
        // Commit point reached...
        cluster.coordinator().log_commit(decided, 0);

        // Reservation B (no decision): flight B seat 2.
        let undecided = cluster.coordinator().begin_global();
        let fb_shard = cluster.shard_of(flight_b as u64);
        let cb_shard = cluster.shard_of(customer_undecided as u64);
        let (_, pb_flight) = cluster
            .shard(fb_shard)
            .prepare(
                &ProcedureCall::new(types::NEW_RESERVATION),
                undecided,
                |txn| {
                    txn.increment(t.flight_key(flight_b), 0, 1)?;
                    txn.put(
                        t.reservation_key(flight_b, 2),
                        Value::row(&[customer_undecided as i64, 300, 0]),
                    )
                },
            )
            .unwrap();
        let (_, pb_customer) = cluster
            .shard(cb_shard)
            .prepare(
                &ProcedureCall::new(types::NEW_RESERVATION),
                undecided,
                |txn| {
                    txn.increment(t.customer_key(customer_undecided), 1, 1)?;
                    txn.put(
                        t.customer_res_key(customer_undecided),
                        Value::row(&[flight_b as i64, 2]),
                    )
                },
            )
            .unwrap();

        // ...and the coordinator crashes before any decision is delivered.
        let logs: Vec<_> = (0..SHARDS).map(|s| cluster.shard_log(s)).collect();
        let decision_log = cluster.coordinator().decision_log();
        std::mem::forget(pa_flight);
        std::mem::forget(pa_customer);
        std::mem::forget(pb_flight);
        std::mem::forget(pb_customer);

        let recovered = recover_cluster(&logs, decision_log.as_ref(), 4);
        for (shard, (_, report)) in recovered.iter().enumerate() {
            assert_eq!(report.in_doubt, 2, "shard {shard} had two in-doubt parts");
            assert_eq!(report.in_doubt_committed, 1, "decision log says commit A");
            assert_eq!(report.in_doubt_aborted, 1, "presumed abort for B");
        }

        let read = |partition: u64, key| -> Option<Value> {
            let store: &MvStore = &recovered[cluster.shard_of(partition)].0;
            // `read_visible` filters deleted rows' tombstones.
            store.read_visible(&key, ReadSpec::LatestCommitted)
        };

        // Decided reservation applied, undecided rolled back.
        assert!(read(flight_a as u64, t.reservation_key(flight_a, 0)).is_some());
        assert!(read(flight_a as u64, t.reservation_key(flight_a, 1)).is_some());
        assert!(
            read(flight_b as u64, t.reservation_key(flight_b, 2)).is_none(),
            "undecided reservation must be presumed aborted"
        );

        // No seat double-booked: seat 0 still belongs to the baseline
        // customer, and each flight's seats_sold equals its reservation
        // rows.
        assert_eq!(
            read(flight_a as u64, t.reservation_key(flight_a, 0)).and_then(|v| v.field(0)),
            Some(customer_base as i64)
        );
        let mut total_rows = 0i64;
        for f in [flight_a, flight_b] {
            let sold = read(f as u64, t.flight_key(f))
                .and_then(|v| v.field(0))
                .unwrap_or(0);
            let mut rows = 0i64;
            for s in 0..params.seats_per_flight {
                if read(f as u64, t.reservation_key(f, s)).is_some() {
                    rows += 1;
                }
            }
            assert_eq!(sold, rows, "flight {f}: seats_sold matches its rows");
            total_rows += rows;
        }
        assert_eq!(total_rows, 2, "baseline + decided reservations survive");

        // Reservation counts balance across the recovered shards.
        let mut customer_counts = 0i64;
        for c in 0..params.customers {
            customer_counts += read(c as u64, t.customer_key(c))
                .and_then(|v| v.field(1))
                .unwrap_or(0);
        }
        assert_eq!(customer_counts, total_rows, "counts balance after recovery");
        cluster.shutdown();
    }
}

mod cluster_snapshot_wal {
    use super::common::test_partitioning;
    use super::*;
    use tebaldi_suite::cluster::{procs, Cluster, ClusterConfig, ReadConsistency};
    use tebaldi_suite::storage::wal::LogDevice;

    const SHARDS: usize = 2;

    /// The zero-2PC contract of the HLC snapshot path, measured at the
    /// devices: a cross-shard read-only transaction served via
    /// `ReadConsistency::Snapshot` appends nothing — no prepare-phase
    /// record on any shard's WAL and no record on the coordinator's
    /// decision log. (The `Strong` baseline on the same keys goes through
    /// the vote path; this is exactly the cost the snapshot path sheds.)
    #[test]
    fn cluster_snapshot_reads_append_no_prepare_or_decision_records() {
        let mut config = ClusterConfig::for_tests(SHARDS);
        config.db_config.durability = DurabilityMode::Synchronous;
        config.partitioning = test_partitioning();
        let shard_logs: Vec<Arc<MemLogDevice>> =
            (0..SHARDS).map(|_| Arc::new(MemLogDevice::new())).collect();
        let decision_log = Arc::new(MemLogDevice::new());
        let cluster = Cluster::builder(config)
            .procedures(procedures())
            .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TY]))
            .shard_logs(
                shard_logs
                    .iter()
                    .map(|log| Arc::clone(log) as Arc<dyn tebaldi_suite::storage::wal::LogDevice>)
                    .collect(),
            )
            .decision_log(
                Arc::clone(&decision_log) as Arc<dyn tebaldi_suite::storage::wal::LogDevice>
            )
            .build()
            .unwrap();

        // One key per shard, written through the WAL so the snapshot has
        // committed versions to serve.
        let id_a = 0u64;
        let id_b = (1..64)
            .find(|&id| cluster.shard_of(id) != cluster.shard_of(id_a))
            .expect("a key on the other shard");
        for (id, value) in [(id_a, 7), (id_b, 35)] {
            cluster
                .execute_single(
                    cluster.shard_of(id),
                    procs::KV_PUT,
                    &ProcedureCall::new(TY),
                    procs::put_args(Key::simple(TABLE, id), &Value::Int(value)),
                    10,
                )
                .expect("seed write commits");
        }

        let wal_floor: Vec<usize> = shard_logs.iter().map(|log| log.durable_len()).collect();
        let decision_floor = decision_log.durable_len();

        // The cross-shard snapshot read: both shards in one consistent cut.
        let values = cluster
            .read(
                vec![
                    (id_a, Key::simple(TABLE, id_a)),
                    (id_b, Key::simple(TABLE, id_b)),
                ],
                ReadConsistency::Snapshot,
            )
            .expect("snapshot read serves");
        assert_eq!(values[0], Some(Value::Int(7)));
        assert_eq!(values[1], Some(Value::Int(35)));
        assert!(
            cluster.stats().snapshot_reads > 0,
            "the read must have gone down the snapshot path"
        );

        for (shard, log) in shard_logs.iter().enumerate() {
            assert_eq!(
                log.durable_len(),
                wal_floor[shard],
                "shard {shard}: a snapshot read appended a WAL record"
            );
        }
        assert_eq!(
            decision_log.durable_len(),
            decision_floor,
            "a snapshot read appended a decision record"
        );
        cluster.shutdown();
    }
}
