//! Property-based tests on core data structures and engine invariants.

use proptest::prelude::*;
use tebaldi_suite::cc::procinfo::{AccessMode, ProcedureInfo};
use tebaldi_suite::cc::rp_analysis::analyze;
use tebaldi_suite::storage::{
    Chain, GroupId, Key, MvStore, TableId, Timestamp, TxnId, Value, Version,
};

/// Holds one view of a chain to everything a full scan of its own walk
/// says: the position-order invariant, one uncommitted version per writer,
/// `len`, and every early-exit query against the exhaustive answer — at each
/// probe timestamp and for each writer asked about. Returns what the view
/// said about those writers' in-flight versions.
fn check_chain(chain: &Chain<'_>, probes: &[u64], writers: &[u64]) -> Vec<(Option<TxnId>, bool)> {
    let all: Vec<&Version> = chain.iter().collect();
    assert_eq!(chain.len(), all.len());
    let commits: Vec<Timestamp> = all.iter().filter_map(|v| v.commit_ts()).collect();
    assert!(commits.windows(2).all(|w| w[0] >= w[1]), "{commits:?}");
    let orders: Vec<Timestamp> = all.iter().filter_map(|v| v.order_ts).collect();
    assert!(orders.windows(2).all(|w| w[0] >= w[1]), "{orders:?}");
    let uncommitted = |keep: &dyn Fn(u64) -> bool| -> Vec<TxnId> {
        let in_flight = all.iter().filter(|v| !v.is_committed());
        in_flight
            .filter(|v| keep(v.writer.0))
            .map(|v| v.writer)
            .collect()
    };
    // The committed version with the largest timestamp `keep` admits, the
    // newest by position among equals.
    let newest = |keep: &dyn Fn(Timestamp) -> bool| {
        let admitted = all.iter().rev().filter(|v| v.commit_ts().is_some_and(keep));
        admitted.max_by_key(|v| v.commit_ts()).map(|v| v.writer)
    };
    let id = |v: Option<&Version>| v.map(|v| v.writer);
    assert_eq!(id(chain.latest_committed()), newest(&|_| true));
    for ts in probes.iter().map(|p| Timestamp(*p)) {
        assert_eq!(id(chain.committed_before(ts)), newest(&|c| c < ts));
        assert_eq!(id(chain.committed_at_or_before(ts)), newest(&|c| c <= ts));
        assert_eq!(id(chain.committed_after(ts)), newest(&|c| c > ts));
    }
    writers
        .iter()
        .map(|&w| {
            let mine = uncommitted(&|writer| writer == w);
            assert!(mine.len() <= 1, "two uncommitted versions of writer {w}");
            let others = !uncommitted(&|writer| writer != w).is_empty();
            assert_eq!(id(chain.uncommitted_by(TxnId(w))), mine.first().copied());
            assert_eq!(chain.has_other_uncommitted(TxnId(w)), others);
            (mine.first().copied(), others)
        })
        .collect()
}

/// Lock-free readers stay safe mid-mutation, with the interleaving forced:
/// a walk stops on the head, the chain is spliced, overwritten, aborted and
/// pruned underneath it (the epoch pin is re-entrant, the walk holds no
/// latch), and the walk carries on. It may meet versions that have since
/// been replaced or unlinked — its pin keeps their slots — but it ends, in
/// position order, on live memory.
#[test]
fn a_walk_begun_before_the_splices_finishes_in_order() {
    let store = MvStore::new(1);
    let key = Key::simple(TableId(0), 1);
    store.load(&key, Value::Int(0));
    for (txn, ts) in [(1, 10), (2, 20)] {
        store.write(&key, TxnId(txn), Value::Int(0));
        store.commit_writes(TxnId(txn), &[key], Timestamp(ts));
    }
    // T`txn` writes 0, stamped with `txn`.
    let stamped = |txn: u64| {
        let version = Version::uncommitted(
            GroupId::NONE,
            TxnId(txn),
            Value::Int(0),
            Some(Timestamp(txn)),
        );
        store.with_chain_mut(&key, |chain| chain.install(version));
    };
    for txn in [300, 200, 100] {
        stamped(txn);
    }
    let writers = |chain: &Chain<'_>| chain.iter().map(|v| v.writer.0).collect::<Vec<_>>();
    store.with_chain(&key, |chain| {
        assert_eq!(writers(chain), [300, 200, 100, 2, 1, 0]);
        let mut walk = chain.iter();
        assert_eq!(walk.next().unwrap().writer, TxnId(300));
        // The walk now stands on T200's node. Underneath it:
        stamped(250);
        store.write(&key, TxnId(200), Value::Int(7)); // replaces that node
        store.abort_writes(TxnId(100), &[key]);
        // T1's version is what a read strictly before 20 returns: only the
        // load goes.
        assert_eq!(store.prune_before(Timestamp(20)), 1);
        // It still sees the chain it set out on, minus what was pruned
        // ahead of it, and T200's value as it was.
        let rest: Vec<(u64, Option<i64>)> = walk.map(|v| (v.writer.0, v.value.as_int())).collect();
        assert_eq!(
            rest,
            [(200, Some(0)), (100, Some(0)), (2, Some(0)), (1, Some(0))]
        );
        // A walk begun now sees every splice (the head is re-loaded).
        assert_eq!(writers(chain), [300, 250, 200, 2, 1]);
        assert_eq!(
            chain.uncommitted_by(TxnId(200)).unwrap().value.as_int(),
            Some(7)
        );
    });
    assert_eq!(store.gen_mismatches(), 0);
    assert_eq!(store.stats(), store.stats_scanned());
}

/// TSO's order check as a full scan: the first version of the chain from
/// outside the group that sorts after `ts` — the reference
/// [`Chain::ordered_after`] answers as.
fn ordered_after_by_scan<'a>(
    chain: &Chain<'a>,
    ts: Timestamp,
    in_group: impl Fn(&Version) -> bool,
) -> Option<&'a Version> {
    chain
        .iter()
        .find(|v| !in_group(v) && v.sort_ts().is_some_and(|s| s > ts))
}

/// One step of the random-chain generator, `(kind, a, b)`, read against the
/// chain's state when it runs.
type ChainOp = (u32, u64, u64);

/// The random-chain generator: installs (with and without an `order_ts`),
/// same-writer overwrites, commits, aborts and prunes on one key of a real
/// store, the way the engine drives a chain: per-key commit order follows
/// chain position (mechanisms enforce it through locks and dependency
/// waits), a timestamp-ordered install never lands below a committed
/// version (TSO aborts a write "into the past"), and an `order_ts` comes
/// from the clock the commits do, so every commit after it is larger.
/// Writer `w` runs in group `w % 3`. Each step asserts what it did; then
/// `check` gets the store, the key, timestamps to probe at and writers to
/// ask about.
fn drive_chain(ops: &[ChainOp], mut check: impl FnMut(&MvStore, &Key, &[u64], &[u64])) {
    let store = MvStore::new(1);
    let key = Key::simple(TableId(0), 1);
    let group = |writer: u64| GroupId((writer % 3) as u32);
    let (mut next_id, mut clock) = (1u64, 0u64);
    for &(kind, a, b) in ops {
        // (writer, order_ts) of the versions in flight, newest first;
        // the largest `order_ts` already committed.
        let (in_flight, floor) = store.with_chain(&key, |chain| {
            let in_flight: Vec<(u64, Option<Timestamp>)> = chain
                .iter()
                .filter(|v| !v.is_committed())
                .map(|v| (v.writer.0, v.order_ts))
                .collect();
            let committed = chain.iter().filter(|v| v.is_committed());
            (in_flight, committed.filter_map(|v| v.order_ts).max())
        });
        let picked = in_flight.get(a as usize % in_flight.len().max(1)).copied();
        store.with_chain_mut(&key, |chain| {
            let order = |chain: &Chain<'_>| chain.iter().map(|v| v.writer).collect::<Vec<_>>();
            let (len, before) = (chain.len(), order(chain));
            match (kind, picked) {
                // Overwrite: not a first write; position and — when the new
                // version names none — `order_ts` stay.
                (4, Some((writer, order_ts))) => {
                    let order_ts = order_ts.filter(|_| b % 2 == 0);
                    let (value, writer) = (Value::Int(b as i64), TxnId(writer));
                    let again = Version::uncommitted(group(writer.0), writer, value, order_ts);
                    prop_assert!(!chain.install(again));
                    prop_assert_eq!(order(chain), before);
                    let mine = chain.uncommitted_by(writer).unwrap();
                    prop_assert_eq!(mine.value.as_int(), Some(b as i64));
                }
                // Commit the deepest version in flight, in place.
                (5, Some(_)) => {
                    let writer = TxnId(in_flight.last().unwrap().0);
                    clock += 1 + b % 5;
                    prop_assert!(chain.commit(writer, Timestamp(clock)));
                    prop_assert_eq!(order(chain), before);
                    let latest = chain.latest_committed().unwrap();
                    prop_assert_eq!(latest.writer, writer);
                    prop_assert_eq!(latest.commit_ts(), Some(Timestamp(clock)));
                }
                (6, Some((writer, _))) => {
                    prop_assert!(chain.abort(TxnId(writer)));
                    prop_assert!(!chain.abort(TxnId(writer)));
                    prop_assert_eq!(chain.len(), len - 1);
                }
                // A read at any timestamp at or above the horizon returns
                // the same version before and after a prune (probed at the
                // horizon and where each answer can change: at every commit
                // and just past it). Prune keeps every version in flight and
                // at most one committed below the horizon.
                (7, _) => {
                    let horizon = Timestamp(a % (clock + 10));
                    let commits = chain.iter().filter_map(|v| v.commit_ts());
                    let probes: Vec<Timestamp> = commits
                        .flat_map(|c| [c, Timestamp(c.0 + 1)])
                        .chain([horizon])
                        .filter(|ts| *ts >= horizon)
                        .collect();
                    let reads = |chain: &Chain<'_>| {
                        let id = |v: Option<&Version>| v.map(|v| v.writer);
                        let read = |ts| {
                            (
                                id(chain.committed_before(ts)),
                                id(chain.committed_at_or_before(ts)),
                            )
                        };
                        probes.iter().map(|&ts| read(ts)).collect::<Vec<_>>()
                    };
                    let seen = reads(chain);
                    prop_assert_eq!(chain.prune(horizon), len - chain.len());
                    prop_assert_eq!(reads(chain), seen);
                    let below = chain
                        .iter()
                        .filter(|v| v.commit_ts().is_some_and(|ts| ts < horizon));
                    prop_assert!(below.count() <= 1);
                    let kept = chain.iter().filter(|v| !v.is_committed()).count();
                    prop_assert_eq!(kept, in_flight.len());
                }
                // A new writer: at the head, or at its `order_ts` position
                // above everything committed.
                _ => {
                    let order_ts =
                        (kind % 2 == 1).then(|| Timestamp(floor.map_or(0, |f| f.0) + 1 + b % 40));
                    clock = clock.max(order_ts.map_or(0, |ts| ts.0));
                    let writer = TxnId(next_id);
                    next_id += 1;
                    let version =
                        Version::uncommitted(group(writer.0), writer, Value::Int(0), order_ts);
                    prop_assert!(chain.install(version));
                    prop_assert_eq!(chain.len(), len + 1);
                    if order_ts.is_none() {
                        prop_assert_eq!(chain.iter().next().unwrap().writer, writer);
                    }
                }
            }
        });
        let probes = [0, a % (clock + 2), clock / 2, clock, clock + 1];
        // Everyone who was in flight, the newest writer, one never seen.
        let writers = in_flight.iter().map(|w| w.0).chain([next_id - 1, next_id]);
        let writers: Vec<u64> = writers.collect();
        check(&store, &key, &probes, &writers);
    }
}

proptest! {
    /// After every step of the random-chain generator the latched view and
    /// the lock-free view each pass `check_chain`, agree with each other,
    /// and the store's O(1) counters equal a full scan.
    #[test]
    fn version_chain_operations_keep_every_invariant(
        ops in proptest::collection::vec((0u32..8, 0u64..1000, 0u64..1000), 1..60),
    ) {
        drive_chain(&ops, |store, key, probes, writers| {
            let latched = store.with_chain_mut(key, |c| check_chain(c, probes, writers));
            let lock_free = store.with_chain(key, |c| check_chain(c, probes, writers));
            prop_assert_eq!(latched, lock_free);
            prop_assert_eq!(store.stats(), store.stats_scanned());
        });
    }

    /// TSO's order check stops at the first decisive version and still
    /// answers as the full scan it replaced: on every chain of the
    /// generator, latched and lock-free, at every timestamp where the
    /// answer can change and for every split of the writers into the
    /// writer's group and the rest (each of the three groups in turn, then
    /// none).
    #[test]
    fn ordered_after_answers_as_the_full_scan(
        ops in proptest::collection::vec((0u32..8, 0u64..1000, 0u64..1000), 1..60),
    ) {
        drive_chain(&ops, |store, key, probes, _| {
            let check = |chain: &Chain<'_>| {
                let sorts: Vec<u64> = chain.iter().filter_map(|v| v.sort_ts()).map(|ts| ts.0).collect();
                let edges = sorts.iter().flat_map(|&ts| [ts.saturating_sub(1), ts]);
                for ts in probes.iter().copied().chain(edges).map(Timestamp) {
                    for split in 0..4 {
                        let in_group = |v: &Version| v.group == GroupId(split);
                        let writer = |v: Option<&Version>| v.map(|v| v.writer);
                        prop_assert_eq!(
                            writer(chain.ordered_after(ts, in_group)),
                            writer(ordered_after_by_scan(chain, ts, in_group)),
                            "ts {:?}, group {}", ts, split
                        );
                    }
                }
            };
            store.with_chain_mut(key, |c| check(c));
            store.with_chain(key, check);
        });
    }

    /// Composite keys are injective over their parts.
    #[test]
    fn composite_keys_are_injective(a in proptest::collection::vec(0u32..1000, 1..5),
                                    b in proptest::collection::vec(0u32..1000, 1..5)) {
        let ka = Key::composite(TableId(1), &a);
        let kb = Key::composite(TableId(1), &b);
        // Same length and same parts <=> same key.
        if a.len() == b.len() {
            prop_assert_eq!(a == b, ka == kb);
        }
        for (i, part) in a.iter().enumerate() {
            prop_assert_eq!(ka.part(i, a.len()), *part);
        }
    }

    /// Runtime pipelining's static analysis always produces a step
    /// assignment that respects every procedure's access order up to
    /// merged (cyclically dependent) tables: steps never decrease along a
    /// procedure's table sequence unless the two tables share a step.
    #[test]
    fn rp_analysis_respects_access_order(seqs in proptest::collection::vec(
        proptest::collection::vec(0u32..6, 1..6), 1..5)) {
        let procedures: Vec<ProcedureInfo> = seqs
            .iter()
            .enumerate()
            .map(|(i, tables)| {
                ProcedureInfo::new(
                    tebaldi_suite::storage::TxnTypeId(i as u32),
                    &format!("p{i}"),
                    tables.iter().map(|t| (TableId(*t), AccessMode::Write)).collect(),
                )
            })
            .collect();
        let refs: Vec<&ProcedureInfo> = procedures.iter().collect();
        let plan = analyze(&refs);
        for tables in &seqs {
            for pair in tables.windows(2) {
                let (a, b) = (TableId(pair[0]), TableId(pair[1]));
                if a != b {
                    prop_assert!(
                        plan.step_of(a) <= plan.step_of(b),
                        "step order violated: {:?}->{:?}", a, b
                    );
                }
            }
        }
        prop_assert!(plan.num_steps <= 6);
    }

    /// Values survive field updates without disturbing other fields.
    #[test]
    fn value_field_updates_are_local(fields in proptest::collection::vec(-1000i64..1000, 1..6),
                                     idx in 0usize..6, new_value in -1000i64..1000) {
        let value = Value::row(&fields);
        let updated = value.with_field(idx, new_value);
        prop_assert_eq!(updated.field(idx), Some(new_value));
        for (i, original) in fields.iter().enumerate() {
            if i != idx {
                prop_assert_eq!(updated.field(i), Some(*original));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SEATS: a hot flight never oversells
// ---------------------------------------------------------------------------

/// One reservation op against the hot flight: `kind` 0 books, 1 releases,
/// 2 (recovery mix only) runs the tier-check update whose customer part
/// votes `ReadOnly`.
type HotFlightOp = (u32, u32, u32); // (kind, seat, customer)

mod seats_oversell {
    use super::HotFlightOp;
    use std::sync::Arc;
    use tebaldi_suite::cluster::{Cluster, ClusterConfig};
    use tebaldi_suite::core::Database;
    use tebaldi_suite::storage::ReadSpec::LatestCommitted;
    use tebaldi_suite::workloads::seats::cluster::{cluster_procedures, ClusterSeats};
    use tebaldi_suite::workloads::seats::{configs, Seats, SeatsParams, SeatsTables};
    use tebaldi_suite::workloads::{ClusterWorkload, Workload};

    pub const HOT_FLIGHT: u32 = 0;
    pub const SEATS: u32 = 6;
    pub const CUSTOMERS: u32 = 5;

    fn params() -> SeatsParams {
        SeatsParams {
            flights: 2,
            seats_per_flight: SEATS,
            customers: CUSTOMERS,
            open_seat_probes: 3,
        }
    }

    /// seats_sold, reservation-row count and summed customer counts of the
    /// hot flight's world, read from wherever the rows live.
    fn invariants(read: impl Fn(u64, tebaldi_suite::storage::Key) -> Option<i64>, t: &SeatsTables) {
        let sold = read(HOT_FLIGHT as u64, t.flight_key(HOT_FLIGHT)).unwrap_or(0);
        let mut rows = 0i64;
        for s in 0..SEATS {
            if read(HOT_FLIGHT as u64, t.reservation_key(HOT_FLIGHT, s)).is_some() {
                rows += 1;
            }
        }
        let mut counts = 0i64;
        for c in 0..CUSTOMERS {
            let count = read(c as u64, t.customer_key(c)).unwrap_or(0);
            assert!(count >= 0, "customer {c} reservation count negative");
            counts += count;
        }
        assert_eq!(sold, rows, "seats_sold must equal reservation rows");
        assert_eq!(counts, rows, "customer counts must balance");
        assert!(
            (0..=SEATS as i64).contains(&sold),
            "hot flight oversold: {sold} of {SEATS}"
        );
    }

    /// Runs the ops concurrently on a single-node SEATS database (2PL) and
    /// checks the invariants.
    pub fn run_single_node(ops: &[HotFlightOp], threads: usize) {
        let seats = Arc::new(Seats::new(params()));
        let db = Arc::new(
            Database::builder(tebaldi_suite::core::DbConfig::for_tests())
                .procedures(Workload::procedures(&*seats))
                .cc_spec(configs::monolithic_2pl())
                .build()
                .unwrap(),
        );
        Workload::load(&*seats, &db);
        run_threads(ops, threads, |(kind, seat, customer)| {
            let db = Arc::clone(&db);
            let seats = Arc::clone(&seats);
            move || {
                if kind == 0 {
                    seats.new_reservation(&db, HOT_FLIGHT, seat, customer);
                } else {
                    seats.delete_reservation(&db, HOT_FLIGHT, seat, customer);
                }
            }
        });
        let t = seats.tables;
        invariants(
            |_, key| {
                db.store()
                    .read_visible(&key, LatestCommitted)
                    .and_then(|v| field_of(&key, &t, v))
            },
            &t,
        );
        db.shutdown();
    }

    /// Runs the ops concurrently against a two-shard cluster (SSI per
    /// shard, customers may live remote from the hot flight) and checks the
    /// same invariants across shards.
    pub fn run_clustered(ops: &[HotFlightOp], threads: usize) {
        let workload = Arc::new(ClusterSeats::new(Seats::new(params())));
        let mut registry = tebaldi_suite::core::ProcRegistry::new();
        ClusterWorkload::register_procedures(&*workload, &mut registry);
        let cluster = Arc::new(
            Cluster::builder(ClusterConfig::for_tests(2))
                .procedures(cluster_procedures(&workload.inner))
                .shard_procedures(registry)
                .cc_spec(configs::monolithic_ssi())
                .build()
                .unwrap(),
        );
        ClusterWorkload::load(&*workload, &cluster);
        run_threads(ops, threads, |(kind, seat, customer)| {
            let cluster = Arc::clone(&cluster);
            let workload = Arc::clone(&workload);
            move || {
                if kind == 0 {
                    workload.new_reservation(&cluster, HOT_FLIGHT, seat, customer);
                } else {
                    workload.delete_reservation(&cluster, HOT_FLIGHT, seat, customer);
                }
            }
        });
        assert_eq!(cluster.in_doubt_count(), 0);
        let t = workload.inner.tables;
        invariants(
            |partition, key| {
                cluster
                    .shard(cluster.shard_of(partition))
                    .store()
                    .read_visible(&key, LatestCommitted)
                    .and_then(|v| field_of(&key, &t, v))
            },
            &t,
        );
        cluster.shutdown();
    }

    /// Flight rows report seats_sold (field 0), customer rows their
    /// reservation count (field 1); reservation rows only need presence.
    /// Callers read through `MvStore::read_visible`, which already filters
    /// delete tombstones.
    fn field_of(
        key: &tebaldi_suite::storage::Key,
        t: &SeatsTables,
        value: tebaldi_suite::storage::Value,
    ) -> Option<i64> {
        if key.table == t.customer {
            value.field(1)
        } else if key.table == t.flight {
            value.field(0)
        } else {
            Some(1)
        }
    }

    /// Runs a random mix of read-write (book/release) and vote-class-mixed
    /// (tier-check update: read-only customer part, one-phase commit) ops
    /// against a two-shard cluster with synchronous durability, then
    /// crashes every shard and the coordinator and checks the balance
    /// invariants on the *recovered* stores. Covers the acceptance claim
    /// that random `ReadOnly`/read-write participant mixes always recover
    /// to balanced SEATS counts.
    pub fn run_clustered_with_recovery(ops: &[HotFlightOp]) {
        use tebaldi_suite::cluster::recover_cluster;
        use tebaldi_suite::core::{DurabilityMode, ProcedureCall};
        use tebaldi_suite::workloads::seats::types;

        let workload = ClusterSeats::new(Seats::new(params()));
        let mut config = ClusterConfig::for_tests(2);
        config.db_config.durability = DurabilityMode::Synchronous;
        let mut registry = tebaldi_suite::core::ProcRegistry::new();
        ClusterWorkload::register_procedures(&workload, &mut registry);
        let cluster = Cluster::builder(config)
            .procedures(cluster_procedures(&workload.inner))
            .shard_procedures(registry)
            .cc_spec(configs::monolithic_ssi())
            .build()
            .unwrap();
        ClusterWorkload::load(&workload, &cluster);
        let t = workload.inner.tables;

        // Write the rows the invariants read through the WAL (loads bypass
        // it, so only logged state survives the crash).
        use tebaldi_suite::cluster::procs as kv;
        for f in 0..params().flights {
            let shard = cluster.shard_of(f as u64);
            let call = ProcedureCall::new(types::NEW_RESERVATION).with_instance_seed(f as u64);
            cluster
                .execute_single(
                    shard,
                    kv::KV_INCREMENT,
                    &call,
                    kv::increment_args(t.flight_key(f), 0, 0),
                    10,
                )
                .unwrap();
        }
        for c in 0..CUSTOMERS {
            let shard = cluster.shard_of(c as u64);
            let call = ProcedureCall::new(types::UPDATE_CUSTOMER).with_instance_seed(c as u64);
            cluster
                .execute_single(
                    shard,
                    kv::KV_INCREMENT,
                    &call,
                    kv::increment_args(t.customer_key(c), 1, 0),
                    10,
                )
                .unwrap();
        }

        for &(kind, seat, customer) in ops {
            let seat = seat % SEATS;
            let customer = customer % CUSTOMERS;
            match kind % 3 {
                0 => workload.new_reservation(&cluster, HOT_FLIGHT, seat, customer),
                1 => workload.delete_reservation(&cluster, HOT_FLIGHT, seat, customer),
                _ => workload.update_reservation(&cluster, HOT_FLIGHT, seat, customer),
            };
        }
        assert_eq!(cluster.in_doubt_count(), 0);
        for shard in 0..2 {
            cluster.shard(shard).durability().seal_current_epoch();
        }

        // Crash: rebuild every shard from its WAL + the decision log only.
        let logs: Vec<_> = (0..2).map(|s| cluster.shard_log(s)).collect();
        let decision_log = cluster.coordinator().decision_log();
        let recovered = recover_cluster(&logs, decision_log.as_ref(), 4);
        invariants(
            |partition, key| {
                recovered[cluster.shard_of(partition)]
                    .0
                    .read_visible(&key, LatestCommitted)
                    .and_then(|v| field_of(&key, &t, v))
            },
            &t,
        );
        cluster.shutdown();
    }

    /// Spreads the ops round-robin over `threads` workers and joins them.
    fn run_threads<F, R>(ops: &[HotFlightOp], threads: usize, make: F)
    where
        F: Fn(HotFlightOp) -> R,
        R: FnOnce() + Send + 'static,
    {
        let mut lanes: Vec<Vec<R>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, &(kind, seat, customer)) in ops.iter().enumerate() {
            lanes[i % threads].push(make((kind, seat % SEATS, customer % CUSTOMERS)));
        }
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|lane| {
                std::thread::spawn(move || {
                    for op in lane {
                        op();
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("worker panicked");
        }
    }
}

proptest! {
    /// Random interleavings of new/delete reservations on one hot flight
    /// never oversell it on a single node: seats_sold always equals the
    /// number of reservation rows and stays within capacity.
    #[test]
    fn hot_flight_never_oversells_single_node(
        ops in proptest::collection::vec((0u32..2, 0u32..6, 0u32..5), 1..24),
        threads in 2usize..4,
    ) {
        seats_oversell::run_single_node(&ops, threads);
    }

    /// The same interleavings through the flight-partitioned cluster (the
    /// customer side of a booking may commit on another shard via 2PC)
    /// never oversell either, and the cross-shard counts balance.
    #[test]
    fn hot_flight_never_oversells_clustered(
        ops in proptest::collection::vec((0u32..2, 0u32..6, 0u32..5), 1..16),
        threads in 2usize..4,
    ) {
        seats_oversell::run_clustered(&ops, threads);
    }

    /// Random mixes of ReadOnly and read-write 2PC participants (bookings,
    /// releases, and one-phase tier-check updates) always crash-recover to
    /// balanced SEATS counts: seats_sold = reservation rows = customer
    /// reservation counts, reconstructed purely from WALs + decision log.
    #[test]
    fn mixed_vote_classes_recover_to_balanced_counts(
        ops in proptest::collection::vec((0u32..3, 0u32..6, 0u32..5), 1..12),
    ) {
        seats_oversell::run_clustered_with_recovery(&ops);
    }
}

mod store_hammer {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use tebaldi_suite::storage::{Key, MvStore, ReadSpec, TableId, Timestamp, TxnId, Value};

    /// Hammers one lock-free store with concurrent committing writers,
    /// chain-traversing readers, and a GC thread pruning + reclaiming the
    /// whole time. The assertions are the reclamation-safety contract:
    /// readers only ever see well-formed values from the written domain
    /// (never a freed slot's garbage), and the arena records zero
    /// generation-mismatched dereferences.
    pub fn run(n_keys: u64, writer_threads: usize, rounds: u64) {
        let store = Arc::new(MvStore::new(4));
        let clock = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let keys: Vec<Key> = (0..n_keys).map(|k| Key::simple(TableId(0), k)).collect();
        for key in &keys {
            store.load(key, Value::Int(0));
        }
        let mut handles = Vec::new();
        for w in 0..writer_threads {
            let store = Arc::clone(&store);
            let clock = Arc::clone(&clock);
            let keys = keys.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..rounds {
                    let key = keys[((w as u64) * 31 + i) as usize % keys.len()];
                    let txn = TxnId(1 + (w as u64) * 1_000_000 + i);
                    store.write(&key, txn, Value::Int((w as u64 * 1_000_000 + i) as i64));
                    let ts = clock.fetch_add(1, Ordering::Relaxed) + 1;
                    store.commit_writes(txn, &[key], Timestamp(ts));
                }
            }));
        }
        for _ in 0..2 {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let keys = keys.clone();
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for key in &keys {
                        if let Some(value) = store.read_visible(key, ReadSpec::LatestCommitted) {
                            let n = value
                                .as_int()
                                .expect("reader observed a non-Int value: freed or torn slot");
                            assert!(n >= 0, "reader observed out-of-domain value {n}");
                        }
                    }
                }
            }));
        }
        {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let clock = Arc::clone(&clock);
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let horizon = clock.load(Ordering::Relaxed).saturating_sub(3);
                    store.prune_before(Timestamp(horizon));
                    store.reclaim();
                    std::thread::yield_now();
                }
            }));
        }
        // Writers are the finite workload; readers and GC spin until the
        // writers are done.
        let (writers, spinners) = handles.split_at(writer_threads);
        // `split_at` borrows; join by draining the vec in order instead.
        let _ = (writers, spinners);
        let mut handles = handles;
        for handle in handles.drain(..writer_threads) {
            handle.join().expect("writer panicked");
        }
        stop.store(true, Ordering::Relaxed);
        for handle in handles {
            handle.join().expect("reader or GC thread panicked");
        }
        // Quiescent now: check the safety counters, then drain limbo (each
        // reclaim can advance the epoch once).
        assert_eq!(
            store.gen_mismatches(),
            0,
            "a chain traversal dereferenced a reclaimed (generation-bumped) slot"
        );
        store.prune_before(Timestamp(clock.load(Ordering::Relaxed) + 1));
        // The epoch domain is process-global, so pins held by *other* tests
        // running in this binary can stall the advance; retry with a pause
        // (their pins are per-operation and short), and only fail when no
        // foreign pin can explain a stall.
        let mut drained = false;
        for _ in 0..500 {
            if store.limbo_stats().0 == 0 {
                drained = true;
                break;
            }
            store.reclaim();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        if !drained && tebaldi_suite::storage::ebr::domain().min_pin().is_none() {
            panic!(
                "limbo failed to drain once quiescent: {:?}",
                store.limbo_stats()
            );
        }
        let o1 = store.stats();
        let scanned = store.stats_scanned();
        assert_eq!(o1.keys, scanned.keys);
        assert_eq!(o1.versions, scanned.versions);
        assert_eq!(o1.uncommitted, scanned.uncommitted);
    }
}

proptest! {
    /// Reclamation safety under concurrency: no reader ever observes a
    /// freed or generation-mismatched arena slot while writers commit and
    /// GC prunes + reclaims underneath it.
    #[test]
    fn lock_free_store_survives_concurrent_readers_writers_gc(
        n_keys in 2u64..6,
        writer_threads in 2usize..4,
        rounds in 20u64..80,
    ) {
        store_hammer::run(n_keys, writer_threads, rounds);
    }
}

mod tree_shape {
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::time::Duration;
    use tebaldi_suite::cc::{
        CcKind, CcNodeSpec, CcTree, CcTreeSpec, Lane, NodeEnv, NullSink, ProcedureSet, Topology,
        TreeServices, TsOracle, TxnRegistry,
    };
    use tebaldi_suite::obs::MetricsRegistry;
    use tebaldi_suite::storage::{GroupId, NodeId, TxnTypeId};

    /// The map-filling walk the tree builder numbered a tree with before a
    /// subtree became a range of group ids, kept as the reference
    /// [`Topology::of`] and [`CcTree::build`] answer as: node ids in
    /// pre-order, a leaf split by instance expanded one copy at a time, and
    /// every group recorded at its leaf and at each ancestor with its lane
    /// there.
    #[derive(Default)]
    struct MapWalk {
        /// `(node, group)` → the lane of `node` whose subtree holds `group`.
        child_of: HashMap<(NodeId, GroupId), u32>,
        /// Leaf node → the group it hosts.
        leaf_group: HashMap<NodeId, GroupId>,
        /// The label of each node's spec, by node id.
        labels: Vec<String>,
        /// Each group's root→leaf path, by group id.
        paths: Vec<Vec<(NodeId, Lane)>>,
        groups_of_type: HashMap<TxnTypeId, Vec<GroupId>>,
    }

    impl MapWalk {
        fn of(spec: &CcTreeSpec) -> MapWalk {
            let mut walk = MapWalk::default();
            walk.expand(&spec.root, &[]);
            walk
        }

        fn new_node(&mut self, spec: &CcNodeSpec) -> NodeId {
            self.labels.push(spec.label.clone());
            NodeId(self.labels.len() as u32 - 1)
        }

        fn expand(&mut self, spec: &CcNodeSpec, ancestors: &[(NodeId, u32)]) {
            if spec.is_leaf() {
                for _ in 0..spec.instance_partitions.max(1) {
                    let node = self.new_node(spec);
                    let group = GroupId(self.paths.len() as u32);
                    self.leaf_group.insert(node, group);
                    for (anc, lane) in ancestors {
                        self.child_of.insert((*anc, group), *lane);
                    }
                    let mut path: Vec<_> = ancestors
                        .iter()
                        .map(|(anc, lane)| (*anc, Lane::Child(*lane)))
                        .collect();
                    path.push((node, Lane::Leaf));
                    self.paths.push(path);
                    for ty in &spec.txn_types {
                        self.groups_of_type.entry(*ty).or_default().push(group);
                    }
                }
                return;
            }
            let node = self.new_node(spec);
            let mut lane = 0;
            for child in &spec.children {
                let copies = if child.is_leaf() {
                    child.instance_partitions.max(1)
                } else {
                    1
                };
                for _ in 0..copies {
                    let mut anc = ancestors.to_vec();
                    anc.push((node, lane));
                    lane += 1;
                    let mut single = child.clone();
                    if child.is_leaf() {
                        single.instance_partitions = 1;
                    }
                    self.expand(&single, &anc);
                }
            }
        }

        fn same_group(&self, node: NodeId, lane: Lane, group: GroupId) -> bool {
            match lane {
                Lane::Child(c) => self.child_of.get(&(node, group)) == Some(&c),
                Lane::Leaf => self.leaf_group.get(&node) == Some(&group),
            }
        }

        fn in_subtree(&self, node: NodeId, group: GroupId) -> bool {
            self.leaf_group.get(&node) == Some(&group) || self.child_of.contains_key(&(node, group))
        }
    }

    /// A random spec read off `draws`, used in turn and cycled: depth at
    /// most 4, one to three children per inner node, a leaf below the root
    /// split into one to three instance copies, any mechanism at a leaf
    /// and any but TSO at an inner node. Every node has a label of its
    /// own and every leaf a transaction type of its own.
    pub fn random_spec(draws: &[u64]) -> CcTreeSpec {
        const KINDS: [CcKind; 5] = [
            CcKind::TwoPl,
            CcKind::Rp,
            CcKind::Ssi,
            CcKind::NoCc,
            CcKind::Tso,
        ];
        let mut draws = draws.iter().cycle();
        let mut draw = |n: u64| draws.next().unwrap() % n;
        let mut labels = 0u32;
        fn node(depth: usize, draw: &mut dyn FnMut(u64) -> u64, labels: &mut u32) -> CcNodeSpec {
            *labels += 1;
            let label = format!("n{labels}");
            let leaf = depth == 4 || draw(if depth == 1 { 4 } else { 2 }) == 0;
            if leaf {
                let kind = KINDS[draw(5) as usize];
                let copies = if depth == 1 { 1 } else { 1 + draw(3) as u32 };
                CcNodeSpec::leaf_by_instance(kind, &label, vec![TxnTypeId(*labels)], copies)
            } else {
                let kind = KINDS[draw(4) as usize];
                let children = (0..1 + draw(3)).map(|_| node(depth + 1, draw, labels));
                CcNodeSpec::inner(kind, &label, children.collect())
            }
        }
        CcTreeSpec::new(node(1, &mut draw, &mut labels))
    }

    /// Checks `spec`'s numbering, paths and membership answers against the
    /// reference walk, for every node and lane and for every group id up
    /// to two past the last, and [`GroupId::NONE`].
    pub fn check(spec: CcTreeSpec) {
        spec.validate().expect("the generator makes valid specs");
        let reference = MapWalk::of(&spec);
        let (topology, spec_nodes) = Topology::of(&spec);
        let labels: Vec<&str> = spec_nodes.iter().map(|n| n.label.as_str()).collect();
        assert_eq!(labels, reference.labels, "node ids");
        let services = TreeServices {
            registry: Arc::new(TxnRegistry::default()),
            oracle: Arc::new(TsOracle::new()),
            events: Arc::new(NullSink),
            wait_timeout: Duration::from_millis(10),
            metrics: Arc::new(MetricsRegistry::new()),
        };
        let tree = CcTree::build(spec.clone(), &ProcedureSet::new(), &services).unwrap();
        assert_eq!(tree.node_count(), reference.labels.len());
        assert_eq!(tree.group_count(), reference.paths.len());
        for (g, expected) in reference.paths.iter().enumerate() {
            let path = tree.path(GroupId(g as u32)).expect("a group of the tree");
            let path: Vec<_> = path.iter().map(|e| (e.node, e.lane)).collect();
            assert_eq!(&path, expected, "path of group {g}");
        }
        assert!(tree.path(GroupId(reference.paths.len() as u32)).is_none());
        for (ty, groups) in &reference.groups_of_type {
            assert_eq!(tree.groups_of_type(*ty), groups.as_slice(), "{ty:?}");
        }
        let topology = Arc::new(topology);
        let groups = (0..reference.paths.len() as u32 + 2)
            .map(GroupId)
            .chain([GroupId::NONE]);
        let groups: Vec<GroupId> = groups.collect();
        let lanes: Vec<Lane> = (0..10).map(Lane::Child).chain([Lane::Leaf]).collect();
        for node in (0..reference.labels.len() as u32 + 1).map(NodeId) {
            let env = NodeEnv {
                node,
                topology: Arc::clone(&topology),
                registry: Arc::clone(&services.registry),
                events: Arc::clone(&services.events),
                oracle: Arc::clone(&services.oracle),
                wait_timeout: services.wait_timeout,
            };
            for &group in &groups {
                let want = reference.in_subtree(node, group);
                assert_eq!(env.in_subtree(group), want, "{node:?} {group:?}");
                for &lane in &lanes {
                    let want = reference.same_group(node, lane, group);
                    let got = env.same_group(lane, group);
                    assert_eq!(got, want, "{node:?} {lane:?} {group:?}");
                }
            }
        }
    }
}

proptest! {
    /// A subtree is a range of group ids: on random specs the topology
    /// numbers nodes and groups, lays out every group's path and answers
    /// every membership question as the map-filling walk it replaced.
    #[test]
    fn the_tree_shape_answers_as_the_map_walk(
        draws in proptest::collection::vec(0u64..1_000_000, 1..64),
    ) {
        tree_shape::check(tree_shape::random_spec(&draws));
    }
}

mod recovery_replay {
    use std::collections::{HashMap, HashSet};
    use std::time::Duration;
    use tebaldi_suite::storage::durability::{DurabilityManager, FlushPolicy};
    use tebaldi_suite::storage::recovery::{recover_with_resolver, RecoveryReport};
    use tebaldi_suite::storage::wal::{LogDevice, LogRecord, MemLogDevice};
    use tebaldi_suite::storage::{Key, MvStore, TableId, Timestamp, TxnId, Value};

    /// The record format a local commit was logged in before a `Precommit`
    /// carried its commit stamp: one `Precommit` per participating data
    /// server, then a `Commit` — two records, which a crash could tear.
    #[derive(Clone, Debug)]
    pub enum OldRecord {
        Precommit {
            txn: TxnId,
            participants: u32,
            shard: u32,
            gcp_epoch: u64,
            writes: Vec<(Key, Value)>,
        },
        Commit {
            txn: TxnId,
            global_epoch: u64,
            commit_ts: Timestamp,
            hlc: u64,
        },
        EpochSeal {
            epoch: u64,
        },
        Prepare {
            txn: TxnId,
            global: u64,
            writes: Vec<(Key, Value)>,
        },
        Abort {
            txn: TxnId,
        },
    }

    type InDoubtTxn = (TxnId, u64, Vec<(Key, Value)>);

    #[derive(Default)]
    struct TxnLog {
        shards_seen: HashSet<u32>,
        participants: u32,
        max_epoch: u64,
        writes: Vec<(Key, Value)>,
        commit_ts: Option<Timestamp>,
        commit_epoch: Option<u64>,
        hlc: u64,
    }

    /// Recovery as it replayed the two-record format, kept as the reference
    /// the one-record replay answers as: precommits merge with their commit
    /// record per transaction, a transaction with fewer precommits than
    /// participants is discarded (no longer counted: the report dropped the
    /// field), one without a commit record is replayed at an invented
    /// timestamp, and a prepare is decided by its commit or abort record or
    /// else by the resolver.
    fn old_replay(
        records: &[OldRecord],
        store: MvStore,
        resolver: &dyn Fn(u64) -> Option<u64>,
    ) -> (MvStore, RecoveryReport) {
        let mut txns: HashMap<TxnId, TxnLog> = HashMap::new();
        let mut prepared: HashMap<TxnId, (u64, Vec<(Key, Value)>)> = HashMap::new();
        let mut aborted: HashSet<TxnId> = HashSet::new();
        let mut sealed_epoch = 0u64;
        for record in records {
            match record {
                OldRecord::EpochSeal { epoch } => sealed_epoch = sealed_epoch.max(*epoch),
                OldRecord::Precommit {
                    txn,
                    participants,
                    shard,
                    gcp_epoch,
                    writes,
                } => {
                    let entry = txns.entry(*txn).or_default();
                    entry.participants = (*participants).max(entry.participants);
                    entry.shards_seen.insert(*shard);
                    entry.max_epoch = entry.max_epoch.max(*gcp_epoch);
                    entry.writes.extend(writes.iter().cloned());
                }
                OldRecord::Commit {
                    txn,
                    global_epoch,
                    commit_ts,
                    hlc,
                } => {
                    let entry = txns.entry(*txn).or_default();
                    entry.commit_ts = Some(*commit_ts);
                    entry.commit_epoch = Some(*global_epoch);
                    entry.hlc = *hlc;
                }
                OldRecord::Prepare {
                    txn,
                    global,
                    writes,
                } => {
                    let entry = prepared
                        .entry(*txn)
                        .or_insert_with(|| (*global, Vec::new()));
                    entry.0 = *global;
                    entry.1.extend(writes.iter().cloned());
                }
                OldRecord::Abort { txn } => {
                    aborted.insert(*txn);
                }
            }
        }

        let mut report = RecoveryReport::default();
        let local_commit: HashMap<TxnId, (Timestamp, u64)> = txns
            .iter()
            .filter_map(|(txn, log)| log.commit_ts.map(|ts| (*txn, (ts, log.hlc))))
            .collect();
        let mut recoverable: Vec<(TxnId, TxnLog)> = Vec::new();
        for (txn, log) in txns {
            report.max_txn_id = report.max_txn_id.max(txn.0);
            let complete = log.participants > 0 && log.shards_seen.len() as u32 >= log.participants;
            if !complete {
                continue;
            }
            let epoch = log.commit_epoch.unwrap_or(log.max_epoch);
            if epoch > sealed_epoch {
                report.discarded_unsealed_epoch += 1;
                continue;
            }
            recoverable.push((txn, log));
        }
        let replayed_normally: HashSet<TxnId> = recoverable.iter().map(|(txn, _)| *txn).collect();
        for (txn, (_global, writes)) in &prepared {
            if aborted.contains(txn) || replayed_normally.contains(txn) {
                continue;
            }
            if let Some((ts, hlc)) = local_commit.get(txn) {
                recoverable.push((
                    *txn,
                    TxnLog {
                        writes: writes.clone(),
                        commit_ts: Some(*ts),
                        hlc: *hlc,
                        ..TxnLog::default()
                    },
                ));
            }
        }
        recoverable.sort_by_key(|(txn, log)| (log.commit_ts.unwrap_or(Timestamp::MAX), txn.0));

        let mut restored_keys: HashSet<Key> = HashSet::new();
        let install = |txn: TxnId, key: &Key, value: &Value, ts: Timestamp, hlc: u64| {
            store.with_chain_mut(key, |chain| {
                chain.abort(txn);
            });
            store.write(key, txn, value.clone());
            store.commit_writes_stamped(txn, &[*key], ts, hlc);
        };
        for (txn, log) in &recoverable {
            report.recovered_txns += 1;
            let commit_ts = log.commit_ts.unwrap_or(report.max_commit_ts.next());
            report.max_commit_ts = report.max_commit_ts.max(commit_ts);
            report.max_hlc = report.max_hlc.max(log.hlc);
            for (key, value) in &log.writes {
                restored_keys.insert(*key);
                install(*txn, key, value, commit_ts, log.hlc);
            }
        }

        let replayed: HashSet<TxnId> = recoverable.iter().map(|(txn, _)| *txn).collect();
        for txn in prepared.keys().chain(aborted.iter()) {
            report.max_txn_id = report.max_txn_id.max(txn.0);
        }
        let mut in_doubt: Vec<InDoubtTxn> = prepared
            .into_iter()
            .filter(|(txn, _)| !aborted.contains(txn) && !replayed.contains(txn))
            .map(|(txn, (global, writes))| (txn, global, writes))
            .collect();
        in_doubt.sort_by_key(|(txn, _, _)| txn.0);
        for (txn, global, writes) in in_doubt {
            report.max_txn_id = report.max_txn_id.max(txn.0);
            report.in_doubt += 1;
            let Some(stamp) = resolver(global) else {
                report.in_doubt_aborted += 1;
                report.in_doubt_aborted_globals.push(global);
                continue;
            };
            report.in_doubt_committed += 1;
            report.recovered_txns += 1;
            report.max_hlc = report.max_hlc.max(stamp);
            let commit_ts = report.max_commit_ts.next();
            report.max_commit_ts = commit_ts;
            for (key, value) in &writes {
                restored_keys.insert(*key);
                install(txn, key, value, commit_ts, stamp);
            }
        }
        report.keys_restored = restored_keys.len();
        (store, report)
    }

    const KEYS: u64 = 4;

    fn key(id: u64) -> Key {
        Key::simple(TableId(0), id % KEYS)
    }

    /// One history step's write set: one or two keys, each once.
    fn writes(a: u64, b: u64) -> Vec<(Key, Value)> {
        let mut writes = vec![(key(a), Value::Int(a as i64))];
        if key(b) != key(a) && b.is_multiple_of(2) {
            writes.push((key(b), Value::Int(b as i64)));
        }
        writes
    }

    /// Drives `ops` through a durability manager — local commits, 2PC
    /// prepares and their commit or abort decisions, epoch seals — and
    /// returns the records it logged, one per step, beside what the
    /// two-record format logged for the same step.
    fn history(ops: &[(u32, u64, u64)], asynchronous: bool) -> Vec<(LogRecord, Vec<OldRecord>)> {
        let device = std::sync::Arc::new(MemLogDevice::new());
        let policy = if asynchronous {
            // Seals are steps of the history, never the background sealer's.
            FlushPolicy::Asynchronous {
                epoch_interval: Duration::from_secs(3600),
            }
        } else {
            FlushPolicy::Synchronous
        };
        let mgr = DurabilityManager::new(device.clone(), policy);
        let mut old: Vec<Vec<OldRecord>> = Vec::new();
        let mut next_txn = 1u64;
        let mut next_ts = 1u64;
        let mut open_prepares: Vec<(TxnId, u64)> = Vec::new();
        for &(kind, a, b) in ops {
            let txn = TxnId(next_txn);
            let commit_ts = Timestamp(next_ts);
            let hlc = 1_000 + next_ts * 3 + a % 3;
            match kind {
                0..=3 => {
                    let gcp_epoch = if asynchronous { mgr.current_epoch() } else { 0 };
                    let w = writes(a, b);
                    if let Some(seq) = mgr.commit_transaction(txn, w.clone(), commit_ts, hlc, false)
                    {
                        mgr.wait_group_seq(seq);
                    }
                    old.push(vec![
                        OldRecord::Precommit {
                            txn,
                            participants: 1,
                            shard: 0,
                            gcp_epoch,
                            writes: w,
                        },
                        OldRecord::Commit {
                            txn,
                            global_epoch: gcp_epoch,
                            commit_ts,
                            hlc,
                        },
                    ]);
                    next_txn += 1;
                    next_ts += 1;
                }
                4 | 5 => {
                    let global = next_txn * 7;
                    let w = writes(a, b);
                    mgr.wait_group_seq(mgr.prepare(txn, global, w.clone()).unwrap());
                    old.push(vec![OldRecord::Prepare {
                        txn,
                        global,
                        writes: w,
                    }]);
                    open_prepares.push((txn, global));
                    next_txn += 1;
                }
                6 if !open_prepares.is_empty() => {
                    let (txn, _) = open_prepares.remove(a as usize % open_prepares.len());
                    if b.is_multiple_of(2) {
                        let global_epoch = mgr.current_epoch();
                        mgr.commit_stamped(txn, commit_ts, hlc);
                        old.push(vec![OldRecord::Commit {
                            txn,
                            global_epoch,
                            commit_ts,
                            hlc,
                        }]);
                        next_ts += 1;
                    } else {
                        mgr.log_abort(txn);
                        old.push(vec![OldRecord::Abort { txn }]);
                    }
                }
                _ => {
                    let epoch = mgr.current_epoch();
                    mgr.seal_current_epoch();
                    old.push(vec![OldRecord::EpochSeal { epoch }]);
                }
            }
        }
        device.flush();
        let new = device.read_back();
        assert_eq!(new.len(), old.len(), "one record per step: {new:?}");
        drop(mgr);
        new.into_iter().zip(old).collect()
    }

    /// Each key's latest committed value, commit timestamp and HLC stamp.
    fn latest(store: &MvStore) -> Vec<Option<(Value, Option<Timestamp>, u64)>> {
        (0..KEYS)
            .map(|id| {
                store.with_chain(&key(id), |chain| {
                    chain
                        .latest_committed()
                        .map(|v| (v.value.clone(), v.commit_ts(), v.hlc()))
                })
            })
            .collect()
    }

    /// At every crash cut of the history — every step boundary, the
    /// record boundaries both formats share — the one-record replay
    /// rebuilds the state and report the two-record replay did.
    pub fn check(ops: &[(u32, u64, u64)], asynchronous: bool, decisions: &[u64]) {
        let resolver = |global: u64| {
            let d = decisions[global as usize % decisions.len()];
            (!d.is_multiple_of(3)).then_some(d)
        };
        let steps = history(ops, asynchronous);
        for cut in 0..=steps.len() {
            let new: Vec<LogRecord> = steps[..cut].iter().map(|(r, _)| r.clone()).collect();
            let old: Vec<OldRecord> = steps[..cut].iter().flat_map(|(_, o)| o.clone()).collect();
            let (store, report) = recover_with_resolver(&new, MvStore::new(1), &resolver);
            let (want_store, want_report) = old_replay(&old, MvStore::new(1), &resolver);
            assert_eq!(report, want_report, "cut {cut} of {new:?}");
            assert_eq!(latest(&store), latest(&want_store), "cut {cut} of {new:?}");
        }
    }
}

proptest! {
    /// A local commit is one record: on random engine histories, under
    /// synchronous and asynchronous flushing, cut by a crash at every
    /// boundary, recovery answers as the replay of the two-record format.
    #[test]
    fn one_record_recovery_answers_as_the_two_record_replay(
        ops in proptest::collection::vec((0u32..8, 0u64..1000, 0u64..1000), 1..40),
        asynchronous in 0u32..2,
        decisions in proptest::collection::vec(0u64..1000, 1..6),
    ) {
        recovery_replay::check(&ops, asynchronous == 1, &decisions);
    }
}
