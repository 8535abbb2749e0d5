//! Replication tests: WAL shipping, the quorum-gated commit path,
//! bounded-staleness follower reads, and backup promotion.
//!
//! The properties under test:
//!
//! * **ship before ack** — with a quorum configured, a transaction is
//!   acknowledged only after `quorum` backups have durably acknowledged
//!   every WAL record the commit hardened, so losing the primary's WAL
//!   after an ack loses nothing.
//! * **bounded staleness** — a follower read names the LSN it requires;
//!   a follower behind that LSN must catch up within the wait budget or
//!   refuse, so a follower never serves state it does not actually hold.
//! * **promotion** — failing a shard over to its backup recovers every
//!   acknowledged write from the shipped log, resumes traffic on the
//!   same cluster object, and leaves the old primary's log a truncatable
//!   prefix of the new one.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tebaldi_suite::cc::{AccessMode, CcKind, CcTreeSpec, ProcedureInfo, ProcedureSet};
use tebaldi_suite::cluster::procs;
use tebaldi_suite::cluster::{
    truncate_divergent_suffix, Cluster, ClusterBuilder, ClusterConfig, ReadConsistency,
    ReplicationConfig, ShardReplication, TransportKind,
};
use tebaldi_suite::core::{DurabilityMode, ProcedureCall};
use tebaldi_suite::obs::MetricsRegistry;
use tebaldi_suite::storage::wal::{LogDevice, LogRecord, MemLogDevice};
use tebaldi_suite::storage::{Key, TableId, TxnId, TxnTypeId, Value};

const TABLE: TableId = TableId(0);
const TY: TxnTypeId = TxnTypeId(0);

fn procedures() -> ProcedureSet {
    let mut set = ProcedureSet::new();
    set.insert(ProcedureInfo::new(
        TY,
        "increment",
        vec![(TABLE, AccessMode::Write)],
    ));
    set
}

fn builder(config: ClusterConfig) -> ClusterBuilder {
    Cluster::builder(config)
        .procedures(procedures())
        .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TY]))
}

fn key(id: u64) -> Key {
    Key::simple(TABLE, id)
}

/// Single-shard increment; returns the post-increment value.
fn increment(cluster: &Cluster, id: u64, delta: i64) -> i64 {
    let shard = cluster.shard_of(id);
    let (value, _) = cluster
        .execute_single(
            shard,
            procs::KV_INCREMENT,
            &ProcedureCall::new(TY),
            procs::increment_args(key(id), 0, delta),
            50,
        )
        .expect("increment commits");
    value.as_int().expect("increment returns an int")
}

/// Every acknowledged commit must already be quorum-replicated: after the
/// workload quiesces, each shard's quorum LSN covers its full durable log
/// (nothing appends after the last gated ack).
#[test]
fn quorum_gate_ships_every_hardened_record_before_ack() {
    let mut config = ClusterConfig::for_tests(2);
    config.db_config.durability = DurabilityMode::Synchronous;
    config.replication = Some(ReplicationConfig {
        replicas: 2,
        quorum: 2,
        ack_timeout_ms: 5_000,
    });
    let cluster = builder(config).build().unwrap();

    for id in 0..20u64 {
        increment(&cluster, id, (id + 1) as i64);
    }

    for shard in 0..cluster.shard_count() {
        let durable = cluster.shard_log(shard).durable_len() as u64;
        let group = cluster.replication(shard).expect("shard is replicated");
        assert_eq!(group.replica_count(), 2);
        assert!(
            group.quorum_lsn() >= durable,
            "shard {shard}: quorum LSN {} behind durable log {durable} after ack",
            group.quorum_lsn()
        );
        // The gate never fell back to local-only durability.
        assert_eq!(group.acks_timed_out(), 0);
    }

    // Both followers of the written shard serve the freshest value.
    let shard = cluster.shard_of(3);
    for replica in 0..2 {
        let value = cluster
            .follower_read(shard, replica, &key(3), Duration::from_secs(5))
            .expect("follower read succeeds");
        assert_eq!(value.and_then(|v| v.as_int()), Some(4));
    }
    let stats = cluster.stats();
    assert!(stats.follower_reads >= 2, "follower reads must be counted");
    assert_eq!(stats.failovers, 0);
    cluster.shutdown();
}

/// A log whose `durable_len` answers late: the length it reports is 200 µs
/// old by the time the caller sees it. That is the window every follower of
/// a log has to live with — a flush landing right after it looked — held
/// open long enough that every round of the test below falls into it.
struct LateLenLog {
    inner: MemLogDevice,
}

impl LogDevice for LateLenLog {
    fn append(&self, record: &LogRecord) {
        self.inner.append(record);
    }
    fn flush(&self) {
        self.inner.flush();
    }
    fn read_back(&self) -> Vec<LogRecord> {
        self.inner.read_back()
    }
    fn durable_len(&self) -> usize {
        let len = self.inner.durable_len();
        // Spin, not sleep: a sleeping thread can oversleep by a scheduler
        // tick, which is the very magnitude the test measures.
        let read_at = Instant::now();
        while read_at.elapsed() < Duration::from_micros(200) {
            std::hint::spin_loop();
        }
        len
    }
    fn read_from(&self, from: usize) -> Vec<LogRecord> {
        self.inner.read_from(from)
    }
}

/// No commit waits on a timer. Ten thousand flush → `wait_quorum` rounds,
/// each a full wake-the-shipper, ship, apply, ack, wake-the-waiter cycle,
/// with every flush landing just after the shipper read the durable length
/// ([`LateLenLog`]): every round must still finish in scheduling time. A
/// shipper that reads the length outside the lock it then sleeps on loses
/// the wake-up of such a flush and sits out its timed wait (the old 5 ms:
/// 85 % of these rounds took longer than 4 ms on the code before this
/// test); a waiter notified without its mutex held sits out its slice.
/// Even rounds flush the bare device, so the gate's own wake-up is what
/// reaches the shipper; odd rounds flush through the group's handle, so
/// the flush's is.
#[test]
fn flush_then_wait_quorum_never_sits_out_a_lost_wakeup() {
    const ROUNDS: u64 = 10_000;
    const SLOW: Duration = Duration::from_millis(4);
    let log: Arc<dyn LogDevice> = Arc::new(LateLenLog {
        inner: MemLogDevice::new(),
    });
    let metrics = MetricsRegistry::new();
    let config = ReplicationConfig {
        replicas: 1,
        quorum: 1,
        ack_timeout_ms: 5_000,
    };
    let group = ShardReplication::spawn(0, config, Arc::clone(&log), 4, &metrics, None).unwrap();
    let handle = group.primary_log();
    let mut slow = Vec::new();
    for round in 0..ROUNDS {
        let device = if round % 2 == 0 { &log } else { &handle };
        device.append(&LogRecord::Abort { txn: TxnId(round) });
        let started = Instant::now();
        device.flush();
        assert!(group.wait_quorum(round + 1), "round {round} timed out");
        let took = started.elapsed();
        if took >= SLOW {
            slow.push((round, took));
        }
    }
    println!("rounds slower than {SLOW:?}: {slow:?}");
    // A lost wake-up is never a one-off here (nor would anything but the
    // 5 s ack timeout rescue it). One round in a thousand is what a test
    // machine that preempts the shipper mid-spin, lock held, may cost.
    assert!(
        slow.len() as u64 * 1_000 <= ROUNDS,
        "{} of {ROUNDS} rounds took {SLOW:?} or longer: {slow:?}",
        slow.len()
    );
    assert_eq!(group.acks_timed_out(), 0);
    assert_eq!(
        group.replica(0).unwrap().log().read_back().len() as u64,
        ROUNDS
    );
    group.shutdown();
}

/// A follower behind the required LSN refuses reads, through the group
/// and through the cluster, until it catches up; resuming shipping heals
/// it. Participant votes, read-only ones too, always come from the
/// primary.
#[test]
fn stale_follower_refuses_reads_and_votes_until_caught_up() {
    let mut config = ClusterConfig::for_tests(1);
    config.db_config.durability = DurabilityMode::Synchronous;
    config.replication = Some(ReplicationConfig {
        replicas: 1,
        quorum: 1,
        // Short, so commits gated while shipping is paused degrade fast
        // instead of wedging the test.
        ack_timeout_ms: 50,
    });
    let cluster = builder(config).build().unwrap();

    assert_eq!(increment(&cluster, 7, 1), 1);
    let group = cluster.replication(0).expect("shard is replicated");
    assert!(group.sync(), "follower must catch up while shipping runs");

    // Freeze the ship stream and commit past the follower.
    group.set_paused(true);
    assert_eq!(increment(&cluster, 7, 1), 2);
    let required = cluster.shard_log(0).durable_len() as u64;

    // The follower holds a stale prefix: its catch-up wait must refuse
    // rather than serve state it does not hold (the read would otherwise
    // claim the durable prefix at an LSN the follower never saw).
    let refused = group
        .follower_read(0, &[key(7)], required, Duration::from_millis(50))
        .expect_err("stale follower must refuse the read");
    assert!(refused.applied < refused.required);
    assert!(cluster
        .follower_read(0, 0, &key(7), Duration::from_millis(50))
        .is_err());

    // Shipping resumes: the same wait admits the read, the follower has
    // applied the required prefix, and the read sees the post-pause value.
    group.set_paused(false);
    group
        .follower_read(0, &[key(7)], required, Duration::from_secs(5))
        .expect("caught-up follower reads");
    assert!(group.replica(0).expect("one backup").applied_lsn() >= required);
    let value = cluster
        .follower_read(0, 0, &key(7), Duration::from_secs(5))
        .expect("caught-up follower reads");
    assert_eq!(value.and_then(|v| v.as_int()), Some(2));

    // The refusals and the degraded acks were counted for the operator.
    let metrics = cluster.metrics();
    assert!(
        metrics
            .counter("replication.follower_read_refusals")
            .unwrap_or(0)
            >= 1
    );
    assert!(cluster.stats().replica_acks_timed_out >= 1);
    cluster.shutdown();
}

/// Clean failover: promotion recovers every acknowledged write from the
/// follower's log, the same cluster resumes traffic through the repointed
/// transport, and the old primary's log truncates to a prefix of the
/// promoted log (the rejoin path).
#[test]
fn promote_backup_preserves_acked_writes_and_resumes_traffic() {
    let mut config = ClusterConfig::for_tests(2);
    config.db_config.durability = DurabilityMode::Synchronous;
    config.transport = TransportKind::Tcp;
    config.replication = Some(ReplicationConfig {
        replicas: 1,
        quorum: 1,
        ack_timeout_ms: 5_000,
    });
    let cluster = builder(config).build().unwrap();

    // Acknowledged work on both shards (ids picked by where the router
    // actually places them).
    let on_promoted: Vec<u64> = (0..100).filter(|&i| cluster.shard_of(i) == 0).collect();
    let other = (0..100).find(|&i| cluster.shard_of(i) == 1).unwrap();
    let (a, b) = (on_promoted[0], on_promoted[1]);
    assert_eq!(increment(&cluster, a, 10), 10);
    assert_eq!(increment(&cluster, b, 20), 20);
    assert_eq!(increment(&cluster, other, 30), 30);

    let old_log = cluster.shard_log(0);
    let group = cluster.replication(0).expect("shard 0 is replicated");
    let replicated = group.replicated_len();
    assert!(replicated > 0);
    let backup_log = group.replica(0).expect("one backup").log();

    let report = cluster.promote_backup(0).expect("promotion succeeds");
    assert!(report.recovered_txns >= 2, "acked commits must recover");
    assert_eq!(report.discarded_unsealed_epoch, 0);
    assert!(
        cluster.replication(0).is_none(),
        "the promoted shard no longer has a replication group"
    );

    // Every acknowledged write survives, served by the promoted backup
    // through the same cluster object (increment-by-zero reads the value).
    assert_eq!(increment(&cluster, a, 0), 10);
    assert_eq!(increment(&cluster, b, 0), 20);
    assert_eq!(increment(&cluster, other, 0), 30, "untouched shard intact");
    assert!(
        std::ptr::addr_eq(Arc::as_ptr(&cluster.shard_log(0)), Arc::as_ptr(&backup_log)),
        "after the failover the shard's log is the promoted backup's"
    );

    // Without a replication group the promoted shard answers a
    // `BoundedStaleness` read from its snapshot path, exactly as a
    // `Snapshot` read.
    let keys = vec![(a, key(a)), (b, key(b))];
    let served_before = cluster.stats().snapshot_reads;
    let bounded = cluster
        .read(
            keys.clone(),
            ReadConsistency::BoundedStaleness {
                max_lag: Duration::from_millis(500),
            },
        )
        .expect("a bounded read of a failed-over shard falls back");
    assert!(
        cluster.stats().snapshot_reads > served_before,
        "the fallback is served by the shard's snapshot path"
    );
    assert_eq!(bounded, vec![Some(Value::Int(10)), Some(Value::Int(20))]);
    let snapshot = cluster
        .read(keys, ReadConsistency::Snapshot)
        .expect("snapshot read");
    assert_eq!(bounded, snapshot);

    // New work commits on the promoted primary and orders above the
    // recovered versions.
    assert_eq!(increment(&cluster, a, 5), 15);
    assert_eq!(cluster.stats().failovers, 1);

    // Rejoin: the old primary's log truncates to its replicated prefix,
    // which must be an exact prefix of the promoted log.
    assert!(truncate_divergent_suffix(old_log.as_ref(), replicated));
    let old_records = old_log.read_back();
    let new_records = cluster.shard_log(0).read_back();
    assert!(old_records.len() <= new_records.len());
    assert_eq!(
        old_records,
        new_records[..old_records.len()],
        "rejoined log must be a prefix of the promoted primary's"
    );

    cluster.shutdown();
}

/// A decision log whose *first* `read_back` hides everything appended
/// after the arm point — the exact race `promote_backup`'s
/// re-poll-until-stable loop exists for: a 2PC commit decision that lands
/// (or becomes visible) only after the promotion's initial decision-log
/// poll. Every later `read_back` returns the full log.
struct GatedDecisionLog {
    inner: MemLogDevice,
    /// Records visible to the first `read_back` (`u64::MAX` = unarmed).
    visible_to_first: std::sync::atomic::AtomicU64,
    first_done: std::sync::atomic::AtomicBool,
}

impl GatedDecisionLog {
    fn new() -> Self {
        GatedDecisionLog {
            inner: MemLogDevice::new(),
            visible_to_first: std::sync::atomic::AtomicU64::new(u64::MAX),
            first_done: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Arms the gate: the next `read_back` sees only the records durable
    /// *now*; everything appended after this call stays hidden from it.
    fn arm(&self) {
        self.visible_to_first.store(
            self.inner.durable_len() as u64,
            std::sync::atomic::Ordering::SeqCst,
        );
        self.first_done
            .store(false, std::sync::atomic::Ordering::SeqCst);
    }
}

impl LogDevice for GatedDecisionLog {
    fn append(&self, record: &LogRecord) {
        self.inner.append(record);
    }
    fn flush(&self) {
        self.inner.flush();
    }
    fn read_back(&self) -> Vec<LogRecord> {
        let mut records = self.inner.read_back();
        let limit = self
            .visible_to_first
            .load(std::sync::atomic::Ordering::SeqCst);
        if !self
            .first_done
            .swap(true, std::sync::atomic::Ordering::SeqCst)
            && (limit as usize) < records.len()
        {
            records.truncate(limit as usize);
        }
        records
    }
    // Delegate the derived accessors: their trait defaults go through
    // `read_back` and would consume the gate from a code path that is not
    // the promotion's decision poll.
    fn durable_len(&self) -> usize {
        self.inner.durable_len()
    }
    fn read_from(&self, from: usize) -> Vec<LogRecord> {
        self.inner.read_from(from)
    }
    fn truncate_to(&self, len: usize) -> bool {
        self.inner.truncate_to(len)
    }
}

/// Regression test for the failover decision-race window: a commit
/// decision the promotion's *first* decision-log poll does not see must
/// still commit on the promoted primary — the replay loop re-polls after
/// presuming an in-doubt transaction aborted and replays against the
/// fresh snapshot. With a single stale poll (the old behavior) the write
/// below would silently vanish despite its durable commit decision.
#[test]
fn promotion_repolls_decisions_logged_during_replay() {
    let decision_log = Arc::new(GatedDecisionLog::new());
    let mut config = ClusterConfig::for_tests(2);
    config.db_config.durability = DurabilityMode::Synchronous;
    config.transport = TransportKind::Tcp;
    config.replication = Some(ReplicationConfig {
        replicas: 1,
        quorum: 1,
        ack_timeout_ms: 5_000,
    });
    let cluster = builder(config)
        .decision_log(Arc::clone(&decision_log) as Arc<dyn LogDevice>)
        .build()
        .unwrap();

    let id = (0..100).find(|&i| cluster.shard_of(i) == 0).unwrap();
    assert_eq!(increment(&cluster, id, 7), 7);

    // Park a prepared write on shard 0 by hand (its Prepare record ships
    // to the follower), then log its commit decision — but never deliver
    // the decision to the shard, as if the coordinator thread finishing
    // this 2PC raced the failover.
    let global = cluster.coordinator().begin_global();
    let (_, prepared) = cluster
        .shard(0)
        .prepare(&ProcedureCall::new(TY), global, |txn| {
            txn.increment(key(id), 0, 13)
        })
        .map(|(v, vote)| (v, vote.expect_prepared()))
        .unwrap();
    std::mem::forget(prepared);
    // The shipper tails the primary's log asynchronously; wait until the
    // Prepare record is on the follower, or the promotion below would not
    // find the transaction in doubt at all.
    let group = cluster.replication(0).expect("shard 0 is replicated");
    let durable = cluster.shard_log(0).durable_len() as u64;
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while group.quorum_lsn() < durable {
        assert!(
            std::time::Instant::now() < deadline,
            "prepare record never shipped to the follower"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Arm the gate *before* the decision lands: the promotion's first
    // poll will not see the commit, exactly like a decision logged
    // mid-replay.
    decision_log.arm();
    cluster.coordinator().log_commit(global, 42);

    let report = cluster.promote_backup(0).expect("promotion succeeds");
    assert!(
        report.in_doubt >= 1,
        "the parked prepare must have been in doubt"
    );

    // The decision-log commit must not be lost: the promoted primary
    // serves the prepared increment's effect.
    assert_eq!(increment(&cluster, id, 0), 20, "7 + 13 must both survive");
    cluster.shutdown();
}

/// The in-process transport cannot repoint a shard; promotion must fail
/// closed without touching the running shard.
#[test]
fn promotion_requires_an_addressed_transport() {
    let mut config = ClusterConfig::for_tests(1);
    config.transport = TransportKind::InProcess;
    config.replication = Some(ReplicationConfig {
        replicas: 1,
        quorum: 1,
        ack_timeout_ms: 1_000,
    });
    let cluster = builder(config).build().unwrap();
    assert_eq!(increment(&cluster, 0, 1), 1);
    let err = cluster.promote_backup(0).expect_err("in-process repoint");
    assert!(err.contains("repoint"), "unexpected error: {err}");
    cluster.shutdown();
}
