//! Chaos tests: the cluster under a hostile network.
//!
//! A [`FaultPlan`] wraps the transport in deterministic, seed-driven
//! drop/delay/duplicate/partition faults; these tests drive cross-shard
//! transfer workloads through hundreds of fault schedules and check the
//! two properties 2PC owes us regardless of what the network does:
//!
//! * **conservation** — transfers move balance, never create or destroy
//!   it. The sum over every account equals the initial sum on the state
//!   recovered from WALs + decision log (the authoritative post-crash
//!   state: parts left in doubt by lost decisions resolve there).
//! * **no split-brain** — no transaction commits on one shard and aborts
//!   on another. Conservation implies it for transfers, and the
//!   `decisions.conflict` counter (a shard observing two different
//!   decisions for one global transaction) must stay zero.
//!
//! The fixed seed range keeps CI deterministic: a failure names the seed,
//! and re-running that seed replays the exact fault schedule.

use std::sync::Arc;
use std::time::Duration;
use tebaldi_suite::cc::{AccessMode, CcError, CcKind, CcTreeSpec, ProcedureInfo, ProcedureSet};
use tebaldi_suite::cluster::procs;
use tebaldi_suite::cluster::{
    recover_cluster, Cluster, ClusterBuilder, ClusterConfig, FaultPlan, ReconnectPolicy,
    ShardTransport, ShardWorkers, TcpShardServer, TcpTransport,
};
use tebaldi_suite::core::{DurabilityMode, ProcId, ProcedureCall};
use tebaldi_suite::storage::{Key, ReadSpec, TableId, TxnTypeId, Value};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TABLE: TableId = TableId(0);
const TY: TxnTypeId = TxnTypeId(0);
/// Test-only procedure: sleep, then increment — keeps a prepare in flight
/// long enough to kill its shard server mid-vote.
const SLOW_INC: ProcId = ProcId(910);

const SHARDS: usize = 3;
const ACCOUNTS: u64 = 15;

fn procedures() -> ProcedureSet {
    let mut set = ProcedureSet::new();
    set.insert(ProcedureInfo::new(
        TY,
        "transfer",
        vec![(TABLE, AccessMode::Write)],
    ));
    set
}

fn builder(config: ClusterConfig) -> ClusterBuilder {
    Cluster::builder(config)
        .procedures(procedures())
        .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TY]))
        .shard_procedure(SLOW_INC, |txn, args| {
            let mut r = tebaldi_suite::storage::codec::ByteReader::new(args);
            let key = r.key().map_err(|e| CcError::Internal(e.to_string()))?;
            let _field = r.u32().map_err(|e| CcError::Internal(e.to_string()))?;
            let delta = r.i64().map_err(|e| CcError::Internal(e.to_string()))?;
            std::thread::sleep(Duration::from_millis(300));
            txn.increment(key, 0, delta).map(Value::Int)
        })
}

fn account_key(account: u64) -> Key {
    Key::simple(TABLE, account)
}

/// One cross-shard transfer: debit `a`, credit `b` (accounts start at an
/// implicit 0, so the conserved total is 0).
fn transfer_parts(
    cluster: &Cluster,
    a: u64,
    b: u64,
    amount: i64,
) -> Vec<tebaldi_suite::cluster::ShardPart> {
    vec![
        procs::increment_part(
            cluster.shard_of(a),
            ProcedureCall::new(TY).with_instance_seed(a),
            account_key(a),
            0,
            -amount,
        ),
        procs::increment_part(
            cluster.shard_of(b),
            ProcedureCall::new(TY).with_instance_seed(b),
            account_key(b),
            0,
            amount,
        ),
    ]
}

/// Sum of every account balance on the recovered (post-crash) stores.
fn recovered_sum(cluster: &Cluster) -> i64 {
    for shard in 0..SHARDS {
        cluster.shard(shard).durability().seal_current_epoch();
    }
    let logs: Vec<_> = (0..SHARDS).map(|s| cluster.shard_log(s)).collect();
    let decision_log = cluster.coordinator().decision_log();
    let recovered = recover_cluster(&logs, decision_log.as_ref(), 4);
    (0..ACCOUNTS)
        .map(|account| {
            recovered[cluster.shard_of(account)]
                .0
                .read_visible(&account_key(account), ReadSpec::LatestCommitted)
                .and_then(|v| v.as_int())
                .unwrap_or(0)
        })
        .sum()
}

/// Runs one seeded fault schedule: a short single-threaded transfer
/// workload under `FaultPlan::hostile(seed)`, then a simulated crash and
/// recovery. Returns (committed transfers, fault/idempotency counters).
fn run_schedule(seed: u64) -> (usize, ChaosCounters) {
    let mut config = ClusterConfig::for_tests(SHARDS);
    config.db_config.durability = DurabilityMode::Synchronous;
    config.fault_plan = Some(FaultPlan::hostile(seed));
    // Dropped frames fail fast (they do not consume this), but a delayed
    // vote must not push a healthy prepare over the edge.
    config.prepare_timeout_ms = 5_000;
    let cluster = builder(config).build().unwrap();

    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut committed = 0;
    for _ in 0..8 {
        let a = rng.gen_range(0..ACCOUNTS);
        // A different shard, so every transfer is a real 2PC.
        let offset = rng.gen_range(1..SHARDS as u64);
        let b = (a + offset) % ACCOUNTS;
        let amount = rng.gen_range(1..50);
        if cluster
            .execute_multi(transfer_parts(&cluster, a, b, amount))
            .is_ok()
        {
            committed += 1;
        }
    }
    // Let stragglers (delayed frames, reaped dropped replies) finish
    // before the crash snapshot; conservation holds either way, but this
    // keeps the committed-count bookkeeping honest.
    std::thread::sleep(Duration::from_millis(30));

    let sum = recovered_sum(&cluster);
    assert_eq!(
        sum, 0,
        "seed {seed}: recovered balances must conserve (sum {sum} != 0)"
    );

    let metrics = cluster.metrics();
    let counters = ChaosCounters {
        dropped_requests: metrics
            .counter("transport.faults.dropped_requests")
            .unwrap_or(0),
        dropped_replies: metrics
            .counter("transport.faults.dropped_replies")
            .unwrap_or(0),
        delayed: metrics.counter("transport.faults.delayed").unwrap_or(0),
        duplicated: metrics.counter("transport.faults.duplicated").unwrap_or(0),
        partitioned: metrics.counter("transport.faults.partitioned").unwrap_or(0),
        absorbed_duplicates: metrics.counter("decisions.duplicate").unwrap_or(0),
        conflicting_decisions: metrics.counter("decisions.conflict").unwrap_or(0),
    };
    assert_eq!(
        counters.conflicting_decisions, 0,
        "seed {seed}: a shard saw two different decisions for one transaction (split-brain)"
    );
    cluster.shutdown();
    (committed, counters)
}

#[derive(Default)]
struct ChaosCounters {
    dropped_requests: u64,
    dropped_replies: u64,
    delayed: u64,
    duplicated: u64,
    partitioned: u64,
    absorbed_duplicates: u64,
    conflicting_decisions: u64,
}

impl ChaosCounters {
    fn accumulate(&mut self, other: &ChaosCounters) {
        self.dropped_requests += other.dropped_requests;
        self.dropped_replies += other.dropped_replies;
        self.delayed += other.delayed;
        self.duplicated += other.duplicated;
        self.partitioned += other.partitioned;
        self.absorbed_duplicates += other.absorbed_duplicates;
        self.conflicting_decisions += other.conflicting_decisions;
    }
}

/// The headline chaos run: 200 fixed fault schedules, every one of which
/// must conserve balance on the recovered state with zero conflicting
/// decisions. The accumulated counters prove the schedules actually
/// exercised every fault class (a silent no-op injector would pass the
/// invariants trivially).
#[test]
fn two_hundred_seeded_fault_schedules_conserve_balance() {
    let mut committed = 0;
    let mut totals = ChaosCounters::default();
    for seed in 0..200 {
        let (ok, counters) = run_schedule(seed);
        committed += ok;
        totals.accumulate(&counters);
    }
    assert!(committed > 0, "no transfer ever committed under faults");
    assert!(totals.dropped_requests > 0, "no request was ever dropped");
    assert!(totals.dropped_replies > 0, "no reply was ever dropped");
    assert!(totals.delayed > 0, "no message was ever delayed");
    assert!(totals.duplicated > 0, "no decision was ever duplicated");
    assert!(totals.partitioned > 0, "no partition window ever opened");
    assert!(
        totals.absorbed_duplicates > 0,
        "duplicated decisions never reached the shard-side idempotency guard"
    );
    assert_eq!(totals.conflicting_decisions, 0);
}

/// Snapshot reads under the hostile plan: a zero-2PC snapshot read that
/// *succeeds* must observe an atomic cut — here, the conserved total of a
/// cross-shard transfer workload — no matter which frames the plan drops,
/// delays, duplicates, or partitions. A read losing frames may fail
/// cleanly (and the waiting-out of an in-doubt prepare may time out), but
/// it must never return a cut showing one side of a transfer without the
/// other. The accumulated success count proves the invariant was actually
/// exercised, not vacuously skipped.
#[test]
fn snapshot_reads_never_observe_a_torn_transfer_under_faults() {
    use tebaldi_suite::cluster::ReadConsistency;

    let mut observed = 0u64;
    for seed in 0..20u64 {
        let mut config = ClusterConfig::for_tests(SHARDS);
        config.db_config.durability = DurabilityMode::Synchronous;
        config.fault_plan = Some(FaultPlan::hostile(seed));
        // Also bounds how long a snapshot read waits out a parked
        // prepare before failing: a lost decision must not wedge the
        // reader thread for the whole schedule.
        config.prepare_timeout_ms = 2_000;
        let cluster = Arc::new(builder(config).build().unwrap());

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let cluster = Arc::clone(&cluster);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let keys: Vec<(u64, Key)> = (0..ACCOUNTS).map(|a| (a, account_key(a))).collect();
                let mut seen = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    // Dropped or partitioned frames surface as a clean
                    // error; only a *successful* read owes atomicity.
                    if let Ok(values) = cluster.read(keys.clone(), ReadConsistency::Snapshot) {
                        let total: i64 = values
                            .iter()
                            .map(|v| v.as_ref().and_then(|v| v.as_int()).unwrap_or(0))
                            .sum();
                        assert_eq!(
                            total, 0,
                            "seed {seed}: snapshot read observed a torn transfer"
                        );
                        seen += 1;
                    }
                }
                seen
            })
        };

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0F0F);
        for _ in 0..8 {
            let a = rng.gen_range(0..ACCOUNTS);
            let offset = rng.gen_range(1..SHARDS as u64);
            let b = (a + offset) % ACCOUNTS;
            let amount = rng.gen_range(1..50);
            let _ = cluster.execute_multi(transfer_parts(&cluster, a, b, amount));
        }
        std::thread::sleep(Duration::from_millis(30));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        observed += reader.join().expect("snapshot reader panicked");

        // The durable state the readers raced stays conserved too.
        let sum = recovered_sum(&cluster);
        assert_eq!(
            sum, 0,
            "seed {seed}: recovered balances must conserve (sum {sum} != 0)"
        );
        cluster.shutdown();
    }
    assert!(
        observed > 0,
        "no snapshot read ever succeeded under the fault schedules"
    );
}

/// A quiet plan injects nothing: the wiring itself must not perturb the
/// workload, and every fault counter stays zero.
#[test]
fn quiet_fault_plan_is_transparent() {
    let mut config = ClusterConfig::for_tests(SHARDS);
    config.fault_plan = Some(FaultPlan::quiet(1));
    let cluster = builder(config).build().unwrap();
    for i in 0..6u64 {
        let parts = transfer_parts(&cluster, i % ACCOUNTS, (i + 1) % ACCOUNTS, 10);
        cluster.execute_multi(parts).unwrap();
    }
    let metrics = cluster.metrics();
    for name in [
        "transport.faults.dropped_requests",
        "transport.faults.dropped_replies",
        "transport.faults.delayed",
        "transport.faults.duplicated",
        "transport.faults.partitioned",
    ] {
        assert_eq!(metrics.counter(name), Some(0), "{name} must stay zero");
    }
    assert_eq!(cluster.in_doubt_count(), 0);
    cluster.shutdown();
}

/// Kill a shard's TCP server while its prepare vote is in flight, restart
/// it, and check all three promises: in-flight work fails cleanly and
/// leaves the part in doubt (not half-committed), the *same* cluster
/// resumes traffic through a reconnect (no rebuild), and crash recovery
/// resolves the in-doubt part by presumed abort so balances conserve.
#[test]
fn killed_shard_server_mid_prepare_recovers_in_doubt_and_reconnects() {
    use parking_lot::Mutex;

    let servers: Arc<Mutex<Vec<Arc<TcpShardServer>>>> = Arc::new(Mutex::new(Vec::new()));
    let workers: Arc<Mutex<Vec<Arc<ShardWorkers>>>> = Arc::new(Mutex::new(Vec::new()));
    let tcp: Arc<Mutex<Option<Arc<TcpTransport>>>> = Arc::new(Mutex::new(None));

    let mut config = ClusterConfig::for_tests(2);
    config.db_config.durability = DurabilityMode::Synchronous;
    let cluster = {
        let (servers, workers, tcp) =
            (Arc::clone(&servers), Arc::clone(&workers), Arc::clone(&tcp));
        builder(config)
            .transport_factory(Box::new(move |shards| {
                let mut spawned = Vec::new();
                for (index, pool) in shards.iter().enumerate() {
                    spawned.push(
                        TcpShardServer::spawn(index, Arc::clone(pool), 32)
                            .map_err(|e| e.to_string())?,
                    );
                }
                let addrs: Vec<_> = spawned.iter().map(|s| s.addr()).collect();
                let mut transport = TcpTransport::connect(&addrs, 32, Duration::from_secs(5))?;
                transport.set_reconnect_policy(ReconnectPolicy::new(
                    Duration::from_millis(5),
                    Duration::from_millis(50),
                ));
                let transport = Arc::new(transport);
                *workers.lock() = shards.to_vec();
                *servers.lock() = spawned;
                *tcp.lock() = Some(Arc::clone(&transport));
                Ok(transport as Arc<dyn ShardTransport>)
            }))
            .build()
            .unwrap()
    };
    let transport = tcp.lock().take().unwrap();

    // A cross-shard transfer whose shard-1 part sleeps 300ms inside its
    // prepare body. Kill shard 1's server 100ms in: the vote was
    // delivered but its reply can never come back.
    let victim = {
        let a = 0u64; // shard 0
        let b = 1u64; // shard 1
        vec![
            procs::increment_part(
                cluster.shard_of(a),
                ProcedureCall::new(TY),
                account_key(a),
                0,
                -40,
            ),
            tebaldi_suite::cluster::ShardPart::new(
                cluster.shard_of(b),
                ProcedureCall::new(TY),
                SLOW_INC,
                procs::increment_args(account_key(b), 0, 40),
            ),
        ]
    };
    let handle = {
        let cluster = Arc::new(cluster);
        let c = Arc::clone(&cluster);
        let h = std::thread::spawn(move || c.execute_multi(victim));
        (cluster, h)
    };
    let (cluster, inflight) = handle;
    std::thread::sleep(Duration::from_millis(100));
    servers.lock()[1].shutdown();

    let result = inflight.join().expect("coordinator thread panicked");
    assert!(
        result.is_err(),
        "a transfer whose vote was lost must not report success"
    );

    // The orphaned prepare finishes its body after the link died and
    // parks in doubt, holding its locks until a decision arrives.
    let mut waited = Duration::ZERO;
    while cluster.in_doubt_count() == 0 && waited < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(20));
        waited += Duration::from_millis(20);
    }
    assert_eq!(
        cluster.in_doubt_count(),
        1,
        "the lost vote must park in doubt"
    );

    // Restart shard 1 on a fresh port and re-point the same transport —
    // the cluster object is never rebuilt.
    let restarted = TcpShardServer::spawn(1, Arc::clone(&workers.lock()[1]), 32).unwrap();
    transport.set_shard_addr(1, restarted.addr());

    // Traffic to shard 1 resumes (single-shard increments on an account
    // untouched by the in-doubt part's locks).
    let spare = 3u64; // shard 1 under 2-shard routing
    assert_eq!(cluster.shard_of(spare), 1);
    let (value, _) = cluster
        .execute_single(
            1,
            procs::KV_INCREMENT,
            &ProcedureCall::new(TY),
            procs::increment_args(account_key(spare), 0, 7),
            50,
        )
        .expect("traffic must resume after the server restart");
    assert_eq!(value.as_int(), Some(7));
    assert!(
        cluster.stats().reconnects >= 1,
        "resumed traffic must have come through a reconnect"
    );

    // Crash recovery resolves the in-doubt part by presumed abort: no
    // decision was ever logged, so neither side of the transfer survives
    // and the spare increment does.
    for shard in 0..2 {
        cluster.shard(shard).durability().seal_current_epoch();
    }
    let logs: Vec<_> = (0..2).map(|s| cluster.shard_log(s)).collect();
    let decision_log = cluster.coordinator().decision_log();
    let recovered = recover_cluster(&logs, decision_log.as_ref(), 4);
    let read = |account: u64| {
        recovered[cluster.shard_of(account)]
            .0
            .read_visible(&account_key(account), ReadSpec::LatestCommitted)
            .and_then(|v| v.as_int())
            .unwrap_or(0)
    };
    assert_eq!(read(0), 0, "the debit side of the lost transfer must abort");
    assert_eq!(
        read(1),
        0,
        "the credit side of the lost transfer must abort"
    );
    assert_eq!(read(spare), 7, "committed post-restart work must survive");

    cluster.shutdown();
    for server in servers.lock().iter() {
        server.shutdown();
    }
    restarted.shutdown();
}

/// Kill a shard primary mid-prepare under a seeded hostile plan — the
/// replica link lanes drop/delay/partition the shipped log stream — then
/// promote its backup and destroy the dead primary's WAL. The replication
/// promises under test: every acknowledged transaction survives on the
/// promoted backup (the quorum gate shipped it before the ack), balances
/// conserve on the recovered state, no shard ever observes two decisions
/// for one transaction, and the *same* cluster resumes traffic through
/// the repointed transport.
#[test]
fn killed_primary_mid_prepare_promotes_backup_and_conserves() {
    use tebaldi_suite::cluster::{ReplicationConfig, TransportKind};

    const VICTIM: usize = 1;
    let mut config = ClusterConfig::for_tests(SHARDS);
    config.db_config.durability = DurabilityMode::Synchronous;
    config.transport = TransportKind::Tcp;
    config.fault_plan = Some(FaultPlan::hostile(0xD1ED));
    config.prepare_timeout_ms = 5_000;
    config.replication = Some(ReplicationConfig {
        replicas: 1,
        quorum: 1,
        ack_timeout_ms: 2_000,
    });
    let cluster = Arc::new(builder(config).build().unwrap());

    // Acked cross-shard transfers under the hostile plan.
    let mut rng = StdRng::seed_from_u64(0xD1ED);
    let mut committed = 0;
    for _ in 0..8 {
        let a = rng.gen_range(0..ACCOUNTS);
        let offset = rng.gen_range(1..SHARDS as u64);
        let b = (a + offset) % ACCOUNTS;
        let amount = rng.gen_range(1..50);
        if cluster
            .execute_multi(transfer_parts(&cluster, a, b, amount))
            .is_ok()
        {
            committed += 1;
        }
    }
    assert!(committed > 0, "no transfer committed before the kill");

    // A known acknowledged write on the victim shard, on an account
    // outside the conservation set. Its ack implies the quorum gate
    // shipped it, so it must survive the primary's death.
    let probe = (ACCOUNTS..ACCOUNTS + 4 * SHARDS as u64)
        .find(|&i| cluster.shard_of(i) == VICTIM)
        .unwrap();
    let mut probe_acked = false;
    for _ in 0..50 {
        if let Ok((value, _)) = cluster.execute_single(
            VICTIM,
            procs::KV_INCREMENT,
            &ProcedureCall::new(TY),
            procs::increment_args(account_key(probe), 0, 77),
            50,
        ) {
            assert_eq!(value.as_int(), Some(77));
            probe_acked = true;
            break;
        }
    }
    assert!(probe_acked, "the probe write never got through the faults");

    // Kill the primary while a slow cross-shard prepare is in flight on
    // it. Either interleaving must stay atomic: the prepare's record
    // ships before the kill (the vote goes out, the decision resolves it
    // on the promoted backup) or it does not (the quorum gate refuses
    // the vote and both parts abort).
    let debit = (0..ACCOUNTS)
        .find(|&i| cluster.shard_of(i) != VICTIM)
        .unwrap();
    let credit = (0..ACCOUNTS)
        .find(|&i| cluster.shard_of(i) == VICTIM)
        .unwrap();
    let victim_parts = vec![
        procs::increment_part(
            cluster.shard_of(debit),
            ProcedureCall::new(TY),
            account_key(debit),
            0,
            -40,
        ),
        tebaldi_suite::cluster::ShardPart::new(
            VICTIM,
            ProcedureCall::new(TY),
            SLOW_INC,
            procs::increment_args(account_key(credit), 0, 40),
        ),
    ];
    let inflight = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || cluster.execute_multi(victim_parts))
    };
    std::thread::sleep(Duration::from_millis(100));

    let old_log = cluster.shard_log(VICTIM);
    let report = cluster.promote_backup(VICTIM).expect("promotion succeeds");
    assert_eq!(report.discarded_unsealed_epoch, 0);
    // The dead primary's WAL is destroyed: nothing below may depend on it.
    assert!(old_log.truncate_to(0));
    let _ = inflight.join().expect("coordinator thread panicked");

    // The same cluster resumes traffic through the promoted backup.
    let mut resumed = None;
    for _ in 0..50 {
        if let Ok((value, _)) = cluster.execute_single(
            VICTIM,
            procs::KV_INCREMENT,
            &ProcedureCall::new(TY),
            procs::increment_args(account_key(probe), 0, 3),
            50,
        ) {
            resumed = value.as_int();
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        resumed,
        Some(80),
        "the acked probe write must survive the failover (77 + 3)"
    );

    // Balances conserve on the recovered state — the victim's side reads
    // from the promoted backup's log, the old primary's WAL is gone.
    let sum = recovered_sum(&cluster);
    assert_eq!(sum, 0, "recovered balances must conserve (sum {sum} != 0)");

    let metrics = cluster.metrics();
    assert_eq!(
        metrics.counter("decisions.conflict").unwrap_or(0),
        0,
        "a shard saw two different decisions for one transaction"
    );
    assert_eq!(cluster.stats().failovers, 1);
    cluster.shutdown();
}
