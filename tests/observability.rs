//! Cross-crate observability tests.
//!
//! The distributed-trace path is exercised end to end: a sampled
//! cross-shard transaction over the real TCP transport must leave a
//! reconstructable trace — coordinator phase spans plus both shards'
//! queue/execute/harden spans — and failed transactions must tag their
//! vote spans with the abort mechanism ("engine", "timeout", ...).
//! The metrics side gets a histogram-merge property test and an
//! overhead smoke test: a disabled registry must not cost an order of
//! magnitude on the hot path, and must collect nothing.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tebaldi_suite::cc::{AccessMode, CcError, CcKind, CcTreeSpec, ProcedureInfo, ProcedureSet};
use tebaldi_suite::cluster::{procs, Cluster, ClusterConfig, ShardPart, TransportKind};
use tebaldi_suite::core::{Database, DbConfig, DurabilityMode, ProcId, ProcedureCall};
use tebaldi_suite::obs::{self, Histogram, MetricsRegistry, SpanRecord};
use tebaldi_suite::storage::codec::ByteReader;
use tebaldi_suite::storage::{Key, TableId, TxnTypeId, Value};

const TABLE: TableId = TableId(0);
const TRANSFER: TxnTypeId = TxnTypeId(0);
/// Self-aborting shard procedure: increments, then requests an abort.
const POISON: ProcId = ProcId(901);
/// Wedged shard procedure: sleeps past the prepare timeout.
const WEDGE: ProcId = ProcId(902);

fn procedures() -> ProcedureSet {
    let mut set = ProcedureSet::new();
    set.insert(ProcedureInfo::new(
        TRANSFER,
        "transfer",
        vec![(TABLE, AccessMode::Write)],
    ));
    set
}

/// A two-shard cluster with every transaction trace-sampled. The default
/// test config never samples (the span sink is process-global, so tests
/// must opt in and only read their own trace ids back).
fn traced_cluster(transport: TransportKind, prepare_timeout_ms: u64) -> Cluster {
    let mut config = ClusterConfig::for_tests(2);
    config.transport = transport;
    config.trace_sample_every = 1;
    config.prepare_timeout_ms = prepare_timeout_ms;
    config.db_config.durability = DurabilityMode::Synchronous;
    let cluster = Cluster::builder(config)
        .procedures(procedures())
        .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TRANSFER]))
        .shard_procedure(POISON, |txn, args| {
            let mut r = ByteReader::new(args);
            let key = r.key().map_err(|e| CcError::Internal(e.to_string()))?;
            txn.increment(key, 0, 30)?;
            Err(txn.request_abort())
        })
        .shard_procedure(WEDGE, |txn, args| {
            let mut r = ByteReader::new(args);
            let key = r.key().map_err(|e| CcError::Internal(e.to_string()))?;
            std::thread::sleep(Duration::from_millis(400));
            txn.increment(key, 0, 30).map(Value::Int)
        })
        .build()
        .unwrap();
    for account in 0..4u64 {
        cluster.load(account, Key::simple(TABLE, account), Value::Int(100));
    }
    cluster
}

fn span_with<'a>(
    spans: &'a [SpanRecord],
    name: &str,
    pred: impl Fn(&SpanRecord) -> bool,
) -> Option<&'a SpanRecord> {
    spans.iter().find(|s| s.name == name && pred(s))
}

/// Acceptance: a sampled cross-shard transaction over TCP produces a
/// reconstructable end-to-end trace — every coordinator phase span plus
/// queue-wait, execute and harden spans from both participant shards,
/// all carrying the same trace id and well-formed timestamps.
#[test]
fn sampled_cross_shard_tcp_transaction_leaves_complete_trace() {
    let cluster = traced_cluster(TransportKind::Tcp, 10_000);
    let (a, b) = (1u64, 2u64);
    let (shard_a, shard_b) = (cluster.shard_of(a), cluster.shard_of(b));
    assert_ne!(shard_a, shard_b, "accounts must land on different shards");
    cluster
        .execute_multi(vec![
            procs::increment_part(
                shard_a,
                ProcedureCall::new(TRANSFER),
                Key::simple(TABLE, a),
                0,
                -30,
            ),
            procs::increment_part(
                shard_b,
                ProcedureCall::new(TRANSFER),
                Key::simple(TABLE, b),
                0,
                30,
            ),
        ])
        .unwrap();
    let trace_id = cluster.last_trace_id();
    assert_ne!(trace_id, 0, "sampler must have allocated a trace id");

    let spans = obs::collect(trace_id);
    assert!(
        spans.iter().all(|s| s.trace_id == trace_id),
        "collect must filter by trace id"
    );
    assert!(
        spans.iter().all(|s| s.start_ns <= s.end_ns),
        "spans must be well-formed intervals: {spans:?}"
    );

    // Coordinator phases, in coordinator "shard" -1.
    for name in [
        "coord.prepare_fanout",
        "coord.vote_collect",
        "coord.decision_log",
        "coord.finalize",
    ] {
        assert!(
            span_with(&spans, name, |s| s.shard == -1).is_some(),
            "missing coordinator span {name}: {spans:?}"
        );
    }
    let votes: Vec<_> = spans.iter().filter(|s| s.name == "coord.vote").collect();
    assert_eq!(votes.len(), 2, "one vote span per participant: {spans:?}");
    assert!(votes.iter().all(|s| s.status == "ok"));
    assert!(
        span_with(&spans, "coord.decision_log", |s| s.status == "commit").is_some(),
        "two read-write participants must log a commit decision: {spans:?}"
    );
    assert!(span_with(&spans, "coord.finalize", |s| s.status == "commit").is_some());

    // Both shards' spans crossed the wire back into the shared sink:
    // queue wait, body execution, and (synchronous durability) the
    // prepare-WAL harden.
    for shard in [shard_a as i32, shard_b as i32] {
        for name in ["shard.queue_wait", "shard.execute", "shard.harden"] {
            assert!(
                span_with(&spans, name, |s| s.shard == shard).is_some(),
                "missing {name} on shard {shard}: {spans:?}"
            );
        }
    }

    // Reconstructable end to end: the coordinator's fanout starts no
    // later than any shard-side execution it caused finishes.
    let fanout = span_with(&spans, "coord.prepare_fanout", |_| true).unwrap();
    let last_execute = spans
        .iter()
        .filter(|s| s.name == "shard.execute")
        .map(|s| s.end_ns)
        .max()
        .unwrap();
    assert!(fanout.start_ns <= last_execute);
    cluster.shutdown();
}

/// A participant that aborts itself tags its vote span with the mechanism
/// its abort is counted under (`Requested` is the engine's), and the
/// decision/finalize spans read "abort".
#[test]
fn self_aborted_participant_tags_trace_with_mechanism() {
    let cluster = traced_cluster(TransportKind::InProcess, 10_000);
    let err = cluster
        .execute_multi(vec![
            procs::increment_part(
                cluster.shard_of(1),
                ProcedureCall::new(TRANSFER),
                Key::simple(TABLE, 1),
                0,
                -30,
            ),
            ShardPart::new(
                cluster.shard_of(2),
                ProcedureCall::new(TRANSFER),
                POISON,
                procs::key_args(Key::simple(TABLE, 2)),
            ),
        ])
        .unwrap_err();
    assert!(matches!(err, CcError::Requested), "got {err:?}");

    let spans = obs::collect(cluster.last_trace_id());
    assert!(
        span_with(&spans, "coord.vote", |s| s.status == "engine").is_some(),
        "poisoned vote must carry the abort mechanism: {spans:?}"
    );
    assert!(
        span_with(&spans, "coord.decision_log", |s| s.status == "abort").is_some(),
        "abort with a surviving read-write participant is logged: {spans:?}"
    );
    assert!(span_with(&spans, "coord.finalize", |s| s.status == "abort").is_some());
    cluster.shutdown();
}

/// A prepare vote that never arrives within the timeout is tagged
/// "timeout" on its vote span and the transaction finalizes as a timeout
/// abort; the wedged shard resolves the orphan afterwards.
#[test]
fn timed_out_vote_is_tagged_timeout() {
    let cluster = traced_cluster(TransportKind::InProcess, 100);
    let err = cluster
        .execute_multi(vec![
            procs::increment_part(
                cluster.shard_of(1),
                ProcedureCall::new(TRANSFER),
                Key::simple(TABLE, 1),
                0,
                -30,
            ),
            ShardPart::new(
                cluster.shard_of(2),
                ProcedureCall::new(TRANSFER),
                WEDGE,
                procs::key_args(Key::simple(TABLE, 2)),
            ),
        ])
        .unwrap_err();
    assert!(matches!(err, CcError::Internal(_)), "got {err:?}");

    let spans = obs::collect(cluster.last_trace_id());
    assert!(
        span_with(&spans, "coord.vote", |s| s.status == "timeout").is_some(),
        "wedged vote must be tagged timeout: {spans:?}"
    );
    // The abort decision may be acked by the wedged shard's second worker
    // (-> "abort") or time out behind the sleeping body (-> "timeout");
    // either way the finalize span must not read "commit".
    assert!(
        span_with(&spans, "coord.finalize", |s| s.status == "abort"
            || s.status == "timeout")
        .is_some(),
        "finalize must report the abort: {spans:?}"
    );

    // Let the wedged body land and resolve against the orphan-decision
    // check before asserting nothing stays in doubt.
    std::thread::sleep(Duration::from_millis(600));
    assert_eq!(cluster.in_doubt_count(), 0);
    cluster.shutdown();
}

/// The span sink is process-global, but trace ids are scoped per cluster
/// (the scope rides the id's high bits): two concurrent traced clusters
/// must never read each other's spans or slow-trace dumps.
#[test]
fn concurrent_clusters_keep_their_traces_apart() {
    // Cluster A dumps everything slower than 1ms (its transfer carries a
    // 400ms wedged body, so it always dumps); cluster B's threshold is
    // effectively unreachable, so any dump it drains would have leaked
    // over from A.
    let mut config_a = ClusterConfig::for_tests(2);
    config_a.trace_sample_every = 1;
    config_a.slow_trace_threshold_ms = 1;
    config_a.db_config.durability = DurabilityMode::Synchronous;
    let cluster_a = Cluster::builder(config_a)
        .procedures(procedures())
        .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TRANSFER]))
        .shard_procedure(WEDGE, |txn, args| {
            let mut r = ByteReader::new(args);
            let key = r.key().map_err(|e| CcError::Internal(e.to_string()))?;
            std::thread::sleep(Duration::from_millis(400));
            txn.increment(key, 0, 30).map(Value::Int)
        })
        .build()
        .unwrap();
    let mut config_b = ClusterConfig::for_tests(2);
    config_b.trace_sample_every = 1;
    // Armed but unreachable: if B ever drains a dump, it leaked from A.
    config_b.slow_trace_threshold_ms = 3_600_000;
    let cluster_b = Cluster::builder(config_b)
        .procedures(procedures())
        .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TRANSFER]))
        .build()
        .unwrap();
    for account in 0..4u64 {
        cluster_b.load(account, Key::simple(TABLE, account), Value::Int(100));
    }
    assert_ne!(
        cluster_a.trace_scope(),
        cluster_b.trace_scope(),
        "every cluster gets its own trace scope"
    );

    cluster_a
        .execute_multi(vec![
            procs::increment_part(
                cluster_a.shard_of(1),
                ProcedureCall::new(TRANSFER),
                Key::simple(TABLE, 1),
                0,
                -30,
            ),
            ShardPart::new(
                cluster_a.shard_of(2),
                ProcedureCall::new(TRANSFER),
                WEDGE,
                procs::key_args(Key::simple(TABLE, 2)),
            ),
        ])
        .unwrap();
    cluster_b
        .execute_multi(vec![
            procs::increment_part(
                cluster_b.shard_of(1),
                ProcedureCall::new(TRANSFER),
                Key::simple(TABLE, 1),
                0,
                -10,
            ),
            procs::increment_part(
                cluster_b.shard_of(2),
                ProcedureCall::new(TRANSFER),
                Key::simple(TABLE, 2),
                0,
                10,
            ),
        ])
        .unwrap();

    let (id_a, id_b) = (cluster_a.last_trace_id(), cluster_b.last_trace_id());
    assert_eq!(obs::trace_scope_of(id_a), cluster_a.trace_scope());
    assert_eq!(obs::trace_scope_of(id_b), cluster_b.trace_scope());
    // Collecting one cluster's trace returns nothing from the other.
    assert!(obs::collect(id_a).iter().all(|s| s.trace_id == id_a));
    assert!(obs::collect(id_b).iter().all(|s| s.trace_id == id_b));
    assert!(!obs::collect(id_b).is_empty());

    // Slow-trace drains are scoped too: A's wedged transfer dumped, B
    // drains nothing even though both share the process-global sink.
    let slow_a = cluster_a.take_slow_traces();
    assert!(
        slow_a.iter().any(|t| t.trace_id == id_a),
        "cluster A's 400ms transfer must have dumped: {slow_a:?}"
    );
    assert!(
        slow_a
            .iter()
            .all(|t| obs::trace_scope_of(t.trace_id) == cluster_a.trace_scope()),
        "A must only drain its own scope: {slow_a:?}"
    );
    assert!(
        cluster_b.take_slow_traces().is_empty(),
        "cluster B must not see A's slow traces"
    );

    cluster_a.shutdown();
    cluster_b.shutdown();
}

/// The exposition surface: cluster counters and 2PC phase histograms are
/// present in the snapshot, the Prometheus text carries the sanitized
/// names, and the JSON document parses.
#[test]
fn cluster_metrics_exposition_covers_2pc_phases() {
    let cluster = traced_cluster(TransportKind::InProcess, 10_000);
    cluster
        .execute_multi(vec![
            procs::increment_part(
                cluster.shard_of(1),
                ProcedureCall::new(TRANSFER),
                Key::simple(TABLE, 1),
                0,
                -10,
            ),
            procs::increment_part(
                cluster.shard_of(2),
                ProcedureCall::new(TRANSFER),
                Key::simple(TABLE, 2),
                0,
                10,
            ),
        ])
        .unwrap();

    let snap = cluster.metrics();
    assert_eq!(snap.counter("cluster.multi_shard"), Some(1));
    for name in [
        "2pc.prepare_fanout_ns",
        "2pc.vote_collect_ns",
        "2pc.decision_log_ns",
        "2pc.finalize_ns",
    ] {
        let hist = snap
            .histogram(name)
            .unwrap_or_else(|| panic!("missing histogram {name}"));
        assert!(hist.count >= 1, "{name} must have recorded a phase");
    }
    // Shard-side instruments merge into the same snapshot.
    assert!(snap.counter("durability.commits").unwrap_or(0) > 0);
    // Version-store / GC instruments. Commits flip their versions in place
    // and retire nothing; an abort unlinks its version and retires the
    // slot to limbo, and the chain-length gauge saw the installs.
    assert_eq!(
        snap.counter("gc.versions_retired").unwrap_or(0),
        0,
        "a commit retires no slot"
    );
    cluster
        .execute_multi(vec![
            procs::increment_part(
                cluster.shard_of(1),
                ProcedureCall::new(TRANSFER),
                Key::simple(TABLE, 1),
                0,
                -10,
            ),
            ShardPart::new(
                cluster.shard_of(2),
                ProcedureCall::new(TRANSFER),
                POISON,
                procs::key_args(Key::simple(TABLE, 2)),
            ),
        ])
        .unwrap_err();
    let snap = cluster.metrics();
    assert!(
        snap.counter("gc.versions_retired").unwrap_or(0) > 0,
        "an abort must retire the slots it unlinks"
    );
    assert!(
        snap.gauge("store.chain_len").unwrap_or(0) >= 1,
        "installs must feed the chain-length max-gauge"
    );
    assert!(snap.gauge("gc.limbo_bytes").is_some());

    let text = cluster.metrics().to_prometheus();
    assert!(text.contains("cluster_multi_shard"), "prometheus: {text}");
    assert!(text.contains("2pc_prepare_fanout_ns"), "prometheus: {text}");
    assert!(text.contains("gc_versions_retired"), "prometheus: {text}");
    assert!(text.contains("store_chain_len"), "prometheus: {text}");
    assert!(
        text.contains("cluster_batch_scheduled"),
        "prometheus: {text}"
    );

    let json = serde_json::to_string_pretty(&cluster.metrics()).unwrap();
    let doc = serde_json::parse(&json).expect("metrics JSON must parse");
    assert!(doc.get("counters").is_some(), "json: {json}");
    cluster.shutdown();
}

/// `ClusterStats` is a view of the merged metrics snapshot: a fixed
/// single-threaded script on a two-shard cluster — single-shard
/// increments, a two-participant 2PC commit, a one-phase commit, a fully
/// read-only cross-shard read and a part that votes abort — and every
/// field that does not depend on the transport equals the script's own
/// count. Over TCP the shards are reached only through
/// `ShardRequest::Metrics`, and the wire counters are live.
#[test]
fn cluster_stats_count_what_the_script_did() {
    let mut config = ClusterConfig::for_tests(2);
    config.db_config.durability = DurabilityMode::Synchronous;
    let transport = config.transport;
    let cluster = Cluster::builder(config)
        .procedures(procedures())
        .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TRANSFER]))
        .shard_procedure(POISON, |txn, args| {
            let mut r = ByteReader::new(args);
            let key = r.key().map_err(|e| CcError::Internal(e.to_string()))?;
            txn.increment(key, 0, 30)?;
            Err(txn.request_abort())
        })
        .build()
        .unwrap();
    // One account on each shard, whatever the routing.
    let a = 0u64;
    let b = (1..)
        .find(|&k| cluster.shard_of(k) != cluster.shard_of(a))
        .unwrap();
    let (shard_a, shard_b) = (cluster.shard_of(a), cluster.shard_of(b));
    for account in [a, b] {
        cluster.load(account, Key::simple(TABLE, account), Value::Int(100));
    }
    let call = || ProcedureCall::new(TRANSFER);
    let increment =
        |shard, account| procs::increment_part(shard, call(), Key::simple(TABLE, account), 0, 1);
    let get = |shard, account| procs::get_part(shard, call(), Key::simple(TABLE, account));

    const SINGLE: u64 = 3;
    for _ in 0..SINGLE {
        cluster
            .execute_single(
                shard_a,
                procs::KV_INCREMENT,
                &call(),
                procs::increment_args(Key::simple(TABLE, a), 0, 1),
                1,
            )
            .unwrap();
    }
    // Two read-write participants: a flushed commit decision.
    cluster
        .execute_multi(vec![increment(shard_a, a), increment(shard_b, b)])
        .unwrap();
    // One read-write participant beside a read-only one: one-phase.
    cluster
        .execute_multi(vec![increment(shard_a, a), get(shard_b, b)])
        .unwrap();
    // Every participant read-only: nothing to decide.
    cluster
        .execute_multi(vec![get(shard_a, a), get(shard_b, b)])
        .unwrap();
    // A prepared participant beside one that votes abort: an abort
    // decision, appended but not flushed.
    let poisoned = ShardPart::new(
        shard_b,
        call(),
        POISON,
        procs::key_args(Key::simple(TABLE, b)),
    );
    assert!(cluster
        .execute_multi(vec![increment(shard_a, a), poisoned])
        .is_err());

    let metrics = cluster.metrics();
    let stats = cluster.stats();
    let coordinator = stats.coordinator;
    assert_eq!(coordinator.committed, 3);
    assert_eq!(coordinator.aborted, 1);
    assert_eq!(coordinator.one_phase, 1);
    assert_eq!(coordinator.read_only, 1);
    assert_eq!(coordinator.decisions_logged, 2, "the commit and the abort");
    assert_eq!(coordinator.decision_flushes, 1, "only the commit flushes");

    // Every part commits on its own shard: the single-shard units, then
    // two parts each of the three committed globals.
    assert_eq!(stats.committed, SINGLE + 3 * 2);
    // The poisoned part aborts itself; its prepared partner is aborted by
    // the coordinator's decision.
    assert_eq!(stats.aborted, 2);
    assert_eq!(stats.single_shard, SINGLE);
    assert_eq!(stats.multi_shard, 4);
    assert_eq!(stats.read_only_votes, 3);
    // Synchronous durability, one client: every record batch is one
    // device flush. A single-shard commit flushes once; a prepared part
    // flushes its prepare, then its commit or abort record; the read-only
    // parts and the self-aborted one log nothing; and the decision log
    // flushes its one commit decision.
    let shard_flushes = SINGLE + 2 * 2 + 2 + 2;
    assert_eq!(stats.flushes, shard_flushes + coordinator.decision_flushes);
    assert_eq!(stats.coalesced_flushes, 0);
    assert_eq!(
        stats.flushes_per_commit,
        stats.flushes as f64 / stats.committed as f64
    );
    // The 2PC commit, the one-phase commit and the abort parked a prepared
    // participant; the read-only global did not.
    assert_eq!(metrics.counter("cluster.lock_windows"), Some(3));
    assert_eq!(
        stats.prepared_lock_window_ns,
        metrics.counter("cluster.lock_window_ns").unwrap() / 3
    );
    // Four read-write prepares were hardened before their yes-vote.
    assert_eq!(metrics.counter("pipeline.hardened"), Some(4));
    assert_eq!(
        stats.prepare_hardening_ns,
        metrics.counter("pipeline.hardening_ns").unwrap() / 4
    );
    let queued = metrics.counter("pipeline.queued").unwrap();
    assert_eq!(
        stats.prepare_queue_wait_ns,
        metrics.counter("pipeline.queue_wait_ns").unwrap() / queued
    );
    // Prepares ran through the shard pipelines (a reply may leave before
    // its body is retired, so one client can still see two in flight).
    assert!(stats.max_pipeline_depth >= 1);
    assert_eq!(
        metrics.gauge("pipeline.max_depth"),
        Some(stats.max_pipeline_depth)
    );
    assert_eq!(stats.decision_ack_timeouts, 0);
    assert_eq!(stats.batch_scheduled, 0);
    assert_eq!(stats.batch_aborts, 0);
    assert_eq!(stats.follower_reads, 0);
    assert_eq!(stats.snapshot_reads, 0);
    assert_eq!(stats.snapshot_read_wait_ns, 0);
    assert_eq!(stats.failovers, 0);
    assert_eq!(stats.replica_acks_timed_out, 0);
    if transport == TransportKind::Tcp {
        assert!(stats.messages_sent > 0);
        assert!(stats.bytes_on_wire > 0);
    }
    cluster.shutdown();
}

/// Overhead smoke test: the same single-shard increment workload against
/// an enabled vs. a disabled registry. The bound is deliberately loose —
/// the point is catching a hot-path lock or allocation regression (which
/// shows up as an order of magnitude, not percent) without making the
/// test flaky on a noisy box. The disabled leg must collect nothing.
#[test]
fn disabled_registry_collects_nothing_and_costs_little() {
    fn run_leg(metrics: Arc<MetricsRegistry>) -> (Duration, u64) {
        let db = Database::builder(DbConfig::for_tests())
            .procedures(procedures())
            .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TRANSFER]))
            .metrics(Arc::clone(&metrics))
            .build()
            .unwrap();
        let key = Key::simple(TABLE, 0);
        db.load(key, Value::Int(0));
        let call = ProcedureCall::new(TRANSFER);
        let started = Instant::now();
        for _ in 0..2_000 {
            db.execute_with_retry(&call, 10, |txn| txn.increment(key, 0, 1))
                .unwrap();
        }
        let elapsed = started.elapsed();
        let samples = metrics
            .snapshot()
            .histograms
            .iter()
            .map(|(_, h)| h.count)
            .sum();
        db.shutdown();
        (elapsed, samples)
    }

    // Warm up the process (allocator, lazy statics) on a throwaway leg.
    run_leg(Arc::new(MetricsRegistry::disabled()));
    let (off_time, off_samples) = run_leg(Arc::new(MetricsRegistry::disabled()));
    let (on_time, on_samples) = run_leg(Arc::new(MetricsRegistry::new()));

    assert_eq!(off_samples, 0, "disabled histograms must drop samples");
    assert!(
        on_samples >= 2_000,
        "enabled leg must record per-procedure latency, got {on_samples}"
    );
    assert!(
        on_time < off_time * 10 + Duration::from_millis(200),
        "metrics on ({on_time:?}) must not be an order of magnitude over off ({off_time:?})"
    );
}

proptest! {
    /// Merging histogram snapshots — either snapshot-into-snapshot or
    /// folding a snapshot back into a live histogram — is exactly the
    /// histogram of the concatenated samples: identical buckets, exact
    /// count/sum/max, and `quantile(1.0)` pinned to the true maximum.
    #[test]
    fn histogram_merge_matches_combined_recording(
        a in proptest::collection::vec(0u64..1_000_000_000_000, 0..200),
        b in proptest::collection::vec(0u64..1_000_000_000_000, 0..200),
    ) {
        let (ha, hb, combined) = (Histogram::new(), Histogram::new(), Histogram::new());
        for &v in &a {
            ha.record(v);
            combined.record(v);
        }
        for &v in &b {
            hb.record(v);
            combined.record(v);
        }

        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        prop_assert_eq!(&merged, &combined.snapshot());

        let folded = Histogram::new();
        folded.merge_snapshot(&ha.snapshot());
        folded.merge_snapshot(&hb.snapshot());
        prop_assert_eq!(&folded.snapshot(), &merged);

        let true_max = a.iter().chain(&b).copied().max().unwrap_or(0);
        prop_assert_eq!(merged.max, true_max);
        prop_assert_eq!(merged.quantile(1.0), true_max);
        prop_assert_eq!(merged.count, (a.len() + b.len()) as u64);
        prop_assert_eq!(merged.sum, a.iter().chain(&b).sum::<u64>());
    }
}
