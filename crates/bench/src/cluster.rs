//! The cluster leg: one function builds a sharded cluster, drives it, and
//! turns its counters into a row, for the scale-out sweeps of
//! `cluster_tpcc` / `cluster_seats` and for their DGCC batch legs alike.
//!
//! Every cluster runs monolithic-per-shard CC over synchronous WALs whose
//! devices have a realistic write barrier (~an NVMe fsync): group commit is
//! only measurable when a flush takes time. A leg runs `trials` times on a
//! fresh cluster each and reports the trial of median throughput, so one
//! lucky (or starved) window on a loaded box cannot skew a comparison.
//!
//! The **batch** load is a micro-experiment rather than a workload mode:
//! batches of cross-shard transfers with deliberate hot-key contention run
//! over the same key sequence either **undeclared** (every transaction
//! races in wave zero and the CC layer aborts the conflicting ones) or
//! **declared** (the coordinator builds the intra-batch dependency graph
//! from the declared write sets and defers conflicting transactions into
//! later waves). Each transaction gets one attempt — the point is what
//! scheduling saves, not what retrying hides.

use crate::common::{compare, num, print_table, Options};
use crate::legs::Make;
use crate::row;
use serde::{Json, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tebaldi_cc::{AccessMode, CcKind, CcTreeSpec, ProcedureInfo, ProcedureSet};
use tebaldi_cluster::{
    procs, BatchKeySets, BatchTxn, Cluster, ClusterConfig, ClusterStats, ShardPart, TransportKind,
};
use tebaldi_core::{DurabilityMode, ProcRegistry, ProcedureCall};
use tebaldi_storage::wal::{LogDevice, MemLogDevice};
use tebaldi_storage::{Key, TableId, TxnTypeId, Value};
use tebaldi_workloads::{run_cluster_benchmark, BenchResult, ClusterWorkload};

/// What drives a cluster leg.
pub enum ClusterLoad {
    /// Closed-loop clients running a workload made fresh for each trial.
    Clients(Make<dyn ClusterWorkload>),
    /// `rounds` batches of `size` contended cross-shard transfers.
    Batch {
        /// Batches executed.
        rounds: u64,
        /// Transactions per batch.
        size: u64,
        /// Whether the transactions declare their write sets.
        declared: bool,
    },
}

/// One cluster configuration of a sweep.
pub struct ClusterLeg {
    /// The `commit_path` column (`cluster_seats` rows have none).
    pub commit_path: Option<&'static str>,
    /// Shards, transport, window, replication, read consistency.
    pub config: ClusterConfig,
    /// The CC tree every shard runs.
    pub spec: CcTreeSpec,
    /// Closed-loop clients (1 for a batch leg).
    pub clients: usize,
    /// Runs of which the median-throughput one is reported.
    pub trials: usize,
    /// What drives it.
    pub load: ClusterLoad,
}

impl ClusterLeg {
    /// A leg on `ClusterConfig::for_benchmarks(shards)` with synchronous
    /// durability (and two workers per shard under `--quick`).
    pub fn new(options: &Options, shards: usize, spec: CcTreeSpec, load: ClusterLoad) -> Self {
        let mut config = ClusterConfig::for_benchmarks(shards);
        config.db_config.durability = DurabilityMode::Synchronous;
        config.workers_per_shard = options.pick(2, config.workers_per_shard);
        ClusterLeg {
            commit_path: None,
            config,
            spec,
            clients: 1,
            trials: 1,
            load,
        }
    }
}

fn transport_name(transport: TransportKind) -> &'static str {
    match transport {
        TransportKind::InProcess => "in-process",
        TransportKind::Tcp => "tcp",
    }
}

/// The row of one cluster run.
pub fn cluster_row(
    leg: &ClusterLeg,
    result: &BenchResult,
    stats: &ClusterStats,
    replication_lag: u64,
) -> Json {
    let routed = stats.single_shard + stats.multi_shard;
    let mut row = row![
        "shards" => leg.config.shards,
        "clients" => leg.clients,
        "transport" => transport_name(leg.config.transport),
        "max_inflight" => leg.config.max_inflight_per_shard,
        "throughput" => result.throughput,
        "committed" => result.committed,
        "aborted" => result.aborted,
        "abort_rate" => result.abort_rate(),
        "p50_ms" => result.latency_overall.p50_ms,
        "p95_ms" => result.latency_overall.p95_ms,
        "p99_ms" => result.latency_overall.p99_ms,
        "single_shard_txns" => stats.single_shard,
        "multi_shard_txns" => stats.multi_shard,
        "single_shard_fraction" => if routed > 0 {
            stats.single_shard as f64 / routed as f64
        } else {
            1.0
        },
        "flushes" => stats.flushes,
        "flushes_per_commit" => stats.flushes_per_commit,
        "prepared_lock_window_ns" => stats.prepared_lock_window_ns,
        "queue_wait_ns" => stats.prepare_queue_wait_ns,
        "hardening_ns" => stats.prepare_hardening_ns,
        "pipeline_depth" => stats.max_pipeline_depth,
        "read_only_votes" => stats.read_only_votes,
        "one_phase_commits" => stats.coordinator.one_phase,
        "coalesced_flushes" => stats.coalesced_flushes,
        "messages_sent" => stats.messages_sent,
        "bytes_on_wire" => stats.bytes_on_wire,
        // Peak ship lag any shard's WAL shipper observed, in records.
        "replication_lag" => replication_lag,
        "follower_reads" => stats.follower_reads,
        "snapshot_reads" => stats.snapshot_reads,
        "snapshot_read_wait_ns" => stats.snapshot_read_wait_ns,
        "batch_scheduled" => stats.batch_scheduled,
        "batch_aborts" => stats.batch_aborts,
    ];
    if let (Some(path), Json::Obj(fields)) = (leg.commit_path, &mut row) {
        fields.insert(2, ("commit_path".to_string(), path.to_json()));
    }
    row
}

/// One run of a leg on a fresh cluster.
fn run_trial(options: &Options, leg: &ClusterLeg) -> Json {
    let shards = leg.config.shards;
    let build = |procedures, registry| {
        let flush_latency = Duration::from_micros(20);
        let device =
            || Arc::new(MemLogDevice::with_flush_latency(flush_latency)) as Arc<dyn LogDevice>;
        let cluster = Cluster::builder(leg.config.clone())
            .procedures(procedures)
            .shard_procedures(registry)
            .cc_spec(leg.spec.clone())
            .shard_logs((0..shards).map(|_| device()).collect())
            .decision_log(device())
            .build()
            .expect("cluster build");
        Arc::new(cluster)
    };
    let (cluster, result) = match &leg.load {
        ClusterLoad::Clients(make) => {
            let workload = make();
            let mut registry = ProcRegistry::new();
            workload.register_procedures(&mut registry);
            let cluster = build(workload.procedures(), registry);
            workload.load(&cluster);
            let path = leg.commit_path.unwrap_or("-");
            let transport = transport_name(leg.config.transport);
            let bench =
                options.bench_options(leg.clients, &format!("{shards}-shard/{path}/{transport}"));
            let result = run_cluster_benchmark(&cluster, &workload, &bench);
            if leg.config.replication.is_some() {
                // Drain the ship stream through the follower-read gate: one
                // bounded-staleness read per shard proves each backup caught
                // up to its primary's full durable log after the run.
                for shard in 0..shards {
                    let key = Key::simple(TableId(0), shard as u64);
                    let _ = cluster.follower_read(shard, 0, &key, Duration::from_secs(5));
                }
            }
            (cluster, result)
        }
        &ClusterLoad::Batch {
            rounds,
            size,
            declared,
        } => {
            let cluster = build(batch_procedures(), ProcRegistry::new());
            let result = run_batches(&cluster, rounds, size, declared);
            (cluster, result)
        }
    };
    let stats = cluster.stats();
    let lag = cluster.metrics().gauge("replication.lag_records");
    cluster.shutdown();
    cluster_row(leg, &result, &stats, lag.unwrap_or(0))
}

/// Runs every leg (median of its trials), prints the rows as a table, and
/// returns them.
pub fn run_cluster_legs(options: &Options, legs: &[ClusterLeg]) -> Vec<Json> {
    let rows: Vec<Json> = legs
        .iter()
        .map(|leg| {
            let mut samples: Vec<Json> = (0..leg.trials).map(|_| run_trial(options, leg)).collect();
            samples.sort_by(|a, b| num(a, "throughput").total_cmp(&num(b, "throughput")));
            samples.swap_remove(samples.len() / 2)
        })
        .collect();
    print_table(
        &rows,
        &[
            "shards",
            "clients",
            "commit_path",
            "transport",
            "throughput",
            "abort_rate",
            "single_shard_fraction",
            "flushes_per_commit",
            "prepared_lock_window_ns",
            "queue_wait_ns",
            "hardening_ns",
            "pipeline_depth",
            "messages_sent",
        ],
    );
    rows
}

/// The two DGCC batch legs both sweeps end with, undeclared then declared,
/// over the same contended batch sequence. `commit_paths` names them in
/// the `commit_path` column.
pub fn batch_legs(options: &Options, commit_paths: bool) -> Vec<ClusterLeg> {
    let (shards, rounds) = options.pick((2, 15), (4, 50));
    let spec = || CcTreeSpec::monolithic(CcKind::Ssi, vec![BATCH_TY]);
    [false, true]
        .into_iter()
        .map(|declared| {
            let load = ClusterLoad::Batch {
                rounds,
                size: 16,
                declared,
            };
            let mut leg = ClusterLeg::new(options, shards, spec(), load);
            let path = if declared {
                "batch-declared"
            } else {
                "batch-undeclared"
            };
            leg.commit_path = commit_paths.then_some(path);
            leg
        })
        .collect()
}

/// The acceptance comparison of the batch legs (the last two rows): the
/// declared leg must abort less at equal-or-better throughput.
pub fn compare_batch_legs(rows: &[Json]) {
    let [undeclared, declared] = &rows[rows.len() - 2..] else {
        unreachable!("a sweep ends with its two batch legs")
    };
    let what = format!(
        "batch legs, declared vs undeclared (abort rate {:.3})",
        num(undeclared, "abort_rate")
    );
    compare(
        &what,
        undeclared,
        declared,
        &["abort_rate", "batch_scheduled"],
    );
}

const BATCH_TABLE: TableId = TableId(7);
const BATCH_TY: TxnTypeId = TxnTypeId(7);

fn batch_procedures() -> ProcedureSet {
    let mut set = ProcedureSet::new();
    set.insert(ProcedureInfo::new(
        BATCH_TY,
        "batch_transfer",
        vec![(BATCH_TABLE, AccessMode::Write)],
    ));
    set
}

/// The transfer of batch transaction `(round, slot)`: debit a hot account,
/// credit a unique cold account on another shard. The small hot set
/// guarantees several transactions per batch share a write key.
fn transfer_keys(
    shards: usize,
    hot_accounts: u64,
    round: u64,
    slot: u64,
    batch: u64,
) -> (u64, u64) {
    let hot = (round * 31 + slot * 7) % hot_accounts;
    // Cold accounts start past the hot set and never repeat inside a
    // round; offset by one shard so the two parts land on distinct shards.
    let cold = hot_accounts + round * batch + slot;
    let cold = if (cold % shards as u64) == (hot % shards as u64) {
        cold + 1
    } else {
        cold
    };
    (hot, cold)
}

/// Loads the accounts and runs the batches; the result counts commits and
/// aborts over wall time (no latencies: a batch is not a client).
fn run_batches(cluster: &Cluster, rounds: u64, size: u64, declared: bool) -> BenchResult {
    let (shards, hot_accounts) = (cluster.shard_count(), 4u64);
    for account in 0..hot_accounts + rounds * size + size + 1 {
        cluster.load(
            account,
            Key::simple(BATCH_TABLE, account),
            Value::Int(1_000),
        );
    }
    let part = |account: u64, delta: i64| -> ShardPart {
        let key = Key::simple(BATCH_TABLE, account);
        procs::increment_part(
            cluster.shard_of(account),
            ProcedureCall::new(BATCH_TY),
            key,
            0,
            delta,
        )
    };
    let (mut committed, mut aborted) = (0u64, 0u64);
    let started = Instant::now();
    for round in 0..rounds {
        let txns: Vec<BatchTxn> = (0..size)
            .map(|slot| {
                let (from, to) = transfer_keys(shards, hot_accounts, round, slot, size);
                let parts = vec![part(from, -1), part(to, 1)];
                if declared {
                    let writes = vec![Key::simple(BATCH_TABLE, from), Key::simple(BATCH_TABLE, to)];
                    BatchTxn::declared(parts, BatchKeySets::writes(writes))
                } else {
                    BatchTxn::undeclared(parts)
                }
            })
            .collect();
        for result in cluster.execute_multi_batch_declared(txns) {
            if result.is_ok() {
                committed += 1;
            } else {
                aborted += 1;
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
    BenchResult {
        clients: 1,
        duration_s: elapsed,
        committed,
        aborted,
        throughput: committed as f64 / elapsed,
        ..BenchResult::default()
    }
}
