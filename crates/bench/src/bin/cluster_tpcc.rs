//! Cluster scale-out experiment: TPC-C throughput at 1/2/4/8 shards.
//!
//! Each shard runs its own Tebaldi database under monolithic SSI —
//! optimistic CC is the natural partner for cross-shard 2PC, since a
//! prepared-but-undecided transaction blocks no readers while it waits for
//! the decision (locking trees stall their whole group behind a parked
//! prepare). Warehouses are range-partitioned across shards (modulo). Remote-access
//! rates keep ≥ 90% of the mix single-shard, as in TPC-C (1% remote order
//! lines, 15% remote paying customers); cross-shard transactions go through
//! the coordinator's two-phase commit.
//!
//! Durability is ON (synchronous WAL per shard) and every leg runs the
//! **grouped** commit path (cross-transaction flush coalescing, read-only
//! participant votes, and the one-phase degenerate case). The emitted rows
//! carry `flushes`, `flushes_per_commit`, and `prepared_lock_window_ns` so
//! the commit-path cost is regression-tracked. (The retired one-flush-per-
//! record path measured 9.2x the flushes per commit of the grouped path at
//! 4 shards: 9.99 vs 1.09 when PR 3 introduced group commit, 10.02 vs 0.90
//! in its last rows, `BENCH_cluster_tpcc.json` as of PR 10.)
//!
//! A TCP leg re-runs the grouped path with every shard behind the
//! **TCP/loopback transport** (length-prefixed frames, per-shard server
//! loops), and the rows carry `messages_sent`/`bytes_on_wire` so the
//! transport cost of 2PC is regression-trackable too.
//!
//! A **replicated** leg re-runs the tcp leg with one backup per
//! shard and every commit ack gated on the backup's durable ack (the
//! quorum-gated group-commit path); its rows carry `replication_lag`
//! (peak ship lag in records) and `follower_reads`, and the acceptance
//! comparison holds it within 2x of the unreplicated tcp leg at 4
//! shards.
//!
//! Every leg runs the shard pipeline at one **in-flight window**
//! (`max_inflight_per_shard = 32`): one worker multiplexes many in-flight
//! prepares with their hardening batched in the shard's completion loop.
//! Rows carry `max_inflight`, `queue_wait_ns`, `hardening_ns`, and
//! `pipeline_depth` so `prepared_lock_window_ns` decomposes into
//! execute-wait vs. hardening.
//!
//! ```text
//! cargo run --release --bin cluster_tpcc -- [--quick] [--json PATH]
//! ```
//!
//! Also always writes `BENCH_cluster_tpcc.json` next to the working
//! directory so future sessions can diff throughput trajectories.

use serde::Serialize;
use std::sync::Arc;
use tebaldi_bench::common::{banner, fmt_tput, ExperimentOptions};
use tebaldi_cluster::{ClusterConfig, ReadConsistency, ReplicationConfig, TransportKind};
use tebaldi_core::DurabilityMode;
use tebaldi_workloads::tpcc::cluster::ClusterTpcc;
use tebaldi_workloads::tpcc::{
    configs,
    schema::{types as tpcc_types, TpccParams},
    Tpcc,
};
use tebaldi_workloads::ClusterWorkload;

/// One measured row of the scale-out sweep.
#[derive(Clone, Debug, Serialize)]
struct Row {
    shards: usize,
    clients: usize,
    commit_path: &'static str,
    transport: &'static str,
    max_inflight: usize,
    throughput: f64,
    committed: u64,
    aborted: u64,
    abort_rate: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    single_shard_txns: u64,
    multi_shard_txns: u64,
    single_shard_fraction: f64,
    flushes: u64,
    flushes_per_commit: f64,
    prepared_lock_window_ns: u64,
    queue_wait_ns: u64,
    hardening_ns: u64,
    pipeline_depth: u64,
    read_only_votes: u64,
    one_phase_commits: u64,
    coalesced_flushes: u64,
    messages_sent: u64,
    bytes_on_wire: u64,
    /// Peak ship lag any shard's WAL shipper observed, in records
    /// (zero on the unreplicated legs).
    replication_lag: u64,
    /// Bounded-staleness reads served by backups (zero on the
    /// unreplicated legs).
    follower_reads: u64,
    /// Cross-shard reads served on the zero-2PC HLC snapshot path (only
    /// non-zero on the snapshot read-mix leg).
    snapshot_reads: u64,
    /// Nanoseconds snapshot reads spent waiting out overlapping
    /// uncommitted writers.
    snapshot_read_wait_ns: u64,
    /// Batched transactions the DGCC scheduler deferred past wave zero
    /// (zero on the non-batch legs).
    batch_scheduled: u64,
    /// Batched transactions that aborted (zero on the non-batch legs).
    batch_aborts: u64,
}

/// The file every run refreshes for regression tracking.
#[derive(Clone, Debug, Serialize)]
struct Report {
    experiment: &'static str,
    config: &'static str,
    warehouses_per_shard: u32,
    remote_line_pct: f64,
    remote_payment_pct: f64,
    rows: Vec<Row>,
}

fn main() {
    let options = ExperimentOptions::from_args();
    banner(
        "cluster_tpcc",
        "TPC-C scale-out across 1/2/4/8 database shards (2PC, sync WAL, group commit)",
    );

    let shard_counts = [1usize, 2, 4, 8];
    let warehouses_per_shard = 8u32;
    let remote_line_pct = 0.01;
    // TPC-C uses 15% remote paying customers; with every remote customer on
    // another shard that leaves ~89% single-shard overall, so the sweep uses
    // 10% to hold the >=90% single-shard mix the scale-out story assumes.
    let remote_payment_pct = 0.10;
    let clients = if options.quick { 8 } else { 32 };

    println!(
        "{:>7} {:>8} {:>8} {:>10} {:>7} {:>11} {:>9} {:>13} {:>12} {:>6} {:>10}",
        "shards",
        "clients",
        "path",
        "transport",
        "window",
        "tput(tx/s)",
        "abort%",
        "flush/commit",
        "lockwin(us)",
        "depth",
        "msgs"
    );

    // The sweep: the grouped path in process and over TCP/loopback frames
    // (the wire cost column), every leg at one in-flight window.
    let pipeline_window = 32usize;
    let legs: [(&'static str, TransportKind, bool); 3] = [
        ("grouped", TransportKind::InProcess, false),
        ("grouped", TransportKind::Tcp, false),
        // Quorum-replicated leg: one backup per shard, every commit ack
        // gated on the backup's durable ack. Same transport and window as
        // the unreplicated tcp leg, so the replication overhead is the
        // only delta between the two rows.
        ("replicated", TransportKind::Tcp, true),
    ];
    // Short runs on a loaded 1-core box drift hugely run-to-run; report
    // the median of several trials per leg so one lucky (or starved)
    // window cannot skew a comparison (the seats sweep does the same).
    let trials = if options.quick { 1 } else { 3 };
    let mut rows = Vec::new();
    for &shards in &shard_counts {
        for &(commit_path, transport, replicated) in &legs {
            let max_inflight = pipeline_window;
            let transport_label = match transport {
                TransportKind::InProcess => "in-process",
                TransportKind::Tcp => "tcp",
            };
            let mut samples: Vec<Row> = Vec::with_capacity(trials);
            for _ in 0..trials {
                // Scale the database with the cluster: eight warehouses
                // per shard.
                let params = TpccParams {
                    warehouses: warehouses_per_shard * shards as u32,
                    ..TpccParams::default()
                };
                let workload_impl = ClusterTpcc::new(Tpcc::new(params))
                    .with_remote_rates(remote_line_pct, remote_payment_pct);
                let workload: Arc<dyn ClusterWorkload> = Arc::new(workload_impl);
                let mut cluster_config = ClusterConfig::for_benchmarks(shards);
                cluster_config.db_config.durability = DurabilityMode::Synchronous;
                cluster_config.transport = transport;
                cluster_config.max_inflight_per_shard = max_inflight;
                if replicated {
                    cluster_config.replication = Some(ReplicationConfig {
                        replicas: 1,
                        quorum: 1,
                        ack_timeout_ms: 1_000,
                    });
                }
                if options.quick {
                    cluster_config.workers_per_shard = 2;
                }

                let label =
                    format!("{shards}-shard/{commit_path}/{transport_label}/w{max_inflight}");
                let bench = options.bench_options(clients, &label);
                // Build the cluster directly (rather than through
                // bench_cluster_config) so shard-routing counters can be
                // read before shutdown.
                // WAL devices with a realistic write barrier (~an NVMe
                // fsync): group commit is only measurable when a flush
                // takes time.
                let flush_latency = std::time::Duration::from_micros(20);
                let shard_logs: Vec<std::sync::Arc<dyn tebaldi_storage::wal::LogDevice>> = (0
                    ..shards)
                    .map(|_| {
                        std::sync::Arc::new(tebaldi_storage::wal::MemLogDevice::with_flush_latency(
                            flush_latency,
                        )) as _
                    })
                    .collect();
                let decision_log: std::sync::Arc<dyn tebaldi_storage::wal::LogDevice> =
                    std::sync::Arc::new(tebaldi_storage::wal::MemLogDevice::with_flush_latency(
                        flush_latency,
                    ));
                let mut registry = tebaldi_core::ProcRegistry::new();
                workload.register_procedures(&mut registry);
                let cluster = Arc::new(
                    tebaldi_cluster::Cluster::builder(cluster_config)
                        .procedures(workload.procedures())
                        .shard_procedures(registry)
                        .cc_spec(configs::monolithic_ssi())
                        .shard_logs(shard_logs)
                        .decision_log(decision_log)
                        .build()
                        .expect("cluster build"),
                );
                workload.load(&cluster);
                let result = tebaldi_workloads::run_cluster_benchmark(&cluster, &workload, &bench);
                if replicated {
                    // Drain the ship stream through the follower-read
                    // gate: one bounded-staleness read per shard proves
                    // each backup caught up to its primary's full
                    // durable log after the run.
                    for shard in 0..shards {
                        let _ = cluster.follower_read(
                            shard,
                            0,
                            &tebaldi_storage::Key::simple(
                                tebaldi_storage::TableId(0),
                                shard as u64,
                            ),
                            std::time::Duration::from_secs(5),
                        );
                    }
                }
                let stats = cluster.stats();
                let metrics = cluster.metrics();
                cluster.shutdown();

                let routed = stats.single_shard + stats.multi_shard;
                let single_fraction = if routed > 0 {
                    stats.single_shard as f64 / routed as f64
                } else {
                    1.0
                };
                samples.push(Row {
                    shards,
                    clients,
                    commit_path,
                    transport: transport_label,
                    max_inflight,
                    throughput: result.throughput,
                    committed: result.committed,
                    aborted: result.aborted,
                    abort_rate: result.abort_rate(),
                    p50_ms: result.latency_overall.p50_ms,
                    p95_ms: result.latency_overall.p95_ms,
                    p99_ms: result.latency_overall.p99_ms,
                    single_shard_txns: stats.single_shard,
                    multi_shard_txns: stats.multi_shard,
                    single_shard_fraction: single_fraction,
                    flushes: stats.flushes,
                    flushes_per_commit: stats.flushes_per_commit,
                    prepared_lock_window_ns: stats.prepared_lock_window_ns,
                    queue_wait_ns: stats.prepare_queue_wait_ns,
                    hardening_ns: stats.prepare_hardening_ns,
                    pipeline_depth: stats.max_pipeline_depth,
                    read_only_votes: stats.read_only_votes,
                    one_phase_commits: stats.coordinator.one_phase,
                    coalesced_flushes: stats.coalesced_flushes,
                    messages_sent: stats.messages_sent,
                    bytes_on_wire: stats.bytes_on_wire,
                    replication_lag: metrics.gauge("replication.lag_records").unwrap_or(0),
                    follower_reads: stats.follower_reads,
                    snapshot_reads: stats.snapshot_reads,
                    snapshot_read_wait_ns: stats.snapshot_read_wait_ns,
                    batch_scheduled: stats.batch_scheduled,
                    batch_aborts: stats.batch_aborts,
                });
            }
            samples.sort_by(|a, b| a.throughput.total_cmp(&b.throughput));
            let row = samples[samples.len() / 2].clone();
            println!(
                "{:>7} {:>8} {:>8} {:>10} {:>7} {} {:>8.1}% {:>13.2} {:>12.1} {:>6} {:>10}",
                shards,
                clients,
                commit_path,
                transport_label,
                max_inflight,
                fmt_tput(row.throughput),
                row.abort_rate * 100.0,
                row.flushes_per_commit,
                row.prepared_lock_window_ns as f64 / 1_000.0,
                row.pipeline_depth,
                row.messages_sent,
            );
            rows.push(row);
        }
    }

    // Read-mix legs: the same cluster at 4 shards under a read-heavy mix
    // (50% order_status / 30% stock_level, 30% remote status customers),
    // once with reads on the read-only-2PC vote path (Strong) and once on
    // the HLC snapshot path (`ReadConsistency::Snapshot` as the cluster
    // default, which the workload read profiles route through). A snapshot
    // read takes no locks, writes no prepare or decision record, and skips
    // SSI read-set tracking on the wide stock_level scans, so the snapshot
    // leg must win and must carry live `snapshot_reads` counters.
    let read_shards = 4usize;
    let read_remote_pct = 0.30;
    let read_mix = vec![
        (tpcc_types::NEW_ORDER, 10.0),
        (tpcc_types::PAYMENT, 10.0),
        (tpcc_types::ORDER_STATUS, 50.0),
        (tpcc_types::STOCK_LEVEL, 30.0),
    ];
    for snapshot in [false, true] {
        let commit_path: &'static str = if snapshot {
            "read-snapshot"
        } else {
            "read-2pc"
        };
        let mut samples: Vec<Row> = Vec::with_capacity(trials);
        for _ in 0..trials {
            let params = TpccParams {
                warehouses: warehouses_per_shard * read_shards as u32,
                ..TpccParams::default()
            };
            let workload_impl = ClusterTpcc::new(Tpcc::new(params).with_mix(read_mix.clone()))
                .with_remote_rates(remote_line_pct, read_remote_pct);
            let workload: Arc<dyn ClusterWorkload> = Arc::new(workload_impl);
            let mut cluster_config = ClusterConfig::for_benchmarks(read_shards);
            cluster_config.db_config.durability = DurabilityMode::Synchronous;
            cluster_config.max_inflight_per_shard = pipeline_window;
            if snapshot {
                cluster_config.default_read_consistency = ReadConsistency::Snapshot;
            }
            if options.quick {
                cluster_config.workers_per_shard = 2;
            }

            let label = format!("{read_shards}-shard/{commit_path}/in-process/w{pipeline_window}");
            let bench = options.bench_options(clients, &label);
            let flush_latency = std::time::Duration::from_micros(20);
            let shard_logs: Vec<std::sync::Arc<dyn tebaldi_storage::wal::LogDevice>> = (0
                ..read_shards)
                .map(|_| {
                    std::sync::Arc::new(tebaldi_storage::wal::MemLogDevice::with_flush_latency(
                        flush_latency,
                    )) as _
                })
                .collect();
            let decision_log: std::sync::Arc<dyn tebaldi_storage::wal::LogDevice> =
                std::sync::Arc::new(tebaldi_storage::wal::MemLogDevice::with_flush_latency(
                    flush_latency,
                ));
            let mut registry = tebaldi_core::ProcRegistry::new();
            workload.register_procedures(&mut registry);
            let cluster = Arc::new(
                tebaldi_cluster::Cluster::builder(cluster_config)
                    .procedures(workload.procedures())
                    .shard_procedures(registry)
                    .cc_spec(configs::monolithic_ssi())
                    .shard_logs(shard_logs)
                    .decision_log(decision_log)
                    .build()
                    .expect("cluster build"),
            );
            workload.load(&cluster);
            let result = tebaldi_workloads::run_cluster_benchmark(&cluster, &workload, &bench);
            let stats = cluster.stats();
            let metrics = cluster.metrics();
            cluster.shutdown();

            let routed = stats.single_shard + stats.multi_shard;
            let single_fraction = if routed > 0 {
                stats.single_shard as f64 / routed as f64
            } else {
                1.0
            };
            samples.push(Row {
                shards: read_shards,
                clients,
                commit_path,
                transport: "in-process",
                max_inflight: pipeline_window,
                throughput: result.throughput,
                committed: result.committed,
                aborted: result.aborted,
                abort_rate: result.abort_rate(),
                p50_ms: result.latency_overall.p50_ms,
                p95_ms: result.latency_overall.p95_ms,
                p99_ms: result.latency_overall.p99_ms,
                single_shard_txns: stats.single_shard,
                multi_shard_txns: stats.multi_shard,
                single_shard_fraction: single_fraction,
                flushes: stats.flushes,
                flushes_per_commit: stats.flushes_per_commit,
                prepared_lock_window_ns: stats.prepared_lock_window_ns,
                queue_wait_ns: stats.prepare_queue_wait_ns,
                hardening_ns: stats.prepare_hardening_ns,
                pipeline_depth: stats.max_pipeline_depth,
                read_only_votes: stats.read_only_votes,
                one_phase_commits: stats.coordinator.one_phase,
                coalesced_flushes: stats.coalesced_flushes,
                messages_sent: stats.messages_sent,
                bytes_on_wire: stats.bytes_on_wire,
                replication_lag: metrics.gauge("replication.lag_records").unwrap_or(0),
                follower_reads: stats.follower_reads,
                snapshot_reads: stats.snapshot_reads,
                snapshot_read_wait_ns: stats.snapshot_read_wait_ns,
                batch_scheduled: stats.batch_scheduled,
                batch_aborts: stats.batch_aborts,
            });
        }
        samples.sort_by(|a, b| a.throughput.total_cmp(&b.throughput));
        let row = samples[samples.len() / 2].clone();
        println!(
            "read-mix leg ({commit_path}): {} at {read_shards} shards, {:.1}% aborts, {} snapshot reads, snapshot wait {:.1}us",
            fmt_tput(row.throughput),
            row.abort_rate * 100.0,
            row.snapshot_reads,
            row.snapshot_read_wait_ns as f64 / 1_000.0,
        );
        rows.push(row);
    }

    // DGCC batch-scheduling leg: the same contended cross-shard batch
    // sequence, once undeclared (wave-zero race, CC aborts resolve the
    // conflicts) and once with declared write sets (conflicting
    // transactions defer into later waves). Abort rate must drop at
    // equal-or-better throughput.
    let batch_shards = if options.quick { 2 } else { 4 };
    let (batch_rounds, batch_size) = if options.quick {
        (15u64, 16u64)
    } else {
        (50, 16)
    };
    let mut batch_rows = Vec::new();
    for declared in [false, true] {
        let leg = tebaldi_bench::batch::run_leg(batch_shards, batch_rounds, batch_size, declared);
        let commit_path: &'static str = if declared {
            "batch-declared"
        } else {
            "batch-undeclared"
        };
        println!(
            "batch leg ({commit_path}): {} committed, {} aborted ({:.1}%), {} scheduled, {}",
            leg.committed,
            leg.aborted,
            leg.abort_rate() * 100.0,
            leg.scheduled,
            fmt_tput(leg.throughput),
        );
        batch_rows.push(Row {
            shards: batch_shards,
            clients: 1,
            commit_path,
            transport: "in-process",
            max_inflight: 32,
            throughput: leg.throughput,
            committed: leg.committed,
            aborted: leg.aborted,
            abort_rate: leg.abort_rate(),
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
            single_shard_txns: 0,
            multi_shard_txns: leg.attempted,
            single_shard_fraction: 0.0,
            flushes: 0,
            flushes_per_commit: 0.0,
            prepared_lock_window_ns: 0,
            queue_wait_ns: 0,
            hardening_ns: 0,
            pipeline_depth: 0,
            read_only_votes: 0,
            one_phase_commits: 0,
            coalesced_flushes: 0,
            messages_sent: 0,
            bytes_on_wire: 0,
            replication_lag: 0,
            follower_reads: 0,
            snapshot_reads: 0,
            snapshot_read_wait_ns: 0,
            batch_scheduled: leg.scheduled,
            batch_aborts: leg.aborted,
        });
    }
    rows.extend(batch_rows);

    let report = Report {
        experiment: "cluster_tpcc",
        config: "monolithic SSI per shard, modulo warehouse partitioning, sync WAL",
        warehouses_per_shard,
        remote_line_pct,
        remote_payment_pct,
        rows,
    };
    // Always refresh the trajectory file; --json adds a custom copy.
    tebaldi_bench::common::write_trajectory("cluster_tpcc", &report);
    options.maybe_write_json(&report);

    // Scale-out sanity check: more shards must not be slower than one shard
    // on this mix (grouped path, in-process legs).
    let grouped_tputs: Vec<f64> = report
        .rows
        .iter()
        .filter(|r| r.commit_path == "grouped" && r.transport == "in-process")
        .map(|r| r.throughput)
        .collect();
    if let (Some(&first), Some(best)) = (
        grouped_tputs.first(),
        grouped_tputs
            .iter()
            .copied()
            .fold(None::<f64>, |acc, v| Some(acc.map_or(v, |a| a.max(v)))),
    ) {
        println!(
            "scale-out: best {} vs 1-shard {} ({:+.1}%)",
            fmt_tput(best),
            fmt_tput(first),
            (best / first - 1.0) * 100.0
        );
    }

    // Transport cost at 4 shards on the grouped path, and where each
    // transport's prepare latency lives (queue-wait vs. hardening).
    let grouped_at = |transport: &str| {
        report
            .rows
            .iter()
            .find(|r| r.shards == 4 && r.commit_path == "grouped" && r.transport == transport)
    };
    if let (Some(inproc), Some(tcp)) = (grouped_at("in-process"), grouped_at("tcp")) {
        println!(
            "transport at 4 shards: {} in-process vs {} tcp ({:.0}% of fast path; {} msgs, {} bytes on wire)",
            fmt_tput(inproc.throughput),
            fmt_tput(tcp.throughput),
            tcp.throughput / inproc.throughput * 100.0,
            tcp.messages_sent,
            tcp.bytes_on_wire,
        );
        for row in [inproc, tcp] {
            println!(
                "pipeline at 4 shards ({}): depth {}, queue-wait {:.1}us, hardening {:.1}us",
                row.transport,
                row.pipeline_depth,
                row.queue_wait_ns as f64 / 1_000.0,
                row.hardening_ns as f64 / 1_000.0,
            );
        }
    }

    // Replication cost at 4 shards: the quorum-gated leg vs. the same
    // transport/window without a backup. The acceptance bound is 2x.
    let replicated_at_4 = report
        .rows
        .iter()
        .find(|r| r.shards == 4 && r.commit_path == "replicated");
    if let (Some(plain), Some(replicated)) = (grouped_at("tcp"), replicated_at_4) {
        println!(
            "replication at 4 shards: {} unreplicated vs {} quorum-gated ({:.0}% of unreplicated; \
             peak ship lag {} records, {} follower reads)",
            fmt_tput(plain.throughput),
            fmt_tput(replicated.throughput),
            replicated.throughput / plain.throughput * 100.0,
            replicated.replication_lag,
            replicated.follower_reads,
        );
        if replicated.throughput * 2.0 < plain.throughput {
            println!(
                "WARNING: quorum-gated throughput below half the unreplicated tcp leg at 4 shards"
            );
        }
    }

    // Snapshot-read acceptance at 4 shards: on the read-heavy mix the
    // zero-2PC HLC snapshot path must beat the read-only-2PC vote path,
    // and the snapshot counters must be live (proof the workload read
    // profiles actually routed through `ReadConsistency::Snapshot`).
    let read_leg = |path: &str| report.rows.iter().find(|r| r.commit_path == path);
    if let (Some(vote), Some(snap)) = (read_leg("read-2pc"), read_leg("read-snapshot")) {
        println!(
            "read mix at {read_shards} shards: {} read-only-2PC vs {} snapshot ({:+.1}%); \
             {} snapshot reads, wait {:.1}us",
            fmt_tput(vote.throughput),
            fmt_tput(snap.throughput),
            (snap.throughput / vote.throughput - 1.0) * 100.0,
            snap.snapshot_reads,
            snap.snapshot_read_wait_ns as f64 / 1_000.0,
        );
        if snap.snapshot_reads == 0 {
            println!("WARNING: snapshot read-mix leg served zero snapshot reads");
        }
        if snap.throughput <= vote.throughput {
            println!(
                "WARNING: snapshot reads did not beat the read-only-2PC path at {read_shards} shards"
            );
        }
    }
}
