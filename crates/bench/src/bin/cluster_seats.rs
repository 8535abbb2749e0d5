//! Cluster scale-out experiment: SEATS throughput at 1/2/4/8 shards.
//!
//! The second workload on the cluster, and the one with the opposite
//! contention shape to TPC-C: a small number of hot flight rows absorb most
//! of the write traffic, so adding shards helps twice — it spreads the
//! single-shard work *and* multiplies the number of flights (the hot set)
//! the cluster hosts. Flights (and their reservation rows) are partitioned
//! by flight id; customers live on their own home shards, so a reservation
//! for a customer of another shard decomposes into a flight part plus a
//! customer part under two-phase commit. The remote-customer rate keeps
//! ~90% of the reservation mix single-shard, mirroring the TPC-C sweep.
//!
//! Each shard runs monolithic SSI for the same reason `cluster_tpcc` does:
//! a prepared-but-undecided 2PC participant blocks no readers while it
//! waits for the decision.
//!
//! ```text
//! cargo run --release --bin cluster_seats -- [--quick] [--json PATH]
//! ```
//!
//! Always rewrites `BENCH_cluster_seats.json` for regression tracking.

use serde::Serialize;
use std::sync::Arc;
use tebaldi_bench::common::{banner, fmt_tput, write_trajectory, ExperimentOptions};
use tebaldi_cluster::{ClusterConfig, TransportKind};
use tebaldi_core::DurabilityMode;
use tebaldi_workloads::seats::cluster::ClusterSeats;
use tebaldi_workloads::seats::{configs, Seats, SeatsParams};
use tebaldi_workloads::ClusterWorkload;

/// One measured row of the scale-out sweep.
#[derive(Clone, Debug, Serialize)]
struct Row {
    shards: usize,
    clients: usize,
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
    /// Peak ship lag any shard's WAL shipper observed, in records (this
    /// sweep carries no replicated leg, so always zero here; the column
    /// keeps the cluster trajectory schema uniform).
    replication_lag: u64,
    /// Bounded-staleness reads served by backups (zero: see above).
    follower_reads: u64,
    /// Zero-2PC HLC snapshot reads (this sweep keeps reads on the vote
    /// path, so always zero here; the column keeps the schema uniform).
    snapshot_reads: u64,
    /// Nanoseconds snapshot reads spent waiting out in-flight writers
    /// (zero: see above).
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
    flights_per_shard: u32,
    seats_per_flight: u32,
    customers_per_shard: u32,
    remote_customer_pct: f64,
    rows: Vec<Row>,
}

fn main() {
    let options = ExperimentOptions::from_args();
    banner(
        "cluster_seats",
        "SEATS scale-out across 1/2/4/8 database shards (2PC for cross-shard)",
    );

    let shard_counts = [1usize, 2, 4, 8];
    // Scale the hot set with the cluster: each shard owns its own small
    // pool of contended flights, as each TPC-C shard owns its warehouses.
    // Few flights per shard keeps the paper's hot-flight contention shape —
    // the single-shard configuration is contention-bound, which is exactly
    // what sharding the flight space relieves.
    let flights_per_shard = 12u32;
    let seats_per_flight = if options.quick { 500 } else { 2_000 };
    let customers_per_shard = 1_000u32;
    let remote_customer_pct = 0.05;
    let clients = if options.quick { 8 } else { 32 };

    println!(
        "{:>7} {:>8} {:>10} {:>7} {:>11} {:>11} {:>10} {:>12} {:>13}",
        "shards",
        "clients",
        "transport",
        "window",
        "tput(tx/s)",
        "aborts",
        "abort%",
        "single-shard",
        "flush/commit"
    );

    // Short runs on a loaded box are noisy; report the median of several
    // trials per shard count so a single lucky (or starved) window cannot
    // skew the scale-out curve.
    let trials = if options.quick { 1 } else { 5 };
    // The tcp legs get fewer (but still >1) trials: the wire cost column
    // needs stability too, at a smaller share of the total runtime.
    let tcp_trials = if options.quick { 1 } else { 3 };
    let pipeline_window = 32usize;

    let mut rows = Vec::new();
    for &shards in &shard_counts {
        let params = SeatsParams {
            flights: flights_per_shard * shards as u32,
            seats_per_flight,
            customers: customers_per_shard * shards as u32,
            open_seat_probes: if options.quick { 10 } else { 30 },
        };
        // The transport sweep: the median-of-trials in-process curve plus
        // a TCP/loopback leg (wire-cost tracking), both at one in-flight
        // window.
        let max_inflight = pipeline_window;
        for (transport_label, transport, leg_trials) in [
            ("in-process", TransportKind::InProcess, trials),
            ("tcp", TransportKind::Tcp, tcp_trials),
        ] {
            let mut samples: Vec<Row> = Vec::with_capacity(leg_trials);
            for _ in 0..leg_trials {
                let workload_impl =
                    ClusterSeats::new(Seats::new(params)).with_remote_rate(remote_customer_pct);
                let workload: Arc<dyn ClusterWorkload> = Arc::new(workload_impl);
                let mut cluster_config = ClusterConfig::for_benchmarks(shards);
                // Durability ON: the sweep tracks the commit-path cost
                // (flushes per commit, prepared-lock window) alongside
                // throughput.
                cluster_config.db_config.durability = DurabilityMode::Synchronous;
                cluster_config.transport = transport;
                cluster_config.max_inflight_per_shard = max_inflight;
                if options.quick {
                    cluster_config.workers_per_shard = 2;
                }

                let label = format!("{shards}-shard/{transport_label}/w{max_inflight}");
                let bench = options.bench_options(clients, &label);
                // Build the cluster directly (rather than through
                // bench_cluster_config) so shard-routing counters can be read
                // before shutdown.
                // WAL devices with a realistic write barrier (~an NVMe fsync):
                // group commit is only measurable when a flush takes time.
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
                let stats = cluster.stats();
                cluster.shutdown();

                let routed = stats.single_shard + stats.multi_shard;
                let single_fraction = if routed > 0 {
                    stats.single_shard as f64 / routed as f64
                } else {
                    1.0
                };
                let row = Row {
                    shards,
                    clients,
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
                    replication_lag: 0,
                    follower_reads: stats.follower_reads,
                    snapshot_reads: stats.snapshot_reads,
                    snapshot_read_wait_ns: stats.snapshot_read_wait_ns,
                    batch_scheduled: stats.batch_scheduled,
                    batch_aborts: stats.batch_aborts,
                };
                samples.push(row);
            }
            samples.sort_by(|a, b| a.throughput.total_cmp(&b.throughput));
            let row = samples[samples.len() / 2].clone();
            println!(
                "{:>7} {:>8} {:>10} {:>7} {} {:>11} {:>9.1}% {:>11.1}% {:>13.2}",
                shards,
                clients,
                transport_label,
                max_inflight,
                fmt_tput(row.throughput),
                row.aborted,
                row.abort_rate * 100.0,
                row.single_shard_fraction * 100.0,
                row.flushes_per_commit,
            );
            rows.push(row);
        }
    }

    // DGCC batch-scheduling leg (shared micro-experiment): undeclared
    // wave-zero race vs declared dependency-graph waves over the same
    // contended batch sequence.
    let batch_shards = if options.quick { 2 } else { 4 };
    let (batch_rounds, batch_size) = if options.quick {
        (15u64, 16u64)
    } else {
        (50, 16)
    };
    for declared in [false, true] {
        let leg = tebaldi_bench::batch::run_leg(batch_shards, batch_rounds, batch_size, declared);
        println!(
            "batch leg ({}): {} committed, {} aborted ({:.1}%), {} scheduled, {}",
            if declared { "declared" } else { "undeclared" },
            leg.committed,
            leg.aborted,
            leg.abort_rate() * 100.0,
            leg.scheduled,
            fmt_tput(leg.throughput),
        );
        rows.push(Row {
            shards: batch_shards,
            clients: 1,
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

    let report = Report {
        experiment: "cluster_seats",
        config: "monolithic SSI per shard, flight/customer partitioning, sync WAL",
        flights_per_shard,
        seats_per_flight,
        customers_per_shard,
        remote_customer_pct,
        rows,
    };
    write_trajectory("cluster_seats", &report);
    options.maybe_write_json(&report);

    // Scale-out sanity check mirrored by the acceptance criteria: four
    // shards must clearly beat one shard on this mix (in-process legs).
    let in_process_at = |shards: usize| {
        report
            .rows
            .iter()
            .find(|r| r.shards == shards && r.transport == "in-process")
    };
    if let (Some(first), Some(four)) = (in_process_at(1), in_process_at(4)) {
        println!(
            "scale-out: 4-shard {} vs 1-shard {} ({:.2}x); pipeline depth at 4 shards {}",
            fmt_tput(four.throughput),
            fmt_tput(first.throughput),
            four.throughput / first.throughput,
            four.pipeline_depth,
        );
    }
}
