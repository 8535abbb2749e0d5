//! Automatic MCC configuration in action.
//!
//! Starts a TPC-C database from the generic initial configuration
//! (read-only transactions split off by SSI, all updates under one 2PL
//! group), then lets the automatic configurator profile the workload,
//! propose rewrites, and adopt the ones that improve throughput — a
//! miniature of Chapter 5's evaluation.
//!
//! Run with `cargo run --release --example auto_configuration`.

use std::sync::Arc;
use std::time::Duration;
use tebaldi_suite::autoconf::{run_auto_configuration, AutoConfOptions};
use tebaldi_suite::cc::VecSink;
use tebaldi_suite::core::{Database, DbConfig};
use tebaldi_suite::workloads::tpcc::{configs, schema::TpccParams, Tpcc};
use tebaldi_suite::workloads::{run_benchmark, BenchOptions, Workload};

fn main() {
    let params = TpccParams::default();
    let workload = Arc::new(Tpcc::new(params));
    let collector = Arc::new(VecSink::new());
    let db = Arc::new(
        Database::builder(DbConfig::for_benchmarks())
            .procedures(workload.procedures())
            .cc_spec(configs::autoconf_initial())
            .events(collector.clone())
            .build()
            .expect("database build"),
    );
    workload.load(&db);
    println!("initial configuration:\n{}", db.current_spec().describe());

    let workload_dyn: Arc<dyn Workload> = workload;
    let load_workload = Arc::clone(&workload_dyn);
    let load = move |db: &Arc<Database>, duration: Duration| {
        let options = BenchOptions {
            clients: 16,
            duration,
            warmup: Duration::from_millis(200),
            seed: 3,
            config_label: "autoconf".to_string(),
        };
        run_benchmark(db, &load_workload, &options).throughput
    };

    let options = AutoConfOptions {
        max_iterations: 4,
        test_duration: Duration::from_millis(1_200),
        ..AutoConfOptions::default()
    };
    let report = run_auto_configuration(&db, &collector, &load, &options);

    println!(
        "\ninitial throughput: {:.0} txn/s",
        report.initial_throughput
    );
    for record in &report.iterations {
        println!(
            "iteration {}: bottleneck {:?}, tested {} candidates, best {:.0} txn/s, adopted: {}",
            record.iteration,
            record.bottleneck,
            record.candidates_tested,
            record.best_throughput,
            record.adopted
        );
    }
    println!(
        "final throughput: {:.0} txn/s ({:.2}x)",
        report.final_throughput,
        report.speedup()
    );
    println!("\nfinal configuration:\n{}", db.current_spec().describe());
    db.shutdown();
}
