//! The leg loop: one fresh single-node database per leg, closed-loop
//! clients, one row per leg.
//!
//! A leg is its identity columns, a workload factory, a CC spec, a
//! [`DbConfig`] and a client count. [`run_legs`] runs each through
//! `bench_config` and builds its row from the labels plus the experiment's
//! measured [`Col`]umns.

use crate::common::{fmt_tput, print_table, Options};
use serde::{Json, Serialize};
use std::sync::Arc;
use tebaldi_cc::{CcTreeSpec, VecSink};
use tebaldi_core::{Database, DbConfig};
use tebaldi_obs::MetricsRegistry;
use tebaldi_workloads::{bench_config, BenchResult, Workload};

/// Makes a fresh workload instance, so no leg inherits another's state.
pub type Make<W> = Arc<dyn Fn() -> Arc<W> + Send + Sync>;

/// A measured column of a leg's row, after its labels.
#[derive(Clone, Copy, Debug)]
pub enum Col {
    /// `clients`: the leg's client count.
    Clients,
    /// `throughput`: committed transactions per second.
    Throughput,
    /// `abort_rate`: aborted attempts over all attempts.
    AbortRate,
    /// `p99_latency_ms`: 99th percentile latency over every commit.
    P99LatencyMs,
}

/// One single-node run.
pub struct Leg {
    /// Identity columns of the row, e.g. `[("config", "Monolithic 2PL")]`.
    pub labels: Vec<(&'static str, String)>,
    /// The workload, made fresh for the run.
    pub workload: Make<dyn Workload>,
    /// The CC tree under test.
    pub spec: CcTreeSpec,
    /// The engine configuration.
    pub db_config: DbConfig,
    /// Closed-loop clients.
    pub clients: usize,
}

impl Leg {
    /// A leg with one label column and the benchmark engine configuration.
    pub fn new(
        key: &'static str,
        label: &str,
        workload: &Make<dyn Workload>,
        spec: CcTreeSpec,
        clients: usize,
    ) -> Self {
        Leg {
            labels: vec![(key, label.to_string())],
            workload: Arc::clone(workload),
            spec,
            db_config: DbConfig::for_benchmarks(),
            clients,
        }
    }

    fn label(&self) -> String {
        let values: Vec<&str> = self.labels.iter().map(|(_, v)| v.as_str()).collect();
        values.join("/")
    }
}

/// A fresh database for `workload` under `spec`, with the given
/// blocking-event sink and metrics registry, loaded.
pub fn live_db(
    workload: &dyn Workload,
    spec: CcTreeSpec,
    events: Arc<VecSink>,
    metrics: Arc<MetricsRegistry>,
) -> Arc<Database> {
    let db = Database::builder(DbConfig::for_benchmarks())
        .procedures(workload.procedures())
        .cc_spec(spec)
        .events(events)
        .metrics(metrics)
        .build()
        .expect("database build");
    workload.load(&db);
    Arc::new(db)
}

/// Runs one leg on a fresh, loaded database.
pub fn run_leg(options: &Options, leg: &Leg) -> BenchResult {
    bench_config(
        &(leg.workload)(),
        leg.spec.clone(),
        leg.db_config.clone(),
        &options.bench_options(leg.clients, &leg.label()),
    )
}

/// The row of one leg: its labels, then `cols`.
pub fn leg_row(leg: &Leg, cols: &[Col], result: &BenchResult) -> Json {
    let labels = leg.labels.iter().map(|(k, v)| (k.to_string(), v.to_json()));
    let measured = cols.iter().map(|col| match col {
        Col::Clients => ("clients".to_string(), leg.clients.to_json()),
        Col::Throughput => ("throughput".to_string(), result.throughput.to_json()),
        Col::AbortRate => ("abort_rate".to_string(), result.abort_rate().to_json()),
        Col::P99LatencyMs => (
            "p99_latency_ms".to_string(),
            result.latency_overall.p99_ms.to_json(),
        ),
    });
    Json::Obj(labels.chain(measured).collect())
}

/// Runs every leg in order and returns their rows. Legs that share their
/// first label print as one line of throughput cells as they finish (a
/// client sweep, or Fig. 4.10's mechanisms); otherwise the rows print as a
/// table at the end.
pub fn run_legs(options: &Options, legs: &[Leg], cols: &[Col]) -> Vec<Json> {
    fn first(leg: &Leg) -> &str {
        &leg.labels[0].1
    }
    let grid = legs
        .windows(2)
        .any(|pair| first(&pair[0]) == first(&pair[1]));
    let width = legs.iter().map(|leg| first(leg).len()).max().unwrap_or(0) + 2;
    if grid {
        // A cell is named by the labels after the first, or else by its
        // client count.
        let cells: String = legs
            .iter()
            .take_while(|leg| first(leg) == first(&legs[0]))
            .map(|leg| match leg.labels.get(1) {
                Some((_, name)) => format!("{name:>12}"),
                None => format!("{:>12}", leg.clients),
            })
            .collect();
        println!("{:<width$}{cells}", legs[0].labels[0].0);
    }
    let mut line = String::new();
    let rows: Vec<Json> = legs
        .iter()
        .enumerate()
        .map(|(i, leg)| {
            let result = run_leg(options, leg);
            if grid {
                if line.is_empty() {
                    line = format!("{:<width$}", first(leg));
                }
                line += &format!("  {}", fmt_tput(result.throughput));
                if legs.get(i + 1).is_none_or(|next| first(next) != first(leg)) {
                    println!("{line}");
                    line.clear();
                }
            }
            leg_row(leg, cols, &result)
        })
        .collect();
    if grid {
        println!("(cells are committed transactions per second)");
    } else {
        print_table(&rows, &[]);
    }
    rows
}
