//! Engine scaling probe — does a second client add throughput?
//!
//! The paper counts the framework's cost per operation and then scales
//! clients (§4.6, Table 4.1, Fig. 4.7). This probe runs the TPC-C standard
//! mix on one in-process [`Database`] (4 warehouses,
//! `DbConfig::for_benchmarks()`, no durability, no cluster) under
//! monolithic SSI and under NoCC — the store and the engine shell alone —
//! with 1, 2 and 4 closed-loop threads, and reports for each cell the
//! units *started* per second, the process CPU per unit and the ratio to
//! the one-thread cell of the same system. A ratio below 1 at two threads
//! means the engine serializes on shared state; the ceiling is the
//! machine's core count, printed with the rows.
//!
//! The clients are the shared driver's ([`run_benchmark`]): a unit counts
//! when it *starts* inside the window. NoCC loses updates with more than
//! one thread by design; it is here as a floor for the store, not as a
//! correct system.
//!
//! One more cell asks whether the engine is as fast late as it is early:
//! the **decay leg** runs SSI at 2 threads for 60 s on one database — TPC-C
//! inserts about six keys per unit, so the store ends several times larger
//! than it began — and reports the units started in the first and in the
//! last sixth of the window, their ratio, and what the store's directory
//! looks like at the end (keys, slots, load factor, doublings, longest
//! probe, longest rebuild). The counts are gated in CI; the timing is not.
//!
//! `--quick` shrinks each cell to 0.4 s (the decay leg to 6 s);
//! `--seconds S` and `--seed N` override the defaults (`--seconds` leaves
//! the decay leg alone).

use crate::common::{print_table, Options, Provenance, Report};
use crate::row;
use serde::Json;
use std::sync::Arc;
use std::time::Duration;
use tebaldi_cc::{CcKind, CcTreeSpec};
use tebaldi_core::{Database, DbConfig};
use tebaldi_storage::IndexStats;
use tebaldi_workloads::tpcc::schema::{self, TpccParams};
use tebaldi_workloads::tpcc::Tpcc;
use tebaldi_workloads::{run_benchmark, BenchOptions, BenchResult, Workload};

const WAREHOUSES: u32 = 4;
const THREADS: [usize; 3] = [1, 2, 4];
const DECAY_THREADS: usize = 2;

/// What one cell measured: the driver's result and the store's directory
/// when the clients stopped.
#[derive(Default)]
pub struct Cell {
    result: BenchResult,
    index: IndexStats,
}

impl Cell {
    /// Units started per second.
    fn throughput(&self) -> f64 {
        self.result.started as f64 / self.result.duration_s.max(1e-9)
    }
}

/// One fresh database, loaded, then `threads` closed-loop clients for
/// `window`.
fn run_cell(kind: CcKind, threads: usize, seed: u64, warmup: Duration, window: Duration) -> Cell {
    let params = TpccParams {
        warehouses: WAREHOUSES,
        ..TpccParams::default()
    };
    let workload: Arc<dyn Workload> = Arc::new(Tpcc::new(params));
    let db = Arc::new(
        Database::builder(DbConfig::for_benchmarks())
            .procedures(workload.procedures())
            .cc_spec(CcTreeSpec::monolithic(kind, schema::standard_types()))
            .build()
            .expect("database build"),
    );
    workload.load(&db);
    let options = BenchOptions {
        clients: threads,
        duration: window,
        warmup,
        seed,
        config_label: String::new(),
    };
    let result = run_benchmark(&db, &workload, &options);
    let index = db.store().index_stats();
    db.shutdown();
    Cell { result, index }
}

/// A scaling cell's row. `clients` and `throughput` are the column names
/// `bench_diff` matches and compares rows by.
pub fn cell_row(system: &str, clients: usize, cell: &Cell, one_thread: f64) -> Json {
    row![
        "system" => system,
        "clients" => clients,
        "started" => cell.result.started,
        "committed" => cell.result.committed,
        "aborted_attempts" => cell.result.aborted,
        "throughput" => cell.throughput(),
        "cpu_ms_per_txn" => cell.result.cpu_ms / cell.result.started.max(1) as f64,
        "ratio_to_one_thread" => cell.throughput() / one_thread,
    ]
}

/// The decay leg's row (same identity columns as [`cell_row`], so
/// `bench_diff` tracks its throughput too).
pub fn decay_row(cell: &Cell) -> Json {
    let sixths = &cell.result.started_by_sixth;
    let first = sixths.first().copied().unwrap_or(0);
    let last = sixths.last().copied().unwrap_or(0);
    let index = &cell.index;
    row![
        "system" => "Monolithic SSI, decay leg",
        "clients" => DECAY_THREADS,
        "seconds" => cell.result.duration_s,
        "started" => cell.result.started,
        "throughput" => cell.throughput(),
        "started_first_sixth" => first,
        "started_last_sixth" => last,
        // 1.0 is no decay.
        "last_to_first" => last as f64 / first.max(1) as f64,
        "keys" => index.keys,
        "index_slots" => index.slots,
        // The directory's limit is 0.5.
        "load_factor" => index.keys as f64 / index.slots.max(1) as f64,
        "index_grows" => index.grows,
        "index_probe_max" => index.probe_max,
        "index_grow_us_max" => index.grow_us_max,
    ]
}

/// The rows the probe's builders make from empty cells.
pub fn probe() -> Vec<Json> {
    vec![
        cell_row("", 1, &Cell::default(), 1.0),
        decay_row(&Cell::default()),
    ]
}

/// Runs the scaling cells and the decay leg.
pub fn run(options: &Options) -> Report {
    let seconds = options.seconds.unwrap_or(options.pick(0.4, 5.0));
    let seed = options.seed.unwrap_or(42);
    let warmup = Duration::from_secs_f64(options.pick(0.1, 1.0));
    let provenance = Provenance::new(options, seconds, warmup, seed);
    println!(
        "{} cores, commit {}, {} s per cell, seed {}",
        provenance.nproc, provenance.commit, seconds, seed
    );

    let mut rows = Vec::new();
    for (system, kind) in [("Monolithic SSI", CcKind::Ssi), ("NoCC", CcKind::NoCc)] {
        let mut one_thread = f64::NAN;
        for threads in THREADS {
            let window = Duration::from_secs_f64(seconds);
            let cell = run_cell(kind, threads, seed, warmup, window);
            if threads == 1 {
                one_thread = cell.throughput();
            }
            rows.push(cell_row(system, threads, &cell, one_thread));
        }
    }
    print_table(&rows, &[]);
    let decay_window = Duration::from_secs(options.pick(6, 60));
    let decay = run_cell(CcKind::Ssi, DECAY_THREADS, seed, warmup, decay_window);
    rows.push(decay_row(&decay));
    print_table(&rows[rows.len() - 1..], &[]);
    Report {
        provenance,
        meta: Vec::new(),
        rows,
    }
}
