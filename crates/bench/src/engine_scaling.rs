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
//! Units are counted when they *start* inside the window (a closed loop
//! that only counts commits hides a stall as a missing row). NoCC loses
//! updates with more than one thread by design; it is here as a floor for
//! the store, not as a correct system.
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

use crate::common::{print_table, process_cpu_ms, Options, Provenance, Report};
use crate::row;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tebaldi_cc::{CcKind, CcTreeSpec};
use tebaldi_core::{Database, DbConfig};
use tebaldi_storage::IndexStats;
use tebaldi_workloads::tpcc::schema::{self, TpccParams};
use tebaldi_workloads::tpcc::Tpcc;
use tebaldi_workloads::Workload;

const WAREHOUSES: u32 = 4;
const THREADS: [usize; 3] = [1, 2, 4];
const DECAY_THREADS: usize = 2;

/// What one cell measured.
#[derive(Default)]
pub struct Cell {
    started: u64,
    committed: u64,
    aborted_attempts: u64,
    seconds: f64,
    cpu_ms: f64,
    /// Units started in each of the equal slices the window was cut into.
    started_by_slice: Vec<u64>,
    /// The store's directory when the clients stopped.
    index: IndexStats,
}

impl Cell {
    /// Units started per second.
    fn throughput(&self) -> f64 {
        self.started as f64 / self.seconds.max(1e-9)
    }
}

/// One client's running count of units started inside the window, alone on
/// its cache lines: the client stores it, the main thread samples it at
/// slice boundaries.
#[repr(align(128))]
#[derive(Default)]
struct Started(AtomicU64);

/// One fresh database, loaded, then `threads` closed-loop clients; the
/// window is cut into `slices` equal parts.
fn run_cell(
    kind: CcKind,
    threads: usize,
    seed: u64,
    warmup: Duration,
    window: Duration,
    slices: u32,
) -> Cell {
    let params = TpccParams {
        warehouses: WAREHOUSES,
        ..TpccParams::default()
    };
    let workload = Tpcc::new(params);
    let db = Database::builder(DbConfig::for_benchmarks())
        .procedures(workload.procedures())
        .cc_spec(CcTreeSpec::monolithic(kind, schema::standard_types()))
        .build()
        .expect("database build");
    workload.load(&db);

    let stop = AtomicBool::new(false);
    let measuring = AtomicBool::new(false);
    let started: Vec<Started> = (0..threads).map(|_| Started::default()).collect();
    let (committed, aborted) = (AtomicU64::new(0), AtomicU64::new(0));
    let (seconds, cpu_ms, started_by_slice) = std::thread::scope(|scope| {
        for (client, mine_started) in started.iter().enumerate() {
            let (db, workload) = (&db, &workload);
            let (stop, measuring) = (&stop, &measuring);
            let (committed, aborted) = (&committed, &aborted);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed + client as u64);
                let (mut units, mut mine_committed, mut mine_aborted) = (0u64, 0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    let in_window = measuring.load(Ordering::Relaxed);
                    let unit = workload.run_once(db, &mut rng);
                    if in_window {
                        units += 1;
                        mine_started.0.store(units, Ordering::Relaxed);
                        mine_committed += unit.committed as u64;
                        mine_aborted += unit.aborts as u64;
                    }
                }
                committed.fetch_add(mine_committed, Ordering::Relaxed);
                aborted.fetch_add(mine_aborted, Ordering::Relaxed);
            });
        }
        std::thread::sleep(warmup);
        let cpu_before = process_cpu_ms();
        measuring.store(true, Ordering::Relaxed);
        let opened = Instant::now();
        let mut so_far = 0;
        let started_by_slice: Vec<u64> = (1..=slices)
            .map(|slice| {
                std::thread::sleep((window * slice / slices).saturating_sub(opened.elapsed()));
                if slice == slices {
                    measuring.store(false, Ordering::Relaxed);
                }
                let before = so_far;
                so_far = started.iter().map(|s| s.0.load(Ordering::Relaxed)).sum();
                so_far - before
            })
            .collect();
        let seconds = opened.elapsed().as_secs_f64();
        let cpu_ms = process_cpu_ms() - cpu_before;
        stop.store(true, Ordering::Relaxed);
        (seconds, cpu_ms, started_by_slice)
    });
    let index = db.store().index_stats();
    db.shutdown();
    Cell {
        // A unit that was in flight when the window closed is counted by
        // its client after the last sample.
        started: started.iter().map(|s| s.0.load(Ordering::Relaxed)).sum(),
        committed: committed.into_inner(),
        aborted_attempts: aborted.into_inner(),
        seconds,
        cpu_ms,
        started_by_slice,
        index,
    }
}

/// A scaling cell's row. `clients` and `throughput` are the column names
/// `bench_diff` matches and compares rows by.
pub fn cell_row(system: &str, clients: usize, cell: &Cell, one_thread: f64) -> Json {
    row![
        "system" => system,
        "clients" => clients,
        "started" => cell.started,
        "committed" => cell.committed,
        "aborted_attempts" => cell.aborted_attempts,
        "throughput" => cell.throughput(),
        "cpu_ms_per_txn" => cell.cpu_ms / cell.started.max(1) as f64,
        "ratio_to_one_thread" => cell.throughput() / one_thread,
    ]
}

/// The decay leg's row (same identity columns as [`cell_row`], so
/// `bench_diff` tracks its throughput too).
pub fn decay_row(cell: &Cell) -> Json {
    let first = cell.started_by_slice.first().copied().unwrap_or(0);
    let last = cell.started_by_slice.last().copied().unwrap_or(0);
    let index = &cell.index;
    row![
        "system" => "Monolithic SSI, decay leg",
        "clients" => DECAY_THREADS,
        "seconds" => cell.seconds,
        "started" => cell.started,
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
            let cell = run_cell(kind, threads, seed, warmup, window, 1);
            if threads == 1 {
                one_thread = cell.throughput();
            }
            rows.push(cell_row(system, threads, &cell, one_thread));
        }
    }
    print_table(&rows, &[]);
    let decay_window = Duration::from_secs(options.pick(6, 60));
    let decay = run_cell(CcKind::Ssi, DECAY_THREADS, seed, warmup, decay_window, 6);
    rows.push(decay_row(&decay));
    print_table(&rows[rows.len() - 1..], &[]);
    Report {
        provenance,
        meta: Vec::new(),
        rows,
    }
}
