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
//! the decay leg alone); `--json PATH` writes the report there instead of
//! `BENCH_engine_scaling.json` in the working directory.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Json, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tebaldi_bench::common::{banner, fmt_tput, write_trajectory, ExperimentOptions};
use tebaldi_cc::{CcKind, CcTreeSpec};
use tebaldi_core::{Database, DbConfig};
use tebaldi_storage::IndexStats;
use tebaldi_workloads::tpcc::schema::{self, TpccParams};
use tebaldi_workloads::tpcc::Tpcc;
use tebaldi_workloads::Workload;

const WAREHOUSES: u32 = 4;
const THREADS: [usize; 3] = [1, 2, 4];
const DECAY_THREADS: usize = 2;

/// Where and how the numbers were taken (ROADMAP item 5's rule: a row
/// without these is not comparable with anything).
#[derive(Serialize)]
struct Provenance {
    nproc: usize,
    commit: String,
    seconds_per_cell: f64,
    warmup_seconds: f64,
    seed: u64,
    quick: bool,
}

/// `clients` and `throughput` are the column names `bench_diff` matches
/// and compares rows by.
#[derive(Serialize)]
struct Row {
    system: &'static str,
    /// Closed-loop client threads.
    clients: usize,
    started: u64,
    committed: u64,
    aborted_attempts: u64,
    /// Units started per second.
    throughput: f64,
    cpu_ms_per_txn: f64,
    ratio_to_one_thread: f64,
}

/// The decay leg's row (same identity columns as [`Row`], so `bench_diff`
/// tracks its throughput too).
#[derive(Serialize)]
struct DecayRow {
    system: &'static str,
    clients: usize,
    seconds: f64,
    started: u64,
    throughput: f64,
    started_first_sixth: u64,
    started_last_sixth: u64,
    /// `started_last_sixth / started_first_sixth`: 1.0 is no decay.
    last_to_first: f64,
    keys: u64,
    index_slots: u64,
    /// `keys / index_slots`; the directory's limit is 0.5.
    load_factor: f64,
    index_grows: u64,
    index_probe_max: u64,
    index_grow_us_max: u64,
}

/// `rows` holds [`Row`]s and one [`DecayRow`].
#[derive(Serialize)]
struct Report {
    experiment: &'static str,
    provenance: Provenance,
    rows: Vec<Json>,
}

/// `HEAD`, marked when the working tree differs from it.
fn git_commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(head) => match git(&["status", "--porcelain", "--untracked-files=no"]) {
            Some(dirty) if !dirty.is_empty() => format!("{head}+dirty"),
            _ => head,
        },
        None => "unknown".to_string(),
    }
}

/// User + system CPU time of this process in milliseconds
/// (`/proc/self/stat` fields 14 and 15, 10 ms ticks).
fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks * 10.0
}

fn flag_value<T: std::str::FromStr>(name: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

struct Cell {
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

/// The decay leg (see the module docs).
fn decay_row(seed: u64, warmup: Duration, window: Duration) -> DecayRow {
    let cell = run_cell(CcKind::Ssi, DECAY_THREADS, seed, warmup, window, 6);
    let (first, last) = (cell.started_by_slice[0], cell.started_by_slice[5]);
    DecayRow {
        system: "Monolithic SSI, decay leg",
        clients: DECAY_THREADS,
        seconds: cell.seconds,
        started: cell.started,
        throughput: cell.started as f64 / cell.seconds.max(1e-9),
        started_first_sixth: first,
        started_last_sixth: last,
        last_to_first: last as f64 / first.max(1) as f64,
        keys: cell.index.keys,
        index_slots: cell.index.slots,
        load_factor: cell.index.keys as f64 / cell.index.slots.max(1) as f64,
        index_grows: cell.index.grows,
        index_probe_max: cell.index.probe_max,
        index_grow_us_max: cell.index.grow_us_max,
    }
}

fn main() {
    let options = ExperimentOptions::from_args();
    let seconds: f64 = flag_value("--seconds").unwrap_or(if options.quick { 0.4 } else { 5.0 });
    let seed: u64 = flag_value("--seed").unwrap_or(42);
    let warmup = Duration::from_secs_f64(if options.quick { 0.1 } else { 1.0 });
    let provenance = Provenance {
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
        commit: git_commit(),
        seconds_per_cell: seconds,
        warmup_seconds: warmup.as_secs_f64(),
        seed,
        quick: options.quick,
    };
    banner(
        "Engine scaling",
        "TPC-C standard mix on one database, 1/2/4 closed-loop threads",
    );
    println!(
        "{} cores, commit {}, {} s per cell, seed {}",
        provenance.nproc, provenance.commit, seconds, seed
    );

    let mut rows = Vec::new();
    for (system, kind) in [("Monolithic SSI", CcKind::Ssi), ("NoCC", CcKind::NoCc)] {
        let mut one_thread = f64::NAN;
        for threads in THREADS {
            let cell = run_cell(
                kind,
                threads,
                seed,
                warmup,
                Duration::from_secs_f64(seconds),
                1,
            );
            let throughput = cell.started as f64 / cell.seconds.max(1e-9);
            if threads == 1 {
                one_thread = throughput;
            }
            let row = Row {
                system,
                clients: threads,
                started: cell.started,
                committed: cell.committed,
                aborted_attempts: cell.aborted_attempts,
                throughput,
                cpu_ms_per_txn: cell.cpu_ms / cell.started.max(1) as f64,
                ratio_to_one_thread: throughput / one_thread,
            };
            println!(
                "{:<16} {} thread(s) {} txn/sec   {:.4} CPU-ms/txn   {:.2}x one thread   {:.1}% aborted attempts",
                row.system,
                row.clients,
                fmt_tput(row.throughput),
                row.cpu_ms_per_txn,
                row.ratio_to_one_thread,
                100.0 * row.aborted_attempts as f64
                    / (row.started + row.aborted_attempts).max(1) as f64
            );
            rows.push(row.to_json());
        }
    }
    let decay_window = Duration::from_secs(if options.quick { 6 } else { 60 });
    let decay = decay_row(seed, warmup, decay_window);
    println!(
        "{:<16} {} thread(s) {} txn/sec over {:.0} s   last sixth / first sixth {:.2} ({} / {})",
        "SSI decay leg",
        decay.clients,
        fmt_tput(decay.throughput),
        decay.seconds,
        decay.last_to_first,
        decay.started_last_sixth,
        decay.started_first_sixth,
    );
    println!(
        "{:<16} {} keys in {} slots (load {:.2}), {} doublings, longest probe {}, longest rebuild {} us",
        "",
        decay.keys,
        decay.index_slots,
        decay.load_factor,
        decay.index_grows,
        decay.index_probe_max,
        decay.index_grow_us_max,
    );
    rows.push(decay.to_json());
    let report = Report {
        experiment: "engine_scaling",
        provenance,
        rows,
    };
    if options.json_path.is_some() {
        options.maybe_write_json(&report);
    } else {
        write_trajectory("engine_scaling", &report);
    }
}
