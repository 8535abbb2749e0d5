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
//! `--quick` shrinks each cell to 0.4 s; `--seconds S` and `--seed N`
//! override the defaults; `--json PATH` writes the report there instead of
//! `BENCH_engine_scaling.json` in the working directory.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tebaldi_bench::common::{banner, fmt_tput, write_trajectory, ExperimentOptions};
use tebaldi_cc::{CcKind, CcTreeSpec};
use tebaldi_core::{Database, DbConfig};
use tebaldi_workloads::tpcc::schema::{self, TpccParams};
use tebaldi_workloads::tpcc::Tpcc;
use tebaldi_workloads::Workload;

const WAREHOUSES: u32 = 4;
const THREADS: [usize; 3] = [1, 2, 4];

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

#[derive(Serialize)]
struct Report {
    experiment: &'static str,
    provenance: Provenance,
    rows: Vec<Row>,
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
}

/// One fresh database, loaded, then `threads` closed-loop clients.
fn run_cell(kind: CcKind, threads: usize, seed: u64, warmup: Duration, window: Duration) -> Cell {
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
    let (started, committed, aborted) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    let (seconds, cpu_ms) = std::thread::scope(|scope| {
        for client in 0..threads {
            let (db, workload) = (&db, &workload);
            let (stop, measuring) = (&stop, &measuring);
            let (started, committed, aborted) = (&started, &committed, &aborted);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed + client as u64);
                let (mut mine_started, mut mine_committed, mut mine_aborted) = (0u64, 0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    let in_window = measuring.load(Ordering::Relaxed);
                    let unit = workload.run_once(db, &mut rng);
                    if in_window {
                        mine_started += 1;
                        mine_committed += unit.committed as u64;
                        mine_aborted += unit.aborts as u64;
                    }
                }
                started.fetch_add(mine_started, Ordering::Relaxed);
                committed.fetch_add(mine_committed, Ordering::Relaxed);
                aborted.fetch_add(mine_aborted, Ordering::Relaxed);
            });
        }
        std::thread::sleep(warmup);
        let cpu_before = process_cpu_ms();
        measuring.store(true, Ordering::Relaxed);
        let opened = Instant::now();
        std::thread::sleep(window);
        measuring.store(false, Ordering::Relaxed);
        let seconds = opened.elapsed().as_secs_f64();
        let cpu_ms = process_cpu_ms() - cpu_before;
        stop.store(true, Ordering::Relaxed);
        (seconds, cpu_ms)
    });
    db.shutdown();
    Cell {
        started: started.into_inner(),
        committed: committed.into_inner(),
        aborted_attempts: aborted.into_inner(),
        seconds,
        cpu_ms,
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
            rows.push(row);
        }
    }
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
