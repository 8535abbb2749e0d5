//! The closed-loop benchmark driver.
//!
//! The paper runs its benchmarks with closed-loop test clients (§4.6): each
//! client issues one transaction, waits for it to finish (retrying aborted
//! attempts), then immediately issues the next. Increasing the number of
//! clients increases contention — that is the x-axis of Figures 4.7, 4.8
//! and 4.11.
//!
//! Every experiment's clients run here. A unit counts when it *starts*
//! inside the measured window, whether or not it finishes there: a closed
//! loop that only counts what finished in time hides a stall as a missing
//! unit. The window is cut into sixths, so a run also says whether it was
//! as fast late as it was early.

use crate::metrics::{process_cpu_ms, BenchResult, LatencyStats};
use crate::workload::{WorkUnit, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tebaldi_core::Database;
use tebaldi_obs::{Histogram, HistogramSnapshot};

/// Options of one benchmark run.
#[derive(Clone, Debug)]
pub struct BenchOptions {
    /// Number of closed-loop client threads.
    pub clients: usize,
    /// Measured duration (after warm-up).
    pub duration: Duration,
    /// Warm-up period excluded from the measurement.
    pub warmup: Duration,
    /// Base RNG seed (client `i` uses `seed + i`).
    pub seed: u64,
    /// Label recorded in the result.
    pub config_label: String,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            clients: 8,
            duration: Duration::from_millis(1500),
            warmup: Duration::from_millis(300),
            seed: 42,
            config_label: String::new(),
        }
    }
}

impl BenchOptions {
    /// Short runs used by tests and `--quick` experiment modes.
    pub fn quick(clients: usize) -> Self {
        BenchOptions {
            clients,
            duration: Duration::from_millis(400),
            warmup: Duration::from_millis(100),
            ..BenchOptions::default()
        }
    }

    /// Sets the configuration label.
    pub fn labeled(mut self, label: &str) -> Self {
        self.config_label = label.to_string();
        self
    }
}

/// The slices the measured window is cut into.
const SLICES: u32 = 6;

/// One client's count of units started inside the window, alone on its
/// cache lines: the client stores it, the main thread samples it at every
/// slice boundary.
#[repr(align(128))]
#[derive(Default)]
struct Started(AtomicU64);

/// What one client measured: units started, aborted attempts, and the
/// latency of every committed unit by type (each histogram's count is the
/// type's commits).
struct ClientOutcome {
    started: u64,
    aborted: u64,
    latencies: HashMap<u32, Histogram>,
}

/// The shared closed-loop harness: spawns one thread per client running
/// `make_runner(client_seed)`'s closure until stopped, handles the
/// warmup/measure choreography, and merges the per-client outcomes. Both
/// the single-database and the cluster drivers delegate here so the
/// measurement semantics can never diverge.
fn run_closed_loop(
    workload_name: &str,
    options: &BenchOptions,
    make_runner: impl Fn(u64) -> Box<dyn FnMut(&mut StdRng) -> WorkUnit + Send>,
) -> BenchResult {
    let stop = Arc::new(AtomicBool::new(false));
    let measuring = Arc::new(AtomicBool::new(false));
    let started: Arc<Vec<Started>> =
        Arc::new((0..options.clients).map(|_| Started::default()).collect());

    let mut handles = Vec::with_capacity(options.clients);
    for client in 0..options.clients {
        let (stop, measuring, started) = (
            Arc::clone(&stop),
            Arc::clone(&measuring),
            Arc::clone(&started),
        );
        let seed = options.seed + client as u64;
        let mut run_once = make_runner(seed);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut outcome = ClientOutcome {
                started: 0,
                aborted: 0,
                latencies: HashMap::new(),
            };
            while !stop.load(Ordering::Relaxed) {
                let in_window = measuring.load(Ordering::Relaxed);
                if in_window {
                    outcome.started += 1;
                    started[client].0.store(outcome.started, Ordering::Relaxed);
                }
                let begun = Instant::now();
                let unit = run_once(&mut rng);
                if !in_window {
                    continue;
                }
                outcome.aborted += unit.aborts as u64;
                if unit.committed {
                    outcome
                        .latencies
                        .entry(unit.ty.0)
                        .or_default()
                        .record_duration(begun.elapsed());
                }
            }
            outcome
        }));
    }

    std::thread::sleep(options.warmup);
    let cpu_before = process_cpu_ms();
    measuring.store(true, Ordering::Relaxed);
    let opened = Instant::now();
    // The first five slices are sampled at their ends; the last is what
    // the clients report beyond them, so a unit that started just as the
    // window closed still lands in it.
    let mut sampled = 0;
    let mut started_by_sixth: Vec<u64> = (1..SLICES)
        .map(|slice| {
            std::thread::sleep(
                (options.duration * slice / SLICES).saturating_sub(opened.elapsed()),
            );
            let before = sampled;
            sampled = started.iter().map(|s| s.0.load(Ordering::Relaxed)).sum();
            sampled - before
        })
        .collect();
    std::thread::sleep(options.duration.saturating_sub(opened.elapsed()));
    measuring.store(false, Ordering::Relaxed);
    let measured = opened.elapsed();
    let cpu_ms = process_cpu_ms() - cpu_before;
    stop.store(true, Ordering::Relaxed);

    let mut by_type: HashMap<u32, HistogramSnapshot> = HashMap::new();
    let (mut units, mut aborted) = (0u64, 0u64);
    for handle in handles {
        let outcome = handle.join().expect("benchmark client panicked");
        units += outcome.started;
        aborted += outcome.aborted;
        for (ty, histogram) in outcome.latencies {
            by_type.entry(ty).or_default().merge(&histogram.snapshot());
        }
    }
    started_by_sixth.push(units - sampled);

    let mut overall = HistogramSnapshot::default();
    for histogram in by_type.values() {
        overall.merge(histogram);
    }
    let committed = overall.count;
    let duration_s = measured.as_secs_f64().max(1e-9);
    BenchResult {
        workload: workload_name.to_string(),
        config: options.config_label.clone(),
        clients: options.clients,
        duration_s,
        started: units,
        started_by_sixth,
        cpu_ms,
        committed,
        aborted,
        throughput: committed as f64 / duration_s,
        latency_by_type: by_type
            .iter()
            .map(|(&ty, h)| (ty, LatencyStats::from_snapshot(h)))
            .collect(),
        latency_overall: LatencyStats::from_snapshot(&overall),
        committed_by_type: by_type.iter().map(|(&ty, h)| (ty, h.count)).collect(),
        latency_hist_by_type: by_type,
    }
}

/// Runs `workload` against `db` with closed-loop clients and returns the
/// merged result. The workload must already be loaded.
pub fn run_benchmark(
    db: &Arc<Database>,
    workload: &Arc<dyn Workload>,
    options: &BenchOptions,
) -> BenchResult {
    run_closed_loop(workload.name(), options, |_seed| {
        let db = Arc::clone(db);
        let workload = Arc::clone(workload);
        Box::new(move |rng| workload.run_once(&db, rng))
    })
}

/// Builds a fresh database for `workload` with the given CC configuration,
/// loads the data, and runs the benchmark. This is the all-in-one entry
/// point used by the experiment harness.
pub fn bench_config(
    workload: &Arc<dyn Workload>,
    spec: tebaldi_cc::CcTreeSpec,
    db_config: tebaldi_core::DbConfig,
    options: &BenchOptions,
) -> BenchResult {
    let db = Arc::new(
        Database::builder(db_config)
            .procedures(workload.procedures())
            .cc_spec(spec)
            .build()
            .expect("database build"),
    );
    workload.load(&db);
    let result = run_benchmark(&db, workload, options);
    db.shutdown();
    result
}

/// Runs `workload` against a sharded `cluster` with closed-loop clients and
/// returns the merged result. The workload must already be loaded. This is
/// the cluster-routing twin of [`run_benchmark`].
pub fn run_cluster_benchmark(
    cluster: &Arc<tebaldi_cluster::Cluster>,
    workload: &Arc<dyn crate::workload::ClusterWorkload>,
    options: &BenchOptions,
) -> BenchResult {
    run_closed_loop(workload.name(), options, |_seed| {
        let cluster = Arc::clone(cluster);
        let workload = Arc::clone(workload);
        Box::new(move |rng| workload.run_once(&cluster, rng))
    })
}

/// Builds a fresh cluster for `workload` with the given CC configuration,
/// loads every shard, runs the benchmark, and shuts the cluster down. The
/// all-in-one entry point for cluster experiments.
pub fn bench_cluster_config(
    workload: &Arc<dyn crate::workload::ClusterWorkload>,
    spec: tebaldi_cc::CcTreeSpec,
    cluster_config: tebaldi_cluster::ClusterConfig,
    options: &BenchOptions,
) -> BenchResult {
    let mut registry = tebaldi_core::ProcRegistry::new();
    workload.register_procedures(&mut registry);
    let cluster = Arc::new(
        tebaldi_cluster::Cluster::builder(cluster_config)
            .procedures(workload.procedures())
            .shard_procedures(registry)
            .cc_spec(spec)
            .build()
            .expect("cluster build"),
    );
    workload.load(&cluster);
    let result = run_cluster_benchmark(&cluster, workload, options);
    cluster.shutdown();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use tebaldi_cc::{AccessMode, CcKind, CcTreeSpec, ProcedureInfo, ProcedureSet};
    use tebaldi_core::{DbConfig, ProcedureCall};
    use tebaldi_storage::{Key, TableId, TxnTypeId};

    /// A tiny workload: each transaction increments one of a few counters.
    struct Counters;

    impl Workload for Counters {
        fn name(&self) -> &str {
            "counters"
        }

        fn procedures(&self) -> ProcedureSet {
            let mut set = ProcedureSet::new();
            set.insert(ProcedureInfo::new(
                TxnTypeId(0),
                "bump",
                vec![(TableId(0), AccessMode::Write)],
            ));
            set
        }

        fn load(&self, db: &Database) {
            for i in 0..8 {
                db.load(Key::simple(TableId(0), i), tebaldi_storage::Value::Int(0));
            }
        }

        fn run_once(&self, db: &Database, rng: &mut StdRng) -> WorkUnit {
            use rand::Rng;
            let key = Key::simple(TableId(0), rng.gen_range(0..8));
            let call = ProcedureCall::new(TxnTypeId(0));
            match db.execute_with_retry(&call, 20, |txn| txn.increment(key, 0, 1)) {
                Ok((_, aborts)) => WorkUnit::committed(TxnTypeId(0), aborts),
                Err(_) => WorkUnit::failed(TxnTypeId(0), 20),
            }
        }
    }

    #[test]
    fn closed_loop_driver_produces_throughput() {
        let workload: Arc<dyn Workload> = Arc::new(Counters);
        let result = bench_config(
            &workload,
            CcTreeSpec::monolithic(CcKind::TwoPl, vec![TxnTypeId(0)]),
            DbConfig::for_tests(),
            &BenchOptions::quick(4).labeled("2PL"),
        );
        assert!(result.committed > 0, "some transactions must commit");
        assert!(result.throughput > 0.0);
        assert_eq!(result.config, "2PL");
        assert_eq!(result.clients, 4);
        assert!(result.latency_overall.count > 0);
    }

    #[test]
    fn a_run_counts_units_by_their_start() {
        let workload: Arc<dyn Workload> = Arc::new(Counters);
        let result = bench_config(
            &workload,
            CcTreeSpec::monolithic(CcKind::TwoPl, vec![TxnTypeId(0)]),
            DbConfig::for_tests(),
            &BenchOptions::quick(2),
        );
        assert!(result.started >= result.committed);
        assert_eq!(result.started_by_sixth.len(), 6);
        assert_eq!(result.started_by_sixth.iter().sum::<u64>(), result.started);
        assert!(result.cpu_ms > 0.0, "two busy clients burn CPU");
        assert_eq!(
            result.committed_by_type.values().sum::<u64>(),
            result.committed
        );
    }
}
