//! The iterative automatic-configuration loop (§5.1, Fig. 5.1).
//!
//! Each iteration:
//!
//! 1. **analysis** — run the live workload while the blocking-event sampler
//!    is on, and find the most severe conflict edge,
//! 2. **optimization** — propose localized rewrites of the current
//!    configuration that target that edge (plus CC-specific preprocessing),
//! 3. **testing** — switch the database to each candidate with an online
//!    reconfiguration protocol, measure its throughput under the same live
//!    workload, and keep the best configuration (or keep the current one if
//!    nothing improves).
//!
//! The loop terminates when no bottleneck is found, no candidate improves
//! throughput, or the iteration budget is exhausted.

use crate::optimizer::{propose, OptimizerOptions};
use crate::profiler::analyze;
use serde::Serialize;
use std::sync::Arc;
use std::time::Duration;
use tebaldi_cc::VecSink;
use tebaldi_core::{Database, ReconfigProtocol};

/// A function that applies the live workload to the database for roughly the
/// given duration and returns the measured throughput (committed
/// transactions per second). The experiment harness passes a closure around
/// the closed-loop driver.
pub type LoadFn<'a> = dyn Fn(&Arc<Database>, Duration) -> f64 + Sync + 'a;

/// Options of the automatic configurator.
#[derive(Clone, Debug)]
pub struct AutoConfOptions {
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// How long each measurement (analysis or candidate test) runs.
    pub test_duration: Duration,
    /// Minimum relative improvement required to adopt a candidate (1.05 =
    /// 5%).
    pub min_improvement: f64,
    /// Reconfiguration protocol used while testing candidates.
    pub protocol: ReconfigProtocol,
    /// Optimizer options.
    pub optimizer: OptimizerOptions,
}

impl Default for AutoConfOptions {
    fn default() -> Self {
        AutoConfOptions {
            max_iterations: 6,
            test_duration: Duration::from_millis(1_000),
            min_improvement: 1.05,
            protocol: ReconfigProtocol::OnlineUpdate,
            optimizer: OptimizerOptions::default(),
        }
    }
}

impl AutoConfOptions {
    /// Short runs used by tests and `--quick` experiment modes.
    pub fn quick() -> Self {
        AutoConfOptions {
            max_iterations: 3,
            test_duration: Duration::from_millis(300),
            ..AutoConfOptions::default()
        }
    }
}

/// Record of one iteration.
#[derive(Clone, Debug, Serialize)]
pub struct IterationRecord {
    /// Iteration index (1-based).
    pub iteration: usize,
    /// Throughput measured under the configuration entering the iteration.
    pub baseline_throughput: f64,
    /// The bottleneck conflict edge, as `(type name, type name)`.
    pub bottleneck: Option<(String, String)>,
    /// Number of candidates generated and tested.
    pub candidates_tested: usize,
    /// Description of the best candidate.
    pub best_candidate: Option<String>,
    /// Throughput of the best candidate.
    pub best_throughput: f64,
    /// Whether the best candidate was adopted.
    pub adopted: bool,
    /// The configuration tree in force at the end of the iteration.
    pub final_config: String,
}

/// The outcome of a full automatic-configuration run.
#[derive(Clone, Debug, Default, Serialize)]
pub struct AutoConfReport {
    /// Per-iteration records.
    pub iterations: Vec<IterationRecord>,
    /// Throughput under the initial configuration.
    pub initial_throughput: f64,
    /// Throughput under the final configuration.
    pub final_throughput: f64,
}

impl AutoConfReport {
    /// Overall speed-up achieved by the configurator.
    pub fn speedup(&self) -> f64 {
        if self.initial_throughput > 0.0 {
            self.final_throughput / self.initial_throughput
        } else {
            0.0
        }
    }
}

/// Runs the automatic-configuration loop on a live database.
///
/// The database must have been built with `collector` installed as its event
/// sink (otherwise no blocking events are observed and the loop stops after
/// the first iteration).
pub fn run_auto_configuration(
    db: &Arc<Database>,
    collector: &Arc<VecSink>,
    load: &LoadFn<'_>,
    options: &AutoConfOptions,
) -> AutoConfReport {
    let procedures = db.procedures().clone();
    let mut report = AutoConfReport::default();
    let mut current_throughput = 0.0;

    for iteration in 1..=options.max_iterations {
        // -------- analysis stage --------
        collector.set_enabled(true);
        collector.drain();
        let baseline = load(db, options.test_duration);
        let events = collector.drain();
        collector.set_enabled(false);
        if iteration == 1 {
            report.initial_throughput = baseline;
        }
        current_throughput = baseline;
        let profile = analyze(&events);
        let Some(edge) = profile.top_edge() else {
            report.iterations.push(IterationRecord {
                iteration,
                baseline_throughput: baseline,
                bottleneck: None,
                candidates_tested: 0,
                best_candidate: None,
                best_throughput: baseline,
                adopted: false,
                final_config: db.current_spec().describe(),
            });
            break;
        };
        let bottleneck_names = (procedures.name(edge.a), procedures.name(edge.b));

        // -------- optimization stage --------
        let current_spec = db.current_spec();
        let candidates = propose(
            &current_spec,
            edge.a,
            edge.b,
            &procedures,
            &options.optimizer,
        );
        if candidates.is_empty() {
            report.iterations.push(IterationRecord {
                iteration,
                baseline_throughput: baseline,
                bottleneck: Some(bottleneck_names),
                candidates_tested: 0,
                best_candidate: None,
                best_throughput: baseline,
                adopted: false,
                final_config: current_spec.describe(),
            });
            break;
        }

        // -------- testing stage --------
        let mut best_throughput = baseline;
        let mut best: Option<&crate::optimizer::Candidate> = None;
        for candidate in &candidates {
            if db
                .reconfigure(candidate.spec.clone(), options.protocol)
                .is_err()
            {
                continue;
            }
            let throughput = load(db, options.test_duration);
            if throughput > best_throughput {
                best_throughput = throughput;
                best = Some(candidate);
            }
        }

        let adopted = match best {
            Some(candidate) if best_throughput >= baseline * options.min_improvement => db
                .reconfigure(candidate.spec.clone(), options.protocol)
                .map(|_| true)
                .unwrap_or(false),
            _ => {
                // Nothing improved: restore the configuration we started the
                // iteration with.
                let _ = db.reconfigure(current_spec.clone(), options.protocol);
                false
            }
        };
        current_throughput = if adopted { best_throughput } else { baseline };
        report.iterations.push(IterationRecord {
            iteration,
            baseline_throughput: baseline,
            bottleneck: Some(bottleneck_names),
            candidates_tested: candidates.len(),
            best_candidate: best.map(|c| c.description.clone()),
            best_throughput,
            adopted,
            final_config: db.current_spec().describe(),
        });
        if !adopted {
            break;
        }
    }

    report.final_throughput = current_throughput;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use tebaldi_core::DbConfig;
    use tebaldi_workloads::tpcc::{configs, schema::TpccParams, Tpcc};
    use tebaldi_workloads::{run_benchmark, BenchOptions, Workload};

    #[test]
    fn autoconf_improves_or_keeps_tpcc_configuration() {
        let workload = Arc::new(Tpcc::new(TpccParams::tiny()));
        let collector = Arc::new(VecSink::new());
        let db = Arc::new(
            Database::builder(DbConfig::for_tests())
                .procedures(workload.procedures())
                .cc_spec(configs::autoconf_initial())
                .events(collector.clone())
                .build()
                .unwrap(),
        );
        workload.load(&db);

        let workload_for_load: Arc<dyn Workload> = workload.clone();
        let load = move |db: &Arc<Database>, duration: Duration| {
            let options = BenchOptions {
                clients: 4,
                duration,
                warmup: Duration::from_millis(50),
                seed: 7,
                config_label: "autoconf".to_string(),
            };
            run_benchmark(db, &workload_for_load, &options).throughput
        };

        let mut options = AutoConfOptions::quick();
        options.max_iterations = 2;
        options.test_duration = Duration::from_millis(700);
        let report = run_auto_configuration(&db, &collector, &load, &options);
        assert!(!report.iterations.is_empty());
        assert!(report.iterations.len() <= 2);
        // Whatever the configurator decided, the final configuration must be
        // valid and cover every transaction type exactly once, and every
        // adopted iteration must have cleared the improvement threshold.
        assert!(db.current_spec().validate().is_ok());
        assert_eq!(db.current_spec().types().len(), 5);
        for record in &report.iterations {
            if record.adopted {
                assert!(record.best_throughput >= record.baseline_throughput);
            }
        }
        db.shutdown();
    }

    #[test]
    fn stops_immediately_without_blocking_events() {
        // Uncontended single-client workload: no bottleneck is found.
        let workload = Arc::new(Tpcc::new(TpccParams::tiny()));
        let collector = Arc::new(VecSink::new());
        let db = Arc::new(
            Database::builder(DbConfig::for_tests())
                .procedures(workload.procedures())
                .cc_spec(configs::autoconf_initial())
                .events(collector.clone())
                .build()
                .unwrap(),
        );
        workload.load(&db);
        let workload2 = workload.clone();
        let load = move |db: &Arc<Database>, _d: Duration| {
            let mut rng = StdRng::seed_from_u64(1);
            for _ in 0..20 {
                workload2.run_once(db, &mut rng);
            }
            100.0
        };
        let report = run_auto_configuration(&db, &collector, &load, &AutoConfOptions::quick());
        assert_eq!(report.iterations.len(), 1);
        db.shutdown();
    }
}
