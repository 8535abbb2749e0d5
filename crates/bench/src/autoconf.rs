//! The automatic-configuration loop of Figs. 5.11 and 5.14: the analysis
//! → optimization → testing loop from an initial tree, the throughput
//! after every iteration, the final tree, and the manually configured tree
//! for comparison. The expected shape: the automatic configuration recovers
//! most of the manual configuration's benefit over the initial one.

use crate::common::{compare, fmt_tput, print_table, Options, Report};
use crate::legs::{live_db, Make};
use crate::row;
use serde::Json;
use std::sync::Arc;
use std::time::Duration;
use tebaldi_autoconf::{run_auto_configuration, AutoConfOptions, AutoConfReport};
use tebaldi_cc::{CcTreeSpec, VecSink};
use tebaldi_core::{Database, DbConfig};
use tebaldi_workloads::{bench_config, run_benchmark, Workload};

/// One automatic-configuration experiment.
pub struct Autoconf {
    /// The workload, made fresh for the manual run and for the loop.
    pub workload: Make<dyn Workload>,
    /// The tree the loop starts from (Fig. 5.2's shape).
    pub initial: CcTreeSpec,
    /// The manually configured reference tree.
    pub manual: CcTreeSpec,
    /// The paper's figure of the tree the loop should arrive at.
    pub final_figure: &'static str,
    /// Closed-loop clients.
    pub clients: usize,
    /// The loop's budget and optimizer options; every test runs as long as
    /// a figure cell.
    pub options: AutoConfOptions,
}

/// The stage rows of a loop: initial → each iteration → final, with the
/// manual reference last.
pub fn stage_rows(report: &AutoConfReport, manual_throughput: f64) -> Vec<Json> {
    let iterations = report.iterations.iter().map(|record| {
        let throughput = if record.adopted {
            record.best_throughput
        } else {
            record.baseline_throughput
        };
        (format!("iteration {}", record.iteration), throughput)
    });
    std::iter::once(("initial".to_string(), report.initial_throughput))
        .chain(iterations)
        .chain([
            ("final".to_string(), report.final_throughput),
            ("manual reference".to_string(), manual_throughput),
        ])
        .map(|(stage, throughput)| row!["stage" => stage, "throughput" => throughput])
        .collect()
}

/// Runs the manual reference, then the loop on a live database.
pub fn run(options: &Options, experiment: Autoconf) -> Report {
    let manual = bench_config(
        &(experiment.workload)(),
        experiment.manual,
        DbConfig::for_benchmarks(),
        &options.bench_options(experiment.clients, "manual"),
    );

    let workload = (experiment.workload)();
    let collector = Arc::new(VecSink::new());
    let db = live_db(
        &*workload,
        experiment.initial,
        collector.clone(),
        Arc::default(),
    );
    let bench = options.bench_options(experiment.clients, "autoconf");
    let mut auto_options = experiment.options;
    auto_options.test_duration = bench.duration;
    let load = move |db: &Arc<Database>, duration: Duration| {
        let mut opts = bench.clone();
        opts.duration = duration;
        opts.warmup = Duration::from_millis(100);
        run_benchmark(db, &workload, &opts).throughput
    };
    let report = run_auto_configuration(&db, &collector, &load, &auto_options);

    for record in &report.iterations {
        println!(
            "iteration {:<2} bottleneck={:<36} candidates={:<3} best={} adopted={}",
            record.iteration,
            record
                .bottleneck
                .as_ref()
                .map_or_else(|| "none".to_string(), |(a, b)| format!("{a}<->{b}")),
            record.candidates_tested,
            fmt_tput(record.best_throughput),
            record.adopted,
        );
    }
    let rows = stage_rows(&report, manual.throughput);
    print_table(&rows, &[]);
    let [.., final_row, manual_row] = &rows[..] else {
        unreachable!("the stages end with final and manual reference")
    };
    compare(
        "final automatic vs manual configuration",
        manual_row,
        final_row,
        &[],
    );
    let final_config = db.current_spec().describe();
    println!(
        "final tree ({} analogue):\n{final_config}",
        experiment.final_figure
    );
    db.shutdown();
    Report::new(options, rows).with("final_config", final_config)
}
