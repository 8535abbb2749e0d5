//! The Chapter 5 experiments that drive one live database themselves
//! instead of a fresh database per leg: the profiling case study (Fig.
//! 5.5), the profiling overhead (Fig. 5.17) and the reconfiguration
//! protocols (Fig. 5.19). Each keeps its row builder beside its runner.

use crate::common::{compare, num, print_table, text, Options, Report};
use crate::legs::live_db;
use crate::row;
use serde::Json;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tebaldi_autoconf::latency_profiler::{diagnose, sample_from_histograms};
use tebaldi_autoconf::{analyze, EventCollector};
use tebaldi_cc::{CcKind, CcNodeSpec, CcTreeSpec};
use tebaldi_core::{ReconfigProtocol, ReconfigReport};
use tebaldi_obs::{HistogramSnapshot, MetricsRegistry};
use tebaldi_storage::TxnTypeId;
use tebaldi_workloads::tpcc::schema::{types, TpccParams};
use tebaldi_workloads::tpcc::{configs, Tpcc};
use tebaldi_workloads::{run_benchmark, BenchOptions, BenchResult, Workload};

/// A type's latency histogram in a run (empty when none committed).
fn hist(result: &BenchResult, ty: TxnTypeId) -> HistogramSnapshot {
    result
        .latency_hist_by_type
        .get(&ty.0)
        .cloned()
        .unwrap_or_default()
}

/// A row of the Fig. 5.5 load sweep.
fn latency_row(clients: usize, result: &BenchResult) -> Json {
    let (payment, stock_level) = (
        hist(result, types::PAYMENT),
        hist(result, types::STOCK_LEVEL),
    );
    row![
        "clients" => clients,
        "throughput" => result.throughput,
        "payment_latency_ms" => payment.mean() / 1e6,
        "payment_p99_ms" => payment.p99() as f64 / 1e6,
        "stock_level_latency_ms" => stock_level.mean() / 1e6,
        "stock_level_p99_ms" => stock_level.p99() as f64 / 1e6,
    ]
}

/// Figure 5.5 — the latency-based profiling technique vs. blocking-time
/// profiling (§5.3.1): payment and stock_level under Fig. 5.4's
/// configuration (RP for payment, the read-only group separate, 2PL
/// across groups). As load grows only payment's latency explodes, so the
/// latency-based technique blames payment-payment contention, while the
/// blocking-time profiler (§5.3.2) attributes the waiting to the payment
/// ↔ stock_level conflict edge.
pub fn fig_5_5(options: &Options) -> Report {
    let spec = CcTreeSpec::new(CcNodeSpec::inner(
        CcKind::TwoPl,
        "fig-5.4",
        vec![
            CcNodeSpec::leaf(CcKind::Rp, "payment", vec![types::PAYMENT]),
            CcNodeSpec::leaf(CcKind::NoCc, "stock_level", vec![types::STOCK_LEVEL]),
        ],
    ));
    let workload: Arc<dyn Workload> = Arc::new(
        Tpcc::new(TpccParams::default())
            .with_mix(vec![(types::PAYMENT, 0.8), (types::STOCK_LEVEL, 0.2)]),
    );
    let collector = Arc::new(EventCollector::new());
    let db = live_db(&*workload, spec, collector.clone(), Arc::default());
    let sweep = options.pick(vec![2, 16], vec![2, 8, 32, 64]);
    let (mut samples, mut rows, mut last_events) = (Vec::new(), Vec::new(), Vec::new());
    for clients in sweep {
        collector.drain();
        let result = run_benchmark(&db, &workload, &options.bench_options(clients, "fig-5.4"));
        last_events = collector.drain();
        // The raw latency distributions, in the shared tebaldi-obs
        // histogram format the driver collects into.
        let (payment, stock_level) = (
            hist(&result, types::PAYMENT),
            hist(&result, types::STOCK_LEVEL),
        );
        let histograms = [
            (types::PAYMENT, &payment),
            (types::STOCK_LEVEL, &stock_level),
        ];
        samples.push(sample_from_histograms(clients, &histograms));
        rows.push(latency_row(clients, &result));
    }
    print_table(&rows, &[]);

    // What each technique concludes.
    let suspects = diagnose(&samples).suspected;
    println!(
        "\nlatency-based technique suspects types: {suspects:?} (payment = {}, stock_level = {})",
        types::PAYMENT.0,
        types::STOCK_LEVEL.0
    );
    let procedures = db.procedures().clone();
    let top = analyze(&last_events)
        .top_edge()
        .map(|edge| (procedures.name(edge.a), procedures.name(edge.b)));
    match &top {
        Some((a, b)) => println!("blocking-time profiler top conflict edge: {a} <-> {b}"),
        None => println!("blocking-time profiler observed no blocking"),
    }
    db.shutdown();
    Report::new(options, rows)
        .with("latency_based_suspects", suspects)
        .with("blocking_profiler_top_edge", top)
}

/// The rows of Fig. 5.5's builder from an empty run.
pub fn fig_5_5_probe() -> Vec<Json> {
    vec![latency_row(0, &BenchResult::default())]
}

/// The five legs of Fig. 5.17: setting, blocking-event sampler on,
/// analysis running concurrently, metrics registry on. The last two legs
/// measure the `tebaldi-obs` registry: disabled (histograms drop samples at
/// the first branch) vs. enabled (per-procedure latency histograms on
/// every commit); their `events_collected` counts histogram samples.
const OVERHEAD_LEGS: [(&str, bool, bool, bool); 5] = [
    ("profiling off", false, false, true),
    ("sampler on", true, false, true),
    ("sampler + monitor", true, true, true),
    ("obs off", false, false, false),
    ("obs on", false, false, true),
];

/// A row of Fig. 5.17.
fn overhead_row(setting: &str, result: &BenchResult, events_collected: usize) -> Json {
    row![
        "setting" => setting,
        "throughput" => result.throughput,
        "events_collected" => events_collected,
    ]
}

/// One trial of one Fig. 5.17 leg on a fresh three-layer TPC-C database.
fn overhead_trial(options: &Options, leg: usize) -> Json {
    let (setting, sampler, monitor, registry) = OVERHEAD_LEGS[leg];
    let workload: Arc<dyn Workload> = Arc::new(Tpcc::new(TpccParams::default()));
    let collector = Arc::new(if sampler {
        EventCollector::new()
    } else {
        EventCollector::disabled()
    });
    let metrics = Arc::new(if registry {
        MetricsRegistry::new()
    } else {
        MetricsRegistry::disabled()
    });
    let spec = configs::tebaldi_three_layer();
    let db = live_db(&*workload, spec, collector.clone(), metrics.clone());

    // The monitor runs the analysis concurrently with the measurement, as
    // the online performance monitor does.
    let stop = Arc::new(AtomicBool::new(false));
    let analysis = monitor.then(|| {
        let (collector, stop) = (Arc::clone(&collector), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut analysed = 0usize;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(100));
                let events = collector.drain();
                analysed += events.len();
                let _ = analyze(&events);
            }
            analysed
        })
    });
    // Overhead legs are compared as ratios, so they run at a deliberately
    // low client count: oversubscribed three-layer TPC-C is bimodal
    // (healthy vs. lock-timeout collapse) and a collapse landing in one leg
    // masquerades as instrumentation cost.
    let result = run_benchmark(&db, &workload, &options.bench_options(2, setting));
    stop.store(true, Ordering::Relaxed);
    let analysed = analysis.map_or(0, |h| h.join().unwrap_or(0));
    let events = if setting.starts_with("obs") {
        let histograms = metrics.snapshot().histograms;
        histograms.iter().map(|(_, h)| h.count as usize).sum()
    } else {
        analysed + collector.len()
    };
    db.shutdown();
    overhead_row(setting, &result, events)
}

/// Figure 5.17 — overhead of performance profiling: TPC-C under the
/// three-layer tree with the sampler off, on, and on with the analysis
/// running, plus the metrics registry off and on. The paper finds the
/// overhead small; the obs-on leg should stay within a few percent of
/// obs-off.
pub fn fig_5_17(options: &Options) -> Report {
    // Every leg runs once per round with the order *rotated* each round —
    // a fixed order hands any within-round degradation (WAL accumulation,
    // cache pressure) systematically to the same legs — and the reported
    // row is each leg's best trial: interference only ever subtracts, so
    // the fastest trial is the cleanest cost estimate.
    let (trials, legs) = (5, OVERHEAD_LEGS.len());
    let mut by_leg: Vec<Vec<Json>> = vec![Vec::new(); legs];
    for round in 0..trials {
        for slot in 0..legs {
            let leg = (round + slot) % legs;
            by_leg[leg].push(overhead_trial(options, leg));
        }
    }
    let rows: Vec<Json> = by_leg
        .into_iter()
        .map(|mut trials| {
            trials.sort_by(|a, b| num(a, "throughput").total_cmp(&num(b, "throughput")));
            trials.pop().expect("at least one trial per leg")
        })
        .collect();
    print_table(&rows, &[]);
    compare(
        "sampler + monitor vs profiling off",
        &rows[0],
        &rows[2],
        &[],
    );
    compare(
        "obs on vs obs off",
        &rows[3],
        &rows[4],
        &["events_collected"],
    );
    Report::new(options, rows)
}

/// The rows of Fig. 5.17's builder from an empty run.
pub fn fig_5_17_probe() -> Vec<Json> {
    vec![overhead_row("", &BenchResult::default(), 0)]
}

/// The TPC-C tree around the "third reconfiguration" of the automatic
/// configuration run: payment/new_order already pipelined, delivery in the
/// shared 2PL group before and in its own RP group after — a change
/// confined to the `updates` subtree.
fn reconfig_spec(name: &str, delivery: CcKind) -> CcTreeSpec {
    CcTreeSpec::new(CcNodeSpec::inner(
        CcKind::Ssi,
        name,
        vec![
            CcNodeSpec::leaf(
                CcKind::NoCc,
                "read-only",
                vec![types::ORDER_STATUS, types::STOCK_LEVEL],
            ),
            CcNodeSpec::inner(
                CcKind::TwoPl,
                "updates",
                vec![
                    CcNodeSpec::leaf(CcKind::Rp, "pay+no", vec![types::PAYMENT, types::NEW_ORDER]),
                    CcNodeSpec::leaf(delivery, "del", vec![types::DELIVERY]),
                ],
            ),
        ],
    ))
}

/// A row of Fig. 5.19: `timeline` holds committed transactions per bucket.
fn protocol_row(
    protocol: ReconfigProtocol,
    bucket_ms: u64,
    timeline: Vec<u64>,
    report: Option<&ReconfigReport>,
) -> Json {
    row![
        "protocol" => format!("{protocol:?}"),
        "buckets_ms" => bucket_ms,
        "timeline" => timeline,
        "reconfig_total_ms" => report.map_or(0.0, |r| r.total_ms),
        "reconfig_drained_ms" => report.map_or(0.0, |r| r.drained_ms),
        "drained_groups" => report.map_or(0, |r| r.drained_groups),
    ]
}

/// One protocol's timeline: closed-loop clients on a live database, the
/// reconfiguration fired halfway through.
fn run_protocol(options: &Options, protocol: ReconfigProtocol, clients: usize) -> Json {
    let workload: Arc<dyn Workload> = Arc::new(Tpcc::new(TpccParams::default()));
    let before = reconfig_spec("before", CcKind::TwoPl);
    let db = live_db(
        &*workload,
        before,
        Arc::new(EventCollector::disabled()),
        Arc::default(),
    );
    let (bucket_ms, buckets) = (100, options.pick(20, 40));
    let bucket = Duration::from_millis(bucket_ms);
    // The clients outlast the sampling by a few buckets: the switch itself
    // stretches its bucket.
    let load = BenchOptions {
        duration: bucket * (buckets + 5),
        warmup: Duration::ZERO,
        ..options.bench_options(clients, "reconfig")
    };
    // Sample committed-transaction counts per bucket and fire the
    // reconfiguration halfway through.
    let (mut timeline, mut report) = (Vec::new(), None);
    std::thread::scope(|scope| {
        scope.spawn(|| run_benchmark(&db, &workload, &load));
        let mut last_committed = db.stats().committed;
        for i in 0..buckets {
            let started = Instant::now();
            if i == buckets / 2 {
                let after = reconfig_spec("after", CcKind::Rp);
                report = db.reconfigure(after, protocol).ok();
            }
            // Account the remainder of this bucket normally.
            std::thread::sleep(bucket.saturating_sub(started.elapsed()));
            let committed = db.stats().committed;
            timeline.push(committed - last_committed);
            last_committed = committed;
        }
    });
    db.shutdown();

    let mid = timeline.len() / 2;
    let before: u64 = timeline[..mid.saturating_sub(1)].iter().sum();
    let after: u64 = timeline[mid + 1..].iter().sum();
    let row = protocol_row(protocol, bucket_ms, timeline.clone(), report.as_ref());
    println!(
        "{:<16} reconfig total {:>7.1} ms (drained {:>7.1} ms, {} groups) | commits/bucket before={:.0} at-switch={} after={:.0}",
        text(&row, "protocol"),
        num(&row, "reconfig_total_ms"),
        num(&row, "reconfig_drained_ms"),
        num(&row, "drained_groups"),
        before as f64 / mid.saturating_sub(1).max(1) as f64,
        timeline.get(mid).copied().unwrap_or(0),
        after as f64 / (timeline.len() - mid - 1).max(1) as f64,
    );
    println!("  timeline (commits per {bucket_ms} ms bucket): {timeline:?}");
    row
}

/// Figure 5.19 (with Fig. 5.18) — overhead of the reconfiguration
/// protocols: the reconfiguration applied while the workload keeps
/// running, once by partial restart and once by online update. The
/// timeline around the switch shows a deep dip for the partial restart and
/// a much smaller one for the online update.
pub fn fig_5_19(options: &Options) -> Report {
    let clients = options.pick(8, 24);
    let rows = vec![
        run_protocol(options, ReconfigProtocol::PartialRestart, clients),
        run_protocol(options, ReconfigProtocol::OnlineUpdate, clients),
    ];
    Report::new(options, rows)
}

/// The rows of Fig. 5.19's builder from an empty run.
pub fn fig_5_19_probe() -> Vec<Json> {
    vec![protocol_row(
        ReconfigProtocol::OnlineUpdate,
        0,
        Vec::new(),
        None,
    )]
}
