//! The experiment table: every id `figures` accepts, what it runs, and
//! through its row builders the shape of its `BENCH_<id>.json`.
//!
//! Most experiments are data for a shared runner — the single-node leg
//! loop ([`crate::legs`]), the cluster leg ([`crate::cluster`]) or the
//! automatic-configuration loop ([`crate::autoconf`]) — plus a finishing
//! step for their acceptance printouts and top-level fields. The rest run
//! their own code ([`crate::chapter5`], [`crate::engine_scaling`], Table
//! 4.1).

use crate::autoconf::{self, stage_rows, Autoconf};
use crate::cluster::{
    batch_legs, cluster_row, compare_batch_legs, run_cluster_legs, ClusterLeg, ClusterLoad,
};
use crate::common::{compare, num, print_table, text, Options, Report};
use crate::legs::{leg_row, run_leg, run_legs, Col, Leg, Make};
use crate::{chapter5, engine_scaling, row};
use serde::Json;
use std::sync::Arc;
use tebaldi_autoconf::{AutoConfOptions, AutoConfReport};
use tebaldi_cc::{CcKind, CcNodeSpec, CcTreeSpec};
use tebaldi_cluster::{ClusterStats, ReadConsistency, ReplicationConfig, TransportKind};
use tebaldi_core::DurabilityMode;
use tebaldi_storage::TxnTypeId;
use tebaldi_workloads::micro::{CrossGroupMicro, HierarchyMicro, OverheadMicro};
use tebaldi_workloads::seats::cluster::ClusterSeats;
use tebaldi_workloads::seats::{self, Seats, SeatsParams};
use tebaldi_workloads::tpcc::cluster::ClusterTpcc;
use tebaldi_workloads::tpcc::schema::{types, TpccParams};
use tebaldi_workloads::tpcc::{self, Tpcc};
use tebaldi_workloads::{BenchResult, ClusterWorkload, Workload};

/// Prints an experiment's acceptance lines and adds its top-level fields.
pub type Finish = fn(&Options, Report) -> Report;

/// How an experiment runs.
pub enum Runner {
    /// Single-node legs through the leg loop; rows carry these columns
    /// after the labels.
    Legs(fn(&Options) -> Vec<Leg>, &'static [Col], Finish),
    /// Cluster legs through the cluster leg.
    Cluster(fn(&Options) -> Vec<ClusterLeg>, Finish),
    /// The automatic-configuration loop.
    Autoconf(fn(&Options) -> Autoconf),
    /// Its own runner, and the rows its row builders make from
    /// default-valued run results.
    Own(fn(&Options) -> Report, fn() -> Vec<Json>),
}

/// One experiment `figures` can run.
pub struct Experiment {
    /// Its id: the `<id>` of its `BENCH_<id>.json`.
    pub id: &'static str,
    /// The banner printed before it runs.
    pub title: &'static str,
    /// How it runs.
    pub runner: Runner,
}

impl Experiment {
    /// Runs the experiment.
    pub fn run(&self, options: &Options) -> Report {
        match &self.runner {
            Runner::Legs(legs, cols, finish) => {
                let rows = run_legs(options, &legs(options), cols);
                finish(options, Report::new(options, rows))
            }
            Runner::Cluster(legs, finish) => {
                let rows = run_cluster_legs(options, &legs(options));
                finish(options, Report::new(options, rows))
            }
            Runner::Autoconf(experiment) => autoconf::run(options, experiment(options)),
            Runner::Own(run, _) => run(options),
        }
    }

    /// The rows the experiment's row builders make from default-valued run
    /// results (every leg of the `--quick` run, nothing measured): the row
    /// keys its trajectory file must have.
    pub fn probe(&self) -> Vec<Json> {
        let quick = Options {
            quick: true,
            ..Options::default()
        };
        let result = BenchResult::default();
        match &self.runner {
            Runner::Legs(legs, cols, _) => legs(&quick)
                .iter()
                .map(|leg| leg_row(leg, cols, &result))
                .collect(),
            Runner::Cluster(legs, _) => legs(&quick)
                .iter()
                .map(|leg| cluster_row(leg, &result, &ClusterStats::default(), 0))
                .collect(),
            Runner::Autoconf(_) => stage_rows(&AutoConfReport::default(), 0.0),
            Runner::Own(_, probe) => probe(),
        }
    }
}

/// Every experiment, in the paper's order.
pub static EXPERIMENTS: [Experiment; 18] = [
    Experiment {
        id: "table_3_1_grouping",
        title: "Table 3.1: Impact of grouping on throughput (txn/sec)",
        runner: Runner::Legs(table_3_1, &[Col::Throughput, Col::AbortRate], done),
    },
    Experiment {
        id: "table_4_1_layers",
        title: "Table 4.1: Latency and resource cost of adding additional layers",
        runner: Runner::Own(table_4_1, table_4_1_probe),
    },
    Experiment {
        id: "table_4_2_durability",
        title: "Table 4.2: Overhead of durability protocol on TPC-C benchmark",
        runner: Runner::Legs(table_4_2, &[Col::Throughput], table_4_2_finish),
    },
    Experiment {
        id: "fig_4_7_tpcc",
        title: "Figure 4.7: Performance of TPC-C benchmark",
        runner: Runner::Legs(
            fig_4_7,
            &[Col::Clients, Col::Throughput, Col::AbortRate, Col::P99LatencyMs],
            done,
        ),
    },
    Experiment {
        id: "fig_4_8_seats",
        title: "Figure 4.8: Performance of SEATS benchmark",
        runner: Runner::Legs(fig_4_8, &[Col::Clients, Col::Throughput, Col::AbortRate], done),
    },
    Experiment {
        id: "sec_4_6_3_extensibility",
        title: "Section 4.6.3: Extensibility: the hot_item transaction",
        runner: Runner::Legs(sec_4_6_3, &[Col::Throughput, Col::AbortRate], sec_4_6_3_finish),
    },
    Experiment {
        id: "fig_4_10_crossgroup",
        title: "Figure 4.10: Cross-group CCs' performance",
        runner: Runner::Legs(fig_4_10, &[Col::Throughput, Col::AbortRate], fig_4_10_finish),
    },
    Experiment {
        id: "fig_4_11_hierarchy",
        title: "Figure 4.11: Two-layer vs. three-layer",
        runner: Runner::Legs(fig_4_11, &[Col::Clients, Col::Throughput, Col::AbortRate], done),
    },
    Experiment {
        id: "fig_5_5_latency_profiling",
        title: "Figure 5.5: Latency-based profiling vs. blocking-time profiling",
        runner: Runner::Own(chapter5::fig_5_5, chapter5::fig_5_5_probe),
    },
    Experiment {
        id: "fig_5_11_autoconf_tpcc",
        title: "Figure 5.11: Automatic configuration on TPC-C",
        runner: Runner::Autoconf(fig_5_11),
    },
    Experiment {
        id: "fig_5_14_autoconf_seats",
        title: "Figure 5.14: Automatic configuration on SEATS",
        runner: Runner::Autoconf(fig_5_14),
    },
    Experiment {
        id: "fig_5_17_profiling_overhead",
        title: "Figure 5.17: Overhead of performance profiling",
        runner: Runner::Own(chapter5::fig_5_17, chapter5::fig_5_17_probe),
    },
    Experiment {
        id: "fig_5_19_reconfig_protocols",
        title: "Figure 5.19: Overhead of the reconfiguration protocols",
        runner: Runner::Own(chapter5::fig_5_19, chapter5::fig_5_19_probe),
    },
    Experiment {
        id: "table_5_1_partition_by_instance",
        title: "Table 5.1: SEATS with and without the partition-by-instance optimisation",
        runner: Runner::Legs(table_5_1, &[Col::Throughput, Col::AbortRate], done),
    },
    Experiment {
        id: "table_5_2_single_machine",
        title: "Table 5.2: TPC-C performance in single-machine settings",
        runner: Runner::Legs(
            table_5_2,
            &[Col::Clients, Col::Throughput, Col::P99LatencyMs],
            done,
        ),
    },
    Experiment {
        id: "cluster_tpcc",
        title: "cluster_tpcc: TPC-C scale-out across 1/2/4/8 database shards (2PC, sync WAL, group commit)",
        runner: Runner::Cluster(cluster_tpcc, cluster_tpcc_finish),
    },
    Experiment {
        id: "cluster_seats",
        title: "cluster_seats: SEATS scale-out across 1/2/4/8 database shards (2PC for cross-shard)",
        runner: Runner::Cluster(cluster_seats, cluster_seats_finish),
    },
    Experiment {
        id: "engine_scaling",
        title: "Engine scaling: TPC-C standard mix on one database, 1/2/4 closed-loop threads",
        runner: Runner::Own(engine_scaling::run, engine_scaling::probe),
    },
];

/// Resolves the ids `figures` was given (`all` is every experiment) and
/// checks the options against them.
pub fn select(ids: &[String], options: &Options) -> Result<Vec<&'static Experiment>, String> {
    let mut selected = Vec::new();
    for id in ids {
        match EXPERIMENTS.iter().find(|e| e.id == id) {
            Some(experiment) => selected.push(experiment),
            None if id == "all" => selected.extend(EXPERIMENTS.iter()),
            None => return Err(format!("unknown experiment {id}")),
        }
    }
    if selected.is_empty() {
        return Err("no experiment named".to_string());
    }
    if options.json_path.is_some() && selected.len() > 1 {
        return Err("--json writes one report: name exactly one experiment".to_string());
    }
    let engine_only = options.seconds.is_some() || options.seed.is_some();
    if engine_only && selected.iter().any(|e| e.id != "engine_scaling") {
        return Err("--seconds and --seed apply to engine_scaling only".to_string());
    }
    Ok(selected)
}

/// The usage text, naming every experiment.
pub fn usage() -> String {
    let mut text = String::from(
        "usage: figures <id>... | all [--quick] [--json PATH]\n\
         \x20      figures engine_scaling [--quick] [--seconds S] [--seed N] [--json PATH]\n\n\
         Each experiment rewrites BENCH_<id>.json in the working directory;\n\
         --json PATH writes the one experiment named to PATH instead.\n\
         --quick shrinks durations and client counts.\n\nexperiments:\n",
    );
    for experiment in &EXPERIMENTS {
        text += &format!("  {:<34}{}\n", experiment.id, experiment.title);
    }
    text
}

fn done(_: &Options, report: Report) -> Report {
    report
}

fn tpcc_with(params: TpccParams) -> Make<dyn Workload> {
    Arc::new(move || Arc::new(Tpcc::new(params)) as Arc<dyn Workload>)
}

fn seats_with(params: SeatsParams) -> Make<dyn Workload> {
    Arc::new(move || Arc::new(Seats::new(params)) as Arc<dyn Workload>)
}

/// SEATS at full scale, or a small instance under `--quick`.
fn seats_params(options: &Options) -> SeatsParams {
    let quick = SeatsParams {
        flights: 20,
        seats_per_flight: 2_000,
        customers: 1_000,
        open_seat_probes: 15,
    };
    options.pick(quick, SeatsParams::default())
}

/// Every configuration at every client count of the sweep.
fn sweep(
    options: &Options,
    configs: Vec<(&str, CcTreeSpec)>,
    workload: Make<dyn Workload>,
) -> Vec<Leg> {
    let clients = options.client_sweep();
    configs
        .iter()
        .flat_map(|(name, spec)| {
            let workload = &workload;
            clients
                .iter()
                .map(move |&c| Leg::new("config", name, workload, spec.clone(), c))
        })
        .collect()
}

/// One leg per configuration at a fixed client count.
fn fixed(
    key: &'static str,
    configs: Vec<(&str, CcTreeSpec)>,
    workload: Make<dyn Workload>,
    clients: usize,
) -> Vec<Leg> {
    configs
        .into_iter()
        .map(|(name, spec)| Leg::new(key, name, &workload, spec, clients))
        .collect()
}

/// Table 3.1 — TPC-C restricted to new_order and stock_level (50/50):
/// both types in one runtime-pipelining group; separate groups under 2PL
/// with new_order's deadlock-prone access order (stock before district);
/// the same grouping with the reordered accesses; and with the two types
/// on disjoint warehouses. The paper's shape: the deadlock row collapses,
/// the no-deadlock row is barely better than the same-group row, and the
/// no-conflict row soars by roughly an order of magnitude.
fn table_3_1(options: &Options) -> Vec<Leg> {
    let variant = |stock_first: bool, disjoint: bool| -> Make<dyn Workload> {
        Arc::new(move || {
            let mix = vec![(types::NEW_ORDER, 0.5), (types::STOCK_LEVEL, 0.5)];
            let mut workload = Tpcc::new(TpccParams::default()).with_mix(mix);
            workload.new_order_stock_first = stock_first;
            workload.disjoint_warehouses = disjoint;
            Arc::new(workload) as Arc<dyn Workload>
        })
    };
    let same_group = CcTreeSpec::new(CcNodeSpec::leaf(
        CcKind::Rp,
        "no+sl",
        vec![types::NEW_ORDER, types::STOCK_LEVEL],
    ));
    let separate = || {
        CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::TwoPl,
            "cross-group",
            vec![
                CcNodeSpec::leaf(CcKind::Rp, "no", vec![types::NEW_ORDER]),
                CcNodeSpec::leaf(CcKind::NoCc, "sl", vec![types::STOCK_LEVEL]),
            ],
        ))
    };
    let clients = options.pick(8, 24);
    [
        ("Same group", variant(false, false), same_group),
        ("Separate - Deadlock", variant(true, false), separate()),
        ("Separate - No Deadlock", variant(false, false), separate()),
        ("Separate - No Conflict", variant(false, true), separate()),
    ]
    .into_iter()
    .map(|(name, workload, spec)| Leg::new("setting", name, &workload, spec, clients))
    .collect()
}

/// The row of one Table 4.1 setting.
fn table_4_1_row(setting: &str, low_load: &BenchResult, peak: &BenchResult) -> Json {
    row![
        "setting" => setting,
        "latency_ms" => low_load.latency_overall.mean_ms,
        "throughput" => peak.throughput,
    ]
}

fn table_4_1_probe() -> Vec<Json> {
    vec![table_4_1_row(
        "",
        &BenchResult::default(),
        &BenchResult::default(),
    )]
}

/// Table 4.1 — a conflict-free workload (one transaction type, seven
/// writes) under a stand-alone RP group and with one extra 2PL / SSI / RP
/// layer above it: mean latency at low load, peak throughput with the CPU
/// saturated. Expected: 2PL adds a few percent of latency, SSI ~10%, RP
/// the most; the throughput cost is 20–40%.
fn table_4_1(options: &Options) -> Report {
    let workload: Make<dyn Workload> = Arc::new(|| Arc::new(OverheadMicro::new()));
    let (low_load, peak) = (options.pick(4, 8), options.pick(8, 32));
    let rows: Vec<Json> = OverheadMicro::configs()
        .into_iter()
        .map(|(name, spec)| {
            let leg = |clients| Leg::new("setting", name, &workload, spec.clone(), clients);
            let low_load = run_leg(options, &leg(low_load));
            table_4_1_row(name, &low_load, &run_leg(options, &leg(peak)))
        })
        .collect();
    print_table(&rows, &[]);
    Report::new(options, rows)
}

/// Table 4.2 — TPC-C under the three-layer tree with durability off and
/// with the asynchronous-flushing GCP protocol on (clients wait for the
/// commit notification, not the durable one). The paper reports ~5%.
fn table_4_2(options: &Options) -> Vec<Leg> {
    let spec = tpcc::configs::tebaldi_three_layer;
    let settings = vec![
        ("Durability ON (async GCP)", spec()),
        ("Durability OFF", spec()),
    ];
    let workload = tpcc_with(TpccParams::default());
    let mut legs = fixed("setting", settings, workload, options.pick(8, 32));
    legs[0].db_config.durability = DurabilityMode::Asynchronous { epoch_ms: 1_000 };
    legs
}

fn table_4_2_finish(_: &Options, report: Report) -> Report {
    let (on, off) = (&report.rows[0], &report.rows[1]);
    let ratio = compare("durability ON vs OFF (paper: ~5% overhead)", off, on, &[]);
    let overhead_pct = if ratio.is_finite() {
        (1.0 - ratio) * 100.0
    } else {
        0.0
    };
    report
        .with(
            "config",
            "Tebaldi three-layer TPC-C, async GCP vs durability off",
        )
        .with("overhead_pct", overhead_pct)
}

/// Figure 4.7 — throughput vs. closed-loop clients for the six
/// configurations of Fig. 4.6. Expected: SSI beats 2PL at low contention
/// but collapses as clients grow; Callas-2 beats Callas-1; the Tebaldi
/// hierarchies beat both Callas groupings, the 3-layer tree on top.
fn fig_4_7(options: &Options) -> Vec<Leg> {
    sweep(
        options,
        tpcc::configs::figure_4_7(),
        tpcc_with(TpccParams::default()),
    )
}

/// Figure 4.8 — SEATS throughput vs. clients for monolithic 2PL, the
/// 2-layer SSI+2PL tree and the 3-layer tree with per-flight TSO groups.
/// Expected: 2-layer ≈ 2.6× over 2PL, 3-layer roughly doubling 2-layer at
/// high contention.
fn fig_4_8(options: &Options) -> Vec<Leg> {
    let params = seats_params(options);
    let configs = vec![
        ("Monolithic 2PL", seats::configs::monolithic_2pl()),
        ("2-layer (SSI+2PL)", seats::configs::two_layer()),
        (
            "3-layer (SSI+2PL+TSO)",
            seats::configs::three_layer(params.flights.min(16)),
        ),
    ];
    sweep(options, configs, seats_with(params))
}

/// §4.6.3 — the hot_item transaction placed inside the payment/new_order
/// RP group (three layers) or in its own group with RP across (four). The
/// paper reports 16,417 vs. 23,232 txn/sec, ~1.42×.
fn sec_4_6_3(options: &Options) -> Vec<Leg> {
    let params = TpccParams {
        with_hot_item: true,
        ..TpccParams::default()
    };
    let configs = vec![
        (
            "3-layer (hot_item with NO/PAY)",
            tpcc::configs::hot_item_three_layer(),
        ),
        (
            "4-layer (hot_item own group)",
            tpcc::configs::hot_item_four_layer(),
        ),
    ];
    fixed("config", configs, tpcc_with(params), options.pick(8, 32))
}

fn sec_4_6_3_finish(_: &Options, report: Report) -> Report {
    let what = "four-layer vs three-layer (paper: ~1.42x)";
    compare(what, &report.rows[0], &report.rows[1], &[]);
    report
}

/// Figure 4.10 — the two-group microbenchmark at controlled cross-group
/// conflict rates, `rw-*` (second group read-only) and `ww-*`, each with
/// 2PL, SSI and RP across the groups. Expected: SSI wins every `rw-*`
/// workload and loses the `ww-*` ones to RP (medium/high contention) and
/// 2PL (low); no single mechanism wins everywhere.
fn fig_4_10(options: &Options) -> Vec<Leg> {
    let clients = options.pick(8, 24);
    let mut legs = Vec::new();
    for (read_only, kind) in [(true, "rw"), (false, "ww")] {
        for pct in [1u32, 5, 10] {
            for mechanism in [CcKind::TwoPl, CcKind::Ssi, CcKind::Rp] {
                let make = move || CrossGroupMicro::with_conflict_percent(pct as f64, read_only);
                let workload: Make<dyn Workload> = Arc::new(move || Arc::new(make()));
                let label = format!("{kind}-{pct}");
                let spec = make().config(mechanism);
                let mut leg = Leg::new("workload", &label, &workload, spec, clients);
                leg.labels
                    .push(("cross_group", mechanism.name().to_string()));
                legs.push(leg);
            }
        }
    }
    legs
}

fn fig_4_10_finish(_: &Options, report: Report) -> Report {
    report.with(
        "config",
        "two-group microbenchmark, rw/ww conflict sweep x {2PL, SSI, RP}",
    )
}

/// Figure 4.11 — the three-transaction microbenchmark of §4.6.4 where no
/// single cross-group mechanism handles every pair: the three-layer tree
/// should beat the best two-layer grouping (the paper: +63% at peak).
fn fig_4_11(options: &Options) -> Vec<Leg> {
    let workload: Make<dyn Workload> = Arc::new(|| Arc::new(HierarchyMicro::default()));
    sweep(options, HierarchyMicro::configs(), workload)
}

/// Figures 5.11 / 5.13 — automatic configuration on TPC-C from Fig. 5.2's
/// initial tree, against the manual three-layer tree of Fig. 5.12.
fn fig_5_11(options: &Options) -> Autoconf {
    let mut auto = options.pick(AutoConfOptions::quick(), AutoConfOptions::default());
    auto.max_iterations = options.pick(3, 5);
    Autoconf {
        workload: tpcc_with(TpccParams::default()),
        initial: tpcc::configs::autoconf_initial(),
        manual: tpcc::configs::manual_chapter5(),
        final_figure: "Fig. 5.13",
        clients: options.pick(8, 32),
        options: auto,
    }
}

/// Figures 5.14 / 5.16 — the same on SEATS: from the initial tree
/// (read-only transactions separated by SSI, updates under one 2PL group)
/// against the manual three-layer tree with per-flight TSO groups (Fig.
/// 5.15).
fn fig_5_14(options: &Options) -> Autoconf {
    use seats::types::*;
    let params = seats_params(options);
    let mut auto = options.pick(AutoConfOptions::quick(), AutoConfOptions::default());
    auto.optimizer.instance_partitions = params.flights.min(16);
    let updates = vec![
        NEW_RESERVATION,
        DELETE_RESERVATION,
        UPDATE_RESERVATION,
        UPDATE_CUSTOMER,
    ];
    Autoconf {
        workload: seats_with(params),
        initial: CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::Ssi,
            "initial",
            vec![
                CcNodeSpec::leaf(
                    CcKind::NoCc,
                    "read-only",
                    vec![FIND_FLIGHTS, FIND_OPEN_SEATS],
                ),
                CcNodeSpec::leaf(CcKind::TwoPl, "updates", updates),
            ],
        )),
        manual: seats::configs::three_layer(params.flights.min(16)),
        final_figure: "Fig. 5.16",
        clients: options.pick(8, 32),
        options: auto,
    }
}

/// Table 5.1 — the three-layer SEATS tree with one TSO group for every
/// reservation transaction vs. per-flight TSO groups from the
/// partition-by-instance preprocessing (§5.4.2).
fn table_5_1(options: &Options) -> Vec<Leg> {
    let params = seats_params(options);
    let configs = vec![
        (
            "Without partition-by-instance",
            seats::configs::three_layer_single_tso(),
        ),
        (
            "With partition-by-instance",
            seats::configs::three_layer(params.flights.min(16)),
        ),
    ];
    fixed("setting", configs, seats_with(params), options.pick(8, 32))
}

/// Table 5.2 — TPC-C in single-machine settings. The paper compares
/// against MySQL-family databases; this reproduction substitutes monolithic
/// configurations of the same engine, so the comparison keeps its meaning
/// — one conventional concurrency control vs. the federated MCC trees on
/// identical hardware — with every system under test our own code.
fn table_5_2(options: &Options) -> Vec<Leg> {
    use tpcc::configs::*;
    let systems = vec![
        ("Monolithic 2PL (conventional DB)", monolithic_2pl()),
        ("Monolithic SSI (conventional DB)", monolithic_ssi()),
        ("Tebaldi, manual 3-layer MCC", tebaldi_three_layer()),
        ("Tebaldi, initial auto config", autoconf_initial()),
    ];
    // "Single machine": a moderate client count on one process.
    let workload = tpcc_with(TpccParams::default());
    fixed("system", systems, workload, options.pick(8, 16))
}

/// Cluster TPC-C: warehouses per shard (the database scales with the
/// cluster).
const WAREHOUSES_PER_SHARD: u32 = 8;
/// Remote order lines, as in TPC-C.
const REMOTE_LINE_PCT: f64 = 0.01;
/// TPC-C uses 15% remote paying customers; with every remote customer on
/// another shard that leaves ~89% single-shard overall, so the sweep uses
/// 10% to hold the ≥ 90% single-shard mix the scale-out story assumes.
const REMOTE_PAYMENT_PCT: f64 = 0.10;
/// The shard count of the 4-shard comparisons.
const COMPARED_SHARDS: usize = 4;

/// `cluster_tpcc` — TPC-C on 1/2/4/8 shards under monolithic SSI per shard
/// (optimistic CC is the natural partner of cross-shard 2PC: a prepared but
/// undecided transaction blocks no readers while it waits for the
/// decision), warehouses partitioned modulo the shard count. Per shard
/// count: the grouped commit path (flush coalescing, read-only votes,
/// one-phase commits) in process, the same over TCP loopback (the wire
/// cost), and over TCP with one backup per shard and every commit ack
/// gated on the backup's durable ack. Then a read-heavy mix at 4 shards
/// (10/10/50/30 new_order/payment/order_status/stock_level, 30% remote
/// status customers) with reads on the read-only-2PC vote path and on the
/// HLC snapshot path, and the two batch legs. (The retired
/// one-flush-per-record path measured 9.2× the flushes per commit of the
/// grouped path at 4 shards: 9.99 vs 1.09 when group commit came in, 10.02
/// vs 0.90 in its last rows.)
fn cluster_tpcc(options: &Options) -> Vec<ClusterLeg> {
    let tpcc = |shards: usize, mix: Option<Vec<(TxnTypeId, f64)>>, remote_payment: f64| {
        let make: Make<dyn ClusterWorkload> = Arc::new(move || {
            let params = TpccParams {
                warehouses: WAREHOUSES_PER_SHARD * shards as u32,
                ..TpccParams::default()
            };
            let mut tpcc = Tpcc::new(params);
            if let Some(mix) = &mix {
                tpcc = tpcc.with_mix(mix.clone());
            }
            Arc::new(ClusterTpcc::new(tpcc).with_remote_rates(REMOTE_LINE_PCT, remote_payment))
        });
        ClusterLoad::Clients(make)
    };
    let leg = |shards, path, load| {
        let mut leg = ClusterLeg::new(options, shards, tpcc::configs::monolithic_ssi(), load);
        leg.commit_path = Some(path);
        leg.clients = options.pick(8, 32);
        leg.trials = options.pick(1, 3);
        leg
    };
    let mut legs = Vec::new();
    for shards in [1, 2, 4, 8] {
        for (path, transport) in [
            ("grouped", TransportKind::InProcess),
            ("grouped", TransportKind::Tcp),
            ("replicated", TransportKind::Tcp),
        ] {
            let mut leg = leg(shards, path, tpcc(shards, None, REMOTE_PAYMENT_PCT));
            leg.config.transport = transport;
            if path == "replicated" {
                leg.config.replication = Some(ReplicationConfig {
                    replicas: 1,
                    quorum: 1,
                    ack_timeout_ms: 1_000,
                });
            }
            legs.push(leg);
        }
    }
    let read_mix = vec![
        (types::NEW_ORDER, 10.0),
        (types::PAYMENT, 10.0),
        (types::ORDER_STATUS, 50.0),
        (types::STOCK_LEVEL, 30.0),
    ];
    for (path, consistency) in [
        ("read-2pc", ReadConsistency::Strong),
        ("read-snapshot", ReadConsistency::Snapshot),
    ] {
        let load = tpcc(COMPARED_SHARDS, Some(read_mix.clone()), 0.30);
        let mut leg = leg(COMPARED_SHARDS, path, load);
        leg.config.default_read_consistency = consistency;
        legs.push(leg);
    }
    legs.extend(batch_legs(options, true));
    legs
}

/// The scale-out, transport, replication, snapshot-read and batch
/// acceptance printouts of `cluster_tpcc`.
fn cluster_tpcc_finish(_: &Options, report: Report) -> Report {
    let at = COMPARED_SHARDS;
    let find = |shards: usize, path: &str, transport: &str| {
        report.rows.iter().find(|r| {
            num(r, "shards") as usize == shards
                && text(r, "commit_path") == path
                && text(r, "transport") == transport
        })
    };
    let grouped = |shards| find(shards, "grouped", "in-process");
    let tcp = find(at, "grouped", "tcp");

    // More shards must not be slower than one shard on this mix.
    let best = [2, 4, 8]
        .into_iter()
        .filter_map(grouped)
        .max_by(|a, b| num(a, "throughput").total_cmp(&num(b, "throughput")));
    if let (Some(one), Some(best)) = (grouped(1), best) {
        compare("scale-out, best grouped vs 1 shard", one, best, &["shards"]);
    }
    // Transport cost on the grouped path (the table shows where each
    // transport's prepare latency lives: queue-wait vs. hardening).
    if let (Some(inproc), Some(tcp)) = (grouped(at), tcp) {
        let what = format!("transport at {at} shards, tcp vs in-process");
        compare(&what, inproc, tcp, &["messages_sent", "bytes_on_wire"]);
    }
    // Replication cost: the quorum-gated leg vs. the same transport and
    // window without a backup. The acceptance bound is 2x.
    if let (Some(plain), Some(replicated)) = (tcp, find(at, "replicated", "tcp")) {
        let what = format!("replication at {at} shards, quorum-gated vs unreplicated tcp");
        let shown = ["replication_lag", "follower_reads"];
        if compare(&what, plain, replicated, &shown) < 0.5 {
            println!(
                "WARNING: quorum-gated throughput below half the unreplicated tcp leg at {at} shards"
            );
        }
    }
    // On the read-heavy mix the zero-2PC HLC snapshot path must beat the
    // read-only-2PC vote path, and its counters must be live (proof the
    // workload read profiles routed through `ReadConsistency::Snapshot`).
    let read = |path| find(at, path, "in-process");
    if let (Some(vote), Some(snap)) = (read("read-2pc"), read("read-snapshot")) {
        let what = format!("read mix at {at} shards, snapshot vs read-only-2PC");
        let ratio = compare(
            &what,
            vote,
            snap,
            &["snapshot_reads", "snapshot_read_wait_ns"],
        );
        if num(snap, "snapshot_reads") == 0.0 {
            println!("WARNING: snapshot read-mix leg served zero snapshot reads");
        }
        if ratio <= 1.0 {
            println!("WARNING: snapshot reads did not beat the read-only-2PC path at {at} shards");
        }
    }
    compare_batch_legs(&report.rows);
    report
        .with(
            "config",
            "monolithic SSI per shard, modulo warehouse partitioning, sync WAL",
        )
        .with("warehouses_per_shard", WAREHOUSES_PER_SHARD)
        .with("remote_line_pct", REMOTE_LINE_PCT)
        .with("remote_payment_pct", REMOTE_PAYMENT_PCT)
}

/// Cluster SEATS: flights per shard. Few flights per shard keep the
/// paper's hot-flight contention shape — the single-shard configuration is
/// contention-bound, which is exactly what sharding the flight space
/// relieves.
const FLIGHTS_PER_SHARD: u32 = 12;
/// Cluster SEATS: customers per shard.
const CUSTOMERS_PER_SHARD: u32 = 1_000;
/// Reservations for a customer homed on another shard; keeps ~90% of the
/// reservation mix single-shard, mirroring the TPC-C sweep.
const REMOTE_CUSTOMER_PCT: f64 = 0.05;

fn seats_per_flight(options: &Options) -> u32 {
    options.pick(500, 2_000)
}

/// `cluster_seats` — SEATS on 1/2/4/8 shards, the contention shape
/// opposite to TPC-C's: a few hot flight rows absorb most writes, so more
/// shards help twice — they spread the single-shard work *and* multiply
/// the hot set. Flights (and their reservations) are partitioned by flight
/// id and customers live on their home shards, so a reservation for a
/// customer of another shard is a flight part plus a customer part under
/// 2PC. Monolithic SSI per shard for the reason `cluster_tpcc` gives. Per
/// shard count: in process (median of 5) and over TCP loopback (median of
/// 3: the wire column needs stability too, at a smaller share of the
/// runtime); then the two batch legs.
fn cluster_seats(options: &Options) -> Vec<ClusterLeg> {
    let mut legs = Vec::new();
    for shards in [1, 2, 4, 8] {
        let params = SeatsParams {
            flights: FLIGHTS_PER_SHARD * shards as u32,
            seats_per_flight: seats_per_flight(options),
            customers: CUSTOMERS_PER_SHARD * shards as u32,
            open_seat_probes: options.pick(10, 30),
        };
        for (transport, trials) in [
            (TransportKind::InProcess, options.pick(1, 5)),
            (TransportKind::Tcp, options.pick(1, 3)),
        ] {
            let make: Make<dyn ClusterWorkload> = Arc::new(move || {
                Arc::new(
                    ClusterSeats::new(Seats::new(params)).with_remote_rate(REMOTE_CUSTOMER_PCT),
                )
            });
            let spec = seats::configs::monolithic_ssi();
            let mut leg = ClusterLeg::new(options, shards, spec, ClusterLoad::Clients(make));
            leg.config.transport = transport;
            leg.clients = options.pick(8, 32);
            leg.trials = trials;
            legs.push(leg);
        }
    }
    legs.extend(batch_legs(options, false));
    legs
}

/// The scale-out and batch acceptance printouts of `cluster_seats`.
fn cluster_seats_finish(options: &Options, report: Report) -> Report {
    // Four shards must clearly beat one shard on this mix.
    let in_process = |shards| {
        report
            .rows
            .iter()
            .find(|r| num(r, "shards") as usize == shards && text(r, "transport") == "in-process")
    };
    if let (Some(one), Some(four)) = (in_process(1), in_process(COMPARED_SHARDS)) {
        let what = format!("scale-out, {COMPARED_SHARDS} shards vs 1 shard");
        compare(&what, one, four, &["pipeline_depth"]);
    }
    compare_batch_legs(&report.rows);
    report
        .with(
            "config",
            "monolithic SSI per shard, flight/customer partitioning, sync WAL",
        )
        .with("flights_per_shard", FLIGHTS_PER_SHARD)
        .with("seats_per_flight", seats_per_flight(options))
        .with("customers_per_shard", CUSTOMERS_PER_SHARD)
        .with("remote_customer_pct", REMOTE_CUSTOMER_PCT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The distinct key sequences of a set of rows.
    fn key_sets(rows: &[Json]) -> BTreeSet<Vec<String>> {
        rows.iter()
            .map(|row| {
                let fields = row.as_obj().expect("a row is an object");
                fields.iter().map(|(k, _)| k.clone()).collect()
            })
            .collect()
    }

    fn repo_root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    #[test]
    fn experiment_ids_are_unique() {
        let ids: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), EXPERIMENTS.len());
    }

    #[test]
    fn every_experiment_has_a_trajectory_and_every_trajectory_an_experiment() {
        let files: BTreeSet<String> = std::fs::read_dir(repo_root())
            .expect("repo root")
            .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
            .filter_map(|name| {
                Some(
                    name.strip_prefix("BENCH_")?
                        .strip_suffix(".json")?
                        .to_string(),
                )
            })
            .collect();
        let ids: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.id.to_string()).collect();
        assert_eq!(ids, files);
    }

    #[test]
    fn row_builders_emit_the_committed_row_keys() {
        for experiment in &EXPERIMENTS {
            let path = repo_root().join(format!("BENCH_{}.json", experiment.id));
            let text = std::fs::read_to_string(&path).expect("committed trajectory");
            let committed = serde_json::parse(&text).expect("trajectory parses");
            let rows = committed.get("rows").and_then(Json::as_arr).expect("rows");
            assert_eq!(
                key_sets(&experiment.probe()),
                key_sets(rows),
                "{}: row keys differ from the committed file",
                experiment.id
            );
        }
    }

    #[test]
    fn selection_rejects_what_it_cannot_run() {
        let ids = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let json = Options {
            json_path: Some("out.json".into()),
            ..Options::default()
        };
        let seeded = Options {
            seed: Some(7),
            ..Options::default()
        };
        assert_eq!(
            select(&ids(&["all"]), &Options::default()).unwrap().len(),
            18
        );
        assert!(select(&ids(&["fig_4_7_tpcc"]), &json).is_ok());
        assert!(select(&ids(&["fig_4_7_tpcc", "fig_4_8_seats"]), &json).is_err());
        assert!(select(&ids(&["fig_4_7"]), &Options::default()).is_err());
        assert!(select(&ids(&["engine_scaling"]), &seeded).is_ok());
        assert!(select(&ids(&["fig_4_7_tpcc"]), &seeded).is_err());
        assert!(usage().contains("cluster_seats"));
    }
}
