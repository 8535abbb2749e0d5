//! The metric registry (name, unit, direction, bound, source), the JSON
//! the benchmark prints, and the comparison of two result files.

use crate::sut::WORKLOADS;
use serde::Json;

/// Measured seconds of one run (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// Which way a metric gets better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric the benchmark prints.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change counts as a regression (0 for per-layer
    /// metrics, which are not gated).
    pub bound: f64,
    /// Where the number comes from.
    pub source: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    source: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        source,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        source,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, measured with tracing off.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("tps", "1/s", Higher, 0.25, "committed units started in the window / window length"),
    e2e("p50_ms", "ms", Lower, 0.25, "median unit latency, retries included, failed units ranked slowest"),
    e2e("p99_ms", "ms", Lower, 0.25, "99th percentile unit latency, same ranking"),
    e2e("commit_frac", "ratio", Higher, 0.01, "1 - failed_frac: committed units / units started (gave up after 200 attempts or stuck after the 5 s drain count as failed)"),
    e2e("cpu_ms_per_txn", "ms", Lower, 0.25, "process utime+stime over the window (/proc/self/stat) / committed units"),
    e2e("setup_s", "s", Lower, 0.25, "median of 21 x (build the system + load TPC-C)"),
];

/// The per-layer metrics, measured in the traced pass and the ladder. A
/// workload prints 0 for a layer that is not on its path.
pub const PER_LAYER: [MetricDef; 90] = [
    layer("workloads.gen_ns", "ns", Lower, "span gen: harness input generation per unit (0 on cluster workloads: ClusterTpcc::run_once generates inside the call)"),
    layer("workloads.share.new_order", "ratio", Higher, "committed share by type over all units of the traced window"),
    layer("workloads.share.payment", "ratio", Higher, "as above"),
    layer("workloads.share.delivery", "ratio", Higher, "as above"),
    layer("workloads.share.order_status", "ratio", Higher, "as above"),
    layer("workloads.share.stock_level", "ratio", Higher, "as above"),
    layer("workloads.p50_ms.new_order", "ms", Lower, "median committed unit latency by type"),
    layer("workloads.p50_ms.payment", "ms", Lower, "as above"),
    layer("workloads.p50_ms.delivery", "ms", Lower, "as above"),
    layer("workloads.p50_ms.order_status", "ms", Lower, "as above"),
    layer("workloads.p50_ms.stock_level", "ms", Lower, "as above"),
    layer("workloads.trace_overhead_frac", "ratio", Lower, "1 - traced-pass tps / untraced reference-pass tps (same process, fresh system each)"),
    layer("core.attempts_per_unit", "count", Lower, "attempt spans / unit spans (Database::execute_with_retry)"),
    layer("core.begin_ns", "ns", Lower, "call -> first body entry: gate + registry + mechanism begin"),
    layer("core.body_ns", "ns", Lower, "mean body span: per-operation CC + storage work incl. lock/promise waits"),
    layer("core.body_p99_ns", "ns", Lower, "p99 body span"),
    layer("core.commit_ns", "ns", Lower, "last body exit -> return of a committed unit: validate + dependency wait + commit"),
    layer("core.commit_p99_ns", "ns", Lower, "p99 of the same"),
    layer("core.retry_gap_ns", "ns", Lower, "failed body exit -> next body entry: abort clean-up + back-off + begin"),
    layer("core.hlc_now_ns", "ns", Lower, "probe: Hlc::now"),
    layer("cc.abort_frac", "ratio", Lower, "Database::stats aborted / (committed + aborted), summed over shards"),
    layer("cc.aborts_per_kcommit.ssi", "count", Lower, "Database::stats aborts_by_mechanism per 1000 engine commits"),
    layer("cc.aborts_per_kcommit.2pl", "count", Lower, "as above"),
    layer("cc.aborts_per_kcommit.rp", "count", Lower, "as above"),
    layer("cc.aborts_per_kcommit.tso", "count", Lower, "as above"),
    layer("cc.aborts_per_kcommit.dependency", "count", Lower, "as above"),
    layer("cc.aborts_per_kcommit.engine", "count", Lower, "as above"),
    layer("cc.aborts_per_kcommit.other", "count", Lower, "as above (registry, internal, unreachable)"),
    layer("cc.lock_acquire_release_ns", "ns", Lower, "probe: LockManager::acquire + release_all, uncontended"),
    layer("storage.versions_per_key", "count", Lower, "MvStore::stats versions / keys at the end of the traced window"),
    layer("storage.uncommitted_end", "count", Lower, "MvStore::stats uncommitted after the drain (must be 0)"),
    layer("storage.accesses_per_commit", "count", Lower, "MvStore::access_counts reads + writes per engine commit"),
    layer("storage.chain_len_p99", "count", Lower, "p99 over keys of ChainRead::len after the traced pass (MvStore::for_each_key)"),
    layer("storage.gc.versions_retired_per_commit", "count", Higher, "obs counter gc.versions_retired per engine commit"),
    layer("storage.gc.epoch_lag_max", "count", Lower, "obs max-gauge gc.epoch_lag"),
    layer("storage.rss_peak_mb", "MiB", Lower, "VmHWM of the traced child process (/proc/self/status)"),
    layer("storage.wal.flushes_per_commit", "count", Lower, "DurabilityManager::stats flushes per engine commit"),
    layer("storage.wal.coalesced_frac", "ratio", Higher, "DurabilityManager::stats coalesced / (coalesced + flushes)"),
    layer("storage.wal.records_per_commit", "count", Lower, "DurabilityManager::stats operation+precommit+prepare+commit records per engine commit"),
    layer("storage.chain_read_ns", "ns", Lower, "probe: MvStore::read of a 1-version chain"),
    layer("storage.chain_read_deep_ns", "ns", Lower, "probe: MvStore::read at an old snapshot of a 64-deep chain"),
    layer("storage.wal_append_flush_ns", "ns", Lower, "probe: GroupCommit::append_durable, 20 us flush"),
    layer("storage.codec_value_ns", "ns", Lower, "probe: ByteWriter::put_value + ByteReader::value"),
    layer("cluster.single_shard_frac", "ratio", Higher, "ClusterStats single_shard / (single_shard + multi_shard)"),
    layer("cluster.flushes_per_commit", "count", Lower, "ClusterStats flushes (shard WALs + decision log) per engine commit"),
    layer("cluster.msgs_per_txn", "count", Lower, "ClusterStats messages_sent per committed unit"),
    layer("cluster.wire_bytes_per_txn", "B", Lower, "ClusterStats bytes_on_wire per committed unit"),
    layer("cluster.queue_wait_ns", "ns", Lower, "Cluster::metrics pipeline.queue_wait_ns / pipeline.queued"),
    layer("cluster.execute_ns", "ns", Lower, "mean of the program's sampled shard.execute spans (tebaldi_obs::collect)"),
    layer("cluster.hardening_ns", "ns", Lower, "Cluster::metrics pipeline.hardening_ns / pipeline.hardened"),
    layer("cluster.pipeline_depth_max", "count", Higher, "ClusterStats max_pipeline_depth"),
    layer("cluster.lock_window_ns", "ns", Lower, "Cluster::metrics cluster.lock_window_ns / cluster.lock_windows"),
    layer("cluster.read_only_vote_frac", "ratio", Higher, "ClusterStats read_only_votes / multi_shard"),
    layer("cluster.one_phase_frac", "ratio", Higher, "CoordinatorStats one_phase / committed"),
    layer("cluster.2pc.prepare_fanout_ns", "ns", Lower, "Cluster::metrics histogram 2pc.prepare_fanout_ns, mean over the window"),
    layer("cluster.2pc.vote_collect_ns", "ns", Lower, "histogram 2pc.vote_collect_ns"),
    layer("cluster.2pc.decision_log_ns", "ns", Lower, "histogram 2pc.decision_log_ns"),
    layer("cluster.2pc.finalize_ns", "ns", Lower, "histogram 2pc.finalize_ns"),
    layer("cluster.decision_ack_timeouts", "count", Lower, "ClusterStats decision_ack_timeouts"),
    layer("cluster.repl.quorum_wait_ns", "ns", Lower, "Cluster::metrics replication.quorum_wait_ns / quorum_waits"),
    layer("cluster.repl.lag_records_max", "count", Lower, "Cluster::metrics max-gauge replication.lag_records"),
    layer("cluster.repl.acks_timed_out", "count", Lower, "Cluster::metrics replication.acks_timed_out"),
    layer("cluster.repl.shipped_bytes_per_commit", "B", Lower, "Cluster::metrics replication.shipped_bytes per engine commit"),
    layer("cluster.snapshot.reads_per_txn", "count", Lower, "Cluster::metrics snapshot.reads (shard-side snapshot reads) per committed unit"),
    layer("cluster.snapshot.read_wait_ns", "ns", Lower, "Cluster::metrics snapshot.read_wait_ns / snapshot.reads"),
    layer("cluster.snapshot.read_ns", "ns", Lower, "Cluster::metrics histogram snapshot.read_ns"),
    layer("cluster.wire_codec_ns", "ns", Lower, "probe: encode+decode of one Execute request and its result"),
    layer("cluster.frame_roundtrip_ns", "ns", Lower, "probe: write_frame/read_frame echo over a loopback TCP pair"),
    layer("obs.histogram_record_ns", "ns", Lower, "probe: Histogram::record"),
    layer("ladder.store_ns", "ns", Lower, "rung: MvStore read + write + commit_writes"),
    layer("ladder.db_nocc_ns", "ns", Lower, "rung: Database::execute, monolithic NoCC"),
    layer("ladder.db_2pl_ns", "ns", Lower, "rung: Database::execute, monolithic 2PL"),
    layer("ladder.db_ssi_ns", "ns", Lower, "rung: Database::execute, monolithic SSI"),
    layer("ladder.db_rp_ns", "ns", Lower, "rung: Database::execute, monolithic RP"),
    layer("ladder.db_tso_ns", "ns", Lower, "rung: Database::execute, monolithic TSO"),
    layer("ladder.db_tree2_ns", "ns", Lower, "rung: Database::execute, 2-layer tree"),
    layer("ladder.db_tree3_ns", "ns", Lower, "rung: Database::execute, 3-layer tree"),
    layer("ladder.db_ssi_wal_ns", "ns", Lower, "rung: SSI + synchronous WAL, 20 us flush"),
    layer("ladder.cluster_inproc_ns", "ns", Lower, "rung: 1-shard Cluster::execute_single(KV_INCREMENT), in process"),
    layer("ladder.cluster_tcp_ns", "ns", Lower, "rung: the same over TCP loopback"),
    layer("ladder.cluster_tcp_repl_ns", "ns", Lower, "rung: the same over TCP with one quorum backup"),
    layer("ladder.cluster_2pc_inproc_ns", "ns", Lower, "rung: 2-shard 2-part transfer through Cluster::execute_multi, in process"),
    layer("ladder.cluster_2pc_tcp_ns", "ns", Lower, "rung: the same over TCP"),
    layer("ladder.cluster_snapshot_read_ns", "ns", Lower, "rung: 2-key cross-shard Cluster::execute_read(Snapshot)"),
    layer("ladder.cluster_strong_read_ns", "ns", Lower, "rung: the same with ReadConsistency::Strong"),
    layer("ratio.ladder_tcp_over_inproc", "ratio", Lower, "ladder.cluster_tcp_ns / ladder.cluster_inproc_ns"),
    layer("ratio.ladder_repl_over_tcp", "ratio", Lower, "ladder.cluster_tcp_repl_ns / ladder.cluster_tcp_ns"),
    layer("ratio.ladder_tree2_over_ssi", "ratio", Lower, "ladder.db_tree2_ns / ladder.db_ssi_ns"),
    layer("ratio.ladder_tree3_over_ssi", "ratio", Lower, "ladder.db_tree3_ns / ladder.db_ssi_ns"),
    layer("ratio.ladder_snapshot_over_strong_read", "ratio", Lower, "ladder.cluster_snapshot_read_ns / ladder.cluster_strong_read_ns"),
];

/// Ratios of `tps` between workloads: only the full command, which runs
/// them all, can print these. `(name, numerator, denominator, both gated)`;
/// `--agree` compares only ratios of gated workloads.
pub const CROSS_WORKLOAD_RATIOS: [(&str, &str, &str, bool); 5] = [
    (
        "ratio.hot_tree3_over_hot_ssi",
        "tpcc_hot_tree3",
        "tpcc_hot_ssi",
        false,
    ),
    (
        "ratio.hot_tree2_over_hot_ssi",
        "tpcc_hot_tree2",
        "tpcc_hot_ssi",
        false,
    ),
    (
        "ratio.tcp_over_inproc",
        "cluster_tcp",
        "cluster_inproc",
        false,
    ),
    (
        "ratio.tcp_repl_over_tcp",
        "cluster_tcp_repl",
        "cluster_tcp",
        false,
    ),
    (
        "ratio.tcp_repl_over_inproc",
        "cluster_tcp_repl",
        "cluster_inproc",
        true,
    ),
];

/// The ratios `--agree` compares: between ladder rungs and between gated
/// workloads.
fn agreed_ratios() -> impl Iterator<Item = &'static str> {
    PER_LAYER
        .iter()
        .map(|d| d.name)
        .filter(|n| n.starts_with("ratio."))
        .chain(CROSS_WORKLOAD_RATIOS.iter().filter(|r| r.3).map(|r| r.0))
}

/// Two ratios of the same code may differ by this share before `--agree`
/// fails.
pub const RATIO_TOLERANCE: f64 = 0.15;

/// Median and spread of each end-to-end metric when the bounds were fixed:
/// ten runs on ten seeds, `--seconds 20`, the five workloads taking turns, on
/// the 2-core reference box; the spread is the inter-quartile range as a
/// share of the median.
/// `commit_frac` was 1 on every run. `(workload, metric, median, spread)`.
pub const CALIBRATION: &[(&str, &str, f64, f64)] = &[
    ("tpcc_ssi", "tps", 7745.415, 0.0604),
    ("tpcc_ssi", "p50_ms", 0.0845, 0.0459),
    ("tpcc_ssi", "p99_ms", 2.4043, 0.0762),
    ("tpcc_ssi", "cpu_ms_per_txn", 0.1944, 0.0498),
    ("tpcc_ssi", "setup_s", 0.0188, 0.0632),
    ("tpcc_hot_ssi", "tps", 6854.7355, 0.039),
    ("tpcc_hot_ssi", "p50_ms", 0.07, 0.0301),
    ("tpcc_hot_ssi", "p99_ms", 8.2482, 0.0769),
    ("tpcc_hot_ssi", "cpu_ms_per_txn", 0.2114, 0.0288),
    ("tpcc_hot_ssi", "setup_s", 0.0067, 0.0883),
    ("cluster_inproc", "tps", 8931.4885, 0.0844),
    ("cluster_inproc", "p50_ms", 0.1531, 0.0694),
    ("cluster_inproc", "p99_ms", 4.1652, 0.0995),
    ("cluster_inproc", "cpu_ms_per_txn", 0.1894, 0.0845),
    ("cluster_inproc", "setup_s", 0.0402, 0.0952),
    ("cluster_tcp_repl", "tps", 722.7437, 0.092),
    ("cluster_tcp_repl", "p50_ms", 1.0693, 0.1001),
    ("cluster_tcp_repl", "p99_ms", 44.9758, 0.0041),
    ("cluster_tcp_repl", "cpu_ms_per_txn", 0.3148, 0.121),
    ("cluster_tcp_repl", "setup_s", 0.0429, 0.1228),
    ("cluster_readmix_snap", "tps", 18473.7196, 0.0366),
    ("cluster_readmix_snap", "p50_ms", 0.0603, 0.0136),
    ("cluster_readmix_snap", "p99_ms", 2.2733, 0.0485),
    ("cluster_readmix_snap", "cpu_ms_per_txn", 0.102, 0.0341),
    ("cluster_readmix_snap", "setup_s", 0.0401, 0.0914),
];

pub fn calibration_json() -> Json {
    Json::Arr(
        CALIBRATION
            .iter()
            .map(|(workload, metric, median, spread)| {
                obj(vec![
                    ("workload", string(workload)),
                    ("metric", string(metric)),
                    ("median", Json::F(*median)),
                    ("iqr_over_median", Json::F(*spread)),
                ])
            })
            .collect(),
    )
}

pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn string(s: &str) -> Json {
    Json::Str(s.to_string())
}

fn metric_value(def: &MetricDef, value: f64) -> Json {
    obj(vec![("value", Json::F(value)), ("unit", string(def.unit))])
}

/// The `metrics` object: every metric of `defs`, 0 where `values` has none.
pub fn metrics_json(defs: &[MetricDef], values: &[(String, f64)]) -> Json {
    Json::Obj(
        defs.iter()
            .map(|def| {
                let value = values
                    .iter()
                    .find(|(name, _)| name == def.name)
                    .map_or(0.0, |(_, v)| *v);
                (def.name.to_string(), metric_value(def, value))
            })
            .collect(),
    )
}

/// The one line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`. A run whose state check failed prints no line at all, so
/// a line is always a correct run.
pub fn result_line(attempted: u64, failed: u64, metrics: Json) -> String {
    let line = obj(vec![
        ("correct", Json::Bool(true)),
        ("attempted", Json::U(attempted.max(1) as u128)),
        ("failed", Json::U(failed as u128)),
        ("metrics", metrics),
    ]);
    serde_json::to_string(&line).unwrap_or_default()
}

/// `BENCHMARK.json`, generated from the registry so the two cannot drift.
pub fn benchmark_json() -> String {
    let defs = |defs: &[MetricDef], bounded: bool| {
        Json::Arr(
            defs.iter()
                .map(|d| {
                    let mut fields = vec![
                        ("name", string(d.name)),
                        ("unit", string(d.unit)),
                        ("better", string(d.better.as_str())),
                    ];
                    if bounded {
                        fields.push(("bound", Json::F(d.bound)));
                    }
                    obj(fields)
                })
                .collect(),
        )
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let json = obj(vec![
        (
            "command",
            Json::Arr(command.iter().map(|s| string(s)).collect()),
        ),
        ("paths", Json::Arr(vec![string("benchmark")])),
        ("run_seconds", Json::U(RUN_SECONDS as u128)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
                        obj(vec![("name", string(w.name)), ("why", string(&why))])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", defs(&END_TO_END, true)),
        ("per_layer", defs(&PER_LAYER, false)),
    ]);
    serde_json::to_string_pretty(&json).unwrap_or_default() + "\n"
}

/// The metric glossary of the README, as a markdown table.
pub fn glossary_markdown() -> String {
    let mut out =
        String::from("| metric | unit | better | bound | source |\n|---|---|---|---|---|\n");
    for (def, gated) in END_TO_END
        .iter()
        .map(|d| (d, true))
        .chain(PER_LAYER.iter().map(|d| (d, false)))
    {
        let bound = if gated {
            format!("{} %", def.bound * 100.0)
        } else {
            "-".to_string()
        };
        out += &format!(
            "| `{}` | {} | {} | {} | {} |\n",
            def.name,
            def.unit,
            def.better.as_str(),
            bound,
            def.source
        );
    }
    out
}

fn number(json: &Json) -> Option<f64> {
    match json {
        Json::F(v) => Some(*v),
        Json::U(v) => Some(*v as f64),
        Json::I(v) => Some(*v as f64),
        _ => None,
    }
}

/// `result.workloads.<workload>.<section>.<metric>.value` of a result file.
fn result_value(result: &Json, workload: &str, section: &str, metric: &str) -> Option<f64> {
    result
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?
        .get("value")
        .and_then(number)
}

fn relative_difference(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs().max(b.abs())
    }
}

/// Compares result files of the same code pairwise against the first:
/// every (workload, end-to-end metric) pair must agree within the metric's
/// bound and every ratio within [`RATIO_TOLERANCE`]. Returns one line per
/// disagreement.
pub fn disagreements(results: &[Json]) -> Vec<String> {
    let mut out = Vec::new();
    let Some((first, rest)) = results.split_first() else {
        return out;
    };
    for (index, other) in rest.iter().enumerate() {
        let mut compare = |what: String, a: Option<f64>, b: Option<f64>, bound: f64| match (a, b) {
            (Some(a), Some(b)) => {
                let diff = relative_difference(a, b);
                if diff > bound {
                    out.push(format!(
                        "{what}: {a} in run 1, {b} in run {}: differ by {:.1} % > {:.1} %",
                        index + 2,
                        diff * 100.0,
                        bound * 100.0
                    ));
                }
            }
            _ => out.push(format!("{what}: missing in run 1 or run {}", index + 2)),
        };
        for workload in &WORKLOADS {
            for def in &END_TO_END {
                compare(
                    format!("{} {}", workload.name, def.name),
                    result_value(first, workload.name, "end_to_end", def.name),
                    result_value(other, workload.name, "end_to_end", def.name),
                    def.bound,
                );
            }
        }
        let ratio = |result: &Json, name: &str| {
            result
                .get("ratios")?
                .get(name)?
                .get("value")
                .and_then(number)
        };
        for name in agreed_ratios() {
            compare(
                name.to_string(),
                ratio(first, name),
                ratio(other, name),
                RATIO_TOLERANCE,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = BTreeSet::new();
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(def.name), "{}", def.name);
            assert!(seen.insert(def.name), "{} used twice", def.name);
            assert!(
                def.unit.len() <= 16
                    && def
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                def.unit
            );
        }
        for def in &END_TO_END {
            assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        for w in &WORKLOADS {
            assert!(ok_name(w.name) && seen.insert(w.name));
            let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(why.len() <= 200, "{}: {}", w.name, why.len());
        }
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        // Not assert_eq: the two documents are long.
        assert!(
            committed == benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with --print-benchmark-json"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    fn result(tps: f64, ratio: f64) -> Json {
        let workloads = WORKLOADS
            .iter()
            .map(|w| {
                let metrics = END_TO_END
                    .iter()
                    .map(|d| {
                        (
                            d.name.to_string(),
                            metric_value(d, if d.name == "tps" { tps } else { 1.0 }),
                        )
                    })
                    .collect();
                (
                    w.name.to_string(),
                    obj(vec![("end_to_end", Json::Obj(metrics))]),
                )
            })
            .collect();
        let ratios = agreed_ratios()
            .map(|n| (n.to_string(), obj(vec![("value", Json::F(ratio))])))
            .collect();
        obj(vec![
            ("workloads", Json::Obj(workloads)),
            ("ratios", Json::Obj(ratios)),
        ])
    }

    #[test]
    fn agreement_is_judged_by_each_metrics_own_bound() {
        assert!(disagreements(&[result(1000.0, 2.0), result(1050.0, 2.2)]).is_empty());
        // tps 30 % apart: one complaint per workload; ratios 25 % apart:
        // one per ratio.
        let lines = disagreements(&[result(1000.0, 2.0), result(700.0, 2.0), result(1000.0, 1.5)]);
        assert_eq!(
            lines.iter().filter(|l| l.contains(" tps")).count(),
            WORKLOADS.len()
        );
        assert_eq!(
            lines.iter().filter(|l| l.starts_with("ratio.")).count(),
            agreed_ratios().count()
        );
        assert!(lines
            .iter()
            .all(|l| l.contains("run 2") == l.contains(" tps")));
        // A metric missing from one file is a disagreement, not a pass.
        let lines = disagreements(&[result(1.0, 1.0), obj(vec![])]);
        assert_eq!(
            lines.len(),
            WORKLOADS.len() * END_TO_END.len() + agreed_ratios().count()
        );
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let metrics = metrics_json(&END_TO_END, &[("tps".to_string(), 1234.5678)]);
        let line = result_line(0, 0, metrics);
        let json = serde_json::parse(&line).unwrap();
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("attempted"), Some(&Json::U(1)));
        let tps = json.get("metrics").unwrap().get("tps").unwrap();
        assert_eq!(tps.get("value").and_then(number), Some(1234.5678));
        assert_eq!(tps.get("unit").and_then(Json::as_str), Some("1/s"));
        assert_eq!(
            json.get("metrics").unwrap().as_obj().unwrap().len(),
            END_TO_END.len()
        );
    }
}
