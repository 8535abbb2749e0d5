//! Per-layer metrics: counters the crates export, read at the window's
//! edges and turned into ratios of deltas, plus the numbers derived from
//! the span file.

use crate::harness::{percentile, WindowResult, TYPE_NAMES};
use crate::spans::{mean_over, Span, SpanFile};
use std::collections::{BTreeMap, HashMap};
use tebaldi_cluster::Cluster;
use tebaldi_core::Database;

/// The abort-attribution buckets reported (`CcError::mechanism`, lower
/// case); anything else lands in `other`.
pub const MECHANISMS: [&str; 7] = ["ssi", "2pl", "rp", "tso", "dependency", "engine", "other"];

/// Cumulative counters (`sums`, meaningful as end − start) and
/// point-in-time or high-water values (`gauges`, meaningful at the end).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    pub sums: BTreeMap<String, f64>,
    pub gauges: BTreeMap<String, f64>,
}

impl Counters {
    fn add(&mut self, name: &str, value: u64) {
        *self.sums.entry(name.to_string()).or_default() += value as f64;
    }

    fn gauge_max(&mut self, name: &str, value: u64) {
        let slot = self.gauges.entry(name.to_string()).or_default();
        *slot = slot.max(value as f64);
    }

    fn gauge_add(&mut self, name: &str, value: u64) {
        *self.gauges.entry(name.to_string()).or_default() += value as f64;
    }

    /// Adds one database's engine, store, durability and GC counters.
    pub fn add_database(&mut self, db: &Database) {
        let stats = db.stats();
        self.add("db.committed", stats.committed);
        self.add("db.aborted", stats.aborted);
        for (mechanism, count) in &stats.aborts_by_mechanism {
            let lower = mechanism.to_lowercase();
            let bucket = if MECHANISMS.contains(&lower.as_str()) {
                lower
            } else {
                "other".to_string()
            };
            self.add(&format!("db.aborts.{bucket}"), *count);
        }
        let store = db.store().stats();
        self.gauge_add("store.keys", store.keys as u64);
        self.gauge_add("store.versions", store.versions as u64);
        let (reads, writes) = db.store().access_counts();
        self.add("store.accesses", reads + writes);
        let wal = db.durability().stats();
        self.add("wal.flushes", wal.flushes);
        self.add("wal.coalesced", wal.coalesced);
        self.add(
            "wal.records",
            wal.operations + wal.precommits + wal.prepares + wal.commits,
        );
        let metrics = db.metrics();
        self.add(
            "gc.versions_retired",
            metrics.counter("gc.versions_retired").get(),
        );
        self.gauge_max("gc.epoch_lag", metrics.max_gauge("gc.epoch_lag").get());
    }

    /// Adds the cluster's own counters and its merged metrics snapshot.
    pub fn add_cluster(&mut self, cluster: &Cluster) {
        let stats = cluster.stats();
        self.add("cluster.single_shard", stats.single_shard);
        self.add("cluster.multi_shard", stats.multi_shard);
        self.add("cluster.flushes", stats.flushes);
        self.add("cluster.read_only_votes", stats.read_only_votes);
        self.add("cluster.messages", stats.messages_sent);
        self.add("cluster.wire_bytes", stats.bytes_on_wire);
        self.add("cluster.decision_ack_timeouts", stats.decision_ack_timeouts);
        self.add("coord.committed", stats.coordinator.committed);
        self.add("coord.one_phase", stats.coordinator.one_phase);
        self.gauge_max("pipeline.max_depth", stats.max_pipeline_depth);
        let snapshot = cluster.metrics();
        for name in [
            "pipeline.queued",
            "pipeline.queue_wait_ns",
            "pipeline.hardened",
            "pipeline.hardening_ns",
            "cluster.lock_window_ns",
            "cluster.lock_windows",
            "snapshot.reads",
            "snapshot.read_wait_ns",
            "replication.quorum_waits",
            "replication.quorum_wait_ns",
            "replication.acks_timed_out",
            "replication.shipped_bytes",
        ] {
            self.add(name, snapshot.counter(name).unwrap_or(0));
        }
        self.gauge_max(
            "replication.lag_records",
            snapshot.gauge("replication.lag_records").unwrap_or(0),
        );
        for name in [
            "2pc.prepare_fanout_ns",
            "2pc.vote_collect_ns",
            "2pc.decision_log_ns",
            "2pc.finalize_ns",
            "snapshot.read_ns",
        ] {
            let (count, sum) = snapshot
                .histogram(name)
                .map_or((0, 0), |h| (h.count, h.sum));
            self.add(&format!("{name}.count"), count);
            self.add(&format!("{name}.sum"), sum);
        }
    }

    /// What happened between `earlier` and `self`: sums subtract, gauges
    /// keep the later reading.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            sums: self
                .sums
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.sums.get(k).copied().unwrap_or(0.0)))
                .collect(),
            gauges: self.gauges.clone(),
        }
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// `num / den` over the window, 0 when the denominator did not move.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        ratio(self.sum(num), self.sum(den))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer numbers from the counter deltas of the traced window.
pub fn counter_metrics(delta: &Counters, window: &WindowResult) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));
    let units = window.committed() as f64;

    // cc: engine attempts over every database of the system.
    let committed = delta.sum("db.committed");
    let aborted = delta.sum("db.aborted");
    put("cc.abort_frac", ratio(aborted, committed + aborted));
    for mechanism in MECHANISMS {
        put(
            &format!("cc.aborts_per_kcommit.{mechanism}"),
            1_000.0 * delta.ratio(&format!("db.aborts.{mechanism}"), "db.committed"),
        );
    }

    // storage.
    put(
        "storage.versions_per_key",
        ratio(delta.gauge("store.versions"), delta.gauge("store.keys")),
    );
    put(
        "storage.accesses_per_commit",
        delta.ratio("store.accesses", "db.committed"),
    );
    put(
        "storage.gc.versions_retired_per_commit",
        delta.ratio("gc.versions_retired", "db.committed"),
    );
    put("storage.gc.epoch_lag_max", delta.gauge("gc.epoch_lag"));
    put(
        "storage.wal.flushes_per_commit",
        delta.ratio("wal.flushes", "db.committed"),
    );
    put(
        "storage.wal.coalesced_frac",
        ratio(
            delta.sum("wal.coalesced"),
            delta.sum("wal.coalesced") + delta.sum("wal.flushes"),
        ),
    );
    put(
        "storage.wal.records_per_commit",
        delta.ratio("wal.records", "db.committed"),
    );

    // cluster (all 0 on the single-node workloads).
    let routed = delta.sum("cluster.single_shard") + delta.sum("cluster.multi_shard");
    put(
        "cluster.single_shard_frac",
        ratio(delta.sum("cluster.single_shard"), routed),
    );
    put(
        "cluster.flushes_per_commit",
        delta.ratio("cluster.flushes", "db.committed"),
    );
    put(
        "cluster.msgs_per_txn",
        ratio(delta.sum("cluster.messages"), units),
    );
    put(
        "cluster.wire_bytes_per_txn",
        ratio(delta.sum("cluster.wire_bytes"), units),
    );
    put(
        "cluster.queue_wait_ns",
        delta.ratio("pipeline.queue_wait_ns", "pipeline.queued"),
    );
    put(
        "cluster.hardening_ns",
        delta.ratio("pipeline.hardening_ns", "pipeline.hardened"),
    );
    put(
        "cluster.pipeline_depth_max",
        delta.gauge("pipeline.max_depth"),
    );
    put(
        "cluster.lock_window_ns",
        delta.ratio("cluster.lock_window_ns", "cluster.lock_windows"),
    );
    put(
        "cluster.read_only_vote_frac",
        delta.ratio("cluster.read_only_votes", "cluster.multi_shard"),
    );
    put(
        "cluster.one_phase_frac",
        delta.ratio("coord.one_phase", "coord.committed"),
    );
    for phase in ["prepare_fanout", "vote_collect", "decision_log", "finalize"] {
        put(
            &format!("cluster.2pc.{phase}_ns"),
            delta.ratio(
                &format!("2pc.{phase}_ns.sum"),
                &format!("2pc.{phase}_ns.count"),
            ),
        );
    }
    put(
        "cluster.decision_ack_timeouts",
        delta.sum("cluster.decision_ack_timeouts"),
    );
    put(
        "cluster.repl.quorum_wait_ns",
        delta.ratio("replication.quorum_wait_ns", "replication.quorum_waits"),
    );
    put(
        "cluster.repl.lag_records_max",
        delta.gauge("replication.lag_records"),
    );
    put(
        "cluster.repl.acks_timed_out",
        delta.sum("replication.acks_timed_out"),
    );
    put(
        "cluster.repl.shipped_bytes_per_commit",
        delta.ratio("replication.shipped_bytes", "db.committed"),
    );
    put(
        "cluster.snapshot.reads_per_txn",
        ratio(delta.sum("snapshot.reads"), units),
    );
    put(
        "cluster.snapshot.read_wait_ns",
        delta.ratio("snapshot.read_wait_ns", "snapshot.reads"),
    );
    put(
        "cluster.snapshot.read_ns",
        delta.ratio("snapshot.read_ns.sum", "snapshot.read_ns.count"),
    );
    out
}

/// Committed share and median latency per transaction type, from every
/// unit of the window (a "gain" that is a shift of the mix shows here).
pub fn mix_metrics(window: &WindowResult) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let committed = window.committed() as f64;
    for (index, name) in TYPE_NAMES.iter().enumerate() {
        let mut latencies: Vec<u64> = window
            .units
            .iter()
            .filter(|u| u.committed && u.ty as usize == index)
            .map(|u| u.latency_ns)
            .collect();
        out.push((
            format!("workloads.share.{name}"),
            ratio(latencies.len() as f64, committed),
        ));
        out.push((
            format!("workloads.p50_ms.{name}"),
            percentile(&mut latencies, 0.5) as f64 / 1e6,
        ));
    }
    out
}

/// Per-layer numbers computed from the span file of the traced pass.
pub fn span_metrics(file: &SpanFile) -> Vec<(String, f64)> {
    let spans = &file.spans;
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let units = spans.iter().filter(|s| s.name == "unit").count() as f64;
    let attempts = spans.iter().filter(|s| s.name == "attempt").count() as f64;
    // A body's attempt is its parent; the time the attempt spends before
    // the body is begin (first attempt) or abort clean-up + back-off + begin
    // (later ones), the time after it validation + dependency wait + commit.
    let before_body = |first: bool| {
        mean_over(spans, |s| {
            let attempt = by_id.get(&s.parent)?;
            (s.name == "body" && (s.attempt == 0) == first)
                .then(|| s.start_ns.saturating_sub(attempt.start_ns))
        })
    };
    let after_body = |s: &Span| {
        let attempt = by_id.get(&s.parent)?;
        (s.name == "body" && attempt.status == "ok")
            .then(|| attempt.end_ns.saturating_sub(s.end_ns))
    };
    let duration_of = |name: &'static str| move |s: &Span| (s.name == name).then(|| s.duration());
    let p99_of = |f: &dyn Fn(&Span) -> Option<u64>| {
        let mut samples: Vec<u64> = spans.iter().filter_map(f).collect();
        percentile(&mut samples, 0.99) as f64
    };
    vec![
        (
            "workloads.gen_ns".into(),
            mean_over(spans, duration_of("gen")),
        ),
        (
            "core.attempts_per_unit".into(),
            if attempts == 0.0 {
                0.0
            } else {
                attempts / units
            },
        ),
        ("core.begin_ns".into(), before_body(true)),
        ("core.retry_gap_ns".into(), before_body(false)),
        ("core.body_ns".into(), mean_over(spans, duration_of("body"))),
        ("core.body_p99_ns".into(), p99_of(&duration_of("body"))),
        ("core.commit_ns".into(), mean_over(spans, after_body)),
        ("core.commit_p99_ns".into(), p99_of(&after_body)),
        (
            "cluster.execute_ns".into(),
            mean_over(spans, duration_of("shard.execute")),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Boundary, UnitRec};
    use std::borrow::Cow;

    fn counters(pairs: &[(&str, f64)], gauges: &[(&str, f64)]) -> Counters {
        Counters {
            sums: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            gauges: gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    fn window(units: Vec<UnitRec>) -> WindowResult {
        WindowResult {
            start: Boundary {
                at_ns: 0,
                cpu_ms: 100.0,
            },
            end: Boundary {
                at_ns: 2_000_000_000,
                cpu_ms: 1_100.0,
            },
            units,
            stuck: 0,
        }
    }

    #[test]
    fn deltas_subtract_sums_and_keep_the_later_gauge() {
        let start = counters(
            &[
                ("db.committed", 100.0),
                ("db.aborted", 10.0),
                ("wal.flushes", 40.0),
            ],
            &[("store.keys", 10.0), ("store.versions", 10.0)],
        );
        let end = counters(
            &[
                ("db.committed", 1_100.0),
                ("db.aborted", 260.0),
                ("db.aborts.ssi", 250.0),
                ("wal.flushes", 540.0),
                ("wal.coalesced", 1_500.0),
            ],
            &[("store.keys", 20.0), ("store.versions", 50.0)],
        );
        let delta = end.since(&start);
        assert_eq!(delta.sum("db.committed"), 1_000.0);
        // A counter that first appears inside the window starts from 0.
        assert_eq!(delta.sum("db.aborts.ssi"), 250.0);
        assert_eq!(delta.gauge("store.versions"), 50.0);
        assert_eq!(delta.ratio("wal.flushes", "db.committed"), 0.5);
        assert_eq!(delta.ratio("wal.flushes", "no.such.counter"), 0.0);

        let w = window(vec![
            UnitRec {
                start_ns: 0,
                latency_ns: 1_000_000,
                ty: 0,
                committed: true,
            };
            500
        ]);
        let metrics: BTreeMap<String, f64> = counter_metrics(&delta, &w).into_iter().collect();
        assert_eq!(metrics["cc.abort_frac"], 0.2);
        assert_eq!(metrics["cc.aborts_per_kcommit.ssi"], 250.0);
        assert_eq!(metrics["cc.aborts_per_kcommit.2pl"], 0.0);
        assert_eq!(metrics["storage.versions_per_key"], 2.5);
        assert_eq!(metrics["storage.wal.flushes_per_commit"], 0.5);
        assert_eq!(metrics["storage.wal.coalesced_frac"], 0.75);
        assert_eq!(metrics["cluster.msgs_per_txn"], 0.0);
        // The window itself: 500 commits in 2 s on 1000 ms of CPU.
        assert_eq!(w.tps(), 250.0);
        assert_eq!(w.cpu_ms_per_txn(), 2.0);
    }

    #[test]
    fn mix_is_share_of_commits_by_type() {
        let mut units = vec![
            UnitRec {
                start_ns: 0,
                latency_ns: 2_000_000,
                ty: 0,
                committed: true,
            };
            3
        ];
        units.push(UnitRec {
            start_ns: 0,
            latency_ns: 4_000_000,
            ty: 1,
            committed: true,
        });
        units.push(UnitRec {
            start_ns: 0,
            latency_ns: 9_000_000,
            ty: 1,
            committed: false,
        });
        let metrics: BTreeMap<String, f64> = mix_metrics(&window(units)).into_iter().collect();
        assert_eq!(metrics["workloads.share.new_order"], 0.75);
        assert_eq!(metrics["workloads.share.payment"], 0.25);
        assert_eq!(metrics["workloads.p50_ms.payment"], 4.0);
        assert_eq!(metrics["workloads.p50_ms.delivery"], 0.0);
    }

    fn span(
        id: u64,
        parent: u64,
        name: &'static str,
        attempt: u32,
        start: u64,
        end: u64,
        ok: bool,
    ) -> Span {
        Span {
            id,
            parent,
            unit: 1,
            name: Cow::Borrowed(name),
            ty: Cow::Borrowed("payment"),
            attempt,
            start_ns: start,
            end_ns: end,
            status: Cow::Borrowed(if ok { "ok" } else { "failed" }),
        }
    }

    #[test]
    fn core_phases_come_from_the_unit_attempt_body_tree() {
        // One unit, two attempts: begin 10, body 30, (failed) gap 25,
        // body 40, commit 15.
        let file = SpanFile {
            spans: vec![
                span(1, 0, "unit", 0, 0, 125, true),
                span(2, 1, "gen", 0, 0, 5, true),
                span(3, 1, "attempt", 0, 5, 45, false),
                span(4, 3, "body", 0, 15, 45, false),
                span(5, 1, "attempt", 1, 45, 125, true),
                span(6, 5, "body", 1, 70, 110, true),
            ],
            ..SpanFile::default()
        };
        let metrics: BTreeMap<String, f64> = span_metrics(&file).into_iter().collect();
        assert_eq!(metrics["workloads.gen_ns"], 5.0);
        assert_eq!(metrics["core.attempts_per_unit"], 2.0);
        assert_eq!(metrics["core.begin_ns"], 10.0);
        assert_eq!(metrics["core.retry_gap_ns"], 25.0);
        assert_eq!(metrics["core.body_ns"], 35.0);
        assert_eq!(metrics["core.body_p99_ns"], 40.0);
        assert_eq!(metrics["core.commit_ns"], 15.0);
        assert_eq!(metrics["cluster.execute_ns"], 0.0);
    }
}
