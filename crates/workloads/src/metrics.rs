//! Benchmark metrics.
//!
//! The paper reports throughput (committed transactions per second),
//! per-transaction-type latency, and abort behaviour, all measured at the
//! closed-loop clients (§4.6). The driver records latencies per type into
//! the shared log-bucketed [`Histogram`](tebaldi_obs::Histogram) from
//! `tebaldi-obs` — the same instrument the engine uses internally — so
//! memory stays fixed regardless of run length and percentiles match the
//! engine's own exposition (~1.6% relative bucket error; count, mean, and
//! max are exact). [`BenchResult`] is the merged, printable outcome of one
//! benchmark run.

use serde::Serialize;
use std::collections::HashMap;
use tebaldi_obs::HistogramSnapshot;

const NS_PER_MS: f64 = 1e6;

/// Per-type latency statistics.
#[derive(Clone, Debug, Default, Serialize)]
pub struct LatencyStats {
    /// Number of committed transactions measured.
    pub count: u64,
    /// Mean latency in milliseconds (exact).
    pub mean_ms: f64,
    /// 50th percentile latency in milliseconds.
    pub p50_ms: f64,
    /// 95th percentile latency in milliseconds.
    pub p95_ms: f64,
    /// 99th percentile latency in milliseconds.
    pub p99_ms: f64,
    /// Maximum observed latency in milliseconds (exact).
    pub max_ms: f64,
}

impl LatencyStats {
    /// Statistics from a histogram of nanosecond samples.
    pub fn from_snapshot(snap: &HistogramSnapshot) -> Self {
        LatencyStats {
            count: snap.count,
            mean_ms: snap.mean() / NS_PER_MS,
            p50_ms: snap.p50() as f64 / NS_PER_MS,
            p95_ms: snap.p95() as f64 / NS_PER_MS,
            p99_ms: snap.p99() as f64 / NS_PER_MS,
            max_ms: snap.max as f64 / NS_PER_MS,
        }
    }
}

/// User + system CPU time of this process in milliseconds
/// (`/proc/self/stat` fields 14 and 15, 10 ms ticks).
pub fn process_cpu_ms() -> f64 {
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

/// The merged result of one benchmark run.
#[derive(Clone, Debug, Default, Serialize)]
pub struct BenchResult {
    /// Workload name.
    pub workload: String,
    /// Configuration label (e.g. "Tebaldi 3-layer").
    pub config: String,
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Measured wall-clock duration in seconds.
    pub duration_s: f64,
    /// Units started inside the window (each counted whether or not it
    /// committed, and even when it finished after the window closed).
    pub started: u64,
    /// [`BenchResult::started`] split by the sixth of the window each unit
    /// started in; the six sum to `started`.
    pub started_by_sixth: Vec<u64>,
    /// Process CPU time (user + system) over the window, in milliseconds.
    pub cpu_ms: f64,
    /// Units started inside the window that committed.
    pub committed: u64,
    /// Aborted attempts (before the retry succeeded or gave up).
    pub aborted: u64,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Per-type latency statistics.
    pub latency_by_type: HashMap<u32, LatencyStats>,
    /// Per-type latency histograms (nanosecond samples) — the raw
    /// distributions behind [`BenchResult::latency_by_type`], in the shared
    /// `tebaldi-obs` format.
    pub latency_hist_by_type: HashMap<u32, HistogramSnapshot>,
    /// Latency over every committed transaction.
    pub latency_overall: LatencyStats,
    /// Commit counts per type.
    pub committed_by_type: HashMap<u32, u64>,
}

impl BenchResult {
    /// Abort rate over attempts.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.committed + self.aborted;
        if attempts == 0 {
            0.0
        } else {
            self.aborted as f64 / attempts as f64
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<24} {:<18} clients={:<5} {:>10.0} txn/s  aborts={:.1}%  p50={:.2}ms p99={:.2}ms",
            self.workload,
            self.config,
            self.clients,
            self.throughput,
            self.abort_rate() * 100.0,
            self.latency_overall.p50_ms,
            self.latency_overall.p99_ms,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tebaldi_obs::Histogram;

    #[test]
    fn latency_statistics_from_a_histogram() {
        let histogram = Histogram::new();
        for i in 1..=100u64 {
            histogram.record_duration(Duration::from_millis(i));
        }
        let s = LatencyStats::from_snapshot(&histogram.snapshot());
        assert_eq!(s.count, 100);
        assert!((s.mean_ms - 50.5).abs() < 0.5);
        assert!(s.p50_ms >= 49.0 && s.p50_ms <= 52.0);
        assert!(s.p95_ms >= 93.0 && s.p95_ms <= 97.0);
        assert!(s.p99_ms >= 98.0);
        assert_eq!(s.max_ms, 100.0);
    }

    #[test]
    fn bench_result_summary_and_abort_rate() {
        let r = BenchResult {
            workload: "tpcc".into(),
            config: "2PL".into(),
            clients: 8,
            committed: 75,
            aborted: 25,
            throughput: 1234.0,
            ..Default::default()
        };
        assert!((r.abort_rate() - 0.25).abs() < 1e-9);
        assert!(r.summary().contains("2PL"));
        assert_eq!(BenchResult::default().abort_rate(), 0.0);
    }
}
