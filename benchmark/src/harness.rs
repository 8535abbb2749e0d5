//! The closed-loop harness: clients, windows, unit accounting.
//!
//! A *unit* is one transaction driven to commit or give-up, retries
//! included. Every unit that **starts** inside a window is counted in that
//! window whatever its outcome, so a client that never commits shows up as
//! `tps = 0, failed_frac = 1` with real latencies instead of vanishing from
//! the result (the way the old driver produced `0 / 0.0 / 0.0` rows).

use crate::spans::{Span, SpanLog};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tebaldi_obs::now_ns;

/// The five TPC-C transaction types, in the order every per-type metric is
/// reported.
pub const TYPE_NAMES: [&str; 5] = [
    "new_order",
    "payment",
    "delivery",
    "order_status",
    "stock_level",
];

/// Outcome of one unit as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct UnitOutcome {
    /// Index into [`TYPE_NAMES`].
    pub ty: u8,
    /// True when the unit committed; false when it gave up.
    pub committed: bool,
}

/// One closed-loop client. The harness calls `run_unit` back to back on the
/// client's own thread.
pub trait Client: Send + 'static {
    /// Generates and runs one unit. `spans` is `Some` only for units the
    /// traced pass samples; the client records its child spans (attempts,
    /// bodies) there and returns the unit's outcome. The harness records the
    /// enclosing `unit` span itself.
    fn run_unit(&mut self, spans: Option<&mut SpanLog>) -> UnitOutcome;
}

/// One finished (or stuck) unit of a window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UnitRec {
    /// When the unit started, on the process trace clock.
    pub start_ns: u64,
    pub latency_ns: u64,
    pub ty: u8,
    pub committed: bool,
}

const PHASE_WARMUP: u8 = 0;
const PHASE_WINDOW: u8 = 1;
const PHASE_STOP: u8 = 2;

/// One pass: warm-up, then the window whose units are counted, then a
/// bounded drain.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    pub warmup: Duration,
    /// Units that start inside the window are counted.
    pub window: Duration,
    /// How long clients may take to finish their in-flight unit after the
    /// window before they are counted as stuck.
    pub drain: Duration,
    /// 0 = tracing off; otherwise every `span_every`-th unit a client starts
    /// inside the window records spans.
    pub span_every: u64,
}

/// Which edge of the window the coordinating thread is at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edge {
    Start,
    End,
}

/// Process CPU time (user + system) in milliseconds, from `/proc/self/stat`.
/// Linux reports it in clock ticks of 1/100 s.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    // After the ')' the next field is #3 (state); utime is #14, stime #15.
    let tick = |index: usize| -> f64 {
        fields
            .get(index - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(14) + tick(15)) * 10.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Everything measured at a window boundary.
#[derive(Clone, Debug)]
pub struct Boundary {
    pub at_ns: u64,
    pub cpu_ms: f64,
}

fn boundary() -> Boundary {
    Boundary {
        at_ns: now_ns(),
        cpu_ms: process_cpu_ms(),
    }
}

/// The units of the window, merged over clients, plus its boundaries.
#[derive(Clone, Debug)]
pub struct WindowResult {
    pub start: Boundary,
    pub end: Boundary,
    pub units: Vec<UnitRec>,
    /// Units still running when the drain deadline passed (also present in
    /// `units` as not committed, with the latency reached so far).
    pub stuck: u64,
}

impl WindowResult {
    pub fn seconds(&self) -> f64 {
        (self.end.at_ns - self.start.at_ns) as f64 / 1e9
    }
    pub fn started(&self) -> u64 {
        self.units.len() as u64
    }
    pub fn committed(&self) -> u64 {
        self.units.iter().filter(|u| u.committed).count() as u64
    }
    pub fn failed(&self) -> u64 {
        self.started() - self.committed()
    }
    /// Committed units per second.
    pub fn tps(&self) -> f64 {
        self.committed() as f64 / self.seconds().max(1e-9)
    }
    /// Units that gave up or were stuck, over units started.
    pub fn failed_frac(&self) -> f64 {
        if self.units.is_empty() {
            return 1.0;
        }
        self.failed() as f64 / self.started() as f64
    }
    /// Process CPU milliseconds per committed unit; with nothing committed,
    /// all the CPU the window burnt.
    pub fn cpu_ms_per_txn(&self) -> f64 {
        (self.end.cpu_ms - self.start.cpu_ms) / self.committed().max(1) as f64
    }
    /// Unit latency at quantile `q` in milliseconds, failed units ranked
    /// slowest.
    pub fn latency_ms(&self, q: f64) -> f64 {
        percentile_with_failures(&self.units, q) as f64 / 1e6
    }
}

/// Nearest-rank percentile over units where every failed unit ranks behind
/// every committed one: a unit that gave up missed any latency limit, so it
/// counts as at least as slow as the slowest commit.
pub fn percentile_with_failures(units: &[UnitRec], q: f64) -> u64 {
    if units.is_empty() {
        return 0;
    }
    let mut ok: Vec<u64> = units
        .iter()
        .filter(|u| u.committed)
        .map(|u| u.latency_ns)
        .collect();
    ok.sort_unstable();
    let floor = ok.last().copied().unwrap_or(0);
    let mut failed: Vec<u64> = units
        .iter()
        .filter(|u| !u.committed)
        .map(|u| u.latency_ns.max(floor))
        .collect();
    failed.sort_unstable();
    ok.extend(failed);
    let rank = ((q * ok.len() as f64).ceil() as usize).clamp(1, ok.len());
    ok[rank - 1]
}

/// Nearest-rank percentile of plain samples (0 when empty).
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of float samples (0 when empty).
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// What a client thread hands back when it stops.
struct ClientReport<C> {
    client: C,
    units: Vec<UnitRec>,
    spans: SpanLog,
}

/// The result of a pass: the window, the clients themselves (they carry the
/// workload's ledger), the traced units' spans, and how many clients never
/// came back.
pub struct RunResult<C> {
    pub window: WindowResult,
    pub clients: Vec<C>,
    pub spans: Vec<Span>,
    pub stuck_clients: usize,
}

/// Runs `clients` in a closed loop through warm-up, the window and the
/// drain. `at_edge` is called on the coordinating thread as the window
/// opens and as it closes, so the caller can snapshot the system's counters
/// at the same instants the harness reads the clock and the CPU time.
pub fn run_closed_loop<C: Client>(
    clients: Vec<C>,
    spec: &RunSpec,
    mut at_edge: impl FnMut(Edge),
) -> RunResult<C> {
    let phase = Arc::new(AtomicU8::new(PHASE_WARMUP));
    let n_clients = clients.len();
    // Start time of each client's in-flight unit (0 = between units), so a
    // client that never returns can still be charged with the unit it is
    // stuck in.
    let in_flight: Vec<Arc<AtomicU64>> = (0..n_clients)
        .map(|_| Arc::new(AtomicU64::new(0)))
        .collect();
    let (tx, rx) = mpsc::channel::<(usize, ClientReport<C>)>();

    for (index, mut client) in clients.into_iter().enumerate() {
        let phase = Arc::clone(&phase);
        let slot = Arc::clone(&in_flight[index]);
        let tx = tx.clone();
        let span_every = spec.span_every;
        std::thread::spawn(move || {
            let mut units = Vec::new();
            let mut spans = SpanLog::new(index as u64);
            let mut seq = 0u64;
            loop {
                let begun_in = phase.load(Ordering::Acquire);
                if begun_in == PHASE_STOP {
                    break;
                }
                seq += 1;
                let sample =
                    begun_in == PHASE_WINDOW && span_every != 0 && seq.is_multiple_of(span_every);
                let start = now_ns();
                slot.store(start.max(1), Ordering::Release);
                let outcome = if sample {
                    spans.begin_unit(seq);
                    let outcome = client.run_unit(Some(&mut spans));
                    spans.end_unit(start, now_ns(), outcome);
                    outcome
                } else {
                    client.run_unit(None)
                };
                let end = now_ns();
                slot.store(0, Ordering::Release);
                // Counted: units that start inside the window, and a unit
                // from warm-up that outlasts the window, so a client that
                // spends the whole window inside one unit is not invisible.
                let spans_window =
                    begun_in == PHASE_WARMUP && phase.load(Ordering::Acquire) == PHASE_STOP;
                if begun_in == PHASE_WINDOW || spans_window {
                    units.push(UnitRec {
                        start_ns: start,
                        latency_ns: end - start,
                        ty: outcome.ty,
                        committed: outcome.committed,
                    });
                }
            }
            // The receiver is gone only if the coordinator gave up on us.
            let _ = tx.send((
                index,
                ClientReport {
                    client,
                    units,
                    spans,
                },
            ));
        });
    }
    drop(tx);

    std::thread::sleep(spec.warmup);
    at_edge(Edge::Start);
    let start = boundary();
    phase.store(PHASE_WINDOW, Ordering::Release);
    std::thread::sleep(spec.window);
    phase.store(PHASE_STOP, Ordering::Release);
    let end = boundary();
    at_edge(Edge::End);

    let deadline = Instant::now() + spec.drain;
    let mut reports: Vec<Option<ClientReport<C>>> = (0..n_clients).map(|_| None).collect();
    let mut returned = 0;
    while returned < n_clients {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok((index, report)) => {
                reports[index] = Some(report);
                returned += 1;
            }
            Err(_) => break,
        }
    }

    let mut window = WindowResult {
        start,
        end,
        units: Vec::new(),
        stuck: 0,
    };
    let mut clients = Vec::with_capacity(n_clients);
    let mut spans = Vec::new();
    let give_up_ns = now_ns();
    for (index, report) in reports.into_iter().enumerate() {
        match report {
            Some(report) => {
                window.units.extend(report.units);
                spans.extend(report.spans.into_spans());
                clients.push(report.client);
            }
            None => {
                // Never came back: charge the unit it is stuck in (it began
                // in the window or has outlasted it).
                let started = in_flight[index].load(Ordering::Acquire);
                if started != 0 {
                    window.stuck += 1;
                    window.units.push(UnitRec {
                        start_ns: started,
                        latency_ns: give_up_ns.saturating_sub(started),
                        ty: 0,
                        committed: false,
                    });
                }
            }
        }
    }
    RunResult {
        window,
        stuck_clients: n_clients - returned,
        clients,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn unit(latency_ns: u64, committed: bool) -> UnitRec {
        UnitRec {
            start_ns: 0,
            latency_ns,
            ty: 0,
            committed,
        }
    }

    #[test]
    fn failed_units_rank_slowest() {
        // Four commits at 1..4 ms and one give-up after only 0.5 ms: the
        // give-up must rank last, at no less than the slowest commit.
        let units = vec![
            unit(1_000_000, true),
            unit(500_000, false),
            unit(4_000_000, true),
            unit(2_000_000, true),
            unit(3_000_000, true),
        ];
        assert_eq!(percentile_with_failures(&units, 0.5), 3_000_000);
        assert_eq!(percentile_with_failures(&units, 0.8), 4_000_000);
        assert_eq!(percentile_with_failures(&units, 1.0), 4_000_000);
        // A give-up slower than every commit keeps its own latency.
        let mut slow = units.clone();
        slow.push(unit(9_000_000, false));
        assert_eq!(percentile_with_failures(&slow, 1.0), 9_000_000);
        assert_eq!(percentile_with_failures(&[], 0.5), 0);
    }

    #[test]
    fn plain_percentile_and_median() {
        let mut v = vec![5, 1, 3, 2, 4];
        assert_eq!(percentile(&mut v, 0.5), 3);
        assert_eq!(percentile(&mut v, 0.99), 5);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    /// A workload that never commits.
    struct NeverCommits;
    impl Client for NeverCommits {
        fn run_unit(&mut self, _spans: Option<&mut SpanLog>) -> UnitOutcome {
            std::thread::sleep(Duration::from_millis(2));
            UnitOutcome {
                ty: 1,
                committed: false,
            }
        }
    }

    fn short_spec() -> RunSpec {
        RunSpec {
            warmup: Duration::from_millis(20),
            window: Duration::from_millis(150),
            drain: Duration::from_millis(300),
            span_every: 0,
        }
    }

    #[test]
    fn a_workload_that_never_commits_is_a_row_of_failures_not_of_zeros() {
        let mut edges = Vec::new();
        let result = run_closed_loop(vec![NeverCommits, NeverCommits], &short_spec(), |edge| {
            edges.push(edge)
        });
        assert_eq!(edges, vec![Edge::Start, Edge::End]);
        assert_eq!(result.stuck_clients, 0);
        assert!(result.spans.is_empty());
        let w = &result.window;
        assert!(w.started() > 10, "units were attempted: {}", w.started());
        assert_eq!(w.committed(), 0);
        assert_eq!(w.tps(), 0.0);
        assert_eq!(w.failed_frac(), 1.0);
        // Latencies are those of the give-ups: finite and not zero.
        assert!(w.latency_ms(0.5) >= 2.0 && w.latency_ms(0.5) < 1_000.0);
        assert!(w.latency_ms(0.99) >= w.latency_ms(0.5));
        assert!(w.cpu_ms_per_txn().is_finite());
    }

    #[test]
    fn traced_units_leave_a_unit_span_each() {
        let mut spec = short_spec();
        spec.span_every = 2;
        let result = run_closed_loop(vec![NeverCommits], &spec, |_| {});
        let units = result.spans.iter().filter(|s| s.name == "unit").count() as u64;
        let started = result.window.started();
        assert!(units >= started / 2 - 1 && units <= started / 2 + 1);
        assert!(result.spans.iter().all(|s| s.status == "failed"));
    }

    /// Commits quickly until told to block, then blocks for ever.
    struct BlocksLater {
        block: Arc<AtomicBool>,
        gate: mpsc::Receiver<()>,
    }
    impl Client for BlocksLater {
        fn run_unit(&mut self, _spans: Option<&mut SpanLog>) -> UnitOutcome {
            if self.block.load(Ordering::Relaxed) {
                let _ = self.gate.recv();
            }
            std::thread::sleep(Duration::from_millis(1));
            UnitOutcome {
                ty: 0,
                committed: true,
            }
        }
    }

    #[test]
    fn a_client_stuck_after_the_drain_counts_as_failed() {
        let (_keep_open, gate) = mpsc::channel();
        let block = Arc::new(AtomicBool::new(false));
        let client = BlocksLater {
            block: Arc::clone(&block),
            gate,
        };
        // Start blocking 50 ms into the 150 ms window.
        let result = run_closed_loop(vec![client], &short_spec(), |edge| {
            if edge == Edge::Start {
                let block = Arc::clone(&block);
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(50));
                    block.store(true, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(result.stuck_clients, 1);
        assert!(result.clients.is_empty());
        let w = &result.window;
        assert_eq!(w.stuck, 1);
        assert_eq!(w.failed(), 1);
        // The stuck unit's latency is what it had reached at give-up: the
        // rest of the window plus the whole drain.
        assert!(w.latency_ms(1.0) >= 300.0, "{}", w.latency_ms(1.0));
    }

    #[test]
    fn cpu_and_rss_read_from_proc() {
        let before = process_cpu_ms();
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_ms() >= before + 30.0);
        assert!(peak_rss_mb() > 1.0);
    }
}
