//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--seed N] [--workload NAME] [--seconds S] [--probe-only] [--json PATH]
//! ```
//! runs every workload (or the named one) twice — an untraced end-to-end
//! run and a traced per-layer run — then the layer ladder, each in a fresh
//! child process, and prints every metric. With `--trace 0|1` it runs one
//! of the two and prints the one-line result `BENCHMARK.json` describes.

mod harness;
mod ladder;
mod layers;
mod report;
mod spans;
mod sut;
mod tpcc;

use harness::{percentile, run_closed_loop, Edge, RunSpec, WindowResult};
use layers::Counters;
use report::{
    metrics_json, obj, result_line, string, MetricDef, CROSS_WORKLOAD_RATIOS, END_TO_END,
    PER_LAYER, RUN_SECONDS,
};
use serde::Json;
use spans::{ProgramSpan, SpanFile};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use sut::{
    Sut, WorkloadDef, FLUSH_LATENCY, GC_INTERVAL, SETTLE, TRACE_SAMPLE_EVERY, UNGATED_WORKLOADS,
    WORKLOADS,
};
use tpcc::{Ledger, StateSummary};

/// Warm-up before every window: caches fill, the first orders exist.
const WARMUP: Duration = Duration::from_secs(2);
/// Clients get this long to finish the unit in flight when the window ends.
const DRAIN: Duration = Duration::from_secs(5);
/// `setup_s` is the median of this many builds + loads.
const SETUP_REPEATS: usize = 21;
/// A child that has not exited by then is killed and reported as failed.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);
/// Program traces this close to the newest id may still be running.
const IN_FLIGHT_TRACES: u64 = 16;

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    probe_only: bool,
    child: bool,
    skip_ladder: bool,
    json: Option<PathBuf>,
    agree: Vec<PathBuf>,
    print_benchmark_json: bool,
    print_glossary: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        seconds: RUN_SECONDS,
        ..Args::default()
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} needs a value ({what})"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if sut::workload(&name).is_none() {
                    let known: Vec<&str> = WORKLOADS
                        .iter()
                        .chain(&UNGATED_WORKLOADS)
                        .map(|w| w.name)
                        .collect();
                    return Err(format!(
                        "unknown workload {name}; known: {}",
                        known.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("1..=60")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--json" => args.json = Some(PathBuf::from(value("a path")?)),
            "--probe-only" => args.probe_only = true,
            "--child" => args.child = true,
            "--skip-ladder" => args.skip_ladder = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            "--print-glossary" => args.print_glossary = true,
            "--agree" => {
                while let Some(path) = argv.next_if(|a| !a.starts_with("--")) {
                    args.agree.push(PathBuf::from(path));
                }
                if args.agree.len() < 2 {
                    return Err("--agree needs at least two result files".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(args)
}

// ---------------------------------------------------------------------------
// One pass over one system, in this process.
// ---------------------------------------------------------------------------

struct Pass {
    window: WindowResult,
    /// Counter movement over the window (gauges as read at its end).
    delta: Counters,
    spans: SpanFile,
    state: StateSummary,
    chain_len_p99: u64,
    uncommitted_end: u64,
}

/// Runs GC cycles and, in a traced pass, drains the program's sampled spans
/// out of the bounded trace ring while the clients run.
fn maintenance(
    sut: &Sut,
    traced: bool,
    stop: &AtomicBool,
    cursor: &AtomicU64,
    end_seq: &AtomicU64,
    program: &Mutex<Vec<ProgramSpan>>,
) {
    let databases = sut.databases();
    let collect_up_to = |hi: u64| {
        let from = cursor.load(Ordering::Acquire);
        // u64::MAX: the window has not opened yet.
        if traced && from != u64::MAX && hi > from {
            let mut spans = program.lock().expect("program span buffer poisoned");
            sut.collect_program_spans(from, hi, &mut spans);
            cursor.store(hi, Ordering::Release);
        }
    };
    let mut last_gc = Instant::now();
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(50));
        if last_gc.elapsed() >= GC_INTERVAL {
            for db in &databases {
                db.run_gc_cycle();
            }
            last_gc = Instant::now();
        }
        let settled = sut.trace_seq().saturating_sub(IN_FLIGHT_TRACES);
        collect_up_to(settled.min(end_seq.load(Ordering::Acquire)));
    }
    // Every unit of the window has returned: the rest is complete.
    collect_up_to(end_seq.load(Ordering::Acquire).min(sut.trace_seq()));
}

fn run_pass(
    def: &WorkloadDef,
    sut: &Sut,
    seed: u64,
    window: Duration,
    traced: bool,
) -> Result<Pass, String> {
    let spec = RunSpec {
        warmup: WARMUP,
        window,
        drain: DRAIN,
        span_every: if traced { def.span_every } else { 0 },
    };
    let stop = AtomicBool::new(false);
    let cursor = AtomicU64::new(u64::MAX);
    let end_seq = AtomicU64::new(u64::MAX);
    let program = Mutex::new(Vec::new());
    let dropped_before = tebaldi_obs::dropped_spans();
    let mut edges: Vec<Counters> = Vec::with_capacity(2);
    let clients = sut.clients(def, seed);
    let result = std::thread::scope(|scope| {
        scope.spawn(|| maintenance(sut, traced, &stop, &cursor, &end_seq, &program));
        let result = run_closed_loop(clients, &spec, |edge| {
            edges.push(sut.counters());
            match edge {
                Edge::Start => cursor.store(sut.trace_seq(), Ordering::Release),
                Edge::End => end_seq.store(sut.trace_seq(), Ordering::Release),
            }
        });
        stop.store(true, Ordering::Release);
        result
    });
    eprintln!(
        "  {} {} pass: {} units started, {} committed, {} failed ({} stuck) in {:.2} s",
        def.name,
        if traced { "traced" } else { "untraced" },
        result.window.started(),
        result.window.committed(),
        result.window.failed(),
        result.window.stuck,
        result.window.seconds()
    );
    if result.stuck_clients > 0 {
        return Err(format!(
            "{} of {} clients were still inside a unit {} s after the window closed",
            result.stuck_clients,
            def.clients,
            DRAIN.as_secs()
        ));
    }

    let mut ledger = Ledger::default();
    for client in &result.clients {
        ledger.merge(client.ledger());
    }
    let state = sut.check(def, &ledger)?;

    // Read after the drain: nothing is in flight any more.
    let mut chain_lens = Vec::new();
    let mut uncommitted_end = 0;
    for db in sut.databases() {
        uncommitted_end += db.store().stats().uncommitted as u64;
        db.store()
            .for_each_key(|_, chain| chain_lens.push(chain.len() as u64));
    }
    let mut spans = result.spans;
    let program = program.into_inner().expect("program span buffer poisoned");
    let (unmatched_traces, ambiguous_traces) = spans::attach_program_spans(&mut spans, program);
    Ok(Pass {
        delta: edges[1].since(&edges[0]),
        window: result.window,
        spans: SpanFile {
            workload: def.name.to_string(),
            seed,
            dropped_spans: tebaldi_obs::dropped_spans() - dropped_before,
            unmatched_traces,
            ambiguous_traces,
            spans,
        },
        state,
        chain_len_p99: percentile(&mut chain_lens, 0.99),
        uncommitted_end,
    })
}

fn units_json(window: &WindowResult, state: &StateSummary) -> Json {
    obj(vec![
        ("started", Json::U(window.started() as u128)),
        ("committed", Json::U(window.committed() as u128)),
        ("failed", Json::U(window.failed() as u128)),
        ("stuck", Json::U(window.stuck as u128)),
        ("window_s", Json::F(window.seconds())),
        (
            "state_check",
            obj(vec![
                ("orders", Json::U(state.orders as u128)),
                ("undelivered", Json::U(state.undelivered as u128)),
                ("payments", Json::U(state.payments as u128)),
                ("ytd_cents", Json::I(state.ytd as i128)),
            ]),
        ),
    ])
}

fn print_metrics(title: &str, defs: &[MetricDef], values: &[(String, f64)], samples: u64) {
    eprintln!("  {title} ({samples} units):");
    for def in defs {
        if let Some((_, value)) = values.iter().find(|(n, _)| n == def.name) {
            eprintln!("    {:<44} {:>16.4} {}", def.name, value, def.unit);
        }
    }
}

fn write_detail(def_name: &str, kind: &str, detail: Json) -> Result<(), String> {
    let path = out_dir().join(format!("detail_{def_name}_{kind}.json"));
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let text = serde_json::to_string_pretty(&detail).unwrap_or_default();
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// The untraced end-to-end run: one pass on a fresh system, then the
/// remaining set-ups for `setup_s`.
fn child_end_to_end(def: &WorkloadDef, seed: u64, seconds: u64) -> Result<String, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let timed_setup = |setups: &mut Vec<f64>| {
        let start = Instant::now();
        let sut = Sut::setup(def, false);
        setups.push(start.elapsed().as_secs_f64());
        sut
    };
    let sut = timed_setup(&mut setups);
    let pass = run_pass(def, &sut, seed, Duration::from_secs(seconds), false);
    sut.shutdown();
    drop(sut);
    let pass = pass?;
    while setups.len() < SETUP_REPEATS {
        timed_setup(&mut setups).shutdown();
    }
    let w = &pass.window;
    let values = vec![
        ("tps".to_string(), w.tps()),
        ("p50_ms".to_string(), w.latency_ms(0.5)),
        ("p99_ms".to_string(), w.latency_ms(0.99)),
        ("commit_frac".to_string(), 1.0 - w.failed_frac()),
        ("cpu_ms_per_txn".to_string(), w.cpu_ms_per_txn()),
        ("setup_s".to_string(), harness::median(&mut setups)),
    ];
    print_metrics("end to end", &END_TO_END, &values, w.started());
    if w.started() < 1_000 {
        eprintln!("  note: p99_ms rests on fewer than 1000 units");
    }
    write_detail(
        def.name,
        "end_to_end",
        obj(vec![
            ("workload", string(def.name)),
            ("seed", Json::U(seed as u128)),
            ("units", units_json(w, &pass.state)),
            ("metrics", metrics_json(&END_TO_END, &values)),
        ]),
    )?;
    Ok(result_line(
        w.started(),
        w.failed(),
        metrics_json(&END_TO_END, &values),
    ))
}

/// The traced run: an untraced reference pass and the traced pass, each on
/// a fresh system and half of `seconds` long, then (unless skipped) the
/// ladder.
fn child_per_layer(
    def: &WorkloadDef,
    seed: u64,
    seconds: u64,
    skip_ladder: bool,
) -> Result<String, String> {
    let window = Duration::from_secs_f64(seconds as f64 / 2.0);
    let reference = {
        let sut = Sut::setup(def, false);
        let pass = run_pass(def, &sut, seed, window, false);
        sut.shutdown();
        pass?
    };
    let sut = Sut::setup(def, true);
    let pass = run_pass(def, &sut, seed, window, true);
    sut.shutdown();
    drop(sut);
    let pass = pass?;

    // Span-derived numbers come from the file, as a reader of it would
    // compute them.
    let trace_path = out_dir().join(format!("trace_{}.json", def.name));
    spans::write_span_file(&trace_path, &pass.spans)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let file = spans::read_span_file(&trace_path)?;

    let mut values = layers::counter_metrics(&pass.delta, &pass.window);
    values.extend(layers::mix_metrics(&pass.window));
    values.extend(layers::span_metrics(&file));
    values.push(("storage.chain_len_p99".into(), pass.chain_len_p99 as f64));
    values.push((
        "storage.uncommitted_end".into(),
        pass.uncommitted_end as f64,
    ));
    values.push(("storage.rss_peak_mb".into(), harness::peak_rss_mb()));
    let reference_tps = reference.window.tps();
    values.push((
        "workloads.trace_overhead_frac".into(),
        if reference_tps > 0.0 {
            1.0 - pass.window.tps() / reference_tps
        } else {
            0.0
        },
    ));
    if !skip_ladder {
        values.extend(ladder::run());
    }
    // Without the ladder its metrics are left out, not printed as 0; with
    // it, the registry and the measurements must cover each other.
    let defs = measured_defs(&values);
    if !skip_ladder && defs.len() != PER_LAYER.len() {
        return Err("a per-layer metric of the registry was not measured".into());
    }
    if let Some((name, _)) = values
        .iter()
        .find(|(name, _)| !PER_LAYER.iter().any(|d| d.name == name))
    {
        return Err(format!("{name} is measured but not in the metric registry"));
    }
    print_metrics("per layer", &defs, &values, pass.window.started());
    let summary = spans::summarize(&file.spans);
    eprintln!(
        "  spans in {} ({} dropped; program traces: {} unmatched, {} ambiguous):",
        trace_path.display(),
        file.dropped_spans,
        file.unmatched_traces,
        file.ambiguous_traces
    );
    for s in &summary {
        eprintln!(
            "    {:<24} n={:<8} mean {:>12.0} ns  self {:>12.0} ns  p99 {:>12} ns",
            s.name, s.count, s.mean_ns, s.mean_self_ns, s.p99_ns
        );
    }
    write_detail(
        def.name,
        "per_layer",
        obj(vec![
            ("workload", string(def.name)),
            ("seed", Json::U(seed as u128)),
            ("units", units_json(&pass.window, &pass.state)),
            ("reference_tps", Json::F(reference_tps)),
            ("traced_tps", Json::F(pass.window.tps())),
            ("dropped_spans", Json::U(file.dropped_spans as u128)),
            ("unmatched_traces", Json::U(file.unmatched_traces as u128)),
            ("ambiguous_traces", Json::U(file.ambiguous_traces as u128)),
            (
                "span_summary",
                Json::Arr(
                    summary
                        .iter()
                        .map(|s| {
                            obj(vec![
                                ("name", string(&s.name)),
                                ("count", Json::U(s.count as u128)),
                                ("mean_ns", Json::F(s.mean_ns)),
                                ("mean_self_ns", Json::F(s.mean_self_ns)),
                                ("p99_ns", Json::U(s.p99_ns as u128)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("metrics", metrics_json(&defs, &values)),
        ]),
    )?;
    Ok(result_line(
        pass.window.started(),
        pass.window.failed(),
        metrics_json(&defs, &values),
    ))
}

/// The per-layer metrics `values` holds a measurement for.
fn measured_defs(values: &[(String, f64)]) -> Vec<MetricDef> {
    PER_LAYER
        .iter()
        .filter(|d| values.iter().any(|(n, _)| n == d.name))
        .copied()
        .collect()
}

fn child_ladder() -> Result<String, String> {
    let values = ladder::run();
    let defs = measured_defs(&values);
    print_metrics("ladder and probes", &defs, &values, 0);
    write_detail(
        "ladder",
        "probe",
        obj(vec![("metrics", metrics_json(&defs, &values))]),
    )?;
    Ok(result_line(1, 0, metrics_json(&defs, &values)))
}

// ---------------------------------------------------------------------------
// The parent: children, deadlines, the report.
// ---------------------------------------------------------------------------

/// How a child ended.
#[derive(Debug, PartialEq)]
enum ChildEnd {
    /// Exited by itself: exit code (None = killed by a signal) and stdout.
    Exited(Option<i32>, String),
    /// Still running at the deadline: killed and reaped.
    Reaped,
}

/// Runs `command` with its stdout captured, killing it at the deadline so a
/// livelocked workload is reported instead of hanging the benchmark.
fn run_with_deadline(mut command: Command, deadline: Duration) -> std::io::Result<ChildEnd> {
    let mut child = command.stdout(Stdio::piped()).spawn()?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let started = Instant::now();
    loop {
        if let Some(status) = child.try_wait()? {
            let text = reader.join().unwrap_or_default();
            return Ok(ChildEnd::Exited(status.code(), text));
        }
        if started.elapsed() >= deadline {
            child.kill()?;
            child.wait()?;
            let _ = reader.join();
            return Ok(ChildEnd::Reaped);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn child_command(extra: &[String]) -> std::io::Result<Command> {
    let mut command = Command::new(std::env::current_exe()?);
    command.arg("--child").args(extra);
    Ok(command)
}

/// Runs one child of this program; `Ok(last stdout line)` when it exited 0.
fn run_child(extra: &[String]) -> Result<String, String> {
    let command = child_command(extra).map_err(|e| format!("cannot start a child: {e}"))?;
    match run_with_deadline(command, CHILD_DEADLINE) {
        Ok(ChildEnd::Exited(Some(0), stdout)) => stdout
            .lines()
            .last()
            .map(str::to_string)
            .ok_or_else(|| "the child printed no result".to_string()),
        Ok(ChildEnd::Exited(code, _)) => Err(format!("the child failed (exit code {code:?})")),
        Ok(ChildEnd::Reaped) => Err(format!(
            "no result after {} s: killed (livelock or hang)",
            CHILD_DEADLINE.as_secs()
        )),
        Err(e) => Err(format!("cannot run a child: {e}")),
    }
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

fn provenance(args: &Args, wall: Duration) -> Json {
    let unknown = || "unknown".to_string();
    let commit = command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown);
    let dirty = command_output("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    obj(vec![
        (
            "nproc",
            Json::U(std::thread::available_parallelism().map_or(0, |n| n.get()) as u128),
        ),
        ("git_commit", string(&commit)),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        (
            "rustc",
            string(&command_output("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        ("seed", Json::U(args.seed as u128)),
        ("warmup_s", Json::F(WARMUP.as_secs_f64())),
        ("end_to_end_window_s", Json::F(args.seconds as f64)),
        ("traced_window_s", Json::F(args.seconds as f64 / 2.0)),
        ("drain_s", Json::F(DRAIN.as_secs_f64())),
        ("wire_bound_settle_s", Json::F(SETTLE.as_secs_f64())),
        ("setup_repeats", Json::U(SETUP_REPEATS as u128)),
        ("wal_flush_latency_us", Json::U(FLUSH_LATENCY.as_micros())),
        ("gc_interval_ms", Json::U(GC_INTERVAL.as_millis())),
        (
            "engine_wait_timeout_ms",
            Json::U(tebaldi_core::DbConfig::for_benchmarks().wait_timeout_ms as u128),
        ),
        (
            "cluster_trace_sample_every",
            Json::U(TRACE_SAMPLE_EVERY as u128),
        ),
        ("wall_s", Json::F(wall.as_secs_f64())),
        ("calibration", report::calibration_json()),
    ])
}

fn read_detail(name: &str, kind: &str) -> Option<Json> {
    let path = out_dir().join(format!("detail_{name}_{kind}.json"));
    serde_json::parse(&std::fs::read_to_string(path).ok()?).ok()
}

/// Adds direction and bound to each metric of a detail file's `metrics`.
fn annotate(metrics: Option<&Json>, defs: &[MetricDef], gated: bool) -> Json {
    let Some(fields) = metrics.and_then(Json::as_obj) else {
        return Json::Obj(Vec::new());
    };
    Json::Obj(
        fields
            .iter()
            .map(|(name, value)| {
                let mut value = value.clone();
                if let (Json::Obj(fields), Some(def)) =
                    (&mut value, defs.iter().find(|d| d.name == name))
                {
                    fields.push(("better".into(), string(def.better.as_str())));
                    if gated {
                        fields.push(("bound".into(), Json::F(def.bound)));
                    }
                }
                (name.clone(), value)
            })
            .collect(),
    )
}

fn metric_of(workloads: &[(String, Json)], workload: &str, metric: &str) -> Option<f64> {
    let (_, entry) = workloads.iter().find(|(n, _)| n == workload)?;
    match entry.get("end_to_end")?.get(metric)?.get("value")? {
        Json::F(v) => Some(*v),
        _ => None,
    }
}

fn print_table(title: &str, metrics: &Json) {
    println!("  {title}:");
    for (name, m) in metrics.as_obj().unwrap_or(&[]) {
        let value =
            serde_json::to_string(m.get("value").unwrap_or(&Json::Null)).unwrap_or_default();
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("    {name:<44} {value:>20} {unit}");
    }
}

/// The full command: every selected workload end to end and traced, then
/// the ladder, each in a child; prints and writes the report.
fn run_full(args: &Args) -> ExitCode {
    let started = Instant::now();
    // (workload, gated by BENCHMARK.json)
    let selected: Vec<(&WorkloadDef, bool)> = WORKLOADS
        .iter()
        .map(|w| (w, true))
        .chain(UNGATED_WORKLOADS.iter().map(|w| (w, false)))
        .filter(|(w, _)| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect();
    let common = |def: &WorkloadDef, trace: &str| -> Vec<String> {
        [
            "--workload",
            def.name,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            trace,
            "--skip-ladder",
        ]
        .map(str::to_string)
        .to_vec()
    };
    // A gated workload that fails fails the command; an ungated one is a
    // finding.
    let mut failures = Vec::new();
    let mut findings = Vec::new();
    let mut workloads: Vec<(String, Json)> = Vec::new();
    if !args.probe_only {
        for &(def, gated) in &selected {
            println!(
                "== {} ({} clients{}): {}",
                def.name,
                def.clients,
                if gated { "" } else { ", not gated" },
                def.why.split_whitespace().collect::<Vec<_>>().join(" ")
            );
            let mut entry = vec![
                ("why", string(def.why)),
                ("gated", Json::Bool(gated)),
                ("clients", Json::U(def.clients as u128)),
                ("warehouses", Json::U(def.warehouses as u128)),
            ];
            for (kind, trace, defs) in [
                ("end_to_end", "0", &END_TO_END[..]),
                ("per_layer", "1", &PER_LAYER[..]),
            ] {
                match run_child(&common(def, trace)) {
                    Ok(_) => {
                        let detail = read_detail(def.name, kind).unwrap_or(Json::Null);
                        let metrics = annotate(detail.get("metrics"), defs, trace == "0");
                        print_table(kind, &metrics);
                        entry.push((kind, metrics));
                        if let Some(units) = detail.get("units") {
                            entry.push(if trace == "0" {
                                ("units", units.clone())
                            } else {
                                ("traced_units", units.clone())
                            });
                        }
                    }
                    Err(reason) => {
                        println!("  {kind}: FAILED: {reason}");
                        let list = if gated { &mut failures } else { &mut findings };
                        list.push(format!("{} {kind}: {reason}", def.name));
                        // A run that produced nothing is a row of failures,
                        // not an empty row.
                        if trace == "0" {
                            let zeroed: Vec<MetricDef> = END_TO_END
                                .iter()
                                .filter(|d| matches!(d.name, "tps" | "commit_frac"))
                                .copied()
                                .collect();
                            let metrics = metrics_json(&zeroed, &[]);
                            entry.push((kind, annotate(Some(&metrics), defs, true)));
                        }
                        entry.push(("failure", string(&reason)));
                    }
                }
            }
            workloads.push((def.name.to_string(), obj(entry)));
        }
    }

    let mut ladder = Json::Obj(Vec::new());
    let mut ratios: Vec<(String, Json)> = Vec::new();
    if args.probe_only || args.workload.is_none() {
        println!("== ladder and component probes");
        match run_child(&["--probe-only".to_string()]) {
            Ok(_) => {
                let detail = read_detail("ladder", "probe").unwrap_or(Json::Null);
                ladder = annotate(detail.get("metrics"), &PER_LAYER, false);
                print_table("ladder", &ladder);
                for (name, value) in ladder.as_obj().unwrap_or(&[]) {
                    if name.starts_with("ratio.") {
                        ratios.push((name.clone(), value.clone()));
                    }
                }
            }
            Err(reason) => {
                println!("  FAILED: {reason}");
                failures.push(format!("ladder: {reason}"));
            }
        }
    }
    for (name, num, den, _) in CROSS_WORKLOAD_RATIOS {
        if let (Some(n), Some(d)) = (
            metric_of(&workloads, num, "tps"),
            metric_of(&workloads, den, "tps"),
        ) {
            if d > 0.0 {
                println!("  {name:<46} {:>20.4} ratio ({num} tps / {den} tps)", n / d);
                ratios.push((
                    name.to_string(),
                    obj(vec![("value", Json::F(n / d)), ("unit", string("ratio"))]),
                ));
            }
        }
    }

    let wall = started.elapsed();
    let report = obj(vec![
        ("provenance", provenance(args, wall)),
        ("workloads", Json::Obj(workloads)),
        ("ladder", ladder),
        ("ratios", Json::Obj(ratios)),
        (
            "failures",
            Json::Arr(failures.iter().map(|f| string(f)).collect()),
        ),
        (
            "ungated_failures",
            Json::Arr(findings.iter().map(|f| string(f)).collect()),
        ),
    ]);
    let path = args
        .json
        .clone()
        .unwrap_or_else(|| out_dir().join("result.json"));
    let text = serde_json::to_string_pretty(&report).unwrap_or_default() + "\n";
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!(
        "== wrote {} after {:.0} s",
        path.display(),
        wall.as_secs_f64()
    );
    for finding in &findings {
        println!("not gated, FAILED: {finding}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("FAILED: {failure}");
        }
        ExitCode::from(1)
    }
}

fn run_agree(paths: &[PathBuf]) -> ExitCode {
    let mut results = Vec::new();
    for path in paths {
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::parse(&text).map_err(|e| e.to_string()));
        match parsed {
            Ok(json) => results.push(json),
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    let lines = report::disagreements(&results);
    for line in &lines {
        println!("DISAGREE {line}");
    }
    if lines.is_empty() {
        println!("{} result files agree within the bounds", results.len());
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.print_glossary {
        print!("{}", report::glossary_markdown());
        return ExitCode::SUCCESS;
    }
    if !args.agree.is_empty() {
        return run_agree(&args.agree);
    }
    if args.child {
        // One run in this process; the parent holds the deadline.
        let outcome = match (&args.workload, args.trace) {
            (_, _) if args.probe_only => child_ladder(),
            (Some(name), Some(trace)) => {
                let def = sut::workload(name).expect("validated by parse_args");
                std::thread::sleep(def.settle());
                if trace {
                    child_per_layer(def, args.seed, args.seconds, args.skip_ladder)
                } else {
                    child_end_to_end(def, args.seed, args.seconds)
                }
            }
            _ => Err("--child needs --probe-only or --workload with --trace".to_string()),
        };
        return match outcome {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            // A failed check prints no metrics.
            Err(reason) => {
                eprintln!("FAILED: {reason}");
                ExitCode::from(1)
            }
        };
    }
    match (&args.workload, args.trace) {
        // One run as `BENCHMARK.json` describes it: the child's result line
        // is this process's last line of output.
        (Some(name), Some(trace)) => {
            let extra = [
                "--workload",
                name,
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ]
            .map(str::to_string);
            match run_child(&extra) {
                Ok(line) => {
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(reason) => {
                    eprintln!("FAILED: {name}: {reason}");
                    ExitCode::from(1)
                }
            }
        }
        _ => run_full(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_of_the_driver_and_of_the_full_command() {
        let args = parse("--workload tpcc_ssi --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(args.workload.as_deref(), Some("tpcc_ssi"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3, Some(true)));
        let args = parse("").unwrap();
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (42, RUN_SECONDS, None)
        );
        assert!(parse("--probe-only").unwrap().probe_only);
        assert_eq!(
            parse("--agree a.json b.json --seed 1").unwrap().agree.len(),
            2
        );
        for bad in [
            "--workload nope",
            "--trace 1",
            "--trace 2 --workload tpcc_ssi",
            "--seconds 0",
            "--seconds 61",
            "--seed",
            "--agree a.json",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_child_that_hangs_is_reaped_at_the_deadline() {
        let mut hang = Command::new("sleep");
        hang.arg("1000");
        let started = Instant::now();
        let end = run_with_deadline(hang, Duration::from_millis(200)).unwrap();
        assert_eq!(end, ChildEnd::Reaped);
        assert!(started.elapsed() < Duration::from_secs(5));

        let mut quick = Command::new("sh");
        quick.args(["-c", "echo first; echo last; exit 3"]);
        let end = run_with_deadline(quick, Duration::from_secs(5)).unwrap();
        assert_eq!(end, ChildEnd::Exited(Some(3), "first\nlast\n".to_string()));
    }
}
