//! The command line, the report writer and the printing helpers shared by
//! every experiment.
//!
//! `--quick` shrinks durations and client counts so the whole suite runs in
//! a few minutes; `--json PATH` writes the one report to PATH instead of
//! `BENCH_<id>.json` in the working directory.

use serde::{Json, Serialize};
use std::time::Duration;
use tebaldi_workloads::BenchOptions;

/// Builds a report row, keys in the order given:
/// `row!["config" => name, "throughput" => result.throughput]`.
#[macro_export]
macro_rules! row {
    ($($key:expr => $value:expr),* $(,)?) => {
        ::serde::Json::Obj(vec![$(($key.to_string(), ::serde::Serialize::to_json(&$value))),*])
    };
}

/// Parsed command-line options shared by every experiment.
#[derive(Clone, Debug, Default)]
pub struct Options {
    /// Shrink durations/client counts for CI runs.
    pub quick: bool,
    /// Where the report goes instead of `BENCH_<id>.json`.
    pub json_path: Option<String>,
    /// `engine_scaling`'s seconds per cell.
    pub seconds: Option<f64>,
    /// `engine_scaling`'s base seed.
    pub seed: Option<u64>,
}

impl Options {
    /// Splits the arguments into experiment ids and options; an unknown
    /// flag or a flag without its value is an error.
    pub fn parse(args: &[String]) -> Result<(Vec<String>, Options), String> {
        fn value<T: std::str::FromStr>(flag: &str, arg: Option<&String>) -> Result<T, String> {
            arg.and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{flag} needs a value"))
        }
        let (mut ids, mut options) = (Vec::new(), Options::default());
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => options.quick = true,
                "--json" => options.json_path = Some(value("--json", args.next())?),
                "--seconds" => options.seconds = Some(value("--seconds", args.next())?),
                "--seed" => options.seed = Some(value("--seed", args.next())?),
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
                id => ids.push(id.to_string()),
            }
        }
        Ok((ids, options))
    }

    /// `quick` under `--quick`, else `full`.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Benchmark options for a given client count, scaled by `--quick`.
    pub fn bench_options(&self, clients: usize, label: &str) -> BenchOptions {
        let (duration, warmup) = self.pick((400, 100), (2_000, 400));
        BenchOptions {
            clients,
            duration: Duration::from_millis(duration),
            warmup: Duration::from_millis(warmup),
            seed: 42,
            config_label: label.to_string(),
        }
    }

    /// The client counts swept by the throughput-vs-clients figures.
    pub fn client_sweep(&self) -> Vec<usize> {
        self.pick(vec![4, 16], vec![2, 4, 8, 16, 32, 64])
    }
}

/// Where and how the numbers were taken: a row without these is not
/// comparable with anything.
#[derive(Clone, Debug, Serialize)]
pub struct Provenance {
    /// Cores the process could use.
    pub nproc: usize,
    /// `HEAD`, `+dirty` when the working tree differs from it.
    pub commit: String,
    /// Measured seconds of one cell.
    pub seconds_per_cell: f64,
    /// Warm-up seconds before each cell.
    pub warmup_seconds: f64,
    /// Base seed of the clients.
    pub seed: u64,
    /// Whether `--quick` shrank the run.
    pub quick: bool,
}

impl Provenance {
    /// The provenance of a run of `seconds_per_cell` after `warmup`.
    pub fn new(options: &Options, seconds_per_cell: f64, warmup: Duration, seed: u64) -> Self {
        Provenance {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            commit: git_commit(),
            seconds_per_cell,
            warmup_seconds: warmup.as_secs_f64(),
            seed,
            quick: options.quick,
        }
    }
}

/// `HEAD`, marked when the working tree differs from it.
fn git_commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(head) => match git(&["status", "--porcelain", "--untracked-files=no"]) {
            Some(dirty) if !dirty.is_empty() => format!("{head}+dirty"),
            _ => head,
        },
        None => "unknown".to_string(),
    }
}

/// One experiment's trajectory: provenance, the experiment's own top-level
/// fields, and its rows.
pub struct Report {
    /// Where and how the rows were taken.
    pub provenance: Provenance,
    /// Top-level fields besides `experiment`, `provenance` and `rows`.
    pub meta: Vec<(&'static str, Json)>,
    /// One object per measured leg.
    pub rows: Vec<Json>,
}

impl Report {
    /// A report stamped with the figure runs' durations and seed.
    pub fn new(options: &Options, rows: Vec<Json>) -> Self {
        let bench = options.bench_options(0, "");
        Report {
            provenance: Provenance::new(
                options,
                bench.duration.as_secs_f64(),
                bench.warmup,
                bench.seed,
            ),
            meta: Vec::new(),
            rows,
        }
    }

    /// Adds a top-level field.
    pub fn with(mut self, key: &'static str, value: impl Serialize) -> Self {
        self.meta.push((key, value.to_json()));
        self
    }

    /// Writes the report to `--json PATH`, or else to `BENCH_<id>.json` in
    /// the working directory: the one place a trajectory file is written.
    pub fn write(&self, id: &str, options: &Options) {
        let mut fields = vec![
            ("experiment".to_string(), id.to_json()),
            ("provenance".to_string(), self.provenance.to_json()),
        ];
        fields.extend(self.meta.iter().map(|(k, v)| (k.to_string(), v.clone())));
        fields.push(("rows".to_string(), self.rows.to_json()));
        let path = options
            .json_path
            .clone()
            .unwrap_or_else(|| format!("BENCH_{id}.json"));
        match serde_json::to_string_pretty(&Json::Obj(fields)) {
            Ok(json) => match std::fs::write(&path, json) {
                Ok(()) => println!("\nwrote {path}"),
                Err(err) => eprintln!("warning: could not write {path}: {err}"),
            },
            Err(err) => eprintln!("warning: could not serialize report: {err}"),
        }
    }
}

/// A numeric column of a row (0 when absent).
pub fn num(row: &Json, key: &str) -> f64 {
    match row.get(key) {
        Some(Json::U(u)) => *u as f64,
        Some(Json::I(i)) => *i as f64,
        Some(Json::F(f)) => *f,
        _ => 0.0,
    }
}

/// A string column of a row (empty when absent).
pub fn text<'a>(row: &'a Json, key: &str) -> &'a str {
    row.get(key).and_then(Json::as_str).unwrap_or("")
}

/// Prints `rows` as a table of the `keys` columns (every column of the
/// first row when `keys` is empty).
pub fn print_table(rows: &[Json], keys: &[&str]) {
    let all: Vec<&str> = match rows.first().and_then(Json::as_obj) {
        Some(fields) if keys.is_empty() => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => keys.to_vec(),
    };
    let cell = |row: &Json, key: &str| match row.get(key) {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::F(f)) if f.abs() >= 100.0 => format!("{f:.0}"),
        Some(Json::F(f)) => format!("{f:.3}"),
        Some(value) => serde_json::to_string(value).unwrap_or_default(),
        None => "-".to_string(),
    };
    let widths: Vec<usize> = all
        .iter()
        .map(|key| {
            rows.iter()
                .map(|row| cell(row, key).len())
                .fold(key.len(), usize::max)
        })
        .collect();
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", padded.join("  "));
    };
    line(all.iter().map(|key| key.to_string()).collect());
    for row in rows {
        line(all.iter().map(|key| cell(row, key)).collect());
    }
}

/// Prints an acceptance comparison of two rows' throughput, with the
/// candidate's `show` columns, and returns candidate / base (NaN when the
/// base committed nothing, so no threshold holds or fails on it).
pub fn compare(what: &str, base: &Json, candidate: &Json, show: &[&str]) -> f64 {
    let (base_tput, candidate_tput) = (num(base, "throughput"), num(candidate, "throughput"));
    let ratio = if base_tput > 0.0 {
        candidate_tput / base_tput
    } else {
        f64::NAN
    };
    let shown: String = show
        .iter()
        .map(|key| format!("; {key} {}", num(candidate, key)))
        .collect();
    println!("{what}: {base_tput:.0} vs {candidate_tput:.0} txn/sec ({ratio:.2}x{shown})");
    ratio
}

/// Prints a header line for an experiment.
pub fn banner(title: &str) {
    println!("================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Formats a throughput value as a right-aligned table cell.
pub fn fmt_tput(v: f64) -> String {
    format!("{v:>10.0}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn quick_options_shrink_runs() {
        let options = Options {
            quick: true,
            ..Options::default()
        };
        assert!(options.bench_options(4, "x").duration < Duration::from_secs(1));
        assert!(options.client_sweep().len() < 4);
        let full = Options::default();
        assert!(full.bench_options(4, "x").duration >= Duration::from_secs(1));
        assert_eq!(fmt_tput(1234.4).trim(), "1234");
    }

    #[test]
    fn arguments_split_into_ids_and_flags() {
        let (ids, options) = Options::parse(&args("a --quick b --json out.json --seed 7")).unwrap();
        assert_eq!(ids, ["a", "b"]);
        assert!(options.quick);
        assert_eq!(options.json_path.as_deref(), Some("out.json"));
        assert_eq!((options.seed, options.seconds), (Some(7), None));
        assert!(Options::parse(&args("a --quik")).is_err());
        assert!(Options::parse(&args("a --json")).is_err());
        assert!(Options::parse(&args("a --seconds x")).is_err());
    }
}
