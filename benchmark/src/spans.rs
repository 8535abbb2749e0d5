//! Spans of the traced pass.
//!
//! The harness records spans around its own calls into the program: a
//! `unit` span per traced unit and, where the harness drives the engine
//! itself, `gen`, `attempt` and `body` spans below it. On the cluster
//! workloads the program's own sampled `coord.*` / `shard.*` spans are
//! pulled out of the process trace sink and hung below the unit that caused
//! them. Spans stay in memory during the run and are written to
//! `benchmark/out/trace_<workload>.json` afterwards; every span-derived
//! number the benchmark prints is computed from that file.

use crate::harness::{percentile, UnitOutcome, TYPE_NAMES};
use serde::Json;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// One span. Times are nanoseconds on the process trace clock
/// (`tebaldi_obs::now_ns`), which the program's own spans share.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Id shared by every span of one unit; 0 when a program span could not
    /// be matched to a unit.
    pub unit: u64,
    pub name: Cow<'static, str>,
    /// Transaction type of the unit (`""` where unknown).
    pub ty: Cow<'static, str>,
    /// 0-based attempt index within the unit.
    pub attempt: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `"ok"`, `"failed"`, or the program's own status tag.
    pub status: Cow<'static, str>,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans one client records. Ids are unique across clients: the client
/// index sits in the high bits.
pub struct SpanLog {
    spans: Vec<Span>,
    next_id: u64,
    client_tag: u64,
    unit: u64,
    unit_span: u64,
}

impl SpanLog {
    pub fn new(client: u64) -> Self {
        SpanLog {
            spans: Vec::new(),
            next_id: 1,
            client_tag: (client + 1) << 40,
            unit: 0,
            unit_span: 0,
        }
    }

    fn alloc(&mut self) -> u64 {
        let id = self.client_tag | self.next_id;
        self.next_id += 1;
        id
    }

    /// Opens unit number `seq` of this client: children recorded until
    /// [`end_unit`](SpanLog::end_unit) hang below its span.
    pub fn begin_unit(&mut self, seq: u64) {
        self.unit = self.client_tag | seq;
        self.unit_span = self.alloc();
    }

    /// The span id of the open unit (the parent of its direct children).
    pub fn unit_span(&self) -> u64 {
        self.unit_span
    }

    /// Records a child span of the open unit and returns its id.
    pub fn child(
        &mut self,
        name: &'static str,
        parent: u64,
        attempt: u32,
        start_ns: u64,
        end_ns: u64,
        ok: bool,
    ) -> u64 {
        let id = self.alloc();
        self.spans.push(Span {
            id,
            parent,
            unit: self.unit,
            name: Cow::Borrowed(name),
            ty: Cow::Borrowed(""),
            attempt,
            start_ns,
            end_ns,
            status: Cow::Borrowed(if ok { "ok" } else { "failed" }),
        });
        id
    }

    /// Closes the open unit: records its own span and stamps the type on
    /// the children recorded since `begin_unit`.
    pub fn end_unit(&mut self, start_ns: u64, end_ns: u64, outcome: UnitOutcome) {
        let ty = TYPE_NAMES[outcome.ty as usize];
        for span in self.spans.iter_mut().rev() {
            if span.unit != self.unit {
                break;
            }
            span.ty = Cow::Borrowed(ty);
        }
        self.spans.push(Span {
            id: self.unit_span,
            parent: 0,
            unit: self.unit,
            name: Cow::Borrowed("unit"),
            ty: Cow::Borrowed(ty),
            attempt: 0,
            start_ns,
            end_ns,
            status: Cow::Borrowed(if outcome.committed { "ok" } else { "failed" }),
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A program span pulled from the trace sink, before it is matched to a
/// unit.
#[derive(Clone, Debug)]
pub struct ProgramSpan {
    pub trace_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub status: &'static str,
}

/// Hangs program spans below the harness units that caused them. A trace
/// belongs to a unit whose interval contains all of its spans. Clients run
/// concurrently, so several units may: the one that started last wins (the
/// coordinator's first span opens microseconds after its unit does), and
/// the trace counts as ambiguous. With no containing unit its spans are
/// kept as roots with `unit = 0`. Returns `(unmatched, ambiguous)` traces.
pub fn attach_program_spans(spans: &mut Vec<Span>, program: Vec<ProgramSpan>) -> (u64, u64) {
    let mut by_trace: BTreeMap<u64, Vec<ProgramSpan>> = BTreeMap::new();
    for span in program {
        by_trace.entry(span.trace_id).or_default().push(span);
    }
    let mut units: Vec<(u64, u64, u64, u64, Cow<'static, str>)> = spans
        .iter()
        .filter(|s| s.name == "unit")
        .map(|s| (s.start_ns, s.end_ns, s.id, s.unit, s.ty.clone()))
        .collect();
    units.sort_by_key(|u| u.0);
    let mut next_id = 1u64;
    let (mut unmatched, mut ambiguous) = (0, 0);
    for (_, trace) in by_trace {
        let lo = trace.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let hi = trace.iter().map(|s| s.end_ns).max().unwrap_or(0);
        // Units are sorted by start: only those starting at or before `lo`
        // can contain the trace.
        let upto = units.partition_point(|u| u.0 <= lo);
        let mut owners = units[..upto].iter().rev().filter(|u| u.1 >= hi);
        let owner = owners.next().cloned();
        match (&owner, owners.next()) {
            (None, _) => unmatched += 1,
            (Some(_), Some(_)) => ambiguous += 1,
            (Some(_), None) => {}
        }
        for s in trace {
            spans.push(Span {
                // Program spans get ids outside every client's range.
                id: (1u64 << 62) | next_id,
                parent: owner.as_ref().map_or(0, |o| o.2),
                unit: owner.as_ref().map_or(0, |o| o.3),
                name: Cow::Borrowed(s.name),
                ty: owner.as_ref().map_or(Cow::Borrowed(""), |o| o.4.clone()),
                attempt: 0,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                status: Cow::Borrowed(s.status),
            });
            next_id += 1;
        }
    }
    (unmatched, ambiguous)
}

/// A span file: what was written by [`write_span_file`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanFile {
    pub workload: String,
    pub seed: u64,
    /// Spans lost before they reached the file: evicted from the program's
    /// trace ring before the harness collected them.
    pub dropped_spans: u64,
    /// Program traces no unit's interval contains.
    pub unmatched_traces: u64,
    /// Program traces several units contain, given to the latest-started.
    pub ambiguous_traces: u64,
    pub spans: Vec<Span>,
}

fn span_to_json(s: &Span) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::U(s.id as u128)),
        ("parent".into(), Json::U(s.parent as u128)),
        ("unit".into(), Json::U(s.unit as u128)),
        ("name".into(), Json::Str(s.name.to_string())),
        ("type".into(), Json::Str(s.ty.to_string())),
        ("attempt".into(), Json::U(s.attempt as u128)),
        ("start_ns".into(), Json::U(s.start_ns as u128)),
        ("end_ns".into(), Json::U(s.end_ns as u128)),
        ("status".into(), Json::Str(s.status.to_string())),
    ])
}

pub fn write_span_file(path: &Path, file: &SpanFile) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    // One span per line, so the file can be read with line tools as well.
    writeln!(
        out,
        "{{\"workload\": {}, \"seed\": {}, \"clock\": \"ns since the process trace clock started\", \
         \"dropped_spans\": {}, \"unmatched_traces\": {}, \"ambiguous_traces\": {}, \"spans\": [",
        serde_json::to_string(&Json::Str(file.workload.clone())).unwrap_or_default(),
        file.seed,
        file.dropped_spans,
        file.unmatched_traces,
        file.ambiguous_traces
    )?;
    for (i, span) in file.spans.iter().enumerate() {
        let sep = if i + 1 == file.spans.len() { "" } else { "," };
        writeln!(
            out,
            "{}{sep}",
            serde_json::to_string(&span_to_json(span)).unwrap_or_default()
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

fn u64_field(obj: &Json, field: &str) -> Result<u64, String> {
    match obj.get(field) {
        Some(Json::U(v)) => u64::try_from(*v).map_err(|_| format!("{field} out of range")),
        other => Err(format!(
            "span file: {field} is {other:?}, not an unsigned number"
        )),
    }
}

fn str_field(obj: &Json, field: &str) -> Result<String, String> {
    obj.get(field)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("span file: {field} missing or not a string"))
}

pub fn read_span_file(path: &Path) -> Result<SpanFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = serde_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let rows = json
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("span file: no spans array")?;
    let mut spans = Vec::with_capacity(rows.len());
    for row in rows {
        spans.push(Span {
            id: u64_field(row, "id")?,
            parent: u64_field(row, "parent")?,
            unit: u64_field(row, "unit")?,
            name: Cow::Owned(str_field(row, "name")?),
            ty: Cow::Owned(str_field(row, "type")?),
            attempt: u64_field(row, "attempt")? as u32,
            start_ns: u64_field(row, "start_ns")?,
            end_ns: u64_field(row, "end_ns")?,
            status: Cow::Owned(str_field(row, "status")?),
        });
    }
    Ok(SpanFile {
        workload: str_field(&json, "workload")?,
        seed: u64_field(&json, "seed")?,
        dropped_spans: u64_field(&json, "dropped_spans")?,
        unmatched_traces: u64_field(&json, "unmatched_traces")?,
        ambiguous_traces: u64_field(&json, "ambiguous_traces")?,
        spans,
    })
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children may overlap each other and are
/// clipped to the parent).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut cover = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(s.end_ns);
                    if end > start {
                        cover += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, s.duration().saturating_sub(cover))
        })
        .collect()
}

/// Count, mean duration, mean self time and p99 duration of one span name.
#[derive(Clone, Debug, PartialEq)]
pub struct NameSummary {
    pub name: String,
    pub count: u64,
    pub mean_ns: f64,
    pub mean_self_ns: f64,
    pub p99_ns: u64,
}

/// Per-name summary of a span file, sorted by name.
pub fn summarize(spans: &[Span]) -> Vec<NameSummary> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&str, (Vec<u64>, u64)> = BTreeMap::new();
    for s in spans {
        let entry = by_name.entry(s.name.as_ref()).or_default();
        entry.0.push(s.duration());
        entry.1 += selfs[&s.id];
    }
    by_name
        .into_iter()
        .map(|(name, (mut durations, self_sum))| {
            let count = durations.len() as u64;
            NameSummary {
                name: name.to_string(),
                count,
                mean_ns: durations.iter().sum::<u64>() as f64 / count as f64,
                mean_self_ns: self_sum as f64 / count as f64,
                p99_ns: percentile(&mut durations, 0.99),
            }
        })
        .collect()
}

/// Mean of `f` over the spans it yields a sample for (0 with no samples).
pub fn mean_over(spans: &[Span], f: impl Fn(&Span) -> Option<u64>) -> f64 {
    let samples: Vec<u64> = spans.iter().filter_map(f).collect();
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            unit: 1,
            name: Cow::Borrowed(name),
            ty: Cow::Borrowed("payment"),
            attempt: 0,
            start_ns: start,
            end_ns: end,
            status: Cow::Borrowed("ok"),
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(1, 0, "unit", 0, 100),
            // Two overlapping children and one sticking out past the parent:
            // cover is [10,50) ∪ [40,70) ∪ [90,100) = 70.
            span(2, 1, "a", 10, 50),
            span(3, 1, "b", 40, 70),
            span(4, 1, "c", 90, 130),
            // A grandchild only reduces its own parent's self time.
            span(5, 2, "d", 20, 30),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 30);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&5], 10);
        let summary = summarize(&spans);
        let unit = summary.iter().find(|s| s.name == "unit").unwrap();
        assert_eq!(
            (unit.count, unit.mean_ns, unit.mean_self_ns),
            (1, 100.0, 30.0)
        );
    }

    #[test]
    fn span_log_builds_a_unit_tree() {
        let mut log = SpanLog::new(2);
        log.begin_unit(7);
        let unit = log.unit_span();
        let attempt = log.child("attempt", unit, 0, 10, 90, true);
        log.child("body", attempt, 0, 20, 80, true);
        log.end_unit(
            5,
            95,
            UnitOutcome {
                ty: 1,
                committed: true,
            },
        );
        let spans = log.into_spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "unit").unwrap();
        assert_eq!(root.id, unit);
        assert_eq!(root.parent, 0);
        assert!(spans
            .iter()
            .all(|s| s.unit == root.unit && s.ty == "payment"));
        let body = spans.iter().find(|s| s.name == "body").unwrap();
        assert_eq!(body.parent, attempt);
    }

    #[test]
    fn program_spans_attach_to_the_one_unit_that_contains_them() {
        let mut spans = vec![span(1, 0, "unit", 0, 100), span(2, 0, "unit", 50, 300)];
        spans[1].unit = 2;
        let mut program = vec![
            // Contained only in the first unit.
            ProgramSpan {
                trace_id: 9,
                name: "shard.execute",
                start_ns: 10,
                end_ns: 40,
                status: "ok",
            },
            // Contained in both units: goes to the one that started last.
            ProgramSpan {
                trace_id: 10,
                name: "shard.execute",
                start_ns: 60,
                end_ns: 90,
                status: "ok",
            },
            // Contained only in the second.
            ProgramSpan {
                trace_id: 11,
                name: "coord.finalize",
                start_ns: 120,
                end_ns: 200,
                status: "ok",
            },
        ];
        program.push(ProgramSpan {
            trace_id: 12,
            name: "coord.finalize",
            start_ns: 250,
            end_ns: 400,
            status: "ok",
        });
        assert_eq!(attach_program_spans(&mut spans, program), (1, 1));
        let attached: Vec<(u64, u64)> = spans[2..].iter().map(|s| (s.parent, s.unit)).collect();
        assert_eq!(attached, vec![(1, 1), (2, 2), (2, 2), (0, 0)]);
    }

    #[test]
    fn span_file_round_trips() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        let path = dir.join("trace_test.json");
        let file = SpanFile {
            workload: "tpcc_ssi".into(),
            seed: 42,
            dropped_spans: 3,
            unmatched_traces: 1,
            ambiguous_traces: 2,
            spans: vec![span(1, 0, "unit", 0, 100), span(2, 1, "body", 10, 50)],
        };
        write_span_file(&path, &file).unwrap();
        assert_eq!(read_span_file(&path).unwrap(), file);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
