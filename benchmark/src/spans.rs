//! Spans the harness records around its calls into each layer, the
//! self-time arithmetic over them, and the trace file.
//!
//! Spans inside the program are a later change; here every span is timed
//! from outside. An `Observed` span wraps a real call made while the
//! front door ran. A `Substituted` span is the same work repeated through
//! the layer below on the same inputs; a `Computed` span is derived from a
//! measured rate. The last two are laid out from their parent's start, so
//! a child that took longer than its parent sticks out past the parent's
//! end — the self-time rule clips it.

use fmm_core::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    Observed,
    Substituted,
    Computed,
}

impl Origin {
    fn name(self) -> &'static str {
        match self {
            Origin::Observed => "observed",
            Origin::Substituted => "substituted",
            Origin::Computed => "computed",
        }
    }
}

/// One span: times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the operation that caused the span; spans of one
    /// operation share it.
    pub op: usize,
    /// Index (in the recorder) of the span that caused this one.
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
    pub origin: Origin,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory span store; written out once, when the run ends.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span with real timestamps; returns its index.
    pub fn observed(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span { name, op, parent, start, end, origin: Origin::Observed });
        self.spans.len() - 1
    }

    /// Record a span of `nanos` that stands for work inside `parent`,
    /// starting `offset` nanoseconds into it.
    pub fn inside(
        &mut self,
        name: &'static str,
        parent: usize,
        offset: u64,
        nanos: u64,
        origin: Origin,
    ) -> usize {
        let (op, start) = (self.spans[parent].op, self.spans[parent].start + offset);
        self.spans.push(Span { name, op, parent: Some(parent), start, end: start + nanos, origin });
        self.spans.len() - 1
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once;
/// whatever lies outside the parent's interval does not count).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start.max(spans[p].start), s.end.min(spans[p].end));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start);
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.nanos() - covered
        })
        .collect()
}

/// One line of the ledger: a layer's cost within one operation.
#[derive(Clone, Debug)]
pub struct Row {
    pub op: usize,
    pub layer: &'static str,
    pub origin: Origin,
    /// Fastest duration of the layer over the traced passes.
    pub nanos: u64,
    pub self_nanos: u64,
    /// `self_nanos` over the operation's front-door time.
    pub share_of_wall: f64,
}

/// Reduce the spans of several traced passes to one row per (op, layer).
///
/// Per (op, layer) the fastest duration wins — the same best-of estimator
/// the end-to-end metrics use. The winners are laid out as one canonical
/// tree per op (children back to back from their parent's start) and
/// self times are taken over that tree.
pub fn rows(spans: &[Span]) -> Vec<Row> {
    // (op, layer) -> (fastest nanos, parent layer, origin), first-seen order.
    let mut order: Vec<(usize, &'static str)> = Vec::new();
    let mut best: BTreeMap<(usize, &'static str), (u64, Option<&'static str>, Origin)> =
        BTreeMap::new();
    for s in spans {
        let parent = s.parent.map(|p| spans[p].name);
        best.entry((s.op, s.name)).and_modify(|e| e.0 = e.0.min(s.nanos())).or_insert_with(|| {
            order.push((s.op, s.name));
            (s.nanos(), parent, s.origin)
        });
    }
    let mut canon: Vec<Span> = Vec::with_capacity(order.len());
    let mut index: BTreeMap<(usize, &'static str), usize> = BTreeMap::new();
    // Where the next child of each canonical span starts.
    let mut cursor: Vec<u64> = Vec::with_capacity(order.len());
    for &(op, name) in &order {
        let (nanos, parent_name, origin) = best[&(op, name)];
        let parent = parent_name.map(|p| index[&(op, p)]);
        let start = parent.map_or(0, |p| cursor[p]);
        if let Some(p) = parent {
            cursor[p] += nanos;
        }
        index.insert((op, name), canon.len());
        canon.push(Span { name, op, parent, start, end: start + nanos, origin });
        cursor.push(start);
    }
    let selfs = self_times(&canon);
    let wall: BTreeMap<usize, u64> =
        canon.iter().filter(|s| s.parent.is_none()).map(|s| (s.op, s.nanos())).collect();
    canon
        .iter()
        .zip(selfs)
        .map(|(s, self_nanos)| Row {
            op: s.op,
            layer: s.name,
            origin: s.origin,
            nanos: s.nanos(),
            self_nanos,
            share_of_wall: self_nanos as f64 / wall[&s.op].max(1) as f64,
        })
        .collect()
}

/// Sum of `f` over the rows of `layer`.
pub fn layer_sum(rows: &[Row], layer: &str, f: fn(&Row) -> u64) -> u64 {
    rows.iter().filter(|r| r.layer == layer).map(f).sum()
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn int(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Write `trace-<workload>.json`: one row per (op, layer) with nanos, self
/// time, share of wall and fraction of ceiling, then every span recorded.
/// `describe(op)` gives the op's shape and route; `ceiling(row)` the
/// layer's fraction of its stated ceiling.
pub fn write_trace(
    path: &Path,
    workload: &str,
    rows: &[Row],
    spans: &[Span],
    describe: impl Fn(usize) -> (String, String),
    ceiling: impl Fn(&Row) -> f64,
) -> std::io::Result<()> {
    let rows_json = rows
        .iter()
        .map(|r| {
            let (shape, route) = describe(r.op);
            obj(vec![
                ("op", int(r.op as u64)),
                ("shape", Value::String(shape)),
                ("route", Value::String(route)),
                ("layer", Value::String(r.layer.to_string())),
                ("origin", Value::String(r.origin.name().to_string())),
                ("nanos", int(r.nanos)),
                ("self_nanos", int(r.self_nanos)),
                ("share_of_wall", Value::Number(r.share_of_wall)),
                ("frac_of_ceiling", Value::Number(ceiling(r))),
            ])
        })
        .collect();
    let spans_json = spans
        .iter()
        .map(|s| {
            obj(vec![
                ("name", Value::String(s.name.to_string())),
                ("op", int(s.op as u64)),
                ("parent", s.parent.map_or(Value::Int(-1), |p| int(p as u64))),
                ("start", int(s.start)),
                ("end", int(s.end)),
                ("origin", Value::String(s.origin.name().to_string())),
            ])
        })
        .collect();
    let doc = obj(vec![
        ("workload", Value::String(workload.to_string())),
        ("rows", Value::Array(rows_json)),
        ("spans", Value::Array(spans_json)),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, json::to_string_pretty(&doc) + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span { name, op: 0, parent, start, end, origin: Origin::Observed }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 50, 70),
            span("a1", Some(1), 10, 25),
        ];
        assert_eq!(self_times(&spans), vec![50, 15, 20, 15]);
    }

    #[test]
    fn overlapping_children_count_once_and_overhang_is_clipped() {
        let spans = [
            span("root", None, 100, 200),
            span("a", Some(0), 120, 160),
            span("b", Some(0), 150, 180), // overlaps a by 10
            span("c", Some(0), 190, 260), // sticks out by 60
            span("d", Some(0), 0, 90),    // entirely outside
            span("e", Some(0), 130, 140), // inside a
        ];
        // covered: [120,180) = 60 and [190,200) = 10.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn self_times_of_a_nested_chain_sum_to_the_root() {
        let mut rec = Recorder::new();
        let root = rec.observed("op", 3, None, 1000, 2000);
        let engine = rec.observed("engine", 3, Some(root), 1000, 2000);
        let core = rec.inside("core", engine, 0, 900, Origin::Substituted);
        let pack = rec.inside("pack", core, 0, 200, Origin::Substituted);
        rec.inside("kernel", core, 200, 500, Origin::Computed);
        assert_eq!(rec.spans[pack].op, 3, "children inherit the op id");
        let selfs = self_times(&rec.spans);
        assert_eq!(selfs, vec![0, 100, 200, 200, 500]);
        assert_eq!(selfs.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn rows_keep_the_fastest_pass_per_layer_and_clip_slow_children() {
        let mut rec = Recorder::new();
        for (wall, child) in [(1000, 700), (800, 900)] {
            let root = rec.observed("op", 0, None, 0, wall);
            rec.inside("core", root, 0, child, Origin::Substituted);
        }
        let rows = rows(&rec.spans);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].layer, rows[0].nanos, rows[0].self_nanos), ("op", 800, 100));
        assert_eq!((rows[1].layer, rows[1].nanos, rows[1].self_nanos), ("core", 700, 700));
        assert_eq!(layer_sum(&rows, "core", |r| r.nanos), 700);
        assert!((rows[1].share_of_wall - 0.875).abs() < 1e-12);
    }
}
