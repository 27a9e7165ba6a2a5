//! The daemon's documents, typed: the stats snapshot (the `StatsJson`
//! frame), the incident dump (the `--incident-dir` files and
//! `ServerHandle::incident`) and the event list (the `Trace` frame).
//!
//! This is the one module that knows the JSON schema. Every document
//! implements [`Document`] — one encoder, one decoder — and the decoder's
//! [`DocError`] names the key path that was missing or mistyped, so a
//! renamed key fails loudly instead of reading as zero. An event of a kind
//! this binary does not know stays readable: it decodes as [`Kind::Other`]
//! with its raw fields and detail line. Keys derived from others
//! (`mean_nanos`, `p50_nanos`, `error_log2`, …) are written for readers of
//! the JSON and recomputed, not read, on decode.

use fmm_core::json::{self, Value};
use fmm_gemm::GemmScalar;
use fmm_obs::audit::SOURCE_NAMES;
use fmm_obs::{AuditEntry, Event, HistSnapshot, Kind};
use std::collections::BTreeMap;
use std::fmt;

/// Schema tag every incident document carries; decoding refuses any other
/// tag instead of misreading it.
pub const INCIDENT_SCHEMA: &str = "fmm-incident-v2";

/// Why a document did not decode: the dotted key path (empty for the
/// document itself) and what was wrong there.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DocError {
    pub key: String,
    pub reason: String,
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.key.is_empty() {
            f.write_str(&self.reason)
        } else {
            write!(f, "`{}`: {}", self.key, self.reason)
        }
    }
}

impl std::error::Error for DocError {}

fn error<T>(key: &str, reason: impl Into<String>) -> Result<T, DocError> {
    Err(DocError { key: key.to_string(), reason: reason.into() })
}

/// A JSON document with exactly one encoding and one decoding.
pub trait Document: Sized {
    /// The document as a JSON tree.
    fn to_value(&self) -> Value;

    /// Decode the tree found at key path `at` (`""` for a whole document).
    fn from_value(value: &Value, at: &str) -> Result<Self, DocError>;

    /// Pretty-printed JSON: the wire body and the dump file.
    #[cold]
    fn to_json(&self) -> String {
        json::to_string_pretty(&self.to_value())
    }

    /// Parse and decode JSON text.
    fn from_json(text: &str) -> Result<Self, DocError> {
        let value = json::parse(text).or_else(|e| error("", format!("not valid JSON: {e}")))?;
        Self::from_value(&value, "")
    }
}

fn object<'k>(fields: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A `u64` as a JSON integer (the bit pattern round-trips through `i64`).
fn int(v: u64) -> Value {
    Value::Int(v as i64)
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// A name-keyed section, each value encoded by `encode`.
fn section<V>(entries: &BTreeMap<String, V>, encode: impl Fn(&V) -> Value) -> Value {
    Value::Object(entries.iter().map(|(k, v)| (k.clone(), encode(v))).collect())
}

fn uint(value: &Value, at: &str) -> Result<u64, DocError> {
    match value {
        Value::Int(v) => Ok(*v as u64),
        _ => error(at, "expected an integer"),
    }
}

fn string(value: &Value, at: &str) -> Result<String, DocError> {
    value.as_str().map(str::to_string).or_else(|_| error(at, "expected a string"))
}

/// The items of an array, each with its key path.
fn items<'a>(value: &'a Value, at: &str) -> Result<Vec<(&'a Value, String)>, DocError> {
    let items = value.as_array().or_else(|_| error(at, "expected an array"))?;
    Ok(items.iter().enumerate().map(|(i, v)| (v, format!("{at}[{i}]"))).collect())
}

/// A JSON object being decoded, with its key path for errors.
struct Fields<'a> {
    map: &'a BTreeMap<String, Value>,
    at: String,
}

impl<'a> Fields<'a> {
    fn of(value: &'a Value, at: &str) -> Result<Self, DocError> {
        match value {
            Value::Object(map) => Ok(Fields { map, at: at.to_string() }),
            _ => error(at, "expected an object"),
        }
    }

    fn path(&self, key: &str) -> String {
        if self.at.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.at)
        }
    }

    fn get(&self, key: &str) -> Result<&'a Value, DocError> {
        self.map.get(key).map_or_else(|| error(&self.path(key), "missing"), Ok)
    }

    fn decode<D: Document>(&self, key: &str) -> Result<D, DocError> {
        D::from_value(self.get(key)?, &self.path(key))
    }

    fn u64(&self, key: &str) -> Result<u64, DocError> {
        uint(self.get(key)?, &self.path(key))
    }

    fn f64(&self, key: &str) -> Result<f64, DocError> {
        self.get(key)?.as_number().or_else(|_| error(&self.path(key), "expected a number"))
    }

    fn text(&self, key: &str) -> Result<String, DocError> {
        string(self.get(key)?, &self.path(key))
    }

    fn object(&self, key: &str) -> Result<Fields<'a>, DocError> {
        Fields::of(self.get(key)?, &self.path(key))
    }

    fn items(&self, key: &str) -> Result<Vec<(&'a Value, String)>, DocError> {
        items(self.get(key)?, &self.path(key))
    }

    /// Every member but `skip`, decoded by `item` and keyed by name.
    fn members<T>(
        &self,
        skip: Option<&str>,
        item: impl Fn(&'a Value, &str) -> Result<T, DocError>,
    ) -> Result<BTreeMap<String, T>, DocError> {
        self.map
            .iter()
            .filter(|(k, _)| Some(k.as_str()) != skip)
            .map(|(k, v)| Ok((k.clone(), item(v, &self.path(k))?)))
            .collect()
    }
}

/// The binary's identity: crate version, git hash (when `FMM_GIT_HASH`
/// was set at compile time), the runtime-selected micro-kernel per dtype,
/// and the wire protocol versions spoken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuildInfo {
    pub version: String,
    pub git_hash: String,
    pub kernel_f64: String,
    pub kernel_f32: String,
    pub protocol_versions: String,
}

impl BuildInfo {
    /// This binary's identity.
    pub fn current() -> BuildInfo {
        BuildInfo {
            version: env!("CARGO_PKG_VERSION").to_string(),
            git_hash: option_env!("FMM_GIT_HASH").unwrap_or("unknown").to_string(),
            kernel_f64: f64::micro_kernel_name().to_string(),
            kernel_f32: f32::micro_kernel_name().to_string(),
            protocol_versions: "v2".to_string(),
        }
    }
}

/// One human-readable line: the `serve`/`top`/`doctor` headers.
impl fmt::Display for BuildInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fmm_serve {} git={} kernel_f64={} kernel_f32={} protocol={}",
            self.version, self.git_hash, self.kernel_f64, self.kernel_f32, self.protocol_versions
        )
    }
}

impl Document for BuildInfo {
    fn to_value(&self) -> Value {
        object([
            ("version", text(&self.version)),
            ("git_hash", text(&self.git_hash)),
            ("kernel_f64", text(&self.kernel_f64)),
            ("kernel_f32", text(&self.kernel_f32)),
            ("protocol_versions", text(&self.protocol_versions)),
        ])
    }

    fn from_value(value: &Value, at: &str) -> Result<Self, DocError> {
        let f = Fields::of(value, at)?;
        Ok(BuildInfo {
            version: f.text("version")?,
            git_hash: f.text("git_hash")?,
            kernel_f64: f.text("kernel_f64")?,
            kernel_f32: f.text("kernel_f32")?,
            protocol_versions: f.text("protocol_versions")?,
        })
    }
}

/// Lifetime totals, nearest-rank percentiles, and the non-empty
/// `[lo, hi, count]` buckets.
impl Document for HistSnapshot {
    fn to_value(&self) -> Value {
        let buckets =
            self.buckets().map(|(lo, hi, n)| Value::Array(vec![int(lo), int(hi), int(n)]));
        object([
            ("count", int(self.count)),
            ("sum_nanos", int(self.sum)),
            ("min_nanos", int(self.min)),
            ("max_nanos", int(self.max)),
            ("mean_nanos", Value::Number(self.mean())),
            ("p50_nanos", int(self.p50())),
            ("p90_nanos", int(self.p90())),
            ("p99_nanos", int(self.p99())),
            ("buckets", Value::Array(buckets.collect())),
        ])
    }

    fn from_value(value: &Value, at: &str) -> Result<Self, DocError> {
        let f = Fields::of(value, at)?;
        let mut buckets = Vec::new();
        for (item, at) in f.items("buckets")? {
            let Ok([lo, hi, n]) = item.as_array() else {
                return error(&at, "expected [lo, hi, count]");
            };
            buckets.push((uint(lo, &at)?, uint(hi, &at)?, uint(n, &at)?));
        }
        let (count, sum) = (f.u64("count")?, f.u64("sum_nanos")?);
        HistSnapshot::from_parts(count, sum, f.u64("min_nanos")?, f.u64("max_nanos")?, &buckets)
            .map_or_else(|| error(&f.path("buckets"), "a [lo, hi] pair is not a bucket"), Ok)
    }
}

/// One decision-audit row: the `fmm_serve audit` report's input.
impl Document for AuditEntry {
    fn to_value(&self) -> Value {
        let sources = SOURCE_NAMES.iter().zip(self.by_source).map(|(name, n)| (*name, int(n)));
        object([
            ("class", text(&self.class_label)),
            ("dtype", text(self.dtype)),
            ("samples", int(self.samples)),
            ("predicted_nanos", int(self.predicted_nanos)),
            ("measured_nanos", int(self.measured_nanos)),
            ("flops", int(self.flops)),
            ("error_log2", Value::Number(self.error_log2())),
            ("mean_gflops", Value::Number(self.mean_gflops())),
            ("best_gflops", Value::Number(self.best_gflops_milli as f64 / 1e3)),
            ("worst_gflops", Value::Number(self.worst_gflops_milli as f64 / 1e3)),
            ("chosen", text(&self.chosen)),
            ("sources", object(sources)),
            ("err_permille", self.err_permille.to_value()),
        ])
    }

    fn from_value(value: &Value, at: &str) -> Result<Self, DocError> {
        let f = Fields::of(value, at)?;
        let dtype = match f.text("dtype")?.as_str() {
            "f64" => "f64",
            "f32" => "f32",
            other => return error(&f.path("dtype"), format!("unknown dtype {other:?}")),
        };
        let sources = f.object("sources")?;
        let mut by_source = [0; SOURCE_NAMES.len()];
        for (count, name) in by_source.iter_mut().zip(SOURCE_NAMES) {
            *count = sources.u64(name)?;
        }
        let milli = |key: &str| f.f64(key).map(|gflops| (gflops * 1e3).round() as u64);
        Ok(AuditEntry {
            class_label: f.text("class")?,
            dtype,
            samples: f.u64("samples")?,
            predicted_nanos: f.u64("predicted_nanos")?,
            measured_nanos: f.u64("measured_nanos")?,
            flops: f.u64("flops")?,
            best_gflops_milli: milli("best_gflops")?,
            worst_gflops_milli: milli("worst_gflops")?,
            by_source,
            chosen: f.text("chosen")?,
            err_permille: f.decode("err_permille")?,
        })
    }
}

/// One recorded event as exported: the event and the writing binary's
/// one-line rendering of it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Logged {
    pub event: Event,
    pub detail: String,
}

/// The recorder's most recent `limit` events (`0` = all it retains),
/// oldest first, rendered for export.
#[cold]
pub fn recent_events(limit: usize) -> Vec<Logged> {
    let logged = |event: Event| Logged { detail: event.describe(), event };
    fmm_obs::trace::recent(limit).into_iter().map(logged).collect()
}

/// Recorded events, oldest first: the `Trace` frame body and an incident's
/// `events`.
impl Document for Vec<Logged> {
    fn to_value(&self) -> Value {
        let entry = |l: &Logged| {
            let e = &l.event;
            object([
                ("kind", text(e.kind.name())),
                ("request_id", int(e.request_id)),
                ("start_nanos", int(e.start_nanos)),
                ("end_nanos", int(e.end_nanos)),
                ("args", Value::Array(e.args.map(int).into())),
                ("thread", int(u64::from(e.thread))),
                ("detail", text(&l.detail)),
            ])
        };
        Value::Array(self.iter().map(entry).collect())
    }

    fn from_value(value: &Value, at: &str) -> Result<Self, DocError> {
        let mut events = Vec::new();
        for (item, at) in items(value, at)? {
            let f = Fields::of(item, &at)?;
            let args = f
                .items("args")?
                .iter()
                .map(|(v, at)| uint(v, at))
                .collect::<Result<Vec<_>, _>>()?;
            let args =
                args.try_into().or_else(|_| error(&f.path("args"), "expected 3 integers"))?;
            let event = Event {
                kind: Kind::from_name(&f.text("kind")?).unwrap_or(Kind::Other),
                request_id: f.u64("request_id")?,
                start_nanos: f.u64("start_nanos")?,
                end_nanos: f.u64("end_nanos")?,
                args,
                thread: f.u64("thread")? as u32,
            };
            events.push(Logged { event, detail: f.text("detail")? });
        }
        Ok(events)
    }
}

/// The merged registry snapshot: the daemon's and the process-global
/// instruments, the engines' `EngineStats::fields()` rows, queue depths,
/// ingest-pool stats, watchdog stalls, and the decision-audit rows.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsSnapshot {
    pub build: BuildInfo,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistSnapshot>,
    /// One row per (shape class, dtype), sorted by [`AuditEntry::key`].
    pub audit: Vec<AuditEntry>,
}

fn named<'a, V>(
    map: &'a BTreeMap<String, V>,
    section: &str,
    name: &str,
) -> Result<&'a V, DocError> {
    map.get(name).map_or_else(|| error(&format!("{section}.{name}"), "missing"), Ok)
}

impl StatsSnapshot {
    /// Counter `name`; the error names it when absent.
    pub fn counter(&self, name: &str) -> Result<u64, DocError> {
        named(&self.counters, "counters", name).copied()
    }

    /// Gauge `name`; the error names it when absent.
    pub fn gauge(&self, name: &str) -> Result<i64, DocError> {
        named(&self.gauges, "gauges", name).copied()
    }

    /// Histogram `name`; the error names it when absent.
    pub fn histogram(&self, name: &str) -> Result<&HistSnapshot, DocError> {
        named(&self.histograms, "histograms", name)
    }

    /// The audit row for `class/dtype` (e.g. `256x256x256/f64`).
    pub fn audit_row(&self, key: &str) -> Result<&AuditEntry, DocError> {
        self.audit
            .iter()
            .find(|e| e.key() == key)
            .map_or_else(|| error(&format!("audit.{key}"), "missing"), Ok)
    }
}

impl Document for StatsSnapshot {
    fn to_value(&self) -> Value {
        let audit = self.audit.iter().map(|e| (e.key(), e.to_value()));
        object([
            ("build", self.build.to_value()),
            ("counters", section(&self.counters, |v| int(*v))),
            ("gauges", section(&self.gauges, |v| Value::Int(*v))),
            ("histograms", section(&self.histograms, HistSnapshot::to_value)),
            ("audit", Value::Object(audit.collect())),
        ])
    }

    fn from_value(value: &Value, at: &str) -> Result<Self, DocError> {
        let f = Fields::of(value, at)?;
        let gauge = |v: &Value, at: &str| uint(v, at).map(|bits| bits as i64);
        Ok(StatsSnapshot {
            build: f.decode("build")?,
            counters: f.object("counters")?.members(None, uint)?,
            gauges: f.object("gauges")?.members(None, gauge)?,
            histograms: f.object("histograms")?.members(None, HistSnapshot::from_value)?,
            audit: f
                .object("audit")?
                .members(None, AuditEntry::from_value)?
                .into_values()
                .collect(),
        })
    }
}

/// The serving knobs in force: the bind address plus every numeric knob
/// by name (`queue_capacity`, `batch_max`, …).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigPrint {
    pub addr: String,
    pub knobs: BTreeMap<String, u64>,
}

/// The watchdog's components in registration order — watchdog events name
/// a component by its index here — and its stall-verdict count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WatchdogRoster {
    pub components: Vec<String>,
    pub stalls_total: u64,
}

/// The self-contained post-mortem: what triggered it, the binary and the
/// knobs in force, the watchdog roster, the recorded events, and the full
/// stats snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct Incident {
    /// `sigterm`, `sigint`, `panic` or `on-demand`.
    pub trigger: String,
    pub build: BuildInfo,
    pub config: ConfigPrint,
    pub watchdog: WatchdogRoster,
    /// Both rings, oldest first.
    pub events: Vec<Logged>,
    pub stats: StatsSnapshot,
}

impl Document for Incident {
    fn to_value(&self) -> Value {
        let knobs = self.config.knobs.iter().map(|(k, v)| (k.as_str(), int(*v)));
        let config = object(knobs.chain([("addr", text(&self.config.addr))]));
        let wd = &self.watchdog;
        let watchdog = object([
            ("components", Value::Array(wd.components.iter().map(|c| text(c)).collect())),
            ("stalls_total", int(wd.stalls_total)),
        ]);
        object([
            ("schema", text(INCIDENT_SCHEMA)),
            ("trigger", text(&self.trigger)),
            ("build", self.build.to_value()),
            ("config", config),
            ("watchdog", watchdog),
            ("events", self.events.to_value()),
            ("stats", self.stats.to_value()),
        ])
    }

    fn from_value(value: &Value, at: &str) -> Result<Self, DocError> {
        let f = Fields::of(value, at)?;
        let schema = f.text("schema")?;
        if schema != INCIDENT_SCHEMA {
            return error(
                &f.path("schema"),
                format!("is {schema:?}, expected {INCIDENT_SCHEMA:?}"),
            );
        }
        let config = f.object("config")?;
        let wd = f.object("watchdog")?;
        let watchdog = WatchdogRoster {
            components: wd
                .items("components")?
                .iter()
                .map(|(v, at)| string(v, at))
                .collect::<Result<_, _>>()?,
            stalls_total: wd.u64("stalls_total")?,
        };
        Ok(Incident {
            trigger: f.text("trigger")?,
            build: f.decode("build")?,
            config: ConfigPrint {
                addr: config.text("addr")?,
                knobs: config.members(Some("addr"), uint)?,
            },
            watchdog,
            events: f.decode("events")?,
            stats: f.decode("stats")?,
        })
    }
}
