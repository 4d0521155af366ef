//! Std-only observability for the Chortle mapping pipeline.
//!
//! The pipeline (`logic-opt → forest → wavefront → subset-DP`) reports
//! into a single [`Telemetry`] handle:
//!
//! * **spans** — wall-time of named pipeline stages ([`Telemetry::span`]),
//! * **counters** — monotonically accumulated event counts
//!   ([`Telemetry::add_counter`]); producers define counts so that the
//!   totals are *scheduling-independent* (identical for any worker
//!   count),
//! * **wavefront events** — per-wavefront worker occupancy of the
//!   parallel forest mapper ([`Telemetry::record_wavefront`]).
//!
//! A handle is either **enabled** (shared, thread-safe recorder behind an
//! `Arc`) or **disabled** (the default). Disabled handles are a single
//! `Option` check per call and never touch a clock or a lock, so
//! instrumented code pays nothing when nobody is listening.
//!
//! [`Telemetry::snapshot`] freezes everything recorded so far into a
//! [`Report`], which renders as machine-readable JSON
//! ([`Report::to_json`], validated by [`schema::validate_report`]) or a
//! human summary ([`Report::to_text`]).
//!
//! Since schema v1.3 a handle also carries:
//!
//! * **histograms** — exact log-bucketed duration distributions
//!   ([`Telemetry::record_value`], [`Telemetry::merge_histogram`]; see
//!   [`hist`]) that merge associatively across workers,
//! * **structured traces** — typed begin/end/instant events with a
//!   deterministic merge order ([`Telemetry::traced`],
//!   [`Telemetry::trace_snapshot`]; see [`trace`]), exportable as
//!   Chrome trace-event JSON. A handle only pays for tracing when
//!   created with [`Telemetry::traced`].
//!
//! Schema v1.7 adds the live observability plane: a process-global
//! structured logger ([`log`]) whose closed `log.*` counter namespace
//! can mirror into a handle, and Prometheus text exposition of any
//! report ([`prom`]).
//!
//! # Examples
//!
//! ```
//! use chortle_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::enabled();
//! {
//!     let _guard = telemetry.span("demo.stage");
//!     telemetry.add_counter("demo.events", 3);
//! }
//! let report = telemetry.snapshot();
//! assert_eq!(report.counter("demo.events"), Some(3));
//! assert_eq!(report.stages[0].name, "demo.stage");
//! chortle_telemetry::schema::validate_report(&report.to_json()).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod json;
pub mod log;
pub mod prom;
pub mod schema;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub use hist::Histogram;
pub use trace::{
    validate_chrome_trace, IdentityEvent, Trace, TraceBuffer, TraceEvent, TraceKind, TraceScope,
};

/// Identifier of the report layout, embedded in every JSON report and
/// checked by [`schema::validate_report`].
pub const SCHEMA: &str = "chortle-telemetry/v1.7";

/// Default capacity (in events) of a traced handle's event store.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

#[derive(Default)]
struct StageAgg {
    name: &'static str,
    calls: u64,
    seconds: f64,
}

#[derive(Default)]
struct Inner {
    /// Stage aggregates in first-seen order (pipeline order reads best).
    stages: Mutex<Vec<StageAgg>>,
    /// Counters, name-sorted for deterministic reports.
    counters: Mutex<BTreeMap<&'static str, u64>>,
    /// Histograms, name-sorted for deterministic reports.
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
    /// Wavefront events in recording order.
    wavefronts: Mutex<Vec<WavefrontStat>>,
    /// Trace recorder; present only on handles built with
    /// [`Telemetry::traced`].
    trace: Option<TraceShared>,
}

/// The trace side of an [`Inner`]: a capacity-bounded event store plus
/// the epoch all timestamps are measured from.
struct TraceShared {
    epoch: Instant,
    capacity: usize,
    /// Allocator for `Stage`-scope span indices (driver-side spans are
    /// created in a deterministic program order, so this sequence is
    /// schedule-independent).
    stage_seq: AtomicU64,
    state: Mutex<TraceState>,
}

#[derive(Default)]
struct TraceState {
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl TraceShared {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, event: TraceEvent) {
        let mut state = self.state.lock().expect("telemetry lock");
        if state.events.len() < self.capacity {
            state.events.push(event);
        } else {
            state.dropped += 1;
        }
    }
}

/// A cloneable handle the pipeline reports into.
///
/// Clones share one recorder; a disabled handle (the [`Default`]) makes
/// every recording call a no-op. All methods take `&self` and are safe to
/// call from concurrent mapper workers.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// A recording handle.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A no-op handle (what [`Default`] returns): recording calls do
    /// nothing and [`snapshot`](Telemetry::snapshot) is empty.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A recording handle that additionally captures structured trace
    /// events (capacity [`DEFAULT_TRACE_CAPACITY`]).
    pub fn traced() -> Self {
        Telemetry::traced_with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A recording, tracing handle holding at most `capacity` events;
    /// further events are counted as dropped, never buffered.
    pub fn traced_with_capacity(capacity: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                trace: Some(TraceShared {
                    epoch: Instant::now(),
                    capacity,
                    stage_seq: AtomicU64::new(0),
                    state: Mutex::new(TraceState::default()),
                }),
                ..Inner::default()
            })),
        }
    }

    /// Whether this handle records anything. Instrumented code may use
    /// this to skip preparing data that only feeds telemetry.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether this handle captures trace events.
    pub fn is_tracing(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.trace.is_some())
    }

    /// Starts timing the named stage; the elapsed wall time is recorded
    /// when the returned guard drops. Repeated spans of the same name
    /// accumulate (`calls` counts them). Disabled handles never read the
    /// clock. On a tracing handle the span also emits `Stage`-scope
    /// begin/end trace events.
    #[must_use = "the span records on drop; binding it to _ drops immediately"]
    pub fn span(&self, name: &'static str) -> Span {
        let Some(inner) = &self.inner else {
            return Span {
                rec: None,
                trace_index: None,
            };
        };
        let trace_index = inner.trace.as_ref().map(|tr| {
            let index = tr.stage_seq.fetch_add(1, Ordering::Relaxed);
            tr.push(TraceEvent {
                scope: TraceScope::Stage,
                index,
                step: trace::STEP_BEGIN,
                name,
                kind: TraceKind::Begin,
                worker: 0,
                arg: 0,
                t_ns: tr.now_ns(),
            });
            index
        });
        Span {
            rec: Some((Arc::clone(inner), name, Instant::now())),
            trace_index,
        }
    }

    /// Records one completed call of the named stage directly (for
    /// durations measured by the caller).
    pub fn record_stage(&self, name: &'static str, seconds: f64) {
        if let Some(inner) = &self.inner {
            inner.add_stage(name, seconds);
        }
    }

    /// Adds `delta` to the named counter (created at zero on first use).
    pub fn add_counter(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            let mut counters = inner.counters.lock().expect("telemetry lock");
            *counters.entry(name).or_insert(0) += delta;
        }
    }

    /// Records one sample into the named histogram (created empty on
    /// first use). Values are nanoseconds by convention.
    pub fn record_value(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            let mut hists = inner.histograms.lock().expect("telemetry lock");
            hists.entry(name).or_default().record(value);
        }
    }

    /// Records one duration into the named histogram, as nanoseconds.
    pub fn record_duration(&self, name: &'static str, d: Duration) {
        self.record_value(name, u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Merges a worker-local histogram into the named histogram — one
    /// lock acquisition for any number of samples. Merging is
    /// associative and partition-invariant (see [`hist`]).
    pub fn merge_histogram(&self, name: &'static str, h: &Histogram) {
        if let Some(inner) = &self.inner {
            let mut hists = inner.histograms.lock().expect("telemetry lock");
            hists.entry(name).or_default().merge(h);
        }
    }

    /// Records one wavefront of the parallel forest mapper.
    pub fn record_wavefront(&self, stat: WavefrontStat) {
        if let Some(inner) = &self.inner {
            inner.wavefronts.lock().expect("telemetry lock").push(stat);
        }
    }

    /// A per-worker trace buffer bound to this handle's epoch; inert
    /// (records nothing) unless the handle is tracing.
    pub fn trace_buffer(&self, worker: u32) -> TraceBuffer {
        TraceBuffer {
            worker,
            epoch: self
                .inner
                .as_ref()
                .and_then(|i| i.trace.as_ref())
                .map(|tr| tr.epoch),
            events: Vec::new(),
        }
    }

    /// Moves a buffer's events into the handle's bounded event store
    /// (one lock acquisition); the buffer is left empty and reusable.
    pub fn trace_flush(&self, buf: &mut TraceBuffer) {
        let Some(tr) = self.inner.as_ref().and_then(|i| i.trace.as_ref()) else {
            buf.events.clear();
            return;
        };
        let mut state = tr.state.lock().expect("telemetry lock");
        for event in buf.events.drain(..) {
            if state.events.len() < tr.capacity {
                state.events.push(event);
            } else {
                state.dropped += 1;
            }
        }
    }

    /// Records one already-built trace event directly (drivers use this
    /// for post-hoc instants; hot paths should batch via
    /// [`trace_buffer`](Telemetry::trace_buffer)).
    pub fn trace_event(&self, event: TraceEvent) {
        if let Some(tr) = self.inner.as_ref().and_then(|i| i.trace.as_ref()) {
            tr.push(event);
        }
    }

    /// Monotonic nanoseconds since the handle's trace epoch (0 when not
    /// tracing).
    pub fn trace_now_ns(&self) -> u64 {
        self.inner
            .as_ref()
            .and_then(|i| i.trace.as_ref())
            .map_or(0, TraceShared::now_ns)
    }

    /// Freezes the recorded trace events into a [`Trace`], merged into
    /// the deterministic key order (see [`trace`]). Empty when the
    /// handle is not tracing.
    pub fn trace_snapshot(&self) -> Trace {
        let Some(tr) = self.inner.as_ref().and_then(|i| i.trace.as_ref()) else {
            return Trace::default();
        };
        let state = tr.state.lock().expect("telemetry lock");
        let mut events = state.events.clone();
        let dropped = state.dropped;
        drop(state);
        events.sort_by_key(TraceEvent::key);
        Trace { events, dropped }
    }

    /// Freezes everything recorded so far into a [`Report`]. The handle
    /// keeps recording afterwards; snapshots are cheap and repeatable.
    pub fn snapshot(&self) -> Report {
        let Some(inner) = &self.inner else {
            return Report::default();
        };
        let stages = inner
            .stages
            .lock()
            .expect("telemetry lock")
            .iter()
            .map(|s| StageStat {
                name: s.name.to_owned(),
                calls: s.calls,
                seconds: s.seconds,
            })
            .collect();
        let mut counters: BTreeMap<&'static str, u64> = inner
            .counters
            .lock()
            .expect("telemetry lock")
            .iter()
            .map(|(&name, &value)| (name, value))
            .collect();
        if let Some(tr) = &inner.trace {
            // Observation echoes, not workload counters: how much trace
            // data this handle captured (schedule-dependent — scheduler
            // events vary with the worker count).
            let state = tr.state.lock().expect("telemetry lock");
            counters.insert("trace.events", state.events.len() as u64);
            counters.insert("trace.dropped", state.dropped);
        }
        let counters = counters
            .into_iter()
            .map(|(name, value)| CounterStat {
                name: name.to_owned(),
                value,
            })
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .expect("telemetry lock")
            .iter()
            .map(|(&name, hist)| HistogramStat {
                name: name.to_owned(),
                hist: hist.clone(),
            })
            .collect();
        let wavefronts = inner.wavefronts.lock().expect("telemetry lock").clone();
        Report {
            enabled: true,
            stages,
            counters,
            histograms,
            wavefronts,
        }
    }
}

impl Inner {
    fn add_stage(&self, name: &'static str, seconds: f64) {
        let mut stages = self.stages.lock().expect("telemetry lock");
        if let Some(s) = stages.iter_mut().find(|s| s.name == name) {
            s.calls += 1;
            s.seconds += seconds;
        } else {
            stages.push(StageAgg {
                name,
                calls: 1,
                seconds,
            });
        }
    }
}

/// Guard returned by [`Telemetry::span`]; records the elapsed stage time
/// (and, on tracing handles, the closing trace event) when dropped.
#[derive(Debug)]
pub struct Span {
    rec: Option<(Arc<Inner>, &'static str, Instant)>,
    /// The `Stage`-scope trace index this span opened, if tracing.
    trace_index: Option<u64>,
}

impl fmt::Debug for Inner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Inner").finish_non_exhaustive()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((inner, name, start)) = self.rec.take() {
            inner.add_stage(name, start.elapsed().as_secs_f64());
            if let (Some(index), Some(tr)) = (self.trace_index, &inner.trace) {
                tr.push(TraceEvent {
                    scope: TraceScope::Stage,
                    index,
                    step: trace::STEP_END,
                    name,
                    kind: TraceKind::End,
                    worker: 0,
                    arg: 0,
                    t_ns: tr.now_ns(),
                });
            }
        }
    }
}

/// Wall time of one named pipeline stage.
#[derive(Clone, Debug, PartialEq)]
pub struct StageStat {
    /// Stage name (e.g. `flow.optimize`, `map.dp`).
    pub name: String,
    /// Completed spans recorded under this name.
    pub calls: u64,
    /// Total wall seconds across all calls.
    pub seconds: f64,
}

/// Final value of one counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterStat {
    /// Counter name (e.g. `dp.divisions`).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// Final state of one named histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramStat {
    /// Histogram name (e.g. `map.tree_ns`).
    pub name: String,
    /// The bucket counts (see [`hist::Histogram`]).
    pub hist: Histogram,
}

/// Worker occupancy of one wavefront of the parallel forest mapper.
///
/// `claimed[w]` and `busy_s[w]` describe worker `w`: how many trees it
/// pulled off the shared cursor and how long its mapping loop ran. These
/// depend on OS scheduling and are *not* required to be identical across
/// runs or worker counts — unlike [`Report::counters`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WavefrontStat {
    /// Wavefront index (0 = trees fed only by primary inputs).
    pub index: usize,
    /// Trees in this wavefront.
    pub trees: usize,
    /// Workers that mapped it.
    pub workers: usize,
    /// Wall time of the whole wavefront, in seconds.
    pub seconds: f64,
    /// Trees claimed per worker (`len() == workers`).
    pub claimed: Vec<u64>,
    /// Busy seconds per worker (`len() == workers`).
    pub busy_s: Vec<f64>,
}

impl WavefrontStat {
    /// Fraction of the wavefront's worker-seconds actually spent mapping:
    /// `sum(busy_s) / (workers · seconds)`, clamped to `0..=1`. Zero when
    /// the wavefront was too fast to measure.
    pub fn occupancy(&self) -> f64 {
        let capacity = self.seconds * self.workers as f64;
        if capacity <= 0.0 {
            0.0
        } else {
            (self.busy_s.iter().sum::<f64>() / capacity).clamp(0.0, 1.0)
        }
    }
}

/// An immutable snapshot of a [`Telemetry`] handle.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Whether the handle was recording (a disabled handle snapshots to
    /// an all-empty report with `enabled == false`).
    pub enabled: bool,
    /// Stage wall times, in first-recorded order.
    pub stages: Vec<StageStat>,
    /// Counters, sorted by name. Producers guarantee these are
    /// scheduling-independent: the same workload yields bit-identical
    /// values for any `jobs` setting (`sched.*` and `trace.*` are the
    /// documented schedule/observation-echo exceptions).
    pub counters: Vec<CounterStat>,
    /// Histograms, sorted by name. Bucket *boundaries* are exact, so
    /// histograms of deterministic quantities (e.g. per-tree DP work)
    /// are bit-identical across worker counts; wall-time histograms
    /// vary with the run but always merge consistently.
    pub histograms: Vec<HistogramStat>,
    /// Wavefront occupancy events, in wavefront order per mapping call.
    pub wavefronts: Vec<WavefrontStat>,
}

impl Report {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.hist)
    }

    /// Looks up a stage by name.
    pub fn stage(&self, name: &str) -> Option<&StageStat> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Renders the report as a self-describing JSON object (layout
    /// [`SCHEMA`]; see [`schema::validate_report`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"schema\":");
        json::write_string(&mut out, SCHEMA);
        out.push_str(",\"enabled\":");
        out.push_str(if self.enabled { "true" } else { "false" });
        out.push_str(",\"stages\":[");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_string(&mut out, &s.name);
            out.push_str(",\"calls\":");
            out.push_str(&s.calls.to_string());
            out.push_str(",\"seconds\":");
            json::write_f64(&mut out, s.seconds);
            out.push('}');
        }
        out.push_str("],\"counters\":[");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_string(&mut out, &c.name);
            out.push_str(",\"value\":");
            out.push_str(&c.value.to_string());
            out.push('}');
        }
        out.push_str("],\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_string(&mut out, &h.name);
            out.push(',');
            h.hist.write_json_fields(&mut out);
            out.push('}');
        }
        out.push_str("],\"wavefronts\":[");
        for (i, w) in self.wavefronts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    "{{\"index\":{},\"trees\":{},\"workers\":{},\"seconds\":",
                    w.index, w.trees, w.workers
                ),
            );
            json::write_f64(&mut out, w.seconds);
            out.push_str(",\"occupancy\":");
            json::write_f64(&mut out, w.occupancy());
            out.push_str(",\"claimed\":[");
            for (j, c) in w.claimed.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&c.to_string());
            }
            out.push_str("],\"busy_s\":[");
            for (j, b) in w.busy_s.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::write_f64(&mut out, *b);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Renders a human-readable summary (stages, counters, occupancy).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.enabled {
            let _ = writeln!(out, "telemetry: disabled (no data recorded)");
            return out;
        }
        let _ = writeln!(out, "stages:");
        let width = self
            .stages
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(0)
            .max(5);
        for s in &self.stages {
            let _ = writeln!(
                out,
                "  {:<width$}  {:>10.6}s  x{}",
                s.name, s.seconds, s.calls
            );
        }
        let _ = writeln!(out, "counters:");
        let cwidth = self
            .counters
            .iter()
            .map(|c| c.name.len())
            .max()
            .unwrap_or(0)
            .max(5);
        for c in &self.counters {
            let _ = writeln!(out, "  {:<cwidth$}  {:>12}", c.name, c.value);
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "histograms:");
            let hwidth = self
                .histograms
                .iter()
                .map(|h| h.name.len())
                .max()
                .unwrap_or(0)
                .max(5);
            for h in &self.histograms {
                let ms = 1e-6;
                let _ = writeln!(
                    out,
                    "  {:<hwidth$}  n={:<8} mean={:>10.4}ms  p50={:>10.4}ms  p95={:>10.4}ms  p99={:>10.4}ms",
                    h.name,
                    h.hist.count(),
                    h.hist.mean() * ms,
                    h.hist.quantile(0.5) as f64 * ms,
                    h.hist.quantile(0.95) as f64 * ms,
                    h.hist.quantile(0.99) as f64 * ms,
                );
            }
        }
        if !self.wavefronts.is_empty() {
            let _ = writeln!(out, "wavefronts:");
            for w in &self.wavefronts {
                let _ = writeln!(
                    out,
                    "  wave {:>3}: {:>5} trees, {} worker(s), {:>9.6}s, occupancy {:>5.1}%",
                    w.index,
                    w.trees,
                    w.workers,
                    w.seconds,
                    w.occupancy() * 100.0
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.add_counter("x", 5);
        t.record_stage("s", 1.0);
        t.record_wavefront(WavefrontStat::default());
        drop(t.span("s"));
        let report = t.snapshot();
        assert_eq!(report, Report::default());
        assert!(!report.enabled);
    }

    #[test]
    fn counters_accumulate_and_sort() {
        let t = Telemetry::enabled();
        t.add_counter("b", 2);
        t.add_counter("a", 1);
        t.add_counter("b", 3);
        let report = t.snapshot();
        assert_eq!(report.counter("a"), Some(1));
        assert_eq!(report.counter("b"), Some(5));
        assert_eq!(report.counters[0].name, "a");
        assert_eq!(report.counters[1].name, "b");
    }

    #[test]
    fn spans_aggregate_by_name_in_first_seen_order() {
        let t = Telemetry::enabled();
        t.record_stage("late", 0.25);
        t.record_stage("early", 0.5);
        t.record_stage("late", 0.75);
        let report = t.snapshot();
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.stages[0].name, "late");
        assert_eq!(report.stages[0].calls, 2);
        assert!((report.stages[0].seconds - 1.0).abs() < 1e-12);
        assert_eq!(report.stages[1].name, "early");
    }

    #[test]
    fn span_guard_records_on_drop() {
        let t = Telemetry::enabled();
        {
            let _guard = t.span("guarded");
        }
        let report = t.snapshot();
        let s = report.stage("guarded").expect("recorded");
        assert_eq!(s.calls, 1);
        assert!(s.seconds >= 0.0);
    }

    #[test]
    fn clones_share_the_recorder() {
        let t = Telemetry::enabled();
        let clone = t.clone();
        clone.add_counter("shared", 7);
        assert_eq!(t.snapshot().counter("shared"), Some(7));
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let t = Telemetry::enabled();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        t.add_counter("hits", 1);
                        t.record_stage("work", 0.001);
                    }
                });
            }
        });
        let report = t.snapshot();
        assert_eq!(report.counter("hits"), Some(400));
        assert_eq!(report.stage("work").expect("stage").calls, 400);
    }

    #[test]
    fn occupancy_math() {
        let w = WavefrontStat {
            index: 0,
            trees: 4,
            workers: 2,
            seconds: 1.0,
            claimed: vec![2, 2],
            busy_s: vec![0.5, 0.5],
        };
        assert!((w.occupancy() - 0.5).abs() < 1e-12);
        assert_eq!(WavefrontStat::default().occupancy(), 0.0);
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let t = Telemetry::enabled();
        t.add_counter("dp.divisions", 42);
        t.record_stage("map.dp", 0.125);
        t.record_wavefront(WavefrontStat {
            index: 0,
            trees: 3,
            workers: 2,
            seconds: 0.5,
            claimed: vec![2, 1],
            busy_s: vec![0.25, 0.125],
        });
        let json = t.snapshot().to_json();
        let value = json::parse(&json).expect("valid JSON");
        assert_eq!(
            value.get("schema").and_then(json::Value::as_str),
            Some(SCHEMA)
        );
        schema::validate_report(&json).expect("schema-valid");
    }

    #[test]
    fn text_report_mentions_everything() {
        let t = Telemetry::enabled();
        t.add_counter("dp.divisions", 42);
        t.record_stage("map.dp", 0.125);
        t.record_wavefront(WavefrontStat {
            index: 1,
            trees: 3,
            workers: 2,
            seconds: 0.5,
            claimed: vec![2, 1],
            busy_s: vec![0.25, 0.125],
        });
        let text = t.snapshot().to_text();
        assert!(text.contains("map.dp"));
        assert!(text.contains("dp.divisions"));
        assert!(text.contains("wave   1"));
        assert!(Telemetry::disabled()
            .snapshot()
            .to_text()
            .contains("disabled"));
    }
}
