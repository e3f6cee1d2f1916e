//! `obs` — the MPI_T-style observability layer of the MVAPICH2-J
//! reproduction.
//!
//! The real MVAPICH2 ships the MPI_T tool-information interface and the
//! OSU INAM monitoring stack; this crate plays that role for the
//! simulation: every layer (engine, collectives, managed runtime, JNI
//! boundary, buffering pool, bindings) reports *performance variables*
//! (counters / gauges / histograms, see [`pvar`]) and *virtual-time trace
//! events* (see [`trace`]) through a per-rank recorder. On top of those
//! primitives sit three time-aware surfaces:
//!
//! * [`telemetry`] — a virtual-time sampler binning every pvar update
//!   into fixed intervals of the simulation clock (per-rank time-series).
//! * [`flight`] — an always-on bounded flight recorder: the last N trace
//!   events per rank, evictions counted in `flight.dropped`.
//! * [`incident`] — fault-triggered bundles: ring + pvars + telemetry
//!   drained into one JSON document when a fault fires.
//!
//! ## Design rules
//!
//! * **Zero virtual cost.** Instrumentation only ever *reads* virtual
//!   clocks; it never charges one. Simulated timings are bit-identical
//!   with observability on or off, and a test in the workspace root
//!   enforces that.
//! * **Deterministic output.** Timestamps are virtual, pvar iteration is
//!   name-ordered, and ranks are assembled in rank order, so two
//!   identical runs serialize to byte-identical trace files, telemetry
//!   series, and incident bundles.
//! * **No plumbing through signatures.** Each rank runs on its own OS
//!   thread (see `simfabric::run_cluster`), so the recorder is a
//!   thread-local installed by the job harness around the rank closure.
//!   Every layer below calls the free functions ([`count`], [`observe`],
//!   [`span`], …).
//! * **Cheap when off.** Every free function opens with one relaxed load
//!   of a thread-local gate word and returns if no sink wants the record
//!   — no `RefCell` borrow, no argument-vector allocation downstream
//!   (callers check [`tracing_enabled`] first). perfbench's
//!   `stencil_lossy` workload keeps these probes on its hot path, so
//!   regressions here are a number, not a feeling.

pub mod analyze;
pub mod flight;
pub mod incident;
pub mod json;
pub mod pvar;
pub mod telemetry;
pub mod trace;
pub mod wallprof;

pub use flight::{FlightWindow, DEFAULT_FLIGHT_CAPACITY};
pub use incident::IncidentMark;
pub use pvar::{bucket_of, Log2Hist, PvarSet, PvarValue, HIST_BUCKETS};
pub use telemetry::{RankSeries, Sample};
pub use trace::{ArgValue, FlowDir, TraceEvent, TraceRing};

/// Pvar counting trace events evicted from the ring (satellite of the
/// analyzer: truncated traces are flagged, not silently misread).
pub const DROPPED_EVENTS_PVAR: &str = "trace.dropped_events";

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};

use vtime::VTime;

/// Per-job observability switches. Carried by the job configuration of
/// the bindings crates; `Copy` so configs stay `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsOptions {
    /// Collect trace events (pvars are always collected while a recorder
    /// is installed; the unbounded-ish event ring is the expensive part).
    pub tracing: bool,
    /// Ring capacity per rank (newest events win).
    pub ring_capacity: usize,
    /// Wall-clock self-profiling of the simulator (see [`wallprof`]).
    /// Never affects virtual time or any determinism digest.
    pub profiling: bool,
    /// Keep a bounded flight window of the most recent trace events
    /// (see [`flight`]) — independent of `tracing`, cheap enough to stay
    /// on for long runs.
    pub flight: bool,
    /// Flight window capacity per rank.
    pub flight_capacity: usize,
    /// Telemetry sampling interval in virtual nanoseconds; `0.0` turns
    /// the sampler off (see [`telemetry`]).
    pub telemetry_interval_ns: f64,
}

impl ObsOptions {
    pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;
    /// Default sampling interval: 10 virtual microseconds — fine enough
    /// to localize a retransmit storm inside an `osu_latency` sweep,
    /// coarse enough that a series stays a few hundred samples.
    pub const DEFAULT_TELEMETRY_INTERVAL_NS: f64 = 10_000.0;

    /// Tracing on, default ring.
    pub fn traced() -> Self {
        ObsOptions {
            tracing: true,
            ..Default::default()
        }
    }

    /// Wall-clock self-profiling on, tracing off.
    pub fn profiled() -> Self {
        ObsOptions {
            profiling: true,
            ..Default::default()
        }
    }

    /// Enable the flight recorder (default window size).
    pub fn with_flight(mut self) -> Self {
        self.flight = true;
        self
    }

    /// Enable telemetry sampling at `interval_ns` virtual nanoseconds
    /// (values `<= 0.0` fall back to the default interval).
    pub fn with_telemetry(mut self, interval_ns: f64) -> Self {
        self.telemetry_interval_ns = if interval_ns > 0.0 {
            interval_ns
        } else {
            Self::DEFAULT_TELEMETRY_INTERVAL_NS
        };
        self
    }
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            tracing: false,
            ring_capacity: Self::DEFAULT_RING_CAPACITY,
            profiling: false,
            flight: false,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
            telemetry_interval_ns: 0.0,
        }
    }
}

// ---------------------------------------------------------------------
// The fast gate: one thread-local word saying which sinks are live.
//
// Every record call starts with a single relaxed load of this word; when
// it is zero (the common case in unit tests driving a layer directly,
// and the *only* case priced into disabled-path benchmarks) the call
// returns before touching the `RefCell` recorder slot or wallprof.
// ---------------------------------------------------------------------

/// A recorder is installed: pvar updates have somewhere to go.
pub(crate) const GATE_PVARS: u32 = 1;
/// At least one event sink (full trace ring and/or flight window) wants
/// span/instant/flow records.
pub(crate) const GATE_EVENTS: u32 = 1 << 1;
/// The telemetry sampler is binning updates by virtual time.
pub(crate) const GATE_TELEMETRY: u32 = 1 << 2;
/// Wall-clock self-profiling is live (owned by [`wallprof`]).
pub(crate) const GATE_WALLPROF: u32 = 1 << 3;

thread_local! {
    static GATE: AtomicU32 = const { AtomicU32::new(0) };
}

#[inline]
pub(crate) fn gate() -> u32 {
    GATE.with(|g| g.load(Ordering::Relaxed))
}

pub(crate) fn set_gate(bit: u32, on: bool) {
    GATE.with(|g| {
        let cur = g.load(Ordering::Relaxed);
        let next = if on { cur | bit } else { cur & !bit };
        g.store(next, Ordering::Relaxed);
    });
}

/// The per-thread (= per-rank) recorder.
struct Recorder {
    rank: usize,
    label: String,
    tracing: bool,
    pvars: PvarSet,
    ring: TraceRing,
    /// Bounded always-on window (`ObsOptions::flight`).
    flight: Option<TraceRing>,
    /// Virtual-time sampler (`ObsOptions::telemetry_interval_ns > 0`).
    telemetry: Option<telemetry::Sampler>,
    /// First fault this rank observed (first mark wins).
    incident: Option<IncidentMark>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Install a recorder for this thread (one simulated rank). Replaces any
/// previous recorder.
pub fn install(rank: usize, opts: ObsOptions) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            rank,
            label: format!("rank {rank}"),
            tracing: opts.tracing,
            pvars: PvarSet::new(),
            ring: TraceRing::new(opts.ring_capacity),
            flight: opts.flight.then(|| TraceRing::new(opts.flight_capacity)),
            telemetry: (opts.telemetry_interval_ns > 0.0)
                .then(|| telemetry::Sampler::new(opts.telemetry_interval_ns)),
            incident: None,
        });
    });
    set_gate(GATE_PVARS, true);
    set_gate(GATE_EVENTS, opts.tracing || opts.flight);
    set_gate(GATE_TELEMETRY, opts.telemetry_interval_ns > 0.0);
    if opts.profiling {
        wallprof::install();
    } else {
        wallprof::reset();
    }
}

/// Name this rank's process row in trace viewers (e.g.
/// `"rank 3 (MVAPICH2-J, threaded engine)"`).
pub fn set_process_label(label: String) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.label = label;
        }
    });
}

/// Remove this thread's recorder and return what it collected.
pub fn uninstall() -> Option<RankReport> {
    let wall = wallprof::harvest();
    set_gate(GATE_PVARS | GATE_EVENTS | GATE_TELEMETRY, false);
    RECORDER.with(|r| r.borrow_mut().take()).map(|rec| {
        let (events, dropped_events) = rec.ring.into_events();
        RankReport {
            rank: rec.rank,
            label: rec.label,
            pvars: rec.pvars,
            events,
            dropped_events,
            flight: rec.flight.map(FlightWindow::from_ring),
            telemetry: rec.telemetry.map(telemetry::Sampler::into_series),
            incident: rec.incident,
            wall,
        }
    })
}

/// Whether a recorder is installed on this thread.
pub fn is_installed() -> bool {
    gate() & GATE_PVARS != 0
}

/// Whether any event sink (full trace ring or flight window) is live
/// (lets callers skip building argument vectors when nothing would
/// record them).
#[inline]
pub fn tracing_enabled() -> bool {
    gate() & GATE_EVENTS != 0
}

impl Recorder {
    /// Pvar update that also lands in the telemetry bin of the current
    /// virtual interval.
    fn count(&mut self, name: &str, n: u64) {
        self.pvars.count(name, n);
        if let Some(s) = self.telemetry.as_mut() {
            s.count(name, n);
        }
    }

    fn gauge_set(&mut self, name: &str, v: i64) {
        self.pvars.gauge_set(name, v);
        if let Some(s) = self.telemetry.as_mut() {
            s.gauge_set(name, v);
        }
    }

    fn observe(&mut self, name: &str, v: f64) {
        self.pvars.observe(name, v);
        if let Some(s) = self.telemetry.as_mut() {
            s.observe(name, v);
        }
    }

    /// Push an event into whichever sinks are live, accounting ring
    /// evictions under [`DROPPED_EVENTS_PVAR`] / [`flight::DROPPED_PVAR`].
    fn record(&mut self, ev: TraceEvent) {
        match (self.tracing, self.flight.is_some()) {
            (true, true) => {
                let cloned = ev.clone();
                if self.flight.as_mut().unwrap().push(cloned) {
                    self.count(flight::DROPPED_PVAR, 1);
                }
                if self.ring.push(ev) {
                    self.count(DROPPED_EVENTS_PVAR, 1);
                }
            }
            (true, false) => {
                if self.ring.push(ev) {
                    self.count(DROPPED_EVENTS_PVAR, 1);
                }
            }
            (false, true) => {
                if self.flight.as_mut().unwrap().push(ev) {
                    self.count(flight::DROPPED_PVAR, 1);
                }
            }
            (false, false) => {}
        }
    }
}

/// Bump counter `name` by `n`.
#[inline]
pub fn count(name: &str, n: u64) {
    if gate() == 0 {
        return;
    }
    let _wp = wallprof::obs_record_span();
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.count(name, n);
        }
    });
}

/// Set gauge `name` to level `v`.
#[inline]
pub fn gauge_set(name: &str, v: i64) {
    if gate() == 0 {
        return;
    }
    let _wp = wallprof::obs_record_span();
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.gauge_set(name, v);
        }
    });
}

/// Record a histogram sample.
#[inline]
pub fn observe(name: &str, v: f64) {
    if gate() == 0 {
        return;
    }
    let _wp = wallprof::obs_record_span();
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.observe(name, v);
        }
    });
}

/// Move this rank's telemetry sampler to the interval containing virtual
/// time `t`. The engine calls this with the arrival time of the delivery
/// it is about to handle (and the bindings with the application clock at
/// each call), so subsequent pvar updates bin to the virtual moment that
/// caused them — which is what makes the series independent of real-time
/// mailbox pop order.
#[inline]
pub fn telemetry_tick(t: VTime) {
    if gate() & GATE_TELEMETRY == 0 {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            if let Some(s) = rec.telemetry.as_mut() {
                s.tick(t.as_nanos());
            }
        }
    });
}

/// Account `bytes` sent from `src` to `dst` under the per-link pvars
/// `fabric.link.{src}->{dst}.bytes` / `.msgs`. Only live while telemetry
/// is sampling (the dynamic names allocate; the timeline analyzer is
/// their only consumer).
#[inline]
pub fn link_traffic(src: usize, dst: usize, bytes: u64) {
    if gate() & GATE_TELEMETRY == 0 {
        return;
    }
    let _wp = wallprof::obs_record_span();
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.count(&format!("fabric.link.{src}->{dst}.bytes"), bytes);
            rec.count(&format!("fabric.link.{src}->{dst}.msgs"), 1);
        }
    });
}

/// Drop an incident mark on this rank: the engine observed fault `kind`
/// (blaming `failed_rank`) at virtual time `at`. The first mark wins —
/// later faults on the same rank are fallout and only bump the
/// [`incident::MARKS_PVAR`] counter. Also lands an `"incident"` instant
/// event in the live event sinks so the mark shows up inside the flight
/// window itself.
pub fn incident_mark(kind: &'static str, failed_rank: usize, at: VTime, detail: String) {
    if gate() & GATE_PVARS == 0 {
        return;
    }
    let _wp = wallprof::obs_record_span();
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.count(incident::MARKS_PVAR, 1);
            if rec.tracing || rec.flight.is_some() {
                rec.record(TraceEvent::instant(
                    "incident",
                    "incident",
                    at,
                    vec![
                        ("kind", ArgValue::Str(kind)),
                        ("failed_rank", ArgValue::U64(failed_rank as u64)),
                    ],
                ));
            }
            if rec.incident.is_none() {
                rec.incident = Some(IncidentMark {
                    t_ns: at.as_nanos(),
                    kind,
                    failed_rank,
                    detail,
                });
            }
        }
    });
}

/// Record a complete span `[begin, end)` (no-op unless an event sink or
/// the wall profiler is live).
#[inline]
pub fn span(
    name: &'static str,
    cat: &'static str,
    begin: VTime,
    end: VTime,
    args: Vec<(&'static str, ArgValue)>,
) {
    if gate() & (GATE_EVENTS | GATE_WALLPROF) == 0 {
        return;
    }
    let _wp = wallprof::obs_record_span();
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.record(TraceEvent::span(name, cat, begin, end, args));
        }
    });
}

/// Record an instant event (no-op unless an event sink is live).
#[inline]
pub fn instant(
    name: &'static str,
    cat: &'static str,
    at: VTime,
    args: Vec<(&'static str, ArgValue)>,
) {
    if gate() & (GATE_EVENTS | GATE_WALLPROF) == 0 {
        return;
    }
    let _wp = wallprof::obs_record_span();
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.record(TraceEvent::instant(name, cat, at, args));
        }
    });
}

/// Record a flow begin/end event (no-op unless an event sink is live).
/// Matching ids on a `Begin` and an `End` across ranks become one
/// Perfetto arrow.
#[inline]
pub fn flow(
    name: &'static str,
    cat: &'static str,
    at: VTime,
    dir: FlowDir,
    id: u64,
    args: Vec<(&'static str, ArgValue)>,
) {
    if gate() & (GATE_EVENTS | GATE_WALLPROF) == 0 {
        return;
    }
    let _wp = wallprof::obs_record_span();
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.record(TraceEvent::flow(name, cat, at, dir, id, args));
        }
    });
}

/// Everything one rank's recorder collected.
#[derive(Debug, Clone)]
pub struct RankReport {
    pub rank: usize,
    pub label: String,
    pub pvars: PvarSet,
    /// Oldest-first trace events that survived the ring.
    pub events: Vec<TraceEvent>,
    /// Events evicted by ring overflow.
    pub dropped_events: u64,
    /// Drained flight window (only with `ObsOptions::flight`).
    pub flight: Option<FlightWindow>,
    /// Telemetry time-series (only with a sampling interval set).
    pub telemetry: Option<RankSeries>,
    /// First fault observed on this rank, if any.
    pub incident: Option<IncidentMark>,
    /// Wall-clock self-profile (only with `ObsOptions::profiling`).
    pub wall: Option<wallprof::RankWallProf>,
}

/// Rank reports compare on the *virtual-time* payload only: the
/// wall-clock profile differs on every run by nature and must never
/// participate in a determinism check. Everything else — including the
/// flight window, telemetry series, and incident mark — is virtual data
/// and *does* participate.
impl PartialEq for RankReport {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank
            && self.label == other.label
            && self.pvars == other.pvars
            && self.events == other.events
            && self.dropped_events == other.dropped_events
            && self.flight == other.flight
            && self.telemetry == other.telemetry
            && self.incident == other.incident
    }
}

/// A whole job's observability output, ranks in rank order.
#[derive(Debug, Clone, Default)]
pub struct JobReport {
    pub ranks: Vec<RankReport>,
    /// The simulator's own wall-clock profile (only with
    /// `ObsOptions::profiling`); excluded from equality and from every
    /// serialized digest (`pvar_dump`, `chrome_trace_json`).
    pub sim_perf: Option<wallprof::SimPerf>,
}

/// Same contract as [`RankReport`]'s equality: `sim_perf` is wall-clock
/// data and stays outside all determinism comparisons.
impl PartialEq for JobReport {
    fn eq(&self, other: &Self) -> bool {
        self.ranks == other.ranks
    }
}

/// Serialize one event in Chrome `trace_event` object shape under
/// process id `pid` (shared between the full trace export and the
/// incident bundle's flight windows).
pub(crate) fn write_chrome_event(w: &mut json::JsonBuf, pid: u64, ev: &TraceEvent) {
    w.begin_obj();
    w.key("ph");
    w.str_val(match (ev.flow, ev.dur_ns.is_some()) {
        (Some((FlowDir::Begin, _)), _) => "s",
        (Some((FlowDir::End, _)), _) => "f",
        (None, true) => "X",
        (None, false) => "i",
    });
    w.key("pid");
    w.uint_val(pid);
    w.key("tid");
    w.uint_val(0);
    w.key("ts");
    w.num_val(ev.ts_ns / 1_000.0);
    if let Some((dir, id)) = ev.flow {
        w.key("id");
        w.uint_val(id);
        if dir == FlowDir::End {
            // Bind the arrow head to the enclosing slice.
            w.key("bp");
            w.str_val("e");
        }
    } else if let Some(dur) = ev.dur_ns {
        w.key("dur");
        w.num_val(dur / 1_000.0);
    } else {
        // Thread-scoped instant marker.
        w.key("s");
        w.str_val("t");
    }
    w.key("name");
    w.str_val(ev.name);
    w.key("cat");
    w.str_val(ev.cat);
    if !ev.args.is_empty() {
        w.key("args");
        w.begin_obj();
        for (k, v) in &ev.args {
            w.key(k);
            match v {
                ArgValue::U64(n) => w.uint_val(*n),
                ArgValue::I64(n) => w.int_val(*n),
                ArgValue::F64(x) => w.num_val(*x),
                ArgValue::Str(s) => w.str_val(s),
                ArgValue::Bool(b) => w.bool_val(*b),
            }
        }
        w.end_obj();
    }
    w.end_obj();
}

impl JobReport {
    /// Cross-rank pvar aggregation (counters add, gauges max, histograms
    /// merge).
    pub fn merged_pvars(&self) -> PvarSet {
        let mut out = PvarSet::new();
        for r in &self.ranks {
            out.merge(&r.pvars);
        }
        out
    }

    /// Total events dropped across all rings.
    pub fn dropped_events(&self) -> u64 {
        self.ranks.iter().map(|r| r.dropped_events).sum()
    }

    /// The job's incident bundle, if a fault fired (see [`incident`]).
    pub fn incident_bundle_json(&self) -> Option<String> {
        incident::bundle_json(self)
    }

    /// The job's telemetry series as JSON, if sampling was on.
    pub fn telemetry_json(&self) -> Option<String> {
        telemetry::series_json(self)
    }

    /// The job's telemetry series as CSV, if sampling was on.
    pub fn telemetry_csv(&self) -> Option<String> {
        telemetry::series_csv(self)
    }

    /// Serialize every rank's events as a Chrome `trace_event` JSON file
    /// (the "JSON Object Format"), loadable in Perfetto / chrome://tracing.
    /// `pid` is the rank; timestamps are virtual microseconds.
    pub fn chrome_trace_json(&self) -> String {
        let mut w = json::JsonBuf::new();
        w.begin_obj();
        w.key("traceEvents");
        w.begin_arr();
        for r in &self.ranks {
            w.newline();
            // Process-name metadata row.
            w.begin_obj();
            w.key("ph");
            w.str_val("M");
            w.key("pid");
            w.uint_val(r.rank as u64);
            w.key("tid");
            w.uint_val(0);
            w.key("name");
            w.str_val("process_name");
            w.key("args");
            w.begin_obj();
            w.key("name");
            w.str_val(&r.label);
            w.end_obj();
            w.end_obj();
            for ev in &r.events {
                w.newline();
                write_chrome_event(&mut w, r.rank as u64, ev);
            }
        }
        w.newline();
        w.end_arr();
        w.key("displayTimeUnit");
        w.str_val("ns");
        // Carried in-band so the offline analyzer can flag truncated
        // traces without the pvar dump.
        w.key("droppedEvents");
        w.uint_val(self.dropped_events());
        w.end_obj();
        w.newline();
        w.finish()
    }

    /// Human-readable snapshot of the merged pvars (the `--pvar-dump`
    /// output).
    pub fn pvar_dump(&self) -> String {
        let merged = self.merged_pvars();
        let mut out = String::new();
        out.push_str(&format!(
            "# pvar snapshot ({} ranks, merged: counters sum, gauges max, hists merge)\n",
            self.ranks.len()
        ));
        for (name, v) in merged.iter() {
            match v {
                PvarValue::Counter(n) => out.push_str(&format!("{name:<40} counter {n}\n")),
                PvarValue::Gauge { last, max } => {
                    out.push_str(&format!("{name:<40} gauge   last={last} max={max}\n"))
                }
                PvarValue::Hist(h) => out.push_str(&format!(
                    "{name:<40} hist    count={} mean={:.1} max={:.1}\n",
                    h.count,
                    h.mean(),
                    h.max
                )),
            }
        }
        let dropped = self.dropped_events();
        if dropped > 0 {
            out.push_str(&format!("# trace ring dropped {dropped} events\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `f` with a recorder installed, returning its report.
    fn with_recorder(opts: ObsOptions, f: impl FnOnce()) -> RankReport {
        install(0, opts);
        f();
        uninstall().expect("recorder was installed")
    }

    #[test]
    fn uninstalled_api_is_a_no_op() {
        assert!(!is_installed());
        assert!(!tracing_enabled());
        count("x", 1);
        gauge_set("g", 2);
        observe("h", 3.0);
        span("s", "c", VTime::ZERO, VTime::from_nanos(1.0), vec![]);
        telemetry_tick(VTime::from_nanos(5.0));
        link_traffic(0, 1, 64);
        incident_mark("rank_failed", 1, VTime::ZERO, String::new());
        assert!(uninstall().is_none());
    }

    #[test]
    fn recorder_collects_pvars_and_events() {
        let rep = with_recorder(ObsOptions::traced(), || {
            count("a.calls", 2);
            gauge_set("a.depth", 5);
            observe("a.ns", 12.0);
            span(
                "op",
                "test",
                VTime::from_nanos(10.0),
                VTime::from_nanos(30.0),
                vec![("bytes", ArgValue::U64(64))],
            );
            instant("mark", "test", VTime::from_nanos(15.0), vec![]);
        });
        assert_eq!(rep.pvars.counter("a.calls"), 2);
        assert_eq!(rep.events.len(), 2);
        assert_eq!(rep.events[0].name, "op");
        assert_eq!(rep.events[0].dur_ns, Some(20.0));
        assert_eq!(rep.events[1].dur_ns, None);
        assert_eq!(rep.dropped_events, 0);
        assert!(rep.flight.is_none());
        assert!(rep.telemetry.is_none());
        assert!(rep.incident.is_none());
    }

    #[test]
    fn tracing_off_still_collects_pvars() {
        let rep = with_recorder(ObsOptions::default(), || {
            assert!(!tracing_enabled());
            count("a.calls", 1);
            span("op", "test", VTime::ZERO, VTime::from_nanos(1.0), vec![]);
        });
        assert_eq!(rep.pvars.counter("a.calls"), 1);
        assert!(rep.events.is_empty());
    }

    #[test]
    fn ring_overflow_is_reported() {
        let rep = with_recorder(
            ObsOptions {
                tracing: true,
                ring_capacity: 4,
                ..Default::default()
            },
            || {
                for i in 0..10 {
                    instant("e", "t", VTime::from_nanos(i as f64), vec![]);
                }
            },
        );
        assert_eq!(rep.events.len(), 4);
        assert_eq!(rep.dropped_events, 6);
        assert_eq!(rep.events[0].ts_ns, 6.0);
        // Evictions are surfaced as a pvar, not just a field.
        assert_eq!(rep.pvars.counter(DROPPED_EVENTS_PVAR), 6);
    }

    #[test]
    fn flight_window_wraps_and_counts_drops() {
        let rep = with_recorder(
            ObsOptions {
                flight: true,
                flight_capacity: 4,
                ..Default::default()
            },
            || {
                assert!(tracing_enabled(), "flight alone lights the event gate");
                for i in 0..10 {
                    instant("e", "t", VTime::from_nanos(i as f64), vec![]);
                }
            },
        );
        // Full trace ring never saw the events — only the window did.
        assert!(rep.events.is_empty());
        assert_eq!(rep.dropped_events, 0);
        let w = rep.flight.expect("flight window drained");
        assert_eq!(w.events.len(), 4);
        assert_eq!(w.dropped, 6);
        let ts: Vec<f64> = w.events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![6.0, 7.0, 8.0, 9.0], "oldest dropped first");
        assert_eq!(rep.pvars.counter(flight::DROPPED_PVAR), 6);
    }

    #[test]
    fn tracing_and_flight_both_record() {
        let rep = with_recorder(
            ObsOptions {
                tracing: true,
                flight: true,
                flight_capacity: 2,
                ..Default::default()
            },
            || {
                for i in 0..5 {
                    instant("e", "t", VTime::from_nanos(i as f64), vec![]);
                }
            },
        );
        assert_eq!(rep.events.len(), 5, "full ring keeps everything");
        let w = rep.flight.unwrap();
        assert_eq!(w.events.len(), 2);
        assert_eq!(w.dropped, 3);
        assert_eq!(rep.pvars.counter(flight::DROPPED_PVAR), 3);
        assert_eq!(rep.pvars.counter(DROPPED_EVENTS_PVAR), 0);
    }

    #[test]
    fn telemetry_bins_by_virtual_tick() {
        let rep = with_recorder(ObsOptions::default().with_telemetry(100.0), || {
            telemetry_tick(VTime::from_nanos(10.0));
            count("a", 1);
            telemetry_tick(VTime::from_nanos(250.0));
            count("a", 2);
            link_traffic(0, 1, 64);
        });
        let series = rep.telemetry.expect("sampler drained");
        assert_eq!(series.interval_ns, 100.0);
        assert_eq!(series.samples.len(), 2);
        assert_eq!(series.samples[0].t_ns, 0.0);
        assert_eq!(series.samples[0].pvars.counter("a"), 1);
        assert_eq!(series.samples[1].t_ns, 200.0);
        assert_eq!(series.samples[1].pvars.counter("a"), 2);
        assert_eq!(
            series.samples[1].pvars.counter("fabric.link.0->1.bytes"),
            64
        );
        // Cumulative pvars see the same totals.
        assert_eq!(rep.pvars.counter("a"), 3);
        assert_eq!(rep.pvars.counter("fabric.link.0->1.msgs"), 1);
    }

    #[test]
    fn link_traffic_is_inert_without_telemetry() {
        let rep = with_recorder(ObsOptions::default(), || {
            link_traffic(0, 1, 64);
        });
        assert_eq!(rep.pvars.counter("fabric.link.0->1.bytes"), 0);
    }

    #[test]
    fn first_incident_mark_wins() {
        let rep = with_recorder(ObsOptions::default().with_flight(), || {
            incident_mark(
                "transport_failure",
                1,
                VTime::from_nanos(100.0),
                "retries exhausted".to_string(),
            );
            incident_mark("watchdog", 2, VTime::from_nanos(900.0), String::new());
        });
        let m = rep.incident.expect("mark kept");
        assert_eq!(m.kind, "transport_failure");
        assert_eq!(m.failed_rank, 1);
        assert_eq!(m.t_ns, 100.0);
        assert_eq!(rep.pvars.counter(incident::MARKS_PVAR), 2);
        // Marks are visible inside the flight window too.
        let w = rep.flight.unwrap();
        assert_eq!(w.events.iter().filter(|e| e.name == "incident").count(), 2);
    }

    #[test]
    fn flow_events_serialize_as_s_and_f_records() {
        let rep = with_recorder(ObsOptions::traced(), || {
            flow(
                "msg",
                "flow",
                VTime::from_nanos(1000.0),
                FlowDir::Begin,
                7,
                vec![("bytes", ArgValue::U64(8))],
            );
            flow(
                "msg",
                "flow",
                VTime::from_nanos(2000.0),
                FlowDir::End,
                7,
                vec![],
            );
        });
        let json = JobReport {
            ranks: vec![rep],
            sim_perf: None,
        }
        .chrome_trace_json();
        assert!(json.contains(r#""ph":"s","pid":0,"tid":0,"ts":1,"id":7"#));
        assert!(json.contains(r#""ph":"f","pid":0,"tid":0,"ts":2,"id":7,"bp":"e""#));
    }

    #[test]
    fn chrome_trace_shape_and_determinism() {
        let mk = || {
            let rep = with_recorder(ObsOptions::traced(), || {
                set_process_label("rank 0 (TEST)".to_string());
                span(
                    "bcast",
                    "coll",
                    VTime::from_nanos(1000.0),
                    VTime::from_nanos(3500.0),
                    vec![
                        ("algo", ArgValue::Str("two_level")),
                        ("bytes", ArgValue::U64(4096)),
                    ],
                );
            });
            JobReport {
                ranks: vec![rep],
                sim_perf: None,
            }
            .chrome_trace_json()
        };
        let a = mk();
        assert_eq!(a, mk(), "trace export must be deterministic");
        assert!(a.contains(r#""name":"process_name""#));
        assert!(a.contains(r#""name":"rank 0 (TEST)""#));
        assert!(a.contains(r#""ph":"X""#));
        assert!(a.contains(r#""ts":1,"dur":2.5"#));
        assert!(a.contains(r#""algo":"two_level""#));
        assert!(a.starts_with('{') && a.trim_end().ends_with('}'));
    }

    #[test]
    fn pvar_dump_lists_merged_values() {
        let r0 = with_recorder(ObsOptions::default(), || count("c", 1));
        let r1 = {
            install(1, ObsOptions::default());
            count("c", 2);
            uninstall().unwrap()
        };
        let dump = JobReport {
            ranks: vec![r0, r1],
            sim_perf: None,
        }
        .pvar_dump();
        assert!(dump.contains("2 ranks"));
        assert!(dump.contains("counter 3"));
    }

    #[test]
    fn gate_resets_after_uninstall() {
        install(0, ObsOptions::traced().with_flight().with_telemetry(10.0));
        assert!(is_installed());
        assert!(tracing_enabled());
        uninstall();
        assert_eq!(gate() & (GATE_PVARS | GATE_EVENTS | GATE_TELEMETRY), 0);
    }
}
