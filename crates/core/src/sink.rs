//! What a detector reports, and the observers around it.
//!
//! A detector is a [`Detector`](crate::Detector): a [`MemoryObserver`]
//! that can also drain its findings. Events reach it only through the
//! observer callbacks. A live `Machine` calls them directly; capture
//! replay, the fuzz oracle and the `cord-serve` daemon call them through
//! [`apply_stream_event`]. Inline detection and stream replay therefore
//! run the same detector code on the same event sequence, which is what
//! makes the capture→replay byte-identity contract hold.
//!
//! * [`ObsCtx`] — observability wiring handed to
//!   `DetectorConfig::build_sink()` at construction time.
//! * [`SinkReport`] — what [`Detector::drain`](crate::Detector::drain)
//!   returns: the race report plus metrics, with a canonical byte
//!   serialization ([`SinkReport::to_bytes`]) that replay legs compare
//!   bit-for-bit.
//! * [`apply_stream_event`] — the one dispatch table from reified
//!   events back to observer callbacks.
//! * [`CaptureObserver`] — tee: records the event stream while
//!   forwarding it, without perturbing the inner observer.
//! * [`LatencyObserver`] — times each access callback of the inner
//!   observer.

use cord_json::{obj, FromJson, Json, JsonError, ToJson};
use cord_obs::{MetricsRegistry, ObserverOutcome, StreamEvent, TraceHandle};
use cord_sim::observer::{AccessEvent, CoreId, Level, LineRemoval, MemoryObserver};
use cord_trace::types::{LineAddr, ThreadId};

/// Observability context handed to a detector at construction time.
/// Metrics travel *out* of the detector (in [`SinkReport::metrics`]);
/// the trace handle travels *in* here.
#[derive(Debug, Clone, Default)]
pub struct ObsCtx {
    /// Run-event trace sink; [`TraceHandle::disabled`] for no tracing.
    pub trace: TraceHandle,
}

impl ObsCtx {
    /// No observability: disabled trace handle.
    pub fn disabled() -> Self {
        ObsCtx::default()
    }

    /// Wires a trace handle in.
    pub fn with_trace(trace: TraceHandle) -> Self {
        ObsCtx { trace }
    }
}

/// The drained result of a detector: who checked, what it found,
/// and the counters it accumulated.
///
/// The compact-JSON byte serialization ([`SinkReport::to_bytes`]) is
/// the unit of the capture→replay contract: a daemon replaying a
/// captured stream must drain to bytes identical to inline detection.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkReport {
    /// Detector label (e.g. `"CORD-D16"`).
    pub detector: String,
    /// Number of races reported.
    pub race_count: u64,
    /// Per-race records, detector-specific but stably serialized.
    pub races: Vec<Json>,
    /// Detector counters (empty for detectors without structured stats).
    pub metrics: MetricsRegistry,
}

impl SinkReport {
    /// An empty report for `detector`.
    pub fn new(detector: impl Into<String>) -> Self {
        SinkReport {
            detector: detector.into(),
            race_count: 0,
            races: Vec::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Canonical byte serialization (compact JSON). Two reports are
    /// *the same report* iff these bytes are equal.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_json().to_string_compact().into_bytes()
    }
}

impl ToJson for SinkReport {
    fn to_json(&self) -> Json {
        obj(vec![
            ("detector", self.detector.to_json()),
            ("race_count", self.race_count.to_json()),
            ("races", Json::Array(self.races.clone())),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

impl FromJson for SinkReport {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(SinkReport {
            detector: FromJson::from_json(v.field("detector")?)?,
            race_count: FromJson::from_json(v.field("race_count")?)?,
            races: v.field("races")?.as_array()?.to_vec(),
            metrics: FromJson::from_json(v.field("metrics")?)?,
        })
    }
}

/// Dispatches one reified event to the matching [`MemoryObserver`]
/// callback — the single translation table between the wire vocabulary
/// and the callback vocabulary. [`StreamEvent::Trace`] passthroughs are
/// not detector inputs and are ignored.
pub fn apply_stream_event<O: MemoryObserver + ?Sized>(
    obs: &mut O,
    ev: &StreamEvent,
) -> ObserverOutcome {
    match ev {
        StreamEvent::Access(a) => obs.on_access(a),
        StreamEvent::LineFilled { core, level, line } => {
            obs.on_line_filled(*core, *level, *line);
            ObserverOutcome::NONE
        }
        StreamEvent::LineRemoved(r) => obs.on_line_removed(r),
        StreamEvent::ThreadMigrated { thread, from, to } => {
            obs.on_thread_migrated(*thread, *from, *to);
            ObserverOutcome::NONE
        }
        StreamEvent::RunEnd { instr_counts } => {
            obs.on_run_end(instr_counts);
            ObserverOutcome::NONE
        }
        StreamEvent::Trace(_) => ObserverOutcome::NONE,
    }
}

/// A forwarding newtype over an observer, kept for source compatibility:
/// detectors are [`MemoryObserver`]s themselves, so a `Machine` takes
/// one directly and nothing in this workspace needs the wrapper.
#[derive(Debug)]
pub struct SinkObserver<S> {
    sink: S,
}

impl<S> SinkObserver<S> {
    /// Wraps `sink`.
    pub fn new(sink: S) -> Self {
        SinkObserver { sink }
    }

    /// The wrapped detector, mutably.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Unwraps the detector.
    pub fn into_inner(self) -> S {
        self.sink
    }
}

impl<S: MemoryObserver> MemoryObserver for SinkObserver<S> {
    #[inline]
    fn on_access(&mut self, ev: &AccessEvent) -> ObserverOutcome {
        self.sink.on_access(ev)
    }

    #[inline]
    fn on_line_filled(&mut self, core: CoreId, level: Level, line: LineAddr) {
        self.sink.on_line_filled(core, level, line);
    }

    #[inline]
    fn on_line_removed(&mut self, removal: &LineRemoval) -> ObserverOutcome {
        self.sink.on_line_removed(removal)
    }

    #[inline]
    fn on_thread_migrated(&mut self, thread: ThreadId, from: CoreId, to: CoreId) {
        self.sink.on_thread_migrated(thread, from, to);
    }

    fn on_run_end(&mut self, final_instr_counts: &[u64]) {
        self.sink.on_run_end(final_instr_counts);
    }
}

/// A per-access latency profiler: times each `on_access` callback of
/// the wrapped observer and records it into a
/// [`Histogram`](cord_obs::Histogram), forwarding everything unchanged.
///
/// This wrapper exists so the hot path stays provably zero-cost when
/// profiling is off: instead of a branch (or worse, a clock read) inside
/// every access, the sweep instantiates `Machine<LatencyObserver<...>>`
/// only when observability is enabled, and the plain `Machine<D>` over
/// the detector otherwise — the disabled path never even contains the
/// timing code. Latencies are timing-dependent by nature,
/// so the harvested histogram must only flow into the profile side of
/// sweep output, never into deterministic results.
#[derive(Debug)]
pub struct LatencyObserver<O> {
    inner: O,
    hist: cord_obs::Histogram,
}

impl<O> LatencyObserver<O> {
    /// Wraps `inner` with an empty histogram.
    pub fn new(inner: O) -> Self {
        LatencyObserver {
            inner,
            hist: cord_obs::Histogram::new(),
        }
    }

    /// The wrapped observer.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// The latency histogram collected so far.
    pub fn histogram(&self) -> &cord_obs::Histogram {
        &self.hist
    }

    /// Unwraps into `(inner, histogram)`.
    pub fn into_parts(self) -> (O, cord_obs::Histogram) {
        (self.inner, self.hist)
    }
}

impl<O: MemoryObserver> MemoryObserver for LatencyObserver<O> {
    #[inline]
    fn on_access(&mut self, ev: &AccessEvent) -> ObserverOutcome {
        let start = std::time::Instant::now();
        let out = self.inner.on_access(ev);
        self.hist.record_ns(start.elapsed().as_nanos() as u64);
        out
    }

    #[inline]
    fn on_line_filled(&mut self, core: CoreId, level: Level, line: LineAddr) {
        self.inner.on_line_filled(core, level, line);
    }

    #[inline]
    fn on_line_removed(&mut self, removal: &LineRemoval) -> ObserverOutcome {
        self.inner.on_line_removed(removal)
    }

    #[inline]
    fn on_thread_migrated(&mut self, thread: ThreadId, from: CoreId, to: CoreId) {
        self.inner.on_thread_migrated(thread, from, to);
    }

    fn on_run_end(&mut self, final_instr_counts: &[u64]) {
        self.inner.on_run_end(final_instr_counts);
    }
}

/// A tee observer: records every event as a [`StreamEvent`] while
/// forwarding it (and its outcome) unchanged to the inner observer.
/// Wrapping a detector in a capture changes nothing about the run —
/// which is exactly why a capture replayed through a fresh sink must
/// reproduce the inline result bit-for-bit.
#[derive(Debug)]
pub struct CaptureObserver<O> {
    inner: O,
    events: Vec<StreamEvent>,
}

impl<O> CaptureObserver<O> {
    /// Wraps `inner`, capturing into an empty buffer.
    pub fn new(inner: O) -> Self {
        CaptureObserver {
            inner,
            events: Vec::new(),
        }
    }

    /// The captured events so far.
    pub fn events(&self) -> &[StreamEvent] {
        &self.events
    }

    /// The wrapped observer.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps into `(inner, captured events)`.
    pub fn into_parts(self) -> (O, Vec<StreamEvent>) {
        (self.inner, self.events)
    }
}

impl<O: MemoryObserver> MemoryObserver for CaptureObserver<O> {
    fn on_access(&mut self, ev: &AccessEvent) -> ObserverOutcome {
        self.events.push(StreamEvent::Access(*ev));
        self.inner.on_access(ev)
    }

    fn on_line_filled(&mut self, core: CoreId, level: Level, line: LineAddr) {
        self.events
            .push(StreamEvent::LineFilled { core, level, line });
        self.inner.on_line_filled(core, level, line)
    }

    fn on_line_removed(&mut self, removal: &LineRemoval) -> ObserverOutcome {
        self.events.push(StreamEvent::LineRemoved(*removal));
        self.inner.on_line_removed(removal)
    }

    fn on_thread_migrated(&mut self, thread: ThreadId, from: CoreId, to: CoreId) {
        self.events
            .push(StreamEvent::ThreadMigrated { thread, from, to });
        self.inner.on_thread_migrated(thread, from, to)
    }

    fn on_run_end(&mut self, final_instr_counts: &[u64]) {
        self.events.push(StreamEvent::RunEnd {
            instr_counts: final_instr_counts.to_vec(),
        });
        self.inner.on_run_end(final_instr_counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cord_obs::AccessKind;
    use cord_trace::types::Addr;

    /// An observer that logs which callbacks it saw, in order.
    #[derive(Default)]
    struct CallLog(Vec<&'static str>);

    impl MemoryObserver for CallLog {
        fn on_access(&mut self, _ev: &AccessEvent) -> ObserverOutcome {
            self.0.push("access");
            ObserverOutcome::NONE
        }

        fn on_line_filled(&mut self, _core: CoreId, _level: Level, _line: LineAddr) {
            self.0.push("fill");
        }

        fn on_line_removed(&mut self, _removal: &LineRemoval) -> ObserverOutcome {
            self.0.push("remove");
            ObserverOutcome::NONE
        }

        fn on_thread_migrated(&mut self, _thread: ThreadId, _from: CoreId, _to: CoreId) {
            self.0.push("migrate");
        }

        fn on_run_end(&mut self, _final_instr_counts: &[u64]) {
            self.0.push("run-end");
        }
    }

    fn access(addr: u64) -> AccessEvent {
        AccessEvent {
            core: CoreId(0),
            thread: ThreadId(0),
            addr: Addr::new(addr),
            kind: AccessKind::DataRead,
            path: cord_obs::AccessPath::L1Hit,
            instr_index: 0,
            cycle: 0,
        }
    }

    #[test]
    fn capture_observer_is_a_transparent_tee() {
        let mut cap = CaptureObserver::new(cord_obs::NullObserver);
        cap.on_access(&access(0x80));
        cap.on_run_end(&[1]);
        let (_, events) = cap.into_parts();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], StreamEvent::Access(_)));
        assert!(matches!(events[1], StreamEvent::RunEnd { .. }));
    }

    #[test]
    fn captured_events_replay_identically_through_apply() {
        // Drive every callback live through a capture tee, then replay
        // the captured events into a fresh observer: it must see the
        // same callbacks in the same order.
        let mut live = CaptureObserver::new(CallLog::default());
        live.on_access(&access(0x40));
        live.on_line_filled(CoreId(1), Level::L2, LineAddr(3));
        live.on_line_removed(&LineRemoval {
            core: CoreId(1),
            level: Level::L2,
            line: LineAddr(3),
            cause: cord_obs::RemovalCause::Capacity,
            dirty: false,
        });
        live.on_thread_migrated(ThreadId(0), CoreId(0), CoreId(1));
        live.on_run_end(&[5, 5]);
        let (live, events) = live.into_parts();

        let mut replayed = CallLog::default();
        for ev in &events {
            apply_stream_event(&mut replayed, ev);
        }
        assert_eq!(live.0.len(), 5);
        assert_eq!(replayed.0, live.0);
    }

    #[test]
    fn sink_report_roundtrips_and_byte_compares() {
        let mut a = SinkReport::new("cord");
        a.race_count = 2;
        a.races.push(cord_json::Json::UInt(1));
        a.metrics.add("cord.data_races", 2);
        let back = SinkReport::from_json(&a.to_json()).expect("parses");
        assert_eq!(back, a);
        assert_eq!(back.to_bytes(), a.to_bytes());
        let mut b = a.clone();
        b.race_count = 3;
        assert_ne!(b.to_bytes(), a.to_bytes());
    }

    #[test]
    fn apply_ignores_trace_passthrough() {
        let outcome = apply_stream_event(
            &mut cord_obs::NullObserver,
            &StreamEvent::Trace(cord_obs::TraceEvent {
                cycle: 0,
                thread: 0,
                kind: cord_obs::EventKind::MemtsBroadcast { count: 1 },
            }),
        );
        assert_eq!(outcome, ObserverOutcome::NONE);
    }
}
