//! A host-clock [`EventSink`]: timestamps every [`StageSpan`] the
//! session emits, so each span label gets the host time spent since
//! the previous span (or since [`HostClock::begin`]). Events are
//! forwarded to an optional [`MetricsRecorder`], and the time spent
//! inside it is kept apart as the telemetry layer's cost.

use std::sync::Mutex;
use std::time::Instant;

use wearlock_telemetry::{AttemptEvent, EventSink, MetricsRecorder, RetryEvent, StageSpan};

/// Span labels every attempt that reaches phase 2 without link or clock
/// faults emits, in pipeline order. The fault-only labels
/// (`wireless:retransmit`, `fault:clock-drift`) are left out because
/// the fault-free workloads never emit them.
pub const STAGES: [&str; 10] = [
    "wireless:handshake",
    "wireless:sensor-transfer",
    "compute:motion-filter",
    "audio:phase1",
    "compute:phase1-probing",
    "wireless:cts",
    "audio:phase2",
    "compute:phase2-preprocess",
    "compute:phase2-demod",
    "wireless:verdict",
];

#[derive(Debug)]
struct State {
    last: Instant,
    /// (label, host seconds, spans) per label seen.
    stages: Vec<(String, f64, u64)>,
    telemetry_s: f64,
}

/// See the module docs.
pub struct HostClock<'a> {
    inner: Option<&'a MetricsRecorder>,
    state: Mutex<State>,
}

impl<'a> HostClock<'a> {
    pub fn new(inner: Option<&'a MetricsRecorder>) -> Self {
        HostClock {
            inner,
            state: Mutex::new(State {
                last: Instant::now(),
                stages: Vec::new(),
                telemetry_s: 0.0,
            }),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("host clock poisoned by a panic")
    }

    /// Marks the start of an attempt.
    pub fn begin(&self) {
        self.state().last = Instant::now();
    }

    /// Mean host milliseconds per span of `label` (0 if never seen).
    pub fn mean_ms(&self, label: &str) -> f64 {
        self.state()
            .stages
            .iter()
            .find(|s| s.0 == label)
            .map_or(0.0, |s| s.1 * 1e3 / s.2 as f64)
    }

    /// Adds `other`'s stage and telemetry totals to this clock's.
    pub fn absorb(&self, other: &HostClock<'_>) {
        let theirs = other.state();
        let mut st = self.state();
        for (label, secs, n) in &theirs.stages {
            match st.stages.iter_mut().find(|s| s.0 == *label) {
                Some(s) => {
                    s.1 += secs;
                    s.2 += n;
                }
                None => st.stages.push((label.clone(), *secs, *n)),
            }
        }
        st.telemetry_s += theirs.telemetry_s;
    }

    /// Seconds spent inside the forwarded recorder.
    pub fn telemetry_s(&self) -> f64 {
        self.state().telemetry_s
    }

    /// Forwards one event to the inner recorder, timing it, and restarts
    /// the stage clock so the sink's own cost lands in no stage.
    fn forward(&self, st: &mut State, f: impl FnOnce(&MetricsRecorder)) {
        if let Some(inner) = self.inner {
            let t = Instant::now();
            f(inner);
            st.telemetry_s += t.elapsed().as_secs_f64();
        }
        st.last = Instant::now();
    }
}

impl EventSink for HostClock<'_> {
    fn enabled(&self) -> bool {
        true
    }

    fn record_span(&self, span: &StageSpan<'_>) {
        let now = Instant::now();
        let mut st = self.state();
        let dt = (now - st.last).as_secs_f64();
        match st.stages.iter_mut().find(|s| s.0 == span.stage) {
            Some(s) => {
                s.1 += dt;
                s.2 += 1;
            }
            None => st.stages.push((span.stage.to_string(), dt, 1)),
        }
        self.forward(&mut st, |r| r.record_span(span));
    }

    fn record_attempt(&self, event: &AttemptEvent) {
        let mut st = self.state();
        self.forward(&mut st, |r| r.record_attempt(event));
    }

    fn record_retry(&self, event: &RetryEvent) {
        let mut st = self.state();
        self.forward(&mut st, |r| r.record_retry(event));
    }
}
