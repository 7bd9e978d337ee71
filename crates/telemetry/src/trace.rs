//! The span/event flight recorder.

use crate::metrics::MetricsRegistry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use viper_hw::SimClock;

/// Default flight-recorder capacity (events retained before the oldest
/// are evicted).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// A typed argument value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// A string argument.
    Str(String),
    /// An unsigned integer argument.
    U64(u64),
    /// A signed integer argument.
    I64(i64),
    /// A floating-point argument.
    F64(f64),
    /// A boolean argument.
    Bool(bool),
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}
impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(u64::from(v))
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

/// What a [`TraceEvent`] marks on the timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span opened at `ts_ns` (Chrome phase `B`).
    Begin,
    /// The innermost open span on the same track closed (Chrome phase `E`).
    End,
    /// A point event (Chrome phase `i`).
    Instant,
    /// A span whose begin and end are both known when recorded (Chrome
    /// phase `X`); `ts_ns` is the begin, `end_ns` the end.
    Complete {
        /// Nanosecond timestamp the span ended at.
        end_ns: u64,
    },
    /// A sampled counter value (Chrome phase `C`), rendered by trace
    /// viewers as a stepped area chart.
    Counter {
        /// The sampled value.
        value: f64,
    },
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Nanosecond timestamp in the recorder's clock domain (virtual ns
    /// when a virtual clock is bound, wall ns otherwise).
    pub ts_ns: u64,
    /// Category (stable, dot-free; e.g. `"producer"`, `"fabric"`).
    pub cat: &'static str,
    /// Event name (e.g. `"wire"`, `"backoff"`).
    pub name: String,
    /// Track the event belongs to — rendered as its own row (Chrome
    /// "thread"). E.g. a node name or a fabric lane.
    pub track: String,
    /// What the event marks.
    pub kind: EventKind,
    /// Attached key/value arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    /// Duration of a [`EventKind::Complete`] event; zero for other kinds.
    pub fn duration_ns(&self) -> u64 {
        match self.kind {
            EventKind::Complete { end_ns } => end_ns.saturating_sub(self.ts_ns),
            _ => 0,
        }
    }
}

enum ClockSource {
    /// Wall clock, as nanoseconds since the handle was created.
    Wall(std::time::Instant),
    /// The deployment's shared virtual clock.
    Virtual(SimClock),
}

struct Inner {
    enabled: AtomicBool,
    clock: RwLock<ClockSource>,
    capacity: usize,
    events: Mutex<VecDeque<TraceEvent>>,
    dropped: AtomicU64,
    metrics: MetricsRegistry,
}

/// A cheaply clonable telemetry handle: flight recorder + metrics
/// registry + clock binding. Clones share all state.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("events", &self.inner.events.lock().unwrap().len())
            .field("capacity", &self.inner.capacity)
            .field("virtual_clock", &self.uses_virtual_clock())
            .finish()
    }
}

impl Telemetry {
    fn with_state(enabled: bool, capacity: usize) -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(enabled),
                clock: RwLock::new(ClockSource::Wall(std::time::Instant::now())),
                capacity,
                events: Mutex::new(VecDeque::new()),
                dropped: AtomicU64::new(0),
                metrics: MetricsRegistry::new(),
            }),
        }
    }

    /// A disabled handle: recording calls are no-ops (metrics still
    /// count). This is the default for every deployment.
    pub fn disabled() -> Self {
        Telemetry::with_state(false, DEFAULT_CAPACITY)
    }

    /// An enabled handle with the default flight-recorder capacity.
    pub fn enabled() -> Self {
        Telemetry::with_state(true, DEFAULT_CAPACITY)
    }

    /// An enabled handle retaining at most `capacity` events (oldest
    /// evicted first; evictions are counted, never silent).
    pub fn with_capacity(capacity: usize) -> Self {
        Telemetry::with_state(true, capacity.max(1))
    }

    /// Whether trace recording is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turn trace recording on or off at runtime.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Key timestamps to `clock` (virtual nanoseconds) instead of the
    /// wall clock. `Viper::new` binds its deployment clock here.
    pub fn bind_virtual_clock(&self, clock: SimClock) {
        *self.inner.clock.write().unwrap() = ClockSource::Virtual(clock);
    }

    /// Whether a virtual clock is bound (vs. the wall-clock fallback).
    pub fn uses_virtual_clock(&self) -> bool {
        matches!(&*self.inner.clock.read().unwrap(), ClockSource::Virtual(_))
    }

    /// Current time in the recorder's clock domain, integer nanoseconds.
    pub fn now_ns(&self) -> u64 {
        match &*self.inner.clock.read().unwrap() {
            ClockSource::Wall(origin) => {
                origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
            }
            ClockSource::Virtual(clock) => clock.now().as_nanos(),
        }
    }

    /// The metrics registry shared by all clones of this handle.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Counter handle for `name` (registered on first use).
    pub fn counter(&self, name: &str) -> crate::Counter {
        self.inner.metrics.counter(name)
    }

    /// Gauge handle for `name` (registered on first use).
    pub fn gauge(&self, name: &str) -> crate::Gauge {
        self.inner.metrics.gauge(name)
    }

    /// Fixed-bucket histogram handle for `name` (registered on first use
    /// with `bounds` as inclusive upper bounds; an overflow bucket is
    /// implicit).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> crate::Histogram {
        self.inner.metrics.histogram(name, bounds)
    }

    fn record(&self, event: TraceEvent) {
        let mut events = self.inner.events.lock().unwrap();
        if events.len() >= self.inner.capacity {
            events.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(event);
    }

    /// Open a span on `track` now; the span closes when the returned
    /// guard drops. No-op (and no allocation) when disabled.
    pub fn span(&self, cat: &'static str, name: &str, track: &str) -> SpanGuard {
        self.span_with(cat, name, track, &[])
    }

    /// [`Telemetry::span`] with arguments attached to the opening event.
    pub fn span_with(
        &self,
        cat: &'static str,
        name: &str,
        track: &str,
        args: &[(&'static str, ArgValue)],
    ) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard { inner: None };
        }
        self.record(TraceEvent {
            ts_ns: self.now_ns(),
            cat,
            name: name.to_string(),
            track: track.to_string(),
            kind: EventKind::Begin,
            args: args.to_vec(),
        });
        SpanGuard {
            inner: Some(SpanState {
                telemetry: self.clone(),
                cat,
                name: name.to_string(),
                track: track.to_string(),
                args: Vec::new(),
            }),
        }
    }

    /// Record a span whose begin and end instants are both already known
    /// (e.g. computed analytically by the fabric's chunk scheduler).
    pub fn complete(
        &self,
        cat: &'static str,
        name: &str,
        track: &str,
        begin_ns: u64,
        end_ns: u64,
        args: &[(&'static str, ArgValue)],
    ) {
        if !self.is_enabled() {
            return;
        }
        self.record(TraceEvent {
            ts_ns: begin_ns,
            cat,
            name: name.to_string(),
            track: track.to_string(),
            kind: EventKind::Complete {
                end_ns: end_ns.max(begin_ns),
            },
            args: args.to_vec(),
        });
    }

    /// Record a point event at an explicit timestamp (e.g. a fault the
    /// fabric resolved at a scheduled arrival instant).
    pub fn instant_at(
        &self,
        cat: &'static str,
        name: &str,
        track: &str,
        ts_ns: u64,
        args: &[(&'static str, ArgValue)],
    ) {
        if !self.is_enabled() {
            return;
        }
        self.record(TraceEvent {
            ts_ns,
            cat,
            name: name.to_string(),
            track: track.to_string(),
            kind: EventKind::Instant,
            args: args.to_vec(),
        });
    }

    /// Record a point event now.
    pub fn instant(
        &self,
        cat: &'static str,
        name: &str,
        track: &str,
        args: &[(&'static str, ArgValue)],
    ) {
        if !self.is_enabled() {
            return;
        }
        self.record(TraceEvent {
            ts_ns: self.now_ns(),
            cat,
            name: name.to_string(),
            track: track.to_string(),
            kind: EventKind::Instant,
            args: args.to_vec(),
        });
    }

    /// Sample a counter value onto the timeline (rendered as a stepped
    /// area chart by trace viewers). Independent of the metrics registry.
    pub fn counter_sample(&self, cat: &'static str, name: &str, track: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        self.record(TraceEvent {
            ts_ns: self.now_ns(),
            cat,
            name: name.to_string(),
            track: track.to_string(),
            kind: EventKind::Counter { value },
            args: Vec::new(),
        });
    }

    /// Snapshot of all retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.events.lock().unwrap().iter().cloned().collect()
    }

    /// Number of events evicted from the ring buffer so far.
    pub fn dropped_events(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Discard all retained events (the dropped counter is kept).
    pub fn clear(&self) {
        self.inner.events.lock().unwrap().clear();
    }
}

struct SpanState {
    telemetry: Telemetry,
    cat: &'static str,
    name: String,
    track: String,
    args: Vec<(&'static str, ArgValue)>,
}

/// Guard returned by [`Telemetry::span`]; records the span end when
/// dropped. Guards must drop in LIFO order per track for the trace to
/// nest properly — natural Rust scoping guarantees this.
#[must_use = "the span closes when this guard drops"]
pub struct SpanGuard {
    inner: Option<SpanState>,
}

impl SpanGuard {
    /// Attach an argument to the span's closing event (e.g. a result
    /// computed while the span was open).
    pub fn arg(&mut self, key: &'static str, value: ArgValue) {
        if let Some(state) = &mut self.inner {
            state.args.push((key, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(state) = self.inner.take() {
            let ts_ns = state.telemetry.now_ns();
            state.telemetry.record(TraceEvent {
                ts_ns,
                cat: state.cat,
                name: state.name,
                track: state.track,
                kind: EventKind::End,
                args: state.args,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_records_nothing() {
        let t = Telemetry::disabled();
        {
            let mut s = t.span("c", "n", "tr");
            s.arg("k", 1u64.into());
        }
        t.instant("c", "i", "tr", &[]);
        t.complete("c", "x", "tr", 0, 10, &[]);
        t.counter_sample("c", "v", "tr", 1.0);
        assert!(t.events().is_empty());
        assert_eq!(t.dropped_events(), 0);
    }

    #[test]
    fn metrics_count_even_when_disabled() {
        let t = Telemetry::disabled();
        t.counter("hits").inc();
        t.counter("hits").add(2);
        assert_eq!(t.counter("hits").get(), 3);
    }

    #[test]
    fn span_records_begin_and_end() {
        let t = Telemetry::enabled();
        {
            let mut s = t.span_with("cat", "work", "main", &[("in", 1u64.into())]);
            s.arg("out", 2u64.into());
        }
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Begin);
        assert_eq!(events[0].args, vec![("in", ArgValue::U64(1))]);
        assert_eq!(events[1].kind, EventKind::End);
        assert_eq!(events[1].args, vec![("out", ArgValue::U64(2))]);
        assert!(events[1].ts_ns >= events[0].ts_ns);
    }

    #[test]
    fn ring_buffer_bounds_and_counts_evictions() {
        let t = Telemetry::with_capacity(4);
        for i in 0..10u64 {
            t.instant("c", &format!("e{i}"), "tr", &[]);
        }
        let events = t.events();
        assert_eq!(events.len(), 4);
        assert_eq!(t.dropped_events(), 6);
        assert_eq!(events[0].name, "e6", "oldest evicted first");
    }

    #[test]
    fn virtual_clock_binding_keys_timestamps() {
        let t = Telemetry::enabled();
        assert!(!t.uses_virtual_clock());
        let clock = SimClock::new();
        t.bind_virtual_clock(clock.clone());
        assert!(t.uses_virtual_clock());
        clock.advance(Duration::from_secs(3));
        assert_eq!(t.now_ns(), 3_000_000_000);
        t.instant("c", "i", "tr", &[]);
        assert_eq!(t.events()[0].ts_ns, 3_000_000_000);
    }

    #[test]
    fn virtual_timestamps_exact_above_2e53_ns() {
        // The f64 seconds round-trip loses integer precision above 2^53
        // ns; the integer path must not.
        let t = Telemetry::enabled();
        let clock = SimClock::new();
        t.bind_virtual_clock(clock.clone());
        let big = (1u64 << 53) + 1;
        clock.advance_to(viper_hw::SimInstant(big));
        assert_eq!(t.now_ns(), big);
    }

    #[test]
    fn complete_event_duration() {
        let t = Telemetry::enabled();
        t.complete("c", "x", "tr", 100, 350, &[]);
        assert_eq!(t.events()[0].duration_ns(), 250);
        // End clamped to begin when inverted.
        t.complete("c", "y", "tr", 400, 300, &[]);
        assert_eq!(t.events()[1].duration_ns(), 0);
    }

    #[test]
    fn clones_share_recorder() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        t2.instant("c", "i", "tr", &[]);
        assert_eq!(t.events().len(), 1);
        t.set_enabled(false);
        assert!(!t2.is_enabled());
    }
}
