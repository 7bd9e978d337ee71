//! # viper-telemetry
//!
//! Observability for the Viper pipeline: a virtual-clock-aware span/event
//! recorder, a metrics registry, and a Chrome trace-event exporter.
//!
//! Every latency claim in the Viper paper (Figs. 5–10) is a timeline
//! attribution claim — snapshot vs. serialize vs. transfer vs. install.
//! This crate makes those attributions observable: components record spans
//! and counters against the deployment's shared [`viper_hw::SimClock`]
//! (falling back to wall clock when no virtual clock is bound), and the
//! whole timeline exports as Chrome trace-event JSON loadable in Perfetto
//! or `about://tracing`.
//!
//! Three pieces:
//!
//! * [`Telemetry`] — a cheaply clonable handle around a bounded
//!   ring-buffer *flight recorder*. When disabled (the default), every
//!   recording call is a branch-and-return no-op: no locks, no
//!   allocation, and — crucially — it never touches the virtual clock, so
//!   simulated makespans are bit-identical with telemetry on or off.
//! * [`MetricsRegistry`] (reached through the same handle) — named
//!   [`Counter`]s, [`Gauge`]s, and fixed-bucket [`Histogram`]s. Metrics
//!   are plain atomics and stay live even when tracing is disabled, so
//!   public accessors built on them (retry counts, malformed-chunk
//!   counts) always report.
//! * [`chrome`] — the exporter. [`chrome::export`] renders the recorder's
//!   contents as Chrome trace-event JSON; [`chrome::render_metrics`]
//!   renders the registry as a text table.
//!
//! ## Clock domains
//!
//! Timestamps are `u64` nanoseconds. With a virtual clock bound
//! ([`Telemetry::bind_virtual_clock`] — `Viper::new` does this for the
//! deployment handle) they are virtual nanoseconds since simulation
//! start, read with the integer accessor [`viper_hw::SimInstant::as_nanos`]
//! so no `f64` round-trip ever loses precision. Without one they are wall
//! nanoseconds since the handle was created. Real-compute phases that do
//! not advance the virtual clock (e.g. serialization) show up as
//! zero-duration spans on the virtual timeline.
//!
//! ## Example
//!
//! ```
//! use viper_telemetry::Telemetry;
//!
//! let t = Telemetry::enabled();
//! {
//!     let _span = t.span("demo", "outer", "main");
//!     t.instant("demo", "milestone", "main", &[("k", 7u64.into())]);
//! }
//! t.counter("demo.events").inc();
//! let json = viper_telemetry::chrome::export(&t);
//! assert!(json.contains("\"traceEvents\""));
//! assert_eq!(t.counter("demo.events").get(), 1);
//! ```

#![warn(missing_docs)]

pub mod chrome;
mod metrics;
mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use trace::{ArgValue, EventKind, SpanGuard, Telemetry, TraceEvent};
