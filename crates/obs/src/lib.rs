//! # pwm-obs — the observability subsystem
//!
//! The workspace's one layer of metrics, traces and logs: every crate
//! registers its counters and histograms here and records its spans here.
//!
//! * [`registry`] — a labeled metrics [`Registry`] of atomic counters,
//!   gauges, and HDR-style [`Histogram`]s, cheap enough for hot paths
//!   (lock-free handles, one atomic per histogram bucket), rendered in
//!   Prometheus text exposition format.
//! * [`span`] — sim-time-aware span tracing ([`Tracer`]): parent/child spans
//!   and instant events with deterministic sequential ids, exported as
//!   Chrome-trace-format JSON (loadable in `chrome://tracing` or Perfetto).
//! * [`logger`] — a tiny leveled stderr logger with env-controlled
//!   verbosity (`PWM_LOG=error|warn|info|debug`) for the CLI binaries, so
//!   machine-readable results keep stdout to themselves.
//! * [`json`] — the self-contained JSON value writer/parser backing the
//!   trace exporter and trace validation (the vendored `serde_json`
//!   substitute has no dynamic value type).
//!
//! All timestamps in traces are **simulation time** ([`pwm_sim::SimTime`],
//! integer microseconds — which is exactly the Chrome-trace `ts` unit), so a
//! same-seed run exports a byte-identical trace.
//!
//! ```
//! use pwm_obs::Obs;
//! use pwm_sim::SimTime;
//!
//! let obs = Obs::new();
//! let jobs = obs.registry.counter("pwm_jobs_total", "Jobs run", &[("site", "obelix")]);
//! jobs.inc();
//! let span = obs.tracer.start_span("mProject_1", "workflow", None, SimTime::ZERO);
//! obs.tracer.end_span(span, SimTime::from_secs(3));
//! assert!(obs.registry.render_prometheus().contains("pwm_jobs_total"));
//! assert!(obs.tracer.chrome_trace_json().contains("mProject_1"));
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod logger;
pub mod registry;
pub mod span;

pub use json::{JsonError, JsonValue};
pub use logger::{global as global_logger, Level, Logger};
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use span::{validate_chrome_trace, SpanId, TraceEvent, Tracer};

/// A cheaply cloneable handle bundling the metrics [`Registry`] and the span
/// [`Tracer`] so components can thread one value through their constructors.
///
/// Clones share the same underlying registry and trace buffer.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Labeled counters, gauges and histograms.
    pub registry: Registry,
    /// Sim-time span and instant events.
    pub tracer: Tracer,
}

impl Obs {
    /// A fresh registry + tracer pair.
    pub fn new() -> Obs {
        Obs::default()
    }

    /// A handle sharing this registry but writing spans to a fresh, empty
    /// tracer — used for per-session trace buffers behind one shared
    /// `/metrics` registry.
    pub fn with_fresh_tracer(&self) -> Obs {
        Obs {
            registry: self.registry.clone(),
            tracer: Tracer::default(),
        }
    }
}
