//! Observability for the GraphNER pipeline, with zero external
//! dependencies.
//!
//! Three pillars, each usable on its own:
//!
//! * [`span`](mod@span) — nestable RAII wall-clock timers. `let _s =
//!   span(SpanName::TestPropagate);` records a [`SpanRecord`] into a
//!   global registry when the guard drops; span names are the closed
//!   [`SpanName`] vocabulary. [`with_capture`] scopes a
//!   deterministic view of the spans recorded by the current thread,
//!   which is how `TestTimings` in `graphner-core` is built.
//! * [`metrics`] — process-wide named [`Counter`]s, [`Gauge`]s and
//!   log-bucketed [`Histogram`]s with p50/p95/p99 readout, exportable
//!   as JSON or JSONL through a [`Registry`].
//! * [`logger`] — a progress logger filtered by the `GRAPHNER_LOG`
//!   environment variable (`off` | `summary` | `debug`; default
//!   `summary`). Output goes to **stderr** so machine-readable stdout
//!   (the bench tables) stays clean at every level.
//!
//! Two further modules build on the span pillar:
//!
//! * [`trace`] — lowers captured spans (with their typed [`AttrValue`]
//!   attributes, attached via [`attr`]) to Chrome Trace Event Format
//!   JSON that Perfetto opens directly; a deterministic logical clock
//!   makes identical runs export byte-identical traces.
//! * [`alloc`] — a counting global allocator behind the `obs-alloc`
//!   cargo feature; when enabled, span guards attach `mem.net_bytes`
//!   and `mem.peak_bytes` to their records, and `current_bytes`/
//!   `peak_bytes`/`reset_peak` expose process-wide heap registers.
//!
//! The layer is hand-rolled rather than built on `tracing` +
//! `metrics`-style crates deliberately: the repo builds fully offline
//! against in-repo stand-ins, and the pipeline needs only a narrow
//! slice of that machinery. See DESIGN.md ("Observability") for the
//! trade-off discussion.

#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        reason = "tests pin deterministic float outputs exactly; the lint guards library code"
    )
)]

pub mod alloc;
pub(crate) mod json;
pub mod logger;
pub mod metrics;
pub mod span;
pub mod trace;

pub use logger::{level, set_level, Level};
pub use metrics::{counter, gauge, histogram, Counter, Gauge, Histogram, Registry};
pub use span::{
    attr, span, with_capture, with_capture_all, AttrValue, SpanGuard, SpanName, SpanRecord,
    Stopwatch,
};
pub use trace::{
    chrome_trace_json, trace_events, TraceClock, TraceEvent, TracePhase, TRACE_CLOCK_ENV,
};

/// Lock a mutex, recovering the data if a panicking thread poisoned
/// it. Every mutex in this crate guards plain bookkeeping state
/// (metric maps, span buffers) that remains valid after a panic
/// elsewhere, so observability keeps working during unwinding instead
/// of turning one panic into a cascade.
pub(crate) fn acquire<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
