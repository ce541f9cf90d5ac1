//! Nestable RAII wall-clock spans with a thread-safe global registry.
//!
//! A [`span`] guard measures the wall time between its creation and its
//! drop, then appends a [`SpanRecord`] to the process-wide registry.
//! Records carry the owning thread, the nesting depth at entry,
//! monotone enter/exit sequence numbers, microsecond timestamps
//! relative to a process epoch, and a list of typed attributes
//! ([`AttrValue`]), so callers can reconstruct the nesting tree — and
//! export it as a Chrome-trace timeline ([`crate::trace`]) — even when
//! several threads record concurrently.
//!
//! Attributes are attached from *inside* the span with [`attr`]: the
//! value lands on the innermost span currently open on the calling
//! thread, so deep callees (the propagation kernel reporting its sweep
//! count, the k-NN builder reporting edges) annotate the enclosing
//! stage span without threading a handle through every signature.
//!
//! [`with_capture`] wraps a closure and returns exactly the spans that
//! completed on the *current thread* during the closure — deterministic
//! even while other threads (e.g. parallel tests) record their own.

#![expect(
    clippy::disallowed_types,
    reason = "this module owns the workspace's wall clock: spans and Stopwatch are the only readers of Instant"
)]

use crate::alloc::AllocSnapshot;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on retained records; beyond it new spans are timed but not
/// recorded, so a pathological loop cannot grow memory without bound.
const REGISTRY_CAP: usize = 262_144;

/// Global monotone sequence for enter/exit ordering across threads.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Global registry of completed spans.
static REGISTRY: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// Next thread label; thread ids are process-local and monotone.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// Process epoch all span timestamps are measured from (first use).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process epoch.
fn epoch_us(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_micros() as u64
}

thread_local! {
    /// Current nesting depth on this thread.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    /// Stable per-thread label.
    static THREAD_LABEL: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// Attribute buffers of the spans currently open on this thread,
    /// innermost last. [`attr`] appends to the top buffer; the guard
    /// drop pops its buffer into the finished record.
    static OPEN_ATTRS: RefCell<Vec<Vec<(&'static str, AttrValue)>>> =
        const { RefCell::new(Vec::new()) };
}

/// The closed span vocabulary: every name a [`span`] or
/// [`SpanRecord::synthetic`] can carry. Trace viewers, `TestTimings`
/// in `graphner-core`, `BENCH_pipeline.json` stage keys and the
/// benchmark's per-layer rows all key on these strings, so a new name
/// is a new variant here, and a misspelt one fails to compile.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanName {
    /// Algorithm 1 line 5: CRF posterior extraction over `D_l ∪ D_u`.
    TestPosteriors,
    /// Graph construction for the test procedure (vectors + k-NN).
    TestGraph,
    /// Algorithm 1 line 6: posterior averaging over vertices.
    TestAverage,
    /// Algorithm 1 line 7: graph propagation.
    TestPropagate,
    /// Algorithm 1 lines 8–9: combination and Viterbi decode.
    TestDecode,
    /// Vertex feature vectors of the similarity graph.
    GraphVectors,
    /// PMI weighting of the vertex vectors.
    GraphPmi,
    /// k-nearest-neighbour graph search.
    GraphKnn,
    /// Mutual-information feature filter.
    GraphMiFilter,
    /// One batch through the served tagger.
    ServeTagBatch,
    /// One HTTP request in the server.
    ServeRequest,
    /// One batch drained by the serve batcher.
    ServeBatch,
    /// CRF training.
    CrfTrain,
}

impl SpanName {
    /// Every variant, in declaration order.
    pub const ALL: [SpanName; 13] = [
        SpanName::TestPosteriors,
        SpanName::TestGraph,
        SpanName::TestAverage,
        SpanName::TestPropagate,
        SpanName::TestDecode,
        SpanName::GraphVectors,
        SpanName::GraphPmi,
        SpanName::GraphKnn,
        SpanName::GraphMiFilter,
        SpanName::ServeTagBatch,
        SpanName::ServeRequest,
        SpanName::ServeBatch,
        SpanName::CrfTrain,
    ];

    /// The recorded name, `area.verb`-shaped.
    pub const fn as_str(self) -> &'static str {
        match self {
            SpanName::TestPosteriors => "test.posteriors",
            SpanName::TestGraph => "test.graph",
            SpanName::TestAverage => "test.average",
            SpanName::TestPropagate => "test.propagate",
            SpanName::TestDecode => "test.decode",
            SpanName::GraphVectors => "graph.vectors",
            SpanName::GraphPmi => "graph.pmi",
            SpanName::GraphKnn => "graph.knn",
            SpanName::GraphMiFilter => "graph.mi_filter",
            SpanName::ServeTagBatch => "serve.tag_batch",
            SpanName::ServeRequest => "serve.request",
            SpanName::ServeBatch => "serve.batch",
            SpanName::CrfTrain => "crf.train",
        }
    }
}

/// One typed span attribute value.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// An unsigned count (vertices, edges, batch size, bytes).
    U64(u64),
    /// A signed quantity (net allocation deltas).
    I64(i64),
    /// A measurement (residuals, rates).
    F64(f64),
    /// A short label.
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> AttrValue {
        AttrValue::U64(v as u64)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> AttrValue {
        AttrValue::U64(v as u64)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> AttrValue {
        AttrValue::I64(v)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> AttrValue {
        AttrValue::F64(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}

impl AttrValue {
    /// Render as a JSON value fragment.
    pub(crate) fn to_json(&self) -> String {
        match self {
            AttrValue::U64(v) => format!("{v}"),
            AttrValue::I64(v) => format!("{v}"),
            AttrValue::F64(v) => crate::json::json_number(*v),
            AttrValue::Str(s) => crate::json::json_string(s),
        }
    }
}

/// Attach `key = value` to the innermost span currently open on this
/// thread. A no-op when no span is open (so library code can annotate
/// unconditionally) and on keys already present (first write wins, so
/// an inner helper cannot clobber the stage's own attribute).
pub fn attr(key: &'static str, value: impl Into<AttrValue>) {
    let value = value.into();
    OPEN_ATTRS.with(|stack| {
        let mut stack = stack.borrow_mut();
        if let Some(top) = stack.last_mut() {
            if !top.iter().any(|(k, _)| *k == key) {
                top.push((key, value));
            }
        }
    });
}

/// One completed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// [`SpanName::as_str`] of the span's name, e.g. `"test.propagate"`.
    pub name: &'static str,
    /// Label of the thread the span ran on.
    pub thread: u64,
    /// Nesting depth at entry (0 = top level on its thread).
    pub depth: usize,
    /// Global sequence number taken at guard creation.
    pub enter_seq: u64,
    /// Global sequence number taken at guard drop.
    pub exit_seq: u64,
    /// Microseconds from the process epoch to guard creation.
    pub start_us: u64,
    /// Microseconds from the process epoch to guard drop. Never less
    /// than `start_us`; for a child span the `[start_us, end_us]`
    /// window is contained in its parent's.
    pub end_us: u64,
    /// Wall-clock duration in seconds.
    pub seconds: f64,
    /// Typed attributes attached via [`attr`] while the span was open,
    /// in attachment order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// A record that was never timed — a named duration injected
    /// directly, used when converting legacy timing data into span
    /// form (e.g. `TestTimings` round-trips in `graphner-core`).
    pub fn synthetic(name: SpanName, seconds: f64) -> SpanRecord {
        let enter = SEQ.fetch_add(1, Ordering::Relaxed);
        let exit = SEQ.fetch_add(1, Ordering::Relaxed);
        let now = epoch_us(Instant::now());
        SpanRecord {
            name: name.as_str(),
            thread: THREAD_LABEL.with(|t| *t),
            depth: DEPTH.with(|d| d.get()),
            enter_seq: enter,
            exit_seq: exit,
            start_us: now,
            end_us: now,
            seconds,
            attrs: Vec::new(),
        }
    }

    /// The attribute named `key`, if attached.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// A plain wall-clock timer for call sites that want a duration as a
/// value (e.g. timing fields in result structs) rather than a recorded
/// span. This is the only sanctioned way to read the wall clock
/// outside this crate: `clippy::disallowed_types` forbids `Instant`
/// anywhere else, so all timing flows through `graphner-obs`.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch { started: Instant::now() }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// RAII guard created by [`span`]; records on drop.
pub struct SpanGuard {
    name: &'static str,
    depth: usize,
    enter_seq: u64,
    start: Instant,
    alloc: AllocSnapshot,
}

/// Start a span; the returned guard records into the global registry
/// when dropped. Guards must drop in LIFO order on their thread (the
/// natural scoping of `let _s = span(..)`), or attributes attach to
/// the wrong span.
///
/// The name is a [`SpanName`]:
///
/// ```
/// let _s = graphner_obs::span(graphner_obs::SpanName::GraphKnn);
/// ```
///
/// and a free-form string does not compile:
///
/// ```compile_fail
/// let _s = graphner_obs::span("graph.knn");
/// ```
pub fn span(name: SpanName) -> SpanGuard {
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    OPEN_ATTRS.with(|stack| stack.borrow_mut().push(Vec::new()));
    SpanGuard {
        name: name.as_str(),
        depth,
        enter_seq: SEQ.fetch_add(1, Ordering::Relaxed),
        start: Instant::now(),
        alloc: crate::alloc::snapshot(),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ended = Instant::now();
        let seconds = ended.duration_since(self.start).as_secs_f64();
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let mut attrs = OPEN_ATTRS.with(|stack| stack.borrow_mut().pop()).unwrap_or_default();
        if crate::alloc::enabled() {
            attrs.push(("mem.net_bytes", AttrValue::I64(self.alloc.net_bytes())));
            attrs.push(("mem.peak_bytes", AttrValue::U64(self.alloc.peak_delta_bytes())));
        }
        let record = SpanRecord {
            name: self.name,
            thread: THREAD_LABEL.with(|t| *t),
            depth: self.depth,
            enter_seq: self.enter_seq,
            exit_seq: SEQ.fetch_add(1, Ordering::Relaxed),
            start_us: epoch_us(self.start),
            end_us: epoch_us(ended),
            seconds,
            attrs,
        };
        let mut registry = crate::acquire(&REGISTRY);
        if registry.len() < REGISTRY_CAP {
            registry.push(record);
        }
    }
}

/// Run `f` and return its result together with every span that
/// completed **on the current thread** while it ran, ordered by exit.
///
/// # Current-thread scope — worker spans are *not* captured
///
/// The capture window filters by the calling thread's label as well as
/// the sequence window. Spans recorded by *other* threads — notably
/// the worker-pool threads executing `par_iter` chunks inside `f` —
/// are registered globally but **excluded from this return value**.
/// That filtering is what makes the capture deterministic while other
/// threads record concurrently, and it is why the stage spans feeding
/// `TestTimings` in `graphner-core` are opened on the session thread
/// around whole parallel stages, never inside chunk closures. Use
/// [`with_capture_all`] when worker-side spans are the point, or
/// [`drain`] for a whole-process export.
pub fn with_capture<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
    let thread = THREAD_LABEL.with(|t| *t);
    let first_seq = SEQ.load(Ordering::Relaxed);
    let result = f();
    let last_seq = SEQ.load(Ordering::Relaxed);
    let mut captured: Vec<SpanRecord> = crate::acquire(&REGISTRY)
        .iter()
        .filter(|r| r.thread == thread && r.enter_seq >= first_seq && r.exit_seq <= last_seq)
        .cloned()
        .collect();
    captured.sort_by_key(|r| r.exit_seq);
    (result, captured)
}

/// Run `f` and return its result together with every span — from
/// **any** thread — that entered and exited during the closure,
/// ordered by exit sequence.
///
/// Unlike [`with_capture`], this sees pool-worker spans recorded while
/// `f` ran, so it is the right scope for asserting on worker-side
/// instrumentation. The price is isolation, not determinism of
/// content: spans from unrelated threads that happen to run during `f`
/// (e.g. parallel tests) are captured too, so filter by name before
/// asserting counts.
pub fn with_capture_all<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
    let first_seq = SEQ.load(Ordering::Relaxed);
    let result = f();
    let last_seq = SEQ.load(Ordering::Relaxed);
    let mut captured: Vec<SpanRecord> = crate::acquire(&REGISTRY)
        .iter()
        .filter(|r| r.enter_seq >= first_seq && r.exit_seq <= last_seq)
        .cloned()
        .collect();
    captured.sort_by_key(|r| r.exit_seq);
    (result, captured)
}

/// Remove and return every record in the registry (all threads).
/// Chiefly for tools that export spans at end of run.
pub fn drain() -> Vec<SpanRecord> {
    std::mem::take(&mut *crate::acquire(&REGISTRY))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names are `area.verb`-shaped (two or more non-empty
    /// dot-separated segments of `[a-z0-9_]`) and unique, and they stay
    /// byte-for-byte what `BENCH_pipeline.json` and the benchmark's
    /// per-layer rows key on.
    #[test]
    fn span_names_are_unique_area_verb_and_pinned() {
        let names: Vec<&str> = SpanName::ALL.iter().map(|n| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "test.posteriors",
                "test.graph",
                "test.average",
                "test.propagate",
                "test.decode",
                "graph.vectors",
                "graph.pmi",
                "graph.knn",
                "graph.mi_filter",
                "serve.tag_batch",
                "serve.request",
                "serve.batch",
                "crf.train",
            ]
        );
        for (i, name) in names.iter().enumerate() {
            let segments: Vec<&str> = name.split('.').collect();
            assert!(segments.len() >= 2, "{name} is not area.verb");
            assert!(
                segments.iter().all(|seg| !seg.is_empty()
                    && seg
                        .bytes()
                        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')),
                "{name} is not area.verb"
            );
            assert!(!names[..i].contains(name), "{name} is minted by two variants");
        }
    }

    #[test]
    fn nesting_depth_and_sequencing() {
        let ((), spans) = with_capture(|| {
            let _outer = span(SpanName::TestGraph);
            {
                let _inner = span(SpanName::GraphKnn);
                std::hint::black_box(1 + 1);
            }
        });
        assert_eq!(spans.len(), 2);
        // children drop first, so exit order is inner then outer
        assert_eq!(spans[0].name, "graph.knn");
        assert_eq!(spans[1].name, "test.graph");
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(outer.depth, inner.depth.wrapping_sub(1));
        assert!(inner.enter_seq > outer.enter_seq);
        assert!(inner.exit_seq < outer.exit_seq);
        assert!(inner.seconds <= outer.seconds);
        assert!(outer.seconds >= 0.0);
        // timestamp window of the child is contained in the parent's
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.end_us <= outer.end_us);
        assert!(outer.end_us >= outer.start_us);
    }

    #[test]
    fn capture_excludes_spans_outside_the_window() {
        {
            let _before = span(SpanName::GraphPmi);
        }
        let ((), spans) = with_capture(|| {
            let _in = span(SpanName::GraphVectors);
        });
        assert_eq!(spans.iter().filter(|s| s.name == "graph.vectors").count(), 1);
        assert!(spans.iter().all(|s| s.name != "graph.pmi"));
    }

    #[test]
    fn capture_is_per_thread_under_std_threads() {
        std::thread::scope(|scope| {
            // hammer the registry from two other threads the whole time
            let noise = |tag: SpanName| {
                move || {
                    for _ in 0..500 {
                        let _n = span(tag);
                    }
                }
            };
            scope.spawn(noise(SpanName::GraphPmi));
            scope.spawn(noise(SpanName::GraphKnn));
            let ((), spans) = with_capture(|| {
                let _mine = span(SpanName::TestDecode);
                let _child = span(SpanName::CrfTrain);
            });
            let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
            assert_eq!(names, vec!["crf.train", "test.decode"]);
        });
    }

    #[test]
    fn capture_all_sees_other_threads_in_window() {
        let ((), spans) = with_capture_all(|| {
            let _mine = span(SpanName::ServeRequest);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _w = span(SpanName::ServeBatch);
                });
            });
        });
        assert_eq!(spans.iter().filter(|s| s.name == "serve.batch").count(), 1);
        assert_eq!(spans.iter().filter(|s| s.name == "serve.request").count(), 1);
        let worker = spans.iter().find(|s| s.name == "serve.batch").unwrap();
        let outer = spans.iter().find(|s| s.name == "serve.request").unwrap();
        assert_ne!(worker.thread, outer.thread);
    }

    #[test]
    fn synthetic_records_carry_given_seconds() {
        let record = SpanRecord::synthetic(SpanName::TestAverage, 1.25);
        assert_eq!(record.name, "test.average");
        assert!((record.seconds - 1.25).abs() < 1e-15);
        assert!(record.exit_seq > record.enter_seq);
        assert_eq!(record.start_us, record.end_us);
        assert!(record.attrs.is_empty());
    }

    #[test]
    fn attrs_attach_to_innermost_open_span() {
        let ((), spans) = with_capture(|| {
            let _outer = span(SpanName::TestPropagate);
            attr("graph.vertices", 42u64);
            {
                let _inner = span(SpanName::GraphKnn);
                attr("propagate.sweeps", 3usize);
                attr("propagate.residual", 0.5f64);
            }
            attr("late", "tail");
        });
        let inner = spans.iter().find(|s| s.name == "graph.knn").unwrap();
        let outer = spans.iter().find(|s| s.name == "test.propagate").unwrap();
        assert_eq!(inner.attr("propagate.sweeps"), Some(&AttrValue::U64(3)));
        assert_eq!(inner.attr("propagate.residual"), Some(&AttrValue::F64(0.5)));
        assert!(inner.attr("graph.vertices").is_none());
        assert_eq!(outer.attr("graph.vertices"), Some(&AttrValue::U64(42)));
        assert_eq!(outer.attr("late"), Some(&AttrValue::Str("tail".to_string())));
    }

    #[test]
    fn attr_first_write_wins_and_no_open_span_is_a_noop() {
        attr("orphan", 1u64); // no open span: must not panic or leak
        let ((), spans) = with_capture(|| {
            let _s = span(SpanName::ServeTagBatch);
            attr("k", 1u64);
            attr("k", 2u64);
        });
        let s = spans.iter().find(|s| s.name == "serve.tag_batch").unwrap();
        assert_eq!(s.attr("k"), Some(&AttrValue::U64(1)));
        assert_eq!(s.attrs.iter().filter(|(k, _)| *k == "k").count(), 1);
    }

    #[test]
    fn mem_attrs_present_exactly_when_alloc_enabled() {
        let ((), spans) = with_capture(|| {
            let _s = span(SpanName::GraphMiFilter);
            std::hint::black_box(vec![0u8; 4096]);
        });
        let s = spans.iter().find(|s| s.name == "graph.mi_filter").unwrap();
        assert_eq!(s.attr("mem.net_bytes").is_some(), crate::alloc::enabled());
        assert_eq!(s.attr("mem.peak_bytes").is_some(), crate::alloc::enabled());
    }
}
