//! Chrome-trace-format export of the span registry.
//!
//! [`chrome_trace_json`] serializes completed [`SpanRecord`]s into the
//! Trace Event Format JSON that `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) open directly: one `B`/`E`
//! (duration begin/end) event pair per span, one track per recording
//! thread, with the span's typed attributes as the `args` of the `B`
//! event. Experiment binaries write one via `--trace-out <path>` (see
//! `graphner-bench`).
//!
//! # Clocks and determinism
//!
//! Timestamps come from one of two clocks ([`TraceClock`]):
//!
//! * [`TraceClock::Wall`] — microseconds since the earliest exported
//!   span began. Real durations, the clock to *look at* a run with.
//! * [`TraceClock::Logical`] — the span's global enter/exit sequence
//!   numbers, rebased to the smallest exported one. Every event gets a
//!   distinct, scheduling-independent timestamp, so two identical
//!   single-threaded runs export **byte-identical** JSON (asserted by
//!   `tests/determinism.rs`). Durations are meaningless; structure and
//!   attributes are exact.
//!
//! Both clocks rebase against the minimum over the exported set, and
//! thread labels are renumbered densely in order of first appearance,
//! so the output never leaks process-lifetime state (how many spans or
//! threads existed before the capture).
//!
//! # Nesting
//!
//! Events are emitted in global sequence order. Per thread, span
//! guards enter and exit in LIFO order, so the emitted `B`/`E` stream
//! of each track is balanced and properly nested — `tests/properties.rs`
//! property-checks this over random span trees.

use crate::span::{AttrValue, SpanRecord};
use std::collections::BTreeMap;

/// Which clock trace timestamps are drawn from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceClock {
    /// Microseconds since the earliest exported span's start.
    Wall,
    /// Rebased global sequence numbers: deterministic, not temporal.
    Logical,
}

/// Environment variable selecting the trace clock (`wall` | `logical`).
pub const TRACE_CLOCK_ENV: &str = "GRAPHNER_TRACE_CLOCK";

impl TraceClock {
    /// Read [`TRACE_CLOCK_ENV`] (`logical` selects the deterministic
    /// clock; anything else, including unset, means wall time).
    pub fn from_env() -> TraceClock {
        match std::env::var(TRACE_CLOCK_ENV) {
            Ok(v) if v.eq_ignore_ascii_case("logical") => TraceClock::Logical,
            _ => TraceClock::Wall,
        }
    }
}

/// Begin or end of one span on one track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TracePhase {
    /// Duration-begin (`"ph":"B"`); carries the span's attributes.
    Begin,
    /// Duration-end (`"ph":"E"`).
    End,
}

/// One Chrome-trace duration event, the structured form behind
/// [`chrome_trace_json`]. Exposed so tests can assert on balance and
/// nesting without parsing JSON.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Span name.
    pub name: &'static str,
    /// Begin or end.
    pub phase: TracePhase,
    /// Timestamp in the selected clock's units (µs for wall).
    pub ts: u64,
    /// Dense track id (threads renumbered by first appearance).
    pub tid: u64,
    /// Attributes (begin events only; empty on end events).
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// Global ordering key: the span's enter or exit sequence number.
    pub seq: u64,
}

/// Lower the spans to an event stream: two events per span, sorted by
/// global sequence, timestamps rebased per `clock`, thread labels
/// renumbered densely by first appearance.
pub fn trace_events(spans: &[SpanRecord], clock: TraceClock) -> Vec<TraceEvent> {
    if spans.is_empty() {
        return Vec::new();
    }
    let min_seq = spans.iter().map(|s| s.enter_seq).min().unwrap_or(0);
    let min_us = spans.iter().map(|s| s.start_us).min().unwrap_or(0);

    // dense tids by order of first appearance (earliest enter_seq)
    let mut first_seen: BTreeMap<u64, u64> = BTreeMap::new();
    let mut by_enter: Vec<&SpanRecord> = spans.iter().collect();
    by_enter.sort_by_key(|s| s.enter_seq);
    for s in &by_enter {
        let next = first_seen.len() as u64;
        first_seen.entry(s.thread).or_insert(next);
    }

    let mut events = Vec::with_capacity(spans.len() * 2);
    for s in spans {
        let tid = first_seen[&s.thread];
        let (begin_ts, end_ts) = match clock {
            TraceClock::Wall => (s.start_us - min_us, s.end_us - min_us),
            TraceClock::Logical => (s.enter_seq - min_seq, s.exit_seq - min_seq),
        };
        events.push(TraceEvent {
            name: s.name,
            phase: TracePhase::Begin,
            ts: begin_ts,
            tid,
            attrs: s.attrs.clone(),
            seq: s.enter_seq,
        });
        events.push(TraceEvent {
            name: s.name,
            phase: TracePhase::End,
            ts: end_ts,
            tid,
            attrs: Vec::new(),
            seq: s.exit_seq,
        });
    }
    events.sort_by_key(|e| e.seq);
    events
}

/// Serialize spans as a Chrome Trace Event Format JSON document.
///
/// The output is a single `{"traceEvents":[...]}` object: per-track
/// metadata naming the process and threads, then one `B` and one `E`
/// event per span in global sequence order. Open the file directly in
/// Perfetto or `chrome://tracing`.
pub fn chrome_trace_json(spans: &[SpanRecord], clock: TraceClock) -> String {
    let events = trace_events(spans, clock);
    let mut lines: Vec<String> = Vec::with_capacity(events.len() + 4);
    lines.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"graphner\"}}"
            .to_string(),
    );
    let num_tracks = events.iter().map(|e| e.tid + 1).max().unwrap_or(0);
    for tid in 0..num_tracks {
        let label = if tid == 0 { "main".to_string() } else { format!("thread-{tid}") };
        lines.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            crate::json::json_string(&label)
        ));
    }
    for e in &events {
        let ph = match e.phase {
            TracePhase::Begin => "B",
            TracePhase::End => "E",
        };
        let mut line = format!(
            "{{\"name\":{},\"ph\":\"{ph}\",\"pid\":1,\"tid\":{},\"ts\":{}",
            crate::json::json_string(e.name),
            e.tid,
            e.ts
        );
        if !e.attrs.is_empty() {
            let args: Vec<String> = e
                .attrs
                .iter()
                .map(|(k, v)| format!("{}:{}", crate::json::json_string(k), v.to_json()))
                .collect();
            line.push_str(&format!(",\"args\":{{{}}}", args.join(",")));
        }
        line.push('}');
        lines.push(line);
    }
    format!("{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n", lines.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{attr, span, with_capture, SpanName};

    fn sample_spans() -> Vec<SpanRecord> {
        let ((), spans) = with_capture(|| {
            let _outer = span(SpanName::TestGraph);
            attr("graph.vertices", 7u64);
            {
                let _inner = span(SpanName::GraphKnn);
                attr("propagate.residual", 0.25f64);
            }
        });
        spans
    }

    fn phases(events: &[TraceEvent]) -> Vec<(&'static str, TracePhase)> {
        events.iter().map(|e| (e.name, e.phase)).collect()
    }

    #[test]
    fn events_are_balanced_and_sequenced() {
        let spans = sample_spans();
        let events = trace_events(&spans, TraceClock::Logical);
        assert_eq!(
            phases(&events),
            vec![
                ("test.graph", TracePhase::Begin),
                ("graph.knn", TracePhase::Begin),
                ("graph.knn", TracePhase::End),
                ("test.graph", TracePhase::End),
            ]
        );
        // logical clock rebases to zero and keeps every ts distinct
        assert_eq!(events[0].ts, 0);
        let mut ts: Vec<u64> = events.iter().map(|e| e.ts).collect();
        ts.dedup();
        assert_eq!(ts.len(), events.len());
        // attributes ride on the begin events only
        assert!(events[0].attrs.iter().any(|(k, _)| *k == "graph.vertices"));
        assert!(events[2].attrs.is_empty());
    }

    #[test]
    fn wall_clock_contains_child_window_in_parent() {
        let spans = sample_spans();
        let events = trace_events(&spans, TraceClock::Wall);
        let at = |name: &str, phase: TracePhase| {
            events.iter().find(|e| e.name == name && e.phase == phase).unwrap().ts
        };
        assert!(at("graph.knn", TracePhase::Begin) >= at("test.graph", TracePhase::Begin));
        assert!(at("graph.knn", TracePhase::End) <= at("test.graph", TracePhase::End));
    }

    #[test]
    fn json_document_shape_and_attr_rendering() {
        let spans = sample_spans();
        let json = chrome_trace_json(&spans, TraceClock::Logical);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}\n"));
        assert!(json.contains("\"name\":\"test.graph\",\"ph\":\"B\""));
        // under obs-alloc the args object also carries mem.* attrs, so
        // match the rendered pair rather than the whole object
        assert!(json.contains("\"args\":{\"graph.vertices\":7"));
        assert!(json.contains("\"propagate.residual\":0.25"));
        assert!(json.contains("\"thread_name\""));
        // two B + two E + process + one thread metadata
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
    }

    #[test]
    fn logical_export_is_identical_across_identical_captures() {
        // under obs-alloc the mem.* attrs legitimately vary run to run
        // (allocator state is process history); everything else must not
        let strip = |mut spans: Vec<SpanRecord>| {
            for s in &mut spans {
                s.attrs.retain(|(k, _)| !k.starts_with("mem."));
            }
            spans
        };
        let a = chrome_trace_json(&strip(sample_spans()), TraceClock::Logical);
        let b = chrome_trace_json(&strip(sample_spans()), TraceClock::Logical);
        assert_eq!(a, b, "logical-clock traces of identical runs must match byte-for-byte");
    }

    #[test]
    fn empty_span_set_exports_an_openable_document() {
        let json = chrome_trace_json(&[], TraceClock::Wall);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("process_name"));
    }
}
