//! Stage wall-times of the test procedure, for the Fig. 2 cost
//! experiments.
//!
//! The timings are no longer measured ad hoc: [`crate::GraphNer::test`]
//! wraps each stage in a `graphner-obs` span and [`TestTimings`] is a
//! *view* over the recorded [`SpanRecord`]s, keyed by the `Test*`
//! variants of [`SpanName`].

use graphner_obs::{SpanName, SpanRecord};

/// Per-stage wall seconds of [`crate::GraphNer::test`].
#[derive(Clone, Copy, Debug, Default)]
pub struct TestTimings {
    /// Line 5: CRF posterior extraction over `D_l ∪ D_u`.
    pub posterior_seconds: f64,
    /// Graph construction (feature vectors + k-NN).
    pub graph_seconds: f64,
    /// Line 6: posterior averaging over vertices.
    pub average_seconds: f64,
    /// Line 7: graph propagation.
    pub propagate_seconds: f64,
    /// Lines 8–9: combination and Viterbi decode.
    pub decode_seconds: f64,
}

impl TestTimings {
    /// Build the per-stage timings from recorded spans. Spans whose
    /// names are not stage names (nested sub-spans, unrelated
    /// instrumentation) are ignored; repeated stage spans accumulate.
    pub fn from_spans(spans: &[SpanRecord]) -> TestTimings {
        let mut t = TestTimings::default();
        for s in spans {
            let stage = match s.name {
                n if n == SpanName::TestPosteriors.as_str() => &mut t.posterior_seconds,
                n if n == SpanName::TestGraph.as_str() => &mut t.graph_seconds,
                n if n == SpanName::TestAverage.as_str() => &mut t.average_seconds,
                n if n == SpanName::TestPropagate.as_str() => &mut t.propagate_seconds,
                n if n == SpanName::TestDecode.as_str() => &mut t.decode_seconds,
                _ => continue,
            };
            *stage += s.seconds;
        }
        t
    }

    /// Total test time.
    pub fn total(&self) -> f64 {
        self.posterior_seconds
            + self.graph_seconds
            + self.average_seconds
            + self.propagate_seconds
            + self.decode_seconds
    }

    /// GraphNER's *added* cost over the plain CRF test run — everything
    /// except the posterior extraction the CRF would do anyway.
    pub fn added_over_crf(&self) -> f64 {
        self.total() - self.posterior_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let t = TestTimings {
            posterior_seconds: 1.0,
            graph_seconds: 2.0,
            average_seconds: 0.5,
            propagate_seconds: 0.25,
            decode_seconds: 0.25,
        };
        assert!((t.total() - 4.0).abs() < 1e-12);
        assert!((t.added_over_crf() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn from_spans_round_trips() {
        let spans = vec![
            SpanRecord::synthetic(SpanName::TestPosteriors, 1.0),
            SpanRecord::synthetic(SpanName::TestGraph, 2.0),
            SpanRecord::synthetic(SpanName::TestAverage, 0.5),
            SpanRecord::synthetic(SpanName::TestPropagate, 0.25),
            SpanRecord::synthetic(SpanName::TestDecode, 0.25),
            // nested sub-spans and unrelated spans must not count
            SpanRecord::synthetic(SpanName::GraphKnn, 1.5),
            SpanRecord::synthetic(SpanName::ServeTagBatch, 9.0),
        ];
        let t = TestTimings::from_spans(&spans);
        assert_eq!(t.posterior_seconds, 1.0);
        assert_eq!(t.graph_seconds, 2.0);
        assert_eq!(t.average_seconds, 0.5);
        assert_eq!(t.propagate_seconds, 0.25);
        assert_eq!(t.decode_seconds, 0.25);
        assert!((t.total() - 4.0).abs() < 1e-12);
        assert!((t.added_over_crf() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_stage_spans_accumulate() {
        let spans = vec![
            SpanRecord::synthetic(SpanName::TestPropagate, 0.25),
            SpanRecord::synthetic(SpanName::TestPropagate, 0.75),
        ];
        let t = TestTimings::from_spans(&spans);
        assert_eq!(t.propagate_seconds, 1.0);
        assert_eq!(t.posterior_seconds, 0.0);
    }
}
