//! Span capture must stay deterministic while the rayon pool records
//! spans concurrently. This binary pins `GRAPHNER_THREADS=4` before
//! first pool use so every job spawns scoped helper threads even on
//! single-core CI runners: `with_capture` must keep filtering helper
//! spans out, `with_capture_all` must see them.

use graphner_obs::span::{span, with_capture, with_capture_all, SpanName};
use rayon::prelude::*;

/// Force a multi-worker pool regardless of host core count. The pool
/// reads the variable once at first use; both tests call this first,
/// and setting the same value twice is harmless whichever runs first.
fn pin_pool_threads() {
    std::env::set_var(rayon::THREADS_ENV, "4");
}

#[test]
fn capture_isolates_current_thread_from_rayon_workers() {
    pin_pool_threads();
    let data: Vec<usize> = (0..256).collect();
    let ((), spans) = with_capture(|| {
        let _stage = span(SpanName::TestPropagate);
        let items: Vec<usize> = data
            .par_iter()
            .map(|&i| {
                let _worker = span(SpanName::GraphPmi);
                i
            })
            .collect();
        assert_eq!(items.iter().sum::<usize>(), 256 * 255 / 2);
    });
    // the outer stage span is always captured…
    assert_eq!(spans.iter().filter(|s| s.name == "test.propagate").count(), 1);
    // …and every captured span belongs to the capturing thread with
    // consistent nesting: items recorded on this thread must sit
    // strictly inside the stage span's sequence window. Items executed
    // by pool workers are in the global registry but not here — that
    // current-thread filter is what `with_capture`'s docs promise.
    let stage = spans.iter().find(|s| s.name == "test.propagate").unwrap();
    for item in spans.iter().filter(|s| s.name == "graph.pmi") {
        assert_eq!(item.thread, stage.thread);
        assert!(item.enter_seq > stage.enter_seq);
        assert!(item.exit_seq < stage.exit_seq);
        assert_eq!(item.depth, stage.depth + 1);
    }
}

#[test]
fn capture_all_sees_the_worker_spans_with_capture_hides() {
    pin_pool_threads();
    let data: Vec<usize> = (0..256).collect();
    // The caller thread participates in chunk execution, so on a
    // single-core host a trivially cheap job can finish before any
    // worker gets scheduled. Stretch each item past a scheduler tick's
    // worth of total work and allow a few attempts: one chunk landing
    // on a worker is all the cross-thread assertion needs.
    let mut off_thread = 0usize;
    for _attempt in 0..5 {
        let ((), all) = with_capture_all(|| {
            let _stage = span(SpanName::TestDecode);
            let items: Vec<usize> = data
                .par_iter()
                .map(|&i| {
                    let _worker = span(SpanName::GraphKnn);
                    let watch = graphner_obs::Stopwatch::start();
                    while watch.elapsed_seconds() < 100e-6 {
                        std::hint::spin_loop();
                    }
                    i
                })
                .collect();
            assert_eq!(items.iter().sum::<usize>(), 256 * 255 / 2);
        });
        // Filter by name: with_capture_all's window also catches spans
        // from unrelated concurrent tests in this binary (documented
        // price of the all-threads scope).
        let stage = all.iter().find(|s| s.name == "test.decode").expect("stage span captured");
        let items: Vec<_> = all.iter().filter(|s| s.name == "graph.knn").collect();
        // no worker span is lost: every one of the 256 items is
        // captured, whichever thread executed its chunk…
        assert_eq!(items.len(), 256);
        // …and each one sits inside the stage's global sequence window,
        // because par_iter joins all chunks before the stage guard drops
        for item in &items {
            assert!(item.enter_seq > stage.enter_seq);
            assert!(item.exit_seq < stage.exit_seq);
        }
        off_thread = items.iter().filter(|s| s.thread != stage.thread).count();
        if off_thread > 0 {
            break;
        }
    }
    // the all-threads capture saw spans a current-thread capture
    // could not have: chunks executed on pool workers
    assert!(off_thread > 0, "expected some items on pool workers, all ran on the caller");
}
