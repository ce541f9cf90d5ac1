//! Worker-pool contract tests against the vendored `rayon` shim.
//!
//! The pool's determinism argument (DESIGN.md §10) rests on two
//! properties checked here from outside the crate: chunk boundaries
//! are a pure function of input length, and parallel `map` + `collect`
//! preserves input order exactly.

#![allow(
    clippy::disallowed_methods,
    reason = "the pool suite observes the worker count it is testing, and det: its parallel sum is over integers, exact in any order"
)]

use proptest::prelude::*;
use rayon::prelude::*;

#[test]
fn chunk_ranges_partition_any_length_in_order() {
    for len in [0usize, 1, 2, 63, 64, 65, 1000, 4097] {
        let ranges = rayon::chunk_ranges(len);
        let mut expected_start = 0;
        for r in &ranges {
            assert_eq!(r.start, expected_start, "ranges must tile [0, len) gaplessly");
            assert!(r.end > r.start, "ranges must be non-empty");
            expected_start = r.end;
        }
        assert_eq!(expected_start, len);
    }
}

#[test]
fn pool_reports_at_least_one_thread() {
    assert!(rayon::current_num_threads() >= 1);
    let stats = rayon::pool_stats();
    assert_eq!(stats.threads, rayon::current_num_threads());
    assert_eq!(stats.idle_waits.len(), rayon::IDLE_BUCKETS);
}

proptest! {
    /// Parallel map + collect must equal the sequential result — the
    /// order-preserving chunk merge guarantee, for arbitrary inputs.
    #[test]
    fn par_map_collect_preserves_order(input in prop::collection::vec(-1_000_000i64..1_000_000, 0..500)) {
        let parallel: Vec<i64> = input.par_iter().map(|&x| x.wrapping_mul(3) - 7).collect();
        let sequential: Vec<i64> = input.iter().map(|&x| x.wrapping_mul(3) - 7).collect();
        prop_assert_eq!(parallel, sequential);
    }

    /// Associative-commutative reduction must match the sequential sum
    /// regardless of how chunks regroup the terms (exact in i64).
    #[test]
    fn par_sum_matches_sequential(input in prop::collection::vec(-1_000i64..1_000, 0..500)) {
        let parallel: i64 = input.par_iter().map(|&x| x).sum();
        let sequential: i64 = input.iter().sum();
        prop_assert_eq!(parallel, sequential);
    }

    /// Enumerate + zip run through the indexed source path; indices must
    /// line up with positions exactly.
    #[test]
    fn par_enumerate_indices_match_positions(len in 0usize..300) {
        let data: Vec<usize> = (0..len).map(|i| i * 2).collect();
        let pairs: Vec<(usize, usize)> = data.par_iter().enumerate().map(|(i, &v)| (i, v)).collect();
        for (i, (idx, v)) in pairs.iter().enumerate() {
            prop_assert_eq!(i, *idx);
            prop_assert_eq!(*v, i * 2);
        }
    }
}
