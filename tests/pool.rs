//! Pool contract tests against the vendored `rayon` shim.
//!
//! The pool's determinism argument (DESIGN.md §10) rests on two
//! properties checked here from outside the crate: chunk boundaries
//! are a pure function of input length, and the two terminal
//! operations keep to source order: `collect` concatenates chunks in
//! index order, and `for_each` over `par_iter_mut` writes each slot
//! exactly once. On Linux a child process also checks that no helper
//! thread outlives the job that spawned it.

#![allow(
    clippy::disallowed_methods,
    reason = "the pool suite observes the worker count it is testing"
)]
#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] functions fail the test by panicking"
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
}

/// Child half of the thread-lifetime check: the process's live thread
/// count, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn live_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:")).expect("Threads: line");
    line.trim().parse().expect("numeric thread count")
}

/// Child half: a parallel `collect` leaves the live thread count where
/// it found it, so no helper outlives its job.
#[cfg(target_os = "linux")]
#[test]
#[ignore = "run in a child process by no_helper_thread_outlives_its_job"]
fn child_collect_leaves_no_thread_behind() {
    let before = live_threads();
    let items: Vec<usize> = (0..256usize).into_par_iter().map(|i| i + 1).collect();
    assert_eq!(items.len(), 256);
    // the kernel wakes a joiner just before it drops the exited thread
    // from the count, so allow the count a moment to settle
    let mut after = live_threads();
    for _ in 0..1000 {
        if after == before {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        after = live_threads();
    }
    assert_eq!(after, before, "a helper thread outlived its job");
}

#[cfg(target_os = "linux")]
#[test]
fn no_helper_thread_outlives_its_job() {
    let exe = std::env::current_exe().expect("test executable path");
    let output = std::process::Command::new(&exe)
        .args(["child_collect_leaves_no_thread_behind", "--exact", "--ignored"])
        .args(["--test-threads", "1"])
        .env(rayon::THREADS_ENV, "4")
        .output()
        .expect("spawn child test process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success() && stdout.contains("1 passed"),
        "child failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
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

    /// `par_iter_mut().zip(par_chunks(c)).for_each`, the CRF gradient
    /// batcher's shape: every slot paired with a chunk is written
    /// exactly once with that chunk's sequential result, and slots past
    /// the last chunk are left alone (zip truncates to the shorter side).
    #[test]
    fn zip_chunks_for_each_writes_each_slot_once(
        input in prop::collection::vec(-1_000i64..1_000, 0..500),
        chunk in 1usize..40,
        spare in 0usize..3,
    ) {
        let chunks = input.len().div_ceil(chunk);
        let mut slots = vec![(0u32, 0i64); chunks + spare];
        slots.par_iter_mut().zip(input.par_chunks(chunk)).for_each(|((writes, total), items)| {
            *writes += 1;
            *total = items.iter().sum();
        });
        let sequential: Vec<i64> = input.chunks(chunk).map(|items| items.iter().sum()).collect();
        for (i, &(writes, total)) in slots.iter().enumerate() {
            match sequential.get(i) {
                Some(&expected) => {
                    prop_assert_eq!(writes, 1);
                    prop_assert_eq!(total, expected);
                }
                None => prop_assert_eq!((writes, total), (0, 0)),
            }
        }
    }

    /// `par_iter_mut().enumerate().for_each`, the Jacobi sweep's shape:
    /// every slot is written exactly once, from its own index.
    #[test]
    fn enumerate_for_each_writes_each_slot_once(len in 0usize..2_000) {
        let mut slots = vec![(0u32, 0usize); len];
        slots.par_iter_mut().enumerate().for_each(|(i, (writes, value))| {
            *writes += 1;
            *value = i * 3 + 1;
        });
        let sequential: Vec<(u32, usize)> = (0..len).map(|i| (1, i * 3 + 1)).collect();
        prop_assert_eq!(slots, sequential);
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
