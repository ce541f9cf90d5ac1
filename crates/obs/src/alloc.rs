//! Heap accounting through a counting global allocator.
//!
//! With the `obs-alloc` cargo feature enabled, this module installs a
//! zero-dependency [`GlobalAlloc`](std::alloc::GlobalAlloc) wrapper
//! around [`System`](std::alloc::System) that maintains three
//! process-wide registers:
//!
//! * **current** — live heap bytes (allocations minus deallocations);
//! * **peak** — high-water mark of *current* since process start or
//!   the last [`reset_peak`] call;
//! * **allocations** — allocator calls that hand out memory (`alloc`,
//!   `alloc_zeroed`, `realloc`) since process start. Frees are not
//!   counted, and an empty `Vec::new()` never reaches the allocator.
//!
//! The read API ([`enabled`], [`current_bytes`], [`peak_bytes`],
//! [`allocations`], [`reset_peak`]) exists unconditionally so call
//! sites need no `cfg` guards: without the feature every read returns
//! zero and [`enabled`] returns `false`.
//!
//! Span integration: when the feature is on, every [`span`](crate::span())
//! guard snapshots the registers at entry and attaches `mem.net_bytes`
//! (signed live-byte delta), `mem.peak_bytes` (peak-watermark advance
//! over the entry level) and `mem.allocs` (allocation-count advance)
//! to its [`crate::SpanRecord`] on drop.
//! Under concurrency these are *process-wide* numbers — allocations
//! from other threads during the span are included — so treat them as
//! stage-level accounting (the perfsuite benchmarks run stages on one
//! thread with the pool quiesced between measurements), not as exact
//! per-callsite attribution.
//!
//! The allocation count is exact for a single-threaded caller, so
//! `tests/hot_allocs.rs` pins each hot path's count on fixed inputs.
//!
//! The accounting itself is three relaxed atomic RMWs per allocation —
//! cheap enough to leave on for benchmarking runs, but the feature
//! stays off by default so the hot paths of ordinary builds pay
//! nothing.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live heap bytes.
static CURRENT: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`CURRENT`] since start or last [`reset_peak`].
static PEAK: AtomicU64 = AtomicU64::new(0);
/// Allocator calls that handed out memory since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Whether the counting allocator is installed (the `obs-alloc`
/// feature). When `false`, all reads in this module return zero.
pub fn enabled() -> bool {
    cfg!(feature = "obs-alloc")
}

/// Live heap bytes right now (0 without `obs-alloc`).
pub fn current_bytes() -> u64 {
    CURRENT.load(Ordering::Relaxed)
}

/// Peak live heap bytes since process start or the last
/// [`reset_peak`] (0 without `obs-alloc`).
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) since process
/// start (0 without `obs-alloc`). Process-wide: the difference of two
/// reads counts every thread's allocations in between.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Reset the peak register to the current live-byte level, so the next
/// [`peak_bytes`] reading reflects only allocation since this call.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// One snapshot of the registers, taken by span guards at entry.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AllocSnapshot {
    pub(crate) current: u64,
    pub(crate) peak: u64,
    pub(crate) allocations: u64,
}

pub(crate) fn snapshot() -> AllocSnapshot {
    AllocSnapshot { current: current_bytes(), peak: peak_bytes(), allocations: allocations() }
}

impl AllocSnapshot {
    /// Signed live-byte delta from this snapshot to now.
    pub(crate) fn net_bytes(&self) -> i64 {
        current_bytes() as i64 - self.current as i64
    }

    /// Allocator calls from this snapshot to now.
    pub(crate) fn allocs(&self) -> u64 {
        allocations().saturating_sub(self.allocations)
    }

    /// Peak bytes held above the entry level while the span ran. When
    /// the global watermark did not advance during the span (the
    /// process-wide peak predates it), falls back to the non-negative
    /// net delta — a lower bound on the true span peak.
    pub(crate) fn peak_delta_bytes(&self) -> u64 {
        let peak_now = peak_bytes();
        if peak_now > self.peak {
            peak_now.saturating_sub(self.current)
        } else {
            self.net_bytes().max(0) as u64
        }
    }
}

#[cfg(feature = "obs-alloc")]
mod install {
    use super::{ALLOCATIONS, CURRENT, PEAK};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::Ordering;

    /// [`System`] plus the current/peak/allocations registers.
    struct CountingAlloc;

    fn add(n: u64) {
        let now = CURRENT.fetch_add(n, Ordering::Relaxed) + n;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }

    fn sub(n: u64) {
        // Saturating: a reset race or foreign frees can only make the
        // register drift low, never wrap to u64::MAX.
        let _ = CURRENT
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| Some(c.saturating_sub(n)));
    }

    // SAFETY: every method delegates verbatim to `System` and only
    // adds relaxed atomic counter updates on top, so the allocator
    // contract (layout fidelity, no unwinding, thread safety) is
    // exactly `System`'s.
    unsafe impl GlobalAlloc for CountingAlloc {
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; we
        // forward `layout` unchanged to `System`.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
                add(layout.size() as u64);
            }
            p
        }

        // SAFETY: same delegation as `alloc`, zero-filled variant.
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc_zeroed(layout);
            if !p.is_null() {
                ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
                add(layout.size() as u64);
            }
            p
        }

        // SAFETY: caller guarantees `ptr` came from this allocator
        // with `layout`; forwarded unchanged to `System`.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            sub(layout.size() as u64);
        }

        // SAFETY: caller guarantees `ptr`/`layout` pair per the
        // `GlobalAlloc::realloc` contract; forwarded unchanged.
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
                let old = layout.size() as u64;
                let new = new_size as u64;
                if new >= old {
                    add(new - old);
                } else {
                    sub(old - new);
                }
            }
            p
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_consistent_with_feature_state() {
        if enabled() {
            // exact levels race with concurrent test threads, so only
            // liveness is asserted: the registers move at all, and the
            // count only grows, so this thread's allocation advances it
            let before = allocations();
            let block: Vec<u8> = Vec::with_capacity(1 << 16);
            assert!(current_bytes() > 0);
            assert!(peak_bytes() > 0);
            assert!(allocations() > before);
            drop(block);
        } else {
            assert_eq!(current_bytes(), 0);
            assert_eq!(peak_bytes(), 0);
            let block: Vec<u8> = Vec::with_capacity(1 << 16);
            assert_eq!(allocations(), 0);
            drop(block);
        }
    }

    #[test]
    fn snapshot_deltas_are_nonnegative_peaks() {
        let snap = snapshot();
        let block: Vec<u8> = Vec::with_capacity(1 << 12);
        // exact values race with concurrent test threads; the
        // invariants that must hold regardless: peak deltas never go
        // negative (u64) and the disabled registers never move
        if enabled() {
            assert!(snap.allocs() > 0);
        } else {
            assert_eq!(snap.peak_delta_bytes(), 0);
            assert_eq!(snap.net_bytes(), 0);
            assert_eq!(snap.allocs(), 0);
        }
        let _ = (snap.peak_delta_bytes(), snap.net_bytes()); // must not panic
        drop(block);
    }

    #[test]
    fn reset_peak_rebases_to_current() {
        let before = peak_bytes();
        reset_peak();
        // concurrent test threads may allocate between the store and
        // the load, so only the direction is asserted: a reset never
        // raises the watermark above where live bytes can push it
        assert!(peak_bytes() <= before.max(current_bytes()) + (1 << 20));
    }
}
