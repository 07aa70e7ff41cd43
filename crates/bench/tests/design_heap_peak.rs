//! Release-mode heap-peak gate: designing an LP key holds its program
//! once.  A counting global allocator tracks the live heap bytes, and each
//! design's peak above the bytes live when it started must stay within
//! budget.  The peak of these designs is the solver's working set — the
//! certification solve's LU factors and workspace for the WM keys — plus
//! one copy of the standard form; a dead copy of the program (the builder
//! `LinearProgram`, a dualized model or its solved point) held across the
//! certification solve fails here.
//!
//! `#[ignore]`d so the ordinary (debug) `cargo test` stays fast; CI runs it
//! explicitly with
//! `cargo test --release -p cpm-bench --test design_heap_peak -- --ignored`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cpm_core::{Alpha, ObjectiveKey, PropertySet, SpecKey};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn key(n: usize, alpha: f64, properties: &str, objective: ObjectiveKey) -> SpecKey {
    let properties: PropertySet = properties.parse().expect("property names are valid");
    SpecKey::with_objective(n, Alpha::new(alpha).unwrap(), properties, objective)
}

/// `(key, budget in bytes)`: the collect key's n = 32 WM-L2 design and the
/// design storm's n = 64 WM-L0 and n = 96 L1 designs, which measure 1.43,
/// 5.64 and 7.25 MB; the budgets leave ~10% headroom.  Holding the
/// builder's program (0.27, 1.06 and 1.19 MB) across the solve, and the WM
/// keys' dualized model across the certification, as the solve route used
/// to, they peaked at 2.05, 8.11 and 8.72 MB.
fn budgets() -> [(SpecKey, usize); 3] {
    [
        (key(32, 0.9, "WH+CM", ObjectiveKey::L2), 1_580_000),
        (key(64, 0.9, "WH+CM", ObjectiveKey::L0), 6_200_000),
        (key(96, 0.9, "", ObjectiveKey::L1), 7_980_000),
    ]
}

#[test]
#[ignore = "release-mode heap-peak gate; run explicitly (see CI workflow)"]
fn designs_peak_at_their_solvers_working_set() {
    let mut failures = Vec::new();
    for (key, budget) in budgets() {
        let spec = key.spec();
        let start = LIVE.load(Ordering::Relaxed);
        PEAK.store(start, Ordering::Relaxed);
        let designed = spec.design().expect("gated keys design");
        let peak = PEAK.load(Ordering::Relaxed) - start;
        assert!(designed.solver_stats().is_some(), "{key} is an LP design");
        drop(designed);
        eprintln!("{key}: heap peak {peak} bytes (budget {budget})");
        if peak > budget {
            failures.push(format!("{key}: heap peak {peak} > budget {budget}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
