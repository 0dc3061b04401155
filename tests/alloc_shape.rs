//! The allocation shape of `System::new`: how many heap allocations a
//! build makes, counted by a std-only counting global allocator.
//!
//! A router's input VCs share one flit slab and the SRS keeps its per-flow
//! state in flat arrays (DESIGN.md §16), so the count must not depend on
//! the VC count or the buffer depth at all, and must grow linearly in the
//! board count B — per-board and per-slot-table allocations, not one per
//! `(source, destination)` flow.

use erapid_suite::desim::phase::PhasePlan;
use erapid_suite::erapid_core::config::{NetworkMode, SystemConfig};
use erapid_suite::erapid_core::System;
use erapid_suite::traffic::pattern::TrafficPattern;
use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

/// Forwards to the system allocator, counting the calling thread's
/// allocations while its `COUNTING` flag is up.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards unchanged to `std::alloc::System`; the only
// extra work is a const-initialised thread-local counter, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        Heap.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        Heap.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        Heap.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Heap.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING_ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) `System::new` makes for `cfg`.
fn allocations_of(cfg: SystemConfig) -> u64 {
    let plan = PhasePlan::new(2_000, 4_000);
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let sys = System::new(cfg, TrafficPattern::Uniform, 0.3, plan);
    COUNTING.with(|c| c.set(false));
    drop(sys);
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn system_new_allocates_per_board_not_per_vc_or_flow() {
    let paper = allocations_of(SystemConfig::paper64(NetworkMode::PB));
    for vcs in [2, 4] {
        for buf_depth in [1, 3, 4] {
            let cfg = SystemConfig {
                vcs,
                buf_depth,
                ..SystemConfig::paper64(NetworkMode::PB)
            };
            assert_eq!(
                allocations_of(cfg),
                paper,
                "vcs {vcs} × buf_depth {buf_depth} vs the paper64 build"
            );
        }
    }
    let [b8, b16, b32] =
        [8, 16, 32].map(|b| allocations_of(SystemConfig::geometry(NetworkMode::PB, b, 8)));
    assert!(
        b32 - b16 <= 2 * (b16 - b8) + 16,
        "allocations grow faster than B: {b8} → {b16} → {b32} (paper {paper})"
    );
}
