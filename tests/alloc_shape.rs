//! The allocation shape of `Router::new` and `System::new`: how many heap
//! allocations a build makes, counted by a std-only counting global
//! allocator.
//!
//! A router's input VCs share one flit slab and the SRS keeps its per-flow
//! state in flat arrays (DESIGN.md §16), so a router's count must not
//! depend on the VC count or the buffer depth at all, and a system's must
//! grow linearly in the board count B — per-board and per-slot-table
//! allocations, not one per `(source, destination)` flow.

use erapid_suite::desim::phase::PhasePlan;
use erapid_suite::erapid_core::config::{NetworkMode, SystemConfig};
use erapid_suite::erapid_core::System;
use erapid_suite::router::routing::{PortId, TableRoute};
use erapid_suite::router::{Router, RouterConfig};
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

/// Allocations (and reallocations) `build` makes; what it built is
/// dropped outside the count.
fn allocations_in<T>(build: impl FnOnce() -> T) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let built = build();
    COUNTING.with(|c| c.set(false));
    drop(built);
    ALLOCATIONS.with(Cell::get)
}

/// Allocations `System::new` makes for `cfg`.
fn allocations_of(cfg: SystemConfig) -> u64 {
    let plan = PhasePlan::new(2_000, 4_000);
    allocations_in(|| System::new(cfg, TrafficPattern::Uniform, 0.3, plan))
}

#[test]
fn router_new_allocates_the_same_for_every_vc_shape() {
    // A paper64 board router: D + W = 16 inputs, D + B = 16 outputs.
    let router = |vcs, buf_depth| {
        let route = Box::new(TableRoute::new((0..16).map(PortId).collect()));
        let cfg = RouterConfig {
            in_ports: 16,
            out_ports: 16,
            vcs,
            buf_depth,
            downstream_depth: 1,
        };
        allocations_in(|| Router::new(cfg, route))
    };
    let paper = router(4, 4);
    for vcs in [2, 4] {
        for buf_depth in [1, 3, 4] {
            assert_eq!(
                router(vcs, buf_depth),
                paper,
                "vcs {vcs} × buf_depth {buf_depth} vs the paper geometry"
            );
        }
    }
}

#[test]
fn system_new_allocates_per_board_not_per_vc_or_flow() {
    let paper = allocations_of(SystemConfig::paper64(NetworkMode::PB));
    let [b8, b16, b32] =
        [8, 16, 32].map(|b| allocations_of(SystemConfig::geometry(NetworkMode::PB, b, 8)));
    assert!(
        b32 - b16 <= 2 * (b16 - b8) + 16,
        "allocations grow faster than B: {b8} → {b16} → {b32} (paper {paper})"
    );
}
