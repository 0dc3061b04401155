//! The per-board half of a cycle, and the gate that lends it to workers.
//!
//! Within one cycle, boards never touch each other directly: all
//! cross-board traffic flows through the SRS arrival/wake heaps, the
//! shared run metrics and the power cache — none of which the per-board
//! hot path (the bitset-wavefront router step, DESIGN.md §16, plus lane
//! transmit) needs to *read*. So every cycle is a two-phase split
//! (DESIGN.md §12):
//!
//! * **compute** — per board `b`, `Board::step_into` plus
//!   [`transmit_lane`] over SRS lane `b` (see [`crate::srs::SrsLane`]),
//!   writing every would-be shared effect (deliveries, wake/arrival
//!   inserts, labelled TX stats, the power-dirty bit) into that board's
//!   [`BoardOut`];
//! * **commit** — `System` applies the out-buffers in ascending board
//!   order, so every f64 accumulation order, heap insertion sequence and
//!   telemetry emission is the same whoever ran the compute phase.
//!
//! With one worker `System::step_inner` calls the two compute functions
//! inline. With more it bundles them as one [`Job`] per board and lends
//! the slice to the persistent workers through the [`Gate`] — the only
//! `unsafe` in the crate, because safe Rust cannot lend a per-cycle `&mut`
//! borrow to a thread that outlives the cycle.

#![deny(clippy::perf)]

use crate::board::{Board, Delivered};
use crate::srs::{LaneEffects, SrsLane};
use desim::Cycle;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};

/// One board's buffered cross-board effects for one cycle, in board-local
/// order. Filled by the compute phase, drained by the commit (so empty at
/// every cycle boundary); the buffers are reused, steady-state
/// allocation-free.
#[derive(Debug, Default)]
pub(crate) struct BoardOut {
    /// Packets delivered to this board's nodes this cycle.
    pub(crate) delivered: Vec<Delivered>,
    /// SRS publish-remote effects of this board's lane transmit.
    pub(crate) fx: LaneEffects,
    /// `(src_path, tx_wait)` samples for labelled departures, in
    /// departure order.
    pub(crate) tx_labelled: Vec<(f64, f64)>,
    /// Snapshot of the board's ready destinations (the board's active set
    /// mutates as packets depart, so the scan iterates a copy).
    ready: Vec<u16>,
}

/// Moves board `s`'s ready TX-queue packets onto free owned channels of
/// its lane. Only destinations with a completed packet are visited (the
/// board's ready-destination active set, snapshotted once, ascending — a
/// queue with nothing ready was a no-op under the legacy full `d` scan).
pub(crate) fn transmit_lane(
    now: Cycle,
    board: &mut Board,
    lane: &mut SrsLane<'_>,
    out: &mut BoardOut,
) {
    out.ready.clear();
    out.ready.extend_from_slice(board.ready_dests());
    for di in 0..out.ready.len() {
        let d = out.ready[di];
        while let Some(pkt) = board.tx_queue(d).peek().copied() {
            if lane.try_transmit(now, d, pkt, &mut out.fx).is_none() {
                break;
            }
            let Some(departed) = board.tx_depart(now, d) else {
                break; // unreachable: the queue head was just peeked
            };
            debug_assert_eq!(departed.id, pkt.id);
            if pkt.labelled {
                out.tx_labelled.push((
                    (pkt.completed_at - pkt.injected_at) as f64,
                    (now - pkt.completed_at) as f64,
                ));
            }
        }
    }
}

/// One board's compute phase, bundled for a worker: the board, its SRS
/// lane and its out-buffer — disjoint from every other board's.
pub(crate) struct Job<'a> {
    pub(crate) now: Cycle,
    pub(crate) board: &'a mut Board,
    pub(crate) lane: SrsLane<'a>,
    pub(crate) out: &'a mut BoardOut,
}

impl Job<'_> {
    fn run(&mut self) {
        self.board.step_into(self.now, &mut self.out.delivered);
        transmit_lane(self.now, self.board, &mut self.lane, self.out);
    }
}

// The gate runs jobs on other threads; keep `Job: Send` a compile-time fact.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Job<'static>>()
};

/// The per-run barrier pair between the main thread and its workers. Lives
/// on the main thread's stack for the duration of one run; workers hold
/// only `&Gate`.
pub(crate) struct Gate {
    /// Jobs of the open epoch nobody has claimed yet. Only
    /// [`Gate::run_epoch`] raises it (a Release store of the slice length,
    /// after publishing `jobs`); a claim is a successful decrement
    /// `k → k − 1` (Acquire) and owns job `k − 1`.
    remaining: AtomicUsize,
    /// Base of the open epoch's job slice, lifetime erased.
    jobs: AtomicPtr<Job<'static>>,
    /// Jobs completed this epoch (Release increments, Acquire poll).
    done: AtomicUsize,
    stop: AtomicBool,
}

/// Bounded spin, then politely yield — on an oversubscribed machine (more
/// workers than cores) the phases still make progress at OS-quantum
/// granularity instead of burning the shared core.
fn backoff(spins: &mut u32) {
    *spins = spins.saturating_add(1);
    if *spins < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

impl Gate {
    pub(crate) fn new() -> Self {
        Self {
            remaining: AtomicUsize::new(0),
            jobs: AtomicPtr::new(std::ptr::null_mut()),
            done: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        }
    }

    /// Ends the worker loops (after the last epoch has fully committed).
    pub(crate) fn halt(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Runs one compute phase to completion: publishes `jobs`, joins the
    /// workers in claiming them, and returns only once every job's effects
    /// are visible (the commit barrier).
    pub(crate) fn run_epoch(&self, jobs: &mut [Job<'_>]) {
        let n = jobs.len();
        self.jobs.store(jobs.as_mut_ptr().cast(), Ordering::Relaxed);
        self.done.store(0, Ordering::Relaxed);
        self.remaining.store(n, Ordering::Release);
        while self.run_one() {}
        let mut spins = 0u32;
        while self.done.load(Ordering::Acquire) < n {
            backoff(&mut spins);
        }
    }

    /// Claims and runs one job of the open epoch; `false` when none is
    /// left to claim.
    fn run_one(&self) -> bool {
        let claim = self
            .remaining
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |k| k.checked_sub(1));
        let Ok(k) = claim else {
            return false;
        };
        // SAFETY: the one handoff invariant. `remaining` is non-zero only
        // between `run_epoch`'s Release store of the slice length and the
        // last claim, and this thread alone took it from `k` to `k − 1`:
        // so `k − 1` is in bounds of the slice whose base `run_epoch`
        // stored just before (visible through the Acquire decrement), and
        // no other thread touches that element this epoch. `run_epoch`
        // holds the slice's `&mut` borrow and does not return before
        // `done` has counted this job, so the pointee outlives the call
        // and its erased lifetime is never relied on.
        unsafe { (*self.jobs.load(Ordering::Relaxed).add(k - 1)).run() };
        self.done.fetch_add(1, Ordering::Release);
        true
    }
}

/// The worker loop: run jobs while an epoch is open, otherwise spin (with
/// yield backoff) until the next one or the halt.
pub(crate) fn worker(gate: &Gate) {
    let mut spins = 0u32;
    while !gate.stop.load(Ordering::Acquire) {
        if gate.run_one() {
            spins = 0;
        } else {
            backoff(&mut spins);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_single_participant_completes_epochs() {
        // With zero workers the calling thread claims every job itself;
        // an empty job slice exercises the open/drain/barrier sequence.
        let gate = Gate::new();
        for _ in 0..3 {
            gate.run_epoch(&mut []);
        }
        gate.halt();
    }
}
