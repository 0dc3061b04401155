//! The one way to run a point, and the parallel run-level executor.
//!
//! [`RunPoint::run`] is the only implementation of §4's procedure
//! (warm up, label, drain, report); which observers ride along — event
//! trace, packet log, injection recording — is the point's own
//! [`SystemConfig`], and everything they saw comes back in one
//! [`RunOutput`]. [`run_points`] is the only fan-out.
//!
//! The paper's evaluation is a grid of *independent, deterministic*
//! simulations (mode × pattern × load × seed). Each [`crate::System`] owns
//! its per-node RNG streams (seeded from `cfg.seed`), so runs share no
//! state and a run's result is byte-identical no matter which thread
//! executes it. That makes run-level fan-out safe by construction — only
//! the *scheduling* is concurrent. It is also the only level of
//! parallelism: inside a point a cycle's boards run in one plain loop
//! (DESIGN.md §12).
//!
//! No external crates: the pool is a self-scheduling worker loop over
//! [`std::thread::scope`] — workers pull the next unclaimed index from a
//! shared atomic counter (work-stealing-ish: fast runs automatically pick
//! up more points), and results land in their input slot, so output order
//! equals input order regardless of completion order.
//!
//! The thread count comes from the `ERAPID_THREADS` env knob (read once by
//! [`threads_from_env`], which binaries call in `main`), defaulting to the
//! machine's available parallelism.

use crate::config::SystemConfig;
use crate::experiment::{collect, trace_meta, RunOutput, RunResult, TraceSource};
use crate::system::System;
use desim::phase::PhasePlan;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use traffic::pattern::TrafficPattern;
use traffic::trace::InjectionTrace;

/// The machine's available parallelism (1 if it cannot be queried).
pub fn available_threads() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Parses the `ERAPID_THREADS` env knob; 0, unset or unparsable mean
/// "use [`available_threads`]". Binaries read this once in `main` and pass
/// the value down — library code never touches the environment.
pub fn threads_from_env() -> NonZeroUsize {
    std::env::var("ERAPID_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .and_then(NonZeroUsize::new)
        .unwrap_or_else(available_threads)
}

/// Maps `f` over `items` on up to `threads` worker threads, returning the
/// results in input order.
///
/// Workers self-schedule off a shared atomic index, so an expensive item
/// does not stall the queue behind it. With one thread (or one item) this
/// degenerates to a plain sequential map on the calling thread — the
/// output is identical either way for any deterministic `f`. A panic in
/// `f` propagates to the caller when the scope joins.
pub fn parallel_map<T, R, F>(threads: NonZeroUsize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    // A zero-cost estimator keeps the stable sort in input order, so this
    // is exactly the unprioritized dispatch.
    parallel_map_prioritized(threads, items, |_| 0, f)
}

/// Claim order for prioritized dispatch: indices sorted by descending
/// cost, ties keeping input order (stable sort).
fn priority_order(costs: &[u128]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].cmp(&costs[a]));
    order
}

/// As [`parallel_map`], but workers claim items **longest-estimated
/// first** (stable descending sort by `cost`; ties keep input order).
/// Results still land in input order, so prioritization changes only
/// wall-clock, never output. This fixes the tail-straggler imbalance of
/// FIFO dispatch: when the most expensive point sits late in the grid, a
/// worker would otherwise pick it up last and run it alone while the
/// rest of the pool idles.
fn parallel_map_prioritized<T, R, F, C>(
    threads: NonZeroUsize,
    items: Vec<T>,
    cost: C,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
    C: Fn(&T) -> u128,
{
    let n = items.len();
    let workers = threads.get().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let order = priority_order(&items.iter().map(&cost).collect::<Vec<_>>());
    let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                let i = order[k];
                // Lock poisoning only means another worker panicked while
                // holding the lock; the data (a plain Option) is still
                // sound, so recover it rather than aborting this worker.
                let taken = jobs[i].lock().unwrap_or_else(|e| e.into_inner()).take();
                let Some(item) = taken else {
                    // Unreachable: the atomic counter hands each index to
                    // exactly one worker.
                    continue;
                };
                let result = f(item);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
            });
        }
    });
    let results: Vec<R> = slots
        .into_iter()
        .filter_map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
        .collect();
    // Every slot is filled before the scope joins (a panic in `f` would
    // have propagated at the join); anything else is an internal bug.
    assert_eq!(results.len(), n, "parallel_map lost a result slot");
    results
}

/// One experiment point, fully specified: configuration (mode, seed,
/// topology), traffic pattern, offered load, phase plan and injection
/// source (generated or replayed from a recorded trace).
#[derive(Debug, Clone)]
pub struct RunPoint {
    pub cfg: SystemConfig,
    pub pattern: TrafficPattern,
    pub load: f64,
    pub plan: PhasePlan,
    /// Generated traffic by default; [`TraceSource::Replay`] substitutes a
    /// recorded workload (then `pattern`/`load` are ignored).
    pub source: TraceSource,
}

impl RunPoint {
    /// A point driven by the config's live traffic generators.
    pub fn generate(
        cfg: SystemConfig,
        pattern: TrafficPattern,
        load: f64,
        plan: PhasePlan,
    ) -> Self {
        let source = TraceSource::Generate;
        Self {
            cfg,
            pattern,
            load,
            plan,
            source,
        }
    }

    /// A point replaying a recorded workload against `cfg` (which may
    /// differ from the recording configuration in mode, thresholds, faults
    /// — anything but the B×D geometry the node ids assume).
    pub fn replay(cfg: SystemConfig, trace: Arc<InjectionTrace>, plan: PhasePlan) -> Self {
        Self {
            source: TraceSource::Replay(trace),
            ..Self::generate(cfg, TrafficPattern::Uniform, 0.0, plan)
        }
    }

    /// Estimated simulation cost, for longest-first dispatch: every cycle
    /// walks O(boards²) flow state, so `max_cycles × boards²` ranks a
    /// heterogeneous grid well enough to keep workers busy. The per-point
    /// wall times of [`run_points_timed_sharded`] are the check on this
    /// estimate.
    fn estimated_cost(&self) -> u128 {
        self.plan.max_cycles as u128 * (self.cfg.boards as u128).pow(2)
    }

    /// The one implementation of §4's procedure, on the calling thread:
    /// build the system (generated or replayed injections), run it to the
    /// end of its plan and drain it into a [`RunOutput`]. A replayed point
    /// reports the trace's recorded load and provenance.
    pub fn run(self) -> RunOutput {
        let capacity = self.cfg.capacity().uniform_capacity();
        let recording = self.cfg.record_injections;
        let (load, meta, mut sys) = match self.source {
            TraceSource::Generate => (
                self.load,
                recording.then(|| trace_meta(&self.cfg, &self.pattern, self.load)),
                System::new(self.cfg, self.pattern, self.load, self.plan),
            ),
            TraceSource::Replay(trace) => (
                trace.meta.load,
                recording.then(|| trace.meta.clone()),
                System::with_trace(self.cfg, trace.replayer(), self.plan),
            ),
        };
        let cycles = sys.run();
        collect(sys, load, meta, capacity, cycles)
    }
}

/// Fans a batch of experiment points out over `threads` workers. Each
/// worker records into its own point-local [`System`], and outputs land
/// in input order, so results and traces are byte-identical to running
/// each point sequentially for any `threads`.
pub fn run_points(threads: NonZeroUsize, points: Vec<RunPoint>) -> Vec<RunOutput> {
    parallel_map_prioritized(threads, points, RunPoint::estimated_cost, RunPoint::run)
}

/// As [`run_points`], keeping only each point's [`RunResult`] and its
/// wall time — the feedback loop on `RunPoint::estimated_cost`
/// (`benchmark/` reads it as `core.runner.dispatch_idle_frac`). The
/// second count is accepted and ignored (the per-board worker path it
/// sized is gone); the next `benchmark`-archetype PR, which moves the
/// adapter to timing [`RunPoint::run`] itself, drops the shim.
pub fn run_points_timed_sharded(
    threads: NonZeroUsize,
    _point_threads: NonZeroUsize,
    points: Vec<RunPoint>,
) -> Vec<(RunResult, std::time::Duration)> {
    parallel_map_prioritized(threads, points, RunPoint::estimated_cost, |p: RunPoint| {
        let start = std::time::Instant::now();
        let r = p.run().result;
        (r, start.elapsed())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 7, 64] {
            let got = parallel_map(NonZeroUsize::new(threads).unwrap(), items.clone(), |x| {
                x * x
            });
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(NonZeroUsize::new(4).unwrap(), empty, |x| x).is_empty());
        let one = parallel_map(NonZeroUsize::new(4).unwrap(), vec![41u32], |x| x + 1);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn parallel_map_uses_multiple_threads() {
        // Two items that rendezvous on a barrier: they can only both
        // finish if two distinct workers run them concurrently (a single
        // worker claiming an item blocks at the barrier, leaving the
        // other item for the second worker).
        let barrier = std::sync::Barrier::new(2);
        let ids = parallel_map(NonZeroUsize::new(2).unwrap(), vec![0u8, 1], |_| {
            barrier.wait();
            std::thread::current().id()
        });
        assert_ne!(ids[0], ids[1], "expected 2 distinct worker threads");
    }

    #[test]
    fn threads_env_parsing_defaults() {
        // Does not touch the environment: just the default path.
        assert!(available_threads().get() >= 1);
    }

    #[test]
    fn prioritized_map_preserves_input_order_and_results() {
        // Costs deliberately reversed vs input order: dispatch reorders,
        // results must not.
        let items: Vec<u64> = (0..50).collect();
        let expect: Vec<u64> = items.iter().map(|x| x + 1000).collect();
        for threads in [1, 3, 8] {
            let got = parallel_map_prioritized(
                NonZeroUsize::new(threads).unwrap(),
                items.clone(),
                |&x| x as u128, // largest item first
                |x| x + 1000,
            );
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn priority_order_is_longest_first_and_stable() {
        assert_eq!(priority_order(&[1, 9, 9, 4]), vec![1, 2, 3, 0]);
        assert_eq!(
            priority_order(&[0, 0, 0]),
            vec![0, 1, 2],
            "all ties: input order"
        );
        assert_eq!(priority_order(&[]), Vec::<usize>::new());
    }

    #[test]
    fn estimated_cost_scales_with_boards_and_cycles() {
        let mk = |boards: u16, cycles: u64| RunPoint {
            cfg: SystemConfig {
                boards,
                ..SystemConfig::small(crate::config::NetworkMode::NpNb)
            },
            pattern: TrafficPattern::Uniform,
            load: 0.5,
            plan: PhasePlan::new(100, 200).with_max_cycles(cycles),
            source: TraceSource::Generate,
        };
        let small = mk(4, 10_000).estimated_cost();
        let wide = mk(8, 10_000).estimated_cost();
        let long = mk(4, 40_000).estimated_cost();
        assert_eq!(wide, small * 4, "boards² scaling");
        assert_eq!(long, small * 4, "linear cycle scaling");
    }
}
