//! One DBR round, clocked cycle by cycle.
//!
//! This is the DBR control plane of the system model in `erapid-core`. A
//! round walks the five Lock-Step stages of Fig. 4 on the clock of
//! [`ProtocolTiming`]: Link Request and Link Response cost one LC-chain
//! loop each, Board Request and Board Response one ring loop each, and
//! Reconfigure its compute time. The tokens carry no payload: each
//! destination decides with one [`AllocPolicy::reconfigure_with_demands`]
//! call over its incoming channels and flow demands when Reconfigure ends,
//! and the grants take effect when Link Response ends. The ring decides
//! only *when*: each origin's token is one return cycle, and a token sent
//! at `t` is home at `t + boards · ring_hop`.
//!
//! The ring stages are guarded against control-plane faults: each origin
//! tracks whether its token has returned home, and a per-stage watchdog
//! (the LS heartbeat) relaunches missing tokens after the expected round
//! trip plus a grace window, doubling the grace on every attempt (bounded
//! retry with exponential backoff, [`RetryPolicy`]). A
//! token whose checksum fails on return is discarded and resent
//! immediately. A stage that exhausts its retry budget aborts the round
//! fail-safe: the outcome carries a [`ProtocolError`] and no grants, so
//! the system keeps its current allocation rather than acting on partial
//! state.
//!
//! The per-origin token model rests on two facts, both `debug_assert`ed:
//! * [`DbrRound::tick`] is called on consecutive cycles (`System` and
//!   every test do), so each token is seen on the cycle it comes home;
//! * no origin is sent a token while one of its own is in flight: every
//!   send leaves `deadline ≥ send + round trip + grace`, so a token still
//!   away when the watchdog fires has been lost, and a corrupted one is
//!   resent only once it is home.
//!
//! Together they make the ring's lock-step property (one token per board
//! per hop slot) hold by construction.
//!
//! Invariants checked by the tests:
//! * the grants are the per-destination [`AllocPolicy`] decisions, in
//!   destination order, for any single-owner ownership table,
//! * fault-free completion time equals `ProtocolTiming::dbr_latency()`
//!   exactly (the watchdog never fires on a lossless ring),
//! * under every schedule of up to two token faults a round ends within
//!   the retry bound and decides what the fault-free round decides, later.

use crate::alloc::{AllocPolicy, FlowDemand, IncomingLink};
use crate::msg::WavelengthGrant;
use crate::stages::{ProtocolTiming, Stage};
use desim::Cycle;
use photonics::wavelength::BoardId;

/// A permanent control-protocol failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// A ring stage could not complete within the retry budget: some
    /// origin's token kept vanishing.
    RingStalled {
        /// The stage that stalled.
        stage: Stage,
        /// Relaunch attempts made before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::RingStalled { stage, attempts } => write!(
                f,
                "ring stalled in {stage:?} after {attempts} relaunch attempts"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Detection/recovery knobs for the ring-stage watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Slack beyond the expected ring round trip before the watchdog
    /// declares a token lost (initial detection window; doubled per
    /// attempt).
    pub grace: Cycle,
    /// Relaunch attempts per ring stage before the round aborts.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            grace: 16,
            max_retries: 4,
        }
    }
}

/// A control-plane fault aimed at one board's LS token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenFault {
    /// The board whose token is hit.
    pub victim: BoardId,
    /// `true`: the token is corrupted in flight (detected by checksum on
    /// return). `false`: the token vanishes outright (detected by the
    /// watchdog timeout).
    pub corrupt: bool,
}

impl desim::snap::Snap for TokenFault {
    fn save(&self, w: &mut desim::snap::SnapWriter) {
        w.u16(self.victim.0);
        w.bool(self.corrupt);
    }
    fn load(r: &mut desim::snap::SnapReader<'_>) -> Result<Self, desim::snap::SnapError> {
        Ok(Self {
            victim: photonics::wavelength::BoardId(r.u16()?),
            corrupt: r.bool()?,
        })
    }
}

/// The observable result of a completed DBR round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Every ownership transfer decided this round (all destinations).
    /// Empty when the round aborted (`error` is set).
    pub grants: Vec<WavelengthGrant>,
    /// Cycle (relative to the round start) at which the Link Response
    /// stage finished and the grants took effect.
    pub completed_at: Cycle,
    /// Token resends performed (loss relaunches + corruption resends).
    pub retries: u32,
    /// Set when the round aborted fail-safe instead of completing.
    pub error: Option<ProtocolError>,
}

/// Internal phase of the round driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RoundPhase {
    /// Link Request circulating the LC chains (fixed duration).
    LinkRequest {
        /// Completion cycle of the stage.
        until: Cycle,
    },
    /// Board Request tokens circulating the ring.
    BoardRequest,
    /// Reconfigure computation at every RC.
    Reconfigure {
        /// Completion cycle of the stage.
        until: Cycle,
    },
    /// Board Response tokens circulating the ring.
    BoardResponse,
    /// Link Response circulating the LC chains (fixed duration).
    LinkResponse {
        /// Completion cycle of the stage.
        until: Cycle,
    },
    /// Round complete.
    Done,
}

/// Drives one DBR round to completion, cycle by cycle.
pub struct DbrRound {
    timing: ProtocolTiming,
    policy: AllocPolicy,
    /// Incoming channels per destination (indexed `[d][..]`, ascending
    /// wavelength).
    incoming: Vec<Vec<IncomingLink>>,
    /// Flow demands per destination (indexed `[d][..]`), as described in
    /// `alloc`.
    demands: Vec<Vec<FlowDemand>>,
    phase: RoundPhase,
    start: Cycle,
    /// The cycle the next [`Self::tick`] must be for.
    next_tick: Cycle,
    grants: Vec<WavelengthGrant>,
    retry: RetryPolicy,
    /// Per-origin return cycle of the token in flight; `None` once it is
    /// home or lost.
    returns_at: Vec<Option<Cycle>>,
    /// Per-origin "my token is home" flags for the current ring stage.
    home: Vec<bool>,
    /// Per-origin corrupted-token flags (checksum fails on return).
    corrupted: Vec<bool>,
    /// Watchdog deadline of the current ring stage.
    deadline: Cycle,
    /// Watchdog relaunch attempts in the current ring stage.
    attempts: u32,
    /// Token resends across the whole round.
    retries: u32,
    /// Faults waiting for the next ring-stage launch (the victim had no
    /// token in flight when the fault struck).
    armed: Vec<TokenFault>,
    error: Option<ProtocolError>,
    /// Stage transitions observed so far: `(cycle, stage entered)`,
    /// starting with `(start, Some(LinkRequest))`; `None` is the terminal
    /// entry. This is the telemetry layer's view of the Lock-Step ring —
    /// bounded (≤ 6 entries) and recorded unconditionally.
    stage_log: Vec<(Cycle, Option<Stage>)>,
}

impl DbrRound {
    /// Starts a round at cycle `start`; its first tick is for `start`.
    ///
    /// `incoming[d]` is destination `d`'s incoming channels, each with its
    /// owner and the owner's `Buffer_util`; `demands[d]` is the per-flow
    /// queue telemetry toward `d` (what the static LCs keep reporting even
    /// for flows whose lasers are dark).
    pub fn new(
        timing: ProtocolTiming,
        policy: AllocPolicy,
        start: Cycle,
        incoming: Vec<Vec<IncomingLink>>,
        demands: Vec<Vec<FlowDemand>>,
    ) -> Self {
        let boards = timing.boards as usize;
        assert_eq!(incoming.len(), boards);
        assert_eq!(demands.len(), boards);
        Self {
            timing,
            policy,
            incoming,
            demands,
            phase: RoundPhase::LinkRequest {
                until: start + timing.stage_cycles(Stage::LinkRequest),
            },
            start,
            next_tick: start,
            grants: Vec::new(),
            retry: RetryPolicy::default(),
            returns_at: vec![None; boards],
            home: vec![false; boards],
            corrupted: vec![false; boards],
            deadline: Cycle::MAX,
            attempts: 0,
            retries: 0,
            armed: Vec::new(),
            error: None,
            stage_log: vec![(start, Some(Stage::LinkRequest))],
        }
    }

    /// Overrides the watchdog policy (builder style; call before the first
    /// tick). The engine always runs [`RetryPolicy::default`]; tests
    /// tighten it to reach the abort path quickly.
    #[cfg(test)]
    fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The stage in progress; `None` once the round is done.
    pub fn stage(&self) -> Option<Stage> {
        match self.phase {
            RoundPhase::LinkRequest { .. } => Some(Stage::LinkRequest),
            RoundPhase::BoardRequest => Some(Stage::BoardRequest),
            RoundPhase::Reconfigure { .. } => Some(Stage::Reconfigure),
            RoundPhase::BoardResponse => Some(Stage::BoardResponse),
            RoundPhase::LinkResponse { .. } => Some(Stage::LinkResponse),
            RoundPhase::Done => None,
        }
    }

    /// Whether the round has completed.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, RoundPhase::Done)
    }

    /// Stage transitions observed so far: `(cycle, stage entered)`.
    /// Consecutive entries delimit one stage's span; the final entry is
    /// `(completion, None)` once the round resolves.
    pub fn stage_log(&self) -> &[(Cycle, Option<Stage>)] {
        &self.stage_log
    }

    /// Drains the stage log (used by the system tracer on completion).
    pub fn take_stage_log(&mut self) -> Vec<(Cycle, Option<Stage>)> {
        std::mem::take(&mut self.stage_log)
    }

    /// Records a phase change and stamps it in the stage log.
    fn set_phase(&mut self, now: Cycle, phase: RoundPhase) {
        self.phase = phase;
        self.stage_log.push((now, self.stage()));
    }

    /// Token resends performed so far.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Drains the faults that armed too late to strike in this round (so a
    /// caller can carry them into the next one).
    pub fn take_armed(&mut self) -> Vec<TokenFault> {
        std::mem::take(&mut self.armed)
    }

    /// Injects a control-plane fault into the running round. If the
    /// victim's token is on the ring it is dropped (loss) or marked
    /// corrupted (checksum failure on return); otherwise the fault arms
    /// and strikes at the next ring-stage launch. Faults injected after
    /// the last ring stage are inert.
    pub fn inject_fault(&mut self, fault: TokenFault) {
        if self.is_done() {
            return;
        }
        let v = fault.victim.index();
        if self.returns_at[v].is_some() {
            if fault.corrupt {
                self.corrupted[v] = true;
            } else {
                self.returns_at[v] = None;
            }
        } else if !self.armed.iter().any(|f| f.victim == fault.victim) {
            self.armed.push(fault);
        }
    }

    /// Cycles for a token to loop the ring back to its origin.
    fn round_trip(&self) -> Cycle {
        self.timing.stage_cycles(Stage::BoardRequest)
    }

    /// Sends origin `b`'s token at `now`; it is home one ring loop later.
    fn send(&mut self, now: Cycle, b: usize) {
        debug_assert!(
            self.returns_at[b].is_none(),
            "board {b} sent a token with one in flight"
        );
        self.returns_at[b] = Some(now + self.round_trip());
    }

    /// Lock-step launch of a ring stage: every board sends its token
    /// simultaneously (Fig. 4(b)), armed faults strike at the launch, and
    /// the stage watchdog is primed.
    fn launch_ring_stage(&mut self, now: Cycle) {
        self.home.fill(false);
        self.corrupted.fill(false);
        self.attempts = 0;
        for b in 0..self.home.len() {
            let mut lost = false;
            if let Some(pos) = self.armed.iter().position(|f| f.victim.index() == b) {
                let f = self.armed.remove(pos);
                if f.corrupt {
                    self.corrupted[b] = true;
                } else {
                    lost = true;
                }
            }
            if !lost {
                self.send(now, b);
            }
        }
        self.deadline = now + self.round_trip() + self.retry.grace;
    }

    /// One cycle of a ring stage. Returns `true` when every token is home
    /// (stage complete). May set `self.error` when the retry budget runs
    /// out.
    fn tick_ring_stage(&mut self, now: Cycle, stage: Stage) -> bool {
        for b in 0..self.home.len() {
            if self.returns_at[b] != Some(now) {
                continue;
            }
            self.returns_at[b] = None;
            if self.corrupted[b] {
                // Checksum failure at the origin: discard the mangled
                // token and resend; the fresh copy must make a full loop.
                self.corrupted[b] = false;
                self.retries += 1;
                self.send(now, b);
                self.deadline = self
                    .deadline
                    .max(now + self.round_trip() + self.retry.grace);
            } else {
                self.home[b] = true;
            }
        }
        if self.home.iter().all(|&h| h) {
            return true;
        }
        if now >= self.deadline {
            self.watchdog_fire(now, stage);
        }
        false
    }

    /// The stage watchdog: some token missed its deadline. Relaunch every
    /// missing token and double the grace window; give up (set the error)
    /// once the retry budget is exhausted.
    fn watchdog_fire(&mut self, now: Cycle, stage: Stage) {
        if self.attempts >= self.retry.max_retries {
            self.error = Some(ProtocolError::RingStalled {
                stage,
                attempts: self.attempts,
            });
            return;
        }
        self.attempts += 1;
        for b in 0..self.home.len() {
            if !self.home[b] {
                self.retries += 1;
                self.send(now, b);
            }
        }
        let backoff = self.retry.grace << self.attempts.min(16);
        self.deadline = now + self.round_trip() + backoff;
    }

    /// Resolves the round at `now` with `grants` (empty on abort).
    fn finish(&mut self, now: Cycle, grants: Vec<WavelengthGrant>) -> RoundOutcome {
        self.set_phase(now, RoundPhase::Done);
        RoundOutcome {
            grants,
            completed_at: now - self.start,
            retries: self.retries,
            error: self.error,
        }
    }

    /// Advances to cycle `now` (one more than the last tick); returns the
    /// outcome exactly once, on the cycle the round completes (or aborts).
    pub fn tick(&mut self, now: Cycle) -> Option<RoundOutcome> {
        debug_assert_eq!(now, self.next_tick, "DbrRound::tick skipped a cycle");
        self.next_tick = now + 1;
        match self.phase {
            RoundPhase::LinkRequest { until } => {
                if now >= until {
                    self.launch_ring_stage(now);
                    self.set_phase(now, RoundPhase::BoardRequest);
                }
                None
            }
            RoundPhase::BoardRequest => {
                if self.tick_ring_stage(now, Stage::BoardRequest) {
                    // All tokens are home: Reconfigure starts.
                    self.set_phase(
                        now,
                        RoundPhase::Reconfigure {
                            until: now + self.timing.stage_cycles(Stage::Reconfigure),
                        },
                    );
                } else if self.error.is_some() {
                    // Fail-safe abort: no grants, the error attached.
                    return Some(self.finish(now, Vec::new()));
                }
                None
            }
            RoundPhase::Reconfigure { until } => {
                if now >= until {
                    // Each destination's RC decides; the grants go out on
                    // the ring as Board Responses.
                    for (d, incoming) in self.incoming.iter().enumerate() {
                        self.grants.extend(self.policy.reconfigure_with_demands(
                            BoardId(d as u16),
                            incoming,
                            &self.demands[d],
                        ));
                    }
                    self.launch_ring_stage(now);
                    self.set_phase(now, RoundPhase::BoardResponse);
                }
                None
            }
            RoundPhase::BoardResponse => {
                if self.tick_ring_stage(now, Stage::BoardResponse) {
                    self.set_phase(
                        now,
                        RoundPhase::LinkResponse {
                            until: now + self.timing.stage_cycles(Stage::LinkResponse),
                        },
                    );
                } else if self.error.is_some() {
                    return Some(self.finish(now, Vec::new()));
                }
                None
            }
            RoundPhase::LinkResponse { until } => {
                if now >= until {
                    let grants = std::mem::take(&mut self.grants);
                    return Some(self.finish(now, grants));
                }
                None
            }
            RoundPhase::Done => None,
        }
    }

    /// Runs the round to completion starting from its start cycle.
    #[cfg(test)]
    fn run_to_completion(&mut self) -> RoundOutcome {
        let mut now = self.start;
        loop {
            if let Some(outcome) = self.tick(now) {
                return outcome;
            }
            assert!(
                now < self.start + 100 * self.timing.dbr_latency().max(1),
                "round failed to converge"
            );
            now += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::rng::Pcg32;
    use photonics::rwa::StaticRwa;
    use photonics::wavelength::Wavelength;

    const BOARDS: u16 = 4;

    fn timing() -> ProtocolTiming {
        ProtocolTiming {
            boards: BOARDS,
            lcs_per_board: BOARDS,
            ..ProtocolTiming::paper64()
        }
    }

    /// The complement-like scenario: the static ownership table of a
    /// `boards`-board system with board 0's flow toward the last board hot
    /// and every other flow idle.
    fn hot_flow(boards: u16) -> (Vec<Vec<IncomingLink>>, Vec<Vec<FlowDemand>>) {
        let util = |s: u16, d: u16| if (s, d) == (0, boards - 1) { 0.9 } else { 0.0 };
        let rwa = StaticRwa::new(boards);
        let incoming = (0..boards)
            .map(|d| {
                let mut links: Vec<_> = rwa
                    .incoming(BoardId(d))
                    .into_iter()
                    .map(|(owner, wavelength)| IncomingLink {
                        wavelength,
                        owner,
                        buffer_util: util(owner.0, d),
                    })
                    .collect();
                links.sort_by_key(|l| l.wavelength);
                links
            })
            .collect();
        (incoming, demands_of(boards, util))
    }

    /// Every flow's demand toward every destination, from `util(s, d)`.
    fn demands_of(boards: u16, util: impl Fn(u16, u16) -> f64) -> Vec<Vec<FlowDemand>> {
        (0..boards)
            .map(|d| {
                (0..boards)
                    .filter(|&s| s != d)
                    .map(|s| FlowDemand {
                        source: BoardId(s),
                        buffer_util: util(s, d),
                    })
                    .collect()
            })
            .collect()
    }

    /// The extra latency one token fault costs a round when recovery
    /// succeeds on the first attempt: a lost token is detected after
    /// `round_trip + grace` and its relaunch takes another round trip; a
    /// corrupted token is detected for free on return and only pays the
    /// resend round trip.
    fn recovery_delay(retry: RetryPolicy, timing: &ProtocolTiming, corrupt: bool) -> Cycle {
        let round_trip = timing.boards as Cycle * timing.ring_hop;
        if corrupt {
            round_trip
        } else {
            round_trip + retry.grace
        }
    }

    /// Drives a round tick by tick, injecting `fault` at cycle `fault_at`.
    fn run_with_fault(
        mut round: DbrRound,
        start: Cycle,
        fault_at: Cycle,
        fault: TokenFault,
    ) -> RoundOutcome {
        let mut now = start;
        loop {
            if now == fault_at {
                round.inject_fault(fault);
            }
            if let Some(outcome) = round.tick(now) {
                return outcome;
            }
            assert!(now < start + 10_000, "faulted round failed to converge");
            now += 1;
        }
    }

    #[test]
    fn round_reaches_the_direct_decision() {
        let (incoming, demands) = hot_flow(BOARDS);
        let mut round = DbrRound::new(timing(), AllocPolicy::paper(), 0, incoming, demands);
        let outcome = round.run_to_completion();
        // Direct evaluation: two idle wavelengths toward board 3 go to 0.
        assert_eq!(outcome.grants.len(), 2, "{:?}", outcome.grants);
        assert!(outcome.grants.iter().all(|g| g.destination == BoardId(3)));
        assert!(outcome.grants.iter().all(|g| g.to == BoardId(0)));
        // The donors are the two idle flows toward board 3.
        let mut donors: Vec<_> = outcome.grants.iter().map(|g| g.from).collect();
        donors.sort();
        assert_eq!(donors, [BoardId(1), BoardId(2)]);
        assert!(round.is_done());
        assert_eq!(outcome.retries, 0);
        assert!(outcome.error.is_none());
    }

    /// The round is a distributed evaluation of the Reconfigure stage: for
    /// *any* single-owner `(d, w) → s` table — including a source holding
    /// several wavelengths toward one destination and one wavelength toward
    /// several, which is what earlier rounds leave behind — its grants are
    /// the per-destination direct decisions over the full table, in order.
    #[test]
    fn round_equals_the_direct_decision_on_any_ownership_table() {
        let mut rng = Pcg32::stream(0xD8B2, 1);
        let policy = AllocPolicy::paper();
        for trial in 0..200 {
            let boards: u16 = if trial % 2 == 0 { 4 } else { 8 };
            let b = boards as usize;
            // owner[d][w]: start from the static RWA, then move a random
            // number of wavelengths to random other sources (a few slots go
            // unowned, as after a receiver failure).
            let last = boards as u32 - 1;
            let other = |rng: &mut Pcg32, d: u16| BoardId((d + rng.range(1, last) as u16) % boards);
            let mut owner = vec![vec![None; b]; b];
            for d in 0..boards {
                for (s, w) in StaticRwa::new(boards).incoming(BoardId(d)) {
                    owner[d as usize][w.index()] = Some(s);
                }
            }
            for _ in 0..rng.below(3 * boards as u32) {
                let d = rng.below(boards as u32) as u16;
                let w = rng.range(1, last) as usize;
                owner[d as usize][w] = (!rng.bernoulli(0.1)).then(|| other(&mut rng, d));
            }
            // One source stacked with 2–3 wavelengths toward one destination
            // and holding one of them toward a second destination too.
            let d0 = rng.below(boards as u32) as u16;
            let s0 = other(&mut rng, d0);
            let w0 = rng.range(1, last - 2) as usize;
            owner[d0 as usize][w0..w0 + rng.range(2, 3) as usize].fill(Some(s0));
            let d1 = (0..boards).find(|&d| d != d0 && d != s0.0).unwrap();
            owner[d1 as usize][w0] = Some(s0);

            // util[s][d]: the flow's TX-queue occupancy, spanning the three
            // classes and both band edges.
            let util: Vec<Vec<f64>> = (0..b)
                .map(|_| {
                    (0..b)
                        .map(|_| match rng.below(6) {
                            0 | 1 => 0.0,
                            2 => 0.3,
                            3 => 0.3 * rng.next_f64(),
                            _ => 0.3 + 0.7 * rng.next_f64(),
                        })
                        .collect()
                })
                .collect();

            let incoming: Vec<Vec<IncomingLink>> = (0..b)
                .map(|d| {
                    (1..boards)
                        .filter_map(|w| {
                            let s = owner[d][w as usize]?;
                            Some(IncomingLink {
                                wavelength: Wavelength(w),
                                owner: s,
                                buffer_util: util[s.index()][d],
                            })
                        })
                        .collect()
                })
                .collect();
            let demands = demands_of(boards, |s, d| util[s as usize][d as usize]);
            let direct: Vec<_> = (0..boards)
                .flat_map(|d| {
                    let (i, dm) = (&incoming[d as usize], &demands[d as usize]);
                    policy.reconfigure_with_demands(BoardId(d), i, dm)
                })
                .collect();

            let timing = ProtocolTiming {
                boards,
                lcs_per_board: boards,
                ..ProtocolTiming::paper64()
            };
            let outcome = DbrRound::new(timing, policy, 0, incoming, demands).run_to_completion();
            assert_eq!(outcome.grants, direct, "trial {trial} (B = {boards})");
            let mut moved: Vec<_> = (outcome.grants.iter())
                .map(|g| (g.destination, g.wavelength))
                .collect();
            moved.sort();
            moved.dedup();
            assert_eq!(moved.len(), outcome.grants.len(), "a (d, w) granted twice");
        }
    }

    #[test]
    fn completion_time_matches_the_analytic_latency() {
        let (incoming, demands) = hot_flow(BOARDS);
        let t = timing();
        let mut round = DbrRound::new(t, AllocPolicy::paper(), 100, incoming, demands);
        let outcome = round.run_to_completion();
        assert_eq!(
            outcome.completed_at,
            t.dbr_latency(),
            "message-level round must take exactly the analytic latency"
        );
    }

    #[test]
    fn balanced_round_produces_no_grants_but_still_costs_latency() {
        let (mut incoming, _) = hot_flow(BOARDS);
        for link in incoming.iter_mut().flatten() {
            link.buffer_util = 0.2;
        }
        let demands = demands_of(BOARDS, |_, _| 0.2);
        let t = timing();
        let mut round = DbrRound::new(t, AllocPolicy::paper(), 0, incoming, demands);
        let outcome = round.run_to_completion();
        assert!(outcome.grants.is_empty());
        assert_eq!(outcome.completed_at, t.dbr_latency());
    }

    #[test]
    fn stage_labels_progress_in_order() {
        let (incoming, demands) = hot_flow(BOARDS);
        let mut round = DbrRound::new(timing(), AllocPolicy::paper(), 0, incoming, demands);
        let mut seen = vec![round.stage()];
        let mut now = 0;
        while !round.is_done() {
            round.tick(now);
            if *seen.last().unwrap() != round.stage() {
                seen.push(round.stage());
            }
            now += 1;
        }
        let mut expected: Vec<Option<Stage>> = Stage::all().into_iter().map(Some).collect();
        expected.push(None);
        assert_eq!(seen, expected);
    }

    #[test]
    fn stage_log_records_all_transitions_with_cycles() {
        let (incoming, demands) = hot_flow(BOARDS);
        let t = timing();
        let mut round = DbrRound::new(t, AllocPolicy::paper(), 0, incoming, demands);
        let outcome = round.run_to_completion();
        let log = round.stage_log();
        let stages: Vec<Option<Stage>> = log.iter().map(|&(_, s)| s).collect();
        let mut expected: Vec<Option<Stage>> = Stage::all().into_iter().map(Some).collect();
        expected.push(None);
        assert_eq!(stages, expected);
        // Entries are time-ordered, start at the round start and end at the
        // completion cycle.
        assert!(log.windows(2).all(|p| p[0].0 <= p[1].0));
        assert_eq!(log[0].0, 0);
        assert_eq!(log[log.len() - 1].0, outcome.completed_at);
        // Draining leaves the log empty for the next round.
        let drained = round.take_stage_log();
        assert_eq!(drained.len(), 6);
        assert!(round.stage_log().is_empty());
    }

    #[test]
    fn token_loss_mid_ring_recovers_with_one_retry() {
        let (incoming, demands) = hot_flow(BOARDS);
        let t = timing();
        let baseline = DbrRound::new(
            t,
            AllocPolicy::paper(),
            0,
            incoming.clone(),
            demands.clone(),
        )
        .run_to_completion();
        // Board Request launches at link_req = 5; drop board 1's token at 6.
        let round = DbrRound::new(t, AllocPolicy::paper(), 0, incoming, demands);
        let outcome = run_with_fault(
            round,
            0,
            6,
            TokenFault {
                victim: BoardId(1),
                corrupt: false,
            },
        );
        assert!(outcome.error.is_none(), "round must complete via retry");
        assert_eq!(outcome.retries, 1);
        // Exactly the recovery delay on top of the clean latency.
        assert_eq!(
            outcome.completed_at,
            t.dbr_latency() + recovery_delay(RetryPolicy::default(), &t, false)
        );
        // And the decisions are unchanged: the relaunched token recollected
        // the same statistics.
        assert_eq!(outcome.grants, baseline.grants);
    }

    #[test]
    fn token_loss_before_launch_strikes_at_launch() {
        let (incoming, demands) = hot_flow(BOARDS);
        let t = timing();
        let round = DbrRound::new(t, AllocPolicy::paper(), 0, incoming, demands);
        // Injected during Link Request (no token in flight yet): the fault
        // arms and the victim's token never enters the ring at launch.
        let outcome = run_with_fault(
            round,
            0,
            2,
            TokenFault {
                victim: BoardId(2),
                corrupt: false,
            },
        );
        assert!(outcome.error.is_none());
        assert_eq!(outcome.retries, 1);
        assert_eq!(
            outcome.completed_at,
            t.dbr_latency() + recovery_delay(RetryPolicy::default(), &t, false)
        );
    }

    #[test]
    fn corrupted_token_is_detected_on_return_and_resent() {
        let (incoming, demands) = hot_flow(BOARDS);
        let t = timing();
        let baseline = DbrRound::new(
            t,
            AllocPolicy::paper(),
            0,
            incoming.clone(),
            demands.clone(),
        )
        .run_to_completion();
        let round = DbrRound::new(t, AllocPolicy::paper(), 0, incoming, demands);
        let outcome = run_with_fault(
            round,
            0,
            6,
            TokenFault {
                victim: BoardId(1),
                corrupt: true,
            },
        );
        assert!(outcome.error.is_none());
        assert_eq!(outcome.retries, 1);
        // Detection is free (checksum on return); only the resend loop is
        // paid — no grace window.
        assert_eq!(
            outcome.completed_at,
            t.dbr_latency() + recovery_delay(RetryPolicy::default(), &t, true)
        );
        assert_eq!(outcome.grants, baseline.grants);
    }

    #[test]
    fn board_response_token_loss_preserves_the_decisions() {
        let (incoming, demands) = hot_flow(BOARDS);
        let t = timing();
        let baseline = DbrRound::new(
            t,
            AllocPolicy::paper(),
            0,
            incoming.clone(),
            demands.clone(),
        )
        .run_to_completion();
        // Reconfigure ends (and Board Response launches) at 5 + 8 + 4 = 17;
        // hit board 3's response token right after.
        let round = DbrRound::new(t, AllocPolicy::paper(), 0, incoming, demands);
        let outcome = run_with_fault(
            round,
            0,
            18,
            TokenFault {
                victim: BoardId(3),
                corrupt: false,
            },
        );
        assert!(outcome.error.is_none());
        assert_eq!(outcome.retries, 1);
        assert_eq!(outcome.grants, baseline.grants);
        assert_eq!(
            outcome.completed_at,
            t.dbr_latency() + recovery_delay(RetryPolicy::default(), &t, false)
        );
    }

    #[test]
    fn persistent_loss_aborts_fail_safe_after_max_retries() {
        let (incoming, demands) = hot_flow(BOARDS);
        let t = timing();
        let mut round =
            DbrRound::new(t, AllocPolicy::paper(), 0, incoming, demands).with_retry(RetryPolicy {
                grace: 4,
                max_retries: 2,
            });
        // An adversarial jammer: board 1's token is destroyed every cycle,
        // including every relaunch.
        let mut now = 0;
        let outcome = loop {
            round.inject_fault(TokenFault {
                victim: BoardId(1),
                corrupt: false,
            });
            if let Some(outcome) = round.tick(now) {
                break outcome;
            }
            assert!(now < 10_000, "abort path must terminate");
            now += 1;
        };
        assert_eq!(
            outcome.error,
            Some(ProtocolError::RingStalled {
                stage: Stage::BoardRequest,
                attempts: 2,
            })
        );
        assert!(
            outcome.grants.is_empty(),
            "fail-safe abort must not act on partial state"
        );
        assert!(outcome.retries >= 2);
    }

    #[test]
    fn fault_after_completion_is_inert() {
        let (incoming, demands) = hot_flow(BOARDS);
        let mut round = DbrRound::new(timing(), AllocPolicy::paper(), 0, incoming, demands);
        round.run_to_completion();
        round.inject_fault(TokenFault {
            victim: BoardId(0),
            corrupt: false,
        });
        assert!(round.is_done());
        assert_eq!(round.retries(), 0);
    }

    /// Loss, corruption of the relaunched token, then loss of its resend,
    /// at B = 2 (round trip 4, grace 16). Board 0's Board Request token,
    /// launched at 3, is lost; the watchdog relaunches it at 23 with a
    /// doubled window (deadline 23 + 4 + 32 = 59). It comes home corrupted
    /// at 27 and is resent: that resend's own window ends at 27 + 4 + 16 =
    /// 47, but the relaunch's backoff still holds, so when the resend is
    /// lost the watchdog waits until 59, not 47, before relaunching again.
    #[test]
    fn a_corruption_resend_keeps_the_relaunch_backoff() {
        let t = ProtocolTiming {
            boards: 2,
            lcs_per_board: 2,
            ..ProtocolTiming::paper64()
        };
        let (incoming, demands) = hot_flow(2);
        let mut round = DbrRound::new(t, AllocPolicy::paper(), 0, incoming, demands);
        let schedule = [(0, false), (24, true), (28, false)];
        let mut now = 0;
        let outcome = loop {
            for &(_, corrupt) in schedule.iter().filter(|(at, _)| *at == now) {
                round.inject_fault(TokenFault {
                    victim: BoardId(0),
                    corrupt,
                });
            }
            if let Some(outcome) = round.tick(now) {
                break outcome;
            }
            now += 1;
            assert!(now < 1_000, "faulted round failed to converge");
        };
        assert!(outcome.error.is_none());
        assert_eq!((outcome.completed_at, outcome.retries), (74, 3));
        assert_eq!(round.stage_log()[2], (63, Some(Stage::Reconfigure)));
    }

    /// Every schedule of at most two token faults — each victim, loss or
    /// corruption, on every cycle from the round's start to its fault-free
    /// completion, injected before that cycle's tick as `System` does — on
    /// the hot-flow table: pairs at B = 2, 3, 4, single faults at B = 8.
    /// Every round ends within the retry bound (or stalls), grants each
    /// `(d, w)` at most once and only from an under-utilised flow, and one
    /// that completes decides what the fault-free round decides, later.
    /// The digest over every outcome pins the exact timing and retries; it
    /// was recorded on the message-level ring (tokens forwarded hop by hop
    /// with their payloads) that the per-origin return cycles replaced.
    #[test]
    fn every_schedule_of_up_to_two_token_faults() {
        let policy = AllocPolicy::paper();
        let retry = RetryPolicy::default();
        let mut digest = desim::snap::FNV_OFFSET;
        let mut rounds = 0u32;
        for boards in [2u16, 3, 4, 8] {
            let t = ProtocolTiming {
                boards,
                lcs_per_board: boards,
                ..ProtocolTiming::paper64()
            };
            let (inputs, demands) = hot_flow(boards);
            let fresh = || DbrRound::new(t, policy, 0, inputs.clone(), demands.clone());
            let clean = fresh().run_to_completion();
            assert_eq!(clean.completed_at, t.dbr_latency());
            let faults: Vec<(Cycle, TokenFault)> = (0..=clean.completed_at)
                .flat_map(|at| {
                    (0..boards).flat_map(move |v| {
                        [false, true].map(|corrupt| {
                            let victim = BoardId(v);
                            (at, TokenFault { victim, corrupt })
                        })
                    })
                })
                .collect();
            let mut schedules: Vec<Vec<(Cycle, TokenFault)>> = vec![Vec::new()];
            for &a in &faults {
                schedules.push(vec![a]);
                if boards <= 4 {
                    // Later faults after earlier ones; same-cycle pairs in
                    // both orders (and a fault twice).
                    let pairs = faults.iter().filter(|b| b.0 >= a.0);
                    schedules.extend(pairs.map(|&b| vec![a, b]));
                }
            }
            let rt = boards as Cycle * t.ring_hop;
            for schedule in &schedules {
                let mut round = fresh();
                let mut now = 0;
                let outcome = loop {
                    for &(_, f) in schedule.iter().filter(|(at, _)| *at == now) {
                        round.inject_fault(f);
                    }
                    if let Some(outcome) = round.tick(now) {
                        break outcome;
                    }
                    now += 1;
                    assert!(now < 10_000, "{schedule:?} did not converge");
                };
                rounds += 1;
                let bound: Cycle = (1..=schedule.len() as u32)
                    .map(|k| rt + (retry.grace << k))
                    .sum::<Cycle>()
                    + t.dbr_latency();
                let stalled = matches!(outcome.error, Some(ProtocolError::RingStalled { .. }));
                assert!(
                    outcome.completed_at <= bound || stalled,
                    "{schedule:?}: {} > {bound}",
                    outcome.completed_at
                );
                let mut moved: Vec<_> = (outcome.grants.iter())
                    .map(|g| (g.destination, g.wavelength))
                    .collect();
                moved.sort();
                moved.dedup();
                assert_eq!(moved.len(), outcome.grants.len(), "{schedule:?}");
                for g in &outcome.grants {
                    let from = demands[g.destination.index()]
                        .iter()
                        .find(|f| f.source == g.from)
                        .expect("a demand per source");
                    assert!(from.buffer_util <= policy.b_min, "{schedule:?}: {g:?}");
                }
                if outcome.error.is_none() {
                    assert_eq!(outcome.grants, clean.grants, "{schedule:?}");
                }
                let record = format!(
                    "{}|{}|{:?}|{:?}|{:?}",
                    outcome.completed_at,
                    outcome.retries,
                    outcome.error,
                    outcome.grants,
                    round.stage_log()
                );
                digest = desim::snap::fnv1a_update(digest, record.as_bytes());
            }
        }
        assert_eq!((rounds, digest), (47_842, 0xc36d7f4cb29df7ee));
    }
}
