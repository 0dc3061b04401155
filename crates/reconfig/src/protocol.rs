//! Clocked, message-level execution of one full DBR round.
//!
//! This is the DBR control plane of the system model in `erapid-core`: it
//! runs the round as actual control packets — Link Request through the LC
//! chain, Board Request circulating the [`crate::ring::ControlRing`],
//! Reconfigure at each RC, Board Response around the ring again, Link
//! Response back through the LCs — one cycle at a time, and reports both
//! the decisions and the cycle the round completed.
//!
//! The ring stages are additionally guarded against control-plane faults:
//! each origin tracks whether its token has returned home, and a per-stage
//! watchdog (the LS heartbeat) relaunches missing tokens after the
//! expected round trip plus a grace window, doubling the grace on every
//! attempt (bounded retry with exponential backoff, [`RetryPolicy`]). A
//! token whose checksum fails on return is discarded and resent
//! immediately. A stage that exhausts its retry budget aborts the round
//! fail-safe: the outcome carries a [`ProtocolError`] and no grants, so
//! the system keeps its current allocation rather than acting on partial
//! state.
//!
//! Invariants checked by the tests (and usable by callers):
//! * decisions equal a direct [`crate::alloc::AllocPolicy`] evaluation of
//!   the same window statistics, for any single-owner ownership table,
//! * fault-free completion time equals `ProtocolTiming::dbr_latency()`
//!   exactly (the watchdog never fires on a lossless ring),
//! * the ring never holds more than one packet per board per hop slot
//!   (the lock-step property).

use crate::alloc::{AllocPolicy, FlowDemand};
use crate::msg::{ControlPacket, LaserCommand, LinkReading, WavelengthGrant};
use crate::rc::ReconfigController;
use crate::ring::ControlRing;
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
    /// Per-board laser commands derived from the grants.
    pub commands: Vec<Vec<LaserCommand>>,
    /// Cycle (relative to the round start) at which the Link Response
    /// stage finished and the commands took effect.
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
    /// Board Request packets circulating the ring.
    BoardRequest,
    /// Reconfigure computation at every RC.
    Reconfigure {
        /// Completion cycle of the stage.
        until: Cycle,
    },
    /// Board Response packets circulating the ring.
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
    boards: u16,
    timing: ProtocolTiming,
    ring: ControlRing,
    rcs: Vec<ReconfigController>,
    /// Flow demands per destination (indexed `[d][..]`), carried alongside
    /// the per-channel readings as described in `alloc`.
    demands: Vec<Vec<FlowDemand>>,
    phase: RoundPhase,
    start: Cycle,
    grants: Vec<WavelengthGrant>,
    /// Per-destination grant payloads decided at Reconfigure — kept so a
    /// lost Board Response token can be resent with its original payload.
    response_grants: Vec<Vec<WavelengthGrant>>,
    outcome: Option<RoundOutcome>,
    retry: RetryPolicy,
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
    /// Starts a round at cycle `start`.
    ///
    /// `outgoing[b]` is board `b`'s Link-Request readings (one per
    /// transmitter); `demands[d]` is the per-flow queue telemetry toward
    /// destination `d` (what the static LCs keep reporting even for flows
    /// whose lasers are dark).
    pub fn new(
        timing: ProtocolTiming,
        policy: AllocPolicy,
        start: Cycle,
        outgoing: Vec<Vec<LinkReading>>,
        demands: Vec<Vec<FlowDemand>>,
    ) -> Self {
        let boards = timing.boards;
        assert_eq!(outgoing.len(), boards as usize);
        assert_eq!(demands.len(), boards as usize);
        let mut rcs: Vec<ReconfigController> = (0..boards)
            .map(|b| ReconfigController::new(BoardId(b), boards, policy))
            .collect();
        // Stage 1 payload is known at construction; the stage still costs
        // its chain time before the ring stage may begin.
        for (b, readings) in outgoing.iter().enumerate() {
            rcs[b].update_outgoing(readings);
        }
        let link_req = timing.stage_cycles(Stage::LinkRequest);
        Self {
            boards,
            timing,
            ring: ControlRing::new(boards, timing.ring_hop),
            rcs,
            demands,
            phase: RoundPhase::LinkRequest {
                until: start + link_req,
            },
            start,
            grants: Vec::new(),
            response_grants: vec![Vec::new(); boards as usize],
            outcome: None,
            retry: RetryPolicy::default(),
            home: vec![false; boards as usize],
            corrupted: vec![false; boards as usize],
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
        let v = fault.victim;
        let in_ring_stage = matches!(
            self.phase,
            RoundPhase::BoardRequest | RoundPhase::BoardResponse
        );
        if in_ring_stage && !self.home[v.index()] && self.ring.has_packet_from(v) {
            if fault.corrupt {
                self.corrupted[v.index()] = true;
            } else {
                self.ring.drop_packet_from(v);
            }
            return;
        }
        if !self.armed.iter().any(|f| f.victim == v) {
            self.armed.push(fault);
        }
    }

    /// A fresh copy of `origin`'s token for `stage` (used at launch and
    /// for every resend — re-collection is safe because RC table reads
    /// are idempotent).
    fn fresh_token(&self, origin: BoardId, stage: Stage) -> ControlPacket {
        if stage == Stage::BoardRequest {
            ControlPacket::BoardRequest {
                origin,
                reports: vec![],
            }
        } else {
            ControlPacket::BoardResponse {
                origin,
                grants: self.response_grants[origin.index()].clone(),
            }
        }
    }

    /// Lock-step launch of a ring stage: every board sends its token
    /// simultaneously (Fig. 4(b)), armed faults strike at the launch, and
    /// the stage watchdog is primed.
    fn launch_ring_stage(&mut self, now: Cycle, stage: Stage) {
        self.home.iter_mut().for_each(|h| *h = false);
        self.corrupted.iter_mut().for_each(|c| *c = false);
        self.attempts = 0;
        for b in 0..self.boards {
            let mut lost = false;
            if let Some(pos) = self.armed.iter().position(|f| f.victim == BoardId(b)) {
                let f = self.armed.remove(pos);
                if f.corrupt {
                    self.corrupted[b as usize] = true;
                } else {
                    lost = true;
                }
            }
            if !lost {
                let token = self.fresh_token(BoardId(b), stage);
                self.ring.send(now, BoardId(b), token);
            }
        }
        self.deadline = now + self.ring.round_trip() + self.retry.grace;
    }

    /// One cycle of a ring stage. Returns `true` when every token is home
    /// (stage complete). May set `self.error` when the retry budget runs
    /// out.
    fn tick_ring_stage(&mut self, now: Cycle, stage: Stage) -> bool {
        self.ring.advance(now);
        for b in 0..self.boards {
            while let Some((_, mut packet)) = self.ring.receive(BoardId(b)) {
                let origin = packet.origin();
                if origin == BoardId(b) {
                    if self.corrupted[b as usize] {
                        // Checksum failure at the origin: discard the
                        // mangled token and resend; the fresh copy must
                        // make a full loop.
                        self.corrupted[b as usize] = false;
                        self.retries += 1;
                        let token = self.fresh_token(origin, stage);
                        self.ring.send(now, BoardId(b), token);
                        self.deadline = self
                            .deadline
                            .max(now + self.ring.round_trip() + self.retry.grace);
                    } else {
                        if let ControlPacket::BoardRequest { reports, .. } = &packet {
                            self.rcs[b as usize].update_incoming(reports);
                        }
                        self.home[b as usize] = true;
                    }
                } else {
                    if let ControlPacket::BoardRequest { reports, .. } = &mut packet {
                        reports.extend(self.rcs[b as usize].reports_toward(origin));
                    }
                    self.ring.send(now, BoardId(b), packet);
                }
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
        for b in 0..self.boards {
            if !self.home[b as usize] {
                self.retries += 1;
                let token = self.fresh_token(BoardId(b), stage);
                self.ring.send(now, BoardId(b), token);
            }
        }
        let backoff = self.retry.grace << self.attempts.min(16);
        self.deadline = now + self.ring.round_trip() + backoff;
    }

    /// Fail-safe abort: no grants, the error attached.
    fn fail_outcome(&mut self, now: Cycle) -> RoundOutcome {
        let outcome = RoundOutcome {
            grants: Vec::new(),
            commands: vec![Vec::new(); self.boards as usize],
            completed_at: now - self.start,
            retries: self.retries,
            error: self.error,
        };
        self.outcome = Some(outcome.clone());
        self.set_phase(now, RoundPhase::Done);
        outcome
    }

    /// Advances to cycle `now`; returns the outcome exactly once, on the
    /// cycle the round completes (or aborts).
    pub fn tick(&mut self, now: Cycle) -> Option<RoundOutcome> {
        match self.phase {
            RoundPhase::LinkRequest { until } => {
                if now >= until {
                    self.launch_ring_stage(now, Stage::BoardRequest);
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
                    return Some(self.fail_outcome(now));
                }
                None
            }
            RoundPhase::Reconfigure { until } => {
                if now >= until {
                    // Each destination RC folds in the flow demands and
                    // decides; grants launch on the ring as Board Responses.
                    for d in 0..self.boards {
                        let rc = &mut self.rcs[d as usize];
                        let channels: Vec<_> = (1..self.boards)
                            .filter_map(|w| {
                                rc.incoming(photonics::wavelength::Wavelength(w)).copied()
                            })
                            .collect();
                        let grants = rc.policy().reconfigure_with_demands(
                            BoardId(d),
                            &channels,
                            &self.demands[d as usize],
                        );
                        self.grants.extend(grants.iter().copied());
                        self.response_grants[d as usize] = grants;
                    }
                    self.launch_ring_stage(now, Stage::BoardResponse);
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
                    return Some(self.fail_outcome(now));
                }
                None
            }
            RoundPhase::LinkResponse { until } => {
                if now >= until {
                    let commands: Vec<Vec<LaserCommand>> = (0..self.boards)
                        .map(|b| self.rcs[b as usize].commands_from_grants(&self.grants))
                        .collect();
                    let outcome = RoundOutcome {
                        grants: self.grants.clone(),
                        commands,
                        completed_at: now - self.start,
                        retries: self.retries,
                        error: None,
                    };
                    self.outcome = Some(outcome.clone());
                    self.set_phase(now, RoundPhase::Done);
                    return Some(outcome);
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
    use crate::alloc::IncomingLink;
    use desim::rng::Pcg32;
    use photonics::bitrate::RateLevel;
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

    /// Outgoing readings for the complement-like scenario: board 0 hot
    /// toward board 3, all other flows idle.
    fn scenario() -> (Vec<Vec<LinkReading>>, Vec<Vec<FlowDemand>>) {
        let rwa = StaticRwa::new(BOARDS);
        let mut outgoing = vec![Vec::new(); BOARDS as usize];
        for s in 0..BOARDS {
            for d in 0..BOARDS {
                if s == d {
                    continue;
                }
                let w = rwa.wavelength(BoardId(s), BoardId(d));
                let hot = s == 0 && d == 3;
                outgoing[s as usize].push(LinkReading {
                    wavelength: w,
                    destination: Some(BoardId(d)),
                    link_util: if hot { 1.0 } else { 0.0 },
                    buffer_util: if hot { 0.9 } else { 0.0 },
                    level: RateLevel(2),
                });
            }
        }
        let mut demands = vec![Vec::new(); BOARDS as usize];
        for d in 0..BOARDS {
            for s in 0..BOARDS {
                if s == d {
                    continue;
                }
                let hot = s == 0 && d == 3;
                demands[d as usize].push(FlowDemand {
                    source: BoardId(s),
                    buffer_util: if hot { 0.9 } else { 0.0 },
                });
            }
        }
        (outgoing, demands)
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
        let (outgoing, demands) = scenario();
        let mut round = DbrRound::new(timing(), AllocPolicy::paper(), 0, outgoing, demands);
        let outcome = round.run_to_completion();
        // Direct evaluation: two idle wavelengths toward board 3 go to 0.
        assert_eq!(outcome.grants.len(), 2, "{:?}", outcome.grants);
        assert!(outcome.grants.iter().all(|g| g.destination == BoardId(3)));
        assert!(outcome.grants.iter().all(|g| g.to == BoardId(0)));
        // Commands: board 0 lights two lasers, donors darken one each.
        assert_eq!(outcome.commands[0].len(), 2);
        assert!(outcome.commands[0].iter().all(|c| c.on));
        let offs: usize = outcome.commands[1..3]
            .iter()
            .map(|c| c.iter().filter(|c| !c.on).count())
            .sum();
        assert_eq!(offs, 2);
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

            let mut outgoing = vec![Vec::new(); b];
            let mut demands = vec![Vec::new(); b];
            let mut direct = Vec::new();
            for d in 0..boards {
                let mut channels = Vec::new();
                for w in 1..boards {
                    let Some(s) = owner[d as usize][w as usize] else {
                        continue;
                    };
                    let buffer_util = util[s.index()][d as usize];
                    channels.push(IncomingLink {
                        wavelength: Wavelength(w),
                        owner: s,
                        buffer_util,
                    });
                    outgoing[s.index()].push(LinkReading {
                        wavelength: Wavelength(w),
                        destination: Some(BoardId(d)),
                        link_util: rng.next_f64(),
                        buffer_util,
                        level: RateLevel(2),
                    });
                }
                demands[d as usize] = (0..boards)
                    .filter(|&s| s != d)
                    .map(|s| FlowDemand {
                        source: BoardId(s),
                        buffer_util: util[s as usize][d as usize],
                    })
                    .collect();
                direct.extend(policy.reconfigure_with_demands(
                    BoardId(d),
                    &channels,
                    &demands[d as usize],
                ));
            }
            // The LC chain order a reading arrives in must not matter.
            for readings in &mut outgoing {
                rng.shuffle(readings);
            }

            let timing = ProtocolTiming {
                boards,
                lcs_per_board: boards,
                ..ProtocolTiming::paper64()
            };
            let outcome = DbrRound::new(timing, policy, 0, outgoing, demands).run_to_completion();
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
        let (outgoing, demands) = scenario();
        let t = timing();
        let mut round = DbrRound::new(t, AllocPolicy::paper(), 100, outgoing, demands);
        let outcome = round.run_to_completion();
        assert_eq!(
            outcome.completed_at,
            t.dbr_latency(),
            "message-level round must take exactly the analytic latency"
        );
    }

    #[test]
    fn balanced_round_produces_no_grants_but_still_costs_latency() {
        let rwa = StaticRwa::new(BOARDS);
        let mut outgoing = vec![Vec::new(); BOARDS as usize];
        for s in 0..BOARDS {
            for d in 0..BOARDS {
                if s == d {
                    continue;
                }
                outgoing[s as usize].push(LinkReading {
                    wavelength: rwa.wavelength(BoardId(s), BoardId(d)),
                    destination: Some(BoardId(d)),
                    link_util: 0.5,
                    buffer_util: 0.2,
                    level: RateLevel(2),
                });
            }
        }
        let demands = (0..BOARDS)
            .map(|d| {
                (0..BOARDS)
                    .filter(|&s| s != d)
                    .map(|s| FlowDemand {
                        source: BoardId(s),
                        buffer_util: 0.2,
                    })
                    .collect()
            })
            .collect();
        let t = timing();
        let mut round = DbrRound::new(t, AllocPolicy::paper(), 0, outgoing, demands);
        let outcome = round.run_to_completion();
        assert!(outcome.grants.is_empty());
        assert!(outcome.commands.iter().all(|c| c.is_empty()));
        assert_eq!(outcome.completed_at, t.dbr_latency());
    }

    #[test]
    fn stage_labels_progress_in_order() {
        let (outgoing, demands) = scenario();
        let mut round = DbrRound::new(timing(), AllocPolicy::paper(), 0, outgoing, demands);
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
        let (outgoing, demands) = scenario();
        let t = timing();
        let mut round = DbrRound::new(t, AllocPolicy::paper(), 0, outgoing, demands);
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
        let (outgoing, demands) = scenario();
        let t = timing();
        let baseline = DbrRound::new(
            t,
            AllocPolicy::paper(),
            0,
            outgoing.clone(),
            demands.clone(),
        )
        .run_to_completion();
        // Board Request launches at link_req = 5; drop board 1's token at 6.
        let round = DbrRound::new(t, AllocPolicy::paper(), 0, outgoing, demands);
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
        let (outgoing, demands) = scenario();
        let t = timing();
        let round = DbrRound::new(t, AllocPolicy::paper(), 0, outgoing, demands);
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
        let (outgoing, demands) = scenario();
        let t = timing();
        let baseline = DbrRound::new(
            t,
            AllocPolicy::paper(),
            0,
            outgoing.clone(),
            demands.clone(),
        )
        .run_to_completion();
        let round = DbrRound::new(t, AllocPolicy::paper(), 0, outgoing, demands);
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
        let (outgoing, demands) = scenario();
        let t = timing();
        let baseline = DbrRound::new(
            t,
            AllocPolicy::paper(),
            0,
            outgoing.clone(),
            demands.clone(),
        )
        .run_to_completion();
        // Reconfigure ends (and Board Response launches) at 5 + 8 + 4 = 17;
        // hit board 3's response token right after.
        let round = DbrRound::new(t, AllocPolicy::paper(), 0, outgoing, demands);
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
        let (outgoing, demands) = scenario();
        let t = timing();
        let mut round =
            DbrRound::new(t, AllocPolicy::paper(), 0, outgoing, demands).with_retry(RetryPolicy {
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
        assert!(outcome.commands.iter().all(|c| c.is_empty()));
        assert!(outcome.retries >= 2);
    }

    #[test]
    fn fault_after_completion_is_inert() {
        let (outgoing, demands) = scenario();
        let mut round = DbrRound::new(timing(), AllocPolicy::paper(), 0, outgoing, demands);
        round.run_to_completion();
        round.inject_fault(TokenFault {
            victim: BoardId(0),
            corrupt: false,
        });
        assert!(round.is_done());
        assert_eq!(round.retries(), 0);
    }
}
