//! The coordinator: local-violation processing, global polls and
//! error-allowance reallocation, as one sans-IO round plus two drivers.
//!
//! [`CoordinatorCore`] is the §IV protocol state machine. Epoch-stamped
//! [`MonitorFrame`]s and an explicit deadline event go in
//! ([`on_frame`](CoordinatorCore::on_frame),
//! [`on_deadline`](CoordinatorCore::on_deadline)); control messages for
//! monitors, liveness events for the runner and WAL records come out
//! ([`CoordinatorOutput`]), and [`advance`](CoordinatorCore::advance)
//! reports when a round closes. The core owns no channel, clock, socket
//! or encoder, so the in-process runner steps it inline on the caller's
//! thread while [`CoordinatorActor::run`] drives it from a channel on
//! its own thread for the socket transport.
//!
//! # Fault tolerance
//!
//! Every collection phase ends at a **tick deadline** supplied by the
//! driver. A monitor that misses
//! [`quarantine_after`](CoordinatorCore::with_quarantine_after)
//! consecutive deadlines is **quarantined**: the coordinator stops
//! waiting for it (so later ticks complete at full speed), reports the
//! event to the runner (whose supervisor may restart the monitor), and
//! switches to **degraded aggregation** — the missing monitor is counted
//! at its local threshold `T_i`, the largest value consistent with it
//! having nothing to report. Since `Σ T_i ≤ T`, this substitution never
//! suppresses an alert another monitor's excess would have caused: degraded
//! mode errs toward alerting, preserving the paper's no-missed-alert
//! property at the price of possible false alerts. A quarantined monitor
//! that reports on time again is restored immediately.
//!
//! # Durability and failover
//!
//! Every frame is epoch-stamped ([`MonitorFrame`]/[`ControlFrame`]). A
//! coordinator rejects monitor frames sealed at an older epoch — they can
//! only come from before a failover, e.g. from a monitor that sat out the
//! [`NewEpoch`](CoordinatorToMonitor::NewEpoch) broadcast behind a
//! network partition. Rejected frames are counted
//! ([`TickSummary::stale_epoch_frames`]) and answered with a fresh
//! `NewEpoch` at the end of the round (*epoch repair*), after which the
//! sender's next report is current-epoch and it re-earns active status
//! through the normal quarantine-recovery path. Quarantined monitors are
//! only awaited again on **fresh** evidence — a `Revived` handshake or a
//! frame for a not-yet-closed tick — so a delayed frame replayed after
//! quarantine cannot resurrect a dead monitor.
//!
//! With [`with_checkpoint`](CoordinatorCore::with_checkpoint) the core
//! emits every tick outcome as a [`WalRecord`] and periodically gathers
//! full [`CoordinatorSnapshot`]s (per-monitor sampler state via
//! [`RequestSnapshot`](CoordinatorToMonitor::RequestSnapshot), allowances,
//! update schedule), which a warm standby replays to resume with learned
//! intervals instead of the paper's conservative `I_d` restart.

use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use volley_core::adaptation::PeriodReport;
use volley_core::allocation::{AllocationConfig, ErrorAllocator};
use volley_core::snapshot::SamplerSnapshot;
use volley_core::task::{MonitorId, TaskSpec};
use volley_core::time::Tick;
use volley_core::VolleyError;
use volley_obs::{names, Counter, Histogram, Obs, SpanLog};

use crate::checkpoint::{CoordinatorSnapshot, MultitaskSnapshot, TickOutcome, Wal, WalRecord};
use crate::failure::{FaultPath, FaultPlan};
use crate::link::MonitorLink;
use crate::message::{
    decode, encode, ControlFrame, CoordinatorToMonitor, CoordinatorToRunner, MonitorFrame,
    MonitorToCoordinator, TickSummary,
};
use crate::TRACE_STRIDE;

/// Default bound on how long the coordinator waits for one tick's
/// reports. Generous next to the microseconds a healthy monitor needs,
/// so deadline misses indicate real failures, not scheduling jitter.
pub const DEFAULT_TICK_DEADLINE: Duration = Duration::from_secs(1);

/// Default number of consecutive missed deadlines before quarantine.
pub const DEFAULT_QUARANTINE_AFTER: u32 = 3;

/// Checkpoint cadence: a full snapshot every `every` ticks, next at `next`.
#[derive(Debug)]
struct Checkpointer {
    every: u64,
    next: Tick,
}

/// The §II.B suppression policy: while the precondition (leader) task's
/// violation likelihood is low, this coordinator's monitors are paced to
/// a coarse interval; the moment the leader fires they snap back to their
/// adaptive schedules. The gate engages and releases on [`LeaderState`]
/// transitions fed by the runner.
///
/// [`LeaderState`]: MonitorToCoordinator::LeaderState
#[derive(Debug)]
struct FollowerGate {
    /// Coarse interval pushed to followers while the leader is calm.
    gated_interval: u32,
    /// Whether the gate is currently engaged (leader calm).
    engaged: bool,
    /// Lifetime engage/release transitions.
    flips: u64,
    /// Lifetime samples suppressed across this coordinator's fleet.
    suppressed: u64,
    /// Restored gate state not yet re-broadcast to the (fresh) monitors.
    needs_sync: bool,
    /// Whether this coordinator broadcasts [`SetGate`] itself. An
    /// external driver (the multi-task runner) turns this off and sends
    /// the gate frames ahead of tick data itself, which keeps the tick
    /// at which a gate takes effect deterministic; the coordinator still
    /// tracks engage/release state, counts flips and suppressed samples,
    /// and checkpoints the gate.
    ///
    /// [`SetGate`]: CoordinatorToMonitor::SetGate
    broadcast: bool,
}

/// Obs counters the core bumps (plain atomics; no clock).
#[derive(Debug)]
struct CoreCounters {
    polls: Counter,
    suppressed: Counter,
    gate_flips: Counter,
}

/// Where the current round stands. The waiting phases (`Collect`,
/// `Poll`, `Reports`, `Snapshots`) end when every awaited reply is in or
/// at a deadline event; the others run straight through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Collect,
    Poll,
    Realloc,
    Reports,
    Checkpoint,
    Snapshots,
    Close,
    Crashed,
}

/// One effect of a round, to be carried out in order.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordinatorOutput {
    /// A control message for one monitor, sealed at the core's epoch.
    Monitor(MonitorId, CoordinatorToMonitor),
    /// A liveness event for the runner (quarantine or recovery).
    Runner(CoordinatorToRunner),
    /// A record for the checkpoint WAL.
    Wal(WalRecord),
}

/// What [`CoordinatorCore::advance`] reached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Progress {
    /// The round waits for more monitor frames or the deadline event.
    Wait,
    /// The round closed; a new one has begun.
    Summary(TickSummary),
    /// An injected coordinator crash fired: the primary vanished after
    /// collecting the tick, without a summary or a checkpoint of it.
    Crashed,
}

/// The coordinator's protocol state machine: evaluates the global
/// condition on local-violation reports and periodically redistributes
/// the error allowance (§IV), tolerating crashed, stalled and lossy
/// monitors via deadlines, quarantine and degraded aggregation, and
/// checkpointing for an epoch-fenced warm standby. Sans-IO: see the
/// [module docs](self).
#[derive(Debug)]
pub struct CoordinatorCore {
    global_threshold: f64,
    local_thresholds: Vec<f64>,
    allocator: ErrorAllocator,
    slack_ratio: f64,
    update_period: u64,
    next_update_tick: Tick,
    adaptive_allocation: bool,
    faults: FaultPlan,
    quarantine_after: u32,
    epoch: u64,
    checkpoint: Option<Checkpointer>,
    /// Multi-task follower gate (§II.B): present only on follower-task
    /// coordinators driven by a [`LeaderState`] feed.
    ///
    /// [`LeaderState`]: MonitorToCoordinator::LeaderState
    multitask: Option<FollowerGate>,
    counters: Option<CoreCounters>,
    // Liveness, per monitor.
    quarantined: Vec<bool>,
    /// A quarantined monitor showing signs of life (a `Revived` notice
    /// from the runner's supervisor, or a *fresh* frame of its own): the
    /// next collection awaits it again so it can re-earn active status.
    reviving: Vec<bool>,
    consecutive_missed: Vec<u32>,
    /// Monitors that sent a stale-epoch frame and owe an epoch repair.
    needs_epoch: Vec<bool>,
    /// Whether each monitor's process can still be reached (a crashed
    /// one cannot be sent anything until it is restarted).
    link_up: Vec<bool>,
    last_tick: Option<Tick>,
    // The round in progress; per-monitor vectors are reused.
    phase: Phase,
    expired: bool,
    waits: u64,
    round_tick: Option<Tick>,
    /// The summary being tallied.
    round: TickSummary,
    seen: Vec<bool>,
    awaiting: Vec<bool>,
    replied: Vec<bool>,
    aggregate: f64,
    reports: Vec<Option<PeriodReport>>,
    received: usize,
    snaps: Vec<Option<SamplerSnapshot>>,
    outputs: Vec<CoordinatorOutput>,
}

/// The monitor a protocol message claims to come from; `None` for
/// runner-originated control notices that speak for no monitor.
fn msg_sender(msg: &MonitorToCoordinator) -> Option<MonitorId> {
    match *msg {
        MonitorToCoordinator::TickDone { monitor, .. }
        | MonitorToCoordinator::PollReply { monitor, .. }
        | MonitorToCoordinator::Report { monitor, .. }
        | MonitorToCoordinator::Revived { monitor }
        | MonitorToCoordinator::StateSnapshot { monitor, .. } => Some(monitor),
        MonitorToCoordinator::LeaderState { .. } => None,
    }
}

/// Whether `msg` is *fresh* evidence of life — something a live monitor
/// would send now, as opposed to a delayed or replayed frame from an
/// already-closed tick. Only fresh evidence may resurrect a quarantined
/// monitor: awaiting one again on a stale delayed frame would stall every
/// round on a monitor that is in fact dead.
fn is_fresh(msg: &MonitorToCoordinator, last_tick: Option<Tick>) -> bool {
    match *msg {
        MonitorToCoordinator::Revived { .. } => true,
        MonitorToCoordinator::TickDone { tick, .. }
        | MonitorToCoordinator::PollReply { tick, .. } => last_tick.is_none_or(|lt| tick > lt),
        MonitorToCoordinator::Report { .. }
        | MonitorToCoordinator::StateSnapshot { .. }
        | MonitorToCoordinator::LeaderState { .. } => false,
    }
}

impl CoordinatorCore {
    /// Creates a coordinator for the monitors whose local thresholds are
    /// `local_thresholds` (one per monitor, used for degraded
    /// aggregation), sharing `global_threshold` and the allocator's
    /// global allowance.
    ///
    /// `adaptive_allocation` selects between the paper's `adapt` scheme
    /// and the static `even` baseline; `slack_ratio` must match the
    /// monitors' adaptation `γ`.
    pub fn new(
        global_threshold: f64,
        local_thresholds: Vec<f64>,
        allocator: ErrorAllocator,
        slack_ratio: f64,
        adaptive_allocation: bool,
    ) -> Self {
        let n = local_thresholds.len();
        let update_period = allocator.config().update_period_ticks;
        CoordinatorCore {
            global_threshold,
            local_thresholds,
            allocator,
            slack_ratio,
            update_period,
            next_update_tick: update_period,
            adaptive_allocation,
            faults: FaultPlan::default(),
            quarantine_after: DEFAULT_QUARANTINE_AFTER,
            epoch: 0,
            checkpoint: None,
            multitask: None,
            counters: None,
            quarantined: vec![false; n],
            reviving: vec![false; n],
            consecutive_missed: vec![0; n],
            needs_epoch: vec![false; n],
            link_up: vec![true; n],
            last_tick: None,
            phase: Phase::Collect,
            expired: false,
            waits: 0,
            round_tick: None,
            round: TickSummary::default(),
            seen: vec![false; n],
            awaiting: vec![false; n],
            replied: vec![false; n],
            aggregate: 0.0,
            reports: vec![None; n],
            received: 0,
            snaps: vec![None; n],
            outputs: Vec::new(),
        }
    }

    /// [`new`](Self::new) for `spec`: its thresholds and slack ratio, with
    /// the task's error allowance split by `allocation`.
    ///
    /// # Errors
    ///
    /// [`VolleyError`] when the allocator rejects `allocation`.
    pub fn for_spec(
        spec: &TaskSpec,
        allocation: AllocationConfig,
        adaptive_allocation: bool,
    ) -> Result<Self, VolleyError> {
        let n = spec.monitors().len();
        let allocator = ErrorAllocator::new(allocation, spec.adaptation().error_allowance(), n)?;
        Ok(CoordinatorCore::new(
            spec.global_threshold(),
            spec.monitors().iter().map(|m| m.local_threshold).collect(),
            allocator,
            spec.adaptation().slack_ratio(),
            adaptive_allocation,
        ))
    }

    /// Enables the §II.B follower gate: while the leader task is calm
    /// (per [`LeaderState`](MonitorToCoordinator::LeaderState) notices
    /// fed by the runner), every monitor of this task is paced to at most
    /// one sample per `gated_interval` ticks (minimum 2 — a gate of 1
    /// would suppress nothing). The gate starts released and engages on
    /// the first calm notice.
    #[must_use]
    pub fn with_multitask(mut self, gated_interval: u32) -> Self {
        self.multitask = Some(FollowerGate {
            gated_interval: gated_interval.max(2),
            engaged: false,
            flips: 0,
            suppressed: 0,
            needs_sync: false,
            broadcast: true,
        });
        self
    }

    /// Hands gate *propagation* to an external driver: the coordinator
    /// stops emitting [`CoordinatorToMonitor::SetGate`] and only tracks
    /// gate state (engage/release transitions, suppressed-sample counts,
    /// checkpointing). The runner must deliver the gate frames to each
    /// monitor itself, ahead of that tick's data, so the tick at which a
    /// gate takes effect is deterministic. Must follow
    /// [`with_multitask`](Self::with_multitask).
    #[must_use]
    pub fn with_external_gate_driver(mut self) -> Self {
        if let Some(gate) = self.multitask.as_mut() {
            gate.broadcast = false;
        }
        self
    }

    /// Restores follower-gate state from a checkpoint (failover resume).
    /// Must follow [`with_multitask`](Self::with_multitask); an engaged
    /// gate is re-broadcast to the (fresh, ungated) monitors at the end
    /// of the first round, so suppression survives the failover intact.
    #[must_use]
    pub fn with_multitask_resume(mut self, snapshot: &MultitaskSnapshot) -> Self {
        if let Some(gate) = self.multitask.as_mut() {
            gate.engaged = snapshot.engaged;
            gate.flips = snapshot.flips;
            gate.suppressed = snapshot.suppressed;
            gate.needs_sync = snapshot.engaged;
        }
        self
    }

    /// Installs a deterministic fault plan for the monitor→coordinator
    /// message paths (drops, partitions, coordinator crashes).
    #[must_use]
    pub fn with_fault_plan(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Counts global polls, suppressed samples and gate flips into `obs`.
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        let registry = obs.registry();
        self.counters = Some(CoreCounters {
            polls: registry.counter(names::COORDINATOR_POLLS_TOTAL),
            suppressed: registry.counter(names::MULTITASK_SUPPRESSED_SAMPLES_TOTAL),
            gate_flips: registry.counter(names::MULTITASK_GATE_FLIPS_TOTAL),
        });
        self
    }

    /// Sets how many consecutive missed deadlines quarantine a monitor
    /// (minimum 1).
    #[must_use]
    pub fn with_quarantine_after(mut self, rounds: u32) -> Self {
        self.quarantine_after = rounds.max(1);
        self
    }

    /// Seals every control frame at `epoch` and rejects monitor frames
    /// from older epochs. A standby taking over bumps the epoch so the
    /// fleet can tell the new primary's traffic from the old one's.
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Resumes after a failover: `last_tick` is the last tick the
    /// previous incarnation closed (`None` if none completed) and
    /// `next_update_tick` restores the §IV-B reallocation schedule.
    #[must_use]
    pub fn with_resume(mut self, last_tick: Option<Tick>, next_update_tick: Tick) -> Self {
        self.last_tick = last_tick;
        self.next_update_tick = next_update_tick;
        if let Some(cp) = self.checkpoint.as_mut() {
            cp.next = last_tick.map_or(0, |t| t + cp.every);
        }
        self
    }

    /// Checkpoints: every tick outcome becomes a [`WalRecord`] output,
    /// and every `every` ticks (minimum 1) the round gathers a full
    /// snapshot of its own and every reachable monitor's adaptation
    /// state.
    #[must_use]
    pub fn with_checkpoint(mut self, every: u64) -> Self {
        let every = every.max(1);
        let next = self.last_tick.map_or(0, |t| t + every);
        self.checkpoint = Some(Checkpointer { every, next });
        self
    }

    /// The epoch this coordinator seals its frames with.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// How many waiting phases have begun so far. A driver restarts its
    /// deadline clock whenever this changes.
    pub fn waits(&self) -> u64 {
        self.waits
    }

    /// Marks monitor `idx`'s process reachable or not: messages to an
    /// unreachable process fail, exactly like sends into a dead inbox.
    pub fn set_link(&mut self, idx: usize, up: bool) {
        self.link_up[idx] = up;
    }

    /// The pending outputs, to be swapped out and carried out.
    pub fn outputs(&mut self) -> &mut Vec<CoordinatorOutput> {
        &mut self.outputs
    }

    fn monitors(&self) -> usize {
        self.local_thresholds.len()
    }

    /// Whether monitor `idx` is reachable (not partitioned) at `tick`.
    fn reachable(&self, idx: usize, tick: Tick) -> bool {
        !self.faults.partitioned(MonitorId(idx as u32), tick)
    }

    fn any_quarantined(&self) -> bool {
        self.quarantined.iter().any(|&q| q)
    }

    /// Marks evidence that a quarantined monitor is alive again.
    fn mark_reviving(&mut self, idx: usize) {
        if self.quarantined[idx] && !self.reviving[idx] {
            self.reviving[idx] = true;
            self.consecutive_missed[idx] = 0;
        }
    }

    /// Queues a control message for monitor `idx`; `false` when its
    /// process is unreachable.
    fn send(&mut self, idx: usize, msg: CoordinatorToMonitor) -> bool {
        if !self.link_up[idx] {
            return false;
        }
        self.outputs
            .push(CoordinatorOutput::Monitor(MonitorId(idx as u32), msg));
        true
    }

    /// Feeds one received frame: enforces the epoch fence, notes *fresh*
    /// life signs from quarantined monitors, consumes supervisor
    /// `Revived` notices and hands the message to the current phase
    /// (messages no phase wants — late, duplicated or foreign — are
    /// dropped).
    pub fn on_frame(&mut self, frame: MonitorFrame) {
        let n = self.monitors();
        let sender = msg_sender(&frame.msg)
            .map(|id| id.0 as usize)
            .filter(|&i| i < n);
        if frame.epoch < self.epoch {
            // A frame from before the failover — e.g. a monitor that
            // missed the NewEpoch broadcast behind a partition, or
            // traffic from the deposed primary's world. Reject it
            // (split-brain safety) but schedule an epoch repair so the
            // sender can rejoin the current epoch.
            self.round.stale_epoch_frames += 1;
            if let Some(idx) = sender {
                self.needs_epoch[idx] = true;
            }
            return;
        }
        if let Some(idx) = sender {
            if is_fresh(&frame.msg, self.last_tick) {
                self.mark_reviving(idx);
            }
        }
        match (self.phase, frame.msg) {
            (Phase::Collect, MonitorToCoordinator::LeaderState { active, .. }) => {
                // The runner feeds leader-state notices ahead of a tick's
                // data, so the gate decision lands before this round's
                // reports are produced downstream.
                self.apply_leader_state(active);
            }
            (
                Phase::Collect,
                MonitorToCoordinator::TickDone {
                    monitor,
                    tick,
                    sampled,
                    violation,
                    suppressed,
                },
            ) => self.collect(monitor, tick, sampled, violation, suppressed),
            (
                Phase::Poll,
                MonitorToCoordinator::PollReply {
                    monitor,
                    tick,
                    value,
                    forced_sample,
                },
            ) => {
                let idx = monitor.0 as usize;
                if idx >= n || tick != self.round.tick || self.replied[idx] {
                    return; // stale, foreign or duplicated reply
                }
                if self.faults.drops(FaultPath::PollReply, monitor, tick) {
                    return; // the network ate this reply
                }
                self.replied[idx] = true;
                self.aggregate += value;
                if forced_sample {
                    self.round.poll_samples += 1;
                }
            }
            (Phase::Reports, MonitorToCoordinator::Report { monitor, report }) => {
                let idx = monitor.0 as usize;
                if idx < n && self.reports[idx].is_none() {
                    self.reports[idx] = Some(report);
                    self.received += 1;
                }
            }
            (Phase::Snapshots, MonitorToCoordinator::StateSnapshot { monitor, snapshot }) => {
                if let Some(slot) = self.snaps.get_mut(monitor.0 as usize) {
                    *slot = Some(snapshot);
                }
            }
            _ => {}
        }
    }

    /// The deadline of the current waiting phase passed: the phase
    /// ends with whatever arrived.
    pub fn on_deadline(&mut self) {
        self.expired = true;
    }

    /// One `TickDone` during collection.
    fn collect(
        &mut self,
        monitor: MonitorId,
        t: Tick,
        sampled: bool,
        violation: bool,
        suppressed: bool,
    ) {
        let idx = monitor.0 as usize;
        if idx >= self.monitors() {
            return;
        }
        match self.round_tick {
            None => {
                if self.last_tick.is_some_and(|lt| t <= lt) {
                    return; // late frame for an already-closed tick
                }
                self.round_tick = Some(t);
            }
            // A late frame, or one from a tick the lock-step has not
            // started (no driver sends ahead of a summary).
            Some(rt) if t != rt => return,
            Some(_) => {}
        }
        if self.seen[idx] {
            return; // duplicated frame
        }
        self.seen[idx] = true;
        self.consecutive_missed[idx] = 0;
        if self.quarantined[idx] {
            self.quarantined[idx] = false;
            self.reviving[idx] = false;
            let event = CoordinatorToRunner::MonitorRecovered { monitor, tick: t };
            self.outputs.push(CoordinatorOutput::Runner(event));
        }
        if sampled {
            self.round.scheduled_samples += 1;
        }
        if suppressed {
            self.round.suppressed_samples += 1;
        }
        // The report path may be lossy: a dropped report means the
        // coordinator never learns of the local violation.
        if violation && !self.faults.drops(FaultPath::ViolationReport, monitor, t) {
            self.round.local_violations += 1;
        }
    }

    /// Whether collection is complete: every awaited monitor — active
    /// ones plus quarantined ones showing signs of life, minus any the
    /// fault plan has partitioned away — reported, and at least one is
    /// awaited. When nothing at all is awaited the round waits out the
    /// deadline, which throttles the loop and gives `Revived` notices a
    /// chance to arrive. Partitioned monitors are never waited for but
    /// still count as missing, so a long partition quarantines them.
    fn collected(&self) -> bool {
        let expect = self
            .round_tick
            .unwrap_or_else(|| self.last_tick.map_or(0, |t| t + 1));
        let mut any = false;
        for i in 0..self.monitors() {
            if (!self.quarantined[i] || self.reviving[i]) && self.reachable(i, expect) {
                if !self.seen[i] {
                    return false;
                }
                any = true;
            }
        }
        any
    }

    /// Runs the round as far as the inputs so far allow, queueing its
    /// outputs. Call after every batch of inputs.
    pub fn advance(&mut self) -> Progress {
        let n = self.monitors();
        loop {
            let expired = std::mem::take(&mut self.expired);
            match self.phase {
                Phase::Crashed => return Progress::Crashed,
                Phase::Collect => {
                    if !expired && !self.collected() {
                        return Progress::Wait;
                    }
                    self.close_collection();
                }
                Phase::Poll => {
                    if !expired && (0..n).any(|i| self.awaiting[i] && !self.replied[i]) {
                        return Progress::Wait;
                    }
                    // Degraded aggregation: every monitor that did not
                    // answer is counted at its local threshold T_i — the
                    // largest value it could hold without having reported
                    // a local violation.
                    for idx in 0..n {
                        if !self.replied[idx] {
                            self.aggregate += self.local_thresholds[idx];
                            self.round.degraded = true;
                        }
                    }
                    self.round.alerted = self.aggregate > self.global_threshold;
                    self.phase = Phase::Realloc;
                }
                Phase::Realloc => {
                    self.phase = Phase::Checkpoint;
                    if self.round.tick >= self.next_update_tick {
                        self.next_update_tick = self.round.tick + self.update_period;
                        if self.adaptive_allocation && n > 1 {
                            self.request_reports();
                        }
                    }
                }
                Phase::Reports => {
                    if !expired && self.received < n {
                        return Progress::Wait;
                    }
                    if self.received == n {
                        self.reallocate();
                    }
                    self.phase = Phase::Checkpoint;
                }
                Phase::Checkpoint => {
                    self.phase = Phase::Close;
                    self.checkpoint_tick();
                }
                Phase::Snapshots => {
                    if !expired && (0..n).any(|i| self.awaiting[i] && self.snaps[i].is_none()) {
                        return Progress::Wait;
                    }
                    self.write_snapshot();
                    self.phase = Phase::Close;
                }
                Phase::Close => return Progress::Summary(self.close_round()),
            }
        }
    }

    /// Ends collection: fixes the round's tick, fires an injected crash,
    /// runs the deadline bookkeeping and starts a global poll on any
    /// surviving local violation.
    fn close_collection(&mut self) {
        let n = self.monitors();
        // Nothing arrived (every monitor quarantined or silent): the
        // lock-step still advances one tick so the runner — which sent
        // this tick's data — gets its summary.
        let tick = self
            .round_tick
            .unwrap_or_else(|| self.last_tick.map_or(0, |t| t + 1));
        self.round.tick = tick;
        self.last_tick = Some(tick);

        // An injected coordinator crash: the primary vanishes without a
        // summary and without checkpointing this tick, exactly as a real
        // crash mid-round would — tick `tick` is newer than the
        // checkpoint horizon and the standby must re-drive it.
        if self
            .faults
            .coordinator_crash_tick()
            .is_some_and(|c| tick >= c)
        {
            self.phase = Phase::Crashed;
            return;
        }

        // Deadline bookkeeping: missed reports, quarantine decisions.
        for idx in 0..n {
            if self.quarantined[idx] {
                self.round.missing_reports += 1;
                // A reviving monitor that keeps missing deadlines loses
                // its comeback credit (stop waiting for it again).
                if self.reviving[idx] {
                    self.consecutive_missed[idx] += 1;
                    if self.consecutive_missed[idx] >= self.quarantine_after {
                        self.reviving[idx] = false;
                    }
                }
                continue;
            }
            if self.seen[idx] {
                continue;
            }
            self.round.missing_reports += 1;
            self.consecutive_missed[idx] += 1;
            if self.consecutive_missed[idx] >= self.quarantine_after {
                self.quarantined[idx] = true;
                let event = CoordinatorToRunner::MonitorQuarantined {
                    monitor: MonitorId(idx as u32),
                    tick,
                    consecutive_missed: self.consecutive_missed[idx],
                };
                self.outputs.push(CoordinatorOutput::Runner(event));
            }
        }

        if self.round.local_violations == 0 {
            if self.any_quarantined() {
                self.round.degraded = self.round.missing_reports > 0;
            }
            self.phase = Phase::Realloc;
            return;
        }
        // Global poll. Wait only for monitors that can answer in time:
        // active, reachable, poll deliverable, reply neither dropped nor
        // delayed by the plan (drop/delay decisions are pure functions
        // shared with the injection sites, so predicting them here
        // changes nothing about outcomes — it only avoids pointless
        // deadline waits).
        self.round.polled = true;
        if let Some(counters) = &self.counters {
            counters.polls.inc();
        }
        self.replied.fill(false);
        for idx in 0..n {
            self.awaiting[idx] = false;
            if self.quarantined[idx] || !self.reachable(idx, tick) {
                continue; // unreachable; aggregate at T_i
            }
            if !self.send(idx, CoordinatorToMonitor::Poll { tick }) {
                continue; // monitor process gone; aggregate at T_i
            }
            let monitor = MonitorId(idx as u32);
            self.awaiting[idx] = !self.faults.drops(FaultPath::PollReply, monitor, tick)
                && !self.faults.delays(monitor, tick);
        }
        self.phase = Phase::Poll;
        self.waits += 1;
    }

    /// Starts a §IV-B updating round: every monitor is asked for its
    /// period report. If any monitor is quarantined or unreachable the
    /// round is skipped and every monitor simply carries its previous
    /// allowance forward — reallocation is an optimization, never worth
    /// stalling the task over.
    fn request_reports(&mut self) {
        if self.any_quarantined() {
            return;
        }
        for idx in 0..self.monitors() {
            if !self.send(idx, CoordinatorToMonitor::RequestReport) {
                return; // dead monitor: skip the round
            }
        }
        self.reports.fill(None);
        self.received = 0;
        self.phase = Phase::Reports;
        self.waits += 1;
    }

    /// Updates the allocator from a full set of period reports and pushes
    /// the new allowances.
    fn reallocate(&mut self) {
        let reports: Vec<PeriodReport> = self.reports.iter_mut().filter_map(Option::take).collect();
        if let Ok(decision) = self.allocator.update(&reports, self.slack_ratio) {
            if decision.reallocated {
                for (idx, &err) in decision.allowances.iter().enumerate() {
                    self.send(idx, CoordinatorToMonitor::SetAllowance { err });
                }
            }
        }
    }

    /// Emits the tick outcome for the WAL and, on the snapshot schedule,
    /// asks every active, reachable monitor for its sampler state.
    /// Monitors that cannot answer in time get a `None` slot — after a
    /// failover they restart conservatively at `I_d` instead of
    /// restoring.
    fn checkpoint_tick(&mut self) {
        let tick = self.round.tick;
        let Some(cp) = self.checkpoint.as_mut() else {
            return;
        };
        let due = tick >= cp.next;
        if due {
            cp.next = tick + cp.every;
        }
        let outcome = TickOutcome {
            epoch: self.epoch,
            tick,
            polled: self.round.polled,
            alerted: self.round.alerted,
            local_violations: self.round.local_violations,
        };
        self.outputs
            .push(CoordinatorOutput::Wal(WalRecord::Tick(outcome)));
        if !due {
            return;
        }
        for idx in 0..self.monitors() {
            self.snaps[idx] = None;
            self.awaiting[idx] = !self.quarantined[idx]
                && self.reachable(idx, tick)
                && self.send(idx, CoordinatorToMonitor::RequestSnapshot);
        }
        self.phase = Phase::Snapshots;
        self.waits += 1;
    }

    /// Emits the gathered [`CoordinatorSnapshot`].
    fn write_snapshot(&mut self) {
        let snapshot = CoordinatorSnapshot {
            epoch: self.epoch,
            tick: self.round.tick,
            next_update_tick: self.next_update_tick,
            allowances: self.allocator.allowances().to_vec(),
            samplers: self.snaps.clone(),
            multitask: self.multitask.as_ref().map(|g| MultitaskSnapshot {
                engaged: g.engaged,
                flips: g.flips,
                suppressed: g.suppressed,
            }),
        };
        self.outputs
            .push(CoordinatorOutput::Wal(WalRecord::Snapshot(snapshot)));
    }

    /// Epoch repair and gate accounting, then the summary; starts the
    /// next round.
    fn close_round(&mut self) -> TickSummary {
        // Epoch repair: answer every stale-epoch sender with the current
        // epoch so it can rejoin (its next report will be fresh and
        // current-epoch, re-earning active status the normal way).
        for idx in 0..self.monitors() {
            if std::mem::take(&mut self.needs_epoch[idx]) {
                let epoch = self.epoch;
                self.send(idx, CoordinatorToMonitor::NewEpoch { epoch });
            }
        }
        // Follower-gate accounting, plus the failover resync: a restored
        // engaged gate is pushed to the freshly spawned (ungated)
        // monitors here if no LeaderState notice beat us to it.
        let mut gated = false;
        let mut resync = None;
        if let Some(gate) = self.multitask.as_mut() {
            gate.suppressed += u64::from(self.round.suppressed_samples);
            gated = gate.engaged;
            if std::mem::take(&mut gate.needs_sync) && gate.broadcast {
                resync = Some(gate.engaged.then_some(gate.gated_interval));
            }
        }
        if let Some(interval) = resync {
            self.broadcast(CoordinatorToMonitor::SetGate { interval });
        }
        if self.round.suppressed_samples > 0 {
            if let Some(counters) = &self.counters {
                counters
                    .suppressed
                    .add(u64::from(self.round.suppressed_samples));
            }
        }
        let summary = TickSummary {
            gated,
            ..std::mem::take(&mut self.round)
        };
        self.phase = Phase::Collect;
        self.waits += 1;
        self.round_tick = None;
        self.seen.fill(false);
        self.aggregate = 0.0;
        summary
    }

    /// Queues `msg` for every monitor.
    fn broadcast(&mut self, msg: CoordinatorToMonitor) {
        for idx in 0..self.monitors() {
            self.send(idx, msg);
        }
    }

    /// Applies a leader violation-likelihood transition to the follower
    /// gate: a calm leader engages the gate (broadcast the coarse
    /// interval), an active leader releases it (broadcast the snap-back).
    /// No-op when this coordinator has no gate configured.
    fn apply_leader_state(&mut self, active: bool) {
        let Some(gate) = self.multitask.as_mut() else {
            return;
        };
        let engage = !active;
        let flip = engage != gate.engaged;
        let resync = std::mem::take(&mut gate.needs_sync);
        if !flip && !resync {
            return;
        }
        gate.engaged = engage;
        let broadcast = gate.broadcast;
        let interval = engage.then_some(gate.gated_interval);
        if flip {
            gate.flips += 1;
            if let Some(counters) = &self.counters {
                counters.gate_flips.inc();
            }
        }
        if broadcast {
            self.broadcast(CoordinatorToMonitor::SetGate { interval });
        }
    }
}

/// Pre-resolved obs instruments for the timed spans around the core and
/// the channel driver's transport counter.
#[derive(Debug)]
struct CoordinatorObsHandles {
    spans: SpanLog,
    tick_hist: Histogram,
    wal_hist: Histogram,
    checkpoint_hist: Histogram,
    recvs: Counter,
}

/// A coordinator ready to be driven: the sans-IO [`CoordinatorCore`]
/// plus what a driver adds to it — the deadline clock, the checkpoint WAL
/// and obs timing. [`run`](Self::run) drives it from a channel on its own
/// thread (the socket transport's path); the in-process runners step the
/// same core inline on the caller's thread.
#[derive(Debug)]
pub struct CoordinatorActor {
    pub(crate) core: CoordinatorCore,
    tick_deadline: Duration,
    wal: Option<Wal>,
    obs: Option<CoordinatorObsHandles>,
    // The driver clock (see `clock`): waiting phases begun so far, and
    // when the current phase and the current round began.
    waits: u64,
    phase_started: Instant,
    round_started: Instant,
}

impl CoordinatorActor {
    /// Wraps `core` with the default tick deadline, no WAL and no obs.
    pub fn new(core: CoordinatorCore) -> Self {
        CoordinatorActor {
            waits: core.waits(),
            core,
            tick_deadline: DEFAULT_TICK_DEADLINE,
            wal: None,
            obs: None,
            phase_started: Instant::now(),
            round_started: Instant::now(),
        }
    }

    /// Bounds how long each waiting phase of a round waits for monitor
    /// replies (minimum 1 ms).
    #[must_use]
    pub fn with_tick_deadline(mut self, deadline: Duration) -> Self {
        self.tick_deadline = deadline.max(Duration::from_millis(1));
        self
    }

    /// Checkpoints to `wal` every `every` ticks (see
    /// [`CoordinatorCore::with_checkpoint`]). WAL I/O errors are
    /// swallowed: durability is best-effort (a standby restoring from a
    /// short WAL just restarts the missing state conservatively).
    #[must_use]
    pub fn with_checkpoint(mut self, wal: Wal, every: u64) -> Self {
        self.core = self.core.with_checkpoint(every);
        self.wal = Some(wal);
        self
    }

    /// Attaches observability: spans + latency histograms for the tick
    /// round ([`names::COORDINATOR_TICK_NS`]), WAL appends
    /// ([`names::WAL_APPEND_NS`]) and snapshot writes
    /// ([`names::CHECKPOINT_WRITE_NS`]), the core's counters, and a
    /// count of the frames the channel driver receives. Handles are
    /// resolved once so the tick loop never touches the registry mutex.
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.core = self.core.with_obs(obs);
        let registry = obs.registry();
        self.obs = Some(CoordinatorObsHandles {
            spans: obs.spans().clone(),
            tick_hist: registry.histogram(names::COORDINATOR_TICK_NS),
            wal_hist: registry.histogram(names::WAL_APPEND_NS),
            checkpoint_hist: registry.histogram(names::CHECKPOINT_WRITE_NS),
            recvs: registry.counter(names::TRANSPORT_RECVS_TOTAL),
        });
        self
    }

    /// Keeps the driver's clock once `progress`'s outputs are carried out:
    /// a new waiting phase restarts the deadline; a summary ends the round,
    /// timed from the previous one (waits included) and returned while obs
    /// is on. A crash closes the WAL, as the dead process's exit would.
    pub(crate) fn clock(&mut self, progress: &Progress) -> Option<(Instant, Instant)> {
        if self.core.waits() != self.waits {
            self.waits = self.core.waits();
            self.phase_started = Instant::now();
        }
        if matches!(progress, Progress::Crashed) {
            self.wal = None;
        }
        let Progress::Summary(summary) = progress else {
            return None;
        };
        let ended = self.phase_started;
        let started = std::mem::replace(&mut self.round_started, ended);
        let h = self.obs.as_ref().filter(|h| h.spans.enabled())?;
        h.tick_hist.record((ended - started).as_nanos() as u64);
        if summary.tick % TRACE_STRIDE == 0 {
            h.spans.record_span("coordinator_tick", started, ended);
        }
        Some((started, ended))
    }

    /// What is left of the current waiting phase's deadline.
    pub(crate) fn phase_left(&self) -> Duration {
        self.tick_deadline
            .saturating_sub(self.phase_started.elapsed())
    }

    /// Takes over a crashed `predecessor`'s round and its start time.
    pub(crate) fn succeed(&mut self, predecessor: &CoordinatorActor) {
        self.round_started = predecessor.round_started;
    }

    /// Appends one record the core emitted to the WAL, timed.
    pub(crate) fn persist(&mut self, record: &WalRecord) {
        let Some(wal) = self.wal.as_mut() else {
            return;
        };
        let obs = self.obs.as_ref();
        match record {
            WalRecord::Tick(_) => {
                let _timed = obs.map(|h| h.spans.span_timed("wal_append", &h.wal_hist));
                let _ = wal.append(record);
            }
            WalRecord::Snapshot(snapshot) => {
                let _timed =
                    obs.map(|h| h.spans.span_timed("checkpoint_write", &h.checkpoint_hist));
                let _ = wal.append_snapshot(snapshot);
            }
        }
    }

    /// Drives the core from channels until the monitor channel
    /// disconnects, the runner goes away or an injected crash fires,
    /// consuming the actor.
    ///
    /// `from_monitors` carries encoded [`MonitorFrame`]s; `to_monitors[i]`
    /// is monitor *i*'s link (assumed up: the socket transport's tagged
    /// links never refuse a frame); each tick's
    /// [`CoordinatorToRunner::Summary`] — interleaved with quarantine and
    /// recovery events — is emitted on `to_runner`. Each waiting phase
    /// ends `tick_deadline` after it began.
    pub fn run(
        mut self,
        from_monitors: Receiver<Bytes>,
        to_monitors: Vec<MonitorLink>,
        to_runner: Sender<Bytes>,
    ) {
        debug_assert_eq!(to_monitors.len(), self.core.monitors());
        let mut outputs = Vec::new();
        loop {
            let progress = self.core.advance();
            std::mem::swap(&mut outputs, self.core.outputs());
            let epoch = self.core.epoch();
            for output in outputs.drain(..) {
                match output {
                    CoordinatorOutput::Monitor(id, msg) => {
                        let _ = to_monitors[id.0 as usize].send(ControlFrame::seal(epoch, msg));
                    }
                    CoordinatorOutput::Runner(event) => {
                        if to_runner.send(encode(&event)).is_err() {
                            return;
                        }
                    }
                    CoordinatorOutput::Wal(record) => self.persist(&record),
                }
            }
            self.clock(&progress);
            match progress {
                Progress::Crashed => return,
                Progress::Summary(summary) => {
                    let frame = encode(&CoordinatorToRunner::Summary(summary));
                    if to_runner.send(frame).is_err() {
                        return;
                    }
                    continue;
                }
                Progress::Wait => {}
            }
            let remaining = self.phase_left();
            if remaining.is_zero() {
                self.core.on_deadline();
                continue;
            }
            match from_monitors.recv_timeout(remaining) {
                Ok(bytes) => {
                    if let Some(handles) = &self.obs {
                        handles.recvs.inc();
                    }
                    // Malformed frames are dropped, as a socket server would.
                    if let Ok(frame) = decode::<MonitorFrame>(&bytes) {
                        self.core.on_frame(frame);
                    }
                }
                Err(RecvTimeoutError::Timeout) => self.core.on_deadline(),
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Replay;
    use crossbeam::channel::unbounded;
    use std::path::PathBuf;
    use volley_core::allocation::AllocationConfig;

    /// Receives runner frames until the next tick summary, returning it
    /// plus any liveness events seen on the way.
    fn next_summary(runner_rx: &Receiver<Bytes>) -> (TickSummary, Vec<CoordinatorToRunner>) {
        let mut events = Vec::new();
        loop {
            let frame = runner_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("coordinator alive");
            match decode::<CoordinatorToRunner>(&frame).expect("well-formed frame") {
                CoordinatorToRunner::Summary(summary) => return (summary, events),
                event => events.push(event),
            }
        }
    }

    fn new_core(threshold: f64) -> CoordinatorCore {
        let allocator = ErrorAllocator::new(AllocationConfig::default(), 0.01, 1).unwrap();
        CoordinatorCore::new(threshold, vec![threshold], allocator, 0.2, true)
    }

    fn new_coordinator(threshold: f64) -> CoordinatorActor {
        CoordinatorActor::new(new_core(threshold))
    }

    /// Drives a 1-monitor coordinator by hand: send sealed frames,
    /// receive summaries.
    fn harness_with(
        coord: CoordinatorActor,
    ) -> (
        Sender<Bytes>,
        Receiver<Bytes>,
        Receiver<Bytes>,
        std::thread::JoinHandle<()>,
    ) {
        let (mon_tx, mon_rx) = unbounded::<Bytes>();
        let (to_mon_tx, to_mon_rx) = unbounded::<Bytes>();
        let (runner_tx, runner_rx) = unbounded::<Bytes>();
        let handle = std::thread::spawn(move || {
            coord.run(mon_rx, vec![MonitorLink::new(to_mon_tx)], runner_tx)
        });
        (mon_tx, to_mon_rx, runner_rx, handle)
    }

    fn harness(
        threshold: f64,
    ) -> (
        Sender<Bytes>,
        Receiver<Bytes>,
        Receiver<Bytes>,
        std::thread::JoinHandle<()>,
    ) {
        harness_with(new_coordinator(threshold))
    }

    fn seal0(msg: MonitorToCoordinator) -> Bytes {
        MonitorFrame::seal(0, msg)
    }

    #[test]
    fn quiet_tick_produces_summary_without_poll() {
        let (mon_tx, _to_mon, runner_rx, handle) = harness(100.0);
        mon_tx
            .send(seal0(MonitorToCoordinator::TickDone {
                monitor: MonitorId(0),
                tick: 0,
                sampled: true,
                violation: false,
                suppressed: false,
            }))
            .unwrap();
        let (summary, events) = next_summary(&runner_rx);
        assert_eq!(summary.tick, 0);
        assert_eq!(summary.scheduled_samples, 1);
        assert!(!summary.polled);
        assert!(!summary.alerted);
        assert_eq!(summary.missing_reports, 0);
        assert!(!summary.degraded);
        assert_eq!(summary.stale_epoch_frames, 0);
        assert!(events.is_empty());
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn violation_triggers_poll_and_alert() {
        let (mon_tx, to_mon, runner_rx, handle) = harness(100.0);
        mon_tx
            .send(seal0(MonitorToCoordinator::TickDone {
                monitor: MonitorId(0),
                tick: 3,
                sampled: true,
                violation: true,
                suppressed: false,
            }))
            .unwrap();
        // Coordinator must ask for a poll, sealed at its epoch.
        let poll: ControlFrame = decode(&to_mon.recv().unwrap()).unwrap();
        assert_eq!(poll.epoch, 0);
        assert!(matches!(poll.msg, CoordinatorToMonitor::Poll { tick: 3 }));
        // Reply above the threshold.
        mon_tx
            .send(seal0(MonitorToCoordinator::PollReply {
                monitor: MonitorId(0),
                tick: 3,
                value: 250.0,
                forced_sample: false,
            }))
            .unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert!(summary.polled);
        assert!(summary.alerted);
        assert!(!summary.degraded);
        assert_eq!(summary.local_violations, 1);
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn poll_below_threshold_does_not_alert() {
        let (mon_tx, to_mon, runner_rx, handle) = harness(100.0);
        mon_tx
            .send(seal0(MonitorToCoordinator::TickDone {
                monitor: MonitorId(0),
                tick: 0,
                sampled: true,
                violation: true,
                suppressed: false,
            }))
            .unwrap();
        let _: ControlFrame = decode(&to_mon.recv().unwrap()).unwrap();
        mon_tx
            .send(seal0(MonitorToCoordinator::PollReply {
                monitor: MonitorId(0),
                tick: 0,
                value: 50.0,
                forced_sample: true,
            }))
            .unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert!(summary.polled);
        assert!(!summary.alerted);
        assert_eq!(summary.poll_samples, 1);
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn dropped_reports_suppress_polls() {
        let (mon_tx, mon_rx) = unbounded::<Bytes>();
        let (to_mon_tx, to_mon_rx) = unbounded::<Bytes>();
        let (runner_tx, runner_rx) = unbounded::<Bytes>();
        // Drop every report.
        let plan = FaultPlan::new(1).with_drop_rate(FaultPath::ViolationReport, 1.0);
        let coord = CoordinatorActor::new(new_core(100.0).with_fault_plan(plan));
        let handle = std::thread::spawn(move || {
            coord.run(mon_rx, vec![MonitorLink::new(to_mon_tx)], runner_tx)
        });
        mon_tx
            .send(seal0(MonitorToCoordinator::TickDone {
                monitor: MonitorId(0),
                tick: 0,
                sampled: true,
                violation: true,
                suppressed: false,
            }))
            .unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert!(!summary.polled, "dropped report must suppress the poll");
        assert_eq!(summary.local_violations, 0);
        assert!(to_mon_rx.try_recv().is_err());
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn disconnect_terminates_coordinator() {
        let (mon_tx, _to_mon, _runner_rx, handle) = harness(10.0);
        drop(mon_tx);
        handle.join().unwrap();
    }

    /// A 2-monitor core for fault tests.
    fn degraded_core(quarantine_after: u32) -> CoordinatorCore {
        let allocator = ErrorAllocator::new(AllocationConfig::default(), 0.01, 2).unwrap();
        CoordinatorCore::new(100.0, vec![50.0, 50.0], allocator, 0.2, false)
            .with_quarantine_after(quarantine_after)
    }

    /// [`degraded_core`] behind a channel driver with a short deadline.
    fn degraded_coordinator(quarantine_after: u32) -> CoordinatorActor {
        CoordinatorActor::new(degraded_core(quarantine_after))
            .with_tick_deadline(Duration::from_millis(30))
    }

    #[allow(clippy::type_complexity)]
    fn degraded_harness_with(
        coord: CoordinatorActor,
    ) -> (
        Sender<Bytes>,
        Receiver<Bytes>,
        Receiver<Bytes>,
        Receiver<Bytes>,
        std::thread::JoinHandle<()>,
    ) {
        let (mon_tx, mon_rx) = unbounded::<Bytes>();
        let (to_mon0_tx, to_mon0_rx) = unbounded::<Bytes>();
        let (to_mon1_tx, to_mon1_rx) = unbounded::<Bytes>();
        let (runner_tx, runner_rx) = unbounded::<Bytes>();
        let handle = std::thread::spawn(move || {
            coord.run(
                mon_rx,
                vec![MonitorLink::new(to_mon0_tx), MonitorLink::new(to_mon1_tx)],
                runner_tx,
            )
        });
        (mon_tx, to_mon0_rx, to_mon1_rx, runner_rx, handle)
    }

    #[allow(clippy::type_complexity)]
    fn degraded_harness(
        quarantine_after: u32,
    ) -> (
        Sender<Bytes>,
        Receiver<Bytes>,
        Receiver<Bytes>,
        Receiver<Bytes>,
        std::thread::JoinHandle<()>,
    ) {
        degraded_harness_with(degraded_coordinator(quarantine_after))
    }

    fn tick_done(monitor: u32, tick: Tick, violation: bool) -> Bytes {
        seal0(MonitorToCoordinator::TickDone {
            monitor: MonitorId(monitor),
            tick,
            sampled: true,
            violation,
            suppressed: false,
        })
    }

    #[test]
    fn silent_monitor_is_quarantined_then_aggregated_at_threshold() {
        let (mon_tx, to_mon0, _to_mon1, runner_rx, handle) = degraded_harness(2);
        // Monitor 1 never reports. Two rounds of misses quarantine it.
        for tick in 0..2 {
            mon_tx.send(tick_done(0, tick, false)).unwrap();
            let (summary, events) = next_summary(&runner_rx);
            assert_eq!(summary.tick, tick);
            assert_eq!(summary.missing_reports, 1);
            if tick == 1 {
                assert!(matches!(
                    events.as_slice(),
                    [CoordinatorToRunner::MonitorQuarantined {
                        monitor: MonitorId(1),
                        consecutive_missed: 2,
                        ..
                    }]
                ));
            } else {
                assert!(events.is_empty());
            }
        }
        // Quarantined: the next round completes instantly and a local
        // violation polls only monitor 0, with monitor 1 counted at its
        // local threshold T_1 = 50 → 60 + 50 > 100 alerts (degraded).
        mon_tx.send(tick_done(0, 2, true)).unwrap();
        let poll: ControlFrame = decode(&to_mon0.recv().unwrap()).unwrap();
        assert!(matches!(poll.msg, CoordinatorToMonitor::Poll { tick: 2 }));
        mon_tx
            .send(seal0(MonitorToCoordinator::PollReply {
                monitor: MonitorId(0),
                tick: 2,
                value: 60.0,
                forced_sample: false,
            }))
            .unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert!(summary.polled);
        assert!(summary.degraded, "aggregation substituted T_1");
        assert!(summary.alerted, "60 + T_1(50) > 100");
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn quarantined_monitor_recovers_on_reporting_again() {
        let (mon_tx, _to_mon0, _to_mon1, runner_rx, handle) = degraded_harness(1);
        // One missed round quarantines monitor 1 immediately.
        mon_tx.send(tick_done(0, 0, false)).unwrap();
        let (_, events) = next_summary(&runner_rx);
        assert!(matches!(
            events.as_slice(),
            [CoordinatorToRunner::MonitorQuarantined { .. }]
        ));
        // Next tick both report. Monitor 1's frame is enqueued first
        // (channel FIFO), so the round sees its life sign before the
        // active set is satisfied: recovery event, full strength again.
        mon_tx.send(tick_done(1, 1, false)).unwrap();
        mon_tx.send(tick_done(0, 1, false)).unwrap();
        let (summary, events) = next_summary(&runner_rx);
        assert_eq!(summary.missing_reports, 0);
        assert!(!summary.degraded);
        assert!(matches!(
            events.as_slice(),
            [CoordinatorToRunner::MonitorRecovered {
                monitor: MonitorId(1),
                tick: 1,
            }]
        ));
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn revived_notice_makes_the_round_await_the_monitor() {
        let (mon_tx, _to_mon0, _to_mon1, runner_rx, handle) = degraded_harness(1);
        mon_tx.send(tick_done(0, 0, false)).unwrap();
        let (_, events) = next_summary(&runner_rx);
        assert!(matches!(
            events.as_slice(),
            [CoordinatorToRunner::MonitorQuarantined { .. }]
        ));
        // The supervisor announces the restart *before* any tick-1 frame.
        mon_tx
            .send(seal0(MonitorToCoordinator::Revived {
                monitor: MonitorId(1),
            }))
            .unwrap();
        // Even with the active monitor's frame first, the round now waits
        // for monitor 1 instead of closing without it.
        mon_tx.send(tick_done(0, 1, false)).unwrap();
        mon_tx.send(tick_done(1, 1, false)).unwrap();
        let (summary, events) = next_summary(&runner_rx);
        assert_eq!(summary.missing_reports, 0);
        assert!(matches!(
            events.as_slice(),
            [CoordinatorToRunner::MonitorRecovered {
                monitor: MonitorId(1),
                tick: 1,
            }]
        ));
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn duplicate_and_stale_frames_are_discarded() {
        let (mon_tx, _to_mon0, _to_mon1, runner_rx, handle) = degraded_harness(3);
        mon_tx.send(tick_done(0, 0, false)).unwrap();
        mon_tx.send(tick_done(0, 0, false)).unwrap(); // duplicate
        mon_tx.send(tick_done(1, 0, false)).unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert_eq!(summary.scheduled_samples, 2, "duplicate not double-counted");
        // A stale frame for tick 0 must not satisfy tick 1's collection.
        mon_tx.send(tick_done(0, 0, true)).unwrap(); // stale (late) frame
        mon_tx.send(tick_done(0, 1, false)).unwrap();
        mon_tx.send(tick_done(1, 1, false)).unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert_eq!(summary.tick, 1);
        assert_eq!(summary.local_violations, 0, "stale violation ignored");
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn missed_poll_reply_degrades_instead_of_hanging() {
        let (mon_tx, to_mon0, _to_mon1, runner_rx, handle) = degraded_harness(5);
        // Both report; monitor 0 raises a violation; monitor 1 never
        // answers the poll.
        mon_tx.send(tick_done(0, 0, true)).unwrap();
        mon_tx.send(tick_done(1, 0, false)).unwrap();
        let _: ControlFrame = decode(&to_mon0.recv().unwrap()).unwrap();
        mon_tx
            .send(seal0(MonitorToCoordinator::PollReply {
                monitor: MonitorId(0),
                tick: 0,
                value: 10.0,
                forced_sample: false,
            }))
            .unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert!(summary.polled);
        assert!(summary.degraded, "monitor 1's reply timed out");
        assert!(!summary.alerted, "10 + T_1(50) <= 100");
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn stale_epoch_frames_are_rejected_counted_and_repaired() {
        let (mon_tx, to_mon, runner_rx, handle) = harness_with(
            CoordinatorActor::new(new_core(100.0).with_epoch(2))
                .with_tick_deadline(Duration::from_millis(30)),
        );
        // A frame from the deposed epoch-1 world: rejected, and its
        // violation must NOT trigger a poll.
        mon_tx
            .send(MonitorFrame::seal(
                1,
                MonitorToCoordinator::TickDone {
                    monitor: MonitorId(0),
                    tick: 0,
                    sampled: true,
                    violation: true,
                    suppressed: false,
                },
            ))
            .unwrap();
        // The current-epoch report closes the round.
        mon_tx
            .send(MonitorFrame::seal(
                2,
                MonitorToCoordinator::TickDone {
                    monitor: MonitorId(0),
                    tick: 0,
                    sampled: true,
                    violation: false,
                    suppressed: false,
                },
            ))
            .unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert_eq!(summary.stale_epoch_frames, 1);
        assert!(!summary.polled, "stale violation must not poll");
        // Epoch repair: the sender is told the current epoch.
        let repair: ControlFrame = decode(&to_mon.recv().unwrap()).unwrap();
        assert_eq!(repair.epoch, 2);
        assert!(matches!(
            repair.msg,
            CoordinatorToMonitor::NewEpoch { epoch: 2 }
        ));
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn stale_delayed_frame_does_not_resurrect_a_quarantined_monitor() {
        // Unit-level check of the re-admission rule: the core marks a
        // quarantined monitor reviving only on *fresh* evidence.
        let mut core = degraded_core(1);
        core.quarantined[1] = true;
        core.last_tick = Some(5);
        // A delayed frame for the long-closed tick 3 finally arrives.
        core.on_frame(decode(&tick_done(1, 3, false)).unwrap());
        assert!(
            !core.reviving[1],
            "a delayed frame from a closed tick must not resurrect"
        );
        assert!(core.quarantined[1]);
        // A genuinely fresh report does: it is collected on the spot.
        core.on_frame(decode(&tick_done(1, 6, false)).unwrap());
        assert!(!core.quarantined[1], "a fresh report re-admits the monitor");
        assert!(matches!(
            core.outputs().as_slice(),
            [CoordinatorOutput::Runner(
                CoordinatorToRunner::MonitorRecovered { .. }
            )]
        ));
    }

    /// Feeds `frames` to `core` and advances it once.
    fn step(core: &mut CoordinatorCore, frames: &[Bytes]) -> (Progress, Vec<CoordinatorOutput>) {
        for frame in frames {
            core.on_frame(decode(frame).unwrap());
        }
        let progress = core.advance();
        (progress, std::mem::take(core.outputs()))
    }

    #[test]
    fn core_steps_a_poll_round_without_io() {
        let mut core = degraded_core(3);
        // Both report; monitor 0 violates: the round waits on the poll.
        let (progress, outputs) = step(&mut core, &[tick_done(0, 0, true), tick_done(1, 0, false)]);
        assert_eq!(progress, Progress::Wait);
        let polls = [0u32, 1].map(|m| {
            CoordinatorOutput::Monitor(MonitorId(m), CoordinatorToMonitor::Poll { tick: 0 })
        });
        assert_eq!(outputs, polls);
        let reply = |monitor, value| {
            seal0(MonitorToCoordinator::PollReply {
                monitor: MonitorId(monitor),
                tick: 0,
                value,
                forced_sample: monitor == 1,
            })
        };
        let (progress, outputs) = step(&mut core, &[reply(0, 70.0), reply(1, 40.0)]);
        let Progress::Summary(summary) = progress else {
            panic!("round closes on the last reply: {progress:?}");
        };
        assert!(outputs.is_empty());
        assert!(summary.polled && summary.alerted && !summary.degraded);
        assert_eq!(summary.poll_samples, 1);
        // The next round waits for its reports again.
        assert_eq!(core.advance(), Progress::Wait);
    }

    #[test]
    fn core_deadline_event_quarantines_a_silent_monitor() {
        let mut core = degraded_core(1);
        let (progress, _) = step(&mut core, &[tick_done(0, 0, false)]);
        assert_eq!(progress, Progress::Wait, "monitor 1 is still awaited");
        let waits = core.waits();
        core.on_deadline();
        let Progress::Summary(summary) = core.advance() else {
            panic!("the deadline closes the round");
        };
        assert_eq!(summary.missing_reports, 1);
        assert!(core.waits() > waits, "a new waiting phase began");
        assert!(matches!(
            core.outputs().as_slice(),
            [CoordinatorOutput::Runner(
                CoordinatorToRunner::MonitorQuarantined {
                    monitor: MonitorId(1),
                    ..
                }
            )]
        ));
    }

    #[test]
    fn core_skips_polling_an_unreachable_process() {
        let mut core = degraded_core(3);
        core.set_link(1, false);
        let (progress, outputs) = step(&mut core, &[tick_done(0, 0, true), tick_done(1, 0, false)]);
        assert_eq!(progress, Progress::Wait);
        assert_eq!(outputs.len(), 1, "only monitor 0 is polled: {outputs:?}");
        let (progress, _) = step(
            &mut core,
            &[seal0(MonitorToCoordinator::PollReply {
                monitor: MonitorId(0),
                tick: 0,
                value: 60.0,
                forced_sample: false,
            })],
        );
        let Progress::Summary(summary) = progress else {
            panic!("no wait for the unreachable monitor");
        };
        assert!(summary.degraded && summary.alerted, "60 + T_1(50) > 100");
    }

    #[test]
    fn partitioned_monitor_is_not_awaited_but_counts_missing() {
        // Monitor 1 is partitioned for ticks 0..100. The round must not
        // burn its (long) deadline waiting for frames that cannot arrive.
        let plan = FaultPlan::new(7).with_partition(&[MonitorId(1)], 0, 100);
        let coord = CoordinatorActor::new(degraded_core(2).with_fault_plan(plan))
            .with_tick_deadline(Duration::from_millis(500));
        let (mon_tx, _to_mon0, _to_mon1, runner_rx, handle) = degraded_harness_with(coord);
        let started = Instant::now();
        mon_tx.send(tick_done(0, 0, false)).unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "round must close without waiting for the partitioned monitor"
        );
        assert_eq!(
            summary.missing_reports, 1,
            "partitioned still counts missed"
        );
        // A second miss quarantines it — degraded aggregation takes over.
        mon_tx.send(tick_done(0, 1, false)).unwrap();
        let (_, events) = next_summary(&runner_rx);
        assert!(matches!(
            events.as_slice(),
            [CoordinatorToRunner::MonitorQuarantined {
                monitor: MonitorId(1),
                ..
            }]
        ));
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn injected_coordinator_crash_silences_the_coordinator() {
        let plan = FaultPlan::new(7).with_coordinator_crash(1);
        let coord = CoordinatorActor::new(new_core(100.0).with_fault_plan(plan))
            .with_tick_deadline(Duration::from_millis(30));
        let (mon_tx, _to_mon, runner_rx, handle) = harness_with(coord);
        mon_tx.send(tick_done(0, 0, false)).unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert_eq!(summary.tick, 0);
        // Tick 1 hits the crash: no summary, the thread exits while the
        // monitor channel is still alive — exactly what the runner's
        // failover path observes as a disconnect.
        mon_tx.send(tick_done(0, 1, false)).unwrap();
        handle.join().unwrap();
        assert!(
            runner_rx.try_recv().is_err(),
            "crashed coordinator must not emit a summary for the crash tick"
        );
    }

    fn temp_wal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("volley-coordinator-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.wal", std::process::id()))
    }

    #[test]
    fn checkpointing_records_ticks_and_gathered_snapshots() {
        let path = temp_wal("checkpointing-records");
        let wal = Wal::create(&path).unwrap();
        let coord = new_coordinator(100.0)
            .with_checkpoint(wal, 1)
            .with_tick_deadline(Duration::from_millis(100));
        let (mon_tx, to_mon, runner_rx, handle) = harness_with(coord);
        let snapshot = {
            use volley_core::{AdaptationConfig, AdaptiveSampler};
            let mut sampler = AdaptiveSampler::new(AdaptationConfig::default(), 100.0);
            sampler.observe(0, 10.0);
            sampler.to_snapshot()
        };
        for tick in 0..2 {
            mon_tx.send(tick_done(0, tick, false)).unwrap();
            // Snapshot cadence 1: every round asks for sampler state.
            let request: ControlFrame = decode(&to_mon.recv().unwrap()).unwrap();
            assert!(matches!(request.msg, CoordinatorToMonitor::RequestSnapshot));
            mon_tx
                .send(seal0(MonitorToCoordinator::StateSnapshot {
                    monitor: MonitorId(0),
                    snapshot,
                }))
                .unwrap();
            let (summary, _) = next_summary(&runner_rx);
            assert_eq!(summary.tick, tick);
        }
        drop(mon_tx);
        handle.join().unwrap();
        let replay: Replay = Wal::replay(&path).unwrap();
        assert!(!replay.truncated);
        let restored = replay.snapshot.expect("snapshot persisted");
        assert_eq!(restored.tick, 1);
        assert_eq!(restored.epoch, 0);
        assert_eq!(restored.samplers, vec![Some(snapshot)]);
        assert_eq!(restored.allowances.len(), 1);
        assert!(replay.tail.is_empty(), "snapshot is the newest record");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn leader_state_engages_and_releases_the_follower_gate() {
        let coord = CoordinatorActor::new(new_core(100.0).with_multitask(8))
            .with_tick_deadline(Duration::from_millis(100));
        let (mon_tx, to_mon, runner_rx, handle) = harness_with(coord);
        // Calm leader ahead of tick 0: the gate engages.
        mon_tx
            .send(seal0(MonitorToCoordinator::LeaderState {
                tick: 0,
                active: false,
            }))
            .unwrap();
        mon_tx.send(tick_done(0, 0, false)).unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert!(summary.gated, "calm leader engages the gate");
        assert_eq!(summary.suppressed_samples, 0);
        let set: ControlFrame = decode(&to_mon.recv().unwrap()).unwrap();
        assert!(matches!(
            set.msg,
            CoordinatorToMonitor::SetGate { interval: Some(8) }
        ));
        // Leader fires ahead of tick 1: snap-back broadcast, and the
        // suppressed flag reported for the tick still counts.
        mon_tx
            .send(seal0(MonitorToCoordinator::LeaderState {
                tick: 1,
                active: true,
            }))
            .unwrap();
        mon_tx
            .send(seal0(MonitorToCoordinator::TickDone {
                monitor: MonitorId(0),
                tick: 1,
                sampled: false,
                violation: false,
                suppressed: true,
            }))
            .unwrap();
        let (summary, _) = next_summary(&runner_rx);
        assert!(!summary.gated, "active leader releases the gate");
        assert_eq!(summary.suppressed_samples, 1);
        let set: ControlFrame = decode(&to_mon.recv().unwrap()).unwrap();
        assert!(matches!(
            set.msg,
            CoordinatorToMonitor::SetGate { interval: None }
        ));
        drop(mon_tx);
        handle.join().unwrap();
    }

    #[test]
    fn restored_gate_resyncs_monitors_and_persists_through_checkpoints() {
        let path = temp_wal("gate-resync");
        let wal = Wal::create(&path).unwrap();
        let restored = MultitaskSnapshot {
            engaged: true,
            flips: 3,
            suppressed: 9,
        };
        let core = new_core(100.0)
            .with_multitask(6)
            .with_multitask_resume(&restored);
        let coord = CoordinatorActor::new(core)
            .with_checkpoint(wal, 1)
            .with_tick_deadline(Duration::from_millis(100));
        let (mon_tx, to_mon, runner_rx, handle) = harness_with(coord);
        mon_tx.send(tick_done(0, 0, false)).unwrap();
        // Checkpoint cadence 1: the round gathers a snapshot first…
        let request: ControlFrame = decode(&to_mon.recv().unwrap()).unwrap();
        assert!(matches!(request.msg, CoordinatorToMonitor::RequestSnapshot));
        let (summary, _) = next_summary(&runner_rx);
        assert!(summary.gated, "restored gate stays engaged");
        // …then re-broadcasts the restored gate to the fresh monitors.
        let set: ControlFrame = decode(&to_mon.recv().unwrap()).unwrap();
        assert!(matches!(
            set.msg,
            CoordinatorToMonitor::SetGate { interval: Some(6) }
        ));
        drop(mon_tx);
        handle.join().unwrap();
        let replay: Replay = Wal::replay(&path).unwrap();
        let snap = replay.snapshot.expect("snapshot persisted");
        assert_eq!(snap.multitask, Some(restored), "gate state checkpointed");
        std::fs::remove_file(&path).ok();
    }
}
