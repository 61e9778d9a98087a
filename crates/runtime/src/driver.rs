//! The in-process driver: one task's monitors and its coordinator core
//! stepped inline on the caller's thread.
//!
//! Monitors are plain [`MonitorActor`]s fed typed [`ControlFrame`]s
//! through [`MonitorActor::handle_frame`]; every reply goes straight into
//! the [`CoordinatorCore`], and every control message the core emits is
//! delivered back the same way — no threads, channels or encoding. The
//! driver acts out each process fault of the [`FaultPlan`] on the frames
//! it delivers, in the order a monitor process would: a crash when a tick
//! at or past the crash tick arrives, silence while stalled or
//! partitioned, a delayed reply held until the monitor's next reply, and
//! duplicated replies. When a round still waits for a silent monitor once
//! nothing is left to deliver, it sleeps out the rest of the tick
//! deadline before feeding the deadline event — the wall-clock cost a real
//! deadline has — so fault-free rounds never wait.

use std::time::Instant;

use volley_core::task::{MonitorId, TaskSpec};
use volley_core::time::Tick;
use volley_core::AdaptiveSampler;
use volley_obs::Obs;
use volley_store::SampleRecorder;

use crate::coordinator::{CoordinatorActor, CoordinatorOutput, Progress};
use crate::failure::FaultPlan;
use crate::message::{
    ControlFrame, CoordinatorToMonitor, CoordinatorToRunner, MonitorFrame, MonitorToCoordinator,
    TickData, TickSummary,
};
use crate::monitor::MonitorActor;
use crate::runner::RuntimeReport;

/// One monitor process, as the inline loop sees it.
#[derive(Debug)]
struct Process {
    /// `None` once the process crashed (until a supervisor restart).
    actor: Option<MonitorActor>,
    /// The faults this process acts out (a restart strips its own crash
    /// and stall).
    faults: FaultPlan,
    /// A delayed reply awaiting the process's next send.
    held: Option<MonitorFrame>,
    /// The last tick the process saw: what stall and partition windows
    /// and delay/duplicate decisions key on.
    last_tick: Tick,
}

/// One task — its monitors and its coordinator — driven inline.
#[derive(Debug)]
pub(crate) struct InlineTask {
    coord: CoordinatorActor,
    procs: Vec<Process>,
    spec: TaskSpec,
    faults: FaultPlan,
    obs: Obs,
    recorder: Option<SampleRecorder>,
    /// Outputs being carried out (swapped with the core's queue).
    spare: Vec<CoordinatorOutput>,
}

impl InlineTask {
    /// Builds every monitor of `spec` with the even share of the error
    /// allowance, acting out `faults`, around `coord`.
    pub(crate) fn new(
        spec: &TaskSpec,
        faults: FaultPlan,
        obs: &Obs,
        recorder: Option<SampleRecorder>,
        coord: CoordinatorActor,
    ) -> Self {
        let mut task = InlineTask {
            coord,
            procs: Vec::new(),
            spec: spec.clone(),
            faults,
            obs: obs.clone(),
            recorder,
            spare: Vec::new(),
        };
        task.procs = (0..spec.monitors().len())
            .map(|idx| task.process(idx, 0, task.faults.clone()))
            .collect();
        task
    }

    /// A fresh monitor process at the default interval and `epoch`.
    fn process(&self, idx: usize, epoch: u64, faults: FaultPlan) -> Process {
        let n = self.spec.monitors().len();
        let m = &self.spec.monitors()[idx];
        let mut sampler = AdaptiveSampler::new(*self.spec.adaptation(), m.local_threshold);
        sampler.set_error_allowance(self.spec.adaptation().error_allowance() / n as f64);
        let mut actor = MonitorActor::new(m.id, sampler)
            .with_epoch(epoch)
            .with_obs(&self.obs);
        if let Some(recorder) = &self.recorder {
            actor = actor.with_recorder(recorder.clone());
        }
        Process {
            actor: Some(actor),
            faults,
            held: None,
            last_tick: 0,
        }
    }

    /// Feeds the multi-task gate's notice that the leader task is active.
    pub(crate) fn leader_state(&mut self, tick: Tick, active: bool) {
        let msg = MonitorToCoordinator::LeaderState { tick, active };
        self.coord.core.on_frame(MonitorFrame { epoch: 0, msg });
    }

    /// Swaps in a new coordinator incarnation (failover), telling it
    /// which monitor processes are gone.
    pub(crate) fn replace_coordinator(&mut self, mut coord: CoordinatorActor) {
        coord.succeed(&self.coord);
        self.coord = coord;
        for (idx, proc) in self.procs.iter().enumerate() {
            self.coord.core.set_link(idx, proc.actor.is_some());
        }
    }

    /// Delivers `msg`, sealed at `epoch`, to every monitor.
    pub(crate) fn broadcast(&mut self, epoch: u64, msg: CoordinatorToMonitor) {
        for idx in 0..self.procs.len() {
            self.deliver(idx, ControlFrame { epoch, msg });
        }
    }

    /// Delivers one control frame to monitor `idx`, acting out its
    /// process faults; replies go straight into the coordinator core.
    pub(crate) fn deliver(&mut self, idx: usize, frame: ControlFrame) {
        let proc = &mut self.procs[idx];
        if proc.actor.is_none() {
            return; // a crashed process hears nothing
        }
        let id = MonitorId(idx as u32);
        if let CoordinatorToMonitor::Tick(data) = frame.msg {
            proc.last_tick = data.tick;
            if proc.faults.crash_tick(id).is_some_and(|at| data.tick >= at) {
                // The process simply ceases to exist, held reply and all.
                proc.actor = None;
                proc.held = None;
                self.coord.core.set_link(idx, false);
                return;
            }
        }
        let now = proc.last_tick;
        if proc.faults.stalled(id, now) || proc.faults.partitioned(id, now) {
            // Wedged or cut off: the frame is consumed, nothing happens —
            // its local state (its epoch included) freezes, which is what
            // makes its first frames after a healed partition stale.
            return;
        }
        let Some(actor) = proc.actor.as_mut() else {
            return;
        };
        let (Some(reply), _) = actor.handle_frame(frame) else {
            return;
        };
        let core = &mut self.coord.core;
        if proc.faults.delays(id, now) {
            // Hold this reply; anything already held goes out now,
            // behind schedule.
            if let Some(old) = proc.held.replace(reply) {
                core.on_frame(old);
            }
        } else {
            if proc.faults.duplicates(id, now) {
                core.on_frame(reply.clone());
            }
            core.on_frame(reply);
            if let Some(old) = proc.held.take() {
                core.on_frame(old);
            }
        }
    }

    /// Drives one tick: the tick's values (`traces[i][tick]`) to every
    /// monitor, then the coordinator round to its summary, returned with
    /// the round's `(start, end)` while obs is on. Liveness events are
    /// counted into `report`; with `supervise` a quarantined monitor is
    /// replaced by a fresh process and the core told it revived. `None`
    /// means the coordinator crashed mid-round.
    pub(crate) fn tick(
        &mut self,
        tick: Tick,
        traces: &[Vec<f64>],
        supervise: bool,
        report: &mut RuntimeReport,
    ) -> Option<(TickSummary, Option<(Instant, Instant)>)> {
        let epoch = self.coord.core.epoch();
        for (idx, trace) in traces.iter().enumerate() {
            let data = TickData {
                tick,
                value: trace[tick as usize],
            };
            let msg = CoordinatorToMonitor::Tick(data);
            self.deliver(idx, ControlFrame { epoch, msg });
        }
        loop {
            let progress = self.coord.core.advance();
            let acted = self.carry_out(supervise, report);
            let timed = self.coord.clock(&progress);
            match progress {
                Progress::Summary(summary) => return Some((summary, timed)),
                Progress::Crashed => return None,
                Progress::Wait if !acted => {
                    // Quiescent: nothing left to deliver, yet the round
                    // still awaits a silent monitor. Pay what a real
                    // deadline costs, then end the phase.
                    std::thread::sleep(self.coord.phase_left());
                    self.coord.core.on_deadline();
                }
                Progress::Wait => {}
            }
        }
    }

    /// Carries out the core's pending outputs in order; `false` when
    /// there were none.
    fn carry_out(&mut self, supervise: bool, report: &mut RuntimeReport) -> bool {
        let mut outputs = std::mem::take(&mut self.spare);
        std::mem::swap(&mut outputs, self.coord.core.outputs());
        let acted = !outputs.is_empty();
        let epoch = self.coord.core.epoch();
        for output in outputs.drain(..) {
            match output {
                CoordinatorOutput::Monitor(id, msg) => {
                    self.deliver(id.0 as usize, ControlFrame { epoch, msg });
                }
                CoordinatorOutput::Runner(CoordinatorToRunner::MonitorQuarantined {
                    monitor,
                    ..
                }) => {
                    report.quarantines += 1;
                    if supervise {
                        self.restart(monitor.0 as usize, epoch);
                        report.restarts += 1;
                    }
                }
                CoordinatorOutput::Runner(CoordinatorToRunner::MonitorRecovered { .. }) => {
                    report.recoveries += 1;
                }
                CoordinatorOutput::Runner(CoordinatorToRunner::Summary(_)) => {}
                CoordinatorOutput::Wal(record) => self.coord.persist(&record),
            }
        }
        self.spare = outputs;
        acted
    }

    /// Replaces a quarantined monitor with a fresh process: a fresh
    /// sampler at the default interval (its learned schedule died with
    /// it), the even share of the error allowance, and the current
    /// coordinator epoch. Process faults (crash/stall) are stripped from
    /// the replacement's plan — its predecessor already acted them out —
    /// while network faults (including partitions) keep applying. The
    /// core is then told to await the monitor again.
    fn restart(&mut self, idx: usize, epoch: u64) {
        let monitor = MonitorId(idx as u32);
        let fresh = self.process(idx, epoch, self.faults.without_process_faults(monitor));
        let old = std::mem::replace(&mut self.procs[idx], fresh);
        self.coord.core.set_link(idx, true);
        // A wedged predecessor drains out and flushes any held reply.
        if let Some(held) = old.held {
            self.coord.core.on_frame(held);
        }
        let msg = MonitorToCoordinator::Revived { monitor };
        self.coord.core.on_frame(MonitorFrame { epoch, msg });
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::coordinator::CoordinatorCore;
    use volley_core::allocation::AllocationConfig;

    fn spec() -> TaskSpec {
        TaskSpec::builder(1000.0).monitors(2).build().unwrap()
    }

    /// A 2-monitor task acting out `plan` around a coordinator at
    /// `epoch`, with a short deadline.
    fn task(plan: FaultPlan, epoch: u64) -> InlineTask {
        let core = CoordinatorCore::for_spec(&spec(), AllocationConfig::default(), true)
            .unwrap()
            .with_epoch(epoch);
        let coord = CoordinatorActor::new(core).with_tick_deadline(Duration::from_millis(5));
        InlineTask::new(&spec(), plan, &Obs::disabled(), None, coord)
    }

    fn run_tick(task: &mut InlineTask, tick: Tick) -> TickSummary {
        let traces = vec![vec![10.0; 10], vec![20.0; 10]];
        task.tick(tick, &traces, false, &mut RuntimeReport::default())
            .expect("no coordinator crash")
            .0
    }

    #[test]
    fn crashed_process_vanishes_without_reply() {
        let mut task = task(FaultPlan::new(1).with_crash(MonitorId(0), 1), 0);
        assert_eq!(run_tick(&mut task, 0).missing_reports, 0);
        assert_eq!(run_tick(&mut task, 1).missing_reports, 1);
        assert!(task.procs[0].actor.is_none(), "the process is gone");
        assert_eq!(run_tick(&mut task, 2).missing_reports, 1);
    }

    #[test]
    fn stalled_process_goes_silent_for_its_window() {
        let mut task = task(FaultPlan::new(1).with_stall(MonitorId(0), 1, 2), 0);
        let missing: Vec<u32> = (0..4)
            .map(|t| run_tick(&mut task, t).missing_reports)
            .collect();
        assert_eq!(missing, [0, 1, 1, 0]);
    }

    #[test]
    fn partitioned_process_misses_the_epoch_bump_then_answers_stale() {
        // The coordinator runs at epoch 1; the fence reaches monitor 1
        // but not the partitioned monitor 0, whose replies keep epoch 0.
        let mut task = task(FaultPlan::new(1).with_partition(&[MonitorId(0)], 0, 2), 1);
        task.broadcast(1, CoordinatorToMonitor::NewEpoch { epoch: 1 });
        assert_eq!(run_tick(&mut task, 0).stale_epoch_frames, 0);
        assert_eq!(run_tick(&mut task, 1).stale_epoch_frames, 0);
        // Healed: the old-epoch reply is rejected, and epoch repair
        // readmits the monitor for the next tick.
        let healed = run_tick(&mut task, 2);
        assert_eq!(healed.stale_epoch_frames, 1);
        assert_eq!(healed.missing_reports, 1);
        let repaired = run_tick(&mut task, 3);
        assert_eq!(repaired.stale_epoch_frames, 0);
        assert_eq!(repaired.missing_reports, 0);
    }

    #[test]
    fn delayed_reply_is_held_until_the_next_one() {
        let mut task = task(FaultPlan::new(1).with_delay_rate(1.0), 0);
        // Every reply is held one send behind, so each tick's report
        // misses its own round.
        assert_eq!(run_tick(&mut task, 0).missing_reports, 2);
        let held = |task: &InlineTask| match task.procs[0].held.as_ref().map(|f| &f.msg) {
            Some(MonitorToCoordinator::TickDone { tick, .. }) => Some(*tick),
            _ => None,
        };
        assert_eq!(held(&task), Some(0));
        assert_eq!(run_tick(&mut task, 1).missing_reports, 2);
        assert_eq!(
            held(&task),
            Some(1),
            "tick 0's reply went out behind tick 1's"
        );
    }

    #[test]
    fn duplicated_reply_reaches_the_core_twice() {
        // Against an epoch-1 core every epoch-0 reply is stale and
        // counted, which makes the duplicate visible.
        let mut task = task(FaultPlan::new(1).with_duplication_rate(1.0), 1);
        assert_eq!(run_tick(&mut task, 0).stale_epoch_frames, 4);
    }
}
