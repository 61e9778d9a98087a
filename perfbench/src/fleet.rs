//! `fleet_engine`: 1M VMs, each a `SamplerBank` lane, on the sharded
//! engine with `nproc` workers and no cross-shard messages.

use std::sync::Mutex;
use std::time::Instant;

use volley_core::likelihood::misdetection_bound_with;
use volley_core::{AdaptationConfig, BankObservation, OnlineStats, SamplerBank};
use volley_sim::{
    ClusterConfig, EngineConfig, EngineStats, EpochCtx, ShardId, ShardPlan, ShardWorker,
    ShardedEngine, SimDuration, SimTime,
};

use crate::gen::{events_where, fleet_metric, FLEET_THRESHOLD};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::{sys, Outcome};

/// The paper's default network-monitoring window.
const WINDOW_MICROS: u64 = 15_000_000;
/// VMs per server and servers per coordinator group: the `scale` bench's
/// cluster shape (one shard per group of 200 VMs).
const VMS_PER_SERVER: u32 = 40;
const SERVERS_PER_GROUP: u32 = 5;
/// Windows one engine run covers.
pub const WINDOWS: u64 = 40;
/// VMs replayed lane-by-lane against a direct `SamplerBank`.
const REPLAYED_VMS: u64 = 2000;
/// Spans are kept for one window in this many (counters cover all).
const SPAN_EVERY: u64 = 8;

/// The `scale` bench's adaptation: reaches the maximum interval within
/// the horizon.
pub fn adaptation() -> AdaptationConfig {
    AdaptationConfig::builder()
        .error_allowance(crate::gen::ERR)
        .max_interval(8)
        .patience(5)
        .build()
        .expect("valid config")
}

/// How a slice runs: plain (timed), with per-VM bookkeeping for the
/// correctness check, or with per-window timers for the ledger.
const TIMED: u8 = 0;
const CHECK: u8 = 1;
const TRACED: u8 = 2;

/// Per-slice layer timers of a traced run.
#[derive(Debug, Default, Clone)]
struct SliceTimers {
    busy_ns: u64,
    gen_ns: u64,
    observe_ns: u64,
    observes: u64,
    grows: u64,
    collapses: u64,
    /// `(window, handle start, gen end, handle end)` since the tracer
    /// origin, for sampled windows.
    spans: Vec<(u64, u64, u64, u64)>,
}

/// One shard's VMs.
struct Slice<const MODE: u8> {
    seed: u64,
    first_vm: u64,
    bank: SamplerBank,
    next_due: Vec<u64>,
    ops: u64,
    alerts: u64,
    /// CHECK: per-VM op and alert counts, detected events and the tick
    /// of each VM's last alert (`u64::MAX` if none).
    vm_ops: Vec<u32>,
    vm_alerts: Vec<u32>,
    detected_events: u64,
    last_alert: Vec<u64>,
    /// TRACED: scratch for generated values and the timers.
    scratch: Vec<f64>,
    timers: SliceTimers,
    origin: Option<Instant>,
}

impl<const MODE: u8> Slice<MODE> {
    fn new(seed: u64, first_vm: u64, count: usize, origin: Option<Instant>) -> Self {
        let mut bank = SamplerBank::with_capacity(adaptation(), count);
        for _ in 0..count {
            bank.push(FLEET_THRESHOLD);
        }
        // Written, not calloc'd: zero pages mapped lazily would fault
        // inside the timed engine run instead of here in set-up.
        #[allow(clippy::slow_vector_initialization)]
        let next_due = {
            let mut v = Vec::with_capacity(count);
            v.resize(count, 0);
            v
        };
        let per_vm = |n| if MODE == CHECK { n } else { 0 };
        Slice {
            seed,
            first_vm,
            bank,
            next_due,
            ops: 0,
            alerts: 0,
            vm_ops: vec![0; per_vm(count)],
            vm_alerts: vec![0; per_vm(count)],
            detected_events: 0,
            last_alert: vec![u64::MAX; per_vm(count)],
            scratch: if MODE == TRACED {
                vec![0.0; count]
            } else {
                Vec::new()
            },
            timers: SliceTimers::default(),
            origin,
        }
    }

    /// CHECK bookkeeping for VM lane `i` sampled at `tick`.
    fn note(&mut self, i: usize, tick: u64, violation: bool) {
        self.vm_ops[i] += 1;
        if !violation {
            return;
        }
        self.vm_alerts[i] += 1;
        let vm = self.first_vm + i as u64;
        let last = self.last_alert[i];
        // A second alert inside one run of violating windows is the same
        // event.
        let same_event = last != u64::MAX
            && (last..=tick).all(|t| fleet_metric(self.seed, vm, t) > FLEET_THRESHOLD);
        if !same_event {
            self.detected_events += 1;
        }
        self.last_alert[i] = tick;
    }

    fn count(&mut self, outcome: &BankObservation, i: usize, tick: u64) {
        self.ops += 1;
        if outcome.violation {
            self.alerts += 1;
        }
        self.next_due[i] = outcome.next_sample_tick.max(tick + 1);
        if MODE == TRACED {
            self.timers.grows += u64::from(outcome.grew);
            self.timers.collapses += u64::from(outcome.collapsed);
        }
        if MODE == CHECK {
            self.note(i, tick, outcome.violation);
        }
    }
}

impl<const MODE: u8> ShardWorker for Slice<MODE> {
    type Event = u64; // window index
    type Msg = ();

    fn handle(&mut self, ctx: &mut EpochCtx<'_, u64, ()>, time: SimTime, tick: u64) {
        if MODE == TRACED {
            let origin = self.origin.expect("traced slices carry the origin");
            let start = origin.elapsed().as_nanos() as u64;
            let mut due = 0usize;
            for i in 0..self.bank.len() {
                if self.next_due[i] <= tick {
                    self.scratch[i] = fleet_metric(self.seed, self.first_vm + i as u64, tick);
                    due += 1;
                }
            }
            let generated = origin.elapsed().as_nanos() as u64;
            for i in 0..self.bank.len() {
                if self.next_due[i] <= tick {
                    let outcome = self.bank.observe(i, tick, self.scratch[i]);
                    self.count(&outcome, i, tick);
                }
            }
            let end = origin.elapsed().as_nanos() as u64;
            let t = &mut self.timers;
            t.busy_ns += end - start;
            t.gen_ns += generated - start;
            t.observe_ns += end - generated;
            t.observes += due as u64;
            if tick.is_multiple_of(SPAN_EVERY) {
                t.spans.push((tick, start, generated, end));
            }
        } else {
            for i in 0..self.bank.len() {
                if self.next_due[i] > tick {
                    continue;
                }
                let value = fleet_metric(self.seed, self.first_vm + i as u64, tick);
                let outcome = self.bank.observe(i, tick, value);
                self.count(&outcome, i, tick);
            }
        }
        if tick + 1 < WINDOWS {
            ctx.schedule(time + SimDuration::from_micros(WINDOW_MICROS), tick + 1);
        }
    }
}

/// The fleet: `vms` VMs in `scale`'s cluster shape.
pub struct Fleet {
    seed: u64,
    plan: ShardPlan,
    vms: u64,
}

/// One engine run's result.
struct EngineRun<const MODE: u8> {
    slices: Vec<Slice<MODE>>,
    stats: EngineStats,
    /// Seconds spent building the slices (bank allocation) and the engine.
    setup_s: f64,
    wall_s: f64,
    cpu_ns: u64,
    /// Time stolen from each CPU during the run, ns.
    steal_ns: u64,
}

impl<const MODE: u8> EngineRun<MODE> {
    fn ops(&self) -> u64 {
        self.slices.iter().map(|s| s.ops).sum()
    }

    fn alerts(&self) -> u64 {
        self.slices.iter().map(|s| s.alerts).sum()
    }
}

impl Fleet {
    /// A fleet of about `vms` VMs (rounded down to whole servers).
    pub fn new(seed: u64, vms: u64) -> Fleet {
        let servers = (vms / u64::from(VMS_PER_SERVER)).max(1) as u32;
        let cluster = ClusterConfig::new(servers, VMS_PER_SERVER, SERVERS_PER_GROUP);
        Fleet {
            seed,
            plan: ShardPlan::by_coordinator_group(cluster),
            vms: u64::from(servers) * u64::from(VMS_PER_SERVER),
        }
    }

    /// VM-windows one run decides.
    pub fn monitor_ticks(&self) -> u64 {
        self.vms * WINDOWS
    }

    fn run<const MODE: u8>(&self, threads: usize, origin: Option<Instant>) -> EngineRun<MODE> {
        let started = Instant::now();
        let slices: Vec<Mutex<Option<Slice<MODE>>>> = (0..self.plan.shard_count())
            .map(|shard| {
                let mut vms = self.plan.vms_of(ShardId(shard));
                let first = vms.next().expect("every shard owns a VM").0;
                let count = 1 + vms.count();
                Mutex::new(Some(Slice::new(self.seed, u64::from(first), count, origin)))
            })
            .collect();
        let engine = ShardedEngine::new(EngineConfig::message_free(
            threads,
            SimTime::from_micros(WINDOWS * WINDOW_MICROS),
        ));
        let setup_s = started.elapsed().as_secs_f64();
        let (cpu, steal) = (sys::process_cpu_ns(), sys::steal_ns());
        let started = Instant::now();
        let (slices, stats) = engine.run(
            &self.plan,
            0, // the metric hash carries the seed; no engine randomness
            |shard, ctx| {
                ctx.schedule(SimTime::ZERO, 0);
                slices[shard.0 as usize]
                    .lock()
                    .expect("slice lock")
                    .take()
                    .expect("each shard is built once")
            },
            None,
        );
        EngineRun {
            wall_s: started.elapsed().as_secs_f64(),
            cpu_ns: sys::process_cpu_ns() - cpu,
            steal_ns: sys::steal_ns() - steal,
            slices,
            stats,
            setup_s,
        }
    }

    /// Ground-truth events: runs of windows above the threshold, per VM.
    fn truth_events(&self) -> u64 {
        (0..self.vms)
            .map(|vm| {
                events_where(WINDOWS, |t| {
                    fleet_metric(self.seed, vm, t) > FLEET_THRESHOLD
                })
                .len() as u64
            })
            .sum()
    }

    /// Replays VM `vm` on its own one-lane bank. Returns (ops, alerts)
    /// and appends the kernel inputs of every warmed sample to `bound`.
    fn replay_vm(&self, vm: u64, bound: &mut Vec<[f64; 5]>) -> (u32, u32) {
        let mut bank = SamplerBank::new(adaptation());
        bank.push(FLEET_THRESHOLD);
        let mut stats = OnlineStats::new();
        let (mut ops, mut alerts, mut next, mut last) = (0u32, 0u32, 0u64, None);
        for tick in 0..WINDOWS {
            if tick < next {
                continue;
            }
            let value = fleet_metric(self.seed, vm, tick);
            if let Some((t, v)) = last {
                stats.update((value - v) / (tick - t) as f64);
                if stats.count() >= 2 {
                    bound.push([
                        value,
                        FLEET_THRESHOLD,
                        stats.mean(),
                        stats.std_dev(),
                        f64::from(bank.interval(0).get()),
                    ]);
                }
            }
            last = Some((tick, value));
            let outcome = bank.observe(0, tick, value);
            ops += 1;
            alerts += u32::from(outcome.violation);
            next = outcome.next_sample_tick.max(tick + 1);
        }
        (ops, alerts)
    }
}

/// The untraced workload: timed engine runs for `seconds`, then checks.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let threads = sys::nproc();
    let fleet = Fleet::new(seed, 1_000_000);
    let mut out = Outcome::new();
    let mut setups = Vec::new();
    let warm: EngineRun<TIMED> = fleet.run(threads, None);
    setups.push(warm.setup_s);
    let (ops, alerts) = (warm.ops(), warm.alerts());
    drop(warm);

    let (mut rates, mut walls, mut cpu_ns, mut ticks) = (Vec::new(), Vec::new(), 0u64, 0u64);
    let started = Instant::now();
    while rates.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        let r: EngineRun<TIMED> = fleet.run(threads, None);
        setups.push(r.setup_s);
        rates.push(fleet.monitor_ticks() as f64 / sys::unstolen_wall_s(r.wall_s, r.steal_ns));
        walls.push((r.wall_s, r.steal_ns));
        cpu_ns += r.cpu_ns;
        ticks += fleet.monitor_ticks();
        out.check(
            "fleet: every nproc-thread run makes the same ops and alerts",
            r.ops() == ops && r.alerts() == alerts,
        );
    }
    out.attempted = ticks;

    let detect_ratio = checks(&fleet, &mut out, ops, alerts);
    out.e2e("monitor_ticks_per_s", median(&rates), "1/s");
    out.e2e(
        "cpu_ns_per_monitor_tick",
        ratio(cpu_ns as f64, ticks as f64),
        "ns",
    );
    out.e2e(
        "cost_ratio",
        ratio(ops as f64, fleet.monitor_ticks() as f64),
        "ratio",
    );
    out.e2e("detect_ratio", detect_ratio, "ratio");
    out.e2e("ok_ratio", 1.0, "ratio");
    out.e2e("setup_s", median(&setups), "s");
    out.line(format!(
        "fleet_engine: {} VMs x {WINDOWS} windows on {threads} threads, {} timed runs",
        fleet.vms,
        rates.len()
    ));
    out.line(sys::stolen_line(fleet.monitor_ticks(), &walls));
    out.finding_misdetect(1.0 - detect_ratio);
    out
}

/// Single-thread run against the `nproc` counts, plus a lane-by-lane
/// replay of sampled VMs. Returns the detected share of ground-truth
/// violation events.
fn checks(fleet: &Fleet, out: &mut Outcome, ops: u64, alerts: u64) -> f64 {
    let single: EngineRun<CHECK> = fleet.run(1, None);
    out.check(
        "fleet: op and alert counts identical at 1 and nproc threads",
        single.ops() == ops && single.alerts() == alerts,
    );
    let mut replay_ok = true;
    let stride = (fleet.vms / REPLAYED_VMS).max(1);
    let offset = fleet.seed % stride;
    let mut lanes = single.slices.iter().flat_map(|s| {
        (0..s.vm_ops.len()).map(move |i| (s.first_vm + i as u64, s.vm_ops[i], s.vm_alerts[i]))
    });
    for vm in (offset..fleet.vms).step_by(stride as usize) {
        let (_, engine_ops, engine_alerts) = lanes
            .find(|(id, _, _)| *id == vm)
            .expect("every VM has a lane");
        replay_ok &= fleet.replay_vm(vm, &mut Vec::new()) == (engine_ops, engine_alerts);
    }
    out.check(
        "fleet: sampled VMs match a direct SamplerBank replay",
        replay_ok,
    );
    let detected: u64 = single.slices.iter().map(|s| s.detected_events).sum();
    ratio(detected as f64, fleet.truth_events() as f64)
}

/// Fleet-layer numbers for the ledger, from one traced run of `vms` VMs.
/// Returns the untraced run's wall ns per vm-window and its VM count.
pub fn layers(
    seed: u64,
    vms: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
    native: bool,
) -> (f64, u64) {
    let threads = sys::nproc();
    let fleet = Fleet::new(seed, vms);
    let untraced: EngineRun<TIMED> = fleet.run(threads, None);
    let (ops, alerts) = (untraced.ops(), untraced.alerts());
    let untraced_wall = untraced.wall_s;
    drop(untraced);

    let parent = tracer.current();
    let pass_start = tracer.now();
    let traced: EngineRun<TRACED> = fleet.run(threads, Some(tracer.origin()));
    let pass = tracer.record("sim.engine_run", pass_start, tracer.now(), parent);
    for slice in &traced.slices {
        for &(_, start, generated, end) in &slice.timers.spans {
            let handle = tracer.record("sim.handle", start, end, Some(pass));
            tracer.record("gen", start, generated, Some(handle));
            tracer.record("core.bank_observe", generated, end, Some(handle));
        }
    }
    let timers = traced
        .slices
        .iter()
        .fold(SliceTimers::default(), |mut a, s| {
            a.busy_ns += s.timers.busy_ns;
            a.gen_ns += s.timers.gen_ns;
            a.observe_ns += s.timers.observe_ns;
            a.observes += s.timers.observes;
            a.grows += s.timers.grows;
            a.collapses += s.timers.collapses;
            a
        });
    out.check(
        "fleet: traced run makes the same ops and alerts",
        traced.ops() == ops && traced.alerts() == alerts,
    );
    let busy: Vec<f64> = traced
        .slices
        .iter()
        .map(|s| s.timers.busy_ns as f64)
        .collect();
    let mean_busy = busy.iter().sum::<f64>() / busy.len() as f64;
    let max_busy = busy.iter().copied().fold(0.0, f64::max);
    let capacity_ns = threads as f64 * traced.wall_s * 1e9;
    let vm_windows = fleet.monitor_ticks() as f64;

    // Kernel bound over the sampled inputs of a replay.
    let mut inputs = Vec::new();
    let stride = (fleet.vms / REPLAYED_VMS).max(1);
    for vm in (0..fleet.vms).step_by(stride as usize) {
        fleet.replay_vm(vm, &mut inputs);
    }
    let bound_ns = time_bound(&inputs);

    let observe_ns = ratio(timers.observe_ns as f64, timers.observes as f64);
    let gen_ns = ratio(timers.gen_ns as f64, timers.observes as f64);
    let overhead_ns = (capacity_ns - timers.busy_ns as f64) / vm_windows;
    out.layer("core.bank_observe_ns", observe_ns, "ns", native);
    out.layer(
        "core.bank_observes",
        timers.observes as f64,
        "count",
        native,
    );
    out.layer("core.interval_grows", timers.grows as f64, "count", native);
    out.layer(
        "core.interval_collapses",
        timers.collapses as f64,
        "count",
        native,
    );
    out.layer("core.bound_ns", bound_ns, "ns", native);
    out.layer("gen.ns_per_value", gen_ns, "ns", native);
    out.layer(
        "sim.parallel_efficiency",
        ratio(timers.busy_ns as f64, capacity_ns),
        "ratio",
        native,
    );
    out.layer(
        "sim.shard_imbalance",
        ratio(max_busy, mean_busy),
        "ratio",
        native,
    );
    out.layer(
        "sim.engine_overhead_ns_per_vm_window",
        overhead_ns,
        "ns",
        native,
    );
    out.layer("sim.epochs", traced.stats.epochs as f64, "count", native);
    out.layer("sim.steals", traced.stats.steals as f64, "count", native);
    if native {
        // Against the median untraced run of the short timed phase.
        let rate = out
            .e2e_value("monitor_ticks_per_s")
            .expect("timed phase ran first");
        out.tracing_overhead(traced.wall_s, vm_windows / rate);
        let per = |ns: f64| ns / vm_windows;
        let total = capacity_ns / vm_windows;
        let bound_share = bound_ns * timers.observes as f64 / vm_windows;
        out.line(format!(
            "ledger 1a (fleet_engine, per vm-window, base {total:.2} ns = {threads} threads x wall / {vm_windows:.0} vm-windows): \
             gen {:.2} ns ({:.1}%), core.bank_observe {:.2} ns ({:.1}%) of which core.bound ~{bound_share:.2} ns ({:.1}%), \
             engine overhead {overhead_ns:.2} ns ({:.1}%)",
            per(timers.gen_ns as f64),
            100.0 * ratio(per(timers.gen_ns as f64), total),
            per(timers.observe_ns as f64),
            100.0 * ratio(per(timers.observe_ns as f64), total),
            100.0 * ratio(bound_share, total),
            100.0 * ratio(overhead_ns, total),
        ));
        out.line(format!(
            "ledger 1c (fleet_engine): sim.parallel_efficiency {:.3} at {} VMs = busy {:.3} s / ({threads} threads x wall {:.3} s)",
            ratio(timers.busy_ns as f64, capacity_ns),
            fleet.vms,
            timers.busy_ns as f64 / 1e9,
            traced.wall_s,
        ));
    }
    (untraced_wall * 1e9 / vm_windows, fleet.vms)
}

/// Median ns per `misdetection_bound_with` call over batches of the
/// replayed kernel inputs.
fn time_bound(inputs: &[[f64; 5]]) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let kind = adaptation().bound();
    let mut per_call = Vec::new();
    let mut sink = 0.0;
    for _ in 0..20 {
        let started = Instant::now();
        for x in inputs {
            sink += misdetection_bound_with(kind, x[0], x[1], x[2], x[3], x[4] as u32);
        }
        per_call.push(started.elapsed().as_nanos() as f64 / inputs.len() as f64);
    }
    std::hint::black_box(sink);
    median(&per_call)
}
