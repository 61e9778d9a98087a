//! `task_inproc` and `task_net`: one §IV task of 64 netflow monitors,
//! closed-loop, on the in-process `TaskRunner` or through
//! `NetCoordinator` over localhost TCP with two agent threads.

use std::time::{Duration, Instant};

use bytes::Bytes;
use volley_core::{AdaptiveSampler, DistributedTask, TaskSpec, Tick};
use volley_obs::{names, Obs};
use volley_runtime::message::{
    ControlFrame, CoordinatorToMonitor, MonitorFrame, MonitorToCoordinator, TickData,
};
use volley_runtime::net::{
    run_agent, AgentConfig, BackoffConfig, FrameBuffer, NetAddr, NetCoordinator, NetStats,
};
use volley_runtime::transport::TransportConfig;
use volley_runtime::{MonitorActor, MonitorLink, RuntimeReport, TaskRunner};

use crate::gen::{score_events, TaskInputs, ERR, TASK_MAX_INTERVAL, TASK_PATIENCE};
use crate::stats::{median, ratio, sorted, Summary};
use crate::trace::Tracer;
use crate::{sys, Outcome};

/// Monitors in the task workloads.
pub const MONITORS: usize = 64;
/// Windows one run of the task covers.
pub const TICKS: usize = 2000;
/// Set-ups timed before each run; `setup_s` is the median of all of them.
const SETUPS_PER_RUN: usize = 3;
/// Agent threads (and connections) of `task_net`.
const AGENTS: u32 = 2;
/// Frames kept from the monitor replay for the codec measurement.
const CAPTURED_FRAMES: usize = 100_000;

/// Which transport carries the task: in-process channels or sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `TaskRunner`: monitor threads on in-process channels.
    InProc,
    /// `NetCoordinator` plus `run_agent` threads over localhost TCP.
    Net,
}

/// One run of the task.
pub struct Run {
    pub report: RuntimeReport,
    pub wall_s: f64,
    pub cpu_ns: u64,
    /// Time the host stole from each CPU during the run, ns.
    pub steal_ns: u64,
    pub net: Option<NetStats>,
}

/// The program's own set-up of one run: the in-process runner, or the
/// coordinator bound to a localhost port. One exists per run, so its size
/// does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    InProc(TaskRunner),
    Net(NetCoordinator),
}

/// Builds the program's side of one run of `inputs` on `transport`;
/// `obs` turns the program's own instruments on.
pub fn prepare(transport: Transport, inputs: &TaskInputs, obs: Option<&Obs>) -> Prepared {
    match transport {
        Transport::InProc => {
            let mut runner = TaskRunner::new(&inputs.spec).expect("runner builds");
            if let Some(obs) = obs {
                runner = runner.with_obs(obs.clone());
            }
            Prepared::InProc(runner)
        }
        Transport::Net => {
            let mut coordinator =
                NetCoordinator::bind(inputs.spec.clone(), &NetAddr::Tcp("127.0.0.1:0".into()))
                    .expect("bind localhost")
                    .with_wait_timeout(Duration::from_secs(60));
            if let Some(obs) = obs {
                coordinator = coordinator.with_obs(obs);
            }
            Prepared::Net(coordinator)
        }
    }
}

/// Runs `inputs` once on a prepared runner or coordinator.
pub fn execute(prepared: Prepared, inputs: &TaskInputs) -> Run {
    match prepared {
        Prepared::InProc(runner) => {
            let (cpu, steal) = (sys::process_cpu_ns(), sys::steal_ns());
            let started = Instant::now();
            let report = runner.run(&inputs.traces).expect("in-process run");
            Run {
                report,
                wall_s: started.elapsed().as_secs_f64(),
                cpu_ns: sys::process_cpu_ns() - cpu,
                steal_ns: sys::steal_ns() - steal,
                net: None,
            }
        }
        Prepared::Net(coordinator) => run_net(coordinator, inputs),
    }
}

/// Runs `inputs` once on `transport`, set-up included.
pub fn run_once(transport: Transport, inputs: &TaskInputs, obs: Option<&Obs>) -> Run {
    execute(prepare(transport, inputs, obs), inputs)
}

fn run_net(coordinator: NetCoordinator, inputs: &TaskInputs) -> Run {
    let spec = inputs.spec.clone();
    let addr = NetAddr::Tcp(coordinator.local_addr().expect("tcp address").to_string());
    let n = inputs.monitors() as u32;
    let per = n.div_ceil(AGENTS);
    let (cpu, steal) = (sys::process_cpu_ns(), sys::steal_ns());
    let started = Instant::now();
    let agents: Vec<_> = (0..AGENTS)
        .map(|a| {
            let config = AgentConfig {
                agent: a,
                addr: addr.clone(),
                spec: spec.clone(),
                monitors: (a * per)..((a + 1) * per).min(n),
                transport: TransportConfig::default(),
                backoff: BackoffConfig {
                    base: Duration::from_millis(10),
                    cap: Duration::from_millis(500),
                    max_retries_per_outage: 500,
                },
            };
            std::thread::spawn(move || run_agent(&config).is_ok())
        })
        .collect();
    let outcome = coordinator.run(&inputs.traces).expect("networked run");
    let agents_ok = agents.into_iter().all(|a| a.join().unwrap_or(false));
    assert!(agents_ok, "every agent completes");
    Run {
        report: outcome.report,
        wall_s: started.elapsed().as_secs_f64(),
        cpu_ns: sys::process_cpu_ns() - cpu,
        steal_ns: sys::steal_ns() - steal,
        net: Some(outcome.net),
    }
}

/// Alert ticks and samples of the `core::DistributedTask` reference.
pub fn reference(inputs: &TaskInputs) -> (Vec<Tick>, u64) {
    let n = inputs.monitors();
    let spec = TaskSpec::builder(inputs.spec.global_threshold())
        .monitors(n)
        .error_allowance(ERR)
        .max_interval(TASK_MAX_INTERVAL)
        .patience(TASK_PATIENCE)
        .build()
        .expect("valid spec");
    let mut task = DistributedTask::new(&spec).expect("valid task");
    for (i, t) in inputs.thresholds.iter().enumerate() {
        task.set_local_threshold(i, *t).expect("monitor exists");
    }
    let (mut alerts, mut samples) = (Vec::new(), 0u64);
    let mut values = vec![0.0; n];
    for tick in 0..inputs.ticks() {
        for (m, trace) in inputs.traces.iter().enumerate() {
            values[m] = trace[tick];
        }
        let out = task.step(tick as Tick, &values).expect("step");
        samples += u64::from(out.total_samples());
        if out.alerted() {
            alerts.push(tick as Tick);
        }
    }
    (alerts, samples)
}

/// Monitor-ticks whose report missed its deadline or whose monitor was
/// quarantined (degraded aggregation only ever stands in for these).
pub fn failed_ticks(report: &RuntimeReport) -> u64 {
    report.missed_tick_reports
}

/// Events periodic-`I_d` sampling detects, and how many `report` caught.
pub fn detection(inputs: &TaskInputs, report: &RuntimeReport) -> (u64, u64) {
    score_events(&inputs.truth_events(), &report.alert_ticks)
}

/// [`SETUPS_PER_RUN`] timed set-ups (input generation plus the program's
/// runner or coordinator construction), their times appended to
/// `setups`; the last one is returned for the run.
fn set_up(transport: Transport, seed: u64, setups: &mut Vec<f64>) -> (TaskInputs, Prepared) {
    let mut last = None;
    for _ in 0..SETUPS_PER_RUN {
        let started = Instant::now();
        let inputs = TaskInputs::netflow(seed, MONITORS, TICKS);
        let prepared = prepare(transport, &inputs, None);
        setups.push(started.elapsed().as_secs_f64());
        last = Some((inputs, prepared));
    }
    last.expect("at least one set-up")
}

/// The untraced workload on `transport` for `seconds`, then its checks.
pub fn run(transport: Transport, seed: u64, seconds: f64) -> (Outcome, TaskInputs) {
    let mut setups = Vec::new();
    let (inputs, prepared) = set_up(transport, seed, &mut setups);
    let mut out = Outcome::new();
    let first = execute(prepared, &inputs);
    let (mut rates, mut walls) = (Vec::new(), Vec::new());
    let (mut cpu_ns, mut failed) = (0u64, failed_ticks(&first.report));
    let mut ticks = inputs.monitor_ticks();
    let started = Instant::now();
    while rates.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        // Set up again before every run, so `setup_s` samples the whole
        // run rather than one moment of it.
        let (again, prepared) = set_up(transport, seed, &mut setups);
        out.check(
            "task: the same seed generates identical inputs",
            again.fingerprint() == inputs.fingerprint(),
        );
        let r = execute(prepared, &again);
        rates.push(inputs.monitor_ticks() as f64 / sys::unstolen_wall_s(r.wall_s, r.steal_ns));
        walls.push((r.wall_s, r.steal_ns));
        cpu_ns += r.cpu_ns;
        ticks += inputs.monitor_ticks();
        failed += failed_ticks(&r.report);
        out.check(
            "task: every run returns the same report",
            r.report == first.report,
        );
    }
    out.attempted = ticks;
    out.failed = failed;

    match transport {
        Transport::InProc => {
            let (alerts, samples) = reference(&inputs);
            out.check(
                "task_inproc: alert ticks and samples equal core::DistributedTask",
                first.report.alert_ticks == alerts && first.report.total_samples == samples,
            );
        }
        Transport::Net => {
            let inproc = run_once(Transport::InProc, &inputs, None);
            out.check(
                "task_net: RuntimeReport bit-identical to task_inproc",
                first.report == inproc.report,
            );
        }
    }
    let (events, detected) = detection(&inputs, &first.report);
    out.check("task: the inputs contain violation events", events > 0);
    let runs = rates.len();
    let n = inputs.monitors();
    out.e2e("monitor_ticks_per_s", median(&rates), "1/s");
    out.e2e(
        "cpu_ns_per_monitor_tick",
        ratio(cpu_ns as f64, (ticks - inputs.monitor_ticks()) as f64),
        "ns",
    );
    out.e2e("cost_ratio", first.report.cost_ratio(n), "ratio");
    out.e2e(
        "detect_ratio",
        ratio(detected as f64, events as f64),
        "ratio",
    );
    out.e2e(
        "ok_ratio",
        1.0 - ratio(failed as f64, ticks as f64),
        "ratio",
    );
    out.e2e("setup_s", median(&setups), "s");
    out.line(format!(
        "task ({transport:?}): {n} monitors x {} windows, {runs} timed runs at {:.0} to {:.0} monitor-ticks/s, {events} violation events, {detected} detected",
        inputs.ticks(),
        sorted(&rates)[0],
        sorted(&rates)[runs - 1],
    ));
    out.line(sys::stolen_line(inputs.monitor_ticks(), &walls));
    out.finding_misdetect(1.0 - ratio(detected as f64, events as f64));
    (out, inputs)
}

/// What replaying the task's frame sequence through bare monitor actors
/// gives: per-call `handle_frame` times and the encoded frames.
#[derive(Default)]
struct Replay {
    handle_ns: Vec<f64>,
    /// The first [`CAPTURED_FRAMES`] encoded frames, both directions.
    frames: Vec<Bytes>,
    bytes: usize,
    encoded: usize,
}

impl Replay {
    /// Times one `handle_frame` call and encodes the frame and reply as
    /// the wire would carry them.
    fn deliver(
        &mut self,
        actor: &mut MonitorActor,
        msg: CoordinatorToMonitor,
    ) -> Option<MonitorFrame> {
        let started = Instant::now();
        let (reply, _) = actor.handle_frame(ControlFrame { epoch: 0, msg });
        self.handle_ns.push(started.elapsed().as_nanos() as f64);
        let sealed = [
            Some(ControlFrame::seal(0, msg)),
            reply.clone().map(|r| MonitorFrame::seal(r.epoch, r.msg)),
        ];
        for frame in sealed.into_iter().flatten() {
            self.bytes += frame.len();
            self.encoded += 1;
            if self.frames.len() < CAPTURED_FRAMES {
                self.frames.push(frame);
            }
        }
        reply
    }

    /// Mean encoded frame size, bytes.
    fn frame_bytes(&self) -> f64 {
        ratio(self.bytes as f64, self.encoded as f64)
    }
}

/// Drives one `MonitorActor` per monitor with the runner's per-tick
/// frame sequence — a `Tick` frame to every monitor, then a `Poll` to
/// every monitor when any reported a local violation — timing each
/// `handle_frame` call.
fn replay_monitors(inputs: &TaskInputs) -> Replay {
    let n = inputs.monitors();
    let spec = &inputs.spec;
    let mut actors: Vec<MonitorActor> = spec
        .monitors()
        .iter()
        .map(|m| {
            let mut sampler = AdaptiveSampler::new(*spec.adaptation(), m.local_threshold);
            sampler.set_error_allowance(ERR / n as f64);
            MonitorActor::new(m.id, sampler)
        })
        .collect();
    let mut replay = Replay::default();
    for tick in 0..inputs.ticks() {
        let mut violated = false;
        for (m, actor) in actors.iter_mut().enumerate() {
            let data = TickData {
                tick: tick as Tick,
                value: inputs.traces[m][tick],
            };
            let reply = replay.deliver(actor, CoordinatorToMonitor::Tick(data));
            violated |= matches!(
                reply.map(|r| r.msg),
                Some(MonitorToCoordinator::TickDone {
                    violation: true,
                    ..
                })
            );
        }
        if violated {
            for actor in &mut actors {
                replay.deliver(actor, CoordinatorToMonitor::Poll { tick: tick as Tick });
            }
        }
    }
    replay
}

/// ns per `AdaptiveSampler::observe` call, replaying every monitor's
/// trace on its own schedule (median over five passes).
fn sampler_observe_ns(inputs: &TaskInputs) -> f64 {
    let spec = &inputs.spec;
    let mut per_call = Vec::new();
    for _ in 0..5 {
        let (mut calls, mut ns) = (0u64, 0u128);
        for (m, trace) in spec.monitors().iter().zip(&inputs.traces) {
            let mut sampler = AdaptiveSampler::new(*spec.adaptation(), m.local_threshold);
            sampler.set_error_allowance(ERR / inputs.monitors() as f64);
            let mut next = 0u64;
            let started = Instant::now();
            for (tick, &value) in trace.iter().enumerate() {
                let tick = tick as Tick;
                if tick >= next {
                    next = sampler.observe(tick, value).next_sample_tick.max(tick + 1);
                    calls += 1;
                }
            }
            ns += started.elapsed().as_nanos();
        }
        per_call.push(ratio(ns as f64, calls as f64));
    }
    median(&per_call)
}

/// One-way `MonitorLink::send` → receive latency between two threads,
/// as half of each ping-pong round trip.
fn link_hops(round_trips: usize) -> Vec<f64> {
    let (to_echo, echo_in) = crossbeam::channel::unbounded::<Bytes>();
    let (to_main, main_in) = crossbeam::channel::unbounded::<Bytes>();
    let ping = MonitorLink::new(to_echo);
    let pong = MonitorLink::new(to_main);
    let echo = std::thread::spawn(move || {
        while let Ok(frame) = echo_in.recv() {
            if !pong.send(frame) {
                break;
            }
        }
    });
    let frame = ControlFrame::seal(0, CoordinatorToMonitor::Poll { tick: 1 });
    let mut hops = Vec::with_capacity(round_trips);
    for _ in 0..round_trips {
        let started = Instant::now();
        assert!(ping.send(frame.clone()), "echo thread alive");
        main_in.recv().expect("echo replies");
        hops.push(started.elapsed().as_nanos() as f64 / 2.0);
    }
    drop(ping);
    echo.join().expect("echo thread");
    hops
}

/// ns per frame for `FrameBuffer::extend` + `next_frame` over `frames`
/// delivered in 64 KiB reads (median over five passes).
fn codec_ns_per_frame(frames: &[Bytes]) -> f64 {
    let stream: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();
    let max = TransportConfig::default().max_frame_size;
    let mut per_frame = Vec::new();
    for _ in 0..5 {
        let mut buffer = FrameBuffer::new(max);
        let mut decoded = 0usize;
        let started = Instant::now();
        for chunk in stream.chunks(64 * 1024) {
            buffer.extend(chunk);
            while let Ok(Some(frame)) = buffer.next_frame() {
                decoded += 1;
                std::hint::black_box(frame);
            }
        }
        per_frame.push(started.elapsed().as_nanos() as f64 / decoded.max(1) as f64);
        assert_eq!(decoded, frames.len(), "codec returns every frame");
    }
    median(&per_frame)
}

/// `(p50, p99)` of an obs histogram, ns: the upper bound of the
/// power-of-two bucket holding each quantile, capped at the recorded
/// maximum; zeros when the run does not record it.
fn histogram(obs: &Obs, name: &str) -> (f64, f64) {
    obs.snapshot(0)
        .histograms
        .get(name)
        .map_or((0.0, 0.0), |h| {
            (h.quantile(0.5) as f64, h.quantile(0.99) as f64)
        })
}

/// Runtime-layer numbers for the ledger. `transport` is the transport the
/// traced run uses; `native` says whether `inputs` are the workload's
/// own or a probe's. Returns the in-process runner's wall ns per
/// monitor-tick on `inputs`, and its monitor count.
pub fn layers(
    transport: Transport,
    inputs: &TaskInputs,
    tracer: &mut Tracer,
    out: &mut Outcome,
    native: bool,
) -> (f64, usize) {
    let replay = tracer.span("runtime.monitor.replay", |_| replay_monitors(inputs));
    let handle = Summary::of(&replay.handle_ns);
    let observe_ns = tracer.span("core.sampler_replay", |_| sampler_observe_ns(inputs));
    let hops = Summary::of(&tracer.span("runtime.link.ping_pong", |_| link_hops(20_000)));
    out.layer(
        "runtime.monitor.handle_frame_p50_ns",
        handle.p50,
        "ns",
        native,
    );
    out.layer(
        "runtime.monitor.handle_frame_p99_ns",
        handle.p99,
        "ns",
        native,
    );
    out.layer(
        "runtime.message.frame_bytes",
        replay.frame_bytes(),
        "B",
        native,
    );
    out.layer("core.sampler_observe_ns", observe_ns, "ns", native);
    out.layer("runtime.link.hop_p50_ns", hops.p50, "ns", native);
    out.layer("runtime.link.hop_p99_ns", hops.p99, "ns", native);

    let untraced = run_once(transport, inputs, None);
    let obs = Obs::new(true);
    let traced = tracer.span("runtime.task_run", |_| {
        run_once(transport, inputs, Some(&obs))
    });
    out.check(
        "task: traced run returns the untraced report",
        traced.report == untraced.report,
    );
    let (coord_p50, coord_p99) = histogram(&obs, names::COORDINATOR_TICK_NS);
    let (runner_p50, runner_p99) = histogram(&obs, names::RUNNER_TICK_LATENCY_NS);
    let report = &traced.report;
    out.layer("runtime.coordinator.tick_p50_ns", coord_p50, "ns", native);
    out.layer("runtime.coordinator.tick_p99_ns", coord_p99, "ns", native);
    out.layer("runtime.runner.tick_p50_ns", runner_p50, "ns", native);
    out.layer("runtime.runner.tick_p99_ns", runner_p99, "ns", native);
    out.layer(
        "runtime.coordinator.polls",
        report.polls as f64,
        "count",
        native,
    );
    out.layer(
        "runtime.coordinator.poll_samples",
        report.poll_samples as f64,
        "count",
        native,
    );
    out.layer(
        "runtime.coordinator.local_violation_reports",
        report.local_violation_reports as f64,
        "count",
        native,
    );
    if runner_p50 == 0.0 {
        out.line(format!(
            "note: the {transport:?} transport records no {} histogram; runtime.runner.tick_* read 0",
            names::RUNNER_TICK_LATENCY_NS
        ));
    }

    let codec = tracer.span("runtime.net.codec", |_| codec_ns_per_frame(&replay.frames));
    out.layer(
        "runtime.net.codec_ns_per_frame",
        codec,
        "ns",
        native && transport == Transport::Net,
    );
    let net = match &traced.net {
        Some(net) => *net,
        None => {
            let probe = TaskInputs::netflow(1, 8, 200);
            tracer
                .span("runtime.net.probe_run", |_| {
                    run_once(Transport::Net, &probe, None)
                })
                .net
                .expect("net stats")
        }
    };
    let net_native = native && transport == Transport::Net;
    out.layer(
        "runtime.net.frames_in",
        net.frames_in as f64,
        "count",
        net_native,
    );
    out.layer(
        "runtime.net.frames_out",
        net.frames_out as f64,
        "count",
        net_native,
    );
    out.layer(
        "runtime.net.max_queue_depth",
        net.max_queue_depth as f64,
        "count",
        net_native,
    );
    out.layer(
        "runtime.net.backpressure_drops",
        net.backpressure_drops as f64,
        "count",
        net_native,
    );

    if native {
        // Against the median untraced run of the short timed phase.
        let rate = out
            .e2e_value("monitor_ticks_per_s")
            .expect("timed phase ran first");
        out.tracing_overhead(traced.wall_s, inputs.monitor_ticks() as f64 / rate);
    }
    let inproc_wall = match transport {
        Transport::InProc => untraced.wall_s,
        Transport::Net => run_once(Transport::InProc, inputs, None).wall_s,
    };
    let mt = inputs.monitor_ticks() as f64;
    if native && transport == Transport::Net {
        out.line(format!(
            "ledger socket hop (task_net - task_inproc, per monitor-tick): {:.0} ns = ({:.3} s - {inproc_wall:.3} s) / {mt:.0} monitor-ticks",
            (untraced.wall_s - inproc_wall) * 1e9 / mt,
            untraced.wall_s,
        ));
    }
    (inproc_wall * 1e9 / mt, inputs.monitors())
}
