//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <fleet_engine|task_inproc|task_net|durable_serve>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, measures for about
//! `--seconds`, checks the program's outputs, and prints as its last
//! stdout line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! ledger with `--trace 1`. Exits 1 when a correctness check fails, 2 on
//! a usage error. Run it from the repository root; scratch files go
//! under `.bench_work/` and span traces under `.bench_out/`.

mod durable;
mod fleet;
mod gen;
mod stats;
mod sys;
mod task;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;

use trace::Tracer;

/// End-to-end metrics, in output order.
const E2E: [&str; 7] = [
    "monitor_ticks_per_s",
    "cpu_ns_per_monitor_tick",
    "cost_ratio",
    "detect_ratio",
    "ok_ratio",
    "setup_s",
    "peak_rss_mib",
];

/// Per-layer metrics of the traced run, in output order.
const LAYERS: [&str; 66] = [
    "gen.ns_per_value",
    "core.bank_observe_ns",
    "core.bank_observes",
    "core.interval_grows",
    "core.interval_collapses",
    "core.bound_ns",
    "core.sampler_observe_ns",
    "sim.parallel_efficiency",
    "sim.shard_imbalance",
    "sim.engine_overhead_ns_per_vm_window",
    "sim.epochs",
    "sim.steals",
    "runtime.monitor.handle_frame_p50_ns",
    "runtime.monitor.handle_frame_p99_ns",
    "runtime.message.frame_bytes",
    "runtime.link.hop_p50_ns",
    "runtime.link.hop_p99_ns",
    "runtime.coordinator.tick_p50_ns",
    "runtime.coordinator.tick_p99_ns",
    "runtime.runner.tick_p50_ns",
    "runtime.runner.tick_p99_ns",
    "runtime.coordinator.polls",
    "runtime.coordinator.poll_samples",
    "runtime.coordinator.local_violation_reports",
    "runtime.net.codec_ns_per_frame",
    "runtime.net.frames_in",
    "runtime.net.frames_out",
    "runtime.net.max_queue_depth",
    "runtime.net.backpressure_drops",
    "wal.append_p50_ns",
    "wal.append_p99_ns",
    "wal.persisted",
    "wal.bytes",
    "store.append_ns_per_record",
    "store.bytes_per_record",
    "store.segments",
    "store.recorder_io_errors",
    "store.query_p50_ns",
    "store.query_p99_ns",
    "obs.counter_ns_enabled",
    "obs.counter_ns_disabled",
    "obs.histogram_ns_enabled",
    "obs.render_ns",
    "serve.scrape_p50_ms",
    "serve.scrape_p99_ms",
    "serve.query_p50_ms",
    "serve.query_p99_ms",
    "serve.wait_ms",
    "serve.connections",
    "serve.bad_requests",
    "serve.slow_client_drops",
    "serve.gen_late_p99_ms",
    "misdetect_rate",
    "failed_ratio",
    "trace.overhead_ratio",
    "trace.spans",
    "self.gen_ms",
    "self.core_ms",
    "self.sim_ms",
    "self.runtime_ms",
    "self.store_ms",
    "self.obs_ms",
    "self.runtime_checkpoint_ms",
    "self.runtime_net_ms",
    "self.runtime_link_ms",
    "self.runtime_monitor_ms",
];

/// One named number with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Measured on the workload's own run (`false`: a layer probe).
    native: bool,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    checks: Vec<(String, bool)>,
    /// Operations attempted and failed: monitor-tick reports plus HTTP
    /// requests.
    pub attempted: u64,
    pub failed: u64,
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    lines: Vec<String>,
    misdetect_rate: f64,
    overhead_ratio: Option<f64>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome::default()
    }

    /// Records a correctness check; a `false` fails the command.
    pub fn check(&mut self, name: &str, passed: bool) {
        match self.checks.iter_mut().find(|(n, _)| n == name) {
            Some((_, ok)) => *ok &= passed,
            None => self.checks.push((name.to_string(), passed)),
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.into(),
            value,
            unit,
            native: true,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, native: bool) {
        self.layers.push(Metric {
            name: name.into(),
            value,
            unit,
            native,
        });
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Stores the mis-detection rate and records a finding when it
    /// exceeds the error allowance.
    pub fn finding_misdetect(&mut self, rate: f64) {
        self.misdetect_rate = rate;
        if rate > gen::ERR {
            self.line(format!(
                "finding (ROADMAP item 4): misdetect_rate {rate:.4} exceeds err {}",
                gen::ERR
            ));
        }
    }

    /// The end-to-end metric `name`, if measured.
    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .rev()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Traced ÷ untraced wall time − 1 of the workload's own run.
    pub fn tracing_overhead(&mut self, traced_s: f64, untraced_s: f64) {
        let ratio = traced_s / untraced_s - 1.0;
        self.overhead_ratio = Some(ratio);
        self.line(format!(
            "tracing overhead: {:+.1}% (traced {traced_s:.3} s vs untraced {untraced_s:.3} s)",
            100.0 * ratio
        ));
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["fleet_engine", "task_inproc", "task_net", "durable_serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

/// Scratch directory of this process, removed on drop (with its parent
/// when no other run is using it).
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Open-loop requests per class in the durable workload: at least 1000,
/// so a p99 has ten samples beyond it.
fn requests_per_class(seconds: f64) -> usize {
    ((100.0 * seconds).ceil() as usize).max(1000)
}

fn untraced(args: &Args, work: &WorkDir) -> Outcome {
    let mut out = match args.workload.as_str() {
        "fleet_engine" => fleet::run(args.seed, args.seconds),
        "task_inproc" => task::run(task::Transport::InProc, args.seed, args.seconds).0,
        "task_net" => task::run(task::Transport::Net, args.seed, args.seconds).0,
        _ => {
            let per_class = requests_per_class(args.seconds);
            durable::run(args.seed, args.seconds, per_class, &work.0).0
        }
    };
    out.e2e("peak_rss_mib", sys::peak_rss_mib(), "MiB");
    out
}

/// The traced run: a short untraced run for the checks and the
/// overhead baseline, the workload's own layers traced, and small probes
/// for the layers the workload does not exercise.
fn traced(args: &Args, work: &WorkDir, tracer: &mut Tracer) -> Outcome {
    let seed = args.seed;
    let short = (args.seconds / 4.0).max(1.0);
    let probe_inputs = || gen::TaskInputs::netflow(seed, 8, 300);
    let durable_probe = |tracer: &mut Tracer, out: &mut Outcome| {
        let (probe, mut d) =
            tracer.span("probe.durable", |_| durable::run(seed, 1.0, 100, &work.0));
        out.checks.extend(probe.checks);
        durable::layers(&mut d, tracer, out, false);
    };
    let (mut out, engine, runtime) = match args.workload.as_str() {
        "fleet_engine" => {
            let mut out = tracer.span("untraced", |_| fleet::run(seed, short));
            let engine = fleet::layers(seed, 1_000_000, tracer, &mut out, true);
            let runtime = task::layers(
                task::Transport::InProc,
                &probe_inputs(),
                tracer,
                &mut out,
                false,
            );
            durable_probe(tracer, &mut out);
            (out, engine, runtime)
        }
        "task_inproc" | "task_net" => {
            let transport = if args.workload == "task_net" {
                task::Transport::Net
            } else {
                task::Transport::InProc
            };
            let (mut out, inputs) = tracer.span("untraced", |_| task::run(transport, seed, short));
            let runtime = task::layers(transport, &inputs, tracer, &mut out, true);
            let engine = sys::unpinned(|| fleet::layers(seed, 10_000, tracer, &mut out, false));
            durable_probe(tracer, &mut out);
            (out, engine, runtime)
        }
        _ => {
            let per_class = requests_per_class(short);
            let (mut out, mut d) = tracer.span("untraced", |_| {
                durable::run(seed, short, per_class, &work.0)
            });
            let runtime = task::layers(task::Transport::InProc, &d.inputs, tracer, &mut out, false);
            let engine = fleet::layers(seed, 10_000, tracer, &mut out, false);
            durable::layers(&mut d, tracer, &mut out, true);
            (out, engine, runtime)
        }
    };
    out.line(format!(
        "ledger 1b (runtime / engine, wall ns per decision): {:.0}x = {:.1} ns per monitor-tick \
         (TaskRunner, {} monitors) / {:.2} ns per vm-window (ShardedEngine, {} VMs, {} threads)",
        runtime.0 / engine.0,
        runtime.0,
        runtime.1,
        engine.0,
        engine.1,
        sys::nproc(),
    ));
    out.layer("misdetect_rate", out.misdetect_rate, "ratio", true);
    out.layer(
        "failed_ratio",
        stats::ratio(out.failed as f64, out.attempted as f64),
        "ratio",
        true,
    );
    out.layer(
        "trace.overhead_ratio",
        out.overhead_ratio.unwrap_or(0.0),
        "ratio",
        true,
    );
    let times = tracer.self_times();
    out.layer(
        "trace.spans",
        times.values().map(|t| t.0).sum::<u64>() as f64,
        "count",
        true,
    );
    // Self time per layer: spans named `<layer>` or `<layer>.<call>`.
    let layer_of = |name: &str| -> String {
        let parts: Vec<&str> = name.split('.').collect();
        match parts.as_slice() {
            ["runtime", sub, ..] if ["checkpoint", "net", "link", "monitor"].contains(sub) => {
                format!("runtime_{sub}")
            }
            [first, ..] => first.to_string(),
            [] => String::new(),
        }
    };
    for metric in LAYERS.iter().filter_map(|m| m.strip_prefix("self.")) {
        let layer = metric.trim_end_matches("_ms");
        let ns: u64 = times
            .iter()
            .filter(|(name, _)| layer_of(name) == layer)
            .map(|(_, t)| t.2)
            .sum();
        out.layer(&format!("self.{metric}"), ns as f64 / 1e6, "ms", true);
    }
    for (name, (count, total, own)) in &times {
        out.line(format!(
            "span {name}: n={count} total {:.3} ms self {:.3} ms",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        ));
    }
    out
}

fn json_metrics(metrics: &[&Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push('}');
    s
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fleet_engine|task_inproc|task_net|durable_serve> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    println!("{}", sys::host_stamp(&args.workload, args.seed));
    if args.workload == "task_net" {
        // The networked task runs on one CPU; see `sys::pin_program`.
        println!("program pinned to CPU {}", sys::pin_program());
    }
    let work = WorkDir(PathBuf::from(".bench_work").join(std::process::id().to_string()));
    std::fs::create_dir_all(&work.0).expect("create the scratch directory");

    let mut tracer = Tracer::new(args.seed);
    let mut out = if args.trace {
        traced(&args, &work, &mut tracer)
    } else {
        untraced(&args, &work)
    };
    let wanted: &[&str] = if args.trace { &LAYERS } else { &E2E };
    let source = if args.trace { &out.layers } else { &out.e2e };
    let metrics: Vec<&Metric> = wanted
        .iter()
        .map(|name| {
            source
                .iter()
                .rev()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
        })
        .collect();
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<Metric> = metrics.into_iter().cloned().collect();
    out.check("every reported metric is a finite number", finite);

    if args.trace {
        let dir = PathBuf::from(".bench_out");
        let path = dir.join(format!("trace-{}.jsonl", args.workload));
        if std::fs::create_dir_all(&dir).is_ok()
            && std::fs::write(&path, tracer.to_json_lines()).is_ok()
        {
            println!("spans written to {}", path.display());
        }
    }
    for line in &out.lines {
        println!("{line}");
    }
    for m in &metrics {
        let tag = if m.native { "" } else { "  (probe)" };
        println!("metric {:<44} {:>18.6} {}{tag}", m.name, m.value, m.unit);
    }
    for (name, ok) in &out.checks {
        println!("check {}: {name}", if *ok { "PASS" } else { "FAIL" });
    }
    let correct = out.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        json_metrics(&metrics.iter().collect::<Vec<_>>())
    );
    drop(work);
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::{E2E, LAYERS};

    #[test]
    fn benchmark_json_names_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for name in E2E.iter().chain(LAYERS.iter()) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
        let workloads = 4;
        assert_eq!(
            json.matches("\"name\":").count(),
            E2E.len() + LAYERS.len() + workloads
        );
    }
}
