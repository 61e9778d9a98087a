//! Observability overhead benchmark.
//!
//! Answers the question every instrumented hot path raises: *what does
//! the instrumentation cost?* Two measurements:
//!
//! 1. **Micro** — the monitor-actor sample path
//!    (`AdaptiveSampler::observe` plus the exact obs operations
//!    `MonitorActor` performs per sample: a sample counter, and on every
//!    `TRACE_STRIDE`-th sample a clock pair feeding the latency histogram
//!    and a `SpanLog::record_span` event) in three configurations: no obs
//!    handles at all (the pre-obs hot path), handles resolved against a
//!    *disabled* registry (the runtime's default — each op must cost one
//!    relaxed atomic load), and handles against an *enabled* registry.
//! 2. **End-to-end** — wall time per tick of a full `TaskRunner` run
//!    (monitor actors and coordinator round stepped inline on one
//!    thread) with obs disabled versus enabled.
//!
//! Writes `reproduction/obs_overhead.txt` and
//! `reproduction/obs_overhead.json`. `--smoke` shrinks the workload and
//! exits non-zero if the disabled micro overhead or the enabled
//! end-to-end overhead exceeds the checked-in bounds — the CI guard
//! against observability quietly taxing the hot path.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use serde::Serialize;
use volley_core::task::TaskSpec;
use volley_core::{AdaptationConfig, AdaptiveSampler};
use volley_obs::{names, Counter, Histogram, Obs, SpanLog};
use volley_runtime::{TaskRunner, TRACE_STRIDE};

/// Smoke-mode ceiling on the *disabled* micro overhead, percent. The
/// design target is "statistically indistinguishable from baseline";
/// the bound leaves headroom for shared-runner noise.
const DISABLED_MICRO_BOUND_PCT: f64 = 15.0;
/// Smoke-mode ceiling on the *enabled* end-to-end overhead, percent.
/// The inline 3-monitor tick measures +13–16% on a 2-vCPU host; the
/// bound leaves room for CI jitter.
const ENABLED_E2E_BOUND_PCT: f64 = 25.0;

/// The per-sample obs operations `MonitorActor` performs, pre-resolved.
struct Handles {
    spans: SpanLog,
    hist: Histogram,
    samples: Counter,
}

fn handles(obs: &Obs) -> Handles {
    Handles {
        spans: obs.spans().clone(),
        hist: obs.registry().histogram(names::MONITOR_SAMPLE_NS),
        samples: obs.registry().counter(names::MONITOR_SAMPLES_TOTAL),
    }
}

/// One micro round: ns per sample-path iteration.
fn micro_round(iters: u64, obs: Option<&Handles>) -> f64 {
    let config = AdaptationConfig::builder()
        .error_allowance(0.01)
        .build()
        .expect("valid config");
    let mut sampler = AdaptiveSampler::new(config, 100.0);
    let started = Instant::now();
    for t in 0..iters {
        // Sub-threshold wobble: the sampler exercises its likelihood
        // bookkeeping without constant violations.
        let value = 20.0 + ((t * 7) % 13) as f64;
        let timed = t % TRACE_STRIDE == 0 && obs.is_some_and(|h| h.spans.enabled());
        let started = timed.then(Instant::now);
        let observation = sampler.observe(t, black_box(value));
        if let Some(h) = obs {
            h.samples.inc();
            if let Some(started) = started {
                let ended = Instant::now();
                h.hist.record((ended - started).as_nanos() as u64);
                h.spans.record_span("monitor_sample", started, ended);
            }
        }
        black_box(&observation);
    }
    started.elapsed().as_nanos() as f64 / iters as f64
}

/// One end-to-end round: µs per runner tick.
fn e2e_round(enabled: bool, ticks: usize) -> f64 {
    const MONITORS: usize = 3;
    let spec = TaskSpec::builder(100.0 * MONITORS as f64)
        .monitors(MONITORS)
        .error_allowance(0.01)
        .build()
        .expect("valid spec");
    let local = 100.0;
    let traces: Vec<Vec<f64>> = (0..MONITORS)
        .map(|m| {
            (0..ticks)
                .map(|t| {
                    let wobble = ((t * (3 + m)) % 7) as f64;
                    if t % 50 == 49 {
                        local * 1.4 + wobble
                    } else {
                        local * 0.2 + wobble
                    }
                })
                .collect()
        })
        .collect();
    let runner = TaskRunner::new(&spec)
        .expect("valid runner")
        .with_obs(Obs::new(enabled));
    let started = Instant::now();
    let report = runner.run(&traces).expect("run completes");
    assert_eq!(report.ticks, ticks as u64);
    started.elapsed().as_micros() as f64 / ticks as f64
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn overhead_pct(candidate: f64, baseline: f64) -> f64 {
    if baseline <= 0.0 {
        return 0.0;
    }
    100.0 * (candidate - baseline) / baseline
}

fn out_dir() -> PathBuf {
    let args: Vec<String> = std::env::args().collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--out" {
            if let Some(dir) = it.next() {
                return PathBuf::from(dir);
            }
        }
    }
    PathBuf::from("reproduction")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (iters, e2e_ticks, rounds) = if smoke {
        (200_000u64, 200usize, 3usize)
    } else {
        (2_000_000, 600, 5)
    };
    eprintln!(
        "obs_overhead: smoke={smoke}, {iters} micro iters, {e2e_ticks} e2e ticks, {rounds} rounds"
    );

    // Warm-up: fault in code paths and stabilize the clock.
    let _ = micro_round(iters / 10, None);

    let disabled_obs = Obs::disabled();
    let enabled_obs = Obs::new(true);
    let disabled_handles = handles(&disabled_obs);
    let enabled_handles = handles(&enabled_obs);
    let (mut base, mut off, mut on) = (Vec::new(), Vec::new(), Vec::new());
    // Interleaved rounds so drift (thermal, scheduler) hits all three
    // configurations equally.
    for _ in 0..rounds {
        base.push(micro_round(iters, None));
        off.push(micro_round(iters, Some(&disabled_handles)));
        on.push(micro_round(iters, Some(&enabled_handles)));
    }
    let micro_baseline = median(&mut base);
    let micro_disabled = median(&mut off);
    let micro_enabled = median(&mut on);
    let micro_spread = base
        .iter()
        .fold(0.0f64, |acc, v| acc.max((v - micro_baseline).abs()));

    let (mut e2e_base, mut e2e_on) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        e2e_base.push(e2e_round(false, e2e_ticks));
        e2e_on.push(e2e_round(true, e2e_ticks));
    }
    let e2e_disabled = median(&mut e2e_base);
    let e2e_enabled = median(&mut e2e_on);

    let disabled_pct = overhead_pct(micro_disabled, micro_baseline);
    let enabled_pct = overhead_pct(micro_enabled, micro_baseline);
    let e2e_pct = overhead_pct(e2e_enabled, e2e_disabled);
    // "Indistinguishable" operationally: the disabled delta is within the
    // round-to-round spread of the baseline itself.
    let indistinguishable = (micro_disabled - micro_baseline).abs() <= micro_spread.max(0.5);

    let text = format!(
        "obs overhead ({} micro iters, {} e2e ticks, {} rounds, medians)\n\
         \n\
         micro (monitor sample path, ns/op):\n\
           baseline (no obs handles)   {micro_baseline:8.1}\n\
           obs disabled                {micro_disabled:8.1}  ({disabled_pct:+6.2}%)\n\
           obs enabled                 {micro_enabled:8.1}  ({enabled_pct:+6.2}%)\n\
           baseline round spread       {micro_spread:8.1}\n\
           disabled indistinguishable from baseline: {indistinguishable}\n\
         \n\
         end-to-end (TaskRunner, µs/tick):\n\
           obs disabled                {e2e_disabled:8.1}\n\
           obs enabled                 {e2e_enabled:8.1}  ({e2e_pct:+6.2}%)\n\
         \n\
         smoke bounds: disabled micro < {DISABLED_MICRO_BOUND_PCT}%, enabled e2e < {ENABLED_E2E_BOUND_PCT}%\n",
        iters, e2e_ticks, rounds,
    );
    print!("{text}");

    #[derive(Serialize)]
    struct OverheadReport {
        schema: u32,
        smoke: bool,
        micro_iters: u64,
        e2e_ticks: usize,
        rounds: usize,
        micro_baseline_ns_op: f64,
        micro_disabled_ns_op: f64,
        micro_enabled_ns_op: f64,
        micro_baseline_spread_ns: f64,
        micro_disabled_overhead_pct: f64,
        micro_enabled_overhead_pct: f64,
        disabled_indistinguishable: bool,
        e2e_disabled_us_tick: f64,
        e2e_enabled_us_tick: f64,
        e2e_enabled_overhead_pct: f64,
        disabled_micro_bound_pct: f64,
        enabled_e2e_bound_pct: f64,
    }
    let json = OverheadReport {
        schema: 1,
        smoke,
        micro_iters: iters,
        e2e_ticks,
        rounds,
        micro_baseline_ns_op: micro_baseline,
        micro_disabled_ns_op: micro_disabled,
        micro_enabled_ns_op: micro_enabled,
        micro_baseline_spread_ns: micro_spread,
        micro_disabled_overhead_pct: disabled_pct,
        micro_enabled_overhead_pct: enabled_pct,
        disabled_indistinguishable: indistinguishable,
        e2e_disabled_us_tick: e2e_disabled,
        e2e_enabled_us_tick: e2e_enabled,
        e2e_enabled_overhead_pct: e2e_pct,
        disabled_micro_bound_pct: DISABLED_MICRO_BOUND_PCT,
        enabled_e2e_bound_pct: ENABLED_E2E_BOUND_PCT,
    };
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create output dir");
    std::fs::write(dir.join("obs_overhead.txt"), &text).expect("write txt");
    std::fs::write(
        dir.join("obs_overhead.json"),
        serde_json::to_string_pretty(&json).expect("serializable"),
    )
    .expect("write json");

    if smoke {
        let mut failed = false;
        if disabled_pct > DISABLED_MICRO_BOUND_PCT {
            eprintln!(
                "FAIL: disabled micro overhead {disabled_pct:.2}% exceeds bound {DISABLED_MICRO_BOUND_PCT}%"
            );
            failed = true;
        }
        if e2e_pct > ENABLED_E2E_BOUND_PCT {
            eprintln!(
                "FAIL: enabled e2e overhead {e2e_pct:.2}% exceeds bound {ENABLED_E2E_BOUND_PCT}%"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("smoke bounds hold");
    }
}
