//! Integration: the in-process runtime (actors and the coordinator core
//! stepped inline) agrees exactly with the step-driven reference
//! implementation, and degrades predictably under injected message loss.

use volley::core::coordinator::CoordinationScheme;
use volley::core::task::TaskSpec;
use volley::{DistributedTask, TaskRunner};
use volley_runtime::{FaultPath, FaultPlan};

/// Deterministic pseudo-random traces (no external RNG needed).
fn traces(monitors: usize, ticks: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..monitors)
        .map(|m| {
            let mut state = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(m as u64);
            (0..ticks)
                .map(|t| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let noise = (state >> 33) as f64 / (1u64 << 31) as f64; // 0..4
                    let base = 20.0 + 5.0 * (m as f64) + noise * 5.0;
                    // Periodic surges per monitor.
                    if t % (500 + m * 37) > (480 + m * 37) {
                        base + 120.0
                    } else {
                        base
                    }
                })
                .collect()
        })
        .collect()
}

fn spec(monitors: usize, global: f64, err: f64) -> TaskSpec {
    TaskSpec::builder(global)
        .monitors(monitors)
        .error_allowance(err)
        .max_interval(8)
        .patience(5)
        .warmup_samples(3)
        .build()
        .expect("valid spec")
}

fn reference_run(spec: &TaskSpec, traces: &[Vec<f64>]) -> (Vec<u64>, u64) {
    let mut task = DistributedTask::new(spec).expect("valid task");
    let ticks = traces[0].len();
    let mut alerts = Vec::new();
    let mut samples = 0u64;
    let mut values = vec![0.0; traces.len()];
    for tick in 0..ticks as u64 {
        for (m, tr) in traces.iter().enumerate() {
            values[m] = tr[tick as usize];
        }
        let out = task.step(tick, &values).expect("step");
        samples += u64::from(out.total_samples());
        if out.alerted() {
            alerts.push(tick);
        }
    }
    (alerts, samples)
}

#[test]
fn exact_parity_across_seeds_and_sizes() {
    for (monitors, seed) in [(2usize, 1u64), (3, 2), (5, 3)] {
        let traces = traces(monitors, 1200, seed);
        let spec = spec(monitors, 60.0 * monitors as f64, 0.02);
        let (ref_alerts, ref_samples) = reference_run(&spec, &traces);
        let report = TaskRunner::new(&spec)
            .expect("valid runner")
            .run(&traces)
            .expect("run succeeds");
        assert_eq!(
            report.alert_ticks, ref_alerts,
            "alerts (m={monitors}, seed={seed})"
        );
        assert_eq!(
            report.total_samples, ref_samples,
            "samples (m={monitors}, seed={seed})"
        );
    }
}

#[test]
fn parity_holds_for_even_scheme() {
    let monitors = 3;
    let traces = traces(monitors, 800, 11);
    let spec = spec(monitors, 200.0, 0.02);
    let mut reference = DistributedTask::with_scheme(
        &spec,
        CoordinationScheme::Even,
        volley::core::allocation::AllocationConfig::default(),
    )
    .expect("valid task");
    let mut ref_samples = 0u64;
    let mut values = vec![0.0; monitors];
    for tick in 0..800u64 {
        for (m, tr) in traces.iter().enumerate() {
            values[m] = tr[tick as usize];
        }
        ref_samples += u64::from(reference.step(tick, &values).expect("step").total_samples());
    }
    let report = TaskRunner::new(&spec)
        .expect("valid runner")
        .with_scheme(CoordinationScheme::Even)
        .run(&traces)
        .expect("run succeeds");
    assert_eq!(report.total_samples, ref_samples);
}

#[test]
fn message_loss_loses_alerts_monotonically() {
    let monitors = 2;
    let traces = traces(monitors, 1500, 4);
    let spec = spec(monitors, 100.0, 0.0); // periodic: maximal alert count
    let mut previous_alerts = u64::MAX;
    // One seed at rising rates: a report dropped at rate p is also dropped
    // at every higher rate, so the dropped sets nest.
    for loss in [0.0, 0.5, 1.0] {
        let plan = FaultPlan::new(1).with_drop_rate(FaultPath::ViolationReport, loss);
        let report = TaskRunner::new(&spec)
            .expect("valid runner")
            .with_fault_plan(plan)
            .run(&traces)
            .expect("run succeeds");
        assert!(
            report.alerts <= previous_alerts,
            "alerts should not increase with loss ({loss}: {} vs {previous_alerts})",
            report.alerts
        );
        previous_alerts = report.alerts;
        if loss == 0.0 {
            assert!(report.alerts > 0, "lossless run should alert");
        }
        if loss == 1.0 {
            assert_eq!(report.alerts, 0, "total loss cannot alert");
            assert_eq!(report.polls, 0);
        }
    }
}

#[test]
fn runtime_handles_many_monitors() {
    let monitors = 16;
    let traces = traces(monitors, 400, 9);
    let spec = spec(monitors, 50.0 * monitors as f64, 0.05);
    let report = TaskRunner::new(&spec)
        .expect("valid runner")
        .run(&traces)
        .expect("run succeeds");
    assert_eq!(report.ticks, 400);
    assert!(report.total_samples > 0);
}

/// The benchmark's netflow task shape: per-VM flood cascades over a
/// diurnal baseline, each local threshold at 1% selectivity of its own
/// trace and the global threshold their sum.
fn netflow_task(monitors: usize, ticks: usize, seed: u64) -> (TaskSpec, Vec<Vec<f64>>) {
    use volley::traces::netflow::{AttackSpec, NetflowConfig};
    let floods = volley::sim::DdosCascadeConfig::default();
    let mut config = NetflowConfig::builder()
        .seed(seed)
        .vms(monitors)
        .diurnal(volley::traces::DiurnalPattern::new(ticks as u64, 0.4));
    for start in (0..ticks as u64).step_by(floods.attack_period as usize) {
        for vm in 0..monitors {
            config = config.attack(AttackSpec {
                vm,
                start_tick: start,
                duration_ticks: floods.attack_duration,
                peak_asymmetry: floods.peak_asymmetry,
            });
        }
    }
    let traces: Vec<Vec<f64>> = config
        .build()
        .generate(ticks)
        .into_iter()
        .map(|t| t.rho)
        .collect();
    let thresholds: Vec<f64> = traces
        .iter()
        .map(|t| volley::core::selectivity_threshold(t, 1.0).expect("non-empty trace"))
        .collect();
    let spec = TaskSpec::builder(thresholds.iter().sum())
        .threshold_split(volley::core::ThresholdSplit::Proportional)
        .threshold_weights(thresholds)
        .error_allowance(0.01)
        .max_interval(16)
        .patience(10)
        .build()
        .expect("valid spec");
    (spec, traces)
}

#[test]
fn sixty_four_monitor_parity_across_reallocation_rounds() {
    let ticks = 2500;
    let period = volley::core::allocation::AllocationConfig::default().update_period_ticks;
    assert!(
        ticks as u64 > 2 * period,
        "the run spans at least two §IV-B reallocation rounds"
    );
    for seed in [1u64, 2, 3] {
        let (spec, traces) = netflow_task(64, ticks, seed);
        let (ref_alerts, ref_samples) = reference_run(&spec, &traces);
        let report = TaskRunner::new(&spec)
            .expect("valid runner")
            .run(&traces)
            .expect("run succeeds");
        assert!(report.polls >= 1, "seed {seed}: no global poll ran");
        assert_eq!(report.alert_ticks, ref_alerts, "alerts (seed={seed})");
        assert_eq!(report.total_samples, ref_samples, "samples (seed={seed})");
        // Reallocation actually moved allowances: the even split samples
        // differently on the same inputs.
        let even = TaskRunner::new(&spec)
            .expect("valid runner")
            .with_scheme(CoordinationScheme::Even)
            .run(&traces)
            .expect("run succeeds");
        assert_ne!(
            even.total_samples, report.total_samples,
            "seed {seed}: adaptive reallocation changed nothing"
        );
    }
}
