//! Input synthesis and ground truth. Everything here is a pure function
//! of the seed, so the same seed gives byte-identical inputs.

use volley_core::task::TaskSpec;
use volley_core::{GroundTruth, ThresholdSplit, Tick};
use volley_sim::DdosCascadeConfig;
use volley_traces::netflow::{AttackSpec, NetflowConfig};
use volley_traces::DiurnalPattern;

/// Per-VM alert threshold of the fleet metric: 1% selectivity over its
/// uniform `[0, 100)` draw.
pub const FLEET_THRESHOLD: f64 = 99.0;
/// Error allowance of every workload (the paper's default).
pub const ERR: f64 = 0.01;
/// Longest interval the task workloads' samplers may grow to.
pub const TASK_MAX_INTERVAL: u32 = 16;
/// Adaptation patience of the task workloads.
pub const TASK_PATIENCE: u32 = 10;

/// Counter hash of `(seed, vm, tick)`: splitmix-style finaliser over a
/// seed-offset VM index, so no trace storage is needed at 1M VMs.
fn mix(seed: u64, vm: u64, tick: u64) -> u64 {
    let mut x = vm
        .wrapping_add(seed.wrapping_mul(0xA076_1D64_78BD_642F))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tick.wrapping_mul(0xD1B5_4A32_D192_ED03));
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

/// The fleet metric of VM `vm` in window `tick`: the `scale` bench's
/// shape — a calm band `[25, 30)` with i.i.d. ~0.1% spikes above
/// [`FLEET_THRESHOLD`] — with the seed mixed into the hash.
#[inline]
pub fn fleet_metric(seed: u64, vm: u64, tick: u64) -> f64 {
    let u = (mix(seed, vm, tick) % 10_000) as f64 / 100.0;
    if u >= 99.9 {
        u
    } else {
        25.0 + u * 0.05
    }
}

/// Per-monitor netflow ρ traces of the network-level DDoS task, one per
/// monitor, `ticks` long: `runtime_e2e`'s netflow set-up plus the flood
/// schedule of `volley_sim::DdosCascadeConfig::default()` (one flood every
/// `attack_period` windows, `attack_duration` long, at `peak_asymmetry`).
/// The cascade staggers its VMs' floods; here a distributed flood hits
/// every monitor at once, starting at window 0, because staggered floods
/// never lift the aggregate over the global threshold and the task would
/// have no violation events to score.
pub fn netflow_traces(seed: u64, monitors: usize, ticks: usize) -> Vec<Vec<f64>> {
    let floods = DdosCascadeConfig::default();
    let mut config = NetflowConfig::builder()
        .seed(seed)
        .vms(monitors)
        .diurnal(DiurnalPattern::new((ticks as u64).min(5760), 0.4));
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
    config
        .build()
        .generate(ticks)
        .into_iter()
        .map(|t| t.rho)
        .collect()
}

/// The inputs of one §IV task: traces, per-monitor local thresholds at
/// 1% selectivity and the spec splitting the global threshold in
/// proportion to them.
#[derive(Debug, Clone)]
pub struct TaskInputs {
    /// `traces[m][t]`: monitor `m`'s value in window `t`.
    pub traces: Vec<Vec<f64>>,
    /// Local thresholds, one per monitor.
    pub thresholds: Vec<f64>,
    /// The task spec handed to the program.
    pub spec: TaskSpec,
}

impl TaskInputs {
    /// Builds the task of `monitors` netflow monitors over `ticks`
    /// windows, as `runtime_e2e` sets it up.
    pub fn netflow(seed: u64, monitors: usize, ticks: usize) -> TaskInputs {
        let traces = netflow_traces(seed, monitors, ticks);
        let thresholds: Vec<f64> = traces
            .iter()
            .map(|t| volley_core::selectivity_threshold(t, 1.0).expect("non-empty trace"))
            .collect();
        let spec = TaskSpec::builder(thresholds.iter().sum())
            .threshold_split(ThresholdSplit::Proportional)
            .threshold_weights(thresholds.clone())
            .error_allowance(ERR)
            .max_interval(TASK_MAX_INTERVAL)
            .patience(TASK_PATIENCE)
            .build()
            .expect("valid spec");
        TaskInputs {
            traces,
            thresholds,
            spec,
        }
    }

    /// Monitors in the task.
    pub fn monitors(&self) -> usize {
        self.traces.len()
    }

    /// Windows in every trace.
    pub fn ticks(&self) -> usize {
        self.traces.first().map_or(0, Vec::len)
    }

    /// Monitor-ticks one run of the task decides.
    pub fn monitor_ticks(&self) -> u64 {
        (self.monitors() * self.ticks()) as u64
    }

    /// Little-endian bytes of every trace value, threshold and the
    /// global threshold: what "the same inputs" means.
    pub fn fingerprint(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for v in self.traces.iter().flatten().chain(&self.thresholds) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.spec.global_threshold().to_le_bytes());
        out
    }

    /// Violation events periodic-`I_d` sampling detects: maximal runs of
    /// windows whose aggregate exceeds the global threshold.
    pub fn truth_events(&self) -> Vec<(Tick, Tick)> {
        GroundTruth::from_aggregate_traces(&self.traces, self.spec.global_threshold())
            .violation_events()
    }
}

/// Maximal runs of ticks at which `violating(t)` holds, `t < ticks`.
pub fn events_where(ticks: u64, mut violating: impl FnMut(u64) -> bool) -> Vec<(Tick, Tick)> {
    let mut events = Vec::new();
    let mut start = None;
    for t in 0..ticks {
        match (violating(t), start) {
            (true, None) => start = Some(t),
            (false, Some(s)) => {
                events.push((s, t - 1));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        events.push((s, ticks - 1));
    }
    events
}

/// Events (inclusive tick ranges, ascending) that contain at least one
/// of `hits` (ascending). Returns `(events, detected)`.
pub fn score_events(events: &[(Tick, Tick)], hits: &[Tick]) -> (u64, u64) {
    let mut detected = 0u64;
    let mut h = 0usize;
    for &(start, end) in events {
        while h < hits.len() && hits[h] < start {
            h += 1;
        }
        if h < hits.len() && hits[h] <= end {
            detected += 1;
        }
    }
    (events.len() as u64, detected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use volley_core::DetectionLog;

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        let a = TaskInputs::netflow(7, 4, 300).fingerprint();
        let b = TaskInputs::netflow(7, 4, 300).fingerprint();
        let c = TaskInputs::netflow(8, 4, 300).fingerprint();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let fleet = |seed| -> Vec<u8> {
            (0..1000u64)
                .flat_map(|vm| (0..8).map(move |t| (vm, t)))
                .flat_map(|(vm, t)| fleet_metric(seed, vm, t).to_le_bytes())
                .collect()
        };
        assert_eq!(fleet(1), fleet(1));
        assert_ne!(fleet(1), fleet(2));
    }

    #[test]
    fn fleet_metric_is_calm_with_rare_spikes() {
        let values: Vec<f64> = (0..200_000u64).map(|vm| fleet_metric(3, vm, 5)).collect();
        let spikes = values.iter().filter(|&&v| v > FLEET_THRESHOLD).count();
        assert!((100..300).contains(&spikes), "{spikes} spikes");
        assert!(values
            .iter()
            .all(|&v| v > FLEET_THRESHOLD || (25.0..30.0).contains(&v)));
    }

    #[test]
    fn event_scoring_agrees_with_core_accuracy() {
        // Events at [2,4], [7,7] and [10,12]; the scheme samples 3 (inside
        // the first), 8 (between events) and 12 (end of the last).
        let trace = [
            0.0, 1.0, 9.0, 9.0, 9.0, 0.0, 2.0, 9.0, 0.0, 0.0, 9.0, 9.0, 9.0, 1.0,
        ];
        let threshold = 5.0;
        let truth = GroundTruth::from_trace(&trace, threshold);
        let mut log = DetectionLog::new();
        let sampled = [0u64, 3, 8, 12];
        for t in 0..trace.len() as u64 {
            log.record(t, u32::from(sampled.contains(&t)), false);
        }
        let ours = events_where(trace.len() as u64, |t| trace[t as usize] > threshold);
        assert_eq!(ours, truth.violation_events());
        let (events, detected) = score_events(&ours, &sampled);
        let (core_events, core_detected) = log.score_events(&truth);
        assert_eq!(
            (events, detected),
            (core_events as u64, core_detected as u64)
        );
        assert_eq!((events, detected), (3, 2));
    }
}
