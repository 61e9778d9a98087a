//! Adaptive-sampler bank for fleet-scale hot paths.
//!
//! [`AdaptiveSampler`](crate::AdaptiveSampler) is the right shape for one
//! monitor: it carries the §III-B controller *and* the §IV-B
//! updating-period aggregates (average `β(I+1)`, the measured
//! cost-vs-allowance curve) that a task-level coordinator reads between
//! reallocation rounds. Fleet simulations that never reallocate would pay
//! for those aggregates on every sample anyway — two extra bound
//! evaluations, an allowance-ladder sweep, and a per-monitor heap vector —
//! although they feed nothing.
//!
//! [`SamplerBank`] holds every monitor of a shard as one contiguous array
//! of controller lanes that share a configuration and an error allowance.
//! Each lane runs the same §III-B step as `AdaptiveSampler` — the crate
//! has one implementation of δ̂, the moment update, the warm-up gate,
//! `β(I)` and the collapse/grow rule — so a bank and a sampler fed the
//! same stream make the same decisions by construction. The bank only
//! skips the §IV-B aggregates, which never influence decisions.

use crate::adaptation::{AdaptationConfig, Lane, Observation};
use crate::time::{Interval, Tick};

/// Decision outcome of one bank observation: the same [`Observation`]
/// an [`AdaptiveSampler`](crate::AdaptiveSampler) returns.
pub type BankObservation = Observation;

/// A fleet of §III-B adaptive-sampling controllers sharing one
/// configuration (see module docs).
///
/// ```
/// use volley_core::{AdaptationConfig, AdaptiveSampler, SamplerBank};
///
/// # fn main() -> Result<(), volley_core::VolleyError> {
/// let config = AdaptationConfig::builder()
///     .error_allowance(0.05)
///     .max_interval(8)
///     .patience(3)
///     .build()?;
/// let mut bank = SamplerBank::new(config);
/// let vm = bank.push(100.0);
/// let mut sampler = AdaptiveSampler::new(config, 100.0);
/// let mut tick = 0;
/// for _ in 0..50 {
///     let a = bank.observe(vm, tick, 10.0);
///     let b = sampler.observe(tick, 10.0);
///     assert_eq!(a, b);
///     tick = a.next_sample_tick;
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerBank {
    config: AdaptationConfig,
    err: f64,
    lanes: Vec<Lane>,
}

impl SamplerBank {
    /// Creates an empty bank; every monitor pushed into it shares
    /// `config` (and starts at its error allowance), as fleet scenarios
    /// do.
    pub fn new(config: AdaptationConfig) -> Self {
        Self::with_capacity(config, 0)
    }

    /// Creates an empty bank with preallocated capacity for `monitors`.
    pub fn with_capacity(config: AdaptationConfig, monitors: usize) -> Self {
        SamplerBank {
            config,
            err: config.error_allowance(),
            lanes: Vec::with_capacity(monitors),
        }
    }

    /// Adds a monitor with violation condition `value > threshold`,
    /// starting (per the paper) at the default interval. Returns its
    /// index.
    pub fn push(&mut self, threshold: f64) -> usize {
        self.lanes.push(Lane::new(threshold));
        self.lanes.len() - 1
    }

    /// Number of monitors in the bank.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the bank holds no monitors.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// The shared adaptation configuration.
    pub fn config(&self) -> &AdaptationConfig {
        &self.config
    }

    /// The violation threshold of monitor `idx`.
    pub fn threshold(&self, idx: usize) -> f64 {
        self.lanes[idx].threshold
    }

    /// The sampling interval of monitor `idx` currently in effect.
    pub fn interval(&self, idx: usize) -> Interval {
        self.lanes[idx].interval
    }

    /// Processes one sampling operation of monitor `idx` at `tick` — the
    /// §III-B step of
    /// [`AdaptiveSampler::observe`](crate::AdaptiveSampler::observe),
    /// without the §IV-B period aggregates (which feed no decision).
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of bounds.
    pub fn observe(&mut self, idx: usize, tick: Tick, value: f64) -> BankObservation {
        self.lanes[idx].observe(&self.config, self.err, tick, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_holds_independent_monitors() {
        let config = AdaptationConfig::builder()
            .error_allowance(0.05)
            .max_interval(8)
            .patience(3)
            .warmup_samples(3)
            .build()
            .unwrap();
        let mut bank = SamplerBank::with_capacity(config, 2);
        let calm = bank.push(100.0);
        let noisy = bank.push(100.0);
        assert_eq!(bank.len(), 2);
        assert!(!bank.is_empty());
        assert_eq!(bank.threshold(noisy), 100.0);
        let mut tick = 0u64;
        for step in 0..60u64 {
            let obs = bank.observe(calm, tick, 10.0);
            // The noisy monitor swings wildly near the threshold and keeps
            // collapsing; the calm one grows.
            let swing = if step % 2 == 0 { 99.5 } else { 5.0 };
            bank.observe(noisy, tick, swing);
            tick = obs.next_sample_tick;
        }
        assert!(bank.interval(calm) > Interval::DEFAULT);
        assert_eq!(bank.interval(noisy), Interval::DEFAULT);
    }

    #[test]
    fn non_finite_values_do_not_poison_statistics() {
        let config = AdaptationConfig::builder()
            .error_allowance(0.05)
            .max_interval(8)
            .patience(3)
            .warmup_samples(3)
            .build()
            .unwrap();
        let mut bank = SamplerBank::new(config);
        let idx = bank.push(100.0);
        let values = [10.0, f64::NAN, 12.0, f64::INFINITY, 11.0, 10.5, 10.2];
        let mut tick = 0u64;
        for &value in values.iter().chain(&[10.0; 40]) {
            let obs = bank.observe(idx, tick, value);
            assert!(!obs.beta.is_nan());
            tick = obs.next_sample_tick;
        }
        // The poisoned δ̂s were dropped, so a calm tail still grows.
        assert!(bank.interval(idx) > Interval::DEFAULT);
    }
}
