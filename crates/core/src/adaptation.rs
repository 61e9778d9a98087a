//! Monitor-level violation-likelihood based interval adaptation
//! (§III-B, Figure 2).
//!
//! After every sampling operation the controller computes the
//! mis-detection-rate bound `β(I)` for its current interval `I` from the
//! freshly sampled value and the online δ statistics, then applies the
//! paper's additive-increase / multiplicative-decrease-like rule:
//!
//! - if `β(I) > err` → collapse to the default interval immediately
//!   (`I ← 1`), protecting accuracy when the δ distribution shifts abruptly;
//! - if `β(I) ≤ (1 − γ)·err` for `p` *consecutive* samples → grow the
//!   interval by one default interval (`I ← I + 1`), capped at the
//!   user-specified maximum `I_m`;
//! - otherwise → keep the interval and reset the consecutive counter.
//!
//! The slack ratio `γ` prevents growing straight into a violation of the
//! allowance (without it, growing at `β(I) = err` would almost surely yield
//! `β(I+1) > err`). The paper reports `γ = 0.2`, `p = 20` as a good
//! practice; both are the defaults here.

use serde::{Deserialize, Serialize};

use crate::error::VolleyError;
use crate::likelihood::{misdetection_bound_with, sustainable_intervals_with, BoundKind};
use crate::snapshot::{finite_or_zero, DeltaSnapshot, EwmaSnapshot, SamplerSnapshot};
use crate::stats::{clamp_lambda, EwmaStats, Moments, OnlineStats, StatsKind};
use crate::time::{Interval, Tick};

/// Configuration of the monitor-level adaptation algorithm.
///
/// Construct via [`AdaptationConfig::builder`]:
///
/// ```
/// use volley_core::AdaptationConfig;
///
/// # fn main() -> Result<(), volley_core::VolleyError> {
/// let config = AdaptationConfig::builder()
///     .error_allowance(0.01)
///     .max_interval(16)
///     .slack_ratio(0.2)
///     .patience(20)
///     .build()?;
/// assert_eq!(config.max_interval().get(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptationConfig {
    error_allowance: f64,
    max_interval: Interval,
    slack_ratio: f64,
    patience: u32,
    restart_after: u32,
    warmup_samples: u32,
    #[serde(default)]
    bound: BoundKind,
    #[serde(default)]
    stats: StatsKind,
}

impl AdaptationConfig {
    /// Starts building a configuration; see the field documentation on the
    /// builder methods.
    pub fn builder() -> AdaptationConfigBuilder {
        AdaptationConfigBuilder::default()
    }

    /// The error allowance `err ∈ (0, 1]`: the acceptable probability of
    /// mis-detecting a violation relative to periodic sampling at the
    /// default interval. An allowance of exactly `0` is expressible via
    /// [`AdaptationConfigBuilder::error_allowance`] and degrades the
    /// controller to periodic sampling.
    pub fn error_allowance(&self) -> f64 {
        self.error_allowance
    }

    /// The maximum sampling interval `I_m` the controller will ever use.
    pub fn max_interval(&self) -> Interval {
        self.max_interval
    }

    /// The slack ratio `γ ∈ [0, 1)` applied when deciding to grow the
    /// interval (paper default 0.2).
    pub fn slack_ratio(&self) -> f64 {
        self.slack_ratio
    }

    /// Number of consecutive sub-slack observations `p` required before the
    /// interval grows (paper default 20).
    pub fn patience(&self) -> u32 {
        self.patience
    }

    /// δ-statistics restart window (paper default 1000).
    pub fn restart_after(&self) -> u32 {
        self.restart_after
    }

    /// Number of δ observations required before the controller trusts its
    /// statistics enough to grow the interval at all.
    pub fn warmup_samples(&self) -> u32 {
        self.warmup_samples
    }

    /// The tail bound driving likelihood estimation (default: the
    /// paper's distribution-free Chebyshev bound).
    pub fn bound(&self) -> BoundKind {
        self.bound
    }

    /// The δ-statistics estimator (default: the paper's windowed
    /// restart).
    pub fn stats(&self) -> StatsKind {
        self.stats
    }

    /// The grow threshold `(1 − γ)·err` for a given allowance.
    pub(crate) fn grow_threshold(&self, err: f64) -> f64 {
        (1.0 - self.slack_ratio) * err
    }

    /// Re-imposes the builder's invariants on a configuration that may
    /// have come from a hostile source (a corrupted checkpoint record):
    /// non-finite parameters fall back to the paper defaults, ranges are
    /// clamped, and the patience keeps its floor of 1. Valid
    /// configurations pass through unchanged.
    pub(crate) fn sanitized(mut self) -> Self {
        if !self.error_allowance.is_finite() {
            self.error_allowance = 0.01;
        }
        self.error_allowance = self.error_allowance.clamp(0.0, 1.0);
        if !self.slack_ratio.is_finite() {
            self.slack_ratio = 0.2;
        }
        self.slack_ratio = self.slack_ratio.clamp(0.0, 0.99);
        self.patience = self.patience.max(1);
        self
    }
}

impl Default for AdaptationConfig {
    /// Paper defaults: `γ = 0.2`, `p = 20`, statistics restart after 1000
    /// observations, `err = 0.01`, `I_m = 32`.
    fn default() -> Self {
        AdaptationConfig {
            error_allowance: 0.01,
            max_interval: Interval::new_clamped(32),
            slack_ratio: 0.2,
            patience: 20,
            restart_after: crate::stats::DEFAULT_RESTART_AFTER,
            warmup_samples: 5,
            bound: BoundKind::default(),
            stats: StatsKind::default(),
        }
    }
}

/// Builder for [`AdaptationConfig`].
#[derive(Debug, Clone, Default)]
pub struct AdaptationConfigBuilder {
    config: AdaptationConfig,
}

impl AdaptationConfigBuilder {
    /// Sets the error allowance `err ∈ [0, 1]` (default 0.01).
    ///
    /// `err = 0` yields plain periodic sampling at the default interval.
    pub fn error_allowance(mut self, err: f64) -> Self {
        self.config.error_allowance = err;
        self
    }

    /// Sets the maximum interval `I_m` in default-interval units
    /// (default 32). Values below 1 are clamped to 1.
    pub fn max_interval(mut self, ticks: u32) -> Self {
        self.config.max_interval = Interval::new_clamped(ticks);
        self
    }

    /// Sets the slack ratio `γ ∈ [0, 1)` (default 0.2).
    pub fn slack_ratio(mut self, gamma: f64) -> Self {
        self.config.slack_ratio = gamma;
        self
    }

    /// Sets the patience `p ≥ 1` (default 20).
    pub fn patience(mut self, p: u32) -> Self {
        self.config.patience = p;
        self
    }

    /// Sets the statistics restart window (default 1000).
    pub fn restart_after(mut self, n: u32) -> Self {
        self.config.restart_after = n;
        self
    }

    /// Sets the number of warm-up δ observations before any interval
    /// growth (default 5).
    pub fn warmup_samples(mut self, n: u32) -> Self {
        self.config.warmup_samples = n;
        self
    }

    /// Selects the tail bound (default [`BoundKind::Chebyshev`]; the
    /// Gaussian variant exists for the `ablation_bound` study and is
    /// unsafe on heavy-tailed data).
    pub fn bound(mut self, kind: BoundKind) -> Self {
        self.config.bound = kind;
        self
    }

    /// Selects the δ-statistics estimator (default the paper's windowed
    /// restart; [`StatsKind::Ewma`] for the `ablation_stats` study).
    pub fn stats(mut self, kind: StatsKind) -> Self {
        self.config.stats = kind;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`VolleyError::InvalidConfig`] when `err ∉ [0, 1]`,
    /// `γ ∉ [0, 1)`, `p == 0`, or any parameter is non-finite.
    pub fn build(self) -> Result<AdaptationConfig, VolleyError> {
        let c = self.config;
        if !c.error_allowance.is_finite() || !(0.0..=1.0).contains(&c.error_allowance) {
            return Err(VolleyError::invalid(
                "error_allowance",
                "must lie in [0, 1]",
            ));
        }
        if !c.slack_ratio.is_finite() || !(0.0..1.0).contains(&c.slack_ratio) {
            return Err(VolleyError::invalid("slack_ratio", "must lie in [0, 1)"));
        }
        if c.patience == 0 {
            return Err(VolleyError::invalid("patience", "must be at least 1"));
        }
        Ok(c)
    }
}

/// Outcome of one sampling operation processed by [`AdaptiveSampler`] or
/// [`SamplerBank`](crate::SamplerBank).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Whether the sampled value exceeded the (local) threshold.
    pub violation: bool,
    /// Upper bound `β(I)` on the mis-detection rate computed for the
    /// interval in effect *after* this observation.
    pub beta: f64,
    /// The interval used to schedule the *next* sample.
    pub next_interval: Interval,
    /// The tick at which the next regular sample is due.
    pub next_sample_tick: Tick,
    /// Whether this observation collapsed the interval back to the default
    /// (`β(I) > err`).
    pub collapsed: bool,
    /// Whether this observation grew the interval by one default interval.
    pub grew: bool,
}

/// Sentinel for "no previous sample" in [`Lane::last_tick`].
const NO_SAMPLE: Tick = Tick::MAX;

/// One monitor's §III-B controller state: the single implementation of
/// Figure 2 behind both [`AdaptiveSampler`] and
/// [`SamplerBank`](crate::SamplerBank).
///
/// The configuration and error allowance live with the owner (one per
/// sampler, one per bank), so a lane is small, `Copy`, and banks store
/// lanes contiguously.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct Lane {
    /// The violation threshold.
    pub(crate) threshold: f64,
    /// Tick of the previous sample (`NO_SAMPLE` before the first).
    last_tick: Tick,
    /// Value of the previous sample.
    last_value: f64,
    /// The active estimator's δ moments.
    moments: Moments,
    /// The sampling interval in effect.
    pub(crate) interval: Interval,
    /// Consecutive sub-slack observations toward the next growth.
    consecutive_ok: u32,
}

impl Lane {
    /// A lane with violation condition `value > threshold`, starting (per
    /// the paper) at the default interval with empty statistics.
    pub(crate) fn new(threshold: f64) -> Self {
        Lane {
            threshold,
            last_tick: NO_SAMPLE,
            last_value: 0.0,
            moments: Moments::default(),
            interval: Interval::DEFAULT,
            consecutive_ok: 0,
        }
    }

    /// Records a sample taken at `tick` without deciding anything: the
    /// per-default-interval change `δ̂ = Δv / (tick − last tick)` feeds the
    /// active estimator, and the sample becomes the one the next δ̂ is
    /// taken against. A sample that does not advance past the previous one
    /// (e.g. a forced global poll at the same tick) only replaces it.
    #[inline]
    pub(crate) fn record(&mut self, config: &AdaptationConfig, tick: Tick, value: f64) {
        if self.last_tick != NO_SAMPLE && tick > self.last_tick {
            let delta_hat = (value - self.last_value) / (tick - self.last_tick) as f64;
            self.moments
                .update(config.stats(), config.restart_after(), delta_hat);
        }
        self.last_tick = tick;
        self.last_value = value;
    }

    /// Whether the statistics hold enough δ observations to be trusted
    /// (at least `warmup_samples`, and never fewer than two).
    #[inline]
    pub(crate) fn warmed(&self, config: &AdaptationConfig) -> bool {
        self.moments.n >= u64::from(config.warmup_samples().max(2))
    }

    /// `β(I)` for this lane's statistics at `interval`, from the fresh
    /// sample `value`; vacuous (1) until the statistics warm up.
    #[inline]
    pub(crate) fn bound(&self, config: &AdaptationConfig, value: f64, interval: u32) -> f64 {
        if self.warmed(config) {
            misdetection_bound_with(
                config.bound(),
                value,
                self.threshold,
                self.moments.mean,
                self.moments.variance.sqrt(),
                interval,
            )
        } else {
            // Until statistics warm up, claim nothing: a vacuous bound
            // keeps the lane at the default interval.
            1.0
        }
    }

    /// The complete per-sample algorithm of §III-B: statistics update
    /// (with the δ̂ correction for coarse intervals), `β(I)` evaluation and
    /// the collapse/grow/keep decision under allowance `err`.
    #[inline]
    pub(crate) fn observe(
        &mut self,
        config: &AdaptationConfig,
        err: f64,
        tick: Tick,
        value: f64,
    ) -> Observation {
        self.record(config, tick, value);
        let warmed = self.warmed(config);
        let beta = self.bound(config, value, self.interval.get());

        let mut collapsed = false;
        let mut grew = false;
        if err <= 0.0 {
            // Degenerate allowance: periodic sampling at the default rate.
            self.interval = Interval::DEFAULT;
            self.consecutive_ok = 0;
        } else if beta > err {
            if warmed || self.interval > Interval::DEFAULT {
                collapsed = self.interval > Interval::DEFAULT;
                self.interval = Interval::DEFAULT;
            }
            self.consecutive_ok = 0;
        } else if beta <= config.grow_threshold(err) {
            self.consecutive_ok += 1;
            if self.consecutive_ok >= config.patience() && self.interval < config.max_interval() {
                self.interval = self.interval.saturating_add(1).min(config.max_interval());
                self.consecutive_ok = 0;
                grew = true;
            }
        } else {
            self.consecutive_ok = 0;
        }

        Observation {
            violation: value > self.threshold,
            beta,
            next_interval: self.interval,
            next_sample_tick: tick + u64::from(self.interval),
            collapsed,
            grew,
        }
    }
}

/// The monitor-level adaptive sampler (Figure 2 of the paper).
///
/// Drives *when to sample next* for a single monitored metric with a fixed
/// threshold. The caller owns the sampling loop: it invokes
/// [`observe`](AdaptiveSampler::observe) with each sampled value and
/// schedules the following sample at
/// [`Observation::next_sample_tick`].
///
/// The error allowance is mutable at run time
/// ([`set_error_allowance`](AdaptiveSampler::set_error_allowance)) because
/// the task-level coordination scheme of §IV reallocates allowance across
/// monitors while the task runs. Beyond the §III-B controller it shares
/// with [`SamplerBank`](crate::SamplerBank), the sampler keeps the §IV-B
/// updating-period aggregates a task-level coordinator reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveSampler {
    config: AdaptationConfig,
    err: f64,
    lane: Lane,
    /// Running sums for the coordinator's updating-period averages (§IV-B).
    period_beta_grown_sum: f64,
    period_beta_current_sum: f64,
    period_reduction_sum: f64,
    period_observations: u32,
    /// Per-candidate-allowance sums of the instantaneous sampling cost
    /// `1/I*(e_k)` (see [`crate::allocation::allowance_ladder`]): the
    /// monitor's measured cost-vs-allowance curve for the coordinator.
    period_cost_sums: Vec<f64>,
    total_samples: u64,
}

impl AdaptiveSampler {
    /// Creates a sampler for a metric with violation condition
    /// `value > threshold`, starting (per the paper) at the default
    /// interval.
    pub fn new(config: AdaptationConfig, threshold: f64) -> Self {
        AdaptiveSampler {
            config,
            err: config.error_allowance(),
            lane: Lane::new(threshold),
            period_beta_grown_sum: 0.0,
            period_beta_current_sum: 0.0,
            period_reduction_sum: 0.0,
            period_observations: 0,
            period_cost_sums: vec![0.0; crate::allocation::ALLOWANCE_LADDER_LEN],
            total_samples: 0,
        }
    }

    /// The violation threshold this sampler monitors against.
    pub fn threshold(&self) -> f64 {
        self.lane.threshold
    }

    /// Replaces the violation threshold (used when the coordinator adjusts
    /// local thresholds). Keeps statistics: the δ distribution is a
    /// property of the data, not of the threshold.
    pub fn set_threshold(&mut self, threshold: f64) {
        self.lane.threshold = threshold;
    }

    /// The error allowance currently in effect.
    pub fn error_allowance(&self) -> f64 {
        self.err
    }

    /// Updates the error allowance (task-level coordination, §IV-B).
    ///
    /// Shrinking the allowance below the current `β(I)` causes a collapse
    /// at the next observation, not immediately — matching the paper, where
    /// adaptation decisions happen only at sampling times.
    pub fn set_error_allowance(&mut self, err: f64) {
        self.err = err.clamp(0.0, 1.0);
    }

    /// The sampling interval currently in effect.
    pub fn interval(&self) -> Interval {
        self.lane.interval
    }

    /// The adaptation configuration.
    pub fn config(&self) -> &AdaptationConfig {
        &self.config
    }

    /// Total number of sampling operations processed so far.
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// The active estimator's δ moments (mainly for diagnostics/tests),
    /// as an [`OnlineStats`] with the configured restart window.
    pub fn stats(&self) -> OnlineStats {
        OnlineStats::from_moments(self.lane.moments, self.config.restart_after())
    }

    /// Processes the result of one sampling operation performed at `tick`
    /// and returns the adaptation outcome, including when to sample next.
    ///
    /// The decision is the §III-B step shared with
    /// [`SamplerBank`](crate::SamplerBank); the sampler then folds the
    /// sample into its §IV-B updating-period aggregates.
    pub fn observe(&mut self, tick: Tick, value: f64) -> Observation {
        self.total_samples += 1;
        let obs = self.lane.observe(&self.config, self.err, tick, value);

        // Maintain the updating-period aggregates used by the task-level
        // coordinator (§IV-B): the average β at the grown interval, the
        // average potential cost reduction, and the per-interval β
        // profile over quiet (growth-qualifying) samples.
        let interval = obs.next_interval.get();
        let beta_grown = self
            .lane
            .bound(&self.config, value, interval.saturating_add(1));
        self.period_beta_current_sum += obs.beta.min(1.0);
        self.period_beta_grown_sum += beta_grown.min(1.0);
        self.period_reduction_sum += 1.0 - 1.0 / f64::from(interval + 1);
        self.period_observations += 1;
        // Measure the cost-vs-allowance curve: the interval this sample's
        // bound would sustain at each candidate allowance of the ladder.
        // The candidates are derived from the *task-level* allowance in
        // the static configuration — using the dynamic per-monitor
        // allowance here would couple the statistic to the current
        // assignment and make the allocation oscillate.
        if self.lane.warmed(&self.config) {
            let mut limits = crate::allocation::allowance_ladder(self.config.error_allowance());
            let grow = 1.0 - self.config.slack_ratio();
            for limit in &mut limits {
                *limit *= grow;
            }
            let mut intervals = [1u32; crate::allocation::ALLOWANCE_LADDER_LEN];
            sustainable_intervals_with(
                self.config.bound(),
                value,
                self.lane.threshold,
                self.lane.moments.mean,
                self.lane.moments.variance.sqrt(),
                self.config.max_interval().get(),
                &limits,
                &mut intervals,
            );
            for (slot, i) in self.period_cost_sums.iter_mut().zip(intervals) {
                *slot += 1.0 / f64::from(i);
            }
        } else {
            for slot in &mut self.period_cost_sums {
                *slot += 1.0;
            }
        }
        obs
    }

    /// Records a value obtained by a *forced* sample (e.g. a global poll
    /// initiated by the coordinator) without running the adaptation rule.
    ///
    /// The value still feeds the δ statistics so that forced samples
    /// improve rather than distort the model.
    pub fn observe_forced(&mut self, tick: Tick, value: f64) {
        self.total_samples += 1;
        self.lane.record(&self.config, tick, value);
    }

    /// Drains the updating-period aggregates collected since the previous
    /// call, returning the coordinator-facing summary (§IV-B).
    pub fn drain_period_report(&mut self) -> PeriodReport {
        let n = self.period_observations.max(1);
        let cost_curve: Vec<f64> = if self.period_observations > 0 {
            self.period_cost_sums
                .iter()
                .map(|s| (s / f64::from(n)).clamp(0.0, 1.0))
                .collect()
        } else {
            vec![1.0; self.period_cost_sums.len()]
        };
        let report = PeriodReport {
            observations: self.period_observations,
            avg_beta_current: self.period_beta_current_sum / f64::from(n),
            avg_beta_grown: self.period_beta_grown_sum / f64::from(n),
            avg_potential_reduction: self.period_reduction_sum / f64::from(n),
            interval: self.lane.interval,
            at_max_interval: self.lane.interval >= self.config.max_interval(),
            cost_curve,
        };
        self.clear_period();
        report
    }

    /// Zeroes the updating-period aggregates.
    fn clear_period(&mut self) {
        self.period_beta_current_sum = 0.0;
        self.period_beta_grown_sum = 0.0;
        self.period_reduction_sum = 0.0;
        self.period_observations = 0;
        self.period_cost_sums.iter_mut().for_each(|s| *s = 0.0);
    }

    /// Captures the §III-B controller state for checkpointing: the
    /// configuration, thresholds, δ statistics, interval and growth
    /// progress. The §IV-B updating-period aggregates are deliberately
    /// excluded — see [`crate::snapshot`] for the rationale.
    ///
    /// Only the active estimator's moments are written: under
    /// [`StatsKind::Ewma`] they go to the `ewma` part and the windowed
    /// part is an empty window.
    pub fn to_snapshot(&self) -> SamplerSnapshot {
        let moments = self.lane.moments;
        let (stats, ewma) = match self.config.stats() {
            StatsKind::WindowedRestart => (self.stats(), None),
            StatsKind::Ewma { lambda } => {
                let ewma = EwmaSnapshot {
                    lambda: clamp_lambda(lambda),
                    mean: moments.mean,
                    variance: moments.variance,
                    n: moments.n,
                };
                (
                    OnlineStats::with_restart_after(self.config.restart_after()),
                    Some(ewma),
                )
            }
        };
        let last = self.lane.last_tick;
        SamplerSnapshot {
            config: self.config,
            threshold: self.lane.threshold,
            err: self.err,
            tracker: DeltaSnapshot {
                stats: stats.to_snapshot(),
                ewma,
                last: (last != NO_SAMPLE).then_some((last, self.lane.last_value)),
            },
            interval: self.lane.interval.get(),
            consecutive_ok: self.lane.consecutive_ok,
            total_samples: self.total_samples,
        }
    }

    /// Rebuilds a sampler from a snapshot.
    ///
    /// Every field is sanitized so that a corrupted checkpoint can cost
    /// accuracy but never panic or wedge the controller: the
    /// configuration invariants are re-imposed, non-finite floats are
    /// replaced, and the restored interval is clamped back under the
    /// configured maximum. The configuration picks the active estimator,
    /// whose part of the snapshot supplies the moments; a cached last
    /// sample with a non-finite value is discarded, so the next sample
    /// re-seeds it instead of producing a poisoned δ̂. The
    /// updating-period aggregates restart at zero — a restore begins a
    /// fresh §IV-B period.
    pub fn from_snapshot(snapshot: &SamplerSnapshot) -> Self {
        let config = snapshot.config.sanitized();
        let mut sampler = AdaptiveSampler::new(config, finite_or_zero(snapshot.threshold));
        sampler.err = if snapshot.err.is_finite() {
            snapshot.err.clamp(0.0, 1.0)
        } else {
            config.error_allowance()
        };
        let tracker = &snapshot.tracker;
        let lane = &mut sampler.lane;
        lane.moments = match config.stats() {
            StatsKind::WindowedRestart => OnlineStats::from_snapshot(&tracker.stats).moments(),
            StatsKind::Ewma { .. } => tracker
                .ewma
                .map(|e| EwmaStats::from_snapshot(&e).moments())
                .unwrap_or_default(),
        };
        if let Some((tick, value)) = tracker.last.filter(|(_, value)| value.is_finite()) {
            lane.last_tick = tick;
            lane.last_value = value;
        }
        lane.interval = Interval::new_clamped(snapshot.interval).min(config.max_interval());
        // The counter rises past the patience while the interval sits at
        // its maximum; cap it only far away, where a hostile value could
        // overflow subsequent increments.
        lane.consecutive_ok = snapshot.consecutive_ok.min(u32::MAX / 2);
        sampler.total_samples = snapshot.total_samples;
        sampler
    }

    /// Resets the sampler to its initial state (default interval, fresh
    /// statistics). The threshold and error allowance are preserved.
    pub fn reset(&mut self) {
        self.lane = Lane::new(self.lane.threshold);
        self.clear_period();
    }
}

/// Per-updating-period averages a monitor reports to its coordinator
/// (the `r_i` / `e_i` inputs of §IV-B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodReport {
    /// Number of samples that contributed to the averages.
    pub observations: u32,
    /// Average `β(I)` at the interval in effect.
    pub avg_beta_current: f64,
    /// Average `β(I+1)` — the bound the monitor would face after growing.
    pub avg_beta_grown: f64,
    /// Average potential cost reduction `r_i = 1 − 1/(I+1)`
    /// (paper-literal form; see [`crate::allocation::YieldMode`]).
    pub avg_potential_reduction: f64,
    /// Interval in effect at the end of the period.
    pub interval: Interval,
    /// Whether the monitor sits at its maximum interval `I_m` (no further
    /// growth is possible, so extra allowance buys nothing).
    pub at_max_interval: bool,
    /// Measured cost-vs-allowance curve: `cost_curve[k]` is the average
    /// fraction of the periodic sampling cost the monitor would pay if
    /// its allowance were the `k`-th rung of
    /// [`crate::allocation::allowance_ladder`]. Non-increasing in `k`.
    pub cost_curve: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_config() -> AdaptationConfig {
        AdaptationConfig::builder()
            .error_allowance(0.05)
            .max_interval(8)
            .patience(3)
            .warmup_samples(3)
            .build()
            .unwrap()
    }

    /// Drives the sampler over a constant stream far below the threshold.
    fn run_flat(sampler: &mut AdaptiveSampler, n: usize) -> Vec<Observation> {
        let mut out = Vec::new();
        let mut tick = 0u64;
        for _ in 0..n {
            let obs = sampler.observe(tick, 10.0);
            tick = obs.next_sample_tick;
            out.push(obs);
        }
        out
    }

    #[test]
    fn builder_validates_ranges() {
        assert!(AdaptationConfig::builder()
            .error_allowance(-0.1)
            .build()
            .is_err());
        assert!(AdaptationConfig::builder()
            .error_allowance(1.5)
            .build()
            .is_err());
        assert!(AdaptationConfig::builder()
            .slack_ratio(1.0)
            .build()
            .is_err());
        assert!(AdaptationConfig::builder()
            .slack_ratio(-0.2)
            .build()
            .is_err());
        assert!(AdaptationConfig::builder().patience(0).build().is_err());
        assert!(AdaptationConfig::builder()
            .error_allowance(0.0)
            .build()
            .is_ok());
    }

    #[test]
    fn starts_at_default_interval() {
        let sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        assert_eq!(sampler.interval(), Interval::DEFAULT);
    }

    #[test]
    fn grows_on_stable_quiet_stream() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        let obs = run_flat(&mut sampler, 50);
        assert!(
            sampler.interval() > Interval::DEFAULT,
            "quiet stream should grow the interval"
        );
        assert!(obs.iter().any(|o| o.grew));
        // Growth is additive: interval increments by exactly 1 per growth.
        let mut prev = 1u32;
        for o in &obs {
            let cur = o.next_interval.get();
            assert!(cur == prev || cur == prev + 1 || cur == 1);
            prev = cur;
        }
    }

    #[test]
    fn never_exceeds_max_interval() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        run_flat(&mut sampler, 500);
        assert!(sampler.interval() <= sampler.config().max_interval());
        assert_eq!(sampler.interval(), sampler.config().max_interval());
    }

    #[test]
    fn collapses_to_default_on_risky_bound() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        run_flat(&mut sampler, 100);
        assert!(sampler.interval() > Interval::DEFAULT);
        // A value at the threshold makes the Chebyshev bound vacuous
        // (headroom <= 0), forcing an immediate collapse.
        let obs = sampler.observe(10_000, 100.0);
        assert!(obs.collapsed);
        assert_eq!(sampler.interval(), Interval::DEFAULT);
    }

    #[test]
    fn growth_requires_consecutive_patience() {
        let cfg = AdaptationConfig::builder()
            .error_allowance(0.05)
            .max_interval(8)
            .patience(5)
            .warmup_samples(2)
            .build()
            .unwrap();
        let mut sampler = AdaptiveSampler::new(cfg, 100.0);
        // Warm the statistics with a quiet stream, but interleave a
        // near-threshold value to keep breaking the consecutive counter.
        let mut tick = 0u64;
        for i in 0..40 {
            let value = if i % 4 == 3 { 95.0 } else { 10.0 };
            let obs = sampler.observe(tick, value);
            tick = obs.next_sample_tick;
        }
        assert_eq!(
            sampler.interval(),
            Interval::DEFAULT,
            "interrupted streaks must not grow"
        );
    }

    #[test]
    fn zero_allowance_degrades_to_periodic() {
        let cfg = AdaptationConfig::builder()
            .error_allowance(0.0)
            .max_interval(8)
            .patience(1)
            .build()
            .unwrap();
        let mut sampler = AdaptiveSampler::new(cfg, 1e12);
        let obs = run_flat(&mut sampler, 100);
        assert!(obs.iter().all(|o| o.next_interval == Interval::DEFAULT));
    }

    #[test]
    fn violation_detection_is_threshold_exceedance() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 50.0);
        assert!(
            !sampler.observe(0, 50.0).violation,
            "equality is not a violation"
        );
        assert!(sampler.observe(1, 50.1).violation);
    }

    #[test]
    fn allowance_update_takes_effect_on_next_observation() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        run_flat(&mut sampler, 100);
        let grown = sampler.interval();
        assert!(grown > Interval::DEFAULT);
        sampler.set_error_allowance(0.0);
        assert_eq!(sampler.interval(), grown, "no immediate collapse");
        sampler.observe(10_000, 10.0);
        assert_eq!(sampler.interval(), Interval::DEFAULT);
    }

    #[test]
    fn forced_samples_feed_statistics_without_adaptation() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        sampler.observe(0, 10.0);
        let interval_before = sampler.interval();
        sampler.observe_forced(1, 11.0);
        assert_eq!(sampler.interval(), interval_before);
        assert_eq!(sampler.stats().count(), 1);
        assert_eq!(sampler.total_samples(), 2);
    }

    #[test]
    fn delta_hat_uses_elapsed_ticks() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        sampler.observe_forced(0, 0.0);
        sampler.observe_forced(4, 8.0);
        assert_eq!(sampler.stats().mean(), 2.0);
        // A sample that does not advance time replaces the cached sample
        // without polluting statistics.
        sampler.observe_forced(4, 100.0);
        assert_eq!(sampler.stats().count(), 1);
        sampler.observe_forced(5, 102.0);
        assert_eq!(sampler.stats().count(), 2);
        assert_eq!(sampler.stats().mean(), 2.0); // (2 + 2) / 2
    }

    #[test]
    fn reset_clears_cached_sample() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        sampler.observe(0, 1.0);
        sampler.reset();
        sampler.observe(10, 5.0);
        assert_eq!(
            sampler.stats().count(),
            0,
            "first sample after reset seeds only"
        );
    }

    #[test]
    fn period_report_averages_and_resets() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        run_flat(&mut sampler, 10);
        let report = sampler.drain_period_report();
        assert_eq!(report.observations, 10);
        assert!(report.avg_beta_current >= 0.0 && report.avg_beta_current <= 1.0);
        assert!(report.avg_beta_grown >= report.avg_beta_current - 1e-12);
        assert!(report.avg_potential_reduction > 0.0);
        let empty = sampler.drain_period_report();
        assert_eq!(empty.observations, 0);
    }

    #[test]
    fn reset_preserves_allowance() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        sampler.set_error_allowance(0.42);
        run_flat(&mut sampler, 100);
        sampler.reset();
        assert_eq!(sampler.interval(), Interval::DEFAULT);
        assert_eq!(sampler.error_allowance(), 0.42);
        assert_eq!(sampler.stats().count(), 0);
    }

    #[test]
    fn ewma_estimator_also_grows_and_collapses() {
        let cfg = AdaptationConfig::builder()
            .error_allowance(0.05)
            .max_interval(8)
            .patience(3)
            .warmup_samples(3)
            .stats(StatsKind::Ewma { lambda: 0.1 })
            .build()
            .unwrap();
        let mut sampler = AdaptiveSampler::new(cfg, 100.0);
        let mut tick = 0u64;
        for _ in 0..100 {
            let obs = sampler.observe(tick, 10.0);
            tick = obs.next_sample_tick;
        }
        assert!(
            sampler.interval() > Interval::DEFAULT,
            "quiet stream grows under EWMA too"
        );
        let obs = sampler.observe(tick + 1, 150.0);
        assert!(obs.violation);
        assert_eq!(sampler.interval(), Interval::DEFAULT);
    }

    #[test]
    fn next_sample_tick_respects_interval() {
        let mut sampler = AdaptiveSampler::new(quiet_config(), 100.0);
        let obs = sampler.observe(7, 10.0);
        assert_eq!(obs.next_sample_tick, 7 + u64::from(obs.next_interval));
    }

    #[test]
    fn larger_allowance_grows_at_least_as_fast() {
        let mk = |err: f64| {
            AdaptationConfig::builder()
                .error_allowance(err)
                .max_interval(32)
                .patience(3)
                .warmup_samples(3)
                .build()
                .unwrap()
        };
        let mut tight = AdaptiveSampler::new(mk(0.001), 100.0);
        let mut loose = AdaptiveSampler::new(mk(0.1), 100.0);
        // A mildly noisy but quiet stream (deterministic pattern).
        let wave = |t: u64| 10.0 + ((t % 7) as f64) * 0.5;
        let mut tt = 0u64;
        for _ in 0..200 {
            let o = tight.observe(tt, wave(tt));
            tt = o.next_sample_tick;
        }
        let mut tl = 0u64;
        for _ in 0..200 {
            let o = loose.observe(tl, wave(tl));
            tl = o.next_sample_tick;
        }
        assert!(loose.interval() >= tight.interval());
    }
}
