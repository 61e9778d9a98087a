//! Online statistics of inter-sample value changes (§III-B).
//!
//! The violation-likelihood bound of [`crate::likelihood`] needs the mean
//! `μ` and standard deviation `σ` of `δ`, the change of the monitored value
//! across one *default* sampling interval. The paper maintains both with an
//! online updating scheme (attributed to Knuth / Welford) so that no history
//! of samples has to be kept:
//!
//! ```text
//! μ_n = μ_{n-1} + (δ - μ_{n-1}) / n
//! σ²_n = ((n-1)·σ²_{n-1} + (δ - μ_n)(δ - μ_{n-1})) / n
//! ```
//!
//! Two further details from the paper apply:
//!
//! 1. **Coarse-interval updates.** When sampling with interval `I > 1`, the
//!    per-default-interval change is estimated as
//!    `δ̂ = (v(t) − v(t−I)) / I` by the controller before it feeds the
//!    statistics (see [`crate::adaptation`]).
//! 2. **Windowed restart.** To track drifting distributions, the statistics
//!    are restarted (`n = 0`) once `n` exceeds a restart limit (1000 in the
//!    paper).
//!
//! Both estimators ([`OnlineStats`] and the [`EwmaStats`] extension) and the
//! controller itself run the same recurrence (`Moments::update`).

use serde::{Deserialize, Serialize};

use crate::snapshot::{finite_or_zero, EwmaSnapshot, StatsSnapshot};

/// Which δ-statistics estimator the adaptation uses.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum StatsKind {
    /// Equal-weight accumulation with a periodic restart (`n = 0` past
    /// 1000 observations) — the paper's scheme (§III-B).
    #[default]
    WindowedRestart,
    /// Exponentially-forgetting estimation (see [`EwmaStats`]): reacts
    /// to drift continuously instead of in window-sized steps.
    Ewma {
        /// Forgetting factor `λ ∈ (0, 1]`.
        lambda: f64,
    },
}

/// Number of δ observations after which the paper restarts statistics
/// accumulation (§III-B: "setting n = 0 when n > 1000").
pub const DEFAULT_RESTART_AFTER: u32 = 1000;

/// Clamps a forgetting factor into `(0, 1]`; non-finite values fall back
/// to 0.05.
pub(crate) fn clamp_lambda(lambda: f64) -> f64 {
    if lambda.is_finite() {
        lambda.clamp(1e-6, 1.0)
    } else {
        0.05
    }
}

/// The δ moments every estimator keeps: observation count, mean and
/// population variance.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub(crate) struct Moments {
    pub(crate) n: u64,
    pub(crate) mean: f64,
    pub(crate) variance: f64,
}

impl Moments {
    /// Moments restored from a possibly hostile snapshot: non-finite
    /// floats become 0 and the variance is floored at 0.
    fn restored(n: u64, mean: f64, variance: f64) -> Self {
        Moments {
            n,
            mean: finite_or_zero(mean),
            variance: finite_or_zero(variance).max(0.0),
        }
    }

    /// Folds one δ observation in with `kind`'s recurrence — the only
    /// copy of either recurrence in the crate. The windowed estimator
    /// first restarts (`n = 0`) once `n` reaches `restart_after` (floored
    /// at 2). Non-finite observations are ignored: they would poison the
    /// statistics and thereby disable adaptation permanently. Returns
    /// whether a windowed restart happened.
    #[inline]
    pub(crate) fn update(&mut self, kind: StatsKind, restart_after: u32, delta: f64) -> bool {
        if !delta.is_finite() {
            return false;
        }
        let mut restarted = false;
        match kind {
            StatsKind::WindowedRestart => {
                if self.n >= u64::from(restart_after.max(2)) {
                    // Paper: "periodically restarts the statistics updating
                    // by setting n = 0 when n > 1000". The running values
                    // are discarded so the next window reflects only fresh
                    // data.
                    *self = Moments::default();
                    restarted = true;
                }
                self.n += 1;
                let n = self.n as f64;
                let prev_mean = self.mean;
                self.mean = prev_mean + (delta - prev_mean) / n;
                self.variance =
                    ((n - 1.0) * self.variance + (delta - self.mean) * (delta - prev_mean)) / n;
            }
            StatsKind::Ewma { lambda } => {
                let lambda = clamp_lambda(lambda);
                self.n += 1;
                if self.n == 1 {
                    self.mean = delta;
                    self.variance = 0.0;
                    return false;
                }
                let diff = delta - self.mean;
                let incr = lambda * diff;
                self.mean += incr;
                self.variance = (1.0 - lambda) * (self.variance + diff * incr);
            }
        }
        // Guard against tiny negative values caused by floating-point
        // cancellation; variance is non-negative by definition.
        if self.variance < 0.0 {
            self.variance = 0.0;
        }
        restarted
    }
}

/// Online mean/variance accumulator using the paper's update equations.
///
/// The variance is the *population* variance (division by `n`), exactly as
/// printed in §III-B. For `n == 0` the accumulator reports a mean of `0`
/// and a variance of `0`; callers treat the bound produced from an empty
/// accumulator as vacuous (see
/// [`AdaptiveSampler`](crate::AdaptiveSampler), which never grows the
/// interval until the statistics have warmed up).
///
/// ```
/// use volley_core::OnlineStats;
///
/// let mut stats = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     stats.update(x);
/// }
/// assert_eq!(stats.mean(), 2.5);
/// assert_eq!(stats.variance(), 1.25); // population variance
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    moments: Moments,
    restart_after: u32,
    /// Number of restarts performed so far (diagnostic).
    restarts: u32,
}

impl OnlineStats {
    /// Creates an empty accumulator with the paper's default restart window
    /// of [`DEFAULT_RESTART_AFTER`] observations.
    pub fn new() -> Self {
        Self::with_restart_after(DEFAULT_RESTART_AFTER)
    }

    /// Creates an empty accumulator that restarts after `restart_after`
    /// observations. A value of `u32::MAX` effectively disables restarts.
    pub fn with_restart_after(restart_after: u32) -> Self {
        Self::from_moments(Moments::default(), restart_after)
    }

    /// An accumulator holding `moments`, with no restarts counted yet.
    pub(crate) fn from_moments(moments: Moments, restart_after: u32) -> Self {
        OnlineStats {
            moments,
            restart_after: restart_after.max(2),
            restarts: 0,
        }
    }

    /// The running moments.
    pub(crate) fn moments(&self) -> Moments {
        self.moments
    }

    /// Incorporates one δ observation.
    ///
    /// Non-finite observations are ignored (they would poison the
    /// statistics and thereby disable adaptation permanently).
    pub fn update(&mut self, delta: f64) {
        if self
            .moments
            .update(StatsKind::WindowedRestart, self.restart_after, delta)
        {
            self.restarts += 1;
        }
    }

    /// Current mean of δ (0 when no observation has been made).
    pub fn mean(&self) -> f64 {
        self.moments.mean
    }

    /// Current population variance of δ (0 when fewer than two
    /// observations have been made).
    pub fn variance(&self) -> f64 {
        self.moments.variance
    }

    /// Current population standard deviation of δ.
    pub fn std_dev(&self) -> f64 {
        self.moments.variance.sqrt()
    }

    /// Number of observations in the current window (saturating to
    /// `u32`).
    pub fn count(&self) -> u32 {
        u32::try_from(self.moments.n).unwrap_or(u32::MAX)
    }

    /// Number of windowed restarts performed so far.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Whether enough observations have accumulated for the statistics to
    /// be meaningful. The likelihood bound needs a variance estimate, so at
    /// least two observations are required; callers may demand more.
    pub fn is_warmed_up(&self) -> bool {
        self.moments.n >= 2
    }

    /// Discards all state, beginning a fresh window (counts as a restart).
    pub fn reset(&mut self) {
        self.moments = Moments::default();
        self.restarts += 1;
    }

    /// Captures the accumulator state for checkpointing.
    pub fn to_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            n: self.count(),
            mean: self.moments.mean,
            variance: self.moments.variance,
            restart_after: self.restart_after,
            restarts: self.restarts,
        }
    }

    /// Rebuilds an accumulator from a snapshot, re-imposing the type's
    /// invariants on potentially hostile fields: non-finite floats become
    /// 0, the variance is floored at 0, and the restart window keeps its
    /// floor of 2. A corrupted snapshot degrades accuracy; it never
    /// panics or poisons later updates.
    pub fn from_snapshot(snapshot: &StatsSnapshot) -> Self {
        OnlineStats {
            moments: Moments::restored(u64::from(snapshot.n), snapshot.mean, snapshot.variance),
            restart_after: snapshot.restart_after.max(2),
            restarts: snapshot.restarts,
        }
    }
}

impl Default for OnlineStats {
    fn default() -> Self {
        OnlineStats::new()
    }
}

/// Exponentially-forgetting mean/variance — an alternative to the
/// paper's windowed restart for tracking drifting δ distributions.
///
/// Where [`OnlineStats`] weights every observation in the current window
/// equally and then discards the whole window, `EwmaStats` discounts the
/// past continuously:
///
/// ```text
/// μ ← (1−λ)·μ + λ·δ
/// σ² ← (1−λ)·(σ² + λ·(δ−μ_old)²)
/// ```
///
/// (the standard exponentially-weighted moving variance). Smaller `λ`
/// remembers longer. The `ablation_stats` bench compares both estimators
/// inside the running controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EwmaStats {
    lambda: f64,
    moments: Moments,
}

impl EwmaStats {
    /// Creates an accumulator with forgetting factor `λ ∈ (0, 1]`
    /// (clamped into range; 1 means "only the latest observation").
    pub fn new(lambda: f64) -> Self {
        EwmaStats {
            lambda: clamp_lambda(lambda),
            moments: Moments::default(),
        }
    }

    /// The forgetting factor `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The running moments.
    pub(crate) fn moments(&self) -> Moments {
        self.moments
    }

    /// Incorporates one δ observation; non-finite values are ignored.
    pub fn update(&mut self, delta: f64) {
        let kind = StatsKind::Ewma {
            lambda: self.lambda,
        };
        self.moments.update(kind, 0, delta);
    }

    /// Current exponentially-weighted mean.
    pub fn mean(&self) -> f64 {
        self.moments.mean
    }

    /// Current exponentially-weighted variance.
    pub fn variance(&self) -> f64 {
        self.moments.variance
    }

    /// Current exponentially-weighted standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.moments.variance.sqrt()
    }

    /// Observations consumed so far.
    pub fn count(&self) -> u64 {
        self.moments.n
    }

    /// Captures the accumulator state for checkpointing.
    pub fn to_snapshot(&self) -> EwmaSnapshot {
        EwmaSnapshot {
            lambda: self.lambda,
            mean: self.moments.mean,
            variance: self.moments.variance,
            n: self.moments.n,
        }
    }

    /// Rebuilds an accumulator from a snapshot; `λ` passes through the
    /// constructor's clamp and non-finite moments are zeroed.
    pub fn from_snapshot(snapshot: &EwmaSnapshot) -> Self {
        EwmaStats {
            lambda: clamp_lambda(snapshot.lambda),
            moments: Moments::restored(snapshot.n, snapshot.mean, snapshot.variance),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_pass(data: &[f64]) -> (f64, f64) {
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn matches_two_pass_mean_variance() {
        let data = [3.0, -1.5, 2.25, 8.0, 0.0, -4.0, 7.5];
        let mut stats = OnlineStats::new();
        for &x in &data {
            stats.update(x);
        }
        let (mean, var) = two_pass(&data);
        assert!((stats.mean() - mean).abs() < 1e-12);
        assert!((stats.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn single_observation_has_zero_variance() {
        let mut stats = OnlineStats::new();
        stats.update(42.0);
        assert_eq!(stats.mean(), 42.0);
        assert_eq!(stats.variance(), 0.0);
        assert!(!stats.is_warmed_up());
        stats.update(42.0);
        assert!(stats.is_warmed_up());
    }

    #[test]
    fn restart_discards_window() {
        let mut stats = OnlineStats::with_restart_after(4);
        for _ in 0..4 {
            stats.update(100.0);
        }
        assert_eq!(stats.count(), 4);
        stats.update(1.0); // triggers restart, then records 1.0
        assert_eq!(stats.count(), 1);
        assert_eq!(stats.mean(), 1.0);
        assert_eq!(stats.restarts(), 1);
    }

    #[test]
    fn restart_window_has_floor_of_two() {
        let stats = OnlineStats::with_restart_after(0);
        assert_eq!(stats.restart_after, 2);
    }

    #[test]
    fn non_finite_observations_ignored() {
        let mut stats = OnlineStats::new();
        stats.update(1.0);
        stats.update(f64::NAN);
        stats.update(f64::INFINITY);
        stats.update(3.0);
        assert_eq!(stats.count(), 2);
        assert_eq!(stats.mean(), 2.0);
    }

    #[test]
    fn variance_never_negative() {
        let mut stats = OnlineStats::new();
        // Values engineered for heavy cancellation.
        for _ in 0..1000 {
            stats.update(1e15);
            stats.update(1e15 + 1.0);
        }
        assert!(stats.variance() >= 0.0);
    }

    #[test]
    fn default_constructors_agree() {
        assert_eq!(OnlineStats::default(), OnlineStats::new());
    }

    #[test]
    fn ewma_tracks_stationary_mean_and_variance() {
        let mut e = EwmaStats::new(0.05);
        // Deterministic alternating stream: mean 5, variance 4.
        for i in 0..20_000 {
            e.update(if i % 2 == 0 { 3.0 } else { 7.0 });
        }
        assert!((e.mean() - 5.0).abs() < 0.3, "mean {}", e.mean());
        assert!(
            (e.variance() - 4.0).abs() < 0.5,
            "variance {}",
            e.variance()
        );
    }

    #[test]
    fn ewma_adapts_to_shifts_faster_than_windowed_restart() {
        let mut ewma = EwmaStats::new(0.1);
        let mut windowed = OnlineStats::with_restart_after(1000);
        for _ in 0..900 {
            ewma.update(0.0);
            windowed.update(0.0);
        }
        // Regime shift: mean jumps to 10.
        for _ in 0..50 {
            ewma.update(10.0);
            windowed.update(10.0);
        }
        assert!(
            ewma.mean() > windowed.mean() * 2.0,
            "ewma {} should outrun windowed {}",
            ewma.mean(),
            windowed.mean()
        );
    }

    #[test]
    fn ewma_edge_cases() {
        let mut e = EwmaStats::new(f64::NAN); // falls back to default λ
        assert!((e.lambda() - 0.05).abs() < 1e-12);
        e.update(f64::INFINITY);
        assert_eq!(e.count(), 0);
        e.update(4.0);
        assert_eq!(e.mean(), 4.0);
        assert_eq!(e.variance(), 0.0);
        let clamped = EwmaStats::new(7.0);
        assert_eq!(clamped.lambda(), 1.0);
    }

    #[test]
    fn serde_round_trip() {
        let mut stats = OnlineStats::new();
        stats.update(1.0);
        stats.update(2.0);
        let json = serde_json::to_string(&stats).unwrap();
        let back: OnlineStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }
}
