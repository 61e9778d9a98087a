//! Golden digests of the §III-B controller over adversarial streams.
//!
//! Every field of every [`Observation`] and of every [`PeriodReport`]
//! (drained every 25 samples, `cost_curve` bits included) is folded into
//! one FNV-1a digest per case; the decision fields of a [`SamplerBank`]
//! lane fed the same stream go into a second digest. The constants were
//! captured from the implementation that kept `AdaptiveSampler` and
//! `SamplerBank` as two separate copies of the algorithm, so any drift in
//! a decision bit, a bound, or a period aggregate fails here.

use volley_core::adaptation::PeriodReport;
use volley_core::{AdaptationConfig, AdaptiveSampler, Observation, SamplerBank, StatsKind};

/// Samples between two `drain_period_report` calls.
const PERIOD: usize = 25;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn observation(&mut self, o: &Observation) {
        self.word(u64::from(o.violation));
        self.word(o.beta.to_bits());
        self.word(u64::from(o.next_interval.get()));
        self.word(o.next_sample_tick);
        self.word(u64::from(o.collapsed));
        self.word(u64::from(o.grew));
    }

    fn report(&mut self, r: &PeriodReport) {
        self.word(u64::from(r.observations));
        self.word(r.avg_beta_current.to_bits());
        self.word(r.avg_beta_grown.to_bits());
        self.word(r.avg_potential_reduction.to_bits());
        self.word(u64::from(r.interval.get()));
        self.word(u64::from(r.at_max_interval));
        self.word(r.cost_curve.len() as u64);
        for c in &r.cost_curve {
            self.word(c.to_bits());
        }
    }
}

/// Deterministic adversarial stream: calm stretches, near-threshold
/// values, spikes, and exact-threshold samples (vacuous bound).
fn stream(seed: u64, len: usize, threshold: f64) -> Vec<f64> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            x ^= x >> 33;
            x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            x ^= x >> 29;
            match x % 100 {
                0..=1 => threshold + 5.0,    // violation
                2..=3 => threshold,          // headroom exactly zero
                4..=9 => threshold - 1.0,    // risky bound
                _ => 10.0 + (x % 13) as f64, // calm band
            }
        })
        .collect()
}

/// Runs one stream through a sampler and a one-lane bank, folding the
/// sampler's observations and period reports into `sampler` and the
/// bank's decisions into `bank`.
fn run(
    config: AdaptationConfig,
    threshold: f64,
    values: &[f64],
    sampler: &mut Fnv,
    bank: &mut Fnv,
) {
    let mut s = AdaptiveSampler::new(config, threshold);
    let mut b = SamplerBank::new(config);
    let lane = b.push(threshold);
    let mut tick = 0u64;
    for (i, &value) in values.iter().enumerate() {
        let obs = s.observe(tick, value);
        sampler.observation(&obs);
        bank.observation(&b.observe(lane, tick, value));
        if (i + 1) % PERIOD == 0 {
            sampler.report(&s.drain_period_report());
        }
        tick = obs.next_sample_tick;
    }
    sampler.report(&s.drain_period_report());
}

fn digests(config: AdaptationConfig, threshold: f64, cases: &[(u64, usize)]) -> (u64, u64) {
    let (mut sampler, mut bank) = (Fnv::new(), Fnv::new());
    for &(seed, len) in cases {
        run(
            config,
            threshold,
            &stream(seed, len, threshold),
            &mut sampler,
            &mut bank,
        );
    }
    (sampler.0, bank.0)
}

fn quiet(stats: StatsKind) -> AdaptationConfig {
    AdaptationConfig::builder()
        .error_allowance(0.05)
        .max_interval(8)
        .patience(3)
        .warmup_samples(3)
        .stats(stats)
        .build()
        .unwrap()
}

fn eight_seeds() -> Vec<(u64, usize)> {
    (1..=8).map(|seed| (seed, 600)).collect()
}

#[test]
fn windowed_restart_matches_golden() {
    let got = digests(quiet(StatsKind::WindowedRestart), 100.0, &eight_seeds());
    assert_eq!(
        got,
        (0x2363_ea37_6fce_9546, 0x5025_2ede_97e7_0e6b),
        "{got:#x?}"
    );
}

#[test]
fn ewma_matches_golden() {
    let got = digests(
        quiet(StatsKind::Ewma { lambda: 0.1 }),
        100.0,
        &eight_seeds(),
    );
    assert_eq!(
        got,
        (0xb39e_15ff_7e22_a84c, 0x825c_7876_3610_e85d),
        "{got:#x?}"
    );
}

#[test]
fn restart_boundary_matches_golden() {
    // A tiny restart window forces the windowed estimator through many
    // restarts.
    let config = AdaptationConfig::builder()
        .error_allowance(0.05)
        .max_interval(8)
        .patience(2)
        .warmup_samples(2)
        .restart_after(7)
        .build()
        .unwrap();
    let got = digests(config, 100.0, &[(42, 400)]);
    assert_eq!(
        got,
        (0x12e3_9cd1_f727_86b3, 0x685a_5fe3_fe2a_40d2),
        "{got:#x?}"
    );
}

#[test]
fn zero_allowance_matches_golden() {
    let config = AdaptationConfig::builder()
        .error_allowance(0.0)
        .max_interval(8)
        .patience(1)
        .build()
        .unwrap();
    let got = digests(config, 50.0, &[(3, 100)]);
    assert_eq!(
        got,
        (0x25a4_eaab_5fb1_2786, 0xe122_a437_d86a_b7cf),
        "{got:#x?}"
    );
}

#[test]
fn paper_defaults_match_golden() {
    let got = digests(AdaptationConfig::default(), 99.0, &[(7, 2000)]);
    assert_eq!(
        got,
        (0x49d9_6313_84d4_8d59, 0xe3d3_c573_3e5e_13e2),
        "{got:#x?}"
    );
}

#[test]
fn forced_samples_and_reallocation_match_golden() {
    // The coordinator-facing surface: forced polls (at the same tick and
    // between regular samples), allowance and threshold changes, non-finite
    // values, and a reset, for both estimators.
    let mut digest = Fnv::new();
    for stats in [StatsKind::WindowedRestart, StatsKind::Ewma { lambda: 0.2 }] {
        let mut s = AdaptiveSampler::new(quiet(stats), 100.0);
        let values = stream(11, 500, 100.0);
        let mut tick = 0u64;
        for (i, &value) in values.iter().enumerate() {
            let value = if i % 97 == 50 { f64::NAN } else { value };
            let obs = s.observe(tick, value);
            digest.observation(&obs);
            match i % 40 {
                7 => s.observe_forced(tick, value + 1.0),
                19 => s.observe_forced(tick + 1, value - 2.0),
                23 => s.set_error_allowance(0.01 + (i % 3) as f64 * 0.02),
                31 => s.set_threshold(if i % 80 == 31 { 90.0 } else { 100.0 }),
                _ => {}
            }
            if i == 300 {
                s.reset();
            }
            if (i + 1) % PERIOD == 0 {
                digest.report(&s.drain_period_report());
            }
            tick = obs.next_sample_tick;
        }
        digest.word(s.total_samples());
        digest.word(u64::from(s.stats().count()));
    }
    assert_eq!(digest.0, 0x96ad_b8ab_564a_fe9a, "{:#x}", digest.0);
}
