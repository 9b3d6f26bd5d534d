//! Per-second packet-rate processes for the synthetic feeds.

use rand::rngs::StdRng;
use rand::Rng;

/// A process yielding the target packet rate for each successive second.
pub trait RateProcess {
    /// The packet rate (packets/second) for the next second.
    fn next_rate(&mut self, rng: &mut StdRng) -> u64;
}

/// The research-center link: highly variable.
///
/// Log-rate follows an AR(1) around `ln(base)` with heavy shocks, plus a
/// two-state lull process: with probability `lull_prob` per second the
/// link drops to `lull_scale` of its rate for a geometrically distributed
/// number of seconds. The result swings between a few hundred and ~20k
/// packets/s, with inter-window byte-volume ratios of 10–100×.
#[derive(Debug, Clone)]
pub struct ResearchRate {
    /// Center of the log-AR(1) process, packets/s.
    pub base: f64,
    /// AR(1) persistence in log space (0..1).
    pub phi: f64,
    /// Std-dev of the per-second log shock.
    pub sigma: f64,
    /// Probability of entering a lull each second.
    pub lull_prob: f64,
    /// Probability of leaving a lull each second.
    pub lull_exit_prob: f64,
    /// Rate multiplier during a lull.
    pub lull_scale: f64,
    log_level: f64,
    in_lull: bool,
}

impl ResearchRate {
    /// Paper-shaped defaults: 5k–15k pkt/s typical, occasional deep
    /// lulls lasting tens of seconds (long enough to cover a whole
    /// 20-second evaluation window, which is what exposes the
    /// non-relaxed under-sampling pathology of §7.1).
    pub fn new() -> Self {
        ResearchRate {
            base: 9_000.0,
            phi: 0.85,
            sigma: 0.35,
            lull_prob: 0.02,
            lull_exit_prob: 0.03,
            lull_scale: 0.002,
            log_level: (9_000.0f64).ln(),
            in_lull: false,
        }
    }
}

impl Default for ResearchRate {
    fn default() -> Self {
        Self::new()
    }
}

impl RateProcess for ResearchRate {
    fn next_rate(&mut self, rng: &mut StdRng) -> u64 {
        let mu = self.base.ln();
        // Gaussian-ish shock from the sum of uniforms (Irwin–Hall).
        let shock: f64 = (0..4).map(|_| rng.gen::<f64>() - 0.5).sum::<f64>() * self.sigma * 1.7;
        self.log_level = mu + self.phi * (self.log_level - mu) + shock;
        if self.in_lull {
            if rng.gen::<f64>() < self.lull_exit_prob {
                self.in_lull = false;
            }
        } else if rng.gen::<f64>() < self.lull_prob {
            self.in_lull = true;
        }
        let mut rate = self.log_level.exp();
        if self.in_lull {
            rate *= self.lull_scale;
        }
        rate.clamp(20.0, 25_000.0) as u64
    }
}

/// The data-center tap: ~100k packets/s with small jitter.
#[derive(Debug, Clone)]
pub struct DatacenterRate {
    /// Mean packet rate.
    pub base: f64,
    /// Relative jitter half-width (e.g. 0.02 = ±2%).
    pub jitter: f64,
}

impl DatacenterRate {
    /// Paper-shaped default: 100k pkt/s ± 2%.
    pub fn new() -> Self {
        DatacenterRate { base: 100_000.0, jitter: 0.02 }
    }
}

impl Default for DatacenterRate {
    fn default() -> Self {
        Self::new()
    }
}

impl RateProcess for DatacenterRate {
    fn next_rate(&mut self, rng: &mut StdRng) -> u64 {
        let factor = 1.0 + self.jitter * (2.0 * rng.gen::<f64>() - 1.0);
        (self.base * factor) as u64
    }
}

/// A square-wave rate: `period_secs` busy, `period_secs` quiet, repeat.
///
/// The cleanest way to trigger the paper's §7.1 under-sampling
/// pathology on demand: a threshold carried over from a busy window is
/// 10–100× too high for the quiet window that follows, so a strict
/// (`f = 1`) carry-over admits almost nothing until cleaning catches
/// up, while the relaxed `z_next = z/f` variant recovers within the
/// window.
#[derive(Debug, Clone)]
pub struct BurstRate {
    /// Packets/s during the busy half-period.
    pub busy_rate: f64,
    /// Packets/s during the quiet half-period.
    pub quiet_rate: f64,
    /// Length of each half-period in seconds.
    pub period_secs: u64,
    second: u64,
}

impl BurstRate {
    /// Default burst profile: 20k pkt/s busy, 400 pkt/s quiet (a 50×
    /// drop, inside the paper's 10–100× inter-window swing band),
    /// alternating every 10 seconds.
    pub fn new() -> Self {
        BurstRate { busy_rate: 20_000.0, quiet_rate: 400.0, period_secs: 10, second: 0 }
    }

    /// Whether second `s` falls in a busy half-period.
    pub fn is_busy(&self, s: u64) -> bool {
        (s / self.period_secs).is_multiple_of(2)
    }
}

impl Default for BurstRate {
    fn default() -> Self {
        Self::new()
    }
}

impl RateProcess for BurstRate {
    fn next_rate(&mut self, rng: &mut StdRng) -> u64 {
        let s = self.second;
        self.second += 1;
        let rate = if self.is_busy(s) { self.busy_rate } else { self.quiet_rate };
        (rate * (1.0 + 0.02 * (2.0 * rng.gen::<f64>() - 1.0))) as u64
    }
}

/// A baseline rate with a DDoS burst between two points in time.
#[derive(Debug, Clone)]
pub struct DdosRate {
    /// Baseline packets/s outside the attack.
    pub base: f64,
    /// Packets/s during the attack.
    pub attack_rate: f64,
    /// Second at which the attack starts.
    pub attack_start: u64,
    /// Second at which the attack ends.
    pub attack_end: u64,
    second: u64,
}

impl DdosRate {
    /// Attack of `attack_rate` pkt/s during `[attack_start, attack_end)`
    /// seconds over a `base` pkt/s baseline.
    pub fn new(base: f64, attack_rate: f64, attack_start: u64, attack_end: u64) -> Self {
        DdosRate { base, attack_rate, attack_start, attack_end, second: 0 }
    }

    /// Whether second `s` is inside the attack interval.
    pub fn in_attack(&self, s: u64) -> bool {
        s >= self.attack_start && s < self.attack_end
    }
}

impl RateProcess for DdosRate {
    fn next_rate(&mut self, rng: &mut StdRng) -> u64 {
        let s = self.second;
        self.second += 1;
        let rate = if self.in_attack(s) { self.attack_rate } else { self.base };
        (rate * (1.0 + 0.02 * (2.0 * rng.gen::<f64>() - 1.0))) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn research_rate_is_variable_and_bounded() {
        let mut p = ResearchRate::new();
        let mut rng = StdRng::seed_from_u64(1);
        let rates: Vec<u64> = (0..600).map(|_| p.next_rate(&mut rng)).collect();
        let min = *rates.iter().min().unwrap();
        let max = *rates.iter().max().unwrap();
        assert!(min >= 20 && max <= 25_000);
        // Highly variable: at least a 10x swing over 10 minutes.
        assert!(max as f64 / min as f64 > 10.0, "min {min}, max {max}");
    }

    #[test]
    fn research_rate_has_deep_lulls() {
        let mut p = ResearchRate::new();
        let mut rng = StdRng::seed_from_u64(2);
        let rates: Vec<u64> = (0..1200).map(|_| p.next_rate(&mut rng)).collect();
        let lulls = rates.iter().filter(|&&r| r < 500).count();
        assert!(lulls > 0, "expected at least one deep lull in 20 minutes");
    }

    #[test]
    fn datacenter_rate_is_stable() {
        let mut p = DatacenterRate::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..300 {
            let r = p.next_rate(&mut rng);
            assert!((98_000..=102_000).contains(&r), "rate {r} outside jitter band");
        }
    }

    #[test]
    fn ddos_rate_spikes_during_attack() {
        let mut p = DdosRate::new(5_000.0, 80_000.0, 10, 20);
        let mut rng = StdRng::seed_from_u64(4);
        let rates: Vec<u64> = (0..30).map(|_| p.next_rate(&mut rng)).collect();
        assert!(rates[5] < 10_000);
        assert!(rates[15] > 70_000);
        assert!(rates[25] < 10_000);
    }

    #[test]
    fn burst_rate_alternates_half_periods() {
        let mut p = BurstRate::new();
        let mut rng = StdRng::seed_from_u64(5);
        let rates: Vec<u64> = (0..40).map(|_| p.next_rate(&mut rng)).collect();
        for (s, &r) in rates.iter().enumerate() {
            if (s as u64 / 10).is_multiple_of(2) {
                assert!(r > 19_000, "second {s}: busy rate {r}");
            } else {
                assert!(r < 500, "second {s}: quiet rate {r}");
            }
        }
    }

    #[test]
    fn processes_are_deterministic_per_seed() {
        let run = || {
            let mut p = ResearchRate::new();
            let mut rng = StdRng::seed_from_u64(99);
            (0..50).map(|_| p.next_rate(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
