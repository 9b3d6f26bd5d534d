//! Deterministic 64-bit hashing utilities shared by the sampling
//! algorithms.
//!
//! Min-hash needs a family of independent hash functions; following the
//! paper's observation, after Broder, that "a substitute for the minimum
//! of N hash functions is the N minimum values of a single hash
//! function", [`splitmix64`] — a strong single 64-bit mixer — is *the*
//! hash function for k-minimum-values signatures, and [`to_unit`] maps
//! its output to the unit interval.

/// The finalizer of the SplitMix64 generator: a fast, well-mixed 64-bit
/// permutation. Suitable for hashing integer keys (IP addresses, ports)
/// where adversarial collision resistance is not required.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Map a 64-bit hash to the unit interval `[0, 1)`.
#[inline]
pub fn to_unit(h: u64) -> f64 {
    // 53 high bits -> exactly representable double in [0,1).
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn splitmix_is_a_bijection_on_small_range() {
        // A permutation has no collisions; sample a window of inputs.
        use std::collections::HashSet;
        let outs: HashSet<u64> = (0..10_000u64).map(splitmix64).collect();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn to_unit_is_in_range_and_monotone_at_extremes() {
        assert_eq!(to_unit(0), 0.0);
        let max = to_unit(u64::MAX);
        assert!(max < 1.0 && max > 0.9999);
        for k in [1u64, 42, 1 << 40, u64::MAX / 2] {
            let u = to_unit(splitmix64(k));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn unit_values_look_uniform() {
        // Mean of u = h(k)/2^64 over many keys should be near 1/2.
        let n = 100_000u64;
        let mean: f64 = (0..n).map(|k| to_unit(splitmix64(k))).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
