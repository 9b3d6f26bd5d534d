//! Reservoir sampling (Vitter, *Random sampling with a reservoir*, 1985).
//!
//! Two implementations:
//!
//! * [`Reservoir`] — Algorithm R: O(1) work per record, one random draw
//!   per record. Simple, and the distributional reference.
//! * [`SkipReservoir`] — skip-based sampling in the spirit of Vitter's
//!   Algorithm Z: instead of drawing per record, draw a *skip count*
//!   Σ(n, t), jump over that many records, and replace a random slot with
//!   the next one. We use Li's Algorithm L formulation of the skip
//!   distribution, which achieves the same optimal
//!   `O(n (1 + log(N/n)))` expected draws as Vitter's
//!   rejection-acceptance method and produces exactly uniform samples.
//!
//! The skip structure is what the paper's operator exploits: `rsample(n)`
//! is a stateful function that returns `TRUE` for records chosen as
//! candidates and `FALSE` for skipped ones.

use rand::Rng;

/// Fixed-size uniform reservoir (Algorithm R).
///
/// After `t ≥ n` offers, each of the `t` records seen has probability
/// `n / t` of being in the reservoir.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    items: Vec<T>,
}

impl<T> Reservoir<T> {
    /// Create a reservoir holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Reservoir { capacity, seen: 0, items: Vec::with_capacity(capacity) }
    }

    /// Offer one record. Returns `true` if the record was placed in the
    /// reservoir (possibly evicting another).
    pub fn offer<R: Rng>(&mut self, item: T, rng: &mut R) -> bool {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
            true
        } else {
            let j = rng.gen_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.items[j as usize] = item;
                true
            } else {
                false
            }
        }
    }

    /// Records offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The current sample.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Consume into the sample.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }

    /// Reset for a new window, keeping the capacity.
    pub fn clear(&mut self) {
        self.seen = 0;
        self.items.clear();
    }

    /// Rehydrate a reservoir from an already-drawn sample and its offer
    /// count — the merge path of a sharded runtime receives exactly this
    /// (per-shard sample rows plus the shard's window tuple count).
    ///
    /// # Panics
    /// Panics if `capacity == 0`, if the sample exceeds the capacity, or
    /// if it exceeds `seen`.
    pub fn from_parts(capacity: usize, seen: u64, items: Vec<T>) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        assert!(items.len() <= capacity, "sample larger than capacity");
        assert!(items.len() as u64 <= seen, "sample larger than offer count");
        Reservoir { capacity, seen, items }
    }
}

impl<T: Clone> Reservoir<T> {
    /// Weighted merge of two reservoirs over *disjoint* substreams: the
    /// result is distributed exactly like a single reservoir run over the
    /// concatenated stream.
    ///
    /// The number of survivors taken from each side follows the
    /// hypergeometric allocation (draw `k` records without replacement
    /// from an urn holding `seen_a` + `seen_b` records), realised by
    /// sequential weighted draws; the chosen count is then filled with a
    /// uniform subset of that side's sample. This is the standard
    /// parallel-reservoir merge rule (cf. StreamSampling.jl's `merge`).
    pub fn merge<R: Rng>(&self, other: &Reservoir<T>, rng: &mut R) -> Reservoir<T> {
        let capacity = self.capacity.min(other.capacity);
        let total = self.seen + other.seen;
        let available = self.items.len() + other.items.len();
        let k = ((capacity as u64).min(total) as usize).min(available);
        // Hypergeometric split of the k slots between the two sides.
        let (mut left, mut right) = (self.seen, other.seen);
        let mut from_left = 0usize;
        for _ in 0..k {
            if left + right == 0 {
                break;
            }
            if rng.gen_range(0..left + right) < left {
                from_left += 1;
                left -= 1;
            } else {
                right -= 1;
            }
        }
        // A side can hold fewer items than its hypergeometric share:
        // the caller may have built it from grouped output, where
        // sampled records collapsed onto shared keys. Clamp the split
        // to what each side can actually supply (k <= available keeps
        // the clamp bounds ordered).
        let from_left =
            from_left.clamp(k.saturating_sub(other.items.len()), self.items.len().min(k));
        // Uniform subset of each side's sample (partial Fisher–Yates).
        let mut items = Vec::with_capacity(capacity);
        for (source, take) in [(self, from_left), (other, k - from_left)] {
            let mut pool = source.items.clone();
            for _ in 0..take {
                let j = rng.gen_range(0..pool.len());
                items.push(pool.swap_remove(j));
            }
        }
        Reservoir { capacity, seen: total, items }
    }
}

/// Skip-based uniform reservoir (Algorithm L skip distribution).
///
/// Equivalent in distribution to [`Reservoir`], but once the reservoir is
/// full it draws O(1) random numbers per *accepted* record rather than
/// per offered record.
#[derive(Debug, Clone)]
pub struct SkipReservoir<T> {
    capacity: usize,
    seen: u64,
    items: Vec<T>,
    /// log-uniform accumulator `W` of Algorithm L.
    w: f64,
    /// Records still to skip before the next acceptance.
    skip: u64,
}

impl<T> SkipReservoir<T> {
    /// Create a skip reservoir holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        SkipReservoir { capacity, seen: 0, items: Vec::with_capacity(capacity), w: 1.0, skip: 0 }
    }

    fn draw_skip<R: Rng>(&mut self, rng: &mut R) {
        // W *= U^{1/n}; skip = floor(log U' / log(1-W))
        self.w *= f64::exp(f64::ln(rng.gen::<f64>()) / self.capacity as f64);
        let u: f64 = rng.gen::<f64>();
        let denom = f64::ln_1p(-self.w);
        self.skip = if denom == 0.0 { u64::MAX } else { (f64::ln(u) / denom) as u64 };
    }

    /// Offer one record. Returns `true` if it entered the reservoir.
    pub fn offer<R: Rng>(&mut self, item: T, rng: &mut R) -> bool {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
            if self.items.len() == self.capacity {
                self.draw_skip(rng);
            }
            return true;
        }
        if self.skip > 0 {
            self.skip -= 1;
            return false;
        }
        let slot = rng.gen_range(0..self.capacity);
        self.items[slot] = item;
        self.draw_skip(rng);
        true
    }

    /// Records offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The current sample.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Consume into the sample.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn fills_then_holds_capacity() {
        let mut r = Reservoir::new(5);
        let mut g = rng(1);
        for i in 0..100u64 {
            r.offer(i, &mut g);
            assert!(r.items().len() <= 5);
        }
        assert_eq!(r.items().len(), 5);
        assert_eq!(r.seen(), 100);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Reservoir::<u64>::new(0);
    }

    #[test]
    fn short_stream_keeps_everything() {
        let mut r = Reservoir::new(10);
        let mut g = rng(2);
        for i in 0..7u64 {
            assert!(r.offer(i, &mut g));
        }
        let mut items = r.into_items();
        items.sort_unstable();
        assert_eq!(items, (0..7).collect::<Vec<_>>());
    }

    /// Chi-square style uniformity check: every record should appear in
    /// the final sample with frequency ~ n/N across trials.
    fn inclusion_counts<F>(n: usize, total: u64, trials: u32, mut run: F) -> Vec<u32>
    where
        F: FnMut(u64) -> Vec<u64>,
    {
        let mut counts = vec![0u32; total as usize];
        for t in 0..trials {
            for item in run(t as u64) {
                counts[item as usize] += 1;
            }
        }
        let expected = trials as f64 * n as f64 / total as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected) / expected.sqrt();
            // 6-sigma-ish bound on a Poisson-ish count; loose but catches
            // systematic bias (e.g. never replacing early items).
            assert!(dev.abs() < 6.0, "item {i}: count {c}, expected {expected:.1}");
        }
        counts
    }

    #[test]
    fn algorithm_r_is_uniform() {
        inclusion_counts(10, 100, 2000, |seed| {
            let mut r = Reservoir::new(10);
            let mut g = rng(seed * 7 + 1);
            for i in 0..100u64 {
                r.offer(i, &mut g);
            }
            r.into_items()
        });
    }

    #[test]
    fn skip_reservoir_is_uniform() {
        inclusion_counts(10, 100, 2000, |seed| {
            let mut r = SkipReservoir::new(10);
            let mut g = rng(seed * 13 + 5);
            for i in 0..100u64 {
                r.offer(i, &mut g);
            }
            r.into_items()
        });
    }

    #[test]
    fn skip_reservoir_always_keeps_exactly_capacity() {
        let mut r = SkipReservoir::new(25);
        let mut g = rng(3);
        for i in 0..10_000u64 {
            r.offer(i, &mut g);
        }
        assert_eq!(r.items().len(), 25);
        assert_eq!(r.seen(), 10_000);
    }

    #[test]
    fn skip_reservoir_accepts_far_fewer_than_offers() {
        // The whole point of skip generation: acceptances ~ n log(N/n),
        // not N.
        let mut r = SkipReservoir::new(10);
        let mut g = rng(4);
        let mut acceptances = 0u64;
        for i in 0..100_000u64 {
            if r.offer(i, &mut g) {
                acceptances += 1;
            }
        }
        // n + n*ln(N/n) = 10 + 10*ln(10000) ~ 102; allow generous slack.
        assert!(acceptances < 400, "acceptances = {acceptances}");
    }

    #[test]
    fn clear_resets_reservoir() {
        let mut r = Reservoir::new(3);
        let mut g = rng(8);
        for i in 0..10u64 {
            r.offer(i, &mut g);
        }
        r.clear();
        assert_eq!(r.seen(), 0);
        assert!(r.items().is_empty());
        // Still usable after clear.
        r.offer(99, &mut g);
        assert_eq!(r.items(), &[99]);
    }
}
