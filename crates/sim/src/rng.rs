//! Deterministic, splittable pseudo-random number generation.
//!
//! Every simulated process owns a [`SplitMix64`] seeded from the execution
//! seed and the process id, so an execution is a pure function of
//! `(algorithm, schedule/adversary, seed)` — a property the experiments and
//! the exhaustive explorer rely on. SplitMix64 is the standard 64-bit
//! mixing generator (Steele, Lea & Flood 2014); it is tiny, fast, and has
//! no external dependencies.

/// The source of random decisions a protocol may draw from.
///
/// Protocols consume randomness only through this trait so that the
/// exhaustive explorer ([`crate::explore`]) can substitute a scripted
/// source and enumerate *all* coin outcomes, while normal executions use
/// [`SplitMix64`]. Every decision must have a finite domain: `choose(d)`
/// returns a uniform value in `0..d`, and the provided combinators reduce
/// richer distributions to such decisions.
pub trait Randomness {
    /// Uniform value in `0..domain`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `domain == 0`.
    fn choose(&mut self, domain: u64) -> u64;

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    ///
    /// Scripted sources may ignore the weight and explore both branches.
    fn bernoulli(&mut self, p: f64) -> bool;

    /// Fair coin.
    fn coin(&mut self) -> bool {
        self.choose(2) == 1
    }

    /// Sample `x ∈ {1, …, ell}` with `Pr[x = i] = 2^-i` for `i < ell` and
    /// `Pr[x = ell] = 2^-(ell-1)` — the distribution of the paper's
    /// Figure 1, line 3. Implemented by repeated fair coins so scripted
    /// sources explore it exhaustively.
    ///
    /// # Panics
    ///
    /// Panics if `ell == 0`.
    fn geometric_capped(&mut self, ell: u64) -> u64 {
        assert!(ell > 0, "geometric_capped needs ell >= 1");
        let mut x = 1;
        while x < ell {
            if self.coin() {
                return x;
            }
            x += 1;
        }
        ell
    }
}

/// A deterministic 64-bit PRNG (SplitMix64).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl Randomness for SplitMix64 {
    #[inline]
    fn choose(&mut self, domain: u64) -> u64 {
        self.next_below(domain)
    }

    #[inline]
    fn bernoulli(&mut self, p: f64) -> bool {
        SplitMix64::bernoulli(self, p)
    }

    #[inline]
    fn coin(&mut self) -> bool {
        SplitMix64::coin(self)
    }

    #[inline]
    fn geometric_capped(&mut self, ell: u64) -> u64 {
        SplitMix64::geometric_capped(self, ell)
    }
}

impl SplitMix64 {
    /// Create a generator from a seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive an independent-looking stream for substream `index`.
    ///
    /// Used to give each process its own generator from one execution seed.
    #[inline]
    pub fn split(seed: u64, index: u64) -> Self {
        let mut base = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15u64.rotate_left(7));
        let a = base.next_u64();
        let mut mixer = SplitMix64::new(a ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        // Burn a few outputs so small indices do not correlate.
        mixer.next_u64();
        mixer.next_u64();
        SplitMix64::new(mixer.next_u64())
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Multiply-shift rejection-free mapping is fine here: bounds are
        // tiny relative to 2^64, so modulo bias is ≤ bound/2^64 ≈ 0 for our
        // statistical purposes. Use 128-bit multiply for uniformity.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Fair coin.
    #[inline]
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // Compare against 53-bit uniform.
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Sample `x ∈ {1, …, ell}` with `Pr[x = i] = 2^-i` for `i < ell` and
    /// `Pr[x = ell] = 2^-(ell-1)` — the geometric distribution of the
    /// paper's Figure 1, line 3.
    ///
    /// # Panics
    ///
    /// Panics if `ell == 0`.
    #[inline]
    pub fn geometric_capped(&mut self, ell: u64) -> u64 {
        assert!(ell > 0, "geometric_capped needs ell >= 1");
        let mut x = 1;
        while x < ell {
            if self.coin() {
                return x;
            }
            x += 1;
        }
        ell
    }

    /// Uniform `f64` in `[0,1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn split_streams_differ() {
        let mut a = SplitMix64::split(7, 0);
        let mut b = SplitMix64::split(7, 1);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn split_is_deterministic() {
        assert_eq!(SplitMix64::split(9, 3), SplitMix64::split(9, 3));
    }

    #[test]
    fn next_below_in_range() {
        let mut r = SplitMix64::new(5);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn coin_is_roughly_fair() {
        let mut r = SplitMix64::new(11);
        let heads = (0..10_000).filter(|_| r.coin()).count();
        assert!((4600..5400).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = SplitMix64::new(3);
        assert!((0..100).all(|_| r.bernoulli(1.0)));
        assert!((0..100).all(|_| !r.bernoulli(0.0)));
    }

    #[test]
    fn bernoulli_mid() {
        let mut r = SplitMix64::new(8);
        let hits = (0..20_000).filter(|_| r.bernoulli(0.25)).count();
        assert!((4400..5600).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn geometric_capped_distribution() {
        let mut r = SplitMix64::new(17);
        let ell = 6u64;
        let n = 60_000usize;
        let mut counts = vec![0usize; ell as usize + 1];
        for _ in 0..n {
            let x = r.geometric_capped(ell);
            assert!((1..=ell).contains(&x));
            counts[x as usize] += 1;
        }
        // Pr[x=1] = 1/2, Pr[x=2] = 1/4, and Pr[x=ell] = 2^-(ell-1).
        let p1 = counts[1] as f64 / n as f64;
        let p2 = counts[2] as f64 / n as f64;
        let pl = counts[ell as usize] as f64 / n as f64;
        assert!((p1 - 0.5).abs() < 0.02, "p1={p1}");
        assert!((p2 - 0.25).abs() < 0.02, "p2={p2}");
        let expect_l = 1.0 / (1u64 << (ell - 1)) as f64;
        assert!((pl - expect_l).abs() < 0.01, "pl={pl}");
    }

    #[test]
    fn geometric_capped_ell_one() {
        let mut r = SplitMix64::new(23);
        for _ in 0..50 {
            assert_eq!(r.geometric_capped(1), 1);
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SplitMix64::new(31);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
