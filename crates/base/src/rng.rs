//! A small deterministic random-number generator.
//!
//! Everything random in the reproduction — cache victim selection, workload
//! graph generation, particle motion — draws from [`DetRng`], a
//! xoshiro256** generator seeded explicitly. Two runs with the same
//! [`crate::config::SystemConfig`] therefore produce bit-identical cycle
//! counts, which the integration tests rely on.
//!
//! We deliberately do not depend on the `rand` crate anywhere; every
//! random draw in the repository comes from this generator.

/// Mixes 64 bits into 64 uniformly scrambled bits (the splitmix64
/// finalizer). Unlike a [`DetRng`] *stream*, a pure mix of a stable
/// identifier is order-independent: callers that need per-item
/// randomness independent of draw order (the tie-shuffle salt, network
/// jitter and fault decisions) hash the item's key instead of consuming
/// a stream.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic xoshiro256** random-number generator.
///
/// # Example
///
/// ```
/// use tt_base::DetRng;
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a seed, expanding it with splitmix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        DetRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniformly random integer in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "DetRng::below(0)");
        // Lemire-style multiply-shift; bias is negligible for our bounds.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A uniformly random `usize` in `0..bound`.
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// A uniformly random float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Derives an independent child generator; handy for giving each
    /// simulated node or workload phase its own stream.
    pub fn fork(&mut self, tag: u64) -> DetRng {
        DetRng::new(self.next_u64() ^ tag.wrapping_mul(0xA24B_AED4_963E_E407))
    }
}

/// A Zipfian (power-law) rank sampler over `0..n` with skew `s`:
/// rank `k` (0-based) is drawn with probability proportional to
/// `(k + 1)^-s`. Rank 0 is the hottest item.
///
/// Uses rejection-inversion for monotone discrete distributions
/// (Hörmann & Derflinger, "Rejection-inversion to generate variates
/// from monotone discrete distributions", 1996): O(1) per sample with
/// no per-rank tables, so key spaces of millions cost nothing to set
/// up. All randomness comes from the caller's [`DetRng`], so sampling
/// is deterministic given the seed. `s = 0` degenerates to uniform;
/// the serving workloads sweep `s` through the web-caching range
/// (~0.6–1.2).
#[derive(Clone, Copy, Debug)]
pub struct Zipf {
    n: u64,
    s: f64,
    /// `H(n + 1/2)`, the lower end of the inversion range.
    h_n: f64,
    /// `H(3/2) - 1`, the upper end of the inversion range.
    h_x1: f64,
    /// Acceptance cut for the hottest ranks (avoids evaluating the
    /// rejection test where acceptance is certain).
    cut: f64,
}

impl Zipf {
    /// A sampler over ranks `0..n` with skew `s >= 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative or non-finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty rank space");
        assert!(s >= 0.0 && s.is_finite(), "Zipf skew must be finite and >= 0");
        let h_n = h_integral(n as f64 + 0.5, s);
        let h_x1 = h_integral(1.5, s) - 1.0;
        let cut = 2.0 - h_integral_inverse(h_integral(2.5, s) - h(2.0, s), s);
        Zipf { n, s, h_n, h_x1, cut }
    }

    /// Draws a rank in `0..n` (0 = hottest).
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        if self.n == 1 {
            return 0;
        }
        loop {
            let u = self.h_n + rng.unit_f64() * (self.h_x1 - self.h_n);
            let x = h_integral_inverse(u, self.s);
            // Candidate rank (1-based), clamped into range.
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            if k - x <= self.cut || u >= h_integral(k + 0.5, self.s) - h(k, self.s) {
                return k as u64 - 1;
            }
        }
    }
}

/// `H(x) = ((x^(1-s)) - 1) / (1 - s)`, continued as `ln x` at `s = 1`.
/// Written via `exp_m1`/`ln_1p` so the two branches meet smoothly.
fn h_integral(x: f64, s: f64) -> f64 {
    let log_x = x.ln();
    helper2((1.0 - s) * log_x) * log_x
}

/// The density bound `h(x) = x^-s`.
fn h(x: f64, s: f64) -> f64 {
    (-s * x.ln()).exp()
}

/// The inverse of [`h_integral`].
fn h_integral_inverse(y: f64, s: f64) -> f64 {
    let mut t = y * (1.0 - s);
    if t < -1.0 {
        // Numerical round-off can push t slightly past the pole.
        t = -1.0;
    }
    (helper1(t) * y).exp()
}

/// `ln(1+x)/x`, stable near 0.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x / 3.0)
    }
}

/// `(e^x - 1)/x`, stable near 0.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * (0.5 + x / 6.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = DetRng::new(4);
        for _ in 0..1000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = DetRng::new(5);
        let mut buckets = [0u32; 8];
        for _ in 0..8000 {
            buckets[r.below_usize(8)] += 1;
        }
        for &b in &buckets {
            assert!((700..1300).contains(&b), "bucket count {b} out of range");
        }
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = DetRng::new(9);
        let mut child = a.fork(1);
        assert_ne!(a.next_u64(), child.next_u64());
    }

    /// Draws `samples` ranks and returns per-rank counts for the first
    /// `track` ranks.
    fn zipf_counts(n: u64, s: f64, samples: usize, track: usize, seed: u64) -> Vec<u64> {
        let zipf = Zipf::new(n, s);
        let mut rng = DetRng::new(seed);
        let mut counts = vec![0u64; track];
        for _ in 0..samples {
            let k = zipf.sample(&mut rng);
            assert!(k < n, "rank {k} out of range 0..{n}");
            if (k as usize) < track {
                counts[k as usize] += 1;
            }
        }
        counts
    }

    /// The frequency-ratio test that pins the skew: under pmf ∝ (k+1)^-s,
    /// count(rank a) / count(rank b) must approach ((b+1)/(a+1))^s.
    #[test]
    fn zipf_frequency_ratios_pin_the_skew() {
        for &s in &[0.8, 1.0, 1.5] {
            let counts = zipf_counts(1000, s, 400_000, 10, 0x21BF);
            let ratio10 = counts[0] as f64 / counts[1] as f64;
            let expect10 = 2f64.powf(s);
            assert!(
                (ratio10 / expect10 - 1.0).abs() < 0.10,
                "s={s}: rank0/rank1 ratio {ratio10:.3}, expected {expect10:.3}"
            );
            let ratio90 = counts[0] as f64 / counts[9] as f64;
            let expect90 = 10f64.powf(s);
            assert!(
                (ratio90 / expect90 - 1.0).abs() < 0.20,
                "s={s}: rank0/rank9 ratio {ratio90:.3}, expected {expect90:.3}"
            );
        }
    }

    #[test]
    fn zipf_zero_skew_is_uniform() {
        let counts = zipf_counts(8, 0.0, 64_000, 8, 11);
        for &c in &counts {
            assert!((7000..9000).contains(&c), "bucket count {c} not uniform");
        }
    }

    #[test]
    fn zipf_is_deterministic_and_seed_sensitive() {
        let z = Zipf::new(1 << 20, 0.99);
        let draw = |seed| {
            let mut rng = DetRng::new(seed);
            (0..64).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn zipf_single_rank_and_heavy_skew() {
        let mut rng = DetRng::new(1);
        let one = Zipf::new(1, 1.2);
        assert_eq!(one.sample(&mut rng), 0);
        let heavy = Zipf::new(1 << 30, 2.0);
        // With s=2 over a huge space, the head dominates: most draws tiny.
        let small = (0..1000).filter(|_| heavy.sample(&mut rng) < 8).count();
        assert!(small > 900, "only {small}/1000 draws in the head");
    }
}
