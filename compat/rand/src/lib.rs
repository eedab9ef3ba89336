//! Offline stand-in for `rand` (0.8-era API subset).
//!
//! Provides [`rngs::SmallRng`] as a faithful xoshiro256++ generator seeded
//! via SplitMix64 — the same algorithm family real `rand` 0.8 uses for
//! `SmallRng` on 64-bit targets — so simulation noise keeps the statistical
//! properties the calibration tests assert (uniform in [0,1), mean ½,
//! deterministic per seed).

#![forbid(unsafe_code)]

/// Low-level source of random bits.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Samples a uniformly-distributed value of `Self` from an RNG.
pub trait StandardSample {
    /// Draws one sample.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 significant bits, uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniformly-distributed value.
    #[inline]
    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Returns `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }

    /// Uniform `u64` in `[low, high)` (Lemire-style rejection-free modulo
    /// bias is negligible for simulation use).
    fn gen_range_u64(&mut self, low: u64, high: u64) -> u64
    where
        Self: Sized,
    {
        assert!(low < high, "empty range");
        low + self.next_u64() % (high - low)
    }
}

impl<R: RngCore> Rng for R {}

/// RNGs constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed (SplitMix64 expansion).
    fn seed_from_u64(seed: u64) -> Self;
}

/// SplitMix64 step: expands a 64-bit seed into independent state words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Named RNG implementations.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// xoshiro256++: the algorithm behind `rand` 0.8's `SmallRng` on
    /// 64-bit platforms. Fast, small-state, non-cryptographic.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl RngCore for SmallRng {
        // `#[inline]` matters: generic callers (`gen::<f64>` etc.)
        // monomorphize in *their* crate and would otherwise pay a real
        // cross-crate call per draw — the simulator makes ~150k draws per
        // paper-scale run.
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for word in &mut s {
                *word = splitmix64(&mut sm);
            }
            // xoshiro's all-zero state is absorbing; SplitMix64 never
            // produces it from any seed, but guard anyway.
            if s == [0; 4] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            SmallRng { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = SmallRng::seed_from_u64(43);
        let first: u64 = SmallRng::seed_from_u64(42).gen();
        assert_ne!(first, c.gen::<u64>());
    }

    #[test]
    fn f64_uniform_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} not ~0.5");
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = SmallRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.05)).count();
        assert!((300..700).contains(&hits), "got {hits} hits");
    }
}
