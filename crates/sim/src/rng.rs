//! Reproducible random-number plumbing.
//!
//! Every stochastic component of the simulator (trace generation, pairing,
//! jitter) draws from a [`SimRng`] derived from a single experiment seed.
//! Substreams are forked with [`SimRng::fork`] so that adding a new consumer
//! of randomness does not perturb the draws seen by existing consumers —
//! a property the paper's "run each case 10 times" methodology needs for
//! clean seed-to-seed comparisons.

/// SplitMix64 step: expands a seed into the generator state and derives
/// independent substream seeds. (Vigna's standard constants; good
/// avalanche, cheap, and fixed here so a seed's stream never changes.)
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable random source with deterministic substream forking: a
/// xoshiro256++ generator whose state is the seed expanded by splitmix64.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Construct from an experiment seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [(); 4].map(|()| splitmix64(&mut sm));
        SimRng { s, seed }
    }

    /// The seed this generator was constructed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent generator for substream `stream`.
    ///
    /// Forking is a pure function of `(seed, stream)`: it does not consume
    /// state from `self`, so components can fork in any order without
    /// affecting each other.
    pub fn fork(&self, stream: u64) -> SimRng {
        let mut state = self.seed ^ 0xA076_1D64_78BD_642F_u64.wrapping_mul(stream.wrapping_add(1));
        // Two rounds of splitmix to decorrelate adjacent stream ids.
        let s1 = splitmix64(&mut state);
        let _ = splitmix64(&mut state);
        let s2 = splitmix64(&mut state);
        SimRng::seed_from_u64(s1 ^ s2.rotate_left(17))
    }

    /// Next raw 64-bit draw (one xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)`: the top 53 bits of one draw.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[0, 1)` that is never exactly zero (safe for `ln`).
    pub fn uniform_pos(&mut self) -> f64 {
        loop {
            let u = self.uniform();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform integer in `[lo, hi]` (inclusive), by a widening multiply
    /// (Lemire's method without the rejection step: the bias is at most
    /// 2⁻⁶⁴, immaterial here).
    pub fn int_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "int_in: empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + ((u128::from(self.next_u64()) * u128::from(span + 1)) >> 64) as u64
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_order_independent() {
        let root = SimRng::seed_from_u64(7);
        let mut f1 = root.fork(3);
        // Fork other streams in between; stream 3 must be unaffected.
        let _ = root.fork(1);
        let _ = root.fork(2);
        let mut f2 = root.fork(3);
        for _ in 0..32 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    #[test]
    fn forked_streams_are_distinct() {
        let root = SimRng::seed_from_u64(7);
        let mut f1 = root.fork(0);
        let mut f2 = root.fork(1);
        let same = (0..64).filter(|_| f1.next_u64() == f2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
            assert!(rng.uniform_pos() > 0.0);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn chance_rate_is_plausible() {
        let mut rng = SimRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    /// Known answers: the stream a seed yields is part of the simulator's
    /// determinism contract (every figure is a function of its seeds), so
    /// the generator, its seeding and the two samplers are pinned here.
    #[test]
    fn stream_matches_known_answers() {
        let mut rng = SimRng::seed_from_u64(1);
        let draws: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            draws,
            [
                0xcfc5_d07f_6f03_c29b,
                0xbf42_4132_963f_e08d,
                0x19a3_7d57_57aa_f520,
                0xbf08_119f_05cd_56d6,
            ]
        );
        let mut forked = SimRng::seed_from_u64(1).fork(2);
        let draws: Vec<u64> = (0..4).map(|_| forked.next_u64()).collect();
        assert_eq!(
            draws,
            [
                0x3cd8_b082_4112_d38c,
                0x4c7c_4a4f_68fb_e5e2,
                0xc992_9324_06e3_c0d5,
                0x325a_78f7_8409_a169,
            ]
        );

        // `uniform` keeps the top 53 bits of the first draw; `int_in`
        // scales the next three by a widening multiply.
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(rng.uniform(), 0.811_612_158_881_884_8);
        let ints: Vec<u64> = (0..3).map(|_| rng.int_in(0, 99)).collect();
        assert_eq!(ints, [74, 10, 74]);

        // The full range cannot be widened by one: it is the raw draw.
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(rng.int_in(0, u64::MAX), 0xcfc5_d07f_6f03_c29b);
    }

    #[test]
    fn int_in_bounds() {
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..1_000 {
            let v = rng.int_in(10, 20);
            assert!((10..=20).contains(&v));
        }
        assert_eq!(rng.int_in(7, 7), 7);
    }
}
