//! The benchmark's own request sampler and input fingerprint.
//!
//! `rand` is not a dependency of this package, and the request sequence
//! must not change when `dbsa-datagen`'s generator does — so the sampler
//! is ten lines of SplitMix64 here, and every generated input is hashed
//! (FNV-1a over little-endian bytes) so a silent change of what is measured
//! fails the run instead.

/// SplitMix64 (Steele, Lea & Flood): one 64-bit state word, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv1a {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // First outputs of the reference implementation for seed 1234567.
        let mut rng = SplitMix64::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
        assert_eq!(rng.next_u64(), 9_817_491_932_198_370_423);
    }

    #[test]
    fn sampler_is_seeded_and_stays_in_range() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..64).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut rng = SplitMix64::new(2021);
        let mut sum = 0.0;
        for _ in 0..20_000 {
            let x = rng.range(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
            sum += x;
        }
        assert!(
            (sum / 20_000.0 - 1.0).abs() < 0.05,
            "mean {}",
            sum / 20_000.0
        );
    }

    #[test]
    fn fnv1a_matches_published_vectors() {
        let hash = |s: &str| {
            let mut h = Fnv1a::default();
            h.bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(hash("a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(hash("foobar"), 0x8594_4171_F739_67E8);
        let mut h = Fnv1a::default();
        h.u64(1);
        h.f64(1.0);
        let mut same = Fnv1a::default();
        same.bytes(&[1, 0, 0, 0, 0, 0, 0, 0]);
        same.bytes(&1.0f64.to_le_bytes());
        assert_eq!(h.finish(), same.finish());
    }
}
