//! Seeded randomness: a SplitMix64 generator and a Zipf sampler.
//!
//! Everything a workload draws comes from here, so one `--seed` fixes
//! the data, the key sequence and the operation mix.

/// SplitMix64 (Steele, Lea & Flood 2014): small, fast, and good enough
/// for workload generation.
#[derive(Debug, Clone, Default)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream for one purpose (a client, a table).
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Zipf-distributed keys over `0..n`: rank `r` is drawn with weight
/// `1 / (r + 1)^s`, and ranks map to keys through a seeded permutation
/// so the hot keys are scattered over the key space (and the shards).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    keys: Vec<u32>,
}

impl Zipf {
    /// Over the given keys, in the rank order of a seeded shuffle.
    pub fn over(mut keys: Vec<u32>, s: f64, rng: &mut Rng) -> Self {
        let perm = rng.permutation(keys.len());
        keys = perm.iter().map(|&i| keys[i as usize]).collect();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..keys.len())
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf, keys }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.keys.len() - 1);
        self.keys[rank] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = Rng::new(1);
        let z = Zipf::over((0..1000).collect(), 0.99, &mut rng);
        let mut hits = vec![0u32; 1000];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        let max = *hits.iter().max().unwrap();
        assert!(
            max > 5_000,
            "the hottest key draws well above uniform (100)"
        );
    }
}
