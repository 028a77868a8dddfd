//! Seeded input generation. Every workload derives its inputs from the
//! `--seed` argument through this generator alone, so one seed always
//! yields the same orders and level schedules.

use liquamod::floorplan::PowerLevel;

/// SplitMix64: small, fast and fully specified, so a seed means the same
/// inputs on every platform and in every later version of the benchmark.
pub struct Rng(u64);

impl Rng {
    /// A generator for one workload: the workload name is mixed into the
    /// seed so the three workloads draw independent streams.
    pub fn new(seed: u64, stream: &str) -> Self {
        let salt = stream.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        Rng(seed ^ salt)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// A level schedule of `len` phases holding `peaks` peak phases at seeded
/// positions, the rest average.
pub fn level_schedule(rng: &mut Rng, len: usize, peaks: usize) -> Vec<PowerLevel> {
    let mut levels: Vec<PowerLevel> = (0..len)
        .map(|i| {
            if i < peaks {
                PowerLevel::Peak
            } else {
                PowerLevel::Average
            }
        })
        .collect();
    rng.shuffle(&mut levels);
    levels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, "serve-soak");
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, "serve-soak");
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(7, "fleet-ladder");
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedules_keep_their_mix() {
        let mut r = Rng::new(3, "x");
        let levels = level_schedule(&mut r, 9, 4);
        assert_eq!(levels.iter().filter(|l| **l == PowerLevel::Peak).count(), 4);
    }
}
