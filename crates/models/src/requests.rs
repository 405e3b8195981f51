//! Synthetic inference-request generation for the serving runtime.
//!
//! A serving benchmark needs a stream of request payloads whose shape
//! matches the model being served and whose arrival process is controllable.
//! [`RequestGenerator`] produces seeded, deterministic payload vectors (so
//! runs are reproducible and results can be checked against a dense
//! reference); arrival times come from [`crate::traffic`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic generator of synthetic inference requests.
#[derive(Clone, Debug)]
pub struct RequestGenerator {
    input_dim: usize,
    scale: f32,
    rng: StdRng,
}

impl RequestGenerator {
    /// A generator producing payloads of `input_dim` values drawn uniformly
    /// from `(-scale, scale)`.
    ///
    /// # Panics
    /// Panics if `input_dim` is zero or `scale` is not positive.
    pub fn new(input_dim: usize, scale: f32, seed: u64) -> Self {
        assert!(input_dim > 0, "input dim must be positive");
        assert!(scale > 0.0, "payload scale must be positive");
        Self { input_dim, scale, rng: StdRng::seed_from_u64(seed) }
    }

    /// The next request payload.
    pub fn next_payload(&mut self) -> Vec<f32> {
        let scale = self.scale;
        (0..self.input_dim).map(|_| self.rng.gen_range(-scale..scale)).collect()
    }

    /// A batch of `count` payloads.
    pub fn payloads(&mut self, count: usize) -> Vec<Vec<f32>> {
        (0..count).map(|_| self.next_payload()).collect()
    }
}

impl Iterator for RequestGenerator {
    type Item = Vec<f32>;

    fn next(&mut self) -> Option<Vec<f32>> {
        Some(self.next_payload())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_deterministic_per_seed() {
        let mut a = RequestGenerator::new(16, 1.0, 5);
        let mut b = RequestGenerator::new(16, 1.0, 5);
        assert_eq!(a.payloads(3), b.payloads(3));
    }

    #[test]
    fn payloads_differ_across_seeds_and_stay_bounded() {
        let mut a = RequestGenerator::new(32, 0.5, 1);
        let mut b = RequestGenerator::new(32, 0.5, 2);
        let pa = a.next_payload();
        let pb = b.next_payload();
        assert_ne!(pa, pb);
        assert!(pa.iter().all(|v| v.abs() <= 0.5));
    }

    #[test]
    fn iterator_yields_payloads() {
        let generator = RequestGenerator::new(8, 1.0, 9);
        let batch: Vec<Vec<f32>> = generator.take(4).collect();
        assert_eq!(batch.len(), 4);
        assert!(batch.iter().all(|p| p.len() == 8));
    }
}
