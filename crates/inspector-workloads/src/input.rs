//! Deterministic input generation.
//!
//! The paper's inputs (500 MB key files, BMP images, netlists, …) are not
//! redistributable here, so each workload generates a synthetic input with a
//! fixed seed. Three sizes are provided to reproduce the input-scalability
//! experiment (Figure 8).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Input size class (the S/M/L variants of Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InputSize {
    /// Tiny inputs for unit tests (milliseconds).
    Tiny,
    /// Small input (Figure 8 "S").
    Small,
    /// Default input (Figure 8 "M").
    #[default]
    Medium,
    /// Large input (Figure 8 "L").
    Large,
}

impl InputSize {
    /// A multiplier applied to each workload's base element count.
    pub fn scale(self) -> usize {
        match self {
            InputSize::Tiny => 1,
            InputSize::Small => 8,
            InputSize::Medium => 16,
            InputSize::Large => 32,
        }
    }

    /// Label used in figure output ("S", "M", "L").
    pub fn label(self) -> &'static str {
        match self {
            InputSize::Tiny => "T",
            InputSize::Small => "S",
            InputSize::Medium => "M",
            InputSize::Large => "L",
        }
    }

    /// The three sizes used by the Figure 8 experiment.
    pub fn figure8_sizes() -> [InputSize; 3] {
        [InputSize::Small, InputSize::Medium, InputSize::Large]
    }
}

/// A deterministic random generator seeded per workload.
pub fn rng_for(workload: &str, size: InputSize) -> StdRng {
    let mut seed = [0u8; 32];
    for (i, b) in workload.bytes().enumerate() {
        seed[i % 32] ^= b;
    }
    seed[31] ^= size.scale() as u8;
    StdRng::from_seed(seed)
}

/// Generates `n` bytes of pseudo-text: lowercase words of 1–10 characters
/// separated by spaces and newlines (input for `word_count`, `string_match`,
/// `reverse_index`).
pub fn generate_text(workload: &str, size: InputSize, n: usize) -> Vec<u8> {
    let mut rng = rng_for(workload, size);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let len = rng.gen_range(1..=10);
        for _ in 0..len {
            out.push(b'a' + rng.gen_range(0..26u8));
        }
        out.push(if rng.gen_bool(0.1) { b'\n' } else { b' ' });
    }
    out.truncate(n);
    out
}

/// Generates `n` bytes imitating a 24-bit BMP payload (input for
/// `histogram`).
pub fn generate_pixels(workload: &str, size: InputSize, n: usize) -> Vec<u8> {
    let mut rng = rng_for(workload, size);
    (0..n).map(|_| rng.gen::<u8>()).collect()
}

/// Generates `n` `(x, y)` point pairs encoded as consecutive `f64`s (input
/// for `linear_regression`, `kmeans`, `streamcluster`, `pca`).
pub fn generate_points(workload: &str, size: InputSize, n: usize) -> Vec<f64> {
    let mut rng = rng_for(workload, size);
    (0..n * 2).map(|_| rng.gen_range(-1000.0..1000.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(
            generate_text("word_count", InputSize::Small, 1000),
            generate_text("word_count", InputSize::Small, 1000)
        );
        assert_eq!(
            generate_points("kmeans", InputSize::Medium, 10),
            generate_points("kmeans", InputSize::Medium, 10)
        );
    }

    #[test]
    fn different_workloads_get_different_inputs() {
        assert_ne!(
            generate_pixels("a", InputSize::Small, 64),
            generate_pixels("b", InputSize::Small, 64)
        );
    }

    #[test]
    fn sizes_scale_monotonically() {
        assert!(InputSize::Small.scale() < InputSize::Medium.scale());
        assert!(InputSize::Medium.scale() < InputSize::Large.scale());
        assert_eq!(InputSize::Large.label(), "L");
        assert_eq!(InputSize::figure8_sizes().len(), 3);
    }

    #[test]
    fn text_has_requested_length_and_alphabet() {
        let t = generate_text("x", InputSize::Tiny, 500);
        assert_eq!(t.len(), 500);
        assert!(t
            .iter()
            .all(|&b| b.is_ascii_lowercase() || b == b' ' || b == b'\n'));
    }
}
