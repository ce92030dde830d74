//! Top-k sparsification: transmit only the `k` largest-magnitude elements.
//!
//! The standard companion to error feedback ([`crate::error_feedback`]):
//! the untransmitted residual is added back into the next round's update so
//! nothing is permanently lost.

use serde::{Deserialize, Serialize};

/// A sparse vector as (index, value) pairs over a known dense length.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SparseVec {
    /// Dense length.
    pub len: usize,
    /// Kept indices, strictly increasing.
    pub indices: Vec<u32>,
    /// Values at the kept indices.
    pub values: Vec<f32>,
}

/// Keeps the `keep` fraction (at least one element for non-empty input) of
/// largest-magnitude elements.
///
/// # Panics
/// Panics if `keep` is outside `(0, 1]`.
pub fn top_k(x: &[f32], keep: f32) -> SparseVec {
    assert!(keep > 0.0 && keep <= 1.0, "keep fraction must be in (0, 1]");
    if x.is_empty() {
        return SparseVec {
            len: 0,
            indices: Vec::new(),
            values: Vec::new(),
        };
    }
    let k = kept_count(x.len(), keep);
    let mut order: Vec<u32> = (0..x.len() as u32).collect();
    order.select_nth_unstable_by(k - 1, |&a, &b| {
        x[b as usize]
            .abs()
            .partial_cmp(&x[a as usize].abs())
            .expect("non-NaN update values")
    });
    let mut indices: Vec<u32> = order[..k].to_vec();
    indices.sort_unstable();
    let values = indices.iter().map(|&i| x[i as usize]).collect();
    SparseVec {
        len: x.len(),
        indices,
        values,
    }
}

/// How many of `n` elements [`top_k`] keeps: `⌈n·keep⌉`, at least one for
/// non-empty input.
pub fn kept_count(n: usize, keep: f32) -> usize {
    if n == 0 {
        return 0;
    }
    ((n as f32 * keep).ceil() as usize).clamp(1, n)
}

/// Reconstructs the dense vector (zeros elsewhere).
pub fn densify(s: &SparseVec) -> Vec<f32> {
    let mut out = vec![0.0f32; s.len];
    for (&i, &v) in s.indices.iter().zip(&s.values) {
        out[i as usize] = v;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_largest_magnitudes() {
        let x = [0.1f32, -5.0, 0.2, 3.0, -0.05];
        let s = top_k(&x, 0.4); // ceil(2) = 2 kept
        assert_eq!(s.indices, vec![1, 3]);
        assert_eq!(s.values, vec![-5.0, 3.0]);
        let d = densify(&s);
        assert_eq!(d, vec![0.0, -5.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn keep_one_fraction_is_identity() {
        let x = [1.0f32, -2.0, 3.0];
        let s = top_k(&x, 1.0);
        assert_eq!(densify(&s), x.to_vec());
    }

    #[test]
    fn tiny_keep_still_keeps_one() {
        let x = [1.0f32, 9.0, 2.0];
        let s = top_k(&x, 1e-6);
        assert_eq!(s.indices, vec![1]);
        assert_eq!(s.values, vec![9.0]);
    }

    #[test]
    fn empty_input_empty_output() {
        let s = top_k(&[], 0.5);
        assert_eq!(s.len, 0);
        assert!(densify(&s).is_empty());
    }

    #[test]
    fn kept_energy_dominates_dropped_energy() {
        let x: Vec<f32> = (0..100)
            .map(|i| (i as f32 * 1.3).sin() * i as f32)
            .collect();
        let s = top_k(&x, 0.2);
        let kept: f32 = s.values.iter().map(|v| v * v).sum();
        let total: f32 = x.iter().map(|v| v * v).sum();
        assert!(
            kept / total > 0.5,
            "top-20% kept only {} of energy",
            kept / total
        );
    }

    #[test]
    #[should_panic(expected = "keep fraction")]
    fn rejects_zero_keep() {
        let _ = top_k(&[1.0], 0.0);
    }
}
