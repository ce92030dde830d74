//! Weight initialization: Kaiming/He normal for the ReLU layers.

use fedca_tensor::Tensor;
use rand::Rng;

/// Kaiming-He normal init: `N(0, sqrt(2/fan_in)²)`. Standard for
/// ReLU networks (the CNN and WRN models).
pub fn kaiming_normal(shape: &[usize], fan_in: usize, rng: &mut impl Rng) -> Tensor {
    assert!(fan_in > 0, "fan_in must be positive");
    let std = (2.0 / fan_in as f32).sqrt();
    Tensor::randn(shape, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kaiming_variance_tracks_fan_in() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = kaiming_normal(&[200, 50], 50, &mut rng);
        let var = t.as_slice().iter().map(|x| x * x).sum::<f32>() / t.len() as f32;
        let expected = 2.0 / 50.0;
        assert!(
            (var - expected).abs() < expected * 0.15,
            "var {var} vs expected {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "fan_in must be positive")]
    fn kaiming_rejects_zero_fan_in() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = kaiming_normal(&[1], 0, &mut rng);
    }
}
