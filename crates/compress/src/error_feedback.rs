//! Local error feedback for lossy update compression.
//!
//! Compressors drop information; error feedback keeps the dropped residual
//! `e = x − compress(x)` locally and adds it to the *next* update before
//! compressing, so the information is transmitted eventually. (Note this is
//! the classical compressed-SGD "error feedback" — distinct from FedCA's
//! eager-transmission *retransmission* mechanism, which re-sends a diverged
//! layer within the same round.)

/// Residual accumulator for one client.
#[derive(Clone, Debug, Default)]
pub struct ErrorFeedback {
    residual: Vec<f32>,
}

impl ErrorFeedback {
    /// Creates an empty accumulator (sized lazily on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the stored residual into `update`, in place: `update` becomes
    /// the compensated update the caller compresses and later hands back to
    /// [`ErrorFeedback::absorb`] (or, layer by layer, to
    /// [`ErrorFeedback::absorb_layer`]) together with what was actually
    /// transmitted. Sizes the residual on first use.
    pub fn apply(&mut self, update: &mut [f32]) {
        if self.residual.is_empty() {
            self.residual = vec![0.0; update.len()];
        }
        assert_eq!(self.residual.len(), update.len(), "update length changed");
        for (u, r) in update.iter_mut().zip(&self.residual) {
            *u += r;
        }
    }

    /// Stores the new residual: `compensated_update − transmitted`.
    pub fn absorb(&mut self, compensated: &[f32], transmitted: &[f32]) {
        assert_eq!(compensated.len(), transmitted.len(), "length mismatch");
        assert_eq!(self.residual.len(), compensated.len(), "apply() not called");
        self.absorb_layer(0, compensated, |t| t.copy_from_slice(transmitted));
    }

    /// [`ErrorFeedback::absorb`] for the elements starting at `offset`,
    /// without a buffer for the transmitted values: `write_transmitted`
    /// writes them straight into the residual's own slice, which then
    /// becomes `compensated − transmitted`.
    pub fn absorb_layer(
        &mut self,
        offset: usize,
        compensated: &[f32],
        write_transmitted: impl FnOnce(&mut [f32]),
    ) {
        assert!(
            offset + compensated.len() <= self.residual.len(),
            "apply() not called"
        );
        let r = &mut self.residual[offset..offset + compensated.len()];
        write_transmitted(r);
        for (r, c) in r.iter_mut().zip(compensated) {
            *r = c - *r;
        }
    }

    /// The raw residual vector, for eviction and shard hand-off (empty until
    /// first use).
    pub fn snapshot(&self) -> Vec<f32> {
        self.residual.clone()
    }

    /// Restores a residual captured by [`ErrorFeedback::snapshot`].
    pub fn restore(&mut self, residual: Vec<f32>) {
        self.residual = residual;
    }

    /// Current residual energy (for tests/telemetry).
    pub fn residual_norm(&self) -> f32 {
        self.residual.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparsify::{densify, top_k};

    #[test]
    fn residual_carries_dropped_mass_forward() {
        let mut ef = ErrorFeedback::new();
        // Round 1: update [1, 10]; top-1 keeps the 10, drops the 1.
        let mut u = vec![1.0f32, 10.0];
        ef.apply(&mut u);
        let sent = densify(&top_k(&u, 0.5));
        ef.absorb(&u, &sent);
        assert_eq!(sent, vec![0.0, 10.0]);
        assert!((ef.residual_norm() - 1.0).abs() < 1e-6);
        // Round 2: update [1, 0.1]; compensated = [2, 0.1] -> the previously
        // dropped coordinate now wins.
        let mut u2 = vec![1.0f32, 0.1];
        ef.apply(&mut u2);
        assert_eq!(u2, vec![2.0, 0.1]);
        let sent2 = densify(&top_k(&u2, 0.5));
        assert_eq!(sent2, vec![2.0, 0.0]);
        ef.absorb(&u2, &sent2);
        assert!((ef.residual_norm() - 0.1).abs() < 1e-6);
    }

    #[test]
    fn layerwise_absorb_matches_whole_vector_absorb() {
        let compensated = [1.5f32, -2.0, 0.25, 4.0, -0.5];
        let sent = [1.0f32, -2.0, 0.0, 3.5, 0.0];
        let mut whole = ErrorFeedback::new();
        whole.apply(&mut compensated.to_vec());
        whole.absorb(&compensated, &sent);
        let mut layered = ErrorFeedback::new();
        layered.apply(&mut compensated.to_vec());
        for range in [0..2, 2..5] {
            layered.absorb_layer(range.start, &compensated[range.clone()], |t| {
                t.copy_from_slice(&sent[range.clone()])
            });
        }
        assert_eq!(layered.snapshot(), whole.snapshot());
    }

    #[test]
    fn lossless_transmission_clears_residual() {
        let mut ef = ErrorFeedback::new();
        let mut u = vec![3.0f32, -2.0];
        ef.apply(&mut u);
        ef.absorb(&u, &u.clone());
        assert_eq!(ef.residual_norm(), 0.0);
    }

    #[test]
    fn total_transmitted_converges_to_total_update() {
        // Sum of transmissions + final residual == sum of updates, exactly.
        let mut ef = ErrorFeedback::new();
        let updates = [
            vec![1.0f32, 2.0, -3.0],
            vec![0.5, -1.0, 0.25],
            vec![2.0, 0.0, 1.0],
        ];
        let mut total_sent = vec![0.0f32; 3];
        let mut total_update = [0.0f32; 3];
        for u0 in &updates {
            for (t, v) in total_update.iter_mut().zip(u0) {
                *t += v;
            }
            let mut u = u0.clone();
            ef.apply(&mut u);
            let sent = densify(&top_k(&u, 0.34));
            for (t, v) in total_sent.iter_mut().zip(&sent) {
                *t += v;
            }
            ef.absorb(&u, &sent);
        }
        // total_update = total_sent + residual
        let res: Vec<f32> = total_update
            .iter()
            .zip(&total_sent)
            .map(|(a, b)| a - b)
            .collect();
        let res_norm = res.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((res_norm - ef.residual_norm()).abs() < 1e-5);
    }
}
