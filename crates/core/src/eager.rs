//! Eager transmission with error feedback (§4.3, Eqs. 5–6).
//!
//! Per layer `l`, the client eagerly uploads the accumulated update as soon
//! as the *profiled* progress crosses `T_e` (Eq. 5) — the transmission then
//! overlaps with the remaining iterations' compute. Because the profiled
//! curve is an approximation from an earlier anchor round, the client
//! verifies at round end: if the cosine similarity between the final update
//! and what was sent falls below `T_r` (Eq. 6), the layer is retransmitted
//! with the regular end-of-round payload.

use fedca_tensor::cosine_similarity;

/// What happened to one layer within a round.
///
/// Serializable so shard processes can report per-layer outcomes to the
/// coordinator verbatim.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum LayerOutcome {
    /// Never eagerly sent; included in the final upload.
    Regular,
    /// Eagerly sent at `iter` and accepted (final update close enough).
    Eager {
        /// Iteration at which the eager transmission was triggered.
        iter: usize,
    },
    /// Eagerly sent at `iter` but divergent at round end — retransmitted.
    Retransmitted {
        /// Iteration at which the (stale) eager transmission happened.
        iter: usize,
    },
}

/// Per-round eager-transmission state for one client.
#[derive(Debug)]
pub struct EagerState {
    /// `sent[l] = Some((iter, snapshot))` once layer `l` was eagerly sent.
    sent: Vec<Option<(usize, Vec<f32>)>>,
}

impl EagerState {
    /// Fresh state for a model with `num_layers` named parameter tensors.
    pub fn new(num_layers: usize) -> Self {
        EagerState {
            sent: vec![None; num_layers],
        }
    }

    /// Whether layer `l` has already been eagerly sent this round.
    pub fn is_sent(&self, l: usize) -> bool {
        self.sent[l].is_some()
    }

    /// Eq. 5 trigger: should layer `l` be eagerly sent at iteration `tau`,
    /// given its profiled curve? Fires when `P^l_{T,τ} ≥ T_e` and the layer
    /// has not been sent yet.
    pub fn should_send(&self, l: usize, layer_curve: &[f32], tau: usize, t_e: f32) -> bool {
        if self.is_sent(l) {
            return false;
        }
        assert!(tau >= 1, "iterations are 1-based");
        // Reusing a curve profiled with a possibly different K: clamp.
        let idx = tau.min(layer_curve.len());
        layer_curve[idx - 1] >= t_e
    }

    /// Records an eager transmission of layer `l` at iteration `tau`,
    /// snapshotting the accumulated update that went on the wire.
    ///
    /// # Panics
    /// Panics if the layer was already sent.
    pub fn mark_sent(&mut self, l: usize, tau: usize, update_snapshot: Vec<f32>) {
        assert!(self.sent[l].is_none(), "layer {l} already eagerly sent");
        self.sent[l] = Some((tau, update_snapshot));
    }

    /// Eq. 6 end-of-round check for layer `l` against its final update.
    /// An accepted layer's update is the snapshot the server already holds:
    /// the frame its eager send put on the wire decodes to it.
    pub fn resolve(&self, l: usize, final_update: &[f32], t_r: f32) -> LayerOutcome {
        match &self.sent[l] {
            None => LayerOutcome::Regular,
            Some((iter, snapshot)) => {
                if cosine_similarity(final_update, snapshot) < t_r {
                    LayerOutcome::Retransmitted { iter: *iter }
                } else {
                    LayerOutcome::Eager { iter: *iter }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_fires_at_threshold_once() {
        let mut st = EagerState::new(2);
        let curve = vec![0.3, 0.8, 0.96, 0.99];
        assert!(!st.should_send(0, &curve, 2, 0.95));
        assert!(st.should_send(0, &curve, 3, 0.95));
        st.mark_sent(0, 3, vec![1.0]);
        assert!(!st.should_send(0, &curve, 4, 0.95), "must not re-send");
        assert!(!st.should_send(1, &curve, 1, 0.95));
    }

    #[test]
    fn trigger_clamps_beyond_profiled_k() {
        let st = EagerState::new(1);
        let curve = vec![0.5, 0.96];
        // Current round runs longer than the anchor round's K=2.
        assert!(st.should_send(0, &curve, 5, 0.95));
    }

    #[test]
    fn resolve_accepts_similar_final_update() {
        let mut st = EagerState::new(1);
        st.mark_sent(0, 7, vec![1.0, 1.0, 0.0]);
        // Final update nearly collinear with the snapshot: accepted.
        let out = st.resolve(0, &[1.1, 0.9, 0.05], 0.6);
        assert_eq!(out, LayerOutcome::Eager { iter: 7 });
    }

    #[test]
    fn resolve_retransmits_divergent_layer() {
        let mut st = EagerState::new(1);
        st.mark_sent(0, 7, vec![1.0, 0.0]);
        // Final update orthogonal to what was sent: cosine 0 < 0.6.
        let out = st.resolve(0, &[0.0, 1.0], 0.6);
        assert_eq!(out, LayerOutcome::Retransmitted { iter: 7 });
    }

    #[test]
    fn unsent_layer_is_regular() {
        let st = EagerState::new(1);
        assert_eq!(st.resolve(0, &[1.0], 0.6), LayerOutcome::Regular);
        assert!(!st.is_sent(0));
    }

    #[test]
    fn stricter_retransmit_threshold_retransmits_more() {
        let mut st = EagerState::new(1);
        st.mark_sent(0, 1, vec![1.0, 0.4]);
        let final_update = [1.0, -0.4];
        // cos ≈ 0.72: accepted at T_r = 0.6, retransmitted at T_r = 0.8.
        assert_eq!(
            st.resolve(0, &final_update, 0.6),
            LayerOutcome::Eager { iter: 1 }
        );
        assert_eq!(
            st.resolve(0, &final_update, 0.8),
            LayerOutcome::Retransmitted { iter: 1 }
        );
    }
}
