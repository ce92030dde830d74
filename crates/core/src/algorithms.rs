//! Scheme selection: FedAvg, FedProx, FedAda, and FedCA, whose paper
//! variants FedCA-v1/v2/v3 are threshold settings of one mechanism.

use crate::config::{FedCaConfig, FEDADA_THETA, FEDPROX_MU};
use serde::{Deserialize, Serialize};

/// FedCA's mechanisms. The paper's ablation variants (§5.4) are threshold
/// settings: v1 (early stop only) is `T_e = 2`, which no progress reaches
/// (it is at most 1); v2 (no retransmission) is `T_r = −2`, which no
/// cosine falls below (it is at least −1); v3 is everything, the standard
/// FedCA.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FedCaOptions {
    /// Utility-guided early stopping (§4.2).
    pub early_stop: bool,
    /// §6 future-work extension — autonomous intra-round *batch-size*
    /// adaptation: when the projected round finish overruns the deadline,
    /// the client halves its minibatch (never below this floor) to cut
    /// per-iteration cost instead of dropping iterations outright.
    /// `None` disables the extension (the paper's standard FedCA).
    #[serde(default)]
    pub adaptive_batch_min: Option<usize>,
    /// Hyperparameters (profiling period, β, T_e, T_r).
    pub config: FedCaConfig,
}

impl FedCaOptions {
    /// FedCA-v1: early stop only (v3 with an unreachable `T_e`).
    pub fn v1() -> Self {
        let mut o = Self::v3();
        o.config.eager_threshold = 2.0;
        o
    }

    /// Enables the autonomous batch-size extension with the given floor.
    pub fn with_adaptive_batch(mut self, min_batch: usize) -> Self {
        assert!(min_batch >= 1, "batch floor must be at least 1");
        self.adaptive_batch_min = Some(min_batch);
        self
    }

    /// FedCA-v2: early stop + eager transmission without retransmission
    /// (v3 with a `T_r` below every cosine).
    pub fn v2() -> Self {
        let mut o = Self::v3();
        o.config.retransmit_threshold = -2.0;
        o
    }

    /// FedCA-v3: the full mechanism (paper's standard FedCA).
    pub fn v3() -> Self {
        Self::full_with(FedCaConfig::default())
    }

    /// Full mechanism with custom hyperparameters.
    pub fn full_with(config: FedCaConfig) -> Self {
        FedCaOptions {
            early_stop: true,
            adaptive_batch_min: None,
            config,
        }
    }
}

/// The training scheme under evaluation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Scheme {
    /// Vanilla FedAvg with partial aggregation (McMahan et al.).
    FedAvg,
    /// FedAvg + proximal term μ/2‖w − w_g‖² (Li et al., MLSys '20).
    FedProx {
        /// Proximal coefficient.
        mu: f32,
    },
    /// Server-side adaptive workload tuning assuming uniform per-iteration
    /// contribution (Zhang et al., WWW '22 — reimplemented from its
    /// description, see DESIGN.md substitution 7).
    FedAda {
        /// Cost/benefit trade-off factor θ.
        theta: f64,
    },
    /// Client-autonomous intra-round optimization (this paper).
    FedCa(FedCaOptions),
}

impl Scheme {
    /// FedProx with the paper's recommended μ = 0.01.
    pub fn fedprox_default() -> Self {
        Scheme::FedProx { mu: FEDPROX_MU }
    }

    /// FedAda with the paper's recommended θ = 0.5.
    pub fn fedada_default() -> Self {
        Scheme::FedAda {
            theta: FEDADA_THETA,
        }
    }

    /// Standard FedCA (v3 with default hyperparameters).
    pub fn fedca_default() -> Self {
        Scheme::FedCa(FedCaOptions::v3())
    }

    /// Client-side training options this scheme implies. Shared by the
    /// in-process trainer and shard children, so both sides derive
    /// identical client behaviour from the serialized scheme alone.
    pub fn client_options(&self) -> crate::client::ClientOptions {
        match self {
            Scheme::FedAvg | Scheme::FedAda { .. } => crate::client::ClientOptions::default(),
            Scheme::FedProx { mu } => crate::client::ClientOptions {
                prox_mu: *mu,
                fedca: None,
            },
            Scheme::FedCa(o) => crate::client::ClientOptions {
                prox_mu: 0.0,
                fedca: Some(o.clone()),
            },
        }
    }

    /// Anchor-round cadence in participations (0 = never profiles).
    pub fn profile_period(&self) -> usize {
        match self {
            Scheme::FedCa(o) => o.config.profile_period,
            _ => 0,
        }
    }

    /// Display name used in experiment output.
    pub fn name(&self) -> String {
        match self {
            Scheme::FedAvg => "FedAvg".into(),
            Scheme::FedProx { .. } => "FedProx".into(),
            Scheme::FedAda { .. } => "FedAda".into(),
            // Progress never exceeds 1, and a layer is retransmitted only
            // when its cosine, never below −1, falls below `T_r`.
            Scheme::FedCa(o) if !o.early_stop => "FedCA-custom".into(),
            Scheme::FedCa(o) if o.config.eager_threshold > 1.0 => "FedCA-v1".into(),
            Scheme::FedCa(o) if o.config.retransmit_threshold <= -1.0 => "FedCA-v2".into(),
            Scheme::FedCa(_) => "FedCA".into(),
        }
    }
}

/// FedAda's server-side iteration assignment for one client.
///
/// FedAda assumes every iteration contributes `1/K` of the statistical value
/// and trades that against system cost with factor θ: for a client whose
/// predicted full-round duration `d` exceeds the target pace `t_target`
/// (the median across selected clients), the feasible count is
/// `K · t_target/d`, and the assignment blends it with the full count:
/// `K_i = ⌈θ·K + (1−θ)·K_feasible⌉`, clamped to `[1, K]`.
pub fn fedada_iterations(k: usize, predicted: f64, target: f64, theta: f64) -> usize {
    assert!(k >= 1, "need at least one iteration");
    assert!(
        predicted > 0.0 && target > 0.0,
        "durations must be positive"
    );
    if predicted <= target {
        return k;
    }
    let feasible = k as f64 * target / predicted;
    let blended = theta * k as f64 + (1.0 - theta) * feasible;
    (blended.ceil() as usize).clamp(1, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_toggles_match_paper_versions() {
        let (v1, v2, v3) = (FedCaOptions::v1(), FedCaOptions::v2(), FedCaOptions::v3());
        let t = |o: &FedCaOptions| (o.config.eager_threshold, o.config.retransmit_threshold);
        assert_eq!(t(&v3), (0.95, 0.6));
        assert_eq!(t(&v1), (2.0, 0.6));
        assert_eq!(t(&v2), (0.95, -2.0));
        assert!(v1.early_stop && v2.early_stop && v3.early_stop);
    }

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::FedAvg.name(), "FedAvg");
        assert_eq!(Scheme::fedprox_default().name(), "FedProx");
        assert_eq!(Scheme::fedada_default().name(), "FedAda");
        assert_eq!(Scheme::fedca_default().name(), "FedCA");
        assert_eq!(Scheme::FedCa(FedCaOptions::v1()).name(), "FedCA-v1");
        assert_eq!(Scheme::FedCa(FedCaOptions::v2()).name(), "FedCA-v2");
        // The name reads the thresholds, whoever set them.
        let named = |t_e, t_r| {
            let mut o = FedCaOptions::v3();
            (o.config.eager_threshold, o.config.retransmit_threshold) = (t_e, t_r);
            Scheme::FedCa(o).name()
        };
        assert_eq!(named(1.0, -0.99), "FedCA");
        assert_eq!(named(2.0, -2.0), "FedCA-v1");
        assert_eq!(named(1.0, -1.0), "FedCA-v2");
        let mut off = FedCaOptions::v3();
        off.early_stop = false;
        assert_eq!(Scheme::FedCa(off).name(), "FedCA-custom");
    }

    #[test]
    fn fedada_keeps_fast_clients_at_full_k() {
        assert_eq!(fedada_iterations(125, 10.0, 20.0, 0.5), 125);
        assert_eq!(fedada_iterations(125, 20.0, 20.0, 0.5), 125);
    }

    #[test]
    fn fedada_cuts_stragglers_proportionally() {
        // 2× slower than target, θ=0.5: feasible 62.5, blended 93.75 -> 94.
        assert_eq!(fedada_iterations(125, 40.0, 20.0, 0.5), 94);
        // θ=0 is purely system-driven.
        assert_eq!(fedada_iterations(125, 40.0, 20.0, 0.0), 63);
        // θ=1 never cuts.
        assert_eq!(fedada_iterations(125, 40.0, 20.0, 1.0), 125);
    }

    #[test]
    fn fedada_never_below_one() {
        assert_eq!(fedada_iterations(10, 1e9, 1.0, 0.0), 1);
    }
}
