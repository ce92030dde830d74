//! Flat update vectors with per-layer spans, and FedAvg aggregation.
//!
//! An [`UpdateVec`] is a flat `f32` vector whose layout (`ModelLayout`)
//! names each parameter tensor's span. The server's global model is one,
//! and [`aggregate`] — a sample-count-weighted mean of dense client updates
//! — is the reference the server's fold is held to bit for bit. Uploads
//! are not `UpdateVec`s: they travel as wire bytes
//! (`ClientRoundReport::wire_update`). FedCA's per-layer machinery
//! (progress, eager transmission) slices these spans.

use fedca_nn::model::ParamSpan;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;

/// Immutable description of a model's flat-parameter layout, shared by all
/// clients of an experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModelLayout {
    names: Vec<String>,
    ranges: Vec<Range<usize>>,
    total: usize,
}

impl ModelLayout {
    /// Builds a layout from a model's spans.
    pub fn from_spans(spans: &[ParamSpan]) -> Self {
        let names = spans.iter().map(|s| s.name.clone()).collect();
        let ranges: Vec<Range<usize>> = spans.iter().map(|s| s.range.clone()).collect();
        let total = ranges.last().map_or(0, |r| r.end);
        ModelLayout {
            names,
            ranges,
            total,
        }
    }

    /// Number of named parameter tensors ("layers" in FedCA's sense).
    pub fn num_layers(&self) -> usize {
        self.names.len()
    }

    /// Total scalar count.
    pub fn total_params(&self) -> usize {
        self.total
    }

    /// Name of layer `l`.
    pub fn name(&self, l: usize) -> &str {
        &self.names[l]
    }

    /// Flat range of layer `l`.
    pub fn range(&self, l: usize) -> Range<usize> {
        self.ranges[l].clone()
    }

    /// Number of scalars in layer `l`.
    pub fn layer_len(&self, l: usize) -> usize {
        self.ranges[l].len()
    }

    /// Index of the layer with the given name, if any.
    pub fn layer_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }
}

/// A flat model-update (or model-state) vector tied to a shared layout.
#[derive(Clone, Debug)]
pub struct UpdateVec {
    layout: Arc<ModelLayout>,
    data: Vec<f32>,
}

impl UpdateVec {
    /// Zero vector for a layout.
    pub fn zeros(layout: Arc<ModelLayout>) -> Self {
        let n = layout.total_params();
        UpdateVec {
            layout,
            data: vec![0.0; n],
        }
    }

    /// Wraps an existing flat vector.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn from_vec(layout: Arc<ModelLayout>, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), layout.total_params(), "update length mismatch");
        UpdateVec { layout, data }
    }

    /// The shared layout.
    pub fn layout(&self) -> &Arc<ModelLayout> {
        &self.layout
    }

    /// Flat data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes into the flat vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Slice of layer `l`.
    pub fn layer(&self, l: usize) -> &[f32] {
        &self.data[self.layout.range(l)]
    }

    /// Mutable slice of layer `l`.
    pub fn layer_mut(&mut self, l: usize) -> &mut [f32] {
        let r = self.layout.range(l);
        &mut self.data[r]
    }

    /// `self += scale · other`.
    ///
    /// # Panics
    /// Panics on layout mismatch.
    pub fn axpy(&mut self, scale: f32, other: &UpdateVec) {
        assert_eq!(self.data.len(), other.data.len(), "layout mismatch");
        fedca_tensor::axpy(scale, &other.data, &mut self.data);
    }

    /// In-place scaling.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// L2 norm.
    pub fn l2_norm(&self) -> f32 {
        fedca_tensor::l2_norm(&self.data)
    }
}

/// Sample-count-weighted FedAvg aggregation of client updates.
///
/// Returns `Σ w_i·u_i / Σ w_i`. Clients not collected by the deadline are
/// simply absent from the slice (partial aggregation).
///
/// # Panics
/// Panics if `updates` is empty, lengths differ, or all weights are zero.
pub fn aggregate(updates: &[(&UpdateVec, f64)]) -> UpdateVec {
    assert!(!updates.is_empty(), "nothing to aggregate");
    let total_w: f64 = updates.iter().map(|(_, w)| *w).sum();
    assert!(total_w > 0.0, "aggregate weights sum to zero");
    let layout = updates[0].0.layout().clone();
    let mut out = UpdateVec::zeros(layout);
    for (u, w) in updates {
        out.axpy((*w / total_w) as f32, u);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> Arc<ModelLayout> {
        Arc::new(ModelLayout::from_spans(&[
            ParamSpan {
                name: "a.weight".into(),
                range: 0..4,
            },
            ParamSpan {
                name: "a.bias".into(),
                range: 4..6,
            },
        ]))
    }

    #[test]
    fn layout_accessors() {
        let l = layout();
        assert_eq!(l.num_layers(), 2);
        assert_eq!(l.total_params(), 6);
        assert_eq!(l.name(1), "a.bias");
        assert_eq!(l.layer_len(0), 4);
        assert_eq!(l.layer_index("a.bias"), Some(1));
        assert_eq!(l.layer_index("nope"), None);
    }

    #[test]
    fn layer_slicing() {
        let mut u = UpdateVec::zeros(layout());
        u.layer_mut(1).copy_from_slice(&[7.0, 8.0]);
        assert_eq!(u.layer(0), &[0.0; 4]);
        assert_eq!(u.layer(1), &[7.0, 8.0]);
        assert_eq!(u.as_slice()[4], 7.0);
    }

    #[test]
    fn aggregate_is_weighted_mean() {
        let l = layout();
        let a = UpdateVec::from_vec(l.clone(), vec![1.0; 6]);
        let b = UpdateVec::from_vec(l.clone(), vec![4.0; 6]);
        let agg = aggregate(&[(&a, 1.0), (&b, 2.0)]);
        for &v in agg.as_slice() {
            assert!((v - 3.0).abs() < 1e-6); // (1 + 8)/3
        }
    }

    #[test]
    fn aggregate_single_client_is_identity() {
        let l = layout();
        let a = UpdateVec::from_vec(l, vec![1., 2., 3., 4., 5., 6.]);
        let agg = aggregate(&[(&a, 5.0)]);
        assert_eq!(agg.as_slice(), a.as_slice());
    }

    #[test]
    #[should_panic(expected = "nothing to aggregate")]
    fn aggregate_rejects_empty() {
        let _ = aggregate(&[]);
    }

    #[test]
    fn axpy_and_norm() {
        let l = layout();
        let mut a = UpdateVec::from_vec(l.clone(), vec![3., 0., 0., 0., 0., 4.]);
        assert!((a.l2_norm() - 5.0).abs() < 1e-6);
        let b = UpdateVec::from_vec(l, vec![1.0; 6]);
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice()[0], 5.0);
        a.scale(0.0);
        assert_eq!(a.l2_norm(), 0.0);
    }
}
