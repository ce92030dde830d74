//! Loss functions. Each returns `(mean loss, d loss / d logits)` so the
//! training loop can immediately start the backward pass.

use fedca_tensor::Tensor;

/// Numerically-stable softmax cross-entropy over logits `[N, C]` with class
/// labels. The gradient is already divided by the batch size (mean
/// reduction, PyTorch default).
///
/// # Panics
/// Panics if the shapes disagree or a label is out of range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let mut grad = Tensor::zeros([0]);
    let loss = softmax_cross_entropy_into(logits, labels, &mut grad);
    (loss, grad)
}

/// Allocation-free variant of [`softmax_cross_entropy`]: writes the logits
/// gradient into `grad` (resized in place, reusing its buffer) and returns
/// the mean loss. The training hot loop keeps one persistent `grad` tensor
/// across iterations.
///
/// # Panics
/// Panics if the shapes disagree or a label is out of range.
pub fn softmax_cross_entropy_into(logits: &Tensor, labels: &[usize], grad: &mut Tensor) -> f32 {
    assert_eq!(logits.shape().rank(), 2, "logits must be [N, C]");
    let (n, c) = (logits.dims()[0], logits.dims()[1]);
    assert_eq!(n, labels.len(), "batch size mismatch");
    assert!(n > 0, "empty batch");
    grad.resize(&[n, c]);
    let ld = logits.as_slice();
    let gd = grad.as_mut_slice();
    let mut total = 0.0f64;
    let inv_n = 1.0 / n as f32;
    for i in 0..n {
        let row = &ld[i * c..(i + 1) * c];
        let label = labels[i];
        assert!(label < c, "label {label} out of range for {c} classes");
        let maxv = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for &v in row {
            denom += (v - maxv).exp();
        }
        let log_denom = denom.ln();
        total += (log_denom - (row[label] - maxv)) as f64;
        let grow = &mut gd[i * c..(i + 1) * c];
        for (j, cell) in grow.iter_mut().enumerate() {
            let p = (row[j] - maxv).exp() / denom;
            *cell = (p - if j == label { 1.0 } else { 0.0 }) * inv_n;
        }
    }
    (total / n as f64) as f32
}

/// Fraction of rows whose argmax equals the label.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    let preds = logits.argmax_rows();
    assert_eq!(preds.len(), labels.len(), "batch size mismatch");
    if preds.is_empty() {
        return 0.0;
    }
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f32 / labels.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let logits = Tensor::zeros([2, 4]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 3]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
        // Gradient: (1/C - onehot)/N
        assert!((grad.at(&[0, 0]) - (0.25 - 1.0) / 2.0).abs() < 1e-6);
        assert!((grad.at(&[0, 1]) - 0.25 / 2.0).abs() < 1e-6);
    }

    #[test]
    fn confident_correct_prediction_has_small_loss() {
        let logits = Tensor::from_vec([1, 3], vec![10.0, -10.0, -10.0]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss < 1e-6);
        let (wrong_loss, _) = softmax_cross_entropy(&logits, &[1]);
        assert!(wrong_loss > 10.0);
    }

    #[test]
    fn cross_entropy_grad_rows_sum_to_zero() {
        let logits = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let (_, grad) = softmax_cross_entropy(&logits, &[2, 0]);
        for i in 0..2 {
            let s: f32 = grad.as_slice()[i * 3..(i + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6, "row {i} grad sums to {s}");
        }
    }

    #[test]
    fn stable_for_large_logits() {
        let logits = Tensor::from_vec([1, 2], vec![1000.0, -1000.0]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss.is_finite() && loss < 1e-6);
        assert!(grad.all_finite());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_label() {
        let _ = softmax_cross_entropy(&Tensor::zeros([1, 3]), &[3]);
    }

    #[test]
    fn into_variant_matches_and_reuses_buffer() {
        let logits = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[2, 0]);
        let mut buf = Tensor::zeros([2, 3]); // warm buffer of the right size
        let cap = buf.capacity();
        let loss2 = softmax_cross_entropy_into(&logits, &[2, 0], &mut buf);
        assert_eq!(loss, loss2);
        assert_eq!(buf, grad);
        assert_eq!(buf.capacity(), cap, "refill must not reallocate");
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec([3, 2], vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0]);
        assert!((accuracy(&logits, &[0, 1, 0]) - 1.0).abs() < 1e-6);
        assert!((accuracy(&logits, &[1, 1, 0]) - 2.0 / 3.0).abs() < 1e-6);
    }
}
