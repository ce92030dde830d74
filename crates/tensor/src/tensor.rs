//! The dense `f32` tensor type.
//!
//! `Tensor` owns a contiguous row-major buffer. Views and fancy striding are
//! deliberately absent: the NN layers in `fedca-nn` operate on whole
//! contiguous buffers, and copies are explicit, which keeps the hot paths
//! easy to reason about and the borrow story trivial.

use crate::shape::Shape;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major, heap-allocated `f32` tensor.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.num_elements(),
            data.len(),
            "buffer length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.num_elements()
        );
        Tensor { shape, data }
    }

    /// Samples i.i.d. `N(0, std^2)` entries using the Box–Muller transform.
    ///
    /// Going through a caller-supplied [`Rng`] keeps every model init
    /// reproducible from the experiment seed.
    pub fn randn(shape: impl Into<Shape>, std: f32, rng: &mut impl Rng) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            // Box–Muller: two uniforms -> two independent normals.
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor { shape, data }
    }

    /// Samples i.i.d. `U(lo, hi)` entries.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimensions as a slice (shorthand for `shape().dims()`).
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying buffer (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    #[inline]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Capacity (in elements) of the underlying buffer. Used by buffer
    /// pools to pick the best-fitting recycled tensor.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Re-dimensions the tensor in place, reusing both the data and the
    /// shape allocations. Unlike [`Tensor::reshape`] the element count may
    /// change: grown regions are zero-filled, the surviving prefix keeps
    /// its old contents. No heap traffic occurs once capacity suffices.
    pub fn resize(&mut self, dims: &[usize]) {
        self.shape.set_dims(dims);
        let n = self.shape.num_elements();
        self.data.resize(n, 0.0);
    }

    /// Overwrites `self` with `src`'s shape and contents, reusing the
    /// existing allocations (no zero-fill, no reallocation once capacity
    /// suffices).
    pub fn copy_from(&mut self, src: &Tensor) {
        self.shape.set_dims(src.dims());
        self.data.clear();
        self.data.extend_from_slice(src.as_slice());
    }

    /// Element at a multi-dimensional index.
    #[inline]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element at a multi-dimensional index.
    #[inline]
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// Returns a tensor with the same buffer and a new shape.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert!(
            self.shape.same_volume(&shape),
            "cannot reshape {} ({} elements) to {} ({} elements)",
            self.shape,
            self.shape.num_elements(),
            shape,
            shape.num_elements()
        );
        self.shape = shape;
        self
    }

    /// In-place elementwise addition. `self += other`.
    ///
    /// # Panics
    /// Panics if shapes differ in element count.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.len(), other.len(), "add_assign length mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place elementwise subtraction. `self -= other`.
    pub fn sub_assign(&mut self, other: &Tensor) {
        assert_eq!(self.len(), other.len(), "sub_assign length mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a -= b;
        }
    }

    /// In-place scaling. `self *= s`.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// In-place `self += s * other` (AXPY).
    pub fn axpy(&mut self, s: f32, other: &Tensor) {
        assert_eq!(self.len(), other.len(), "axpy length mismatch");
        crate::linalg::axpy(s, other.as_slice(), self.as_mut_slice());
    }

    /// Out-of-place elementwise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Out-of-place elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.sub_assign(other);
        out
    }

    /// Out-of-place elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// Fills the tensor with zeros without reallocating.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// L2 norm of the flattened tensor.
    pub fn l2_norm(&self) -> f32 {
        crate::linalg::l2_norm(&self.data)
    }

    /// Maximum element; `f32::NEG_INFINITY` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element in each row of a 2-D tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not 2-D or a row is empty.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.rank(), 2, "argmax_rows requires a 2-D tensor");
        let (n, c) = (self.shape.dim(0), self.shape.dim(1));
        assert!(c > 0, "argmax_rows on empty rows");
        (0..n)
            .map(|i| {
                let row = &self.data[i * c..(i + 1) * c];
                let mut best = 0usize;
                for (j, &x) in row.iter().enumerate().skip(1) {
                    if x > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Whether every element is finite (no NaN/inf). Useful for failure
    /// injection tests and debug assertions in the training loop.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={}, ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "data={:?})", self.data)
        } else {
            write!(
                f,
                "data=[{:.4}, {:.4}, …, {:.4}] ({} elems))",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1],
                self.data.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let f = Tensor::full([4], 2.5);
        assert!(f.as_slice().iter().all(|&x| x == 2.5));
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec([2, 2], vec![1.0; 3]);
    }

    #[test]
    fn randn_is_seeded_and_roughly_normal() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn([10_000], 1.0, &mut rng);
        let mean = t.mean();
        let var = t.as_slice().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");

        let mut rng2 = StdRng::seed_from_u64(7);
        let t2 = Tensor::randn([10_000], 1.0, &mut rng2);
        assert_eq!(t, t2, "same seed must give the same tensor");
    }

    #[test]
    fn randn_odd_length() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::randn([7], 0.5, &mut rng);
        assert_eq!(t.len(), 7);
        assert!(t.all_finite());
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec([3], vec![10.0, 20.0, 30.0]);
        assert_eq!(a.add(&b).as_slice(), &[11.0, 22.0, 33.0]);
        assert_eq!(b.sub(&a).as_slice(), &[9.0, 18.0, 27.0]);
        let mut c = a.clone();
        c.scale(2.0);
        assert_eq!(c.as_slice(), &[2.0, 4.0, 6.0]);
        c.axpy(-1.0, &a);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = t.clone().reshape([3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.dims(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_rejects_volume_change() {
        let _ = Tensor::zeros([2, 3]).reshape([4]);
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros([2, 3]);
        *t.at_mut(&[1, 2]) = 42.0;
        assert_eq!(t.at(&[1, 2]), 42.0);
        assert_eq!(t.as_slice()[5], 42.0);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([4], vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.mean(), -0.5);
        assert_eq!(t.max(), 3.0);
        assert!((t.l2_norm() - (30.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn argmax_rows_picks_first_max_per_row() {
        let t = Tensor::from_vec([2, 3], vec![0.1, 0.9, 0.3, 5.0, 5.0, 1.0]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        let mut t = Tensor::zeros([3]);
        assert!(t.all_finite());
        t.as_mut_slice()[1] = f32::NAN;
        assert!(!t.all_finite());
        t.as_mut_slice()[1] = f32::INFINITY;
        assert!(!t.all_finite());
    }

    #[test]
    fn map_and_fill() {
        let mut t = Tensor::from_vec([3], vec![1.0, -1.0, 2.0]);
        let relu = t.map(|x| x.max(0.0));
        assert_eq!(relu.as_slice(), &[1.0, 0.0, 2.0]);
        t.fill_zero();
        assert_eq!(t.sum(), 0.0);
    }
}
