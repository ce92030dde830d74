//! Non-IID federated partitioning.
//!
//! The paper (§3.2.2, §5.1) gives every client a label distribution drawn
//! from a Dirichlet prior with concentration α = 0.1 — heavily skewed, each
//! client dominated by a few classes. [`PartitionSpec`] is the derive-at-id
//! scheme for virtual populations: each client's shard is a pure function
//! of `(seed, id)` on a counter-based RNG stream, so any client's data
//! assignment is rederivable on demand without materializing the other
//! `n - 1` shards. The client draws its own label distribution from the
//! Dirichlet prior and then samples a fixed-size shard from per-class index
//! pools (with replacement *across* clients — unavoidable once `n_clients`
//! exceeds the dataset, and statistically equivalent for the federation
//! sizes the paper studies). See DESIGN.md §9.

use fedca_sim::stream::{client_rng, DOMAIN_SHARD};
use rand::Rng;
use rand_distr::{Distribution, Gamma};

/// Draws one sample from `Dirichlet(alpha · 1_n)` via normalized Gamma
/// variates (the standard construction).
///
/// # Panics
/// Panics if `n == 0` or `alpha <= 0`.
pub fn sample_dirichlet(n: usize, alpha: f64, rng: &mut impl Rng) -> Vec<f64> {
    assert!(n > 0, "need at least one component");
    assert!(alpha > 0.0, "alpha must be positive");
    let gamma = Gamma::new(alpha, 1.0).expect("valid gamma parameters");
    loop {
        let mut draws: Vec<f64> = (0..n).map(|_| gamma.sample(rng)).collect();
        let total: f64 = draws.iter().sum();
        // With tiny alpha all draws can underflow to 0; retry in that case.
        if total > 0.0 && total.is_finite() {
            for d in &mut draws {
                *d /= total;
            }
            return draws;
        }
    }
}

/// Smallest shard the derive-at-id scheme hands a client: enough samples
/// for meaningful local epochs even when `n_clients` dwarfs the dataset.
pub const MIN_SHARD_SAMPLES: usize = 16;

/// Derive-at-id non-IID partition for virtual populations.
///
/// Construction is O(dataset): labels are bucketed into per-class index
/// pools once. After that, [`shard_for`](Self::shard_for) derives any
/// client's shard in O(shard size × classes) from the
/// `(seed, DOMAIN_SHARD, id)` counter stream — no shared RNG, no
/// order-dependence, no per-client precomputation. Two calls with the same
/// id return identical shards; calls for different ids are independent.
#[derive(Clone, Debug)]
pub struct PartitionSpec {
    /// Sample indices bucketed by class, in dataset order.
    class_pools: Vec<Vec<usize>>,
    n_clients: usize,
    alpha: f64,
    seed: u64,
    shard_size: usize,
}

impl PartitionSpec {
    /// Builds the spec over a labelled dataset.
    ///
    /// # Panics
    /// Panics if `n_clients == 0`, `alpha <= 0`, or `labels` is empty.
    pub fn new(labels: &[usize], n_clients: usize, alpha: f64, seed: u64) -> Self {
        assert!(n_clients > 0, "need at least one client");
        assert!(alpha > 0.0, "alpha must be positive");
        assert!(!labels.is_empty(), "cannot partition an empty dataset");
        let classes = labels.iter().copied().max().map_or(0, |m| m + 1);
        let mut class_pools: Vec<Vec<usize>> = vec![Vec::new(); classes];
        for (i, &l) in labels.iter().enumerate() {
            class_pools[l].push(i);
        }
        // Every client gets the same shard size: the even split, floored at
        // MIN_SHARD_SAMPLES so million-client populations over a small
        // synthetic pool still train, capped at the dataset size.
        let shard_size = (labels.len() / n_clients)
            .max(MIN_SHARD_SAMPLES)
            .min(labels.len())
            .max(1);
        PartitionSpec {
            class_pools,
            n_clients,
            alpha,
            seed,
            shard_size,
        }
    }

    /// Clients in the population.
    pub fn n_clients(&self) -> usize {
        self.n_clients
    }

    /// Samples every derived shard holds.
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Derives client `id`'s shard: a Dirichlet(α) label distribution drawn
    /// on the client's own counter stream, then `shard_size` samples drawn
    /// class-first from the per-class pools.
    ///
    /// # Panics
    /// Panics if `id >= n_clients`.
    pub fn shard_for(&self, id: usize) -> Vec<usize> {
        assert!(
            id < self.n_clients,
            "client {id} out of range (population {})",
            self.n_clients
        );
        let mut rng = client_rng(self.seed, DOMAIN_SHARD, id as u64);
        let mut props = sample_dirichlet(self.class_pools.len(), self.alpha, &mut rng);
        // Zero out classes with no samples and renormalize; if the draw put
        // all its mass on empty classes, fall back to uniform-over-nonempty.
        let mut total = 0.0f64;
        for (c, p) in props.iter_mut().enumerate() {
            if self.class_pools[c].is_empty() {
                *p = 0.0;
            }
            total += *p;
        }
        if total <= 0.0 {
            for (c, p) in props.iter_mut().enumerate() {
                *p = if self.class_pools[c].is_empty() {
                    0.0
                } else {
                    1.0
                };
                total += *p;
            }
        }
        let mut shard = Vec::with_capacity(self.shard_size);
        for _ in 0..self.shard_size {
            let u = rng.gen_range(0.0..total);
            let mut acc = 0.0f64;
            let mut chosen = None;
            for (c, &p) in props.iter().enumerate() {
                if p <= 0.0 {
                    continue;
                }
                acc += p;
                chosen = Some(c);
                if u < acc {
                    break;
                }
            }
            let pool = &self.class_pools[chosen.expect("a non-empty class exists")];
            shard.push(pool[rng.gen_range(0..pool.len())]);
        }
        shard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn labels(n: usize, classes: usize) -> Vec<usize> {
        (0..n).map(|i| i % classes).collect()
    }

    /// Mean per-client label entropy in nats (low entropy ⇒ strong skew).
    fn mean_label_entropy(labels: &[usize], shards: &[Vec<usize>], classes: usize) -> f64 {
        let mut total = 0.0;
        for shard in shards {
            let mut hist = vec![0usize; classes];
            for &i in shard {
                hist[labels[i]] += 1;
            }
            let n = shard.len().max(1) as f64;
            total += hist
                .iter()
                .filter(|&&c| c > 0)
                .map(|&c| {
                    let p = c as f64 / n;
                    -p * p.ln()
                })
                .sum::<f64>();
        }
        total / shards.len() as f64
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = StdRng::seed_from_u64(1);
        for &alpha in &[0.05, 0.1, 1.0, 10.0] {
            let v = sample_dirichlet(8, alpha, &mut rng);
            let s: f64 = v.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "alpha={alpha} sum={s}");
            assert!(v.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn spec_shards_are_pure_functions_of_seed_and_id() {
        let lab = labels(600, 4);
        let spec = PartitionSpec::new(&lab, 64, 0.1, 7);
        // Query order must be irrelevant.
        let a_then_b = (spec.shard_for(3), spec.shard_for(40));
        let b_then_a = (spec.shard_for(40), spec.shard_for(3));
        assert_eq!(a_then_b.0, b_then_a.1);
        assert_eq!(a_then_b.1, b_then_a.0);
        // Different seeds derive different shards.
        let other = PartitionSpec::new(&lab, 64, 0.1, 8);
        assert_ne!(spec.shard_for(3), other.shard_for(3));
        // Every index is a valid sample.
        assert!(spec.shard_for(63).iter().all(|&i| i < 600));
    }

    #[test]
    fn spec_handles_populations_larger_than_the_dataset() {
        let lab = labels(100, 5);
        let spec = PartitionSpec::new(&lab, 1_000_000, 0.1, 3);
        assert_eq!(spec.shard_size(), MIN_SHARD_SAMPLES);
        // Arbitrary far-apart ids derive non-empty, in-range shards without
        // touching any other client.
        for id in [0usize, 17, 999_999, 500_000] {
            let shard = spec.shard_for(id);
            assert_eq!(shard.len(), MIN_SHARD_SAMPLES);
            assert!(shard.iter().all(|&i| i < 100));
        }
    }

    #[test]
    fn spec_shards_are_label_skewed_at_low_alpha() {
        let lab = labels(4000, 10);
        let skewed = PartitionSpec::new(&lab, 10, 0.1, 4);
        let uniform = PartitionSpec::new(&lab, 10, 100.0, 4);
        let shards = |s: &PartitionSpec| (0..10).map(|id| s.shard_for(id)).collect::<Vec<_>>();
        let h_skew = mean_label_entropy(&lab, &shards(&skewed), 10);
        let h_unif = mean_label_entropy(&lab, &shards(&uniform), 10);
        assert!(
            h_skew < h_unif - 0.3,
            "alpha=0.1 entropy {h_skew} not clearly below alpha=100 entropy {h_unif}"
        );
    }

    #[test]
    fn spec_skips_empty_classes() {
        // Labels 0 and 3 only: classes 1 and 2 have empty pools, yet every
        // client still derives a full shard.
        let lab: Vec<usize> = (0..80).map(|i| if i % 2 == 0 { 0 } else { 3 }).collect();
        let spec = PartitionSpec::new(&lab, 8, 0.1, 9);
        for id in 0..8 {
            let shard = spec.shard_for(id);
            assert_eq!(shard.len(), spec.shard_size());
            assert!(shard.iter().all(|&i| lab[i] == 0 || lab[i] == 3));
        }
    }
}
