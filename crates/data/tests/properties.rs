//! Property-based tests for partitioning and sampling invariants.

use fedca_data::partition::sample_dirichlet;
use fedca_data::{BatchSampler, PartitionSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn dirichlet_is_a_distribution(n in 1usize..32, alpha in 0.05f64..20.0, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let v = sample_dirichlet(n, alpha, &mut rng);
        prop_assert_eq!(v.len(), n);
        let s: f64 = v.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-9);
        prop_assert!(v.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// Random label sets (some classes below the largest label left empty)
    /// over populations of 1 to 10⁶ clients: every derived shard has
    /// `shard_size` entries, each an in-range sample of a non-empty class,
    /// and a shard depends only on `(seed, id)`, never on what was derived
    /// before it.
    #[test]
    fn spec_shards_are_full_valid_and_pure(
        classes in 1usize..12,
        used_mask in 0u16..4096,
        raw in prop::collection::vec(0usize..1024, 1..300),
        log_n in 0.0f64..6.0,
        picks in prop::collection::vec(0.0f64..1.0, 1..6),
        seed in 0u64..u64::MAX,
    ) {
        // Log-uniform over 1..=10⁶ clients.
        let n_clients = (10f64.powf(log_n).round() as usize).clamp(1, 1_000_000);
        let mut used: Vec<usize> = (0..classes).filter(|c| used_mask >> c & 1 == 1).collect();
        if used.is_empty() {
            used.push(classes - 1);
        }
        let labels: Vec<usize> = raw.iter().map(|r| used[r % used.len()]).collect();
        let spec = PartitionSpec::new(&labels, n_clients, 0.1, seed);
        let ids: Vec<usize> = picks
            .iter()
            .map(|p| ((p * n_clients as f64) as usize).min(n_clients - 1))
            .collect();
        let forward: Vec<Vec<usize>> = ids.iter().map(|&id| spec.shard_for(id)).collect();
        let mut backward: Vec<Vec<usize>> = ids.iter().rev().map(|&id| spec.shard_for(id)).collect();
        backward.reverse();
        prop_assert_eq!(&forward, &backward);
        let fresh = PartitionSpec::new(&labels, n_clients, 0.1, seed);
        for (shard, &id) in forward.iter().zip(&ids) {
            prop_assert_eq!(shard.len(), spec.shard_size());
            prop_assert!(shard.iter().all(|&i| i < labels.len()));
            prop_assert!(shard.iter().all(|&i| used.contains(&labels[i])));
            prop_assert_eq!(shard, &fresh.shard_for(id));
        }
    }

    #[test]
    fn sampler_epoch_is_a_permutation(
        shard_len in 1usize..50,
        batch in 1usize..20,
        seed in 0u64..1000,
    ) {
        let mut s = BatchSampler::new((0..shard_len).collect(), batch);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = Vec::new();
        // Pull exactly one epoch's worth of batches.
        let batches = shard_len.div_ceil(batch);
        for _ in 0..batches {
            let b = s.next_batch(&mut rng);
            prop_assert!(b.len() <= batch);
            seen.extend(b);
        }
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..shard_len).collect::<Vec<_>>());
    }
}
