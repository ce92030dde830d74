//! Local batch sampling for FL clients.
//!
//! An FL client runs `K` local iterations per round, usually more than one
//! epoch over its (small, skewed) shard. `BatchSampler` cycles through the
//! shard in shuffled epochs, reshuffling at each epoch boundary, with a
//! client-owned RNG so parallel clients never contend on shared state.

use rand::Rng;

/// Infinite shuffled-epoch batch iterator over a fixed index set.
#[derive(Clone, Debug)]
pub struct BatchSampler {
    indices: Vec<usize>,
    batch_size: usize,
    cursor: usize,
}

impl BatchSampler {
    /// Creates a sampler over `indices` with the given batch size.
    ///
    /// # Panics
    /// Panics if `indices` is empty or `batch_size == 0`.
    pub fn new(indices: Vec<usize>, batch_size: usize) -> Self {
        assert!(!indices.is_empty(), "sampler needs at least one sample");
        assert!(batch_size > 0, "batch size must be positive");
        BatchSampler {
            indices,
            batch_size,
            cursor: 0,
        }
    }

    /// Number of samples in the underlying shard.
    pub fn shard_len(&self) -> usize {
        self.indices.len()
    }

    /// Current batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Changes the batch size (takes effect from the next batch) — used by
    /// the autonomous batch-size extension.
    ///
    /// # Panics
    /// Panics if `batch_size == 0`.
    pub fn set_batch_size(&mut self, batch_size: usize) {
        assert!(batch_size > 0, "batch size must be positive");
        self.batch_size = batch_size;
    }

    /// The current index permutation and epoch cursor, for checkpointing.
    /// Batch size is excluded: callers reapply it each round.
    pub fn snapshot(&self) -> (Vec<usize>, usize) {
        (self.indices.clone(), self.cursor)
    }

    /// Restores a permutation and cursor captured by
    /// [`BatchSampler::snapshot`] onto a sampler over the same shard.
    ///
    /// # Panics
    /// Panics if the permutation length differs from this sampler's shard
    /// or the cursor is out of range.
    pub fn restore(&mut self, indices: Vec<usize>, cursor: usize) {
        assert_eq!(indices.len(), self.indices.len(), "shard size changed");
        assert!(cursor < self.indices.len(), "cursor out of range");
        self.indices = indices;
        self.cursor = cursor;
    }

    /// Returns the next batch of indices, reshuffling at epoch boundaries.
    /// Batches never span an epoch boundary; the tail batch of an epoch may
    /// be short (matching PyTorch's default `drop_last=False`).
    pub fn next_batch(&mut self, rng: &mut impl Rng) -> Vec<usize> {
        if self.cursor == 0 {
            // Fisher-Yates reshuffle at each epoch start.
            for i in (1..self.indices.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.indices.swap(i, j);
            }
        }
        let end = (self.cursor + self.batch_size).min(self.indices.len());
        let batch = self.indices[self.cursor..end].to_vec();
        self.cursor = if end == self.indices.len() { 0 } else { end };
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn epoch_covers_every_index_once() {
        let mut s = BatchSampler::new((0..10).collect(), 3);
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = Vec::new();
        // 10 samples / batch 3 -> batches of 3,3,3,1 per epoch.
        for _ in 0..4 {
            seen.extend(s.next_batch(&mut rng));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn reshuffles_between_epochs() {
        let mut s = BatchSampler::new((0..32).collect(), 32);
        let mut rng = StdRng::seed_from_u64(2);
        let e1 = s.next_batch(&mut rng);
        let e2 = s.next_batch(&mut rng);
        assert_ne!(e1, e2, "consecutive epochs should differ in order");
        let mut sorted1 = e1.clone();
        sorted1.sort_unstable();
        assert_eq!(sorted1, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn shard_smaller_than_batch_yields_whole_shard() {
        let mut s = BatchSampler::new(vec![7, 8], 50);
        let mut rng = StdRng::seed_from_u64(3);
        let b = s.next_batch(&mut rng);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = BatchSampler::new((0..20).collect(), 4);
        let mut b = BatchSampler::new((0..20).collect(), 4);
        let mut ra = StdRng::seed_from_u64(5);
        let mut rb = StdRng::seed_from_u64(5);
        for _ in 0..12 {
            assert_eq!(a.next_batch(&mut ra), b.next_batch(&mut rb));
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn rejects_empty_shard() {
        let _ = BatchSampler::new(vec![], 4);
    }
}
