//! Parameter-sharding arithmetic shared across the workspace.

/// Describes how a flat buffer of `numel` elements is partitioned across `p`
/// shards (one per partition-group member), ZeRO/MiCS style: equal shards
/// with zero-padding at the tail so every shard has the same length.
///
/// ```
/// use mics_tensor::ShardSpec;
/// let spec = ShardSpec::new(10, 4);
/// assert_eq!(spec.shard_len(), 3);           // ceil(10 / 4)
/// assert_eq!(spec.range(3), 9..10);          // ragged tail
/// let data: Vec<f32> = (0..10).map(|i| i as f32).collect();
/// assert_eq!(spec.extract_padded(&data, 3), vec![9.0, 0.0, 0.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    numel: usize,
    shards: usize,
}

impl ShardSpec {
    /// Partition `numel` elements into `shards` equal pieces.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(numel: usize, shards: usize) -> Self {
        assert!(shards > 0, "must have at least one shard");
        ShardSpec { numel, shards }
    }

    /// Unpadded total element count.
    pub fn numel(&self) -> usize {
        self.numel
    }

    /// Number of shards (`p`).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Elements per shard, including padding (`ceil(numel / shards)`).
    pub fn shard_len(&self) -> usize {
        self.numel.div_ceil(self.shards)
    }

    /// Padded total length (`shard_len × shards`).
    pub fn padded_len(&self) -> usize {
        self.shard_len() * self.shards
    }

    /// The half-open element range `[start, end)` of shard `i`, clamped to
    /// the unpadded length (the final shard may be short or empty).
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        assert!(shard < self.shards, "shard {shard} out of range");
        let len = self.shard_len();
        let start = (shard * len).min(self.numel);
        let end = ((shard + 1) * len).min(self.numel);
        start..end
    }

    /// Extract shard `i` of `data`, padded with zeros to `shard_len`.
    pub fn extract_padded(&self, data: &[f32], shard: usize) -> Vec<f32> {
        assert_eq!(data.len(), self.numel, "data length mismatch");
        let mut out = vec![0.0; self.shard_len()];
        let r = self.range(shard);
        out[..r.len()].copy_from_slice(&data[r]);
        out
    }

    /// Reassemble the full unpadded buffer from per-shard padded pieces.
    pub fn assemble(&self, shards: &[Vec<f32>]) -> Vec<f32> {
        assert_eq!(shards.len(), self.shards, "wrong number of shards");
        let mut out = Vec::with_capacity(self.numel);
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.len(), self.shard_len(), "shard {i} has wrong length");
            let r = self.range(i);
            out.extend_from_slice(&s[..r.len()]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn even_split() {
        let s = ShardSpec::new(16, 4);
        assert_eq!(s.shard_len(), 4);
        assert_eq!(s.padded_len(), 16);
        assert_eq!(s.range(0), 0..4);
        assert_eq!(s.range(3), 12..16);
    }

    #[test]
    fn ragged_split_pads_tail() {
        let s = ShardSpec::new(10, 4);
        assert_eq!(s.shard_len(), 3);
        assert_eq!(s.padded_len(), 12);
        assert_eq!(s.range(3), 9..10);
        let data: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let last = s.extract_padded(&data, 3);
        assert_eq!(last, vec![9.0, 0.0, 0.0]);
    }

    #[test]
    fn empty_final_shard() {
        // 4 elements over 8 shards: shard_len 1, shards 4..8 are empty.
        let s = ShardSpec::new(4, 8);
        assert_eq!(s.range(5), 4..4);
        let data = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(s.extract_padded(&data, 5), vec![0.0]);
    }

    proptest! {
        #[test]
        fn extract_then_assemble_roundtrips(numel in 1usize..500, shards in 1usize..17) {
            let spec = ShardSpec::new(numel, shards);
            let data: Vec<f32> = (0..numel).map(|i| i as f32 * 0.5 - 3.0).collect();
            let pieces: Vec<Vec<f32>> =
                (0..shards).map(|i| spec.extract_padded(&data, i)).collect();
            prop_assert_eq!(spec.assemble(&pieces), data);
        }

        #[test]
        fn ranges_tile_without_overlap(numel in 0usize..500, shards in 1usize..17) {
            let spec = ShardSpec::new(numel, shards);
            let mut covered = 0usize;
            for i in 0..shards {
                let r = spec.range(i);
                prop_assert_eq!(r.start, covered.min(numel));
                covered = r.end;
            }
            prop_assert_eq!(covered, numel);
        }
    }
}
