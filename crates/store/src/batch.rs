//! Write batching: group point writes and apply them with one lock
//! acquisition per shard.
//!
//! Under contention the lock acquisition dominates a small `HashMap`
//! update, so amortizing it across a batch of writes is the §6 recipe for
//! write-heavy services (RocksDB's group commit). A [`WriteBatch`] is a
//! plain buffer; [`crate::PolyStore::apply`] sorts it by shard and takes
//! each shard lock exactly once.

/// One buffered write: `Some(bytes)` is a put, `None` a remove.
pub type BatchOp = (u64, Option<Vec<u8>>);

/// A buffer of point writes applied atomically per shard.
///
/// Batches are *not* atomic across shards: a concurrent reader can observe
/// shard A's writes before shard B's. Within one shard, all writes land
/// under a single critical section.
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    ops: Vec<BatchOp>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        Self { ops: Vec::with_capacity(n) }
    }

    /// Buffers a put of a byte value.
    pub fn put(&mut self, key: u64, value: impl Into<Vec<u8>>) {
        self.ops.push((key, Some(value.into())));
    }

    /// Buffers a put of a `u64` value in its 8-byte little-endian form,
    /// the encoding [`crate::PolyStore::put_u64`] writes.
    pub fn put_u64(&mut self, key: u64, value: u64) {
        self.put(key, value.to_le_bytes().to_vec());
    }

    /// Buffers a remove.
    pub fn remove(&mut self, key: u64) {
        self.ops.push((key, None));
    }

    /// Number of buffered writes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Drops all buffered writes, keeping the allocation.
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// The buffered writes, in insertion order (last write to a key wins
    /// when applied).
    pub fn ops(&self) -> &[BatchOp] {
        &self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_buffers_in_order() {
        let mut b = WriteBatch::new();
        assert!(b.is_empty());
        b.put(1, vec![10u8]);
        b.remove(1);
        b.put_u64(2, 20);
        assert_eq!(b.len(), 3);
        assert_eq!(
            b.ops(),
            &[(1, Some(vec![10u8])), (1, None), (2, Some(20u64.to_le_bytes().to_vec()))]
        );
        b.clear();
        assert!(b.is_empty());
    }
}
