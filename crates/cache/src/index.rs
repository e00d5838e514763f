//! Lock-free DRAM-hit read index (DESIGN.md §5.1a).
//!
//! [`ReadIndex`] is a fixed-bucket hash map from [`Key`] to
//! [`IndexEntry`] that supports **wait-free-in-practice reads from any
//! thread with no lock**, and single-writer mutations. It is the
//! publication surface of the shard's [`crate::ram::RamCache`]: the LRU
//! (still mutated under the shard mutex) publishes every membership
//! change here, and [`crate::ConcurrentPool::get`] probes it *before*
//! touching the mutex — a DRAM hit never serializes behind a writer.
//!
//! Synchronization protocol:
//!
//! - Buckets are `AtomicPtr` chains. Readers pin an epoch
//!   ([`crossbeam::epoch`]), traverse with `Acquire` loads, clone the
//!   [`Value`] (an `Arc` refcount bump) and unpin. They never write
//!   anything except the entry's `accessed` flag (used by the LRU's
//!   second-chance eviction), and that only when it reads `false`: a
//!   hot entry's line stays shared-clean between evictions.
//! - The single writer (enforced by the shard mutex above; checked with
//!   a debug-only claim flag here) head-inserts with `Release` stores,
//!   unlinks replaced/removed nodes, and retires them through its epoch
//!   guard. Retired nodes are freed only after a two-epoch grace period
//!   during which no reader remains pinned — a reader that loaded the
//!   node pointer before the unlink can finish its traversal safely.
//! - Per key the chain holds at most one node: insert unlinks any older
//!   duplicate behind the fresh head, so readers take the first match.
//! - A node is replaced only when its key's value changes. A SET of the
//!   value a key already holds publishes nothing: the shard's `RamCache`
//!   keeps the entry and only clears its `accessed` flag, the same
//!   write eviction's second-chance sweep makes.
//!
//! Layout: what a lookup reads of the index itself (`buckets`, `mask`)
//! sits on a 128-byte line of its own, ahead of the collector, whose
//! retire state the writer dirties on every replace and remove. `const`
//! assertions pin that.

use std::mem::offset_of;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::Arc;

use crossbeam::epoch::Collector;

use crate::value::Value;
use crate::Key;

/// A published cache entry: the value plus the read-side access flag
/// the LRU's second-chance eviction consumes.
#[derive(Debug)]
pub struct IndexEntry {
    value: Value,
    accessed: AtomicBool,
}

impl IndexEntry {
    /// Wraps a value for publication.
    pub fn new(value: Value) -> Arc<Self> {
        Arc::new(IndexEntry { value, accessed: AtomicBool::new(false) })
    }

    /// The published value.
    pub fn value(&self) -> &Value {
        &self.value
    }

    /// Flags the entry as touched by a lock-free reader. Tests before
    /// it sets: readers of an already-flagged entry write nothing.
    fn mark_accessed(&self) {
        if !self.accessed.load(Ordering::Relaxed) {
            self.accessed.store(true, Ordering::Relaxed);
        }
    }

    /// Consumes the access flag (used by eviction: a flagged tail entry
    /// gets a second chance instead of eviction). Only the shard's
    /// writer clears the flag, so an unflagged entry costs a load and no
    /// write.
    pub fn take_accessed(&self) -> bool {
        self.accessed.load(Ordering::Relaxed) && self.accessed.swap(false, Ordering::Relaxed)
    }

    /// Whether a lock-free reader touched this entry since the flag was
    /// last consumed.
    pub fn was_accessed(&self) -> bool {
        self.accessed.load(Ordering::Relaxed)
    }
}

struct Node {
    key: Key,
    entry: Arc<IndexEntry>,
    next: AtomicPtr<Node>,
}

/// The bucket array handle: never written after construction.
#[repr(align(128))]
struct Table {
    buckets: Box<[AtomicPtr<Node>]>,
    mask: u64,
}

/// The lock-free reader-side hash index of one shard's DRAM cache.
#[repr(C)]
pub struct ReadIndex {
    table: Table,
    collector: Collector,
    /// Debug-only single-writer claim: mutations CAS this and panic on
    /// contention, catching callers that bypass the shard mutex.
    writer_claim: AtomicBool,
}

const _: () = {
    assert!(align_of::<ReadIndex>() == 128);
    assert!(offset_of!(ReadIndex, table) == 0 && size_of::<Table>() == 128);
    assert!(offset_of!(ReadIndex, collector) == 128 && align_of::<Collector>() == 128);
    assert!(offset_of!(ReadIndex, writer_claim) == 128 + size_of::<Collector>());
};

// SAFETY: the raw `Node` pointers in `table.buckets` and in each node's
// `next` are only ever dereferenced under the epoch discipline
// documented above, and a `Node` is `Send + Sync` (a key, an `Arc` of
// atomics and an `Arc`-backed value, an atomic pointer); `collector` and
// `writer_claim` are `Send + Sync` themselves.
unsafe impl Send for ReadIndex {}
unsafe impl Sync for ReadIndex {}

impl std::fmt::Debug for ReadIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadIndex")
            .field("buckets", &self.table.buckets.len())
            .field("collector", &self.collector)
            .finish()
    }
}

/// splitmix64 finalizer — same family as the shard router, different
/// constant stream position is irrelevant here (only dispersion).
fn hash(key: Key) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ReadIndex {
    /// Creates an index sized for roughly `items` resident entries
    /// (buckets = next power of two ≥ items, clamped to [64, 2^22]).
    /// The ceiling keeps chains short at figure-scale DRAM sizes (2^22
    /// buckets are 32 MiB of pointers).
    pub fn with_capacity_hint(items: usize) -> Self {
        let buckets = items.clamp(64, 1 << 22).next_power_of_two();
        ReadIndex {
            table: Table {
                buckets: (0..buckets).map(|_| AtomicPtr::new(std::ptr::null_mut())).collect(),
                mask: (buckets - 1) as u64,
            },
            collector: Collector::new(),
            writer_claim: AtomicBool::new(false),
        }
    }

    fn bucket(&self, key: Key) -> &AtomicPtr<Node> {
        &self.table.buckets[(hash(key) & self.table.mask) as usize]
    }

    /// Lock-free lookup. On a hit, marks the entry accessed (feeding
    /// the LRU's second-chance eviction) and returns a clone of the
    /// value — an `Arc` refcount bump, never a byte copy.
    pub fn get(&self, key: Key) -> Option<Value> {
        let guard = self.collector.pin();
        let mut p = self.bucket(key).load(Ordering::Acquire);
        while let Some(node) = unsafe { p.as_ref() } {
            if node.key == key {
                node.entry.mark_accessed();
                let value = node.entry.value.clone();
                drop(guard);
                return Some(value);
            }
            p = node.next.load(Ordering::Acquire);
        }
        None
    }

    /// Lock-free lookup that does **not** perturb the access flag —
    /// for invariant checks and tests that must not influence eviction.
    pub fn peek(&self, key: Key) -> Option<Value> {
        let guard = self.collector.pin();
        let mut p = self.bucket(key).load(Ordering::Acquire);
        while let Some(node) = unsafe { p.as_ref() } {
            if node.key == key {
                let value = node.entry.value.clone();
                drop(guard);
                return Some(value);
            }
            p = node.next.load(Ordering::Acquire);
        }
        None
    }

    /// Publishes `entry` under `key`, replacing any previous entry
    /// (the older node is unlinked and retired).
    ///
    /// Writer-side: the caller must hold the shard's write lock — all
    /// mutating calls must be mutually exclusive.
    pub fn insert(&self, key: Key, entry: Arc<IndexEntry>) {
        let _claim = self.claim_writer();
        let guard = self.collector.pin();
        let bucket = self.bucket(key);
        let head = bucket.load(Ordering::Acquire);
        let node = Box::into_raw(Box::new(Node { key, entry, next: AtomicPtr::new(head) }));
        // Publish first: readers arriving now find the fresh value at
        // the head and stop before any stale duplicate.
        bucket.store(node, Ordering::Release);
        // Then unlink the shadowed duplicate, if any, behind the head.
        let mut prev: &AtomicPtr<Node> = unsafe { &(*node).next };
        let mut p = prev.load(Ordering::Acquire);
        while let Some(n) = unsafe { p.as_ref() } {
            if n.key == key {
                prev.store(n.next.load(Ordering::Acquire), Ordering::Release);
                guard.defer_drop(unsafe { Box::from_raw(p) });
                break;
            }
            prev = &n.next;
            p = prev.load(Ordering::Acquire);
        }
    }

    /// Unpublishes `key`; returns whether an entry was present. Same
    /// writer-side contract as [`ReadIndex::insert`].
    pub fn remove(&self, key: Key) -> bool {
        let _claim = self.claim_writer();
        let guard = self.collector.pin();
        let mut prev: &AtomicPtr<Node> = self.bucket(key);
        let mut p = prev.load(Ordering::Acquire);
        while let Some(n) = unsafe { p.as_ref() } {
            if n.key == key {
                prev.store(n.next.load(Ordering::Acquire), Ordering::Release);
                guard.defer_drop(unsafe { Box::from_raw(p) });
                return true;
            }
            prev = &n.next;
            p = prev.load(Ordering::Acquire);
        }
        false
    }

    /// Runs an epoch-reclamation sweep (also triggered automatically
    /// every few dozen retires). Exposed so tests can assert bounded
    /// garbage.
    pub fn collect(&self) {
        self.collector.collect();
    }

    /// Retired nodes still awaiting their grace period.
    pub fn garbage_len(&self) -> usize {
        self.collector.garbage_len()
    }

    /// Total nodes ever retired (replaced or removed).
    pub fn retired_total(&self) -> u64 {
        self.collector.retired_total()
    }

    fn claim_writer(&self) -> WriterClaim<'_> {
        debug_assert!(
            !self.writer_claim.swap(true, Ordering::Acquire),
            "ReadIndex writer methods called concurrently — the shard mutex must serialize them"
        );
        WriterClaim(&self.writer_claim)
    }
}

struct WriterClaim<'a>(&'a AtomicBool);

impl Drop for WriterClaim<'_> {
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            self.0.store(false, Ordering::Release);
        }
    }
}

impl Drop for ReadIndex {
    fn drop(&mut self) {
        // Exclusive access (`&mut self`): no readers remain, so the
        // live chains can be freed directly. Retired nodes are *not* in
        // the chains anymore; the collector frees them when it drops.
        for bucket in self.table.buckets.iter() {
            let mut p = bucket.swap(std::ptr::null_mut(), Ordering::Relaxed);
            while !p.is_null() {
                let boxed = unsafe { Box::from_raw(p) };
                p = boxed.next.load(Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_replace_remove_roundtrip() {
        let idx = ReadIndex::with_capacity_hint(128);
        assert_eq!(idx.get(7), None);
        idx.insert(7, IndexEntry::new(Value::synthetic(100)));
        assert_eq!(idx.get(7), Some(Value::synthetic(100)));
        // Replace: readers see the new value; the old node is retired.
        idx.insert(7, IndexEntry::new(Value::synthetic(200)));
        assert_eq!(idx.get(7), Some(Value::synthetic(200)));
        assert_eq!(idx.retired_total(), 1);
        assert!(idx.remove(7));
        assert!(!idx.remove(7));
        assert_eq!(idx.get(7), None);
        assert_eq!(idx.retired_total(), 2);
    }

    #[test]
    fn colliding_keys_coexist_in_one_bucket() {
        let idx = ReadIndex::with_capacity_hint(1); // clamps to 64 buckets
                                                    // Insert enough keys that several share buckets.
        for k in 0..512u64 {
            idx.insert(k, IndexEntry::new(Value::synthetic(k as u32 + 1)));
        }
        for k in 0..512u64 {
            assert_eq!(idx.get(k), Some(Value::synthetic(k as u32 + 1)), "key {k}");
        }
        assert!(idx.remove(300));
        assert_eq!(idx.get(300), None);
        assert_eq!(idx.get(301), Some(Value::synthetic(302)));
    }

    #[test]
    fn get_marks_accessed_and_peek_does_not() {
        let idx = ReadIndex::with_capacity_hint(64);
        let entry = IndexEntry::new(Value::synthetic(10));
        idx.insert(1, Arc::clone(&entry));
        assert!(!entry.was_accessed());
        idx.peek(1);
        assert!(!entry.was_accessed(), "peek must not perturb the flag");
        idx.get(1);
        assert!(entry.was_accessed());
        assert!(entry.take_accessed());
        assert!(!entry.was_accessed(), "take must consume the flag");
    }

    #[test]
    fn the_access_flag_is_set_once_and_rearmed_by_take() {
        let idx = ReadIndex::with_capacity_hint(64);
        let entry = IndexEntry::new(Value::synthetic(10));
        idx.insert(1, Arc::clone(&entry));
        assert!(!entry.take_accessed(), "a never-read entry has nothing to take");
        idx.get(1);
        idx.get(1);
        assert!(entry.was_accessed(), "a get on a flagged entry must leave it flagged");
        idx.peek(1);
        assert!(entry.take_accessed(), "any number of gets is one flag");
        assert!(!entry.take_accessed(), "take must consume the flag");
        idx.peek(1);
        assert!(!entry.was_accessed(), "peek must not re-flag a consumed entry");
        idx.get(1);
        assert!(entry.was_accessed(), "a get after take must flag again");
    }

    #[test]
    fn real_payloads_share_the_arc() {
        let idx = ReadIndex::with_capacity_hint(64);
        let bytes: Arc<[u8]> = vec![7u8; 64].into();
        idx.insert(9, IndexEntry::new(Value::Real(Arc::clone(&bytes))));
        match idx.get(9) {
            Some(Value::Real(b)) => assert!(Arc::ptr_eq(&b, &bytes), "must be zero-copy"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn churn_garbage_is_bounded_and_drains() {
        let idx = ReadIndex::with_capacity_hint(64);
        for round in 0..2_000u32 {
            idx.insert(5, IndexEntry::new(Value::synthetic(round)));
        }
        // 1999 replacements retired; automatic sweeps (every 64
        // retires, with no readers pinned) keep the backlog bounded.
        assert_eq!(idx.retired_total(), 1_999);
        assert!(idx.garbage_len() < 256, "backlog {} not bounded", idx.garbage_len());
        for _ in 0..4 {
            idx.collect();
        }
        assert_eq!(idx.garbage_len(), 0, "quiescent garbage must drain");
        assert_eq!(idx.get(5), Some(Value::synthetic(1_999)));
    }
}
