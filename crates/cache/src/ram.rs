//! The DRAM cache: an LRU over a slab-allocated doubly linked list.
//!
//! This is the "RAM Cache" of Figure 1: the hottest items live here, and
//! LRU evictions flow down to the flash engines. Size accounting is
//! logical (value length + configured per-item overhead) so experiments
//! can simulate tens-of-GB DRAM caches with synthetic values.
//!
//! ## Lock-free publication
//!
//! Concurrent readers resolve DRAM hits through a [`ReadIndex`] with no
//! lock (DESIGN.md §5.1a). The cache builds that index on the first
//! [`RamCache::read_index`] call: every resident value moves into an
//! [`IndexEntry`] shared with the index, and from then on every
//! membership change is mirrored into it. A lone cache — one no pool
//! serves lock-free — never asks, so it holds its values in place and
//! pays no index upkeep, entry allocation or epoch traffic. The locked
//! [`RamCache::get`] keeps exact LRU promotion; lock-free index hits
//! instead set the entry's `accessed` flag, and eviction grants flagged
//! tail entries a second chance (one rotation) before evicting —
//! CLOCK-style approximation only where lock-free reads actually
//! happened, bit-identical to exact LRU when they didn't.
//!
//! A put publishes a fresh entry only when the key's value changes. A
//! put of the value the key already holds — a synthetic value of the
//! same length, whose bytes derive from the key and length alone, or a
//! real one sharing the same buffer — keeps the slot and its published
//! entry: the node moves to the LRU front and the entry's `accessed`
//! flag is cleared, as a fresh entry's starts clear. Readers keep
//! hitting the node they have cached, and the put allocates, publishes
//! and retires nothing; LRU order, eviction order and every count come
//! out as a replace would leave them.

use std::collections::hash_map::Entry;
use std::sync::Arc;
use std::vec::Drain;

use crate::index::{IndexEntry, ReadIndex};
use crate::keymap::KeyMap;
use crate::value::Value;
use crate::Key;

const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Node {
    key: Key,
    slot: Slot,
    charge: u64,
    prev: u32,
    next: u32,
}

/// Where a node keeps its value.
#[derive(Debug)]
enum Slot {
    /// Held in place: the cache has no read index.
    Local(Value),
    /// Shared with the read index, whose readers flag it on every hit.
    Published(Arc<IndexEntry>),
}

impl Slot {
    /// What a vacated slab slot holds, so a removed payload is released
    /// at once, not at slot reuse.
    const VACANT: Slot = Slot::Local(Value::Synthetic(0));

    fn value(&self) -> &Value {
        match self {
            Slot::Local(value) => value,
            Slot::Published(entry) => entry.value(),
        }
    }

    fn into_value(self) -> Value {
        match self {
            Slot::Local(value) => value,
            Slot::Published(entry) => entry.value().clone(),
        }
    }

    /// Consumes a lock-free reader's access flag (see
    /// [`IndexEntry::take_accessed`]); a local value has none.
    fn take_accessed(&self) -> bool {
        matches!(self, Slot::Published(entry) if entry.take_accessed())
    }
}

/// Whether `new` is the value `old` already is, by a test that never
/// compares bytes: a synthetic value of the same length (its bytes
/// derive from the key and length alone), or a real one sharing the
/// same buffer.
fn identical(old: &Value, new: &Value) -> bool {
    match (old, new) {
        (Value::Synthetic(a), Value::Synthetic(b)) => a == b,
        (Value::Real(a), Value::Real(b)) => Arc::ptr_eq(a, b),
        _ => false,
    }
}

/// An evicted item handed to the flash layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted key.
    pub key: Key,
    /// The evicted value.
    pub value: Value,
}

/// LRU DRAM cache with exact byte accounting.
#[derive(Debug)]
pub struct RamCache {
    map: KeyMap<u32>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    used_bytes: u64,
    capacity_bytes: u64,
    item_overhead: u32,
    /// Lock-free publication surface, shared with `ConcurrentPool`;
    /// built by the first [`RamCache::read_index`] call.
    index: Option<Arc<ReadIndex>>,
    /// The current `put`'s evictions, drained by its caller; reused so
    /// a put allocates nothing for them (DESIGN.md §5.3).
    evicted: Vec<Evicted>,
}

impl RamCache {
    /// Creates a cache with the given byte budget and per-item overhead.
    pub fn new(capacity_bytes: u64, item_overhead: u32) -> Self {
        RamCache {
            map: KeyMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            used_bytes: 0,
            capacity_bytes,
            item_overhead,
            index: None,
            evicted: Vec::new(),
        }
    }

    /// The lock-free read index this cache publishes into. Readers may
    /// probe it from any thread without the owning shard's lock.
    ///
    /// The first call builds the index and publishes every resident
    /// item into it; later puts and removes keep it in step.
    pub fn read_index(&mut self) -> &Arc<ReadIndex> {
        self.index.get_or_insert_with(|| {
            // Size the index for the resident item count a small-object
            // working set implies (~128 B/item is the profiles' mean).
            let index = ReadIndex::with_capacity_hint((self.capacity_bytes / 128).max(1) as usize);
            for &idx in self.map.values() {
                let node = &mut self.nodes[idx as usize];
                let entry =
                    IndexEntry::new(std::mem::replace(&mut node.slot, Slot::VACANT).into_value());
                index.insert(node.key, Arc::clone(&entry));
                node.slot = Slot::Published(entry);
            }
            Arc::new(index)
        })
    }

    /// Whether [`RamCache::read_index`] has built the index yet.
    #[cfg(test)]
    pub(crate) fn index_built(&self) -> bool {
        self.index.is_some()
    }

    /// Bytes currently accounted.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Configured byte budget.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Number of cached items.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn charge_of(&self, value: &Value) -> u64 {
        value.len() as u64 + self.item_overhead as u64
    }

    fn detach(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, promoting it to most-recently-used on hit.
    ///
    /// Zero-copy: the returned `Value` shares the stored one —
    /// `Value::Real` hits are an `Arc<[u8]>` refcount bump, never a
    /// byte copy (DESIGN.md §5.3).
    pub fn get(&mut self, key: Key) -> Option<Value> {
        let idx = *self.map.get(&key)?;
        self.detach(idx);
        self.attach_front(idx);
        Some(self.nodes[idx as usize].slot.value().clone())
    }

    /// Looks up without promoting (for stats probes).
    pub fn peek(&self, key: Key) -> Option<&Value> {
        let idx = *self.map.get(&key)?;
        Some(self.nodes[idx as usize].slot.value())
    }

    /// Inserts or replaces `key`, evicting LRU items as needed to stay
    /// within budget. The evicted items are drained oldest-first so the
    /// caller can push them to flash; dropping the iterator drops any it
    /// did not take. Its buffer is the cache's, reused by every put.
    ///
    /// An object larger than the whole budget is not cached: it is
    /// yielded as if immediately evicted (flash-direct insertion).
    ///
    /// A put of the value the key already holds keeps its published
    /// entry (see the module docs).
    pub fn put(&mut self, key: Key, value: Value) -> Drain<'_, Evicted> {
        let charge = self.charge_of(&value);
        if charge > self.capacity_bytes {
            // The object bypasses DRAM entirely — but any older copy of
            // the key cached here would now be stale and must go.
            self.remove(key);
            self.evicted.push(Evicted { key, value });
            return self.evicted.drain(..);
        }
        let published = self.index.is_some();
        let new_slot = |value| {
            if published {
                Slot::Published(IndexEntry::new(value))
            } else {
                Slot::Local(value)
            }
        };
        // One map probe decides the path.
        let idx = match self.map.entry(key) {
            Entry::Occupied(resident) => {
                let idx = *resident.get();
                let node = &mut self.nodes[idx as usize];
                if identical(node.slot.value(), &value) {
                    // Same charge, so nothing to evict either.
                    node.slot.take_accessed();
                    self.detach(idx);
                    self.attach_front(idx);
                    return self.evicted.drain(..);
                }
                self.used_bytes = self.used_bytes - node.charge + charge;
                node.charge = charge;
                node.slot = new_slot(value);
                self.detach(idx);
                self.attach_front(idx);
                idx
            }
            Entry::Vacant(vacant) => {
                let node = Node { key, slot: new_slot(value), charge, prev: NIL, next: NIL };
                let idx = match self.free.pop() {
                    Some(i) => {
                        self.nodes[i as usize] = node;
                        i
                    }
                    None => {
                        self.nodes.push(node);
                        (self.nodes.len() - 1) as u32
                    }
                };
                vacant.insert(idx);
                self.attach_front(idx);
                self.used_bytes += charge;
                idx
            }
        };
        // Publish after the local structures agree (replaces any older
        // index entry atomically for lock-free readers).
        if let (Some(index), Slot::Published(entry)) = (&self.index, &self.nodes[idx as usize].slot)
        {
            index.insert(key, Arc::clone(entry));
        }
        // Evict until within budget. A tail entry that lock-free
        // readers flagged since its last consideration gets one second
        // chance (rotate to front); the rotation budget bounds the
        // sweep so concurrent flagging can never livelock eviction.
        let mut chances = self.map.len();
        while self.used_bytes > self.capacity_bytes {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "over budget with empty list");
            let vkey = self.nodes[victim as usize].key;
            if vkey == key {
                // Never evict the item we just inserted (the budget
                // check above guarantees it fits alone). It is at the
                // tail only because every older entry was flagged and
                // rotated ahead of it: put it back in front and evict
                // from what is now behind it. Each return here costs
                // the others at least one of their `chances`.
                self.detach(victim);
                self.attach_front(victim);
                continue;
            }
            if chances > 0 && self.nodes[victim as usize].slot.take_accessed() {
                self.detach(victim);
                self.attach_front(victim);
                chances -= 1;
                continue;
            }
            let removed = self.remove(vkey).expect("tail must be present");
            self.evicted.push(removed);
        }
        self.evicted.drain(..)
    }

    /// Removes `key`, returning it if present. Unpublishes the key from
    /// the read index (if built) first, so no lock-free reader can hit a
    /// value the locked structures no longer hold.
    pub fn remove(&mut self, key: Key) -> Option<Evicted> {
        let idx = self.map.remove(&key)?;
        if let Some(index) = &self.index {
            index.remove(key);
        }
        self.detach(idx);
        let node = &mut self.nodes[idx as usize];
        self.used_bytes -= node.charge;
        let value = std::mem::replace(&mut node.slot, Slot::VACANT).into_value();
        self.free.push(idx);
        Some(Evicted { key, value })
    }

    /// Internal consistency check for tests: list ↔ map agreement,
    /// exact byte accounting, and — once built — a read index that
    /// mirrors membership.
    ///
    /// # Panics
    ///
    /// Panics on any violated invariant.
    pub fn check_invariants(&self) {
        let mut seen = 0usize;
        let mut bytes = 0u64;
        let mut idx = self.head;
        let mut prev = NIL;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            assert_eq!(n.prev, prev, "prev link broken at {}", n.key);
            assert_eq!(self.map.get(&n.key), Some(&idx), "map missing {}", n.key);
            bytes += n.charge;
            seen += 1;
            prev = idx;
            idx = n.next;
        }
        assert_eq!(prev, self.tail, "tail mismatch");
        assert_eq!(seen, self.map.len(), "list/map length mismatch");
        assert_eq!(bytes, self.used_bytes, "byte accounting mismatch");
        assert!(self.used_bytes <= self.capacity_bytes || self.map.len() <= 1);
        // Without an index every value is held in place; with one, the
        // index mirrors membership exactly (peek, not get, so the check
        // never perturbs access flags).
        for (&key, &idx) in &self.map {
            let slot = &self.nodes[idx as usize].slot;
            let Some(index) = &self.index else {
                assert!(matches!(slot, Slot::Local(_)), "key {key} published with no index");
                continue;
            };
            assert!(matches!(slot, Slot::Published(_)), "key {key} resident but not shared");
            let published = index
                .peek(key)
                .unwrap_or_else(|| panic!("key {key} resident but unpublished in the read index"));
            assert_eq!(
                &published,
                slot.value(),
                "read index publishes a different value for {key}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(n: u32) -> Value {
        Value::synthetic(n)
    }

    /// Puts a synthetic `n`-byte value and returns the evicted keys.
    fn put(c: &mut RamCache, key: Key, n: u32) -> Vec<Key> {
        c.put(key, val(n)).map(|e| e.key).collect()
    }

    #[test]
    fn get_miss_then_hit() {
        let mut c = RamCache::new(1000, 0);
        assert!(c.get(1).is_none());
        c.put(1, val(10));
        assert_eq!(c.get(1).unwrap().len(), 10);
        c.check_invariants();
    }

    #[test]
    fn eviction_is_lru_order() {
        let mut c = RamCache::new(30, 0);
        c.put(1, val(10));
        c.put(2, val(10));
        c.put(3, val(10));
        // Touch 1 so 2 becomes LRU.
        c.get(1);
        let ev = put(&mut c, 4, 10);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0], 2);
        c.check_invariants();
    }

    #[test]
    fn replace_updates_charge() {
        let mut c = RamCache::new(100, 0);
        c.put(1, val(40));
        c.put(1, val(10));
        assert_eq!(c.used_bytes(), 10);
        assert_eq!(c.len(), 1);
        c.check_invariants();
    }

    #[test]
    fn oversized_object_bypasses_ram() {
        let mut c = RamCache::new(10, 0);
        let ev = put(&mut c, 9, 100);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0], 9);
        assert!(c.is_empty());
        c.check_invariants();
    }

    #[test]
    fn item_overhead_is_charged() {
        let mut c = RamCache::new(100, 30);
        c.put(1, val(10));
        assert_eq!(c.used_bytes(), 40);
        // Second 40-byte item fits; third evicts.
        c.put(2, val(10));
        let ev = put(&mut c, 3, 10);
        assert_eq!(ev.len(), 1);
        c.check_invariants();
    }

    #[test]
    fn remove_returns_value() {
        let mut c = RamCache::new(100, 0);
        c.put(5, val(20));
        let e = c.remove(5).unwrap();
        assert_eq!(e.key, 5);
        assert_eq!(e.value.len(), 20);
        assert!(c.remove(5).is_none());
        assert_eq!(c.used_bytes(), 0);
        c.check_invariants();
    }

    #[test]
    fn multi_eviction_when_big_insert() {
        let mut c = RamCache::new(50, 0);
        for k in 0..5 {
            c.put(k, val(10));
        }
        let ev = put(&mut c, 100, 40);
        assert_eq!(ev.len(), 4, "40-byte insert must evict four 10-byte items");
        // Oldest first.
        assert_eq!(ev[0], 0);
        c.check_invariants();
    }

    #[test]
    fn get_hands_back_the_stored_arc_without_copying() {
        let mut c = RamCache::new(1000, 0);
        let stored = Value::real(vec![7u8; 64]);
        let arc = stored.as_real().unwrap().clone();
        c.put(1, stored);
        let hit = c.get(1).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&arc, hit.as_real().unwrap()),
            "DRAM hit must share the inserted buffer (zero-copy)"
        );
    }

    #[test]
    fn peek_does_not_promote() {
        let mut c = RamCache::new(20, 0);
        c.put(1, val(10));
        c.put(2, val(10));
        c.peek(1);
        let ev = put(&mut c, 3, 10);
        assert_eq!(ev[0], 1, "peek must not refresh LRU position");
    }

    #[test]
    fn slab_reuse_after_removal() {
        let mut c = RamCache::new(1000, 0);
        for k in 0..10 {
            c.put(k, val(10));
        }
        for k in 0..10 {
            c.remove(k);
        }
        for k in 10..20 {
            c.put(k, val(10));
        }
        assert_eq!(c.nodes.len(), 10, "slab slots must be reused");
        c.check_invariants();
    }

    #[test]
    fn index_mirrors_membership() {
        let mut c = RamCache::new(30, 0);
        c.put(1, val(10));
        c.put(2, val(10));
        assert_eq!(c.read_index().peek(1), Some(val(10)));
        c.put(1, val(15)); // replace: index must follow
        assert_eq!(c.read_index().peek(1), Some(val(15)));
        c.remove(2);
        assert_eq!(c.read_index().peek(2), None, "removed key still published");
        // Eviction unpublishes too.
        let ev = put(&mut c, 3, 25);
        assert!(!ev.is_empty());
        for &k in &ev {
            assert_eq!(c.read_index().peek(k), None, "evicted {k} still published");
        }
        c.check_invariants();
    }

    #[test]
    fn flagged_tail_gets_a_second_chance() {
        let mut c = RamCache::new(30, 0);
        c.put(1, val(10));
        c.put(2, val(10));
        c.put(3, val(10));
        // A lock-free reader touches key 1 (the LRU tail) through the
        // index — no LRU promotion, only the accessed flag.
        assert_eq!(c.read_index().get(1), Some(val(10)));
        let ev = put(&mut c, 4, 10);
        // Second chance: 1 is rotated to the front, 2 is evicted.
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0], 2, "flagged tail must survive one round");
        assert!(c.peek(1).is_some());
        // The flag was consumed: the next eviction takes 3 (LRU), and
        // 1 only survives because it was rotated ahead of it.
        let ev = put(&mut c, 5, 10);
        assert_eq!(ev[0], 3);
        c.check_invariants();
    }

    #[test]
    fn repeated_reads_of_the_tail_buy_one_rotation_until_read_again() {
        let mut c = RamCache::new(30, 0);
        c.put(1, val(10));
        c.put(2, val(10));
        c.put(3, val(10));
        // Many lock-free reads of the tail are still one flag.
        for _ in 0..5 {
            c.read_index().get(1);
        }
        assert_eq!(put(&mut c, 4, 10)[0], 2, "flagged tail must rotate, not go");
        // The rotation put 1 ahead of 4: 3 and 4 go first, and then 1,
        // which nobody read since its flag was consumed.
        assert_eq!(put(&mut c, 5, 10)[0], 3);
        assert_eq!(put(&mut c, 6, 10)[0], 4);
        assert_eq!(put(&mut c, 7, 10)[0], 1, "one flag must buy exactly one rotation");
        // A read after a consumed flag arms it again (5 is the tail).
        assert!(!matches!(&c.nodes[c.tail as usize].slot, Slot::Published(e) if e.was_accessed()));
        c.read_index().get(5);
        assert_eq!(put(&mut c, 8, 10)[0], 6, "re-flagged tail must rotate again");
        assert!(c.peek(5).is_some());
        c.check_invariants();
    }

    /// The entry `key`'s slot shares with the read index.
    fn entry(c: &RamCache, key: Key) -> Arc<IndexEntry> {
        match &c.nodes[c.map[&key] as usize].slot {
            Slot::Published(entry) => Arc::clone(entry),
            Slot::Local(_) => panic!("key {key} is not published"),
        }
    }

    #[test]
    fn an_identical_set_keeps_the_published_entry() {
        let mut c = RamCache::new(1000, 0);
        let bytes: Arc<[u8]> = vec![7u8; 64].into();
        c.read_index();
        c.put(1, val(10));
        c.put(2, Value::Real(Arc::clone(&bytes)));
        c.put(3, val(10));
        for (key, same) in [(1, val(10)), (2, Value::Real(Arc::clone(&bytes)))] {
            let before = entry(&c, key);
            c.read_index().get(key);
            assert!(before.was_accessed());
            let retired = c.read_index().retired_total();
            assert_eq!(c.put(key, same.clone()).count(), 0, "nothing to evict");
            let after = entry(&c, key);
            assert!(Arc::ptr_eq(&before, &after), "key {key}: entry republished");
            assert_eq!(c.read_index().retired_total(), retired, "key {key}: a node retired");
            let published = c.read_index().peek(key);
            assert_eq!(published, Some(same), "key {key}: published value");
            if let Some(Value::Real(b)) = &published {
                assert!(Arc::ptr_eq(b, &bytes), "the published buffer must stay shared");
            }
            assert!(!after.was_accessed(), "key {key}: the readers' flag survived");
            assert_eq!(c.head, c.map[&key], "key {key}: not at the LRU front");
            assert_eq!(c.used_bytes(), 84);
            c.check_invariants();
        }
    }

    #[test]
    fn a_different_value_republishes() {
        let mut c = RamCache::new(1000, 0);
        let bytes: Arc<[u8]> = vec![7u8; 64].into();
        c.read_index();
        c.put(1, val(10));
        c.put(2, Value::Real(Arc::clone(&bytes)));
        let equal_bytes = Value::real(bytes.to_vec());
        for (key, other) in [(1, val(11)), (2, equal_bytes)] {
            let before = entry(&c, key);
            c.read_index().get(key);
            let retired = c.read_index().retired_total();
            c.put(key, other.clone());
            let after = entry(&c, key);
            assert!(!Arc::ptr_eq(&before, &after), "key {key}: entry kept");
            assert_eq!(c.read_index().retired_total(), retired + 1, "key {key}");
            assert_eq!(c.read_index().peek(key), Some(other));
            assert!(!after.was_accessed(), "key {key}: a fresh entry starts unflagged");
            assert_eq!(c.head, c.map[&key]);
            c.check_invariants();
        }
    }

    #[test]
    fn put_stays_within_budget_when_every_older_entry_is_flagged() {
        let mut c = RamCache::new(100, 0);
        c.put(1, val(10));
        c.put(2, val(10));
        // Lock-free readers flag both residents, so the sweep rotates
        // each ahead of the new key and finds the new key at the tail.
        c.read_index().get(1);
        c.read_index().get(2);
        let ev = put(&mut c, 3, 90);
        assert!(c.used_bytes() <= 100, "{} bytes resident in a 100-byte cache", c.used_bytes());
        assert_eq!(ev, vec![1]);
        assert!(c.peek(3).is_some(), "the inserted key must never be the victim");
        c.check_invariants();
    }

    #[test]
    fn without_lock_free_reads_eviction_is_exact_lru() {
        // Reference: keys most-recent-first, each 10 bytes, three fit.
        let mut lru: Vec<Key> = Vec::new();
        let mut c = RamCache::new(30, 0);
        let mut x = 7u64;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 8;
            let touch = |lru: &mut Vec<Key>| {
                lru.retain(|&q| q != k);
                lru.insert(0, k);
            };
            if x.is_multiple_of(3) {
                // The index is only peeked, as invariant checks do.
                assert_eq!(c.read_index().peek(k).is_some(), lru.contains(&k));
                if c.get(k).is_some() {
                    touch(&mut lru);
                }
            } else {
                touch(&mut lru);
                let expected: Vec<Key> = lru.drain(3.min(lru.len())..).rev().collect();
                let evicted = put(&mut c, k, 10);
                assert_eq!(evicted, expected, "eviction order drifted from exact LRU");
            }
        }
        c.check_invariants();
    }

    #[test]
    fn stress_random_ops_keep_invariants() {
        // The index is first requested halfway through: the late fill
        // must publish every resident, and every later op must keep the
        // mirror exact while lock-free reads flag entries.
        const FIRST_REQUEST: usize = 2_500;
        let mut c = RamCache::new(500, 5);
        let mut x = 88u64;
        for op in 0..5_000 {
            if op == FIRST_REQUEST {
                assert!(!c.index_built(), "nothing asked for the index yet");
                c.read_index();
            }
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 50;
            match x % 4 {
                0 if op >= FIRST_REQUEST && x % 8 == 4 => {
                    c.read_index().get(k);
                }
                0 => {
                    c.get(k);
                }
                1 => {
                    c.remove(k);
                }
                _ => {
                    c.put(k, val((x % 60) as u32));
                }
            }
            if op >= FIRST_REQUEST {
                c.check_invariants();
            }
        }
        c.check_invariants();
    }
}
