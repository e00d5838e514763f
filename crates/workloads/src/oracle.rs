//! The one record of what clients were promised, and the checks that
//! hold a cache to it (DESIGN.md §6.6).
//!
//! A look-aside cache may drop an object, but it must never serve bytes
//! a client did not write, and a warm restart must not bring back a
//! deleted key. [`Oracle::step`] serves one request, exactly as
//! [`crate::serve`] does, and records what the reply promised the
//! client. Three checks hold a cache to that record; each returns every
//! violation with its key, the expected and the served value, plus the
//! number of keys it checked, so a caller can refuse a vacuous pass:
//!
//! * [`Oracle::check_served`] — a hit is the latest acknowledged bytes,
//!   and a deleted key misses;
//! * [`Oracle::tally_flash`] — every acknowledged key's on-flash bytes
//!   verify, or the key is absent from flash;
//! * [`Oracle::check_crash`] — after [`Oracle::crash`], every key the
//!   crashed instance had persisted reads back untorn with a size
//!   acknowledged since its last delete, or with the interrupted
//!   request's own size, and no acknowledged delete comes back.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use fdpcache_cache::builder::recover_cache;
use fdpcache_cache::{CacheConfig, CacheError, ConcurrentPool, FlashVerify, HybridCache, Value};
use fdpcache_core::{RoundRobinPolicy, SharedController};
use fdpcache_nvme::NamespaceId;

use crate::trace::{Op, Request};

/// A cache requests are served on: one [`HybridCache`], or a
/// [`ConcurrentPool`] through its lock-free read path. Every method
/// propagates the cache's errors.
pub trait Cache {
    /// Looks `key` up.
    fn get(&mut self, key: u64) -> Result<Option<Value>, CacheError>;
    /// Inserts `key`.
    fn put(&mut self, key: u64, value: Value) -> Result<(), CacheError>;
    /// Deletes `key`.
    fn delete(&mut self, key: u64) -> Result<(), CacheError>;
}

impl Cache for HybridCache {
    fn get(&mut self, key: u64) -> Result<Option<Value>, CacheError> {
        HybridCache::get(self, key).map(|(_, v)| v)
    }

    fn put(&mut self, key: u64, value: Value) -> Result<(), CacheError> {
        HybridCache::put(self, key, value)
    }

    fn delete(&mut self, key: u64) -> Result<(), CacheError> {
        HybridCache::delete(self, key).map(drop)
    }
}

impl Cache for &ConcurrentPool {
    fn get(&mut self, key: u64) -> Result<Option<Value>, CacheError> {
        ConcurrentPool::get(self, key).map(|(_, v)| v)
    }

    fn put(&mut self, key: u64, value: Value) -> Result<(), CacheError> {
        ConcurrentPool::put(self, key, value)
    }

    fn delete(&mut self, key: u64) -> Result<(), CacheError> {
        ConcurrentPool::delete(self, key).map(drop)
    }
}

/// Serves one request on `cache`. An oversized SET is still an error
/// here; [`crate::serve`] forgives it, [`Oracle::step`] does not record
/// it.
pub(crate) fn apply<C: Cache + ?Sized>(cache: &mut C, req: Request) -> Result<(), CacheError> {
    match req.op {
        Op::Get => cache.get(req.key).map(drop),
        Op::Set => cache.put(req.key, Value::synthetic(req.size)),
        Op::Delete => cache.delete(req.key),
    }
}

/// Reattaches the cache on `nsid` after a kill, retrying when a
/// still-armed kill fires during the recovery reads themselves. A crash
/// *during* recovery is a crash like any other: recovery never writes to
/// the device, so the retry starts from identical flash state and
/// succeeds once the one-shot kill window is spent.
///
/// # Panics
///
/// Panics on any recovery error other than a kill.
pub fn reattach(ctrl: &SharedController, nsid: NamespaceId, config: &CacheConfig) -> HybridCache {
    loop {
        match recover_cache(ctrl, nsid, config, Box::new(RoundRobinPolicy::new())) {
            Ok(cache) => return cache,
            Err(e) if e.is_kill() => continue,
            Err(e) => panic!("recovery: {e}"),
        }
    }
}

/// What a client was promised about one key.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Promise {
    /// The latest acknowledged size, and every size acknowledged since
    /// the key's last acknowledged delete.
    Acked { latest: u32, since_delete: Vec<u32> },
    /// The last acknowledged op was a delete.
    Deleted,
    /// An `Unrecoverable` SET or DELETE: the key may read either way.
    Indeterminate,
}

/// What a check allowed one key to read as.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Sizes whose synthetic bytes may be served.
    pub sizes: Vec<u32>,
    /// Whether a miss is allowed too.
    pub may_miss: bool,
}

/// What the cache served for one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Nothing.
    Miss,
    /// `len` bytes; `intact` when they are exactly the synthetic bytes
    /// of that length.
    Bytes {
        /// Length served.
        len: u32,
        /// Whether the bytes are untorn.
        intact: bool,
    },
    /// The key's on-flash copy failed verification: torn or wrong bytes.
    FlashMismatch,
}

/// One key a check found the cache breaking its promise on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The key.
    pub key: u64,
    /// What the client was promised.
    pub expected: Expected,
    /// What the cache served.
    pub served: Served,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Expected { sizes, may_miss } = &self.expected;
        write!(f, "key {}: expected ", self.key)?;
        match (sizes.is_empty(), may_miss) {
            (true, true) => write!(f, "a miss")?,
            (false, true) => write!(f, "{sizes:?} bytes or a miss")?,
            (_, false) => write!(f, "{sizes:?} bytes")?,
        }
        match self.served {
            Served::Miss => write!(f, ", served a miss"),
            Served::Bytes { len, intact: true } => write!(f, ", served {len} bytes"),
            Served::Bytes { len, intact: false } => write!(f, ", served {len} torn bytes"),
            Served::FlashMismatch => write!(f, ", flash holds torn bytes"),
        }
    }
}

/// One check's outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Keys the check asserted something about.
    pub checked: u64,
    /// Every key that broke its promise, in check order.
    pub violations: Vec<Violation>,
}

impl Report {
    /// Reads `key` from `cache` and records a violation unless it is
    /// what `expected` allows.
    fn read<C: Cache + ?Sized>(
        &mut self,
        cache: &mut C,
        key: u64,
        expected: Expected,
    ) -> Result<(), CacheError> {
        self.checked += 1;
        let served = match cache.get(key)? {
            None => Served::Miss,
            Some(v) => {
                let len = v.len() as u32;
                Served::Bytes {
                    len,
                    intact: v.to_bytes(key) == Value::synthetic(len).to_bytes(key),
                }
            }
        };
        let ok = match served {
            Served::Miss => expected.may_miss,
            Served::Bytes { len, intact } => intact && expected.sizes.contains(&len),
            Served::FlashMismatch => false,
        };
        if !ok {
            self.violations.push(Violation { key, expected, served });
        }
        Ok(())
    }
}

/// [`Oracle::check_crash`]'s outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashReport {
    /// Keys the crashed instance had persisted, read back.
    pub persisted: Report,
    /// Keys whose delete was acknowledged, probed for resurrection.
    pub deleted: Report,
}

/// [`Oracle::tally_flash`]'s outcome: one verdict per acknowledged key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlashTally {
    /// Keys whose on-flash bytes were compared (verified or lost).
    pub checked: u64,
    /// Keys whose on-flash bytes are torn or wrong: **lost
    /// acknowledged writes**.
    pub lost: Vec<Violation>,
    /// Keys absent from flash (evicted, shed or DRAM-only): legal for a
    /// cache.
    pub absent: u64,
    /// Keys whose verification read itself faulted.
    pub unverifiable: u64,
}

impl FlashTally {
    /// Keys whose on-flash bytes verified exactly.
    pub fn verified(&self) -> u64 {
        self.checked - self.lost.len() as u64
    }

    /// Keys the tally visited: every acknowledged key.
    pub fn acked(&self) -> u64 {
        self.checked + self.absent + self.unverifiable
    }
}

/// The record of what clients were promised: per key, the sizes
/// acknowledged since its last delete, an acknowledged delete, or an
/// indeterminate outcome.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    keys: BTreeMap<u64, Promise>,
    /// The request a kill interrupted, set by [`Oracle::crash`].
    in_flight: Option<Request>,
}

impl Oracle {
    /// An empty record.
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Serves `req` on `cache` and records what the reply promised:
    ///
    /// * a successful SET acknowledges its size, and a successful DELETE
    ///   the delete;
    /// * `Unrecoverable` on a SET or DELETE makes the key indeterminate:
    ///   the rescued objects were dropped, so it may read either way;
    /// * any other error records nothing. An oversized SET is served
    ///   but not acknowledged.
    ///
    /// # Errors
    ///
    /// Returns the cache's result unchanged (an oversized SET included),
    /// so the caller decides which errors to count and which to panic on.
    pub fn step<C: Cache + ?Sized>(
        &mut self,
        cache: &mut C,
        req: Request,
    ) -> Result<(), CacheError> {
        let result = apply(cache, req);
        let promise = match (&result, req.op) {
            (_, Op::Get) => return result,
            (Ok(()), Op::Set) => {
                let size = req.size;
                if let Some(Promise::Acked { latest, since_delete }) = self.keys.get_mut(&req.key) {
                    *latest = size;
                    if !since_delete.contains(&size) {
                        since_delete.push(size);
                    }
                    return result;
                }
                Promise::Acked { latest: size, since_delete: vec![size] }
            }
            (Ok(()), Op::Delete) => Promise::Deleted,
            (Err(CacheError::Unrecoverable(_)), _) => Promise::Indeterminate,
            (Err(_), _) => return result,
        };
        self.keys.insert(req.key, promise);
        result
    }

    /// Records a crash: `in_flight` is the request the kill interrupted,
    /// if any. It was never acknowledged, so [`Oracle::check_crash`]
    /// lets its key read either way.
    pub fn crash(&mut self, in_flight: Option<Request>) {
        self.in_flight = in_flight;
    }

    /// The served-value check: reads each of `keys` from `cache`. A hit
    /// must be the latest acknowledged bytes; a deleted or never-written
    /// key must miss; an indeterminate key is not read.
    ///
    /// # Errors
    ///
    /// Propagates the first read error.
    pub fn check_served<C: Cache + ?Sized>(
        &self,
        cache: &mut C,
        keys: impl IntoIterator<Item = u64>,
    ) -> Result<Report, CacheError> {
        let mut report = Report::default();
        for key in keys {
            let sizes = match self.keys.get(&key) {
                Some(Promise::Indeterminate) => continue,
                Some(Promise::Acked { latest, .. }) => vec![*latest],
                Some(Promise::Deleted) | None => Vec::new(),
            };
            report.read(cache, key, Expected { sizes, may_miss: true })?;
        }
        Ok(report)
    }

    /// The flash tally: hands every acknowledged key, in key order, to
    /// `verify` and counts its verdict. A mismatch is a lost
    /// acknowledged write; absence is legal for a cache.
    pub fn tally_flash(&self, mut verify: impl FnMut(u64) -> FlashVerify) -> FlashTally {
        let mut tally = FlashTally::default();
        for (&key, promise) in &self.keys {
            let Promise::Acked { latest, .. } = promise else { continue };
            match verify(key) {
                FlashVerify::Verified => tally.checked += 1,
                FlashVerify::Mismatch => {
                    tally.checked += 1;
                    let expected = Expected { sizes: vec![*latest], may_miss: true };
                    tally.lost.push(Violation { key, expected, served: Served::FlashMismatch });
                }
                FlashVerify::Absent => tally.absent += 1,
                FlashVerify::Unverifiable => tally.unverifiable += 1,
            }
        }
        tally
    }

    /// The crash contract, on a recovered `cache` (flash-hit promotion
    /// off, so the reads change nothing). Every key of `persisted` —
    /// what the crashed instance held on flash at the kill — must read
    /// back untorn with a size acknowledged since its last delete, or
    /// with the interrupted SET's own size. Then every acknowledged
    /// delete must miss, except on the interrupted request's key.
    /// Indeterminate keys assert nothing.
    ///
    /// The newest acknowledged copy may have been DRAM-only at the kill,
    /// so any size since the last delete is accepted, not only the
    /// latest (DESIGN.md §6.6).
    ///
    /// # Errors
    ///
    /// Propagates the first read error.
    pub fn check_crash<C: Cache + ?Sized>(
        &self,
        cache: &mut C,
        persisted: &BTreeSet<u64>,
    ) -> Result<CrashReport, CacheError> {
        let mut report = CrashReport::default();
        let in_flight = self.in_flight;
        for &key in persisted {
            let mut sizes: Vec<u32> = match self.keys.get(&key) {
                Some(Promise::Indeterminate) => continue,
                Some(Promise::Acked { since_delete, .. }) => since_delete.clone(),
                Some(Promise::Deleted) | None => Vec::new(),
            };
            sizes.extend(in_flight.filter(|r| r.op == Op::Set && r.key == key).map(|r| r.size));
            report.persisted.read(cache, key, Expected { sizes, may_miss: false })?;
        }
        for (&key, promise) in &self.keys {
            if *promise == Promise::Deleted && in_flight.is_none_or(|r| r.key != key) {
                report.deleted.read(cache, key, Expected { sizes: Vec::new(), may_miss: true })?;
            }
        }
        Ok(report)
    }
}

/// Verifies `key`'s on-flash bytes on `cache`, which `owner` names.
/// A SOC verdict covers its whole bucket, so the first key of each
/// `(owner, bucket)` reads the bucket and later keys reuse the verdict
/// from `memo`.
///
/// # Panics
///
/// Panics if verification itself errors.
pub fn verify_by_bucket(
    cache: &mut HybridCache,
    owner: usize,
    key: u64,
    memo: &mut BTreeMap<(usize, u64), FlashVerify>,
) -> FlashVerify {
    let verify =
        |c: &mut HybridCache| c.verify_flash_key(key).expect("verification must not error");
    if !cache.navy().soc().contains(key) {
        return verify(cache);
    }
    let bucket = cache.navy().soc().bucket_index(key);
    *memo.entry((owner, bucket)).or_insert_with(|| verify(cache))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A map-backed cache. A SET of size 0 fails `Unrecoverable`, one
    /// above 1,000 bytes is too large.
    #[derive(Default)]
    struct Planted(BTreeMap<u64, Value>);

    impl Cache for Planted {
        fn get(&mut self, key: u64) -> Result<Option<Value>, CacheError> {
            Ok(self.0.get(&key).cloned())
        }
        fn put(&mut self, key: u64, value: Value) -> Result<(), CacheError> {
            match value.len() {
                0 => return Err(CacheError::Unrecoverable("seal".into())),
                size @ 1_001.. => return Err(CacheError::ObjectTooLarge { size, max: 1_000 }),
                _ => self.0.insert(key, value),
            };
            Ok(())
        }
        fn delete(&mut self, key: u64) -> Result<(), CacheError> {
            self.0.remove(&key);
            Ok(())
        }
    }

    fn set(key: u64, size: u32) -> Request {
        Request { op: Op::Set, key, size }
    }

    fn delete(key: u64) -> Request {
        Request { op: Op::Delete, key, size: 0 }
    }

    /// Steps `reqs` through a fresh oracle, then plants `served`.
    fn run(reqs: &[Request], served: &[(u64, u32)]) -> (Oracle, Planted) {
        let (mut oracle, mut cache) = (Oracle::new(), Planted::default());
        for &r in reqs {
            let _ = oracle.step(&mut cache, r);
        }
        cache.0 = served.iter().map(|&(k, len)| (k, Value::synthetic(len))).collect();
        (oracle, cache)
    }

    fn keys(r: &Report) -> Vec<u64> {
        r.violations.iter().map(|v| v.key).collect()
    }

    #[test]
    fn before_a_crash_a_hit_is_the_latest_and_a_delete_misses() {
        let reqs = [set(1, 10), set(1, 20), set(2, 5), delete(2), set(3, 9)];
        let (oracle, mut cache) = run(&reqs, &[(1, 10), (2, 5), (4, 1)]);
        let r = oracle.check_served(&mut cache, [1, 2, 3, 4]).unwrap();
        assert_eq!((r.checked, keys(&r)), (4, vec![1, 2, 4]));
        let shown: Vec<String> = r.violations.iter().map(Violation::to_string).collect();
        assert_eq!(shown[0], "key 1: expected [20] bytes or a miss, served 10 bytes");
        assert_eq!(shown[1], "key 2: expected a miss, served 5 bytes");
    }

    #[test]
    fn after_a_crash_any_size_since_the_last_delete_or_the_in_flight_one() {
        let (mut oracle, mut cache) = run(&[set(1, 10), set(1, 20), set(2, 7)], &[(1, 10), (2, 9)]);
        let persisted = BTreeSet::from([1, 2, 3]);
        let r = oracle.check_crash(&mut cache, &persisted).unwrap();
        assert_eq!((r.persisted.checked, keys(&r.persisted)), (3, vec![2, 3]));
        let missing = r.persisted.violations[1].to_string();
        assert_eq!(missing, "key 3: expected [] bytes, served a miss");
        // Size 9 was the interrupted SET's: it may have persisted.
        oracle.crash(Some(set(2, 9)));
        assert_eq!(keys(&oracle.check_crash(&mut cache, &persisted).unwrap().persisted), [3]);
    }

    #[test]
    fn an_acknowledged_delete_must_not_come_back_unless_in_flight() {
        let reqs = [set(1, 10), delete(1), set(2, 4), delete(2)];
        let (mut oracle, mut cache) = run(&reqs, &[(1, 10), (2, 4)]);
        oracle.crash(Some(set(2, 4)));
        let r = oracle.check_crash(&mut cache, &BTreeSet::new()).unwrap();
        assert_eq!((r.deleted.checked, keys(&r.deleted)), (1, vec![1]));
    }

    #[test]
    fn an_indeterminate_key_asserts_nothing() {
        let (oracle, mut cache) = run(&[set(1, 10), set(1, 0)], &[(1, 3)]);
        assert_eq!(oracle.check_served(&mut cache, [1]).unwrap(), Report::default());
        let crash = oracle.check_crash(&mut cache, &BTreeSet::from([1])).unwrap();
        assert_eq!(crash, CrashReport::default());
        assert_eq!(oracle.tally_flash(|_| FlashVerify::Mismatch), FlashTally::default());
    }

    #[test]
    fn an_oversized_set_is_served_but_not_acknowledged() {
        let (mut oracle, mut cache) = run(&[set(1, 10)], &[(1, 10)]);
        let err = oracle.step(&mut cache, set(1, 5_000)).unwrap_err();
        assert!(matches!(err, CacheError::ObjectTooLarge { .. }));
        assert_eq!(oracle.tally_flash(|_| FlashVerify::Absent).acked(), 1);
        assert_eq!(oracle.check_served(&mut cache, [1]).unwrap().violations, []);
    }

    #[test]
    fn a_delete_after_a_set_clears_the_old_sizes() {
        let (oracle, mut cache) = run(&[set(1, 10), delete(1), set(1, 20)], &[(1, 10)]);
        let r = oracle.check_crash(&mut cache, &BTreeSet::from([1])).unwrap();
        assert_eq!(r.persisted.violations[0].expected.sizes, [20]);
        let tally = oracle.tally_flash(|_| FlashVerify::Mismatch);
        assert_eq!((tally.checked, tally.verified(), tally.lost.len()), (1, 0, 1));
    }
}
