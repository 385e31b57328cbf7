//! Transactional bucketed hash set.
//!
//! Short transactions touching a single bucket: the low-contention,
//! small-read-set counterpoint to the linked list. With many buckets the
//! workload approaches the paper's disjoint-update regime — time-base
//! overhead dominates; with few buckets it turns into a contention benchmark.
//! Generic over the [`TxnEngine`] like every workload here.

use lsa_engine::{EngineHandle, EngineVar, TxnEngine, TxnOps};

/// A fixed-bucket transactional hash set of `i64` keys.
pub struct HashSetT<E: TxnEngine> {
    engine: E,
    buckets: Vec<EngineVar<E, Vec<i64>>>,
}

impl<E: TxnEngine> Clone for HashSetT<E> {
    fn clone(&self) -> Self {
        HashSetT {
            engine: self.engine.clone(),
            buckets: self.buckets.clone(),
        }
    }
}

impl<E: TxnEngine> HashSetT<E> {
    /// Empty set with `buckets` buckets on `engine`.
    pub fn new(engine: E, buckets: usize) -> Self {
        assert!(buckets >= 1);
        let buckets = (0..buckets).map(|_| engine.new_var(Vec::new())).collect();
        HashSetT { engine, buckets }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The bucket index `key` hashes to — exposed so audits can check key
    /// placement from outside.
    #[inline]
    pub fn bucket_index(&self, key: i64) -> usize {
        // Fibonacci hashing of the key into a bucket index.
        let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h % self.buckets.len() as u64) as usize
    }

    #[inline]
    fn bucket_of(&self, key: i64) -> &EngineVar<E, Vec<i64>> {
        &self.buckets[self.bucket_index(key)]
    }

    /// Insert `key`; returns `false` if already present.
    pub fn insert(&self, h: &mut E::Handle, key: i64) -> bool {
        let bucket = self.bucket_of(key);
        h.atomically(|tx| {
            let cur = tx.read(bucket)?;
            if cur.contains(&key) {
                return Ok(false);
            }
            let mut next = (*cur).clone();
            next.push(key);
            tx.write(bucket, next)?;
            Ok(true)
        })
    }

    /// Remove `key`; returns `false` if absent.
    pub fn remove(&self, h: &mut E::Handle, key: i64) -> bool {
        let bucket = self.bucket_of(key);
        h.atomically(|tx| {
            let cur = tx.read(bucket)?;
            match cur.iter().position(|&k| k == key) {
                None => Ok(false),
                Some(i) => {
                    let mut next = (*cur).clone();
                    next.swap_remove(i);
                    tx.write(bucket, next)?;
                    Ok(true)
                }
            }
        })
    }

    /// Membership test.
    pub fn contains(&self, h: &mut E::Handle, key: i64) -> bool {
        let bucket = self.bucket_of(key);
        h.atomically(|tx| Ok(tx.read(bucket)?.contains(&key)))
    }

    /// Total number of keys (read-only snapshot across every bucket).
    pub fn len(&self, h: &mut E::Handle) -> usize {
        h.atomically(|tx| {
            let mut n = 0;
            for b in &self.buckets {
                n += tx.read(b)?.len();
            }
            Ok(n)
        })
    }

    /// Snapshot every bucket's contents in one read-only transaction.
    pub fn buckets_snapshot(&self, h: &mut E::Handle) -> Vec<Vec<i64>> {
        h.atomically(|tx| {
            let mut out = Vec::with_capacity(self.buckets.len());
            for b in &self.buckets {
                out.push((*tx.read(b)?).clone());
            }
            Ok(out)
        })
    }

    /// Assert the structural invariant with a fresh handle: every key sits
    /// in exactly the bucket it hashes to, with no duplicates anywhere.
    /// Call when no transaction runs on the set; returns the key count.
    pub fn assert_placement(&self) -> usize {
        let mut h = self.engine.register();
        let buckets = self.buckets_snapshot(&mut h);
        let mut seen = std::collections::BTreeSet::new();
        for (ix, bucket) in buckets.iter().enumerate() {
            for &key in bucket {
                assert_eq!(
                    self.bucket_index(key),
                    ix,
                    "key {key} landed in bucket {ix} on {}",
                    self.engine.engine_name()
                );
                assert!(
                    seen.insert(key),
                    "duplicate key {key} on {}",
                    self.engine.engine_name()
                );
            }
        }
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::FastRng;
    use lsa_baseline::{Tl2Stm, ValidationMode, ValidationStm};
    use lsa_stm::Stm;
    use lsa_time::counter::SharedCounter;
    use std::collections::BTreeSet;

    fn sequential_matches_reference<E: TxnEngine>(engine: E) {
        let set = HashSetT::new(engine.clone(), 16);
        let mut h = engine.register();
        let mut reference = BTreeSet::new();
        let mut rng = FastRng::new(5);
        for _ in 0..500 {
            let key = rng.range(0, 100);
            match rng.below(3) {
                0 => assert_eq!(set.insert(&mut h, key), reference.insert(key)),
                1 => assert_eq!(set.remove(&mut h, key), reference.remove(&key)),
                _ => assert_eq!(set.contains(&mut h, key), reference.contains(&key)),
            }
        }
        assert_eq!(set.len(&mut h), reference.len());
    }

    #[test]
    fn sequential_matches_btreeset() {
        sequential_matches_reference(Stm::new(SharedCounter::new()));
    }

    #[test]
    fn sequential_matches_btreeset_on_every_engine() {
        sequential_matches_reference(Tl2Stm::new(SharedCounter::new()));
        sequential_matches_reference(ValidationStm::new(ValidationMode::Always));
        sequential_matches_reference(ValidationStm::new(ValidationMode::CommitCounter));
    }

    fn concurrent_distinct_keys<E: TxnEngine>(engine: E) {
        let set = HashSetT::new(engine.clone(), 8);
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let set = &set;
                let engine = engine.clone();
                s.spawn(move || {
                    let mut h = engine.register();
                    for k in 0..100 {
                        assert!(set.insert(&mut h, t * 1_000 + k));
                    }
                });
            }
        });
        let mut h = engine.register();
        assert_eq!(set.len(&mut h), 400);
        for t in 0..4i64 {
            for k in 0..100 {
                assert!(set.contains(&mut h, t * 1_000 + k));
            }
        }
    }

    #[test]
    fn concurrent_distinct_keys_all_present() {
        concurrent_distinct_keys(Stm::new(SharedCounter::new()));
    }

    #[test]
    fn concurrent_distinct_keys_all_present_tl2() {
        concurrent_distinct_keys(Tl2Stm::new(SharedCounter::new()));
    }

    #[test]
    #[should_panic(expected = "landed in bucket")]
    fn assert_placement_flags_a_misplaced_key() {
        let engine = Stm::new(SharedCounter::new());
        let set = HashSetT::new(engine.clone(), 4);
        let key = (0..).find(|&k| set.bucket_index(k) != 0).unwrap();
        let mut h = engine.register();
        h.atomically(|tx| tx.write(&set.buckets[0], vec![key]));
        set.assert_placement();
    }

    #[test]
    fn single_bucket_contention_is_correct() {
        let engine = Stm::new(SharedCounter::new());
        let set = HashSetT::new(engine.clone(), 1);
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let set = &set;
                let engine = engine.clone();
                s.spawn(move || {
                    let mut h = engine.register();
                    for k in 0..50 {
                        set.insert(&mut h, t * 100 + k);
                    }
                });
            }
        });
        let mut h = engine.register();
        assert_eq!(set.len(&mut h), 200);
    }
}
