//! Transactional sorted linked-list integer set.
//!
//! The classic STM data-structure benchmark (used by DSTM, LSA-STM, TL2 …):
//! operations traverse the list inside a transaction, so the read set grows
//! linearly with the traversal length — the workload that makes per-access
//! consistency costs visible and that rewards time-based STMs (O(1) per
//! access) over validation-based ones (O(n) per access).
//!
//! Nodes are immutable values in engine vars linked through `Option<Var>`;
//! updates replace a node's value functionally (its key stays, its `next`
//! changes), so concurrent snapshot readers keep traversing their own
//! consistent version of the list. The structure is generic over the
//! [`TxnEngine`], which is exactly what makes the validation-cost comparison
//! (EXP-VAL) an apples-to-apples sweep.

use lsa_engine::{EngineAbort, EngineHandle, EngineVar, TxnEngine, TxnOps};

/// One list node: a key and the link to the next node.
pub struct Node<E: TxnEngine> {
    key: i64,
    next: Option<EngineVar<E, Node<E>>>,
}

impl<E: TxnEngine> Clone for Node<E> {
    fn clone(&self) -> Self {
        Node {
            key: self.key,
            next: self.next.clone(),
        }
    }
}

/// A sorted linked-list set of `i64` keys (head/tail sentinels at ±∞).
pub struct IntSetList<E: TxnEngine> {
    engine: E,
    head: EngineVar<E, Node<E>>,
}

impl<E: TxnEngine> Clone for IntSetList<E> {
    fn clone(&self) -> Self {
        IntSetList {
            engine: self.engine.clone(),
            head: self.head.clone(),
        }
    }
}

impl<E: TxnEngine> IntSetList<E> {
    /// Empty set on `engine`.
    pub fn new(engine: E) -> Self {
        let tail = engine.new_var(Node {
            key: i64::MAX,
            next: None,
        });
        let head = engine.new_var(Node {
            key: i64::MIN,
            next: Some(tail),
        });
        IntSetList { engine, head }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Locate `key`: returns (node-var of the last node with a smaller key,
    /// its key, node-var of the first node with key ≥ `key`, a copy of its
    /// value). Reads are lent until the next one, so the traversal keeps
    /// only what it needs of each node.
    #[allow(clippy::type_complexity)]
    fn locate<O: TxnOps<Engine = E>>(
        &self,
        tx: &mut O,
        key: i64,
    ) -> Result<(EngineVar<E, Node<E>>, i64, EngineVar<E, Node<E>>, Node<E>), EngineAbort<E>> {
        let successor = |node: &Node<E>| {
            node.next
                .clone()
                .expect("interior node always has a successor (tail sentinel)")
        };
        let mut prev_var = self.head.clone();
        let head = tx.read(&prev_var)?;
        let mut prev_key = head.key;
        let mut cur_var = successor(head);
        loop {
            let cur = tx.read(&cur_var)?;
            if cur.key >= key {
                let cur = cur.clone();
                return Ok((prev_var, prev_key, cur_var, cur));
            }
            prev_key = cur.key;
            let next = successor(cur);
            prev_var = std::mem::replace(&mut cur_var, next);
        }
    }

    /// Insert `key`; returns `false` if it was already present.
    pub fn insert(&self, h: &mut E::Handle, key: i64) -> bool {
        assert!(
            key > i64::MIN && key < i64::MAX,
            "sentinel keys are reserved"
        );
        h.atomically(|tx| {
            let (prev_var, prev_key, cur_var, cur) = self.locate(tx, key)?;
            if cur.key == key {
                return Ok(false);
            }
            let new_var = self.engine.new_var(Node {
                key,
                next: Some(cur_var),
            });
            tx.write(
                &prev_var,
                Node {
                    key: prev_key,
                    next: Some(new_var),
                },
            )?;
            Ok(true)
        })
    }

    /// Remove `key`; returns `false` if it was absent.
    pub fn remove(&self, h: &mut E::Handle, key: i64) -> bool {
        h.atomically(|tx| {
            let (prev_var, prev_key, cur_var, cur) = self.locate(tx, key)?;
            if cur.key != key {
                return Ok(false);
            }
            // Open the victim for writing too: concurrent inserts *after*
            // `cur` would otherwise modify a node we just unlinked.
            tx.write(
                &cur_var,
                Node {
                    key: cur.key,
                    next: cur.next.clone(),
                },
            )?;
            tx.write(
                &prev_var,
                Node {
                    key: prev_key,
                    next: cur.next.clone(),
                },
            )?;
            Ok(true)
        })
    }

    /// Membership test (read-only transaction).
    pub fn contains(&self, h: &mut E::Handle, key: i64) -> bool {
        h.atomically(|tx| {
            let (_, _, _, cur) = self.locate(tx, key)?;
            Ok(cur.key == key)
        })
    }

    /// Number of keys (read-only full traversal).
    pub fn len(&self, h: &mut E::Handle) -> usize {
        h.atomically(|tx| {
            let mut n = 0usize;
            let mut var = self.head.clone();
            loop {
                let node = tx.read(&var)?;
                match &node.next {
                    Some(next) => {
                        if node.key != i64::MIN {
                            n += 1;
                        }
                        var = next.clone();
                    }
                    None => return Ok(n),
                }
            }
        })
    }

    /// Collect all keys in order (read-only snapshot).
    pub fn to_vec(&self, h: &mut E::Handle) -> Vec<i64> {
        h.atomically(|tx| {
            let mut keys = Vec::new();
            let mut var = self.head.clone();
            loop {
                let node = tx.read(&var)?;
                match &node.next {
                    Some(next) => {
                        if node.key != i64::MIN {
                            keys.push(node.key);
                        }
                        var = next.clone();
                    }
                    None => return Ok(keys),
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::FastRng;
    use lsa_baseline::{Tl2Stm, ValidationMode, ValidationStm};
    use lsa_stm::Stm;
    use lsa_time::counter::SharedCounter;
    use lsa_time::perfect::PerfectClock;
    use std::collections::BTreeSet;

    fn sequential_matches_reference<E: TxnEngine>(engine: E) {
        let set = IntSetList::new(engine.clone());
        let mut h = engine.register();
        let mut reference = BTreeSet::new();
        let mut rng = FastRng::new(77);
        for _ in 0..400 {
            let key = rng.range(0, 60);
            match rng.below(3) {
                0 => assert_eq!(set.insert(&mut h, key), reference.insert(key)),
                1 => assert_eq!(set.remove(&mut h, key), reference.remove(&key)),
                _ => assert_eq!(set.contains(&mut h, key), reference.contains(&key)),
            }
        }
        assert_eq!(set.len(&mut h), reference.len());
        assert_eq!(
            set.to_vec(&mut h),
            reference.iter().copied().collect::<Vec<_>>()
        );
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

    #[test]
    fn keys_stay_sorted_and_unique_under_concurrency() {
        let set = IntSetList::new(Stm::new(PerfectClock::new()));
        std::thread::scope(|s| {
            for t in 0..4 {
                let set = &set;
                s.spawn(move || {
                    let mut h = set.engine().register();
                    let mut rng = FastRng::new(t as u64 + 1);
                    for _ in 0..300 {
                        let key = rng.range(0, 40);
                        if rng.percent(60) {
                            set.insert(&mut h, key);
                        } else {
                            set.remove(&mut h, key);
                        }
                    }
                });
            }
        });
        let mut h = set.engine().register();
        let keys = set.to_vec(&mut h);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted, "list must stay sorted and duplicate-free");
    }

    #[test]
    fn concurrent_inserts_of_disjoint_ranges_all_land() {
        let set = IntSetList::new(Stm::new(SharedCounter::new()));
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let set = &set;
                s.spawn(move || {
                    let mut h = set.engine().register();
                    for k in 0..50 {
                        assert!(set.insert(&mut h, t * 1000 + k));
                    }
                });
            }
        });
        let mut h = set.engine().register();
        assert_eq!(set.len(&mut h), 200);
    }

    #[test]
    fn concurrent_inserts_all_land_on_tl2() {
        let set = IntSetList::new(Tl2Stm::new(SharedCounter::new()));
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let set = &set;
                s.spawn(move || {
                    let mut h = set.engine().register();
                    for k in 0..40 {
                        assert!(set.insert(&mut h, t * 1000 + k));
                    }
                });
            }
        });
        let mut h = set.engine().register();
        assert_eq!(set.len(&mut h), 160);
    }

    #[test]
    fn delete_vs_insert_race_preserves_reachability() {
        // The remove() write to the victim node forces conflicts with
        // inserts that would otherwise link behind an unlinked node.
        let set = IntSetList::new(Stm::new(PerfectClock::new()));
        let mut h = set.engine().register();
        for k in [10, 20, 30] {
            set.insert(&mut h, k);
        }
        std::thread::scope(|s| {
            let set_a = &set;
            s.spawn(move || {
                let mut h = set_a.engine().register();
                for _ in 0..200 {
                    set_a.remove(&mut h, 20);
                    set_a.insert(&mut h, 20);
                }
            });
            let set_b = &set;
            s.spawn(move || {
                let mut h = set_b.engine().register();
                for _ in 0..200 {
                    set_b.insert(&mut h, 25);
                    set_b.remove(&mut h, 25);
                }
            });
        });
        let keys = set.to_vec(&mut h);
        assert!(keys.contains(&10) && keys.contains(&30));
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
