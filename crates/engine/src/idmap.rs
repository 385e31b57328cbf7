//! Tables keyed by ids the runtime itself hands out.
//!
//! Every engine keeps per-transaction tables keyed by object ids, the wire
//! client one keyed by request ids, the id allocator one keyed by allocator
//! ids. All of those keys come out of this process's own counters — no peer
//! and no input chooses them — so the flood resistance std's keyed SipHash
//! pays three times the probe cost for protects against nobody. [`IdMap`] is the one
//! table they all use instead: std's `HashMap` (hashbrown) under
//! [`IdHasher`], one multiply and one fold per probe.
//!
//! Tables keyed by bytes a peer supplies keep the default hasher.
//!
//! ## The retention rule
//!
//! Per-handle transaction scratch is cleared, not freed, between attempts so
//! a steady-state transaction does not allocate. Unbounded, that keeps the
//! capacity of the largest transaction a handle ever ran — and clearing a
//! hash table rewrites every control byte, so one huge scan would tax every
//! small transaction after it. [`recycle_map`] and [`recycle_vec`] clear and,
//! when the capacity is more than [`RETAIN_FACTOR`] times what the attempt
//! used *and* above [`RETAIN_FLOOR`], hand the memory back; the next
//! attempts regrow what they actually need.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, odd: the Fibonacci-hashing multiplier.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Hasher for runtime-allocated `u64` ids.
///
/// hashbrown takes the bucket from the hash's *low* bits and the 7-bit
/// control tag from its *top* bits. A Fibonacci multiply puts its mixing in
/// the high half (bit `k` of a product depends only on bits `0..=k` of the
/// id), so the high half is folded into the low one: buckets then depend on
/// every id bit — including the shard / instance / handle tags that sit
/// *above* the sequence number — while the tag keeps the product's best
/// bits.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, id: u64) {
        let h = id.wrapping_mul(FIB);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdHasher hashes u64 ids only (use it through IdMap)");
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map keyed by runtime-allocated `u64` ids (see the module docs).
/// Construct with `IdMap::default()`.
pub type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// Capacity a cleared scratch container may always keep (entries).
pub const RETAIN_FLOOR: usize = 1024;

/// A cleared scratch container may keep up to this many times the entries
/// its last attempt used.
pub const RETAIN_FACTOR: usize = 4;

#[inline]
fn over_retained(capacity: usize, used: usize) -> bool {
    capacity > RETAIN_FLOOR && capacity > used.saturating_mul(RETAIN_FACTOR)
}

/// Clear `map` for the next attempt under the retention rule.
#[inline]
pub fn recycle_map<V>(map: &mut IdMap<V>) {
    let used = map.len();
    map.clear();
    if over_retained(map.capacity(), used) {
        map.shrink_to(0);
    }
}

/// Clear `vec` for the next attempt under the retention rule.
#[inline]
pub fn recycle_vec<T>(vec: &mut Vec<T>) {
    let used = vec.len();
    vec.clear();
    if over_retained(vec.capacity(), used) {
        vec.shrink_to(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::hash::BuildHasher;

    fn hash(id: u64) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(id)
    }

    /// Largest bucket's load relative to uniform, over the low `bits` bits.
    fn bucket_skew(ids: &[u64], bits: u32) -> f64 {
        let mut load = vec![0u32; 1 << bits];
        for &id in ids {
            load[(hash(id) & ((1 << bits) - 1)) as usize] += 1;
        }
        let max = *load.iter().max().expect("non-empty") as f64;
        max / (ids.len() as f64 / load.len() as f64)
    }

    /// Most common control tag's share relative to uniform (top 7 bits).
    fn tag_skew(ids: &[u64]) -> f64 {
        let mut load = [0u32; 128];
        for &id in ids {
            load[(hash(id) >> 57) as usize] += 1;
        }
        let max = *load.iter().max().expect("non-empty") as f64;
        max / (ids.len() as f64 / 128.0)
    }

    /// 2^16 ids per family: 4 per bucket at 14 bits, 512 per tag.
    const N: u64 = 1 << 16;

    /// An object id as `lsa_stm::Stm` lays it out:
    /// `instance << 40 | shard << 34 | seq`, shard 0 when unsharded.
    fn stm_id(instance: u64, shard: u64, seq: u64) -> u64 {
        (instance << 40) | (shard << 34) | seq
    }

    /// Every id family the workspace produces, by name.
    fn families() -> Vec<(String, Vec<u64>)> {
        let mut out = vec![
            // `Stm::new_tvar` on an unsharded base.
            (
                "sequential".to_string(),
                (1..=N).map(|s| stm_id(3, 0, s)).collect(),
            ),
            // One thread's ids when many threads draw from one `BlockAlloc`
            // (block 64) in turn: runs of 64 every 64 × threads.
            (
                "block-strided".to_string(),
                (0..N)
                    .map(|i| (3 << 40) | ((i / 64) * 64 * 8 + i % 64))
                    .collect(),
            ),
            // The first id of every block only (stride = block size).
            (
                "stride-64".to_string(),
                (0..N).map(|i| (3 << 40) | (i * 64)).collect(),
            ),
            // `HandleCore::next_txn_id`: handle << 40 | seq, many handles.
            (
                "handle-tagged".to_string(),
                (0..N)
                    .map(|i| ((i % 64 + 1) << 40) | (i / 64 + 1))
                    .collect(),
            ),
            // TL2 / NOrec / validation pending-write aliases: id | 1 << 63.
            (
                "alias".to_string(),
                (1..=N).map(|s| s | (1 << 63)).collect(),
            ),
        ];
        // `Stm` on a sharded base draws one sequence per runtime. Placed
        // round-robin, the shard bits repeat the sequence's low bits;
        // placed by partition (`new_tvar_on`, one contiguous run per
        // shard), its high bits.
        for shards in [2u64, 4, 8, 16, 32, 64] {
            out.push((
                format!("shard-tagged/{shards}"),
                (0..N).map(|s| stm_id(5, s % shards, s)).collect(),
            ));
            out.push((
                format!("shard-placed/{shards}"),
                (0..N).map(|s| stm_id(5, s * shards / N, s)).collect(),
            ));
        }
        out
    }

    #[test]
    fn every_id_family_spreads_over_buckets_and_tags() {
        // Stated factors of uniform, for 65 536 ids over 2^7 / 2^10 / 2^14
        // buckets (512 / 64 / 4 per bucket). Measured worst over the
        // unsharded families: 1.38× (handle-tagged) / 1.98× (sequential) /
        // 4.25× (alias); over the sharded ones: 1.14× / 2.48×
        // (shard-tagged/16) / 6.75× (shard-tagged/64); tags 1.06×. A random
        // function's fullest bucket would hold ~1.1× / ~1.4× / ~4×: the
        // fold is about as good as random on the unsharded families and up
        // to ~1.7× worse on the sharded ones, but bounded on *every*
        // family, where the bare multiply spreads sequential ids perfectly
        // and piles strided or tag-only-differing ones 8–64× deep.
        for (name, ids) in families() {
            let factors = if name.starts_with("shard-") {
                [(7, 1.5), (10, 2.5), (14, 7.0)]
            } else {
                [(7, 1.5), (10, 2.25), (14, 4.5)]
            };
            for (bits, factor) in factors {
                let skew = bucket_skew(&ids, bits);
                assert!(
                    skew <= factor,
                    "{name}: fullest of 2^{bits} buckets holds {skew:.2}× uniform (> {factor})"
                );
            }
            let skew = tag_skew(&ids);
            assert!(skew <= 1.1, "{name}: commonest tag is {skew:.2}× uniform");
        }
    }

    #[test]
    fn high_bits_alone_move_the_bucket() {
        // The failure a bare multiply would have: ids equal in their low 34
        // bits must not share their low hash bits.
        let buckets: std::collections::BTreeSet<u64> = (0..64u64)
            .map(|shard| hash(7 | (shard << 34)) & 1023)
            .collect();
        assert!(
            buckets.len() >= 48,
            "64 shards hit {} buckets",
            buckets.len()
        );
    }

    #[test]
    fn an_alias_never_shares_its_ids_tag() {
        // `id` and `id | 1 << 63` live side by side in one table. Their
        // products differ exactly in the top bit, so the pair shares a
        // bucket in any table under 2^31 buckets — and is told apart by the
        // control tag without a key comparison.
        for id in 1..=1_000u64 {
            assert_ne!(hash(id) >> 57, hash(id | (1 << 63)) >> 57);
        }
    }

    #[test]
    fn recycling_keeps_small_and_proportionate_capacity_and_frees_the_rest() {
        let mut map: IdMap<u8> = IdMap::default();
        let mut vec: Vec<u64> = Vec::new();
        let fill = |map: &mut IdMap<u8>, vec: &mut Vec<u64>, n: u64| {
            for id in 0..n {
                map.insert(id, 0);
                vec.push(id);
            }
        };
        // Under the floor: kept whatever the last attempt used.
        fill(&mut map, &mut vec, 300);
        let (m, v) = (map.capacity(), vec.capacity());
        recycle_map(&mut map);
        recycle_vec(&mut vec);
        fill(&mut map, &mut vec, 2);
        recycle_map(&mut map);
        recycle_vec(&mut vec);
        assert_eq!((map.capacity(), vec.capacity()), (m, v));
        // Above the floor but used: kept.
        fill(&mut map, &mut vec, 100_000);
        let (m, v) = (map.capacity(), vec.capacity());
        recycle_map(&mut map);
        recycle_vec(&mut vec);
        assert_eq!((map.capacity(), vec.capacity()), (m, v));
        assert!(map.is_empty() && vec.is_empty());
        // Above the floor and out of proportion to the next attempt: freed.
        fill(&mut map, &mut vec, 2);
        recycle_map(&mut map);
        recycle_vec(&mut vec);
        assert!(map.capacity() <= RETAIN_FLOOR && vec.capacity() <= RETAIN_FLOOR);
    }

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u64, u32),
        Get(u64),
        Remove(u64),
        Clear,
    }

    /// Keys from a small pool (so operations meet) in every id shape.
    fn key() -> impl Strategy<Value = u64> {
        (0u64..48, 0u64..4, any::<bool>())
            .prop_map(|(seq, tag, alias)| seq | (tag << 34) | (tag << 40) | ((alias as u64) << 63))
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (key(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (key(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            key().prop_map(Op::Get),
            key().prop_map(Op::Remove),
            (0u32..40).prop_map(|n| if n == 0 { Op::Clear } else { Op::Get(n as u64) }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// `IdMap` is `HashMap` with another hasher: the same operations
        /// give the same answers as under the default one.
        #[test]
        fn id_map_agrees_with_the_default_hasher(ops in prop::collection::vec(op(), 1..400)) {
            let mut map: IdMap<u32> = IdMap::default();
            let mut model: HashMap<u64, u32> = HashMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => prop_assert_eq!(map.insert(k, v), model.insert(k, v)),
                    Op::Get(k) => prop_assert_eq!(map.get(&k), model.get(&k)),
                    Op::Remove(k) => prop_assert_eq!(map.remove(&k), model.remove(&k)),
                    Op::Clear => {
                        recycle_map(&mut map);
                        model.clear();
                    }
                }
                prop_assert_eq!(map.len(), model.len());
            }
            let mut left: Vec<_> = map.into_iter().collect();
            let mut right: Vec<_> = model.into_iter().collect();
            left.sort_unstable();
            right.sort_unstable();
            prop_assert_eq!(left, right);
        }
    }
}
