//! Workload inputs, generated up front from `--seed`. The program under
//! test receives these vectors and nothing else: no seed, no generator.
//! Runs longer than a vector cycle through it.

use lsa_wire::{Request, SetOp, TablesConfig};
use lsa_workloads::FastRng;

/// Transactional variables per engine table (per thread on `engine_short`).
pub const TABLE_VARS: usize = 4096;
/// Variables a read-only scan reads, and the width of a zero-sum block.
pub const SCAN_VARS: usize = 256;
/// Engine operations generated per thread, and wire requests generated per
/// workload. Enough that no cache or predictor can learn the sequence,
/// few enough that the inputs are a small part of `peak_rss_mb`.
pub const ENGINE_OPS: usize = 1 << 18;
pub const WIRE_REQS: usize = 1 << 18;

const UPDATE_BIT: u32 = 1 << 31;

/// An independent sub-seed per `(seed, stream)`: splitmix64's finalizer,
/// so neighbouring seeds and streams share no structure.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Two distinct draws below `n`.
fn distinct_pair(rng: &mut FastRng, n: usize) -> (usize, usize) {
    let a = rng.below(n);
    let b = (a + 1 + rng.below(n - 1)) % n;
    (a, b)
}

/// `engine_short` inputs for one thread: each op packs two distinct
/// variable indices of the thread's own partition, `a | b << 16`.
pub fn short_ops(seed: u64, thread: usize) -> Vec<u32> {
    let mut rng = FastRng::new(sub_seed(seed, thread as u64));
    (0..ENGINE_OPS)
        .map(|_| {
            let (a, b) = distinct_pair(&mut rng, TABLE_VARS);
            a as u32 | (b as u32) << 16
        })
        .collect()
}

/// Unpack a [`short_ops`] op.
pub fn short_pair(op: u32) -> (usize, usize) {
    ((op & 0xffff) as usize, (op >> 16) as usize)
}

/// One decoded `engine_scan` op. Updates stay inside one block of
/// [`SCAN_VARS`] variables, so every block sums to zero at every commit
/// and a scan of one block can assert it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanOp {
    /// Read the whole block in one read-only transaction.
    Scan { block: usize },
    /// Move one unit between two variables of the block.
    Update { from: usize, to: usize },
}

/// `engine_scan` inputs for one thread: 90% scans, 10% updates.
pub fn scan_ops(seed: u64, thread: usize) -> Vec<u32> {
    let mut rng = FastRng::new(sub_seed(seed, 16 + thread as u64));
    let blocks = TABLE_VARS / SCAN_VARS;
    (0..ENGINE_OPS)
        .map(|_| {
            let block = rng.below(blocks) as u32;
            if rng.percent(10) {
                let (i, j) = distinct_pair(&mut rng, SCAN_VARS);
                UPDATE_BIT | block << 16 | (i as u32) << 8 | j as u32
            } else {
                block
            }
        })
        .collect()
}

/// Unpack a [`scan_ops`] op.
pub fn scan_op(op: u32) -> ScanOp {
    if op & UPDATE_BIT == 0 {
        return ScanOp::Scan { block: op as usize };
    }
    let base = ((op >> 16) & 0xff) as usize * SCAN_VARS;
    ScanOp::Update {
        from: base + ((op >> 8) & 0xff) as usize,
        to: base + (op & 0xff) as usize,
    }
}

/// `wire_pipelined` inputs: hashset member 60 / insert 20 / remove 20.
pub fn hashset_requests(seed: u64, cfg: &TablesConfig) -> Vec<Request> {
    let mut rng = FastRng::new(sub_seed(seed, 32));
    (0..WIRE_REQS)
        .map(|_| {
            let op = match rng.below(10) {
                0..=5 => SetOp::Member,
                6 | 7 => SetOp::Insert,
                _ => SetOp::Remove,
            };
            Request::Hashset {
                op,
                key: rng.below(cfg.set_key_range as usize) as i64,
            }
        })
        .collect()
}

/// `wire_open` inputs: bank transfer 80 / whole-table audit 20.
pub fn bank_requests(seed: u64, cfg: &TablesConfig) -> Vec<Request> {
    let mut rng = FastRng::new(sub_seed(seed, 33));
    (0..WIRE_REQS)
        .map(|_| {
            if rng.percent(20) {
                Request::BankAudit
            } else {
                let (from, to) = distinct_pair(&mut rng, cfg.accounts as usize);
                Request::BankTransfer {
                    from: from as u32,
                    to: to as u32,
                    amount: rng.range(1, 100),
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(short_ops(7, 0), short_ops(7, 0));
        assert_ne!(short_ops(7, 0), short_ops(8, 0));
        assert_ne!(short_ops(7, 0), short_ops(7, 1));
        let cfg = TablesConfig::default();
        assert_eq!(bank_requests(7, &cfg), bank_requests(7, &cfg));
        assert_ne!(hashset_requests(7, &cfg), hashset_requests(8, &cfg));
    }

    #[test]
    fn ops_stay_in_range_and_keep_the_stated_mix() {
        for &op in short_ops(1, 0).iter().take(10_000) {
            let (a, b) = short_pair(op);
            assert!(a < TABLE_VARS && b < TABLE_VARS && a != b);
        }
        let ops = scan_ops(1, 1);
        let mut updates = 0;
        for &op in &ops {
            match scan_op(op) {
                ScanOp::Scan { block } => assert!(block < TABLE_VARS / SCAN_VARS),
                ScanOp::Update { from, to } => {
                    updates += 1;
                    assert!(from != to && from / SCAN_VARS == to / SCAN_VARS);
                    assert!(to < TABLE_VARS);
                }
            }
        }
        let share = updates as f64 / ops.len() as f64;
        assert!((0.09..0.11).contains(&share), "update share {share}");
        let cfg = TablesConfig::default();
        let audits = bank_requests(1, &cfg)
            .iter()
            .filter(|r| matches!(r, Request::BankAudit))
            .count() as f64;
        assert!((0.19..0.21).contains(&(audits / WIRE_REQS as f64)));
    }
}
