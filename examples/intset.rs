//! Transactional data structures under contention: sorted linked-list set
//! and hash set.
//!
//! The linked list produces long traversals (big read sets) and frequent
//! write-write conflicts near the head, which the runtime's one conflict
//! policy resolves by killing the registered writer (§2.3).
//!
//! Run with: `cargo run --release --example intset`

use lsa_rt::prelude::*;
use lsa_rt::workloads::{FastRng, HashSetT, IntSetList};
use std::time::Instant;

fn list_run() {
    let set = IntSetList::new(Stm::new(PerfectClock::new()));
    let mut h = set.engine().register();
    for k in (0..128).step_by(2) {
        set.insert(&mut h, k);
    }
    let start = Instant::now();
    let (ops, aborts) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let set = &set;
                s.spawn(move || {
                    let mut h = set.engine().register();
                    let mut rng = FastRng::new(t as u64 + 42);
                    let ops = 2_000;
                    for _ in 0..ops {
                        let key = rng.range(0, 128);
                        match rng.below(10) {
                            0..=3 => {
                                set.insert(&mut h, key);
                            }
                            4..=7 => {
                                set.remove(&mut h, key);
                            }
                            _ => {
                                set.contains(&mut h, key);
                            }
                        }
                    }
                    (ops as u64, h.engine_stats().aborts)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |acc, r| (acc.0 + r.0, acc.1 + r.1))
    });
    let elapsed = start.elapsed();
    let keys = set.to_vec(&mut h);
    assert!(
        keys.windows(2).all(|w| w[0] < w[1]),
        "list stays sorted+unique"
    );
    println!(
        "   {:>9.0} list-ops/s, {aborts} aborts, {} keys left",
        ops as f64 / elapsed.as_secs_f64(),
        keys.len()
    );
}

fn main() {
    println!("sorted linked-list set, 4 threads, 80% updates:");
    list_run();

    println!("\nhash set (64 buckets), 4 threads:");
    let set = HashSetT::new(Stm::new(PerfectClock::new()), 64);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..4i64 {
            let set = &set;
            s.spawn(move || {
                let mut h = set.engine().register();
                let mut rng = FastRng::new(t as u64 + 7);
                for _ in 0..10_000 {
                    let key = rng.range(0, 4_096);
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
    println!(
        "   {:>9.0} hash-ops/s, {} keys in the set",
        40_000.0 / start.elapsed().as_secs_f64(),
        set.len(&mut h)
    );
}
