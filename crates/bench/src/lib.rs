//! # lsa-bench — Criterion micro-benchmarks for the SPAA'07 reproduction
//!
//! | bench target | paper artifact |
//! |---|---|
//! | `stm_ops` | LSA-RT primitive costs (open/commit/extend ablations) |
//! | `queue_bench` | serving-path queue, oneshot and buffer costs |
//! | `obs_bench` | instrumentation micro-costs |
//!
//! The benches are deliberately small so `cargo bench --workspace` finishes
//! on a laptop. Figure 1, Figure 2, EXP-TB, EXP-ERR and EXP-VAL have one
//! implementation each: the `fig1`, `fig2` and `timebase_overhead` harness
//! binaries, and `matrix --dev` and `matrix scan --size`.
//!
//! This library exposes tiny helpers shared by the bench targets.

#![deny(missing_docs)]
#![deny(unsafe_code)]

use lsa_stm::{Stm, TVar};
use lsa_time::TimeBase;

/// Build an STM + `n` zero-initialized `u64` TVars on the given time base.
pub fn stm_with_vars<B: TimeBase>(tb: B, n: usize) -> (Stm<B>, Vec<TVar<u64, B::Ts>>) {
    let stm = Stm::new(tb);
    let vars = (0..n).map(|_| stm.new_tvar(0u64)).collect();
    (stm, vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_time::counter::SharedCounter;

    #[test]
    fn helper_builds_requested_vars() {
        let (_stm, vars) = stm_with_vars(SharedCounter::new(), 7);
        assert_eq!(vars.len(), 7);
    }
}
