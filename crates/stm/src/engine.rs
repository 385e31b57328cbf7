//! [`lsa_engine::TxnEngine`] implementation for the LSA-RT runtime.
//!
//! This is the glue that lets every engine-generic workload and experiment
//! (see `lsa-workloads`, `lsa-harness`) run on LSA-RT: [`Stm`] is the engine,
//! [`ThreadHandle`] the per-thread handle, [`Txn`] the in-transaction view.
//! The impls are thin delegations — the generic surface adds no overhead
//! beyond what the native API already does (the `atomically` closure is
//! monomorphized per call site either way).

use crate::error::Abort;
use crate::lsa::Txn;
use crate::object::TVar;
use crate::stm::{Stm, ThreadHandle};
use lsa_engine::{EngineHandle, EngineResult, MemoryStats, StatsShard, TxnEngine, TxnOps};
use lsa_time::TimeBase;
use std::sync::Arc;

impl<B: TimeBase> TxnEngine for Stm<B> {
    type Abort = Abort;
    type Var<T: Send + Sync + 'static> = TVar<T, B::Ts>;
    type Handle = ThreadHandle<B>;

    fn new_var<T: Send + Sync + 'static>(&self, value: T) -> TVar<T, B::Ts> {
        self.new_tvar(value)
    }

    fn register(&self) -> ThreadHandle<B> {
        Stm::register(self)
    }

    fn engine_name(&self) -> String {
        format!("lsa-rt({})", self.time_base().name())
    }

    fn memory_stats(&self) -> MemoryStats {
        self.reclaim_stats()
    }

    fn peek<T: Send + Sync + 'static>(var: &TVar<T, B::Ts>) -> Arc<T> {
        var.snapshot_latest()
    }
}

impl<B: TimeBase> EngineHandle for ThreadHandle<B> {
    type Engine = Stm<B>;
    type Txn<'t>
        = Txn<'t, B>
    where
        Self: 't;

    fn atomically<R, F>(&mut self, body: F) -> R
    where
        F: for<'t> FnMut(&mut Txn<'t, B>) -> EngineResult<R, Stm<B>>,
    {
        ThreadHandle::atomically(self, body)
    }

    fn stats_shard(&self) -> &Arc<StatsShard> {
        &self.core.reclaim.stats
    }
}

impl<B: TimeBase> TxnOps for Txn<'_, B> {
    type Engine = Stm<B>;

    fn read<'t, T: Send + Sync + 'static>(
        &'t mut self,
        var: &TVar<T, B::Ts>,
    ) -> EngineResult<&'t T, Stm<B>> {
        Txn::read(self, var)
    }

    fn write<T: Send + Sync + 'static>(
        &mut self,
        var: &TVar<T, B::Ts>,
        value: T,
    ) -> EngineResult<(), Stm<B>> {
        Txn::write(self, var, value)
    }

    fn modify<T: Send + Sync + 'static>(
        &mut self,
        var: &TVar<T, B::Ts>,
        f: impl FnOnce(&T) -> T,
    ) -> EngineResult<(), Stm<B>> {
        Txn::modify(self, var, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_engine::EngineStats;
    use lsa_time::counter::SharedCounter;
    use lsa_time::hardware::HardwareClock;

    /// A fully generic transaction exercised through the trait surface only.
    fn generic_double<E: TxnEngine>(engine: &E) -> i64 {
        let v = engine.new_var(21i64);
        let mut h = engine.register();
        h.atomically(|tx| {
            let cur = *tx.read(&v)?;
            tx.write(&v, cur * 2)?;
            tx.modify(&v, |x| *x)?;
            tx.read(&v).copied()
        })
    }

    #[test]
    fn lsa_rt_is_a_txn_engine() {
        let stm = Stm::new(SharedCounter::new());
        assert_eq!(generic_double(&stm), 42);
        assert_eq!(stm.engine_name(), "lsa-rt(shared-counter)");
        let stm = Stm::new(HardwareClock::mmtimer_free());
        assert_eq!(generic_double(&stm), 42);
        assert!(stm.engine_name().starts_with("lsa-rt(mmtimer"));
    }

    #[test]
    fn engine_stats_mirror_native_stats() {
        // The handle's statistics are its shard, read out: a fresh handle
        // reads zero, and each transaction moves the shard it owns.
        let stm = Stm::new(SharedCounter::new());
        let v = stm.new_tvar(0u64);
        let mut h = Stm::register(&stm);
        assert_eq!(h.engine_stats(), EngineStats::default());
        for _ in 0..5 {
            ThreadHandle::atomically(&mut h, |tx| tx.modify(&v, |x| x + 1));
        }
        let _ = ThreadHandle::atomically(&mut h, |tx| tx.read(&v).copied());
        let es = h.engine_stats();
        assert_eq!(es, h.stats_shard().engine_stats());
        assert_eq!((es.commits, es.ro_commits, es.aborts), (5, 1, 0));
        assert_eq!((es.reads, es.writes), (6, 5));
    }

    #[test]
    fn peek_matches_snapshot_latest() {
        let stm = Stm::new(SharedCounter::new());
        let v = stm.new_tvar(7i32);
        assert_eq!(*<Stm<SharedCounter> as TxnEngine>::peek(&v), 7);
    }

    #[test]
    fn engine_stats_carry_the_abort_taxonomy() {
        // Each native reason is counted under its class at the abort site:
        // an explicit retry is contention, and nothing else fired.
        let stm = Stm::new(SharedCounter::new());
        let mut h = Stm::register(&stm);
        let _ = h.try_atomically(2, |tx| Err::<(), _>(tx.abort_retry()));
        let es = h.engine_stats();
        assert_eq!(es.abort_reasons.contention, 2);
        assert_eq!(es.abort_reasons.total(), es.aborts);
        assert_eq!(es.revalidation_failures, 0);
    }
}
