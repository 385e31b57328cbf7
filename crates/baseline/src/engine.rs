//! [`lsa_engine::TxnEngine`] implementations for the baseline engines.
//!
//! With these impls, TL2 and the validation STM plug into every
//! engine-generic workload and experiment exactly like LSA-RT — the
//! cross-engine matrix the paper's §1.2 survey motivates. The impls are thin
//! delegations to the engines' native APIs.

use crate::norec::{NorecAbort, NorecStm, NorecThread, NorecTxn, NorecVar};
use crate::tl2::{Tl2Abort, Tl2Result, Tl2Stm, Tl2Thread, Tl2Txn, Tl2Var};
use crate::validation::{ValAbort, ValThread, ValTxn, ValVar, ValidationMode, ValidationStm};
use lsa_engine::{EngineHandle, EngineResult, StatsShard, TxnEngine, TxnOps};
use lsa_time::TimeBase;
use std::sync::Arc;

// --- TL2 ---

impl<B: TimeBase<Ts = u64>> TxnEngine for Tl2Stm<B> {
    type Abort = Tl2Abort;
    type Var<T: Send + Sync + 'static> = Tl2Var<T>;
    type Handle = Tl2Thread<B>;

    fn new_var<T: Send + Sync + 'static>(&self, value: T) -> Tl2Var<T> {
        Tl2Stm::new_var(self, value)
    }

    fn register(&self) -> Tl2Thread<B> {
        Tl2Stm::register(self)
    }

    fn engine_name(&self) -> String {
        format!("tl2({})", self.time_base().name())
    }

    fn peek<T: Send + Sync + 'static>(var: &Tl2Var<T>) -> Arc<T> {
        var.snapshot_latest()
    }
}

impl<B: TimeBase<Ts = u64>> EngineHandle for Tl2Thread<B> {
    type Engine = Tl2Stm<B>;
    type Txn<'t>
        = Tl2Txn<'t, B>
    where
        Self: 't;

    fn atomically<R, F>(&mut self, body: F) -> R
    where
        F: for<'t> FnMut(&mut Tl2Txn<'t, B>) -> EngineResult<R, Tl2Stm<B>>,
    {
        Tl2Thread::atomically(self, body)
    }

    fn stats_shard(&self) -> &Arc<StatsShard> {
        &self.stats
    }
}

impl<B: TimeBase<Ts = u64>> TxnOps for Tl2Txn<'_, B> {
    type Engine = Tl2Stm<B>;

    fn read<T: Send + Sync + 'static>(&mut self, var: &Tl2Var<T>) -> Tl2Result<Arc<T>> {
        Tl2Txn::read(self, var)
    }

    fn write<T: Send + Sync + 'static>(&mut self, var: &Tl2Var<T>, value: T) -> Tl2Result<()> {
        Tl2Txn::write(self, var, value)
    }

    fn modify<T: Send + Sync + 'static>(
        &mut self,
        var: &Tl2Var<T>,
        f: impl FnOnce(&T) -> T,
    ) -> Tl2Result<()> {
        Tl2Txn::modify(self, var, f)
    }
}

// --- Validation STM ---

impl TxnEngine for ValidationStm {
    type Abort = ValAbort;
    type Var<T: Send + Sync + 'static> = ValVar<T>;
    type Handle = ValThread;

    fn new_var<T: Send + Sync + 'static>(&self, value: T) -> ValVar<T> {
        ValidationStm::new_var(self, value)
    }

    fn register(&self) -> ValThread {
        ValidationStm::register(self)
    }

    fn engine_name(&self) -> String {
        match self.mode() {
            ValidationMode::Always => "validation(always)".into(),
            ValidationMode::CommitCounter => "validation(commit-counter)".into(),
        }
    }

    fn peek<T: Send + Sync + 'static>(var: &ValVar<T>) -> Arc<T> {
        var.snapshot_latest()
    }
}

impl EngineHandle for ValThread {
    type Engine = ValidationStm;
    type Txn<'t>
        = ValTxn<'t>
    where
        Self: 't;

    fn atomically<R, F>(&mut self, body: F) -> R
    where
        F: for<'t> FnMut(&mut ValTxn<'t>) -> EngineResult<R, ValidationStm>,
    {
        ValThread::atomically(self, body)
    }

    fn stats_shard(&self) -> &Arc<StatsShard> {
        &self.stats
    }
}

impl TxnOps for ValTxn<'_> {
    type Engine = ValidationStm;

    fn read<T: Send + Sync + 'static>(&mut self, var: &ValVar<T>) -> Result<Arc<T>, ValAbort> {
        ValTxn::read(self, var)
    }

    fn write<T: Send + Sync + 'static>(
        &mut self,
        var: &ValVar<T>,
        value: T,
    ) -> Result<(), ValAbort> {
        ValTxn::write(self, var, value)
    }

    fn modify<T: Send + Sync + 'static>(
        &mut self,
        var: &ValVar<T>,
        f: impl FnOnce(&T) -> T,
    ) -> Result<(), ValAbort> {
        ValTxn::modify(self, var, f)
    }
}

// --- NOrec ---

impl TxnEngine for NorecStm {
    type Abort = NorecAbort;
    type Var<T: Send + Sync + 'static> = NorecVar<T>;
    type Handle = NorecThread;

    fn new_var<T: Send + Sync + 'static>(&self, value: T) -> NorecVar<T> {
        NorecStm::new_var(self, value)
    }

    fn register(&self) -> NorecThread {
        NorecStm::register(self)
    }

    fn engine_name(&self) -> String {
        "norec(seqlock)".into()
    }

    fn peek<T: Send + Sync + 'static>(var: &NorecVar<T>) -> Arc<T> {
        var.snapshot_latest()
    }
}

impl EngineHandle for NorecThread {
    type Engine = NorecStm;
    type Txn<'t>
        = NorecTxn<'t>
    where
        Self: 't;

    fn atomically<R, F>(&mut self, body: F) -> R
    where
        F: for<'t> FnMut(&mut NorecTxn<'t>) -> EngineResult<R, NorecStm>,
    {
        NorecThread::atomically(self, body)
    }

    fn stats_shard(&self) -> &Arc<StatsShard> {
        &self.stats
    }
}

impl TxnOps for NorecTxn<'_> {
    type Engine = NorecStm;

    fn read<T: Send + Sync + 'static>(&mut self, var: &NorecVar<T>) -> Result<Arc<T>, NorecAbort> {
        NorecTxn::read(self, var)
    }

    fn write<T: Send + Sync + 'static>(
        &mut self,
        var: &NorecVar<T>,
        value: T,
    ) -> Result<(), NorecAbort> {
        NorecTxn::write(self, var, value)
    }

    fn modify<T: Send + Sync + 'static>(
        &mut self,
        var: &NorecVar<T>,
        f: impl FnOnce(&T) -> T,
    ) -> Result<(), NorecAbort> {
        NorecTxn::modify(self, var, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One generic body exercised through the trait surface only.
    fn generic_transfer<E: TxnEngine>(engine: &E) -> (i64, i64) {
        let a = engine.new_var(100i64);
        let b = engine.new_var(0i64);
        let mut h = engine.register();
        h.atomically(|tx| {
            let va = *tx.read(&a)?;
            tx.write(&a, va - 30)?;
            tx.modify(&b, |x| x + 30)?;
            Ok(())
        });
        (*E::peek(&a), *E::peek(&b))
    }

    #[test]
    fn tl2_is_a_txn_engine() {
        use lsa_time::counter::SharedCounter;
        use lsa_time::hardware::HardwareClock;
        let stm = Tl2Stm::new(SharedCounter::new());
        assert_eq!(generic_transfer(&stm), (70, 30));
        assert_eq!(stm.engine_name(), "tl2(shared-counter)");
        let stm = Tl2Stm::new(HardwareClock::mmtimer_free());
        assert_eq!(generic_transfer(&stm), (70, 30));
    }

    #[test]
    fn norec_is_a_txn_engine() {
        let stm = NorecStm::new();
        assert_eq!(generic_transfer(&stm), (70, 30));
        assert_eq!(stm.engine_name(), "norec(seqlock)");
        // Value-validation cost is visible on the shared stats surface: a
        // fresh read after the writer's commit revalidates `v` and fails.
        let v = stm.new_var(0u64);
        let v2 = stm.new_var(0u64);
        let mut h = TxnEngine::register(&stm);
        let mut w = TxnEngine::register(&stm);
        let mut first = true;
        h.atomically(|tx| {
            tx.read(&v)?;
            if first {
                first = false;
                w.atomically(|tx2| tx2.modify(&v, |x| x + 1));
            }
            tx.read(&v2)
        });
        let s = h.engine_stats();
        assert!(s.validations >= 1, "clock movement must trigger validation");
        assert!(
            s.revalidation_failures >= 1,
            "overwritten read must fail it"
        );
    }

    #[test]
    fn validation_is_a_txn_engine() {
        for mode in [ValidationMode::Always, ValidationMode::CommitCounter] {
            let stm = ValidationStm::new(mode);
            assert_eq!(generic_transfer(&stm), (70, 30));
        }
        assert_eq!(
            ValidationStm::new(ValidationMode::Always).engine_name(),
            "validation(always)"
        );
    }

    #[test]
    fn cloned_runtimes_share_the_var_id_sequence() {
        let a = Tl2Stm::new(lsa_time::counter::SharedCounter::new());
        let b = a.clone();
        let v1 = a.new_var(0u8);
        let v2 = b.new_var(0u8);
        assert_ne!(v1.id(), v2.id(), "clones must not hand out colliding ids");

        let a = ValidationStm::new(ValidationMode::Always);
        let b = a.clone();
        assert_ne!(a.new_var(0u8).id(), b.new_var(0u8).id());
    }

    #[test]
    fn baseline_engine_stats_surface() {
        let stm = Tl2Stm::new(lsa_time::counter::SharedCounter::new());
        let v = stm.new_var(0u64);
        let mut h = TxnEngine::register(&stm);
        for _ in 0..3 {
            h.atomically(|tx| tx.modify(&v, |x| x + 1));
        }
        let s = h.engine_stats();
        assert_eq!(s.commits, 3);
        assert_eq!(s.aborts, 0);
        assert_eq!(
            s,
            h.stats.engine_stats(),
            "the handle's stats are its shard"
        );
        let fresh = TxnEngine::register(&stm);
        assert_eq!(fresh.engine_stats(), lsa_engine::EngineStats::default());
    }
}
