//! Service-driven conformance: the engine-generic correctness suite of
//! `lsa_engine::conformance`, re-expressed as *concurrent request
//! submissions* through [`TxnService`].
//!
//! The engine suite certifies that an engine serializes transactions run
//! from dedicated per-thread handles. The serving layer changes the
//! topology — many clients multiplex onto few worker handles, requests
//! cross a queue, and a client's next request may run on a different
//! worker — so the same witnesses are re-checked end to end *through* the
//! service: the value-chain check certifies that concurrent submissions
//! commit a serializable history, the audit check that no request observes
//! a torn snapshot, and both assert the service's own accounting
//! (`completed == submitted`, nothing lost in the queues).

use crate::service::{ServiceConfig, SubmitError, TxnService};
use crate::Completion;
use lsa_engine::{EngineHandle, EngineVar, TxnEngine, TxnOps};
use std::sync::Arc;

/// Tiny deterministic generator (splitmix-style), mirroring the engine
/// suite's — no external dependency, identical behaviour on every engine.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
        self.0 >> 11
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Submit with retry-on-shed: conformance clients are closed-loop, so a
/// shed just means "try again" (the load generator, by contrast, *counts*
/// sheds — that is the open-loop difference).
fn submit_retrying<E, R, F>(svc: &TxnService<E>, body: F) -> Completion<R>
where
    E: TxnEngine,
    R: Send + 'static,
    F: Fn(&mut E::Handle) -> R + Send + Clone + 'static,
{
    loop {
        match svc.submit(body.clone()) {
            Ok(c) => return c,
            Err(SubmitError::Overloaded) => std::thread::yield_now(),
            Err(SubmitError::Closed) => panic!("service closed during conformance"),
        }
    }
}

/// Concurrent increment chains through the service: `clients` threads each
/// submit `per_client` read-increment-write requests over `objects`
/// variables; afterwards each object's observed read values must form the
/// gapless chain `0..n` — the committed history equals a sequential one
/// even though requests crossed queues and worker handles.
pub fn service_counter_chain<E: TxnEngine>(
    engine: &E,
    clients: usize,
    per_client: usize,
    objects: usize,
) {
    let name = engine.engine_name();
    let vars: Vec<EngineVar<E, u64>> = (0..objects).map(|_| engine.new_var(0u64)).collect();
    let svc = Arc::new(TxnService::start(
        engine.clone(),
        ServiceConfig {
            workers: 3,
            queue_depth: 64,
        },
    ));

    let log: Vec<(usize, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let svc = Arc::clone(&svc);
                let vars = vars.clone();
                s.spawn(move || {
                    let mut rng = Lcg(t as u64 + 1);
                    let mut local = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        let object = rng.below(vars.len());
                        let var = vars[object].clone();
                        let completion = submit_retrying(&svc, move |h: &mut E::Handle| {
                            let var = var.clone();
                            h.atomically(move |tx| {
                                let read = *tx.read(&var)?;
                                tx.write(&var, read + 1)?;
                                Ok(read)
                            })
                        });
                        let read = completion.wait().expect("service canceled a request").value;
                        local.push((object, read));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    let svc = Arc::into_inner(svc).expect("all clients joined");
    let report = svc.shutdown();
    assert_eq!(
        report.completed, report.submitted,
        "{name}: service lost accepted requests"
    );
    assert_eq!(
        report.completed as usize,
        clients * per_client,
        "{name}: completion count diverges from client count"
    );
    assert_eq!(
        report.latency.count(),
        report.completed,
        "{name}: every completion must be latency-accounted"
    );

    let mut log = log;
    log.sort_unstable();
    for (object, var) in vars.iter().enumerate() {
        let reads: Vec<u64> = log
            .iter()
            .filter(|&&(o, _)| o == object)
            .map(|&(_, r)| r)
            .collect();
        for (pos, &read) in reads.iter().enumerate() {
            assert_eq!(
                read, pos as u64,
                "{name}: object {object} read-chain has a gap or duplicate at \
                 position {pos} — service-committed history is not serializable"
            );
        }
        assert_eq!(
            *E::peek(var),
            reads.len() as u64,
            "{name}: object {object} final value diverges from its chain"
        );
    }
}

/// Concurrent transfers plus read-only audits through the service: no audit
/// request may ever observe a sum off the invariant total, and the
/// quiescent total must be conserved exactly.
pub fn service_audit_snapshot<E: TxnEngine>(
    engine: &E,
    writers: usize,
    auditors: usize,
    steps: usize,
) {
    const ACCOUNTS: usize = 6;
    const INITIAL: i64 = 200;
    let name = engine.engine_name();
    let vars: Vec<EngineVar<E, i64>> = (0..ACCOUNTS).map(|_| engine.new_var(INITIAL)).collect();
    let expected = ACCOUNTS as i64 * INITIAL;
    let svc = Arc::new(TxnService::start(
        engine.clone(),
        ServiceConfig {
            workers: 3,
            queue_depth: 32,
        },
    ));

    std::thread::scope(|s| {
        for t in 0..writers {
            let svc = Arc::clone(&svc);
            let vars = vars.clone();
            s.spawn(move || {
                let mut rng = Lcg(0xBEE5 + t as u64);
                for _ in 0..steps {
                    let from = rng.below(ACCOUNTS);
                    let to = (from + 1 + rng.below(ACCOUNTS - 1)) % ACCOUNTS;
                    let amount = (rng.next() % 7) as i64 - 3;
                    let (a, b) = (vars[from].clone(), vars[to].clone());
                    let c = submit_retrying(&svc, move |h: &mut E::Handle| {
                        let (a, b) = (a.clone(), b.clone());
                        h.atomically(move |tx| {
                            let va = *tx.read(&a)?;
                            let vb = *tx.read(&b)?;
                            tx.write(&a, va - amount)?;
                            tx.write(&b, vb + amount)?;
                            Ok(())
                        })
                    });
                    c.wait().expect("transfer canceled");
                }
            });
        }
        for _ in 0..auditors {
            let svc = Arc::clone(&svc);
            let vars = vars.clone();
            let name = name.clone();
            s.spawn(move || {
                for _ in 0..steps {
                    let vars2 = vars.clone();
                    let c = submit_retrying(&svc, move |h: &mut E::Handle| {
                        let vars = vars2.clone();
                        h.atomically(move |tx| {
                            let mut sum = 0i64;
                            for v in &vars {
                                sum += *tx.read(v)?;
                            }
                            Ok(sum)
                        })
                    });
                    let total = c.wait().expect("audit canceled").value;
                    assert_eq!(
                        total, expected,
                        "{name}: audit request observed a torn snapshot"
                    );
                }
            });
        }
    });

    let svc = Arc::into_inner(svc).expect("all clients joined");
    let report = svc.shutdown();
    assert_eq!(
        report.completed, report.submitted,
        "{name}: service lost accepted requests"
    );
    let total: i64 = vars.iter().map(|v| *E::peek(v)).sum();
    assert_eq!(total, expected, "{name}: quiescent total not conserved");
}

/// The whole service-driven suite at test-friendly sizes — the per-engine
/// hook the harness registry exposes next to the engine-level
/// `lsa_engine::conformance::full_suite`.
pub fn service_suite<E: TxnEngine>(engine: &E) {
    service_counter_chain(engine, 3, 120, 4);
    service_audit_snapshot(engine, 2, 2, 120);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_baseline::{NorecStm, Tl2Stm};
    use lsa_stm::Stm;
    use lsa_time::counter::SharedCounter;

    #[test]
    fn lsa_passes_the_service_suite() {
        service_suite(&Stm::new(SharedCounter::new()));
    }

    #[test]
    fn tl2_passes_the_service_suite() {
        service_suite(&Tl2Stm::new(SharedCounter::new()));
    }

    #[test]
    fn norec_passes_the_service_suite() {
        service_suite(&NorecStm::new());
    }
}
