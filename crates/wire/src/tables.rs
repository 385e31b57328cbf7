//! Request/reply message types and the server-hosted transactional tables
//! they operate on.
//!
//! The wire protocol does not ship closures — it ships *named operations*
//! against tables both sides agree on: a bank (transfer/audit over `i64`
//! accounts), a sorted-list integer set, and a bucketed hash set. The
//! server builds these on its engine at startup ([`Tables::build`]); each
//! decoded [`Request`] becomes one transaction against them, executed on an
//! `lsa-service` worker. The harness's `open_loop` load generator submits
//! these same requests in process and over the socket, so its two
//! transports' rows differ only by the wire.

use crate::frame::{ErrorCode, Frame, FrameError, Opcode};
use lsa_engine::{EngineHandle, EngineVar, TxnEngine, TxnOps};
use lsa_workloads::{HashSetT, IntSetList};

/// A set operation discriminant shared by the intset and hashset opcodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SetOp {
    /// Membership test (read-only).
    Member = 0,
    /// Insert; reply is whether the key was newly added.
    Insert = 1,
    /// Remove; reply is whether the key was present.
    Remove = 2,
}

impl SetOp {
    fn from_u8(b: u8) -> Result<SetOp, FrameError> {
        Ok(match b {
            0 => SetOp::Member,
            1 => SetOp::Insert,
            2 => SetOp::Remove,
            _ => return Err(FrameError::BadPayload("set op out of range")),
        })
    }
}

/// One decoded request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Move `amount` from one account to another.
    BankTransfer {
        /// Source account index.
        from: u32,
        /// Destination account index.
        to: u32,
        /// Amount to move.
        amount: i64,
    },
    /// Read every account in one transaction; reply with the total.
    BankAudit,
    /// Operation on the sorted-list set.
    Intset {
        /// Which operation.
        op: SetOp,
        /// The key.
        key: i64,
    },
    /// Operation on the hash set.
    Hashset {
        /// Which operation.
        op: SetOp,
        /// The key.
        key: i64,
    },
    /// Live metrics scrape. The server answers inline on the connection
    /// reader with a [`Reply::Stats`] JSON snapshot — it never rides the
    /// service queues, so it stays answerable while the workload is shed.
    Stats,
}

impl Request {
    /// The opcode this request travels under.
    pub fn opcode(&self) -> Opcode {
        match self {
            Request::Ping => Opcode::Ping,
            Request::BankTransfer { .. } => Opcode::BankTransfer,
            Request::BankAudit => Opcode::BankAudit,
            Request::Intset { .. } => Opcode::IntsetOp,
            Request::Hashset { .. } => Opcode::HashsetOp,
            Request::Stats => Opcode::Stats,
        }
    }

    /// Append the payload encoding to `buf`.
    pub fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Ping | Request::BankAudit | Request::Stats => {}
            Request::BankTransfer { from, to, amount } => {
                buf.extend_from_slice(&from.to_le_bytes());
                buf.extend_from_slice(&to.to_le_bytes());
                buf.extend_from_slice(&amount.to_le_bytes());
            }
            Request::Intset { op, key } | Request::Hashset { op, key } => {
                buf.push(*op as u8);
                buf.extend_from_slice(&key.to_le_bytes());
            }
        }
    }

    /// Decode a request from a frame. Response opcodes and malformed
    /// payloads yield typed errors, never panics.
    pub fn decode(frame: &Frame<'_>) -> Result<Request, FrameError> {
        let p = frame.payload;
        let exact = |n: usize| {
            if p.len() == n {
                Ok(())
            } else {
                Err(FrameError::BadPayload("payload length mismatch"))
            }
        };
        match frame.header.opcode {
            Opcode::Ping => {
                exact(0)?;
                Ok(Request::Ping)
            }
            Opcode::BankTransfer => {
                exact(16)?;
                Ok(Request::BankTransfer {
                    from: u32::from_le_bytes(p[0..4].try_into().unwrap()),
                    to: u32::from_le_bytes(p[4..8].try_into().unwrap()),
                    amount: i64::from_le_bytes(p[8..16].try_into().unwrap()),
                })
            }
            Opcode::BankAudit => {
                exact(0)?;
                Ok(Request::BankAudit)
            }
            Opcode::IntsetOp => {
                exact(9)?;
                Ok(Request::Intset {
                    op: SetOp::from_u8(p[0])?,
                    key: i64::from_le_bytes(p[1..9].try_into().unwrap()),
                })
            }
            Opcode::HashsetOp => {
                exact(9)?;
                Ok(Request::Hashset {
                    op: SetOp::from_u8(p[0])?,
                    key: i64::from_le_bytes(p[1..9].try_into().unwrap()),
                })
            }
            Opcode::Stats => {
                exact(0)?;
                Ok(Request::Stats)
            }
            Opcode::RespOk | Opcode::RespOverloaded | Opcode::RespError | Opcode::RespStats => {
                Err(FrameError::BadPayload("response opcode in request stream"))
            }
        }
    }
}

/// One decoded reply. Not `Copy`: [`Reply::Stats`] owns its JSON bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Ack with no value (ping, transfer).
    Ok,
    /// The audit total.
    Total(i64),
    /// Set-operation result (membership / inserted / removed).
    Flag(bool),
    /// Metrics snapshot: a UTF-8 JSON document.
    Stats(Vec<u8>),
    /// The service shed the request — the typed backpressure signal.
    Overloaded,
    /// Request-level failure.
    Error(ErrorCode),
}

impl Reply {
    /// The opcode this reply travels under.
    pub fn opcode(&self) -> Opcode {
        match self {
            Reply::Overloaded => Opcode::RespOverloaded,
            Reply::Error(_) => Opcode::RespError,
            Reply::Stats(_) => Opcode::RespStats,
            _ => Opcode::RespOk,
        }
    }

    /// Append the payload encoding to `buf`.
    pub fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Reply::Ok | Reply::Overloaded => {}
            Reply::Total(v) => buf.extend_from_slice(&v.to_le_bytes()),
            Reply::Flag(b) => buf.push(*b as u8),
            Reply::Stats(json) => buf.extend_from_slice(json),
            Reply::Error(code) => buf.push(*code as u8),
        }
    }

    /// Decode a reply from a frame. `RespOk` payloads are disambiguated by
    /// length (empty ack, 1-byte flag, 8-byte total) — the request side
    /// knows which it expects; the decoder only validates well-formedness.
    pub fn decode(frame: &Frame<'_>) -> Result<Reply, FrameError> {
        let p = frame.payload;
        match frame.header.opcode {
            Opcode::RespOk => match p.len() {
                0 => Ok(Reply::Ok),
                1 => match p[0] {
                    0 => Ok(Reply::Flag(false)),
                    1 => Ok(Reply::Flag(true)),
                    _ => Err(FrameError::BadPayload("flag byte out of range")),
                },
                8 => Ok(Reply::Total(i64::from_le_bytes(p.try_into().unwrap()))),
                _ => Err(FrameError::BadPayload("unrecognized RespOk payload")),
            },
            Opcode::RespOverloaded => {
                if p.is_empty() {
                    Ok(Reply::Overloaded)
                } else {
                    Err(FrameError::BadPayload("overload reply carries no payload"))
                }
            }
            Opcode::RespError => {
                if p.len() == 1 {
                    Ok(Reply::Error(ErrorCode::from_u8(p[0])?))
                } else {
                    Err(FrameError::BadPayload("error reply is one code byte"))
                }
            }
            Opcode::RespStats => {
                if std::str::from_utf8(p).is_ok() {
                    Ok(Reply::Stats(p.to_vec()))
                } else {
                    Err(FrameError::BadPayload("stats reply is not UTF-8"))
                }
            }
            _ => Err(FrameError::BadPayload("request opcode in response stream")),
        }
    }
}

/// Sizing of the server-hosted tables.
#[derive(Clone, Copy, Debug)]
pub struct TablesConfig {
    /// Bank account count.
    pub accounts: u32,
    /// Initial balance per account (the audit invariant is
    /// `accounts * initial`).
    pub initial: i64,
    /// Intset keys are meaningful in `0..set_key_range`; half the even keys
    /// are pre-inserted so lookups traverse a stable-length list.
    pub set_key_range: i64,
    /// Hash-set bucket count.
    pub hash_buckets: usize,
}

impl Default for TablesConfig {
    fn default() -> Self {
        TablesConfig {
            accounts: 64,
            initial: 1_000,
            set_key_range: 128,
            hash_buckets: 32,
        }
    }
}

impl TablesConfig {
    /// The bank total every [`Request::BankAudit`] must observe — what a
    /// client checks audit replies against.
    pub fn expected_total(&self) -> i64 {
        self.accounts as i64 * self.initial
    }
}

/// The transactional tables a wire server serves, plus the request
/// interpreter. Cheap to clone (engine vars are shared handles) — each
/// connection reader holds a clone to build request closures from.
pub struct Tables<E: TxnEngine> {
    cfg: TablesConfig,
    accounts: Vec<EngineVar<E, i64>>,
    intset: IntSetList<E>,
    hashset: HashSetT<E>,
}

impl<E: TxnEngine> Clone for Tables<E> {
    fn clone(&self) -> Self {
        Tables {
            cfg: self.cfg,
            accounts: self.accounts.clone(),
            intset: self.intset.clone(),
            hashset: self.hashset.clone(),
        }
    }
}

impl<E: TxnEngine> Tables<E> {
    /// Build and seed the tables on `engine`.
    pub fn build(engine: &E, cfg: &TablesConfig) -> Self {
        assert!(cfg.accounts >= 2, "a transfer needs two accounts");
        assert!(cfg.set_key_range >= 2);
        let accounts = (0..cfg.accounts)
            .map(|_| engine.new_var(cfg.initial))
            .collect();
        let intset = IntSetList::new(engine.clone());
        let hashset = HashSetT::new(engine.clone(), cfg.hash_buckets);
        let mut h = engine.register();
        for k in (0..cfg.set_key_range).step_by(2) {
            intset.insert(&mut h, k);
            hashset.insert(&mut h, k);
        }
        Tables {
            cfg: *cfg,
            accounts,
            intset,
            hashset,
        }
    }

    /// The sizing the tables were built with.
    pub fn config(&self) -> &TablesConfig {
        &self.cfg
    }

    /// The invariant audit total (what [`Request::BankAudit`] must observe).
    pub fn expected_total(&self) -> i64 {
        self.cfg.expected_total()
    }

    /// The bank total in one transaction. The running sum wraps: transfers
    /// conserve `accounts * initial`, so the wrapped sum of a consistent
    /// snapshot is exact however far a peer spreads the balances.
    fn sum(&self, h: &mut E::Handle) -> i64 {
        h.atomically(|tx| {
            let mut sum = 0i64;
            for a in &self.accounts {
                sum = sum.wrapping_add(*tx.read(a)?);
            }
            Ok(sum)
        })
    }

    /// Execute one request as a transaction on `handle`. A well-formed but
    /// invalid request — an out-of-range or repeated account, a transfer
    /// that would overflow a balance, an intset key on a sentinel
    /// (`i64::MIN`, `i64::MAX`) — is a request-level error, not a panic:
    /// the wire accepts arbitrary peers.
    pub fn apply(&self, h: &mut E::Handle, req: &Request) -> Reply {
        match *req {
            Request::Ping => Reply::Ok,
            Request::BankTransfer { from, to, amount } => {
                let n = self.accounts.len() as u32;
                if from >= n || to >= n || from == to {
                    return Reply::Error(ErrorCode::BadPayload);
                }
                let a = &self.accounts[from as usize];
                let b = &self.accounts[to as usize];
                let moved = h.atomically(|tx| {
                    let va = *tx.read(a)?;
                    let vb = *tx.read(b)?;
                    let (Some(va), Some(vb)) = (va.checked_sub(amount), vb.checked_add(amount))
                    else {
                        return Ok(false);
                    };
                    tx.write(a, va)?;
                    tx.write(b, vb)?;
                    Ok(true)
                });
                if moved {
                    Reply::Ok
                } else {
                    Reply::Error(ErrorCode::BadPayload)
                }
            }
            Request::BankAudit => Reply::Total(self.sum(h)),
            Request::Intset {
                key: i64::MIN | i64::MAX,
                ..
            } => Reply::Error(ErrorCode::BadPayload),
            Request::Intset { op, key } => Reply::Flag(match op {
                SetOp::Member => self.intset.contains(h, key),
                SetOp::Insert => self.intset.insert(h, key),
                SetOp::Remove => self.intset.remove(h, key),
            }),
            Request::Hashset { op, key } => Reply::Flag(match op {
                SetOp::Member => self.hashset.contains(h, key),
                SetOp::Insert => self.hashset.insert(h, key),
                SetOp::Remove => self.hashset.remove(h, key),
            }),
            // The server answers stats inline on the connection reader (the
            // tables have no registry); a direct apply yields an empty
            // snapshot so the interpreter stays total.
            Request::Stats => Reply::Stats(b"{}".to_vec()),
        }
    }

    /// Post-drain invariant audit with a fresh handle: bank conservation,
    /// intset order and hash-set placement. Called by the server after
    /// shutdown drains and by the harness after a closed-loop run.
    pub fn assert_quiescent(&self, engine: &E) {
        let mut h = engine.register();
        assert_eq!(
            self.sum(&mut h),
            self.expected_total(),
            "bank invariant broken on {}",
            engine.engine_name()
        );
        let keys = self.intset.to_vec(&mut h);
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "intset lost sortedness/uniqueness on {}",
            engine.engine_name()
        );
        self.hashset.assert_placement();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_frame, encode_frame};
    use lsa_stm::Stm;
    use lsa_time::counter::SharedCounter;

    fn roundtrip_request(req: Request) {
        let mut buf = Vec::new();
        encode_frame(&mut buf, req.opcode(), 77, Some(2), |b| {
            req.encode_payload(b)
        });
        let (frame, _) = decode_frame(&buf).unwrap().unwrap();
        assert_eq!(Request::decode(&frame).unwrap(), req);
    }

    fn roundtrip_reply(reply: Reply) {
        let mut buf = Vec::new();
        encode_frame(&mut buf, reply.opcode(), 77, None, |b| {
            reply.encode_payload(b)
        });
        let (frame, _) = decode_frame(&buf).unwrap().unwrap();
        assert_eq!(Reply::decode(&frame).unwrap(), reply);
    }

    #[test]
    fn requests_and_replies_roundtrip() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::BankTransfer {
            from: 3,
            to: 9,
            amount: -17,
        });
        roundtrip_request(Request::BankAudit);
        roundtrip_request(Request::Stats);
        for op in [SetOp::Member, SetOp::Insert, SetOp::Remove] {
            roundtrip_request(Request::Intset { op, key: -5 });
            roundtrip_request(Request::Hashset {
                op,
                key: i64::MAX - 1,
            });
        }
        roundtrip_reply(Reply::Ok);
        roundtrip_reply(Reply::Total(-123456789));
        roundtrip_reply(Reply::Flag(true));
        roundtrip_reply(Reply::Flag(false));
        roundtrip_reply(Reply::Stats(br#"{"counters":{}}"#.to_vec()));
        roundtrip_reply(Reply::Overloaded);
        roundtrip_reply(Reply::Error(ErrorCode::BadPayload));
        roundtrip_reply(Reply::Error(ErrorCode::Shutdown));
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        // Transfer payload one byte short.
        let mut buf = Vec::new();
        encode_frame(&mut buf, Opcode::BankTransfer, 1, None, |b| {
            b.extend_from_slice(&[0u8; 15])
        });
        let (frame, _) = decode_frame(&buf).unwrap().unwrap();
        assert!(matches!(
            Request::decode(&frame),
            Err(FrameError::BadPayload(_))
        ));
        // Set op discriminant out of range.
        let mut buf = Vec::new();
        encode_frame(&mut buf, Opcode::IntsetOp, 1, None, |b| {
            b.push(9);
            b.extend_from_slice(&0i64.to_le_bytes());
        });
        let (frame, _) = decode_frame(&buf).unwrap().unwrap();
        assert!(matches!(
            Request::decode(&frame),
            Err(FrameError::BadPayload(_))
        ));
        // Response opcode where a request is expected.
        let mut buf = Vec::new();
        encode_frame(&mut buf, Opcode::RespOk, 1, None, |_| {});
        let (frame, _) = decode_frame(&buf).unwrap().unwrap();
        assert!(Request::decode(&frame).is_err());
    }

    #[test]
    fn tables_apply_all_request_kinds() {
        let engine = Stm::new(SharedCounter::new());
        let tables = Tables::build(&engine, &TablesConfig::default());
        let mut h = engine.register();
        assert_eq!(tables.apply(&mut h, &Request::Ping), Reply::Ok);
        assert_eq!(
            tables.apply(
                &mut h,
                &Request::BankTransfer {
                    from: 0,
                    to: 1,
                    amount: 50
                }
            ),
            Reply::Ok
        );
        assert_eq!(
            tables.apply(&mut h, &Request::BankAudit),
            Reply::Total(tables.expected_total())
        );
        // Seeded with even keys: key 2 is present, key 3 is not.
        assert_eq!(
            tables.apply(
                &mut h,
                &Request::Intset {
                    op: SetOp::Member,
                    key: 2
                }
            ),
            Reply::Flag(true)
        );
        let hashset = |op, key| Request::Hashset { op, key };
        for (op, key, flag) in [
            (SetOp::Insert, 3, true),
            (SetOp::Insert, 3, false),
            (SetOp::Member, 3, true),
            (SetOp::Remove, 3, true),
            (SetOp::Remove, 3, false),
            (SetOp::Remove, 2, true),
            (SetOp::Member, 2, false),
            (SetOp::Insert, -7, true),
        ] {
            assert_eq!(
                tables.apply(&mut h, &hashset(op, key)),
                Reply::Flag(flag),
                "{op:?} {key}"
            );
        }
        // Out-of-range account: request-level error, no panic.
        assert_eq!(
            tables.apply(
                &mut h,
                &Request::BankTransfer {
                    from: 0,
                    to: 10_000,
                    amount: 1
                }
            ),
            Reply::Error(ErrorCode::BadPayload)
        );
        // Sentinel intset keys: a typed error, nothing applied.
        for op in [SetOp::Member, SetOp::Insert, SetOp::Remove] {
            for key in [i64::MIN, i64::MAX] {
                assert_eq!(
                    tables.apply(&mut h, &Request::Intset { op, key }),
                    Reply::Error(ErrorCode::BadPayload),
                    "{op:?} {key}"
                );
            }
        }
        // A transfer that would overflow a balance writes nothing.
        let transfer = |from, to, amount| Request::BankTransfer { from, to, amount };
        for amount in [i64::MIN, i64::MAX] {
            assert_eq!(
                tables.apply(&mut h, &transfer(0, 1, amount)),
                Reply::Error(ErrorCode::BadPayload),
                "amount {amount}"
            );
        }
        // Balances spread until a plain running sum would overflow: the
        // audit still reads the invariant total.
        assert_eq!(tables.apply(&mut h, &transfer(2, 0, 1 << 62)), Reply::Ok);
        assert_eq!(tables.apply(&mut h, &transfer(3, 1, 1 << 62)), Reply::Ok);
        assert_eq!(
            tables.apply(&mut h, &Request::BankAudit),
            Reply::Total(tables.expected_total())
        );
        tables.assert_quiescent(&engine);
    }
}
