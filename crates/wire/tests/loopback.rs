//! End-to-end loopback tests: a real [`WireServer`] on an ephemeral TCP
//! port, driven by [`WireClient`]s (and, for the adversarial cases, raw
//! sockets) — covering correctness under concurrency, typed overload
//! shedding, malformed-peer handling, and client reconnect across a server
//! restart.

use lsa_stm::Stm;
use lsa_time::counter::SharedCounter;
use lsa_wire::frame::{decode_frame, encode_frame, ReadBuf, WIRE_VERSION};
use lsa_wire::tables::{Reply, Request, SetOp, TablesConfig};
use lsa_wire::{ErrorCode, Opcode, ServerConfig, WireClient, WireError, WireServer};
use std::io::{Read, Write};
use std::net::TcpStream;

fn stm() -> Stm<SharedCounter> {
    Stm::new(SharedCounter::new())
}

fn small_cfg() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_depth: 64,
        window: 32,
        tables: TablesConfig::default(),
    }
}

#[test]
fn ping_and_every_request_kind_roundtrip() {
    let server = WireServer::start(stm(), "127.0.0.1:0", small_cfg()).unwrap();
    let client = WireClient::connect(server.local_addr(), 1).unwrap();

    assert!(matches!(client.call(&Request::Ping), Ok(Reply::Ok)));
    assert!(matches!(
        client.call(&Request::BankTransfer {
            from: 0,
            to: 1,
            amount: 25
        }),
        Ok(Reply::Ok)
    ));
    let total = TablesConfig::default().accounts as i64 * TablesConfig::default().initial;
    assert!(matches!(
        client.call(&Request::BankAudit),
        Ok(Reply::Total(t)) if t == total
    ));
    // Tables seed even keys: 2 is present, 3 is not.
    assert!(matches!(
        client.call(&Request::Intset {
            op: SetOp::Member,
            key: 2
        }),
        Ok(Reply::Flag(true))
    ));
    assert!(matches!(
        client.call(&Request::Hashset {
            op: SetOp::Insert,
            key: 3
        }),
        Ok(Reply::Flag(true))
    ));
    assert!(matches!(
        client.call(&Request::Hashset {
            op: SetOp::Remove,
            key: 3
        }),
        Ok(Reply::Flag(true))
    ));
    // Out-of-range transfer: a typed request-level error, connection lives.
    assert!(matches!(
        client.call(&Request::BankTransfer {
            from: 0,
            to: 99_999,
            amount: 1
        }),
        Ok(Reply::Error(ErrorCode::BadPayload))
    ));
    assert!(matches!(client.call(&Request::Ping), Ok(Reply::Ok)));

    drop(client);
    let report = server.shutdown();
    assert!(report.frames_in >= 8);
    assert_eq!(report.frames_in, report.frames_out);
    assert_eq!(report.protocol_errors, 0);
}

/// Many client threads pipelining transfers over shared lanes: the bank
/// invariant must hold at the end (the server's shutdown path asserts it),
/// and every request must get exactly one reply.
#[test]
fn concurrent_pipelined_transfers_preserve_invariants() {
    let server = WireServer::start(stm(), "127.0.0.1:0", small_cfg()).unwrap();
    let addr = server.local_addr();
    let client = WireClient::connect(addr, 4).unwrap();

    const THREADS: usize = 4;
    const PER_THREAD: usize = 200;
    const DEPTH: usize = 16;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let client = &client;
            s.spawn(move || {
                let mut inflight = Vec::with_capacity(DEPTH);
                for i in 0..PER_THREAD {
                    let from = ((t * 31 + i * 7) % 64) as u32;
                    let to = (from + 1 + (i % 62) as u32) % 64;
                    let req = Request::BankTransfer {
                        from,
                        to,
                        amount: 1 + (i % 5) as i64,
                    };
                    inflight.push(client.send(&req).expect("send"));
                    if inflight.len() == DEPTH {
                        for p in inflight.drain(..) {
                            assert!(matches!(p.wait(), Ok(Reply::Ok)));
                        }
                    }
                }
                for p in inflight {
                    assert!(matches!(p.wait(), Ok(Reply::Ok)));
                }
            });
        }
    });

    drop(client);
    let report = server.shutdown(); // asserts bank conservation post-drain
    assert_eq!(report.frames_in, (THREADS * PER_THREAD) as u64);
    assert_eq!(report.frames_in, report.frames_out);
    assert_eq!(report.service.submitted, report.frames_in);
}

/// A tiny service (1 worker, depth 1) flooded far past its capacity must
/// answer the excess with typed `Overloaded` replies — and the server's shed
/// accounting must agree with what the client observed.
#[test]
fn overload_sheds_with_typed_replies() {
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 1,
        window: 256,
        tables: TablesConfig::default(),
    };
    let server = WireServer::start(stm(), "127.0.0.1:0", cfg).unwrap();
    let client = WireClient::connect(server.local_addr(), 1).unwrap();

    const N: usize = 400;
    let pending: Vec<_> = (0..N)
        .map(|_| client.send(&Request::BankAudit).expect("send"))
        .collect();
    let mut ok = 0u64;
    let mut shed = 0u64;
    for p in pending {
        match p.wait().expect("every request gets a reply") {
            Reply::Total(_) => ok += 1,
            Reply::Overloaded => shed += 1,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(ok + shed, N as u64);
    assert!(ok > 0, "some audits must get through");

    drop(client);
    let report = server.shutdown();
    assert_eq!(
        report.service.shed, shed,
        "server-side shed accounting must match the typed replies observed"
    );
}

/// A malformed peer (bad version byte) gets a typed error frame and a
/// teardown — and the server survives to serve well-formed clients.
#[test]
fn malformed_peer_is_rejected_not_fatal() {
    let server = WireServer::start(stm(), "127.0.0.1:0", small_cfg()).unwrap();
    let addr = server.local_addr();

    // Speak version WIRE_VERSION+1 at the server.
    let mut rogue = TcpStream::connect(addr).unwrap();
    let mut buf = Vec::new();
    encode_frame(&mut buf, Opcode::Ping, 7, None, |_| {});
    buf[4] = WIRE_VERSION + 1;
    rogue.write_all(&buf).unwrap();
    // The server answers with a typed error frame, then closes.
    let mut rb = ReadBuf::new();
    let mut chunk = [0u8; 1024];
    let reply = loop {
        match decode_frame(rb.window()) {
            Ok(Some((frame, _))) => break Reply::decode(&frame).unwrap(),
            Ok(None) => match rogue.read(&mut chunk) {
                Ok(0) => panic!("connection closed before the error frame"),
                Ok(n) => rb.extend(&chunk[..n]),
                Err(e) => panic!("read failed: {e}"),
            },
            Err(e) => panic!("server sent an undecodable frame: {e}"),
        }
    };
    assert!(matches!(reply, Reply::Error(_)));
    assert_eq!(rogue.read(&mut chunk).unwrap(), 0, "stream must be closed");

    // A well-formed client is still served.
    let client = WireClient::connect(addr, 1).unwrap();
    assert!(matches!(client.call(&Request::Ping), Ok(Reply::Ok)));

    drop(client);
    let report = server.shutdown();
    assert_eq!(report.protocol_errors, 1);
}

/// Kill the server, restart it on the same port, and keep using the same
/// client: in-flight requests fail with `ConnectionLost`, and the lanes
/// reconnect lazily so later calls succeed.
#[test]
fn client_reconnects_across_server_restart() {
    let first = WireServer::start(stm(), "127.0.0.1:0", small_cfg()).unwrap();
    let addr = first.local_addr();
    let client = WireClient::connect(addr, 2).unwrap();
    assert!(matches!(client.call(&Request::Ping), Ok(Reply::Ok)));
    assert!(matches!(client.call(&Request::Ping), Ok(Reply::Ok)));

    first.shutdown();

    // The old connections are dead: calls fail with a transport error until
    // a new server binds the same port.
    match client.call(&Request::Ping) {
        Ok(r) => panic!("call against a downed server succeeded: {r:?}"),
        Err(WireError::ConnectionLost) | Err(WireError::Io(_)) => {}
    }

    let second = WireServer::start(stm(), &addr.to_string(), small_cfg()).unwrap();
    let reply = client
        .call_retry(&Request::Ping, 20)
        .expect("lanes must reconnect to the restarted server");
    assert!(matches!(reply, Reply::Ok));
    // Both lanes heal, not just the one the retry exercised.
    for _ in 0..4 {
        assert!(matches!(
            client.call_retry(&Request::Ping, 20),
            Ok(Reply::Ok)
        ));
    }

    drop(client);
    second.shutdown();
}

/// Pull a `u64` counter/gauge value out of a snapshot JSON document by key.
/// A hand-rolled extractor is enough here: the format is the registry's own
/// `snapshot_json` (flat `"name":value` pairs, names never contain quotes).
fn json_value(json: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let at = json.find(&key)? + key.len();
    let digits: String = json[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// The tentpole's wire-served stats surface, live under load: while client
/// threads sweep transfers through the server, a `Stats` request over the
/// same wire returns a JSON snapshot carrying engine-, service-queue-, and
/// wire-layer metrics with values consistent with traffic actually flowing.
#[test]
fn live_stats_scrape_during_load_sweep() {
    let server = WireServer::start(stm(), "127.0.0.1:0", small_cfg()).unwrap();
    let client = WireClient::connect(server.local_addr(), 2).unwrap();

    let mut scraped = Vec::new();
    std::thread::scope(|s| {
        for t in 0..3usize {
            let client = &client;
            s.spawn(move || {
                for i in 0..300usize {
                    let from = ((t * 13 + i) % 64) as u32;
                    let to = (from + 3) % 64;
                    let r = client
                        .call(&Request::BankTransfer {
                            from,
                            to,
                            amount: 1,
                        })
                        .expect("call");
                    assert!(matches!(r, Reply::Ok | Reply::Overloaded));
                }
            });
        }
        // Scrape mid-run, over the same wire the workload is using.
        for _ in 0..5 {
            match client.call(&Request::Stats).expect("stats call") {
                Reply::Stats(json) => {
                    scraped.push(String::from_utf8(json).expect("snapshot is UTF-8"))
                }
                other => panic!("stats answered with {other:?}"),
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    });

    let last = scraped.last().expect("at least one scrape");
    // Wire layer: frames are flowing and the scrape itself is counted.
    assert!(json_value(last, "wire.frames_in").unwrap() > 0);
    assert!(json_value(last, "wire.frames_out").unwrap() > 0);
    assert!(json_value(last, "wire.op.bank_transfer").unwrap() > 0);
    assert!(json_value(last, "wire.op.stats").unwrap() >= 1);
    assert_eq!(json_value(last, "wire.protocol_errors"), Some(0));
    // Service queue layer: submissions observed, queue-depth gauge present.
    assert!(json_value(last, "service.submitted").unwrap() > 0);
    assert!(last.contains("\"service.queue_depth\":"));
    assert!(last.contains("\"service.latency_ns\":"));
    // Engine layer: transactions committed and wrote (folded per batch, so
    // a mid-run snapshot lags slightly but must be nonzero under load).
    assert!(json_value(last, "engine.commits").unwrap() > 0);
    assert!(json_value(last, "engine.writes").unwrap() > 0);
    assert!(last.contains("\"time.commit_ts.shared\""));
    // Scrapes are monotone: a later snapshot never sees fewer frames.
    let first = &scraped[0];
    assert!(
        json_value(last, "wire.frames_in").unwrap() >= json_value(first, "wire.frames_in").unwrap()
    );

    drop(client);
    let report = server.shutdown();
    // Stats replies ride frames_out but not the service: the ledger still
    // balances per layer.
    assert_eq!(report.frames_in, report.frames_out);
    assert!(report.frames_in >= 900 + 5);
}
