//! The wire frame format and its codec.
//!
//! Every message on a connection — request or response — is one *frame*: a
//! little-endian length prefix followed by a fixed 16-byte header and an
//! opcode-specific payload.
//!
//! ```text
//! offset  size  field
//! 0       4     body length N (u32 LE) — bytes from offset 4 to frame end
//! 4       1     protocol version (WIRE_VERSION)
//! 5       1     opcode
//! 6       2     flags (reserved, must be zero)
//! 8       8     request id (u64 LE) — client-assigned, echoed by responses
//! 16      4     shard hint (u32 LE; NO_SHARD_HINT = none; no server reads it)
//! 20      N-16  payload
//! ```
//!
//! So `N >= 16` always, and a frame occupies `4 + N` bytes on the wire. The
//! body length is bounded by [`MAX_FRAME_BODY`]; a peer announcing more is a
//! protocol violation, caught *before* any allocation sized from the length
//! field — a malformed or hostile peer can never make the decoder reserve
//! unbounded memory.
//!
//! Decoding is zero-copy-leaning: [`decode_frame`] yields a [`Frame`] whose
//! payload *borrows* the connection's read buffer, so the hot serving path
//! parses requests without copying payload bytes. Every malformed input maps
//! to a typed [`FrameError`] — truncation is not an error (the streaming
//! decoder just waits for more bytes), but runt/oversized lengths, version
//! skew and unknown opcodes are, and none of them panic.

/// Protocol version this build speaks. Bumped on any incompatible layout
/// change; a peer announcing a different version is rejected with
/// [`FrameError::VersionSkew`] on its first frame.
pub const WIRE_VERSION: u8 = 1;

/// Fixed header bytes covered by the body length (version through shard
/// hint).
pub const HEADER_BODY: usize = 16;

/// Bytes of the length prefix itself.
pub const LEN_PREFIX: usize = 4;

/// Upper bound on the body length field: 1 MiB. Far above any payload this
/// protocol defines, far below anything that could pressure memory.
pub const MAX_FRAME_BODY: u32 = 1 << 20;

/// Shard-hint wire encoding for "no hint".
pub const NO_SHARD_HINT: u32 = u32::MAX;

/// Frame opcodes: requests in the low range, responses with the top bit
/// set. One shared enum keeps request/response framing symmetric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness / RTT probe; empty payload, answered with an empty `RespOk`.
    Ping = 0x01,
    /// Bank transfer: payload `from u32, to u32, amount i64`.
    BankTransfer = 0x02,
    /// Bank audit: empty payload; response payload is the total `i64`.
    BankAudit = 0x03,
    /// Sorted-list set operation: payload `op u8, key i64`.
    IntsetOp = 0x04,
    /// Hash-set operation: payload `op u8, key i64`.
    HashsetOp = 0x05,
    /// Live metrics scrape: empty payload, answered with [`Opcode::RespStats`]
    /// carrying a JSON snapshot. Served inline on the connection reader —
    /// never queued behind the transactional workload — so it stays
    /// answerable while the service sheds load.
    Stats = 0x06,
    /// Successful response; payload depends on the request opcode.
    RespOk = 0x80,
    /// The service shed the request (admission control) — the typed
    /// overload signal; empty payload.
    RespOverloaded = 0x81,
    /// Request-level failure; payload is one [`ErrorCode`] byte.
    RespError = 0x82,
    /// Metrics snapshot response: payload is a UTF-8 JSON document.
    RespStats = 0x83,
}

impl Opcode {
    /// Parse a wire byte into an opcode.
    pub fn from_u8(b: u8) -> Result<Opcode, FrameError> {
        Ok(match b {
            0x01 => Opcode::Ping,
            0x02 => Opcode::BankTransfer,
            0x03 => Opcode::BankAudit,
            0x04 => Opcode::IntsetOp,
            0x05 => Opcode::HashsetOp,
            0x06 => Opcode::Stats,
            0x80 => Opcode::RespOk,
            0x81 => Opcode::RespOverloaded,
            0x82 => Opcode::RespError,
            0x83 => Opcode::RespStats,
            other => return Err(FrameError::UnknownOpcode(other)),
        })
    }

    /// Whether this opcode is a request (client → server).
    pub fn is_request(self) -> bool {
        (self as u8) & 0x80 == 0
    }
}

/// Request-level error codes carried in a [`Opcode::RespError`] payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request payload did not parse for its opcode.
    BadPayload = 1,
    /// A response opcode arrived where a request was expected (or vice
    /// versa).
    WrongDirection = 2,
    /// The service is shutting down.
    Shutdown = 3,
}

impl ErrorCode {
    /// Parse a wire byte.
    pub fn from_u8(b: u8) -> Result<ErrorCode, FrameError> {
        Ok(match b {
            1 => ErrorCode::BadPayload,
            2 => ErrorCode::WrongDirection,
            3 => ErrorCode::Shutdown,
            _ => return Err(FrameError::BadPayload("unknown error code")),
        })
    }
}

/// Every way a frame can be malformed. Typed, total, and never a panic:
/// the conformance tests feed the decoder truncations, bit flips and
/// adversarial length fields and assert it answers with one of these (or
/// asks for more bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Body length below the fixed header size — no valid frame is this
    /// short.
    Runt(u32),
    /// Body length above [`MAX_FRAME_BODY`] — rejected before any buffer
    /// is sized from it.
    Oversized(u32),
    /// The peer speaks a different protocol version.
    VersionSkew {
        /// Version byte the peer sent.
        got: u8,
    },
    /// Opcode byte outside the defined set.
    UnknownOpcode(u8),
    /// Reserved flag bits were set.
    BadFlags(u16),
    /// The payload did not parse for the frame's opcode.
    BadPayload(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Runt(n) => write!(f, "runt frame: body length {n} < {HEADER_BODY}"),
            FrameError::Oversized(n) => {
                write!(f, "oversized frame: body length {n} > {MAX_FRAME_BODY}")
            }
            FrameError::VersionSkew { got } => {
                write!(f, "protocol version skew: got {got}, speak {WIRE_VERSION}")
            }
            FrameError::UnknownOpcode(b) => write!(f, "unknown opcode {b:#04x}"),
            FrameError::BadFlags(b) => write!(f, "reserved flag bits set: {b:#06x}"),
            FrameError::BadPayload(why) => write!(f, "bad payload: {why}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A decoded frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Message opcode.
    pub opcode: Opcode,
    /// Client-assigned request id, echoed verbatim by the response.
    pub req_id: u64,
    /// Optional shard hint ([`crate::shard_hint`]): carried and decoded,
    /// read by no server.
    pub shard: Option<u32>,
}

/// A decoded frame whose payload borrows the read buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The fixed header fields.
    pub header: FrameHeader,
    /// Opcode-specific payload bytes (zero-copy view into the input).
    pub payload: &'a [u8],
}

/// Append one encoded frame to `buf`. `payload` writes the payload bytes
/// into the same buffer (single-buffer, no intermediate allocation); the
/// length prefix is patched afterwards.
///
/// Panics only if the written payload exceeds [`MAX_FRAME_BODY`] — a caller
/// bug, not a wire condition (this codec never produces such payloads).
pub fn encode_frame(
    buf: &mut Vec<u8>,
    opcode: Opcode,
    req_id: u64,
    shard: Option<u32>,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; LEN_PREFIX]); // length placeholder
    buf.push(WIRE_VERSION);
    buf.push(opcode as u8);
    buf.extend_from_slice(&0u16.to_le_bytes()); // flags (reserved)
    buf.extend_from_slice(&req_id.to_le_bytes());
    buf.extend_from_slice(&shard.unwrap_or(NO_SHARD_HINT).to_le_bytes());
    payload(buf);
    let body = buf.len() - start - LEN_PREFIX;
    assert!(
        body <= MAX_FRAME_BODY as usize,
        "encoder produced an oversized frame ({body} bytes)"
    );
    buf[start..start + LEN_PREFIX].copy_from_slice(&(body as u32).to_le_bytes());
}

/// Try to decode one frame from the front of `buf`.
///
/// * `Ok(None)` — `buf` holds a truncated frame; read more bytes and retry
///   (truncation is a streaming condition, not an error).
/// * `Ok(Some((frame, consumed)))` — one complete frame; the caller drops
///   `consumed` bytes from the front of `buf` when done with the (borrowed)
///   payload.
/// * `Err(_)` — the stream is not a valid frame stream; the connection
///   cannot be resynchronized and should be torn down.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame<'_>, usize)>, FrameError> {
    if buf.len() < LEN_PREFIX {
        return Ok(None); // truncated length prefix
    }
    let body = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    if body < HEADER_BODY as u32 {
        return Err(FrameError::Runt(body));
    }
    if body > MAX_FRAME_BODY {
        return Err(FrameError::Oversized(body));
    }
    let total = LEN_PREFIX + body as usize;
    if buf.len() < total {
        return Ok(None); // truncated body
    }
    let version = buf[4];
    if version != WIRE_VERSION {
        return Err(FrameError::VersionSkew { got: version });
    }
    let opcode = Opcode::from_u8(buf[5])?;
    let flags = u16::from_le_bytes(buf[6..8].try_into().unwrap());
    if flags != 0 {
        return Err(FrameError::BadFlags(flags));
    }
    let req_id = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    let shard_raw = u32::from_le_bytes(buf[16..20].try_into().unwrap());
    let shard = (shard_raw != NO_SHARD_HINT).then_some(shard_raw);
    Ok(Some((
        Frame {
            header: FrameHeader {
                opcode,
                req_id,
                shard,
            },
            payload: &buf[LEN_PREFIX + HEADER_BODY..total],
        },
        total,
    )))
}

/// A growable read buffer with amortized-O(1) front consumption: bytes are
/// consumed by advancing a read offset, and the buffer compacts only when
/// the dead prefix dominates. This is what each connection reader feeds
/// socket reads into and decodes frames out of.
#[derive(Default)]
pub struct ReadBuf {
    data: Vec<u8>,
    start: usize,
}

impl ReadBuf {
    /// Empty buffer.
    pub fn new() -> Self {
        ReadBuf::default()
    }

    /// Append freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing when more than half the storage is dead
        // prefix — keeps the buffer at O(live bytes).
        if self.start > 0 && self.start >= self.data.len() / 2 {
            self.data.drain(..self.start);
            self.start = 0;
        }
        self.data.extend_from_slice(bytes);
    }

    /// The undecoded byte window.
    pub fn window(&self) -> &[u8] {
        &self.data[self.start..]
    }

    /// Mark `n` bytes at the front as decoded.
    pub fn consume(&mut self, n: usize) {
        self.start += n;
        debug_assert!(self.start <= self.data.len());
    }

    /// Bytes currently held (undecoded).
    pub fn len(&self) -> usize {
        self.data.len() - self.start
    }

    /// Whether no undecoded bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(opcode: Opcode, req_id: u64, shard: Option<u32>, payload: &[u8]) {
        let mut buf = Vec::new();
        encode_frame(&mut buf, opcode, req_id, shard, |b| {
            b.extend_from_slice(payload)
        });
        let (frame, consumed) = decode_frame(&buf).unwrap().expect("complete frame");
        assert_eq!(consumed, buf.len());
        assert_eq!(frame.header.opcode, opcode);
        assert_eq!(frame.header.req_id, req_id);
        assert_eq!(frame.header.shard, shard);
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn encode_decode_roundtrip() {
        roundtrip(Opcode::Ping, 0, None, &[]);
        roundtrip(Opcode::BankTransfer, u64::MAX, Some(7), &[1, 2, 3, 4]);
        roundtrip(Opcode::RespOk, 42, None, &9i64.to_le_bytes());
        roundtrip(Opcode::RespOverloaded, 1, Some(0), &[]);
    }

    #[test]
    fn truncation_asks_for_more_never_errors() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, Opcode::IntsetOp, 9, Some(3), |b| {
            b.extend_from_slice(&[0; 9])
        });
        for cut in 0..buf.len() {
            assert_eq!(
                decode_frame(&buf[..cut]).unwrap(),
                None,
                "prefix of {cut} bytes must be 'need more'"
            );
        }
        assert!(decode_frame(&buf).unwrap().is_some());
    }

    #[test]
    fn runt_and_oversized_lengths_are_typed_errors() {
        let mut runt = Vec::new();
        runt.extend_from_slice(&3u32.to_le_bytes());
        runt.extend_from_slice(&[0; 32]);
        assert_eq!(decode_frame(&runt), Err(FrameError::Runt(3)));

        let mut big = Vec::new();
        big.extend_from_slice(&(MAX_FRAME_BODY + 1).to_le_bytes());
        // Only the length prefix is present — the oversized check must fire
        // before waiting for (or allocating) the announced body.
        assert_eq!(
            decode_frame(&big),
            Err(FrameError::Oversized(MAX_FRAME_BODY + 1))
        );
    }

    #[test]
    fn version_skew_and_unknown_opcode_are_typed_errors() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, Opcode::Ping, 5, None, |_| {});
        let mut skew = buf.clone();
        skew[4] = WIRE_VERSION + 1;
        assert_eq!(
            decode_frame(&skew),
            Err(FrameError::VersionSkew {
                got: WIRE_VERSION + 1
            })
        );
        let mut unk = buf.clone();
        unk[5] = 0x7f;
        assert_eq!(decode_frame(&unk), Err(FrameError::UnknownOpcode(0x7f)));
        let mut flags = buf;
        flags[6] = 0xff;
        assert_eq!(decode_frame(&flags), Err(FrameError::BadFlags(0x00ff)));
    }

    #[test]
    fn back_to_back_frames_decode_in_order() {
        let mut buf = Vec::new();
        for id in 0..5u64 {
            encode_frame(&mut buf, Opcode::Ping, id, None, |_| {});
        }
        let mut rb = ReadBuf::new();
        rb.extend(&buf);
        for id in 0..5u64 {
            let (frame, n) = decode_frame(rb.window()).unwrap().unwrap();
            assert_eq!(frame.header.req_id, id);
            rb.consume(n);
        }
        assert!(rb.is_empty());
        assert_eq!(decode_frame(rb.window()).unwrap(), None);
    }

    #[test]
    fn read_buf_compacts_but_preserves_window() {
        let mut rb = ReadBuf::new();
        let mut frame = Vec::new();
        encode_frame(&mut frame, Opcode::Ping, 1, None, |_| {});
        // Feed many frames, consuming as we go: storage must not grow
        // linearly with total traffic.
        for _ in 0..1000 {
            rb.extend(&frame);
            let (_, n) = decode_frame(rb.window()).unwrap().unwrap();
            rb.consume(n);
        }
        assert!(rb.is_empty());
        assert!(
            rb.data.len() < 16 * frame.len(),
            "dead prefix must be compacted, storage is {}",
            rb.data.len()
        );
    }
}
