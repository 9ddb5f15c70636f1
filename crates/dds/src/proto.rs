//! Wire protocol between clients and the DDS storage server.
//!
//! Requests are real bytes on the simulated network — the traffic
//! director and UDFs parse them exactly the way DDS parses messages after
//! transport reassembly. Every message is an envelope — a one-byte
//! tag, then a `u64` request id — around tag-specific fields, all
//! little-endian: a `Request` around its [`Op`], a `Response` around
//! its [`Reply`].

use bytes::{BufMut, Bytes, BytesMut};

/// A client request: the header every hop reads — which request this
/// is — around the operation the traffic director classifies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    /// Request id for response correlation; a retry re-sends the same id.
    pub(crate) req_id: u64,
    /// The operation to run.
    pub(crate) op: Op,
}

/// What a `Request` asks the server to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// KV point lookup.
    KvGet {
        /// Key.
        key: u64,
    },
    /// KV upsert.
    KvPut {
        /// Key.
        key: u64,
        /// Value bytes.
        value: Bytes,
    },
    /// Page fetch (Hyperscale GetPage).
    GetPage {
        /// Page number.
        page_id: u64,
    },
    /// WAL shipping (Hyperscale log apply).
    AppendLog {
        /// Page the record modifies.
        page_id: u64,
        /// Byte offset within the page.
        offset: u32,
        /// Replacement bytes.
        delta: Bytes,
    },
    /// KV range scan: every present key in `[start_key, start_key + count)`.
    KvScan {
        /// First key of the dense range.
        start_key: u64,
        /// Number of consecutive keys scanned.
        count: u32,
    },
    /// Chain replication: primary forwards an applied write to its
    /// backup, stamped with the primary's epoch. A backup fenced at a
    /// higher epoch answers [`ErrorCode::StaleEpoch`].
    ReplPut {
        /// Epoch the sending primary believes it holds.
        epoch: u64,
        /// Key.
        key: u64,
        /// Value bytes.
        value: Bytes,
    },
    /// Migration copy: put-if-absent, so a stale copy from the old
    /// owner can never clobber a fresh client write that already landed
    /// on the new owner during the dual-read window.
    MigratePut {
        /// Key.
        key: u64,
        /// Value bytes.
        value: Bytes,
    },
    /// Migration enumeration: list every key this server holds.
    ListKeys,
    /// Migration cleanup: drop these keys from this server's index
    /// (their bytes stay in the append-only log as garbage).
    DropKeys {
        /// `0` on client-originated drops; the group epoch when a
        /// primary chain-forwards the drop to its backup. A backup
        /// fenced at a higher epoch rejects the stamped drop with
        /// [`ErrorCode::StaleEpoch`], exactly like [`Op::ReplPut`].
        epoch: u64,
        /// Keys to drop.
        keys: Vec<u64>,
    },
    /// Liveness probe: answered [`Reply::Ok`] without touching
    /// storage. The cluster's failure detector pings a suspected
    /// primary before promoting its backup, so a slow-but-alive server
    /// is not deposed over a transient congestion blip.
    Ping,
}

impl Op {
    /// The request's span name, `req:<variant>`.
    pub(crate) fn span_name(&self) -> &'static str {
        match self {
            Op::KvGet { .. } => "req:KvGet",
            Op::KvPut { .. } => "req:KvPut",
            Op::GetPage { .. } => "req:GetPage",
            Op::AppendLog { .. } => "req:AppendLog",
            Op::KvScan { .. } => "req:KvScan",
            Op::ReplPut { .. } => "req:ReplPut",
            Op::MigratePut { .. } => "req:MigratePut",
            Op::ListKeys => "req:ListKeys",
            Op::DropKeys { .. } => "req:DropKeys",
            Op::Ping => "req:Ping",
        }
    }

    /// The variant's name: the `dds_requests{kind=<name>}` counter label.
    pub(crate) fn name(&self) -> &'static str {
        &self.span_name()["req:".len()..]
    }
}

fn put_blob(b: &mut BytesMut, blob: &[u8]) {
    b.put_u32_le(blob.len() as u32);
    b.put_slice(blob);
}

fn put_keys(b: &mut BytesMut, keys: &[u64]) {
    b.put_u32_le(keys.len() as u32);
    for key in keys {
        b.put_u64_le(*key);
    }
}

/// The envelope every message opens with: a tag byte, then the `u64`
/// request id.
const HEADER_BYTES: usize = 9;

/// Wire bytes of [`put_blob`] over `blob`.
fn blob_len(blob: &[u8]) -> usize {
    4 + blob.len()
}

/// Wire bytes of [`put_keys`] over `keys`.
fn keys_len(keys: &[u64]) -> usize {
    4 + 8 * keys.len()
}

impl Request {
    /// `self.encode().len()`, without encoding: what a hop that only
    /// charges for the message's size needs.
    pub(crate) fn encoded_len(&self) -> usize {
        HEADER_BYTES
            + match &self.op {
                Op::KvGet { .. } | Op::GetPage { .. } => 8,
                Op::KvPut { value, .. } | Op::MigratePut { value, .. } => 8 + blob_len(value),
                Op::AppendLog { delta, .. } => 8 + 4 + blob_len(delta),
                Op::KvScan { .. } => 8 + 4,
                Op::ReplPut { value, .. } => 8 + 8 + blob_len(value),
                Op::DropKeys { keys, .. } => 8 + keys_len(keys),
                Op::ListKeys | Op::Ping => 0,
            }
    }

    /// Serializes to wire bytes.
    pub(crate) fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(self.encoded_len());
        let tag = match &self.op {
            Op::KvGet { .. } => 1,
            Op::KvPut { .. } => 2,
            Op::GetPage { .. } => 3,
            Op::AppendLog { .. } => 4,
            Op::KvScan { .. } => 5,
            Op::ReplPut { .. } => 6,
            Op::MigratePut { .. } => 7,
            Op::ListKeys => 8,
            Op::DropKeys { .. } => 9,
            Op::Ping => 10,
        };
        b.put_u8(tag);
        b.put_u64_le(self.req_id);
        match &self.op {
            Op::KvGet { key } => b.put_u64_le(*key),
            Op::KvPut { key, value } | Op::MigratePut { key, value } => {
                b.put_u64_le(*key);
                put_blob(&mut b, value);
            }
            Op::GetPage { page_id } => b.put_u64_le(*page_id),
            Op::AppendLog {
                page_id,
                offset,
                delta,
            } => {
                b.put_u64_le(*page_id);
                b.put_u32_le(*offset);
                put_blob(&mut b, delta);
            }
            Op::KvScan { start_key, count } => {
                b.put_u64_le(*start_key);
                b.put_u32_le(*count);
            }
            Op::ReplPut { epoch, key, value } => {
                b.put_u64_le(*epoch);
                b.put_u64_le(*key);
                put_blob(&mut b, value);
            }
            Op::DropKeys { epoch, keys } => {
                b.put_u64_le(*epoch);
                put_keys(&mut b, keys);
            }
            Op::ListKeys | Op::Ping => {}
        }
        b.freeze()
    }

    /// Parses wire bytes (the UDF's job in §7).
    pub(crate) fn decode(data: &[u8]) -> Result<Request, ProtoError> {
        let mut c = Cursor::new(data);
        let tag = c.u8()?;
        let req_id = c.u64()?;
        let op = match tag {
            1 => Op::KvGet { key: c.u64()? },
            2 => Op::KvPut {
                key: c.u64()?,
                value: c.blob()?,
            },
            3 => Op::GetPage { page_id: c.u64()? },
            4 => Op::AppendLog {
                page_id: c.u64()?,
                offset: c.u32()?,
                delta: c.blob()?,
            },
            5 => Op::KvScan {
                start_key: c.u64()?,
                count: c.u32()?,
            },
            6 => Op::ReplPut {
                epoch: c.u64()?,
                key: c.u64()?,
                value: c.blob()?,
            },
            7 => Op::MigratePut {
                key: c.u64()?,
                value: c.blob()?,
            },
            8 => Op::ListKeys,
            9 => Op::DropKeys {
                epoch: c.u64()?,
                keys: c.keys()?,
            },
            10 => Op::Ping,
            t => return Err(ProtoError::BadTag(t)),
        };
        Ok(Request { req_id, op })
    }
}

/// Failure class a server can report in a [`Reply::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The storage layer failed on both serving paths.
    Storage,
    /// The server cannot currently serve this class of request.
    Unavailable,
    /// The sender's epoch is behind this replica's fence: a deposed
    /// primary (or a replication message from one) must stand down.
    StaleEpoch,
}

impl ErrorCode {
    fn to_wire(self) -> u8 {
        match self {
            ErrorCode::Storage => 1,
            ErrorCode::Unavailable => 2,
            ErrorCode::StaleEpoch => 3,
        }
    }

    fn from_wire(b: u8) -> Result<Self, ProtoError> {
        match b {
            1 => Ok(ErrorCode::Storage),
            2 => Ok(ErrorCode::Unavailable),
            3 => Ok(ErrorCode::StaleEpoch),
            other => Err(ProtoError::BadTag(other)),
        }
    }
}

/// A server response: the id of the [`Request`] it answers, then the
/// answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Response {
    /// Correlated request id.
    pub(crate) req_id: u64,
    /// The server's answer.
    pub(crate) reply: Reply,
}

/// What a server answers in a `Response`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Value found (or page contents).
    Data(Bytes),
    /// Key absent.
    NotFound,
    /// Write acknowledged.
    Ok,
    /// The server failed to execute the request (a terminal answer: the
    /// client stops waiting and surfaces a typed error or retries).
    Error(ErrorCode),
    /// Scan result: the present keys of the requested range, each with
    /// its current value, in ascending key order.
    Scan(Vec<(u64, Bytes)>),
    /// Key enumeration result (migration): every key held, ascending.
    Keys(Vec<u64>),
}

impl Reply {
    /// A point read's value, `None` when the key is absent. Like the
    /// three accessors below, panics on a reply of another kind: the
    /// server answered an op the caller did not send.
    pub(crate) fn value(self) -> Option<Bytes> {
        match self {
            Reply::Data(data) => Some(data),
            Reply::NotFound => None,
            other => unreachable!("expected a value, got {other:?}"),
        }
    }

    /// A write's bare acknowledgement.
    pub(crate) fn ack(self) {
        match self {
            Reply::Ok => (),
            other => unreachable!("expected an ack, got {other:?}"),
        }
    }

    /// A scan's `(key, value)` rows.
    pub(crate) fn rows(self) -> Vec<(u64, Bytes)> {
        match self {
            Reply::Scan(entries) => entries,
            other => unreachable!("expected scan rows, got {other:?}"),
        }
    }

    /// A key enumeration's keys.
    pub(crate) fn keys(self) -> Vec<u64> {
        match self {
            Reply::Keys(keys) => keys,
            other => unreachable!("expected a key list, got {other:?}"),
        }
    }
}

impl Response {
    /// `self.encode().len()`, without encoding.
    pub(crate) fn encoded_len(&self) -> usize {
        HEADER_BYTES
            + match &self.reply {
                Reply::Data(data) => blob_len(data),
                Reply::NotFound | Reply::Ok => 0,
                Reply::Error(_) => 1,
                Reply::Scan(entries) => {
                    4 + entries.iter().map(|(_, v)| 8 + blob_len(v)).sum::<usize>()
                }
                Reply::Keys(keys) => keys_len(keys),
            }
    }

    /// Serializes to wire bytes.
    pub(crate) fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(self.encoded_len());
        let tag = match &self.reply {
            Reply::Data(_) => 1,
            Reply::NotFound => 2,
            Reply::Ok => 3,
            Reply::Error(_) => 4,
            Reply::Scan(_) => 5,
            Reply::Keys(_) => 6,
        };
        b.put_u8(tag);
        b.put_u64_le(self.req_id);
        match &self.reply {
            Reply::Data(data) => put_blob(&mut b, data),
            Reply::NotFound | Reply::Ok => {}
            Reply::Error(code) => b.put_u8(code.to_wire()),
            Reply::Scan(entries) => {
                b.put_u32_le(entries.len() as u32);
                for (key, value) in entries {
                    b.put_u64_le(*key);
                    put_blob(&mut b, value);
                }
            }
            Reply::Keys(keys) => put_keys(&mut b, keys),
        }
        b.freeze()
    }

    /// Parses wire bytes.
    pub(crate) fn decode(data: &[u8]) -> Result<Response, ProtoError> {
        let mut c = Cursor::new(data);
        let tag = c.u8()?;
        let req_id = c.u64()?;
        let reply = match tag {
            1 => Reply::Data(c.blob()?),
            2 => Reply::NotFound,
            3 => Reply::Ok,
            4 => Reply::Error(ErrorCode::from_wire(c.u8()?)?),
            5 => {
                let n = c.u32()? as usize;
                let mut entries = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    entries.push((c.u64()?, c.blob()?));
                }
                Reply::Scan(entries)
            }
            6 => Reply::Keys(c.keys()?),
            t => return Err(ProtoError::BadTag(t)),
        };
        Ok(Response { req_id, reply })
    }
}

/// Client-side robustness knobs: per-attempt timeout, exponential
/// backoff, attempt limit, and an overall deadline.
///
/// Defaults are sized for the simulated rack: request RTTs run
/// 100–200 µs and the TCP retransmission timeout is 1 ms, so each
/// attempt waits 2 ms (beyond one RTO), backoff starts at 200 µs and
/// doubles to a 5 ms cap, and the whole request gives up at 50 ms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts before reporting `RetriesExhausted` (including the
    /// first; minimum 1).
    pub max_attempts: u32,
    /// Per-attempt response timeout in virtual ns.
    pub request_timeout_ns: u64,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff_ns: u64,
    /// Backoff ceiling.
    pub max_backoff_ns: u64,
    /// Overall deadline across attempts and backoffs.
    pub deadline_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            request_timeout_ns: 2_000_000,
            base_backoff_ns: 200_000,
            max_backoff_ns: 5_000_000,
            deadline_ns: 50_000_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff to sleep before retry number `attempt` (1-based: the
    /// backoff taken after the first failed attempt is `backoff_ns(1)`).
    pub(crate) fn backoff_ns(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(20);
        (self.base_backoff_ns << shift).min(self.max_backoff_ns)
    }
}

/// Protocol decode errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProtoError {
    /// Unknown message tag.
    BadTag(u8),
    /// Message shorter than declared.
    Truncated,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadTag(t) => write!(f, "unknown message tag {t}"),
            ProtoError::Truncated => f.write_str("truncated message"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Length-prefixed message framing over the TCP byte stream.
///
/// TCP delivers ordered *bytes* (our model: ordered MSS-sized chunks);
/// application messages larger than one segment arrive split. Senders
/// wrap each message as `[u32-le length][payload]`; [`Deframer`]
/// reassembles complete messages from arbitrary chunk boundaries.
pub fn frame(msg: &Bytes) -> Bytes {
    let mut b = BytesMut::with_capacity(4 + msg.len());
    b.put_u32_le(msg.len() as u32);
    b.put_slice(msg);
    b.freeze()
}

/// Reassembles length-prefixed frames from a chunked byte stream.
#[derive(Default)]
pub struct Deframer {
    buf: Vec<u8>,
}

impl Deframer {
    /// New, empty deframer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one received chunk; returns every message completed by it.
    pub fn push(&mut self, chunk: &[u8]) -> Vec<Bytes> {
        self.buf.extend_from_slice(chunk);
        let mut out = Vec::new();
        loop {
            if self.buf.len() < 4 {
                break;
            }
            let len = u32::from_le_bytes(self.buf[0..4].try_into().expect("4 bytes")) as usize;
            if self.buf.len() < 4 + len {
                break;
            }
            out.push(Bytes::copy_from_slice(&self.buf[4..4 + len]));
            self.buf.drain(..4 + len);
        }
        out
    }

    /// Bytes buffered awaiting completion.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.pos + n > self.data.len() {
            return Err(ProtoError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A `u32` length, then that many bytes.
    fn blob(&mut self) -> Result<Bytes, ProtoError> {
        let len = self.u32()? as usize;
        Ok(Bytes::copy_from_slice(self.take(len)?))
    }

    /// A `u32` count, then that many `u64` keys.
    fn keys(&mut self) -> Result<Vec<u64>, ProtoError> {
        let n = self.u32()? as usize;
        let mut keys = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            keys.push(self.u64()?);
        }
        Ok(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Every request variant with its exact wire bytes. The hex literals
    /// are the compatibility contract with deployed peers: a refactor
    /// may rewrite the constructors on the left, never a byte on the
    /// right.
    fn request_wire() -> Vec<(Request, &'static str)> {
        let req = |req_id, op| Request { req_id, op };
        vec![
            (
                req(0x0102_0304_0506_0708, Op::KvGet { key: 42 }),
                "01 0807060504030201 2a00000000000000",
            ),
            (
                req(
                    2,
                    Op::KvPut {
                        key: 7,
                        value: Bytes::from_static(b"hello"),
                    },
                ),
                "02 0200000000000000 0700000000000000 05000000 68656c6c6f",
            ),
            (
                req(3, Op::GetPage { page_id: 99 }),
                "03 0300000000000000 6300000000000000",
            ),
            (
                req(
                    4,
                    Op::AppendLog {
                        page_id: 12,
                        offset: 100,
                        delta: Bytes::from_static(b"delta"),
                    },
                ),
                "04 0400000000000000 0c00000000000000 64000000 05000000 64656c7461",
            ),
            (
                req(
                    5,
                    Op::KvScan {
                        start_key: 1_000,
                        count: 32,
                    },
                ),
                "05 0500000000000000 e803000000000000 20000000",
            ),
            (
                req(
                    6,
                    Op::ReplPut {
                        epoch: 3,
                        key: 77,
                        value: Bytes::from_static(b"chained"),
                    },
                ),
                "06 0600000000000000 0300000000000000 4d00000000000000 07000000 636861696e6564",
            ),
            (
                req(
                    7,
                    Op::MigratePut {
                        key: 88,
                        value: Bytes::from_static(b"moved"),
                    },
                ),
                "07 0700000000000000 5800000000000000 05000000 6d6f766564",
            ),
            (req(8, Op::ListKeys), "08 0800000000000000"),
            (
                req(
                    9,
                    Op::DropKeys {
                        epoch: 0,
                        keys: vec![1, 2, 300],
                    },
                ),
                "09 0900000000000000 0000000000000000 03000000 \
                 0100000000000000 0200000000000000 2c01000000000000",
            ),
            (
                req(
                    10,
                    Op::DropKeys {
                        epoch: 4,
                        keys: vec![],
                    },
                ),
                "09 0a00000000000000 0400000000000000 00000000",
            ),
            (req(11, Op::Ping), "0a 0b00000000000000"),
        ]
    }

    /// Every response variant (and all three error codes) with its
    /// exact wire bytes; same contract as [`request_wire`].
    fn response_wire() -> Vec<(Response, &'static str)> {
        let resp = |req_id, reply| Response { req_id, reply };
        vec![
            (
                resp(
                    0x0102_0304_0506_0708,
                    Reply::Data(Bytes::from_static(b"payload")),
                ),
                "01 0807060504030201 07000000 7061796c6f6164",
            ),
            (resp(2, Reply::NotFound), "02 0200000000000000"),
            (resp(3, Reply::Ok), "03 0300000000000000"),
            (
                resp(4, Reply::Error(ErrorCode::Storage)),
                "04 0400000000000000 01",
            ),
            (
                resp(5, Reply::Error(ErrorCode::Unavailable)),
                "04 0500000000000000 02",
            ),
            (
                resp(8, Reply::Error(ErrorCode::StaleEpoch)),
                "04 0800000000000000 03",
            ),
            (
                resp(
                    6,
                    Reply::Scan(vec![
                        (10, Bytes::from_static(b"a")),
                        (12, Bytes::from_static(b"bb")),
                    ]),
                ),
                "05 0600000000000000 02000000 \
                 0a00000000000000 01000000 61 0c00000000000000 02000000 6262",
            ),
            (resp(7, Reply::Scan(vec![])), "05 0700000000000000 00000000"),
            (
                resp(9, Reply::Keys(vec![5, 6, 700])),
                "06 0900000000000000 03000000 \
                 0500000000000000 0600000000000000 bc02000000000000",
            ),
            (
                resp(10, Reply::Keys(vec![])),
                "06 0a00000000000000 00000000",
            ),
        ]
    }

    #[test]
    fn wire_format_is_pinned() {
        for (req, hex) in request_wire() {
            let wire = unhex(hex);
            assert_eq!(req.encode()[..], wire[..], "{req:?}");
            assert_eq!(Request::decode(&wire), Ok(req));
        }
        for (resp, hex) in response_wire() {
            let wire = unhex(hex);
            assert_eq!(resp.encode()[..], wire[..], "{resp:?}");
            assert_eq!(Response::decode(&wire), Ok(resp));
        }
        // A framed message: u32-le length, then the payload verbatim.
        let (get, _) = &request_wire()[0];
        assert_eq!(
            frame(&get.encode())[..],
            unhex("11000000 01 0807060504030201 2a00000000000000")[..]
        );
    }

    /// The size the host path charges PCIe for is the size of the bytes
    /// it would have encoded: for every pinned message and a 4 KiB put.
    #[test]
    fn encoded_len_is_the_encoding_length() {
        let put = Request {
            req_id: 12,
            op: Op::KvPut {
                key: 3,
                value: Bytes::from(vec![7u8; 4_096]),
            },
        };
        for (req, _) in request_wire().into_iter().chain([(put, "")]) {
            assert_eq!(req.encoded_len(), req.encode().len(), "{req:?}");
        }
        for (resp, _) in response_wire() {
            assert_eq!(resp.encoded_len(), resp.encode().len(), "{resp:?}");
        }
    }

    #[test]
    fn error_response_rejects_unknown_code() {
        let mut wire = Response {
            req_id: 9,
            reply: Reply::Error(ErrorCode::Storage),
        }
        .encode()
        .to_vec();
        *wire.last_mut().unwrap() = 77;
        assert_eq!(Response::decode(&wire), Err(ProtoError::BadTag(77)));
    }

    #[test]
    fn retry_backoff_doubles_to_cap() {
        let p = RetryPolicy {
            base_backoff_ns: 100,
            max_backoff_ns: 450,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_ns(1), 100);
        assert_eq!(p.backoff_ns(2), 200);
        assert_eq!(p.backoff_ns(3), 400);
        assert_eq!(p.backoff_ns(4), 450);
        assert_eq!(p.backoff_ns(40), 450, "shift must saturate, not wrap");
    }

    #[test]
    fn decode_rejects_garbage() {
        // Every proper prefix of every pinned message is `Truncated`:
        // never a panic, never a short `Ok`.
        for (req, hex) in request_wire() {
            let wire = unhex(hex);
            for cut in 0..wire.len() {
                assert_eq!(
                    Request::decode(&wire[..cut]),
                    Err(ProtoError::Truncated),
                    "{req:?} cut at {cut}"
                );
            }
        }
        for (resp, hex) in response_wire() {
            let wire = unhex(hex);
            for cut in 0..wire.len() {
                assert_eq!(
                    Response::decode(&wire[..cut]),
                    Err(ProtoError::Truncated),
                    "{resp:?} cut at {cut}"
                );
            }
        }
        // An unknown tag after a valid id.
        let unknown = unhex("63 0100000000000000");
        assert_eq!(Request::decode(&unknown), Err(ProtoError::BadTag(99)));
        assert_eq!(Response::decode(&unknown), Err(ProtoError::BadTag(99)));
    }
}
