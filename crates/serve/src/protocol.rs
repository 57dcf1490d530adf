//! The daemon's wire format: length-prefixed binary frames with typed
//! request/response codecs.
//!
//! Everything is little-endian; `f64`s travel as IEEE-754 bit patterns
//! (`to_bits`/`from_bits`), so a served trust value reaches the client
//! **bit-identical** to the snapshot entry it was read from — the same
//! no-drift contract the WAL codecs honour.
//!
//! ## Framing
//!
//! ```text
//! request  frame:  len: u32 LE | opcode: u8 | operands…
//! response frame:  len: u32 LE | status: u8 | opcode: u8 | seq: u64 LE | payload…
//! ```
//!
//! `len` counts the bytes after itself. Requests are capped at
//! [`MAX_REQUEST_LEN`] (an `IngestBatch` of [`MAX_BATCH_EVENTS`] fits;
//! an oversized length is an attack or a desynced client, and is
//! refused before any allocation); responses at [`MAX_RESPONSE_LEN`].
//! `status` is 0 for success, 1 for a typed error frame. `seq` is the **event sequence the
//! serving snapshot covers** — the number of ingestion events folded
//! into the state the answer was read from. Conformance tests use it to
//! check a served answer against the offline oracle for the same event
//! prefix, which also proves no answer is a torn mix of two snapshots.
//!
//! ## Requests
//!
//! | opcode | request | operands |
//! |---|---|---|
//! | 0 | `Ping` | — |
//! | 1 | `Trust` | `i: u32, j: u32` |
//! | 2 | `TopK` | `user: u32, k: u32` |
//! | 3 | `RaterReputation` | `category: u32, user: u32` |
//! | 4 | `CategoryReputations` | `category: u32` |
//! | 5 | `Aggregates` | — |
//! | 6 | `Ingest` | one `StoreEvent` in the WAL event codec |
//! | 7 | `Stats` | — |
//! | 8 | `Shutdown` | — |
//! | 9 | `IngestBatch` | `count: u32`, then `count` × (`len: u32` + one `StoreEvent` in the WAL event codec) |
//!
//! Error payloads are `code: u8 | msg_len: u32 | msg (UTF-8)`.
//!
//! An `IngestBatch` is admitted in order and stops at the first refused
//! event; the writer publishes once for the admitted prefix, then
//! answers. Its success payload is the batch report `admitted: u32 |
//! refused: u8`, followed by an error payload when `refused` is 1, and
//! its `seq` is the acked horizon. Only a frame that does not decode is
//! an error frame.

use std::io::{Read, Write};

use wot_community::StoreEvent;

use crate::shard_proto::{put_event_run, read_event_run, MAX_EVENT_RECORD};

/// Largest request body the server will read. Every request but
/// `IngestBatch` is at most an opcode plus one WAL-encoded event (18
/// bytes); a batch of up to [`MAX_BATCH_EVENTS`] events fits, and the
/// cap refuses absurd lengths before allocation.
pub const MAX_REQUEST_LEN: usize = 64 * 1024;

/// Events one `IngestBatch` request carries at most: as many of the
/// largest event record as fit [`MAX_REQUEST_LEN`] after the opcode and
/// the count. [`Client::ingest_batch`](crate::Client::ingest_batch)
/// splits a longer slice into frames of this many.
pub const MAX_BATCH_EVENTS: usize = (MAX_REQUEST_LEN - 5) / MAX_EVENT_RECORD;

/// Largest response body a client will read (top-k lists and
/// per-category reputation tables grow with the community).
pub const MAX_RESPONSE_LEN: usize = 256 * 1024 * 1024;

/// Request opcodes (the first body byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness probe; returns the current snapshot sequence.
    Ping = 0,
    /// Eq. 5 point query `T̂_ij`.
    Trust = 1,
    /// The `k` most trusted users of one user.
    TopK = 2,
    /// One user's rater reputation in one category.
    RaterReputation = 3,
    /// A category's full rater and writer reputation tables.
    CategoryReputations = 4,
    /// Fig. 3-style aggregates of the full `T̂` matrix.
    Aggregates = 5,
    /// Append one event durably and fold it into the model.
    Ingest = 6,
    /// Server counters.
    Stats = 7,
    /// Graceful shutdown (flushes the WAL tail).
    Shutdown = 8,
    /// Append a run of events durably, stopping at the first refusal,
    /// and publish once for the admitted prefix.
    IngestBatch = 9,
}

impl Opcode {
    /// Decodes an opcode byte.
    pub fn from_code(b: u8) -> Option<Self> {
        Some(match b {
            0 => Opcode::Ping,
            1 => Opcode::Trust,
            2 => Opcode::TopK,
            3 => Opcode::RaterReputation,
            4 => Opcode::CategoryReputations,
            5 => Opcode::Aggregates,
            6 => Opcode::Ingest,
            7 => Opcode::Stats,
            8 => Opcode::Shutdown,
            9 => Opcode::IngestBatch,
            _ => return None,
        })
    }
}

/// Typed error codes carried by error frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request frame did not decode (unknown opcode, truncated or
    /// trailing operands, oversized frame).
    BadRequest = 0,
    /// A user/category/review id outside the community.
    OutOfRange = 1,
    /// A well-formed ingest event the model refuses (duplicate rating,
    /// self-rating, non-dense review id, …).
    Rejected = 2,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown = 3,
    /// The request was valid but serving it failed internally.
    Internal = 4,
}

impl ErrorCode {
    /// Decodes an error-code byte.
    pub fn from_code(b: u8) -> Option<Self> {
        Some(match b {
            0 => ErrorCode::BadRequest,
            1 => ErrorCode::OutOfRange,
            2 => ErrorCode::Rejected,
            3 => ErrorCode::ShuttingDown,
            4 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// `T̂_ij` for one ordered pair.
    Trust {
        /// Trusting user.
        i: u32,
        /// Trusted user.
        j: u32,
    },
    /// The `k` most trusted users of `user`.
    TopK {
        /// The querying user.
        user: u32,
        /// How many results (≥ 1).
        k: u32,
    },
    /// One user's rater reputation in one category.
    RaterReputation {
        /// The category.
        category: u32,
        /// The user.
        user: u32,
    },
    /// A category's full reputation tables.
    CategoryReputations {
        /// The category.
        category: u32,
    },
    /// Fig. 3-style aggregates.
    Aggregates,
    /// Durable ingest of one event.
    Ingest(StoreEvent),
    /// Server counters.
    Stats,
    /// Graceful shutdown.
    Shutdown,
    /// Durable ingest of a run of events, in order.
    IngestBatch(Vec<StoreEvent>),
}

impl Request {
    /// The request's opcode.
    pub fn opcode(&self) -> Opcode {
        match self {
            Request::Ping => Opcode::Ping,
            Request::Trust { .. } => Opcode::Trust,
            Request::TopK { .. } => Opcode::TopK,
            Request::RaterReputation { .. } => Opcode::RaterReputation,
            Request::CategoryReputations { .. } => Opcode::CategoryReputations,
            Request::Aggregates => Opcode::Aggregates,
            Request::Ingest(_) => Opcode::Ingest,
            Request::Stats => Opcode::Stats,
            Request::Shutdown => Opcode::Shutdown,
            Request::IngestBatch(_) => Opcode::IngestBatch,
        }
    }
}

/// Scalar Fig. 3 summary served by [`Opcode::Aggregates`] (the per-row
/// support vector stays server-side — it is `O(users)` and belongs to
/// offline analysis).
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateSummary {
    /// Number of users `U`.
    pub users: u64,
    /// Strictly positive entries of `T̂`.
    pub support: u64,
    /// Sum of all entries.
    pub sum: f64,
    /// Largest entry.
    pub max: f64,
    /// Histogram of positive values over `(0, 1]`.
    pub histogram: Vec<u64>,
}

impl AggregateSummary {
    /// Support density over `U²` — Fig. 3's headline number.
    pub fn density(&self) -> f64 {
        let cells = (self.users as f64) * (self.users as f64);
        if cells > 0.0 {
            self.support as f64 / cells
        } else {
            0.0
        }
    }
}

/// Server counters served by [`Opcode::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Events ingested and applied (including any the model was
    /// bootstrapped with).
    pub events: u64,
    /// Snapshots published since start.
    pub publishes: u64,
    /// Users in the community.
    pub num_users: u32,
    /// Categories in the community.
    pub num_categories: u32,
    /// Current WAL length in bytes.
    pub wal_len: u64,
    /// Reader worker threads.
    pub reader_threads: u32,
}

/// A decoded response: the snapshot sequence it was served from plus
/// either a typed body or a typed error.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request opcode the server echoed back (lets a pipelining
    /// client attribute error frames without guessing).
    pub opcode: Opcode,
    /// Event sequence covered by the serving snapshot.
    pub seq: u64,
    /// Success body or typed error.
    pub body: std::result::Result<OkBody, WireError>,
}

/// A successful response body (tagged by the echoed opcode).
#[derive(Debug, Clone, PartialEq)]
pub enum OkBody {
    /// `Ping` / `Ingest` / `Shutdown`: no payload.
    Empty(Opcode),
    /// `Trust`: the Eq. 5 value, bit-exact.
    Trust(f64),
    /// `TopK`: `(user, trust)` pairs, highest first, ties by ascending id.
    TopK(Vec<(u32, f64)>),
    /// `RaterReputation`: the value, or `None` if the user never rated
    /// in the category.
    RaterReputation(Option<f64>),
    /// `CategoryReputations`: rater and writer tables, ascending user id.
    CategoryReputations {
        /// `(user, rater reputation)` rows.
        raters: Vec<(u32, f64)>,
        /// `(user, writer reputation)` rows.
        writers: Vec<(u32, f64)>,
    },
    /// `Aggregates`: the scalar Fig. 3 summary.
    Aggregates(AggregateSummary),
    /// `Stats`: server counters.
    Stats(ServeStats),
    /// `IngestBatch`: how far the batch got.
    IngestBatch(BatchReport),
}

/// What an `IngestBatch` did: the events before `admitted` are durable
/// and published at the response's seq; the event at `admitted` was
/// refused when `refused` is set, and none after it was tried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Events admitted, from the front of the batch.
    pub admitted: u32,
    /// Why the event at index `admitted` was refused, if one was.
    pub refused: Option<WireError>,
}

/// A typed error frame as decoded by a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The typed code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

// ---------------------------------------------------------------------
// Primitive codec helpers
// ---------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Bounds-checked little-endian reader over one frame body.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "truncated frame: wanted {n} bytes for {what}, {} left",
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self, what: &str) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// A `u32` element count, validated against what the remaining bytes
    /// could hold so a corrupt count cannot trigger an absurd allocation.
    pub(crate) fn count(&mut self, min_elem_bytes: usize, what: &str) -> Result<usize, String> {
        let n = self.u32(what)? as usize;
        let cap = (self.buf.len() - self.pos) / min_elem_bytes.max(1);
        if n > cap {
            return Err(format!(
                "implausible count {n} for {what}: at most {cap} elements fit"
            ));
        }
        Ok(n)
    }

    pub(crate) fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    pub(crate) fn finish(&self, what: &str) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after {what}",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

/// One `(id, value)` table: a count, then `id: u32 | value: f64 bits`
/// rows; `id` maps the row's id type to its wire `u32`.
pub(crate) fn put_pairs<I: Copy>(out: &mut Vec<u8>, pairs: &[(I, f64)], id: impl Fn(I) -> u32) {
    put_u32(out, pairs.len() as u32);
    for &(i, v) in pairs {
        put_u32(out, id(i));
        put_f64(out, v);
    }
}

pub(crate) fn read_pairs<I>(
    c: &mut Cursor<'_>,
    what: &str,
    id: impl Fn(u32) -> I,
) -> Result<Vec<(I, f64)>, String> {
    let n = c.count(12, what)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let i = id(c.u32(what)?);
        let value = c.f64(what)?;
        v.push((i, value));
    }
    Ok(v)
}

// ---------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------

/// Encodes a request body (no length prefix).
pub fn encode_request(out: &mut Vec<u8>, req: &Request) {
    out.push(req.opcode() as u8);
    match *req {
        Request::Ping | Request::Aggregates | Request::Stats | Request::Shutdown => {}
        Request::Trust { i, j } => {
            put_u32(out, i);
            put_u32(out, j);
        }
        Request::TopK { user, k } => {
            put_u32(out, user);
            put_u32(out, k);
        }
        Request::RaterReputation { category, user } => {
            put_u32(out, category);
            put_u32(out, user);
        }
        Request::CategoryReputations { category } => {
            put_u32(out, category);
        }
        Request::Ingest(ref event) => wot_wal::encode_event(out, event),
        Request::IngestBatch(ref events) => {
            put_event_run(out, events.iter().map(|e| ((), e)), |_, ()| {});
        }
    }
}

/// Decodes a request body. The whole body must be consumed — trailing
/// bytes mean a desynced or malicious peer, and are refused.
pub fn decode_request(body: &[u8]) -> Result<Request, String> {
    let mut c = Cursor::new(body);
    let opcode = c.u8("opcode")?;
    let Some(opcode) = Opcode::from_code(opcode) else {
        return Err(format!("unknown opcode {opcode}"));
    };
    let req = match opcode {
        Opcode::Ping => Request::Ping,
        Opcode::Trust => Request::Trust {
            i: c.u32("i")?,
            j: c.u32("j")?,
        },
        Opcode::TopK => Request::TopK {
            user: c.u32("user")?,
            k: c.u32("k")?,
        },
        Opcode::RaterReputation => Request::RaterReputation {
            category: c.u32("category")?,
            user: c.u32("user")?,
        },
        Opcode::CategoryReputations => Request::CategoryReputations {
            category: c.u32("category")?,
        },
        Opcode::Aggregates => Request::Aggregates,
        Opcode::Ingest => Request::Ingest(wot_wal::decode_event(c.rest())?),
        Opcode::Stats => Request::Stats,
        Opcode::Shutdown => Request::Shutdown,
        Opcode::IngestBatch => Request::IngestBatch(
            read_event_run(&mut c, 0, "ingest batch", |_| Ok(()))?
                .into_iter()
                .map(|((), e)| e)
                .collect(),
        ),
    };
    c.finish("request")?;
    Ok(req)
}

// ---------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------

/// Encodes a success response body.
pub fn encode_ok(out: &mut Vec<u8>, seq: u64, body: &OkBody) {
    out.push(0); // status: ok
    let opcode = match body {
        OkBody::Empty(op) => *op,
        OkBody::Trust(_) => Opcode::Trust,
        OkBody::TopK(_) => Opcode::TopK,
        OkBody::RaterReputation(_) => Opcode::RaterReputation,
        OkBody::CategoryReputations { .. } => Opcode::CategoryReputations,
        OkBody::Aggregates(_) => Opcode::Aggregates,
        OkBody::Stats(_) => Opcode::Stats,
        OkBody::IngestBatch(_) => Opcode::IngestBatch,
    };
    out.push(opcode as u8);
    put_u64(out, seq);
    match body {
        OkBody::Empty(_) => {}
        OkBody::Trust(v) => put_f64(out, *v),
        OkBody::TopK(pairs) => put_pairs(out, pairs, |j| j),
        OkBody::RaterReputation(v) => match v {
            Some(v) => {
                out.push(1);
                put_f64(out, *v);
            }
            None => out.push(0),
        },
        OkBody::CategoryReputations { raters, writers } => {
            put_pairs(out, raters, |u| u);
            put_pairs(out, writers, |u| u);
        }
        OkBody::Aggregates(a) => {
            put_u64(out, a.users);
            put_u64(out, a.support);
            put_f64(out, a.sum);
            put_f64(out, a.max);
            put_u32(out, a.histogram.len() as u32);
            for &b in &a.histogram {
                put_u64(out, b);
            }
        }
        OkBody::Stats(s) => {
            put_u64(out, s.events);
            put_u64(out, s.publishes);
            put_u32(out, s.num_users);
            put_u32(out, s.num_categories);
            put_u64(out, s.wal_len);
            put_u32(out, s.reader_threads);
        }
        OkBody::IngestBatch(report) => {
            put_u32(out, report.admitted);
            match &report.refused {
                Some(e) => {
                    out.push(1);
                    put_error(out, e.code, &e.message);
                }
                None => out.push(0),
            }
        }
    }
}

/// Encodes a typed error response body. The echoed opcode is the
/// *request's* opcode when it decoded, [`Opcode::Ping`] otherwise.
pub fn encode_err(out: &mut Vec<u8>, seq: u64, opcode: Opcode, code: ErrorCode, message: &str) {
    out.push(1); // status: error
    out.push(opcode as u8);
    put_u64(out, seq);
    put_error(out, code, message);
}

/// An error payload: `code: u8 | msg_len: u32 | msg`.
fn put_error(out: &mut Vec<u8>, code: ErrorCode, message: &str) {
    out.push(code as u8);
    put_u32(out, message.len() as u32);
    out.extend_from_slice(message.as_bytes());
}

fn read_error(c: &mut Cursor<'_>) -> Result<WireError, String> {
    let code = c.u8("error code")?;
    let Some(code) = ErrorCode::from_code(code) else {
        return Err(format!("unknown error code {code}"));
    };
    let n = c.count(1, "error message")?;
    let message = String::from_utf8(c.take(n, "error message")?.to_vec())
        .map_err(|e| format!("error message not UTF-8: {e}"))?;
    Ok(WireError { code, message })
}

/// Decodes a response body.
pub fn decode_response(body: &[u8]) -> Result<Response, String> {
    let mut c = Cursor::new(body);
    let status = c.u8("status")?;
    let opcode = c.u8("opcode")?;
    let Some(opcode) = Opcode::from_code(opcode) else {
        return Err(format!("unknown opcode {opcode} in response"));
    };
    let seq = c.u64("snapshot seq")?;
    if status == 1 {
        let error = read_error(&mut c)?;
        c.finish("error response")?;
        return Ok(Response {
            opcode,
            seq,
            body: Err(error),
        });
    }
    if status != 0 {
        return Err(format!("unknown status byte {status}"));
    }
    let ok = match opcode {
        Opcode::Ping | Opcode::Ingest | Opcode::Shutdown => OkBody::Empty(opcode),
        Opcode::Trust => OkBody::Trust(c.f64("trust value")?),
        Opcode::TopK => OkBody::TopK(read_pairs(&mut c, "top-k pairs", |j| j)?),
        Opcode::RaterReputation => OkBody::RaterReputation(match c.u8("presence flag")? {
            0 => None,
            1 => Some(c.f64("reputation")?),
            b => return Err(format!("presence flag must be 0 or 1, got {b}")),
        }),
        Opcode::CategoryReputations => OkBody::CategoryReputations {
            raters: read_pairs(&mut c, "rater table", |u| u)?,
            writers: read_pairs(&mut c, "writer table", |u| u)?,
        },
        Opcode::Aggregates => {
            let users = c.u64("users")?;
            let support = c.u64("support")?;
            let sum = c.f64("sum")?;
            let max = c.f64("max")?;
            let n = c.count(8, "histogram")?;
            let mut histogram = Vec::with_capacity(n);
            for _ in 0..n {
                histogram.push(c.u64("histogram bin")?);
            }
            OkBody::Aggregates(AggregateSummary {
                users,
                support,
                sum,
                max,
                histogram,
            })
        }
        Opcode::Stats => OkBody::Stats(ServeStats {
            events: c.u64("events")?,
            publishes: c.u64("publishes")?,
            num_users: c.u32("num_users")?,
            num_categories: c.u32("num_categories")?,
            wal_len: c.u64("wal_len")?,
            reader_threads: c.u32("reader_threads")?,
        }),
        Opcode::IngestBatch => OkBody::IngestBatch(BatchReport {
            admitted: c.u32("admitted")?,
            refused: match c.u8("refusal flag")? {
                0 => None,
                1 => Some(read_error(&mut c)?),
                b => return Err(format!("refusal flag must be 0 or 1, got {b}")),
            },
        }),
    };
    c.finish("response")?;
    Ok(Response {
        opcode,
        seq,
        body: Ok(ok),
    })
}

// ---------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------

/// Why a frame read stopped without producing a body.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame body.
    Frame(Vec<u8>),
    /// The peer closed the connection cleanly (EOF before any byte of a
    /// frame).
    Closed,
    /// The read timed out before any byte of a frame arrived (idle
    /// connection — poll again).
    Idle,
    /// The length prefix exceeded the cap; nothing was allocated or
    /// consumed past the prefix.
    TooLarge {
        /// The claimed body length.
        len: u32,
    },
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one length-prefixed frame, distinguishing clean close, idle
/// timeout, and an oversized length claim from real I/O failures.
///
/// Once the first byte of a frame has arrived, the rest is awaited
/// through read timeouts (a frame in flight belongs to this request); a
/// peer that dies mid-frame surfaces as `UnexpectedEof`.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> std::io::Result<FrameRead> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(FrameRead::Closed);
                }
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame (length prefix)",
                ));
            }
            Ok(n) => got += n,
            Err(e) if is_timeout(&e) => {
                if got == 0 {
                    return Ok(FrameRead::Idle);
                }
                // Mid-prefix: keep waiting for the rest of this frame.
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len as usize > max_len {
        return Ok(FrameRead::TooLarge { len });
    }
    let mut body = vec![0u8; len as usize];
    let mut got = 0usize;
    while got < body.len() {
        match r.read(&mut body[got..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame (body)",
                ))
            }
            Ok(n) => got += n,
            Err(e) if is_timeout(&e) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(FrameRead::Frame(body))
}

#[cfg(test)]
mod tests {
    use wot_community::{CategoryId, ReviewId, UserId};

    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Trust { i: 3, j: 9 },
            Request::TopK { user: 1, k: 10 },
            Request::RaterReputation {
                category: 2,
                user: 7,
            },
            Request::CategoryReputations { category: 0 },
            Request::Aggregates,
            Request::Ingest(StoreEvent::Rating {
                rater: UserId(4),
                review: ReviewId(11),
                value: f64::from_bits(0x3FE5_5555_5555_5555),
            }),
            Request::Ingest(StoreEvent::Review {
                writer: UserId(1),
                review: ReviewId(12),
                category: CategoryId(3),
            }),
            Request::Stats,
            Request::Shutdown,
            Request::IngestBatch(vec![]),
            Request::IngestBatch(vec![
                StoreEvent::Review {
                    writer: UserId(1),
                    review: ReviewId(12),
                    category: CategoryId(3),
                },
                StoreEvent::Rating {
                    rater: UserId(4),
                    review: ReviewId(12),
                    value: f64::from_bits(0x3FE5_5555_5555_5555),
                },
            ]),
        ]
    }

    /// The largest legal batch — every event a rating, the longer record
    /// — fits the request cap, and one more event would not.
    #[test]
    fn a_full_batch_fits_the_request_cap() {
        let rating = StoreEvent::Rating {
            rater: UserId(u32::MAX),
            review: ReviewId(u32::MAX),
            value: f64::MAX,
        };
        let full = Request::IngestBatch(vec![rating; MAX_BATCH_EVENTS]);
        let mut body = Vec::new();
        encode_request(&mut body, &full);
        assert!(body.len() <= MAX_REQUEST_LEN, "{} bytes", body.len());
        assert_eq!(decode_request(&body).unwrap(), full);
        let mut over = Vec::new();
        encode_request(
            &mut over,
            &Request::IngestBatch(vec![rating; MAX_BATCH_EVENTS + 1]),
        );
        assert!(over.len() > MAX_REQUEST_LEN, "{} bytes", over.len());
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            let mut buf = Vec::new();
            encode_request(&mut buf, &req);
            assert_eq!(decode_request(&buf).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn request_decoder_rejects_malformed_bodies() {
        // Empty body: no opcode.
        assert!(decode_request(&[]).is_err());
        // Unknown opcode.
        assert!(decode_request(&[99])
            .unwrap_err()
            .contains("unknown opcode"));
        // Truncated operands.
        let mut buf = Vec::new();
        encode_request(&mut buf, &Request::Trust { i: 1, j: 2 });
        assert!(decode_request(&buf[..buf.len() - 1]).is_err());
        // Trailing garbage.
        buf.push(0);
        assert!(decode_request(&buf).is_err());
        // An ingest body with an unknown event tag.
        assert!(decode_request(&[Opcode::Ingest as u8, 200])
            .unwrap_err()
            .contains("unknown event tag"));
        // A batch count more events than the body could hold.
        let mut batch = vec![Opcode::IngestBatch as u8];
        put_u32(&mut batch, 2);
        assert!(decode_request(&batch)
            .unwrap_err()
            .contains("implausible count"));
    }

    #[test]
    fn responses_round_trip_bit_identically() {
        let odd = f64::from_bits(0x3FC5_5555_5555_5555);
        let bodies = vec![
            (7, OkBody::Empty(Opcode::Ping)),
            (8, OkBody::Empty(Opcode::Ingest)),
            (9, OkBody::Trust(odd)),
            (10, OkBody::TopK(vec![(3, 0.9), (1, odd)])),
            (11, OkBody::RaterReputation(None)),
            (12, OkBody::RaterReputation(Some(odd))),
            (
                13,
                OkBody::CategoryReputations {
                    raters: vec![(0, 0.5), (2, odd)],
                    writers: vec![(1, 1.0)],
                },
            ),
            (
                14,
                OkBody::Aggregates(AggregateSummary {
                    users: 100,
                    support: 420,
                    sum: 17.25,
                    max: odd,
                    histogram: vec![1, 2, 3, 0],
                }),
            ),
            (
                16,
                OkBody::IngestBatch(BatchReport {
                    admitted: 16,
                    refused: None,
                }),
            ),
            (
                17,
                OkBody::IngestBatch(BatchReport {
                    admitted: 1,
                    refused: Some(WireError {
                        code: ErrorCode::Rejected,
                        message: "user 4 out of range".into(),
                    }),
                }),
            ),
            (
                15,
                OkBody::Stats(ServeStats {
                    events: 1000,
                    publishes: 12,
                    num_users: 4000,
                    num_categories: 8,
                    wal_len: 65536,
                    reader_threads: 4,
                }),
            ),
        ];
        for (seq, body) in bodies {
            let mut buf = Vec::new();
            encode_ok(&mut buf, seq, &body);
            let resp = decode_response(&buf).unwrap();
            assert_eq!(resp.seq, seq);
            assert_eq!(resp.body.unwrap(), body);
        }
        // f64 bits survive exactly.
        let mut buf = Vec::new();
        encode_ok(&mut buf, 0, &OkBody::Trust(odd));
        match decode_response(&buf).unwrap().body.unwrap() {
            OkBody::Trust(v) => assert_eq!(v.to_bits(), odd.to_bits()),
            other => panic!("wrong body {other:?}"),
        }
    }

    #[test]
    fn error_frames_round_trip() {
        let mut buf = Vec::new();
        encode_err(
            &mut buf,
            3,
            Opcode::Trust,
            ErrorCode::OutOfRange,
            "user 9000 out of range",
        );
        let resp = decode_response(&buf).unwrap();
        assert_eq!(resp.seq, 3);
        let err = resp.body.unwrap_err();
        assert_eq!(err.code, ErrorCode::OutOfRange);
        assert!(err.message.contains("9000"));
    }

    #[test]
    fn response_decoder_rejects_malformed_bodies() {
        assert!(decode_response(&[]).is_err());
        // Unknown status byte.
        let mut buf = Vec::new();
        encode_ok(&mut buf, 0, &OkBody::Empty(Opcode::Ping));
        buf[0] = 7;
        assert!(decode_response(&buf).is_err());
        // Implausible pair count cannot cause a huge allocation.
        let mut buf = Vec::new();
        buf.push(0);
        buf.push(Opcode::TopK as u8);
        put_u64(&mut buf, 0);
        put_u32(&mut buf, u32::MAX);
        assert!(decode_response(&buf)
            .unwrap_err()
            .contains("implausible count"));
        // A batch report's refusal flag is 0 or 1.
        let mut buf = Vec::new();
        encode_ok(
            &mut buf,
            0,
            &OkBody::IngestBatch(BatchReport {
                admitted: 0,
                refused: None,
            }),
        );
        *buf.last_mut().unwrap() = 2;
        assert!(decode_response(&buf).unwrap_err().contains("refusal flag"));
    }

    #[test]
    fn frames_round_trip_over_a_pipe() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        match read_frame(&mut r, 16).unwrap() {
            FrameRead::Frame(b) => assert_eq!(b, b"hello"),
            other => panic!("{other:?}"),
        }
        match read_frame(&mut r, 16).unwrap() {
            FrameRead::Frame(b) => assert!(b.is_empty()),
            other => panic!("{other:?}"),
        }
        match read_frame(&mut r, 16).unwrap() {
            FrameRead::Closed => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_and_truncated_frames_are_refused() {
        // Oversized length claim: refused before allocation.
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = &wire[..];
        match read_frame(&mut r, MAX_REQUEST_LEN).unwrap() {
            FrameRead::TooLarge { len } => assert_eq!(len, u32::MAX),
            other => panic!("{other:?}"),
        }
        // Truncated mid-prefix.
        let mut r = &[1u8, 0][..];
        assert_eq!(
            read_frame(&mut r, 16).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
        // Truncated mid-body.
        let mut wire = Vec::new();
        wire.extend_from_slice(&8u32.to_le_bytes());
        wire.extend_from_slice(b"abc");
        let mut r = &wire[..];
        assert_eq!(
            read_frame(&mut r, 16).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }
}
