//! Coordinator ↔ shard-worker wire protocol.
//!
//! The multi-process deployment reuses the daemon's length-prefixed
//! frame transport ([`crate::protocol::write_frame`] /
//! [`crate::protocol::read_frame`])
//! over a worker's stdin/stdout pipes, with its own opcode space: the
//! client protocol asks *questions about trust*, this one moves *shard
//! state* — sequence-tagged events in, per-category reputation tables
//! out. Framing, integer endianness (little), and `f64`-as-bits
//! transport are identical to [`crate::protocol`], so one codec audit
//! covers both.
//!
//! Every request produces exactly one reply, in request order, but the
//! transport is **pipelined**: the coordinator may have many frames in
//! flight to one worker (and to different workers concurrently) before
//! reading any reply. Correlation is positional — replies come back in
//! the order the requests were written, and ingest acknowledgments name
//! the highest sequence tag they cover ([`ShardReply::Ingested`]), so a
//! single ack closes a whole routed batch. The coordinator is the only
//! requester. Like the client protocol, malformed bodies produce a
//! typed error reply and leave the stream framed (the next request
//! parses cleanly) — the frame-abuse tests in `crates/shardd/tests`
//! hold the worker to that.

use wot_community::StoreEvent;

use crate::protocol::{put_pairs, put_u32, put_u64, read_pairs, Cursor, ErrorCode, WireError};

/// Upper bound on a coordinator→worker frame body. Adoption frames carry
/// a whole category's event history, so this matches the response cap of
/// the client protocol rather than its small request cap.
pub const MAX_SHARD_FRAME_LEN: usize = 256 * 1024 * 1024;

/// Sentinel for "no durable event yet" in [`HelloAck::max_tag`], and for
/// "keep everything" in [`ShardRequest::Hello`]'s `cut`.
pub const NO_TAG: u64 = u64::MAX;

/// Request opcodes (coordinator → worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ShardOpcode {
    /// Handshake: community shape + owned categories; the worker opens
    /// its WAL, discards orphans at or past the coordinator's cut, and
    /// replays the rest before answering.
    Hello = 0,
    /// A batch of sequence-tagged events to make durable and apply,
    /// acknowledged with one durability horizon.
    Ingest = 1,
    // 2 and 3 are retired (per-category reads; the coordinator answers
    // them from its own snapshot) and decode as unknown opcodes.
    /// States of every owned category (boot, restart, reconciliation).
    FullState = 4,
    /// Stop owning a category; reply with its tagged event sub-log.
    DropCategory = 5,
    /// Start owning a category, seeded with its tagged event history.
    AdoptCategory = 6,
    /// Flush and exit after replying.
    Shutdown = 7,
    /// States of an explicit category subset (lazy snapshot refresh).
    States = 8,
    /// Roll durable state back to a sequence cut (pipeline abort).
    Truncate = 9,
    /// Fault injection: delay every subsequent request (drills only).
    Stall = 10,
}

impl ShardOpcode {
    /// Parses a wire opcode byte.
    pub fn from_code(b: u8) -> Option<ShardOpcode> {
        Some(match b {
            0 => ShardOpcode::Hello,
            1 => ShardOpcode::Ingest,
            4 => ShardOpcode::FullState,
            5 => ShardOpcode::DropCategory,
            6 => ShardOpcode::AdoptCategory,
            7 => ShardOpcode::Shutdown,
            8 => ShardOpcode::States,
            9 => ShardOpcode::Truncate,
            10 => ShardOpcode::Stall,
            _ => return None,
        })
    }
}

/// A coordinator → worker request.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardRequest {
    /// Handshake; see [`ShardOpcode::Hello`].
    Hello {
        /// Community user count (fixes the model shape).
        num_users: u32,
        /// Community category count (fixes the model shape).
        num_categories: u32,
        /// The coordinator's acked sequence horizon: log entries tagged
        /// `>= cut` are orphans of an aborted pipeline round and must be
        /// **physically truncated** before replay, so a dead tag can
        /// never be re-issued to a different event. [`NO_TAG`] keeps
        /// everything (cold boot, where the coordinator instead audits
        /// the reported [`HelloAck::max_tag`]).
        cut: u64,
        /// Categories this worker owns, ascending.
        owned: Vec<u32>,
    },
    /// A batch of globally sequence-tagged events for owned categories,
    /// ascending by tag — one frame, one durability sync, one ack.
    Ingest {
        /// The events, each with its 0-based global history position.
        events: Vec<(u64, StoreEvent)>,
    },
    /// All owned categories' states.
    FullState,
    /// Hand a category off; the reply carries its tagged sub-log.
    DropCategory {
        /// The category to stop owning.
        category: u32,
    },
    /// Take a category over, seeded with its tagged event history.
    AdoptCategory {
        /// The category to start owning.
        category: u32,
        /// Its full tagged event history, ascending by tag.
        events: Vec<(u64, StoreEvent)>,
    },
    /// Flush the WAL and exit after replying.
    Shutdown,
    /// The solved states of an explicit (owned) category subset — the
    /// coordinator's lazy snapshot refresh fetches only what ingest
    /// dirtied since the last publish.
    States {
        /// The categories wanted, ascending.
        categories: Vec<u32>,
    },
    /// Abort an in-flight pipeline round: discard every durable event
    /// tagged `>= cut` (physically, from the WAL) and rebuild the model
    /// without them. Sent to the *healthy* workers of a round another
    /// worker failed, so the whole cluster rolls back to the last
    /// globally acked sequence.
    Truncate {
        /// The global sequence to roll back to.
        cut: u64,
    },
    /// Fault injection for failure drills: sleep this long before
    /// handling each subsequent request (0 clears the stall). Never sent
    /// by production paths.
    Stall {
        /// The per-request delay, in milliseconds.
        millis: u64,
    },
}

impl ShardRequest {
    /// The request's opcode.
    pub fn opcode(&self) -> ShardOpcode {
        match self {
            ShardRequest::Hello { .. } => ShardOpcode::Hello,
            ShardRequest::Ingest { .. } => ShardOpcode::Ingest,
            ShardRequest::FullState => ShardOpcode::FullState,
            ShardRequest::DropCategory { .. } => ShardOpcode::DropCategory,
            ShardRequest::AdoptCategory { .. } => ShardOpcode::AdoptCategory,
            ShardRequest::Shutdown => ShardOpcode::Shutdown,
            ShardRequest::States { .. } => ShardOpcode::States,
            ShardRequest::Truncate { .. } => ShardOpcode::Truncate,
            ShardRequest::Stall { .. } => ShardOpcode::Stall,
        }
    }
}

/// One category's solved Step-1 state, as moved worker → coordinator.
///
/// Mirrors [`wot_core::pipeline::CategoryReputation`] field for field;
/// the coordinator re-wraps it and the values are bit-identical to what
/// a flat daemon would have solved, because they *are* the same solve
/// over the same per-category event order.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryStateWire {
    /// The category this state belongs to.
    pub category: u32,
    /// Rater reputations, ascending user id.
    pub raters: Vec<(u32, f64)>,
    /// Writer reputations, ascending user id.
    pub writers: Vec<(u32, f64)>,
    /// Converged review qualities, ascending review id.
    pub qualities: Vec<(u32, f64)>,
    /// Fixed-point sweeps of the last solve.
    pub iterations: u64,
    /// Whether the last solve met tolerance.
    pub converged: bool,
}

/// Handshake acknowledgment: what the worker's durable log held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloAck {
    /// Events recovered from the WAL into the model (after filtering to
    /// the owned categories and deduplicating re-appended adoptions).
    pub recovered: u64,
    /// Highest durable sequence tag in the log, or [`NO_TAG`]. This is
    /// what lets the coordinator reconcile an event that became durable
    /// right before a crash but was never acknowledged.
    pub max_tag: u64,
}

/// A worker → coordinator reply.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardReply {
    /// Reply to [`ShardRequest::Hello`].
    Hello(HelloAck),
    /// Reply to [`ShardRequest::Ingest`]: the batch's durability
    /// horizon. Every event tagged up to and including `max_tag` is on
    /// stable storage and applied — the single ack that closes a whole
    /// routed burst. No solved tables ride along; the coordinator
    /// fetches those lazily ([`ShardRequest::States`]) at publish time.
    Ingested {
        /// Highest tag the batch made durable.
        max_tag: u64,
    },
    /// Reply to adoption: the solved state of the adopted category.
    State(CategoryStateWire),
    /// Reply to [`ShardRequest::FullState`]: one state per owned
    /// category, ascending by category id.
    FullState(Vec<CategoryStateWire>),
    /// Reply to [`ShardRequest::DropCategory`]: the category's tagged
    /// sub-log, ascending by tag.
    SubLog(Vec<(u64, StoreEvent)>),
    /// Acknowledges [`ShardRequest::Shutdown`].
    Bye,
    /// Reply to [`ShardRequest::Truncate`]: how many durable events the
    /// rollback discarded.
    Truncated {
        /// Events removed from the log and the model.
        dropped: u64,
    },
    /// Acknowledges [`ShardRequest::Stall`].
    Ack,
}

// ---------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------

fn put_event(out: &mut Vec<u8>, e: &StoreEvent) {
    let mut body = Vec::with_capacity(32);
    wot_wal::encode_event(&mut body, e);
    put_u32(out, body.len() as u32);
    out.extend_from_slice(&body);
}

fn read_event(c: &mut Cursor<'_>, what: &str) -> Result<StoreEvent, String> {
    let len = c.u32(what)? as usize;
    let bytes = c.take(len, what)?;
    wot_wal::decode_event(bytes)
}

fn put_tagged_events(out: &mut Vec<u8>, events: &[(u64, StoreEvent)]) {
    put_u32(out, events.len() as u32);
    for (tag, e) in events {
        put_u64(out, *tag);
        put_event(out, e);
    }
}

fn read_tagged_events(c: &mut Cursor<'_>, what: &str) -> Result<Vec<(u64, StoreEvent)>, String> {
    // Tag + length prefix + the smallest event encoding.
    let n = c.count(13, what)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = c.u64(what)?;
        v.push((tag, read_event(c, what)?));
    }
    Ok(v)
}

/// Encodes a request body (no length prefix).
pub fn encode_shard_request(out: &mut Vec<u8>, req: &ShardRequest) {
    out.push(req.opcode() as u8);
    match *req {
        ShardRequest::Hello {
            num_users,
            num_categories,
            cut,
            ref owned,
        } => {
            put_u32(out, num_users);
            put_u32(out, num_categories);
            put_u64(out, cut);
            put_u32(out, owned.len() as u32);
            for &c in owned {
                put_u32(out, c);
            }
        }
        ShardRequest::Ingest { ref events } => {
            put_tagged_events(out, events);
        }
        ShardRequest::DropCategory { category } => {
            put_u32(out, category);
        }
        ShardRequest::FullState | ShardRequest::Shutdown => {}
        ShardRequest::AdoptCategory {
            category,
            ref events,
        } => {
            put_u32(out, category);
            put_tagged_events(out, events);
        }
        ShardRequest::States { ref categories } => {
            put_u32(out, categories.len() as u32);
            for &c in categories {
                put_u32(out, c);
            }
        }
        ShardRequest::Truncate { cut } => put_u64(out, cut),
        ShardRequest::Stall { millis } => put_u64(out, millis),
    }
}

/// Decodes a request body. The whole body must be consumed.
pub fn decode_shard_request(body: &[u8]) -> Result<ShardRequest, String> {
    let mut c = Cursor::new(body);
    let code = c.u8("opcode")?;
    let Some(op) = ShardOpcode::from_code(code) else {
        return Err(format!("unknown shard opcode {code:#04x}"));
    };
    let req = match op {
        ShardOpcode::Hello => {
            let num_users = c.u32("num_users")?;
            let num_categories = c.u32("num_categories")?;
            let cut = c.u64("cut")?;
            let n = c.count(4, "owned categories")?;
            let mut owned = Vec::with_capacity(n);
            for _ in 0..n {
                owned.push(c.u32("owned category")?);
            }
            ShardRequest::Hello {
                num_users,
                num_categories,
                cut,
                owned,
            }
        }
        ShardOpcode::Ingest => ShardRequest::Ingest {
            events: read_tagged_events(&mut c, "ingest batch")?,
        },
        ShardOpcode::FullState => ShardRequest::FullState,
        ShardOpcode::DropCategory => ShardRequest::DropCategory {
            category: c.u32("category")?,
        },
        ShardOpcode::AdoptCategory => {
            let category = c.u32("category")?;
            let events = read_tagged_events(&mut c, "adopted events")?;
            ShardRequest::AdoptCategory { category, events }
        }
        ShardOpcode::Shutdown => ShardRequest::Shutdown,
        ShardOpcode::States => {
            let n = c.count(4, "state categories")?;
            let mut categories = Vec::with_capacity(n);
            for _ in 0..n {
                categories.push(c.u32("state category")?);
            }
            ShardRequest::States { categories }
        }
        ShardOpcode::Truncate => ShardRequest::Truncate { cut: c.u64("cut")? },
        ShardOpcode::Stall => ShardRequest::Stall {
            millis: c.u64("millis")?,
        },
    };
    c.finish("shard request")?;
    Ok(req)
}

// ---------------------------------------------------------------------
// Reply codec
// ---------------------------------------------------------------------

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

fn put_state(out: &mut Vec<u8>, s: &CategoryStateWire) {
    put_u32(out, s.category);
    put_pairs(out, &s.raters);
    put_pairs(out, &s.writers);
    put_pairs(out, &s.qualities);
    put_u64(out, s.iterations);
    out.push(u8::from(s.converged));
}

fn read_state(c: &mut Cursor<'_>, what: &str) -> Result<CategoryStateWire, String> {
    Ok(CategoryStateWire {
        category: c.u32(what)?,
        raters: read_pairs(c, what)?,
        writers: read_pairs(c, what)?,
        qualities: read_pairs(c, what)?,
        iterations: c.u64(what)?,
        converged: c.u8(what)? != 0,
    })
}

/// Encodes an OK reply (no length prefix).
pub fn encode_shard_ok(out: &mut Vec<u8>, reply: &ShardReply) {
    out.push(STATUS_OK);
    match *reply {
        ShardReply::Hello(ack) => {
            out.push(ShardOpcode::Hello as u8);
            put_u64(out, ack.recovered);
            put_u64(out, ack.max_tag);
        }
        ShardReply::Ingested { max_tag } => {
            out.push(ShardOpcode::Ingest as u8);
            put_u64(out, max_tag);
        }
        ShardReply::State(ref s) => {
            out.push(ShardOpcode::AdoptCategory as u8);
            put_state(out, s);
        }
        ShardReply::FullState(ref states) => {
            out.push(ShardOpcode::FullState as u8);
            put_u32(out, states.len() as u32);
            for s in states {
                put_state(out, s);
            }
        }
        ShardReply::SubLog(ref events) => {
            out.push(ShardOpcode::DropCategory as u8);
            put_tagged_events(out, events);
        }
        ShardReply::Bye => out.push(ShardOpcode::Shutdown as u8),
        ShardReply::Truncated { dropped } => {
            out.push(ShardOpcode::Truncate as u8);
            put_u64(out, dropped);
        }
        ShardReply::Ack => out.push(ShardOpcode::Stall as u8),
    }
}

/// Encodes a typed error reply (no length prefix).
pub fn encode_shard_err(out: &mut Vec<u8>, code: ErrorCode, message: &str) {
    out.push(STATUS_ERR);
    out.push(code as u8);
    let bytes = message.as_bytes();
    let take = bytes.len().min(1024);
    put_u32(out, take as u32);
    out.extend_from_slice(&bytes[..take]);
}

/// Decodes a reply body into either a typed reply or a typed error.
pub fn decode_shard_reply(body: &[u8]) -> Result<Result<ShardReply, WireError>, String> {
    let mut c = Cursor::new(body);
    match c.u8("status")? {
        STATUS_OK => {}
        STATUS_ERR => {
            let code = ErrorCode::from_code(c.u8("error code")?)
                .ok_or_else(|| "unknown error code".to_string())?;
            let len = c.u32("error message length")? as usize;
            let bytes = c.take(len, "error message")?;
            let message = String::from_utf8_lossy(bytes).into_owned();
            c.finish("shard error reply")?;
            return Ok(Err(WireError { code, message }));
        }
        other => return Err(format!("unknown reply status {other}")),
    }
    let code = c.u8("reply opcode")?;
    let Some(op) = ShardOpcode::from_code(code) else {
        return Err(format!("unknown reply opcode {code:#04x}"));
    };
    let reply = match op {
        ShardOpcode::Hello => ShardReply::Hello(HelloAck {
            recovered: c.u64("recovered")?,
            max_tag: c.u64("max_tag")?,
        }),
        ShardOpcode::Ingest => ShardReply::Ingested {
            max_tag: c.u64("max_tag")?,
        },
        ShardOpcode::AdoptCategory => ShardReply::State(read_state(&mut c, "category state")?),
        ShardOpcode::FullState | ShardOpcode::States => {
            // A state is at least category + three empty tables +
            // iterations + converged.
            let n = c.count(25, "state count")?;
            let mut states = Vec::with_capacity(n);
            for _ in 0..n {
                states.push(read_state(&mut c, "category state")?);
            }
            ShardReply::FullState(states)
        }
        ShardOpcode::DropCategory => {
            ShardReply::SubLog(read_tagged_events(&mut c, "dropped sub-log")?)
        }
        ShardOpcode::Shutdown => ShardReply::Bye,
        ShardOpcode::Truncate => ShardReply::Truncated {
            dropped: c.u64("dropped")?,
        },
        ShardOpcode::Stall => ShardReply::Ack,
    };
    c.finish("shard reply")?;
    Ok(Ok(reply))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wot_community::{CategoryId, ReviewId, UserId};

    fn sample_events() -> Vec<(u64, StoreEvent)> {
        vec![
            (
                3,
                StoreEvent::Review {
                    writer: UserId(7),
                    review: ReviewId(2),
                    category: CategoryId(1),
                },
            ),
            (
                9,
                StoreEvent::Rating {
                    rater: UserId(4),
                    review: ReviewId(2),
                    value: 0.75,
                },
            ),
        ]
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = vec![
            ShardRequest::Hello {
                num_users: 10,
                num_categories: 3,
                cut: 17,
                owned: vec![0, 2],
            },
            ShardRequest::Hello {
                num_users: 10,
                num_categories: 3,
                cut: NO_TAG,
                owned: vec![],
            },
            ShardRequest::Ingest {
                events: sample_events(),
            },
            ShardRequest::FullState,
            ShardRequest::DropCategory { category: 0 },
            ShardRequest::AdoptCategory {
                category: 0,
                events: sample_events(),
            },
            ShardRequest::Shutdown,
            ShardRequest::States {
                categories: vec![0, 2],
            },
            ShardRequest::Truncate { cut: 9 },
            ShardRequest::Stall { millis: 250 },
        ];
        for req in reqs {
            let mut buf = Vec::new();
            encode_shard_request(&mut buf, &req);
            assert_eq!(decode_shard_request(&buf).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn replies_roundtrip() {
        let state = CategoryStateWire {
            category: 1,
            raters: vec![(4, 0.5)],
            writers: vec![(7, 0.25)],
            qualities: vec![(2, 0.75)],
            iterations: 6,
            converged: true,
        };
        let replies = vec![
            ShardReply::Hello(HelloAck {
                recovered: 5,
                max_tag: 9,
            }),
            ShardReply::Ingested { max_tag: 42 },
            ShardReply::State(state.clone()),
            ShardReply::FullState(vec![state]),
            ShardReply::SubLog(sample_events()),
            ShardReply::Bye,
            ShardReply::Truncated { dropped: 3 },
            ShardReply::Ack,
        ];
        for reply in replies {
            let mut buf = Vec::new();
            encode_shard_ok(&mut buf, &reply);
            assert_eq!(
                decode_shard_reply(&buf).unwrap().unwrap(),
                reply,
                "{reply:?}"
            );
        }
    }

    #[test]
    fn error_reply_roundtrips() {
        let mut buf = Vec::new();
        encode_shard_err(&mut buf, ErrorCode::Rejected, "duplicate rating");
        let err = decode_shard_reply(&buf).unwrap().unwrap_err();
        assert_eq!(err.code, ErrorCode::Rejected);
        assert_eq!(err.message, "duplicate rating");
    }

    #[test]
    fn malformed_bodies_are_typed_errors() {
        // Unknown opcode — including the two retired read opcodes.
        for code in [0x66, 2, 3] {
            assert!(decode_shard_request(&[code]).is_err());
        }
        // Truncated operands.
        let mut buf = Vec::new();
        encode_shard_request(&mut buf, &ShardRequest::DropCategory { category: 1 });
        assert!(decode_shard_request(&buf[..buf.len() - 1]).is_err());
        // Trailing garbage.
        buf.push(0xFF);
        assert!(decode_shard_request(&buf).is_err());
        // Empty body.
        assert!(decode_shard_request(&[]).is_err());
        // Implausible adoption count.
        let mut buf = Vec::new();
        buf.push(ShardOpcode::AdoptCategory as u8);
        put_u32(&mut buf, 0);
        put_u32(&mut buf, u32::MAX);
        assert!(decode_shard_request(&buf).is_err());
        // Implausible ingest-batch count.
        let mut buf = Vec::new();
        buf.push(ShardOpcode::Ingest as u8);
        put_u32(&mut buf, u32::MAX);
        assert!(decode_shard_request(&buf).is_err());
    }
}
