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
//! covers both. A table travels as the [`CategoryReputation`] the
//! worker's engine solved: the codec writes it straight from the
//! worker's shared copy and reads it into one the coordinator shares.
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

use std::sync::Arc;

use wot_community::{CategoryId, ReviewId, StoreEvent, UserId};
use wot_core::CategoryReputation;

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
    // them from its own snapshot), as is 4 (every owned category's
    // state; a restart asks `States` for its assignment). All three
    // decode as unknown opcodes.
    /// Stop owning a category; reply with its tagged event sub-log.
    DropCategory = 5,
    /// Start owning a category, seeded with its tagged event history.
    AdoptCategory = 6,
    /// Flush and exit after replying.
    Shutdown = 7,
    /// States of an explicit category subset (lazy snapshot refresh,
    /// restart).
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
    /// dirtied since the last publish, a restart everything the worker
    /// owns.
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
            ShardRequest::DropCategory { .. } => ShardOpcode::DropCategory,
            ShardRequest::AdoptCategory { .. } => ShardOpcode::AdoptCategory,
            ShardRequest::Shutdown => ShardOpcode::Shutdown,
            ShardRequest::States { .. } => ShardOpcode::States,
            ShardRequest::Truncate { .. } => ShardOpcode::Truncate,
            ShardRequest::Stall { .. } => ShardOpcode::Stall,
        }
    }
}

/// Handshake acknowledgment: what the worker's durable log held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloAck {
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
    /// Reply to [`ShardRequest::States`] (one table per asked category,
    /// in order) and to [`ShardRequest::AdoptCategory`] (the adopted
    /// one's): the flat daemon's own solve over the same event order.
    States(Vec<Arc<CategoryReputation>>),
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

/// One event as a length-prefixed WAL record, written in place.
fn put_event(out: &mut Vec<u8>, e: &StoreEvent) {
    let at = out.len();
    put_u32(out, 0);
    wot_wal::encode_event(out, e);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

fn read_event(c: &mut Cursor<'_>, what: &str) -> Result<StoreEvent, String> {
    let len = c.u32(what)? as usize;
    let bytes = c.take(len, what)?;
    wot_wal::decode_event(bytes)
}

/// Length prefix plus the smallest WAL event encoding (a review, 13
/// bytes): the least one event of a run occupies after its head.
const MIN_EVENT_RECORD: usize = 4 + 13;

/// Length prefix plus the largest WAL event encoding (a rating, 17
/// bytes).
pub(crate) const MAX_EVENT_RECORD: usize = 4 + 17;

/// Writes a count-prefixed run of events: the count, then per event its
/// head (the shard form's sequence tag; nothing in the client's
/// `IngestBatch`) and the event as a length-prefixed WAL record.
pub(crate) fn put_event_run<'a, H: 'a>(
    out: &mut Vec<u8>,
    run: impl ExactSizeIterator<Item = (H, &'a StoreEvent)>,
    put_head: impl Fn(&mut Vec<u8>, H),
) {
    put_u32(out, run.len() as u32);
    for (head, event) in run {
        put_head(out, head);
        put_event(out, event);
    }
}

/// Reads a run [`put_event_run`] wrote, each head `head_len` bytes. The
/// count is checked against what the remaining bytes could hold before
/// anything is allocated.
pub(crate) fn read_event_run<H>(
    c: &mut Cursor<'_>,
    head_len: usize,
    what: &str,
    read_head: impl Fn(&mut Cursor<'_>) -> Result<H, String>,
) -> Result<Vec<(H, StoreEvent)>, String> {
    let n = c.count(head_len + MIN_EVENT_RECORD, what)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let head = read_head(c)?;
        v.push((head, read_event(c, what)?));
    }
    Ok(v)
}

fn put_tagged_events(out: &mut Vec<u8>, events: &[(u64, StoreEvent)]) {
    put_event_run(out, events.iter().map(|(tag, e)| (*tag, e)), put_u64);
}

fn read_tagged_events(c: &mut Cursor<'_>, what: &str) -> Result<Vec<(u64, StoreEvent)>, String> {
    read_event_run(c, 8, what, |c| c.u64(what))
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
        ShardRequest::Shutdown => {}
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

fn put_state(out: &mut Vec<u8>, s: &CategoryReputation) {
    put_u32(out, s.category.0);
    put_pairs(out, &s.rater_reputation, |u: UserId| u.0);
    put_pairs(out, &s.writer_reputation, |u: UserId| u.0);
    put_pairs(out, &s.review_quality, |r: ReviewId| r.0);
    put_u64(out, s.iterations as u64);
    out.push(u8::from(s.converged));
}

fn read_state(c: &mut Cursor<'_>, what: &str) -> Result<CategoryReputation, String> {
    Ok(CategoryReputation {
        category: CategoryId(c.u32(what)?),
        rater_reputation: read_pairs(c, what, UserId)?,
        writer_reputation: read_pairs(c, what, UserId)?,
        review_quality: read_pairs(c, what, ReviewId)?,
        iterations: c.u64(what)? as usize,
        converged: c.u8(what)? != 0,
    })
}

/// Encodes an OK reply (no length prefix).
pub fn encode_shard_ok(out: &mut Vec<u8>, reply: &ShardReply) {
    out.push(STATUS_OK);
    match *reply {
        ShardReply::Hello(ack) => {
            out.push(ShardOpcode::Hello as u8);
            put_u64(out, ack.max_tag);
        }
        ShardReply::Ingested { max_tag } => {
            out.push(ShardOpcode::Ingest as u8);
            put_u64(out, max_tag);
        }
        ShardReply::States(ref states) => {
            out.push(ShardOpcode::States as u8);
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
            max_tag: c.u64("max_tag")?,
        }),
        ShardOpcode::Ingest => ShardReply::Ingested {
            max_tag: c.u64("max_tag")?,
        },
        ShardOpcode::States => {
            // A state is at least category + three empty tables +
            // iterations + converged.
            let n = c.count(25, "state count")?;
            let mut states = Vec::with_capacity(n);
            for _ in 0..n {
                states.push(Arc::new(read_state(&mut c, "category state")?));
            }
            ShardReply::States(states)
        }
        // Adoption answers with a `States` reply.
        ShardOpcode::AdoptCategory => return Err(format!("no reply carries opcode {code:#04x}")),
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
    use crate::protocol::put_f64;

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
        let state = Arc::new(CategoryReputation {
            category: CategoryId(1),
            rater_reputation: vec![(UserId(4), 0.5)],
            writer_reputation: vec![(UserId(7), 0.25)],
            review_quality: vec![(ReviewId(2), f64::from_bits(0x3FC5_5555_5555_5555))],
            iterations: 6,
            converged: true,
        });
        let replies = vec![
            ShardReply::Hello(HelloAck { max_tag: 9 }),
            ShardReply::Ingested { max_tag: 42 },
            ShardReply::States(vec![]),
            ShardReply::States(vec![state.clone(), state]),
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

    /// A table's bytes are the layout the wire has always carried:
    /// category, three `(id, f64 bits)` tables, iterations, converged.
    #[test]
    fn a_state_is_written_field_by_field() {
        let state = CategoryReputation {
            category: CategoryId(3),
            rater_reputation: vec![(UserId(4), 0.5)],
            writer_reputation: vec![],
            review_quality: vec![(ReviewId(2), 0.75)],
            iterations: 6,
            converged: true,
        };
        let mut want = vec![STATUS_OK, ShardOpcode::States as u8];
        put_u32(&mut want, 1);
        put_u32(&mut want, 3);
        put_u32(&mut want, 1);
        put_u32(&mut want, 4);
        put_f64(&mut want, 0.5);
        put_u32(&mut want, 0);
        put_u32(&mut want, 1);
        put_u32(&mut want, 2);
        put_f64(&mut want, 0.75);
        put_u64(&mut want, 6);
        want.push(1);
        let mut got = Vec::new();
        encode_shard_ok(&mut got, &ShardReply::States(vec![Arc::new(state)]));
        assert_eq!(got, want);
    }

    /// The run helper's size bounds are the WAL codec's record sizes,
    /// and the shard form's bytes are the tag, then the record.
    #[test]
    fn event_records_are_the_sizes_the_run_bounds_assume() {
        let records: Vec<usize> = sample_events()
            .iter()
            .map(|(_, e)| {
                let mut out = Vec::new();
                put_event(&mut out, e);
                assert_eq!(out[..4], ((out.len() - 4) as u32).to_le_bytes());
                out.len()
            })
            .collect();
        assert_eq!(records, [MIN_EVENT_RECORD, MAX_EVENT_RECORD]);
        let mut run = Vec::new();
        put_tagged_events(&mut run, &sample_events()[..1]);
        let mut want = Vec::new();
        put_u32(&mut want, 1);
        put_u64(&mut want, 3);
        put_u32(&mut want, 13);
        wot_wal::encode_event(&mut want, &sample_events()[0].1);
        assert_eq!(run, want);
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
        // Unknown opcode — including the three retired state opcodes.
        for code in [0x66, 2, 3, 4] {
            assert!(decode_shard_request(&[code]).is_err());
        }
        // No reply carries the adoption opcode.
        assert!(decode_shard_reply(&[STATUS_OK, ShardOpcode::AdoptCategory as u8]).is_err());
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
