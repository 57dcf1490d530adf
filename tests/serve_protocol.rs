//! Wire-protocol robustness: a live server poked with raw sockets.
//!
//! A serving daemon's framing layer faces desynced clients, fuzzers and
//! truncated writes; every such input must come back as a typed error
//! frame (or a clean close) — never a hang, a panic, or a corrupted
//! later response. These tests bypass [`webtrust::serve::Client`] and
//! write bytes straight onto the socket.

use std::io::{Read, Write};
use std::net::TcpStream;

use webtrust::core::{DeriveConfig, IncrementalDerived, ReplayEvent};
use webtrust::serve::protocol::{
    self, ErrorCode, FrameRead, OkBody, Opcode, Request, MAX_REQUEST_LEN, MAX_RESPONSE_LEN,
};
use webtrust::serve::{Client, ServeOptions, Server, ServerHandle};
use webtrust::synth::{generate, shuffled_event_log, SynthConfig};

struct Rig {
    handle: ServerHandle,
    dir: std::path::PathBuf,
    users: u32,
    categories: u32,
    /// Events the daemon was started on.
    base_seq: u64,
    /// Reviews among them: the next dense review id.
    reviews: u32,
}

impl Rig {
    fn boot(tag: &str) -> Rig {
        let store = generate(&SynthConfig::tiny(13)).unwrap().store;
        let log = shuffled_event_log(&store, 2);
        let cfg = DeriveConfig::default();
        let mut model =
            IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
        for e in &log {
            model.apply(&ReplayEvent::from(*e)).unwrap();
        }
        let dir =
            std::env::temp_dir().join(format!("wot-serve-proto-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let handle = Server::start(
            model,
            log.len() as u64,
            &ServeOptions::local(dir.join("serve.wal")),
        )
        .unwrap();
        Rig {
            handle,
            dir,
            users: store.num_users() as u32,
            categories: store.num_categories() as u32,
            base_seq: log.len() as u64,
            reviews: store.num_reviews() as u32,
        }
    }

    fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(self.handle.addr()).unwrap();
        s.set_nodelay(true).unwrap();
        s
    }

    fn finish(self) {
        self.handle.shutdown().unwrap();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Sends a raw request body and reads back one decoded response.
fn roundtrip(stream: &mut TcpStream, body: &[u8]) -> protocol::Response {
    protocol::write_frame(stream, body).unwrap();
    match protocol::read_frame(stream, MAX_RESPONSE_LEN).unwrap() {
        FrameRead::Frame(f) => protocol::decode_response(&f).unwrap(),
        other => panic!("expected a response frame, got {other:?}"),
    }
}

fn expect_error(resp: protocol::Response, code: ErrorCode) -> String {
    match resp.body {
        Err(e) => {
            assert_eq!(e.code, code, "{}", e.message);
            e.message
        }
        Ok(ok) => panic!("expected {code:?} error, got {ok:?}"),
    }
}

fn encode(req: &Request) -> Vec<u8> {
    let mut body = Vec::new();
    protocol::encode_request(&mut body, req);
    body
}

/// An empty batch acks with the daemon's current seq even on a
/// connection that has not yet seen a response — not with the client's
/// initial `last_seq` of 0.
#[test]
fn empty_batch_on_a_fresh_connection_acks_the_current_seq() {
    let rig = Rig::boot("empty-batch");
    let mut fresh = Client::connect(rig.handle.addr()).unwrap();
    assert_eq!(fresh.last_seq(), 0, "no response seen yet");
    let acked = fresh.ingest_batch(&[]).unwrap();
    assert!(rig.base_seq > 0, "the rig boots past seq 0");
    assert_eq!(acked, rig.base_seq);
    assert_eq!(acked, fresh.ping().unwrap());
    rig.finish();
}

/// Malformed bodies — unknown opcodes, truncated operands, trailing
/// garbage, an empty body — each earn a `BadRequest` error frame, and
/// the connection stays usable for the next well-formed request.
#[test]
fn malformed_requests_get_typed_errors_and_spare_the_connection() {
    let rig = Rig::boot("malformed");
    let mut s = rig.connect();

    let msg = expect_error(roundtrip(&mut s, &[0x77]), ErrorCode::BadRequest);
    assert!(msg.contains("unknown opcode"), "{msg}");

    // Truncated operands: a Trust request missing its last byte.
    let trust = encode(&Request::Trust { i: 1, j: 2 });
    expect_error(
        roundtrip(&mut s, &trust[..trust.len() - 1]),
        ErrorCode::BadRequest,
    );

    // Trailing garbage after valid operands.
    let mut long = trust.clone();
    long.push(0xAB);
    expect_error(roundtrip(&mut s, &long), ErrorCode::BadRequest);

    // Empty body: no opcode at all.
    expect_error(roundtrip(&mut s, &[]), ErrorCode::BadRequest);

    // An ingest body whose event tag is unknown.
    expect_error(
        roundtrip(&mut s, &[Opcode::Ingest as u8, 0xEE, 1, 2, 3]),
        ErrorCode::BadRequest,
    );

    // After all that abuse, the same connection still answers.
    let resp = roundtrip(&mut s, &encode(&Request::Ping));
    assert!(matches!(resp.body, Ok(OkBody::Empty(Opcode::Ping))));

    rig.finish();
}

/// An oversized length prefix is refused with an error frame and the
/// server closes the connection (it cannot resync past a lying length).
#[test]
fn oversized_frames_are_refused_then_closed() {
    let rig = Rig::boot("oversized");
    let mut s = rig.connect();
    let claimed = (MAX_REQUEST_LEN as u32) + 1;
    s.write_all(&claimed.to_le_bytes()).unwrap();
    s.flush().unwrap();
    match protocol::read_frame(&mut s, MAX_RESPONSE_LEN).unwrap() {
        FrameRead::Frame(f) => {
            let resp = protocol::decode_response(&f).unwrap();
            let msg = expect_error(resp, ErrorCode::BadRequest);
            assert!(msg.contains("cap"), "{msg}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // And then EOF: the server hung up.
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());

    // A fresh connection is unaffected.
    let mut s2 = rig.connect();
    let resp = roundtrip(&mut s2, &encode(&Request::Ping));
    assert!(matches!(resp.body, Ok(OkBody::Empty(Opcode::Ping))));
    rig.finish();
}

/// A client that dies mid-frame (length prefix promised more bytes than
/// it sent) must not wedge a worker: the server notices the EOF, drops
/// the connection, and keeps serving others.
#[test]
fn truncated_frames_do_not_wedge_workers() {
    let rig = Rig::boot("truncated");
    {
        let mut s = rig.connect();
        s.write_all(&16u32.to_le_bytes()).unwrap();
        s.write_all(&[1, 2, 3]).unwrap(); // 3 of the promised 16 bytes
        s.flush().unwrap();
    } // socket closes here, mid-frame
    {
        let mut s = rig.connect();
        s.write_all(&[0xFF, 0x00]).unwrap(); // 2 of 4 length-prefix bytes
        s.flush().unwrap();
    }
    // The pool still answers promptly.
    let mut s = rig.connect();
    let resp = roundtrip(&mut s, &encode(&Request::Ping));
    assert!(matches!(resp.body, Ok(OkBody::Empty(Opcode::Ping))));
    rig.finish();
}

/// Out-of-range ids and domain-invalid parameters earn their specific
/// error codes, echo the request's opcode, and never perturb state.
#[test]
fn out_of_range_and_invalid_parameters() {
    let rig = Rig::boot("range");
    let mut s = rig.connect();
    let (users, categories) = (rig.users, rig.categories);

    let cases: Vec<(Request, ErrorCode)> = vec![
        (Request::Trust { i: users, j: 0 }, ErrorCode::OutOfRange),
        (Request::Trust { i: 0, j: u32::MAX }, ErrorCode::OutOfRange),
        (Request::TopK { user: users, k: 5 }, ErrorCode::OutOfRange),
        (Request::TopK { user: 0, k: 0 }, ErrorCode::BadRequest),
        (
            Request::RaterReputation {
                category: categories,
                user: 0,
            },
            ErrorCode::OutOfRange,
        ),
        (
            Request::RaterReputation {
                category: 0,
                user: users,
            },
            ErrorCode::OutOfRange,
        ),
        (
            Request::CategoryReputations {
                category: categories,
            },
            ErrorCode::OutOfRange,
        ),
    ];
    for (req, code) in cases {
        let body = encode(&req);
        let resp = roundtrip(&mut s, &body);
        // The error frame echoes the request's opcode — a pipelining
        // client can attribute it without guessing.
        assert_eq!(resp.opcode, req.opcode(), "{req:?}");
        expect_error(resp, code);
    }

    // In-range requests on the same connection still work.
    let resp = roundtrip(&mut s, &encode(&Request::Trust { i: 0, j: 1 }));
    assert!(matches!(resp.body, Ok(OkBody::Trust(_))));
    rig.finish();
}

/// Ingest events that decode fine but violate model invariants are
/// `Rejected` — and the log stays clean (nothing unreplayable written).
#[test]
fn invalid_ingest_events_are_rejected_without_poisoning_the_wal() {
    use webtrust::community::{CategoryId, ReviewId, StoreEvent, UserId};
    let rig = Rig::boot("reject");
    let mut s = rig.connect();
    let seq0 = {
        let resp = roundtrip(&mut s, &encode(&Request::Ping));
        resp.seq
    };

    let bad_events = vec![
        // Writer out of range.
        StoreEvent::Review {
            writer: UserId(rig.users),
            review: ReviewId(u32::MAX),
            category: CategoryId(0),
        },
        // Non-dense review id.
        StoreEvent::Review {
            writer: UserId(0),
            review: ReviewId(u32::MAX - 1),
            category: CategoryId(0),
        },
        // Rating for an unknown review.
        StoreEvent::Rating {
            rater: UserId(0),
            review: ReviewId(u32::MAX),
            value: 0.5,
        },
        // Non-finite rating value.
        StoreEvent::Rating {
            rater: UserId(0),
            review: ReviewId(0),
            value: f64::NAN,
        },
    ];
    for event in bad_events {
        let resp = roundtrip(&mut s, &encode(&Request::Ingest(event)));
        expect_error(resp, ErrorCode::Rejected);
    }
    // Nothing moved.
    let resp = roundtrip(&mut s, &encode(&Request::Ping));
    assert_eq!(resp.seq, seq0);
    let resp = roundtrip(&mut s, &encode(&Request::Stats));
    match resp.body {
        Ok(OkBody::Stats(stats)) => assert_eq!(stats.events, seq0),
        other => panic!("expected stats, got {other:?}"),
    }
    rig.finish();
}

/// The review the rig admits next: writer 0, the next dense id,
/// category 0.
fn next_review(rig: &Rig, offset: u32) -> webtrust::community::StoreEvent {
    use webtrust::community::{CategoryId, ReviewId, StoreEvent, UserId};
    StoreEvent::Review {
        writer: UserId(0),
        review: ReviewId(rig.reviews + offset),
        category: CategoryId(0),
    }
}

/// Malformed `IngestBatch` frames — a count larger than the body can
/// hold, a truncated last event, trailing bytes — each earn a
/// `BadRequest` error frame, ingest nothing, and spare the connection;
/// a count of 0 acks the current seq.
#[test]
fn malformed_ingest_batches_get_typed_errors_and_spare_the_connection() {
    let rig = Rig::boot("batch-malformed");
    let mut s = rig.connect();
    let seq0 = roundtrip(&mut s, &encode(&Request::Ping)).seq;
    let one = encode(&Request::IngestBatch(vec![next_review(&rig, 0)]));

    // The count claims far more events than the body carries.
    let mut inflated = one.clone();
    inflated[1..5].copy_from_slice(&1000u32.to_le_bytes());
    let msg = expect_error(roundtrip(&mut s, &inflated), ErrorCode::BadRequest);
    assert!(msg.contains("implausible count"), "{msg}");

    // Two events promised and framed, the second cut short. (Ratings,
    // the longer record, so what is left still passes the count check.)
    let rating = webtrust::community::StoreEvent::Rating {
        rater: webtrust::community::UserId(0),
        review: webtrust::community::ReviewId(0),
        value: 0.5,
    };
    let two = encode(&Request::IngestBatch(vec![rating, rating]));
    let msg = expect_error(
        roundtrip(&mut s, &two[..two.len() - 4]),
        ErrorCode::BadRequest,
    );
    assert!(msg.contains("truncated"), "{msg}");

    // A whole batch with bytes after it.
    let mut long = one.clone();
    long.push(0xAB);
    let msg = expect_error(roundtrip(&mut s, &long), ErrorCode::BadRequest);
    assert!(msg.contains("trailing"), "{msg}");

    // Nothing was ingested, and an empty batch acks where things stand.
    let resp = roundtrip(&mut s, &encode(&Request::IngestBatch(vec![])));
    assert_eq!(resp.opcode, Opcode::IngestBatch);
    assert_eq!(resp.seq, seq0);
    match resp.body {
        Ok(OkBody::IngestBatch(report)) => {
            assert_eq!((report.admitted, report.refused), (0, None));
        }
        other => panic!("expected a batch report, got {other:?}"),
    }

    // The connection still ingests a well-formed batch.
    let resp = roundtrip(&mut s, &one);
    assert_eq!(resp.seq, seq0 + 1);
    assert!(matches!(resp.body, Ok(OkBody::IngestBatch(ref r)) if r.admitted == 1));
    rig.finish();
}

/// An event the model refuses in the middle of a frame stops the batch
/// there: the report says one admitted and names the refusal, the seq is
/// the prefix's horizon, the connection survives, and the log holds
/// exactly the prefix.
#[test]
fn an_invalid_event_mid_frame_leaves_the_wal_holding_exactly_the_prefix() {
    use webtrust::community::{CategoryId, ReviewId, StoreEvent, UserId};
    let rig = Rig::boot("batch-refused");
    let mut s = rig.connect();
    let seq0 = roundtrip(&mut s, &encode(&Request::Ping)).seq;
    let batch = vec![
        next_review(&rig, 0),
        StoreEvent::Review {
            writer: UserId(rig.users),
            review: ReviewId(rig.reviews + 1),
            category: CategoryId(0),
        },
        next_review(&rig, 1),
    ];
    let resp = roundtrip(&mut s, &encode(&Request::IngestBatch(batch.clone())));
    assert_eq!(resp.seq, seq0 + 1, "the horizon covers the prefix only");
    match resp.body {
        Ok(OkBody::IngestBatch(report)) => {
            assert_eq!(report.admitted, 1);
            let refused = report.refused.expect("the second event is refused");
            assert_eq!(refused.code, ErrorCode::Rejected, "{}", refused.message);
        }
        other => panic!("expected a batch report, got {other:?}"),
    }
    let resp = roundtrip(&mut s, &encode(&Request::Ping));
    assert_eq!(resp.seq, seq0 + 1);

    let Rig { handle, dir, .. } = rig;
    handle.shutdown().unwrap();
    let logged = webtrust::wal::read_log(&dir.join("serve.wal"))
        .unwrap()
        .events;
    assert_eq!(logged, batch[..1]);
    std::fs::remove_dir_all(&dir).ok();
}
