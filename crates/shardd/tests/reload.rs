//! The worker's one reload path, driven frame by frame.
//!
//! A worker keeps no copy of its history beside its log: the handshake,
//! a `Truncate` rollback, a `DropCategory` and a refused adoption all
//! rebuild the model from the owned part of the log. These tests walk
//! that path through the sequences no cluster drill reaches —
//! truncate-then-drop, readopt-then-drop, a refused adoption — and hold
//! every solved table bitwise to a flat model over the same events.

use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;

use wot_community::{CategoryId, ReviewId, StoreEvent, UserId};
use wot_core::{CategoryReputation, DeriveConfig, DerivedCache, IncrementalDerived, ReplayEvent};
use wot_serve::protocol::{read_frame, write_frame, ErrorCode, FrameRead};
use wot_serve::shard_proto::{
    decode_shard_reply, encode_shard_ok, encode_shard_request, HelloAck, ShardReply, ShardRequest,
    MAX_SHARD_FRAME_LEN, NO_TAG,
};
use wot_serve::WireError;

const USERS: u32 = 8;
const CATEGORIES: u32 = 2;

/// One worker process on a WAL path, driven one request at a time.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    stdout: ChildStdout,
}

impl Worker {
    fn spawn(wal: &Path) -> Worker {
        let mut child = Command::new(env!("CARGO_BIN_EXE_wot-shardd"))
            .arg("--wal")
            .arg(wal)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let stdin = child.stdin.take().unwrap();
        let stdout = child.stdout.take().unwrap();
        Worker {
            child,
            stdin,
            stdout,
        }
    }

    fn request(&mut self, req: &ShardRequest) -> Result<ShardReply, WireError> {
        let mut body = Vec::new();
        encode_shard_request(&mut body, req);
        write_frame(&mut self.stdin, &body).unwrap();
        match read_frame(&mut self.stdout, MAX_SHARD_FRAME_LEN).unwrap() {
            FrameRead::Frame(f) => decode_shard_reply(&f).unwrap(),
            other => panic!("expected a reply frame, got {other:?}"),
        }
    }

    fn hello(&mut self, cut: u64, owned: Vec<u32>) -> u64 {
        let req = ShardRequest::Hello {
            num_users: USERS,
            num_categories: CATEGORIES,
            cut,
            owned,
        };
        match self.request(&req).unwrap() {
            ShardReply::Hello(HelloAck { max_tag }) => max_tag,
            other => panic!("unexpected reply to Hello: {other:?}"),
        }
    }

    fn drop_category(&mut self, category: u32) -> Vec<(u64, StoreEvent)> {
        match self
            .request(&ShardRequest::DropCategory { category })
            .unwrap()
        {
            ShardReply::SubLog(events) => events,
            other => panic!("unexpected reply to DropCategory: {other:?}"),
        }
    }

    fn adopt(
        &mut self,
        category: u32,
        events: Vec<(u64, StoreEvent)>,
    ) -> Result<ShardReply, WireError> {
        self.request(&ShardRequest::AdoptCategory { category, events })
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn wal_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wot-reload-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("w.wal")
}

fn review(tag: u64, writer: u32, review: u32, category: u32) -> (u64, StoreEvent) {
    let event = StoreEvent::Review {
        writer: UserId(writer),
        review: ReviewId(review),
        category: CategoryId(category),
    };
    (tag, event)
}

fn rating(tag: u64, rater: u32, review: u32, value: f64) -> (u64, StoreEvent) {
    let event = StoreEvent::Rating {
        rater: UserId(rater),
        review: ReviewId(review),
        value,
    };
    (tag, event)
}

/// Eight tagged events over two categories: reviews 0 and 2 in
/// category 0, review 1 in category 1.
fn history() -> Vec<(u64, StoreEvent)> {
    vec![
        review(0, 0, 0, 0),
        review(1, 1, 1, 1),
        rating(2, 2, 0, 0.8),
        rating(3, 3, 1, 0.6),
        rating(4, 4, 0, 0.4),
        review(5, 2, 2, 0),
        rating(6, 5, 2, 1.0),
        rating(7, 6, 1, 0.2),
    ]
}

/// The flat model's tables over `events`: what every worker table must
/// equal bit for bit.
fn oracle(events: &[(u64, StoreEvent)]) -> Vec<Arc<CategoryReputation>> {
    let mut model = IncrementalDerived::new(
        USERS as usize,
        CATEGORIES as usize,
        &DeriveConfig::default(),
    )
    .unwrap();
    for &(_, e) in events {
        model.apply(&ReplayEvent::from(e)).unwrap();
    }
    model.tables_cached(&mut DerivedCache::default()).to_vec()
}

/// Asserts `got` is a `States` reply carrying `want` bit for bit: the
/// two encode to the same bytes, and the codec writes every `f64` as
/// its bit pattern.
fn same_bits(got: ShardReply, want: &[Arc<CategoryReputation>]) {
    assert!(matches!(got, ShardReply::States(_)), "{got:?}");
    let wire = |reply: &ShardReply| {
        let mut body = Vec::new();
        encode_shard_ok(&mut body, reply);
        body
    };
    assert_eq!(wire(&got), wire(&ShardReply::States(want.to_vec())));
}

/// `Hello` → `Ingest` over two categories → `Truncate`, then a drop
/// that must ship exactly the category's events below the cut, a
/// re-adoption whose re-appended tags the next drop deduplicates, and a
/// `kill -9` after which a fresh worker on the same log answers the
/// same bits.
#[test]
fn truncate_drop_readopt_and_restart_share_one_history() {
    let wal = wal_path("seq");
    let mut worker = Worker::spawn(&wal);
    assert_eq!(worker.hello(NO_TAG, vec![0, 1]), NO_TAG);
    let events = history();
    let reply = worker.request(&ShardRequest::Ingest {
        events: events.clone(),
    });
    assert_eq!(reply, Ok(ShardReply::Ingested { max_tag: 7 }));

    let cut = 5;
    let reply = worker.request(&ShardRequest::Truncate { cut });
    assert_eq!(reply, Ok(ShardReply::Truncated { dropped: 3 }));
    let want = oracle(&events[..5]);
    let states = |w: &mut Worker, categories| w.request(&ShardRequest::States { categories });
    same_bits(states(&mut worker, vec![0, 1]).unwrap(), &want);

    let category_0: Vec<(u64, StoreEvent)> = [0, 2, 4].map(|t| events[t]).to_vec();
    assert_eq!(worker.drop_category(0), category_0);
    let refused = states(&mut worker, vec![0]).unwrap_err();
    assert_eq!(refused.code, ErrorCode::BadRequest);
    assert!(refused.message.contains("not owned"), "{}", refused.message);
    same_bits(states(&mut worker, vec![1]).unwrap(), &want[1..]);

    // The adoption appends tags 0, 2 and 4 a second time; the drop
    // after it ships each once.
    same_bits(worker.adopt(0, category_0.clone()).unwrap(), &want[..1]);
    assert_eq!(worker.drop_category(0), category_0);
    same_bits(worker.adopt(0, category_0.clone()).unwrap(), &want[..1]);
    same_bits(states(&mut worker, vec![0, 1]).unwrap(), &want);

    // kill -9: the new process's handshake recovers the same model.
    drop(worker);
    let mut worker = Worker::spawn(&wal);
    assert_eq!(worker.hello(cut, vec![0, 1]), 4);
    same_bits(states(&mut worker, vec![0, 1]).unwrap(), &want);
    assert_eq!(worker.drop_category(0), category_0);
    let _ = std::fs::remove_dir_all(wal.parent().unwrap());
}

/// An adoption the model refuses part-way leaves the category unowned,
/// with none of its history applied; a clean adoption afterwards
/// succeeds, and the refused prefix the log still holds is not shipped
/// twice.
#[test]
fn a_refused_adoption_leaves_the_category_unowned() {
    let wal = wal_path("refused");
    let mut worker = Worker::spawn(&wal);
    worker.hello(NO_TAG, vec![1]);
    let clean = vec![review(0, 0, 0, 0), rating(2, 2, 0, 0.8)];
    let mut poisoned = clean.clone();
    poisoned.push(rating(4, 0, 0, 0.5)); // the writer rates their own review

    let refused = worker.adopt(0, poisoned).unwrap_err();
    assert_eq!(refused.code, ErrorCode::Rejected, "{}", refused.message);
    let err = worker
        .request(&ShardRequest::States {
            categories: vec![0],
        })
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::BadRequest);
    assert!(err.message.contains("not owned"), "{}", err.message);

    same_bits(
        worker.adopt(0, clean.clone()).unwrap(),
        &oracle(&clean)[..1],
    );
    assert_eq!(worker.drop_category(0), clean);
    let _ = std::fs::remove_dir_all(wal.parent().unwrap());
}
