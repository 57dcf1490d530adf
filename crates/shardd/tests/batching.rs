//! What an `ingest_batch` round costs on the wire, and what a refusal
//! or a lost worker inside an interleaved round leaves behind.
//!
//! A round ships each owning worker its events of the round as one
//! `Ingest` frame, split only at 256 events, however the round's events
//! interleave across workers — so a round costs each worker one frame,
//! one wake-group and one fsync. The frame count is read through the
//! coordinator's hidden `ingest_frames` counter; the answers are held
//! bit for bit to the offline batch oracle.

use std::path::PathBuf;
use std::time::Duration;

use wot_community::events::replay_into_store;
use wot_community::{CategoryId, RatingScale, ReviewId, StoreEvent, UserId};
use wot_core::{pipeline, DeriveConfig, Derived};
use wot_serve::conformance::assert_backend_matches;
use wot_serve::protocol::ErrorCode;
use wot_serve::{Coordinator, CoordinatorOptions, ServeError};

const USERS: usize = 40;
const CATEGORIES: usize = 4;

/// A two-worker cluster in a fresh directory, with one category owned
/// by each worker.
struct Cluster {
    coord: Coordinator,
    dir: PathBuf,
    /// `cats[w]` is a category worker `w` owns.
    cats: [u32; 2],
}

impl Cluster {
    fn start(tag: &str) -> Cluster {
        let dir = std::env::temp_dir().join(format!("wot-batching-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let coord = Coordinator::start(CoordinatorOptions {
            worker_bin: env!("CARGO_BIN_EXE_wot-shardd").into(),
            wal_dir: dir.clone(),
            num_workers: 2,
            num_users: USERS,
            num_categories: CATEGORIES,
            worker_timeout: Duration::from_secs(30),
        })
        .unwrap();
        let owned_by = |w: usize| {
            (0..CATEGORIES as u32)
                .find(|&c| coord.owner_of(c).unwrap() == w)
                .expect("every worker owns a category")
        };
        let cats = [owned_by(0), owned_by(1)];
        Cluster { coord, dir, cats }
    }

    /// Reviews 0 and 1, written by users 0 and 1, in worker 0's and
    /// worker 1's category.
    fn prefix(&self) -> Vec<StoreEvent> {
        (0..2)
            .map(|w| review(w as u32, w as u32, self.cats[w]))
            .collect()
    }
}

fn review(writer: u32, review: u32, category: u32) -> StoreEvent {
    StoreEvent::Review {
        writer: UserId(writer),
        review: ReviewId(review),
        category: CategoryId(category),
    }
}

fn rating(rater: u32, review: u32, level: usize) -> StoreEvent {
    StoreEvent::Rating {
        rater: UserId(rater),
        review: ReviewId(review),
        value: RatingScale::five_step().levels()[level % 5],
    }
}

/// 64 ratings alternating between review 0 (worker 0) and review 1
/// (worker 1): users 2..34 each rate both.
fn alternating() -> Vec<StoreEvent> {
    (0..64u32)
        .map(|i| rating(2 + i / 2, i % 2, i as usize))
        .collect()
}

/// 600 events in one category: reviews 2..22, each followed by 29
/// ratings from users other than its writer.
fn one_owner(category: u32) -> Vec<StoreEvent> {
    let mut events = Vec::with_capacity(600);
    for r in 0..20u32 {
        let writer = r % USERS as u32;
        events.push(review(writer, 2 + r, category));
        for j in 1..30u32 {
            events.push(rating((writer + j) % USERS as u32, 2 + r, (r + j) as usize));
        }
    }
    events
}

fn oracle(history: &[StoreEvent]) -> Derived {
    let store = replay_into_store(RatingScale::five_step(), USERS, CATEGORIES, history).unwrap();
    pipeline::derive(&store, &DeriveConfig::default()).unwrap()
}

/// An interleaved 64-event round costs one frame per worker, not one
/// per interleaving; a 600-event round to one owner costs
/// ⌈600 / 256⌉ = 3 frames. Each frame's `Ingested` ack must name that
/// frame's last tag, or the coordinator fails the round, so an `Ok` is
/// also the horizon check.
#[test]
fn a_round_costs_each_owning_worker_one_frame() {
    let mut c = Cluster::start("frames");
    let mut history = c.prefix();
    assert_eq!(c.coord.ingest_batch(&history).unwrap(), 2);
    assert_eq!(c.coord.ingest_frames(), 2, "two reviews, two owners");

    let batch = alternating();
    let before = c.coord.ingest_frames();
    assert_eq!(c.coord.ingest_batch(&batch).unwrap(), 66);
    assert_eq!(
        c.coord.ingest_frames() - before,
        2,
        "64 alternating events cost one frame per worker"
    );
    history.extend_from_slice(&batch);

    let batch = one_owner(c.cats[0]);
    let before = c.coord.ingest_frames();
    assert_eq!(c.coord.ingest_batch(&batch).unwrap(), 666);
    assert_eq!(
        c.coord.ingest_frames() - before,
        3,
        "600 events to one owner split 256 + 256 + 88"
    );
    history.extend_from_slice(&batch);

    assert_backend_matches(&mut c.coord, &oracle(&history), history.len() as u64);
    c.coord.shutdown().unwrap();
    std::fs::remove_dir_all(&c.dir).ok();
}

/// An already-rated pair at index 37 of an alternating round stops the
/// round there: the 37 admitted events are acked and durable, each in
/// its owner's log and nowhere else, and the next event takes the tag
/// right after them.
#[test]
fn a_refusal_inside_an_interleaved_round_keeps_exactly_the_acked_prefix() {
    let mut c = Cluster::start("refusal");
    let prefix = c.prefix();
    let base = c.coord.ingest_batch(&prefix).unwrap();
    assert_eq!(base, 2);

    let mut batch = alternating();
    let next = batch[37];
    // Event 35 is user 19's rating of review 1; 37 repeats it.
    batch[37] = batch[35];
    let before = c.coord.ingest_frames();
    match c.coord.ingest_batch(&batch) {
        Err(ServeError::BatchRefused {
            acked_through,
            index,
            error,
        }) => {
            assert_eq!((index, acked_through), (37, base + 37));
            assert_eq!(error.code, ErrorCode::Rejected, "{}", error.message);
        }
        other => panic!("expected a refusal at index 37, got {other:?}"),
    }
    assert_eq!(c.coord.ingest_frames() - before, 2);
    assert_eq!(c.coord.seq(), base + 37);

    // The next event takes tag `base + 37`.
    assert_eq!(c.coord.ingest(next).unwrap(), base + 38);
    let acked: Vec<StoreEvent> = prefix
        .iter()
        .chain(&batch[..37])
        .chain([&next])
        .copied()
        .collect();
    assert_backend_matches(&mut c.coord, &oracle(&acked), base + 38);
    c.coord.shutdown().unwrap();

    // Reviews 0 and 1 belong to workers 0 and 1; so do their ratings.
    let owner = |e: &StoreEvent| match *e {
        StoreEvent::Review { review, .. } | StoreEvent::Rating { review, .. } => review.0 as usize,
    };
    for w in 0..2 {
        let want: Vec<(u64, StoreEvent)> = acked
            .iter()
            .enumerate()
            .filter(|(_, e)| owner(e) == w)
            .map(|(tag, &e)| (tag as u64, e))
            .collect();
        let wal = c.dir.join(format!("worker-{w:02}.wal"));
        let logged = wot_wal::read_tagged_log(&wal).unwrap();
        assert!(logged.torn.is_none(), "worker {w}'s log is whole");
        assert_eq!(logged.events, want, "worker {w} logs its acked events");
    }
    std::fs::remove_dir_all(&c.dir).ok();
}

/// A round that loses a worker rolls back whole even though its runs
/// interleave: the speculative admissions are undone newest-first in tag
/// order (a review is popped only after the in-round ratings of it and
/// of every later review), the restarted cluster answers at the base
/// cut, and the round re-issues verbatim.
#[test]
fn a_failed_interleaved_round_rolls_back_in_tag_order() {
    let mut c = Cluster::start("rollback");
    let mut history = c.prefix();
    let base = c.coord.ingest_batch(&history).unwrap();
    let [a, b] = c.cats;
    // Worker 0's run: reviews 2 and 4 and their ratings; worker 1's:
    // review 3 and its ratings.
    let round = [
        review(5, 2, a),
        review(6, 3, b),
        rating(7, 2, 0),
        rating(7, 3, 1),
        review(8, 4, a),
        rating(9, 4, 2),
        rating(9, 3, 3),
    ];
    c.coord.kill_worker(1).unwrap();
    let err = c.coord.ingest_batch(&round).unwrap_err();
    assert!(!matches!(err, ServeError::Remote(_)), "{err}");
    assert_eq!(c.coord.seq(), base, "the failed round rolls back whole");
    c.coord.restart_worker(1).unwrap();
    assert_eq!(c.coord.seq(), base, "nothing durable, nothing adopted");
    assert_backend_matches(&mut c.coord, &oracle(&history), base);

    assert_eq!(c.coord.ingest_batch(&round).unwrap(), base + 7);
    history.extend_from_slice(&round);
    assert_backend_matches(&mut c.coord, &oracle(&history), base + 7);
    c.coord.shutdown().unwrap();
    std::fs::remove_dir_all(&c.dir).ok();
}
