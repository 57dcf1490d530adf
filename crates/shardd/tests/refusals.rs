//! What the cluster refuses, and what a refusal leaves behind.
//!
//! The coordinator answers reads through the flat daemon's query code,
//! so it must refuse an invalid read exactly as the daemon does. And a
//! category move the target cannot complete must leave the category
//! with its source: routed, owned and answering bit-identically.

use std::process::Command;
use std::time::Duration;

use wot_community::events::replay_into_store;
use wot_community::{CategoryId, RatingScale, ReviewId, StoreEvent, UserId};
use wot_core::{pipeline, DeriveConfig, Derived};
use wot_serve::conformance::{assert_backend_matches, assert_refuses_invalid_reads};
use wot_serve::conformance::{assert_refuses_invalid_ingests, REFUSAL_CATEGORIES, REFUSAL_USERS};
use wot_serve::{Coordinator, CoordinatorOptions, ServeError};
use wot_synth::{generate, shuffled_event_log, SynthConfig};

struct Fixture {
    log: Vec<StoreEvent>,
    num_users: usize,
    num_categories: usize,
}

impl Fixture {
    fn new(seed: u64) -> Self {
        let base = generate(&SynthConfig::tiny(seed)).unwrap().store;
        let log = shuffled_event_log(&base, seed.wrapping_add(1));
        Fixture {
            log,
            num_users: base.num_users(),
            num_categories: base.num_categories(),
        }
    }

    fn start(&self, tag: &str, timeout: Duration) -> (Coordinator, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("wot-refusals-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let coord = Coordinator::start(CoordinatorOptions {
            worker_bin: env!("CARGO_BIN_EXE_wot-shardd").into(),
            wal_dir: dir.clone(),
            num_workers: 3,
            num_users: self.num_users,
            num_categories: self.num_categories,
            worker_timeout: timeout,
        })
        .unwrap();
        (coord, dir)
    }

    /// The offline batch oracle over `history`.
    fn oracle(&self, history: &[StoreEvent]) -> Derived {
        let store = replay_into_store(
            RatingScale::five_step(),
            self.num_users,
            self.num_categories,
            history,
        )
        .unwrap();
        pipeline::derive(&store, &DeriveConfig::default()).unwrap()
    }
}

/// Invalid reads — out-of-range users and categories, a top-k of
/// zero — are typed refusals with the daemon's codes, before and after
/// ingest, and the cluster keeps answering afterwards.
#[test]
fn coordinator_refuses_invalid_reads_like_the_daemon() {
    let fx = Fixture::new(173);
    let (mut coord, dir) = fx.start("reads", Duration::from_secs(30));
    let (users, categories) = (fx.num_users as u32, fx.num_categories as u32);
    assert_refuses_invalid_reads(&mut coord, users, categories);
    let half = fx.log.len() / 2;
    coord.ingest_batch(&fx.log[..half]).unwrap();
    assert_refuses_invalid_reads(&mut coord, users, categories);
    assert_backend_matches(&mut coord, &fx.oracle(&fx.log[..half]), half as u64);
    coord.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A target frozen past `worker_timeout` (`kill -STOP`) fails the move. The source,
/// which already dropped the category, gets its history back: the next
/// event in the category acks and every answer matches the oracle, and
/// once the target restarts the same move succeeds.
#[test]
fn a_refused_move_leaves_the_category_with_its_source() {
    let fx = Fixture::new(179);
    let (mut coord, dir) = fx.start("move", Duration::from_millis(300));
    let half = fx.log.len() / 2;
    coord.ingest_batch(&fx.log[..half]).unwrap();
    // Settle the lazy table fetches, so the freeze below meets the move
    // itself rather than the refresh that precedes it.
    assert_backend_matches(&mut coord, &fx.oracle(&fx.log[..half]), half as u64);

    let category = 0;
    let from = coord.owner_of(category).unwrap();
    let to = (from + 1) % coord.num_workers();
    let frozen = Command::new("kill")
        .args(["-STOP", &coord.worker_pid(to).to_string()])
        .status()
        .unwrap();
    assert!(frozen.success(), "kill -STOP failed");
    let err = coord.rebalance(category, to).unwrap_err();
    assert!(
        matches!(err, ServeError::WorkerUnresponsive { worker, .. } if worker == to),
        "expected the target's typed timeout, got {err}"
    );
    assert_eq!(coord.owner_of(category).unwrap(), from, "routing kept");

    // A new review in the category routes to the source, which owns it
    // again.
    let reviews = fx.log[..half]
        .iter()
        .filter(|e| matches!(e, StoreEvent::Review { .. }))
        .count();
    let extra = StoreEvent::Review {
        writer: UserId(0),
        review: ReviewId::from_index(reviews),
        category: CategoryId(category),
    };
    let seq = coord.ingest(extra).unwrap();
    assert_eq!(seq, half as u64 + 1);
    let history = [&fx.log[..half], &[extra]].concat();
    let oracle = fx.oracle(&history);
    assert_backend_matches(&mut coord, &oracle, seq);

    // The freeze died with the old target; the move now goes through.
    coord.restart_worker(to).unwrap();
    assert_backend_matches(&mut coord, &oracle, seq);
    coord.rebalance(category, to).unwrap();
    assert_eq!(coord.owner_of(category).unwrap(), to);
    assert_backend_matches(&mut coord, &oracle, seq);
    coord.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Invalid ingests are refused with the daemon's code and the admission
/// rule's own words, and none of them moves the acked seq.
#[test]
fn coordinator_refuses_invalid_ingests_like_the_daemon() {
    let dir = std::env::temp_dir().join(format!("wot-refusals-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut opts = CoordinatorOptions::new(&dir, 2, REFUSAL_USERS, REFUSAL_CATEGORIES);
    opts.worker_bin = env!("CARGO_BIN_EXE_wot-shardd").into();
    let mut coord = Coordinator::start(opts).unwrap();
    assert_refuses_invalid_ingests(&mut coord);
    coord.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
