//! Cluster conformance drills: a 3-worker multi-process cluster behind
//! the [`Coordinator`] must be **indistinguishable** — bit for bit —
//! from the flat single-process daemon at every acked sequence. The
//! oracle is an in-process [`IncrementalDerived`] replica applying the
//! same event history (which PR 6 holds bit-identical to the offline
//! batch pipeline), and every comparison runs through the same
//! [`assert_backend_matches`] harness the TCP daemon's smoke test uses.
//!
//! The drills cover the paths where transparency is easiest to lose:
//! a worker `kill -9`'d and restarted from its sequence-tagged WAL
//! (including an event that became durable right before the crash but
//! was never acknowledged), and a live category rebalance between
//! running workers.

use std::process::Command;

use wot_community::events::replay_into_store;
use wot_community::{CategoryId, RatingScale, ReviewId, StoreEvent, UserId};
use wot_core::{pipeline, DeriveConfig, Derived, DerivedCache, IncrementalDerived, ReplayEvent};
use wot_serve::conformance::assert_backend_matches;
use wot_serve::{Coordinator, CoordinatorOptions, ServeError, TrustQuery};
use wot_synth::{generate, shuffled_event_log, SynthConfig};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wot-cluster-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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

    fn options(&self, dir: &std::path::Path) -> CoordinatorOptions {
        CoordinatorOptions {
            worker_bin: env!("CARGO_BIN_EXE_wot-shardd").into(),
            wal_dir: dir.to_path_buf(),
            num_workers: 3,
            num_users: self.num_users,
            num_categories: self.num_categories,
            worker_timeout: std::time::Duration::from_secs(30),
        }
    }

    /// Offline batch oracle for the first `n` events.
    fn batch_oracle(&self, n: usize) -> Derived {
        let store = replay_into_store(
            RatingScale::five_step(),
            self.num_users,
            self.num_categories,
            &self.log[..n],
        )
        .unwrap();
        pipeline::derive(&store, &DeriveConfig::default()).unwrap()
    }
}

/// The flat daemon's serving state, advanced event by event — the thing
/// the cluster must be indistinguishable from.
struct Replica {
    model: IncrementalDerived,
    cache: DerivedCache,
}

impl Replica {
    fn new(fx: &Fixture) -> Self {
        Replica {
            model: IncrementalDerived::new(
                fx.num_users,
                fx.num_categories,
                &DeriveConfig::default(),
            )
            .unwrap(),
            cache: DerivedCache::default(),
        }
    }

    fn apply(&mut self, e: StoreEvent) {
        self.model.apply(&ReplayEvent::from(e)).unwrap();
    }

    fn derived(&mut self) -> Derived {
        self.model.to_derived_cached(&mut self.cache)
    }
}

/// Bit-identical at **every** acked sequence: after each single-event
/// ingest a rotating probe (trust pair, top-k, the dirtied category's
/// tables) must bit-match the flat replica, with the full query surface
/// swept at checkpoints and at the end — where the offline batch oracle
/// is also consulted directly.
#[test]
fn cluster_is_bit_identical_at_every_acked_seq() {
    let fx = Fixture::new(91);
    let dir = temp_dir("conf");
    let mut coord = Coordinator::start(fx.options(&dir)).unwrap();
    let mut replica = Replica::new(&fx);

    for (n, &event) in fx.log.iter().enumerate() {
        let seq = coord.ingest(event).unwrap();
        assert_eq!(seq, (n + 1) as u64, "acks count the global history");
        replica.apply(event);
        let oracle = replica.derived();

        // Cheap rotating probes every seq.
        let users = fx.num_users as u32;
        let (i, j) = ((n as u32 * 31) % users, (n as u32 * 17 + 5) % users);
        let (got, at) = coord.trust(i, j).unwrap();
        assert_eq!(at, seq);
        let want = wot_core::trust::pairwise(
            &oracle.affiliation,
            &oracle.expertise,
            i as usize,
            j as usize,
        );
        assert_eq!(got.to_bits(), want.to_bits(), "trust({i},{j}) at seq {seq}");

        let cat = (n % fx.num_categories) as u32;
        let (raters, writers, at) = coord.category_tables(cat).unwrap();
        assert_eq!(at, seq);
        let cr = &oracle.per_category[cat as usize];
        assert_eq!(raters.len(), cr.rater_reputation.len());
        for (g, w) in raters.iter().zip(&cr.rater_reputation) {
            assert_eq!((g.0, g.1.to_bits()), (w.0 .0, w.1.to_bits()));
        }
        for (g, w) in writers.iter().zip(&cr.writer_reputation) {
            assert_eq!((g.0, g.1.to_bits()), (w.0 .0, w.1.to_bits()));
        }

        // Full surface sweep at checkpoints.
        if (n + 1) % 100 == 0 {
            assert_backend_matches(&mut coord, &oracle, seq);
        }
    }

    // Final state: held to the replica AND the offline batch oracle.
    let last = fx.log.len() as u64;
    assert_backend_matches(&mut coord, &replica.derived(), last);
    assert_backend_matches(&mut coord, &fx.batch_oracle(fx.log.len()), last);

    // `wal_len` is bytes across the worker WAL files, not an event count.
    let wal_bytes = || -> u64 {
        (0..3)
            .map(|w| dir.join(format!("worker-{w:02}.wal")))
            .map(|path| std::fs::metadata(path).unwrap().len())
            .sum()
    };
    let (before, _) = coord.stats().unwrap();
    assert_eq!(before.events, last);
    assert_eq!(before.wal_len, wal_bytes());
    assert!(before.wal_len > before.events, "bytes, not events");
    let reviews = fx
        .log
        .iter()
        .filter(|e| matches!(e, StoreEvent::Review { .. }))
        .count();
    coord
        .ingest(StoreEvent::Review {
            writer: UserId(0),
            review: ReviewId::from_index(reviews),
            category: CategoryId(0),
        })
        .unwrap();
    let (after, _) = coord.stats().unwrap();
    assert_eq!(after.wal_len, wal_bytes());
    assert!(
        after.wal_len > before.wal_len,
        "an acked event grows the WAL"
    );

    coord.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The `kill -9` failure drill: a worker is SIGKILL'd cold, restarted
/// over its surviving WAL, and the cluster must resume bit-identical —
/// including the reconciliation of an event that became durable right
/// before the crash but was never acknowledged, and of one that was
/// lost mid-request.
#[test]
fn kill_nine_drill_recovers_bit_identical_state() {
    let fx = Fixture::new(107);
    let dir = temp_dir("kill9");
    let mut coord = Coordinator::start(fx.options(&dir)).unwrap();
    let mut replica = Replica::new(&fx);

    let half = fx.log.len() / 2;
    for &event in &fx.log[..half] {
        coord.ingest(event).unwrap();
        replica.apply(event);
    }

    // --- Cold kill, plain restart-from-WAL -------------------------
    let victim = coord.owner_of(0).unwrap();
    let status = Command::new("kill")
        .args(["-9", &coord.worker_pid(victim).to_string()])
        .status()
        .unwrap();
    assert!(status.success(), "kill -9 must reach the worker");
    coord.restart_worker(victim).unwrap();
    assert_eq!(coord.seq(), half as u64, "no acked event may be lost");
    assert_backend_matches(&mut coord, &replica.derived(), half as u64);

    // --- Lost in flight: killed worker, nothing durable -------------
    let next = fx.log[half];
    let victim = coord.owner_of(coord_category_of(&fx, half, next)).unwrap();
    coord.kill_worker(victim).unwrap();
    let err = coord.ingest(next).unwrap_err();
    assert!(
        !matches!(err, ServeError::Remote(_)),
        "a transport failure is not a typed rejection"
    );
    coord.restart_worker(victim).unwrap();
    assert_eq!(
        coord.seq(),
        half as u64,
        "an event that never reached the log is not history"
    );
    assert_backend_matches(&mut coord, &replica.derived(), half as u64);

    // The dropped event can simply be ingested again.
    let seq = coord.ingest(next).unwrap();
    assert_eq!(seq, (half + 1) as u64);
    replica.apply(next);
    assert_backend_matches(&mut coord, &replica.derived(), seq);

    // --- Durable but unacknowledged: adopt at restart ---------------
    // Simulate the crash window where the append hit the disk but the
    // reply never came back: kill the owner, write the tagged event into
    // its quiescent WAL out-of-band, fail the ingest, restart.
    let next = fx.log[half + 1];
    let cat = coord_category_of(&fx, half + 2, next);
    let victim = coord.owner_of(cat).unwrap();
    coord.kill_worker(victim).unwrap();
    let err = coord.ingest(next).unwrap_err();
    assert!(!matches!(err, ServeError::Remote(_)));
    let wal_path = dir.join(format!("worker-{victim:02}.wal"));
    {
        let (mut wal, torn) =
            wot_wal::WalWriter::open_append(&wal_path, wot_wal::FsyncPolicy::Always).unwrap();
        assert!(torn.is_none(), "fsync-per-append leaves no torn tail");
        wal.append_tagged((half + 1) as u64, &next).unwrap();
        wal.sync().unwrap();
    }
    coord.restart_worker(victim).unwrap();
    assert_eq!(
        coord.seq(),
        (half + 2) as u64,
        "a durable tagged event is adopted into the acked history"
    );
    replica.apply(next);
    assert_backend_matches(&mut coord, &replica.derived(), (half + 2) as u64);

    // --- The rest of the history ingests normally -------------------
    for &event in &fx.log[half + 2..] {
        coord.ingest(event).unwrap();
        replica.apply(event);
    }
    let last = fx.log.len() as u64;
    assert_backend_matches(&mut coord, &replica.derived(), last);
    assert_backend_matches(&mut coord, &fx.batch_oracle(fx.log.len()), last);
    coord.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Resolves the category of `event` using the log prefix (ratings always
/// follow their review).
fn coord_category_of(fx: &Fixture, prefix: usize, event: StoreEvent) -> u32 {
    match event {
        StoreEvent::Review { category, .. } => category.0,
        StoreEvent::Rating { review: r, .. } => fx.log[..prefix]
            .iter()
            .find_map(|&e| match e {
                StoreEvent::Review {
                    review, category, ..
                } if review == r => Some(category.0),
                _ => None,
            })
            .expect("rated review appears earlier in the log"),
    }
}

/// Live rebalance: moving a category between running workers — by
/// replaying its local sub-log and cutting ingest over at a sequence
/// boundary — must be invisible to every query, before and after more
/// ingest, and must survive a round trip back.
#[test]
fn live_rebalance_is_transparent() {
    let fx = Fixture::new(113);
    let dir = temp_dir("rebal");
    let mut coord = Coordinator::start(fx.options(&dir)).unwrap();
    let mut replica = Replica::new(&fx);

    let half = fx.log.len() / 2;
    for &event in &fx.log[..half] {
        coord.ingest(event).unwrap();
        replica.apply(event);
    }

    // Move category 0 to a worker that does not own it.
    let from = coord.owner_of(0).unwrap();
    let to = (from + 1) % coord.num_workers();
    coord.rebalance(0, to).unwrap();
    assert_eq!(coord.owner_of(0).unwrap(), to, "routing cut over");
    assert_backend_matches(&mut coord, &replica.derived(), half as u64);

    // Ingest the rest — category-0 events now land on the new owner.
    for &event in &fx.log[half..] {
        coord.ingest(event).unwrap();
        replica.apply(event);
    }
    let last = fx.log.len() as u64;
    assert_backend_matches(&mut coord, &replica.derived(), last);

    // And move it back: the round trip must also be invisible.
    coord.rebalance(0, from).unwrap();
    assert_eq!(coord.owner_of(0).unwrap(), from);
    assert_backend_matches(&mut coord, &replica.derived(), last);
    assert_backend_matches(&mut coord, &fx.batch_oracle(fx.log.len()), last);

    // A kill -9 after the round trip exercises replay filtering over a
    // log that holds dropped-then-readopted duplicates.
    let status = Command::new("kill")
        .args(["-9", &coord.worker_pid(from).to_string()])
        .status()
        .unwrap();
    assert!(status.success());
    coord.restart_worker(from).unwrap();
    assert_backend_matches(&mut coord, &replica.derived(), last);
    coord.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
