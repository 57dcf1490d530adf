//! Pipelined-ingest drills: batched, concurrently in-flight worker I/O
//! must change the cluster's *speed*, never its answers or its failure
//! behavior.
//!
//! Three properties are drilled here on top of the base cluster suite:
//! bit-identity at every acked batch boundary under varied per-worker
//! interleavings; a frozen worker (`kill -STOP`) producing a typed
//! unresponsive error plus a clean restart instead of a coordinator hang; and a `kill -9`
//! mid-pipeline with multi-worker batches in flight — the failed round
//! rolls back whole, and an out-of-band durable tag is adopted through
//! the restart reconciliation. A final pair of tests pins down process
//! hygiene: no zombie `wot-shardd` survives a failed teardown or a
//! coordinator drop, and spawn/config failures are typed errors, not
//! panics.

use std::process::Command;
use std::time::{Duration, Instant};

use wot_community::events::replay_into_store;
use wot_community::{RatingScale, StoreEvent};
use wot_core::{pipeline, DeriveConfig, Derived};
use wot_serve::conformance::{assert_backend_matches, assert_pipelined_ingest_matches};
use wot_serve::{Coordinator, CoordinatorOptions, ServeError};
use wot_synth::{generate, shuffled_event_log, SynthConfig};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wot-pipeline-{tag}-{}", std::process::id()));
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

    fn options(&self, dir: &std::path::Path, timeout: Duration) -> CoordinatorOptions {
        CoordinatorOptions {
            worker_bin: env!("CARGO_BIN_EXE_wot-shardd").into(),
            wal_dir: dir.to_path_buf(),
            num_workers: 3,
            num_users: self.num_users,
            num_categories: self.num_categories,
            worker_timeout: timeout,
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

    /// Resolves the category of `log[at]` (ratings always follow their
    /// review in the log).
    fn category_at(&self, at: usize) -> u32 {
        match self.log[at] {
            StoreEvent::Review { category, .. } => category.0,
            StoreEvent::Rating { review: r, .. } => self.log[..at]
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
}

fn pid_alive(pid: u32) -> bool {
    Command::new("kill")
        .args(["-0", &pid.to_string()])
        .stderr(std::process::Stdio::null())
        .status()
        .unwrap()
        .success()
}

/// Freezes worker `w` with `SIGSTOP`: it reads, answers and syncs
/// nothing until it is killed, and `SIGKILL` still reaps it.
fn freeze(coord: &Coordinator, w: usize) {
    let status = Command::new("kill")
        .args(["-STOP", &coord.worker_pid(w).to_string()])
        .status()
        .unwrap();
    assert!(status.success(), "kill -STOP failed");
}

fn assert_all_reaped(pids: &[u32]) {
    // A zombie still answers `kill -0`; only a reaped child disappears.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if pids.iter().all(|&p| !pid_alive(p)) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "every worker child must be reaped, not left a zombie"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The pipelined conformance matrix: the whole log pushed through
/// `ingest_batch` in deterministically varied batch sizes (two seeds,
/// two interleaving shapes), every acked boundary held bitwise to the
/// offline batch oracle across the full query surface.
#[test]
fn pipelined_ingest_is_bit_identical_at_every_acked_batch() {
    for seed in [29u64, 71u64] {
        let fx = Fixture::new(127);
        let dir = temp_dir(&format!("conf{seed}"));
        let mut coord = Coordinator::start(fx.options(&dir, Duration::from_secs(30))).unwrap();
        assert_pipelined_ingest_matches(&mut coord, &fx.log, 0, seed, |seq| {
            fx.batch_oracle(seq as usize)
        });
        coord.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Slow-worker fault injection: a worker frozen past `worker_timeout`
/// yields a typed [`ServeError::WorkerUnresponsive`]
/// within bounded time — never a hang — is quarantined (fast typed
/// failures, no waiting) until restarted, and the cluster resumes
/// bit-identical.
#[test]
fn stalled_worker_times_out_with_a_typed_error_and_restarts() {
    let fx = Fixture::new(131);
    let dir = temp_dir("stall");
    let timeout = Duration::from_millis(300);
    let mut coord = Coordinator::start(fx.options(&dir, timeout)).unwrap();

    let half = fx.log.len() / 2;
    coord.ingest_batch(&fx.log[..half]).unwrap();

    let victim = coord.owner_of(fx.category_at(half)).unwrap();
    freeze(&coord, victim);

    // Walk the tail until an event routes to the frozen worker; events
    // owned by healthy workers must keep flowing meanwhile.
    let mut at = half;
    loop {
        let owner = coord.owner_of(fx.category_at(at)).unwrap();
        if owner == victim {
            break;
        }
        coord.ingest(fx.log[at]).unwrap();
        at += 1;
    }
    let before = Instant::now();
    let err = coord.ingest(fx.log[at]).unwrap_err();
    assert!(
        matches!(err, ServeError::WorkerUnresponsive { worker, .. } if worker == victim),
        "expected a typed unresponsive error, got {err}"
    );
    assert!(
        before.elapsed() < timeout * 20,
        "the deadline must bound the wait, not a hang"
    );
    // Quarantined: further traffic to the victim fails fast and typed.
    let quick = Instant::now();
    let err = coord.ingest(fx.log[at]).unwrap_err();
    assert!(matches!(err, ServeError::WorkerGone { .. }), "{err}");
    assert!(quick.elapsed() < timeout, "quarantine must not wait");

    coord.restart_worker(victim).unwrap();
    // The unanswered append is either durable (adopted at restart) or
    // lost (rolled back) — both are consistent cuts, and `seq` names
    // which one happened.
    let seq = coord.seq() as usize;
    assert!(seq == at || seq == at + 1, "seq {seq} must sit at the cut");
    assert_backend_matches(&mut coord, &fx.batch_oracle(seq), seq as u64);

    // The rest of the history ingests normally — the freeze died with
    // the old process.
    coord.ingest_batch(&fx.log[seq..]).unwrap();
    let last = fx.log.len() as u64;
    assert_backend_matches(&mut coord, &fx.batch_oracle(fx.log.len()), last);
    coord.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A worker frozen during the snapshot's lazy `States` scatter
/// must not strand the healthy owners' `FullState` replies in their
/// streams: the refresh returns the frozen owner's typed unresponsive
/// error with every other outstanding reply drained, so positional
/// correlation survives. After a restart the cluster ingests and
/// answers bit-identically — no spurious `WorkerGone` on workers that
/// never failed.
#[test]
fn stalled_states_scatter_drains_healthy_workers() {
    use wot_serve::TrustQuery;

    let fx = Fixture::new(167);
    let dir = temp_dir("states-stall");
    let timeout = Duration::from_millis(300);
    let mut coord = Coordinator::start(fx.options(&dir, timeout)).unwrap();

    let half = fx.log.len() / 2;
    coord.ingest_batch(&fx.log[..half]).unwrap();
    // The leak shape needs the scatter to cover every worker with the
    // frozen one gathered first (owners gather in ascending order).
    let owners: std::collections::BTreeSet<usize> = (0..half)
        .map(|i| coord.owner_of(fx.category_at(i)).unwrap())
        .collect();
    assert_eq!(owners.len(), 3, "fixture must dirty every worker");

    freeze(&coord, 0);
    let err = coord.trust(0, 1).unwrap_err();
    assert!(
        matches!(err, ServeError::WorkerUnresponsive { worker: 0, .. }),
        "expected the frozen owner's typed error, got {err}"
    );

    coord.restart_worker(0).unwrap();
    assert_eq!(coord.seq(), half as u64, "a failed refresh acks nothing");
    // Both of these would trip over a stranded FullState: the ingest
    // acks of workers 1 and 2 would be preceded by the stale frame
    // (spurious WorkerGone), and the re-fetched tables would be
    // outdated (bit-divergence from the oracle).
    coord.ingest_batch(&fx.log[half..]).unwrap();
    let last = fx.log.len() as u64;
    assert_backend_matches(&mut coord, &fx.batch_oracle(fx.log.len()), last);
    coord.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// `kill -9` mid-pipeline with multi-worker batches in flight: the
/// failed round rolls back whole (healthy workers truncated behind
/// their in-flight ingests, speculative coordinator state undone), the
/// restarted cluster is bit-identical at the rolled-back cut, the round
/// simply re-issues — and a tag that became durable on the dead worker
/// is adopted through the hello/max_tag reconciliation.
#[test]
fn kill_nine_mid_pipeline_reconciles_in_flight_batches() {
    let fx = Fixture::new(139);
    let dir = temp_dir("kill9");
    let mut coord = Coordinator::start(fx.options(&dir, Duration::from_secs(30))).unwrap();

    let half = fx.log.len() / 2;
    coord.ingest_batch(&fx.log[..half]).unwrap();

    // --- Whole-round rollback: nothing of the round was durable -----
    let round_end = (half + 40).min(fx.log.len());
    let victim = coord.owner_of(fx.category_at(half)).unwrap();
    coord.kill_worker(victim).unwrap();
    let err = coord.ingest_batch(&fx.log[half..round_end]).unwrap_err();
    assert!(
        !matches!(err, ServeError::Remote(_)),
        "a transport failure is not a typed rejection: {err}"
    );
    assert_eq!(
        coord.seq(),
        half as u64,
        "the failed round rolls back whole"
    );
    coord.restart_worker(victim).unwrap();
    assert_eq!(coord.seq(), half as u64, "nothing durable, nothing adopted");
    assert_backend_matches(&mut coord, &fx.batch_oracle(half), half as u64);

    // The round re-issues verbatim.
    let acked = coord.ingest_batch(&fx.log[half..round_end]).unwrap();
    assert_eq!(acked, round_end as u64);
    assert_backend_matches(&mut coord, &fx.batch_oracle(round_end), acked);

    // --- Durable-but-unacked head of a failed round is adopted ------
    // Simulate the crash window where the round's first append hit the
    // disk but its ack never came back: kill the owner of the round's
    // first event, fail the round, write that event into the quiescent
    // WAL out-of-band, restart.
    let base = round_end;
    let tail_end = (base + 30).min(fx.log.len());
    let victim = coord.owner_of(fx.category_at(base)).unwrap();
    coord.kill_worker(victim).unwrap();
    let err = coord.ingest_batch(&fx.log[base..tail_end]).unwrap_err();
    assert!(!matches!(err, ServeError::Remote(_)), "{err}");
    assert_eq!(coord.seq(), base as u64);
    let wal_path = dir.join(format!("worker-{victim:02}.wal"));
    {
        let (mut wal, _torn) =
            wot_wal::WalWriter::open_append(&wal_path, wot_wal::FsyncPolicy::Always).unwrap();
        wal.append_tagged(base as u64, &fx.log[base]).unwrap();
        wal.sync().unwrap();
    }
    coord.restart_worker(victim).unwrap();
    assert_eq!(
        coord.seq(),
        (base + 1) as u64,
        "the durable head of the failed round extends the acked prefix"
    );
    assert_backend_matches(&mut coord, &fx.batch_oracle(base + 1), (base + 1) as u64);

    // --- The rest of the history ingests normally -------------------
    coord.ingest_batch(&fx.log[base + 1..]).unwrap();
    let last = fx.log.len() as u64;
    assert_backend_matches(&mut coord, &fx.batch_oracle(fx.log.len()), last);
    coord.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A shutdown that errors mid-way (one worker wedged past the deadline)
/// must still reap every child — no zombie `wot-shardd` survives a
/// failed teardown.
#[test]
fn failed_shutdown_still_reaps_every_worker() {
    let fx = Fixture::new(149);
    let dir = temp_dir("teardown");
    let mut coord = Coordinator::start(fx.options(&dir, Duration::from_millis(300))).unwrap();
    coord.ingest_batch(&fx.log[..20]).unwrap();

    let pids: Vec<u32> = (0..coord.num_workers())
        .map(|w| coord.worker_pid(w))
        .collect();
    freeze(&coord, 1);
    let res = coord.shutdown();
    assert!(res.is_err(), "the wedged worker fails the goodbye");
    assert_all_reaped(&pids);
    std::fs::remove_dir_all(&dir).ok();
}

/// Dropping the coordinator (no shutdown at all — a panic path, say)
/// also reaps every child.
#[test]
fn coordinator_drop_reaps_every_worker() {
    let fx = Fixture::new(151);
    let dir = temp_dir("drop");
    let mut coord = Coordinator::start(fx.options(&dir, Duration::from_secs(30))).unwrap();
    coord.ingest_batch(&fx.log[..20]).unwrap();
    let pids: Vec<u32> = (0..coord.num_workers())
        .map(|w| coord.worker_pid(w))
        .collect();
    drop(coord);
    assert_all_reaped(&pids);
    std::fs::remove_dir_all(&dir).ok();
}

/// A worker binary that cannot launch is a typed spawn error, not a
/// panic.
#[test]
fn unlaunchable_worker_binary_is_a_typed_spawn_error() {
    let fx = Fixture::new(157);
    let dir = temp_dir("spawn");
    let mut opts = fx.options(&dir, Duration::from_secs(5));
    opts.worker_bin = dir.join("no-such-binary");
    match Coordinator::start(opts) {
        Err(ServeError::WorkerSpawn(msg)) => {
            assert!(msg.contains("no-such-binary"), "{msg}");
        }
        Err(other) => panic!("expected WorkerSpawn, got {other}"),
        Ok(_) => panic!("a missing binary cannot boot a cluster"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A community shape the wire cannot represent fails closed with a
/// typed config error instead of silently truncating the u32 casts.
#[test]
fn oversized_config_fails_closed() {
    let fx = Fixture::new(163);
    let dir = temp_dir("config");
    let mut opts = fx.options(&dir, Duration::from_secs(5));
    opts.num_users = (u32::MAX as usize) + 1;
    match Coordinator::start(opts) {
        Err(ServeError::Config(msg)) => assert!(msg.contains("num_users"), "{msg}"),
        Err(other) => panic!("expected Config, got {other}"),
        Ok(_) => panic!("an untransmittable shape cannot boot a cluster"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
