//! Crate-level durability tests: log round-trips, reopening for append,
//! and torn-tail handling on synthetic communities. The exhaustive
//! fault-injection matrix (every-byte truncation sweeps, bit flips,
//! kill-mid-append, a daemon restarted on its own torn log) lives at the
//! workspace root in `tests/crash_recovery.rs`; this file proves the
//! crate's own contracts in isolation.

use std::path::PathBuf;

use wot_community::events::event_log;
use wot_community::StoreEvent;
use wot_core::{DeriveConfig, IncrementalDerived, ReplayEvent};
use wot_synth::{generate, shuffled_event_log, SynthConfig};
use wot_wal::{read_log, read_tagged_log, FsyncPolicy, LogKind, WalError, WalWriter};

/// A self-cleaning scratch directory, unique per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("wot-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tiny_log(seed: u64) -> (usize, usize, Vec<StoreEvent>) {
    let store = generate(&SynthConfig::tiny(seed)).unwrap().store;
    let log = shuffled_event_log(&store, seed ^ 0x5eed);
    (store.num_users(), store.num_categories(), log)
}

#[test]
fn log_round_trips_untagged_and_tagged() {
    let dir = TempDir::new("roundtrip");
    let (_, _, log) = tiny_log(1);

    let path = dir.file("events.wal");
    let mut w = WalWriter::create(&path, LogKind::Events, FsyncPolicy::EveryN(64)).unwrap();
    for e in &log {
        w.append(e).unwrap();
    }
    w.sync().unwrap();
    let back = read_log(&path).unwrap();
    assert_eq!(back.events, log);
    assert_eq!(back.torn, None);

    let tagged_path = dir.file("tagged.wal");
    let mut w = WalWriter::create(
        &tagged_path,
        LogKind::TaggedEvents,
        FsyncPolicy::EveryMs(1000),
    )
    .unwrap();
    for (k, e) in log.iter().enumerate() {
        w.append_tagged(k as u64 * 3, e).unwrap();
    }
    w.sync().unwrap();
    let back = read_tagged_log(&tagged_path).unwrap();
    assert_eq!(back.events.len(), log.len());
    assert!(back
        .events
        .iter()
        .enumerate()
        .all(|(k, &(seq, e))| seq == k as u64 * 3 && e == log[k]));

    // Kind confusion is a typed refusal in both directions.
    assert!(matches!(
        read_tagged_log(&path),
        Err(WalError::BadHeader { .. })
    ));
    let (mut w, _) = WalWriter::open_append(&path, FsyncPolicy::Always).unwrap();
    assert!(matches!(
        w.append_tagged(0, &log[0]),
        Err(WalError::BadHeader { .. })
    ));
}

#[test]
fn open_append_continues_where_the_log_ended() {
    let dir = TempDir::new("append");
    let (_, _, log) = tiny_log(2);
    let path = dir.file("events.wal");
    let (head, tail) = log.split_at(log.len() / 2);

    let mut w = WalWriter::create(&path, LogKind::Events, FsyncPolicy::EveryN(32)).unwrap();
    for e in head {
        w.append(e).unwrap();
    }
    w.sync().unwrap();
    drop(w);

    let (mut w, torn) = WalWriter::open_append(&path, FsyncPolicy::EveryN(32)).unwrap();
    assert_eq!(torn, None);
    for e in tail {
        w.append(e).unwrap();
    }
    w.sync().unwrap();
    assert_eq!(read_log(&path).unwrap().events, log);
}

#[test]
fn torn_tail_is_reported_and_truncated_but_corruption_fails_closed() {
    let dir = TempDir::new("torn");
    let (_, _, log) = tiny_log(3);
    let path = dir.file("events.wal");
    let mut w = WalWriter::create(&path, LogKind::Events, FsyncPolicy::EveryN(64)).unwrap();
    for e in &log {
        w.append(e).unwrap();
    }
    w.sync().unwrap();
    let clean_len = w.len();
    drop(w);

    // A partial frame at the tail: reported, events intact.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&[17, 0, 0, 0, 0xAB]); // len=17 but only 1 more byte
    std::fs::write(&path, &bytes).unwrap();
    let back = read_log(&path).unwrap();
    assert_eq!(back.events, log);
    let torn = back.torn.unwrap();
    assert_eq!(torn.offset, clean_len);
    assert_eq!(torn.bytes_dropped, 5);

    // Reopening for append physically truncates the torn bytes.
    let (w, reported) = WalWriter::open_append(&path, FsyncPolicy::Always).unwrap();
    assert_eq!(reported, Some(torn));
    assert_eq!(w.len(), clean_len);
    drop(w);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
    assert_eq!(read_log(&path).unwrap().torn, None);

    // A flipped byte inside a complete interior frame is corruption:
    // typed error naming the frame offset, not a silent skip.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[16 + 8] ^= 0x01; // first frame's payload, first byte
    std::fs::write(&path, &bytes).unwrap();
    match read_log(&path) {
        Err(WalError::CrcMismatch { offset, .. }) => assert_eq!(offset, 16),
        other => panic!("expected CrcMismatch, got {other:?}"),
    }
    // ... and open_append refuses to extend damaged history.
    assert!(matches!(
        WalWriter::open_append(&path, FsyncPolicy::Always),
        Err(WalError::CrcMismatch { .. })
    ));
}

#[test]
fn canonical_store_log_survives_the_wal() {
    // The store's own canonical event log — not just synth shuffles —
    // round-trips and folds back to the same derived model.
    let dir = TempDir::new("canonical");
    let store = generate(&SynthConfig::tiny(7)).unwrap().store;
    let cfg = DeriveConfig::default();
    let log = event_log(&store);
    let path = dir.file("events.wal");
    let mut w = WalWriter::create(&path, LogKind::Events, FsyncPolicy::EveryN(512)).unwrap();
    for e in &log {
        w.append(e).unwrap();
    }
    w.sync().unwrap();
    let back = read_log(&path).unwrap().events;
    assert_eq!(back, log);
    let replayed: Vec<ReplayEvent> = back.into_iter().map(ReplayEvent::from).collect();
    let rec =
        IncrementalDerived::replay(store.num_users(), store.num_categories(), &cfg, &replayed)
            .unwrap();
    let batch = wot_core::pipeline::derive(&store, &cfg).unwrap();
    assert_eq!(rec, batch);
}
