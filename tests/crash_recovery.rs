//! Fault-injection proof of the durability story (`wot-wal`).
//!
//! The WAL's contract has three clauses, and each gets an adversarial
//! sweep here rather than a single example:
//!
//! 1. **Any crash point is recoverable.** A crash mid-append can cut
//!    the file at *any* byte. We truncate a real log at **every** byte
//!    boundary and demand recovery returns exactly the complete-frame
//!    prefix — never a panic, never a corrupted state.
//! 2. **Corruption is detected, not replayed.** A flipped payload bit
//!    anywhere must surface as a typed [`WalError::CrcMismatch`] naming
//!    the frame's byte offset — silently folding damaged history into
//!    the trust model is the one unforgivable outcome.
//! 3. **No acked event is lost across a restart.** A daemon started on
//!    its own log — torn tail and all — comes back at exactly the acked
//!    sequence, serving answers bit-identical (`==` on `f64`) to the
//!    batch pipeline on that prefix, and a log that does not fit is
//!    refused untouched.
//!
//! [`WalError::CrcMismatch`]: webtrust::wal::WalError::CrcMismatch

use std::path::{Path, PathBuf};

use webtrust::community::events::replay_into_store;
use webtrust::community::StoreEvent;
use webtrust::core::{pipeline, DeriveConfig, IncrementalDerived, ReplayEvent};
use webtrust::serve::conformance::assert_backend_matches;
use webtrust::serve::{Client, ServeError, ServeOptions, Server, ShardEngine};
use webtrust::synth::{generate, shuffled_event_log, SynthConfig};
use webtrust::wal::{read_log, FsyncPolicy, LogKind, RecoveredLog, WalError, WalWriter};

/// A self-cleaning scratch directory, unique per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("wot-crash-{tag}-{}", std::process::id()));
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

/// Writes `events` to a fresh WAL at `path`, returning each frame's
/// byte offset (so tests can reason about boundaries).
fn write_wal(path: &Path, events: &[StoreEvent]) -> Vec<u64> {
    let mut w = WalWriter::create(path, LogKind::Events, FsyncPolicy::EveryN(1024)).unwrap();
    let offsets: Vec<u64> = events.iter().map(|e| w.append(e).unwrap()).collect();
    w.sync().unwrap();
    offsets
}

#[test]
fn truncation_at_every_byte_boundary_recovers_the_complete_prefix() {
    // A small community keeps the file a few hundred bytes, so sweeping
    // *every* truncation length — not just the tail record's — stays
    // cheap while still covering the tail record at byte granularity.
    let dir = TempDir::new("sweep");
    let store = generate(&SynthConfig::tiny(31)).unwrap().store;
    let log: Vec<StoreEvent> = shuffled_event_log(&store, 8)[..40].to_vec();
    let path = dir.file("events.wal");
    let offsets = write_wal(&path, &log);
    let full = std::fs::read(&path).unwrap();

    // Frame ends = starts shifted by one, plus end-of-file.
    let mut ends: Vec<u64> = offsets[1..].to_vec();
    ends.push(full.len() as u64);

    let cut_path = dir.file("cut.wal");
    for cut in 0..=full.len() {
        std::fs::write(&cut_path, &full[..cut]).unwrap();
        if cut < 16 {
            // Inside the file header: not a WAL yet — typed refusal.
            assert!(
                matches!(read_log(&cut_path), Err(WalError::BadHeader { .. })),
                "cut at {cut}"
            );
            continue;
        }
        let RecoveredLog { events, torn } =
            read_log(&cut_path).unwrap_or_else(|e| panic!("cut at {cut} must recover, got {e:?}"));
        let complete = ends.iter().filter(|&&e| e <= cut as u64).count();
        assert_eq!(events, log[..complete], "cut at {cut}");
        let at_boundary = cut as u64 == 16 || ends.contains(&(cut as u64));
        assert_eq!(torn.is_none(), at_boundary, "cut at {cut}");
        if let Some(t) = torn {
            assert_eq!(
                t.offset,
                if complete == 0 {
                    16
                } else {
                    ends[complete - 1]
                }
            );
            assert_eq!(t.bytes_dropped, cut as u64 - t.offset);
        }
    }
}

#[test]
fn flipped_payload_bits_are_typed_crc_errors_naming_the_frame() {
    let dir = TempDir::new("flip");
    let store = generate(&SynthConfig::tiny(32)).unwrap().store;
    let log: Vec<StoreEvent> = shuffled_event_log(&store, 9)[..25].to_vec();
    let path = dir.file("events.wal");
    let offsets = write_wal(&path, &log);
    let full = std::fs::read(&path).unwrap();

    // Which frame owns each byte, so the error's offset is checkable.
    let frame_of =
        |byte: usize| -> u64 { *offsets.iter().rev().find(|&&o| o <= byte as u64).unwrap() };

    let flip_path = dir.file("flip.wal");
    for byte in 16..full.len() {
        let in_frame_header = offsets.contains(&(byte as u64))
            || offsets
                .iter()
                .any(|&o| byte as u64 >= o && (byte as u64) < o + 8);
        let mut damaged = full.clone();
        damaged[byte] ^= 0x10;
        std::fs::write(&flip_path, &damaged).unwrap();
        let result = read_log(&flip_path);
        if in_frame_header {
            // A flipped length/CRC field can masquerade as a torn tail
            // (length now exceeds the file) or misalign the scan; every
            // acceptable outcome is "typed error" or "explicit torn
            // report" — never a clean full read of damaged bytes.
            match result {
                Err(_) => {}
                Ok(RecoveredLog { torn, events }) => {
                    assert!(
                        torn.is_some() && events.len() < log.len(),
                        "byte {byte}: header flip read cleanly"
                    );
                }
            }
        } else {
            // Payload bytes are CRC-covered: always the typed error,
            // always the owning frame's offset.
            match result {
                Err(WalError::CrcMismatch { offset, .. }) => {
                    assert_eq!(offset, frame_of(byte), "byte {byte}")
                }
                other => panic!("byte {byte}: expected CrcMismatch, got {other:?}"),
            }
        }
    }
}

#[test]
fn kill_mid_append_reopens_truncates_and_continues() {
    let dir = TempDir::new("kill");
    let store = generate(&SynthConfig::tiny(33)).unwrap().store;
    let log = shuffled_event_log(&store, 10);
    let (head, rest) = log.split_at(log.len() / 2);
    let next = rest[0];

    // The frame the doomed append would have written.
    let probe = dir.file("probe.wal");
    let mut w = WalWriter::create(&probe, LogKind::Events, FsyncPolicy::Always).unwrap();
    let frame_start = w.append(&next).unwrap();
    let frame: Vec<u8> = std::fs::read(&probe).unwrap()[frame_start as usize..].to_vec();

    let path = dir.file("events.wal");
    for partial in 1..frame.len() {
        let offsets = write_wal(&path, head);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(offsets.len(), head.len());

        // The kill: a prefix of the next frame reaches disk.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&frame[..partial]);
        std::fs::write(&path, &bytes).unwrap();

        // Reopen-for-append truncates the torn frame and re-appends it
        // (the writer upstream still has the event — it was never
        // acknowledged), then the rest of the history.
        let (mut w, torn) = WalWriter::open_append(&path, FsyncPolicy::EveryN(1024)).unwrap();
        let torn = torn.unwrap_or_else(|| panic!("partial {partial}: torn tail not reported"));
        assert_eq!(torn.offset, clean_len);
        assert_eq!(torn.bytes_dropped, partial as u64);
        for e in rest {
            w.append(e).unwrap();
        }
        w.sync().unwrap();
        let back = read_log(&path).unwrap();
        assert_eq!(back.events, log, "partial {partial}");
        assert_eq!(back.torn, None);
    }
}

#[test]
fn recovery_survives_combined_damage_without_panicking() {
    // Truncation + flips layered on the same file: whatever the bytes,
    // recovery must return a `Result` — the absence of a panic anywhere
    // in this loop is the assertion.
    let dir = TempDir::new("chaos");
    let store = generate(&SynthConfig::tiny(35)).unwrap().store;
    let log: Vec<StoreEvent> = shuffled_event_log(&store, 12)[..30].to_vec();
    let path = dir.file("events.wal");
    write_wal(&path, &log);
    let full = std::fs::read(&path).unwrap();
    let cfg = DeriveConfig::default();

    let chaos_path = dir.file("chaos.wal");
    let mut salt = 0x9E37_79B9_7F4A_7C15u64;
    for trial in 0..200 {
        let mut bytes = full.clone();
        // Deterministic pseudo-random damage: a truncation point and up
        // to three byte flips.
        salt = salt.wrapping_mul(6364136223846793005).wrapping_add(trial);
        let cut = (salt >> 33) as usize % (bytes.len() + 1);
        bytes.truncate(cut);
        for k in 0..(trial % 4) {
            if bytes.is_empty() {
                break;
            }
            salt = salt.wrapping_mul(6364136223846793005).wrapping_add(k);
            let pos = (salt >> 33) as usize % bytes.len();
            bytes[pos] ^= 1 << (salt % 8);
        }
        std::fs::write(&chaos_path, &bytes).unwrap();
        // Both the raw read and full recovery: typed results only.
        let _ = read_log(&chaos_path);
        let model =
            IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
        let _ = ShardEngine::open(
            &chaos_path,
            LogKind::Events,
            FsyncPolicy::Manual,
            model,
            |model, log| {
                for (_, e) in &log {
                    ShardEngine::fold(model, e).map_err(ServeError::Protocol)?;
                }
                Ok(())
            },
        );
    }
}

#[test]
fn start_on_an_existing_log_never_loses_an_acked_event() {
    let dir = TempDir::new("restart");
    let store = generate(&SynthConfig::tiny(36)).unwrap().store;
    let log = shuffled_event_log(&store, 13);
    let cfg = DeriveConfig::default();
    let base = log.len() / 2;
    let acked = base + (log.len() - base) / 2;
    let bootstrap = || {
        let mut m =
            IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
        for e in &log[..base] {
            m.apply(&ReplayEvent::from(*e)).unwrap();
        }
        m
    };
    let oracle = |n: usize| {
        let replayed = replay_into_store(
            store.scale().clone(),
            store.num_users(),
            store.num_categories(),
            &log[..n],
        )
        .unwrap();
        pipeline::derive(&replayed, &cfg).unwrap()
    };
    let path = dir.file("events.wal");
    let opts = ServeOptions::builder(&path)
        .fsync(FsyncPolicy::Always)
        .build()
        .unwrap();

    // Ingest, shut down, and tear a partial frame onto the log's tail.
    let server = Server::start(bootstrap(), base as u64, &opts).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for &e in &log[base..acked] {
        client.ingest(e).unwrap();
    }
    drop(client);
    server.shutdown().unwrap();
    let clean_len = std::fs::metadata(&path).unwrap().len();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&[17, 0, 0, 0, 0xAB, 0xCD]);
    std::fs::write(&path, &bytes).unwrap();

    // The restart on the same path, from the same bootstrap model, is at
    // the acked seq and bit-identical to the batch pipeline there.
    let server = Server::start(bootstrap(), base as u64, &opts).unwrap();
    assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.ping().unwrap(), acked as u64);
    assert_backend_matches(&mut client, &oracle(acked), acked as u64);
    for &e in &log[acked..] {
        client.ingest(e).unwrap();
    }
    assert_eq!(client.ping().unwrap(), log.len() as u64);
    drop(client);
    server.shutdown().unwrap();
    assert_eq!(read_log(&path).unwrap().events, log[base..]);

    // A log that does not fit is refused, byte-identical.
    let refuse = |path: &Path, bytes: &[u8], model: IncrementalDerived| {
        std::fs::write(path, bytes).unwrap();
        let opts = ServeOptions::local(path);
        let err = match Server::start(model, base as u64, &opts) {
            Err(e) => e,
            Ok(_) => panic!("started over a log that does not fit"),
        };
        assert_eq!(std::fs::read(path).unwrap(), bytes);
        err
    };
    let good = std::fs::read(&path).unwrap();
    // The wrong kind: a tagged log of the same events.
    let tagged = dir.file("tagged.wal");
    let mut w = WalWriter::create(&tagged, LogKind::TaggedEvents, FsyncPolicy::Manual).unwrap();
    for (k, e) in log[base..].iter().enumerate() {
        w.append_tagged(k as u64, e).unwrap();
    }
    w.sync().unwrap();
    drop(w);
    let tagged_bytes = std::fs::read(&tagged).unwrap();
    let err = refuse(&dir.file("kind.wal"), &tagged_bytes, bootstrap());
    assert!(
        matches!(err, ServeError::Wal(WalError::BadHeader { .. })),
        "{err}"
    );
    // A flipped payload bit in the first frame.
    let mut flipped = good.clone();
    flipped[16 + 8] ^= 0x01;
    let err = refuse(&dir.file("crc.wal"), &flipped, bootstrap());
    assert!(
        matches!(
            err,
            ServeError::Wal(WalError::CrcMismatch { offset: 16, .. })
        ),
        "{err}"
    );
    // Events the model refuses: this bootstrap already holds them.
    let mut ahead = bootstrap();
    for e in &log[base..] {
        ahead.apply(&ReplayEvent::from(*e)).unwrap();
    }
    let err = refuse(&dir.file("model.wal"), &good, ahead);
    assert!(matches!(err, ServeError::Config(_)), "{err}");
}
