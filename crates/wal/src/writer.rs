//! Appending to a WAL: frame assembly and fsync batching.
//!
//! Each append is a **single** `write(2)` of one complete frame, so the
//! only states a crash can leave on disk are "frame absent", "frame
//! torn" (partial write), and "frame complete" — exactly the states the
//! reader's torn-tail scan distinguishes. Durability is a separate knob:
//! [`FsyncPolicy`] trades the per-event fsync cost (hundreds of µs on
//! real disks) against the bounded suffix of acknowledged-but-volatile
//! events a power loss may drop. The replay contract makes any dropped
//! *suffix* recoverable from upstream; what it cannot tolerate is a
//! dropped *interior* event, which single-write framing rules out.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use wot_community::StoreEvent;

use crate::codec::{encode_event, encode_tagged_event};
use crate::crc32::crc32;
use crate::format::{header_bytes, FRAME_HEADER_LEN, HEADER_LEN, MAGIC_WAL};
use crate::reader::{scan_log, TornTail};
use crate::{io_err, Result, WalError};

/// What a log file's frames contain (the header kind byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogKind {
    /// Plain [`StoreEvent`]s — a single process's total order.
    Events,
    /// `(sequence_tag, StoreEvent)` pairs — shard-local logs carrying
    /// their position in the global causal history, mergeable across
    /// shards by [`merge_shard_logs`](wot_community::shard::merge_shard_logs).
    TaggedEvents,
}

impl LogKind {
    pub(crate) fn code(self) -> u8 {
        match self {
            LogKind::Events => 0,
            LogKind::TaggedEvents => 1,
        }
    }

    pub(crate) fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(LogKind::Events),
            1 => Some(LogKind::TaggedEvents),
            _ => None,
        }
    }
}

/// When the writer calls `fdatasync`, bounding the events a power loss
/// can drop from the acknowledged suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every append. Zero-loss, slowest — the fsync dominates
    /// the append cost by orders of magnitude.
    Always,
    /// Sync after every `n` appends: at most `n - 1` acknowledged events
    /// are volatile at any moment.
    EveryN(u64),
    /// Sync when at least this many milliseconds have passed since the
    /// last sync (checked at append time): bounds loss by wall-clock
    /// time instead of event count.
    EveryMs(u64),
    /// Never sync implicitly: the caller owns durability and calls
    /// [`WalWriter::sync`] itself. This is the batched-acknowledgment
    /// mode — append a whole burst, sync once, then acknowledge the
    /// burst — where any implicit per-append sync would defeat the
    /// batching. Acknowledging anything before the explicit sync is the
    /// caller's bug, not the writer's.
    Manual,
}

/// An append handle on a WAL file.
pub struct WalWriter {
    file: File,
    path: PathBuf,
    kind: LogKind,
    policy: FsyncPolicy,
    /// Frames appended since the last sync.
    unsynced: u64,
    /// Syncs that covered appended frames, since this handle opened.
    syncs: u64,
    last_sync: Instant,
    /// Current file length = offset of the next frame.
    len: u64,
    /// Reusable frame-assembly buffer: `len | crc | payload`, with the
    /// payload encoded in place behind a reserved frame header.
    frame: Vec<u8>,
}

impl WalWriter {
    /// Creates (or truncates) a log file of the given kind, writes its
    /// header, and syncs so the header itself is durable.
    pub fn create(path: &Path, kind: LogKind, policy: FsyncPolicy) -> Result<Self> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        file.write_all(&header_bytes(MAGIC_WAL, kind.code()))
            .map_err(|e| io_err(path, e))?;
        file.sync_data().map_err(|e| io_err(path, e))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            kind,
            policy,
            unsynced: 0,
            syncs: 0,
            last_sync: Instant::now(),
            len: HEADER_LEN as u64,
            frame: Vec::new(),
        })
    }

    /// Reopens an existing log for appending.
    ///
    /// The file is frame-scanned first: a torn tail is **physically
    /// truncated** (and reported) so the new append starts on a clean
    /// frame boundary, while mid-log corruption refuses the open with
    /// [`WalError::CrcMismatch`] — appending after damaged history would
    /// launder it into a "valid" log.
    pub fn open_append(path: &Path, policy: FsyncPolicy) -> Result<(Self, Option<TornTail>)> {
        let scanned = scan_log(path)?;
        let kind = LogKind::from_code(scanned.kind).ok_or_else(|| WalError::BadHeader {
            path: path.display().to_string(),
            reason: format!("unknown log kind byte {}", scanned.kind),
        })?;
        let end = scanned.valid_end();
        let torn = scanned.torn;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        if torn.is_some() {
            file.set_len(end).map_err(|e| io_err(path, e))?;
            file.sync_data().map_err(|e| io_err(path, e))?;
        }
        file.seek(SeekFrom::Start(end))
            .map_err(|e| io_err(path, e))?;
        Ok((
            WalWriter {
                file,
                path: path.to_path_buf(),
                kind,
                policy,
                unsynced: 0,
                syncs: 0,
                last_sync: Instant::now(),
                len: end,
                frame: Vec::new(),
            },
            torn,
        ))
    }

    /// Appends one untagged event ([`LogKind::Events`] logs only).
    /// Returns the frame's byte offset.
    pub fn append(&mut self, event: &StoreEvent) -> Result<u64> {
        self.expect_kind(LogKind::Events)?;
        self.write_frame(|buf| encode_event(buf, event))
    }

    /// Appends one sequence-tagged event ([`LogKind::TaggedEvents`] logs
    /// only). Returns the frame's byte offset.
    pub fn append_tagged(&mut self, seq: u64, event: &StoreEvent) -> Result<u64> {
        self.expect_kind(LogKind::TaggedEvents)?;
        self.write_frame(|buf| encode_tagged_event(buf, seq, event))
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data().map_err(|e| io_err(&self.path, e))?;
        self.unsynced = 0;
        self.syncs += 1;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Syncs if the fsync policy is overdue — the **idle-flush** path.
    ///
    /// The policy is otherwise only evaluated inside an append, so under
    /// [`FsyncPolicy::EveryMs`] the last events before an idle period
    /// would stay volatile until the *next* write arrived — an unbounded
    /// data-loss window for a long-lived serving process. A daemon's
    /// writer loop calls this on its idle ticks to bound the window by
    /// the policy's own clock. Returns whether a sync was performed.
    ///
    /// With nothing unsynced this is a no-op; under [`FsyncPolicy::Always`]
    /// appends sync inline, so it never fires.
    pub fn sync_if_due(&mut self) -> Result<bool> {
        if self.unsynced == 0 {
            return Ok(false);
        }
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            FsyncPolicy::EveryMs(ms) => self.last_sync.elapsed().as_millis() >= ms as u128,
            FsyncPolicy::Manual => false,
        };
        if due {
            self.sync()?;
        }
        Ok(due)
    }

    /// Frames appended since the last sync (acknowledged but possibly
    /// still volatile).
    pub fn unsynced(&self) -> u64 {
        self.unsynced
    }

    /// Successful [`sync`](Self::sync)s since this handle was created or
    /// opened, whether called explicitly or by the fsync policy. The
    /// header syncs of `create` and of a torn-tail truncation are not
    /// counted. Lets tests hold a caller to its number of syncs.
    #[doc(hidden)]
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Current file length (= offset of the next frame).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no frames (header only).
    pub fn is_empty(&self) -> bool {
        self.len == HEADER_LEN as u64
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn expect_kind(&self, want: LogKind) -> Result<()> {
        if self.kind != want {
            return Err(WalError::BadHeader {
                path: self.path.display().to_string(),
                reason: format!("log is {:?}, cannot append {want:?} records", self.kind),
            });
        }
        Ok(())
    }

    /// Assembles `len | crc | payload` in the reused frame buffer, with
    /// `encode` writing the payload straight behind a placeholder
    /// header, and writes the frame with one `write` call, then applies
    /// the fsync policy.
    fn write_frame(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<u64> {
        let offset = self.len;
        self.frame.clear();
        self.frame.extend_from_slice(&[0; FRAME_HEADER_LEN]);
        encode(&mut self.frame);
        let payload = &self.frame[FRAME_HEADER_LEN..];
        let len_field = frame_len_field(payload.len() as u64)?;
        let crc = crc32(payload).to_le_bytes();
        self.frame[..4].copy_from_slice(&len_field);
        self.frame[4..FRAME_HEADER_LEN].copy_from_slice(&crc);
        self.file
            .write_all(&self.frame)
            .map_err(|e| io_err(&self.path, e))?;
        self.len += self.frame.len() as u64;
        self.unsynced += 1;
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            FsyncPolicy::EveryMs(ms) => self.last_sync.elapsed().as_millis() >= ms as u128,
            FsyncPolicy::Manual => false,
        };
        if due {
            self.sync()?;
        }
        Ok(offset)
    }
}

/// Encodes a frame's length field, refusing payloads the `u32` cannot
/// represent. A plain `as u32` cast here would wrap a ≥ 4 GiB payload's
/// length and write a frame header that lies about its size — the CRC
/// would then be checked against the wrong byte range and every frame
/// boundary after it would be misaligned. Fail closed instead, before
/// anything reaches the file.
fn frame_len_field(payload_len: u64) -> Result<[u8; 4]> {
    match u32::try_from(payload_len) {
        Ok(len) => Ok(len.to_le_bytes()),
        Err(_) => Err(WalError::FrameTooLarge {
            payload_len,
            max_len: u32::MAX as u64,
        }),
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    /// Regression for the `payload.len() as u32` truncation: a payload
    /// length of exactly 4 GiB used to wrap to a length field of 0. The
    /// length check runs before any allocation or write, so it is
    /// testable without materializing a 4 GiB buffer.
    #[test]
    fn oversized_frame_fails_closed() {
        assert_eq!(frame_len_field(0).unwrap(), [0, 0, 0, 0]);
        assert_eq!(frame_len_field(17).unwrap(), 17u32.to_le_bytes());
        assert_eq!(
            frame_len_field(u32::MAX as u64).unwrap(),
            u32::MAX.to_le_bytes()
        );
        for too_big in [1u64 << 32, (1u64 << 32) + 5, u64::MAX] {
            match frame_len_field(too_big) {
                Err(WalError::FrameTooLarge {
                    payload_len,
                    max_len,
                }) => {
                    assert_eq!(payload_len, too_big);
                    assert_eq!(max_len, u32::MAX as u64);
                }
                other => panic!("length {too_big} must fail closed, got {other:?}"),
            }
        }
    }

    /// Regression for the idle-tail fsync gap: under `EveryMs`, events
    /// appended just after a sync stayed volatile until the *next*
    /// append, however long that took. `sync_if_due` must make an idle
    /// tail durable as soon as the policy window has elapsed.
    #[test]
    fn idle_tail_becomes_durable_within_policy_window() {
        let dir = std::env::temp_dir().join(format!("wot-wal-idle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("idle.wal");
        let mut w = WalWriter::create(&path, LogKind::Events, FsyncPolicy::EveryMs(150)).unwrap();
        // Immediately after create the sync clock is fresh, so this
        // append lands inside the window and stays unsynced.
        let ev = StoreEvent::Rating {
            rater: wot_community::UserId(1),
            review: wot_community::ReviewId(0),
            value: 1.0,
        };
        w.append(&ev).unwrap();
        assert_eq!(w.unsynced(), 1, "append inside the window must not sync");
        // Not yet due: the window has not elapsed.
        assert!(!w.sync_if_due().unwrap());
        assert_eq!(w.unsynced(), 1);
        // After the window passes with no further writes, the idle-flush
        // path alone must make the tail durable.
        std::thread::sleep(Duration::from_millis(170));
        assert!(w.sync_if_due().unwrap(), "overdue idle tail must sync");
        assert_eq!(w.unsynced(), 0);
        // And once clean, repeated polls are no-ops.
        assert!(!w.sync_if_due().unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The writer's reused frame buffer puts exactly the documented
    /// bytes on disk: a 3-event log of each kind equals its header plus
    /// `len | crc | payload` frames assembled here by hand from the
    /// codec's field layout.
    #[test]
    fn three_event_logs_hold_exactly_the_hand_assembled_frames() {
        let events = [
            StoreEvent::Review {
                writer: wot_community::UserId(7),
                review: wot_community::ReviewId(0),
                category: wot_community::CategoryId(3),
            },
            StoreEvent::Rating {
                rater: wot_community::UserId(1),
                review: wot_community::ReviewId(0),
                value: 0.75,
            },
            StoreEvent::Rating {
                rater: wot_community::UserId(0x0102_0304),
                review: wot_community::ReviewId(9),
                value: f64::from_bits(0x3FE5_5555_5555_5555),
            },
        ];
        // Event bodies: tag byte (0 review, 1 rating), then u32 LE
        // fields and, for a rating, the value's f64 bits LE.
        let bodies: [Vec<u8>; 3] = [
            [&[0u8][..], &[7, 0, 0, 0], &[0, 0, 0, 0], &[3, 0, 0, 0]].concat(),
            [
                &[1u8][..],
                &[1, 0, 0, 0],
                &[0, 0, 0, 0],
                &[0, 0, 0, 0, 0, 0, 0xE8, 0x3F],
            ]
            .concat(),
            [
                &[1u8][..],
                &[4, 3, 2, 1],
                &[9, 0, 0, 0],
                &[0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0xE5, 0x3F],
            ]
            .concat(),
        ];
        let dir = std::env::temp_dir().join(format!("wot-wal-bytes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for kind in [LogKind::Events, LogKind::TaggedEvents] {
            let path = dir.join(format!("{kind:?}.wal"));
            let mut w = WalWriter::create(&path, kind, FsyncPolicy::Manual).unwrap();
            let mut want: Vec<u8> = b"WOTWAL01".to_vec();
            let kind_byte = match kind {
                LogKind::Events => 0,
                LogKind::TaggedEvents => 1,
            };
            want.extend_from_slice(&[kind_byte, 0, 0, 0]);
            want.extend_from_slice(&crc32(&want).to_le_bytes());
            for (i, (event, body)) in events.iter().zip(&bodies).enumerate() {
                let tag = 40 + i as u64;
                let payload = match kind {
                    LogKind::Events => body.clone(),
                    LogKind::TaggedEvents => [&tag.to_le_bytes()[..], body].concat(),
                };
                let offset = match kind {
                    LogKind::Events => w.append(event).unwrap(),
                    LogKind::TaggedEvents => w.append_tagged(tag, event).unwrap(),
                };
                assert_eq!(offset, want.len() as u64, "{kind:?} frame {i} offset");
                want.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                want.extend_from_slice(&crc32(&payload).to_le_bytes());
                want.extend_from_slice(&payload);
            }
            assert_eq!(w.len(), want.len() as u64);
            w.sync().unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), want, "{kind:?} log bytes");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `EveryN` and `Always` interact sanely with the idle-flush path.
    #[test]
    fn sync_if_due_respects_count_policies() {
        let dir = std::env::temp_dir().join(format!("wot-wal-idle-n-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("every-n.wal");
        let mut w = WalWriter::create(&path, LogKind::Events, FsyncPolicy::EveryN(3)).unwrap();
        let ev = StoreEvent::Rating {
            rater: wot_community::UserId(1),
            review: wot_community::ReviewId(0),
            value: 0.5,
        };
        w.append(&ev).unwrap();
        assert_eq!(w.unsynced(), 1);
        // One of three: not due yet under EveryN.
        assert!(!w.sync_if_due().unwrap());
        w.append(&ev).unwrap();
        w.append(&ev).unwrap();
        // The third append synced inline; the idle path has nothing to do.
        assert_eq!((w.unsynced(), w.syncs()), (0, 1));
        assert!(!w.sync_if_due().unwrap());
        assert_eq!(w.syncs(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
