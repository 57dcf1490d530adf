//! # wot-wal — durable event log
//!
//! The incremental pipeline (`wot-core`'s `IncrementalDerived`) folds a
//! community's event stream into the paper's derived model online. This
//! crate makes that stream **durable**: events are appended to a binary
//! write-ahead log as they arrive, and reading the log back returns
//! exactly the events whose appends completed. The serving layer's
//! `ShardEngine` (`wot-serve`) is the one owner of a live log: it
//! replays an existing log onto its bootstrap model on open and appends
//! behind its admission check. Recovery is a cold replay of the whole
//! log — there are no checkpoints.
//!
//! ## On-disk format
//!
//! Every log starts with a 16-byte header:
//!
//! ```text
//! offset  size  field
//! 0       8     magic: b"WOTWAL01" (the trailing digits version the format)
//! 8       1     kind: 0 = untagged events, 1 = sequence-tagged events
//! 9       3     reserved (zero)
//! 12      4     CRC32 (IEEE) of bytes 0..12, little-endian
//! ```
//!
//! The body is a run of self-checking **frames**:
//!
//! ```text
//! len: u32 LE | crc32(payload): u32 LE | payload (len bytes)
//! ```
//!
//! ## Failure semantics — torn tails vs. corruption
//!
//! The two ways a log can be damaged get opposite treatments, because
//! they mean different things:
//!
//! * **Torn tail** — the file ends mid-frame (header or payload cut
//!   short). That is the expected signature of a crash during an
//!   append. Readers truncate gracefully: they return every complete
//!   frame plus a [`TornTail`] report saying what was dropped, and
//!   [`WalWriter::open_append`] physically truncates the file so the
//!   next append starts clean.
//! * **Mid-log corruption** — a *complete* frame whose CRC does not
//!   match, anywhere in the file (including the last frame). That is
//!   not a crash artifact; it is bit rot or tampering, and silently
//!   dropping data from the middle of a causal history would corrupt
//!   every downstream derivation. Readers **fail closed** with a typed
//!   [`WalError::CrcMismatch`] naming the byte offset.
//!
//! `tests/crash_recovery.rs` at the workspace root drives the
//! fault-injection proof: truncation at every byte boundary of the tail
//! record, flipped body bytes, kill-mid-append, and a daemon restarted
//! on its own torn log.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod crc32;
mod format;
pub mod reader;
pub mod writer;

use std::fmt;
use std::path::Path;

pub use codec::{decode_event, encode_event};
pub use reader::{read_log, read_tagged_log, RecoveredLog, TornTail};
pub use writer::{FsyncPolicy, LogKind, WalWriter};

/// Errors raised while writing or reading a log.
///
/// I/O failures are flattened to `(path, message)` so the error stays
/// `Clone + PartialEq` — recovery tests assert on exact error values.
#[derive(Debug, Clone, PartialEq)]
pub enum WalError {
    /// An operating-system I/O failure (open, read, write, fsync), with
    /// the path it happened on.
    Io {
        /// The file or directory involved.
        path: String,
        /// The OS error, stringified.
        message: String,
    },
    /// The 16-byte file header was missing, unrecognized, or failed its
    /// own CRC — the file is not a (current-version) WAL.
    BadHeader {
        /// The offending file.
        path: String,
        /// What was wrong with the header.
        reason: String,
    },
    /// A frame payload would not fit the format's `u32` length field.
    /// Appending fails closed **before any byte reaches the file** —
    /// the old `payload.len() as u32` cast silently truncated the
    /// length and wrote a frame whose header lied about its size,
    /// corrupting every frame after it.
    FrameTooLarge {
        /// The payload size that was requested.
        payload_len: u64,
        /// The largest payload a frame can carry (`u32::MAX`).
        max_len: u64,
    },
    /// A complete frame's payload did not match its recorded CRC32:
    /// mid-log corruption. Recovery fails closed rather than dropping
    /// interior history.
    CrcMismatch {
        /// Byte offset of the frame's length field.
        offset: u64,
        /// CRC recorded in the frame header.
        expected: u32,
        /// CRC computed over the payload actually on disk.
        actual: u32,
    },
    /// A frame's CRC checked out but its payload did not decode — a
    /// writer bug or a format mismatch, never silently skippable.
    Decode {
        /// Byte offset of the frame's length field.
        offset: u64,
        /// What failed to decode.
        reason: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { path, message } => write!(f, "io error on {path}: {message}"),
            WalError::BadHeader { path, reason } => {
                write!(f, "bad file header in {path}: {reason}")
            }
            WalError::FrameTooLarge {
                payload_len,
                max_len,
            } => write!(
                f,
                "frame payload of {payload_len} bytes exceeds the u32 length \
                 field's maximum of {max_len} bytes"
            ),
            WalError::CrcMismatch {
                offset,
                expected,
                actual,
            } => write!(
                f,
                "crc mismatch in frame at offset {offset}: recorded {expected:#010x}, \
                 computed {actual:#010x}"
            ),
            WalError::Decode { offset, reason } => {
                write!(f, "undecodable frame at offset {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for WalError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, WalError>;

/// Converts an `std::io` failure into the crate's cloneable error shape.
pub(crate) fn io_err(path: &Path, e: std::io::Error) -> WalError {
    WalError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure_site() {
        let e = WalError::CrcMismatch {
            offset: 16,
            expected: 0xdead_beef,
            actual: 0x0bad_f00d,
        };
        let s = e.to_string();
        assert!(s.contains("offset 16"), "{s}");
        assert!(s.contains("0xdeadbeef"), "{s}");
        let t = WalError::FrameTooLarge {
            payload_len: 9 << 32,
            max_len: u32::MAX as u64,
        }
        .to_string();
        assert!(t.contains(&(9u64 << 32).to_string()), "{t}");
    }
}
