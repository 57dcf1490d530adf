//! The 16-byte log file header.
//!
//! ```text
//! 0..8   magic (b"WOTWAL01" — trailing digits = version)
//! 8      kind byte (untagged or sequence-tagged events)
//! 9..12  reserved, must be zero
//! 12..16 CRC32 of bytes 0..12, little-endian
//! ```
//!
//! The header carries its own CRC so "not a WAL at all" and "a WAL whose
//! first record is damaged" are distinguishable: the former is a
//! [`WalError::BadHeader`], the latter a frame-level error with an
//! offset.
//!
//! [`WalError::BadHeader`]: crate::WalError::BadHeader

use std::path::Path;

use crate::crc32::crc32;
use crate::{Result, WalError};

/// Total header size.
pub(crate) const HEADER_LEN: usize = 16;
/// Per-frame header: `len: u32` + `crc32: u32`.
pub(crate) const FRAME_HEADER_LEN: usize = 8;
/// Magic for event logs, version 01.
pub(crate) const MAGIC_WAL: [u8; 8] = *b"WOTWAL01";

/// Builds the header for a file of the given magic and kind.
pub(crate) fn header_bytes(magic: [u8; 8], kind: u8) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(&magic);
    h[8] = kind;
    let crc = crc32(&h[..12]);
    h[12..].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Validates the leading header of `buf` against `magic` and returns the
/// kind byte.
pub(crate) fn parse_header(buf: &[u8], magic: [u8; 8], path: &Path) -> Result<u8> {
    let bad = |reason: String| WalError::BadHeader {
        path: path.display().to_string(),
        reason,
    };
    if buf.len() < HEADER_LEN {
        return Err(bad(format!(
            "file is {} bytes, shorter than the {HEADER_LEN}-byte header",
            buf.len()
        )));
    }
    if buf[..8] != magic {
        return Err(bad(format!(
            "magic {:?} is not the expected {:?}",
            &buf[..8],
            magic
        )));
    }
    if buf[9..12] != [0, 0, 0] {
        return Err(bad("reserved header bytes are nonzero".into()));
    }
    let recorded = u32::from_le_bytes(buf[12..16].try_into().unwrap());
    let actual = crc32(&buf[..12]);
    if recorded != actual {
        return Err(bad(format!(
            "header crc {recorded:#010x} does not match computed {actual:#010x}"
        )));
    }
    Ok(buf[8])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_and_rejects_damage() {
        let p = Path::new("x.wal");
        let h = header_bytes(MAGIC_WAL, 1);
        assert_eq!(parse_header(&h, MAGIC_WAL, p).unwrap(), 1);
        // Another format version.
        assert!(matches!(
            parse_header(&h, *b"WOTWAL02", p),
            Err(WalError::BadHeader { .. })
        ));
        // Any flipped bit in the covered prefix breaks the header crc.
        for i in 0..12 {
            let mut d = h;
            d[i] ^= 0x40;
            assert!(parse_header(&d, MAGIC_WAL, p).is_err(), "byte {i}");
        }
        // Too short.
        assert!(parse_header(&h[..10], MAGIC_WAL, p).is_err());
    }
}
