//! Binary encoding of the log's events.
//!
//! Everything is little-endian and length-prefixed; `f64`s travel as
//! their IEEE-754 bit patterns (`to_bits`/`from_bits`), so a value
//! round-trips **bit**-identically — the recovery conformance contract
//! compares with `==` on `f64`, and this codec must never be the place
//! identity dies. Decoders return a `String` reason on failure;
//! frame-level callers wrap it into [`WalError::Decode`] with the
//! frame's byte offset.
//!
//! [`WalError::Decode`]: crate::WalError::Decode

use wot_community::{CategoryId, ReviewId, StoreEvent, UserId};

/// Event payload tag for [`StoreEvent::Review`].
const TAG_REVIEW: u8 = 0;
/// Event payload tag for [`StoreEvent::Rating`].
const TAG_RATING: u8 = 1;

// ---------------------------------------------------------------------
// Primitive writers/readers
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// A bounds-checked little-endian reader over a decoded frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "truncated payload: wanted {n} bytes for {what}, {} left",
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f64(&mut self, what: &str) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn finish(&self, what: &str) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after {what}",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// Encodes one event: `Review` → 13 bytes, `Rating` → 17 bytes.
///
/// Public because the serving layer (`wot-serve`) reuses the exact WAL
/// event encoding as its wire-level ingest body — one codec, one set of
/// round-trip proofs.
pub fn encode_event(out: &mut Vec<u8>, e: &StoreEvent) {
    match *e {
        StoreEvent::Review {
            writer,
            review,
            category,
        } => {
            out.push(TAG_REVIEW);
            put_u32(out, writer.0);
            put_u32(out, review.0);
            put_u32(out, category.0);
        }
        StoreEvent::Rating {
            rater,
            review,
            value,
        } => {
            out.push(TAG_RATING);
            put_u32(out, rater.0);
            put_u32(out, review.0);
            put_f64(out, value);
        }
    }
}

/// Decodes one event payload (the whole payload must be consumed).
/// Inverse of [`encode_event`]; `f64` rating values round-trip
/// bit-identically.
pub fn decode_event(payload: &[u8]) -> Result<StoreEvent, String> {
    let mut c = Cursor::new(payload);
    let e = decode_event_body(&mut c)?;
    c.finish("event")?;
    Ok(e)
}

fn decode_event_body(c: &mut Cursor<'_>) -> Result<StoreEvent, String> {
    match c.u8("event tag")? {
        TAG_REVIEW => Ok(StoreEvent::Review {
            writer: UserId(c.u32("writer")?),
            review: ReviewId(c.u32("review")?),
            category: CategoryId(c.u32("category")?),
        }),
        TAG_RATING => Ok(StoreEvent::Rating {
            rater: UserId(c.u32("rater")?),
            review: ReviewId(c.u32("review")?),
            value: c.f64("value")?,
        }),
        t => Err(format!("unknown event tag {t}")),
    }
}

/// Encodes a sequence-tagged event: `seq: u64` then the event body.
pub(crate) fn encode_tagged_event(out: &mut Vec<u8>, seq: u64, e: &StoreEvent) {
    put_u64(out, seq);
    encode_event(out, e);
}

/// Decodes one tagged-event payload.
pub(crate) fn decode_tagged_event(payload: &[u8]) -> Result<(u64, StoreEvent), String> {
    let mut c = Cursor::new(payload);
    let seq = c.u64("sequence tag")?;
    let e = decode_event_body(&mut c)?;
    c.finish("tagged event")?;
    Ok((seq, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<StoreEvent> {
        vec![
            StoreEvent::Review {
                writer: UserId(7),
                review: ReviewId(0),
                category: CategoryId(3),
            },
            StoreEvent::Rating {
                rater: UserId(1),
                review: ReviewId(0),
                value: 0.75,
            },
            StoreEvent::Rating {
                rater: UserId(2),
                review: ReviewId(0),
                value: f64::from_bits(0x3FE5_5555_5555_5555), // oddball bits survive
            },
        ]
    }

    #[test]
    fn events_round_trip_bit_identically() {
        for e in sample_events() {
            let mut buf = Vec::new();
            encode_event(&mut buf, &e);
            let back = decode_event(&buf).unwrap();
            if let (StoreEvent::Rating { value: a, .. }, StoreEvent::Rating { value: b, .. }) =
                (e, back)
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(back, e);
        }
        let mut buf = Vec::new();
        encode_tagged_event(&mut buf, 41, &sample_events()[1]);
        assert_eq!(decode_tagged_event(&buf).unwrap(), (41, sample_events()[1]));
    }

    #[test]
    fn decoders_reject_malformed_payloads() {
        let mut buf = Vec::new();
        encode_event(&mut buf, &sample_events()[0]);
        // Truncated.
        assert!(decode_event(&buf[..buf.len() - 1]).is_err());
        // Trailing garbage.
        let mut long = buf.clone();
        long.push(0);
        assert!(decode_event(&long).is_err());
        // Unknown tag.
        let mut bad = buf.clone();
        bad[0] = 9;
        assert!(decode_event(&bad)
            .unwrap_err()
            .contains("unknown event tag"));
    }
}
