//! The on-disk segment format: one self-describing, checksummed file
//! per snapshot, framed by [`crate::frame`] (the same framing as the
//! server's disk warm tier, whose `G5PC` entries differ only in magic,
//! version and payload):
//!
//! ```text
//! magic "G5PS" | version u8 | payload_len u32 LE | fnv1a64(payload) u64 LE | payload
//! ```
//!
//! The payload is a flat little-endian encoding of one [`Snapshot`]:
//!
//! ```text
//! id u64 | taken_unix_ms u64 | label str | node_id str |
//! span_count u32 | (path str, count u64, total_ns u64, self_ns u64)* |
//! metric_count u32 | (name str, value f64-bits u64)*
//! ```
//!
//! where `str` is `len u32 LE | utf8 bytes`. The version byte is the
//! **segment schema version**: any layout change bumps
//! [`SEGMENT_FORMAT_VERSION`] and older segments are ignored (counted
//! `stale`) rather than misread. Truncated or bit-flipped segments fail
//! the checksum and are ignored as `corrupt`. Either way the snapshot
//! is simply absent from the index — a damaged ring can cost history,
//! never wrong diffs.

use crate::frame::{self, Reject};
use crate::{MetricRow, Snapshot, SpanRow};

/// Schema version of the segment layout; bump on any payload change.
pub const SEGMENT_FORMAT_VERSION: u8 = 1;

/// File magic: a stray file in the profile dir is never parsed.
const MAGIC: &[u8; 4] = b"G5PS";

/// Extension for snapshot segment files.
pub const EXT: &str = "g5ps";

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Serializes one snapshot to the segment layout.
pub fn encode(snap: &Snapshot) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64 + 48 * snap.spans.len() + 24 * snap.metrics.len());
    payload.extend_from_slice(&snap.id.to_le_bytes());
    payload.extend_from_slice(&snap.taken_unix_ms.to_le_bytes());
    put_str(&mut payload, &snap.label);
    put_str(&mut payload, &snap.node_id);
    payload.extend_from_slice(&(snap.spans.len() as u32).to_le_bytes());
    for s in &snap.spans {
        put_str(&mut payload, &s.path);
        payload.extend_from_slice(&s.count.to_le_bytes());
        payload.extend_from_slice(&s.total_ns.to_le_bytes());
        payload.extend_from_slice(&s.self_ns.to_le_bytes());
    }
    payload.extend_from_slice(&(snap.metrics.len() as u32).to_le_bytes());
    for m in &snap.metrics {
        put_str(&mut payload, &m.name);
        payload.extend_from_slice(&m.value.to_bits().to_le_bytes());
    }
    frame::frame(MAGIC, SEGMENT_FORMAT_VERSION, &payload)
}

/// A little-endian cursor over the payload; every read is bounds-checked
/// so a short payload is a decode error, never a panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], Reject> {
        let end = self.pos.checked_add(n).ok_or(Reject::Corrupt)?;
        if end > self.bytes.len() {
            return Err(Reject::Corrupt);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, Reject> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, Reject> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, Reject> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Reject::Corrupt)
    }
}

/// Parses a segment file back into a snapshot.
pub fn decode(bytes: &[u8]) -> Result<Snapshot, Reject> {
    let payload = frame::unframe(MAGIC, SEGMENT_FORMAT_VERSION, bytes)?;
    let mut c = Cursor {
        bytes: payload,
        pos: 0,
    };
    let id = c.u64()?;
    let taken_unix_ms = c.u64()?;
    let label = c.str()?;
    let node_id = c.str()?;
    let span_count = c.u32()? as usize;
    let mut spans = Vec::with_capacity(span_count.min(1 << 16));
    for _ in 0..span_count {
        spans.push(SpanRow {
            path: c.str()?,
            count: c.u64()?,
            total_ns: c.u64()?,
            self_ns: c.u64()?,
        });
    }
    let metric_count = c.u32()? as usize;
    let mut metrics = Vec::with_capacity(metric_count.min(1 << 16));
    for _ in 0..metric_count {
        metrics.push(MetricRow {
            name: c.str()?,
            value: f64::from_bits(c.u64()?),
        });
    }
    if c.pos != payload.len() {
        // Trailing garbage that still checksummed means the writer and
        // reader disagree about the layout: treat as corrupt.
        return Err(Reject::Corrupt);
    }
    Ok(Snapshot {
        id,
        taken_unix_ms,
        label,
        node_id,
        spans,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            id: 7,
            taken_unix_ms: 1_700_000_000_123,
            label: "baseline".into(),
            node_id: "node-1".into(),
            spans: vec![
                SpanRow {
                    path: "http_request".into(),
                    count: 10,
                    total_ns: 5_000,
                    self_ns: 4_000,
                },
                SpanRow {
                    path: "serve_compute;profile;dedup;guest_sim".into(),
                    count: 2,
                    total_ns: 9_000_000,
                    self_ns: 8_500_000,
                },
            ],
            metrics: vec![
                MetricRow {
                    name: "gem5prof_served_requests_total".into(),
                    value: 12.0,
                },
                MetricRow {
                    name: "served_tier_lookup_seconds_sum{tier=\"mem\"}".into(),
                    value: 0.25,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample();
        let bytes = encode(&snap);
        assert_eq!(decode(&bytes).unwrap(), snap);
    }

    #[test]
    fn decode_rejects_corruption_and_stale_versions() {
        let bytes = encode(&sample());
        // Truncation anywhere — header or payload — is corrupt.
        assert_eq!(decode(&bytes[..bytes.len() - 1]), Err(Reject::Corrupt));
        assert_eq!(decode(&bytes[..3]), Err(Reject::Corrupt));
        assert_eq!(decode(&[]), Err(Reject::Corrupt));
        // Wrong magic is corrupt.
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode(&bad_magic), Err(Reject::Corrupt));
        // A flipped payload byte fails the checksum.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        assert_eq!(decode(&flipped), Err(Reject::Corrupt));
        // A version bump makes the segment stale, not corrupt (the
        // version byte sits outside the checksum).
        let mut old = bytes.clone();
        old[4] = SEGMENT_FORMAT_VERSION.wrapping_add(1);
        assert_eq!(decode(&old), Err(Reject::Stale));
    }

    #[test]
    fn trailing_bytes_inside_a_valid_checksum_are_corrupt() {
        let snap = sample();
        // Reframe the payload with one extra byte: the checksum passes,
        // the cursor position does not.
        let mut payload = encode(&snap).split_off(frame::HEADER);
        payload.push(0xAB);
        let out = frame::frame(b"G5PS", SEGMENT_FORMAT_VERSION, &payload);
        assert_eq!(decode(&out), Err(Reject::Corrupt));
    }
}
