//! The one checksummed on-disk framing the serving side persists with:
//! the profile store's `G5PS` segments and the server's result-cache
//! `G5PC` entries. Each caller picks its magic and schema version and
//! encodes only its payload.
//!
//! ```text
//! magic [u8; 4] | version u8 | payload_len u32 LE | fnv1a64(payload) u64 LE | payload
//! ```
//!
//! [`unframe`] checks the layout and the checksum before the version,
//! so a truncated or bit-flipped file of any version is
//! [`Reject::Corrupt`] and only an intact file of another version is
//! [`Reject::Stale`]. The version byte sits outside the checksum.
//! [`write_atomic`] lands a file by temp-write plus rename, so a crash
//! mid-write leaves the old file or none, never a torn one.

use gem5prof_chaos::fnv1a64;
use std::io;
use std::path::Path;

/// Header bytes before the payload: magic + version + length + checksum.
pub(crate) const HEADER: usize = 4 + 1 + 4 + 8;

/// Why a framed file was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// Wrong magic, impossible length, failed checksum, or a payload
    /// its owner cannot decode.
    Corrupt,
    /// Intact layout and checksum, but another schema version.
    Stale,
}

/// Frames `payload` under `magic` and `version`.
pub fn frame(magic: &[u8; 4], version: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + payload.len());
    out.extend_from_slice(magic);
    out.push(version);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Checks a framed file and returns its payload.
pub fn unframe<'a>(magic: &[u8; 4], version: u8, bytes: &'a [u8]) -> Result<&'a [u8], Reject> {
    if bytes.len() < HEADER || &bytes[0..4] != magic {
        return Err(Reject::Corrupt);
    }
    let payload_len = u32::from_le_bytes(bytes[5..9].try_into().expect("4-byte slice")) as usize;
    let checksum = u64::from_le_bytes(bytes[9..17].try_into().expect("8-byte slice"));
    let payload = &bytes[HEADER..];
    if payload.len() != payload_len || fnv1a64(payload) != checksum {
        return Err(Reject::Corrupt);
    }
    if bytes[4] != version {
        return Err(Reject::Stale);
    }
    Ok(payload)
}

/// Writes `bytes` to `path` through a process-unique temp file and a
/// rename.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp{}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 4] = b"TEST";

    #[test]
    fn frame_unframe_round_trips() {
        let bytes = frame(MAGIC, 3, b"payload");
        assert_eq!(bytes.len(), HEADER + 7);
        assert_eq!(unframe(MAGIC, 3, &bytes), Ok(&b"payload"[..]));
        assert_eq!(unframe(MAGIC, 3, &frame(MAGIC, 3, b"")), Ok(&b""[..]));
    }

    #[test]
    fn layout_and_checksum_are_checked_before_the_version() {
        let bytes = frame(MAGIC, 3, b"payload");
        assert_eq!(unframe(MAGIC, 3, &[]), Err(Reject::Corrupt));
        assert_eq!(unframe(MAGIC, 3, &bytes[..3]), Err(Reject::Corrupt));
        assert_eq!(unframe(b"G5PC", 3, &bytes), Err(Reject::Corrupt));
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 0xFF;
        assert_eq!(unframe(MAGIC, 3, &flipped), Err(Reject::Corrupt));
        // Truncated under another version: still corrupt, not stale.
        assert_eq!(
            unframe(MAGIC, 4, &bytes[..bytes.len() - 1]),
            Err(Reject::Corrupt)
        );
        assert_eq!(unframe(MAGIC, 4, &bytes), Err(Reject::Stale));
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("gem5prof-frame-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.bin");
        write_atomic(&path, b"one").unwrap();
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
