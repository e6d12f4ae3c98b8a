//! Crash-safe snapshot persistence: a checksummed, versioned container
//! for checkpoint and state files, written atomically.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"VODSNAP1"
//! 8       1     kind length K (short ASCII tag, e.g. "solver-checkpoint")
//! 9       K     kind bytes
//! 9+K     4     payload format version (u32)
//! 13+K    8     payload length N (u64)
//! 21+K    8     FNV-1a 64 checksum of the payload bytes (u64)
//! 29+K    N     payload
//! ```
//!
//! Readers return a typed [`SnapshotError`] on *any* malformed input —
//! truncation, bit flips, wrong kind, wrong version — and never panic:
//! a crashed writer or a corrupted disk must degrade into a recovery
//! path, not take the supervisor down with it.
//!
//! Writers go through [`write_snapshot_atomic`]: the bytes land in a
//! sibling `*.tmp` file which is then `rename`d over the destination,
//! so a reader never observes a half-written snapshot (rename is atomic
//! on POSIX filesystems). The `xtask` lint rule `snapshot-io` pins this:
//! direct `File::create`/`fs::write` on snapshot paths is denied
//! elsewhere in the workspace.

use crate::{JsonError, Value};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// File magic, also the container format version ("…P1").
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"VODSNAP1";

/// Header bytes before the kind tag: magic + kind length.
const FIXED_PREFIX: usize = 8 + 1;
/// Header bytes after the kind tag: version + payload length + checksum.
const FIXED_SUFFIX: usize = 4 + 8 + 8;

/// Typed failure of a snapshot read or write. Every variant is a
/// recoverable condition; none of the decode paths can panic.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem error (file missing, permissions, rename failure).
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
    /// The file ends before the declared header + payload.
    Truncated { expected: usize, found: usize },
    /// The first bytes are not `VODSNAP1` — not a snapshot at all.
    BadMagic,
    /// The snapshot holds a different kind of state than requested.
    KindMismatch { expected: String, found: String },
    /// The payload was written by an incompatible format version.
    VersionMismatch { expected: u32, found: u32 },
    /// The payload checksum does not match: bytes were altered.
    ChecksumMismatch { expected: u64, found: u64 },
    /// Structurally invalid contents (bad UTF-8, trailing bytes, or an
    /// undecodable payload).
    Malformed { what: String },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, source } => {
                write!(f, "snapshot io error at {}: {source}", path.display())
            }
            SnapshotError::Truncated { expected, found } => {
                write!(f, "snapshot truncated: need {expected} bytes, have {found}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::KindMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot kind mismatch: expected {expected:?}, found {found:?}"
                )
            }
            SnapshotError::VersionMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot version mismatch: expected {expected}, found {found}"
                )
            }
            SnapshotError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot checksum mismatch: header says {expected:#018x}, payload hashes to {found:#018x}"
                )
            }
            SnapshotError::Malformed { what } => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// FNV-1a 64-bit hash — the payload checksum. Not cryptographic; it
/// guards against truncation and bit rot, not adversaries.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serialize a snapshot container around `payload`.
fn encode(kind: &str, version: u32, payload: &[u8]) -> Result<Vec<u8>, SnapshotError> {
    let Ok(kind_len) = u8::try_from(kind.len()) else {
        return Err(SnapshotError::Malformed {
            what: format!("kind tag too long ({} bytes, max 255)", kind.len()),
        });
    };
    let mut out = Vec::with_capacity(FIXED_PREFIX + kind.len() + FIXED_SUFFIX + payload.len());
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.push(kind_len);
    out.extend_from_slice(kind.as_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Decode a snapshot container, checking magic, kind, version and
/// checksum. Returns the payload bytes.
pub fn decode(bytes: &[u8], kind: &str, version: u32) -> Result<Vec<u8>, SnapshotError> {
    let need = |n: usize| -> Result<(), SnapshotError> {
        if bytes.len() < n {
            Err(SnapshotError::Truncated {
                expected: n,
                found: bytes.len(),
            })
        } else {
            Ok(())
        }
    };
    need(FIXED_PREFIX)?;
    if &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let kind_len = usize::from(bytes[8]);
    let kind_end = FIXED_PREFIX + kind_len;
    need(kind_end + FIXED_SUFFIX)?;
    let found_kind = match std::str::from_utf8(&bytes[FIXED_PREFIX..kind_end]) {
        Ok(s) => s,
        Err(_) => {
            return Err(SnapshotError::Malformed {
                what: "kind tag is not UTF-8".to_string(),
            })
        }
    };
    if found_kind != kind {
        return Err(SnapshotError::KindMismatch {
            expected: kind.to_string(),
            found: found_kind.to_string(),
        });
    }
    let le_u32 = |at: usize| -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&bytes[at..at + 4]);
        u32::from_le_bytes(b)
    };
    let le_u64 = |at: usize| -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[at..at + 8]);
        u64::from_le_bytes(b)
    };
    let found_version = le_u32(kind_end);
    if found_version != version {
        return Err(SnapshotError::VersionMismatch {
            expected: version,
            found: found_version,
        });
    }
    let payload_len = le_u64(kind_end + 4);
    let declared_sum = le_u64(kind_end + 12);
    let body = kind_end + FIXED_SUFFIX;
    let Some(payload_len) = usize::try_from(payload_len).ok().filter(|n| {
        // A length that overflows the file size is truncation (or a
        // corrupt length field — indistinguishable, same recovery).
        body.checked_add(*n).is_some()
    }) else {
        return Err(SnapshotError::Truncated {
            expected: usize::MAX,
            found: bytes.len(),
        });
    };
    need(body + payload_len)?;
    if bytes.len() > body + payload_len {
        return Err(SnapshotError::Malformed {
            what: format!(
                "{} trailing bytes after declared payload",
                bytes.len() - body - payload_len
            ),
        });
    }
    let payload = &bytes[body..];
    let actual = fnv1a64(payload);
    if actual != declared_sum {
        return Err(SnapshotError::ChecksumMismatch {
            expected: declared_sum,
            found: actual,
        });
    }
    Ok(payload.to_vec())
}

/// Sibling temp path for the atomic write: `<file>.tmp` in the same
/// directory (rename is only atomic within one filesystem).
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Serialises [`write_atomic`] within the process. Every writer of a
/// destination shares its one `<file>.tmp` sibling, so two threads
/// writing the same path at once could rename each other's half-written
/// temp file, or find it already renamed away. Cross-process writers
/// are not covered.
static WRITE_LOCK: Mutex<()> = Mutex::new(());

/// Write raw bytes atomically: temp file in the same directory, then
/// rename over the destination. On success a reader at any instant sees
/// either the old complete file or the new complete file, never a
/// partial write. On *any* failure — real or injected via
/// [`crate::faults`] — the temp file is removed best-effort, so a
/// failed write leaves the destination untouched and no stray `*.tmp`
/// behind. Concurrent writers in one process take turns on one lock;
/// the last one to finish wins.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    // A writer that panicked while holding the lock left no shared
    // state behind, only (at worst) a temp file the next write
    // overwrites, so a poisoned lock is safe to take over.
    let _turn = WRITE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let tmp = tmp_path(path);
    let result = write_atomic_inner(path, &tmp, bytes);
    if result.is_err() {
        // Best-effort: the partial temp file is garbage whether the
        // failure was a short write or a failed rename. Ignoring the
        // secondary error is deliberate — the primary one is reported.
        // (Removal deliberately bypasses the fault shim, which hooks
        // only reads and writes: an injected fault must never make its
        // own debris uncollectable.)
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn write_atomic_inner(path: &Path, tmp: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let io_err = |p: &Path, source: std::io::Error| SnapshotError::Io {
        path: p.to_path_buf(),
        source,
    };
    match crate::faults::on_write() {
        Some(crate::faults::IoFault::WriteEnospc) => {
            return Err(io_err(tmp, crate::faults::enospc()));
        }
        Some(crate::faults::IoFault::WritePartial { keep }) => {
            // Torn write: some bytes land in the temp file, then the
            // device runs out of space. The destination is untouched.
            // lint:allow(snapshot-io): the torn prefix IS the injected
            // damage — tearing it atomically would defeat the point.
            // lint:allow(io-fault-shim): fault-injection writes the torn
            // prefix directly; routing it through the shim would recurse.
            let _ = std::fs::write(tmp, &bytes[..keep.min(bytes.len())]);
            return Err(io_err(tmp, crate::faults::enospc()));
        }
        Some(crate::faults::IoFault::FsyncFail) => {
            // The payload is written in full but the durability barrier
            // fails, so the rename is never attempted.
            // lint:allow(snapshot-io): see WritePartial above.
            // lint:allow(io-fault-shim): see WritePartial above.
            std::fs::write(tmp, bytes).map_err(|e| io_err(tmp, e))?;
            return Err(io_err(tmp, crate::faults::eio()));
        }
        Some(crate::faults::IoFault::ReadEio) | None => {}
    }
    // lint:allow(snapshot-io): this IS the atomic write helper every
    // other snapshot/results writer is required to route through.
    // lint:allow(io-fault-shim): and the shim hook above is its fault
    // schedule, so the raw calls here are the single sanctioned pair.
    std::fs::write(tmp, bytes).map_err(|e| io_err(tmp, e))?;
    std::fs::rename(tmp, path).map_err(|e| io_err(path, e))
}

/// Write a checksummed snapshot atomically.
pub fn write_snapshot_atomic(
    path: &Path,
    kind: &str,
    version: u32,
    payload: &[u8],
) -> Result<(), SnapshotError> {
    write_atomic(path, &encode(kind, version, payload)?)
}

/// Inspect a snapshot *header* without validating the payload: the
/// `(kind, version)` pair the file claims to hold. Recovery paths use
/// this to diagnose what a stray state file is — e.g. a checkpoint
/// left by a different pipeline generation — before deciding how to
/// treat it. The payload may still be truncated or corrupt; only a
/// full [`read_snapshot`] vouches for the bytes. Never panics.
pub fn peek_kind(path: &Path) -> Result<(String, u32), SnapshotError> {
    let bytes = read_all(path)?;
    if bytes.len() < FIXED_PREFIX {
        return Err(SnapshotError::Truncated {
            expected: FIXED_PREFIX,
            found: bytes.len(),
        });
    }
    if &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let kind_end = FIXED_PREFIX + usize::from(bytes[8]);
    if bytes.len() < kind_end + 4 {
        return Err(SnapshotError::Truncated {
            expected: kind_end + 4,
            found: bytes.len(),
        });
    }
    let kind = match std::str::from_utf8(&bytes[FIXED_PREFIX..kind_end]) {
        Ok(s) => s.to_string(),
        Err(_) => {
            return Err(SnapshotError::Malformed {
                what: "kind tag is not UTF-8".to_string(),
            })
        }
    };
    let mut v = [0u8; 4];
    v.copy_from_slice(&bytes[kind_end..kind_end + 4]);
    Ok((kind, u32::from_le_bytes(v)))
}

/// Snapshot read with the fault schedule consulted first: an injected
/// `EIO` surfaces exactly like an unreadable sector would.
fn read_all(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    let io_err = |source: std::io::Error| SnapshotError::Io {
        path: path.to_path_buf(),
        source,
    };
    if let Some(e) = crate::faults::on_read() {
        return Err(io_err(e));
    }
    // lint:allow(io-fault-shim): the shim hook above IS this read's
    // fault schedule; every snapshot reader funnels through here.
    std::fs::read(path).map_err(io_err)
}

/// Read and verify a snapshot, returning the payload bytes.
pub fn read_snapshot(path: &Path, kind: &str, version: u32) -> Result<Vec<u8>, SnapshotError> {
    let bytes = read_all(path)?;
    decode(&bytes, kind, version)
}

/// Write a [`Value`] payload as a checksummed snapshot.
pub fn write_json_snapshot(
    path: &Path,
    kind: &str,
    version: u32,
    value: &Value,
) -> Result<(), SnapshotError> {
    write_snapshot_atomic(path, kind, version, value.to_string_pretty().as_bytes())
}

/// Read a snapshot whose payload is a JSON document.
pub fn read_json_snapshot(path: &Path, kind: &str, version: u32) -> Result<Value, SnapshotError> {
    let payload = read_snapshot(path, kind, version)?;
    let text = String::from_utf8(payload).map_err(|_| SnapshotError::Malformed {
        what: "payload is not UTF-8".to_string(),
    })?;
    Value::parse(&text).map_err(|e: JsonError| SnapshotError::Malformed {
        what: format!("payload is not valid JSON: {e}"),
    })
}

// ---------------------------------------------------------------------------
// Bit-exact numeric encoding.
//
// JSON `Value` carries every number as `f64` and prints non-finite
// values as `null`, so neither `u64` counters above 2^53 nor exact
// float bit patterns survive a plain `Num` round trip. Checkpoints —
// whose whole point is byte-identical resume — therefore encode f64s
// and u64s as fixed-width hex strings of their bit patterns.
// ---------------------------------------------------------------------------

/// Encode an `f64` losslessly as its IEEE-754 bit pattern in hex.
#[must_use]
pub fn f64_bits_value(x: f64) -> Value {
    Value::Str(format!("{:016x}", x.to_bits()))
}

/// Encode a `u64` losslessly as hex.
#[must_use]
pub fn u64_bits_value(x: u64) -> Value {
    Value::Str(format!("{x:016x}"))
}

fn hex_u64(v: &Value, what: &str) -> Result<u64, SnapshotError> {
    let malformed = || SnapshotError::Malformed {
        what: format!("{what}: expected a 16-digit hex string"),
    };
    let s = v.as_str().ok_or_else(malformed)?;
    if s.len() != 16 {
        return Err(malformed());
    }
    u64::from_str_radix(s, 16).map_err(|_| malformed())
}

/// Decode an [`f64_bits_value`]-encoded float.
pub fn f64_from_bits_value(v: &Value, what: &str) -> Result<f64, SnapshotError> {
    hex_u64(v, what).map(f64::from_bits)
}

/// Decode a [`u64_bits_value`]-encoded integer.
pub fn u64_from_bits_value(v: &Value, what: &str) -> Result<u64, SnapshotError> {
    hex_u64(v, what)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vod-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip() {
        let path = tmp_dir().join("rt.snap");
        write_snapshot_atomic(&path, "test-kind", 3, b"hello payload").unwrap();
        let back = read_snapshot(&path, "test-kind", 3).unwrap();
        assert_eq!(back, b"hello payload");
        // No temp file left behind.
        assert!(!tmp_path(&path).exists());
    }

    #[test]
    fn empty_payload_round_trips() {
        let path = tmp_dir().join("empty.snap");
        write_snapshot_atomic(&path, "k", 1, b"").unwrap();
        assert_eq!(read_snapshot(&path, "k", 1).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn truncation_is_typed() {
        let full = encode("k", 1, b"some payload bytes").unwrap();
        for cut in 0..full.len() {
            let err = decode(&full[..cut], "k", 1).expect_err("truncated must fail");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. }
                        | SnapshotError::BadMagic
                        | SnapshotError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected {err}"
            );
        }
    }

    #[test]
    fn corruption_is_typed() {
        let mut bytes = encode("k", 1, b"payload under test").unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip a payload bit
        let err = decode(&bytes, "k", 1).expect_err("corrupt payload must fail");
        assert!(
            matches!(err, SnapshotError::ChecksumMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn kind_and_version_mismatches() {
        let bytes = encode("alpha", 2, b"x").unwrap();
        assert!(matches!(
            decode(&bytes, "beta", 2),
            Err(SnapshotError::KindMismatch { .. })
        ));
        assert!(matches!(
            decode(&bytes, "alpha", 3),
            Err(SnapshotError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_malformed() {
        let mut bytes = encode("k", 1, b"p").unwrap();
        bytes.push(0);
        assert!(matches!(
            decode(&bytes, "k", 1),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn missing_file_is_io() {
        let err = read_snapshot(Path::new("/nonexistent/definitely/not.snap"), "k", 1)
            .expect_err("missing file");
        assert!(matches!(err, SnapshotError::Io { .. }));
    }

    #[test]
    fn json_payload_round_trips() {
        let path = tmp_dir().join("doc.snap");
        let doc = Value::Obj(vec![
            ("a".to_string(), f64_bits_value(std::f64::consts::PI)),
            ("b".to_string(), u64_bits_value(u64::MAX - 1)),
        ]);
        write_json_snapshot(&path, "doc", 1, &doc).unwrap();
        let back = read_json_snapshot(&path, "doc", 1).unwrap();
        let a = f64_from_bits_value(back.get("a").unwrap(), "a").unwrap();
        let b = u64_from_bits_value(back.get("b").unwrap(), "b").unwrap();
        assert_eq!(a.to_bits(), std::f64::consts::PI.to_bits());
        assert_eq!(b, u64::MAX - 1);
    }

    #[test]
    fn bit_exact_float_encoding_covers_specials() {
        for x in [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-308,
        ] {
            let v = f64_bits_value(x);
            let back = f64_from_bits_value(&v, "x").unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn bad_hex_is_malformed() {
        for v in [
            Value::Str("zz".to_string()),
            Value::Str("0123".to_string()),
            Value::Num(1.0),
            Value::Null,
        ] {
            assert!(f64_from_bits_value(&v, "x").is_err());
            assert!(u64_from_bits_value(&v, "x").is_err());
        }
    }

    #[test]
    fn peek_reads_header_without_payload_validation() {
        let path = tmp_dir().join("peek.snap");
        write_snapshot_atomic(&path, "peek-kind", 7, b"payload").unwrap();
        assert_eq!(peek_kind(&path).unwrap(), ("peek-kind".to_string(), 7));
        // Corrupt the payload: a full read fails, the peek still
        // answers (that is its point — diagnosing damaged files).
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        write_atomic(&path, &bytes).unwrap();
        assert!(read_snapshot(&path, "peek-kind", 7).is_err());
        assert_eq!(peek_kind(&path).unwrap(), ("peek-kind".to_string(), 7));
    }

    #[test]
    fn peek_failures_are_typed() {
        let dir = tmp_dir();
        let missing = dir.join("nope.snap");
        assert!(matches!(peek_kind(&missing), Err(SnapshotError::Io { .. })));
        let garbage = dir.join("garbage.snap");
        write_atomic(&garbage, b"NOTSNAP!xxxx").unwrap();
        assert!(matches!(peek_kind(&garbage), Err(SnapshotError::BadMagic)));
        let full = encode("k", 1, b"x").unwrap();
        for cut in [0usize, 4, FIXED_PREFIX] {
            let short = dir.join(format!("short{cut}.snap"));
            write_atomic(&short, &full[..cut]).unwrap();
            assert!(matches!(
                peek_kind(&short),
                Err(SnapshotError::Truncated { .. } | SnapshotError::BadMagic)
            ));
        }
    }

    #[test]
    fn fnv_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
