//! Fuzzed-input hardening for the snapshot container and the JSON
//! parser: arbitrary byte mutations, truncations, and garbage must
//! come back as typed errors — never a panic, never a silently-wrong
//! payload.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use vod_json::snapshot::{self, Durable, SnapshotError};
use vod_json::Value;

/// Encode a snapshot via the public file API (temp file round trip).
/// Every call writes its own file, so proptests running in parallel
/// never read back each other's payloads.
fn valid_snapshot(kind: &str, version: u32, payload: &[u8]) -> Vec<u8> {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("vod-snap-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("{kind}-{version}-{call}.snap"));
    snapshot::write_snapshot_atomic(&path, kind, version, payload).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mutated_snapshots_yield_typed_errors(
        payload in prop::collection::vec(0u8..=255, 0..200),
        mutations in prop::collection::vec((0usize..4096, 1u8..=255), 1..4),
    ) {
        let mut bytes = valid_snapshot("prop-kind", 7, &payload);
        for &(pos, x) in &mutations {
            let at = pos % bytes.len();
            bytes[at] ^= x;
        }
        // Two mutations may cancel each other out; in every other case
        // the decode must fail with a typed error. What it must never
        // do is panic or hand back altered bytes as if they were good.
        match snapshot::decode(&bytes, "prop-kind", 7) {
            Ok(back) => prop_assert_eq!(back, payload, "corrupt decode must not succeed"),
            Err(
                SnapshotError::Truncated { .. }
                | SnapshotError::BadMagic
                | SnapshotError::KindMismatch { .. }
                | SnapshotError::VersionMismatch { .. }
                | SnapshotError::ChecksumMismatch { .. }
                | SnapshotError::Malformed { .. },
            ) => {}
            Err(SnapshotError::Io { .. }) => {
                prop_assert!(false, "in-memory decode cannot produce Io");
            }
        }
    }

    #[test]
    fn truncated_snapshots_yield_typed_errors(
        payload in prop::collection::vec(0u8..=255, 0..200),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = valid_snapshot("prop-kind", 7, &payload);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assert!(snapshot::decode(&bytes[..cut.min(bytes.len() - 1)], "prop-kind", 7).is_err());
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(
        bytes in prop::collection::vec(0u8..=255, 0..300),
    ) {
        // Any outcome is fine except a panic; random bytes essentially
        // never carry the magic + a matching checksum.
        let _ = snapshot::decode(&bytes, "any-kind", 1);
    }

    #[test]
    fn random_bytes_never_panic_the_json_parser(
        bytes in prop::collection::vec(0u8..=255, 0..300),
    ) {
        if let Ok(text) = std::str::from_utf8(&bytes) {
            let _ = Value::parse(text);
        }
    }

    #[test]
    fn mutated_json_documents_yield_typed_errors(
        n in 0u64..1000,
        mutations in prop::collection::vec((0usize..4096, 1u8..=255), 1..3),
    ) {
        let doc = Value::Obj(vec![
            ("n".to_string(), n.encode()),
            ("x".to_string(), (n as f64 / 7.0).encode()),
        ]);
        let mut bytes = doc.to_string_pretty().into_bytes();
        for &(pos, x) in &mutations {
            let at = pos % bytes.len();
            bytes[at] ^= x;
        }
        // Mutated JSON either fails to parse (typed JsonError) or
        // parses to some value; decoding the hex fields then either
        // fails typed or round-trips. No path may panic.
        if let Ok(text) = std::str::from_utf8(&bytes) {
            if let Ok(v) = Value::parse(text) {
                let _ = snapshot::field::<u64>(&v, "n");
                let _ = snapshot::field::<f64>(&v, "x");
            }
        }
    }
}
