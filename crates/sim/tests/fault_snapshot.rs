//! Property tests for the `FaultSchedule` snapshot codec: a clean
//! round trip is identity, and no mutation of the serialized bytes —
//! JSON text or snapshot container — can ever make decoding panic.
//! The service loop feeds persisted schedules straight into cycles,
//! so a bit-rotted file must surface as a typed error it can degrade
//! through, never a crash.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
use proptest::prelude::*;
use vod_json::snapshot::Durable;
use vod_json::Value;
use vod_model::{LinkId, SimTime, VhoId};
use vod_sim::{read_schedule, write_schedule, FaultEvent, FaultKind, FaultSchedule};

const N_VHOS: u16 = 5;
const N_LINKS: u32 = 9;

/// Deterministic schedule from proptest-drawn integers (no RNG, so
/// failures shrink cleanly) — mirrors `fault_props::schedule_from`
/// minus the network.
fn schedule_of(picks: &[(u8, u32, u32, u8)], admission: bool) -> FaultSchedule {
    let events = picks
        .iter()
        .map(|&(kind, start, len, which)| {
            let start = u64::from(start);
            let end = start + 1 + u64::from(len);
            let kind = match kind % 4 {
                0 => FaultKind::VhoOutage {
                    vho: VhoId::new(u16::from(which) % N_VHOS),
                },
                1 => FaultKind::LinkDegrade {
                    link: LinkId::new(u32::from(which) % N_LINKS),
                    capacity_scale: f64::from(which) / 7.0,
                },
                2 => FaultKind::FlashCrowd {
                    vho: None,
                    multiplier: 1 + u32::from(which),
                },
                _ => FaultKind::FlashCrowd {
                    vho: Some(VhoId::new(u16::from(which) % N_VHOS)),
                    multiplier: 1 + u32::from(which % 7),
                },
            };
            FaultEvent {
                start: SimTime::new(start),
                end: SimTime::new(end),
                kind,
            }
        })
        .collect();
    FaultSchedule { events, admission }
}

proptest! {
    /// serialize → parse → deserialize is the identity map.
    #[test]
    fn clean_round_trip_is_identity(
        picks in prop::collection::vec((0u8..=255, 0u32..=u32::MAX, 0u32..=u32::MAX, 0u8..=255), 0..12),
        admission in any::<bool>(),
    ) {
        let schedule = schedule_of(&picks, admission);
        let text = schedule.encode().to_string_pretty();
        let back = FaultSchedule::decode(&Value::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(back, schedule);
    }

    /// Flipping any single bit of the serialized JSON text must never
    /// panic the decoder: either the text no longer parses, or the
    /// codec returns (a possibly different schedule, or a typed
    /// error). Silent mutation surviving decode is fine — integrity is
    /// the *container checksum's* job, not the codec's.
    #[test]
    fn mutated_json_never_panics(
        picks in prop::collection::vec((0u8..=255, 0u32..=u32::MAX, 0u32..=u32::MAX, 0u8..=255), 1..8),
        admission in any::<bool>(),
        at in any::<u64>(),
        bit in 0u8..8,
    ) {
        let schedule = schedule_of(&picks, admission);
        let mut bytes = schedule.encode().to_string_pretty().into_bytes();
        let i = (at % bytes.len() as u64) as usize;
        bytes[i] ^= 1 << bit;
        if let Ok(text) = String::from_utf8(bytes) {
            if let Ok(doc) = Value::parse(&text) {
                let _ = FaultSchedule::decode(&doc);
            }
        }
    }
}

fn drill_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vod-fault-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Container-level: every single-byte corruption of the snapshot file
/// is a typed result, and truncation at every prefix length too.
#[test]
fn every_byte_corruption_of_the_container_is_typed() {
    let schedule = schedule_of(&[(0, 10, 5, 3), (1, 100, 50, 4), (3, 7, 2, 9)], true);
    let path = drill_dir().join("sched.snap");
    write_schedule(&path, &schedule).unwrap();
    assert_eq!(read_schedule(&path).unwrap(), schedule);
    let clean = std::fs::read(&path).unwrap();
    for offset in 0..clean.len() {
        let mut bytes = clean.clone();
        bytes[offset] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        // A flip in pretty-printer whitespace etc. still trips the
        // checksum; any decode layer may reject — none may panic.
        let _ = read_schedule(&path);
        let mut cut = clean.clone();
        cut.truncate(offset);
        std::fs::write(&path, &cut).unwrap();
        assert!(read_schedule(&path).is_err(), "truncation at {offset}");
    }
    std::fs::write(&path, &clean).unwrap();
    assert_eq!(read_schedule(&path).unwrap(), schedule);
}

#[test]
fn empty_schedule_round_trips() {
    let s = FaultSchedule::empty();
    let doc = Value::parse(&s.encode().to_string_pretty()).unwrap();
    assert_eq!(FaultSchedule::decode(&doc).unwrap(), s);
}

#[test]
fn shape_errors_are_typed() {
    for text in [
        "null",
        "{}",
        "{\"admission\": true}",
        "{\"admission\": 3, \"events\": []}",
        "{\"admission\": true, \"events\": [{}]}",
        "{\"admission\": true, \"events\": [{\"start\": \"00\", \"end\": \"00\", \"kind\": \"vho-outage\"}]}",
        "{\"admission\": true, \"events\": [{\"start\": \"0000000000000000\", \"end\": \"0000000000000001\", \"kind\": \"nope\"}]}",
    ] {
        let doc = Value::parse(text).unwrap();
        assert!(FaultSchedule::decode(&doc).is_err(), "{text}");
    }
}
