//! Durable JSON codec for [`FaultSchedule`] — the service loop's
//! per-cycle fault feed.
//!
//! The supervised placement service persists the fault schedule it is
//! about to inject (and the chaos drills persist whole matrices of
//! them), so schedules need the same crash-safe container treatment as
//! solver checkpoints: a clean round trip is *identity* (pinned by
//! proptest in `tests/fault_snapshot.rs`), and decoding arbitrarily
//! corrupted bytes is a typed error, never a panic — a torn or
//! bit-rotted schedule must degrade into "run without faults", not
//! take the service down.
//!
//! The encoding is [`Durable`]'s by-type convention: times and
//! `capacity_scale` as hex bit patterns, ids as range-checked numbers,
//! so the decoded schedule drives the simulator through byte-identical
//! trajectories.

use crate::faults::{FaultEvent, FaultKind, FaultSchedule};
use std::path::Path;
use vod_json::snapshot::{
    field, read_durable, write_durable, As, DecodeError, Durable, Opt, SnapshotError,
};
use vod_json::{durable_enum, durable_struct, Value};
use vod_model::SimTime;

/// Snapshot container tag for persisted fault schedules.
pub const FAULTS_KIND: &str = "fault-schedule";
pub const FAULTS_VERSION: u32 = 1;

durable_struct!(FaultSchedule { admission, events });

durable_enum!(FaultKind {
    "vho-outage" => VhoOutage { vho via As<u16> },
    "link-degrade" => LinkDegrade { link via As<u32>, capacity_scale },
    "flash-crowd" => FlashCrowd { vho via Opt<As<u16>>, multiplier },
});

/// An event is one flat object: its window (`SimTime` seconds as `u64`
/// bits), then its kind's tagged fields (`start`, `end`, `kind`, ...).
impl Durable for FaultEvent {
    fn encode(&self) -> Value {
        let mut fields = vec![
            ("start".to_string(), self.start.0.encode()),
            ("end".to_string(), self.end.0.encode()),
        ];
        if let Value::Obj(kind) = self.kind.encode() {
            fields.extend(kind);
        }
        Value::Obj(fields)
    }

    fn decode(v: &Value) -> Result<Self, DecodeError> {
        Ok(Self {
            start: SimTime(field(v, "start")?),
            end: SimTime(field(v, "end")?),
            kind: FaultKind::decode(v)?,
        })
    }
}

/// Persist a schedule as a checksummed snapshot (atomic write).
pub fn write_schedule(path: &Path, s: &FaultSchedule) -> Result<(), SnapshotError> {
    write_durable(path, FAULTS_KIND, FAULTS_VERSION, s)
}

/// Load a schedule persisted by [`write_schedule`]. Corruption at any
/// layer — container, JSON, codec — is a typed [`SnapshotError`]. Range
/// validity against a concrete world is *not* checked here — run
/// [`FaultSchedule::validate`] before injecting.
pub fn read_schedule(path: &Path) -> Result<FaultSchedule, SnapshotError> {
    read_durable(path, FAULTS_KIND, FAULTS_VERSION)
}
