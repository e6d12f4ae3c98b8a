//! `vod-ops` — the supervised placement service.
//!
//! The paper's placement is not solved once: operationally it is
//! re-solved on a schedule as demand shifts (Section VII-H, Table VI).
//! This crate runs that schedule as one crash-safe loop, [`Service`]:
//!
//! - each cycle runs **estimate → solve → round → validate →
//!   simulate**, with the durable [`ServiceState`] written atomically
//!   (checksummed `vod-json` snapshots) after every stage transition,
//! - the solve stage emits resumable solver checkpoints, so a process
//!   killed mid-solve continues from the last surviving checkpoint and
//!   produces the bitwise-identical placement,
//! - demand streams from the live trace window, each cycle re-solves
//!   warm under an optional per-cycle pass budget, and deploys go out
//!   as migration-cost-aware diffs under an optional churn cap (excess
//!   moves become typed [`DeferredMigration`]s),
//! - every stage has a bounded retry budget with *recorded* (never
//!   slept) deterministic backoff; a cycle that exhausts it, fails
//!   validation or stalls degrades with a typed [`DegradeReason`] —
//!   warm-resume → cold re-solve → last-good → stale-serve with denial
//!   accounting — instead of ever aborting.
//!
//! A one-shot schedule is a `Service` with `churn_cap: None`,
//! `cycle_step_budget: None` and `watchdog_budget: u64::MAX`. The
//! service never reads a clock: interrupted and uninterrupted runs are
//! bit-for-bit comparable, which is what the `drill` bench harness
//! asserts over its one-shot, chaos and reconfiguration scenarios.

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::float_cmp,
        clippy::cast_possible_truncation
    )
)]

pub mod diff;
pub mod service;
pub mod state;
pub mod supervise;

pub use diff::{apply_churn_cap, ChurnPlan, DeferredMigration};
pub use service::{
    OpsConfig, OpsWorld, Service, ServiceConfig, ServicePlan, ServiceRecord, ServiceState,
    StepOutcome, SERVICE_KIND, SERVICE_VERSION,
};
pub use state::{DegradeReason, OpsError, SimSummary, StageId, FRACTIONAL_KIND};
pub use supervise::{deployment_sleep, recorded_backoff, RecoveryAction, Watchdog};
// Re-exported so service callers can build [`ServiceConfig::cycle_deltas`]
// without importing vod-net directly.
pub use vod_net::{DeltaOp, WorldDelta};
