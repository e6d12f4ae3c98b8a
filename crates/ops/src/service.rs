//! The supervised placement service — the one loop that runs the
//! paper's re-solve schedule (§VI: demand re-estimated and the
//! placement re-solved on an update cadence; §VII-H, Table VI).
//!
//! `Service` is a deterministic multi-cycle loop that
//!
//! 1. feeds a streaming demand estimator from the live trace window
//!    ([`vod_estimate::StreamingWindow`] — amortized O(1) per cycle),
//! 2. incrementally re-solves each cycle via the warm-start ladder
//!    ([`vod_core::solve_cycle_fractional`]) under a per-cycle
//!    deterministic pass budget ([`EpfConfig::budgeted`]),
//! 3. deploys migration-cost-aware diffs under a churn cap
//!    ([`crate::diff::apply_churn_cap`]) — excess copies become typed
//!    [`DeferredMigration`]s that drain oldest-first in later cycles,
//! 4. runs under a supervision layer: per-stage retry budgets with
//!    recorded (never-slept) seeded backoff, a deterministic
//!    [`Watchdog`] that degrades stalled cycles, and a
//!    graceful-degradation ladder — warm-resume → cold re-solve →
//!    last-good placement → stale-serve with denial accounting. A
//!    cycle can *degrade*; the service never aborts.
//!
//! A one-shot schedule is the same loop with the service knobs opened
//! up: `churn_cap: None`, `cycle_step_budget: None` and
//! `watchdog_budget: u64::MAX` solve every cycle to the solver's own
//! limits and deploy each validated target in full.
//!
//! Determinism contract (pinned by the `drill` bench): the service
//! never reads a clock and never sleeps; every cycle's deployed
//! placement is a pure function of (world, config, seed, cycle). An
//! interrupted run — killed at any stage boundary, killed mid-solve,
//! state file torn at any byte, checkpoint swapped for a foreign one —
//! re-converges to deployed placements byte-identical to the
//! uninterrupted twin's.

use std::path::PathBuf;
use vod_core::checkpoint::{
    fractional_from_value, fractional_to_value, CHECKPOINT_KIND, CHECKPOINT_VERSION,
};
use vod_core::rounding::round_solution;
use vod_core::{
    remap_checkpoint, repair_placement, solve_cycle_fractional, CheckpointSpec, DiskConfig,
    EpfConfig, MipInstance, Placement, PlacementCost, ResumeKind, SolverCheckpoint,
};
use vod_estimate::{estimate_demand, EstimateConfig, EstimatorKind, StreamingWindow};
use vod_json::snapshot::{
    f64_bits_value, f64_from_bits_value, fnv1a64, read_json_snapshot, read_snapshot,
    u64_bits_value, u64_from_bits_value, write_json_snapshot, write_snapshot_atomic, SnapshotError,
};
use vod_json::Value;
use vod_model::rng::derive_seed;
use vod_model::time::DAY;
use vod_model::{
    Catalog, Gigabytes, SimTime, TimeWindow, VhoId, Video, VideoClass, VideoId, VideoKind,
};
use vod_net::{DeltaOp, Network, PathSet, WorldDelta};
use vod_sim::{mip_vho_configs, simulate, CacheKind, FaultSchedule, PolicyKind, SimConfig};
use vod_trace::Trace;

use crate::diff::{apply_churn_cap, DeferredMigration};
use crate::state::{
    placement_fingerprint, reason_from_value, reason_to_value, sim_from_value, sim_to_value,
    DegradeReason, OpsError, SimSummary, StageId, FRACTIONAL_KIND, FRACTIONAL_VERSION,
};
use crate::supervise::{recorded_backoff, RecoveryAction, Watchdog};

/// The world the service re-optimizes against: topology (with link
/// capacities already set), routing, library, the full request trace,
/// and the physical disk inventory. The service clones it and evolves
/// its copy through [`vod_net::WorldDelta`]s between cycles.
#[derive(Debug, Clone)]
pub struct OpsWorld {
    pub net: Network,
    pub paths: PathSet,
    pub catalog: Catalog,
    pub trace: Trace,
    /// Physical per-VHO disks handed to the simulator.
    pub disks: Vec<Gigabytes>,
    /// Disk budget the MIP solves against (typically the physical disk
    /// minus the complementary-cache share).
    pub mip_disk: DiskConfig,
    pub est: EstimateConfig,
}

/// Schedule, solver, retry and state-dir parameters.
#[derive(Debug, Clone)]
pub struct OpsConfig {
    /// Re-optimization cycles to run (clamped to the trace horizon).
    pub cycles: usize,
    /// Days covered by each cycle's placement (Table VI's schedule).
    pub period_days: u64,
    /// First day a placement takes effect; must be ≥ 7 so a full week
    /// of history exists for the estimator.
    pub start_day: u64,
    pub estimator: EstimatorKind,
    /// Solver configuration. `epf.seed` doubles as the service master
    /// seed; prefer `step_limit` over `wall_limit` here — a wall clock
    /// budget breaks the bitwise resume-identity guarantee.
    pub epf: EpfConfig,
    /// Attempts per stage before the cycle degrades to last-good.
    pub max_attempts: u32,
    /// Solver checkpoint cadence in global passes (0 = no mid-solve
    /// checkpoints; crash recovery then restarts the solve stage).
    pub checkpoint_every: u64,
    /// Base of the recorded exponential retry backoff.
    pub backoff_base_ms: u64,
    /// Relative disk overrun tolerated by the validate stage.
    pub validate_tol: f64,
    /// Replay each cycle's period through the simulator.
    pub simulate: bool,
    /// Directory holding `service.state`, `solver.ckpt` and
    /// `fractional.snap`.
    pub state_dir: PathBuf,
}

/// What one [`Service::step`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// The current stage completed and the service advanced.
    StageDone { cycle: usize, stage: StageId },
    /// The stage failed; the retry was scheduled with this much
    /// recorded backoff.
    AttemptFailed {
        cycle: usize,
        stage: StageId,
        attempt: u32,
        backoff_ms: u64,
    },
    /// A persisted inter-stage artifact was missing, corrupt or stale;
    /// the service stepped back to the stage that regenerates it.
    Retreated { cycle: usize, stage: StageId },
    /// The cycle exhausted a stage's retries (or failed validation, or
    /// stalled) and fell back to the last-good placement, or to
    /// stale-serve when nothing was ever deployed.
    CycleDegraded { cycle: usize },
    /// A [`ServicePlan`] kill fired, at a stage boundary or mid-solve.
    /// The durable state is that of a killed process; stepping again
    /// (or constructing a fresh service over the same state dir)
    /// resumes from the last surviving checkpoint.
    SimulatedCrash { cycle: usize },
    /// A scheduled [`vod_net::WorldDelta`] was applied: the world
    /// mutated, the deployed placement was repaired under the churn
    /// cap, and the delta counter advanced — one durable transition.
    /// `index` is the delta's position in the schedule.
    DeltaApplied { cycle: usize, index: usize },
    /// All cycles are closed.
    Finished,
}

/// Snapshot-container kind tag for the service state file.
pub const SERVICE_KIND: &str = "ops-service";
/// Service state payload version. v2 added live-reconfiguration state
/// (applied-delta counter, repair/rejection ledgers, snapshot-failure
/// accounting); v1 files cold-restart via the version gate.
pub const SERVICE_VERSION: u32 = 2;

/// MIP disk budget assigned to a storage-dark (decommissioned) VHO.
/// Must stay positive ([`MipInstance`] rejects zero capacities) but
/// below the smallest video size, so the solver can never place a
/// copy there while the node keeps existing on every axis.
const DARK_DISK_GB: f64 = 1e-6;

/// Cycle seed salt: every cycle's solver seed is
/// `derive_seed(epf.seed, SERVICE_CYCLE_SALT ^ cycle)`, so a checkpoint
/// written in one cycle can never validate against another's. Part of
/// the fingerprint contract: changing it moves every drill placement.
const SERVICE_CYCLE_SALT: u64 = 0x5EBF;

/// Service parameters: the schedule plus the service knobs (churn cap,
/// per-cycle budget, watchdog, fault feed, world deltas).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Schedule, solver, retry and state-dir parameters (the service
    /// stores its own `service.state` next to the solver artifacts).
    pub ops: OpsConfig,
    /// Copies the service may move per cycle; `None` = unbounded.
    pub churn_cap: Option<usize>,
    /// Deterministic per-cycle solver budget in global passes, applied
    /// on top of `ops.epf` via [`EpfConfig::budgeted`]. `None` = the
    /// solver config as-is.
    pub cycle_step_budget: Option<u64>,
    /// Supervision ticks one cycle may burn before the watchdog
    /// degrades it ([`Watchdog`]).
    pub watchdog_budget: u64,
    /// Fault schedules injected into specific cycles' replay stage
    /// (validated against the world up front).
    pub cycle_faults: Vec<(usize, FaultSchedule)>,
    /// World deltas applied between cycles, sorted by cycle
    /// (non-decreasing; several per cycle are applied in order). Each
    /// is validated against the initial topology up front, applied as
    /// its own durable transition at the start of its cycle, and the
    /// deployed placement is repaired under the churn cap
    /// ([`vod_core::repair`]).
    pub cycle_deltas: Vec<WorldDelta>,
}

/// Deterministic chaos injection for drills: forced stage failures,
/// process kills at stage boundaries, and mid-solve kills.
#[derive(Debug, Clone, Default)]
pub struct ServicePlan {
    /// `(cycle, stage, attempt)` triples that fail with an injected
    /// error instead of running.
    pub fail: Vec<(usize, StageId, u32)>,
    /// `(cycle, stage)` pairs: the "process" dies immediately before
    /// executing that stage — nothing is run or persisted. Fires once
    /// per pair per `Service` value; stepping again (or rebuilding the
    /// service over the same state dir) models the restart.
    pub kill_at_stage: Vec<(usize, StageId)>,
    /// `(cycle, keep_checkpoints)`: during that cycle's solve, stop
    /// persisting after `keep_checkpoints` checkpoint emissions and
    /// report a [`StepOutcome::SimulatedCrash`]: the durable state is
    /// then exactly what a process killed at that instant leaves
    /// behind. Fires at most once per cycle per `Service` value.
    pub kill_mid_solve: Vec<(usize, u64)>,
}

/// One closed service cycle: the ledger row `BENCH_drill.json`
/// aggregates.
#[derive(Debug, Clone)]
pub struct ServiceRecord {
    pub cycle: usize,
    /// `None` = a fresh placement was deployed this cycle.
    pub degraded: Option<DegradeReason>,
    /// Degradation-ladder rungs recorded during the cycle, in order.
    pub recoveries: Vec<RecoveryAction>,
    pub attempts: u32,
    /// Recorded (never slept) retry backoff.
    pub backoff_ms: u64,
    pub solver_resumes: u32,
    /// Fingerprint of the placement *serving* at cycle close (the
    /// post-churn-cap deployment) — the chaos drill's identity anchor.
    pub placement_fnv: u64,
    /// Rounded objective of the cycle's full target (pre-churn-cap).
    pub objective: Option<f64>,
    /// Certified fractional lower bound (per-cycle optimality gap =
    /// `objective / lower_bound - 1`).
    pub lower_bound: Option<f64>,
    /// Copies actually moved this cycle (`<= churn_cap` always).
    pub moved: usize,
    /// Deferred-migration queue length after this cycle.
    pub deferred: usize,
    /// Requests denied during the window (stale-served demand counts
    /// in full).
    pub denied: u64,
    pub denial_rate: Option<f64>,
    /// True when the window was served with *no* deployment at all.
    pub stale: bool,
    pub sim: Option<SimSummary>,
    /// Fingerprints of the feasibility-repair plans executed this cycle
    /// (one per applied world delta that required repair) — the
    /// reconfig drill's identity anchor for repair behaviour.
    pub repairs: Vec<u64>,
    /// Typed solver-checkpoint rejections surfaced this cycle, each
    /// prefixed `remap-eligible:` or `foreign:`.
    pub rejections: Vec<String>,
}

/// Complete durable service state (persisted after every transition).
#[derive(Debug, Clone)]
pub struct ServiceState {
    pub seed: u64,
    pub cycle: usize,
    pub stage: StageId,
    pub attempts_done: u32,
    pub cycle_attempts: u32,
    pub cycle_backoff_ms: u64,
    pub cycle_solver_resumes: u32,
    pub cycle_recoveries: Vec<RecoveryAction>,
    /// The placement currently serving, and the cycle that deployed it.
    pub deployed: Option<(usize, Placement)>,
    /// The current cycle's rounded full-target placement.
    pub target: Option<Placement>,
    pub target_objective: Option<f64>,
    pub target_lower_bound: Option<f64>,
    pub pending_moved: usize,
    pub pending_sim: Option<SimSummary>,
    pub pending_denied: u64,
    pub pending_denial: Option<f64>,
    /// Migrations postponed by the churn cap, oldest first.
    pub deferred: Vec<DeferredMigration>,
    pub records: Vec<ServiceRecord>,
    pub resumes: u64,
    pub cold_restarts: u64,
    pub stale_serves: u64,
    /// Prefix of [`ServiceConfig::cycle_deltas`] already applied. The
    /// counter is durable and advances atomically with the delta's
    /// world mutation + repair, so a crash can never re-apply (or
    /// skip) a delta; construction replays this prefix to rebuild the
    /// evolved world.
    pub deltas_applied: usize,
    /// Lifetime count of failed snapshot writes (the service keeps
    /// serving from memory and retries; see
    /// [`DegradeReason::SnapshotUnavailable`]).
    pub snapshot_failures: u64,
    /// Repair-plan fingerprints accumulated in the current cycle.
    pub cycle_repairs: Vec<u64>,
    /// Checkpoint rejections accumulated in the current cycle.
    pub cycle_rejections: Vec<String>,
}

impl ServiceState {
    #[must_use]
    pub fn fresh(seed: u64) -> Self {
        Self {
            seed,
            cycle: 0,
            stage: StageId::Estimate,
            attempts_done: 0,
            cycle_attempts: 0,
            cycle_backoff_ms: 0,
            cycle_solver_resumes: 0,
            cycle_recoveries: Vec::new(),
            deployed: None,
            target: None,
            target_objective: None,
            target_lower_bound: None,
            pending_moved: 0,
            pending_sim: None,
            pending_denied: 0,
            pending_denial: None,
            deferred: Vec::new(),
            records: Vec::new(),
            resumes: 0,
            cold_restarts: 0,
            stale_serves: 0,
            deltas_applied: 0,
            snapshot_failures: 0,
            cycle_repairs: Vec::new(),
            cycle_rejections: Vec::new(),
        }
    }

    pub fn to_value(&self) -> Value {
        use vod_core::checkpoint::placement_to_value;
        let record_v = |r: &ServiceRecord| {
            Value::Obj(vec![
                ("cycle".into(), Value::Num(r.cycle as f64)),
                (
                    "degraded".into(),
                    r.degraded.as_ref().map_or(Value::Null, reason_to_value),
                ),
                (
                    "recoveries".into(),
                    Value::Arr(
                        r.recoveries
                            .iter()
                            .map(|a| Value::Str(a.name().into()))
                            .collect(),
                    ),
                ),
                ("attempts".into(), Value::Num(f64::from(r.attempts))),
                ("backoff_ms".into(), u64_bits_value(r.backoff_ms)),
                (
                    "solver_resumes".into(),
                    Value::Num(f64::from(r.solver_resumes)),
                ),
                ("placement_fnv".into(), u64_bits_value(r.placement_fnv)),
                (
                    "objective".into(),
                    r.objective.map_or(Value::Null, f64_bits_value),
                ),
                (
                    "lower_bound".into(),
                    r.lower_bound.map_or(Value::Null, f64_bits_value),
                ),
                ("moved".into(), Value::Num(r.moved as f64)),
                ("deferred".into(), Value::Num(r.deferred as f64)),
                ("denied".into(), u64_bits_value(r.denied)),
                (
                    "denial_rate".into(),
                    r.denial_rate.map_or(Value::Null, f64_bits_value),
                ),
                ("stale".into(), Value::Bool(r.stale)),
                (
                    "sim".into(),
                    r.sim.as_ref().map_or(Value::Null, sim_to_value),
                ),
                (
                    "repairs".into(),
                    Value::Arr(r.repairs.iter().map(|&f| u64_bits_value(f)).collect()),
                ),
                (
                    "rejections".into(),
                    Value::Arr(r.rejections.iter().map(|s| Value::Str(s.clone())).collect()),
                ),
            ])
        };
        Value::Obj(vec![
            ("seed".into(), u64_bits_value(self.seed)),
            ("cycle".into(), Value::Num(self.cycle as f64)),
            ("stage".into(), Value::Str(self.stage.name().into())),
            (
                "attempts_done".into(),
                Value::Num(f64::from(self.attempts_done)),
            ),
            (
                "cycle_attempts".into(),
                Value::Num(f64::from(self.cycle_attempts)),
            ),
            (
                "cycle_backoff_ms".into(),
                u64_bits_value(self.cycle_backoff_ms),
            ),
            (
                "cycle_solver_resumes".into(),
                Value::Num(f64::from(self.cycle_solver_resumes)),
            ),
            (
                "cycle_recoveries".into(),
                Value::Arr(
                    self.cycle_recoveries
                        .iter()
                        .map(|a| Value::Str(a.name().into()))
                        .collect(),
                ),
            ),
            (
                "deployed".into(),
                self.deployed.as_ref().map_or(Value::Null, |(c, p)| {
                    Value::Obj(vec![
                        ("cycle".into(), Value::Num(*c as f64)),
                        ("placement".into(), placement_to_value(p)),
                    ])
                }),
            ),
            (
                "target".into(),
                self.target.as_ref().map_or(Value::Null, placement_to_value),
            ),
            (
                "target_objective".into(),
                self.target_objective.map_or(Value::Null, f64_bits_value),
            ),
            (
                "target_lower_bound".into(),
                self.target_lower_bound.map_or(Value::Null, f64_bits_value),
            ),
            (
                "pending_moved".into(),
                Value::Num(self.pending_moved as f64),
            ),
            (
                "pending_sim".into(),
                self.pending_sim.as_ref().map_or(Value::Null, sim_to_value),
            ),
            ("pending_denied".into(), u64_bits_value(self.pending_denied)),
            (
                "pending_denial".into(),
                self.pending_denial.map_or(Value::Null, f64_bits_value),
            ),
            (
                "deferred".into(),
                Value::Arr(self.deferred.iter().map(|d| d.to_value()).collect()),
            ),
            (
                "records".into(),
                Value::Arr(self.records.iter().map(record_v).collect()),
            ),
            ("resumes".into(), u64_bits_value(self.resumes)),
            ("cold_restarts".into(), u64_bits_value(self.cold_restarts)),
            ("stale_serves".into(), u64_bits_value(self.stale_serves)),
            (
                "deltas_applied".into(),
                Value::Num(self.deltas_applied as f64),
            ),
            (
                "snapshot_failures".into(),
                u64_bits_value(self.snapshot_failures),
            ),
            (
                "cycle_repairs".into(),
                Value::Arr(
                    self.cycle_repairs
                        .iter()
                        .map(|&f| u64_bits_value(f))
                        .collect(),
                ),
            ),
            (
                "cycle_rejections".into(),
                Value::Arr(
                    self.cycle_rejections
                        .iter()
                        .map(|s| Value::Str(s.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Decode a persisted state; any malformed field is a typed error
    /// string and the caller cold-restarts.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        use vod_core::checkpoint::placement_from_value;
        let field = |key: &str| -> Result<&Value, String> {
            v.get(key).ok_or_else(|| format!("missing field {key:?}"))
        };
        let num_u32 = |x: &Value, what: &str| -> Result<u32, String> {
            x.as_usize()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("{what}: expected a u32"))
        };
        let recoveries_of = |x: &Value, what: &str| -> Result<Vec<RecoveryAction>, String> {
            x.as_arr()
                .ok_or_else(|| format!("{what}: expected an array"))?
                .iter()
                .map(|a| {
                    a.as_str()
                        .and_then(RecoveryAction::from_name)
                        .ok_or_else(|| format!("{what}: unknown recovery action"))
                })
                .collect()
        };
        let opt_f64 = |x: &Value, what: &str| -> Result<Option<f64>, String> {
            match x {
                Value::Null => Ok(None),
                other => f64_from_bits_value(other, what)
                    .map(Some)
                    .map_err(|e| e.to_string()),
            }
        };
        let u64s_of = |x: &Value, what: &str| -> Result<Vec<u64>, String> {
            x.as_arr()
                .ok_or_else(|| format!("{what}: expected an array"))?
                .iter()
                .map(|f| u64_from_bits_value(f, what).map_err(|e| e.to_string()))
                .collect()
        };
        let strs_of = |x: &Value, what: &str| -> Result<Vec<String>, String> {
            x.as_arr()
                .ok_or_else(|| format!("{what}: expected an array"))?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("{what}: expected strings"))
                })
                .collect()
        };
        let records = field("records")?
            .as_arr()
            .ok_or("records: expected an array")?
            .iter()
            .map(|r| -> Result<ServiceRecord, String> {
                let rf = |key: &str| -> Result<&Value, String> {
                    r.get(key).ok_or_else(|| format!("records.{key}: missing"))
                };
                Ok(ServiceRecord {
                    cycle: rf("cycle")?
                        .as_usize()
                        .ok_or("records.cycle: expected int")?,
                    degraded: match rf("degraded")? {
                        Value::Null => None,
                        other => Some(reason_from_value(other)?),
                    },
                    recoveries: recoveries_of(rf("recoveries")?, "records.recoveries")?,
                    attempts: num_u32(rf("attempts")?, "records.attempts")?,
                    backoff_ms: u64_from_bits_value(rf("backoff_ms")?, "backoff_ms")
                        .map_err(|e| e.to_string())?,
                    solver_resumes: num_u32(rf("solver_resumes")?, "records.solver_resumes")?,
                    placement_fnv: u64_from_bits_value(rf("placement_fnv")?, "placement_fnv")
                        .map_err(|e| e.to_string())?,
                    objective: opt_f64(rf("objective")?, "records.objective")?,
                    lower_bound: opt_f64(rf("lower_bound")?, "records.lower_bound")?,
                    moved: rf("moved")?
                        .as_usize()
                        .ok_or("records.moved: expected int")?,
                    deferred: rf("deferred")?
                        .as_usize()
                        .ok_or("records.deferred: expected int")?,
                    denied: u64_from_bits_value(rf("denied")?, "denied")
                        .map_err(|e| e.to_string())?,
                    denial_rate: opt_f64(rf("denial_rate")?, "records.denial_rate")?,
                    stale: rf("stale")?
                        .as_bool()
                        .ok_or("records.stale: expected bool")?,
                    sim: match rf("sim")? {
                        Value::Null => None,
                        other => Some(sim_from_value(other, "records.sim")?),
                    },
                    repairs: u64s_of(rf("repairs")?, "records.repairs")?,
                    rejections: strs_of(rf("rejections")?, "records.rejections")?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let deferred = field("deferred")?
            .as_arr()
            .ok_or("deferred: expected an array")?
            .iter()
            .map(DeferredMigration::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            seed: u64_from_bits_value(field("seed")?, "seed").map_err(|e| e.to_string())?,
            cycle: field("cycle")?.as_usize().ok_or("cycle: expected int")?,
            stage: field("stage")?
                .as_str()
                .and_then(StageId::from_name)
                .ok_or("stage: unknown stage name")?,
            attempts_done: num_u32(field("attempts_done")?, "attempts_done")?,
            cycle_attempts: num_u32(field("cycle_attempts")?, "cycle_attempts")?,
            cycle_backoff_ms: u64_from_bits_value(field("cycle_backoff_ms")?, "cycle_backoff_ms")
                .map_err(|e| e.to_string())?,
            cycle_solver_resumes: num_u32(field("cycle_solver_resumes")?, "cycle_solver_resumes")?,
            cycle_recoveries: recoveries_of(field("cycle_recoveries")?, "cycle_recoveries")?,
            deployed: match field("deployed")? {
                Value::Null => None,
                other => {
                    let c = other
                        .get("cycle")
                        .and_then(Value::as_usize)
                        .ok_or("deployed.cycle: expected int")?;
                    let p = placement_from_value(
                        other
                            .get("placement")
                            .ok_or("deployed.placement: missing")?,
                    )
                    .map_err(|e| e.to_string())?;
                    Some((c, p))
                }
            },
            target: match field("target")? {
                Value::Null => None,
                other => Some(placement_from_value(other).map_err(|e| e.to_string())?),
            },
            target_objective: opt_f64(field("target_objective")?, "target_objective")?,
            target_lower_bound: opt_f64(field("target_lower_bound")?, "target_lower_bound")?,
            pending_moved: field("pending_moved")?
                .as_usize()
                .ok_or("pending_moved: expected int")?,
            pending_sim: match field("pending_sim")? {
                Value::Null => None,
                other => Some(sim_from_value(other, "pending_sim")?),
            },
            pending_denied: u64_from_bits_value(field("pending_denied")?, "pending_denied")
                .map_err(|e| e.to_string())?,
            pending_denial: opt_f64(field("pending_denial")?, "pending_denial")?,
            deferred,
            records,
            resumes: u64_from_bits_value(field("resumes")?, "resumes")
                .map_err(|e| e.to_string())?,
            cold_restarts: u64_from_bits_value(field("cold_restarts")?, "cold_restarts")
                .map_err(|e| e.to_string())?,
            stale_serves: u64_from_bits_value(field("stale_serves")?, "stale_serves")
                .map_err(|e| e.to_string())?,
            deltas_applied: field("deltas_applied")?
                .as_usize()
                .ok_or("deltas_applied: expected int")?,
            snapshot_failures: u64_from_bits_value(
                field("snapshot_failures")?,
                "snapshot_failures",
            )
            .map_err(|e| e.to_string())?,
            cycle_repairs: u64s_of(field("cycle_repairs")?, "cycle_repairs")?,
            cycle_rejections: strs_of(field("cycle_rejections")?, "cycle_rejections")?,
        })
    }
}

/// The supervised service loop. Construct with
/// [`Service::resume_or_start`], drive with [`Service::step`] or
/// [`Service::run`].
pub struct Service {
    /// The *current* world: the configured base world with the durable
    /// prefix of [`ServiceConfig::cycle_deltas`] replayed onto it.
    cur: OpsWorld,
    /// Storage-dark mask: `dark[i]` = VHO `i` is decommissioned. The
    /// node stays on every axis (ids never renumber); its MIP disk
    /// collapses to [`DARK_DISK_GB`] and repair drains its copies
    /// under the churn cap.
    dark: Vec<bool>,
    cfg: ServiceConfig,
    plan: ServicePlan,
    state: ServiceState,
    watchdog: Watchdog,
    /// History / period trace cursors (amortized O(1) window slides).
    history_win: StreamingWindow,
    period_win: StreamingWindow,
    fired_kills: Vec<usize>,
    fired_stage_kills: Vec<(usize, StageId)>,
    /// True while the durable snapshots lag the in-memory state (disk
    /// faults). The service keeps serving and every later transition
    /// retries the full write; a crash while dirty loses only replayable
    /// work, never determinism.
    dirty: bool,
    last_snapshot_error: Option<String>,
    /// Fractional payload kept in memory when its snapshot write
    /// failed, so the round stage can proceed without the disk. Not
    /// durable on purpose: a crash falls back to the retreat-to-solve
    /// recompute, which is deterministic.
    mem_fractional: Option<Value>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("cfg", &self.cfg)
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Load `service.state` from the state dir and continue, or start
    /// fresh. Corrupt/truncated state = cold restart (counted, then
    /// the whole schedule deterministically replays — which is why a
    /// torn state file still re-converges to identical deployments);
    /// a state file from a different seed is refused.
    pub fn resume_or_start(
        world: &OpsWorld,
        cfg: ServiceConfig,
        plan: ServicePlan,
    ) -> Result<Self, OpsError> {
        let invalid = |what: String| Err(OpsError::Invalid { what });
        if cfg.ops.start_day < 7 {
            return invalid(format!(
                "start_day must be >= 7 (one week of history); got {}",
                cfg.ops.start_day
            ));
        }
        if cfg.ops.period_days == 0 || cfg.ops.cycles == 0 {
            return invalid("period_days and cycles must be >= 1".into());
        }
        if cfg.ops.max_attempts == 0 {
            return invalid("max_attempts must be >= 1".into());
        }
        if world.disks.len() != world.net.num_nodes() {
            return invalid(format!(
                "disk inventory has {} entries for {} VHOs",
                world.disks.len(),
                world.net.num_nodes()
            ));
        }
        if effective_cycles(world, &cfg.ops) == 0 {
            return invalid(format!(
                "trace horizon ends before start_day {}: no cycle fits",
                cfg.ops.start_day
            ));
        }
        for (cycle, schedule) in &cfg.cycle_faults {
            if let Err(e) = schedule.validate(world.net.num_nodes(), world.net.num_links()) {
                return invalid(format!("fault schedule for cycle {cycle}: {e}"));
            }
        }
        // World deltas: structurally valid against the base topology
        // (node/link axes never shrink, so initial-id validation covers
        // every later application point) and sorted by cycle.
        let mut last_delta_cycle = 0usize;
        for (i, delta) in cfg.cycle_deltas.iter().enumerate() {
            if let Err(e) = delta.validate(&world.net) {
                return invalid(format!("world delta {i}: {e}"));
            }
            if delta.cycle < last_delta_cycle {
                return invalid(format!(
                    "world delta {i} (cycle {}) is out of order: deltas must be \
                     sorted by cycle",
                    delta.cycle
                ));
            }
            last_delta_cycle = delta.cycle;
        }
        std::fs::create_dir_all(&cfg.ops.state_dir).map_err(|e| OpsError::Io {
            what: format!("create {}: {e}", cfg.ops.state_dir.display()),
        })?;
        let path = cfg.ops.state_dir.join("service.state");
        let seed = cfg.ops.epf.seed;
        let cold = || {
            let mut st = ServiceState::fresh(seed);
            st.cold_restarts = 1;
            st
        };
        let state = match read_json_snapshot(&path, SERVICE_KIND, SERVICE_VERSION) {
            Ok(v) => match ServiceState::from_value(&v) {
                Ok(mut st) if st.seed == seed => {
                    st.resumes += 1;
                    st
                }
                Ok(st) => {
                    return invalid(format!(
                        "state file {} belongs to seed {:#x}, config has {:#x}",
                        path.display(),
                        st.seed,
                        seed
                    ))
                }
                Err(_) => cold(),
            },
            Err(SnapshotError::Io { ref source, .. })
                if source.kind() == std::io::ErrorKind::NotFound =>
            {
                ServiceState::fresh(seed)
            }
            Err(_) => cold(),
        };
        if state.deltas_applied > cfg.cycle_deltas.len() {
            return invalid(format!(
                "state file records {} applied deltas but the schedule has {}: \
                 foreign delta schedule",
                state.deltas_applied,
                cfg.cycle_deltas.len()
            ));
        }
        // Rebuild the evolved world by replaying the durable prefix of
        // the delta schedule onto a copy of the base world. The replay
        // is pure, so a resumed process sees the identical topology,
        // catalog and dark mask the crashed one had.
        let mut cur = world.clone();
        let mut dark = vec![false; world.net.num_nodes()];
        for delta in &cfg.cycle_deltas[..state.deltas_applied] {
            apply_world_delta(&mut cur, &mut dark, delta);
        }
        // The watchdog resumes mid-cycle with the durable tick count,
        // so a restart cannot grant a stalled cycle a fresh budget.
        let mut watchdog = Watchdog::new(cfg.watchdog_budget);
        for _ in 0..state.cycle_attempts {
            let _ = watchdog.tick();
        }
        let mut svc = Self {
            cur,
            dark,
            cfg,
            plan,
            state,
            watchdog,
            history_win: StreamingWindow::new(),
            period_win: StreamingWindow::new(),
            fired_kills: Vec::new(),
            fired_stage_kills: Vec::new(),
            dirty: false,
            last_snapshot_error: None,
            mem_fractional: None,
        };
        svc.persist()?;
        Ok(svc)
    }

    #[must_use]
    pub fn state(&self) -> &ServiceState {
        &self.state
    }

    /// Cycles that actually fit in the trace horizon.
    #[must_use]
    pub fn effective_cycles(&self) -> usize {
        effective_cycles(&self.cur, &self.cfg.ops)
    }

    /// The current (delta-evolved) world the service optimizes against.
    #[must_use]
    pub fn world(&self) -> &OpsWorld {
        &self.cur
    }

    /// Storage-dark mask over the VHO axis (true = decommissioned).
    #[must_use]
    pub fn dark_mask(&self) -> &[bool] {
        &self.dark
    }

    /// True while the durable snapshots lag the in-memory state
    /// because of storage faults.
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Drive the service to completion. The only error exit is an
    /// invalid configuration (caught in the constructor) — cycle-level
    /// trouble degrades and storage trouble is served from memory with
    /// retries; the loop never aborts.
    pub fn run(&mut self) -> Result<&ServiceState, OpsError> {
        while self.step()? != StepOutcome::Finished {}
        Ok(&self.state)
    }

    /// Execute one attempt of the current stage. Exactly one durable
    /// transition per call (none on simulated kills).
    pub fn step(&mut self) -> Result<StepOutcome, OpsError> {
        if self.state.cycle >= self.effective_cycles() {
            return Ok(StepOutcome::Finished);
        }
        let cycle = self.state.cycle;
        let stage = self.state.stage;
        if self.plan.kill_at_stage.contains(&(cycle, stage))
            && !self.fired_stage_kills.contains(&(cycle, stage))
        {
            // The process dies before the stage runs: nothing executes,
            // nothing mutates, nothing persists. The next step (or a
            // rebuilt service over the same state dir) re-runs the
            // stage from the identical durable state.
            self.fired_stage_kills.push((cycle, stage));
            return Ok(StepOutcome::SimulatedCrash { cycle });
        }
        // World deltas land at cycle boundaries, before the first stage
        // runs. One delta per step (its own durable transition); the
        // application is deterministic and does not consume watchdog
        // budget or stage attempts, so killed and unkilled twins count
        // identically.
        if stage == StageId::Estimate {
            if let Some(index) = self.pending_delta() {
                return self.apply_next_delta(cycle, index);
            }
        }
        if self.watchdog.tick() {
            return self.degrade(DegradeReason::Stalled {
                stage,
                ticks: self.watchdog.ticks(),
                budget: self.watchdog.budget(),
            });
        }
        self.state.cycle_attempts += 1;
        if self
            .plan
            .fail
            .contains(&(cycle, stage, self.state.attempts_done))
        {
            return self.fail_attempt(stage, "injected failure".into());
        }
        match stage {
            StageId::Estimate => self.step_estimate(cycle),
            StageId::Solve => self.step_solve(cycle),
            StageId::Round => self.step_round(cycle),
            StageId::Validate => self.step_validate(cycle),
            StageId::Simulate => self.step_simulate(cycle),
        }
    }

    // ---- live reconfiguration --------------------------------------

    /// Index of the next unapplied delta, if it is due at (or before)
    /// the current cycle.
    fn pending_delta(&self) -> Option<usize> {
        let next = self.state.deltas_applied;
        let delta = self.cfg.cycle_deltas.get(next)?;
        (delta.cycle <= self.state.cycle).then_some(next)
    }

    /// Apply one world delta as a single durable transition: mutate the
    /// evolved world, carry (or discard) warm solver state, repair the
    /// serving placement under the churn cap, and only then advance the
    /// durable `deltas_applied` counter — so a crash at any point
    /// either replays the whole delta or none of it.
    fn apply_next_delta(&mut self, cycle: usize, index: usize) -> Result<StepOutcome, OpsError> {
        let Some(delta) = self.cfg.cycle_deltas.get(index).cloned() else {
            return Ok(StepOutcome::Finished); // unreachable: index came from pending_delta
        };
        apply_world_delta(&mut self.cur, &mut self.dark, &delta);
        // Warm solver state: a capacity-only delta re-blesses the
        // mid-solve checkpoint via the remap rules (primal iterate
        // kept, dual bound reset); anything else discards it and the
        // solve stage falls through to a warm start off the deployed
        // placement.
        let ckpt_path = self.solver_ckpt_path();
        if let Ok(bytes) = read_snapshot(&ckpt_path, CHECKPOINT_KIND, CHECKPOINT_VERSION) {
            let inst = self.instance_for(cycle);
            let epf = self.epf_for_cycle(cycle);
            let remapped = SolverCheckpoint::from_bytes(&bytes)
                .ok()
                .and_then(|ck| remap_checkpoint(ck, &inst, &epf).ok());
            match remapped {
                Some(ck) => {
                    let _ = write_snapshot_atomic(
                        &ckpt_path,
                        CHECKPOINT_KIND,
                        CHECKPOINT_VERSION,
                        &ck.to_bytes(),
                    );
                }
                None => {
                    let _ = std::fs::remove_file(&ckpt_path);
                }
            }
        }
        // Feasibility repair of the placement that is *serving right
        // now*, fed through the same churn-capped diff as a regular
        // deploy: repair migrations spend the cycle's migration budget,
        // never exceed it.
        if let Some((deployed_cycle, deployed)) = self.state.deployed.clone() {
            let caps = self.mip_caps();
            let plan = repair_placement(&deployed, &self.cur.catalog, &self.dark, &caps);
            if !plan.is_noop() {
                self.state.cycle_repairs.push(plan.fingerprint());
                let budget = self
                    .cfg
                    .churn_cap
                    .map(|c| c.saturating_sub(self.state.pending_moved));
                match apply_churn_cap(
                    &deployed,
                    &plan.placement,
                    budget,
                    &self.state.deferred,
                    cycle,
                ) {
                    Ok(churned) => {
                        self.state.pending_moved += churned.moved;
                        self.state.deferred = churned.deferred;
                        self.state.deployed = Some((deployed_cycle, churned.placement));
                    }
                    // Repair preserves the video axis by construction,
                    // so the diff cannot reject shapes; degrade rather
                    // than abort if that invariant ever breaks.
                    Err(what) => return self.degrade(DegradeReason::ValidationFailed { what }),
                }
            }
            if delta.is_capacity_only() {
                // Warm state survived the reconfiguration: record the
                // remap rung so drills can assert a capacity tweak
                // never forces a cold solve.
                self.push_recovery(RecoveryAction::WarmRemap);
            }
        }
        self.state.deltas_applied = index + 1;
        self.persist()?;
        Ok(StepOutcome::DeltaApplied { cycle, index })
    }

    // ---- stages -----------------------------------------------------

    fn step_estimate(&mut self, cycle: usize) -> Result<StepOutcome, OpsError> {
        let inst = self.instance_for(cycle);
        if inst.n_videos() == 0 {
            return self.fail_attempt(
                StageId::Estimate,
                "estimate produced an empty instance".into(),
            );
        }
        self.advance(StageId::Solve)?;
        Ok(StepOutcome::StageDone {
            cycle,
            stage: StageId::Estimate,
        })
    }

    fn step_solve(&mut self, cycle: usize) -> Result<StepOutcome, OpsError> {
        let inst = self.instance_for(cycle);
        let epf = self.epf_for_cycle(cycle);
        let ckpt_path = self.solver_ckpt_path();
        let kill_at = self
            .plan
            .kill_mid_solve
            .iter()
            .find(|(c, _)| *c == cycle && !self.fired_kills.contains(c))
            .map(|&(_, keep)| keep);
        let prior = match read_snapshot(&ckpt_path, CHECKPOINT_KIND, CHECKPOINT_VERSION) {
            Ok(bytes) => SolverCheckpoint::from_bytes(&bytes).ok(),
            Err(_) => None,
        };
        let mut emitted: u64 = 0;
        let mut killed = false;
        let every = self.cfg.ops.checkpoint_every;
        let mut sink = |ck: SolverCheckpoint| {
            if killed {
                return;
            }
            if kill_at.is_some_and(|keep| emitted >= keep) {
                killed = true;
                return;
            }
            emitted += 1;
            let _ = write_snapshot_atomic(
                &ckpt_path,
                CHECKPOINT_KIND,
                CHECKPOINT_VERSION,
                &ck.to_bytes(),
            );
        };
        let warm = self.state.deployed.as_ref().map(|(_, p)| p.clone());
        let result = solve_cycle_fractional(
            &inst,
            &epf,
            prior.as_ref(),
            warm.as_ref(),
            Some(CheckpointSpec {
                every,
                sink: &mut sink,
            }),
        );
        match result {
            Ok((frac, stats, kind)) => {
                if killed {
                    self.fired_kills.push(cycle);
                    return Ok(StepOutcome::SimulatedCrash { cycle });
                }
                match kind {
                    ResumeKind::Checkpoint => {
                        self.state.cycle_solver_resumes += 1;
                        self.push_recovery(RecoveryAction::WarmResume);
                    }
                    // A checkpoint existed but did not validate for
                    // this (instance, config): it was discarded and
                    // the solve fell through to a cold trajectory.
                    // Classify the rejection for the ledger — axes
                    // intact (the remap-eligible class) vs genuinely
                    // foreign. Classification only: *using* the
                    // remapped state here would bless checkpoints the
                    // chaos twin never saw and break twin identity.
                    ResumeKind::Rejected { reason } => {
                        let verdict = match prior.as_ref() {
                            Some(ck) => match remap_checkpoint(ck.clone(), &inst, &epf) {
                                Ok(_) => "remap-eligible",
                                Err(_) => "foreign",
                            },
                            None => "foreign",
                        };
                        self.state
                            .cycle_rejections
                            .push(format!("{verdict}: {reason}"));
                        let _ = std::fs::remove_file(&ckpt_path);
                        self.push_recovery(RecoveryAction::ColdSolve);
                    }
                    ResumeKind::WarmStart | ResumeKind::Cold => {}
                }
                let payload = Value::Obj(vec![
                    ("cycle".into(), Value::Num(cycle as f64)),
                    (
                        "config".into(),
                        u64_bits_value(epf_config_token(&self.epf_for_cycle(cycle))),
                    ),
                    ("lower_bound".into(), f64_bits_value(stats.lower_bound)),
                    ("fractional".into(), fractional_to_value(&frac)),
                ]);
                // Disk trouble must not fail the stage: on a write
                // error the round stage consumes the payload from
                // memory, and a crash before the retry lands falls
                // back to the deterministic retreat-to-solve
                // recompute.
                match write_json_snapshot(
                    &self.fractional_path(),
                    FRACTIONAL_KIND,
                    FRACTIONAL_VERSION,
                    &payload,
                ) {
                    Ok(()) => self.mem_fractional = None,
                    Err(e) => {
                        self.note_snapshot_failure(format!("persist fractional: {e}"));
                        self.mem_fractional = Some(payload);
                    }
                }
                let _ = std::fs::remove_file(&ckpt_path);
                self.state.target_lower_bound = Some(stats.lower_bound);
                self.advance(StageId::Round)?;
                Ok(StepOutcome::StageDone {
                    cycle,
                    stage: StageId::Solve,
                })
            }
            Err(e) => self.fail_attempt(StageId::Solve, e.to_string()),
        }
    }

    fn step_round(&mut self, cycle: usize) -> Result<StepOutcome, OpsError> {
        let inst = self.instance_for(cycle);
        let token = epf_config_token(&self.epf_for_cycle(cycle));
        let check = |v: &Value| {
            let same_cycle = v.get("cycle")?.as_usize()? == cycle;
            let same_cfg = u64_from_bits_value(v.get("config")?, "config").ok()? == token;
            if !(same_cycle && same_cfg) {
                return None;
            }
            fractional_from_value(v.get("fractional")?, &inst).ok()
        };
        // Durable snapshot first; the in-memory copy is the fallback a
        // faulted disk leaves behind (same cycle/config gate applies).
        let frac = read_json_snapshot(&self.fractional_path(), FRACTIONAL_KIND, FRACTIONAL_VERSION)
            .ok()
            .and_then(|v| check(&v))
            .or_else(|| self.mem_fractional.as_ref().and_then(check));
        let Some(frac) = frac else {
            let _ = std::fs::remove_file(self.fractional_path());
            return self.retreat(StageId::Solve, StageId::Round, cycle);
        };
        let epf = self.epf_for_cycle(cycle);
        let (placement, stats) = round_solution(&inst, &frac, epf.gamma, epf.kernel);
        self.state.target = Some(placement);
        self.state.target_objective = Some(stats.objective);
        self.advance(StageId::Validate)?;
        Ok(StepOutcome::StageDone {
            cycle,
            stage: StageId::Round,
        })
    }

    fn step_validate(&mut self, cycle: usize) -> Result<StepOutcome, OpsError> {
        let Some(target) = self.state.target.clone() else {
            return self.retreat(StageId::Round, StageId::Validate, cycle);
        };
        let inst = self.instance_for(cycle);
        // The strict serviceability gate applies to the full target;
        // the churn-capped hybrid may transiently double-occupy disk
        // during the migration window (see `crate::diff`).
        if let Err(what) = serviceable(&target, &inst, self.cfg.ops.validate_tol) {
            return self.degrade(DegradeReason::ValidationFailed { what });
        }
        match &self.state.deployed {
            None => {
                // Bootstrap deployment: there is nothing serving yet,
                // so the churn cap (an *update* bandwidth bound) does
                // not apply — the initial fill is an offline bulk load.
                self.state.deployed = Some((cycle, target));
            }
            Some((_, prev)) => {
                // Repair migrations executed at the cycle boundary
                // already consumed part of this cycle's budget.
                let budget = self
                    .cfg
                    .churn_cap
                    .map(|c| c.saturating_sub(self.state.pending_moved));
                let plan = match apply_churn_cap(prev, &target, budget, &self.state.deferred, cycle)
                {
                    Ok(plan) => plan,
                    Err(what) => return self.degrade(DegradeReason::ValidationFailed { what }),
                };
                self.state.pending_moved += plan.moved;
                self.state.deferred = plan.deferred;
                self.state.deployed = Some((cycle, plan.placement));
            }
        }
        self.advance(StageId::Simulate)?;
        Ok(StepOutcome::StageDone {
            cycle,
            stage: StageId::Validate,
        })
    }

    fn step_simulate(&mut self, cycle: usize) -> Result<StepOutcome, OpsError> {
        if self.cfg.ops.simulate {
            let Some((_, deployed)) = self.state.deployed.clone() else {
                return self.retreat(StageId::Validate, StageId::Simulate, cycle);
            };
            let (sim, denied, denial) = self.replay_window(cycle, &deployed);
            self.state.pending_sim = Some(sim);
            self.state.pending_denied = denied;
            self.state.pending_denial = Some(denial);
        }
        // A cycle that closes while the durable snapshots lag the
        // in-memory state is visibly degraded — the deployment is
        // fresh, but a crash right now would replay work.
        let degraded = self.dirty.then(|| DegradeReason::SnapshotUnavailable {
            failures: self.state.snapshot_failures,
            what: self.last_snapshot_error.clone().unwrap_or_default(),
        });
        let record = ServiceRecord {
            cycle,
            degraded,
            recoveries: std::mem::take(&mut self.state.cycle_recoveries),
            attempts: self.state.cycle_attempts,
            backoff_ms: self.state.cycle_backoff_ms,
            solver_resumes: self.state.cycle_solver_resumes,
            placement_fnv: self.deployed_fingerprint(),
            objective: self.state.target_objective,
            lower_bound: self.state.target_lower_bound,
            moved: self.state.pending_moved,
            deferred: self.state.deferred.len(),
            denied: self.state.pending_denied,
            denial_rate: self.state.pending_denial,
            stale: false,
            sim: self.state.pending_sim.clone(),
            repairs: std::mem::take(&mut self.state.cycle_repairs),
            rejections: std::mem::take(&mut self.state.cycle_rejections),
        };
        self.state.records.push(record);
        self.close_cycle()?;
        Ok(StepOutcome::StageDone {
            cycle,
            stage: StageId::Simulate,
        })
    }

    // ---- supervision ------------------------------------------------

    fn push_recovery(&mut self, action: RecoveryAction) {
        self.state.cycle_recoveries.push(action);
    }

    fn fail_attempt(&mut self, stage: StageId, err: String) -> Result<StepOutcome, OpsError> {
        let cycle = self.state.cycle;
        let attempt = self.state.attempts_done;
        self.state.attempts_done += 1;
        let backoff = recorded_backoff(
            self.state.seed,
            cycle,
            stage,
            attempt,
            self.cfg.ops.backoff_base_ms,
        );
        self.state.cycle_backoff_ms += backoff;
        if self.state.attempts_done >= self.cfg.ops.max_attempts {
            return self.degrade(DegradeReason::StageFailed {
                stage,
                attempts: self.state.attempts_done,
                last_error: err,
            });
        }
        self.persist()?;
        Ok(StepOutcome::AttemptFailed {
            cycle,
            stage,
            attempt,
            backoff_ms: backoff,
        })
    }

    /// The graceful-degradation ladder's terminal rungs. With a
    /// deployment: keep serving it (last-good), with real denial
    /// accounting for the window. Without one: stale-serve — every
    /// request in the window is denied and *counted*. Either way the
    /// cycle closes and the service keeps running; there is no abort
    /// path.
    fn degrade(&mut self, reason: DegradeReason) -> Result<StepOutcome, OpsError> {
        let cycle = self.state.cycle;
        let record = match self.state.deployed.clone() {
            Some((_, deployed)) => {
                self.push_recovery(RecoveryAction::LastGood);
                let (sim, denied, denial) = if self.cfg.ops.simulate {
                    let (s, d, r) = self.replay_window(cycle, &deployed);
                    (Some(s), d, Some(r))
                } else {
                    (None, 0, None)
                };
                ServiceRecord {
                    cycle,
                    degraded: Some(reason),
                    recoveries: std::mem::take(&mut self.state.cycle_recoveries),
                    attempts: self.state.cycle_attempts,
                    backoff_ms: self.state.cycle_backoff_ms,
                    solver_resumes: self.state.cycle_solver_resumes,
                    placement_fnv: self.deployed_fingerprint(),
                    objective: None,
                    lower_bound: None,
                    // Boundary repairs may have moved copies even though
                    // the cycle itself degraded.
                    moved: self.state.pending_moved,
                    deferred: self.state.deferred.len(),
                    denied,
                    denial_rate: denial,
                    stale: false,
                    sim,
                    repairs: std::mem::take(&mut self.state.cycle_repairs),
                    rejections: std::mem::take(&mut self.state.cycle_rejections),
                }
            }
            None => {
                // Nothing has ever been deployed: the window's demand
                // is denied in full, visibly, instead of crashing out.
                self.push_recovery(RecoveryAction::StaleServe);
                self.state.stale_serves += 1;
                let (day, end) = self.window_of(cycle);
                let window = TimeWindow::new(SimTime::new(day * DAY), SimTime::new(end * DAY));
                let denied = self.cur.trace.slice(window).len() as u64;
                ServiceRecord {
                    cycle,
                    degraded: Some(reason),
                    recoveries: std::mem::take(&mut self.state.cycle_recoveries),
                    attempts: self.state.cycle_attempts,
                    backoff_ms: self.state.cycle_backoff_ms,
                    solver_resumes: self.state.cycle_solver_resumes,
                    placement_fnv: 0,
                    objective: None,
                    lower_bound: None,
                    moved: 0,
                    deferred: self.state.deferred.len(),
                    denied,
                    denial_rate: Some(1.0),
                    stale: true,
                    sim: None,
                    repairs: std::mem::take(&mut self.state.cycle_repairs),
                    rejections: std::mem::take(&mut self.state.cycle_rejections),
                }
            }
        };
        self.state.records.push(record);
        self.close_cycle()?;
        Ok(StepOutcome::CycleDegraded { cycle })
    }

    fn retreat(
        &mut self,
        to: StageId,
        from: StageId,
        cycle: usize,
    ) -> Result<StepOutcome, OpsError> {
        self.state.stage = to;
        self.state.attempts_done = 0;
        self.persist()?;
        Ok(StepOutcome::Retreated { cycle, stage: from })
    }

    fn advance(&mut self, next: StageId) -> Result<(), OpsError> {
        self.state.stage = next;
        self.state.attempts_done = 0;
        self.persist()
    }

    fn close_cycle(&mut self) -> Result<(), OpsError> {
        self.state.target = None;
        self.state.target_objective = None;
        self.state.target_lower_bound = None;
        self.state.pending_moved = 0;
        self.state.pending_sim = None;
        self.state.pending_denied = 0;
        self.state.pending_denial = None;
        self.state.attempts_done = 0;
        self.state.cycle_attempts = 0;
        self.state.cycle_backoff_ms = 0;
        self.state.cycle_solver_resumes = 0;
        self.state.cycle_recoveries.clear();
        self.state.cycle_repairs.clear();
        self.state.cycle_rejections.clear();
        self.state.cycle += 1;
        self.state.stage = StageId::Estimate;
        self.watchdog.reset();
        self.mem_fractional = None;
        let _ = std::fs::remove_file(self.solver_ckpt_path());
        let _ = std::fs::remove_file(self.fractional_path());
        self.persist()
    }

    /// Persist the durable state — *softly*. A failed snapshot write
    /// (full disk, torn rename, failed fsync) marks the service dirty,
    /// records a retry backoff, and returns `Ok`: the loop keeps
    /// serving from memory and every later transition retries the full
    /// write. Once the disk heals, one successful write makes the
    /// durable state current again — replaying from an older snapshot
    /// is deterministic, so nothing is lost but recomputation.
    fn persist(&mut self) -> Result<(), OpsError> {
        match write_json_snapshot(
            &self.cfg.ops.state_dir.join("service.state"),
            SERVICE_KIND,
            SERVICE_VERSION,
            &self.state.to_value(),
        ) {
            Ok(()) => {
                self.dirty = false;
                self.last_snapshot_error = None;
            }
            Err(e) => self.note_snapshot_failure(format!("persist service state: {e}")),
        }
        Ok(())
    }

    /// Account one failed snapshot write: dirty flag, lifetime counter,
    /// recorded (never slept) retry backoff at the current supervision
    /// coordinate, and the operator-facing reason.
    fn note_snapshot_failure(&mut self, what: String) {
        self.dirty = true;
        self.state.snapshot_failures += 1;
        let attempt = u32::try_from(self.state.snapshot_failures.min(16)).unwrap_or(16);
        self.state.cycle_backoff_ms += recorded_backoff(
            self.state.seed,
            self.state.cycle,
            self.state.stage,
            attempt,
            self.cfg.ops.backoff_base_ms,
        );
        self.last_snapshot_error = Some(what);
    }

    fn deployed_fingerprint(&self) -> u64 {
        self.state
            .deployed
            .as_ref()
            .map_or(0, |(_, p)| placement_fingerprint(p))
    }

    // ---- deterministic inputs --------------------------------------

    fn window_of(&self, cycle: usize) -> (u64, u64) {
        let horizon = self.cur.trace.horizon().secs() / DAY;
        let day = self.cfg.ops.start_day + cycle as u64 * self.cfg.ops.period_days;
        (day, (day + self.cfg.ops.period_days).min(horizon))
    }

    /// Per-VHO MIP disk budgets for the current world: the configured
    /// disk policy materialized against the evolved catalog, with every
    /// storage-dark VHO collapsed to [`DARK_DISK_GB`] — present on the
    /// axis, unable to hold even the smallest video.
    fn mip_caps(&self) -> Vec<Gigabytes> {
        let mut caps = self
            .cur
            .mip_disk
            .capacities(&self.cur.net, self.cur.catalog.total_size());
        for (cap, &is_dark) in caps.iter_mut().zip(&self.dark) {
            if is_dark {
                *cap = Gigabytes::new(DARK_DISK_GB);
            }
        }
        caps
    }

    /// Rebuild the cycle's MIP instance from the streaming windows.
    /// Pure function of the (delta-evolved) world, the dark mask, the
    /// cycle index and the deployed placement (the migration anchor),
    /// so every attempt and every resumed process sees the identical
    /// instance.
    fn instance_for(&mut self, cycle: usize) -> MipInstance {
        let (day, end) = self.window_of(cycle);
        let history = self.history_win.advance(
            &self.cur.trace,
            TimeWindow::new(SimTime::new((day - 7) * DAY), SimTime::new(day * DAY)),
        );
        let future = self.period_win.advance(
            &self.cur.trace,
            TimeWindow::new(SimTime::new(day * DAY), SimTime::new(end * DAY)),
        );
        let demand = estimate_demand(
            self.cfg.ops.estimator,
            &self.cur.catalog,
            self.cur.net.num_nodes(),
            &history,
            &future,
            day,
            end - day,
            &self.cur.est,
        );
        let pc = self.state.deployed.as_ref().map(|(_, p)| PlacementCost {
            weight: 1.0,
            previous: Some(p.holder_lists()),
            // lint:allow(raw-index): update transfers are anchored at VHO 0 by convention
            origin: VhoId::new(0),
        });
        let disks = DiskConfig::Explicit(self.mip_caps());
        MipInstance::new(
            self.cur.net.clone(),
            self.cur.catalog.clone(),
            demand,
            &disks,
            1.0,
            0.0,
            pc.as_ref(),
        )
    }

    /// Per-cycle solver config: derived seed (service-distinct salt)
    /// plus the per-cycle pass budget.
    fn epf_for_cycle(&self, cycle: usize) -> EpfConfig {
        let base = EpfConfig {
            seed: derive_seed(self.cfg.ops.epf.seed, SERVICE_CYCLE_SALT ^ cycle as u64),
            ..self.cfg.ops.epf.clone()
        };
        match self.cfg.cycle_step_budget {
            Some(steps) => base.budgeted(steps),
            None => base,
        }
    }

    /// Replay the cycle's period window against `placement`, injecting
    /// the cycle's fault schedule (if any). Returns the sim summary
    /// plus denial accounting.
    fn replay_window(&mut self, cycle: usize, placement: &Placement) -> (SimSummary, u64, f64) {
        let (day, end) = self.window_of(cycle);
        let future = self.period_win.advance(
            &self.cur.trace,
            TimeWindow::new(SimTime::new(day * DAY), SimTime::new(end * DAY)),
        );
        let faults = self
            .cfg
            .cycle_faults
            .iter()
            .find(|(c, _)| *c == cycle)
            .map_or_else(FaultSchedule::empty, |(_, s)| s.clone());
        // A dark VHO replays with its zeroed sim disk but keeps serving
        // whatever leftover copies the churn-capped repair has not yet
        // drained — graceful decommission, not a cliff.
        let vhos = mip_vho_configs(placement, &self.cur.disks, 0.0, CacheKind::Lru);
        let policy = PolicyKind::MipRouting(placement.clone());
        let rep = simulate(
            &self.cur.net,
            &self.cur.paths,
            &self.cur.catalog,
            &future,
            &vhos,
            &policy,
            &SimConfig {
                seed: derive_seed(self.state.seed, 0x51A1 ^ cycle as u64),
                insert_on_miss: false,
                faults,
                ..SimConfig::default()
            },
        );
        let local = rep.served_local_pinned + rep.served_local_cached;
        let sim = SimSummary {
            max_gbps: rep.max_link_mbps / 1000.0,
            local_frac: local as f64 / rep.total_requests.max(1) as f64,
            total_requests: rep.total_requests,
        };
        (sim, rep.denied(), rep.denial_rate())
    }

    fn solver_ckpt_path(&self) -> PathBuf {
        self.cfg.ops.state_dir.join("solver.ckpt")
    }

    fn fractional_path(&self) -> PathBuf {
        self.cfg.ops.state_dir.join("fractional.snap")
    }
}

/// Apply one validated [`WorldDelta`] to the evolved world, in place.
/// Pure and total: link ops rescale capacities (edges are never
/// removed, so the hop-count [`vod_net::PathSet`] stays valid and is
/// deliberately *not* recomputed), VHO ops flip the dark mask and the
/// sim-side disk inventory, and appends grow the catalog tail with
/// seeded metadata. Both the live loop and the resume replay call this
/// with the same deltas in the same order, which is what makes the
/// evolved world a pure function of `(base world, applied prefix)`.
fn apply_world_delta(cur: &mut OpsWorld, dark: &mut [bool], delta: &WorldDelta) {
    delta.apply_links(&mut cur.net);
    for op in &delta.ops {
        match op {
            DeltaOp::DecommissionVho { vho } => {
                dark[vho.index()] = true;
                // Sim-side storage goes to zero outright: the replay
                // layer has no positivity constraint, and leftover
                // pinned copies keep serving until repair drains them.
                cur.disks[vho.index()] = Gigabytes::new(0.0);
            }
            DeltaOp::RecommissionVho { vho, disk } => {
                dark[vho.index()] = false;
                cur.disks[vho.index()] = *disk;
            }
            DeltaOp::AppendVideos { count } => {
                let start = cur.catalog.len();
                let mut videos: Vec<Video> = cur.catalog.iter().cloned().collect();
                for k in 0..*count {
                    let mix = derive_seed(delta.seed, (start + k) as u64);
                    let class = VideoClass::ALL
                        // lint:allow(no-panic-hot-path): mix % 4 < 4
                        // always converts, and indexes in ALL's bounds.
                        [usize::try_from(mix % 4).expect("mod 4 fits in usize")];
                    videos.push(Video {
                        id: VideoId::from_index(start + k),
                        class,
                        // New releases without history: only the
                        // complementary cache absorbs them until the
                        // next estimate window sees their demand.
                        kind: VideoKind::OtherNew,
                        release_day: 0,
                        weight: 0.1 + (mix % 100) as f64 / 100.0,
                    });
                }
                cur.catalog = Catalog::new(videos);
            }
            DeltaOp::ScaleLink { .. } | DeltaOp::CutLink { .. } => {} // apply_links handled these
        }
    }
}

/// Fingerprint of everything that shapes a solve trajectory, so a
/// persisted fractional artifact from a different solver configuration
/// is rejected instead of silently reused.
fn epf_config_token(e: &EpfConfig) -> u64 {
    let mut buf = Vec::with_capacity(96);
    for bits in [
        e.epsilon.to_bits(),
        e.gamma.to_bits(),
        e.rho.to_bits(),
        e.chunk_size as u64,
        e.max_passes as u64,
        e.lb_every as u64,
        e.polish_iters as u64,
        e.seed,
        u64::from(e.feasibility_only),
        e.step_limit.unwrap_or(u64::MAX),
    ] {
        buf.extend_from_slice(&bits.to_le_bytes());
    }
    fnv1a64(&buf)
}

/// Structural serviceability of a rounded placement: right shape,
/// every video has a holder, disks within tolerance. Deliberately
/// *not* the audit layer's link checks — an over-tight link budget
/// yields a degraded-but-serviceable placement, which the supervisor
/// must keep, not reject.
fn serviceable(p: &Placement, inst: &MipInstance, tol: f64) -> Result<(), String> {
    if p.n_vhos() != inst.n_vhos() {
        return Err(format!(
            "placement has {} VHOs, instance has {}",
            p.n_vhos(),
            inst.n_vhos()
        ));
    }
    let holders = p.holder_lists();
    if holders.len() != inst.n_videos() {
        return Err(format!(
            "placement covers {} videos, instance has {}",
            holders.len(),
            inst.n_videos()
        ));
    }
    if let Some(m) = holders.iter().position(Vec::is_empty) {
        return Err(format!("video {m} has no holder"));
    }
    let usage = p.disk_usage(&inst.catalog);
    for (i, (&have, used)) in inst.disks.iter().zip(usage).enumerate() {
        if used.value() > have.value() * (1.0 + tol) {
            return Err(format!(
                "VHO {i} stores {:.1} GB on a {:.1} GB budget (tol {tol})",
                used.value(),
                have.value()
            ));
        }
    }
    Ok(())
}

fn effective_cycles(world: &OpsWorld, cfg: &OpsConfig) -> usize {
    let horizon = world.trace.horizon().secs() / DAY;
    let mut n = 0usize;
    while n < cfg.cycles && cfg.start_day + n as u64 * cfg.period_days < horizon {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> ServiceState {
        let p = Placement::from_parts(
            4,
            vec![vec![VhoId::new(0), VhoId::new(2)], vec![VhoId::new(1)]],
            vec![
                vec![(VhoId::new(1), vec![(VhoId::new(0), 1.0)])],
                Vec::new(),
            ],
        )
        .unwrap();
        let sim = SimSummary {
            max_gbps: 0.75,
            local_frac: 0.5,
            total_requests: 1234,
        };
        ServiceState {
            stage: StageId::Round,
            attempts_done: 1,
            cycle: 2,
            cycle_attempts: 3,
            cycle_backoff_ms: 750,
            cycle_solver_resumes: 1,
            cycle_recoveries: vec![RecoveryAction::WarmResume],
            deployed: Some((1, p.clone())),
            target: Some(p),
            target_objective: Some(17.25),
            target_lower_bound: Some(16.5),
            pending_moved: 5,
            pending_sim: Some(sim.clone()),
            pending_denied: 7,
            pending_denial: Some(0.125),
            deferred: vec![DeferredMigration {
                video: VideoId::from_index(1),
                copies: 2,
                since_cycle: 1,
            }],
            records: vec![ServiceRecord {
                cycle: 1,
                degraded: Some(DegradeReason::StageFailed {
                    stage: StageId::Solve,
                    attempts: 3,
                    last_error: "injected failure".into(),
                }),
                recoveries: vec![RecoveryAction::LastGood],
                attempts: 3,
                backoff_ms: 1500,
                solver_resumes: 2,
                placement_fnv: 0xfeed_beef,
                objective: None,
                lower_bound: None,
                moved: 0,
                deferred: 1,
                denied: 99,
                denial_rate: Some(0.25),
                stale: false,
                sim: Some(sim),
                repairs: vec![0xabc],
                rejections: vec!["foreign: fingerprint".into()],
            }],
            resumes: 3,
            cold_restarts: 1,
            stale_serves: 0,
            deltas_applied: 1,
            snapshot_failures: 2,
            cycle_repairs: vec![0xdef],
            cycle_rejections: Vec::new(),
            ..ServiceState::fresh(0x1234_5678_9abc_def0)
        }
    }

    #[test]
    fn state_round_trips() {
        let st = sample_state();
        let back = ServiceState::from_value(&st.to_value()).unwrap();
        // The codec is canonical: a decoded state re-encodes to the
        // identical document.
        assert_eq!(
            back.to_value().to_string_pretty(),
            st.to_value().to_string_pretty()
        );
        assert_eq!(back.seed, st.seed);
        assert_eq!(back.stage, st.stage);
        assert_eq!(back.records[0].degraded, st.records[0].degraded);
        let (c, p) = back.deployed.unwrap();
        assert_eq!(c, 1);
        assert_eq!(
            placement_fingerprint(&p),
            placement_fingerprint(&st.deployed.unwrap().1)
        );
    }

    #[test]
    fn malformed_states_are_typed_errors() {
        assert!(ServiceState::from_value(&Value::Null).is_err());
        assert!(ServiceState::from_value(&Value::Obj(vec![])).is_err());
        let mut v = sample_state().to_value();
        if let Value::Obj(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "stage" {
                    *val = Value::Str("no-such-stage".into());
                }
            }
        }
        let err = ServiceState::from_value(&v).unwrap_err();
        assert!(err.contains("stage"), "{err}");
    }
}
