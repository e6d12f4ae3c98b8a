//! Drill — the deterministic chaos harness for the supervised placement
//! service (robustness harness, not a paper table).
//!
//! Every scenario runs the one [`vod_ops::Service`] loop twice per drill
//! seed over the operational world:
//!
//! - **baseline**: uninterrupted,
//! - **chaos**: the identical config driven through the scenario's
//!   damage matrix. The service value is dropped on every simulated
//!   crash and rebuilt over the same state directory, with durable
//!   artifacts corrupted in between; each crash site fires once.
//!
//! and asserts the chaos twin's per-cycle deployed placements, denial
//! counts and feasibility-repair fingerprints are *byte-identical* to
//! the baseline's. The scenario table:
//!
//! - **oneshot** — the one-shot schedule: no churn cap, no per-cycle
//!   budget, an unbounded watchdog. Chaos: seeded mid-solve kills in
//!   cycles 0 and 1, the surviving solver checkpoint truncated after
//!   every other crash (torn write), one transient stage failure per
//!   cycle. A third run exhausts cycle 1's solve retries and must keep
//!   serving cycle 0's placement with a typed reason.
//! - **service** — the daemon: churn cap 64, a per-cycle budget of 3/4
//!   of the pass limit, a fault storm replayed in cycle 1. Chaos: a
//!   stage-boundary kill in every cycle (the stage rotates across
//!   seeds, covering all five), mid-solve kills in cycles 0 and 1,
//!   `service.state` torn inside its header after the first crash, the
//!   surviving cycle-0 checkpoint planted over cycle 1's (a foreign
//!   checkpoint the validator must refuse), bit rot in the fractional
//!   snapshot, one transient stage failure per cycle.
//! - **reconfig** — the daemon under live world deltas: link 0 halved
//!   and link 1 cut before cycle 1 (capacity-only: warm state is
//!   remapped), VHO 1 decommissioned and the catalog grown before
//!   cycle 2 (churn-capped feasibility repair). Chaos: the kill matrix
//!   and torn state above plus a snapshot-I/O fault storm (ENOSPC, torn
//!   writes, failed fsync, read EIO) through [`vod_json::faults`],
//!   which may only degrade cycles to typed `SnapshotUnavailable`.
//!
//! Emits `results/BENCH_drill.json`, one section per scenario —
//! counters and fingerprints only, no wall times (the service never
//! reads a clock).
use std::path::Path;
use vod_bench::{save_results, Defaults, Scale, Scenario};
use vod_estimate::{EstimateConfig, EstimatorKind};
use vod_json::faults::{self, FaultPlan as IoFaultPlan, IoFault};
use vod_json::{obj, Value};
use vod_model::rng::derive_seed;
use vod_model::{LinkId, Mbps, SimTime, VhoId};
use vod_ops::{
    DegradeReason, DeltaOp, OpsConfig, OpsWorld, RecoveryAction, Service, ServiceConfig,
    ServicePlan, ServiceRecord, ServiceState, StageId, StepOutcome, WorldDelta,
};
use vod_sim::{FaultEvent, FaultKind, FaultSchedule};

/// Cycles per schedule.
const CYCLES: usize = 3;

/// Videos appended by the reconfig scenario's cycle-2 delta.
const GROWTH: usize = 8;

/// Snapshot container header for the `ops-service` kind: 8B magic +
/// 1B kind-len + kind + 4B version + 8B payload-len + 8B checksum.
/// Torn-write offsets are drawn inside this range.
const SERVICE_HEADER_LEN: u64 = (8 + 1 + vod_ops::SERVICE_KIND.len() + 4 + 8 + 8) as u64;

/// Copies the daemon scenarios may move per cycle — shared by
/// scheduled deploys and delta-triggered feasibility repair.
const CHURN_CAP: usize = 64;

/// The scenario table (see the module docs for each row's knobs and
/// damage matrix).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Drill {
    OneShot,
    Service,
    Reconfig,
}

const DRILLS: [Drill; 3] = [Drill::OneShot, Drill::Service, Drill::Reconfig];

impl Drill {
    fn name(self) -> &'static str {
        match self {
            Drill::OneShot => "oneshot",
            Drill::Service => "service",
            Drill::Reconfig => "reconfig",
        }
    }

    /// Independent worlds; in the daemon scenarios the stage-kill
    /// rotation across them covers all five stages.
    fn seeds(self) -> &'static [u64] {
        match self {
            Drill::OneShot => &[2010],
            Drill::Service => &[2010, 2011, 2012],
            Drill::Reconfig => &[2020, 2021, 2022],
        }
    }

    /// Daemon knobs: churn cap [`CHURN_CAP`], a per-cycle budget of 3/4
    /// of the scenario's pass limit (tight enough to exercise the
    /// budget path, loose enough to stay serviceable; counted in
    /// passes, never wall time), a 64-tick watchdog, and the kill
    /// matrix with the torn state header. Off: the one-shot schedule.
    fn daemon(self) -> bool {
        self != Drill::OneShot
    }

    fn churn_cap(self) -> Option<usize> {
        self.daemon().then_some(CHURN_CAP)
    }
}

fn world(s: &Scenario) -> OpsWorld {
    let d = Defaults::for_scale(s.scale);
    let mut net = s.net.clone();
    net.set_uniform_capacity(Mbps::from_gbps(d.link_gbps));
    OpsWorld {
        net,
        paths: s.paths.clone(),
        catalog: s.catalog.clone(),
        trace: s.trace.clone(),
        disks: s.full_disks(&d),
        mip_disk: s.mip_disk(&d),
        est: EstimateConfig {
            window_secs: d.window_secs,
            n_windows: d.n_windows,
        },
    }
}

/// Cycle 1's replay storm: one VHO dark for the whole window, one
/// backbone link at quarter capacity, demand doubled everywhere, with
/// admission control on. Identical in both twins — faults may change
/// what is *denied*, never what is *placed*.
fn storm(horizon: SimTime) -> FaultSchedule {
    let whole = |kind| FaultEvent {
        start: SimTime::new(0),
        end: horizon,
        kind,
    };
    FaultSchedule {
        events: vec![
            // lint:allow(raw-index): the storm darkens VHO 1 by convention
            whole(FaultKind::VhoOutage { vho: VhoId::new(1) }),
            whole(FaultKind::LinkDegrade {
                link: LinkId::new(0),
                capacity_scale: 0.25,
            }),
            whole(FaultKind::FlashCrowd {
                vho: None,
                multiplier: 2,
            }),
        ],
        admission: true,
    }
}

/// The reconfiguration storm both twins replay: a capacity-only
/// squeeze (remap eligible — warm solver state survives) before cycle
/// 1, then a topology+catalog delta (repair required) before cycle 2.
fn world_deltas(seed: u64) -> Vec<WorldDelta> {
    vec![
        WorldDelta {
            cycle: 1,
            seed,
            ops: vec![
                DeltaOp::ScaleLink {
                    link: LinkId::new(0),
                    factor: 0.5,
                },
                DeltaOp::CutLink {
                    link: LinkId::new(1),
                },
            ],
        },
        WorldDelta {
            cycle: 2,
            seed,
            ops: vec![
                // lint:allow(raw-index): the drill darkens VHO 1 by convention
                DeltaOp::DecommissionVho { vho: VhoId::new(1) },
                DeltaOp::AppendVideos { count: GROWTH },
            ],
        },
    ]
}

/// The snapshot-I/O fault storm: scattered write faults (flavour
/// rotating through ENOSPC, torn partial writes, failed fsync) and two
/// read-EIO faults, all fired by deterministic operation index across
/// the whole chaos run — constructions, crashes and rebuilds share one
/// counter.
fn io_storm() -> IoFaultPlan {
    let flavours = [
        IoFault::WriteEnospc,
        IoFault::WritePartial { keep: 7 },
        IoFault::FsyncFail,
    ];
    IoFaultPlan {
        writes: [3u64, 7, 11, 19, 31, 43]
            .iter()
            .enumerate()
            .map(|(i, &at)| (at, flavours[i % flavours.len()]))
            .collect(),
        reads: vec![2, 6],
    }
}

fn config(d: Drill, s: &Scenario, w: &OpsWorld, dir: &Path) -> ServiceConfig {
    let epf = s.epf_config();
    let budget = epf.step_limit.filter(|_| d.daemon()).map(|l| l * 3 / 4);
    ServiceConfig {
        ops: OpsConfig {
            cycles: CYCLES,
            period_days: match s.scale {
                Scale::Quick => 2,
                _ => 7,
            },
            start_day: 7,
            estimator: EstimatorKind::History,
            // The scenario config budgets via the deterministic
            // `step_limit` (never `wall_limit`), which checkpoint resume
            // preserves — a prerequisite for the identity assertions.
            epf,
            max_attempts: 3,
            checkpoint_every: 3,
            backoff_base_ms: 250,
            validate_tol: 1e-6,
            simulate: true,
            state_dir: dir.to_path_buf(),
        },
        churn_cap: d.churn_cap(),
        cycle_step_budget: budget,
        watchdog_budget: if d.daemon() { 64 } else { u64::MAX },
        cycle_faults: if d == Drill::Service {
            vec![(1, storm(w.trace.horizon()))]
        } else {
            Vec::new()
        },
        cycle_deltas: if d == Drill::Reconfig {
            world_deltas(s.seed)
        } else {
            Vec::new()
        },
    }
}

/// The chaos twin's kill and failure plan: one transient failure per
/// cycle at a seeded stage (attempt 0 only — the retry then succeeds)
/// outside the reconfig scenario, mid-solve kills in cycles 0 and 1,
/// and in the daemon scenarios a stage-boundary kill in every cycle.
/// `rotate` shifts the killed stage per seed.
fn chaos_plan(d: Drill, seed: u64, rotate: usize) -> ServicePlan {
    let stages = StageId::ALL;
    let fail = if d != Drill::Reconfig {
        (0..CYCLES)
            .map(|c| {
                let pick = derive_seed(seed, 0xFA11 ^ c as u64) % stages.len() as u64;
                (c, stages[usize::try_from(pick).expect("pick < 5")], 0)
            })
            .collect()
    } else {
        Vec::new()
    };
    let kill_at_stage = if d.daemon() {
        (0..CYCLES)
            .map(|c| (c, stages[(c + rotate) % stages.len()]))
            .collect()
    } else {
        Vec::new()
    };
    let kill_mid_solve = (0..2)
        .map(|c| {
            let keep = if d.daemon() {
                1
            } else {
                derive_seed(seed, 0x6111 ^ c as u64) % 3
            };
            (c, keep)
        })
        .collect();
    ServicePlan {
        fail,
        kill_at_stage,
        kill_mid_solve,
    }
}

/// What one schedule leaves behind.
struct Twin {
    state: ServiceState,
    crashes: u64,
    deltas_seen: usize,
    catalog_len: usize,
    dark_vho1: bool,
    io_writes_seen: u64,
    io_reads_seen: u64,
    damaged: Damaged,
}

/// The one-off damages a chaos run actually inflicted.
#[derive(Clone, Copy, Default)]
struct Damaged {
    state_torn: bool,
    checkpoint_planted: bool,
}

/// Run one schedule to completion in a fresh state directory. With
/// `chaos`, every simulated crash drops the service value, retires the
/// kill that fired, applies the drill's damage to the durable
/// artifacts and rebuilds the service over them.
fn run(
    d: Drill,
    s: &Scenario,
    w: &OpsWorld,
    tag: &str,
    mut plan: ServicePlan,
    chaos: bool,
) -> Twin {
    let dir = std::env::temp_dir().join(format!(
        "vod_drill_{}_{}_{}_{tag}",
        std::process::id(),
        d.name(),
        s.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let shim = faults::install(if chaos && d == Drill::Reconfig {
        io_storm()
    } else {
        IoFaultPlan::default()
    });
    let (mut crashes, mut deltas_seen) = (0u64, 0usize);
    let mut stash: Vec<u8> = Vec::new();
    let mut damaged = Damaged::default();
    loop {
        let mut svc = Service::resume_or_start(w, config(d, s, w, &dir), plan.clone())
            .expect("drill config is valid");
        let crashed_at = loop {
            match svc.step().expect("cycle trouble degrades, it never aborts") {
                StepOutcome::SimulatedCrash { cycle } => break Some(cycle),
                StepOutcome::DeltaApplied { .. } => deltas_seen += 1,
                StepOutcome::Finished => break None,
                _ => {}
            }
        };
        let Some(cycle) = crashed_at else {
            let twin = Twin {
                state: svc.state().clone(),
                crashes,
                deltas_seen,
                catalog_len: svc.world().catalog.len(),
                dark_vho1: svc.dark_mask()[1],
                io_writes_seen: shim.writes_seen(),
                io_reads_seen: shim.reads_seen(),
                damaged,
            };
            let _ = std::fs::remove_dir_all(&dir);
            return twin;
        };
        crashes += 1;
        // A stage kill fires before anything runs, so the durable stage
        // still names the crash site: that tells stage kills from
        // mid-solve kills. Retire the one that fired.
        let stage = svc.state().stage;
        let mid_solve = !plan.kill_at_stage.contains(&(cycle, stage));
        if mid_solve {
            plan.kill_mid_solve.retain(|&(c, _)| c != cycle);
        } else {
            plan.kill_at_stage.retain(|&k| k != (cycle, stage));
        }
        damage(
            d,
            s.seed,
            &dir,
            crashes,
            mid_solve.then_some(cycle),
            &mut stash,
            &mut damaged,
        );
    }
}

/// Damage the crashed run's durable artifacts as the drill prescribes
/// and record the one-off damages in `damaged`. `solve_kill` names the
/// cycle when the crash was a mid-solve kill.
fn damage(
    d: Drill,
    seed: u64,
    dir: &Path,
    crashes: u64,
    solve_kill: Option<usize>,
    stash: &mut Vec<u8>,
    damaged: &mut Damaged,
) {
    let ckpt = dir.join("solver.ckpt");
    match solve_kill {
        // Stash the surviving cycle-0 checkpoint: it becomes the
        // *foreign* checkpoint planted over cycle 1's.
        Some(0) if d == Drill::Service => {
            *stash = std::fs::read(&ckpt).unwrap_or_default();
        }
        // Cycle 1 resumes against a checkpoint written for cycle 0:
        // the validator must refuse it and fall through to a cold
        // solve.
        Some(_) if d == Drill::Service && !stash.is_empty() => {
            // lint:allow(snapshot-io): deliberately planting a foreign checkpoint
            std::fs::write(&ckpt, &stash).expect("plant checkpoint");
            damaged.checkpoint_planted = true;
        }
        _ => {}
    }
    if !d.daemon() && crashes % 2 == 1 {
        // Torn checkpoint write: the service must fall back to a cold
        // (still deterministic) solve instead of resuming.
        if let Ok(bytes) = std::fs::read(&ckpt) {
            if bytes.len() > 8 {
                // lint:allow(snapshot-io): deliberately tearing the checkpoint to test recovery
                std::fs::write(&ckpt, &bytes[..bytes.len() / 2]).expect("truncate checkpoint");
            }
        }
    }
    if d.daemon() && crashes == 1 {
        // Torn write: only a seeded prefix of the service-state header
        // survives the first crash. The rebuild must cold restart and
        // deterministically replay the schedule.
        let path = dir.join("service.state");
        let bytes = std::fs::read(&path).expect("state file exists");
        let cut =
            usize::try_from(derive_seed(seed, 0x7EA2) % SERVICE_HEADER_LEN).expect("cut < header");
        // lint:allow(snapshot-io): deliberately tearing the state file to test recovery
        std::fs::write(&path, &bytes[..cut.min(bytes.len())]).expect("tear state file");
        damaged.state_torn = true;
    }
    if d == Drill::Service && crashes == 3 {
        // Bit rot in the fractional snapshot (when one survived the
        // crash): the round stage must reject it and retreat to a
        // fresh — still deterministic — solve.
        let path = dir.join("fractional.snap");
        if let Ok(mut bytes) = std::fs::read(&path) {
            if let Some(b) = bytes.last_mut() {
                *b ^= 0x20;
            }
            // lint:allow(snapshot-io): deliberately corrupting the snapshot to test recovery
            std::fs::write(&path, &bytes).expect("corrupt fractional snapshot");
        }
    }
}

fn fingerprints(st: &ServiceState) -> Vec<u64> {
    st.records.iter().map(|r| r.placement_fnv).collect()
}

fn denials(st: &ServiceState) -> Vec<u64> {
    st.records.iter().map(|r| r.denied).collect()
}

fn repairs(st: &ServiceState) -> Vec<Vec<u64>> {
    st.records.iter().map(|r| r.repairs.clone()).collect()
}

/// Twin-shared assertions: every cycle deploys within the churn cap
/// (repair included) with a bound below its objective, the bootstrap
/// is a free bulk load, and the only tolerated degradation is typed
/// snapshot unavailability under an I/O storm.
fn check_twin(d: Drill, t: &Twin, who: &str, io_faults_allowed: bool) {
    for r in &t.state.records {
        match r.degraded.as_ref() {
            None => {}
            Some(DegradeReason::SnapshotUnavailable { .. }) if io_faults_allowed => {}
            Some(other) => panic!("{who}: cycle {} degraded: {other:?}", r.cycle),
        }
        assert!(!r.stale, "{who}: cycle {} served stale", r.cycle);
        assert_ne!(
            r.placement_fnv, 0,
            "{who}: cycle {} deployed nothing",
            r.cycle
        );
        if let Some(cap) = d.churn_cap() {
            assert!(
                r.moved <= cap,
                "{who}: cycle {} moved {} > cap {cap}",
                r.cycle,
                r.moved
            );
        }
        if let (Some(o), Some(l)) = (r.objective, r.lower_bound) {
            assert!(
                l <= o * (1.0 + 1e-9),
                "{who}: cycle {} bound {l} above objective {o}",
                r.cycle
            );
        }
    }
    assert_eq!(
        t.state.records.first().map(|r| r.moved),
        Some(0),
        "{who}: bootstrap deployment must be a free bulk load"
    );
    if d == Drill::Reconfig {
        assert!(t.dark_vho1, "{who}: VHO 1 must end storage-dark");
        // The capacity-only delta carried warm state across: recorded
        // as a typed warm-remap recovery on its cycle.
        assert!(
            t.state
                .records
                .iter()
                .any(|r| r.recoveries.contains(&RecoveryAction::WarmRemap)),
            "{who}: capacity-only delta must record a warm-remap"
        );
        // The decommission forced a feasibility repair under the cap.
        assert!(
            t.state.records.iter().any(|r| !r.repairs.is_empty()),
            "{who}: darkening a serving VHO must fingerprint a repair plan"
        );
    }
}

fn reason_str(r: &DegradeReason) -> String {
    match r {
        DegradeReason::StageFailed {
            stage, attempts, ..
        } => format!("stage-failed:{stage}:{attempts}"),
        DegradeReason::ValidationFailed { .. } => "validation-failed".into(),
        DegradeReason::Stalled { stage, .. } => format!("stalled:{stage}"),
        DegradeReason::SnapshotUnavailable { failures, .. } => {
            format!("snapshot-unavailable:{failures}")
        }
    }
}

fn hex(f: u64) -> Value {
    Value::Str(format!("{f:016x}"))
}

fn strs<T: AsRef<str>>(items: impl IntoIterator<Item = T>) -> Value {
    Value::Arr(
        items
            .into_iter()
            .map(|s| Value::Str(s.as_ref().to_string()))
            .collect(),
    )
}

fn ledger(st: &ServiceState) -> Value {
    let row = |r: &ServiceRecord| {
        obj(vec![
            ("cycle", Value::Num(r.cycle as f64)),
            (
                "degraded",
                r.degraded
                    .as_ref()
                    .map_or(Value::Null, |d| Value::Str(reason_str(d))),
            ),
            ("recoveries", strs(r.recoveries.iter().map(|a| a.name()))),
            ("attempts", Value::Num(f64::from(r.attempts))),
            ("backoff_ms", Value::Num(r.backoff_ms as f64)),
            ("solver_resumes", Value::Num(f64::from(r.solver_resumes))),
            ("placement_fnv", hex(r.placement_fnv)),
            ("objective", r.objective.map_or(Value::Null, Value::Num)),
            ("lower_bound", r.lower_bound.map_or(Value::Null, Value::Num)),
            (
                "gap",
                match (r.objective, r.lower_bound) {
                    (Some(o), Some(l)) if l > 0.0 => Value::Num(o / l - 1.0),
                    _ => Value::Null,
                },
            ),
            ("moved", Value::Num(r.moved as f64)),
            ("deferred", Value::Num(r.deferred as f64)),
            ("denied", Value::Num(r.denied as f64)),
            ("denial_rate", r.denial_rate.map_or(Value::Null, Value::Num)),
            ("stale", Value::Bool(r.stale)),
            (
                "sim",
                r.sim.as_ref().map_or(Value::Null, |m| {
                    obj(vec![
                        ("max_gbps", Value::Num(m.max_gbps)),
                        ("local_frac", Value::Num(m.local_frac)),
                        ("total_requests", Value::Num(m.total_requests as f64)),
                    ])
                }),
            ),
            (
                "repairs",
                Value::Arr(r.repairs.iter().map(|&f| hex(f)).collect()),
            ),
            ("rejections", strs(&r.rejections)),
        ])
    };
    obj(vec![
        ("records", Value::Arr(st.records.iter().map(row).collect())),
        ("resumes", Value::Num(st.resumes as f64)),
        ("cold_restarts", Value::Num(st.cold_restarts as f64)),
        ("stale_serves", Value::Num(st.stale_serves as f64)),
        ("queue_len", Value::Num(st.deferred.len() as f64)),
        ("snapshot_failures", Value::Num(st.snapshot_failures as f64)),
    ])
}

/// Run one scenario over its seeds, assert its contract, and return
/// its `BENCH_drill.json` section.
fn run_drill(d: Drill, scale: Scale) -> Value {
    let mut seed_rows = Vec::new();
    let mut stages_covered: Vec<StageId> = Vec::new();
    let mut all_identical = true;
    for (rotate, &seed) in d.seeds().iter().enumerate() {
        let s = Scenario::operational(scale, seed);
        let w = world(&s);
        let grown = w.catalog.len() + GROWTH;

        let base = run(d, &s, &w, "base", ServicePlan::default(), false);
        check_twin(d, &base, "baseline", false);
        assert_eq!(base.crashes, 0);
        assert_eq!(base.state.cold_restarts, 0, "baseline never cold-restarts");

        let plan = chaos_plan(d, seed, rotate);
        let kills = (plan.kill_at_stage.len() + plan.kill_mid_solve.len()) as u64;
        let stages_killed: Vec<StageId> = plan.kill_at_stage.iter().map(|&(_, st)| st).collect();
        for st in &stages_killed {
            if !stages_covered.contains(st) {
                stages_covered.push(*st);
            }
        }
        let chaos = run(d, &s, &w, "chaos", plan, true);
        check_twin(d, &chaos, "chaos", d == Drill::Reconfig);
        assert_eq!(
            chaos.crashes, kills,
            "seed {seed}: every planned kill fires once"
        );
        assert!(
            chaos.state.resumes >= 2,
            "seed {seed}: rebuilds must resume"
        );
        assert_eq!(
            chaos.state.cold_restarts,
            u64::from(d.daemon()),
            "seed {seed}: only the torn state may cold-restart"
        );
        assert_eq!(
            (chaos.damaged.state_torn, chaos.damaged.checkpoint_planted),
            (d.daemon(), d == Drill::Service),
            "seed {seed}: damage matrix incomplete"
        );
        let recoveries: Vec<RecoveryAction> = chaos
            .state
            .records
            .iter()
            .flat_map(|r| r.recoveries.iter().copied())
            .collect();
        assert!(
            recoveries.contains(&RecoveryAction::WarmResume),
            "seed {seed}: a mid-solve kill must warm-resume from its checkpoint"
        );
        if d == Drill::Service {
            assert!(
                recoveries.contains(&RecoveryAction::ColdSolve),
                "seed {seed}: the foreign checkpoint must be refused into a cold solve"
            );
        }
        if d == Drill::Reconfig {
            assert_eq!(base.deltas_seen, 2, "baseline applies each delta once");
            // Replays may re-apply a delta whose transition was lost
            // with the crash — never fewer applications than scheduled.
            assert!(chaos.deltas_seen >= 2, "seed {seed}: deltas lost");
            assert_eq!(base.catalog_len, grown, "baseline catalog must grow");
            assert_eq!(chaos.catalog_len, grown, "seed {seed}: catalog");
            // Every scheduled I/O fault actually fired.
            assert!(chaos.io_writes_seen > 43, "seed {seed}: write storm idle");
            assert!(chaos.io_reads_seen > 6, "seed {seed}: read storm idle");
        }

        let identical = fingerprints(&chaos.state) == fingerprints(&base.state)
            && denials(&chaos.state) == denials(&base.state)
            && repairs(&chaos.state) == repairs(&base.state);
        assert!(
            identical,
            "seed {seed}: chaos run diverged from its uninterrupted twin:\n  \
             base  {:x?} denied {:?} repairs {:x?}\n  chaos {:x?} denied {:?} repairs {:x?}",
            fingerprints(&base.state),
            denials(&base.state),
            repairs(&base.state),
            fingerprints(&chaos.state),
            denials(&chaos.state),
            repairs(&chaos.state),
        );
        all_identical &= identical;

        let mut row = vec![
            ("seed", Value::Num(seed as f64)),
            ("identical", Value::Bool(identical)),
            ("crashes", Value::Num(chaos.crashes as f64)),
            (
                "stages_killed",
                strs(stages_killed.iter().map(|st| st.name())),
            ),
            ("state_torn", Value::Bool(chaos.damaged.state_torn)),
            (
                "foreign_checkpoint_planted",
                Value::Bool(chaos.damaged.checkpoint_planted),
            ),
            ("deltas_applied", Value::Num(chaos.deltas_seen as f64)),
            ("catalog_len", Value::Num(chaos.catalog_len as f64)),
            ("io_writes_seen", Value::Num(chaos.io_writes_seen as f64)),
            ("io_reads_seen", Value::Num(chaos.io_reads_seen as f64)),
            ("baseline", ledger(&base.state)),
            ("chaos", ledger(&chaos.state)),
        ];
        if d == Drill::OneShot {
            // Cycle 1's solve fails every allowed attempt: the cycle
            // keeps serving cycle 0's placement, replayed and typed.
            let plan = ServicePlan {
                fail: (0..3).map(|a| (1, StageId::Solve, a)).collect(),
                ..ServicePlan::default()
            };
            let deg = run(d, &s, &w, "degraded", plan, false).state;
            let bad = &deg.records[1];
            assert!(
                matches!(
                    bad.degraded,
                    Some(DegradeReason::StageFailed {
                        stage: StageId::Solve,
                        ..
                    })
                ),
                "cycle 1 must degrade on the solve stage, got {:?}",
                bad.degraded
            );
            assert_eq!(
                bad.placement_fnv, deg.records[0].placement_fnv,
                "degraded cycle must serve the previous cycle's placement"
            );
            assert!(bad.recoveries.contains(&RecoveryAction::LastGood));
            assert!(bad.sim.is_some(), "the served window is replayed");
            row.push(("degraded", ledger(&deg)));
        }
        seed_rows.push(obj(row));

        println!(
            "drill {} seed {seed}: {} cycles | crashes {} (stages {:?}) | deltas {} | \
             cold restarts {} | snapshot failures {} | identical to twin: {identical}",
            d.name(),
            chaos.state.records.len(),
            chaos.crashes,
            stages_killed.iter().map(|st| st.name()).collect::<Vec<_>>(),
            chaos.deltas_seen,
            chaos.state.cold_restarts,
            chaos.state.snapshot_failures,
        );
    }

    if d.daemon() {
        assert_eq!(
            stages_covered.len(),
            StageId::ALL.len(),
            "{}: the rotation must kill every stage at least once across seeds",
            d.name()
        );
    }
    obj(vec![
        (
            "churn_cap",
            d.churn_cap().map_or(Value::Null, |c| Value::Num(c as f64)),
        ),
        ("identical_after_chaos", Value::Bool(all_identical)),
        (
            "stages_covered",
            strs(stages_covered.iter().map(|st| st.name())),
        ),
        ("seeds", Value::Arr(seed_rows)),
    ])
}

fn main() {
    let scale = Scale::from_args();
    let mut sections = vec![("scale", Value::Str(format!("{scale:?}").to_lowercase()))];
    for d in DRILLS {
        sections.push((d.name(), run_drill(d, scale)));
    }
    save_results("BENCH_drill", &obj(sections));
}
