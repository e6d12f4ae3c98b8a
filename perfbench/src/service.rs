//! `service`: the supervised placement daemon (`vod_ops::Service`) on
//! the quick operational world over 7 daily cycles, with the drill
//! configuration: per-cycle step budget of 3/4 of the scenario's pass
//! limit, a solver checkpoint every 3 passes, churn cap 64. One cycle
//! replays `service_drill`'s fault storm (VHO outage, link degrade,
//! flash crowd, admission on) and two `reconfig_drill` world deltas
//! land at cycles 1 and 2. Every schedule runs in a fresh state dir.

use crate::spans::Tracer;
use crate::stats::{mean, median, Report};
use crate::world;
use crate::{peak_rss_mb, timed_setup, Ctx, Watch};
use std::path::Path;
use std::time::Instant;
use vod_bench::{Defaults, Scale, Scenario};
use vod_estimate::{EstimateConfig, EstimatorKind};
use vod_json::faults::{self, FaultPlan};
use vod_json::snapshot::{peek_kind, read_snapshot, write_snapshot_atomic};
use vod_model::rng::derive_seed;
use vod_model::{LinkId, Mbps, VhoId};
use vod_ops::{
    DeltaOp, OpsConfig, OpsWorld, Service, ServiceConfig, ServicePlan, ServiceState, StageId,
    StepOutcome, WorldDelta,
};

const CYCLES: usize = 7;
/// Demand draws per run. Figures are averaged over draws: how many
/// passes a budgeted re-solve spends before it stops depends on the
/// draw (a schedule's wall varies by about 30 % between draws), so one
/// draw per run would measure the draw rather than the service.
const DRAWS: usize = 6;
const CHURN_CAP: usize = 64;
/// Cycle that replays the fault storm.
const STORM_CYCLE: usize = 1;

fn world_of(s: &Scenario) -> OpsWorld {
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

/// `reconfig_drill`'s deltas: link 0 halved and link 1 cut before
/// cycle 1; VHO 1 decommissioned and 8 videos appended before cycle 2.
fn deltas(seed: u64) -> Vec<WorldDelta> {
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
                DeltaOp::DecommissionVho { vho: VhoId::new(1) },
                DeltaOp::AppendVideos { count: 8 },
            ],
        },
    ]
}

fn config(s: &Scenario, w: &OpsWorld, threads: usize, dir: &Path) -> ServiceConfig {
    let epf = vod_core::EpfConfig {
        threads,
        gap_limit: Some(0.0),
        ..s.epf_config()
    };
    let budget = epf.step_limit.map(|l| l * 3 / 4);
    ServiceConfig {
        ops: OpsConfig {
            cycles: CYCLES,
            period_days: 1,
            start_day: 7,
            estimator: EstimatorKind::History,
            epf,
            max_attempts: 3,
            checkpoint_every: 3,
            backoff_base_ms: 250,
            validate_tol: 1e-6,
            simulate: true,
            state_dir: dir.to_path_buf(),
        },
        churn_cap: Some(CHURN_CAP),
        cycle_step_budget: budget,
        watchdog_budget: 64,
        cycle_faults: vec![(STORM_CYCLE, world::storm(w.trace.horizon()))],
        cycle_deltas: deltas(s.seed),
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Stage-indexed span names (`StageId::ALL` order).
const STAGE_SPANS: [&str; 5] = [
    "ops.estimate",
    "ops.solve",
    "ops.round",
    "ops.validate",
    "ops.simulate",
];

fn stage_span(stage: StageId) -> &'static str {
    let i = StageId::ALL
        .iter()
        .position(|&s| s == stage)
        .unwrap_or_default();
    STAGE_SPANS[i]
}

/// What one schedule leaves behind.
struct Schedule {
    state: ServiceState,
    wall_s: f64,
    cpu_s: f64,
    /// CPU seconds of each closed cycle.
    cycle_s: Vec<f64>,
    steps: usize,
    retries: usize,
    max_state_bytes: u64,
    writes: u64,
    reads: u64,
    write_ms: f64,
}

fn schedule(w: &OpsWorld, cfg: ServiceConfig, tr: &mut Tracer) -> Result<Schedule, String> {
    let dir = cfg.ops.state_dir.clone();
    let _ = std::fs::remove_dir_all(&dir);
    let traced = tr.enabled();
    // Count snapshot I/O through the storage shim (no faults planned).
    let shim = traced.then(|| faults::install(FaultPlan::default()));
    let run = tr.begin("service.schedule");
    let watch = Watch::start();
    let sp = tr.begin("ops.start");
    let svc = Service::resume_or_start(w, cfg, ServicePlan::default());
    tr.end(sp);
    let mut svc = match svc {
        Ok(svc) => svc,
        Err(e) => {
            tr.end(run);
            return Err(format!("service rejected its config: {e}"));
        }
    };
    let (mut cycle_s, mut cycle) = (Vec::new(), Watch::start());
    let (mut steps, mut retries, mut max_state_bytes) = (0, 0, 0);
    loop {
        let closed = svc.state().records.len();
        let sp = tr.begin(stage_span(svc.state().stage));
        let out = svc.step();
        tr.end(sp);
        steps += 1;
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                tr.end(run);
                return Err(format!("step {steps} aborted: {e}"));
            }
        };
        if traced {
            max_state_bytes = max_state_bytes.max(dir_bytes(&dir));
        }
        match out {
            StepOutcome::Finished => break,
            StepOutcome::AttemptFailed { .. } => retries += 1,
            StepOutcome::DeltaApplied { .. } => tr.relabel_last("ops.delta"),
            _ => {}
        }
        if svc.state().records.len() > closed {
            cycle_s.push(cycle.cpu_s());
            cycle = Watch::start();
        }
    }
    let (wall_s, cpu_s) = (watch.wall_s(), watch.cpu_s());
    tr.end(run);
    let (writes, reads) = shim
        .as_ref()
        .map_or((0, 0), |h| (h.writes_seen(), h.reads_seen()));
    drop(shim);
    let write_ms = if traced {
        snapshot_write_ms(&dir)?
    } else {
        0.0
    };
    let state = svc.state().clone();
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Schedule {
        state,
        wall_s,
        cpu_s,
        cycle_s,
        steps,
        retries,
        max_state_bytes,
        writes,
        reads,
        write_ms,
    })
}

/// Median wall of `write_snapshot_atomic` on the final `service.state`
/// payload, rewritten to a sibling file.
fn snapshot_write_ms(dir: &Path) -> Result<f64, String> {
    let path = dir.join("service.state");
    let (kind, version) = peek_kind(&path).map_err(|e| format!("service.state: {e}"))?;
    let payload =
        read_snapshot(&path, &kind, version).map_err(|e| format!("service.state: {e}"))?;
    let probe = dir.join("write-probe.snap");
    let mut ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        write_snapshot_atomic(&probe, &kind, version, &payload)
            .map_err(|e| format!("write probe: {e}"))?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&ms))
}

type CycleKey = Vec<(u64, u64)>;

pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    let mut tr = Tracer::new(ctx.trace, ctx.seed);
    let mut setup_s = Vec::new();
    let mut draws = Vec::new();
    for k in 0..DRAWS {
        let seed = derive_seed(ctx.seed, k as u64);
        let (cpu, (s, gen_s, paths_s)) = timed_setup(|| {
            let (s, gen_s, paths_s) = world::scenario(Scale::Quick, seed, &mut tr);
            let w = world_of(&s);
            ((s, w), gen_s, paths_s)
        });
        setup_s.push(cpu);
        draws.push((s, gen_s, paths_s));
    }

    // Schedules go round-robin over the draws; draw 0 runs again at the
    // end (untraced in the traced run) for the identity check and the
    // tracing-overhead comparison.
    let mut runs: Vec<Vec<Schedule>> = (0..DRAWS).map(|_| Vec::new()).collect();
    let mut first: Vec<Option<CycleKey>> = vec![None; DRAWS];
    let started = Instant::now();
    let mut done = 0;
    while ctx.more(started, done, DRAWS + 1) {
        let k = done % DRAWS;
        tr.set_enabled(ctx.trace && done < DRAWS);
        let ((s, w), ..) = &draws[k];
        let dir = ctx.scratch.join(format!("schedule-{done}"));
        let out = schedule(w, config(s, w, ctx.threads, &dir), &mut tr);
        done += 1;
        let sch = match out {
            Ok(sch) => sch,
            Err(e) => {
                rep.check(false, || format!("draw {k} schedule {done}: {e}"));
                continue;
            }
        };
        for r in &sch.state.records {
            let mut problems = Vec::new();
            if r.moved > CHURN_CAP {
                problems.push(format!("moved {} > churn cap {CHURN_CAP}", r.moved));
            }
            // A degraded cycle is the service's designed fallback: it keeps
            // serving the last good placement. It is an outcome, counted
            // in `ops.degraded`, not a failed check.
            if let Some(d) = &r.degraded {
                println!("# draw {k} cycle {} degraded: {d:?}", r.cycle);
            }
            if r.stale {
                problems.push("served stale".into());
            }
            rep.check(problems.is_empty(), || {
                format!("draw {k} cycle {}: {}", r.cycle, problems.join("; "))
            });
        }
        let key: CycleKey = sch
            .state
            .records
            .iter()
            .map(|r| (r.placement_fnv, r.denied))
            .collect();
        let expect = first[k].get_or_insert_with(|| key.clone());
        rep.check(*expect == key && key.len() == CYCLES, || {
            format!("draw {k}: per-cycle (placement fnv, denied) {key:x?} vs its first schedule {expect:x?}")
        });
        runs[k].push(sch);
    }
    tr.set_enabled(ctx.trace);
    if runs.iter().any(Vec::is_empty) {
        return rep;
    }

    // Per draw: median over its schedules of the mean closed-cycle time
    // (cycles differ in kind — the cold first solve, delta cycles, the
    // storm — so a per-cycle median would jump between kinds). The
    // reported value is the mean over draws.
    let per_draw: Vec<f64> = runs
        .iter()
        .map(|rs| median(&rs.iter().map(|r| mean(&r.cycle_s)).collect::<Vec<_>>()))
        .collect();
    rep.e2e("setup_s", "s", setup_s);
    rep.e2e_value("op_s", "s", mean(&per_draw), per_draw);
    rep.e2e("peak_rss_mb", "MB", vec![peak_rss_mb()]);

    if ctx.trace {
        let firsts: Vec<&Schedule> = runs.iter().map(|rs| &rs[0]).collect();
        let avg =
            |f: &dyn Fn(&Schedule) -> f64| mean(&firsts.iter().map(|r| f(r)).collect::<Vec<_>>());
        let sum_recs = |f: &dyn Fn(&vod_ops::ServiceRecord) -> f64| {
            avg(&|r: &Schedule| r.state.records.iter().map(f).sum())
        };
        let per_schedule = |name: &str| tr.total_s(name) / DRAWS as f64;
        let service_s = avg(&|r: &Schedule| r.wall_s);
        let mut stage_sum = 0.0;
        for (name, span) in [
            ("ops.start_s", "ops.start"),
            ("ops.estimate_s", STAGE_SPANS[0]),
            ("ops.solve_s", STAGE_SPANS[1]),
            ("ops.round_s", STAGE_SPANS[2]),
            ("ops.validate_s", STAGE_SPANS[3]),
            ("ops.simulate_s", STAGE_SPANS[4]),
            ("ops.delta_s", "ops.delta"),
        ] {
            stage_sum += per_schedule(span);
            rep.layer(name, "s", per_schedule(span));
        }
        rep.layer("ops.service_s", "s", service_s);
        rep.layer("ops.stage_sum_frac", "fraction", stage_sum / service_s);
        rep.layer("ops.steps", "count", avg(&|r: &Schedule| r.steps as f64));
        rep.layer(
            "ops.retries",
            "count",
            avg(&|r: &Schedule| r.retries as f64),
        );
        rep.layer(
            "ops.degraded",
            "count",
            sum_recs(&|r| f64::from(u8::from(r.degraded.is_some()))),
        );
        rep.layer("ops.moved", "count", sum_recs(&|r| r.moved as f64));
        rep.layer(
            "ops.deferred_max",
            "count",
            avg(&|r: &Schedule| {
                r.state
                    .records
                    .iter()
                    .map(|c| c.deferred)
                    .max()
                    .unwrap_or(0) as f64
            }),
        );
        rep.layer(
            "ops.repairs",
            "count",
            sum_recs(&|r| r.repairs.len() as f64),
        );
        rep.layer(
            "ops.denial_rate",
            "fraction",
            sum_recs(&|r| r.denied as f64)
                / sum_recs(&|r| r.sim.as_ref().map_or(0.0, |m| m.total_requests as f64)).max(1.0),
        );
        rep.layer(
            "placement.cost",
            "GB-hop",
            sum_recs(&|r| r.objective.unwrap_or(0.0)),
        );
        rep.layer(
            "placement.peak_link_mbps",
            "Mb/s",
            avg(&|r: &Schedule| {
                r.state
                    .records
                    .iter()
                    .filter_map(|c| c.sim.as_ref())
                    .map(|m| m.max_gbps * 1e3)
                    .fold(0.0, f64::max)
            }),
        );
        rep.layer("json.writes", "count", avg(&|r: &Schedule| r.writes as f64));
        rep.layer("json.reads", "count", avg(&|r: &Schedule| r.reads as f64));
        rep.layer(
            "json.state_bytes",
            "bytes",
            avg(&|r: &Schedule| r.max_state_bytes as f64),
        );
        rep.layer("json.write_ms", "ms", avg(&|r: &Schedule| r.write_ms));
        let d = &draws;
        rep.layer(
            "trace.generate_s",
            "s",
            mean(&d.iter().map(|x| x.1).collect::<Vec<_>>()),
        );
        rep.layer(
            "trace.requests",
            "count",
            mean(
                &d.iter()
                    .map(|x| x.0 .0.trace.len() as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        rep.layer(
            "net.paths_s",
            "s",
            mean(&d.iter().map(|x| x.2).collect::<Vec<_>>()),
        );
        // Draw 0 ran traced first and untraced last.
        rep.layer(
            "tracing.overhead_frac",
            "fraction",
            runs[0]
                .get(1)
                .map_or(f64::NAN, |u| runs[0][0].cpu_s / u.cpu_s - 1.0),
        );
        let all = runs.iter().flatten();
        rep.layer(
            "host.run_frac",
            "fraction",
            all.clone().map(|r| r.cpu_s).sum::<f64>() / all.map(|r| r.wall_s).sum::<f64>(),
        );
        crate::finish_trace(ctx, &tr, &mut rep);
    }
    rep
}
