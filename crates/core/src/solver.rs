//! The end-to-end placement pipeline: EPF fractional solve + rounding.
//!
//! Both entry points return `Result` with a typed [`SolveError`]:
//! malformed configs and provably-infeasible instances are rejected up
//! front, while budget-limited solves come back `Ok` with
//! `epf.converged == false` and honest gap statistics — an operational
//! re-solve loop must never abort. [`resolve_from`] warm-starts from a
//! previous placement, modeling the paper's incremental placement
//! updates (Section VII-H / eq. (11)) after a fault or demand shift.

use crate::checkpoint::SolverCheckpoint;
use crate::epf::{
    solve_fractional_driven, solve_fractional_seeded, CheckpointSpec, EpfConfig, EpfStats,
};
use crate::error::SolveError;
use crate::instance::MipInstance;
use crate::rounding::{round_solution, RoundingStats};
use crate::solution::{FractionalSolution, Placement};

/// Result of a complete placement computation.
#[derive(Debug, Clone)]
pub struct PlacementOutput {
    pub placement: Placement,
    pub fractional: FractionalSolution,
    pub epf: EpfStats,
    pub rounding: RoundingStats,
}

impl PlacementOutput {
    /// Whether the ε-criteria were met within the budgets. A `false`
    /// here is a *degraded incumbent*, not a failure: the placement is
    /// usable and its gaps are reported.
    pub fn converged(&self) -> bool {
        self.epf.converged
    }

    /// Worst relative coupling-constraint violation of the integer
    /// placement (0 = fully feasible).
    pub fn feasibility_gap(&self) -> f64 {
        self.rounding.max_violation
    }

    /// Relative gap between the integer objective and the certified
    /// Lagrangian lower bound (`None` when the run produced no bound,
    /// e.g. a budget-truncated solve that never priced one).
    pub fn optimality_gap(&self) -> Option<f64> {
        self.rounding.optimality_gap
    }
}

/// Reject out-of-domain solver parameters before any work happens.
fn validate(inst: &MipInstance, cfg: &EpfConfig) -> Result<(), SolveError> {
    if inst.n_videos() == 0 {
        return Err(SolveError::EmptyInstance);
    }
    let bad = |what: String| Err(SolveError::InvalidConfig { what });
    if !cfg.epsilon.is_finite() || cfg.epsilon <= 0.0 {
        return bad(format!(
            "epsilon must be finite and > 0 (got {})",
            cfg.epsilon
        ));
    }
    if !cfg.gamma.is_finite() || cfg.gamma <= 0.0 {
        return bad(format!("gamma must be finite and > 0 (got {})", cfg.gamma));
    }
    if !cfg.rho.is_finite() || !(0.0..1.0).contains(&cfg.rho) {
        return bad(format!("rho must be in [0, 1) (got {})", cfg.rho));
    }
    if cfg.lb_every == 0 {
        return bad("lb_every must be >= 1".to_string());
    }
    if cfg.max_passes == 0 {
        return bad("max_passes must be >= 1".to_string());
    }
    inst.quick_feasibility_check()
        .map_err(|reason| SolveError::Infeasible { reason })
}

/// Solve the placement MIP end-to-end: LP relaxation via the EPF
/// decomposition (Section V-C), then the sequential integer rounding
/// pass (Section V-D).
pub fn solve_placement(inst: &MipInstance, cfg: &EpfConfig) -> Result<PlacementOutput, SolveError> {
    validate(inst, cfg)?;
    let (fractional, epf) = solve_fractional_seeded(inst, cfg, None);
    let (placement, rounding) = round_solution(inst, &fractional, cfg.gamma, cfg.kernel);
    Ok(PlacementOutput {
        placement,
        fractional,
        epf,
        rounding,
    })
}

/// Re-solve after the world changed (a fault, a demand shift, a new
/// library week), warm-starting from `prev`: every video's block opens
/// at its previous holders and the EPF passes repair from there, so
/// mild perturbations converge in far fewer passes than a cold solve.
/// Pair with a [`crate::instance::PlacementCost`]-carrying instance to
/// also *charge* for migrations (eq. (11)).
pub fn resolve_from(
    inst: &MipInstance,
    prev: &Placement,
    cfg: &EpfConfig,
) -> Result<PlacementOutput, SolveError> {
    validate(inst, cfg)?;
    if prev.n_videos() != inst.n_videos() {
        return Err(SolveError::MismatchedWarmStart {
            prev_videos: prev.n_videos(),
            instance_videos: inst.n_videos(),
        });
    }
    let (fractional, epf) = solve_fractional_seeded(inst, cfg, Some(prev));
    let (placement, rounding) = round_solution(inst, &fractional, cfg.gamma, cfg.kernel);
    Ok(PlacementOutput {
        placement,
        fractional,
        epf,
        rounding,
    })
}

/// [`solve_placement`] with periodic [`SolverCheckpoint`] emission:
/// every `spec.every` global passes that survive a pass boundary, the
/// complete resumable solver state is handed to `spec.sink`. Feed the
/// last such checkpoint to [`solve_resumable`] after a crash and the
/// final placement is bitwise-identical to the uninterrupted run.
pub fn solve_placement_checkpointed(
    inst: &MipInstance,
    cfg: &EpfConfig,
    spec: CheckpointSpec<'_>,
) -> Result<PlacementOutput, SolveError> {
    validate(inst, cfg)?;
    let (fractional, epf) = solve_fractional_driven(inst, cfg, None, None, Some(spec));
    let (placement, rounding) = round_solution(inst, &fractional, cfg.gamma, cfg.kernel);
    Ok(PlacementOutput {
        placement,
        fractional,
        epf,
        rounding,
    })
}

/// Continue an interrupted solve from a checkpoint. The checkpoint is
/// validated against this (instance, config) pair first — a stale or
/// mismatched one is a typed [`SolveError::MismatchedCheckpoint`],
/// never a corrupt resume. Optionally keeps emitting new checkpoints.
pub fn solve_resumable(
    inst: &MipInstance,
    cfg: &EpfConfig,
    ckpt: &SolverCheckpoint,
    spec: Option<CheckpointSpec<'_>>,
) -> Result<PlacementOutput, SolveError> {
    validate(inst, cfg)?;
    ckpt.validate_for(inst, cfg)
        .map_err(|what| SolveError::MismatchedCheckpoint { what })?;
    let (fractional, epf) = solve_fractional_driven(inst, cfg, None, Some(ckpt), spec);
    let (placement, rounding) = round_solution(inst, &fractional, cfg.gamma, cfg.kernel);
    Ok(PlacementOutput {
        placement,
        fractional,
        epf,
        rounding,
    })
}

/// How a cycle's fractional solve actually started — reported by
/// [`solve_cycle_fractional`] so a supervising service loop can log
/// its recovery action instead of guessing from side effects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeKind {
    /// A validated mid-solve checkpoint was resumed.
    Checkpoint,
    /// Cold trajectory seeded from a previous placement (warm start).
    WarmStart,
    /// Cold trajectory with no prior information.
    Cold,
    /// A prior checkpoint was presented but failed validation and was
    /// discarded; the solve fell through to the warm/cold trajectory.
    /// `reason` is the typed validation message, so callers can
    /// distinguish a *foreign* artifact (fingerprint mismatch) from a
    /// *remap-eligible* one (axes intact, capacities moved) instead of
    /// losing the evidence to a silent discard.
    Rejected { reason: String },
}

impl ResumeKind {
    pub fn name(&self) -> &'static str {
        match self {
            ResumeKind::Checkpoint => "checkpoint",
            ResumeKind::WarmStart => "warm-start",
            ResumeKind::Cold => "cold",
            ResumeKind::Rejected { .. } => "rejected",
        }
    }
}

/// One service-cycle fractional solve with the warm-resume ladder
/// folded in: a validated `prior` checkpoint resumes mid-solve; a
/// stale or mismatched one is *discarded* (the caller deletes the
/// durable file when the returned kind is not
/// [`ResumeKind::Checkpoint`]), the typed validation reason is
/// surfaced as [`ResumeKind::Rejected`], and the solve falls through
/// to a cold trajectory seeded from `warm` — never a hard error,
/// because the resume contract guarantees both legs land on the same
/// bits as the uninterrupted run.
///
/// A `warm` placement *shorter* than the instance's video axis is
/// accepted: the world's catalog is append-only, so the missing tail
/// videos simply open at their initial blocks (no history to carry).
/// A warm placement *longer* than the instance is a genuine shape
/// mismatch and is rejected.
pub fn solve_cycle_fractional(
    inst: &MipInstance,
    cfg: &EpfConfig,
    prior: Option<&SolverCheckpoint>,
    warm: Option<&Placement>,
    spec: Option<CheckpointSpec<'_>>,
) -> Result<(FractionalSolution, EpfStats, ResumeKind), SolveError> {
    validate(inst, cfg)?;
    let mut rejected: Option<String> = None;
    if let Some(ckpt) = prior {
        match ckpt.validate_for(inst, cfg) {
            Ok(()) => {
                let (frac, epf) = solve_fractional_driven(inst, cfg, None, Some(ckpt), spec);
                return Ok((frac, epf, ResumeKind::Checkpoint));
            }
            Err(reason) => rejected = Some(reason),
        }
    }
    if let Some(prev) = warm {
        if prev.n_videos() > inst.n_videos() {
            return Err(SolveError::MismatchedWarmStart {
                prev_videos: prev.n_videos(),
                instance_videos: inst.n_videos(),
            });
        }
        let (frac, epf) = solve_fractional_driven(inst, cfg, Some(prev), None, spec);
        let kind = match rejected {
            Some(reason) => ResumeKind::Rejected { reason },
            None => ResumeKind::WarmStart,
        };
        return Ok((frac, epf, kind));
    }
    let (frac, epf) = solve_fractional_driven(inst, cfg, None, None, spec);
    let kind = match rejected {
        Some(reason) => ResumeKind::Rejected { reason },
        None => ResumeKind::Cold,
    };
    Ok((frac, epf, kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{DiskConfig, PlacementCost};
    use vod_model::{Mbps, VhoId};
    use vod_net::topologies;
    use vod_trace::{
        analysis, generate_trace, synthesize_library, DemandInput, LibraryConfig, TraceConfig,
    };

    fn pipeline(seed: u64, pc: Option<&PlacementCost>) -> (MipInstance, PlacementOutput) {
        let mut net = topologies::mesh_backbone(6, 9, seed);
        net.set_uniform_capacity(Mbps::from_gbps(1.0));
        let catalog = synthesize_library(&LibraryConfig::default_for(70, 7, seed));
        let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(700.0, 7, seed));
        let windows = analysis::select_peak_windows(&trace, &catalog, 3600, 2);
        let demand = DemandInput::from_trace(&trace, &catalog, net.num_nodes(), windows);
        let inst = MipInstance::new(
            net,
            catalog,
            demand,
            &DiskConfig::UniformRatio { ratio: 2.0 },
            1.0,
            0.0,
            pc,
        );
        let out = solve_placement(
            &inst,
            &EpfConfig {
                max_passes: 100,
                seed,
                ..Default::default()
            },
        )
        .expect("pipeline instance is well-formed");
        (inst, out)
    }

    #[test]
    fn end_to_end_pipeline() {
        let (inst, out) = pipeline(41, None);
        assert_eq!(out.placement.n_videos(), inst.n_videos());
        // Disk usage respects capacities up to the reported violation.
        let usage = out.placement.disk_usage(&inst.catalog);
        for (u, d) in usage.iter().zip(&inst.disks) {
            assert!(
                u.value() <= d.value() * (1.0 + out.rounding.max_violation + 1e-6),
                "disk blown: {u} vs {d}"
            );
        }
        // The reported objective matches an independent recomputation.
        let recomputed = out.placement.objective_under(&inst);
        assert!(
            (recomputed - out.rounding.objective).abs() / recomputed.max(1.0) < 1e-6,
            "objective mismatch: {recomputed} vs {}",
            out.rounding.objective
        );
    }

    #[test]
    fn update_cost_term_discourages_migration() {
        // First solve without history.
        let (inst, base) = pipeline(42, None);
        let prev = base.placement.holder_lists();
        // Re-solve with a strong stay-where-you-are incentive.
        let pc = PlacementCost {
            weight: 50.0,
            previous: Some(prev.clone()),
            origin: VhoId::new(0),
        };
        let demand = inst.demand.clone();
        let inst2 = MipInstance::new(
            inst.network.clone(),
            inst.catalog.clone(),
            demand,
            &DiskConfig::UniformRatio { ratio: 2.0 },
            1.0,
            0.0,
            Some(&pc),
        );
        let out2 = solve_placement(
            &inst2,
            &EpfConfig {
                max_passes: 100,
                seed: 42,
                ..Default::default()
            },
        )
        .expect("update-cost instance is well-formed");
        // And with no incentive (weight 0 ≡ None) — same seed.
        let out_free = solve_placement(
            &inst2_without_cost(&inst),
            &EpfConfig {
                max_passes: 100,
                seed: 43,
                ..Default::default()
            },
        )
        .expect("cost-free instance is well-formed");
        let prev_p = crate::solution::Placement::from_stores(inst.n_vhos(), prev);
        let moved_with = out2.placement.migration_copies_from(&prev_p);
        let moved_free = out_free.placement.migration_copies_from(&prev_p);
        assert!(
            moved_with <= moved_free,
            "update-cost term should reduce migration: {moved_with} vs {moved_free}"
        );
    }

    fn inst2_without_cost(inst: &MipInstance) -> MipInstance {
        MipInstance::new(
            inst.network.clone(),
            inst.catalog.clone(),
            inst.demand.clone(),
            &DiskConfig::UniformRatio { ratio: 2.0 },
            1.0,
            0.0,
            None,
        )
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let (inst, _) = pipeline(44, None);
        let cases = [
            EpfConfig {
                epsilon: 0.0,
                ..Default::default()
            },
            EpfConfig {
                epsilon: f64::NAN,
                ..Default::default()
            },
            EpfConfig {
                gamma: -1.0,
                ..Default::default()
            },
            EpfConfig {
                rho: 1.0,
                ..Default::default()
            },
            EpfConfig {
                lb_every: 0,
                ..Default::default()
            },
            EpfConfig {
                max_passes: 0,
                ..Default::default()
            },
        ];
        for cfg in cases {
            let err = solve_placement(&inst, &cfg).expect_err("must reject");
            assert!(
                matches!(err, crate::error::SolveError::InvalidConfig { .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn infeasible_instance_is_a_typed_error() {
        let (inst, _) = pipeline(45, None);
        // Shrink disks below one library copy: provably no placement.
        let starved = MipInstance::new(
            inst.network.clone(),
            inst.catalog.clone(),
            inst.demand.clone(),
            &DiskConfig::UniformRatio { ratio: 0.5 },
            1.0,
            0.0,
            None,
        );
        let err = solve_placement(&starved, &EpfConfig::default()).expect_err("must reject");
        assert!(
            matches!(err, crate::error::SolveError::Infeasible { .. }),
            "{err}"
        );
    }

    #[test]
    fn resolve_from_repairs_a_previous_placement() {
        let (inst, base) = pipeline(46, None);
        let cfg = EpfConfig {
            max_passes: 100,
            seed: 46,
            ..Default::default()
        };
        // Warm re-solve of the *same* instance: must succeed and stay
        // close to the previous placement (the warm blocks start
        // there), with quality no worse than a fresh solve's tolerance.
        let out = resolve_from(&inst, &base.placement, &cfg).expect("warm re-solve");
        assert_eq!(out.placement.n_videos(), inst.n_videos());
        assert!(out.feasibility_gap() <= base.feasibility_gap() + 0.05);
        let moved = out.placement.migration_copies_from(&base.placement);
        let total: usize = (0..inst.n_videos())
            .map(|m| {
                out.placement
                    .stores(vod_model::VideoId::new(m as u32))
                    .len()
            })
            .sum();
        assert!(
            moved <= total,
            "warm start should not churn more copies than exist ({moved} vs {total})"
        );
    }

    #[test]
    fn resolve_from_rejects_mismatched_shapes() {
        let (inst, base) = pipeline(47, None);
        let tiny = Placement::from_stores(inst.n_vhos(), vec![vec![vod_model::VhoId::new(0)]; 3]);
        let err = resolve_from(&inst, &tiny, &EpfConfig::default()).expect_err("must reject");
        assert!(
            matches!(err, crate::error::SolveError::MismatchedWarmStart { .. }),
            "{err}"
        );
        let _ = base;
    }

    #[test]
    fn wall_budget_returns_degraded_incumbent() {
        let (inst, _) = pipeline(48, None);
        // A zero wall budget stops the solver at the first pass
        // boundary: the result must still be a complete, usable
        // placement with honest gap statistics — never an abort.
        let out = solve_placement(
            &inst,
            &EpfConfig {
                wall_limit: Some(std::time::Duration::ZERO),
                seed: 48,
                ..Default::default()
            },
        )
        .expect("budget exhaustion is not an error");
        assert!(!out.converged());
        assert_eq!(out.placement.n_videos(), inst.n_videos());
        assert!(out.feasibility_gap().is_finite());
        if let Some(gap) = out.optimality_gap() {
            assert!(gap.is_finite());
        }
    }
}
