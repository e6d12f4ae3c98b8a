//! Property coverage of the runtime audit layer
//! (`vod_core::audit`), plus the same-seed determinism regression the
//! whole lint/audit machinery exists to protect: valid solver outputs
//! always pass the audit, perturbed solutions always fail it, and two
//! identical runs produce byte-identical placements.
#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]
use proptest::prelude::*;
use std::sync::OnceLock;
use vod_core::audit;
use vod_core::rounding::round_solution;
use vod_core::solution::INT_TOL;
use vod_core::{DiskConfig, EpfConfig, FractionalSolution, MipInstance};
use vod_model::Mbps;
use vod_net::topologies;
use vod_trace::{
    analysis, generate_trace, synthesize_library, DemandInput, LibraryConfig, TraceConfig,
};

const N_VIDEOS: usize = 50;

fn instance(seed: u64) -> MipInstance {
    let mut net = topologies::mesh_backbone(6, 9, seed);
    net.set_uniform_capacity(Mbps::from_gbps(1.0));
    let catalog = synthesize_library(&LibraryConfig::default_for(N_VIDEOS, 7, seed));
    let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(800.0, 7, seed));
    let windows = analysis::select_peak_windows(&trace, &catalog, 3600, 2);
    let demand = DemandInput::from_trace(&trace, &catalog, net.num_nodes(), windows);
    MipInstance::new(
        net,
        catalog,
        demand,
        &DiskConfig::UniformRatio { ratio: 2.0 },
        1.0,
        0.0,
        None,
    )
}

/// One shared solve: the proptest cases below each perturb a clone of
/// this solution, so the expensive EPF run happens once.
fn solved() -> &'static (MipInstance, FractionalSolution) {
    static SOLVED: OnceLock<(MipInstance, FractionalSolution)> = OnceLock::new();
    SOLVED.get_or_init(|| {
        let inst = instance(41);
        let cfg = EpfConfig {
            max_passes: 60,
            seed: 41,
            ..Default::default()
        };
        let (frac, _) = vod_core::solve_fractional(&inst, &cfg);
        (inst, frac)
    })
}

#[test]
fn valid_solver_output_passes_audit() {
    let (inst, frac) = solved();
    let report = audit::check_fractional(inst, frac, frac.max_violation + INT_TOL);
    assert!(report.is_ok(), "clean solve flagged:\n{report}");

    let (placement, stats) = round_solution(inst, frac, 1.0, vod_core::Kernel);
    let report = audit::check_placement(inst, &placement, stats.max_violation + INT_TOL);
    assert!(report.is_ok(), "clean placement flagged:\n{report}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Scaling any client's serving distribution breaks Σx = 1 and the
    /// audit must say so, whichever video/client gets hit.
    #[test]
    fn scaled_distribution_fails_audit(video in 0usize..N_VIDEOS, scale in 0.2f64..0.8) {
        let (inst, frac) = solved();
        let mut blocks = frac.blocks.clone();
        // Find a video (starting from `video`, wrapping) with a client.
        let m = (0..N_VIDEOS)
            .map(|k| (video + k) % N_VIDEOS)
            .find(|&m| !blocks[m].x.is_empty())
            .expect("some video has demand");
        for e in blocks[m].x[0].iter_mut() {
            e.1 *= scale;
        }
        let report = audit::check_blocks(inst, &blocks, INT_TOL);
        prop_assert!(
            report.violations.iter().any(|v| matches!(
                v,
                audit::Violation::DistributionMass { .. }
                    | audit::Violation::Dominance { .. }
            )),
            "scale {scale} on video {m} went unnoticed: {report:?}"
        );
    }

    /// Fully replicating a slice of the library blows the 2×-library
    /// disk budget; the audit must flag at least one disk row.
    #[test]
    fn disk_overflow_fails_audit(stride in 1usize..4) {
        let (inst, frac) = solved();
        let mut blocks = frac.blocks.clone();
        for b in blocks.iter_mut().step_by(stride) {
            b.y = inst.network.vho_ids().map(|i| (i, 1.0)).collect();
        }
        let report = audit::check_coupling(inst, &blocks, 0.05);
        prop_assert!(
            report.violations.iter().any(|v| matches!(v, audit::Violation::Disk { .. })),
            "full replication at stride {stride} went unnoticed: {report:?}"
        );
    }
}

/// The determinism regression the lint rules defend: two runs with the
/// same seed (and parallel block solves enabled) must agree bit-for-bit
/// — same objective bits, same violation bits, and a byte-identical
/// debug rendering of the final placement.
#[test]
fn same_seed_placements_are_byte_identical() {
    let inst = instance(52);
    let cfg = EpfConfig {
        max_passes: 40,
        seed: 52,
        threads: 2,
        ..Default::default()
    };
    let (frac_a, _) = vod_core::solve_fractional(&inst, &cfg);
    let (frac_b, _) = vod_core::solve_fractional(&inst, &cfg);
    assert_eq!(frac_a.objective.to_bits(), frac_b.objective.to_bits());
    assert_eq!(
        frac_a.max_violation.to_bits(),
        frac_b.max_violation.to_bits()
    );
    let (pl_a, stats_a) = round_solution(&inst, &frac_a, cfg.gamma, cfg.kernel);
    let (pl_b, stats_b) = round_solution(&inst, &frac_b, cfg.gamma, cfg.kernel);
    assert_eq!(stats_a.objective.to_bits(), stats_b.objective.to_bits());
    assert_eq!(format!("{pl_a:?}"), format!("{pl_b:?}"));
}
