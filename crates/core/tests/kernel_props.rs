//! Property tests for the lane kernels (`crates/core/src/kernel.rs`)
//! and the solvers built on them: production must be **bitwise
//! identical** to the scalar oracles of `tests/oracle/mod.rs` on
//! solver-shaped inputs (finite, nonnegative, no `-0.0`), at three
//! levels —
//!
//! 1. the raw kernel ops (`axpy`, `accum`, `accum_relu_sub`,
//!    `row_min`, `headroom_min`, `drain_budget`),
//! 2. whole UFL block solves and dual-ascent bounds
//!    ([`UflProblem::solve_local_search`] and friends), and
//! 3. the batched penalty-arena gather path, whose incremental updates
//!    must be history-independent and land bitwise on the naive path
//!    sums of the final duals.
//!
//! End to end, two golden keys pin a small full EPF solve (with and
//! without exact certification in the polish): objective and lower
//! bound bits, pass and block-step counts, as recorded when a scalar
//! and a lane backend both shipped and agreed on them.
#![allow(clippy::unwrap_used, clippy::float_cmp)]
mod oracle;

use proptest::prelude::*;
use std::sync::OnceLock;
use vod_core::block::{UflProblem, UflScratch};
use vod_core::kernel;
use vod_core::penalty::PenaltyArena;
use vod_core::potential::{Duals, RowLayout};
use vod_core::{DiskConfig, MipInstance};
use vod_model::Mbps;
use vod_net::topologies;
use vod_trace::{
    analysis, generate_trace, synthesize_library, DemandInput, LibraryConfig, TraceConfig,
};

fn setup() -> &'static (MipInstance, RowLayout) {
    static SETUP: OnceLock<(MipInstance, RowLayout)> = OnceLock::new();
    SETUP.get_or_init(|| {
        let mut net = topologies::mesh_backbone(6, 9, 33);
        net.set_uniform_capacity(Mbps::from_gbps(1.0));
        let catalog = synthesize_library(&LibraryConfig::default_for(40, 7, 33));
        let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(600.0, 7, 33));
        let windows = analysis::select_peak_windows(&trace, &catalog, 3600, 2);
        let demand = DemandInput::from_trace(&trace, &catalog, net.num_nodes(), windows);
        let inst = MipInstance::new(
            net,
            catalog,
            demand,
            &DiskConfig::UniformRatio { ratio: 2.0 },
            1.0,
            0.0,
            None,
        );
        let layout = RowLayout {
            n_vhos: inst.n_vhos(),
            n_links: inst.network.num_links(),
            n_windows: inst.n_windows(),
        };
        (inst, layout)
    })
}

fn assert_bits_eq(want: &[f64], got: &[f64], what: &str) {
    assert_eq!(want.len(), got.len(), "{what}: length mismatch");
    for (k, (x, y)) in want.iter().zip(got).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what} entry {k}: oracle {x} vs production {y}"
        );
    }
}

/// Every kernel op on `(a, b)` through production and through the
/// oracle, asserted bitwise equal.
fn assert_ops_match_oracle(a: &[f64], b: &[f64], w: f64, vc: f64, delta: f64) {
    let (mut got, mut want) = (a.to_vec(), a.to_vec());
    kernel::axpy(&mut got, w, b);
    oracle::axpy(&mut want, w, b);
    assert_bits_eq(&want, &got, "axpy");
    let (mut got, mut want) = (a.to_vec(), a.to_vec());
    kernel::accum(&mut got, b);
    oracle::accum(&mut want, b);
    assert_bits_eq(&want, &got, "accum");
    let (mut got, mut want) = (a.to_vec(), a.to_vec());
    kernel::accum_relu_sub(&mut got, vc, b);
    oracle::accum_relu_sub(&mut want, vc, b);
    assert_bits_eq(&want, &got, "accum_relu_sub");
    let (mut got, mut want) = (a.to_vec(), a.to_vec());
    kernel::drain_budget(&mut got, b, vc, delta);
    oracle::drain_budget(&mut want, b, vc, delta);
    assert_bits_eq(&want, &got, "drain_budget");
    assert_eq!(
        oracle::row_min(b).to_bits(),
        kernel::row_min(b).to_bits(),
        "row_min"
    );
    assert_eq!(
        oracle::headroom_min(b, vc, a).to_bits(),
        kernel::headroom_min(b, vc, a).to_bits(),
        "headroom_min"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Raw kernel ops: production bitwise-matches the scalar oracle on
    /// random solver-shaped vectors (lengths straddle the 8-lane
    /// boundary, values nonnegative with exact zeros mixed in).
    #[test]
    fn kernel_ops_bitwise_match_oracle(
        pairs in prop::collection::vec((0.0f64..1e4, 0.0f64..1e4), 0..70),
        w in 0.0f64..8.0,
        vc in 0.0f64..100.0,
        delta in 0.0f64..50.0,
        zero_every in 2usize..6,
    ) {
        // Unzip into equal-length operands; plant exact zeros so the
        // max(0.0) branches and min ties get exercised.
        let mut a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        for (k, x) in a.iter_mut().enumerate() {
            if k % zero_every == 0 {
                *x = 0.0;
            }
        }
        assert_ops_match_oracle(&a, &b, w, vc, delta);
    }

    /// Whole UFL block solves: identical open sets, assignments, costs
    /// and dual-ascent bounds to the scalar oracles on random
    /// instances, with fresh and reused scratch alike.
    #[test]
    fn ufl_solves_bitwise_match_oracle(
        n_fac in 1usize..12,
        n_clients in 0usize..10,
        cells in prop::collection::vec((0.0f64..50.0, 0.0f64..400.0), 1..2),
        seed in 0u64..1000,
    ) {
        // Deterministic pseudo-random UFL from (seed, dims): SplitMix64
        // stream, nonnegative costs only.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        };
        let (fscale, sscale) = cells[0];
        let facility: Vec<f64> = (0..n_fac).map(|_| next() * fscale).collect();
        let rows: Vec<Vec<f64>> = (0..n_clients)
            .map(|_| (0..n_fac).map(|_| next() * sscale).collect())
            .collect();
        let ufl = UflProblem::from_rows(facility, rows);

        let want_sol = oracle::local_search(&ufl, true);
        let want_fast = oracle::local_search(&ufl, false);
        let want_bound = oracle::dual_ascent_bound(&ufl);
        let mut scratch = UflScratch::default();
        let runs = [
            (
                "fresh",
                ufl.solve_local_search(),
                ufl.solve_local_search_fast(),
                ufl.dual_ascent_bound(),
            ),
            (
                "reused",
                ufl.solve_local_search_with(&mut scratch),
                ufl.solve_local_search_fast_with(&mut scratch),
                ufl.dual_ascent_bound_with(&mut scratch),
            ),
        ];
        for (pass, sol, fast, bound) in &runs {
            prop_assert_eq!(&sol.open, &want_sol.open, "open set ({})", pass);
            prop_assert_eq!(&sol.assign, &want_sol.assign, "assignment ({})", pass);
            prop_assert_eq!(
                ufl.cost(sol).to_bits(),
                ufl.cost(&want_sol).to_bits(),
                "cost ({})", pass
            );
            prop_assert_eq!(&fast.open, &want_fast.open, "fast open set ({})", pass);
            prop_assert_eq!(&fast.assign, &want_fast.assign, "fast assignment ({})", pass);
            prop_assert_eq!(
                bound.to_bits(),
                want_bound.to_bits(),
                "dual ascent bound ({})", pass
            );
        }
    }

    /// Batched penalty gather: an arena maintained incrementally
    /// through an arbitrary detour of snapshots lands bitwise on the
    /// naive path sums of the final duals — the gather path is
    /// history-independent.
    #[test]
    fn penalty_gather_is_history_independent(
        scale in 0.25f64..3.0,
        detours in prop::collection::vec((0usize..1000, 0.1f64..2.0), 0..6),
    ) {
        let (inst, layout) = setup();
        let n_rows = layout.n_rows();
        let target = Duals::new((0..n_rows).map(|r| scale * (r % 5) as f64).collect(), 1.0);
        let mut arena = PenaltyArena::new(inst, layout);
        let mut duals = Duals::new(vec![0.0; n_rows], 1.0);
        for &(raw_row, bump) in &detours {
            duals.rows[raw_row % n_rows] += bump;
            duals.bump_version();
            arena.update(layout, &duals);
        }
        duals.rows.copy_from_slice(&target.rows);
        duals.bump_version();
        arena.update(layout, &duals);
        let v = layout.n_vhos;
        for t in 0..layout.n_windows {
            for j in 0..v {
                for i in 0..v {
                    prop_assert_eq!(
                        arena.at(t, i, j).to_bits(),
                        oracle::penalty_sum(inst, layout, &target, t, i, j).to_bits(),
                        "at({},{},{})", t, i, j
                    );
                }
            }
        }
    }
}

/// The kernel ops at fixed lane-boundary lengths (empty, sub-lane,
/// exactly one lane, lane + remainder, several lanes) on values with
/// exact zeros and ties — the contract's edge cases, deterministically.
#[test]
fn kernel_ops_match_oracle_at_lane_edges() {
    fn vals(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|k| {
                let h = (seed ^ k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                match h % 7 {
                    0 => 0.0,
                    1 => 1.5,
                    _ => (h % 1000) as f64 / 64.0,
                }
            })
            .collect()
    }
    for n in [0, 1, 3, 7, 8, 9, 16, 17, 50, 64, 100] {
        assert_ops_match_oracle(&vals(n, 22), &vals(n, 11), 0.375, 2.25, 0.5);
    }
}

/// Bitwise identity key of a full solve.
fn solve_key(exact_cert: usize) -> (u64, u64, usize, u64) {
    let (inst, _) = setup();
    let cfg = vod_core::EpfConfig {
        max_passes: 25,
        polish_iters: 10,
        seed: 7,
        threads: 1,
        exact_cert,
        ..Default::default()
    };
    let (frac, stats) = vod_core::solve_fractional(inst, &cfg);
    (
        frac.objective.to_bits(),
        frac.lower_bound.to_bits(),
        stats.passes,
        stats.block_steps,
    )
}

/// End to end: a full (small) EPF solve reproduces the objective,
/// lower bound and step counts that the scalar and lane backends both
/// produced when both shipped (and the dense and sparse penalty
/// layouts alike).
#[test]
fn full_solve_matches_golden_key() {
    assert_eq!(
        solve_key(0),
        (0x40b3_9677_78d7_df7e, 0x408c_4fe5_b769_6c50, 25, 483),
        "objective/lower_bound/passes/block_steps moved off the golden key"
    );
}

/// As [`full_solve_matches_golden_key`] with exact per-block LP
/// certification in the polish, which lifts the bound.
#[test]
fn exact_cert_polish_matches_golden_key() {
    assert_eq!(
        solve_key(4),
        (0x40b3_9677_78d7_df7e, 0x4090_8b61_b052_f03f, 25, 483),
        "objective/lower_bound/passes/block_steps moved off the golden key"
    );
}
