//! Property tests for the incremental penalty arena: after **any**
//! sequence of dual perturbations, every `(window, server, client)`
//! read of the arena must be bitwise the naive path sum
//! `Σ_{l ∈ P_ij} π_{(l,t)}` of the current duals, in path order
//! (`oracle::penalty_sum`). This is the invariant
//! (`crates/core/src/penalty.rs`: dirty entries are re-summed in path
//! order, never patched with deltas) that lets the EPF hot path reuse
//! one flat arena across tens of thousands of dual snapshots without
//! ever drifting from the reference semantics. Reading through
//! [`PenaltyArena::at`] covers stored rows, the on-demand recompute of
//! inactive rows, and the budget-degraded streaming variant alike, on
//! random topologies and random dual trajectories.
#![allow(clippy::unwrap_used, clippy::float_cmp)]
mod oracle;

use proptest::prelude::*;
use std::sync::OnceLock;
use vod_core::penalty::PenaltyArena;
use vod_core::potential::{Duals, RowLayout};
use vod_core::{DiskConfig, MipInstance};
use vod_model::Mbps;
use vod_net::topologies;
use vod_trace::{
    analysis, generate_trace, synthesize_library, DemandInput, LibraryConfig, TraceConfig,
};

fn build_instance(n_vhos: usize, n_videos: usize, seed: u64) -> (MipInstance, RowLayout) {
    let mut net = topologies::mesh_backbone(n_vhos, n_vhos * 3 / 2, seed);
    net.set_uniform_capacity(Mbps::from_gbps(1.0));
    let catalog = synthesize_library(&LibraryConfig::default_for(n_videos, 7, seed));
    let trace = generate_trace(
        &catalog,
        &net,
        &TraceConfig::default_for(n_videos as f64 * 15.0, 7, seed),
    );
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
}

fn setup() -> &'static (MipInstance, RowLayout) {
    static SETUP: OnceLock<(MipInstance, RowLayout)> = OnceLock::new();
    SETUP.get_or_init(|| build_instance(6, 40, 33))
}

/// Every `(t, i, j)` read of `arena` is bitwise the naive path sum
/// under `duals`, and every stored client row agrees with those reads.
fn assert_arena_matches_oracle(
    inst: &MipInstance,
    layout: &RowLayout,
    arena: &PenaltyArena,
    duals: &Duals,
    what: &str,
) {
    let v = layout.n_vhos;
    for t in 0..layout.n_windows {
        for j in 0..v {
            for i in 0..v {
                let got = arena.at(t, i, j);
                let want = oracle::penalty_sum(inst, layout, duals, t, i, j);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{what}: at({t},{i},{j}): {got} vs oracle {want}"
                );
            }
            if arena.row_stored(t, j) {
                let row = arena.client_row(t, j);
                for (i, x) in row.iter().enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        arena.at(t, i, j).to_bits(),
                        "{what}: row {t}/{j}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Apply a random sequence of row perturbations (scales, bumps and
    /// zero-outs on random rows — link and disk alike) and check the
    /// arena against the oracle after every update.
    #[test]
    fn incremental_matches_rebuild_after_random_perturbations(
        init in prop::collection::vec(0.0f64..2.0, 1..2),
        steps in prop::collection::vec(
            (0usize..1000, 0u8..3, 0.25f64..4.0),
            1..12,
        ),
    ) {
        let (inst, layout) = setup();
        let n_rows = layout.n_rows();
        let mut duals = Duals::new(vec![init[0]; n_rows], 1.0);
        let mut arena = PenaltyArena::new(inst, layout);
        arena.update(layout, &duals);
        assert_arena_matches_oracle(inst, layout, &arena, &duals, "initial");
        for &(raw_row, op, factor) in &steps {
            let row = raw_row % n_rows;
            match op {
                0 => duals.rows[row] *= factor,
                1 => duals.rows[row] += factor,
                _ => duals.rows[row] = 0.0,
            }
            duals.bump_version();
            arena.update(layout, &duals);
            assert_arena_matches_oracle(inst, layout, &arena, &duals, "incremental");
        }
    }

    /// Updating through intermediate snapshots and then jumping to a
    /// target (values equal to a straight build, version different)
    /// still lands on the target's path sums — path-order re-summing is
    /// history-independent, with and without the streaming degrade.
    #[test]
    fn arena_state_is_history_independent(scale in 0.5f64..3.0, detour in 1usize..5) {
        let (inst, layout) = setup();
        let n_rows = layout.n_rows();
        let target = Duals::new((0..n_rows).map(|r| scale * (r % 7) as f64).collect(), 1.0);
        for (budget, what) in [(None, "incremental"), (Some(1), "streaming")] {
            let mut wandering = PenaltyArena::with_budget(inst, layout, budget);
            for k in 0..detour {
                let mid = Duals::new(
                    (0..n_rows).map(|r| (r + k) as f64 * 0.125).collect(),
                    1.0,
                );
                wandering.update(layout, &mid);
            }
            wandering.update(layout, &target);
            assert_arena_matches_oracle(inst, layout, &wandering, &target, what);
        }
    }

    /// On *random topologies* and random dual trajectories, the arena —
    /// with and without the streaming memory-budget degrade — reads
    /// bitwise the naive path sums at every `(t, i, j)`.
    #[test]
    fn arena_matches_path_sums_on_random_topologies(
        dims in (5usize..9, 20usize..40),
        seed in 0u64..500,
        steps in prop::collection::vec((0usize..1000, 0.1f64..3.0), 1..6),
    ) {
        let (n_vhos, n_videos) = dims;
        let (inst, layout) = build_instance(n_vhos, n_videos, seed);
        let n_rows = layout.n_rows();
        let mut full = PenaltyArena::new(&inst, &layout);
        // A 1-byte budget always degrades to streaming rebuilds.
        let mut streaming = PenaltyArena::with_budget(&inst, &layout, Some(1));
        prop_assert!(streaming.is_streaming());
        prop_assert!(!full.is_streaming());
        prop_assert!(full.stored_rows() <= layout.n_windows * n_vhos);
        prop_assert!(streaming.approx_bytes() < full.approx_bytes());
        let mut duals = Duals::new(vec![0.0; n_rows], 1.0);
        for &(raw_row, bump) in &steps {
            duals.rows[raw_row % n_rows] += bump;
            duals.bump_version();
            full.update(&layout, &duals);
            streaming.update(&layout, &duals);
            assert_arena_matches_oracle(&inst, &layout, &full, &duals, "incremental");
            assert_arena_matches_oracle(&inst, &layout, &streaming, &duals, "streaming");
        }
    }
}
