//! Differential oracle for the solver's certificates: on random tiny
//! instances, the exact LP relaxation optimum `LP*` (dense simplex over
//! [`build_direct_lp`]) must sit between what the EPF solver claims —
//!
//! - the EPF Lagrangian `lower_bound` never exceeds `LP*` (with and
//!   without exact per-block certification in the polish), and
//! - whenever rounding reports a fully feasible placement
//!   (`max_violation == 0.0`), its objective is no better than `LP*`.
//!
//! A failure here is a solver bug (an invalid bound), never a reason to
//! widen the tolerance: the only slack is the simplex's own relative
//! rounding, `LP*·(1 + 1e-6) + 1e-9`.
#![allow(clippy::unwrap_used, clippy::float_cmp)]
use proptest::prelude::*;
use vod_core::direct::build_direct_lp;
use vod_core::rounding::round_solution;
use vod_core::{solve_fractional, DiskConfig, EpfConfig, Kernel, MipInstance};
use vod_model::{
    Catalog, Gigabytes, Mbps, SimTime, TimeWindow, VhoId, Video, VideoClass, VideoId, VideoKind,
};
use vod_trace::{DemandInput, DemandMatrix};

/// A random instance: `n_vhos` VHOs on a mesh backbone, `n_videos`
/// videos of random classes, random per-VHO request counts, and
/// `n_windows` peak windows whose active counts are random subsets of
/// the aggregate. Every VHO can store the largest video.
fn instance(
    n_vhos: usize,
    n_videos: usize,
    n_windows: usize,
    seed: u64,
    link_mbps: f64,
    disk_ratio: f64,
) -> MipInstance {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0A11_CE55;
    // SplitMix64 draws, uniform in `0..bound`.
    let mut next = move |bound: usize| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        usize::try_from((z ^ (z >> 31)) % bound as u64).unwrap()
    };
    let edges = n_vhos + next(n_vhos * (n_vhos - 1) / 2 - n_vhos + 1);
    let mut net = vod_net::topologies::mesh_backbone(n_vhos, edges, seed);
    net.set_uniform_capacity(Mbps::new(link_mbps));
    let videos: Vec<Video> = (0..n_videos)
        .map(|m| Video {
            id: VideoId::from_index(m),
            class: VideoClass::ALL[next(4)],
            kind: VideoKind::Catalog,
            release_day: 0,
            weight: 1.0,
        })
        .collect();
    let catalog = Catalog::new(videos);
    let counts: Vec<Vec<usize>> = (0..n_videos)
        .map(|_| (0..n_vhos).map(|_| next(3).min(1) * next(13)).collect())
        .collect();
    let matrix = |count: &dyn Fn(usize, usize) -> usize| {
        let rows = (0..n_videos)
            .map(|m| {
                (0..n_vhos)
                    .filter_map(|j| {
                        let c = count(m, j);
                        (c > 0).then_some((VhoId::from_index(j), c as f64))
                    })
                    .collect()
            })
            .collect();
        DemandMatrix::from_rows(n_vhos, rows)
    };
    let aggregate = matrix(&|m, j| counts[m][j]);
    let mut windows = Vec::new();
    let mut active = Vec::new();
    for t in 0..n_windows {
        windows.push(TimeWindow::of_len(SimTime::ZERO + t as u64 * 3600, 3600));
        let draws: Vec<Vec<usize>> = counts
            .iter()
            .map(|row| row.iter().map(|&c| next(c + 1)).collect())
            .collect();
        active.push(matrix(&|m, j| draws[m][j]));
    }
    let demand = DemandInput {
        aggregate,
        windows,
        active,
    };
    let total: f64 = catalog.iter().map(|v| v.size().value()).sum();
    let largest = catalog
        .iter()
        .map(|v| v.size().value())
        .fold(0.0f64, f64::max);
    let disk = Gigabytes::new((disk_ratio * total / n_vhos as f64).max(largest));
    MipInstance::new(
        net,
        catalog,
        demand,
        &DiskConfig::Explicit(vec![disk; n_vhos]),
        1.0,
        0.0,
        None,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn epf_certificates_bracket_the_exact_lp(
        n_vhos in 3usize..6,
        n_videos in 1usize..13,
        n_windows in 1usize..3,
        seed in 0u64..100_000,
        link_mbps in 5.0f64..300.0,
        disk_ratio in 1.0f64..3.0,
    ) {
        let inst = instance(n_vhos, n_videos, n_windows, seed, link_mbps, disk_ratio);
        // An infeasible relaxation has no optimum to bracket.
        let Ok(exact) = vod_lp::solve_lp(&build_direct_lp(&inst).lp) else {
            return Ok(());
        };
        let lp_star = exact.objective;
        let slack = lp_star.abs() * 1e-6 + 1e-9;
        for exact_cert in [0, 4] {
            let cfg = EpfConfig {
                max_passes: 60,
                polish_iters: 10,
                exact_cert,
                seed,
                threads: 1,
                ..Default::default()
            };
            let (frac, _) = solve_fractional(&inst, &cfg);
            prop_assert!(
                frac.lower_bound <= lp_star + slack,
                "exact_cert={}: EPF lower bound {} exceeds LP* {}",
                exact_cert,
                frac.lower_bound,
                lp_star
            );
            let (_, rounded) = round_solution(&inst, &frac, cfg.gamma, Kernel);
            if rounded.max_violation == 0.0 {
                prop_assert!(
                    lp_star <= rounded.objective + slack,
                    "exact_cert={}: feasible rounded objective {} beats LP* {}",
                    exact_cert,
                    rounded.objective,
                    lp_star
                );
            }
        }
    }
}
