//! Criterion benches for the solver stack: EPF scaling with library
//! size (Table III's shape), the direct simplex baseline, the
//! facility-location block solvers and the exact block-LP certifier.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vod_core::block::UflProblem;
use vod_core::{direct::build_direct_lp, solve_fractional, DiskConfig, EpfConfig, MipInstance};
use vod_trace::{synthesize_library, synthetic_demand, LibraryConfig, TraceConfig};

fn instance(n_videos: usize, n_vhos: usize) -> MipInstance {
    let net = vod_net::topologies::mesh_backbone(n_vhos, n_vhos + n_vhos / 2, 3);
    let lib = synthesize_library(&LibraryConfig::default_for(n_videos, 7, 3));
    let demand = synthetic_demand(&lib, &net, &TraceConfig::default_for(n_videos as f64, 7, 3));
    MipInstance::new(
        net,
        lib,
        demand,
        &DiskConfig::UniformRatio { ratio: 2.0 },
        1.0,
        0.0,
        None,
    )
}

fn bench_epf_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("epf_library_scaling");
    g.sample_size(10);
    for n in [200usize, 400, 800] {
        let inst = instance(n, 10);
        let cfg = EpfConfig {
            max_passes: 20,
            seed: 3,
            polish_iters: 0,
            ..Default::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| solve_fractional(&inst, &cfg).1.block_steps)
        });
    }
    g.finish();
}

fn bench_simplex_baseline(c: &mut Criterion) {
    let mut g = c.benchmark_group("simplex_direct_lp");
    g.sample_size(10);
    for n in [10usize, 20, 40] {
        let inst = instance(n, 5);
        let direct = build_direct_lp(&inst);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                vod_lp::solve_lp(&direct.lp)
                    .expect("exact LP solve failed")
                    .objective
            })
        });
    }
    g.finish();
}

fn bench_block_solvers(c: &mut Criterion) {
    use rand::Rng;
    use vod_core::block::UflScratch;
    let mut rng = vod_model::rng::rng_from_seed(8);
    let p = UflProblem::from_rows(
        (0..55).map(|_| rng.gen_range(0.0..5.0)).collect(),
        (0..30)
            .map(|_| (0..55).map(|_| rng.gen_range(0.0..10.0)).collect())
            .collect(),
    );
    c.bench_function("ufl_local_search_fast_55x30", |b| {
        b.iter(|| p.solve_local_search_fast().open.len())
    });
    c.bench_function("ufl_local_search_full_55x30", |b| {
        b.iter(|| p.solve_local_search().open.len())
    });
    c.bench_function("ufl_dual_ascent_55x30", |b| {
        b.iter(|| p.dual_ascent_bound())
    });
    // Scratch reuse — the worker-pool steady state (no allocations).
    let mut scratch = UflScratch::default();
    c.bench_function("ufl_local_search_fast_55x30_scratch", |b| {
        b.iter(|| p.solve_local_search_fast_with(&mut scratch).open.len())
    });
}

/// The exact per-block LP certification (`exact_block_lp`, the simplex
/// on one UFL block's relaxation) at the largest block shape of the
/// Table III ebone instance — 23 facilities — with 1, 8 and 23 clients,
/// on seeded random costs: the certifier's hot call, independent of any
/// EPF trajectory. One reused `SimplexScratch`, as in the worker pool.
fn bench_exact_block_lp(c: &mut Criterion) {
    use rand::Rng;
    let mut g = c.benchmark_group("exact_block_lp");
    g.sample_size(20);
    let mut scratch = vod_lp::SimplexScratch::default();
    for clients in [1usize, 8, 23] {
        let mut rng = vod_model::rng::rng_from_seed(11);
        let p = UflProblem::from_rows(
            (0..23).map(|_| rng.gen_range(0.0..5.0)).collect(),
            (0..clients)
                .map(|_| (0..23).map(|_| rng.gen_range(0.0..10.0)).collect())
                .collect(),
        );
        g.bench_with_input(BenchmarkId::new("23x", clients), &clients, |b, _| {
            b.iter(|| vod_core::direct::exact_block_lp(&p, &mut scratch))
        });
    }
    g.finish();
}

/// The Table III EPF ladder on real Rocketfuel-like topologies — the
/// criterion twin of the tracked `solver_baseline` binary (which emits
/// `BENCH_solver.json`); sizes are scaled down so criterion's repeated
/// sampling stays tractable.
fn bench_table3_ladder(c: &mut Criterion) {
    let mut g = c.benchmark_group("epf_table3_ladder");
    g.sample_size(10);
    for (n, net, name) in [
        (200usize, vod_net::topologies::ebone(), "ebone"),
        (400, vod_net::topologies::sprint(), "sprint"),
        (800, vod_net::topologies::tiscali(), "tiscali"),
    ] {
        let lib = synthesize_library(&LibraryConfig::default_for(n, 7, 3));
        let tc = TraceConfig::default_for(n as f64 * 1.2, 7, 3);
        let demand = synthetic_demand(&lib, &net, &tc);
        let inst = MipInstance::new(
            net,
            lib,
            demand,
            &DiskConfig::UniformRatio { ratio: 2.0 },
            1.0,
            0.0,
            None,
        );
        let cfg = EpfConfig {
            max_passes: 15,
            seed: 3,
            polish_iters: 0,
            ..Default::default()
        };
        g.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
            b.iter(|| solve_fractional(&inst, &cfg).1.block_steps)
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_epf_scaling,
    bench_simplex_baseline,
    bench_block_solvers,
    bench_exact_block_lp,
    bench_table3_ladder
);
criterion_main!(benches);
