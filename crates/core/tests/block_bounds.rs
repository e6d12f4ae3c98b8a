//! Validation of the per-video block solvers against the exact block
//! LP (solved by the generic simplex): the dual-ascent bound must
//! lower-bound the exact LP optimum and stay tight on average, and the
//! local-search integer solution must sit just above it.
#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]
use vod_core::block::UflProblem;
use vod_core::direct::exact_block_lp_solution;
use vod_lp::SimplexScratch;

#[test]
fn block_bounds_sandwich_exact_lp() {
    use rand::Rng;
    let mut rng = vod_model::rng::rng_from_seed(5);
    let mut tot_da = 0.0;
    let mut tot_exact = 0.0;
    let mut tot_ls = 0.0;
    let mut scratch = SimplexScratch::default();
    for _ in 0..200 {
        let n = 6;
        let c = rng.gen_range(1..7usize);
        let p = UflProblem::from_rows(
            (0..n).map(|_| rng.gen_range(0.0..3.0f64)).collect(),
            (0..c)
                .map(|_| (0..n).map(|_| rng.gen_range(0.0..10.0f64)).collect())
                .collect(),
        );
        let da = p.dual_ascent_bound();
        let (ex, _) = exact_block_lp_solution(&p, &mut scratch).unwrap();
        let ls = p.cost(&p.solve_local_search());
        assert!(da <= ex + 1e-6, "invalid bound {da} vs exact {ex}");
        tot_da += da;
        tot_exact += ex;
        tot_ls += ls;
    }
    eprintln!("dual ascent {tot_da:.2}  exact LP {tot_exact:.2}  local search {tot_ls:.2}");
    eprintln!(
        "ascent slack {:.3}%  integrality {:.3}%",
        (tot_exact - tot_da) / tot_exact * 100.0,
        (tot_ls - tot_exact) / tot_exact * 100.0
    );
}
