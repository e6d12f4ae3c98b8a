//! `certify`: a cold solve of the Table III 1000-video / `ebone`
//! instance to a certified 10 % gap, then rounding and the placement
//! audit. Certification (heuristic polish plus exact per-block LPs
//! through `vod-lp`) dominates the wall.
//!
//! The instance is the one `solver_baseline` builds for its
//! 1000/ebone row (instance seed 3, solver seed 3) and does not
//! depend on `--seed`: whether and when a cold solve certifies is
//! chaotic in the instance and solver seeds (at other seeds the same
//! settings take 10–60 s or stop uncertified), so a seed-drawn
//! instance would measure the draw, not the solver.

use crate::spans::Tracer;
use crate::stats::{median, min, Report};
use crate::{peak_rss_mb, timed_setup, Ctx, Watch};
use std::cmp::Ordering;
use std::time::Instant;
use vod_core::audit::check_placement;
use vod_core::rounding::round_solution;
use vod_core::solution::INT_TOL;
use vod_core::{solve_fractional, DiskConfig, EpfConfig, MipInstance, Placement};
use vod_trace::{synthesize_library, synthetic_demand, LibraryConfig, TraceConfig};

const N_VIDEOS: usize = 1000;
const INSTANCE_SEED: u64 = 3;
/// Certified gap the solve must reach.
const GAP: f64 = 0.10;

fn config(threads: usize) -> EpfConfig {
    EpfConfig {
        max_passes: 400,
        seed: INSTANCE_SEED,
        epsilon: 0.02,
        gap_limit: Some(GAP),
        polish_iters: 40,
        exact_cert: 16,
        threads,
        ..Default::default()
    }
}

/// The `solver_baseline` instance generator, timed by stage.
fn build(tr: &mut Tracer) -> (MipInstance, f64, f64) {
    let days = 7;
    let net = vod_net::topologies::ebone();
    let sp = tr.begin("trace.generate");
    let t = Instant::now();
    let lib = synthesize_library(&LibraryConfig::default_for(N_VIDEOS, days, INSTANCE_SEED));
    let tc = TraceConfig::default_for(N_VIDEOS as f64 * 1.2, days, INSTANCE_SEED);
    let demand = synthetic_demand(&lib, &net, &tc);
    let gen_s = t.elapsed().as_secs_f64();
    tr.end(sp);
    let sp = tr.begin("core.instance");
    let t = Instant::now();
    let inst = MipInstance::new(
        net,
        lib,
        demand,
        &DiskConfig::UniformRatio { ratio: 2.0 },
        1.0,
        0.0,
        None,
    );
    let inst_s = t.elapsed().as_secs_f64();
    tr.end(sp);
    (inst, gen_s, inst_s)
}

/// Highest link load (Mb/s) over all links and peak windows under the
/// model's service rule: stored routing where present, nearest copy
/// otherwise — the loads `check_placement` bounds.
fn model_peak_link_mbps(inst: &MipInstance, placement: &Placement) -> f64 {
    let n_links = inst.network.num_links();
    let mut load = vec![0.0f64; n_links * inst.n_windows()];
    let mut add = |server, client, rate: &[f64], share: f64| {
        for (t, &r) in rate.iter().enumerate() {
            for &l in inst.paths.path(server, client) {
                load[t * n_links + l.index()] += r * share;
            }
        }
    };
    for b in inst.blocks() {
        for c in &b.clients {
            if let Some(dist) = placement.serving_distribution(b.video, c.j) {
                for &(i, x) in dist {
                    add(i, c.j, &c.rate, x);
                }
            } else if let Some(&near) = placement.stores(b.video).iter().min_by(|&&a, &&z| {
                inst.cost(a, c.j)
                    .total_cmp(&inst.cost(z, c.j))
                    .then(a.cmp(&z))
            }) {
                add(near, c.j, &c.rate, 1.0);
            }
        }
    }
    load.into_iter().fold(0.0, f64::max)
}

pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    let mut tr = Tracer::new(ctx.trace, ctx.seed);
    let (setup_cpu, (inst, gen_s, inst_s)) = timed_setup(|| build(&mut tr));
    let cfg = config(ctx.threads);

    let mut walls = Vec::new();
    let mut cpu = (Vec::new(), Vec::new()); // (traced, untraced)
    let mut round_s = Vec::new();
    let mut audit_s = Vec::new();
    let mut first: Option<(u64, u64, usize, u64)> = None;
    let (mut cost, mut peak, mut rounded, mut passes, mut steps, mut approx_mb) =
        (0.0, 0.0, 0, 0, 0, 0.0);
    let started = Instant::now();
    let mut done = 0;
    while ctx.more(started, done, 2) {
        // The traced run interleaves untraced solves to measure its
        // own overhead.
        let traced = ctx.trace && done % 2 == 0;
        tr.set_enabled(traced);
        let op = tr.begin("certify.op");
        let sp = tr.begin("epf.solve_fractional");
        let w = Watch::start();
        let (frac, st) = solve_fractional(&inst, &cfg);
        let (wall, solve_cpu) = (w.wall_s(), w.cpu_s());
        tr.end(sp);
        let sp = tr.begin("rounding.round_solution");
        let t = Instant::now();
        let (placement, rs) = round_solution(&inst, &frac, cfg.gamma, cfg.kernel);
        round_s.push(t.elapsed().as_secs_f64());
        tr.end(sp);
        let sp = tr.begin("audit.check_placement");
        let t = Instant::now();
        let audit = check_placement(&inst, &placement, rs.max_violation + INT_TOL);
        audit_s.push(t.elapsed().as_secs_f64());
        tr.end(sp);
        tr.end(op);
        walls.push(wall);
        if traced {
            cpu.0.push(solve_cpu);
        } else {
            cpu.1.push(solve_cpu);
        }

        let key = (
            frac.objective.to_bits(),
            frac.lower_bound.to_bits(),
            st.passes,
            st.block_steps,
        );
        let gap = frac.objective / frac.lower_bound - 1.0;
        let mut problems = Vec::new();
        if !(st.converged && gap <= GAP + 1e-9) {
            problems.push(format!(
                "not certified at {GAP}: converged={} gap={gap:.4}",
                st.converged
            ));
        }
        if !matches!(
            frac.lower_bound.partial_cmp(&frac.objective),
            Some(Ordering::Less | Ordering::Equal)
        ) {
            problems.push(format!(
                "lower bound {} above objective {}",
                frac.lower_bound, frac.objective
            ));
        }
        if !audit.is_ok() {
            problems.push(format!(
                "rounded placement fails the audit: {} violation(s)",
                audit.violations.len()
            ));
        }
        if *first.get_or_insert(key) != key {
            problems.push(format!(
                "solve {done} differs from solve 0: (objective, lower bound, passes, block steps) {key:?} vs {first:?}"
            ));
        }
        rep.check(problems.is_empty(), || {
            format!("certify solve {done}: {}", problems.join("; "))
        });
        if done == 0 {
            cost = rs.objective;
            peak = model_peak_link_mbps(&inst, &placement);
            rounded = rs.videos_rounded;
            passes = st.passes;
            steps = st.block_steps;
            approx_mb = st.approx_bytes as f64 / 1e6;
        }
        done += 1;
    }
    tr.set_enabled(ctx.trace);

    let all_cpu: Vec<f64> = cpu.0.iter().chain(&cpu.1).copied().collect();
    let run_frac = all_cpu.iter().sum::<f64>() / walls.iter().sum::<f64>();
    rep.e2e("setup_s", "s", vec![setup_cpu]);
    // The solve is the same work every time, so the fastest one is the
    // least disturbed by other tenants of the host.
    rep.e2e_value("op_s", "s", min(&all_cpu), all_cpu);
    rep.e2e("peak_rss_mb", "MB", vec![peak_rss_mb()]);

    if ctx.trace {
        rep.layer("placement.cost", "GB-hop", cost);
        rep.layer("placement.peak_link_mbps", "Mb/s", peak);
        // Companion solve without polish or exact certification: the
        // difference is the certification layer's share of the wall.
        let cfg0 = EpfConfig {
            polish_iters: 0,
            exact_cert: 0,
            ..cfg.clone()
        };
        let sp = tr.begin("epf.solve_fractional.nocert");
        let t = Instant::now();
        let (_, st0) = solve_fractional(&inst, &cfg0);
        let nocert_s = t.elapsed().as_secs_f64();
        tr.end(sp);
        let solve_s = median(&walls);
        rep.layer("epf.solve_s", "s", solve_s);
        rep.layer("epf.passes", "count", passes as f64);
        rep.layer("epf.block_steps", "count", steps as f64);
        rep.layer(
            "epf.ms_per_pass",
            "ms",
            1e3 * solve_s / passes.max(1) as f64,
        );
        rep.layer("epf.cert_s", "s", solve_s - nocert_s);
        rep.layer("epf.nocert_passes", "count", st0.passes as f64);
        rep.layer("epf.approx_mb", "MB", approx_mb);
        rep.layer("rounding.s", "s", median(&round_s));
        rep.layer("rounding.rounded", "count", rounded as f64);
        rep.layer("audit.s", "s", median(&audit_s));
        rep.layer("core.instance_s", "s", inst_s);
        rep.layer("trace.generate_s", "s", gen_s);
        rep.layer(
            "tracing.overhead_frac",
            "fraction",
            median(&cpu.0) / median(&cpu.1) - 1.0,
        );
        rep.layer("host.run_frac", "fraction", run_frac);
        crate::finish_trace(ctx, &tr, &mut rep);
    }
    rep
}
