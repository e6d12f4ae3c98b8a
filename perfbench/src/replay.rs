//! `replay`: the default operational world's 28-day trace replayed
//! serially through `vod_sim::simulate` against one MIP placement,
//! under five storage/fault configurations: no cache, LRU 5 %, LFU
//! 5 %, LRU 25 %, and the fault storm (VHO outage, link degrade, flash
//! crowd) with admission control on LRU 5 %. Requests before day 7
//! warm the caches; the rest are measured.
//!
//! A run replays several demand draws on the fixed world; each draw's
//! placement is solved once in set-up under a deterministic 60-pass
//! budget, so set-up stays a few seconds per draw.

use crate::spans::Tracer;
use crate::stats::{mean, median, min, Report};
use crate::world;
use crate::{peak_rss_mb, timed_setup, Ctx, Watch};
use std::time::Instant;
use vod_bench::{Defaults, Scale, Scenario};
use vod_core::rounding::round_solution;
use vod_core::{solve_fractional, EpfConfig, MipInstance, Placement};
use vod_estimate::{estimate_demand, EstimateConfig, EstimatorKind};
use vod_model::rng::derive_seed;
use vod_model::{Mbps, SimTime};
use vod_net::Network;
use vod_sim::{
    mip_vho_configs, simulate, CacheKind, FaultSchedule, PolicyKind, SimConfig, SimReport,
};

/// Pass budget of the set-up solve.
const SETUP_PASSES: usize = 60;
const WARMUP_DAYS: u64 = 7;
/// Demand draws per run, each with its own trace and placement. Every
/// measured round replays all of them, so a round's wall is an average
/// over draws (one draw's replay wall differs from another's by about
/// 8 %).
const DRAWS: usize = 3;

/// `(label, cache share, cache kind, storm)` per replay configuration.
const CONFIGS: [(&str, f64, CacheKind, bool); 5] = [
    ("sim.nocache.req_per_s", 0.0, CacheKind::Lru, false),
    ("sim.lru5.req_per_s", 0.05, CacheKind::Lru, false),
    ("sim.lfu5.req_per_s", 0.05, CacheKind::Lfu, false),
    ("sim.lru25.req_per_s", 0.25, CacheKind::Lru, false),
    ("sim.storm.req_per_s", 0.05, CacheKind::Lru, true),
];

/// Inputs of the replay, rebuilt by every set-up.
struct World {
    s: Scenario,
    net: Network,
    placement: Placement,
    cost: f64,
    gen_s: f64,
    paths_s: f64,
    inst_s: f64,
    solve_s: f64,
    passes: usize,
    block_steps: u64,
    approx_mb: f64,
    round_s: f64,
    rounded: usize,
}

/// The default-scale world with the trace drawn from `seed`, plus its
/// MIP placement, built stage by stage with one span per library call.
fn build(seed: u64, threads: usize, tr: &mut Tracer) -> World {
    let (s, gen_s, paths_s) = world::scenario(Scale::Default, seed, tr);
    let d = Defaults::for_scale(s.scale);
    let mut net = s.net.clone();
    net.set_uniform_capacity(Mbps::from_gbps(d.link_gbps));

    let sp = tr.begin("core.instance");
    let t = Instant::now();
    let est = EstimateConfig {
        window_secs: d.window_secs,
        n_windows: d.n_windows,
    };
    let demand = estimate_demand(
        EstimatorKind::History,
        &s.catalog,
        s.net.num_nodes(),
        &s.week(0),
        &s.week(1),
        WARMUP_DAYS,
        7,
        &est,
    );
    let inst = MipInstance::new(
        net.clone(),
        s.catalog.clone(),
        demand,
        &s.mip_disk(&d),
        1.0,
        0.0,
        None,
    );
    let inst_s = t.elapsed().as_secs_f64();
    tr.end(sp);

    let cfg = EpfConfig {
        max_passes: SETUP_PASSES,
        step_limit: Some(SETUP_PASSES as u64),
        seed,
        threads,
        ..Default::default()
    };
    let sp = tr.begin("epf.solve_fractional");
    let t = Instant::now();
    let (frac, st) = solve_fractional(&inst, &cfg);
    let solve_s = t.elapsed().as_secs_f64();
    tr.end(sp);
    let sp = tr.begin("rounding.round_solution");
    let t = Instant::now();
    let (placement, rs) = round_solution(&inst, &frac, cfg.gamma, cfg.kernel);
    let round_s = t.elapsed().as_secs_f64();
    tr.end(sp);
    World {
        s,
        net,
        placement,
        cost: rs.objective,
        gen_s,
        paths_s,
        inst_s,
        solve_s,
        passes: st.passes,
        block_steps: st.block_steps,
        approx_mb: st.approx_bytes as f64 / 1e6,
        round_s,
        rounded: rs.videos_rounded,
    }
}

/// Bitwise fingerprint of a report.
fn fingerprint(r: &SimReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for &v in r.peak_link_mbps.iter().chain(&r.transfer_gb) {
        mix(v.to_bits());
    }
    for x in [
        r.total_requests,
        r.served_local_pinned,
        r.served_local_cached,
        r.served_remote,
        r.denied_no_replica,
        r.denied_capacity,
        r.interrupted_streams,
        r.cache.hits,
        r.cache.insertions,
        r.cache.evictions,
        r.total_gb_hops.to_bits(),
        r.max_link_mbps.to_bits(),
    ] {
        mix(x);
    }
    h
}

/// One draw's replay jobs: `(vho configs, sim config)` per `CONFIGS` row.
type Jobs = Vec<(Vec<vod_sim::VhoConfig>, SimConfig)>;

fn jobs(w: &World, seed: u64) -> Jobs {
    let disks = w.s.full_disks(&Defaults::for_scale(w.s.scale));
    CONFIGS
        .iter()
        .map(|&(_, frac, kind, storm_on)| {
            let cfg = SimConfig {
                measure_from: SimTime::new(WARMUP_DAYS * 86_400),
                seed,
                faults: if storm_on {
                    world::storm(w.s.trace.horizon())
                } else {
                    FaultSchedule::default()
                },
                ..Default::default()
            };
            (mip_vho_configs(&w.placement, &disks, frac, kind), cfg)
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    let mut tr = Tracer::new(ctx.trace, ctx.seed);
    let mut setup_s = Vec::new();
    let mut draws: Vec<(World, Jobs, PolicyKind)> = Vec::new();
    for k in 0..DRAWS {
        let seed = derive_seed(ctx.seed, k as u64);
        let (cpu, w) = timed_setup(|| build(seed, ctx.threads, &mut tr));
        setup_s.push(cpu);
        let j = jobs(&w, seed);
        let policy = PolicyKind::MipRouting(w.placement.clone());
        draws.push((w, j, policy));
    }
    // One untimed replay first, so page faults and allocator growth do
    // not land in the first measured round.
    {
        let (w, j, policy) = &draws[0];
        simulate(
            &w.net,
            &w.s.paths,
            &w.s.catalog,
            &w.s.trace,
            &j[1].0,
            policy,
            &j[1].1,
        );
    }

    let mut round_s = (Vec::new(), Vec::new()); // CPU (traced, untraced)
    let mut round_wall = Vec::new();
    // Per configuration: traced replay wall summed over draws, per round.
    let mut cfg_s: Vec<Vec<f64>> = vec![Vec::new(); CONFIGS.len()];
    // CPU seconds of every replay, per (draw, configuration).
    let mut replay_cpu: Vec<Vec<f64>> = vec![Vec::new(); DRAWS * CONFIGS.len()];
    let mut first: Vec<Vec<SimReport>> = (0..DRAWS).map(|_| Vec::new()).collect();
    let started = Instant::now();
    let mut done = 0;
    while ctx.more(started, done, 2) {
        let traced = ctx.trace && done % 2 == 0;
        tr.set_enabled(traced);
        let round = tr.begin("replay.round");
        let watch = Watch::start();
        let mut walls = vec![0.0; CONFIGS.len()];
        for (k, (w, j, policy)) in draws.iter().enumerate() {
            for (c, (vhos, cfg)) in j.iter().enumerate() {
                let sp = tr.begin("sim.simulate");
                let one = Watch::start();
                let r = simulate(
                    &w.net,
                    &w.s.paths,
                    &w.s.catalog,
                    &w.s.trace,
                    vhos,
                    policy,
                    cfg,
                );
                walls[c] += one.wall_s();
                replay_cpu[k * CONFIGS.len() + c].push(one.cpu_s());
                tr.end(sp);
                let label = CONFIGS[c].0;
                let served = r.served_local_pinned + r.served_local_cached + r.served_remote;
                rep.check(
                    served + r.denied() == r.total_requests && r.total_requests > 0,
                    || {
                        format!(
                        "{label} draw {k} round {done}: served {served} + denied {} != requests {}",
                        r.denied(),
                        r.total_requests
                    )
                    },
                );
                match first[k].get(c) {
                    None => first[k].push(r),
                    Some(f) => rep.check(fingerprint(f) == fingerprint(&r), || {
                        format!(
                            "{label} draw {k} round {done}: report differs from the first replay"
                        )
                    }),
                }
            }
        }
        let (wall, cpu) = (watch.wall_s(), watch.cpu_s());
        tr.end(round);
        round_wall.push(wall);
        if traced {
            round_s.0.push(cpu);
            for (c, s) in walls.into_iter().enumerate() {
                cfg_s[c].push(s);
            }
        } else {
            round_s.1.push(cpu);
        }
        done += 1;
    }
    tr.set_enabled(ctx.trace);

    let all_rounds: Vec<f64> = round_s.0.iter().chain(&round_s.1).copied().collect();
    let run_frac = all_rounds.iter().sum::<f64>() / round_wall.iter().sum::<f64>();
    rep.e2e("setup_s", "s", setup_s);
    // Each replay is the same work in every round, so its fastest run is
    // the least disturbed by other tenants of the host; a round's time
    // is the sum of those.
    let fastest: f64 = replay_cpu.iter().map(|xs| min(xs)).sum();
    rep.e2e_value("op_s", "s", fastest, all_rounds);
    rep.e2e("peak_rss_mb", "MB", vec![peak_rss_mb()]);

    if ctx.trace {
        let reports: Vec<&SimReport> = first.iter().flatten().collect();
        let per_cfg = |c: usize| first.iter().map(|rs| rs[c].total_requests).sum::<u64>() as f64;
        for (c, &(label, ..)) in CONFIGS.iter().enumerate() {
            rep.layer(label, "req/s", per_cfg(c) / median(&cfg_s[c]));
        }
        let requests: u64 = reports.iter().map(|r| r.total_requests).sum();
        let traced_wall: Vec<f64> = round_wall.iter().step_by(2).copied().collect();
        rep.layer(
            "sim.req_per_s",
            "req/s",
            requests as f64 / median(&traced_wall),
        );
        let hits: u64 = reports.iter().map(|r| r.cache.hits).sum();
        let denied: u64 = reports.iter().map(|r| r.denied()).sum();
        let n = DRAWS as f64;
        rep.layer(
            "sim.cache_hit_ratio",
            "fraction",
            hits as f64 / requests.max(1) as f64,
        );
        rep.layer("sim.denied", "count", denied as f64 / n);
        rep.layer(
            "sim.denial_rate",
            "fraction",
            denied as f64 / requests.max(1) as f64,
        );
        rep.layer(
            "sim.gb_hops",
            "GB-hops",
            reports.iter().map(|r| r.total_gb_hops).sum::<f64>() / n,
        );
        let avg =
            |f: &dyn Fn(&World) -> f64| mean(&draws.iter().map(|d| f(&d.0)).collect::<Vec<_>>());
        rep.layer("placement.cost", "GB-hop", avg(&|w| w.cost));
        rep.layer(
            "placement.peak_link_mbps",
            "Mb/s",
            mean(
                &first
                    .iter()
                    .map(|rs| rs.iter().map(|r| r.max_link_mbps).fold(0.0, f64::max))
                    .collect::<Vec<_>>(),
            ),
        );
        rep.layer("epf.solve_s", "s", avg(&|w| w.solve_s));
        rep.layer("epf.passes", "count", avg(&|w| w.passes as f64));
        rep.layer("epf.block_steps", "count", avg(&|w| w.block_steps as f64));
        rep.layer(
            "epf.ms_per_pass",
            "ms",
            avg(&|w| 1e3 * w.solve_s / w.passes.max(1) as f64),
        );
        rep.layer("epf.approx_mb", "MB", avg(&|w| w.approx_mb));
        rep.layer("rounding.s", "s", avg(&|w| w.round_s));
        rep.layer("rounding.rounded", "count", avg(&|w| w.rounded as f64));
        rep.layer("core.instance_s", "s", avg(&|w| w.inst_s));
        rep.layer("trace.generate_s", "s", avg(&|w| w.gen_s));
        rep.layer("trace.requests", "count", avg(&|w| w.s.trace.len() as f64));
        rep.layer("net.paths_s", "s", avg(&|w| w.paths_s));
        rep.layer(
            "tracing.overhead_frac",
            "fraction",
            median(&round_s.0) / median(&round_s.1) - 1.0,
        );
        rep.layer("host.run_frac", "fraction", run_frac);
        crate::finish_trace(ctx, &tr, &mut rep);
    }
    rep
}
