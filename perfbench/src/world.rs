//! The operator world `service` and `replay` run on, and the fault
//! storm both replay.

use crate::spans::Tracer;
use std::time::Instant;
use vod_bench::{Scale, Scenario};
use vod_model::{LinkId, SimTime, VhoId};
use vod_net::PathSet;
use vod_sim::{FaultEvent, FaultKind, FaultSchedule};
use vod_trace::{generate_trace, synthesize_library, LibraryConfig, TraceConfig};

/// Seed of the fixed operator world — backbone and video library — the
/// `service` and `replay` workloads run on (the repo's canonical
/// scenario seed, as in `sim_baseline` and `service_drill`). `--seed`
/// draws the request trace and the solver and simulator seeds: an
/// operator's network and catalog stay put from one day to the next,
/// its demand does not.
const WORLD_SEED: u64 = 2010;

/// `Scenario::operational(scale, ·)` on the fixed world with the
/// request trace drawn from `seed`, built stage by stage so the traced
/// run can time trace generation and routing. Returns the scenario and
/// those two wall times.
pub fn scenario(scale: Scale, seed: u64, tr: &mut Tracer) -> (Scenario, f64, f64) {
    // (VHOs, backbone edges, videos, days, requests per day), as in
    // `Scenario::operational`.
    let (vhos, edges, videos, days, rpd) = match scale {
        Scale::Quick => (10, 16, 300, 14, 4_000.0),
        _ => (24, 36, 1200, 28, 20_000.0),
    };
    let net = vod_net::topologies::mesh_backbone(vhos, edges, WORLD_SEED);
    let sp = tr.begin("trace.generate");
    let t = Instant::now();
    let catalog = synthesize_library(&LibraryConfig::default_for(videos, days, WORLD_SEED));
    let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(rpd, days, seed));
    let gen_s = t.elapsed().as_secs_f64();
    tr.end(sp);
    let sp = tr.begin("net.shortest_paths");
    let t = Instant::now();
    let paths = PathSet::shortest_paths(&net);
    let paths_s = t.elapsed().as_secs_f64();
    tr.end(sp);
    let s = Scenario {
        net,
        paths,
        catalog,
        trace,
        scale,
        seed,
    };
    (s, gen_s, paths_s)
}

/// `service_drill`'s storm over `[0, horizon)`: VHO 1 dark, link 0 at
/// quarter capacity, demand doubled, admission control on.
pub fn storm(horizon: SimTime) -> FaultSchedule {
    let whole = |kind| FaultEvent {
        start: SimTime::new(0),
        end: horizon,
        kind,
    };
    FaultSchedule {
        events: vec![
            whole(FaultKind::VhoOutage { vho: VhoId::new(1) }),
            whole(FaultKind::LinkDegrade {
                link: LinkId::new(0),
                capacity_scale: 0.25,
            }),
            whole(FaultKind::FlashCrowd {
                vho: None,
                multiplier: 2,
            }),
        ],
        admission: true,
    }
}
