//! Golden on-disk format of every durable type.
//!
//! The expected documents under `tests/golden/` were produced by the
//! hand-written codecs the `Durable` trait replaced, from the same
//! hand-built fixtures as below, and are committed verbatim: encoding
//! must reproduce them byte for byte (state files written before the
//! trait keep loading, and `placement_fingerprint` keeps its values),
//! and decoding them must give back the fixture. The fixtures cover
//! every `DegradeReason` and `FaultKind` variant (a flash crowd with
//! `vho: null` too), every recovery action, `Option` fields both set
//! and unset, `u64`s above 2^53, and -0.0, NaN and ±inf floats.
//!
//! Decoding stays total: dropping any one key, or giving any one leaf
//! a value of the wrong JSON type, must come back as a typed error.
//!
//! The solver checkpoint is the first one a default-config solve of a
//! tiny fixed instance emits (its fields are crate-private, so it
//! cannot be built by hand here); its `fingerprint` pins the config
//! fingerprint of `EpfConfig::default()`.
#![allow(clippy::unwrap_used)]

use vod_core::{
    solve_placement_checkpointed, BlockSolution, CheckpointSpec, DiskConfig, EpfConfig,
    FractionalSolution, MipInstance, Placement, SolverCheckpoint,
};
use vod_json::snapshot::Durable;
use vod_json::Value;
use vod_model::{LinkId, Mbps, SimTime, VhoId, VideoId};
use vod_net::topologies;
use vod_ops::state::placement_fingerprint;
use vod_ops::{
    DeferredMigration, DegradeReason, RecoveryAction, ServiceRecord, ServiceState, SimSummary,
    StageId,
};
use vod_sim::{FaultEvent, FaultKind, FaultSchedule};
use vod_trace::{
    analysis, generate_trace, synthesize_library, DemandInput, LibraryConfig, TraceConfig,
};

const PLACEMENT: &str = include_str!("golden/placement.json");
const FRACTIONAL: &str = include_str!("golden/fractional.json");
const SCHEDULE: &str = include_str!("golden/schedule.json");
const STATE_FULL: &str = include_str!("golden/state_full.json");
const STATE_FRESH: &str = include_str!("golden/state_fresh.json");
const CHECKPOINT: &str = include_str!("golden/checkpoint.json");

/// `config_fingerprint(&EpfConfig::default(), &fx_instance())`.
const DEFAULT_CONFIG_FINGERPRINT: &str = "f6e6e6d68dfbc5af";
/// `placement_fingerprint(&fx_placement())`.
const PLACEMENT_FNV: u64 = 0xee16_d787_15dd_5771;

fn vho(i: u16) -> VhoId {
    VhoId::new(i)
}

/// Above 2^53: a JSON number would round it.
const BIG: u64 = 0xdead_beef_cafe_f00d;

fn fx_placement() -> Placement {
    Placement::from_parts(
        3,
        vec![vec![vho(0), vho(2)], vec![vho(1)]],
        vec![
            vec![
                (vho(0), vec![(vho(0), 1.0)]),
                (vho(1), vec![(vho(0), 0.25), (vho(2), -0.0)]),
            ],
            vec![],
        ],
    )
    .unwrap()
}

fn fx_fractional() -> FractionalSolution {
    FractionalSolution {
        blocks: vec![
            BlockSolution {
                y: vec![(vho(0), 0.5), (vho(2), 1e-300)],
                x: vec![vec![(vho(0), 1.0)], vec![(vho(0), -0.0), (vho(2), 0.5)]],
            },
            BlockSolution {
                y: vec![(vho(1), 1.0)],
                x: vec![],
            },
        ],
        objective: f64::NAN,
        max_violation: f64::INFINITY,
        lower_bound: f64::NEG_INFINITY,
    }
}

fn fx_schedule() -> FaultSchedule {
    FaultSchedule {
        events: vec![
            FaultEvent {
                start: SimTime::new(0),
                end: SimTime::new(3600),
                kind: FaultKind::VhoOutage { vho: vho(1) },
            },
            FaultEvent {
                start: SimTime::new(BIG),
                end: SimTime::new(u64::MAX),
                kind: FaultKind::LinkDegrade {
                    link: LinkId::new(u32::MAX),
                    capacity_scale: f64::NAN,
                },
            },
            FaultEvent {
                start: SimTime::new(7),
                end: SimTime::new(9),
                kind: FaultKind::FlashCrowd {
                    vho: None,
                    multiplier: 4,
                },
            },
            FaultEvent {
                start: SimTime::new(1 << 60),
                end: SimTime::new((1 << 60) + 1),
                kind: FaultKind::FlashCrowd {
                    vho: Some(vho(u16::MAX)),
                    multiplier: u32::MAX,
                },
            },
        ],
        admission: true,
    }
}

fn fx_record(cycle: usize, degraded: Option<DegradeReason>, full: bool) -> ServiceRecord {
    ServiceRecord {
        cycle,
        degraded,
        recoveries: if full {
            RecoveryAction::ALL.to_vec()
        } else {
            Vec::new()
        },
        attempts: u32::MAX,
        backoff_ms: BIG,
        solver_resumes: 3,
        placement_fnv: u64::MAX,
        objective: full.then_some(-0.0),
        lower_bound: full.then_some(f64::INFINITY),
        moved: 12,
        deferred: 0,
        denied: 1 << 53,
        denial_rate: full.then_some(f64::NAN),
        stale: !full,
        sim: full.then_some(SimSummary {
            max_gbps: f64::NEG_INFINITY,
            local_frac: 0.1,
            total_requests: BIG,
        }),
        repairs: if full { vec![BIG, 0] } else { Vec::new() },
        rejections: if full {
            vec!["foreign: \"quoted\"\n".to_string()]
        } else {
            Vec::new()
        },
    }
}

/// Every `Option` set, every `DegradeReason` kind and every recovery
/// action present.
fn fx_state_full() -> ServiceState {
    ServiceState {
        seed: BIG,
        cycle: 4,
        stage: StageId::Validate,
        attempts_done: 1,
        cycle_attempts: 2,
        cycle_backoff_ms: 1 << 60,
        cycle_solver_resumes: 5,
        cycle_recoveries: RecoveryAction::ALL.to_vec(),
        deployed: Some((3, fx_placement())),
        target: Some(fx_placement()),
        target_objective: Some(-0.0),
        target_lower_bound: Some(f64::NAN),
        pending_moved: 6,
        pending_sim: Some(SimSummary {
            max_gbps: f64::INFINITY,
            local_frac: -0.0,
            total_requests: u64::MAX,
        }),
        pending_denied: BIG,
        pending_denial: Some(f64::NEG_INFINITY),
        deferred: vec![
            DeferredMigration {
                video: VideoId::new(7),
                copies: 2,
                since_cycle: 1,
            },
            DeferredMigration {
                video: VideoId::new(u32::MAX),
                copies: 0,
                since_cycle: 0,
            },
        ],
        records: vec![
            fx_record(0, None, true),
            fx_record(
                1,
                Some(DegradeReason::StageFailed {
                    stage: StageId::Solve,
                    attempts: 3,
                    last_error: "injected".to_string(),
                }),
                false,
            ),
            fx_record(
                2,
                Some(DegradeReason::ValidationFailed {
                    what: "disk overrun".to_string(),
                }),
                true,
            ),
            fx_record(
                3,
                Some(DegradeReason::Stalled {
                    stage: StageId::Simulate,
                    ticks: BIG,
                    budget: u64::MAX,
                }),
                false,
            ),
            fx_record(
                4,
                Some(DegradeReason::SnapshotUnavailable {
                    failures: 1 << 60,
                    what: "enospc".to_string(),
                }),
                true,
            ),
        ],
        resumes: 1,
        cold_restarts: 2,
        stale_serves: BIG,
        deltas_applied: 3,
        snapshot_failures: u64::MAX,
        cycle_repairs: vec![BIG],
        cycle_rejections: vec!["remap-eligible: axes intact".to_string()],
    }
}

/// Every `Option` unset, every list empty.
fn fx_state_fresh() -> ServiceState {
    ServiceState::fresh(u64::MAX)
}

/// A tiny fixed instance for the checkpoint and fingerprint pins.
fn fx_instance() -> MipInstance {
    let mut net = topologies::line(3);
    net.set_uniform_capacity(Mbps::from_gbps(1.0));
    let catalog = synthesize_library(&LibraryConfig::default_for(12, 7, 5));
    let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(120.0, 7, 5));
    let windows = analysis::select_peak_windows(&trace, &catalog, 3600, 1);
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

/// The first checkpoint (pass 1) of a default-config solve of
/// [`fx_instance`]. `threads` is outside the config fingerprint.
fn fx_checkpoint_bytes() -> Vec<u8> {
    let inst = fx_instance();
    let cfg = EpfConfig {
        threads: 1,
        ..EpfConfig::default()
    };
    let mut snaps: Vec<Vec<u8>> = Vec::new();
    let mut sink = |ck: SolverCheckpoint| snaps.push(ck.to_bytes());
    solve_placement_checkpointed(
        &inst,
        &cfg,
        CheckpointSpec {
            every: 1,
            sink: &mut sink,
        },
    )
    .unwrap();
    snaps.into_iter().next().unwrap()
}

fn pretty<T: Durable>(x: &T) -> String {
    x.encode().to_string_pretty()
}

/// Encode must reproduce `golden` byte for byte, and decoding `golden`
/// must give back a value that re-encodes to it (floats compare by bit
/// pattern, so this is exact even for NaN).
fn assert_golden<T: Durable>(x: &T, golden: &str) -> T {
    assert_eq!(pretty(x), golden);
    let back = T::decode(&Value::parse(golden).unwrap()).unwrap();
    assert_eq!(pretty(&back), golden);
    back
}

#[test]
fn placement_matches_golden() {
    let p = fx_placement();
    let back = assert_golden(&p, PLACEMENT);
    assert_eq!(back.n_vhos(), p.n_vhos());
    assert_eq!(back.holder_lists(), p.holder_lists());
    assert_eq!(placement_fingerprint(&p), PLACEMENT_FNV);
}

#[test]
fn fractional_matches_golden() {
    let f = fx_fractional();
    let back = assert_golden(&f, FRACTIONAL);
    assert_eq!(back.blocks, f.blocks);
    let bits = |x: f64| x.to_bits();
    assert_eq!(bits(back.objective), bits(f.objective));
    assert_eq!(bits(back.max_violation), bits(f64::INFINITY));
    assert_eq!(bits(back.lower_bound), bits(f64::NEG_INFINITY));
}

#[test]
fn fault_schedule_matches_golden() {
    let s = fx_schedule();
    let back = assert_golden(&s, SCHEDULE);
    // `FaultSchedule: PartialEq` compares the NaN scale by value, so
    // compare the other events exactly and the NaN event by bits.
    assert_eq!(back.admission, s.admission);
    for (b, e) in back.events.iter().zip(&s.events) {
        match (b.kind, e.kind) {
            (
                FaultKind::LinkDegrade {
                    link: bl,
                    capacity_scale: bs,
                },
                FaultKind::LinkDegrade {
                    link: el,
                    capacity_scale: es,
                },
            ) => {
                assert_eq!((b.start, b.end, bl), (e.start, e.end, el));
                assert_eq!(bs.to_bits(), es.to_bits());
            }
            _ => assert_eq!(b, e),
        }
    }
    assert_eq!(back.events.len(), s.events.len());
}

#[test]
fn service_states_match_golden() {
    let full = fx_state_full();
    let back = assert_golden(&full, STATE_FULL);
    assert_eq!(back.stage, full.stage);
    assert_eq!(back.cycle_recoveries, full.cycle_recoveries);
    assert_eq!(back.deferred, full.deferred);
    let reasons = |st: &ServiceState| {
        st.records
            .iter()
            .map(|r| r.degraded.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(reasons(&back), reasons(&full));
    assert_eq!(back.deployed.as_ref().map(|d| d.0), Some(3));

    let fresh = fx_state_fresh();
    let back = assert_golden(&fresh, STATE_FRESH);
    assert!(back.deployed.is_none() && back.target.is_none() && back.records.is_empty());
    assert_eq!(back.seed, u64::MAX);
}

#[test]
fn checkpoint_matches_golden_and_pins_the_config_fingerprint() {
    let bytes = fx_checkpoint_bytes();
    assert_eq!(std::str::from_utf8(&bytes).unwrap(), CHECKPOINT);
    let back = SolverCheckpoint::from_bytes(CHECKPOINT.as_bytes()).unwrap();
    assert_eq!(back.to_bytes(), CHECKPOINT.as_bytes());
    let doc = Value::parse(CHECKPOINT).unwrap();
    assert_eq!(
        doc.get("fingerprint").and_then(Value::as_str),
        Some(DEFAULT_CONFIG_FINGERPRINT)
    );
    // The golden checkpoint drives a resume of the same solve.
    let inst = fx_instance();
    let cfg = EpfConfig {
        threads: 1,
        ..EpfConfig::default()
    };
    assert!(back.validate_against(&inst, &cfg).is_ok());
}

/// The value in the wrong JSON type for a leaf.
fn retyped(leaf: &Value) -> Value {
    match leaf {
        Value::Null => Value::Bool(true),
        Value::Bool(_) => Value::Num(1.0),
        Value::Num(_) => Value::Str("1".to_string()),
        Value::Str(_) => Value::Bool(false),
        Value::Arr(_) | Value::Obj(_) => Value::Num(0.0),
    }
}

/// Every one-key-dropped and one-leaf-retyped variant of `v`, each
/// labelled with the path it changed.
fn mutants(v: &Value) -> Vec<(String, Value)> {
    let mut out = Vec::new();
    match v {
        Value::Obj(fields) if !fields.is_empty() => {
            for (i, (key, child)) in fields.iter().enumerate() {
                let mut dropped = fields.clone();
                dropped.remove(i);
                out.push((format!("drop {key}"), Value::Obj(dropped)));
                for (path, m) in mutants(child) {
                    let mut changed = fields.clone();
                    changed[i].1 = m;
                    out.push((format!("{key}.{path}"), Value::Obj(changed)));
                }
            }
        }
        Value::Arr(items) if !items.is_empty() => {
            for (i, child) in items.iter().enumerate() {
                for (path, m) in mutants(child) {
                    let mut changed = items.clone();
                    changed[i] = m;
                    out.push((format!("{i}.{path}"), Value::Arr(changed)));
                }
            }
        }
        leaf => out.push(("retype".to_string(), retyped(leaf))),
    }
    out
}

fn assert_every_mutant_is_rejected(golden: &str, decodes: impl Fn(&Value) -> bool) {
    let doc = Value::parse(golden).unwrap();
    assert!(decodes(&doc));
    let all = mutants(&doc);
    assert!(all.len() > 10);
    let accepted: Vec<&String> = all
        .iter()
        .filter(|(_, m)| decodes(m))
        .map(|(path, _)| path)
        .collect();
    assert!(accepted.is_empty(), "mutants decoded: {accepted:?}");
}

#[test]
fn every_dropped_key_and_retyped_leaf_is_a_typed_error() {
    assert_every_mutant_is_rejected(PLACEMENT, |v| Placement::decode(v).is_ok());
    assert_every_mutant_is_rejected(FRACTIONAL, |v| FractionalSolution::decode(v).is_ok());
    assert_every_mutant_is_rejected(SCHEDULE, |v| FaultSchedule::decode(v).is_ok());
    assert_every_mutant_is_rejected(STATE_FULL, |v| ServiceState::decode(v).is_ok());
    assert_every_mutant_is_rejected(STATE_FRESH, |v| ServiceState::decode(v).is_ok());
    assert_every_mutant_is_rejected(CHECKPOINT, |v| {
        SolverCheckpoint::from_bytes(v.to_string_pretty().as_bytes()).is_ok()
    });
}

#[test]
fn record_level_types_round_trip() {
    for r in fx_state_full().records {
        let back = ServiceRecord::decode(&r.encode()).unwrap();
        assert_eq!(back.degraded, r.degraded);
        assert_eq!(pretty(&back), pretty(&r));
    }
    for d in fx_state_full().deferred {
        assert_eq!(DeferredMigration::decode(&d.encode()).unwrap(), d);
    }
}
