//! Pinned coverage for the service's cold-restart path: a
//! `service.state` file torn at *every byte offset of the snapshot
//! header* (and corrupted at every header byte) must produce a typed
//! cold restart — never a panic, never a resumed-from-garbage state —
//! and the replay after a torn write must land on placements
//! byte-identical to an uninterrupted run. A state file written under
//! a different seed must be refused outright. The service runs the
//! one-shot configuration here: no churn cap, no per-cycle budget, an
//! unbounded watchdog.
//!
//! The second half drills the *injectable I/O fault shim*
//! ([`vod_json::faults`]): ENOSPC, torn partial writes, failed fsync
//! barriers and read EIO, each asserting the atomic-write contract —
//! a failed write leaves the previous snapshot intact and no `*.tmp`
//! debris — and that the service degrades an unreadable state file
//! into a typed cold restart. Every test in this binary holds the
//! shim gate (even with an empty plan) so a test's fault schedule can
//! never leak into a concurrently running neighbour.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use std::path::{Path, PathBuf};
use vod_core::{DiskConfig, EpfConfig};
use vod_estimate::{EstimateConfig, EstimatorKind};
use vod_json::faults::{self, FaultPlan as IoFaultPlan, IoFault, ShimHandle};
use vod_json::snapshot::{read_snapshot, write_snapshot_atomic, SnapshotError};
use vod_model::Mbps;
use vod_net::{topologies, PathSet};
use vod_ops::{
    OpsConfig, OpsError, OpsWorld, Service, ServiceConfig, ServicePlan, ServiceState, StageId,
    StepOutcome,
};
use vod_trace::{generate_trace, synthesize_library, LibraryConfig, TraceConfig};

/// Hold the process-global shim gate with no faults scheduled: the
/// test's own snapshot I/O runs clean, and no other test can install
/// faults underneath it.
fn io_quiet() -> ShimHandle {
    faults::install(IoFaultPlan::default())
}

/// Snapshot container header for the `ops-service` kind: 8B magic +
/// 1B kind-len + 11B kind + 4B version + 8B payload-len + 8B checksum.
const HEADER_LEN: usize = 8 + 1 + vod_ops::SERVICE_KIND.len() + 4 + 8 + 8;

fn world(seed: u64) -> OpsWorld {
    let mut net = topologies::mesh_backbone(6, 9, seed);
    net.set_uniform_capacity(Mbps::from_gbps(1.0));
    let paths = PathSet::shortest_paths(&net);
    let catalog = synthesize_library(&LibraryConfig::default_for(40, 14, seed));
    let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(400.0, 14, seed));
    let disks = DiskConfig::UniformRatio { ratio: 2.5 }.capacities(&net, catalog.total_size());
    OpsWorld {
        net,
        paths,
        catalog,
        trace,
        disks,
        mip_disk: DiskConfig::UniformRatio { ratio: 2.0 },
        est: EstimateConfig::default(),
    }
}

/// The one-shot schedule: every cycle solved to the solver's own
/// limits and deployed in full.
fn config(seed: u64, dir: PathBuf) -> ServiceConfig {
    ServiceConfig {
        ops: OpsConfig {
            cycles: 2,
            period_days: 2,
            start_day: 7,
            estimator: EstimatorKind::History,
            epf: EpfConfig {
                max_passes: 40,
                seed,
                ..EpfConfig::default()
            },
            max_attempts: 3,
            checkpoint_every: 3,
            backoff_base_ms: 250,
            validate_tol: 1e-6,
            simulate: false,
            state_dir: dir,
        },
        churn_cap: None,
        cycle_step_budget: None,
        watchdog_budget: u64::MAX,
        cycle_faults: Vec::new(),
        cycle_deltas: Vec::new(),
    }
}

fn start(w: &OpsWorld, seed: u64, dir: &Path) -> Result<Service, OpsError> {
    Service::resume_or_start(w, config(seed, dir.to_path_buf()), ServicePlan::default())
}

fn fingerprints(st: &ServiceState) -> Vec<u64> {
    st.records.iter().map(|r| r.placement_fnv).collect()
}

/// The directory holds exactly `expected` (sorted): in particular no
/// `*.tmp` debris from a failed or interrupted write.
fn assert_dir_holds(dir: &Path, expected: &[&str]) {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, expected, "unexpected files in {}", dir.display());
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vod_cold_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run the service a few steps in, then return the healthy state bytes.
fn partial_state(dir: &Path, seed: u64, w: &OpsWorld, steps: usize) -> Vec<u8> {
    let mut s = start(w, seed, dir).unwrap();
    for _ in 0..steps {
        assert_ne!(s.step().unwrap(), StepOutcome::Finished);
    }
    std::fs::read(dir.join("service.state")).unwrap()
}

#[test]
fn torn_header_writes_at_every_offset_cold_restart() {
    let _io = io_quiet();
    let w = world(60);
    let dir = fresh_dir("torn");
    let clean = partial_state(&dir, 60, &w, 3);
    assert_eq!(HEADER_LEN, 40, "ops-service container header");
    assert!(clean.len() > HEADER_LEN, "state should outgrow its header");
    let path = dir.join("service.state");

    for offset in 0..=HEADER_LEN {
        // Torn write: only the first `offset` bytes hit the disk.
        std::fs::write(&path, &clean[..offset]).unwrap();
        let s = start(&w, 60, &dir).unwrap();
        assert_eq!(
            s.state().cold_restarts,
            1,
            "truncation at {offset} must cold-restart, not resume"
        );
        assert_eq!(s.state().cycle, 0, "cold restart starts from cycle 0");
        assert_eq!(s.state().stage, StageId::Estimate);

        if offset < HEADER_LEN {
            // Bit rot inside the header: magic, kind, version, length
            // and checksum corruptions are all typed rejections.
            let mut rotted = clean.clone();
            rotted[offset] ^= 0x20;
            std::fs::write(&path, &rotted).unwrap();
            let s = start(&w, 60, &dir).unwrap();
            assert_eq!(
                s.state().cold_restarts,
                1,
                "header corruption at {offset} must cold-restart"
            );
        }
    }

    // The pristine bytes still resume (the loop never spoiled them).
    std::fs::write(&path, &clean).unwrap();
    let s = start(&w, 60, &dir).unwrap();
    assert_eq!(s.state().cold_restarts, 0, "clean state must resume");
    assert!(s.state().resumes >= 1);
    assert_eq!(
        s.state().stage,
        StageId::Validate,
        "resumed where it stopped"
    );
}

#[test]
fn replay_after_torn_write_matches_uninterrupted_run() {
    let _io = io_quiet();
    let w = world(61);
    let base_dir = fresh_dir("torn_base");
    let base_fps = fingerprints(start(&w, 61, &base_dir).unwrap().run().unwrap());

    // Interrupt mid-schedule with a torn state write, then let the
    // cold restart replay the whole schedule.
    let dir = fresh_dir("torn_replay");
    let clean = partial_state(&dir, 61, &w, 7);
    std::fs::write(dir.join("service.state"), &clean[..HEADER_LEN / 2]).unwrap();
    let mut s = start(&w, 61, &dir).unwrap();
    assert_eq!(s.state().cold_restarts, 1);
    let st = s.run().unwrap();
    assert_eq!(
        fingerprints(st),
        base_fps,
        "cold replay must reproduce the baseline"
    );
    assert_dir_holds(&dir, &["service.state"]);
}

#[test]
fn corrupt_state_and_checkpoint_files_recover_typed() {
    let _io = io_quiet();
    let w = world(66);
    let base_fps = fingerprints(
        start(&w, 66, &fresh_dir("corrupt_base"))
            .unwrap()
            .run()
            .unwrap(),
    );

    // Kill mid-solve after one surviving checkpoint, then truncate the
    // checkpoint AND garble the state file before resuming. The
    // service must cold-restart (typed, counted) and still land on the
    // identical placements.
    let dir = fresh_dir("corrupt_resume");
    {
        let plan = ServicePlan {
            kill_mid_solve: vec![(0, 1)],
            ..ServicePlan::default()
        };
        let mut s = Service::resume_or_start(&w, config(66, dir.clone()), plan).unwrap();
        loop {
            match s.step().unwrap() {
                StepOutcome::SimulatedCrash { .. } => break,
                StepOutcome::Finished => panic!("kill never fired"),
                _ => {}
            }
        }
    }
    let ckpt = dir.join("solver.ckpt");
    let bytes = std::fs::read(&ckpt).unwrap();
    std::fs::write(&ckpt, &bytes[..bytes.len() / 2]).unwrap();
    std::fs::write(dir.join("service.state"), b"not a snapshot").unwrap();

    let mut s = start(&w, 66, &dir).unwrap();
    assert_eq!(
        s.state().cold_restarts,
        1,
        "corrupt state must count a cold restart"
    );
    let st = s.run().unwrap();
    assert_eq!(fingerprints(st), base_fps);
    assert!(st.records.iter().all(|r| r.degraded.is_none()));
    assert_dir_holds(&dir, &["service.state"]);
}

#[test]
fn seed_mismatch_refuses_to_clobber_foreign_state() {
    let _io = io_quiet();
    let w = world(62);
    let dir = fresh_dir("seed");
    let before = partial_state(&dir, 62, &w, 2);
    // Same directory, different experiment seed: typed refusal, and
    // the foreign state file is left byte-for-byte intact.
    match start(&w, 63, &dir) {
        Err(OpsError::Invalid { what }) => assert!(what.contains("seed"), "{what}"),
        other => panic!("expected Invalid, got {other:?}"),
    }
    let after = std::fs::read(dir.join("service.state")).unwrap();
    assert_eq!(before, after, "refusal must not touch the state file");
}

// ---------------------------------------------------------------------------
// Injectable I/O fault shim: the atomic-write contract under ENOSPC,
// torn partial writes and failed durability barriers.
// ---------------------------------------------------------------------------

#[test]
fn injected_write_faults_leave_previous_snapshot_intact() {
    let dir = fresh_dir("io_write_faults");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("victim.snap");
    let kind = vod_ops::SERVICE_KIND;
    // Torn-write offsets cover: nothing landed, mid-header, header
    // boundary, mid-payload, and longer-than-the-payload (clamped).
    let cases = [
        IoFault::WriteEnospc,
        IoFault::WritePartial { keep: 0 },
        IoFault::WritePartial { keep: 1 },
        IoFault::WritePartial { keep: 8 },
        IoFault::WritePartial { keep: HEADER_LEN },
        IoFault::WritePartial {
            keep: HEADER_LEN + 5,
        },
        IoFault::WritePartial { keep: 1 << 20 },
        IoFault::FsyncFail,
    ];
    for fault in cases {
        // Every snapshot read and write happens under the shim gate,
        // so no concurrent test's fault schedule can fire on it.
        {
            let _io = io_quiet();
            write_snapshot_atomic(&path, kind, 1, b"previous payload").unwrap();
        }
        {
            let shim = faults::install(IoFaultPlan::one_write(0, fault));
            let err = write_snapshot_atomic(&path, kind, 1, b"NEW payload, never visible")
                .expect_err("the injected fault must fail the write");
            assert!(matches!(err, SnapshotError::Io { .. }), "{fault}: {err}");
            assert_eq!(shim.writes_seen(), 1, "{fault}");
        }
        let _io = io_quiet();
        assert_dir_holds(&dir, &["victim.snap"]);
        assert_eq!(
            read_snapshot(&path, kind, 1).unwrap(),
            b"previous payload",
            "{fault}: destination must keep the old bytes"
        );
    }
}

#[test]
fn injected_enospc_serves_from_memory_and_keeps_previous_state() {
    let w = world(64);
    let dir = fresh_dir("io_enospc");
    let before = {
        let _io = io_quiet();
        partial_state(&dir, 64, &w, 3)
    };
    // The constructor's own persist hits the injected ENOSPC. The
    // service soft-persists: it starts anyway, serving from memory
    // with the failure counted, and the atomic-or-nothing write left
    // the previous transition on disk untouched.
    let shim = faults::install(IoFaultPlan::one_write(0, IoFault::WriteEnospc));
    let s = start(&w, 64, &dir).unwrap();
    assert!(s.is_dirty(), "a failed persist must mark the service dirty");
    assert_eq!(s.state().snapshot_failures, 1);
    drop(s);
    drop(shim);
    assert_eq!(
        std::fs::read(dir.join("service.state")).unwrap(),
        before,
        "the failed write must leave the previous state intact"
    );
    assert_dir_holds(&dir, &["fractional.snap", "service.state"]);
    // The disk "healed": the same directory resumes from the last
    // durable transition without a cold restart.
    let _io = io_quiet();
    let s = start(&w, 64, &dir).unwrap();
    assert_eq!(s.state().cold_restarts, 0, "state must still be readable");
    assert!(s.state().resumes >= 1);
}

#[test]
fn injected_read_eio_cold_restarts_then_heals() {
    let w = world(65);
    let dir = fresh_dir("io_read_eio");
    {
        let _io = io_quiet();
        let _ = partial_state(&dir, 65, &w, 3);
    }
    // Unreadable sector under service.state: the resume degrades to a
    // typed cold restart instead of propagating or panicking.
    let shim = faults::install(IoFaultPlan::one_read(0));
    let s = start(&w, 65, &dir).unwrap();
    assert_eq!(
        s.state().cold_restarts,
        1,
        "read EIO must cold-restart, not resume garbage"
    );
    drop(s);
    drop(shim);
    // The cold constructor already rewrote the state, so a fresh
    // resume continues from it cleanly and finishes the schedule.
    let _io = io_quiet();
    let mut s = start(&w, 65, &dir).unwrap();
    assert!(s.state().resumes >= 1);
    assert!(s
        .run()
        .unwrap()
        .records
        .iter()
        .all(|r| r.degraded.is_none()));
    assert_dir_holds(&dir, &["service.state"]);
}
