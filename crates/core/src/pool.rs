//! Persistent worker pool for the EPF block solves.
//!
//! The solver used to spawn a fresh `std::thread::scope` (and fresh
//! per-block allocations) for every chunk — tens of thousands of times
//! per run. [`WorkerPool`] instead keeps `threads` long-lived workers
//! for the whole solve: jobs (index lists) go out over per-worker
//! channels, results come back over one shared channel, and every
//! worker owns a [`BlockScratch`] (a reusable [`UflProblem`] buffer
//! plus [`UflScratch`], and a [`SimplexScratch`] for the exact block
//! LPs) so the steady state allocates no solver buffers.
//!
//! **Determinism contract.** Results are reassembled *in part order*
//! (part `k` = the `k`-th contiguous slice of the request), and the
//! per-part work — `exec_job` — is the exact code the inline
//! single-threaded path runs. Whichever worker finishes first, the
//! caller observes the same `Vec` of outputs in the same order, built
//! from the same [`PenaltyArena`] snapshot; `threads = 1` and
//! `threads = N` are therefore byte-identical by construction (pinned
//! by the `determinism` integration test).
//!
//! The penalty arena is shared through an `RwLock`: the main thread
//! write-locks between dispatches ([`WorkerPool::update_penalty`]),
//! workers read-lock for the duration of one job. The lock is never
//! contended in the write path because the pool's callers only update
//! duals while no jobs are in flight.

use crate::block::{UflProblem, UflScratch, UflSolution};
use crate::epf::{block_delta, build_ufl_into};
use crate::instance::MipInstance;
use crate::penalty::{PenaltyArena, PenaltyUpdate};
use crate::potential::{Duals, RowLayout};
use crate::solution::BlockSolution;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{RwLock, RwLockReadGuard};
use vod_lp::SimplexScratch;

/// Below this many items a dispatch runs inline on the calling thread:
/// channel round-trips cost more than tiny chunks save.
const PARALLEL_MIN: usize = 16;

/// Fan `f` over `items` on up to `threads` scoped workers and return
/// the results **in item order** — the pool's determinism contract
/// generalized to arbitrary independent jobs (used by `vod-sim`'s
/// batch runner). Each result lands at its item's index, so
/// `threads = 1` and `threads = N` produce the same `Vec` whatever the
/// completion order; with `threads <= 1` (or a single item) the
/// closure runs inline on the caller.
///
/// Work is pulled from a shared atomic counter rather than pre-chunked
/// so a slow item (a big scenario) does not leave workers idle.
pub fn map_ordered<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let n = items.len();
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            let tx = tx.clone();
            let (next, f) = (&next, &f);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n || tx.send((i, f(&items[i]))).is_err() {
                    return;
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, r) = rx.recv().expect("map_ordered worker hung up"); // lint:allow(no-panic-hot-path): hangup implies a worker panic; re-raise it
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("map_ordered item missing")) // lint:allow(no-panic-hot-path): every index sent exactly once above
            .collect()
    })
}

/// What to do with each block index of a job.
#[derive(Debug, Clone, Copy)]
pub(crate) enum JobKind {
    /// Lagrangized UFL heuristic minimizer (the Frank-Wolfe direction).
    Solve,
    /// Per-block lower bound: dual ascent, or the exact block LP
    /// (`exact: true` — the polish's hybrid certification subset).
    DualBound { exact: bool },
    /// Polish sweep: valid bound + heuristic minimizer's resource usage.
    Polish { exact: bool },
}

struct Job {
    kind: JobKind,
    part: usize,
    items: Vec<usize>,
}

enum JobOutput {
    Solutions(Vec<UflSolution>),
    Bounds(Vec<f64>),
    Polish(Vec<(f64, Vec<(usize, f64)>)>),
}

/// Per-worker reusable state: one UFL build buffer + solver scratch,
/// and the simplex tableau buffer of the exact block LPs.
#[derive(Default)]
struct BlockScratch {
    ufl: UflProblem,
    search: UflScratch,
    lp: SimplexScratch,
}

/// A pool of long-lived block-solver workers tied to one solve.
pub(crate) struct WorkerPool<'env> {
    inst: &'env MipInstance,
    layout: RowLayout,
    arena: &'env RwLock<PenaltyArena>,
    txs: Vec<mpsc::Sender<Job>>,
    rx: mpsc::Receiver<(usize, JobOutput)>,
    /// Scratch for the inline (small-dispatch / single-thread) path.
    inline: RefCell<BlockScratch>,
}

impl<'env> WorkerPool<'env> {
    /// Spawn `threads` workers on `scope` (none when `threads <= 1`;
    /// the inline path then handles every dispatch). Workers exit when
    /// the pool is dropped (their job channels close), which must
    /// happen before the scope ends.
    pub(crate) fn new<'scope>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        threads: usize,
        inst: &'env MipInstance,
        layout: RowLayout,
        arena: &'env RwLock<PenaltyArena>,
    ) -> Self {
        let (res_tx, rx) = mpsc::channel();
        let mut txs = Vec::new();
        if threads > 1 {
            for _ in 0..threads {
                let (tx, job_rx) = mpsc::channel::<Job>();
                let res_tx = res_tx.clone();
                scope.spawn(move || worker_loop(inst, layout, arena, &job_rx, &res_tx));
                txs.push(tx);
            }
        }
        Self {
            inst,
            layout,
            arena,
            txs,
            rx,
            inline: RefCell::new(BlockScratch::default()),
        }
    }

    /// Bring the shared penalty arena up to date with `duals` (between
    /// dispatches only; see the module-level lock discipline).
    pub(crate) fn update_penalty(&self, duals: &Duals) -> PenaltyUpdate {
        self.arena
            .write()
            .expect("penalty arena lock poisoned") // lint:allow(no-panic-hot-path): poisoned lock implies a worker panic; re-raise it
            .update(&self.layout, duals)
    }

    /// Read access to the current penalty arena (callers must drop the
    /// guard before the next [`WorkerPool::update_penalty`]).
    pub(crate) fn penalty(&self) -> RwLockReadGuard<'_, PenaltyArena> {
        self.arena.read().expect("penalty arena lock poisoned") // lint:allow(no-panic-hot-path): poisoned lock implies a worker panic; re-raise it
    }

    /// Heuristic UFL minimizers for `items`, in item order.
    pub(crate) fn solve(&self, items: &[usize]) -> Vec<UflSolution> {
        self.run(items, JobKind::Solve)
            .into_iter()
            .flat_map(|o| match o {
                JobOutput::Solutions(v) => v,
                _ => unreachable!("Solve job returned a non-Solutions output"), // lint:allow(no-panic-hot-path): exec_job pairs Solve with Solutions
            })
            .collect()
    }

    /// Per-block dual-ascent bounds for `items`, in item order.
    pub(crate) fn dual_bounds(&self, items: &[usize]) -> Vec<f64> {
        self.run(items, JobKind::DualBound { exact: false })
            .into_iter()
            .flat_map(|o| match o {
                JobOutput::Bounds(v) => v,
                _ => unreachable!("DualBound job returned a non-Bounds output"), // lint:allow(no-panic-hot-path): exec_job pairs DualBound with Bounds
            })
            .collect()
    }

    /// Exact per-block LP bounds for `items`, in item order — the
    /// polish's hybrid certification path (orders of magnitude more
    /// expensive per block than [`WorkerPool::dual_bounds`]; callers
    /// restrict `items` to the calibrated loose subset).
    pub(crate) fn exact_bounds(&self, items: &[usize]) -> Vec<f64> {
        self.run(items, JobKind::DualBound { exact: true })
            .into_iter()
            .flat_map(|o| match o {
                JobOutput::Bounds(v) => v,
                _ => unreachable!("DualBound job returned a non-Bounds output"), // lint:allow(no-panic-hot-path): exec_job pairs DualBound with Bounds
            })
            .collect()
    }

    /// Polish sweep: `(valid bound, minimizer resource usage)` per item.
    pub(crate) fn polish_sweep(
        &self,
        items: &[usize],
        exact: bool,
    ) -> Vec<(f64, Vec<(usize, f64)>)> {
        self.run(items, JobKind::Polish { exact })
            .into_iter()
            .flat_map(|o| match o {
                JobOutput::Polish(v) => v,
                _ => unreachable!("Polish job returned a non-Polish output"), // lint:allow(no-panic-hot-path): exec_job pairs Polish with Polish
            })
            .collect()
    }

    /// Dispatch `items` (split into contiguous parts, one per worker)
    /// and return the part outputs **in part order** — the determinism
    /// contract's reassembly step.
    fn run(&self, items: &[usize], kind: JobKind) -> Vec<JobOutput> {
        if self.txs.is_empty() || items.len() < PARALLEL_MIN {
            let arena = self.penalty();
            let mut scratch = self.inline.borrow_mut();
            return vec![exec_job(
                self.inst,
                &self.layout,
                &arena,
                kind,
                items,
                &mut scratch,
            )];
        }
        let per = items.len().div_ceil(self.txs.len());
        let mut n_parts = 0usize;
        for (part, (slice, tx)) in items.chunks(per).zip(&self.txs).enumerate() {
            tx.send(Job {
                kind,
                part,
                items: slice.to_vec(),
            })
            .expect("solver worker hung up"); // lint:allow(no-panic-hot-path): hangup implies a worker panic; re-raise it
            n_parts += 1;
        }
        let mut out: Vec<Option<JobOutput>> = (0..n_parts).map(|_| None).collect();
        for _ in 0..n_parts {
            let (part, o) = self.rx.recv().expect("solver worker hung up"); // lint:allow(no-panic-hot-path): hangup implies a worker panic; re-raise it
            out[part] = Some(o);
        }
        out.into_iter()
            .map(|o| o.expect("worker part missing")) // lint:allow(no-panic-hot-path): every part sent exactly once above
            .collect()
    }
}

fn worker_loop(
    inst: &MipInstance,
    layout: RowLayout,
    arena: &RwLock<PenaltyArena>,
    jobs: &mpsc::Receiver<Job>,
    results: &mpsc::Sender<(usize, JobOutput)>,
) {
    let mut scratch = BlockScratch::default();
    while let Ok(job) = jobs.recv() {
        let out = {
            let arena = arena.read().expect("penalty arena lock poisoned"); // lint:allow(no-panic-hot-path): poisoned lock implies a worker panic; re-raise it
            exec_job(inst, &layout, &arena, job.kind, &job.items, &mut scratch)
        };
        if results.send((job.part, out)).is_err() {
            return; // pool gone; nothing left to report to
        }
    }
}

/// The single shared job body — run identically by workers and by the
/// inline path, which is what makes thread count invisible to results.
fn exec_job(
    inst: &MipInstance,
    layout: &RowLayout,
    arena: &PenaltyArena,
    kind: JobKind,
    items: &[usize],
    scratch: &mut BlockScratch,
) -> JobOutput {
    match kind {
        JobKind::Solve => JobOutput::Solutions(
            items
                .iter()
                .map(|&m| {
                    build_ufl_into(
                        inst,
                        layout,
                        &inst.blocks()[m],
                        arena.duals(),
                        arena,
                        &mut scratch.ufl,
                    );
                    scratch
                        .ufl
                        .solve_local_search_fast_with(&mut scratch.search)
                })
                .collect(),
        ),
        JobKind::DualBound { exact } => JobOutput::Bounds(
            items
                .iter()
                .map(|&m| {
                    build_ufl_into(
                        inst,
                        layout,
                        &inst.blocks()[m],
                        arena.duals(),
                        arena,
                        &mut scratch.ufl,
                    );
                    if exact {
                        crate::direct::exact_block_lp(&scratch.ufl, &mut scratch.lp)
                    } else {
                        scratch.ufl.dual_ascent_bound_with(&mut scratch.search)
                    }
                })
                .collect(),
        ),
        JobKind::Polish { exact } => JobOutput::Polish(
            items
                .iter()
                .map(|&m| {
                    let data = &inst.blocks()[m];
                    build_ufl_into(inst, layout, data, arena.duals(), arena, &mut scratch.ufl);
                    // Both solvers run on this build: fuse their
                    // seeding passes (column sums + row minima).
                    scratch.ufl.precompute_lane_aux();
                    let empty = BlockSolution {
                        y: Vec::new(),
                        x: vec![Vec::new(); data.clients.len()],
                    };
                    // Exact mode wants the LP *minimizer's* usage, not
                    // the heuristic's: the pair (exact bound, exact
                    // argmin) is what makes the polish's certification
                    // direction a true subgradient of the Lagrangian
                    // dual.
                    if exact {
                        if let Some((lb, hat)) =
                            crate::direct::exact_block_lp_solution(&scratch.ufl, &mut scratch.lp)
                        {
                            let (usage, _dobj) = block_delta(inst, layout, data, &empty, &hat);
                            return (lb, usage);
                        }
                    }
                    let lb = if exact {
                        crate::direct::exact_block_lp(&scratch.ufl, &mut scratch.lp)
                    } else {
                        scratch.ufl.dual_ascent_bound_with(&mut scratch.search)
                    };
                    let sol = scratch
                        .ufl
                        .solve_local_search_fast_with(&mut scratch.search);
                    let hat = BlockSolution::from_ufl(&sol);
                    let (usage, _dobj) = block_delta(inst, layout, data, &empty, &hat);
                    (lb, usage)
                })
                .collect(),
        ),
    }
}
