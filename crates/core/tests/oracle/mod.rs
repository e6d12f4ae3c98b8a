//! Scalar test oracles for the EPF inner loops.
//!
//! The solver ships one production path per layer: the `[f64; 8]` lane
//! kernels of `vod_core::kernel`, the streaming UFL solvers of
//! `vod_core::block` built on them, and the sparse penalty arena. The
//! plain loop shapes those paths replaced live here, verbatim, as the
//! reference semantics the production paths must reproduce **bitwise**:
//!
//! - the six kernel primitives (`axpy`, `drain_budget`, `accum`,
//!   `accum_relu_sub`, `row_min`, `headroom_min`);
//! - facility-major add/drop/swap local search, full and add/drop-only
//!   ([`local_search`]);
//! - facility-major Erlenkotter dual ascent ([`dual_ascent_bound`]);
//! - the naive link-dual path sum behind every penalty-arena read
//!   ([`penalty_sum`]).
//!
//! They are written against the public `UflProblem` / `RowLayout` API
//! only. Slow by design: nothing here is screened, cached or fused.
#![allow(dead_code)]

use vod_core::block::{UflProblem, UflSolution};
use vod_core::potential::{Duals, RowLayout};
use vod_core::MipInstance;
use vod_model::VhoId;

/// The solvers' improvement tolerance (mirrors the private constant
/// of `vod_core::block`).
const TOL: f64 = 1e-12;

// ---------------------------------------------------------------------------
// Kernel primitives.
// ---------------------------------------------------------------------------

pub fn axpy(acc: &mut [f64], w: f64, src: &[f64]) {
    for (a, &s) in acc.iter_mut().zip(src) {
        *a += w * s;
    }
}

pub fn drain_budget(budget: &mut [f64], row: &[f64], vc: f64, delta: f64) {
    let s = vc + delta;
    for (b, &r) in budget.iter_mut().zip(row) {
        *b -= (s - r.max(vc)).max(0.0);
    }
}

pub fn accum(acc: &mut [f64], row: &[f64]) {
    for (a, &r) in acc.iter_mut().zip(row) {
        *a += r;
    }
}

pub fn accum_relu_sub(acc: &mut [f64], s: f64, row: &[f64]) {
    for (a, &r) in acc.iter_mut().zip(row) {
        *a += (s - r).max(0.0);
    }
}

pub fn row_min(row: &[f64]) -> f64 {
    row.iter().cloned().fold(f64::MAX, f64::min)
}

pub fn headroom_min(row: &[f64], vc: f64, budget: &[f64]) -> f64 {
    let mut delta = f64::MAX;
    for (&r, &b) in row.iter().zip(budget) {
        delta = delta.min((r - vc).max(0.0) + b.max(0.0));
    }
    delta
}

// ---------------------------------------------------------------------------
// UFL block solvers.
// ---------------------------------------------------------------------------

/// Greedy start + first-improvement add / drop (/ swap when
/// `with_swaps`) local search: the oracle of
/// `UflProblem::solve_local_search` (`with_swaps = true`) and
/// `UflProblem::solve_local_search_fast` (`with_swaps = false`).
pub fn local_search(p: &UflProblem, with_swaps: bool) -> UflSolution {
    let n = p.n_facilities();
    let n_clients = p.n_clients();

    // Start: the single facility minimizing open + total service.
    let mut best_single = 0;
    let mut best_single_cost = f64::MAX;
    for i in 0..n {
        let c: f64 = p.facility_cost[i] + p.service_rows().map(|row| row[i]).sum::<f64>();
        if c < best_single_cost {
            best_single_cost = c;
            best_single = i;
        }
    }
    let mut open = vec![false; n];
    open[best_single] = true;
    let mut assign = vec![best_single; n_clients];
    let mut new_assign: Vec<usize> = Vec::with_capacity(n_clients);

    let max_rounds = 4 * n + 16;
    for _round in 0..max_rounds {
        let mut improved = false;

        // ADD moves: open k, reassign clients that benefit.
        for k in 0..n {
            if open[k] {
                continue;
            }
            let fl: f64 = p
                .service_rows()
                .zip(assign.iter())
                .map(|(row, &cur)| (row[cur] - row[k]).max(0.0))
                .sum::<f64>();
            let gain = fl - p.facility_cost[k];
            if gain <= TOL {
                continue;
            }
            open[k] = true;
            for (row, a) in p.service_rows().zip(assign.iter_mut()) {
                if row[k] < row[*a] {
                    *a = k;
                }
            }
            improved = true;
        }

        // DROP moves: close k if rerouting its clients to their best
        // other open facility saves the opening cost.
        let open_count = open.iter().filter(|&&o| o).count();
        if open_count > 1 {
            for k in 0..n {
                if !open[k] {
                    continue;
                }
                if open.iter().filter(|&&o| o).count() == 1 {
                    break;
                }
                let mut reroute_penalty = 0.0;
                let mut feasible = true;
                new_assign.clear();
                new_assign.extend_from_slice(&assign);
                for (c, (row, &cur)) in p.service_rows().zip(assign.iter()).enumerate() {
                    if cur == k {
                        let alt = (0..n)
                            .filter(|&i| i != k && open[i])
                            .min_by(|&a, &b| row[a].total_cmp(&row[b]));
                        match alt {
                            Some(alt) => {
                                reroute_penalty += row[alt] - row[k];
                                new_assign[c] = alt;
                            }
                            None => {
                                feasible = false;
                                break;
                            }
                        }
                    }
                }
                if feasible && p.facility_cost[k] - reroute_penalty > TOL {
                    open[k] = false;
                    std::mem::swap(&mut assign, &mut new_assign);
                    improved = true;
                }
            }
        }

        // SWAP moves: replace open k by closed k2.
        if !with_swaps {
            if !improved {
                break;
            }
            continue;
        }
        for k in 0..n {
            if !open[k] {
                continue;
            }
            for k2 in 0..n {
                if open[k2] {
                    continue;
                }
                // Cost after the swap: every client picks its best
                // among (open \ {k}) ∪ {k2}.
                let mut delta = p.facility_cost[k2] - p.facility_cost[k];
                new_assign.clear();
                new_assign.extend_from_slice(&assign);
                for (c, (row, &cur)) in p.service_rows().zip(assign.iter()).enumerate() {
                    let best = (0..n)
                        .filter(|&i| (open[i] && i != k) || i == k2)
                        .min_by(|&a, &b| row[a].total_cmp(&row[b]))
                        .expect("k2 is always available");
                    delta += row[best] - row[cur];
                    new_assign[c] = best;
                }
                if delta < -TOL {
                    open[k] = false;
                    open[k2] = true;
                    std::mem::swap(&mut assign, &mut new_assign);
                    improved = true;
                    break;
                }
            }
        }

        if !improved {
            break;
        }
    }

    // Drop opened-but-unused facilities (keep at least one).
    let mut used = vec![false; n];
    for &a in &assign {
        used[a] = true;
    }
    let mut open_list: Vec<usize> = (0..n).filter(|&i| open[i] && used[i]).collect();
    if open_list.is_empty() {
        // No clients: keep the cheapest open facility.
        let keep = (0..n)
            .filter(|&i| open[i])
            .min_by(|&a, &b| p.facility_cost[a].total_cmp(&p.facility_cost[b]))
            .expect("at least one facility is open");
        open_list.push(keep);
    }
    UflSolution {
        open: open_list,
        assign,
    }
}

/// Erlenkotter-style dual ascent, facility-major: the oracle of
/// `UflProblem::dual_ascent_bound`.
pub fn dual_ascent_bound(p: &UflProblem) -> f64 {
    let n = p.n_facilities();
    if p.n_clients() == 0 {
        return p.facility_cost.iter().cloned().fold(f64::MAX, f64::min);
    }
    // v_c starts at the client's cheapest service cost.
    let mut v: Vec<f64> = p
        .service_rows()
        .map(|row| row.iter().cloned().fold(f64::MAX, f64::min))
        .collect();
    // Remaining budget of each facility.
    let mut budget: Vec<f64> = (0..n)
        .map(|i| {
            let used: f64 = v
                .iter()
                .zip(p.service_rows())
                .map(|(&vc, row)| (vc - row[i]).max(0.0))
                .sum();
            p.facility_cost[i] - used
        })
        .collect();

    // Ascend until no client can be raised, in ascending-v order.
    let mut order: Vec<usize> = (0..v.len()).collect();
    for _pass in 0..30 {
        order.sort_by(|&a, &b| v[a].total_cmp(&v[b]).then(a.cmp(&b)));
        let mut raised = 0.0;
        for &c in &order {
            let row = p.service_row(c);
            // Max uniform raise of v_c keeping all facilities within
            // budget: for facility i the raise may consume budget only
            // beyond max(s_ci, v_c).
            let mut delta = f64::MAX;
            for i in 0..n {
                let headroom = (row[i] - v[c]).max(0.0) + budget[i].max(0.0);
                delta = delta.min(headroom);
            }
            if delta > 1e-12 && delta < f64::MAX {
                for i in 0..n {
                    let inc = (v[c] + delta - row[i].max(v[c])).max(0.0);
                    budget[i] -= inc;
                }
                v[c] += delta;
                raised += delta;
            }
        }
        if raised < 1e-12 {
            break;
        }
    }
    v.iter().sum()
}

// ---------------------------------------------------------------------------
// Penalty arena.
// ---------------------------------------------------------------------------

/// `D_t(i, j) = Σ_{l ∈ P_ij} π_{(l,t)}`, summed in path order (`0.0`
/// on the diagonal): the value every `PenaltyArena::at(t, i, j)` read
/// must reproduce bitwise.
pub fn penalty_sum(
    inst: &MipInstance,
    layout: &RowLayout,
    duals: &Duals,
    t: usize,
    i: usize,
    j: usize,
) -> f64 {
    if i == j {
        return 0.0;
    }
    let path = inst.paths.path(VhoId::from_index(i), VhoId::from_index(j));
    let mut sum = 0.0;
    for &l in path {
        sum += duals.rows[layout.link_row(l, t)];
    }
    sum
}
