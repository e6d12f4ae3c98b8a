//! Test oracle: the dense two-phase tableau simplex that `vod_lp`'s
//! sparse-elimination simplex replaced, kept verbatim (`Vec<Vec<f64>>`
//! tableau, every pivot a full-row update of every row with a nonzero
//! pivot-column entry). `simplex_props` asserts the production solver
//! reproduces its objective, solution and iteration count bit for bit.
//!
//! The only change is that the bound rows are rebuilt here from the
//! public `rows()` and `upper_bound()`, because
//! `LinearProgram::all_rows` is crate-private.

use vod_lp::problem::Row;
use vod_lp::{Cmp, LinearProgram, LpError, LpSolution};

const TOL: f64 = 1e-9;

struct Tableau {
    /// `rows × (cols + 1)` matrix, last column is the RHS.
    a: Vec<Vec<f64>>,
    /// Reduced-cost row (same width as `a` rows); last entry is the
    /// negated objective value.
    cost: Vec<f64>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    /// Total number of columns excluding RHS.
    cols: usize,
    /// First artificial column (artificials occupy `art_start..cols`).
    art_start: usize,
    iterations: usize,
}

impl Tableau {
    fn rhs(&self, r: usize) -> f64 {
        self.a[r][self.cols]
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let piv = self.a[row][col];
        debug_assert!(piv.abs() > TOL, "pivot too small: {piv}");
        let inv = 1.0 / piv;
        for x in &mut self.a[row] {
            *x *= inv;
        }
        // Clean the pivot entry exactly.
        self.a[row][col] = 1.0;
        for r in 0..self.a.len() {
            if r != row {
                let factor = self.a[r][col];
                if factor != 0.0 {
                    // Row operation: a[r] -= factor * a[row].
                    let (head, tail) = if r < row {
                        let (h, t) = self.a.split_at_mut(row);
                        (&mut h[r], &t[0])
                    } else {
                        let (h, t) = self.a.split_at_mut(r);
                        (&mut t[0], &h[row])
                    };
                    for (x, &p) in head.iter_mut().zip(tail.iter()) {
                        *x -= factor * p;
                    }
                    head[col] = 0.0;
                }
            }
        }
        let factor = self.cost[col];
        if factor != 0.0 {
            for (x, &p) in self.cost.iter_mut().zip(self.a[row].iter()) {
                *x -= factor * p;
            }
            self.cost[col] = 0.0;
        }
        self.basis[row] = col;
        self.iterations += 1;
    }

    /// Run simplex iterations on the current cost row until optimal.
    /// `allow_artificial` permits artificial columns to enter (phase 1
    /// pivoting among artificials is harmless; phase 2 forbids them).
    fn optimize(&mut self, allow_artificial: bool, max_iters: usize) -> Result<(), LpError> {
        let bland_after = max_iters / 2;
        let mut local_iters = 0;
        loop {
            let limit = if allow_artificial {
                self.cols
            } else {
                self.art_start
            };
            // Entering column.
            let entering = if local_iters < bland_after {
                // Dantzig: most negative reduced cost.
                let mut best: Option<(usize, f64)> = None;
                for j in 0..limit {
                    let c = self.cost[j];
                    if c < -TOL && best.is_none_or(|(_, bc)| c < bc) {
                        best = Some((j, c));
                    }
                }
                best.map(|(j, _)| j)
            } else {
                // Bland: smallest index with negative reduced cost.
                (0..limit).find(|&j| self.cost[j] < -TOL)
            };
            let Some(col) = entering else {
                return Ok(());
            };
            // Leaving row: min ratio, tie-break smallest basic var.
            let mut leave: Option<(usize, f64)> = None;
            for r in 0..self.a.len() {
                let coef = self.a[r][col];
                if coef > TOL {
                    let ratio = self.rhs(r) / coef;
                    match leave {
                        None => leave = Some((r, ratio)),
                        Some((br, bratio)) => {
                            if ratio < bratio - TOL
                                || (ratio < bratio + TOL && self.basis[r] < self.basis[br])
                            {
                                leave = Some((r, ratio));
                            }
                        }
                    }
                }
            }
            let Some((row, _)) = leave else {
                return Err(LpError::Unbounded);
            };
            self.pivot(row, col);
            local_iters += 1;
            if local_iters > max_iters {
                return Err(LpError::IterationLimit);
            }
        }
    }
}

/// The constraint rows plus one materialised `x ≤ ub` row per upper
/// bound, in the order `LinearProgram::all_rows` (crate-private) uses.
fn all_rows(lp: &LinearProgram) -> Vec<Row> {
    let mut rows = lp.rows().to_vec();
    for v in 0..lp.num_vars() {
        if let Some(ub) = lp.upper_bound(v) {
            rows.push(Row {
                terms: vec![(v, 1.0)],
                cmp: Cmp::Le,
                rhs: ub,
            });
        }
    }
    rows
}

/// Solve a minimization LP to optimality with the two-phase simplex.
pub fn solve_lp(lp: &LinearProgram) -> Result<LpSolution, LpError> {
    let n = lp.num_vars();
    let rows = all_rows(lp);
    if rows.is_empty() {
        // Unconstrained except x >= 0: optimum at 0 unless some cost is
        // negative (then pushing that variable up is unbounded).
        if lp.objective().iter().any(|&c| c < -TOL) {
            return Err(LpError::Unbounded);
        }
        return Ok(LpSolution {
            x: vec![0.0; n],
            objective: 0.0,
            iterations: 0,
        });
    }
    let m = rows.len();

    // Standardize: rhs >= 0, count extra columns.
    #[derive(Clone, Copy)]
    struct RowPlan {
        flip: bool,
        slack: Option<i8>, // +1 slack (Le), -1 surplus (Ge)
        artificial: bool,
    }
    let mut plans = Vec::with_capacity(m);
    for row in &rows {
        let flip = row.rhs < 0.0;
        let cmp = if flip {
            match row.cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            }
        } else {
            row.cmp
        };
        let (slack, artificial) = match cmp {
            Cmp::Le => (Some(1i8), false),
            Cmp::Ge => (Some(-1i8), true),
            Cmp::Eq => (None, true),
        };
        plans.push(RowPlan {
            flip,
            slack,
            artificial,
        });
    }
    let n_slack = plans.iter().filter(|p| p.slack.is_some()).count();
    let n_art = plans.iter().filter(|p| p.artificial).count();
    let art_start = n + n_slack;
    let cols = n + n_slack + n_art;

    // Build the tableau.
    let mut a = vec![vec![0.0; cols + 1]; m];
    let mut basis = vec![usize::MAX; m];
    let mut next_slack = n;
    let mut next_art = art_start;
    for (r, (row, plan)) in rows.iter().zip(&plans).enumerate() {
        let sign = if plan.flip { -1.0 } else { 1.0 };
        for &(v, coef) in &row.terms {
            a[r][v] += sign * coef;
        }
        a[r][cols] = sign * row.rhs;
        if let Some(s) = plan.slack {
            a[r][next_slack] = s as f64;
            if s > 0 {
                basis[r] = next_slack;
            }
            next_slack += 1;
        }
        if plan.artificial {
            a[r][next_art] = 1.0;
            basis[r] = next_art;
            next_art += 1;
        }
        debug_assert!(basis[r] != usize::MAX);
        debug_assert!(a[r][cols] >= 0.0);
    }

    let max_iters = 200 * (m + cols) + 20_000;
    let mut t = Tableau {
        a,
        cost: vec![0.0; cols + 1],
        basis,
        cols,
        art_start,
        iterations: 0,
    };

    // ---- Phase 1: minimize the sum of artificials. ----
    if n_art > 0 {
        for j in art_start..cols {
            t.cost[j] = 1.0;
        }
        // Zero out reduced costs of basic (artificial) columns.
        for r in 0..m {
            if t.basis[r] >= art_start {
                let row = t.a[r].clone();
                for (x, p) in t.cost.iter_mut().zip(row.iter()) {
                    *x -= p;
                }
            }
        }
        t.optimize(true, max_iters)?;
        let phase1_obj = -t.cost[cols];
        if phase1_obj > 1e-6 {
            return Err(LpError::Infeasible);
        }
        // Drive any remaining basic artificials out of the basis.
        for r in 0..m {
            if t.basis[r] >= art_start {
                if let Some(col) = (0..art_start).find(|&j| t.a[r][j].abs() > 1e-7) {
                    t.pivot(r, col);
                }
                // Otherwise the row is all-zero over structural and
                // slack columns (redundant constraint) with rhs ≈ 0;
                // leaving the artificial basic at level 0 is harmless
                // as long as it can never re-enter with positive value
                // — phase 2 forbids artificial entering columns and the
                // ratio test keeps basics feasible.
            }
        }
    }

    // ---- Phase 2: minimize the true objective. ----
    t.cost = vec![0.0; cols + 1];
    for (j, &c) in lp.objective().iter().enumerate() {
        t.cost[j] = c;
    }
    for r in 0..m {
        let b = t.basis[r];
        let factor = t.cost[b];
        if factor != 0.0 {
            let row = t.a[r].clone();
            for (x, p) in t.cost.iter_mut().zip(row.iter()) {
                *x -= factor * p;
            }
            t.cost[b] = 0.0;
        }
    }
    t.optimize(false, max_iters)?;

    // Extract the solution.
    let mut x = vec![0.0; n];
    for r in 0..m {
        if t.basis[r] < n {
            x[t.basis[r]] = t.rhs(r).max(0.0);
        }
    }
    let objective = lp.objective_value(&x);
    Ok(LpSolution {
        x,
        objective,
        iterations: t.iterations,
    })
}
