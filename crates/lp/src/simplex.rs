//! Two-phase tableau simplex with sparse pivot elimination.
//!
//! Classical textbook implementation: standardize to `Ax = b, x ≥ 0`
//! with slack/surplus/artificial columns (upper bounds become ordinary
//! `x ≤ ub` rows), minimize the artificial sum in phase 1, then the
//! true objective in phase 2. Entering column by Dantzig's rule,
//! switching to Bland's rule (which provably cannot cycle) once the
//! iteration count suggests stalling; leaving row by the minimum-ratio
//! test with smallest-basic-variable tie-breaking.
//!
//! The tableau is stored dense — one row-major `rows × (cols + 1)`
//! buffer — which is exactly what makes the generic approach
//! memory-hungry on placement LPs (Table III); that is intentional, see
//! the crate docs. A pivot, however, only does the nonzero work: it
//! eliminates the nonzero entries of the normalised pivot row, in the
//! rows whose pivot-column entry is nonzero. A skipped update is
//! `x -= f * 0.0`, which can change at most the sign of a zero, and no
//! decision here reads that sign (every test is `!= 0.0`, `> TOL`,
//! `< -TOL` or a ratio comparison), so the pivot sequence and every
//! nonzero are those of the full dense elimination. The RHS column is
//! always eliminated in full, so the solution keeps even the dense
//! elimination's zero signs (`f64::max(-0.0, 0.0)` may return either
//! zero, so they could otherwise reach `x`).
//! [`SimplexScratch`] keeps the buffer across solves.

use crate::problem::{Cmp, LinearProgram, LpError, LpSolution};

const TOL: f64 = 1e-9;

/// Reusable simplex working memory: the tableau buffer and the pivot
/// index lists. Pass the same scratch to [`solve_lp_with`] for a
/// sequence of LPs to build each tableau in place instead of allocating
/// (and page-faulting) a fresh one per solve; results do not depend on
/// what the scratch held before.
#[derive(Debug, Default)]
pub struct SimplexScratch {
    /// Row-major `rows × (cols + 1)` matrix, last column is the RHS.
    a: Vec<f64>,
    /// Reduced-cost row (one tableau row wide); last entry is the
    /// negated objective value.
    cost: Vec<f64>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    /// Nonzero `(column, value)` entries of the normalised pivot row.
    pivot_row: Vec<(usize, f64)>,
    /// Rows other than the pivot row with a nonzero pivot-column entry.
    col_rows: Vec<usize>,
}

struct Tableau<'s> {
    a: &'s mut [f64],
    cost: &'s mut [f64],
    basis: &'s mut [usize],
    pivot_row: &'s mut Vec<(usize, f64)>,
    col_rows: &'s mut Vec<usize>,
    /// Total number of columns excluding RHS.
    cols: usize,
    /// Row stride of `a`: `cols + 1`.
    width: usize,
    /// First artificial column (artificials occupy `art_start..cols`).
    art_start: usize,
    iterations: usize,
}

impl Tableau<'_> {
    fn rows(&self) -> usize {
        self.basis.len()
    }

    fn at(&self, r: usize, j: usize) -> f64 {
        self.a[r * self.width + j]
    }

    fn rhs(&self, r: usize) -> f64 {
        self.at(r, self.cols)
    }

    /// Collect into `col_rows` every row except `row` whose entry in
    /// column `col` is nonzero — the rows a pivot on `(row, col)`
    /// must eliminate.
    fn gather_col_rows(&mut self, row: usize, col: usize) {
        self.col_rows.clear();
        for r in 0..self.rows() {
            if r != row && self.at(r, col) != 0.0 {
                self.col_rows.push(r);
            }
        }
    }

    /// Pivot on `(row, col)`; `col_rows` must hold the rows to
    /// eliminate (see [`Tableau::gather_col_rows`]).
    fn pivot(&mut self, row: usize, col: usize) {
        let w = self.width;
        let prow = &mut self.a[row * w..(row + 1) * w];
        let piv = prow[col];
        debug_assert!(piv.abs() > TOL, "pivot too small: {piv}");
        let inv = 1.0 / piv;
        for x in prow.iter_mut() {
            *x *= inv;
        }
        // Clean the pivot entry exactly.
        prow[col] = 1.0;
        // The nonzeros, plus the RHS even when it is zero: eliminating
        // it in full keeps every basic value — hence `x` — at the dense
        // elimination's bits, zero signs included.
        let (body, rhs) = prow.split_at(self.cols);
        self.pivot_row.clear();
        self.pivot_row.extend(
            body.iter()
                .enumerate()
                .filter(|&(_, &p)| p != 0.0)
                .map(|(j, &p)| (j, p)),
        );
        self.pivot_row.push((self.cols, rhs[0]));
        for &r in self.col_rows.iter() {
            // Row operation: a[r] -= factor * a[row], over the pivot
            // row's nonzeros only.
            let dst = &mut self.a[r * w..(r + 1) * w];
            let factor = dst[col];
            for &(j, p) in self.pivot_row.iter() {
                dst[j] -= factor * p;
            }
            dst[col] = 0.0;
        }
        let factor = self.cost[col];
        if factor != 0.0 {
            for &(j, p) in self.pivot_row.iter() {
                self.cost[j] -= factor * p;
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
            // The same scan collects the column's nonzero rows.
            self.col_rows.clear();
            let mut leave: Option<(usize, f64)> = None;
            for r in 0..self.rows() {
                let coef = self.at(r, col);
                if coef != 0.0 {
                    self.col_rows.push(r);
                }
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
            self.col_rows.retain(|&r| r != row);
            self.pivot(row, col);
            local_iters += 1;
            if local_iters > max_iters {
                return Err(LpError::IterationLimit);
            }
        }
    }
}

/// Solve a minimization LP to optimality with the two-phase simplex,
/// in a fresh [`SimplexScratch`].
pub fn solve_lp(lp: &LinearProgram) -> Result<LpSolution, LpError> {
    solve_lp_with(lp, &mut SimplexScratch::default())
}

/// As [`solve_lp`], building the tableau in `scratch`'s buffers.
pub fn solve_lp_with(
    lp: &LinearProgram,
    scratch: &mut SimplexScratch,
) -> Result<LpSolution, LpError> {
    let n = lp.num_vars();
    let rows = lp.all_rows();
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
    let width = cols + 1;

    // Build the tableau in the scratch buffers.
    let SimplexScratch {
        a,
        cost,
        basis,
        pivot_row,
        col_rows,
    } = scratch;
    a.clear();
    a.resize(m * width, 0.0);
    basis.clear();
    basis.resize(m, usize::MAX);
    let mut next_slack = n;
    let mut next_art = art_start;
    for (r, (row, plan)) in rows.iter().zip(&plans).enumerate() {
        let ar = &mut a[r * width..(r + 1) * width];
        let sign = if plan.flip { -1.0 } else { 1.0 };
        for &(v, coef) in &row.terms {
            ar[v] += sign * coef;
        }
        ar[cols] = sign * row.rhs;
        if let Some(s) = plan.slack {
            ar[next_slack] = s as f64;
            if s > 0 {
                basis[r] = next_slack;
            }
            next_slack += 1;
        }
        if plan.artificial {
            ar[next_art] = 1.0;
            basis[r] = next_art;
            next_art += 1;
        }
        debug_assert!(basis[r] != usize::MAX);
        debug_assert!(ar[cols] >= 0.0);
    }
    cost.clear();
    cost.resize(width, 0.0);

    let max_iters = 200 * (m + cols) + 20_000;
    let mut t = Tableau {
        a,
        cost,
        basis,
        pivot_row,
        col_rows,
        cols,
        width,
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
                let row = &t.a[r * width..(r + 1) * width];
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
                if let Some(col) = (0..art_start).find(|&j| t.at(r, j).abs() > 1e-7) {
                    t.gather_col_rows(r, col);
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
    t.cost.fill(0.0);
    t.cost[..n].copy_from_slice(lp.objective());
    for r in 0..m {
        let b = t.basis[r];
        let factor = t.cost[b];
        if factor != 0.0 {
            let row = &t.a[r * width..(r + 1) * width];
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Cmp, LinearProgram};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_maximization_as_min() {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18 → opt (2,6), 36.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-3.0, None);
        let y = lp.add_var(-5.0, None);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 4.0);
        lp.add_constraint(vec![(y, 2.0)], Cmp::Le, 12.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let s = solve_lp(&lp).unwrap();
        assert_close(s.objective, -36.0);
        assert_close(s.x[x], 2.0);
        assert_close(s.x[y], 6.0);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + 2y s.t. x + y = 10, x >= 3 → (10 - y) ... opt x=10,y=0? x>=3.
        // min x+2y, x+y=10, x>=3: substitute y=10-x → x + 20 - 2x = 20 - x,
        // minimized by x as large as possible → x=10, y=0, obj 10.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, None);
        let y = lp.add_var(2.0, None);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 10.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 3.0);
        let s = solve_lp(&lp).unwrap();
        assert_close(s.objective, 10.0);
        assert_close(s.x[x], 10.0);
    }

    #[test]
    fn upper_bounds_respected() {
        // min -x with x <= 2.5 → x = 2.5.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-1.0, Some(2.5));
        let s = solve_lp(&lp).unwrap();
        assert_close(s.x[x], 2.5);
        assert_close(s.objective, -2.5);
    }

    #[test]
    fn detects_infeasible() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, None);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0);
        assert!(matches!(solve_lp(&lp), Err(LpError::Infeasible)));
    }

    #[test]
    fn detects_unbounded() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-1.0, None);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        assert!(matches!(solve_lp(&lp), Err(LpError::Unbounded)));
        // And with no constraints at all.
        let mut lp2 = LinearProgram::new();
        lp2.add_var(-1.0, None);
        assert!(matches!(solve_lp(&lp2), Err(LpError::Unbounded)));
    }

    #[test]
    fn negative_rhs_normalization() {
        // min x s.t. -x <= -4  (i.e. x >= 4).
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, None);
        lp.add_constraint(vec![(x, -1.0)], Cmp::Le, -4.0);
        let s = solve_lp(&lp).unwrap();
        assert_close(s.x[x], 4.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Multiple redundant constraints through the same vertex.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-1.0, None);
        let y = lp.add_var(-1.0, None);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 1.0);
        lp.add_constraint(vec![(x, 2.0), (y, 2.0)], Cmp::Le, 2.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        let s = solve_lp(&lp).unwrap();
        assert_close(s.objective, -1.0);
    }

    #[test]
    fn redundant_equality_rows() {
        // x + y = 2 stated twice; min x → x=0, y=2.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, None);
        let y = lp.add_var(0.0, None);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        let s = solve_lp(&lp).unwrap();
        assert_close(s.objective, 0.0);
        assert_close(s.x[y], 2.0);
    }

    #[test]
    fn transportation_instance() {
        // 2 plants (cap 20, 30) → 3 customers (dem 10, 25, 15);
        // costs [[8,6,10],[9,12,13]]. Known optimum: 395..? compute:
        // ship plant1: c2 25 ... LP will find it; we just check
        // feasibility + objective against a hand-enumerated optimum.
        let mut lp = LinearProgram::new();
        let costs = [[8.0, 6.0, 10.0], [9.0, 12.0, 13.0]];
        let caps = [20.0, 30.0];
        let dems = [10.0, 25.0, 15.0];
        let mut v = [[0usize; 3]; 2];
        for i in 0..2 {
            for j in 0..3 {
                v[i][j] = lp.add_var(costs[i][j], None);
            }
        }
        for i in 0..2 {
            lp.add_constraint((0..3).map(|j| (v[i][j], 1.0)).collect(), Cmp::Le, caps[i]);
        }
        for j in 0..3 {
            lp.add_constraint((0..2).map(|i| (v[i][j], 1.0)).collect(), Cmp::Ge, dems[j]);
        }
        let s = solve_lp(&lp).unwrap();
        assert!(lp.max_violation(&s.x) < 1e-6);
        // Optimal: plant1 serves cust2 (25·6 would exceed cap with
        // others) — verify against brute force over integer grids is
        // overkill; the LP optimum is 440:
        //   x12=20 (120), x21=10 (90), x22=5 (60), x23=15 (195) → 465?
        // Instead of hand-solving, check duality-free necessary
        // conditions: objective must be <= any feasible candidate.
        let candidate_obj = 6.0 * 20.0 + 9.0 * 10.0 + 12.0 * 5.0 + 13.0 * 15.0;
        assert!(s.objective <= candidate_obj + 1e-9);
        assert!(s.objective >= 300.0);
    }

    #[test]
    fn zero_rhs_equality() {
        // min x + y s.t. x - y = 0, x + y >= 2 → x=y=1.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, None);
        let y = lp.add_var(1.0, None);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Cmp::Eq, 0.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 2.0);
        let s = solve_lp(&lp).unwrap();
        assert_close(s.x[x], 1.0);
        assert_close(s.x[y], 1.0);
    }
}
