//! A from-scratch generic linear-programming solver.
//!
//! This crate is the workspace's stand-in for the commercial solver
//! (CPLEX) the paper benchmarks against in Table III and Section V-C:
//! a correct, general-purpose, *non-decomposed* LP code. It
//! deliberately implements the classical dense two-phase tableau
//! simplex — robust and exact on small instances — so that:
//!
//! 1. the EPF decomposition solver in `vod-core` can be validated
//!    against exact optima on small placement instances, and
//! 2. the Table III scalability comparison can demonstrate the same
//!    *shape* the paper reports: superlinear time and a dense-matrix
//!    memory footprint for the generic code versus near-linear
//!    behaviour for the decomposition.
//!
//! The tableau is dense in *size* — one row-major buffer of
//! `rows × (cols + 1)` floats, which is what
//! [`LinearProgram::tableau_bytes`] and Table III's memory model count
//! — but each pivot eliminates only nonzero entries (see [`simplex`]),
//! with the same pivot sequence and result bits as a full dense
//! elimination. [`solve_lp_with`] reuses one [`SimplexScratch`] buffer
//! across a sequence of solves; [`solve_lp`] allocates a fresh one.
//!
//! A simple depth-first branch-and-bound wrapper
//! ([`branch_bound::solve_mip`]) provides exact mixed-integer optima
//! on tiny instances, used to validate the rounding heuristic.

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::float_cmp,
        clippy::cast_possible_truncation
    )
)]

pub mod branch_bound;
pub mod problem;
pub mod simplex;

pub use branch_bound::{solve_mip, MipOutcome};
pub use problem::{Cmp, LinearProgram, LpError, LpSolution};
pub use simplex::{solve_lp, solve_lp_with, SimplexScratch};
