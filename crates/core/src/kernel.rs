//! Lane kernels for the EPF inner loops — the penalty re-sum and the
//! UFL row evaluation.
//!
//! Every primitive runs `[f64; 8]` lane accumulators over
//! `chunks_exact`, written so stable rustc autovectorizes the lane
//! loops (no `unsafe`, no intrinsics). Each one computes, per element,
//! **bitwise** what the plain scalar loop would.
//!
//! **Determinism contract.** Identity with the scalar loop shapes holds
//! because every operation here is either (a) purely elementwise
//! (`axpy`, `drain_budget`) — the lanes never interact, so lane width
//! is invisible; (b) a *striped accumulation* (`accum`,
//! `accum_relu_sub`) where element `i` of the accumulator receives its
//! addends in exactly the source order — per-element addition order is
//! the scalar order, only the interleaving across independent elements
//! changes; or (c) a `min` reduction (`row_min`, `headroom_min`),
//! which is exactly reorderable for the value sets the solver feeds
//! it: no NaNs (inputs are finite by `UflProblem::assert_valid`) and
//! no `-0.0` (every candidate is a sum/product of nonnegative terms,
//! or an `x - y` with `x >= y` under round-to-nearest, both of which
//! yield `+0.0` at zero) — so `min` is associative and commutative
//! *bitwise*, not just numerically. Sum reductions are **never**
//! reordered: the penalty re-sum ([`gather_sum`]) stays sequential in
//! path order (the arena's rebuild invariant), and nothing here uses
//! `mul_add` (FMA changes rounding).
//!
//! The scalar loop shapes survive as test oracles only: the kernel
//! proptests (`tests/kernel_props.rs`) pin every primitive, and the
//! whole UFL solvers built on them, bitwise against those oracles.

/// Lane width of the kernels. Eight `f64` lanes = one AVX-512
/// register or two AVX2 ops — wide enough to saturate stable
/// autovectorization, narrow enough that the remainder loop stays
/// cheap on the solver's `V ≈ 50` rows.
pub const LANES: usize = 8;

/// Retired backend selector: a field-less marker. There is one lane
/// backend, so nothing branches on this value. It survives only
/// because external callers still pass `EpfConfig::kernel` as the
/// fourth argument of [`crate::rounding::round_solution`]; remove both
/// together once those callers change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Kernel;

// ---------------------------------------------------------------------------
// Elementwise ops (lane width invisible by construction).
// ---------------------------------------------------------------------------

/// `acc[i] += w · src[i]` — the penalty-row accumulation of
/// `build_ufl_into` (one call per nonzero demand window, streaming the
/// arena's contiguous client row).
#[inline]
pub fn axpy(acc: &mut [f64], w: f64, src: &[f64]) {
    debug_assert_eq!(acc.len(), src.len());
    let mut ac = acc.chunks_exact_mut(LANES);
    let mut sc = src.chunks_exact(LANES);
    for (a, s) in (&mut ac).zip(&mut sc) {
        for l in 0..LANES {
            a[l] += w * s[l];
        }
    }
    for (a, &s) in ac.into_remainder().iter_mut().zip(sc.remainder()) {
        *a += w * s;
    }
}

/// `budget[i] -= (vc + delta − max(row[i], vc))⁺` — the dual-ascent
/// budget drain. Elementwise; `vc + delta` is computed once (the same
/// rounding the scalar loop performs every iteration).
#[inline]
pub fn drain_budget(budget: &mut [f64], row: &[f64], vc: f64, delta: f64) {
    debug_assert_eq!(budget.len(), row.len());
    let s = vc + delta;
    let mut bc = budget.chunks_exact_mut(LANES);
    let mut rc = row.chunks_exact(LANES);
    for (b, r) in (&mut bc).zip(&mut rc) {
        for l in 0..LANES {
            b[l] -= (s - r[l].max(vc)).max(0.0);
        }
    }
    for (b, &r) in bc.into_remainder().iter_mut().zip(rc.remainder()) {
        *b -= (s - r.max(vc)).max(0.0);
    }
}

// ---------------------------------------------------------------------------
// Striped accumulations (per-element addend order = scalar order).
// ---------------------------------------------------------------------------

/// `acc[i] += row[i]` — one client row folded into per-facility
/// totals. Streaming this over all rows computes the same per-facility
/// sums as a facility-major strided pass, in the same per-element order.
#[inline]
pub fn accum(acc: &mut [f64], row: &[f64]) {
    debug_assert_eq!(acc.len(), row.len());
    let mut ac = acc.chunks_exact_mut(LANES);
    let mut rc = row.chunks_exact(LANES);
    for (a, r) in (&mut ac).zip(&mut rc) {
        for l in 0..LANES {
            a[l] += r[l];
        }
    }
    for (a, &r) in ac.into_remainder().iter_mut().zip(rc.remainder()) {
        *a += r;
    }
}

/// `acc[i] += (s − row[i])⁺` — the ADD-move gain screen and the
/// dual-ascent budget initialization, streamed one client row at a
/// time against that client's scalar `s` (current cost, or `v_c`).
#[inline]
pub fn accum_relu_sub(acc: &mut [f64], s: f64, row: &[f64]) {
    debug_assert_eq!(acc.len(), row.len());
    let mut ac = acc.chunks_exact_mut(LANES);
    let mut rc = row.chunks_exact(LANES);
    for (a, r) in (&mut ac).zip(&mut rc) {
        for l in 0..LANES {
            a[l] += (s - r[l]).max(0.0);
        }
    }
    for (a, &r) in ac.into_remainder().iter_mut().zip(rc.remainder()) {
        *a += (s - r).max(0.0);
    }
}

// ---------------------------------------------------------------------------
// Min reductions (exactly reorderable: no NaN, no -0.0 — see module doc).
// ---------------------------------------------------------------------------

/// `min_i row[i]` (`f64::MAX` on an empty row) — the dual-ascent `v_c`
/// initialization.
#[inline]
pub fn row_min(row: &[f64]) -> f64 {
    let mut lanes = [f64::MAX; LANES];
    let mut rc = row.chunks_exact(LANES);
    for r in &mut rc {
        for l in 0..LANES {
            lanes[l] = lanes[l].min(r[l]);
        }
    }
    let mut m = f64::MAX;
    for &lane in &lanes {
        m = m.min(lane);
    }
    for &r in rc.remainder() {
        m = m.min(r);
    }
    m
}

/// `min_i ((row[i] − vc)⁺ + budget[i]⁺)` — the dual-ascent raise
/// headroom of one client over all facilities.
#[inline]
pub fn headroom_min(row: &[f64], vc: f64, budget: &[f64]) -> f64 {
    debug_assert_eq!(budget.len(), row.len());
    let mut lanes = [f64::MAX; LANES];
    let mut rc = row.chunks_exact(LANES);
    let mut bc = budget.chunks_exact(LANES);
    for (r, b) in (&mut rc).zip(&mut bc) {
        for l in 0..LANES {
            lanes[l] = lanes[l].min((r[l] - vc).max(0.0) + b[l].max(0.0));
        }
    }
    let mut m = f64::MAX;
    for &lane in &lanes {
        m = m.min(lane);
    }
    for (&r, &b) in rc.remainder().iter().zip(bc.remainder()) {
        m = m.min((r - vc).max(0.0) + b.max(0.0));
    }
    m
}

// ---------------------------------------------------------------------------
// Gather sum (sequential — path order is the invariant).
// ---------------------------------------------------------------------------

/// `Σ_k w[idx[k]]` in index order. The penalty re-sum: `idx` is one
/// pair's path (as link indices into the window's contiguous dual
/// slice `w`). Deliberately sequential — the arena's rebuild
/// invariant fixes the addition order to path order, and paths are
/// short (a handful of links); the lane win for the batched update
/// comes from gathering `w` once per window and streaming dirty pairs
/// through this, not from reordering the sum.
#[inline]
pub fn gather_sum(idx: &[u32], w: &[f64]) -> f64 {
    let mut sum = 0.0;
    for &l in idx {
        sum += w[l as usize];
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_sum_matches_path_order_fold() {
        let w: Vec<f64> = (0..20).map(|k| (k * 37 % 11) as f64 / 8.0).collect();
        let idx = [3u32, 0, 19, 7, 3];
        let want: f64 = idx.iter().map(|&l| w[l as usize]).sum();
        assert_eq!(gather_sum(&idx, &w).to_bits(), want.to_bits());
        assert_eq!(gather_sum(&[], &w).to_bits(), 0.0f64.to_bits());
    }
}
