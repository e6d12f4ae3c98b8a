//! Flat, incrementally-maintained link-dual penalty matrices — the
//! innermost data structure of the EPF hot path.
//!
//! Every UFL block build needs `D_t(i, j) = Σ_{l ∈ P_ij} π_{(l,t)}`:
//! the link-dual cost of serving client `j` from server `i` during
//! window `t`. The solver used to rebuild these matrices from scratch
//! (O(windows·V²·path-length), one nested `Vec<Vec<f64>>` per chunk)
//! on every dual snapshot. [`PenaltyArena`] instead keeps the stored
//! rows in one flat `Vec<f64>` arena and updates them *incrementally*:
//! a link → list-of-`(i,j)` reverse index over `inst.paths` (CSR,
//! built once per solve) maps each changed dual row to exactly the
//! entries it feeds, and only those entries are recomputed.
//!
//! **Sparse rows.** The arena is addressed through a per-`(window,
//! client)` *row slot* table and stores only the rows that are
//! *active* — client VHO `j` has nonzero demand rate in window `t` in
//! at least one block. Every hot read is gated by exactly that
//! predicate (`rate != 0.0` in `build_ufl_into`, the greedy
//! correctives, and the rounding pass), so the dropped rows are never
//! streamed; a stray [`PenaltyArena::at`] on an inactive row recomputes
//! the sum on demand from the forward CSR — the same links in the same
//! order, hence bitwise the value a stored row would hold. Every read
//! is therefore **bitwise the naive path sum** `Σ_{l ∈ P_ij} π_{(l,t)}`
//! in path order, which `tests/penalty_props.rs` checks at every
//! `(t, i, j)`.
//!
//! **Streaming degrade.** Under a memory budget
//! ([`PenaltyArena::with_budget`]), the arena drops its reverse
//! index and epoch stamps entirely: an update then re-sums *every*
//! active row of each window whose dual slice changed, instead of only
//! the entries behind changed links. Same from-scratch sums in the
//! same path order — values stay bitwise identical, the budget only
//! trades update time for memory.
//!
//! **Invariant:** a dirty entry is *re-summed from scratch in path
//! order*, never patched with a `+=` delta — so the arena is always
//! bitwise identical to a full rebuild under the same duals, whatever
//! update sequence produced it (the batched re-sum adds each path
//! sequentially; see `crate::kernel::gather_sum`). The penalty
//! property tests (and the determinism contract of [`crate::pool`])
//! lean on exactly this.

use crate::instance::MipInstance;
use crate::kernel;
use crate::potential::{Duals, RowLayout};
use vod_model::LinkId;

/// Row-slot sentinel: the `(t, j)` row is not stored.
const NO_ROW: u32 = u32::MAX;

/// Outcome of a [`PenaltyArena::update`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PenaltyUpdate {
    /// The snapshot is version-identical to the previous one (a clone
    /// of the same `Duals`): nothing was compared or touched.
    SkippedVersion,
    /// Rows were compared bitwise; `resummed` entries recomputed.
    Applied {
        changed_rows: usize,
        resummed: usize,
    },
}

/// Per-window penalty matrices `D_t` in a single flat arena, plus the
/// machinery to update them incrementally from dual snapshots.
#[derive(Debug, Clone)]
pub struct PenaltyArena {
    n_vhos: usize,
    n_links: usize,
    n_windows: usize,
    /// Whether the reverse index was dropped for the memory budget
    /// (updates then stream whole windows; see the module docs).
    streaming: bool,
    /// `data[slot·V + i] = Σ_{l ∈ P_ij} π_{(l,t)}` where
    /// `slot = row_slot[t·V + j]` (client-major rows).
    data: Vec<f64>,
    /// Row-slot table: `row_slot[t·V + j]` is the stored slot of the
    /// `(t, j)` client row, or [`NO_ROW`].
    row_slot: Vec<u32>,
    /// Slot → packed `j` (per stored row), used by streaming rebuilds
    /// and whole-window walks.
    slot_client: Vec<u32>,
    /// First stored slot of each window (CSR over windows): window
    /// `t`'s rows are slots `row_off[t]..row_off[t+1]`.
    row_off: Vec<u32>,
    /// Reverse routing index (CSR): for link `l`, the packed `j·V + i`
    /// pairs whose path `P_ij` traverses `l` are
    /// `rev_pairs[rev_off[l]..rev_off[l+1]]`. Empty in streaming mode.
    rev_off: Vec<u32>,
    rev_pairs: Vec<u32>,
    /// Forward routing index (CSR): for packed pair `j·V + i`, the link
    /// indices of `P_ij` *in path order* are
    /// `plinks[plinks_off[pair]..plinks_off[pair+1]]` — the batched
    /// re-sum streams these against the window's contiguous dual slice.
    plinks_off: Vec<u32>,
    plinks: Vec<u32>,
    /// The dual snapshot the arena currently reflects. Starts as the
    /// all-zero snapshot (version 0, `obj = 1`), matching the zeroed
    /// `data`.
    last: Duals,
    /// Epoch stamps (one per packed `j·V + i` pair) deduplicating dirty
    /// pairs fed by several changed links within one window. Empty in
    /// streaming mode.
    stamp: Vec<u32>,
    epoch: u32,
    /// Reusable dirty-pair buffer for the current window (capacity V²,
    /// the live prefix length is local to each update — no push, no
    /// steady-state allocation). Empty in streaming mode.
    dirty: Vec<u32>,
}

impl PenaltyArena {
    /// Build the routing indexes and a zeroed arena (which is exactly
    /// the penalty of the all-zero dual snapshot), with no memory
    /// budget.
    pub fn new(inst: &MipInstance, layout: &RowLayout) -> Self {
        Self::with_budget(inst, layout, None)
    }

    /// As [`PenaltyArena::new`] with an optional byte budget for the
    /// arena's own structures. An arena whose projected size exceeds
    /// the budget degrades to streaming mode (drops the reverse index
    /// and stamps — values stay bitwise identical, updates re-sum
    /// whole changed windows).
    pub fn with_budget(
        inst: &MipInstance,
        layout: &RowLayout,
        budget_bytes: Option<usize>,
    ) -> Self {
        let v = inst.n_vhos();
        assert_eq!(v, layout.n_vhos, "layout does not match instance");
        let n_links = layout.n_links;
        let n_windows = layout.n_windows;

        // Forward CSR over pairs. Two-pass
        // build: count, prefix-sum, cursor-fill — no nested Vec, no
        // push in the pair loop.
        let mut plinks_off = vec![0u32; v * v + 1];
        for i in inst.network.vho_ids() {
            for j in inst.network.vho_ids() {
                if i != j {
                    let pair = j.index() * v + i.index();
                    let path = inst.paths.path(i, j);
                    // lint:allow(no-panic-hot-path): constructor-only size guard, once per instance
                    let len = u32::try_from(path.len()).expect("path length exceeds u32");
                    plinks_off[pair + 1] = len;
                }
            }
        }
        for pair in 0..v * v {
            plinks_off[pair + 1] += plinks_off[pair];
        }
        let mut plinks = vec![0u32; plinks_off[v * v] as usize];
        for i in inst.network.vho_ids() {
            for j in inst.network.vho_ids() {
                if i != j {
                    let base = plinks_off[j.index() * v + i.index()] as usize;
                    for (k, &l) in inst.paths.path(i, j).iter().enumerate() {
                        // lint:allow(no-panic-hot-path): constructor-only size guard, once per instance
                        let li = u32::try_from(l.index()).expect("link index exceeds u32");
                        plinks[base + k] = li;
                    }
                }
            }
        }

        // Row-slot table: rows with any nonzero demand rate — exactly
        // the gate every hot read applies before touching the arena.
        let mut row_slot = vec![NO_ROW; n_windows * v];
        for b in inst.blocks() {
            for c in &b.clients {
                for (t, &rate) in c.rate.iter().enumerate() {
                    if rate != 0.0 {
                        row_slot[t * v + c.j.index()] = 0; // mark active
                    }
                }
            }
        }
        let mut next = 0u32;
        for slot in row_slot.iter_mut() {
            if *slot != NO_ROW {
                *slot = next;
                next += 1;
            }
        }
        let mut row_off = vec![0u32; n_windows + 1];
        let mut slot_client = Vec::with_capacity(row_slot.len());
        for t in 0..n_windows {
            for j in 0..v {
                if row_slot[t * v + j] != NO_ROW {
                    // lint:allow(no-panic-hot-path): constructor-only size guard, once per instance
                    // lint:allow(alloc-in-hot-loop): one-time CSR build per instance, capacity reserved above
                    slot_client.push(u32::try_from(j).expect("client index exceeds u32"));
                }
            }
            // lint:allow(no-panic-hot-path): constructor-only size guard, once per instance
            row_off[t + 1] = u32::try_from(slot_client.len()).expect("row count exceeds u32");
        }
        let n_rows_stored = slot_client.len();

        // Memory projection: does the full incremental index fit the
        // budget?
        let full_bytes = n_rows_stored * v * 8 // data
            + (row_slot.len() + slot_client.len() + row_off.len()) * 4
            + (plinks_off.len() + plinks.len()) * 4
            + plinks.len() * 4 // rev_pairs mirrors plinks entry-for-entry
            + (n_links + 1) * 4 // rev_off
            + 2 * v * v * 4 // stamp + dirty
            + layout.n_rows() * 8; // last snapshot
        let streaming = budget_bytes.is_some_and(|budget| full_bytes > budget);

        // Reverse CSR (skipped entirely in streaming mode).
        let (mut rev_off, mut rev_pairs) = (Vec::new(), Vec::new());
        if !streaming {
            rev_off = vec![0u32; n_links + 1];
            for i in inst.network.vho_ids() {
                for j in inst.network.vho_ids() {
                    if i != j {
                        for &l in inst.paths.path(i, j) {
                            rev_off[l.index() + 1] += 1;
                        }
                    }
                }
            }
            for l in 0..n_links {
                rev_off[l + 1] += rev_off[l];
            }
            rev_pairs = vec![0u32; rev_off[n_links] as usize];
            let mut cursor = rev_off.clone();
            for i in inst.network.vho_ids() {
                for j in inst.network.vho_ids() {
                    if i != j {
                        let pair = u32::try_from(j.index() * v + i.index())
                            .expect("VHO pair index exceeds u32"); // lint:allow(no-panic-hot-path): constructor-only size guard, once per instance
                        for &l in inst.paths.path(i, j) {
                            let slot = cursor[l.index()] as usize;
                            rev_pairs[slot] = pair;
                            cursor[l.index()] += 1;
                        }
                    }
                }
            }
        }

        Self {
            n_vhos: v,
            n_links,
            n_windows,
            streaming,
            data: vec![0.0; n_rows_stored * v],
            row_slot,
            slot_client,
            row_off,
            rev_off,
            rev_pairs,
            plinks_off,
            plinks,
            last: Duals::new(vec![0.0; layout.n_rows()], 1.0),
            stamp: if streaming {
                Vec::new()
            } else {
                vec![0; v * v]
            },
            epoch: 0,
            dirty: if streaming {
                Vec::new()
            } else {
                vec![0; v * v]
            },
        }
    }

    /// An arena already reflecting `duals` (from-scratch rebuild; the
    /// reference point the incremental path must match bitwise).
    pub fn for_duals(inst: &MipInstance, layout: &RowLayout, duals: &Duals) -> Self {
        let mut arena = Self::new(inst, layout);
        arena.update(layout, duals);
        arena
    }

    /// Bring the arena up to date with `duals`.
    ///
    /// Fast paths, in order: (1) same snapshot version as the last
    /// applied update → return immediately; (2) per-(link, window)
    /// bitwise row comparison → only rows whose dual actually changed
    /// mark entries dirty (incremental mode) or trigger their window's
    /// streaming rebuild. Dirty entries are re-summed from scratch in
    /// path order (see the module invariant) by streaming the CSR link
    /// lists against the window's contiguous dual slice — the naive
    /// per-link row lookups' additions in the same order, with batched
    /// memory access.
    pub fn update(&mut self, layout: &RowLayout, duals: &Duals) -> PenaltyUpdate {
        assert_eq!(duals.rows.len(), layout.n_rows(), "dual row count mismatch");
        if duals.version() != 0 && duals.version() == self.last.version() {
            return PenaltyUpdate::SkippedVersion;
        }
        let v = self.n_vhos;
        let mut changed_rows = 0usize;
        let mut resummed = 0usize;
        for t in 0..self.n_windows {
            if self.streaming {
                // Budget-degraded path: one bitwise scan of the
                // window's dual slice; any change re-sums every stored
                // row of the window (same from-scratch path-order sums
                // as the incremental path — bitwise identical values).
                let mut any = false;
                for l in 0..self.n_links {
                    let row = layout.link_row(LinkId::from_index(l), t);
                    if duals.rows[row].to_bits() != self.last.rows[row].to_bits() {
                        changed_rows += 1;
                        any = true;
                    }
                }
                if any {
                    resummed += self.resum_window(layout, duals, t);
                }
                continue;
            }
            self.epoch = self.epoch.wrapping_add(1);
            if self.epoch == 0 {
                // u32 wrap-around: reset stamps so stale epochs cannot
                // collide (unreachable in practice, cheap to guard).
                self.stamp.fill(0);
                self.epoch = 1;
            }
            let mut dirty_len = 0usize;
            for l in 0..self.n_links {
                let row = layout.link_row(LinkId::from_index(l), t);
                if duals.rows[row].to_bits() == self.last.rows[row].to_bits() {
                    continue;
                }
                changed_rows += 1;
                let (s, e) = (self.rev_off[l] as usize, self.rev_off[l + 1] as usize);
                for &pair in &self.rev_pairs[s..e] {
                    // Skip pairs whose client row is not stored: nothing
                    // to maintain, reads recompute.
                    if self.row_slot[t * v + pair as usize / v] == NO_ROW {
                        continue;
                    }
                    if self.stamp[pair as usize] != self.epoch {
                        self.stamp[pair as usize] = self.epoch;
                        self.dirty[dirty_len] = pair;
                        dirty_len += 1;
                    }
                }
            }
            // Gather once: the window's link-dual rows are one
            // contiguous slice of the dual vector (`link_row(l, t) =
            // disk_rows + t·L + l`). Stream every dirty pair's path
            // through it and scatter the sums back — `w[l]` is bitwise
            // the value a `link_row` lookup reads, summed in path order.
            let w0 = layout.link_row(LinkId::from_index(0), t);
            let w = &duals.rows[w0..w0 + self.n_links];
            for &pair in &self.dirty[..dirty_len] {
                let (j, i) = (pair as usize / v, pair as usize % v);
                let slot = self.row_slot[t * v + j] as usize;
                let (s, e) = (
                    self.plinks_off[pair as usize] as usize,
                    self.plinks_off[pair as usize + 1] as usize,
                );
                self.data[slot * v + i] = kernel::gather_sum(&self.plinks[s..e], w);
            }
            resummed += dirty_len;
        }
        // Carry the caller's version so a later update with a clone of
        // the same snapshot hits the version fast path.
        self.last.copy_from(duals);
        PenaltyUpdate::Applied {
            changed_rows,
            resummed,
        }
    }

    /// Streaming rebuild of one window: re-sum every stored row from
    /// scratch in path order. Returns the number of entries resummed.
    fn resum_window(&mut self, layout: &RowLayout, duals: &Duals, t: usize) -> usize {
        let v = self.n_vhos;
        let (lo, hi) = (self.row_off[t] as usize, self.row_off[t + 1] as usize);
        let w0 = layout.link_row(LinkId::from_index(0), t);
        let w = &duals.rows[w0..w0 + self.n_links];
        for slot in lo..hi {
            let j = self.slot_client[slot] as usize;
            for i in 0..v {
                if i == j {
                    continue;
                }
                let pair = j * v + i;
                let (s, e) = (
                    self.plinks_off[pair] as usize,
                    self.plinks_off[pair + 1] as usize,
                );
                self.data[slot * v + i] = kernel::gather_sum(&self.plinks[s..e], w);
            }
        }
        (hi - lo) * v
    }

    /// Penalty of serving client `j` from server `i` in window `t`.
    /// Stored rows read the arena; an inactive `(t, j)` row recomputes
    /// the same path-order sum on demand from the current snapshot —
    /// bitwise the value a stored row would hold.
    #[inline]
    pub fn at(&self, t: usize, i: usize, j: usize) -> f64 {
        let v = self.n_vhos;
        let slot = self.row_slot[t * v + j];
        if slot == NO_ROW {
            if i == j {
                return 0.0;
            }
            let pair = j * v + i;
            let (s, e) = (
                self.plinks_off[pair] as usize,
                self.plinks_off[pair + 1] as usize,
            );
            let w0 = v + t * self.n_links; // RowLayout::link_row(0, t)
            let w = &self.last.rows[w0..w0 + self.n_links];
            return kernel::gather_sum(&self.plinks[s..e], w);
        }
        self.data[slot as usize * v + i]
    }

    /// Client `j`'s contiguous penalty row over all servers in window
    /// `t` — the slice `build_ufl_into` streams through the kernels.
    /// The row must be stored: true for every demand-active `(t, j)` —
    /// which is every row the hot paths read.
    #[inline]
    pub fn client_row(&self, t: usize, j: usize) -> &[f64] {
        let v = self.n_vhos;
        let slot = self.row_slot[t * v + j];
        debug_assert!(
            slot != NO_ROW,
            "client_row({t}, {j}) on a row the arena does not store"
        );
        let base = slot as usize * v;
        &self.data[base..base + v]
    }

    /// Whether the `(t, j)` client row is stored in the arena.
    #[inline]
    pub fn row_stored(&self, t: usize, j: usize) -> bool {
        self.row_slot[t * self.n_vhos + j] != NO_ROW
    }

    /// The dual snapshot the arena currently reflects — the one every
    /// consumer of the arena's entries must price against.
    #[inline]
    pub fn duals(&self) -> &Duals {
        &self.last
    }

    #[inline]
    pub fn n_windows(&self) -> usize {
        self.n_windows
    }

    #[inline]
    pub fn n_vhos(&self) -> usize {
        self.n_vhos
    }

    /// Whether the memory budget degraded this arena to streaming
    /// window rebuilds (reverse index dropped).
    #[inline]
    pub fn is_streaming(&self) -> bool {
        self.streaming
    }

    /// Stored rows (≤ `T·V`).
    #[inline]
    pub fn stored_rows(&self) -> usize {
        self.slot_client.len()
    }

    /// Approximate heap bytes held by the arena (reported through
    /// `EpfStats::approx_bytes`) — every index structure included.
    pub fn approx_bytes(&self) -> usize {
        self.data.capacity() * 8
            + (self.rev_off.capacity()
                + self.rev_pairs.capacity()
                + self.plinks_off.capacity()
                + self.plinks.capacity()
                + self.row_slot.capacity()
                + self.slot_client.capacity()
                + self.row_off.capacity())
                * 4
            + self.last.rows.capacity() * 8
            + self.stamp.capacity() * 4
            + self.dirty.capacity() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epf::tests::small_instance;
    use crate::epf::{caps_of, compute_state, layout_of};
    use crate::potential::Coupling;
    use crate::solution::initial_block;

    fn setup() -> (MipInstance, RowLayout, Duals) {
        let inst = small_instance(30, 2.0, 1.0, 42);
        let layout = layout_of(&inst);
        let blocks: Vec<_> = inst
            .blocks()
            .iter()
            .map(|b| initial_block(b, inst.n_vhos()))
            .collect();
        let (usage, obj) = compute_state(&inst, &layout, &blocks);
        let mut coupling = Coupling::new(layout, caps_of(&inst, &layout), 1.0, None);
        coupling.set_state(usage, obj);
        coupling.init_scale(0.01);
        let duals = coupling.duals();
        (inst, layout, duals)
    }

    fn arena_with(
        inst: &MipInstance,
        layout: &RowLayout,
        duals: &Duals,
        budget: Option<usize>,
    ) -> PenaltyArena {
        let mut arena = PenaltyArena::with_budget(inst, layout, budget);
        arena.update(layout, duals);
        arena
    }

    /// Reference implementation: the old from-scratch nested rebuild
    /// (transposed here to the arena's client-major packing).
    fn reference_matrices(inst: &MipInstance, layout: &RowLayout, duals: &Duals) -> Vec<Vec<f64>> {
        let v = inst.n_vhos();
        (0..layout.n_windows)
            .map(|t| {
                let mut mat = vec![0.0; v * v];
                for i in inst.network.vho_ids() {
                    for j in inst.network.vho_ids() {
                        if i != j {
                            let sum: f64 = inst
                                .paths
                                .path(i, j)
                                .iter()
                                .map(|&l| duals.rows[layout.link_row(l, t)])
                                .sum();
                            mat[j.index() * v + i.index()] = sum;
                        }
                    }
                }
                mat
            })
            .collect()
    }

    #[test]
    fn rebuild_matches_reference() {
        let (inst, layout, duals) = setup();
        let arena = arena_with(&inst, &layout, &duals, None);
        let reference = reference_matrices(&inst, &layout, &duals);
        let v = inst.n_vhos();
        for (t, want) in reference.iter().enumerate() {
            for j in 0..v {
                for i in 0..v {
                    assert_eq!(
                        arena.at(t, i, j).to_bits(),
                        want[j * v + i].to_bits(),
                        "at({t},{i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_degrade_matches_incremental_bitwise() {
        let (inst, layout, duals) = setup();
        // A 1-byte budget forces the streaming degrade.
        let streaming = arena_with(&inst, &layout, &duals, Some(1));
        assert!(streaming.is_streaming());
        let full = arena_with(&inst, &layout, &duals, None);
        assert!(!full.is_streaming());
        assert!(streaming.approx_bytes() < full.approx_bytes());
        let v = inst.n_vhos();
        for t in 0..layout.n_windows {
            for j in 0..v {
                for i in 0..v {
                    assert_eq!(
                        streaming.at(t, i, j).to_bits(),
                        full.at(t, i, j).to_bits(),
                        "at({t},{i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn at_and_client_row_agree() {
        let (inst, layout, duals) = setup();
        let arena = arena_with(&inst, &layout, &duals, None);
        let v = inst.n_vhos();
        for t in 0..layout.n_windows {
            for j in 0..v {
                if !arena.row_stored(t, j) {
                    continue;
                }
                let row = arena.client_row(t, j);
                assert_eq!(row.len(), v);
                for (i, &x) in row.iter().enumerate() {
                    assert_eq!(x.to_bits(), arena.at(t, i, j).to_bits());
                }
            }
        }
    }

    #[test]
    fn version_skip_on_same_snapshot() {
        let (inst, layout, duals) = setup();
        let mut arena = PenaltyArena::new(&inst, &layout);
        let first = arena.update(&layout, &duals);
        assert!(matches!(first, PenaltyUpdate::Applied { .. }));
        // Same snapshot (clone): skipped without any row comparison.
        let again = arena.update(&layout, &duals.clone());
        assert_eq!(again, PenaltyUpdate::SkippedVersion);
        // A bumped clone with identical values is re-compared but
        // resums nothing.
        let mut bumped = duals.clone();
        bumped.bump_version();
        match arena.update(&layout, &bumped) {
            PenaltyUpdate::Applied {
                changed_rows,
                resummed,
            } => {
                assert_eq!(changed_rows, 0);
                assert_eq!(resummed, 0);
            }
            other => panic!("expected Applied, got {other:?}"),
        }
    }

    #[test]
    fn incremental_update_matches_rebuild_after_row_change() {
        let (inst, layout, duals) = setup();
        let mut arena = arena_with(&inst, &layout, &duals, None);
        // Perturb a couple of link rows (and one disk row, which must
        // not affect penalties at all).
        let mut perturbed = duals.clone();
        perturbed.rows[0] *= 3.0; // disk row
        let link_row0 = layout.link_row(LinkId::new(0), 0);
        perturbed.rows[link_row0] += 0.125;
        if layout.n_windows > 1 {
            let r = layout.link_row(LinkId::new(1), 1);
            perturbed.rows[r] *= 0.5;
        }
        perturbed.bump_version();
        let upd = arena.update(&layout, &perturbed);
        let fresh = PenaltyArena::for_duals(&inst, &layout, &perturbed);
        let v = inst.n_vhos();
        for t in 0..layout.n_windows {
            for j in 0..v {
                if !arena.row_stored(t, j) {
                    continue;
                }
                assert_eq!(
                    arena.client_row(t, j),
                    fresh.client_row(t, j),
                    "window {t} client {j}"
                );
            }
        }
        match upd {
            PenaltyUpdate::Applied {
                changed_rows,
                resummed,
            } => {
                // Only the touched link rows count; the resummed pairs
                // are exactly those routed over the changed links (and
                // stored).
                assert!((1..=2).contains(&changed_rows), "{changed_rows}");
                assert!(resummed > 0);
                let total_entries = layout.n_windows * inst.n_vhos() * inst.n_vhos();
                assert!(
                    resummed < total_entries,
                    "incremental update resummed everything ({resummed}/{total_entries})"
                );
            }
            other => panic!("expected Applied, got {other:?}"),
        }
    }

    #[test]
    fn zero_arena_reflects_zero_duals() {
        let (inst, layout, _) = setup();
        let mut arena = PenaltyArena::new(&inst, &layout);
        let v = inst.n_vhos();
        for t in 0..layout.n_windows {
            for j in 0..v {
                for i in 0..v {
                    assert_eq!(arena.at(t, i, j), 0.0);
                }
            }
        }
        assert_eq!(arena.duals().obj, 1.0);
        // Updating with an explicit zero snapshot compares equal
        // everywhere and resums nothing.
        let zeros = Duals::new(vec![0.0; layout.n_rows()], 1.0);
        match arena.update(&layout, &zeros) {
            PenaltyUpdate::Applied {
                changed_rows,
                resummed,
            } => {
                assert_eq!((changed_rows, resummed), (0, 0));
            }
            other => panic!("expected Applied, got {other:?}"),
        }
    }

    #[test]
    fn approx_bytes_counts_arena() {
        let (inst, layout, duals) = setup();
        let arena = arena_with(&inst, &layout, &duals, None);
        let v = inst.n_vhos();
        assert!(arena.stored_rows() <= layout.n_windows * v);
        assert!(arena.approx_bytes() >= arena.stored_rows() * v * 8);
    }
}
