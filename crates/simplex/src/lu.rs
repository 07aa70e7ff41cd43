//! Sparse LU factorisation of the simplex basis with Forrest–Tomlin updates.
//!
//! This module replaces the eta-file (product-form) basis inverse that the
//! revised simplex used through PR 1.  The product form has two asymptotic
//! problems on the mechanism-design LPs:
//!
//! 1. every pivot appends an eta holding the **fully FTRANed** entering column,
//!    which grows denser as the eta file grows — FTRAN/BTRAN cost compounds;
//! 2. refactorisation re-eliminates the basis *through the partially rebuilt
//!    file*, so the residual "bump" columns pay a dense `O(m)` transform each —
//!    at `n ≥ 64` this bump elimination dominated total solve time.
//!
//! The fix is the architecture every production LP code uses (see HiGHS, glpk,
//! or pywr-next's solver layer): factorise the basis as `B = L·U` with
//! Markowitz-style pivoting, and *update* the factors after each basis change
//! with a Forrest–Tomlin rank-one update instead of appending product-form
//! etas.
//!
//! ## Factorisation
//!
//! [`LuFactors::factor`] runs right-looking Gaussian elimination over a copy of
//! the basis columns:
//!
//! * **Singleton peeling**: rows or columns with a single active nonzero pivot
//!   immediately and contribute **zero fill**.
//! * **Markowitz bump pivoting**: the residual bump picks pivots minimising
//!   `(row_count − 1) · (col_count − 1)` among entries passing a threshold test
//!   (`|a_ij| ≥ 0.1 · max|column|`), the standard fill/stability compromise.
//!   Candidates come from a queue of active columns bucketed by count, so a
//!   pivot search costs the handful of columns it examines.
//!
//! How much of a basis peels depends on the form.  The dual-form WM bases
//! (545 rows at n = 32) are bump-dominated: 465–543 of their 545 pivots go
//! through the Markowitz search.  The primal relaxation (1 073 rows) sends
//! 240–537 pivots through it, the certification basis (2 129 rows) 534, so
//! peeling takes about half or more there.
//!
//! The elimination works in flat, growable arrays (the active columns, the
//! row-to-column lists, the candidate queue) held in a per-thread workspace,
//! and the factors keep their own flat storage across refactorisations, so a
//! factorisation costs what its nonzeros cost rather than what allocating
//! them costs.
//!
//! The result is stored as a sequence of **L operators** (unit column etas) plus
//! sparse **U columns** ordered by a doubly-linked pivot list.  FTRAN is a
//! forward pass through the L operators followed by a backward sparse
//! triangular solve with U; BTRAN is the transposed pair.

//! ## Forrest–Tomlin update
//!
//! When column `q` enters the basis in pivot row `p`, the spike `v = L⁻¹ a_q`
//! replaces U's column for row `p`, and that column is moved to the **end** of
//! the pivot order.  The move leaves a single non-triangular row — row `p`,
//! whose remaining entries in later columns are eliminated by row operations
//! recorded as one **row eta** appended to the L side.  Crucially the row
//! operations touch only row `p` (held in a sparse accumulator during the
//! update), so the stored U columns only ever *lose* entries — U never fills in
//! between refactorisations, which is what keeps FTRAN/BTRAN flat over long
//! pivot runs.  A too-small updated diagonal reports [`LuError::Singular`] and
//! the caller refactorises from scratch (the basis-repair path).
//!
//! ## Suhl–Suhl hypersparse solves
//!
//! The plain [`LuFactors::ftran`]/[`LuFactors::btran`] pair visits **every**
//! stored operator — `O(nnz(L) + nnz(U))` per solve even when the right-hand
//! side is a unit vector and the result has a handful of nonzeros.  On the
//! mechanism LPs (tens of thousands of rows, entering columns with ≤ `n + 2`
//! entries) that dense scan dominates per-pivot cost.  The `*_sparse` variants
//! ([`LuFactors::ftran_sparse`], [`LuFactors::btran_sparse`]) instead compute
//! the result's nonzero **pattern** while they solve, in the style of
//! Gilbert–Peierls reachability as ordered by Suhl & Suhl: each row keeps the
//! list of operators that *read* it ([`LuFactors::ftran_readers`] /
//! [`LuFactors::btran_readers`] for the L side, `row_adj` /
//! `pivot_col_of_row` for the U side), and a solve visits exactly the
//! operators reachable from the input pattern, in elimination order, via a
//! binary heap keyed by operator index (L) or pivot-order stamp (U).  Work is
//! proportional to the reach, not to the factor size.  Inputs already denser
//! than [`SPARSE_RHS_FRACTION`] fall back to the dense scan, which is faster
//! at that point.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use crate::sparse::SparseAccumulator;

/// Sentinel for "no link" in the pivot-order list.
const NONE: usize = usize::MAX;

/// Entries with magnitude at or below this are treated as round-off and dropped
/// during elimination (the periodic refactorisation rebuilds from the exact
/// matrix, so dropped noise cannot accumulate).
const DROP_TOL: f64 = 1e-12;

/// Relative threshold of the Markowitz pivot test: a bump pivot must be at
/// least this fraction of the largest magnitude in its column.
const MARKOWITZ_THRESHOLD: f64 = 0.1;

/// A sparse solve is attempted only when the input pattern holds at most
/// `m / SPARSE_RHS_FRACTION` nonzeros; denser inputs take the plain dense
/// scan, whose straight-line passes beat heap-ordered reach at that density.
const SPARSE_RHS_FRACTION: usize = 8;

/// Bound on how many candidate columns one bump-pivot search examines after
/// the ascending-count stopping rule fails to close the search early.
const MARKOWITZ_CANDIDATES: usize = 8;

/// `true` when a right-hand side with `nnz` nonzeros out of `m` rows is worth
/// the reach-based solve.
fn pattern_is_sparse(nnz: usize, m: usize) -> bool {
    nnz * SPARSE_RHS_FRACTION <= m
}

/// Grow a scratch flag vector to cover indices `0..n`.
fn ensure_flags(flags: &mut Vec<bool>, n: usize) {
    if flags.len() < n {
        flags.resize(n, false);
    }
}

/// Push not-yet-seen L-op indices onto a min-heap (forward reach).
fn push_ops_min(
    ops: &[u32],
    heap: &mut BinaryHeap<Reverse<(u64, usize)>>,
    seen: &mut [bool],
    touched: &mut Vec<usize>,
) {
    for &k in ops {
        let k = k as usize;
        if !seen[k] {
            seen[k] = true;
            touched.push(k);
            heap.push(Reverse((k as u64, k)));
        }
    }
}

/// Push not-yet-seen L-op indices onto a max-heap (backward reach).
fn push_ops_max(
    ops: &[u32],
    heap: &mut BinaryHeap<(u64, usize)>,
    seen: &mut [bool],
    touched: &mut Vec<usize>,
) {
    for &k in ops {
        let k = k as usize;
        if !seen[k] {
            seen[k] = true;
            touched.push(k);
            heap.push((k as u64, k));
        }
    }
}

/// The factorisation or update met a numerically singular basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LuError {
    /// No acceptable pivot remained (structurally or numerically singular).
    Singular,
}

/// One operator of the "L side" of the factorisation, applied left-to-right in
/// FTRAN, as borrowed from the flat store.  Column etas come from the
/// factorisation; row etas are appended by Forrest–Tomlin updates.
#[derive(Clone, Copy)]
enum LOp<'a> {
    /// `v[r] -= l · v[pivot_row]` for each `(r, l)` — a unit-diagonal column of L.
    Col {
        pivot_row: usize,
        entries: &'a [(usize, f64)],
    },
    /// `v[pivot_row] -= m · v[r]` for each `(r, m)` — a Forrest–Tomlin row eta.
    Row {
        pivot_row: usize,
        entries: &'a [(usize, f64)],
    },
}

/// Where an L operator lives in the flat store: entries
/// `l_entries[start..end]`.
#[derive(Clone, Copy)]
struct LOpHeader {
    is_row: bool,
    pivot_row: usize,
    start: usize,
    end: usize,
}

/// One column of the sparse upper-triangular factor, as borrowed from the
/// flat store.  `entries` are the above-diagonal `(row, value)` pairs (rows
/// whose pivot columns come earlier in the order); the diagonal is
/// `pivot_value` at `pivot_row`.
#[derive(Clone, Copy)]
struct UCol<'a> {
    pivot_row: usize,
    pivot_value: f64,
    entries: &'a [(usize, f64)],
}

/// A sparse LU factorisation of an `m × m` basis, with Forrest–Tomlin updates.
///
/// `B⁻¹ = U⁻¹ · (L-ops)` where the L-ops are applied in sequence.  U columns
/// carry stable ids (their list in `u`); the elimination *order* is the
/// doubly-linked list `order_next`/`order_prev`, and relative position queries
/// use the monotone stamps in `ord` (a column moved to the end of the order by
/// an update simply receives a fresh, larger stamp).
#[derive(Default)]
pub(crate) struct LuFactors {
    /// The L operators in application order, their entries packed in
    /// `l_entries`.
    l_ops: Vec<LOpHeader>,
    l_entries: Vec<(usize, f64)>,
    /// Above-diagonal entries of each U column, by column id.
    u: Segments<(usize, f64)>,
    u_pivot_row: Vec<usize>,
    u_pivot_value: Vec<f64>,
    order_next: Vec<usize>,
    order_prev: Vec<usize>,
    head: usize,
    tail: usize,
    ord: Vec<u64>,
    next_ord: u64,
    /// `row → ids of U columns holding an above-diagonal entry at that row`.
    row_adj: Segments<usize>,
    /// `row → id of the U column pivoted on that row`.
    pivot_col_of_row: Vec<usize>,
    /// Forrest–Tomlin updates applied since the factorisation was built.
    updates: usize,
    /// `row → indices of L-ops that read that row in the FTRAN direction`
    /// (a `Col` op reads its pivot row, a `Row` op reads its entry rows).
    /// Each list is ascending, so the sparse solves can binary-search for
    /// "operators after the one currently firing".
    ftran_readers: Segments<u32>,
    /// `row → indices of L-ops that read that row in the BTRAN direction`
    /// (transposed roles: a `Col` op reads its entry rows, a `Row` op its
    /// pivot row).  Ascending, like `ftran_readers`.
    btran_readers: Segments<u32>,
    /// Reusable scratch for [`LuFactors::update`] (one update per simplex
    /// pivot — allocating these per call would put two `O(m)` zero-fills on
    /// the hottest loop of the solver).
    scratch_acc: SparseAccumulator,
    scratch_heap: BinaryHeap<Reverse<(u64, usize)>>,
    scratch_seen: Vec<usize>,
    /// Scratch for the reach-based sparse solves: per-row nonzero marks, a
    /// per-node (L-op index or U-column id) visited flag with its undo list,
    /// and the two reach heaps (min-order for forward passes, max-order for
    /// backward passes).
    row_marked: Vec<bool>,
    node_seen: Vec<bool>,
    node_touched: Vec<usize>,
    reach_min: BinaryHeap<Reverse<(u64, usize)>>,
    reach_max: BinaryHeap<(u64, usize)>,
    /// Column slot → pivot row, from the last factorisation.
    row_of_slot: Vec<usize>,
}

/// Variable-length lists packed into one buffer — the "sparse vector area"
/// of glpk's `luf`.  A list that outgrows its span moves to the end of the
/// buffer with doubled room; the stale span is simply abandoned.  The buffer
/// is cleared, never freed, between factorisations, so once it has grown to
/// a basis's working size a factorisation allocates nothing.
#[derive(Default)]
struct Segments<T> {
    spans: Vec<Span>,
    data: Vec<T>,
}

/// Where one list of a [`Segments`] area lives: `data[start..start + len]`,
/// with room up to `start + cap`.
#[derive(Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

impl<T: Copy + Default> Segments<T> {
    /// Empty the area and size it for `lists` empty lists without room.
    fn reset(&mut self, lists: usize) {
        self.spans.clear();
        self.spans.resize(lists, Span::default());
        self.data.clear();
    }

    /// Empty the area and give each of `lists` lists a span with room for
    /// `cap(i)` entries.
    fn reset_with_caps(&mut self, lists: usize, cap: impl Fn(usize) -> usize) {
        self.spans.clear();
        let mut at = 0;
        self.spans.extend((0..lists).map(|i| {
            let span = Span {
                start: at as u32,
                len: 0,
                cap: cap(i) as u32,
            };
            at += cap(i);
            span
        }));
        self.data.clear();
        self.data.resize(at, T::default());
    }

    /// Fill list `i` — empty and without room, as after [`Segments::reset`] —
    /// with `items` at the end of the buffer, plus `slack` spare entries.
    fn fill(&mut self, i: usize, items: impl IntoIterator<Item = T>, slack: usize) {
        let start = self.data.len();
        self.data.extend(items);
        let len = self.data.len() - start;
        self.data.resize(start + len + slack, T::default());
        self.spans[i] = Span {
            start: start as u32,
            len: len as u32,
            cap: (len + slack) as u32,
        };
    }

    fn len(&self, i: usize) -> usize {
        self.spans[i].len as usize
    }

    /// Shorten list `i` to its first `len` entries.
    fn truncate(&mut self, i: usize, len: usize) {
        debug_assert!(len <= self.len(i));
        self.spans[i].len = len as u32;
    }

    fn push(&mut self, i: usize, x: T) {
        let mut span = self.spans[i];
        if span.len == span.cap {
            let (from, len) = (span.start as usize, span.len as usize);
            let to = self.data.len();
            let cap = (2 * len).max(4);
            self.data.extend_from_within(from..from + len);
            self.data.resize(to + cap, T::default());
            span.start = to as u32;
            span.cap = cap as u32;
        }
        self.data[(span.start + span.len) as usize] = x;
        span.len += 1;
        self.spans[i] = span;
    }

    /// `Vec::swap_remove` on list `i`.
    fn swap_remove(&mut self, i: usize, k: usize) {
        let span = &mut self.spans[i];
        span.len -= 1;
        let (start, last) = (span.start as usize, (span.start + span.len) as usize);
        self.data[start + k] = self.data[last];
    }

    /// Remove the first `x` from list `i`, if present (order not kept).
    fn remove_value(&mut self, i: usize, x: T)
    where
        T: PartialEq,
    {
        if let Some(k) = self.list(i).iter().position(|&y| y == x) {
            self.swap_remove(i, k);
        }
    }

    fn list(&self, i: usize) -> &[T] {
        let span = self.spans[i];
        &self.data[span.start as usize..(span.start + span.len) as usize]
    }

    fn list_mut(&mut self, i: usize) -> &mut [T] {
        let span = self.spans[i];
        &mut self.data[span.start as usize..(span.start + span.len) as usize]
    }
}

/// The Markowitz search's candidate queue: active columns grouped by their
/// active nonzero count, each group a bitset over column ids, so a search
/// meets candidates in ascending `(count, column)` order and a column moves
/// between groups in `O(1)`.  (Suhl–Suhl and glpk link each group as a list,
/// which hands its columns out in insertion order instead.)
///
/// A column keeps its slot at an old count until a search passes that slot,
/// and a column whose count returns to a count it still holds a slot at
/// holds that slot twice; each copy takes one of the search's
/// [`MARKOWITZ_CANDIDATES`] places.  This is how the lazily pruned binary
/// heap the queue replaced behaved, and keeping it keeps every elimination
/// order, and so every pivot trajectory, the same.
#[derive(Default)]
struct CandidateQueue {
    /// `u64` words per bitset.
    words: usize,
    /// Bitset of count `c` at `bits[c·words .. (c+1)·words]`.
    bits: Vec<u64>,
    /// Columns holding a slot, per count.
    sizes: Vec<usize>,
    /// Per column, `(count, copies)` of every slot it holds.
    slots: Segments<(usize, usize)>,
}

impl CandidateQueue {
    fn reset(&mut self, columns: usize) {
        self.words = columns.div_ceil(64);
        self.bits.clear();
        self.sizes.clear();
        self.slots.reset_with_caps(columns, |_| 2);
    }

    /// Give column `j` a slot (or one more copy of it) at `count`.
    fn push(&mut self, j: usize, count: usize) {
        if let Some(slot) = self.slots.list_mut(j).iter_mut().find(|s| s.0 == count) {
            slot.1 += 1;
            return;
        }
        self.slots.push(j, (count, 1));
        if count >= self.sizes.len() {
            self.sizes.resize(count + 1, 0);
            self.bits.resize((count + 1) * self.words, 0);
        }
        self.bits[count * self.words + j / 64] |= 1 << (j % 64);
        self.sizes[count] += 1;
    }

    /// Copies of column `j`'s slot at `count`.
    fn copies(&self, j: usize, count: usize) -> usize {
        self.slots
            .list(j)
            .iter()
            .find(|s| s.0 == count)
            .map_or(0, |s| s.1)
    }

    /// Drop column `j`'s slot at `count`.
    fn drop_slot(&mut self, j: usize, count: usize) {
        let k = self
            .slots
            .list(j)
            .iter()
            .position(|s| s.0 == count)
            .expect("column holds a slot at this count");
        self.slots.swap_remove(j, k);
        self.bits[count * self.words + j / 64] &= !(1 << (j % 64));
        self.sizes[count] -= 1;
    }

    /// Drop every slot of column `j` (it was pivoted).
    fn retire(&mut self, j: usize) {
        while let Some(&(count, _)) = self.slots.list(j).last() {
            self.drop_slot(j, count);
        }
    }
}

/// Spare room given to every column and row list when a factorisation loads
/// the basis, so the first few fill-ins land without moving the list.
const LIST_SLACK: usize = 4;

/// The working state of [`LuFactors::factor`]: the active submatrix and the
/// pivot-search structures.  Reset, not reallocated, by every factorisation.
#[derive(Default)]
struct Elimination {
    /// Active entries of each basis column (rows not yet pivoted).
    cols: Segments<(usize, f64)>,
    /// The columns that have held each row, in the order they gained it.
    /// Append-only: entries of pivoted columns, cancelled entries and
    /// duplicates are filtered where the list is read.
    rows: Segments<usize>,
    row_count: Vec<usize>,
    assigned_row: Vec<bool>,
    pivoted_col: Vec<bool>,
    /// Singleton stacks, validated lazily on pop.
    row_singletons: Vec<usize>,
    col_singletons: Vec<usize>,
    /// Bump-search candidates by count.
    queue: CandidateQueue,
    /// The pivot column's off-pivot entries: the L column before scaling.
    pivot_entries: Vec<(usize, f64)>,
    /// `row → 1 + its index in pivot_entries` during a Schur update, else 0.
    pivot_pos: Vec<usize>,
    /// Per pivot entry: whether the column being updated already holds it.
    pivot_hit: Vec<bool>,
    /// Eliminated entries frozen into U, `(column slot, row, value)`, in
    /// elimination order.
    frozen: Vec<(usize, usize, f64)>,
    /// `(pivot row, column slot, pivot value)` per elimination step.
    steps: Vec<(usize, usize, f64)>,
    step_of_slot: Vec<usize>,
    /// Per-row or per-column tallies while the factors are assembled.
    counts: Vec<usize>,
}

thread_local! {
    /// The elimination workspace of every factorisation on this thread.  A
    /// design runs its relaxation, lifted and certifying solves — each with
    /// its own factors — on one thread, so all but its first factorisation
    /// find the workspace already sized.
    static ELIMINATION: RefCell<Elimination> = RefCell::new(Elimination::default());
}

impl Elimination {
    /// Load the basis: column `j` is `column(j)`.
    fn load<I>(&mut self, m: usize, column: impl Fn(usize) -> I)
    where
        I: IntoIterator<Item = (usize, f64)>,
    {
        self.cols.reset(m);
        self.queue.reset(m);
        for v in [&mut self.row_count, &mut self.pivot_pos] {
            v.clear();
            v.resize(m, 0);
        }
        for v in [&mut self.assigned_row, &mut self.pivoted_col] {
            v.clear();
            v.resize(m, false);
        }
        for j in 0..m {
            self.cols.fill(j, column(j), LIST_SLACK);
            for &(r, _) in self.cols.list(j) {
                self.row_count[r] += 1;
            }
            self.queue.push(j, self.cols.len(j));
        }
        let row_count = &self.row_count;
        self.rows.reset_with_caps(m, |r| row_count[r] + LIST_SLACK);
        for j in 0..m {
            for &(r, _) in self.cols.list(j) {
                self.rows.push(r, j);
            }
        }
        self.row_singletons.clear();
        self.row_singletons
            .extend((0..m).filter(|&r| self.row_count[r] == 1));
        self.col_singletons.clear();
        self.col_singletons
            .extend((0..m).filter(|&j| self.cols.len(j) == 1));
        self.frozen.clear();
        self.steps.clear();
    }

    /// The next pivot `(row, column slot)`: a row singleton, else a column
    /// singleton, else the Markowitz choice in the bump.
    fn choose_pivot(&mut self, abs_pivot_tol: f64) -> Option<(usize, usize)> {
        let (assigned_row, row_count) = (&self.assigned_row, &self.row_count);
        if let Some(r) = pop_valid(&mut self.row_singletons, |&r| {
            !assigned_row[r] && row_count[r] == 1
        }) {
            let col = self
                .rows
                .list(r)
                .iter()
                .copied()
                .find(|&j| !self.pivoted_col[j] && self.cols.list(j).iter().any(|&(rr, _)| rr == r))
                .expect("row_count said one active column remains");
            return Some((r, col));
        }
        let (pivoted_col, cols) = (&self.pivoted_col, &self.cols);
        if let Some(j) = pop_valid(&mut self.col_singletons, |&j| {
            !pivoted_col[j] && cols.len(j) == 1
        }) {
            return Some((self.cols.list(j)[0].0, j));
        }
        self.markowitz_pivot(abs_pivot_tol)
    }

    /// Markowitz bump pivot with the threshold stability test, examining
    /// candidate columns in ascending `(count, column)` order.  Since the
    /// singleton stacks drained first, every active row has count ≥ 2, so
    /// any entry in a column of count `c` costs at least `c − 1` — once that
    /// bound passes the best cost seen, no later column can win and the
    /// search stops (with a candidate cap as a backstop).  Slots the search
    /// passes whose count is out of date are dropped on the way.
    fn markowitz_pivot(&mut self, abs_pivot_tol: f64) -> Option<(usize, usize)> {
        // (row, column, cost, |value|)
        let mut best: Option<(usize, usize, usize, f64)> = None;
        let mut examined = 0;
        let words = self.queue.words;
        for c in 0..self.queue.sizes.len() {
            if self.queue.sizes[c] == 0 {
                continue;
            }
            for w in 0..words {
                let mut word = self.queue.bits[c * words + w];
                while word != 0 {
                    let j = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    if self.cols.len(j) != c {
                        self.queue.drop_slot(j, c);
                        continue;
                    }
                    for copy in 0..self.queue.copies(j, c) {
                        if let Some((row, col, best_cost, _)) = best {
                            if c > best_cost || examined >= MARKOWITZ_CANDIDATES {
                                return Some((row, col));
                            }
                        }
                        examined += 1;
                        if copy == 0 {
                            best = self.best_entry(j, c, abs_pivot_tol, best);
                        }
                    }
                }
            }
        }
        best.map(|(row, col, _, _)| (row, col))
    }

    /// Fold column `j` (active count `c`) into the running best candidate
    /// `(row, column, cost, |value|)`: the entries passing the threshold
    /// test, by lower Markowitz cost, then larger magnitude, then first seen.
    fn best_entry(
        &self,
        j: usize,
        c: usize,
        abs_pivot_tol: f64,
        mut best: Option<(usize, usize, usize, f64)>,
    ) -> Option<(usize, usize, usize, f64)> {
        let entries = self.cols.list(j);
        let col_max = entries.iter().fold(0.0f64, |acc, &(_, v)| acc.max(v.abs()));
        if col_max < abs_pivot_tol {
            return best;
        }
        let acceptable = col_max * MARKOWITZ_THRESHOLD;
        for &(r, v) in entries {
            if v.abs() < acceptable || v.abs() < abs_pivot_tol {
                continue;
            }
            let cost = (self.row_count[r] - 1) * (c - 1);
            let better = match best {
                None => true,
                Some((_, _, best_cost, best_mag)) => {
                    cost < best_cost || (cost == best_cost && v.abs() > best_mag)
                }
            };
            if better {
                best = Some((r, j, cost, v.abs()));
            }
        }
        best
    }

    /// Retire pivot `(row, col)`: move the pivot column's other entries to
    /// `pivot_entries` and eliminate `row` from every other active column
    /// holding it, freezing the eliminated entry as that column's U
    /// contribution.  Returns the pivot value.
    fn eliminate(&mut self, row: usize, col: usize, abs_pivot_tol: f64) -> Result<f64, LuError> {
        let pivot_value = self
            .cols
            .list(col)
            .iter()
            .find(|&&(r, _)| r == row)
            .map(|&(_, v)| v)
            .expect("pivot entry must be active");
        if pivot_value.abs() < abs_pivot_tol {
            return Err(LuError::Singular);
        }
        self.assigned_row[row] = true;
        self.pivoted_col[col] = true;
        self.queue.retire(col);

        self.pivot_entries.clear();
        self.pivot_entries.extend(
            self.cols
                .list(col)
                .iter()
                .copied()
                .filter(|&(r, _)| r != row),
        );
        for (k, &(r, _)) in self.pivot_entries.iter().enumerate() {
            self.row_count[r] -= 1;
            if self.row_count[r] == 1 && !self.assigned_row[r] {
                self.row_singletons.push(r);
            }
            self.pivot_pos[r] = k + 1;
        }
        if self.pivot_hit.len() < self.pivot_entries.len() {
            self.pivot_hit.resize(self.pivot_entries.len(), false);
        }
        self.row_count[row] = 0;

        // Nothing pushes onto `row`'s own list below (fill lands only on
        // the pivot column's rows), so indexing it stays valid while other
        // lists move.  On `Err` the next `load` resets `pivot_pos`.
        for t in 0..self.rows.len(row) {
            let j = self.rows.list(row)[t];
            if j != col && !self.pivoted_col[j] {
                self.update_column(j, row, pivot_value)?;
            }
        }
        for &(r, _) in &self.pivot_entries {
            self.pivot_pos[r] = 0;
        }
        self.rows.truncate(row, 0);
        Ok(pivot_value)
    }

    /// Schur update of column `j`: eliminate its entry at `row`, then
    /// `a_j −= (u / pivot) · pivot_entries`.  Surviving entries keep their
    /// order, cancelled ones drop out, and fill-in is appended in pivot-entry
    /// order.
    fn update_column(&mut self, j: usize, row: usize, pivot_value: f64) -> Result<(), LuError> {
        let Some(k) = self.cols.list(j).iter().position(|&(r, _)| r == row) else {
            return Ok(()); // stale row-list entry (value cancelled earlier)
        };
        let old_count = self.cols.len(j);
        let u = self.cols.list(j)[k].1;
        self.cols.swap_remove(j, k);
        self.frozen.push((j, row, u));
        let factor = u / pivot_value;

        let entries = self.cols.list_mut(j);
        let mut kept = 0;
        for read in 0..entries.len() {
            let (r, v) = entries[read];
            let p = self.pivot_pos[r];
            if p == 0 {
                entries[kept] = (r, v);
                kept += 1;
                continue;
            }
            self.pivot_hit[p - 1] = true;
            let v = v + -factor * self.pivot_entries[p - 1].1;
            if v.abs() > DROP_TOL {
                entries[kept] = (r, v);
                kept += 1;
            } else {
                // Cancellation.
                self.row_count[r] -= 1;
                if self.row_count[r] == 1 && !self.assigned_row[r] {
                    self.row_singletons.push(r);
                }
            }
        }
        self.cols.truncate(j, kept);
        for p in 0..self.pivot_entries.len() {
            if std::mem::take(&mut self.pivot_hit[p]) {
                continue;
            }
            // Fill-in.
            let (r, cv) = self.pivot_entries[p];
            let v = -factor * cv;
            if v.abs() > DROP_TOL {
                self.cols.push(j, (r, v));
                self.rows.push(r, j);
                self.row_count[r] += 1;
            }
        }

        let count = self.cols.len(j);
        if count != old_count {
            self.queue.push(j, count);
        }
        match count {
            0 => Err(LuError::Singular),
            1 => {
                self.col_singletons.push(j);
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

impl LuFactors {
    /// Factorise the `num_rows × num_rows` basis whose column slot `j` holds
    /// the sparse `(row, value)` entries `column(j)` (no duplicate rows; all
    /// columns together must form a nonsingular matrix), replacing the
    /// current factors; [`LuFactors::row_of_slot`] then tells which pivot row
    /// each column slot was assigned.  On `Err(Singular)` the factors are
    /// left unusable until a factorisation succeeds.
    ///
    /// `abs_pivot_tol` is the absolute magnitude below which a forced pivot
    /// (row/column singleton, or the best bump candidate) is declared singular.
    ///
    /// No buffer is allocated once the factors and this thread's
    /// elimination workspace have grown to the basis size: the factors reuse
    /// their own storage, and the active submatrix and search structures live
    /// in a per-thread workspace shared by every factorisation on the thread.
    pub fn factor<I>(
        &mut self,
        num_rows: usize,
        column: impl Fn(usize) -> I,
        abs_pivot_tol: f64,
    ) -> Result<(), LuError>
    where
        I: IntoIterator<Item = (usize, f64)>,
    {
        ELIMINATION.with_borrow_mut(|elim| self.factor_with(elim, num_rows, column, abs_pivot_tol))
    }

    /// [`LuFactors::factor`] with an explicit elimination workspace.
    fn factor_with<I>(
        &mut self,
        elim: &mut Elimination,
        num_rows: usize,
        column: impl Fn(usize) -> I,
        abs_pivot_tol: f64,
    ) -> Result<(), LuError>
    where
        I: IntoIterator<Item = (usize, f64)>,
    {
        let m = num_rows;
        self.l_ops.clear();
        self.l_entries.clear();
        elim.load(m, column);
        while elim.steps.len() < m {
            let (row, col) = elim.choose_pivot(abs_pivot_tol).ok_or(LuError::Singular)?;
            let pivot_value = elim.eliminate(row, col, abs_pivot_tol)?;
            elim.steps.push((row, col, pivot_value));
            let start = self.l_entries.len();
            self.l_entries.extend(
                elim.pivot_entries
                    .iter()
                    .map(|&(r, v)| (r, v / pivot_value)),
            );
            self.l_ops.push(LOpHeader {
                is_row: false,
                pivot_row: row,
                start,
                end: self.l_entries.len(),
            });
        }

        // U column `k` is the column slot pivoted at step `k`; its
        // above-diagonal entries were frozen in elimination order.
        elim.step_of_slot.resize(m, 0);
        self.row_of_slot.resize(m, 0);
        self.u_pivot_row.clear();
        self.u_pivot_value.clear();
        self.pivot_col_of_row.clear();
        self.pivot_col_of_row.resize(m, NONE);
        for (k, &(row, slot, pivot_value)) in elim.steps.iter().enumerate() {
            elim.step_of_slot[slot] = k;
            self.row_of_slot[slot] = row;
            self.u_pivot_row.push(row);
            self.u_pivot_value.push(pivot_value);
            self.pivot_col_of_row[row] = k;
        }
        let counts = &mut elim.counts;
        counts.clear();
        counts.resize(m, 0);
        for &(slot, _, _) in &elim.frozen {
            counts[elim.step_of_slot[slot]] += 1;
        }
        // U columns only lose entries between factorisations (a replaced
        // column moves), so they get no slack.
        self.u.reset_with_caps(m, |k| counts[k]);
        for &(slot, row, value) in &elim.frozen {
            self.u.push(elim.step_of_slot[slot], (row, value));
        }
        counts.fill(0);
        for &(_, row, _) in &elim.frozen {
            counts[row] += 1;
        }
        self.row_adj.reset_with_caps(m, |r| counts[r] + LIST_SLACK);
        for k in 0..m {
            for &(r, _) in self.u.list(k) {
                self.row_adj.push(r, k);
            }
        }
        counts.fill(0);
        for &(r, _) in &self.l_entries {
            counts[r] += 1;
        }
        // Every row is the pivot row of exactly one column eta.
        self.ftran_readers.reset_with_caps(m, |_| 1 + LIST_SLACK);
        self.btran_readers
            .reset_with_caps(m, |r| counts[r] + LIST_SLACK);
        for (k, op) in self.l_ops.iter().enumerate() {
            self.ftran_readers.push(op.pivot_row, k as u32);
            for &(r, _) in &self.l_entries[op.start..op.end] {
                self.btran_readers.push(r, k as u32);
            }
        }
        self.order_next.clear();
        self.order_next
            .extend((0..m).map(|k| if k + 1 < m { k + 1 } else { NONE }));
        self.order_prev.clear();
        self.order_prev
            .extend((0..m).map(|k| k.checked_sub(1).unwrap_or(NONE)));
        self.head = if m > 0 { 0 } else { NONE };
        self.tail = m.checked_sub(1).unwrap_or(NONE);
        self.ord.clear();
        self.ord.extend(0..m as u64);
        self.next_ord = m as u64;
        self.updates = 0;
        if self.row_marked.len() != m {
            self.scratch_acc = SparseAccumulator::with_len(m);
            self.row_marked = vec![false; m];
        }
        ensure_flags(&mut self.node_seen, m);
        Ok(())
    }

    /// For every column slot of the last successful [`LuFactors::factor`],
    /// the pivot row it was assigned to — the caller uses this to re-key its
    /// row-indexed basis bookkeeping.
    pub fn row_of_slot(&self) -> &[usize] {
        &self.row_of_slot
    }

    /// Number of Forrest–Tomlin updates applied since [`LuFactors::factor`].
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Apply the L-side operators: `v ← (L-ops) v`.  After this, `v` is the
    /// "spike" a Forrest–Tomlin update consumes.
    pub fn solve_l(&self, v: &mut [f64]) {
        for op in self.lops(0..self.l_ops.len()) {
            match op {
                LOp::Col { pivot_row, entries } => {
                    let t = v[pivot_row];
                    if t != 0.0 {
                        for &(r, l) in entries {
                            v[r] -= l * t;
                        }
                    }
                }
                LOp::Row { pivot_row, entries } => {
                    let mut total = v[pivot_row];
                    for &(r, mult) in entries {
                        total -= mult * v[r];
                    }
                    v[pivot_row] = total;
                }
            }
        }
    }

    /// Backward sparse triangular solve: `v ← U⁻¹ v`.
    pub fn solve_u(&self, v: &mut [f64]) {
        let mut id = self.tail;
        while id != NONE {
            let c = self.ucol(id);
            let t = v[c.pivot_row];
            if t != 0.0 {
                let t = t / c.pivot_value;
                v[c.pivot_row] = t;
                for &(r, val) in c.entries {
                    v[r] -= val * t;
                }
            }
            id = self.order_prev[id];
        }
    }

    /// FTRAN: `v ← B⁻¹ v`.
    pub fn ftran(&self, v: &mut [f64]) {
        self.solve_l(v);
        self.solve_u(v);
    }

    /// BTRAN: `v ← (B⁻¹)ᵀ v` (equivalently `v' B⁻¹` for a row vector).
    pub fn btran(&self, v: &mut [f64]) {
        self.btran_u_dense(v);
        self.btran_l_dense(v);
    }

    /// BTRAN's first half: `Uᵀ` is lower triangular in pivot order, so this is
    /// a forward substitution over every U column.
    fn btran_u_dense(&self, v: &mut [f64]) {
        let mut id = self.head;
        while id != NONE {
            let c = self.ucol(id);
            let mut total = v[c.pivot_row];
            for &(r, val) in c.entries {
                total -= val * v[r];
            }
            v[c.pivot_row] = total / c.pivot_value;
            id = self.order_next[id];
        }
    }

    /// BTRAN's second half: the transposed L-ops, newest first.
    fn btran_l_dense(&self, v: &mut [f64]) {
        for op in self.lops(0..self.l_ops.len()).rev() {
            match op {
                LOp::Col { pivot_row, entries } => {
                    let mut t = v[pivot_row];
                    for &(r, l) in entries {
                        t -= l * v[r];
                    }
                    v[pivot_row] = t;
                }
                LOp::Row { pivot_row, entries } => {
                    let t = v[pivot_row];
                    if t != 0.0 {
                        for &(r, mult) in entries {
                            v[r] -= mult * t;
                        }
                    }
                }
            }
        }
    }

    /// Sparse L-side forward pass (Suhl–Suhl ordered reach).  `pattern` must
    /// list the nonzero rows of `v` exactly, without duplicates; on return it
    /// lists the nonzero rows of the result.  Returns `false` when the input
    /// was too dense and the plain [`LuFactors::solve_l`] ran instead — the
    /// pattern is then stale and must be treated as dense by the caller.
    pub fn solve_l_sparse(&mut self, v: &mut [f64], pattern: &mut Vec<usize>) -> bool {
        let m = v.len();
        if !pattern_is_sparse(pattern.len(), m) {
            self.solve_l(v);
            return false;
        }
        ensure_flags(&mut self.node_seen, self.l_ops.len());
        let mut marked = std::mem::take(&mut self.row_marked);
        let mut seen = std::mem::take(&mut self.node_seen);
        let mut touched = std::mem::take(&mut self.node_touched);
        let mut heap = std::mem::take(&mut self.reach_min);
        for &r in pattern.iter() {
            marked[r] = true;
        }
        for &r in pattern.iter() {
            push_ops_min(
                self.ftran_readers.list(r),
                &mut heap,
                &mut seen,
                &mut touched,
            );
        }
        let mut abort_after = None;
        while let Some(Reverse((_, k))) = heap.pop() {
            match self.lop(k) {
                LOp::Col { pivot_row, entries } => {
                    let t = v[pivot_row];
                    if t != 0.0 {
                        for &(r, l) in entries {
                            v[r] -= l * t;
                            if !marked[r] {
                                marked[r] = true;
                                pattern.push(r);
                                let readers = self.ftran_readers.list(r);
                                let from = readers.partition_point(|&x| (x as usize) <= k);
                                push_ops_min(&readers[from..], &mut heap, &mut seen, &mut touched);
                            }
                        }
                    }
                }
                LOp::Row { pivot_row, entries } => {
                    let p = pivot_row;
                    let mut total = v[p];
                    for &(r, mult) in entries {
                        total -= mult * v[r];
                    }
                    v[p] = total;
                    if !marked[p] {
                        marked[p] = true;
                        pattern.push(p);
                        let readers = self.ftran_readers.list(p);
                        let from = readers.partition_point(|&x| (x as usize) <= k);
                        push_ops_min(&readers[from..], &mut heap, &mut seen, &mut touched);
                    }
                }
            }
            // Suhl's switch: once the result has filled in past the sparse
            // threshold, heap-ordered reach loses to the straight-line scan —
            // stop tracking and finish the remaining operators densely.
            if !pattern_is_sparse(pattern.len(), m) {
                abort_after = Some(k);
                break;
            }
        }
        for &r in pattern.iter() {
            marked[r] = false;
        }
        for &k in &touched {
            seen[k] = false;
        }
        touched.clear();
        heap.clear();
        self.row_marked = marked;
        self.node_seen = seen;
        self.node_touched = touched;
        self.reach_min = heap;
        let Some(last) = abort_after else {
            return true;
        };
        // Dense finish: every operator at or before `last` has either fired or
        // had all-zero inputs (the reach guarantee), so replaying the rest in
        // index order completes the solve.  The pattern is stale from here.
        for op in self.lops(last + 1..self.l_ops.len()) {
            match op {
                LOp::Col { pivot_row, entries } => {
                    let t = v[pivot_row];
                    if t != 0.0 {
                        for &(r, l) in entries {
                            v[r] -= l * t;
                        }
                    }
                }
                LOp::Row { pivot_row, entries } => {
                    let mut total = v[pivot_row];
                    for &(r, mult) in entries {
                        total -= mult * v[r];
                    }
                    v[pivot_row] = total;
                }
            }
        }
        false
    }

    /// Sparse backward substitution with U, visiting only the U columns
    /// reachable from the input pattern (descending pivot-order stamps).
    /// Same pattern contract and fallback semantics as
    /// [`LuFactors::solve_l_sparse`].
    pub fn solve_u_sparse(&mut self, v: &mut [f64], pattern: &mut Vec<usize>) -> bool {
        let m = v.len();
        if !pattern_is_sparse(pattern.len(), m) {
            self.solve_u(v);
            return false;
        }
        ensure_flags(&mut self.node_seen, self.u_pivot_row.len());
        let mut marked = std::mem::take(&mut self.row_marked);
        let mut seen = std::mem::take(&mut self.node_seen);
        let mut touched = std::mem::take(&mut self.node_touched);
        let mut heap = std::mem::take(&mut self.reach_max);
        for &r in pattern.iter() {
            marked[r] = true;
        }
        for &r in pattern.iter() {
            let cid = self.pivot_col_of_row[r];
            if cid != NONE && !seen[cid] {
                seen[cid] = true;
                touched.push(cid);
                heap.push((self.ord[cid], cid));
            }
        }
        let mut abort_at = None;
        while let Some((_, cid)) = heap.pop() {
            let c = self.ucol(cid);
            let t = v[c.pivot_row];
            if t != 0.0 {
                let t = t / c.pivot_value;
                v[c.pivot_row] = t;
                for &(r, val) in c.entries {
                    v[r] -= val * t;
                    if !marked[r] {
                        marked[r] = true;
                        pattern.push(r);
                        let next = self.pivot_col_of_row[r];
                        if next != NONE && !seen[next] {
                            seen[next] = true;
                            touched.push(next);
                            heap.push((self.ord[next], next));
                        }
                    }
                }
            }
            // Suhl's switch (see the L pass): finish densely once filled in.
            if !pattern_is_sparse(pattern.len(), m) {
                abort_at = Some(cid);
                break;
            }
        }
        for &r in pattern.iter() {
            marked[r] = false;
        }
        for &cid in &touched {
            seen[cid] = false;
        }
        touched.clear();
        heap.clear();
        self.row_marked = marked;
        self.node_seen = seen;
        self.node_touched = touched;
        self.reach_max = heap;
        let Some(last) = abort_at else {
            return true;
        };
        // Dense finish: columns later in the order than `last` have all been
        // popped (descending stamps) or were unreachable no-ops, so resuming
        // the plain backward scan from its predecessor completes the solve.
        let mut id = self.order_prev[last];
        while id != NONE {
            let c = self.ucol(id);
            let t = v[c.pivot_row];
            if t != 0.0 {
                let t = t / c.pivot_value;
                v[c.pivot_row] = t;
                for &(r, val) in c.entries {
                    v[r] -= val * t;
                }
            }
            id = self.order_prev[id];
        }
        false
    }

    /// Sparse FTRAN: `v ← B⁻¹ v` with pattern tracking.  Returns `false` when
    /// either triangular pass fell back to the dense scans (the pattern is
    /// then stale).  The solver composes [`LuFactors::solve_l_sparse`] and
    /// [`LuFactors::solve_u_sparse`] directly so it can capture the spike
    /// between the passes; this is the plain composition for everyone else
    /// (currently the differential tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn ftran_sparse(&mut self, v: &mut [f64], pattern: &mut Vec<usize>) -> bool {
        if !self.solve_l_sparse(v, pattern) {
            self.solve_u(v);
            return false;
        }
        self.solve_u_sparse(v, pattern)
    }

    /// Sparse BTRAN: `v ← (B⁻¹)ᵀ v` with pattern tracking.  Returns `false`
    /// when it fell back to the dense scans (the pattern is then stale).
    pub fn btran_sparse(&mut self, v: &mut [f64], pattern: &mut Vec<usize>) -> bool {
        let m = v.len();
        if !pattern_is_sparse(pattern.len(), m) {
            self.btran(v);
            return false;
        }

        // Pass 1: Uᵀ forward substitution in ascending pivot order.  A column
        // fires when its own pivot row is nonzero (the diagonal scaling) or
        // any of its above-diagonal entry rows is (`row_adj`).
        ensure_flags(&mut self.node_seen, self.u_pivot_row.len());
        let mut marked = std::mem::take(&mut self.row_marked);
        let mut seen = std::mem::take(&mut self.node_seen);
        let mut touched = std::mem::take(&mut self.node_touched);
        let mut heap = std::mem::take(&mut self.reach_min);
        for &r in pattern.iter() {
            marked[r] = true;
        }
        for &r in pattern.iter() {
            let pc = self.pivot_col_of_row[r];
            if pc != NONE && !seen[pc] {
                seen[pc] = true;
                touched.push(pc);
                heap.push(Reverse((self.ord[pc], pc)));
            }
            for &cid in self.row_adj.list(r) {
                if !seen[cid] {
                    seen[cid] = true;
                    touched.push(cid);
                    heap.push(Reverse((self.ord[cid], cid)));
                }
            }
        }
        let mut abort_at = None;
        while let Some(Reverse((_, cid))) = heap.pop() {
            let c = self.ucol(cid);
            let p = c.pivot_row;
            let mut total = v[p];
            for &(r, val) in c.entries {
                total -= val * v[r];
            }
            v[p] = total / c.pivot_value;
            if !marked[p] {
                marked[p] = true;
                pattern.push(p);
                for &next in self.row_adj.list(p) {
                    if !seen[next] {
                        seen[next] = true;
                        touched.push(next);
                        heap.push(Reverse((self.ord[next], next)));
                    }
                }
            }
            // Suhl's switch (see the L pass): finish densely once filled in.
            if !pattern_is_sparse(pattern.len(), m) {
                abort_at = Some(cid);
                break;
            }
        }
        for &cid in &touched {
            seen[cid] = false;
        }
        touched.clear();
        if let Some(last) = abort_at {
            // Columns earlier in the order than `last` have all been popped
            // (ascending stamps) or were unreachable no-ops; resume the plain
            // forward scan from its successor, then finish with the dense
            // transposed-L pass.
            heap.clear();
            for &r in pattern.iter() {
                marked[r] = false;
            }
            self.row_marked = marked;
            self.node_seen = seen;
            self.node_touched = touched;
            self.reach_min = heap;
            let mut id = self.order_next[last];
            while id != NONE {
                let c = self.ucol(id);
                let mut total = v[c.pivot_row];
                for &(r, val) in c.entries {
                    total -= val * v[r];
                }
                v[c.pivot_row] = total / c.pivot_value;
                id = self.order_next[id];
            }
            self.btran_l_dense(v);
            return false;
        }

        // If the U pass filled the vector up, finish with the dense L pass.
        if !pattern_is_sparse(pattern.len(), m) {
            for &r in pattern.iter() {
                marked[r] = false;
            }
            self.row_marked = marked;
            self.node_seen = seen;
            self.node_touched = touched;
            self.reach_min = heap;
            self.btran_l_dense(v);
            return false;
        }
        self.reach_min = heap;

        // Pass 2: transposed L-ops, newest first (descending op index).
        ensure_flags(&mut seen, self.l_ops.len());
        let mut heap = std::mem::take(&mut self.reach_max);
        for &r in pattern.iter() {
            push_ops_max(
                self.btran_readers.list(r),
                &mut heap,
                &mut seen,
                &mut touched,
            );
        }
        let mut abort_after = None;
        while let Some((_, k)) = heap.pop() {
            match self.lop(k) {
                LOp::Col { pivot_row, entries } => {
                    let p = pivot_row;
                    let mut t = v[p];
                    for &(r, l) in entries {
                        t -= l * v[r];
                    }
                    v[p] = t;
                    if !marked[p] {
                        marked[p] = true;
                        pattern.push(p);
                        let readers = self.btran_readers.list(p);
                        let upto = readers.partition_point(|&x| (x as usize) < k);
                        push_ops_max(&readers[..upto], &mut heap, &mut seen, &mut touched);
                    }
                }
                LOp::Row { pivot_row, entries } => {
                    let t = v[pivot_row];
                    if t != 0.0 {
                        for &(r, mult) in entries {
                            v[r] -= mult * t;
                            if !marked[r] {
                                marked[r] = true;
                                pattern.push(r);
                                let readers = self.btran_readers.list(r);
                                let upto = readers.partition_point(|&x| (x as usize) < k);
                                push_ops_max(&readers[..upto], &mut heap, &mut seen, &mut touched);
                            }
                        }
                    }
                }
            }
            // Suhl's switch (see the L pass): finish densely once filled in.
            if !pattern_is_sparse(pattern.len(), m) {
                abort_after = Some(k);
                break;
            }
        }
        for &r in pattern.iter() {
            marked[r] = false;
        }
        for &k in &touched {
            seen[k] = false;
        }
        touched.clear();
        heap.clear();
        self.row_marked = marked;
        self.node_seen = seen;
        self.node_touched = touched;
        self.reach_max = heap;
        let Some(last) = abort_after else {
            return true;
        };
        // Dense finish: operators newer than `last` have all been popped
        // (descending indices) or were no-ops; replay the older ones
        // newest-first with the plain transposed scan.
        for op in self.lops(0..last).rev() {
            match op {
                LOp::Col { pivot_row, entries } => {
                    let mut t = v[pivot_row];
                    for &(r, l) in entries {
                        t -= l * v[r];
                    }
                    v[pivot_row] = t;
                }
                LOp::Row { pivot_row, entries } => {
                    let t = v[pivot_row];
                    if t != 0.0 {
                        for &(r, mult) in entries {
                            v[r] -= mult * t;
                        }
                    }
                }
            }
        }
        false
    }

    /// Sparse BTRAN that **gives up** instead of densifying: when either
    /// pass's nonzero pattern outgrows the hypersparse threshold, the vector
    /// is zeroed back out and `false` is returned.  For callers where the
    /// result is optional (the steepest-edge cross term), abandoning is far
    /// cheaper than the dense finish [`LuFactors::btran_sparse`] would pay.
    /// `cap` bounds the result pattern: the solve abandons as soon as more
    /// than `cap` nonzero rows exist.  A tight cap matters — the reach
    /// exploration itself is the cost, so a failed attempt must fail fast.
    pub fn btran_sparse_bounded(
        &mut self,
        v: &mut [f64],
        pattern: &mut Vec<usize>,
        cap: usize,
    ) -> bool {
        let m = v.len();
        let cap = cap.min(m / SPARSE_RHS_FRACTION);
        // Every row this routine writes is recorded in `pattern` (inputs are
        // pre-marked; fills are pushed when first marked), so zeroing over the
        // pattern restores a clean vector on abandonment.
        macro_rules! abandon {
            ($marked:ident, $seen:ident, $touched:ident, $heap:ident, $heap_slot:ident) => {{
                for &r in pattern.iter() {
                    $marked[r] = false;
                    v[r] = 0.0;
                }
                pattern.clear();
                for &k in &$touched {
                    $seen[k] = false;
                }
                $touched.clear();
                $heap.clear();
                self.row_marked = $marked;
                self.node_seen = $seen;
                self.node_touched = $touched;
                self.$heap_slot = $heap;
                return false;
            }};
        }
        if pattern.len() > cap {
            for &r in pattern.iter() {
                v[r] = 0.0;
            }
            pattern.clear();
            return false;
        }

        // Pass 1: Uᵀ reach, as in `btran_sparse`.
        ensure_flags(&mut self.node_seen, self.u_pivot_row.len());
        let mut marked = std::mem::take(&mut self.row_marked);
        let mut seen = std::mem::take(&mut self.node_seen);
        let mut touched = std::mem::take(&mut self.node_touched);
        let mut heap = std::mem::take(&mut self.reach_min);
        for &r in pattern.iter() {
            marked[r] = true;
        }
        for &r in pattern.iter() {
            let pc = self.pivot_col_of_row[r];
            if pc != NONE && !seen[pc] {
                seen[pc] = true;
                touched.push(pc);
                heap.push(Reverse((self.ord[pc], pc)));
            }
            for &cid in self.row_adj.list(r) {
                if !seen[cid] {
                    seen[cid] = true;
                    touched.push(cid);
                    heap.push(Reverse((self.ord[cid], cid)));
                }
            }
        }
        while let Some(Reverse((_, cid))) = heap.pop() {
            let c = self.ucol(cid);
            let p = c.pivot_row;
            let mut total = v[p];
            for &(r, val) in c.entries {
                total -= val * v[r];
            }
            v[p] = total / c.pivot_value;
            if !marked[p] {
                marked[p] = true;
                pattern.push(p);
                for &next in self.row_adj.list(p) {
                    if !seen[next] {
                        seen[next] = true;
                        touched.push(next);
                        heap.push(Reverse((self.ord[next], next)));
                    }
                }
            }
            if pattern.len() > cap {
                abandon!(marked, seen, touched, heap, reach_min);
            }
        }
        for &cid in &touched {
            seen[cid] = false;
        }
        touched.clear();
        self.reach_min = heap;

        // Pass 2: transposed L-ops, as in `btran_sparse`.
        ensure_flags(&mut seen, self.l_ops.len());
        let mut heap = std::mem::take(&mut self.reach_max);
        for &r in pattern.iter() {
            push_ops_max(
                self.btran_readers.list(r),
                &mut heap,
                &mut seen,
                &mut touched,
            );
        }
        while let Some((_, k)) = heap.pop() {
            match self.lop(k) {
                LOp::Col { pivot_row, entries } => {
                    let p = pivot_row;
                    let mut t = v[p];
                    for &(r, l) in entries {
                        t -= l * v[r];
                    }
                    v[p] = t;
                    if !marked[p] {
                        marked[p] = true;
                        pattern.push(p);
                        let readers = self.btran_readers.list(p);
                        let upto = readers.partition_point(|&x| (x as usize) < k);
                        push_ops_max(&readers[..upto], &mut heap, &mut seen, &mut touched);
                    }
                }
                LOp::Row { pivot_row, entries } => {
                    let t = v[pivot_row];
                    if t != 0.0 {
                        for &(r, mult) in entries {
                            v[r] -= mult * t;
                            if !marked[r] {
                                marked[r] = true;
                                pattern.push(r);
                                let readers = self.btran_readers.list(r);
                                let upto = readers.partition_point(|&x| (x as usize) < k);
                                push_ops_max(&readers[..upto], &mut heap, &mut seen, &mut touched);
                            }
                        }
                    }
                }
            }
            if pattern.len() > cap {
                abandon!(marked, seen, touched, heap, reach_max);
            }
        }
        for &r in pattern.iter() {
            marked[r] = false;
        }
        for &k in &touched {
            seen[k] = false;
        }
        touched.clear();
        heap.clear();
        self.row_marked = marked;
        self.node_seen = seen;
        self.node_touched = touched;
        self.reach_max = heap;
        true
    }

    /// Forrest–Tomlin update: the basis column pivoted on `leaving_row` is
    /// replaced by the entering column whose **partial FTRAN** (through
    /// [`LuFactors::solve_l`] only) is `spike`.
    ///
    /// `spike_pattern`, when given, must list the nonzero rows of `spike`
    /// without duplicates (a superset with exact zeros is fine) — the update
    /// then touches only those rows instead of scanning all of `spike`.
    ///
    /// On `Err(Singular)` the factors are left in an inconsistent state and the
    /// caller **must** refactorise from scratch before using them again — this
    /// is the trigger of the basis-repair path.
    pub fn update(
        &mut self,
        leaving_row: usize,
        spike: &[f64],
        spike_pattern: Option<&[usize]>,
    ) -> Result<(), LuError> {
        let p_id = self.pivot_col_of_row[leaving_row];
        debug_assert_ne!(p_id, NONE, "leaving row has no pivot column");

        // Eliminate row `leaving_row` from every U column ordered after the
        // leaving column, processing in ascending order so fill generated into
        // the row by one elimination is seen by the later ones.  All work is
        // confined to the row itself, held in the (reused) accumulator keyed
        // by column id.
        let mut acc = std::mem::take(&mut self.scratch_acc);
        let mut heap = std::mem::take(&mut self.scratch_heap);
        let mut seen = std::mem::take(&mut self.scratch_seen);
        acc.clear();
        heap.clear();
        seen.clear();
        for &cid in self.row_adj.list(leaving_row) {
            debug_assert!(self.ord[cid] > self.ord[p_id]);
            let val = self
                .u_get(cid, leaving_row)
                .expect("row adjacency out of sync with U column");
            acc.add(cid, val);
            heap.push(Reverse((self.ord[cid], cid)));
        }
        self.row_adj.truncate(leaving_row, 0);

        // The row eta is built in place at the end of the L store.
        let eta_start = self.l_entries.len();
        while let Some(Reverse((_, cid))) = heap.pop() {
            if seen.contains(&cid) {
                continue; // duplicate heap entry
            }
            seen.push(cid);
            let val = acc.get(cid);
            if let Some(k) = self.u.list(cid).iter().position(|e| e.0 == leaving_row) {
                self.u.swap_remove(cid, k);
            }
            if val.abs() <= DROP_TOL {
                continue;
            }
            let pivot_row = self.u_pivot_row[cid];
            let mult = val / self.u_pivot_value[cid];
            self.l_entries.push((pivot_row, mult));
            // Fill from row `pivot_row` of U into row `leaving_row`.
            for &nid in self.row_adj.list(pivot_row) {
                let u_val = self
                    .u_get(nid, pivot_row)
                    .expect("row adjacency out of sync with U column");
                if !acc.is_marked(nid) {
                    heap.push(Reverse((self.ord[nid], nid)));
                }
                acc.add(nid, -mult * u_val);
            }
        }
        self.scratch_acc = acc;
        self.scratch_heap = heap;
        self.scratch_seen = seen;

        // New diagonal: the spike entry at the leaving row, transformed by the
        // row eta just built.
        let mut diag = spike[leaving_row];
        let mut spike_max = diag.abs();
        for &(r, mult) in &self.l_entries[eta_start..] {
            diag -= mult * spike[r];
        }

        // Replace the leaving column (reusing its id) with the spike and move
        // it to the end of the pivot order.
        for &(r, _) in self.u.list(p_id) {
            self.row_adj.remove_value(r, p_id);
        }
        self.u.truncate(p_id, 0);
        {
            let mut take = |r: usize, v: f64| {
                if r != leaving_row && v.abs() > DROP_TOL {
                    self.u.push(p_id, (r, v));
                    self.row_adj.push(r, p_id);
                    spike_max = spike_max.max(v.abs());
                }
            };
            match spike_pattern {
                Some(pattern) => {
                    for &r in pattern {
                        take(r, spike[r]);
                    }
                }
                None => {
                    for (r, &v) in spike.iter().enumerate() {
                        take(r, v);
                    }
                }
            }
        }
        self.u_pivot_value[p_id] = diag;
        debug_assert_eq!(self.u_pivot_row[p_id], leaving_row);

        self.unlink(p_id);
        self.link_tail(p_id);
        self.ord[p_id] = self.next_ord;
        self.next_ord += 1;

        if self.l_entries.len() > eta_start {
            let k = self.l_ops.len() as u32;
            for &(r, _) in &self.l_entries[eta_start..] {
                self.ftran_readers.push(r, k);
            }
            self.btran_readers.push(leaving_row, k);
            self.l_ops.push(LOpHeader {
                is_row: true,
                pivot_row: leaving_row,
                start: eta_start,
                end: self.l_entries.len(),
            });
        }
        self.updates += 1;

        // Stability: a vanishing diagonal relative to the spike scale means the
        // new basis is (numerically) singular.
        if diag.abs() < 1e-11 * spike_max.max(1.0) {
            return Err(LuError::Singular);
        }
        Ok(())
    }

    /// Total stored nonzeros across the L operators (diagnostic).
    #[cfg(test)]
    fn l_nnz(&self) -> usize {
        self.l_entries.len()
    }

    /// L operator `k`.
    fn lop(&self, k: usize) -> LOp<'_> {
        let h = self.l_ops[k];
        let entries = &self.l_entries[h.start..h.end];
        if h.is_row {
            LOp::Row {
                pivot_row: h.pivot_row,
                entries,
            }
        } else {
            LOp::Col {
                pivot_row: h.pivot_row,
                entries,
            }
        }
    }

    /// The L operators `range`, in order.
    fn lops(&self, range: Range<usize>) -> impl DoubleEndedIterator<Item = LOp<'_>> {
        range.map(|k| self.lop(k))
    }

    /// U column `id`.
    fn ucol(&self, id: usize) -> UCol<'_> {
        UCol {
            pivot_row: self.u_pivot_row[id],
            pivot_value: self.u_pivot_value[id],
            entries: self.u.list(id),
        }
    }

    /// Value U column `id` stores at `row`, if any (linear scan — U columns
    /// are short).
    fn u_get(&self, id: usize, row: usize) -> Option<f64> {
        self.u.list(id).iter().find(|e| e.0 == row).map(|e| e.1)
    }

    fn unlink(&mut self, id: usize) {
        let (prev, next) = (self.order_prev[id], self.order_next[id]);
        if prev != NONE {
            self.order_next[prev] = next;
        } else {
            self.head = next;
        }
        if next != NONE {
            self.order_prev[next] = prev;
        } else {
            self.tail = prev;
        }
    }

    fn link_tail(&mut self, id: usize) {
        self.order_prev[id] = self.tail;
        self.order_next[id] = NONE;
        if self.tail != NONE {
            self.order_next[self.tail] = id;
        } else {
            self.head = id;
        }
        self.tail = id;
    }
}

/// Pop entries until one satisfies `valid` (lazy deletion for singleton queues).
fn pop_valid<T: Copy>(stack: &mut Vec<T>, valid: impl Fn(&T) -> bool) -> Option<T> {
    while let Some(x) = stack.pop() {
        if valid(&x) {
            return Some(x);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift for reproducible random bases.
    struct Rng(u64);
    impl Rng {
        fn next_f64(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next_f64() * n as f64) as usize % n
        }
    }

    /// A random sparse nonsingular basis: a permuted diagonally-dominant matrix
    /// with `extra` random off-diagonal entries.
    fn random_basis(m: usize, extra: usize, rng: &mut Rng) -> Vec<Vec<(usize, f64)>> {
        // Random permutation for the dominant diagonal.
        let mut perm: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        let mut cols: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|j| vec![(perm[j], 4.0 + rng.next_f64())])
            .collect();
        for _ in 0..extra {
            let j = rng.below(m);
            let r = rng.below(m);
            if cols[j].iter().all(|&(rr, _)| rr != r) {
                cols[j].push((r, rng.next_f64() * 2.0 - 1.0));
            }
        }
        cols
    }

    /// A random singleton-free banded basis shaped like the dual WM bases the
    /// solver factors: before random row and column permutations, column `j`
    /// holds a dominant entry at row `j`, a sub-diagonal entry at `j + 1` and,
    /// in every third column, one more at `j + 2` (indices cyclic), so every
    /// row and column has 2–3 entries and elimination starts in the bump.
    /// Returns the columns and each column's dominant row; the basis stays
    /// nonsingular when a column is replaced by one dominated at the same row.
    fn banded_basis(m: usize, rng: &mut Rng) -> (Vec<Vec<(usize, f64)>>, Vec<usize>) {
        let mut row_perm: Vec<usize> = (0..m).collect();
        let mut col_perm: Vec<usize> = (0..m).collect();
        for perm in [&mut row_perm, &mut col_perm] {
            for i in (1..m).rev() {
                perm.swap(i, rng.below(i + 1));
            }
        }
        let mut cols = vec![Vec::new(); m];
        let mut dominant = vec![0; m];
        for j in 0..m {
            let col = &mut cols[col_perm[j]];
            col.push((row_perm[j], 2.0 + rng.next_f64()));
            col.push((row_perm[(j + 1) % m], -(0.5 + 0.5 * rng.next_f64())));
            if j % 3 == 0 && m > 2 {
                col.push((row_perm[(j + 2) % m], 0.3 * rng.next_f64()));
            }
            dominant[col_perm[j]] = row_perm[j];
        }
        (cols, dominant)
    }

    /// `B·x` for the basis `cols`, with `x` indexed by column slot.
    fn basis_times(cols: &[Vec<(usize, f64)>], x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; cols.len()];
        for (col, &xj) in cols.iter().zip(x) {
            for &(r, v) in col {
                out[r] += v * xj;
            }
        }
        out
    }

    /// Factor a basis given as owned columns, returning the factors and the
    /// slot → pivot-row assignment.
    fn factor_columns(
        m: usize,
        cols: &[Vec<(usize, f64)>],
        abs_pivot_tol: f64,
    ) -> Result<(LuFactors, Vec<usize>), LuError> {
        let mut lu = LuFactors::default();
        lu.factor(m, |j| cols[j].iter().copied(), abs_pivot_tol)?;
        let assignment = lu.row_of_slot().to_vec();
        Ok((lu, assignment))
    }

    fn densify(cols: &[Vec<(usize, f64)>]) -> Vec<Vec<f64>> {
        let m = cols.len();
        let mut dense = vec![vec![0.0; m]; m];
        for (j, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                dense[r][j] = v;
            }
        }
        dense
    }

    /// Dense Gaussian elimination with partial pivoting — the oracle.
    fn dense_solve(a: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
        let m = a.len();
        let mut aug: Vec<Vec<f64>> = a
            .iter()
            .zip(b)
            .map(|(row, &bi)| {
                let mut r = row.clone();
                r.push(bi);
                r
            })
            .collect();
        for k in 0..m {
            let piv = (k..m)
                .max_by(|&i, &j| aug[i][k].abs().partial_cmp(&aug[j][k].abs()).unwrap())
                .unwrap();
            aug.swap(k, piv);
            assert!(aug[k][k].abs() > 1e-12, "oracle met a singular matrix");
            for i in 0..m {
                if i != k && aug[i][k] != 0.0 {
                    let f = aug[i][k] / aug[k][k];
                    let (pivot_row, target_row) = if i < k {
                        let (lo, hi) = aug.split_at_mut(k);
                        (&hi[0], &mut lo[i])
                    } else {
                        let (lo, hi) = aug.split_at_mut(i);
                        (&lo[k], &mut hi[0])
                    };
                    for (t, &p) in target_row[k..=m].iter_mut().zip(&pivot_row[k..=m]) {
                        *t -= f * p;
                    }
                }
            }
        }
        (0..m).map(|k| aug[k][m] / aug[k][k]).collect()
    }

    fn transpose(a: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let m = a.len();
        (0..m).map(|i| (0..m).map(|j| a[j][i]).collect()).collect()
    }

    fn assert_vec_close(a: &[f64], b: &[f64], tol: f64) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn factors_the_identity_trivially() {
        let cols: Vec<Vec<(usize, f64)>> = (0..5).map(|j| vec![(j, 1.0)]).collect();
        let (lu, assignment) = factor_columns(5, &cols, 1e-11).unwrap();
        assert_eq!(assignment, vec![0, 1, 2, 3, 4]);
        let mut v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        lu.ftran(&mut v);
        assert_vec_close(&v, &[1.0, 2.0, 3.0, 4.0, 5.0], 1e-14);
        lu.btran(&mut v);
        assert_vec_close(&v, &[1.0, 2.0, 3.0, 4.0, 5.0], 1e-14);
        assert_eq!(lu.l_nnz(), 0, "identity factors with zero fill");
    }

    #[test]
    fn ftran_and_btran_match_the_dense_oracle_on_random_bases() {
        let mut rng = Rng(0x5eed);
        for m in [3usize, 7, 15, 40] {
            for round in 0..4 {
                let cols = random_basis(m, m * 2, &mut rng);
                let dense = densify(&cols);
                let (lu, assignment) = factor_columns(m, &cols, 1e-11)
                    .unwrap_or_else(|_| panic!("m={m} round={round}: factorisation failed"));
                // Assignment must be a permutation of the rows.
                let mut sorted = assignment.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..m).collect::<Vec<_>>());

                let b: Vec<f64> = (0..m).map(|_| rng.next_f64() * 10.0 - 5.0).collect();

                // ftran solves B x = b with x keyed by assigned pivot row.
                let mut x = b.clone();
                lu.ftran(&mut x);
                let oracle = dense_solve(&dense, &b);
                // oracle is keyed by column slot; re-key via the assignment.
                let mut expected = vec![0.0; m];
                for (slot, &row) in assignment.iter().enumerate() {
                    expected[row] = oracle[slot];
                }
                assert_vec_close(&x, &expected, 1e-8);

                // btran solves Bᵀ y = c (with the same keying on the input).
                let c: Vec<f64> = (0..m).map(|_| rng.next_f64() * 4.0 - 2.0).collect();
                let mut y = c.clone();
                lu.btran(&mut y);
                let mut c_slot = vec![0.0; m];
                for (slot, &row) in assignment.iter().enumerate() {
                    c_slot[slot] = c[row];
                }
                let oracle_t = dense_solve(&transpose(&dense), &c_slot);
                assert_vec_close(&y, &oracle_t, 1e-8);
            }
        }
    }

    #[test]
    fn forrest_tomlin_update_matches_a_fresh_factorisation() {
        let mut rng = Rng(0xfeed);
        for m in [5usize, 12, 30] {
            let mut cols = random_basis(m, m * 2, &mut rng);
            let (mut lu, assignment) = factor_columns(m, &cols, 1e-11).unwrap();

            // Replace a sequence of random columns Forrest–Tomlin style.
            for step in 0..6 {
                // New entering column: dense-ish random with a strong anchor on
                // the leaving row so the update is well conditioned.
                // The slot→pivot-row assignment survives FT updates because the
                // entering column inherits the leaving column's pivot row.
                let leaving_row = rng.below(m);
                let slot = assignment.iter().position(|&r| r == leaving_row).unwrap();
                let mut entering: Vec<(usize, f64)> = vec![(leaving_row, 3.0 + rng.next_f64())];
                for _ in 0..4 {
                    let r = rng.below(m);
                    if entering.iter().all(|&(rr, _)| rr != r) {
                        entering.push((r, rng.next_f64() * 2.0 - 1.0));
                    }
                }

                // Spike = L⁻¹ a_q, then update.
                let mut spike = vec![0.0; m];
                for &(r, v) in &entering {
                    spike[r] = v;
                }
                lu.solve_l(&mut spike);
                lu.update(leaving_row, &spike, None)
                    .unwrap_or_else(|_| panic!("m={m} step={step}: update declared singular"));

                // The updated factors must agree with factoring the modified
                // basis from scratch on a probe solve.
                cols[slot] = entering;
                let dense = densify(&cols);
                let b: Vec<f64> = (0..m).map(|_| rng.next_f64() * 10.0 - 5.0).collect();
                let mut x = b.clone();
                lu.ftran(&mut x);
                let oracle = dense_solve(&dense, &b);
                // Keying: position slots keep their pivot rows across FT
                // updates (the entering column inherits `leaving_row`).
                let mut expected = vec![0.0; m];
                for (s, &row) in assignment.iter().enumerate() {
                    expected[row] = oracle[s];
                }
                assert_vec_close(&x, &expected, 1e-7);

                let c: Vec<f64> = (0..m).map(|_| rng.next_f64() * 4.0 - 2.0).collect();
                let mut y = c.clone();
                lu.btran(&mut y);
                let mut c_slot = vec![0.0; m];
                for (s, &row) in assignment.iter().enumerate() {
                    c_slot[s] = c[row];
                }
                let oracle_t = dense_solve(&transpose(&dense), &c_slot);
                assert_vec_close(&y, &oracle_t, 1e-7);
            }
            assert_eq!(lu.updates(), 6);
        }
    }

    #[test]
    fn structurally_singular_bases_are_rejected() {
        // Two identical columns.
        let cols = vec![
            vec![(0, 1.0), (1, 2.0)],
            vec![(0, 1.0), (1, 2.0)],
            vec![(2, 1.0)],
        ];
        assert_eq!(
            factor_columns(3, &cols, 1e-11).err(),
            Some(LuError::Singular)
        );
        // A numerically vanishing forced pivot.
        let cols = vec![vec![(0, 1e-14)], vec![(1, 1.0)]];
        assert_eq!(
            factor_columns(2, &cols, 1e-11).err(),
            Some(LuError::Singular)
        );
    }

    #[test]
    fn update_reports_singularity_for_a_dependent_entering_column() {
        // B = I; replace column 0 by a column with no component on row 0 —
        // the new basis is singular and the update must say so.
        let cols: Vec<Vec<(usize, f64)>> = (0..3).map(|j| vec![(j, 1.0)]).collect();
        let (mut lu, _) = factor_columns(3, &cols, 1e-11).unwrap();
        let mut spike = vec![0.0, 1.0, 0.0];
        lu.solve_l(&mut spike);
        assert_eq!(lu.update(0, &spike, None).err(), Some(LuError::Singular));
    }

    #[test]
    fn sparse_solves_match_dense_solves_before_and_after_updates() {
        // The reach-based FTRAN/BTRAN must agree with the dense scans on
        // arbitrary sparse right-hand sides, and the returned pattern must
        // cover every nonzero of the result.  Exercised across FT updates so
        // the incrementally maintained reader lists are covered too.
        let mut rng = Rng(0x90ad);
        let mut sparse_hits = 0usize;
        for m in [9usize, 24, 64, 120] {
            let cols = random_basis(m, m * 2, &mut rng);
            let (mut lu, _) = factor_columns(m, &cols, 1e-11).unwrap();
            for step in 0..8 {
                // A unit-ish sparse RHS (1-3 nonzeros, always sparse enough).
                let mut v = vec![0.0; m];
                let mut pattern = Vec::new();
                for _ in 0..(1 + step % 3) {
                    let r = rng.below(m);
                    if v[r] == 0.0 {
                        v[r] = rng.next_f64() * 4.0 - 2.0;
                        pattern.push(r);
                    }
                }

                let mut dense_f = v.clone();
                lu.ftran(&mut dense_f);
                let mut sparse_f = v.clone();
                let mut pat_f = pattern.clone();
                if lu.ftran_sparse(&mut sparse_f, &mut pat_f) {
                    sparse_hits += 1;
                    for (r, &x) in dense_f.iter().enumerate() {
                        if x.abs() > 1e-12 {
                            assert!(pat_f.contains(&r), "ftran pattern missed row {r}");
                        }
                    }
                }
                assert_vec_close(&sparse_f, &dense_f, 1e-9);

                let mut dense_b = v.clone();
                lu.btran(&mut dense_b);
                let mut sparse_b = v.clone();
                let mut pat_b = pattern.clone();
                if lu.btran_sparse(&mut sparse_b, &mut pat_b) {
                    sparse_hits += 1;
                    for (r, &x) in dense_b.iter().enumerate() {
                        if x.abs() > 1e-12 {
                            assert!(pat_b.contains(&r), "btran pattern missed row {r}");
                        }
                    }
                }
                assert_vec_close(&sparse_b, &dense_b, 1e-9);

                // Apply a Forrest–Tomlin update through the sparse spike path.
                let leaving_row = rng.below(m);
                let mut spike = vec![0.0; m];
                let mut spike_pat = vec![leaving_row];
                spike[leaving_row] = 3.0 + rng.next_f64();
                for _ in 0..3 {
                    let r = rng.below(m);
                    if spike[r] == 0.0 {
                        spike[r] = rng.next_f64() - 0.5;
                        spike_pat.push(r);
                    }
                }
                if lu.solve_l_sparse(&mut spike, &mut spike_pat) {
                    lu.update(leaving_row, &spike, Some(&spike_pat)).unwrap();
                } else {
                    lu.update(leaving_row, &spike, None).unwrap();
                }
            }
        }
        assert!(
            sparse_hits >= 1,
            "the reach-based paths never ran ({sparse_hits} hits) — thresholds broken?"
        );
    }

    /// On a block-bidiagonal basis (independent 8-row blocks) a unit
    /// right-hand side reaches at most its own block, so the reach-based
    /// solves must complete sparse — and still agree with the dense scans.
    #[test]
    fn reach_solves_complete_sparse_on_a_block_bidiagonal_basis() {
        let m = 512;
        let columns: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|j| {
                let mut col = vec![(j, 2.0)];
                if j + 1 < m && j % 8 != 7 {
                    col.push((j + 1, -1.0));
                }
                col
            })
            .collect();
        let (mut lu, _) = factor_columns(m, &columns, 1e-11).unwrap();
        for seed_row in [0usize, 100, 511] {
            let mut v = vec![0.0; m];
            v[seed_row] = 1.0;
            let mut dense_f = v.clone();
            lu.ftran(&mut dense_f);
            let mut pat = vec![seed_row];
            assert!(lu.ftran_sparse(&mut v, &mut pat), "ftran fell back dense");
            assert_vec_close(&v, &dense_f, 1e-9);
            for (r, &x) in dense_f.iter().enumerate() {
                if x.abs() > 1e-12 {
                    assert!(pat.contains(&r), "ftran pattern missed row {r}");
                }
            }

            let mut v = vec![0.0; m];
            v[seed_row] = 1.0;
            let mut dense_b = v.clone();
            lu.btran(&mut dense_b);
            let mut pat = vec![seed_row];
            assert!(lu.btran_sparse(&mut v, &mut pat), "btran fell back dense");
            assert_vec_close(&v, &dense_b, 1e-9);
            for (r, &x) in dense_b.iter().enumerate() {
                if x.abs() > 1e-12 {
                    assert!(pat.contains(&r), "btran pattern missed row {r}");
                }
            }
        }
    }

    #[test]
    fn dense_inputs_fall_back_to_the_dense_scan() {
        let mut rng = Rng(0xD0_17);
        let m = 16;
        let cols = random_basis(m, m * 3, &mut rng);
        let (mut lu, _) = factor_columns(m, &cols, 1e-11).unwrap();
        let v0: Vec<f64> = (0..m).map(|_| rng.next_f64() + 0.1).collect();
        let mut pattern: Vec<usize> = (0..m).collect();
        let mut v = v0.clone();
        assert!(
            !lu.ftran_sparse(&mut v, &mut pattern),
            "dense RHS must fall back"
        );
        let mut expect = v0.clone();
        lu.ftran(&mut expect);
        assert_vec_close(&v, &expect, 1e-12);
    }

    #[test]
    fn u_never_gains_entries_across_updates() {
        // The Forrest–Tomlin elimination only deletes stored U entries (all new
        // mass lands in the replacement spike column), so U's nonzero count is
        // bounded by the pre-update count plus the spike length.
        let mut rng = Rng(0xabcd);
        let m = 20;
        let cols = random_basis(m, m * 3, &mut rng);
        let (mut lu, _) = factor_columns(m, &cols, 1e-11).unwrap();
        for _ in 0..10 {
            let before: usize = (0..m).map(|k| lu.u.len(k)).sum();
            let leaving_row = rng.below(m);
            let mut spike = vec![0.0; m];
            spike[leaving_row] = 5.0;
            for _ in 0..3 {
                let r = rng.below(m);
                if spike[r] == 0.0 {
                    spike[r] = rng.next_f64() - 0.5;
                }
            }
            lu.solve_l(&mut spike);
            let spike_nnz = spike
                .iter()
                .enumerate()
                .filter(|&(r, v)| r != leaving_row && v.abs() > 1e-12)
                .count();
            lu.update(leaving_row, &spike, None).unwrap();
            let after: usize = (0..m).map(|k| lu.u.len(k)).sum();
            assert!(
                after <= before + spike_nnz,
                "U gained entries beyond the spike: {before} -> {after} (spike {spike_nnz})"
            );
        }
    }

    /// The factors of `cols` (with slot → pivot-row `assignment`) must solve
    /// `B x = b` and `Bᵀ y = c` — dense FTRAN/BTRAN checked by their
    /// residuals against the matrix, the reach-based sparse solves against
    /// the dense ones on a unit and a two-entry right-hand side — and, for
    /// small `m`, agree with the dense Gaussian-elimination oracle.
    fn check_against_oracle(
        lu: &mut LuFactors,
        cols: &[Vec<(usize, f64)>],
        assignment: &[usize],
        rng: &mut Rng,
    ) {
        let m = cols.len();
        let b: Vec<f64> = (0..m).map(|_| rng.next_f64() * 10.0 - 5.0).collect();
        let mut x = b.clone();
        lu.ftran(&mut x);
        let x_slot: Vec<f64> = assignment.iter().map(|&row| x[row]).collect();
        assert_vec_close(&basis_times(cols, &x_slot), &b, 1e-9);

        let c: Vec<f64> = (0..m).map(|_| rng.next_f64() * 4.0 - 2.0).collect();
        let mut y = c.clone();
        lu.btran(&mut y);
        for (slot, col) in cols.iter().enumerate() {
            let dot: f64 = col.iter().map(|&(r, v)| v * y[r]).sum();
            assert!(
                (dot - c[assignment[slot]]).abs() < 1e-9,
                "btran residual at slot {slot}"
            );
        }

        if m <= 64 {
            let dense = densify(cols);
            let oracle = dense_solve(&dense, &b);
            assert_vec_close(&x_slot, &oracle, 1e-9);
            let c_slot: Vec<f64> = assignment.iter().map(|&row| c[row]).collect();
            assert_vec_close(&y, &dense_solve(&transpose(&dense), &c_slot), 1e-9);
        }

        let first = rng.below(m);
        let second = (first + 1 + rng.below(m - 1)) % m;
        for rhs in [vec![first], vec![first, second]] {
            let mut v = vec![0.0; m];
            for &r in &rhs {
                v[r] = rng.next_f64() + 0.5;
            }
            let (mut dense_f, mut dense_b) = (v.clone(), v.clone());
            lu.ftran(&mut dense_f);
            lu.btran(&mut dense_b);
            let (mut sparse_f, mut pattern_f) = (v.clone(), rhs.clone());
            let f_stayed_sparse = lu.ftran_sparse(&mut sparse_f, &mut pattern_f);
            assert_vec_close(&sparse_f, &dense_f, 1e-9);
            let (mut sparse_b, mut pattern_b) = (v.clone(), rhs.clone());
            let b_stayed_sparse = lu.btran_sparse(&mut sparse_b, &mut pattern_b);
            assert_vec_close(&sparse_b, &dense_b, 1e-9);
            for (stayed_sparse, pattern, dense) in [
                (f_stayed_sparse, &pattern_f, &dense_f),
                (b_stayed_sparse, &pattern_b, &dense_b),
            ] {
                if stayed_sparse {
                    for (r, &value) in dense.iter().enumerate() {
                        if value.abs() > 1e-12 {
                            assert!(pattern.contains(&r), "pattern missed row {r}");
                        }
                    }
                }
            }
        }
    }

    /// Bases without a single row or column singleton — the all-bump shape
    /// of the dual WM programs — through factor, dense and sparse solves and
    /// a run of Forrest–Tomlin updates, each checked against the oracle.
    #[test]
    fn singleton_free_banded_bases_match_the_oracle_through_updates() {
        let mut rng = Rng(0xba4d);
        for m in [8usize, 64, 545] {
            let (mut cols, dominant) = banded_basis(m, &mut rng);
            let mut row_count = vec![0; m];
            for col in &cols {
                assert!((2..=3).contains(&col.len()));
                for &(r, _) in col {
                    row_count[r] += 1;
                }
            }
            assert!(row_count.iter().all(|&c| c >= 2), "m={m}: a row singleton");

            let (mut lu, assignment) = factor_columns(m, &cols, 1e-11)
                .unwrap_or_else(|_| panic!("m={m}: factorisation failed"));
            let mut sorted = assignment.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..m).collect::<Vec<_>>());
            check_against_oracle(&mut lu, &cols, &assignment, &mut rng);

            for step in 0..12 {
                // Replace a column by one dominated at the same row, so the
                // basis stays nonsingular; the spike goes through the sparse
                // L pass as in the solver.
                let slot = rng.below(m);
                let mut entering = vec![(dominant[slot], 3.0 + rng.next_f64())];
                for _ in 0..2 {
                    let r = rng.below(m);
                    if entering.iter().all(|&(rr, _)| rr != r) {
                        entering.push((r, rng.next_f64() - 0.5));
                    }
                }
                let mut spike = vec![0.0; m];
                let mut pattern = Vec::new();
                for &(r, v) in &entering {
                    spike[r] = v;
                    pattern.push(r);
                }
                let leaving_row = assignment[slot];
                let result = if lu.solve_l_sparse(&mut spike, &mut pattern) {
                    lu.update(leaving_row, &spike, Some(&pattern))
                } else {
                    lu.update(leaving_row, &spike, None)
                };
                result.unwrap_or_else(|_| panic!("m={m} step={step}: update declared singular"));
                cols[slot] = entering;
                check_against_oracle(&mut lu, &cols, &assignment, &mut rng);
            }
            assert_eq!(lu.updates(), 12);
        }
    }
}
