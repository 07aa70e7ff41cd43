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
//! ## Storage
//!
//! Everything is sized by the factors' nonzeros: row, column, slot and
//! operator indices are `u32`, every `(index, value)` list is two parallel
//! arrays (12 bytes an entry), and a list gets spare room only where pushes
//! land — lists are loaded with exactly their entries, except the
//! elimination's row lists and candidate slots (see [`ROW_FILL_ROOM`] and
//! [`QUEUE_SLOT_ROOM`]).  The lists live in [`Segments`] areas, which compact themselves
//! instead of growing while abandoned spans outnumber the live entries, so
//! neither the elimination's fill-in nor a run of Forrest–Tomlin updates
//! lets the garbage outgrow the factors.  [`LuFactors::footprint_bytes`] reports what
//! the factors and this thread's workspace hold, and
//! [`release_thread_workspace`] hands the workspace back once a design is
//! done with it.
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
use std::mem::size_of;
use std::ops::Range;

use crate::sparse::SparseAccumulator;

/// Sentinel for "no link" in the pivot-order list and "no column" in
/// `pivot_col_of_row`.
const NONE: u32 = u32::MAX;

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

/// Bytes a vector holds (its capacity, not its length).
fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// Bytes a binary heap holds.
fn heap_bytes<T: Ord>(heap: &BinaryHeap<T>) -> usize {
    heap.capacity() * size_of::<T>()
}

/// Push not-yet-seen L-op indices onto a min-heap (forward reach).
fn push_ops_min(
    ops: &[u32],
    heap: &mut BinaryHeap<Reverse<(u32, u32)>>,
    seen: &mut [bool],
    touched: &mut Vec<u32>,
) {
    for &k in ops {
        if !seen[k as usize] {
            seen[k as usize] = true;
            touched.push(k);
            heap.push(Reverse((k, k)));
        }
    }
}

/// Push not-yet-seen L-op indices onto a max-heap (backward reach).
fn push_ops_max(
    ops: &[u32],
    heap: &mut BinaryHeap<(u32, u32)>,
    seen: &mut [bool],
    touched: &mut Vec<u32>,
) {
    for &k in ops {
        if !seen[k as usize] {
            seen[k as usize] = true;
            touched.push(k);
            heap.push((k, k));
        }
    }
}

/// The factorisation or update met a numerically singular basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LuError {
    /// No acceptable pivot remained (structurally or numerically singular).
    Singular,
}

/// The `(row, value)` entries of one L operator or U column, borrowed from
/// the two parallel arrays of their store.
#[derive(Clone, Copy)]
struct Entries<'a> {
    rows: &'a [u32],
    values: &'a [f64],
}

impl<'a> Entries<'a> {
    fn iter(self) -> impl Iterator<Item = (usize, f64)> + 'a {
        self.rows
            .iter()
            .zip(self.values)
            .map(|(&r, &v)| (r as usize, v))
    }
}

/// One operator of the "L side" of the factorisation, applied left-to-right in
/// FTRAN, as borrowed from the flat store.  Column etas come from the
/// factorisation; row etas are appended by Forrest–Tomlin updates.
#[derive(Clone, Copy)]
enum LOp<'a> {
    /// `v[r] -= l · v[pivot_row]` for each `(r, l)` — a unit-diagonal column of L.
    Col {
        pivot_row: usize,
        entries: Entries<'a>,
    },
    /// `v[pivot_row] -= m · v[r]` for each `(r, m)` — a Forrest–Tomlin row eta.
    Row {
        pivot_row: usize,
        entries: Entries<'a>,
    },
}

/// One column of the sparse upper-triangular factor, as borrowed from the
/// flat store.  `entries` are the above-diagonal `(row, value)` pairs (rows
/// whose pivot columns come earlier in the order); the diagonal is
/// `pivot_value` at `pivot_row`.
#[derive(Clone, Copy)]
struct UCol<'a> {
    pivot_row: usize,
    pivot_value: f64,
    entries: Entries<'a>,
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
    /// The L operators in application order: operator `k` pivots on
    /// `l_pivot_row[k]` and holds the entries `l_start[k]..l_start[k + 1]`
    /// of `l_rows`/`l_values`.  The first `m` operators are the column etas
    /// of the factorisation (operator `k` belongs to elimination step `k`);
    /// every later one is a Forrest–Tomlin row eta.
    l_pivot_row: Vec<u32>,
    l_start: Vec<u32>,
    l_rows: Vec<u32>,
    l_values: Vec<f64>,
    /// Above-diagonal entries of each U column, by column id.
    u: Segments<f64>,
    u_pivot_row: Vec<u32>,
    u_pivot_value: Vec<f64>,
    order_next: Vec<u32>,
    order_prev: Vec<u32>,
    head: u32,
    tail: u32,
    ord: Vec<u32>,
    next_ord: u32,
    /// `row → ids of U columns holding an above-diagonal entry at that row`.
    row_adj: Segments,
    /// `row → id of the U column pivoted on that row`.
    pivot_col_of_row: Vec<u32>,
    /// Forrest–Tomlin updates applied since the factorisation was built.
    updates: usize,
    /// `row → indices of L-ops that read that row in the FTRAN direction`
    /// (a `Col` op reads its pivot row, a `Row` op reads its entry rows).
    /// Each list is ascending, so the sparse solves can binary-search for
    /// "operators after the one currently firing".
    ftran_readers: Segments,
    /// `row → indices of L-ops that read that row in the BTRAN direction`
    /// (transposed roles: a `Col` op reads its entry rows, a `Row` op its
    /// pivot row).  Ascending, like `ftran_readers`.
    btran_readers: Segments,
    /// Reusable scratch for [`LuFactors::update`] (one update per simplex
    /// pivot — allocating these per call would put two `O(m)` zero-fills on
    /// the hottest loop of the solver).
    scratch_acc: SparseAccumulator,
    scratch_heap: BinaryHeap<Reverse<(u32, u32)>>,
    scratch_seen: Vec<u32>,
    /// Scratch for the reach-based sparse solves: per-row nonzero marks, a
    /// per-node (L-op index or U-column id) visited flag with its undo list,
    /// and the two reach heaps (min-order for forward passes, max-order for
    /// backward passes).
    row_marked: Vec<bool>,
    node_seen: Vec<bool>,
    node_touched: Vec<u32>,
    reach_min: BinaryHeap<Reverse<(u32, u32)>>,
    reach_max: BinaryHeap<(u32, u32)>,
    /// Column slot → pivot row, from the last factorisation.
    row_of_slot: Vec<u32>,
}

/// Variable-length lists packed into one area — the "sparse vector area" of
/// glpk's `luf`.  Entry `k` of the area is `(index[k], value[k])`, two
/// parallel arrays; lists of bare indices use `V = ()`, whose array holds no
/// memory.  A list that outgrows its span moves to the end of the area with
/// doubled room, abandoning the old span.  When a move would grow the
/// buffer while abandoned entries outnumber the live ones, the area first
/// compacts in place, keeping each list's order (glpk's defragmentation),
/// so the buffer grows only for live entries: its capacity stays within a
/// small multiple of them.  Resetting the area keeps its buffers'
/// capacity, so once it has grown to a basis's working size a
/// factorisation allocates nothing.
#[derive(Default)]
struct Segments<V = ()> {
    spans: Vec<Span>,
    index: Vec<u32>,
    value: Vec<V>,
    /// Entries of the area that belong to no list's span.
    garbage: usize,
}

/// Where one list of a [`Segments`] area lives: entries `start..start + len`,
/// with room up to `start + cap`.
#[derive(Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

impl<V: Copy + Default> Segments<V> {
    /// Empty the area and size it for `lists` empty lists without room.
    fn reset(&mut self, lists: usize) {
        self.spans.clear();
        self.spans.resize(lists, Span::default());
        self.index.clear();
        self.value.clear();
        self.garbage = 0;
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
        self.index.clear();
        self.index.resize(at, 0);
        self.value.clear();
        self.value.resize(at, V::default());
        self.garbage = 0;
    }

    /// Fill list `i` — empty and without room, as after [`Segments::reset`] —
    /// with exactly `items`, at the end of the area.
    fn fill(&mut self, i: usize, items: impl IntoIterator<Item = (u32, V)>) {
        let start = self.index.len();
        for (x, v) in items {
            self.index.push(x);
            self.value.push(v);
        }
        let len = (self.index.len() - start) as u32;
        self.spans[i] = Span {
            start: start as u32,
            len,
            cap: len,
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

    /// Empty list `i` for good: its room becomes garbage.
    fn release(&mut self, i: usize) {
        self.garbage += std::mem::take(&mut self.spans[i]).cap as usize;
    }

    fn push(&mut self, i: usize, x: u32, v: V) {
        let mut span = self.spans[i];
        if span.len == span.cap {
            let cap = (2 * span.len as usize).max(4);
            // Room left at the end of the buffer costs nothing, so only a
            // move that would grow the buffer compacts first.
            if self.index.len() + cap > self.index.capacity() && 2 * self.garbage > self.index.len()
            {
                self.compact();
                span = self.spans[i];
            }
            let (from, len) = (span.start as usize, span.len as usize);
            let to = self.index.len();
            self.index.extend_from_within(from..from + len);
            self.index.resize(to + cap, 0);
            self.value.extend_from_within(from..from + len);
            self.value.resize(to + cap, V::default());
            self.garbage += span.cap as usize;
            span.start = to as u32;
            span.cap = cap as u32;
        }
        let at = (span.start + span.len) as usize;
        self.index[at] = x;
        self.value[at] = v;
        span.len += 1;
        self.spans[i] = span;
    }

    /// Move every list, in storage order, to the front of the area with
    /// exactly its entries as room, and drop the abandoned spans.
    ///
    /// Linear in the area: a bitmap marks the slot where each list with room
    /// starts, and that slot holds the list's id while the scan runs (its
    /// entry waits in the span's `cap`, which the move rewrites anyway).
    /// Walking the set bits meets the lists in storage order, and a list
    /// only ever moves down onto slots the scan has passed.
    fn compact(&mut self) {
        let mut starts = vec![0u64; self.index.len().div_ceil(64)];
        for (i, span) in self.spans.iter_mut().enumerate() {
            if span.cap > 0 {
                let at = span.start as usize;
                starts[at / 64] |= 1 << (at % 64);
                span.cap = std::mem::replace(&mut self.index[at], i as u32);
            }
        }
        let mut at = 0;
        for (word_at, &word) in starts.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let from = word_at * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let span = &mut self.spans[self.index[from] as usize];
                self.index[from] = span.cap;
                let len = span.len as usize;
                self.index.copy_within(from..from + len, at);
                self.value.copy_within(from..from + len, at);
                *span = Span {
                    start: at as u32,
                    len: len as u32,
                    cap: len as u32,
                };
                at += len;
            }
        }
        self.index.truncate(at);
        self.value.truncate(at);
        self.garbage = 0;
    }

    /// `Vec::swap_remove` on list `i`.
    fn swap_remove(&mut self, i: usize, k: usize) {
        let span = &mut self.spans[i];
        span.len -= 1;
        let (start, last) = (span.start as usize, (span.start + span.len) as usize);
        self.index[start + k] = self.index[last];
        self.value[start + k] = self.value[last];
    }

    /// Remove the first entry with index `x` from list `i`, if present
    /// (order not kept).
    fn remove_index(&mut self, i: usize, x: u32) {
        if let Some(k) = self.list(i).iter().position(|&y| y == x) {
            self.swap_remove(i, k);
        }
    }

    /// The indices of list `i`.
    fn list(&self, i: usize) -> &[u32] {
        self.get(i).0
    }

    /// The indices and values of list `i`.
    fn get(&self, i: usize) -> (&[u32], &[V]) {
        let span = self.spans[i];
        let range = span.start as usize..(span.start + span.len) as usize;
        (&self.index[range.clone()], &self.value[range])
    }

    fn list_mut(&mut self, i: usize) -> (&mut [u32], &mut [V]) {
        let span = self.spans[i];
        let range = span.start as usize..(span.start + span.len) as usize;
        (&mut self.index[range.clone()], &mut self.value[range])
    }

    fn bytes(&self) -> usize {
        vec_bytes(&self.spans) + vec_bytes(&self.index) + vec_bytes(&self.value)
    }
}

impl Segments<f64> {
    fn entries(&self, i: usize) -> Entries<'_> {
        let (rows, values) = self.get(i);
        Entries { rows, values }
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
    sizes: Vec<u32>,
    /// Per column, the counts it holds a slot at, each with its number of
    /// copies as the value.
    slots: Segments<u32>,
}

impl CandidateQueue {
    fn reset(&mut self, columns: usize) {
        self.words = columns.div_ceil(64);
        self.bits.clear();
        self.sizes.clear();
        self.slots.reset_with_caps(columns, |_| QUEUE_SLOT_ROOM);
    }

    /// Give column `j` a slot (or one more copy of it) at `count`.
    fn push(&mut self, j: usize, count: usize) {
        let (counts, copies) = self.slots.list_mut(j);
        if let Some(k) = counts.iter().position(|&c| c as usize == count) {
            copies[k] += 1;
            return;
        }
        self.slots.push(j, count as u32, 1);
        if count >= self.sizes.len() {
            self.sizes.resize(count + 1, 0);
            self.bits.resize((count + 1) * self.words, 0);
        }
        self.bits[count * self.words + j / 64] |= 1 << (j % 64);
        self.sizes[count] += 1;
    }

    /// Copies of column `j`'s slot at `count`.
    fn copies(&self, j: usize, count: usize) -> u32 {
        let (counts, copies) = self.slots.get(j);
        counts
            .iter()
            .zip(copies)
            .find(|&(&c, _)| c as usize == count)
            .map_or(0, |(_, &n)| n)
    }

    /// Drop column `j`'s slot at `count`.
    fn drop_slot(&mut self, j: usize, count: usize) {
        let k = self
            .slots
            .list(j)
            .iter()
            .position(|&c| c as usize == count)
            .expect("column holds a slot at this count");
        self.slots.swap_remove(j, k);
        self.bits[count * self.words + j / 64] &= !(1 << (j % 64));
        self.sizes[count] -= 1;
    }

    /// Drop every slot of column `j` (it was pivoted).
    fn retire(&mut self, j: usize) {
        while let Some(&count) = self.slots.list(j).last() {
            self.drop_slot(j, count as usize);
        }
        self.slots.release(j);
    }

    fn bytes(&self) -> usize {
        vec_bytes(&self.bits) + vec_bytes(&self.sizes) + self.slots.bytes()
    }
}

/// Spare room of each row list when a factorisation loads the basis.  The
/// Schur updates' fill-in lands on a handful of rows each, so exact lists
/// would move on almost every first fill: on the n = 96 L1 design's 9 361-row
/// basis one slot cuts the row-list moves per factorisation from ~4 100 to
/// ~300, and with them the compactions that moving forces.
const ROW_FILL_ROOM: usize = 1;

/// Slots each column's candidate-queue list is loaded with room for.  A
/// column holds a slot at every count it has had since a search last passed
/// it, so two slots of room moved ~4 800 lists per factorisation of that
/// basis; four move ~200.
const QUEUE_SLOT_ROOM: usize = 4;

/// The working state of [`LuFactors::factor`]: the active submatrix and the
/// pivot-search structures.  Reset, not reallocated, by every factorisation.
#[derive(Default)]
struct Elimination {
    /// Active entries of each basis column (rows not yet pivoted).
    cols: Segments<f64>,
    /// The columns that have held each row, in the order they gained it.
    /// Append-only: entries of pivoted columns, cancelled entries and
    /// duplicates are filtered where the list is read.
    rows: Segments,
    row_count: Vec<u32>,
    assigned_row: Vec<bool>,
    pivoted_col: Vec<bool>,
    /// Singleton stacks, validated lazily on pop.
    row_singletons: Vec<u32>,
    col_singletons: Vec<u32>,
    /// Bump-search candidates by count.
    queue: CandidateQueue,
    /// The pivot column's off-pivot entries — the L column before scaling —
    /// as parallel row and value arrays.
    pivot_rows: Vec<u32>,
    pivot_values: Vec<f64>,
    /// `row → 1 + its index in pivot_rows` during a Schur update, else 0.
    pivot_pos: Vec<u32>,
    /// Per pivot entry: whether the column being updated already holds it.
    pivot_hit: Vec<bool>,
    /// Eliminated entries frozen into U, `(column slot, row, value)`, in
    /// elimination order.
    frozen: Vec<(u32, u32, f64)>,
    /// Column slot → the elimination step that pivoted it.
    step_of_slot: Vec<u32>,
    /// Per-row or per-column tallies while the factors are assembled.
    counts: Vec<u32>,
}

thread_local! {
    /// The elimination workspace of every factorisation on this thread.  A
    /// design runs its relaxation, lifted and certifying solves — each with
    /// its own factors — on one thread, so all but its first factorisation
    /// find the workspace already sized; [`release_thread_workspace`] frees
    /// it when the design is done.
    static ELIMINATION: RefCell<Elimination> = RefCell::new(Elimination::default());
}

/// Free this thread's elimination workspace.  Factorisations on a thread
/// share one workspace so that a design's later solves reuse what its first
/// one grew; call this when the design is done, so the thread does not keep
/// its largest factorisation's workspace for life.
pub fn release_thread_workspace() {
    ELIMINATION.with_borrow_mut(|elim| *elim = Elimination::default());
}

impl Elimination {
    /// Load the basis: column `j` is `column(j)`.
    fn load<I>(&mut self, m: usize, column: impl Fn(usize) -> I)
    where
        I: IntoIterator<Item = (usize, f64)>,
    {
        self.cols.reset(m);
        self.queue.reset(m);
        for v in [
            &mut self.row_count,
            &mut self.pivot_pos,
            &mut self.step_of_slot,
        ] {
            v.clear();
            v.resize(m, 0);
        }
        for v in [&mut self.assigned_row, &mut self.pivoted_col] {
            v.clear();
            v.resize(m, false);
        }
        for j in 0..m {
            self.cols
                .fill(j, column(j).into_iter().map(|(r, v)| (r as u32, v)));
            for &r in self.cols.list(j) {
                self.row_count[r as usize] += 1;
            }
            self.queue.push(j, self.cols.len(j));
        }
        let row_count = &self.row_count;
        self.rows
            .reset_with_caps(m, |r| row_count[r] as usize + ROW_FILL_ROOM);
        for j in 0..m {
            for &r in self.cols.list(j) {
                self.rows.push(r as usize, j as u32, ());
            }
        }
        self.row_singletons.clear();
        self.row_singletons
            .extend((0..m as u32).filter(|&r| self.row_count[r as usize] == 1));
        self.col_singletons.clear();
        self.col_singletons
            .extend((0..m as u32).filter(|&j| self.cols.len(j as usize) == 1));
        self.frozen.clear();
    }

    /// The next pivot `(row, column slot)`: a row singleton, else a column
    /// singleton, else the Markowitz choice in the bump.
    fn choose_pivot(&mut self, abs_pivot_tol: f64) -> Option<(usize, usize)> {
        let (assigned_row, row_count) = (&self.assigned_row, &self.row_count);
        if let Some(r) = pop_valid(&mut self.row_singletons, |&r| {
            !assigned_row[r as usize] && row_count[r as usize] == 1
        }) {
            let col = self
                .rows
                .list(r as usize)
                .iter()
                .map(|&j| j as usize)
                .find(|&j| !self.pivoted_col[j] && self.cols.list(j).contains(&r))
                .expect("row_count said one active column remains");
            return Some((r as usize, col));
        }
        let (pivoted_col, cols) = (&self.pivoted_col, &self.cols);
        if let Some(j) = pop_valid(&mut self.col_singletons, |&j| {
            !pivoted_col[j as usize] && cols.len(j as usize) == 1
        }) {
            let j = j as usize;
            return Some((self.cols.list(j)[0] as usize, j));
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
        let entries = self.cols.entries(j);
        let col_max = entries
            .values
            .iter()
            .fold(0.0f64, |acc, &v| acc.max(v.abs()));
        if col_max < abs_pivot_tol {
            return best;
        }
        let acceptable = col_max * MARKOWITZ_THRESHOLD;
        for (r, v) in entries.iter() {
            if v.abs() < acceptable || v.abs() < abs_pivot_tol {
                continue;
            }
            let cost = (self.row_count[r] as usize - 1) * (c - 1);
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
    /// `pivot_rows`/`pivot_values` and eliminate `row` from every other
    /// active column holding it, freezing the eliminated entry as that
    /// column's U contribution.  Returns the pivot value.
    fn eliminate(&mut self, row: usize, col: usize, abs_pivot_tol: f64) -> Result<f64, LuError> {
        let pivot_value = self
            .cols
            .entries(col)
            .iter()
            .find(|&(r, _)| r == row)
            .map(|(_, v)| v)
            .expect("pivot entry must be active");
        if pivot_value.abs() < abs_pivot_tol {
            return Err(LuError::Singular);
        }
        self.assigned_row[row] = true;
        self.pivoted_col[col] = true;
        self.queue.retire(col);

        self.pivot_rows.clear();
        self.pivot_values.clear();
        for (r, v) in self.cols.entries(col).iter() {
            if r != row {
                self.pivot_rows.push(r as u32);
                self.pivot_values.push(v);
            }
        }
        self.cols.release(col);
        for (k, &r) in self.pivot_rows.iter().enumerate() {
            let r = r as usize;
            self.row_count[r] -= 1;
            if self.row_count[r] == 1 && !self.assigned_row[r] {
                self.row_singletons.push(r as u32);
            }
            self.pivot_pos[r] = k as u32 + 1;
        }
        if self.pivot_hit.len() < self.pivot_rows.len() {
            self.pivot_hit.resize(self.pivot_rows.len(), false);
        }
        self.row_count[row] = 0;

        // Nothing pushes onto `row`'s own list below (fill lands only on
        // the pivot column's rows), so indexing it stays valid while other
        // lists move or the area compacts.  On `Err` the next `load` resets
        // `pivot_pos`.
        for t in 0..self.rows.len(row) {
            let j = self.rows.list(row)[t] as usize;
            if j != col && !self.pivoted_col[j] {
                self.update_column(j, row, pivot_value)?;
            }
        }
        for &r in &self.pivot_rows {
            self.pivot_pos[r as usize] = 0;
        }
        self.rows.release(row);
        Ok(pivot_value)
    }

    /// Schur update of column `j`: eliminate its entry at `row`, then
    /// `a_j −= (u / pivot) · pivot_entries`.  Surviving entries keep their
    /// order, cancelled ones drop out, and fill-in is appended in pivot-entry
    /// order.
    fn update_column(&mut self, j: usize, row: usize, pivot_value: f64) -> Result<(), LuError> {
        let (rows, values) = self.cols.get(j);
        let Some(k) = rows.iter().position(|&r| r as usize == row) else {
            return Ok(()); // stale row-list entry (value cancelled earlier)
        };
        let (old_count, u) = (rows.len(), values[k]);
        self.cols.swap_remove(j, k);
        self.frozen.push((j as u32, row as u32, u));
        let factor = u / pivot_value;

        let (rows, values) = self.cols.list_mut(j);
        let values = &mut values[..rows.len()];
        let mut kept = 0;
        for read in 0..rows.len() {
            let (r, v) = (rows[read], values[read]);
            let p = self.pivot_pos[r as usize] as usize;
            if p == 0 {
                rows[kept] = r;
                values[kept] = v;
                kept += 1;
                continue;
            }
            self.pivot_hit[p - 1] = true;
            let v = v + -factor * self.pivot_values[p - 1];
            if v.abs() > DROP_TOL {
                rows[kept] = r;
                values[kept] = v;
                kept += 1;
            } else {
                // Cancellation.
                let r = r as usize;
                self.row_count[r] -= 1;
                if self.row_count[r] == 1 && !self.assigned_row[r] {
                    self.row_singletons.push(r as u32);
                }
            }
        }
        self.cols.truncate(j, kept);
        for p in 0..self.pivot_rows.len() {
            if std::mem::take(&mut self.pivot_hit[p]) {
                continue;
            }
            // Fill-in.
            let (r, cv) = (self.pivot_rows[p], self.pivot_values[p]);
            let v = -factor * cv;
            if v.abs() > DROP_TOL {
                self.cols.push(j, r, v);
                self.rows.push(r as usize, j as u32, ());
                self.row_count[r as usize] += 1;
            }
        }

        let count = self.cols.len(j);
        if count != old_count {
            self.queue.push(j, count);
        }
        match count {
            0 => Err(LuError::Singular),
            1 => {
                self.col_singletons.push(j as u32);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn bytes(&self) -> usize {
        self.cols.bytes()
            + self.rows.bytes()
            + self.queue.bytes()
            + vec_bytes(&self.row_count)
            + vec_bytes(&self.assigned_row)
            + vec_bytes(&self.pivoted_col)
            + vec_bytes(&self.row_singletons)
            + vec_bytes(&self.col_singletons)
            + vec_bytes(&self.pivot_rows)
            + vec_bytes(&self.pivot_values)
            + vec_bytes(&self.pivot_pos)
            + vec_bytes(&self.pivot_hit)
            + vec_bytes(&self.frozen)
            + vec_bytes(&self.step_of_slot)
            + vec_bytes(&self.counts)
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
        assert!(m < NONE as usize, "basis of {m} rows overflows u32 indices");
        // Per-step vectors get exactly one entry per step; `l_pivot_row` and
        // `l_start` grow past `m` only as updates append row etas.
        for v in [&mut self.l_pivot_row, &mut self.u_pivot_row] {
            v.clear();
            v.reserve_exact(m);
        }
        self.l_start.clear();
        self.l_start.reserve_exact(m + 1);
        self.l_start.push(0);
        self.l_rows.clear();
        self.l_values.clear();
        self.u_pivot_value.clear();
        self.u_pivot_value.reserve_exact(m);
        self.row_of_slot.clear();
        self.row_of_slot.resize(m, 0);
        elim.load(m, column);
        for k in 0..m {
            let (row, col) = elim.choose_pivot(abs_pivot_tol).ok_or(LuError::Singular)?;
            let pivot_value = elim.eliminate(row, col, abs_pivot_tol)?;
            elim.step_of_slot[col] = k as u32;
            self.row_of_slot[col] = row as u32;
            self.u_pivot_row.push(row as u32);
            self.u_pivot_value.push(pivot_value);
            self.l_pivot_row.push(row as u32);
            self.l_rows.extend_from_slice(&elim.pivot_rows);
            self.l_values
                .extend(elim.pivot_values.iter().map(|&v| v / pivot_value));
            self.l_start.push(self.l_rows.len() as u32);
        }

        // U column `k` is the column slot pivoted at step `k`; its
        // above-diagonal entries were frozen in elimination order.
        self.pivot_col_of_row.clear();
        self.pivot_col_of_row.resize(m, NONE);
        for (k, &row) in self.u_pivot_row.iter().enumerate() {
            self.pivot_col_of_row[row as usize] = k as u32;
        }
        let counts = &mut elim.counts;
        counts.clear();
        counts.resize(m, 0);
        for &(slot, _, _) in &elim.frozen {
            counts[elim.step_of_slot[slot as usize] as usize] += 1;
        }
        // Every list below is loaded with exactly its entries; the lists an
        // update pushes into grow by doubling when it does.
        self.u.reset_with_caps(m, |k| counts[k] as usize);
        for &(slot, row, value) in &elim.frozen {
            self.u
                .push(elim.step_of_slot[slot as usize] as usize, row, value);
        }
        counts.fill(0);
        for &(_, row, _) in &elim.frozen {
            counts[row as usize] += 1;
        }
        self.row_adj.reset_with_caps(m, |r| counts[r] as usize);
        for k in 0..m {
            for &r in self.u.list(k) {
                self.row_adj.push(r as usize, k as u32, ());
            }
        }
        counts.fill(0);
        for &r in &self.l_rows {
            counts[r as usize] += 1;
        }
        // Every row is the pivot row of exactly one column eta.
        self.ftran_readers.reset_with_caps(m, |_| 1);
        self.btran_readers
            .reset_with_caps(m, |r| counts[r] as usize);
        for k in 0..m {
            self.ftran_readers
                .push(self.l_pivot_row[k] as usize, k as u32, ());
            let (start, end) = (self.l_start[k] as usize, self.l_start[k + 1] as usize);
            for &r in &self.l_rows[start..end] {
                self.btran_readers.push(r as usize, k as u32, ());
            }
        }
        let m32 = m as u32;
        self.order_next.clear();
        self.order_next
            .extend((0..m32).map(|k| if k + 1 < m32 { k + 1 } else { NONE }));
        self.order_prev.clear();
        self.order_prev
            .extend((0..m32).map(|k| k.checked_sub(1).unwrap_or(NONE)));
        self.head = if m > 0 { 0 } else { NONE };
        self.tail = m32.checked_sub(1).unwrap_or(NONE);
        self.ord.clear();
        self.ord.extend(0..m32);
        self.next_ord = m32;
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
    pub fn row_of_slot(&self) -> &[u32] {
        &self.row_of_slot
    }

    /// Number of Forrest–Tomlin updates applied since [`LuFactors::factor`].
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Bytes held by these factors — every buffer's capacity, scratch
    /// included — plus this thread's elimination workspace.
    pub fn footprint_bytes(&self) -> usize {
        let own = vec_bytes(&self.l_pivot_row)
            + vec_bytes(&self.l_start)
            + vec_bytes(&self.l_rows)
            + vec_bytes(&self.l_values)
            + self.u.bytes()
            + vec_bytes(&self.u_pivot_row)
            + vec_bytes(&self.u_pivot_value)
            + vec_bytes(&self.order_next)
            + vec_bytes(&self.order_prev)
            + vec_bytes(&self.ord)
            + self.row_adj.bytes()
            + vec_bytes(&self.pivot_col_of_row)
            + self.ftran_readers.bytes()
            + self.btran_readers.bytes()
            + self.scratch_acc.bytes()
            + heap_bytes(&self.scratch_heap)
            + vec_bytes(&self.scratch_seen)
            + vec_bytes(&self.row_marked)
            + vec_bytes(&self.node_seen)
            + vec_bytes(&self.node_touched)
            + heap_bytes(&self.reach_min)
            + heap_bytes(&self.reach_max)
            + vec_bytes(&self.row_of_slot);
        own + ELIMINATION.with_borrow(Elimination::bytes)
    }

    /// Apply the L-side operators: `v ← (L-ops) v`.  After this, `v` is the
    /// "spike" a Forrest–Tomlin update consumes.
    pub fn solve_l(&self, v: &mut [f64]) {
        for op in self.lops(0..self.num_lops()) {
            match op {
                LOp::Col { pivot_row, entries } => {
                    let t = v[pivot_row];
                    if t != 0.0 {
                        for (r, l) in entries.iter() {
                            v[r] -= l * t;
                        }
                    }
                }
                LOp::Row { pivot_row, entries } => {
                    let mut total = v[pivot_row];
                    for (r, mult) in entries.iter() {
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
            let c = self.ucol(id as usize);
            let t = v[c.pivot_row];
            if t != 0.0 {
                let t = t / c.pivot_value;
                v[c.pivot_row] = t;
                for (r, val) in c.entries.iter() {
                    v[r] -= val * t;
                }
            }
            id = self.order_prev[id as usize];
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
            let c = self.ucol(id as usize);
            let mut total = v[c.pivot_row];
            for (r, val) in c.entries.iter() {
                total -= val * v[r];
            }
            v[c.pivot_row] = total / c.pivot_value;
            id = self.order_next[id as usize];
        }
    }

    /// BTRAN's second half: the transposed L-ops, newest first.
    fn btran_l_dense(&self, v: &mut [f64]) {
        for op in self.lops(0..self.num_lops()).rev() {
            match op {
                LOp::Col { pivot_row, entries } => {
                    let mut t = v[pivot_row];
                    for (r, l) in entries.iter() {
                        t -= l * v[r];
                    }
                    v[pivot_row] = t;
                }
                LOp::Row { pivot_row, entries } => {
                    let t = v[pivot_row];
                    if t != 0.0 {
                        for (r, mult) in entries.iter() {
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
        ensure_flags(&mut self.node_seen, self.l_pivot_row.len());
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
            let k = k as usize;
            match self.lop(k) {
                LOp::Col { pivot_row, entries } => {
                    let t = v[pivot_row];
                    if t != 0.0 {
                        for (r, l) in entries.iter() {
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
                    for (r, mult) in entries.iter() {
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
            seen[k as usize] = false;
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
        for op in self.lops(last + 1..self.num_lops()) {
            match op {
                LOp::Col { pivot_row, entries } => {
                    let t = v[pivot_row];
                    if t != 0.0 {
                        for (r, l) in entries.iter() {
                            v[r] -= l * t;
                        }
                    }
                }
                LOp::Row { pivot_row, entries } => {
                    let mut total = v[pivot_row];
                    for (r, mult) in entries.iter() {
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
            if cid != NONE && !seen[cid as usize] {
                seen[cid as usize] = true;
                touched.push(cid);
                heap.push((self.ord[cid as usize], cid));
            }
        }
        let mut abort_at = None;
        while let Some((_, cid)) = heap.pop() {
            let c = self.ucol(cid as usize);
            let t = v[c.pivot_row];
            if t != 0.0 {
                let t = t / c.pivot_value;
                v[c.pivot_row] = t;
                for (r, val) in c.entries.iter() {
                    v[r] -= val * t;
                    if !marked[r] {
                        marked[r] = true;
                        pattern.push(r);
                        let next = self.pivot_col_of_row[r];
                        if next != NONE && !seen[next as usize] {
                            seen[next as usize] = true;
                            touched.push(next);
                            heap.push((self.ord[next as usize], next));
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
            seen[cid as usize] = false;
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
        let mut id = self.order_prev[last as usize];
        while id != NONE {
            let c = self.ucol(id as usize);
            let t = v[c.pivot_row];
            if t != 0.0 {
                let t = t / c.pivot_value;
                v[c.pivot_row] = t;
                for (r, val) in c.entries.iter() {
                    v[r] -= val * t;
                }
            }
            id = self.order_prev[id as usize];
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
            if pc != NONE && !seen[pc as usize] {
                seen[pc as usize] = true;
                touched.push(pc);
                heap.push(Reverse((self.ord[pc as usize], pc)));
            }
            for &cid in self.row_adj.list(r) {
                if !seen[cid as usize] {
                    seen[cid as usize] = true;
                    touched.push(cid);
                    heap.push(Reverse((self.ord[cid as usize], cid)));
                }
            }
        }
        let mut abort_at = None;
        while let Some(Reverse((_, cid))) = heap.pop() {
            let c = self.ucol(cid as usize);
            let p = c.pivot_row;
            let mut total = v[p];
            for (r, val) in c.entries.iter() {
                total -= val * v[r];
            }
            v[p] = total / c.pivot_value;
            if !marked[p] {
                marked[p] = true;
                pattern.push(p);
                for &next in self.row_adj.list(p) {
                    if !seen[next as usize] {
                        seen[next as usize] = true;
                        touched.push(next);
                        heap.push(Reverse((self.ord[next as usize], next)));
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
            seen[cid as usize] = false;
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
            let mut id = self.order_next[last as usize];
            while id != NONE {
                let c = self.ucol(id as usize);
                let mut total = v[c.pivot_row];
                for (r, val) in c.entries.iter() {
                    total -= val * v[r];
                }
                v[c.pivot_row] = total / c.pivot_value;
                id = self.order_next[id as usize];
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
        ensure_flags(&mut seen, self.num_lops());
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
            let k = k as usize;
            match self.lop(k) {
                LOp::Col { pivot_row, entries } => {
                    let p = pivot_row;
                    let mut t = v[p];
                    for (r, l) in entries.iter() {
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
                        for (r, mult) in entries.iter() {
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
            seen[k as usize] = false;
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
                    for (r, l) in entries.iter() {
                        t -= l * v[r];
                    }
                    v[pivot_row] = t;
                }
                LOp::Row { pivot_row, entries } => {
                    let t = v[pivot_row];
                    if t != 0.0 {
                        for (r, mult) in entries.iter() {
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
                    $seen[k as usize] = false;
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
            if pc != NONE && !seen[pc as usize] {
                seen[pc as usize] = true;
                touched.push(pc);
                heap.push(Reverse((self.ord[pc as usize], pc)));
            }
            for &cid in self.row_adj.list(r) {
                if !seen[cid as usize] {
                    seen[cid as usize] = true;
                    touched.push(cid);
                    heap.push(Reverse((self.ord[cid as usize], cid)));
                }
            }
        }
        while let Some(Reverse((_, cid))) = heap.pop() {
            let c = self.ucol(cid as usize);
            let p = c.pivot_row;
            let mut total = v[p];
            for (r, val) in c.entries.iter() {
                total -= val * v[r];
            }
            v[p] = total / c.pivot_value;
            if !marked[p] {
                marked[p] = true;
                pattern.push(p);
                for &next in self.row_adj.list(p) {
                    if !seen[next as usize] {
                        seen[next as usize] = true;
                        touched.push(next);
                        heap.push(Reverse((self.ord[next as usize], next)));
                    }
                }
            }
            if pattern.len() > cap {
                abandon!(marked, seen, touched, heap, reach_min);
            }
        }
        for &cid in &touched {
            seen[cid as usize] = false;
        }
        touched.clear();
        self.reach_min = heap;

        // Pass 2: transposed L-ops, as in `btran_sparse`.
        ensure_flags(&mut seen, self.num_lops());
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
            let k = k as usize;
            match self.lop(k) {
                LOp::Col { pivot_row, entries } => {
                    let p = pivot_row;
                    let mut t = v[p];
                    for (r, l) in entries.iter() {
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
                        for (r, mult) in entries.iter() {
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
            seen[k as usize] = false;
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
        let p_id = p_id as usize;

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
            debug_assert!(self.ord[cid as usize] > self.ord[p_id]);
            let val = self
                .u_get(cid as usize, leaving_row)
                .expect("row adjacency out of sync with U column");
            acc.add(cid as usize, val);
            heap.push(Reverse((self.ord[cid as usize], cid)));
        }
        self.row_adj.truncate(leaving_row, 0);

        // The row eta is built in place at the end of the L store.
        let eta_start = self.l_rows.len();
        while let Some(Reverse((_, cid))) = heap.pop() {
            if seen.contains(&cid) {
                continue; // duplicate heap entry
            }
            seen.push(cid);
            let cid = cid as usize;
            let val = acc.get(cid);
            if let Some(k) = self
                .u
                .list(cid)
                .iter()
                .position(|&r| r as usize == leaving_row)
            {
                self.u.swap_remove(cid, k);
            }
            if val.abs() <= DROP_TOL {
                continue;
            }
            let pivot_row = self.u_pivot_row[cid];
            let mult = val / self.u_pivot_value[cid];
            self.l_rows.push(pivot_row);
            self.l_values.push(mult);
            // Fill from row `pivot_row` of U into row `leaving_row`.
            for &nid in self.row_adj.list(pivot_row as usize) {
                let u_val = self
                    .u_get(nid as usize, pivot_row as usize)
                    .expect("row adjacency out of sync with U column");
                if !acc.is_marked(nid as usize) {
                    heap.push(Reverse((self.ord[nid as usize], nid)));
                }
                acc.add(nid as usize, -mult * u_val);
            }
        }
        self.scratch_acc = acc;
        self.scratch_heap = heap;
        self.scratch_seen = seen;

        // New diagonal: the spike entry at the leaving row, transformed by the
        // row eta just built.
        let mut diag = spike[leaving_row];
        let mut spike_max = diag.abs();
        for (&r, &mult) in self.l_rows[eta_start..]
            .iter()
            .zip(&self.l_values[eta_start..])
        {
            diag -= mult * spike[r as usize];
        }

        // Replace the leaving column (reusing its id) with the spike and move
        // it to the end of the pivot order.
        for &r in self.u.list(p_id) {
            self.row_adj.remove_index(r as usize, p_id as u32);
        }
        self.u.truncate(p_id, 0);
        {
            let mut take = |r: usize, v: f64| {
                if r != leaving_row && v.abs() > DROP_TOL {
                    self.u.push(p_id, r as u32, v);
                    self.row_adj.push(r, p_id as u32, ());
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
        debug_assert_eq!(self.u_pivot_row[p_id] as usize, leaving_row);

        self.unlink(p_id);
        self.link_tail(p_id);
        self.ord[p_id] = self.next_ord;
        self.next_ord += 1;

        if self.l_rows.len() > eta_start {
            let k = self.num_lops() as u32;
            for &r in &self.l_rows[eta_start..] {
                self.ftran_readers.push(r as usize, k, ());
            }
            self.btran_readers.push(leaving_row, k, ());
            self.l_pivot_row.push(leaving_row as u32);
            self.l_start.push(self.l_rows.len() as u32);
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
        self.l_rows.len()
    }

    /// Total stored above-diagonal nonzeros of U (diagnostic).
    #[cfg(test)]
    fn u_nnz(&self) -> usize {
        (0..self.u_pivot_row.len()).map(|k| self.u.len(k)).sum()
    }

    /// Compact every list area of the factors now, however little garbage
    /// it holds; returns how many entries (abandoned or spare room) that
    /// dropped.
    #[cfg(test)]
    fn compact_lists(&mut self) -> usize {
        let held = |lu: &Self| {
            lu.u.index.len()
                + lu.row_adj.index.len()
                + lu.ftran_readers.index.len()
                + lu.btran_readers.index.len()
        };
        let before = held(self);
        self.u.compact();
        self.row_adj.compact();
        self.ftran_readers.compact();
        self.btran_readers.compact();
        before - held(self)
    }

    /// Number of L operators.
    fn num_lops(&self) -> usize {
        self.l_pivot_row.len()
    }

    /// L operator `k`.
    fn lop(&self, k: usize) -> LOp<'_> {
        let (start, end) = (self.l_start[k] as usize, self.l_start[k + 1] as usize);
        let pivot_row = self.l_pivot_row[k] as usize;
        let entries = Entries {
            rows: &self.l_rows[start..end],
            values: &self.l_values[start..end],
        };
        if k < self.u_pivot_row.len() {
            LOp::Col { pivot_row, entries }
        } else {
            LOp::Row { pivot_row, entries }
        }
    }

    /// The L operators `range`, in order.
    fn lops(&self, range: Range<usize>) -> impl DoubleEndedIterator<Item = LOp<'_>> {
        range.map(|k| self.lop(k))
    }

    /// U column `id`.
    fn ucol(&self, id: usize) -> UCol<'_> {
        UCol {
            pivot_row: self.u_pivot_row[id] as usize,
            pivot_value: self.u_pivot_value[id],
            entries: self.u.entries(id),
        }
    }

    /// Value U column `id` stores at `row`, if any (linear scan — U columns
    /// are short).
    fn u_get(&self, id: usize, row: usize) -> Option<f64> {
        self.u
            .entries(id)
            .iter()
            .find(|&(r, _)| r == row)
            .map(|(_, v)| v)
    }

    fn unlink(&mut self, id: usize) {
        let (prev, next) = (self.order_prev[id], self.order_next[id]);
        if prev != NONE {
            self.order_next[prev as usize] = next;
        } else {
            self.head = next;
        }
        if next != NONE {
            self.order_prev[next as usize] = prev;
        } else {
            self.tail = prev;
        }
    }

    fn link_tail(&mut self, id: usize) {
        self.order_prev[id] = self.tail;
        self.order_next[id] = NONE;
        if self.tail != NONE {
            self.order_next[self.tail as usize] = id as u32;
        } else {
            self.head = id as u32;
        }
        self.tail = id as u32;
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
        let assignment = lu.row_of_slot().iter().map(|&r| r as usize).collect();
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

    /// A Forrest–Tomlin update of `lu` replacing the column at a random slot
    /// by one dominated at `anchor[slot]` (the row that keeps the basis
    /// nonsingular), its spike taken through the sparse L pass as in the
    /// solver.  Returns the slot and the entering column.
    fn random_update(
        lu: &mut LuFactors,
        assignment: &[usize],
        anchor: &[usize],
        rng: &mut Rng,
    ) -> (usize, Vec<(usize, f64)>) {
        let m = assignment.len();
        let slot = rng.below(m);
        let leaving_row = assignment[slot];
        let mut entering = vec![(anchor[slot], 3.0 + rng.next_f64())];
        for _ in 0..3 {
            let r = rng.below(m);
            if entering.iter().all(|&(rr, _)| rr != r) {
                entering.push((r, rng.next_f64() - 0.5));
            }
        }
        apply_update(lu, leaving_row, &entering);
        (slot, entering)
    }

    /// Replace the column pivoted on `leaving_row` by `entering`.
    fn apply_update(lu: &mut LuFactors, leaving_row: usize, entering: &[(usize, f64)]) {
        let mut spike = vec![0.0; lu.row_of_slot().len()];
        let mut pattern = Vec::new();
        for &(r, v) in entering {
            spike[r] = v;
            pattern.push(r);
        }
        let result = if lu.solve_l_sparse(&mut spike, &mut pattern) {
            lu.update(leaving_row, &spike, Some(&pattern))
        } else {
            lu.update(leaving_row, &spike, None)
        };
        result.expect("a column dominated at its anchor row keeps the basis nonsingular");
    }

    /// Basis columns as `(row, value)` lists, by column slot.
    type Columns = Vec<Vec<(usize, f64)>>;

    /// One solve of `v` (with its pattern, for the sparse ones) on the
    /// factors; returns whether a sparse solve stayed sparse.
    type Solve = fn(&mut LuFactors, &mut Vec<f64>, &mut Vec<usize>) -> bool;

    /// A banded basis with its dominant rows, or a random one (whose
    /// assigned pivot rows serve as the anchors).
    fn basis_with_anchors(banded: bool, m: usize, rng: &mut Rng) -> (Columns, Option<Vec<usize>>) {
        if banded {
            let (cols, dominant) = banded_basis(m, rng);
            (cols, Some(dominant))
        } else {
            (random_basis(m, m * 2, rng), None)
        }
    }

    /// Bytes the factors plus the elimination workspace hold per unit of
    /// `m + nnz(L) + nnz(U)`.
    fn bytes_per_entry(lu: &LuFactors) -> f64 {
        let m = lu.row_of_slot().len();
        lu.footprint_bytes() as f64 / (m + lu.l_nnz() + lu.u_nnz()) as f64
    }

    /// Ceiling on [`bytes_per_entry`].  These bases measure 82–124 bytes:
    /// every index is `u32`, every `(index, value)` list 12 bytes an entry,
    /// and spare room and garbage stay within a small multiple of the live
    /// entries.  With `usize` indices, `(usize, f64)` pairs and four spare
    /// slots on every list, the n = 96 L1 design held about 297 bytes per
    /// entry (110 now).
    const MAX_BYTES_PER_ENTRY: f64 = 150.0;

    /// The footprint is proportional to `m + nnz(L) + nnz(U)` on random and
    /// banded bases, at the factorisation and through a run of
    /// Forrest–Tomlin updates that grows the factors.
    #[test]
    fn footprint_stays_proportional_to_the_factor_nonzeros_through_updates() {
        let mut rng = Rng(0xf007);
        for (banded, m) in [(false, 600), (true, 545), (true, 2_000)] {
            // Each basis starts from an empty workspace, so none inherits a
            // larger one's.
            release_thread_workspace();
            let (cols, dominant) = basis_with_anchors(banded, m, &mut rng);
            let (mut lu, assignment) = factor_columns(m, &cols, 1e-11).unwrap();
            let anchor = dominant.as_deref().unwrap_or(&assignment);
            let mut worst = bytes_per_entry(&lu);
            for _ in 0..60 {
                random_update(&mut lu, &assignment, anchor, &mut rng);
                worst = worst.max(bytes_per_entry(&lu));
            }
            assert!(
                worst <= MAX_BYTES_PER_ENTRY,
                "banded={banded} m={m}: {worst:.1} bytes per entry > {MAX_BYTES_PER_ENTRY}"
            );
        }
        release_thread_workspace();
        assert_eq!(
            LuFactors::default().footprint_bytes(),
            0,
            "a released workspace holds nothing"
        );
    }

    /// Compaction moves list entries, never reorders them: factors whose
    /// list areas are compacted mid-run solve bit for bit like an
    /// uncompacted copy given the same updates, dense and sparse.
    #[test]
    fn compacted_factors_solve_bit_for_bit_like_an_uncompacted_copy() {
        let mut rng = Rng(0xc0de);
        for (banded, m) in [(false, 300), (true, 545)] {
            let (cols, dominant) = basis_with_anchors(banded, m, &mut rng);
            let (mut compacted, assignment) = factor_columns(m, &cols, 1e-11).unwrap();
            let (mut plain, _) = factor_columns(m, &cols, 1e-11).unwrap();
            let anchor = dominant.as_deref().unwrap_or(&assignment);
            for step in 0..40 {
                let (slot, entering) = random_update(&mut compacted, &assignment, anchor, &mut rng);
                apply_update(&mut plain, assignment[slot], &entering);
                if step % 10 == 9 {
                    assert!(
                        compacted.compact_lists() > 0,
                        "banded={banded} step={step}: nothing to compact"
                    );
                }
                let unit = rng.below(m);
                let mut dense_rhs: Vec<f64> = (0..m).map(|_| rng.next_f64() - 0.5).collect();
                dense_rhs[unit] += 1.0;
                for rhs in [vec![unit], (0..m).collect::<Vec<_>>()] {
                    let v: Vec<f64> = (0..m)
                        .map(|r| if rhs.contains(&r) { dense_rhs[r] } else { 0.0 })
                        .collect();
                    let solves: [Solve; 4] = [
                        |lu, v, _| {
                            lu.ftran(v);
                            false
                        },
                        |lu, v, _| {
                            lu.btran(v);
                            false
                        },
                        |lu, v, p| lu.ftran_sparse(v, p),
                        |lu, v, p| lu.btran_sparse(v, p),
                    ];
                    for solve in solves {
                        let (mut a, mut pa) = (v.clone(), rhs.clone());
                        let (mut b, mut pb) = (v.clone(), rhs.clone());
                        let sparse_a = solve(&mut compacted, &mut a, &mut pa);
                        let sparse_b = solve(&mut plain, &mut b, &mut pb);
                        assert_eq!(sparse_a, sparse_b, "banded={banded} step={step}");
                        assert_eq!(pa, pb, "banded={banded} step={step}: patterns differ");
                        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&a), bits(&b), "banded={banded} step={step}");
                    }
                }
            }
        }
    }

    /// A list area under random pushes, removals and releases keeps every
    /// list equal to a plain `Vec` model, in order, and compacts itself
    /// rather than grow for garbage: its capacity stays within a small
    /// multiple of the most live entries it ever held.
    #[test]
    fn segments_compact_in_place_and_keep_each_list_in_order() {
        let mut rng = Rng(0x5e9);
        let lists = 40;
        let mut area: Segments<f64> = Segments::default();
        area.reset_with_caps(lists, |i| i % 3);
        let mut model: Vec<Vec<(u32, f64)>> = vec![Vec::new(); lists];
        let mut compactions = 0;
        let mut most_live = 0;
        for op in 0..20_000u32 {
            let i = rng.below(lists);
            match rng.below(10) {
                0 if !model[i].is_empty() => {
                    let k = rng.below(model[i].len());
                    area.swap_remove(i, k);
                    model[i].swap_remove(k);
                }
                1 if rng.below(8) == 0 => {
                    area.release(i);
                    model[i].clear();
                }
                _ => {
                    let held = area.index.len();
                    let value = rng.next_f64();
                    area.push(i, op, value);
                    model[i].push((op, value));
                    if area.index.len() < held {
                        compactions += 1;
                    }
                    most_live = most_live.max(area.index.len() - area.garbage);
                    assert!(
                        area.index.capacity() <= 8 * most_live + 8,
                        "op {op}: capacity {} for at most {most_live} live entries",
                        area.index.capacity()
                    );
                }
            }
        }
        for (i, expected) in model.iter().enumerate() {
            let (indices, values) = area.get(i);
            let got: Vec<(u32, f64)> = indices
                .iter()
                .copied()
                .zip(values.iter().copied())
                .collect();
            assert_eq!(&got, expected, "list {i}");
        }
        assert!(compactions > 0, "the area never compacted");
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
