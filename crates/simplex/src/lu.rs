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
//! (kept by the entering column's FTRAN, see below) replaces U's column for row `p`, and that column is moved to the **end** of
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
//! The dense [`LuFactors::ftran`]/[`LuFactors::btran`] pair visits **every**
//! stored operator — `O(nnz(L) + nnz(U))` per solve even when the right-hand
//! side is a unit vector and the result has a handful of nonzeros.  On the
//! mechanism LPs (thousands of rows, entering columns with ≤ `n + 2`
//! entries) that dense scan would dominate per-pivot cost.  The simplex's two
//! per-pivot solves, [`LuFactors::ftran_column`] (the entering column) and
//! [`LuFactors::btran_unit`] (the pivot row), instead compute the result's
//! nonzero **pattern** while they solve, in the style of Gilbert–Peierls
//! reachability as ordered by Suhl & Suhl: each row keeps the list of
//! operators that *read* it ([`LuFactors::ftran_readers`] /
//! [`LuFactors::btran_readers`] for the L side, `row_adj` /
//! `pivot_col_of_row` for the U side), and a reach pass ([`Reach::run`])
//! fires exactly the operators reachable from the input pattern, in
//! elimination order, via a binary heap keyed by operator index (L) or
//! pivot-order stamp (U).  Work is proportional to the reach, not to the
//! factor size.
//!
//! Each triangular pass (L, U, `Uᵀ`, `Lᵀ`) exists once as a dense scan that
//! starts from a resume point — an operator index or a U column — and each
//! step of it once (`LOp::ftran`, `UCol::btran`, …), shared by the scan and
//! the reach.  A reach pass whose input holds more than
//! `m / `[`SPARSE_RHS_FRACTION`] rows runs the scan from the start; one whose
//! result fills past that mid-solve (Suhl's switch) resumes the scan after
//! the last node it fired, since every earlier node has fired or had only
//! zero inputs.  Both routes therefore compute the same values, equal under
//! `==` (an operator the reach skips can leave a zero of the other sign).
//!
//! ## Routing and the spike
//!
//! This module owns every routing decision; the revised simplex asks for a
//! solve and receives its values and pattern in a [`PatVec`].  Each of the
//! two routed solves keeps a [`Route`], an EWMA of its results' density
//! reset by every factorisation: above [`DENSE_ROUTE_DENSITY`], the FTRAN's U
//! pass and the whole unit BTRAN take the dense scans straight away.  A
//! result that ended in a scan gets its pattern harvested from its values
//! when at most `m / `[`HARVEST_FRACTION`] rows are nonzero, and an exact
//! pattern is sorted ([`PatVec::settle`]), so every consumer walks the same
//! rows in the same order whichever route ran.
//!
//! [`LuFactors::ftran_column`] keeps its L-pass result as the Forrest–Tomlin
//! spike, in the order the L pass first touched its rows, and
//! [`LuFactors::update`] reads it there.  The order in which the spike's
//! entries land in U's new column sets the accumulation order of later
//! solves, so it is part of the pivot trajectory: sorting it, which would
//! let the L pass take the dense route too, moves pinned trajectories.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem::size_of;
use std::ops::Range;

use crate::sparse::SparseAccumulator;

/// Sentinel for "no index" in the `u32` index arrays: "no link" in the
/// pivot-order list, "no column" in `pivot_col_of_row`, and "no basis hint"
/// in [`StandardForm`](crate::standard::StandardForm).
pub(crate) const NONE: u32 = u32::MAX;

/// Entries with magnitude at or below this are treated as round-off and dropped
/// during elimination (the periodic refactorisation rebuilds from the exact
/// matrix, so dropped noise cannot accumulate).
const DROP_TOL: f64 = 1e-12;

/// Relative threshold of the Markowitz pivot test: a bump pivot must be at
/// least this fraction of the largest magnitude in its column.
const MARKOWITZ_THRESHOLD: f64 = 0.1;

/// A pass runs by reach only while its pattern holds at most
/// `m / SPARSE_RHS_FRACTION` rows: denser inputs take the dense scan from the
/// start, and a pass whose result fills past it switches to the scan
/// mid-solve (Suhl's switch), since straight-line passes beat heap-ordered
/// reach at that density.
const SPARSE_RHS_FRACTION: usize = 8;

/// Result density (EWMA of `nnz / m`, see [`Route`]) above which FTRAN's U
/// pass and the unit-row BTRAN skip the reach for the dense scan.
const DENSE_ROUTE_DENSITY: f64 = 0.2;

/// A result that ended in a dense scan keeps a pattern harvested from its
/// values when at most `m / HARVEST_FRACTION` of them are nonzero.
const HARVEST_FRACTION: usize = 4;

/// Bound on how many candidate columns one bump-pivot search examines after
/// the ascending-count stopping rule fails to close the search early.
const MARKOWITZ_CANDIDATES: usize = 8;

/// `true` when a pattern with `nnz` nonzeros out of `m` rows is worth the
/// reach.
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

/// A dense vector paired with its nonzero pattern, as the routed solves
/// ([`LuFactors::ftran_column`], [`LuFactors::btran_unit`]) produce it.
/// `dense` marks a vector whose pattern is stale — the solve ended in a
/// dense scan and the result was too full to harvest — so consumers walk the
/// whole vector instead of the pattern.
#[derive(Clone, Default)]
pub(crate) struct PatVec {
    pub(crate) values: Vec<f64>,
    pattern: Vec<usize>,
    dense: bool,
}

impl PatVec {
    pub(crate) fn new(len: usize) -> Self {
        PatVec {
            values: vec![0.0; len],
            ..PatVec::default()
        }
    }

    /// Visit the nonzeros as `(index, value)`, walking the pattern when it
    /// is valid and the whole vector otherwise.
    #[inline]
    pub(crate) fn for_each_nz(&self, mut f: impl FnMut(usize, f64)) {
        if self.dense {
            for (r, &v) in self.values.iter().enumerate() {
                if v != 0.0 {
                    f(r, v);
                }
            }
        } else {
            for &r in &self.pattern {
                let v = self.values[r];
                if v != 0.0 {
                    f(r, v);
                }
            }
        }
    }

    /// Zero the vector, using the pattern when it is trustworthy.
    fn clear(&mut self) {
        if self.dense {
            self.values.fill(0.0);
            self.dense = false;
        } else {
            for &r in &self.pattern {
                self.values[r] = 0.0;
            }
        }
        self.pattern.clear();
    }

    /// Record a nonzero on a freshly cleared vector.
    fn set(&mut self, r: usize, v: f64) {
        self.values[r] = v;
        self.pattern.push(r);
    }

    /// Share of rows the pattern covers (1 when the pattern is stale).
    fn density(&self) -> f64 {
        if self.dense {
            1.0
        } else {
            self.pattern.len() as f64 / self.values.len().max(1) as f64
        }
    }

    /// Put the pattern in ascending row order after a solve: sort it when
    /// the solve tracked it exactly, else harvest it from the values (even
    /// solves that densified mid-pass usually end mostly zero on these LPs),
    /// or mark the vector dense when too many are nonzero.  Ascending order
    /// keeps every pattern consumer (ratio-test tie-breaks, FP
    /// accumulation) bitwise identical to a walk of the whole vector, so the
    /// pivot trajectory does not depend on the route a solve took.
    fn settle(&mut self, exact: bool) {
        if exact {
            self.pattern.sort_unstable();
            return;
        }
        self.pattern.clear();
        for (r, &v) in self.values.iter().enumerate() {
            if v != 0.0 {
                self.pattern.push(r);
            }
        }
        self.dense = self.pattern.len() * HARVEST_FRACTION > self.values.len();
        if self.dense {
            self.pattern.clear();
        }
    }

    fn bytes(&self) -> usize {
        vec_bytes(&self.values) + vec_bytes(&self.pattern)
    }
}

/// The route of one kind of routed solve: an EWMA of its results' density
/// (`nnz / m`, 1 for a dense result), reset by every factorisation, since
/// fresh factors are at their sparsest.
#[derive(Clone, Copy, Default)]
struct Route(f64);

impl Route {
    /// Recent results were dense: a reach would only do bookkeeping before
    /// switching to the scan anyway.
    fn dense(self) -> bool {
        self.0 > DENSE_ROUTE_DENSITY
    }

    fn track(&mut self, result: &PatVec) {
        self.0 = 0.9 * self.0 + 0.1 * result.density();
    }
}

/// Scratch of the reach passes: the pattern's rows marked, the nodes (L
/// operators or U columns) queued with their undo list, and the queue,
/// ordered by a key that each pass derives from the node's place in the
/// elimination order (complemented for passes that run it backwards).
#[derive(Default)]
struct Reach {
    marked: Vec<bool>,
    seen: Vec<bool>,
    touched: Vec<u32>,
    queue: BinaryHeap<Reverse<(u32, u32)>>,
}

/// How a reach pass ended.
enum Stop {
    /// Every reachable node fired; the pattern lists the result's nonzeros.
    Done,
    /// The input pattern was too dense: nothing fired.
    Dense,
    /// The result filled past the threshold once this node fired.
    After(usize),
}

impl Reach {
    /// One reach pass over `nodes` nodes on an `m`-row vector whose nonzero
    /// rows `pattern` lists: `seed` queues the nodes that read a pattern
    /// row, then nodes fire in key order — `fire` applies one, marking
    /// ([`Reach::mark`]) the rows it writes and queueing their readers —
    /// until none is left or the pattern is no longer sparse.
    fn run(
        &mut self,
        pattern: &mut Vec<usize>,
        m: usize,
        nodes: usize,
        mut seed: impl FnMut(&mut Self, usize),
        mut fire: impl FnMut(&mut Self, usize, &mut Vec<usize>),
    ) -> Stop {
        if !pattern_is_sparse(pattern.len(), m) {
            return Stop::Dense;
        }
        ensure_flags(&mut self.marked, m);
        ensure_flags(&mut self.seen, nodes);
        for &r in pattern.iter() {
            self.marked[r] = true;
        }
        for &r in pattern.iter() {
            seed(self, r);
        }
        let mut stop = Stop::Done;
        while let Some(Reverse((_, node))) = self.queue.pop() {
            fire(self, node as usize, pattern);
            if !pattern_is_sparse(pattern.len(), m) {
                stop = Stop::After(node as usize);
                break;
            }
        }
        for &r in pattern.iter() {
            self.marked[r] = false;
        }
        for &node in &self.touched {
            self.seen[node as usize] = false;
        }
        self.touched.clear();
        self.queue.clear();
        stop
    }

    /// Queue `node` at `key` unless it was queued already.
    fn queue(&mut self, node: u32, key: u32) {
        if !self.seen[node as usize] {
            self.seen[node as usize] = true;
            self.touched.push(node);
            self.queue.push(Reverse((key, node)));
        }
    }

    /// Add row `r` to the pattern; `false` when it was there already.
    fn mark(&mut self, r: usize, pattern: &mut Vec<usize>) -> bool {
        let new = !self.marked[r];
        if new {
            self.marked[r] = true;
            pattern.push(r);
        }
        new
    }

    fn bytes(&self) -> usize {
        vec_bytes(&self.marked)
            + vec_bytes(&self.seen)
            + vec_bytes(&self.touched)
            + heap_bytes(&self.queue)
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

// Each step of a triangular pass is written once, here: the dense scans call
// it with a no-op `wrote`, and the reach passes with one that grows the
// pattern, called for every row the step may make nonzero.

impl LOp<'_> {
    /// Apply the operator in FTRAN's direction.
    #[inline]
    fn ftran(self, v: &mut [f64], mut wrote: impl FnMut(usize)) {
        match self {
            LOp::Col { pivot_row, entries } => {
                let t = v[pivot_row];
                if t != 0.0 {
                    for (r, l) in entries.iter() {
                        v[r] -= l * t;
                        wrote(r);
                    }
                }
            }
            LOp::Row { pivot_row, entries } => {
                let mut total = v[pivot_row];
                for (r, mult) in entries.iter() {
                    total -= mult * v[r];
                }
                v[pivot_row] = total;
                wrote(pivot_row);
            }
        }
    }

    /// Apply the transposed operator, BTRAN's direction.
    #[inline]
    fn btran(self, v: &mut [f64], mut wrote: impl FnMut(usize)) {
        match self {
            LOp::Col { pivot_row, entries } => {
                let mut t = v[pivot_row];
                for (r, l) in entries.iter() {
                    t -= l * v[r];
                }
                v[pivot_row] = t;
                wrote(pivot_row);
            }
            LOp::Row { pivot_row, entries } => {
                let t = v[pivot_row];
                if t != 0.0 {
                    for (r, mult) in entries.iter() {
                        v[r] -= mult * t;
                        wrote(r);
                    }
                }
            }
        }
    }
}

impl UCol<'_> {
    /// One step of FTRAN's backward substitution `v ← U⁻¹ v`.
    #[inline]
    fn ftran(self, v: &mut [f64], mut wrote: impl FnMut(usize)) {
        let t = v[self.pivot_row];
        if t != 0.0 {
            let t = t / self.pivot_value;
            v[self.pivot_row] = t;
            for (r, val) in self.entries.iter() {
                v[r] -= val * t;
                wrote(r);
            }
        }
    }

    /// One step of BTRAN's forward substitution `v ← U⁻ᵀ v`.
    #[inline]
    fn btran(self, v: &mut [f64], mut wrote: impl FnMut(usize)) {
        let mut total = v[self.pivot_row];
        for (r, val) in self.entries.iter() {
            total -= val * v[r];
        }
        v[self.pivot_row] = total / self.pivot_value;
        wrote(self.pivot_row);
    }
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
    /// Scratch of the reach passes.
    reach: RefCell<Reach>,
    /// The L-pass result of the last [`LuFactors::ftran_column`]: the spike
    /// the next [`LuFactors::update`] consumes, its pattern in first-touch
    /// order.
    spike: PatVec,
    /// The routes of [`LuFactors::ftran_column`]'s U pass and of
    /// [`LuFactors::btran_unit`].
    ftran_route: Route,
    btran_route: Route,
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
        if self.spike.values.len() != m {
            self.scratch_acc = SparseAccumulator::with_len(m);
            self.spike = PatVec::new(m);
        }
        self.ftran_route = Route::default();
        self.btran_route = Route::default();
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
            + self.reach.borrow().bytes()
            + self.spike.bytes()
            + vec_bytes(&self.row_of_slot);
        own + ELIMINATION.with_borrow(Elimination::bytes)
    }

    /// FTRAN: `v ← B⁻¹ v`, by the dense scans.
    pub fn ftran(&self, v: &mut [f64]) {
        self.solve_l(v, 0);
        self.solve_u(v, self.tail);
    }

    /// BTRAN: `v ← (B⁻¹)ᵀ v` (equivalently `v' B⁻¹` for a row vector), by
    /// the dense scans.
    pub fn btran(&self, v: &mut [f64]) {
        self.btran_u_dense(v, self.head);
        self.btran_l_dense(v, self.num_lops());
    }

    /// FTRAN of an entering column: `w ← B⁻¹ a` for the column `a` given
    /// as `(row, value)` entries with distinct rows, with `w`'s pattern
    /// tracked.  The partial result after the L pass, in the order that
    /// pass first touched its rows, is kept as the spike the next
    /// [`LuFactors::update`] consumes.
    ///
    /// The L pass runs by reach whenever the column is sparse; the U pass
    /// does too unless the L pass ended dense or recent results have been
    /// dense (see [`Route`]).  Either way the values are those of the dense
    /// scans, and [`PatVec::settle`] leaves the pattern in ascending order.
    pub fn ftran_column(&mut self, column: impl IntoIterator<Item = (usize, f64)>, w: &mut PatVec) {
        w.clear();
        for (r, value) in column {
            w.set(r, value);
        }
        let l_exact = self.solve_l_reach(&mut w.values, &mut w.pattern);
        self.spike.clear();
        if l_exact {
            for &r in &w.pattern {
                self.spike.set(r, w.values[r]);
            }
        } else {
            self.spike.values.copy_from_slice(&w.values);
            self.spike.dense = true;
        }
        let exact = if !l_exact || self.ftran_route.dense() {
            self.solve_u(&mut w.values, self.tail);
            false
        } else {
            self.solve_u_reach(&mut w.values, &mut w.pattern)
        };
        w.settle(exact);
        self.ftran_route.track(w);
    }

    /// BTRAN of the unit vector `e_row` into `rho` — the pivot-row transform
    /// `ρ' = e_r' B⁻¹` — by reach, or by the dense scans straight away once
    /// recent results have been dense (see [`Route`]).  The values are the
    /// same either way.
    pub fn btran_unit(&mut self, row: usize, rho: &mut PatVec) {
        rho.clear();
        rho.set(row, 1.0);
        let exact = if self.btran_route.dense() {
            self.btran(&mut rho.values);
            false
        } else {
            self.btran_reach(&mut rho.values, &mut rho.pattern)
        };
        rho.settle(exact);
        self.btran_route.track(rho);
    }

    /// FTRAN's L pass over the operators `from..`: `v ← (L-ops) v`.
    fn solve_l(&self, v: &mut [f64], from: usize) {
        for op in self.lops(from..self.num_lops()) {
            op.ftran(v, |_| {});
        }
    }

    /// FTRAN's U pass, the backward substitution `v ← U⁻¹ v`, over U column
    /// `from` and every column before it in the pivot order.
    fn solve_u(&self, v: &mut [f64], from: u32) {
        let mut id = from;
        while id != NONE {
            self.ucol(id as usize).ftran(v, |_| {});
            id = self.order_prev[id as usize];
        }
    }

    /// BTRAN's first half: `Uᵀ` is lower triangular in pivot order, so this
    /// is a forward substitution, over U column `from` and every column
    /// after it.
    fn btran_u_dense(&self, v: &mut [f64], from: u32) {
        let mut id = from;
        while id != NONE {
            self.ucol(id as usize).btran(v, |_| {});
            id = self.order_next[id as usize];
        }
    }

    /// BTRAN's second half: the transposed L operators `..end`, newest
    /// first.
    fn btran_l_dense(&self, v: &mut [f64], end: usize) {
        for op in self.lops(0..end).rev() {
            op.btran(v, |_| {});
        }
    }

    /// FTRAN's L pass by reach: fires, in index order, only the operators
    /// that read a row of the pattern, and resumes [`LuFactors::solve_l`]
    /// after the last one fired if Suhl's switch stops it.  `pattern` must
    /// list the nonzero rows of `v` exactly, without duplicates; returns
    /// whether it lists those of the result, which it does unless the pass
    /// ended in the dense scan.
    fn solve_l_reach(&self, v: &mut [f64], pattern: &mut Vec<usize>) -> bool {
        let (m, readers) = (v.len(), &self.ftran_readers);
        let stop = self.reach.borrow_mut().run(
            pattern,
            m,
            self.num_lops(),
            |reach, r| {
                for &k in readers.list(r) {
                    reach.queue(k, k);
                }
            },
            |reach, k, pattern| {
                self.lop(k).ftran(v, |r| {
                    if reach.mark(r, pattern) {
                        let later = readers.list(r);
                        for &next in &later[later.partition_point(|&x| x as usize <= k)..] {
                            reach.queue(next, next);
                        }
                    }
                })
            },
        );
        match stop {
            Stop::Done => return true,
            Stop::Dense => self.solve_l(v, 0),
            Stop::After(k) => self.solve_l(v, k + 1),
        }
        false
    }

    /// FTRAN's U pass by reach, in descending pivot order, resuming
    /// [`LuFactors::solve_u`]; the contract of
    /// [`LuFactors::solve_l_reach`].
    fn solve_u_reach(&self, v: &mut [f64], pattern: &mut Vec<usize>) -> bool {
        let m = v.len();
        let queue_pivot_col = |reach: &mut Reach, r: usize| {
            let cid = self.pivot_col_of_row[r];
            if cid != NONE {
                reach.queue(cid, !self.ord[cid as usize]);
            }
        };
        let stop = self.reach.borrow_mut().run(
            pattern,
            m,
            self.u_pivot_row.len(),
            queue_pivot_col,
            |reach, cid, pattern| {
                self.ucol(cid).ftran(v, |r| {
                    if reach.mark(r, pattern) {
                        queue_pivot_col(reach, r);
                    }
                })
            },
        );
        match stop {
            Stop::Done => return true,
            Stop::Dense => self.solve_u(v, self.tail),
            Stop::After(cid) => self.solve_u(v, self.order_prev[cid]),
        }
        false
    }

    /// BTRAN by reach while the pattern stays sparse: the `Uᵀ` pass, then
    /// the transposed L pass, each resuming its dense scan where Suhl's
    /// switch stops it; the contract of [`LuFactors::solve_l_reach`].
    fn btran_reach(&self, v: &mut [f64], pattern: &mut Vec<usize>) -> bool {
        if self.btran_u_reach(v, pattern) {
            return self.btran_l_reach(v, pattern);
        }
        self.btran_l_dense(v, self.num_lops());
        false
    }

    /// BTRAN's `Uᵀ` pass by reach, in ascending pivot order, resuming
    /// [`LuFactors::btran_u_dense`].  A column fires when its own pivot row
    /// is nonzero (the diagonal scaling) or any of its above-diagonal entry
    /// rows is (`row_adj`).
    fn btran_u_reach(&self, v: &mut [f64], pattern: &mut Vec<usize>) -> bool {
        let m = v.len();
        let queue = |reach: &mut Reach, cid: u32| reach.queue(cid, self.ord[cid as usize]);
        let stop = self.reach.borrow_mut().run(
            pattern,
            m,
            self.u_pivot_row.len(),
            |reach, r| {
                let pc = self.pivot_col_of_row[r];
                if pc != NONE {
                    queue(reach, pc);
                }
                for &cid in self.row_adj.list(r) {
                    queue(reach, cid);
                }
            },
            |reach, cid, pattern| {
                self.ucol(cid).btran(v, |p| {
                    if reach.mark(p, pattern) {
                        for &next in self.row_adj.list(p) {
                            queue(reach, next);
                        }
                    }
                })
            },
        );
        match stop {
            Stop::Done => return true,
            Stop::Dense => self.btran_u_dense(v, self.head),
            Stop::After(cid) => self.btran_u_dense(v, self.order_next[cid]),
        }
        false
    }

    /// BTRAN's transposed L pass by reach, newest operator first, resuming
    /// [`LuFactors::btran_l_dense`] before the last one fired.
    fn btran_l_reach(&self, v: &mut [f64], pattern: &mut Vec<usize>) -> bool {
        let (m, readers) = (v.len(), &self.btran_readers);
        let stop = self.reach.borrow_mut().run(
            pattern,
            m,
            self.num_lops(),
            |reach, r| {
                for &k in readers.list(r) {
                    reach.queue(k, !k);
                }
            },
            |reach, k, pattern| {
                self.lop(k).btran(v, |r| {
                    if reach.mark(r, pattern) {
                        let earlier = readers.list(r);
                        for &next in &earlier[..earlier.partition_point(|&x| (x as usize) < k)] {
                            reach.queue(next, !next);
                        }
                    }
                })
            },
        );
        match stop {
            Stop::Done => return true,
            Stop::Dense => self.btran_l_dense(v, self.num_lops()),
            Stop::After(k) => self.btran_l_dense(v, k),
        }
        false
    }

    /// Forrest–Tomlin update: the basis column pivoted on `leaving_row` is
    /// replaced by the entering column of the last
    /// [`LuFactors::ftran_column`], whose spike (that FTRAN's L-pass
    /// result) the factors kept.  Where the spike's pattern is exact, the
    /// update touches only those rows instead of scanning all of it.
    ///
    /// On `Err(Singular)` the factors are left in an inconsistent state and the
    /// caller **must** refactorise from scratch before using them again — this
    /// is the trigger of the basis-repair path.
    pub fn update(&mut self, leaving_row: usize) -> Result<(), LuError> {
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
        let spike = &self.spike.values;
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
        let (u, row_adj) = (&mut self.u, &mut self.row_adj);
        self.spike.for_each_nz(|r, v| {
            if r != leaving_row && v.abs() > DROP_TOL {
                u.push(p_id, r as u32, v);
                row_adj.push(r, p_id as u32, ());
                spike_max = spike_max.max(v.abs());
            }
        });
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

                // The entering FTRAN keeps the spike L⁻¹ a_q; then update.
                lu.ftran_column(entering.iter().copied(), &mut PatVec::new(m));
                lu.update(leaving_row)
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
        lu.ftran_column([(1, 1.0)], &mut PatVec::new(3));
        assert_eq!(lu.update(0).err(), Some(LuError::Singular));
    }

    /// FTRAN by reach while the pattern stays sparse: the entering-column
    /// route without its spike and its density routing.  Returns whether
    /// `pattern` lists the result's nonzeros.
    fn ftran_reach(lu: &LuFactors, v: &mut [f64], pattern: &mut Vec<usize>) -> bool {
        if lu.solve_l_reach(v, pattern) {
            return lu.solve_u_reach(v, pattern);
        }
        lu.solve_u(v, lu.tail);
        false
    }

    /// A pattern reported exact must cover every nonzero of the result.
    fn assert_covers(pattern: &[usize], result: &[f64], what: &str) {
        for (r, &x) in result.iter().enumerate() {
            if x != 0.0 {
                assert!(pattern.contains(&r), "{what} pattern missed row {r}");
            }
        }
    }

    #[test]
    fn sparse_solves_match_dense_solves_before_and_after_updates() {
        // The reach-based FTRAN/BTRAN must agree exactly with the dense scans
        // on arbitrary sparse right-hand sides (`==`, which equates ±0: an
        // operator the reach skips can leave a zero of the other sign), and
        // a pattern they report exact must cover every nonzero of the
        // result.  Exercised across FT updates so the incrementally
        // maintained reader lists are covered too.
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
                let (mut sparse_f, mut pat_f) = (v.clone(), pattern.clone());
                if ftran_reach(&lu, &mut sparse_f, &mut pat_f) {
                    sparse_hits += 1;
                    assert_covers(&pat_f, &dense_f, "ftran");
                }
                assert_eq!(sparse_f, dense_f, "m={m} step={step}: ftran");

                let mut dense_b = v.clone();
                lu.btran(&mut dense_b);
                let (mut sparse_b, mut pat_b) = (v.clone(), pattern.clone());
                if lu.btran_reach(&mut sparse_b, &mut pat_b) {
                    sparse_hits += 1;
                    assert_covers(&pat_b, &dense_b, "btran");
                }
                assert_eq!(sparse_b, dense_b, "m={m} step={step}: btran");

                // A Forrest–Tomlin update through the entering FTRAN.
                let leaving_row = rng.below(m);
                let mut entering = vec![(leaving_row, 3.0 + rng.next_f64())];
                for _ in 0..3 {
                    let r = rng.below(m);
                    if entering.iter().all(|&(rr, _)| rr != r) {
                        entering.push((r, rng.next_f64() - 0.5));
                    }
                }
                apply_update(&mut lu, leaving_row, &entering);
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
        let (lu, _) = factor_columns(m, &columns, 1e-11).unwrap();
        for seed_row in [0usize, 100, 511] {
            let mut v = vec![0.0; m];
            v[seed_row] = 1.0;
            let mut dense_f = v.clone();
            lu.ftran(&mut dense_f);
            let mut pat = vec![seed_row];
            assert!(ftran_reach(&lu, &mut v, &mut pat), "ftran fell back dense");
            assert_eq!(v, dense_f);
            assert_covers(&pat, &dense_f, "ftran");

            let mut v = vec![0.0; m];
            v[seed_row] = 1.0;
            let mut dense_b = v.clone();
            lu.btran(&mut dense_b);
            let mut pat = vec![seed_row];
            assert!(lu.btran_reach(&mut v, &mut pat), "btran fell back dense");
            assert_eq!(v, dense_b);
            assert_covers(&pat, &dense_b, "btran");
        }
    }

    #[test]
    fn dense_inputs_fall_back_to_the_dense_scan() {
        let mut rng = Rng(0xD0_17);
        let m = 16;
        let cols = random_basis(m, m * 3, &mut rng);
        let (lu, _) = factor_columns(m, &cols, 1e-11).unwrap();
        let v0: Vec<f64> = (0..m).map(|_| rng.next_f64() + 0.1).collect();
        let mut pattern: Vec<usize> = (0..m).collect();
        let mut v = v0.clone();
        assert!(
            !ftran_reach(&lu, &mut v, &mut pattern),
            "dense RHS must fall back"
        );
        let mut expect = v0.clone();
        lu.ftran(&mut expect);
        assert_eq!(v, expect);
    }

    /// A reach pass and the dense scan it stands for.
    type Pass = (
        fn(&LuFactors, &mut [f64], &mut Vec<usize>) -> bool,
        fn(&LuFactors, &mut [f64]),
    );

    /// Each of the four reach passes, fed a sparse vector on its own, agrees
    /// exactly (`==`) with its dense scan, whether it completes or switches
    /// to the scan mid-solve; over random and banded bases of 24 to 512 rows
    /// and Forrest–Tomlin updates, the switch fires on every pass.
    #[test]
    fn every_reach_pass_resumes_its_dense_scan_exactly_after_switching() {
        let passes: [Pass; 4] = [
            (|lu, v, p| lu.solve_l_reach(v, p), |lu, v| lu.solve_l(v, 0)),
            (
                |lu, v, p| lu.solve_u_reach(v, p),
                |lu, v| lu.solve_u(v, lu.tail),
            ),
            (
                |lu, v, p| lu.btran_u_reach(v, p),
                |lu, v| lu.btran_u_dense(v, lu.head),
            ),
            (
                |lu, v, p| lu.btran_l_reach(v, p),
                |lu, v| lu.btran_l_dense(v, lu.num_lops()),
            ),
        ];
        let mut rng = Rng(0x5_317c);
        let (mut switched, mut completed) = ([0usize; 4], [0usize; 4]);
        for (banded, m) in [
            (false, 24),
            (true, 64),
            (false, 128),
            (true, 256),
            (false, 512),
        ] {
            let (cols, dominant) = basis_with_anchors(banded, m, &mut rng);
            let (mut lu, assignment) = factor_columns(m, &cols, 1e-11).unwrap();
            let anchor = dominant.unwrap_or_else(|| assignment.clone());
            for step in 0..24 {
                if step % 4 == 3 {
                    random_update(&mut lu, &assignment, &anchor, &mut rng);
                }
                let first = rng.below(m);
                let mut rhs = vec![first];
                if step % 2 == 1 {
                    rhs.push((first + 1 + rng.below(m - 1)) % m);
                }
                assert!(pattern_is_sparse(rhs.len(), m));
                let mut v = vec![0.0; m];
                for &r in &rhs {
                    v[r] = rng.next_f64() + 0.5;
                }
                for (pass, (reach, scan)) in passes.iter().enumerate() {
                    let (mut by_reach, mut pattern) = (v.clone(), rhs.clone());
                    let exact = reach(&lu, &mut by_reach, &mut pattern);
                    let mut by_scan = v.clone();
                    scan(&lu, &mut by_scan);
                    assert_eq!(by_reach, by_scan, "pass {pass}, m={m}, step={step}");
                    if exact {
                        assert_covers(&pattern, &by_scan, "reach");
                        completed[pass] += 1;
                    } else {
                        switched[pass] += 1;
                    }
                }
            }
        }
        assert!(
            switched.iter().all(|&n| n > 0) && completed.iter().all(|&n| n > 0),
            "L, U, Uᵀ, Lᵀ passes: {switched:?} switched mid-solve, {completed:?} completed"
        );
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
            let mut entering = vec![(leaving_row, 5.0)];
            for _ in 0..3 {
                let r = rng.below(m);
                if entering.iter().all(|&(rr, _)| rr != r) {
                    entering.push((r, rng.next_f64() - 0.5));
                }
            }
            lu.ftran_column(entering, &mut PatVec::new(m));
            let spike_nnz = lu
                .spike
                .values
                .iter()
                .enumerate()
                .filter(|&(r, v)| r != leaving_row && v.abs() > 1e-12)
                .count();
            lu.update(leaving_row).unwrap();
            let after: usize = (0..m).map(|k| lu.u.len(k)).sum();
            assert!(
                after <= before + spike_nnz,
                "U gained entries beyond the spike: {before} -> {after} (spike {spike_nnz})"
            );
        }
    }

    /// The factors of `cols` (with slot → pivot-row `assignment`) must solve
    /// `B x = b` and `Bᵀ y = c` — dense FTRAN/BTRAN checked by their
    /// residuals against the matrix, the reach-based solves exactly against
    /// the dense ones on a unit and a two-entry right-hand side — and, for
    /// small `m`, agree with the dense Gaussian-elimination oracle.
    fn check_against_oracle(
        lu: &LuFactors,
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
            if ftran_reach(lu, &mut sparse_f, &mut pattern_f) {
                assert_covers(&pattern_f, &dense_f, "ftran");
            }
            assert_eq!(sparse_f, dense_f);
            let (mut sparse_b, mut pattern_b) = (v.clone(), rhs.clone());
            if lu.btran_reach(&mut sparse_b, &mut pattern_b) {
                assert_covers(&pattern_b, &dense_b, "btran");
            }
            assert_eq!(sparse_b, dense_b);
        }
    }

    /// A Forrest–Tomlin update of `lu` replacing the column at a random slot
    /// by one dominated at `anchor[slot]` (the row that keeps the basis
    /// nonsingular), its spike kept by the entering FTRAN as in the solver.
    /// Returns the slot and the entering column.
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
        let mut w = PatVec::new(lu.row_of_slot().len());
        lu.ftran_column(entering.iter().copied(), &mut w);
        lu.update(leaving_row)
            .expect("a column dominated at its anchor row keeps the basis nonsingular");
    }

    /// Basis columns as `(row, value)` lists, by column slot.
    type Columns = Vec<Vec<(usize, f64)>>;

    /// One solve of `v` (with its pattern, for the reach ones) on the
    /// factors; returns whether a reach solve kept its pattern exact.
    type Solve = fn(&LuFactors, &mut [f64], &mut Vec<usize>) -> bool;

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
                        ftran_reach,
                        |lu, v, p| lu.btran_reach(v, p),
                    ];
                    for solve in solves {
                        let (mut a, mut pa) = (v.clone(), rhs.clone());
                        let (mut b, mut pb) = (v.clone(), rhs.clone());
                        let sparse_a = solve(&compacted, &mut a, &mut pa);
                        let sparse_b = solve(&plain, &mut b, &mut pb);
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
            check_against_oracle(&lu, &cols, &assignment, &mut rng);

            for _ in 0..12 {
                // Replace a column by one dominated at the same row, so the
                // basis stays nonsingular; the spike is kept by the entering
                // FTRAN as in the solver.
                let slot = rng.below(m);
                let mut entering = vec![(dominant[slot], 3.0 + rng.next_f64())];
                for _ in 0..2 {
                    let r = rng.below(m);
                    if entering.iter().all(|&(rr, _)| rr != r) {
                        entering.push((r, rng.next_f64() - 0.5));
                    }
                }
                apply_update(&mut lu, assignment[slot], &entering);
                cols[slot] = entering;
                check_against_oracle(&lu, &cols, &assignment, &mut rng);
            }
            assert_eq!(lu.updates(), 12);
        }
    }
}
