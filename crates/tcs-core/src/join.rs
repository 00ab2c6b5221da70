//! The join kernel: Algorithm 1's INSERT join, shared by both engines.
//!
//! For an arrival `σ` matching query edge `ε` at position `(i, j)` of the
//! plan, the join has two halves:
//!
//! 1. **The chain join into `L^j_i`** (Theorem 2). Level 0 starts a fresh
//!    match; level `j ≥ 1` joins `{σ}` with `Ω(L^{j-1}_i)`:
//!    [`RowArena::chain_parents`], then [`RowArena::insert_chain`].
//! 2. **The `⋈ᵀ` propagation through `L₀`** (Algorithm 1 lines 11–24).
//!    When `σ` completes matches `Δ` of `Q^i`, they join `Ω(L₀^{i-1})` and
//!    the result extends rightwards over the complete matches of the later
//!    subqueries: [`RowArena::expand_delta`], then per `L₀` item
//!    [`RowArena::probe`] and [`RowArena::insert_pairs`], and last
//!    [`RowArena::emit`] for the complete query matches.
//!
//! Each step reads at most one expansion-list item or writes one, so the
//! concurrent engine (`tcs-concurrent`, §V Algorithm 3) runs exactly these
//! steps with one item lock held around each: S around a chain or `L₀`
//! probe, X around an insert and the expansions and reports that follow
//! it. The serial [`TimingEngine`](crate::TimingEngine) runs them back to
//! back. What stays engine-specific is everything around the steps: locks
//! and guards, the partial cap and the counters (both inside the insert
//! closures the engines pass), emission floors and telemetry.
//!
//! # Join probes
//!
//! Every join reads one hash bucket — the join key of the side already in
//! hand — and, since buckets are timestamp-ordered (`store.rs` module
//! docs), only the range of it that can pass the timing checks: the
//! `last.ts < σ.ts` prefix on chain joins, the suffix above the
//! cross-subquery constraint floor on `L₀` joins. Keys and timestamp
//! bounds are prefilters; the full compatibility check (`compat_sides`)
//! still runs on every row visited.
//! Within one `L₀` item all reads come before all inserts: they touch
//! different items, so the split changes no result and no insert order.
//!
//! # Row arena
//!
//! Merged row assignments and component-handle lists live in two flat
//! columns of a [`RowArena`]; rows are index spans, and extending a row
//! is `extend_from_within`. Every list the join needs (parents, `Δ`, rows
//! read, compatible pairs, the record being assembled) is an arena vector
//! too, so an engine — or a concurrent worker — that keeps one arena
//! allocates nothing per arrival beyond the records it emits (one shared
//! edge list each), once the capacities have grown.

use crate::binding::compat_sides;
use crate::plan::QueryPlan;
use crate::store::{Handle, JoinKey, MatchStore, ROOT};
use tcs_graph::{EdgeId, LiveEdgeView, MatchRecord, StreamEdge, VertexId};

/// The store reads the kernel makes: the keyed, timestamp-bounded probes
/// and match expansion of [`MatchStore`]. Every `MatchStore` provides them;
/// the concurrent engine's tree implements them directly, and its callers
/// hold the lock of the item each kernel step reads.
pub trait JoinReads {
    /// See [`MatchStore::for_each_sub_keyed_before`].
    fn for_each_sub_keyed_before(
        &self,
        sub: usize,
        level: usize,
        key: JoinKey,
        cutoff_ts: u64,
        f: &mut dyn FnMut(Handle, &[EdgeId]),
    );

    /// See [`MatchStore::for_each_sub_keyed_from`].
    fn for_each_sub_keyed_from(
        &self,
        sub: usize,
        level: usize,
        key: JoinKey,
        min_ts: u64,
        f: &mut dyn FnMut(Handle, &[EdgeId]),
    );

    /// See [`MatchStore::for_each_l0_keyed_from`].
    fn for_each_l0_keyed_from(
        &self,
        i: usize,
        key: JoinKey,
        min_ts: u64,
        f: &mut dyn FnMut(Handle, &[Handle]),
    );

    /// See [`MatchStore::expand_sub`].
    fn expand_sub(&self, sub: usize, handle: Handle, out: &mut Vec<EdgeId>);
}

impl<S: MatchStore> JoinReads for S {
    fn for_each_sub_keyed_before(
        &self,
        sub: usize,
        level: usize,
        key: JoinKey,
        cutoff_ts: u64,
        f: &mut dyn FnMut(Handle, &[EdgeId]),
    ) {
        MatchStore::for_each_sub_keyed_before(self, sub, level, key, cutoff_ts, f);
    }

    fn for_each_sub_keyed_from(
        &self,
        sub: usize,
        level: usize,
        key: JoinKey,
        min_ts: u64,
        f: &mut dyn FnMut(Handle, &[EdgeId]),
    ) {
        MatchStore::for_each_sub_keyed_from(self, sub, level, key, min_ts, f);
    }

    fn for_each_l0_keyed_from(
        &self,
        i: usize,
        key: JoinKey,
        min_ts: u64,
        f: &mut dyn FnMut(Handle, &[Handle]),
    ) {
        MatchStore::for_each_l0_keyed_from(self, i, key, min_ts, f);
    }

    fn expand_sub(&self, sub: usize, handle: Handle, out: &mut Vec<EdgeId>) {
        MatchStore::expand_sub(self, sub, handle, out);
    }
}

/// One row during a join: its store handle plus spans into the arena's
/// `edges` / `comps` columns.
#[derive(Clone, Copy, Debug)]
struct ArenaRow {
    h: Handle,
    e0: u32,
    e1: u32,
    c0: u32,
    c1: u32,
}

/// The join kernel's scratch, one per engine or concurrent worker (see
/// the module docs). The methods are the join's steps, in call order.
#[derive(Default)]
pub struct RowArena {
    /// Merged-assignment column, `(query edge, data edge)`, spanned by
    /// rows; during the chain join, the prefix being checked.
    edges: Vec<(usize, StreamEdge)>,
    /// Component-handle column (complete matches of subqueries `0, 1, …`
    /// in join order), spanned by rows; starts with `Δ`.
    comps: Vec<Handle>,
    /// Edge-id scratch behind every `expand_sub` read.
    ids: Vec<EdgeId>,
    /// Accepted chain-join parents, each with the key its extension is
    /// stored under.
    parents: Vec<(Handle, JoinKey)>,
    /// The subquery `Δ` completed.
    delta_sub: usize,
    /// The current rows: `Δ`, then the rows each `L₀` item gained.
    rows: Vec<ArenaRow>,
    /// The rows one keyed read returned.
    read: Vec<ArenaRow>,
    /// The compatible `(parent row, component)` pairs one probe found.
    pairs: Vec<(ArenaRow, ArenaRow)>,
    /// The emitted record being assembled, in query-edge order.
    rec: Vec<EdgeId>,
}

impl RowArena {
    /// The chain-join probe for `σ` matching query edge `qe` at `(i, j)`:
    /// collects the parents `σ` extends, each with the key the extension
    /// is stored under. At level 0 the one parent is [`ROOT`] (a fresh
    /// match). At level `j ≥ 1` only the bucket of `σ`'s endpoint bindings
    /// in `L^{j-1}_i` is read, walked up to `σ.ts` and no further, and a
    /// prefix is kept when it passes the timing and full compatibility
    /// checks. Returns whether any parent was found.
    pub fn chain_parents<J: JoinReads, L: LiveEdgeView>(
        &mut self,
        plan: &QueryPlan,
        store: &J,
        live: &L,
        qe: usize,
        sigma: &StreamEdge,
    ) -> bool {
        let (i, j) = plan.pos[qe];
        self.parents.clear();
        if j == 0 {
            // Every key-spec part of a level-0 match binds on σ itself.
            self.parents.push((ROOT, plan.stored_sub_key(i, 0, |_| (sigma.src, sigma.dst))));
            return true;
        }
        let seq = &plan.subs[i].seq;
        let sigma_side = [(qe, *sigma)];
        let Self { edges: prefix, parents, .. } = self;
        let mut visit = |h: Handle, ids: &[EdgeId]| {
            // Timing chain: the prefix's last (newest) edge must precede
            // σ. The store already cut the bucket at σ.ts (ordered-bucket
            // invariant), so this only guards against a store that
            // over-delivers.
            if resolve(live, ids[j - 1]).ts >= sigma.ts {
                return;
            }
            prefix.clear();
            prefix.extend(ids.iter().enumerate().map(|(lvl, &id)| (seq[lvl], resolve(live, id))));
            if compat_sides(&plan.query, prefix, &sigma_side) {
                let key = plan.stored_sub_key(i, j, |lvl| {
                    endpoints(if lvl == j { *sigma } else { prefix[lvl].1 })
                });
                parents.push((h, key));
            }
        };
        let probe = plan.chain_probe_key(i, j, sigma);
        store.for_each_sub_keyed_before(i, j - 1, probe, sigma.ts.0, &mut visit);
        !self.parents.is_empty()
    }

    /// Stores `σ`'s extension of every parent
    /// [`RowArena::chain_parents`] found through `insert(parent, key)`,
    /// stopping early when it returns `None` (the serial engine's partial
    /// cap). The new handles are `Δ` for [`RowArena::expand_delta`].
    /// Returns whether anything was stored.
    pub fn insert_chain(
        &mut self,
        mut insert: impl FnMut(Handle, JoinKey) -> Option<Handle>,
    ) -> bool {
        self.comps.clear();
        self.comps.extend(self.parents.iter().map_while(|&(parent, key)| insert(parent, key)));
        !self.comps.is_empty()
    }

    /// Makes `Δ` — the complete matches of subquery `i` that
    /// [`RowArena::insert_chain`] just stored — the current rows,
    /// expanding each once into the edge column (a TC-query's `Δ` is only
    /// reported, never joined, so it stays unexpanded).
    pub fn expand_delta<J: JoinReads, L: LiveEdgeView>(
        &mut self,
        plan: &QueryPlan,
        store: &J,
        live: &L,
        i: usize,
    ) {
        self.delta_sub = i;
        self.edges.clear();
        self.rows.clear();
        let Self { edges, comps, ids, rows, .. } = self;
        for (c, &h) in comps.iter().enumerate() {
            let e0 = edges.len() as u32;
            if plan.k() > 1 {
                append_assignment(plan, store, live, i, h, ids, edges);
            }
            let c0 = c as u32;
            rows.push(ArenaRow { h, e0, e1: edges.len() as u32, c0, c1: c0 + 1 });
        }
    }

    /// The `⋈ᵀ` probe into `L₀` item `level` (`1 ≤ level < k`): pairs
    /// every current row with the stored matches it joins. `Δ` of subquery
    /// `level` joins the rows of `Ω(L₀^{level-1})` (for `level == 1`,
    /// subquery 0's leaves); rows over subqueries `0..level` join the
    /// complete matches of subquery `level`. Each read is the bucket of
    /// the row's shared-vertex bindings, with everything below the
    /// cross-subquery ≺ floor never visited, before any merged
    /// assignment is built. Returns whether any pair joins.
    pub fn probe<J: JoinReads, L: LiveEdgeView>(
        &mut self,
        plan: &QueryPlan,
        store: &J,
        live: &L,
        level: usize,
    ) -> bool {
        self.pairs.clear();
        let delta = level == self.delta_sub;
        for r in 0..self.rows.len() {
            let row = self.rows[r];
            if delta {
                // Δ spans hold subquery `level`'s edges in level order.
                let at = |lvl: usize| self.edges[row.e0 as usize + lvl].1;
                let key = plan.l0_delta_key(level, |lvl| endpoints(at(lvl)));
                let min_ts = plan.l0_row_ts_floor(level, |lvl| at(lvl).ts.0);
                if level == 1 {
                    self.read_leaves(plan, store, live, 0, key, min_ts);
                } else {
                    self.read_l0_rows(plan, store, live, level - 1, key, min_ts);
                }
            } else {
                let at = |sub, lvl| span_edge(plan, &self.edges, row, sub, lvl);
                let key = plan.l0_row_key(level, |sub, lvl| endpoints(at(sub, lvl)));
                let min_ts = plan.leaf_ts_floor(level, |sub, lvl| at(sub, lvl).ts.0);
                self.read_leaves(plan, store, live, level, key, min_ts);
            }
            for x in 0..self.read.len() {
                let (a, b) = if delta { (self.read[x], row) } else { (row, self.read[x]) };
                if compat_sides(&plan.query, span(&self.edges, a), span(&self.edges, b)) {
                    self.pairs.push((a, b));
                }
            }
        }
        !self.pairs.is_empty()
    }

    /// Stores every pair [`RowArena::probe`] found as a row of `L₀` item
    /// `level` (parent row × component, completing at the arrival's
    /// timestamp `now`) through `insert(parent, comp, key)`, stopping early
    /// when it returns `None`. The stored rows become the current rows.
    /// Returns whether any row was stored.
    pub fn insert_pairs(
        &mut self,
        plan: &QueryPlan,
        level: usize,
        now: u64,
        mut insert: impl FnMut(Handle, Handle, JoinKey) -> Option<Handle>,
    ) -> bool {
        self.rows.clear();
        let Self { edges, comps, rows, pairs, .. } = self;
        for &(row, d) in pairs.iter() {
            let e0 = edges.len() as u32;
            edges.extend_from_within(row.e0 as usize..row.e1 as usize);
            edges.extend_from_within(d.e0 as usize..d.e1 as usize);
            let merged = ArenaRow { h: row.h, e0, e1: edges.len() as u32, c0: 0, c1: 0 };
            // The row's newest component's newest edge is always the
            // arrival driving this propagation.
            debug_assert_eq!(
                span(edges, merged).iter().map(|&(_, e)| e.ts.0).max(),
                Some(now),
                "an L₀ row completes at the triggering arrival's timestamp"
            );
            let key = plan.stored_l0_key(level, |sub, lvl| {
                endpoints(span_edge(plan, edges, merged, sub, lvl))
            });
            let Some(h) = insert(row.h, d.h, key) else {
                break;
            };
            let c0 = comps.len() as u32;
            comps.extend_from_within(row.c0 as usize..row.c1 as usize);
            comps.push(d.h);
            rows.push(ArenaRow { h, c0, c1: comps.len() as u32, ..merged });
        }
        !rows.is_empty()
    }

    /// Appends the current rows to `out` as complete query matches. Call
    /// it once the rows span every subquery: after the last `L₀` item's
    /// [`RowArena::insert_pairs`], or after [`RowArena::expand_delta`] for
    /// a TC-query (`k = 1`).
    pub fn emit<J: JoinReads, L: LiveEdgeView>(
        &mut self,
        plan: &QueryPlan,
        store: &J,
        live: &L,
        out: &mut Vec<MatchRecord>,
    ) {
        let Self { comps, ids, rows, rec, .. } = self;
        for r in rows.iter() {
            out.push(record_of(plan, store, live, &comps[r.c0 as usize..r.c1 as usize], ids, rec));
        }
    }

    /// Reads the `Ω(L₀^m)` rows (`m ≥ 1`) filed under `key` with
    /// completion timestamp `≥ min_ts` into `read`, expanded.
    fn read_l0_rows<J: JoinReads, L: LiveEdgeView>(
        &mut self,
        plan: &QueryPlan,
        store: &J,
        live: &L,
        m: usize,
        key: JoinKey,
        min_ts: u64,
    ) {
        self.read.clear();
        let Self { edges, comps, ids, read, .. } = self;
        store.for_each_l0_keyed_from(m, key, min_ts, &mut |h, cs| {
            let c0 = comps.len() as u32;
            comps.extend_from_slice(cs);
            read.push(ArenaRow { h, e0: 0, e1: 0, c0, c1: comps.len() as u32 });
        });
        // Expansion is a second pass: each component is one more store
        // read, made after the probe returns.
        for r in read.iter_mut() {
            r.e0 = edges.len() as u32;
            for (sub, ci) in (r.c0 as usize..r.c1 as usize).enumerate() {
                append_assignment(plan, store, live, sub, comps[ci], ids, edges);
            }
            r.e1 = edges.len() as u32;
        }
    }

    /// Reads the complete matches of subquery `sub` filed under `key` with
    /// completion timestamp `≥ min_ts` into `read`, expanded.
    fn read_leaves<J: JoinReads, L: LiveEdgeView>(
        &mut self,
        plan: &QueryPlan,
        store: &J,
        live: &L,
        sub: usize,
        key: JoinKey,
        min_ts: u64,
    ) {
        self.read.clear();
        let seq = &plan.subs[sub].seq;
        let Self { edges, comps, read, .. } = self;
        store.for_each_sub_keyed_from(sub, seq.len() - 1, key, min_ts, &mut |h, ids| {
            let e0 = edges.len() as u32;
            edges.extend(ids.iter().enumerate().map(|(lvl, &id)| (seq[lvl], resolve(live, id))));
            let c0 = comps.len() as u32;
            comps.push(h);
            read.push(ArenaRow { h, e0, e1: edges.len() as u32, c0, c1: c0 + 1 });
        });
    }
}

/// Resolves a stored edge id against a live view. Stored rows only ever
/// reference window-live edges (expiry removes them first), so a miss is
/// a window-maintenance bug on the owner's side, not a recoverable state.
#[inline]
fn resolve<L: LiveEdgeView>(live: &L, id: EdgeId) -> StreamEdge {
    *live.live_edge(id).unwrap_or_else(|| unreachable!("stored edge id resolves in the live view"))
}

#[inline]
fn endpoints(e: StreamEdge) -> (VertexId, VertexId) {
    (e.src, e.dst)
}

/// A row's slice of the edge column.
#[inline]
fn span(edges: &[(usize, StreamEdge)], row: ArenaRow) -> &[(usize, StreamEdge)] {
    &edges[row.e0 as usize..row.e1 as usize]
}

/// The data edge a row assigns to (subquery `sub`, level `lvl`).
fn span_edge(
    plan: &QueryPlan,
    edges: &[(usize, StreamEdge)],
    row: ArenaRow,
    sub: usize,
    lvl: usize,
) -> StreamEdge {
    let qe = plan.subs[sub].seq[lvl];
    span(edges, row)
        .iter()
        .find(|&&(q, _)| q == qe)
        .unwrap_or_else(|| unreachable!("row binds its own query edges"))
        .1
}

/// Expands a match handle of subquery `sub` onto the end of an edge
/// column.
fn append_assignment<J: JoinReads, L: LiveEdgeView>(
    plan: &QueryPlan,
    store: &J,
    live: &L,
    sub: usize,
    h: Handle,
    ids: &mut Vec<EdgeId>,
    out: &mut Vec<(usize, StreamEdge)>,
) {
    ids.clear();
    store.expand_sub(sub, h, ids);
    let seq = &plan.subs[sub].seq;
    out.extend(ids.iter().enumerate().map(|(lvl, &id)| (seq[lvl], resolve(live, id))));
}

/// Builds the reported record from component handles (subqueries
/// `0..comps.len()` in join order), assembled in the `edges` scratch and
/// copied once into the record's shared allocation.
fn record_of<J: JoinReads, L: LiveEdgeView>(
    plan: &QueryPlan,
    store: &J,
    live: &L,
    comps: &[Handle],
    ids: &mut Vec<EdgeId>,
    edges: &mut Vec<EdgeId>,
) -> MatchRecord {
    edges.clear();
    edges.resize(plan.query.n_edges(), EdgeId(u64::MAX));
    for (sub, &c) in comps.iter().enumerate() {
        ids.clear();
        store.expand_sub(sub, c, ids);
        for (lvl, &id) in ids.iter().enumerate() {
            edges[plan.subs[sub].seq[lvl]] = id;
        }
    }
    let rec = MatchRecord::new(edges.as_slice().into());
    debug_assert_eq!(
        rec.verify(&plan.query, |id| live.live_edge(id)),
        Ok(()),
        "engine emitted an invalid match"
    );
    rec
}
