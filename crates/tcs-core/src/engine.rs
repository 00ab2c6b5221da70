//! The streaming engine: Algorithm 1 (INSERT), Algorithm 2 (DELETE).
//!
//! For each incoming edge `σ` matching query edge `ε` at position `j` of
//! subquery `Q^i`'s timing sequence, only item `L^j_i` can gain matches
//! (Theorem 2): if `j = 0` the edge starts a new partial match, otherwise it
//! joins the matches of `L^{j-1}_i`. An edge with no compatible prefix is
//! *discardable* (Definition 5 / Lemma 1) and stored nowhere — the timing
//! order does the pruning. When `σ` completes matches of `Q^i`, those join
//! through the `L₀` list (Algorithm 1 lines 11–24) into matches of larger
//! prefixes of the decomposition, and complete query matches are reported.
//!
//! **Duplicate-free reporting.** An `L₀` row `(m₁, …, m_i)` is inserted
//! exactly when the *last-completing* of its component matches appears:
//! components completing earlier are found in `Ω(Q^x)` reads, later ones
//! trigger their own propagation. Hence every complete match of `Q` is
//! emitted exactly once, at the arrival timestamp of its newest edge.
//!
//! # The join and what stays here
//!
//! The join itself — chain probe, compatibility checks, join keys,
//! constraint floors, `L₀` extension and record building — is the kernel
//! in [`crate::join`], which the concurrent engine runs too. This module
//! keeps what is serial-engine-specific around it: the ingestion boundary,
//! the private live-edge table, [`EngineStats`], the partial cap and
//! telemetry.
//!
//! If [`TimingEngine::set_partial_cap`] is engaged and the cap saturates
//! mid-join, which (equally incomplete) subset of partial matches is kept
//! depends on bucket order — the cap is a benchmark-harness safety valve,
//! not part of the semantics.
//!
//! # Batch-at-a-time ingestion
//!
//! [`TimingEngine::insert_batch_at`] applies a routed sub-batch against a
//! caller-owned [`LiveEdgeView`] (the multi-query front-end's live-edge
//! table). It is one admission loop — admit an arrival, run the same
//! insert body [`TimingEngine::try_insert`] runs, stop at the first
//! rejection — so the match stream, [`EngineStats`] and [`IngestStats`]
//! are byte-identical to folding the per-edge path over the same edges
//! (the reference the batch tests compare against). Per arrival the
//! body allocates nothing beyond the records it emits:
//!
//! * **Borrowed candidates.** The signature → candidate query edges
//!   lookup is one [`IdMap`] probe into the plan, and the body reads the
//!   plan's own slice — nothing is copied or cached per call.
//! * **One output vector.** Matches are appended to the caller's
//!   `&mut Vec<MatchRecord>`, which a front-end keeps as scratch across
//!   runs and batches; a rejection mid-batch leaves the matches emitted
//!   before it in that vector.
//! * **One row arena.** The engine keeps one join-kernel
//!   [`RowArena`]: merged assignments, parents, pairs and rows are spans
//!   and vectors whose capacity is reused across the arrivals of a batch
//!   and across batches.

use crate::ingest::{IngestError, IngestStats, OrderPolicy};
use crate::join::RowArena;
use crate::plan::QueryPlan;
use crate::store::{AuditViolation, Handle, MatchStore, StoreLayout};
use std::sync::Arc;
use std::time::Instant;
use tcs_graph::window::WindowEvent;
use tcs_graph::{EdgeId, IdMap, LiveEdgeView, MatchRecord, StreamEdge, Timestamp};
use tcs_telemetry::{LatencyHistogram, Recorder};

/// Counters the experiments report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Edges processed (arrivals).
    pub edges_processed: u64,
    /// Arrivals that matched no query edge or joined nothing — filtered as
    /// discardable.
    pub edges_discarded: u64,
    /// Complete matches reported.
    pub matches_emitted: u64,
    /// Partial matches inserted into expansion lists.
    pub partials_inserted: u64,
    /// Partial matches removed by expiry.
    pub partials_deleted: u64,
    /// Join operations performed (cost-model validation, Theorem 7).
    pub join_ops: u64,
}

impl EngineStats {
    /// Inserted minus deleted partial matches. A `saturating_sub` here
    /// would mask accounting drift; underflow is a bug and debug builds
    /// assert it away.
    #[inline]
    fn live_partials(&self) -> u64 {
        debug_assert!(
            self.partials_deleted <= self.partials_inserted,
            "partial-match accounting drifted: {} deleted > {} inserted",
            self.partials_deleted,
            self.partials_inserted
        );
        self.partials_inserted - self.partials_deleted
    }
}

/// One store insert under the partial cap: counts and runs `insert`, or —
/// once the live partial matches fill `cap` — latches `saturated` and
/// returns `None`.
fn capped(
    stats: &mut EngineStats,
    cap: u64,
    saturated: &mut bool,
    insert: impl FnOnce() -> Handle,
) -> Option<Handle> {
    if stats.live_partials() >= cap {
        *saturated = true;
        return None;
    }
    stats.partials_inserted += 1;
    Some(insert())
}

/// The serial streaming engine, generic over the partial-match store.
pub struct TimingEngine<S: MatchStore> {
    plan: QueryPlan,
    store: S,
    /// Private live window edges (no adjacency — just id → record so
    /// stored edge ids can be resolved during joins). Only the standalone
    /// [`TimingEngine::insert`]/[`TimingEngine::expire`] path maintains
    /// it; [`TimingEngine::insert_batch_at`] resolves through a caller-owned
    /// [`LiveEdgeView`] instead and leaves this map empty.
    live: IdMap<EdgeId, StreamEdge>,
    stats: EngineStats,
    /// Benchmark safety valve: stop inserting partial matches beyond this
    /// bound (default unbounded — semantics are exact unless a harness
    /// explicitly opts in; see [`TimingEngine::set_partial_cap`]).
    partial_cap: u64,
    saturated: bool,
    /// Newest accepted arrival timestamp — the store-order invariant's
    /// release-build guard. One comparison per arrival at the boundary;
    /// the hot join/expiry loops stay check-free.
    watermark: Option<u64>,
    /// What an out-of-order arrival becomes (see [`OrderPolicy`]).
    order_policy: OrderPolicy,
    /// Boundary counters, kept OUTSIDE [`EngineStats`] so engine
    /// counters stay byte-identical to an oracle fed the sanitized
    /// stream.
    ingest: IngestStats,
    /// The join kernel's scratch (reused across arrivals).
    arena: RowArena,
    /// The telemetry seam: `None` (default) until a harness arms a
    /// recorder — see [`TimingEngine::set_recorder`]. Recording never
    /// touches [`EngineStats`] or the match stream.
    tel: Option<TelemetrySeam>,
}

/// The armed telemetry sink plus engine-local sampling state: a cached
/// detection-latency histogram handle (scope 0 — a bare engine has no
/// query id, so it records under the reserved standalone scope) and the
/// tick counter deciding which arrivals get a wall-clock stamp (the
/// `tcs_telemetry::recorder` sampling contract — only sampled arrivals
/// pay for `Instant::now`).
struct TelemetrySeam {
    rec: Arc<Recorder>,
    det: Arc<LatencyHistogram>,
    tick: u32,
}

impl<S: MatchStore> TimingEngine<S> {
    /// Creates an engine from a compiled plan.
    pub fn new(plan: QueryPlan) -> Self {
        let store = S::new(StoreLayout { sub_lens: plan.sub_lens() });
        TimingEngine {
            plan,
            store,
            live: IdMap::default(),
            stats: EngineStats::default(),
            partial_cap: u64::MAX,
            saturated: false,
            watermark: None,
            order_policy: OrderPolicy::default(),
            ingest: IngestStats::default(),
            arena: RowArena::default(),
            tel: None,
        }
    }

    /// Arms the telemetry seam: from now on per-edge processing latency,
    /// detection latency (scope 0 — a standalone engine has no query
    /// id) and endpoint hot-key traffic flow into `rec` under its
    /// sampling contract. Telemetry never perturbs [`EngineStats`] or the
    /// match stream (the telemetry-equivalence suite pins this
    /// byte-for-byte). Engines embedded in the
    /// multi-query stack are instrumented by their front-end instead —
    /// arming both layers would double-count.
    pub fn set_recorder(&mut self, rec: Arc<Recorder>) {
        let det = rec.detection_hist(0);
        self.tel = Some(TelemetrySeam { rec, det, tick: 0 });
    }

    /// Disarms the telemetry seam; the recorder keeps what it has.
    pub fn clear_recorder(&mut self) {
        self.tel = None;
    }

    /// Caps the number of *live* partial matches. Beyond the cap the engine
    /// stops creating partial matches (results become incomplete and
    /// [`TimingEngine::saturated`] turns true). This is a benchmark-harness
    /// safety valve: output-explosive queries can hold tens of millions of
    /// live partial matches even in the exact engines (and SJ-tree on
    /// hub-heavy data can exhaust memory in a single join). It is off by
    /// default, and a capped run is incomplete, not exact.
    pub fn set_partial_cap(&mut self, cap: u64) {
        self.partial_cap = cap;
    }

    /// Whether the partial cap was ever hit (results incomplete since then).
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// Number of live partial matches: inserts minus deletes, which the
    /// balanced counters keep equal to the stores' actual row count
    /// ([`TimingEngine::store_rows`], asserted by the conformance tests).
    #[inline]
    pub fn live_partials(&self) -> u64 {
        self.stats.live_partials()
    }

    /// One sweep over every documented invariant: the store's own
    /// [`StoreAudit`](crate::store::StoreAudit) pass (ordered buckets,
    /// index coherence, no dangling references, allocator accounting)
    /// plus the
    /// engine-level cross-check that the balanced insert/delete counters
    /// equal the store's actual row count
    /// ([`TimingEngine::live_partials`] == [`TimingEngine::store_rows`]).
    ///
    /// Callable from tests at any operation boundary; the `debug-audit`
    /// feature additionally runs it (panicking on violations) at the end
    /// of every expiry cascade and every accepted batch.
    pub fn audit(&self) -> Vec<AuditViolation> {
        let mut out = self.store.audit();
        let (live, rows) = (self.live_partials(), self.store_rows());
        if live != rows {
            out.push(AuditViolation {
                store: "engine",
                invariant: "live-partials-accounting",
                detail: format!("live_partials {live} != store_rows {rows}"),
            });
        }
        out
    }

    /// Panics with a numbered violation list if [`TimingEngine::audit`]
    /// finds anything.
    pub fn assert_clean(&self) {
        let found = self.audit();
        assert!(
            found.is_empty(),
            "engine audit found {} violation(s):{}",
            found.len(),
            crate::store::format_violations(&found)
        );
    }

    /// The `debug-audit` hook: a full sweep at a named boundary.
    #[cfg(feature = "debug-audit")]
    fn debug_audit(&self, boundary: &str) {
        let found = self.audit();
        assert!(
            found.is_empty(),
            "debug-audit at {boundary}: {} violation(s):{}",
            found.len(),
            crate::store::format_violations(&found)
        );
    }

    /// Rows actually held by the store, over every subquery item and `L₀`
    /// item — the ground truth [`TimingEngine::live_partials`] must equal.
    pub fn store_rows(&self) -> u64 {
        let mut n = 0u64;
        for (i, s) in self.plan.subs.iter().enumerate() {
            for l in 0..s.len() {
                n += self.store.len_sub(i, l) as u64;
            }
        }
        for i in 1..self.plan.k() {
            n += self.store.len_l0(i) as u64;
        }
        n
    }

    /// The compiled plan.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The newest admitted arrival timestamp, if any arrival was admitted
    /// yet — the release-build guard behind the ordered-bucket invariant.
    pub fn watermark(&self) -> Option<u64> {
        self.watermark
    }

    /// The active out-of-order arrival policy (default
    /// [`OrderPolicy::Reject`]).
    pub fn order_policy(&self) -> OrderPolicy {
        self.order_policy
    }

    /// Replaces the out-of-order arrival policy (effective from the next
    /// arrival).
    pub fn set_order_policy(&mut self, policy: OrderPolicy) {
        self.order_policy = policy;
    }

    /// Boundary counters: admissions, clamps, drops and rejections. Kept
    /// outside [`EngineStats`] on purpose — engine counters stay
    /// byte-identical to an oracle engine fed the sanitized stream.
    pub fn ingest_stats(&self) -> IngestStats {
        self.ingest
    }

    /// Number of live complete matches of the whole query.
    pub fn live_match_count(&self) -> usize {
        let k = self.plan.k();
        if k == 1 {
            self.store.len_sub(0, self.plan.subs[0].len() - 1)
        } else {
            self.store.len_l0(k - 1)
        }
    }

    /// Bytes held by the partial-match store plus the private live-edge
    /// table. Engines driven through [`TimingEngine::insert_batch_at`] keep the
    /// private table empty, so this equals
    /// [`TimingEngine::store_space_bytes`] there — the shared window is
    /// accounted once by its owner, not once per query.
    pub fn space_bytes(&self) -> usize {
        self.store.space_bytes()
            + self.live.len() * (std::mem::size_of::<EdgeId>() + std::mem::size_of::<StreamEdge>())
    }

    /// Bytes held by the partial-match store alone (no live-edge table) —
    /// the per-query share of a multi-query deployment's footprint.
    pub fn store_space_bytes(&self) -> usize {
        self.store.space_bytes()
    }

    /// Applies one window event: expiries first (the edges left the window
    /// before the arrival's timestamp), then the insertion. Returns the new
    /// complete matches.
    pub fn advance(&mut self, ev: &WindowEvent) -> Vec<MatchRecord> {
        for e in &ev.expired {
            self.expire(e);
        }
        self.insert(ev.arrival)
    }

    /// Algorithm 2: removes every partial match containing the expired
    /// edge, and drops it from the engine's private live-edge table.
    ///
    /// Engines running against an externally owned window (the multi-query
    /// subsystem) use [`TimingEngine::expire_partials`] instead and leave
    /// window maintenance to the owner.
    pub fn expire(&mut self, e: &StreamEdge) {
        self.expire_partials(e);
        self.live.remove(&e.id);
    }

    /// The store half of Algorithm 2: removes every partial match
    /// containing the expired edge without touching any live-edge table.
    /// The caller owns window maintenance — either
    /// [`TimingEngine::expire`] (private map) or a shared live-edge table
    /// that several engines read through [`LiveEdgeView`].
    pub fn expire_partials(&mut self, e: &StreamEdge) {
        let positions = self.plan.positions(e.signature());
        if !positions.is_empty() {
            let n = self.store.expire_edge(e.id, e.ts.0, positions);
            self.stats.partials_deleted += n as u64;
            // The cascade can only remove rows the insert path counted:
            // the counters stay balanced through every expiry.
            debug_assert!(
                self.stats.partials_deleted <= self.stats.partials_inserted,
                "expiry cascade removed more partial matches than were ever inserted"
            );
        }
        // End-of-cascade boundary: the store just finished its bucket
        // maintenance, so every invariant must hold.
        #[cfg(feature = "debug-audit")]
        self.debug_audit("end-of-cascade");
    }

    /// The ingestion boundary: validates one arrival against the
    /// watermark and the self-loop label invariant, applying the active
    /// [`OrderPolicy`]. `Ok(true)` admits the (possibly clamped) edge for
    /// processing, `Ok(false)` drops it silently per policy, `Err`
    /// rejects it leaving the engine untouched.
    ///
    /// This is the *only* release-build check on the arrival path — one
    /// timestamp comparison; the hot join and expiry loops stay
    /// check-free, relying on the ordered-bucket invariant the boundary
    /// now guarantees. Duplicate-id detection deliberately does NOT live
    /// here: it needs a live-id window, which the stream owner's
    /// [`IngestGate`](crate::ingest::IngestGate) maintains once per
    /// stream, not once per engine.
    fn admit(&mut self, sigma: &mut StreamEdge) -> Result<bool, IngestError> {
        // A self-loop whose endpoint labels disagree denotes no vertex:
        // never admissible under any policy.
        if sigma.src == sigma.dst && sigma.src_label != sigma.dst_label {
            self.ingest.rejected_dangling += 1;
            return Err(IngestError::DanglingEndpoint { id: sigma.id, vertex: sigma.src });
        }
        if let Some(w) = self.watermark {
            if sigma.ts.0 < w {
                match self.order_policy {
                    OrderPolicy::Reject => {
                        self.ingest.rejected_out_of_order += 1;
                        return Err(IngestError::OutOfOrder { ts: sigma.ts.0, watermark: w });
                    }
                    OrderPolicy::ClampToWatermark => {
                        sigma.ts = Timestamp(w);
                        self.ingest.clamped += 1;
                    }
                    OrderPolicy::DropSilently => {
                        self.ingest.dropped_out_of_order += 1;
                        return Ok(false);
                    }
                }
            }
        }
        self.watermark = Some(self.watermark.map_or(sigma.ts.0, |w| w.max(sigma.ts.0)));
        self.ingest.admitted += 1;
        Ok(true)
    }

    /// Algorithm 1: processes an arrival; returns new complete matches.
    ///
    /// Standalone form: maintains the engine's private live-edge table and
    /// shares its body with [`TimingEngine::insert_batch_at`]. Edges matching no
    /// query edge are discarded without ever entering the table. Panics on
    /// invalid input ([`IngestError`]) — callers that must survive a
    /// misbehaving source use [`TimingEngine::try_insert`] instead.
    pub fn insert(&mut self, sigma: StreamEdge) -> Vec<MatchRecord> {
        self.try_insert(sigma)
            .unwrap_or_else(|err| panic!("TimingEngine::insert fed invalid input: {err}"))
    }

    /// [`TimingEngine::insert`] with the boundary check surfaced: invalid
    /// arrivals become a typed [`IngestError`] (engine untouched) instead
    /// of a panic; out-of-order arrivals follow the active
    /// [`OrderPolicy`].
    pub fn try_insert(&mut self, mut sigma: StreamEdge) -> Result<Vec<MatchRecord>, IngestError> {
        let mut out = Vec::new();
        if !self.admit(&mut sigma)? {
            return Ok(out);
        }
        if !self.plan.candidates(sigma.signature()).is_empty() {
            self.live.insert(sigma.id, sigma);
        }
        // The map is moved out for the call so the join path can borrow
        // the view and `self` mutably at once; `mem::take` of a HashMap
        // is a pointer swap, not a rehash.
        let live = std::mem::take(&mut self.live);
        self.insert_admitted(sigma, &live, &mut out);
        self.live = live;
        Ok(out)
    }

    /// Algorithm 1 against an externally owned window: applies a routed
    /// sub-batch, resolving every stored edge id through `live`, and
    /// appends the complete matches to the caller's `out`. One loop —
    /// admit the arrival, run the insert body — that stops at the first
    /// rejected arrival: matches emitted before the failure are already
    /// in `out` (and live in the store), and the error names the
    /// offending edge, so resuming past it is well-defined. Streams,
    /// stats and store contents are byte-identical to folding
    /// [`TimingEngine::try_insert`] over the batch.
    ///
    /// The caller must have admitted every batch edge to `live` already
    /// (the multi-query front-end admits each arrival to its live-edge
    /// table once, then routes it to every engine whose plan can react)
    /// and guarantees stream-wide id uniqueness (its
    /// [`IngestGate`](crate::ingest::IngestGate) enforces both). The
    /// engine's private table is neither read nor written on this path.
    ///
    /// The boundary check runs here too: a front-end that pre-sanitizes
    /// its stream never trips it — routed substreams of a nondecreasing
    /// stream are nondecreasing — so the check is a pure guard against
    /// owner bugs.
    pub fn insert_batch_at<L: LiveEdgeView>(
        &mut self,
        batch: &[StreamEdge],
        live: &L,
        out: &mut Vec<MatchRecord>,
    ) -> Result<(), IngestError> {
        for mut sigma in batch.iter().copied() {
            if self.admit(&mut sigma)? {
                self.insert_admitted(sigma, live, out);
            }
        }
        // End-of-batch boundary sweep (a rejected batch returned above).
        #[cfg(feature = "debug-audit")]
        self.debug_audit("end-of-batch");
        Ok(())
    }

    /// The shared insert body of both entry points: runs the join for
    /// one admitted arrival and appends its complete matches to `out`,
    /// maintaining counters and telemetry.
    fn insert_admitted<L: LiveEdgeView>(
        &mut self,
        sigma: StreamEdge,
        live: &L,
        out: &mut Vec<MatchRecord>,
    ) {
        // Telemetry: stamp only sampled arrivals — `Instant::now` is the
        // one per-edge cost worth rationing (sampling contract in the
        // `tcs_telemetry::recorder` docs).
        let tel_t0 = match &mut self.tel {
            Some(t) => {
                t.tick += 1;
                if t.tick >= t.rec.sample_every() {
                    t.tick = 0;
                    Some(Instant::now())
                } else {
                    None
                }
            }
            None => None,
        };
        self.stats.edges_processed += 1;
        let start = out.len();
        let Some(stored) = self.join(&sigma, live, out) else {
            self.stats.edges_discarded += 1;
            return;
        };
        if !stored {
            self.stats.edges_discarded += 1;
        }
        let emitted = &out[start..];
        self.stats.matches_emitted += emitted.len() as u64;
        if let (Some(t0), Some(tel)) = (tel_t0, &self.tel) {
            let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            tel.rec.record_edge_ns(ns, 1);
            // Detection latency = emission minus completing-edge arrival;
            // on this serial path both bound the same elapsed interval.
            tel.det.record_n(ns, emitted.len() as u64);
            tel.rec.record_key(u64::from(sigma.src.0));
            if sigma.dst != sigma.src {
                tel.rec.record_key(u64::from(sigma.dst.0));
            }
        }
    }

    /// Algorithm 1's join for one admitted arrival, through the kernel
    /// ([`crate::join`]): per candidate query edge of σ's shape — read
    /// from the plan in place — the chain join into `L^j_i` and, when σ
    /// completes matches of `Q^i`, the `⋈ᵀ` propagation through `L₀`.
    /// Complete query matches are appended to `out`. Returns `None` when
    /// the plan has no query edge of σ's signature, otherwise whether
    /// anything was stored (if not, σ was discardable).
    fn join<L: LiveEdgeView>(
        &mut self,
        sigma: &StreamEdge,
        live: &L,
        out: &mut Vec<MatchRecord>,
    ) -> Option<bool> {
        let Self { plan, store, stats, arena, partial_cap, saturated, .. } = self;
        let candidates = plan.candidates(sigma.signature());
        if candidates.is_empty() {
            return None;
        }
        let cap = *partial_cap;
        let now = sigma.ts.0;
        let mut stored_any = false;
        for &qe in candidates {
            if !plan.shape_matches(qe, sigma) {
                continue;
            }
            let (i, j) = plan.pos[qe];
            if j > 0 {
                stats.join_ops += 1;
            }
            arena.chain_parents(plan, &*store, live, qe, sigma);
            let stored = arena.insert_chain(|parent, key| {
                capped(stats, cap, saturated, || store.insert_sub(i, j, parent, sigma.id, now, key))
            });
            stored_any |= stored;
            if !stored || j + 1 < plan.subs[i].len() {
                continue;
            }
            arena.expand_delta(plan, &*store, live, i);
            for level in i.max(1)..plan.k() {
                stats.join_ops += 1;
                arena.probe(plan, &*store, live, level);
                let grown = arena.insert_pairs(plan, level, now, |parent, comp, key| {
                    capped(stats, cap, saturated, || store.insert_l0(level, parent, comp, now, key))
                });
                if !grown {
                    break;
                }
            }
            arena.emit(plan, &*store, live, out);
        }
        Some(stored_any)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;
    use crate::independent::IndependentStore;
    use crate::mstree::MsTreeStore;
    use crate::plan::PlanOptions;
    use std::collections::HashMap;
    use tcs_graph::query::QueryEdge;
    use tcs_graph::window::SlidingWindow;
    use tcs_graph::{ELabel, QueryGraph, VLabel};

    fn path2_query(pairs: &[(usize, usize)]) -> QueryGraph {
        QueryGraph::new(
            vec![VLabel(0), VLabel(1), VLabel(2)],
            vec![
                QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
                QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
            ],
            pairs,
        )
        .unwrap()
    }

    fn mk<S: MatchStore>(q: QueryGraph) -> TimingEngine<S> {
        TimingEngine::new(QueryPlan::build(q, PlanOptions::timing()))
    }

    fn run_both(
        q: QueryGraph,
        edges: Vec<StreamEdge>,
        window: u64,
    ) -> (Vec<MatchRecord>, Vec<MatchRecord>) {
        let mut ms: TimingEngine<MsTreeStore> = mk(q.clone());
        let mut ind: TimingEngine<IndependentStore> = mk(q);
        let mut w1 = SlidingWindow::new(window);
        let mut w2 = SlidingWindow::new(window);
        let mut out_ms = Vec::new();
        let mut out_ind = Vec::new();
        for e in edges {
            out_ms.extend(ms.advance(&w1.advance(e)));
            out_ind.extend(ind.advance(&w2.advance(e)));
        }
        // The balanced insert/delete counters equal the stores' actual
        // row counts at every point; spot-check the end.
        assert_eq!(ms.live_partials(), ms.store_rows());
        assert_eq!(ind.live_partials(), ind.store_rows());
        out_ms.sort();
        out_ind.sort();
        (out_ms, out_ind)
    }

    #[test]
    fn tc_query_chain_basic() {
        // ε0 ≺ ε1 makes a single TC-subquery (k = 1).
        let q = path2_query(&[(0, 1)]);
        let plan = QueryPlan::build(q.clone(), PlanOptions::timing());
        assert_eq!(plan.k(), 1);
        let mut eng: TimingEngine<MsTreeStore> = mk(q);
        let m1 = eng.insert(StreamEdge::new(1, 10, 0, 11, 1, 0, 1));
        assert!(m1.is_empty());
        let m2 = eng.insert(StreamEdge::new(2, 11, 1, 12, 2, 0, 2));
        assert_eq!(m2.len(), 1);
        assert_eq!(m2[0].edges(), &[EdgeId(1), EdgeId(2)]);
        assert_eq!(eng.live_match_count(), 1);
        assert_eq!(eng.stats().matches_emitted, 1);
    }

    #[test]
    fn discardable_edge_is_pruned() {
        // With ε0 ≺ ε1, an ε1-shaped edge arriving FIRST has no prefix to
        // join: it must be discarded, storing nothing (the σ6 example of
        // §III-A1).
        let q = path2_query(&[(0, 1)]);
        let mut eng: TimingEngine<MsTreeStore> = mk(q);
        let m = eng.insert(StreamEdge::new(1, 11, 1, 12, 2, 0, 1));
        assert!(m.is_empty());
        assert_eq!(eng.stats().edges_discarded, 1);
        assert_eq!(eng.space_partials(), 0);
        // The same shapes in the right order do match.
        eng.insert(StreamEdge::new(2, 10, 0, 11, 1, 0, 2));
        let m3 = eng.insert(StreamEdge::new(3, 11, 1, 12, 2, 0, 3));
        assert_eq!(m3.len(), 1);
    }

    impl<S: MatchStore> TimingEngine<S> {
        /// Total partial matches across subquery items (test helper).
        fn space_partials(&self) -> usize {
            let mut n = 0;
            for (i, s) in self.plan.subs.iter().enumerate() {
                for l in 0..s.len() {
                    n += self.store.len_sub(i, l);
                }
            }
            n
        }
    }

    #[test]
    fn empty_order_behaves_like_plain_isomorphism() {
        // No timing order: k = 2, joins through L₀; both directions of
        // arrival produce the match.
        let q = path2_query(&[]);
        let plan = QueryPlan::build(q.clone(), PlanOptions::timing());
        assert_eq!(plan.k(), 2);
        for (first, second) in
            [((1, 10, 0, 11, 1), (2, 11, 1, 12, 2)), ((1, 11, 1, 12, 2), (2, 10, 0, 11, 1))]
        {
            let mut eng: TimingEngine<MsTreeStore> = mk(q.clone());
            let (id, s, sl, d, dl) = first;
            eng.insert(StreamEdge::new(id, s, sl, d, dl, 0, 1));
            let (id, s, sl, d, dl) = second;
            let m = eng.insert(StreamEdge::new(id, s, sl, d, dl, 0, 2));
            assert_eq!(m.len(), 1, "order {first:?} then {second:?}");
        }
    }

    #[test]
    fn expiry_retracts_partials_and_matches() {
        let q = path2_query(&[(0, 1)]);
        let mut eng: TimingEngine<MsTreeStore> = mk(q);
        let mut w = SlidingWindow::new(5);
        eng.advance(&w.advance(StreamEdge::new(1, 10, 0, 11, 1, 0, 1)));
        let m = eng.advance(&w.advance(StreamEdge::new(2, 11, 1, 12, 2, 0, 2)));
        assert_eq!(m.len(), 1);
        assert_eq!(eng.live_match_count(), 1);
        // t=10 expires edge 1 → the match and its prefix disappear.
        let m2 = eng.advance(&w.advance(StreamEdge::new(3, 20, 0, 21, 1, 0, 10)));
        assert!(m2.is_empty());
        assert_eq!(eng.live_match_count(), 0);
        assert!(eng.stats().partials_deleted >= 2);
    }

    #[test]
    fn running_example_stream_matches_paper_figure4() {
        // Streams the 10 edges of Figure 3 against the running-example
        // query; the paper says the subgraph {σ1,σ3,σ4,σ5,σ7,σ8} matches at
        // t=8 and expires at t=10 when σ1 leaves the window of size 9.
        let q = QueryGraph::running_example();
        // Vertex labels in the running example: a=0,b=1,c=2,d=3,e=4,f=5.
        // Figure 3 edges (src, src_label, dst, dst_label):
        let edges = vec![
            StreamEdge::new(1, 7, 4, 8, 5, 0, 1), // σ1 = e7→f8   (ε6 shape)
            StreamEdge::new(2, 4, 2, 9, 4, 0, 2), // σ2 = c4→e9   (ε5 shape)
            StreamEdge::new(3, 4, 2, 7, 4, 0, 3), // σ3 = c4→e7   (ε5 shape)
            StreamEdge::new(4, 5, 3, 4, 2, 0, 4), // σ4 = d5→c4   (ε4 shape)
            StreamEdge::new(5, 3, 1, 4, 2, 0, 5), // σ5 = b3→c4   (ε2 shape)
            StreamEdge::new(6, 2, 0, 3, 1, 0, 6), // σ6 = a2→b3   (ε3 shape)
            StreamEdge::new(7, 5, 3, 3, 1, 0, 7), // σ7 = d5→b3   (ε1 shape)
            StreamEdge::new(8, 1, 0, 3, 1, 0, 8), // σ8 = a1→b3   (ε3 shape)
            StreamEdge::new(9, 6, 3, 4, 2, 0, 9), // σ9 = d6→c4   (ε4 shape)
            StreamEdge::new(10, 5, 3, 7, 4, 0, 10), // σ10 = d5→e7  (ε5 shape)
        ];
        let mut eng: TimingEngine<MsTreeStore> = mk(q.clone());
        let mut w = SlidingWindow::new(9);
        let mut all = Vec::new();
        let mut live_at_8 = 0;
        for e in &edges {
            let ms = eng.advance(&w.advance(*e));
            all.extend(ms);
            if e.ts.0 == 8 {
                live_at_8 = eng.live_match_count();
            }
        }
        // At t=8 the match {σ1,σ3,σ4,σ5,σ7,σ8} exists. (σ6 = a2→b3 also
        // forms a second match variant via ε3 → check ≥ 1 and that the
        // paper's exact match is among the emitted ones.)
        assert!(live_at_8 >= 1, "paper's match exists at t=8");
        let paper_match = MatchRecord::from(vec![
            EdgeId(8), // ε1 ← σ8 = a1→b3
            EdgeId(5), // ε2 ← σ5 = b3→c4
            EdgeId(7), // ε3 ← σ7 = d5→b3
            EdgeId(4), // ε4 ← σ4 = d5→c4
            EdgeId(3), // ε5 ← σ3 = c4→e7
            EdgeId(1), // ε6 ← σ1 = e7→f8
        ]);
        assert!(all.contains(&paper_match), "emitted: {all:?}");
        // After t=10 σ1 expired; the match is no longer live.
        assert_eq!(eng.live_match_count(), 0, "match expired with σ1");
    }

    #[test]
    fn mstree_and_independent_agree_on_random_streams() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // Small random multigraph streams over 3 labels; query = 2-path
        // with and without timing.
        for seed in 0..5u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let edges: Vec<StreamEdge> = (0..200)
                .map(|i| {
                    let src = rng.gen_range(0..8u32);
                    let mut dst = rng.gen_range(0..8u32);
                    while dst == src {
                        dst = rng.gen_range(0..8u32);
                    }
                    StreamEdge::new(i, src, (src % 3) as u16, dst, (dst % 3) as u16, 0, i + 1)
                })
                .collect();
            for pairs in [vec![], vec![(0, 1)], vec![(1, 0)]] {
                let q = QueryGraph::new(
                    vec![VLabel(0), VLabel(1), VLabel(2)],
                    vec![
                        QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
                        QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
                    ],
                    &pairs,
                )
                .unwrap();
                let (ms, ind) = run_both(q, edges.clone(), 40);
                assert_eq!(ms, ind, "seed {seed} pairs {pairs:?}");
            }
        }
    }

    /// `Q¹ = {ε0: a→b ≺ ε1: b→c}`, `Q² = {ε2: d→a ≺ ε3: d→e}`, cross
    /// constraint `ε2 ≺ ε1` — the shape whose `L₀` probes carry a nonzero
    /// timestamp floor (`tests/oracle_equivalence.rs` runs it against the
    /// oracle).
    fn cross_constraint_query() -> QueryGraph {
        QueryGraph::new(
            vec![VLabel(0), VLabel(1), VLabel(2), VLabel(3), VLabel(4)],
            vec![
                QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
                QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
                QueryEdge { src: 3, dst: 0, label: ELabel::NONE },
                QueryEdge { src: 3, dst: 4, label: ELabel::NONE },
            ],
            &[(0, 1), (2, 3), (2, 1)],
        )
        .unwrap()
    }

    #[test]
    fn plan_computes_cross_constraint_floors() {
        let plan = QueryPlan::build(cross_constraint_query(), PlanOptions::timing());
        assert_eq!(plan.k(), 2);
        assert_eq!(plan.subs[0].seq, vec![0, 1]);
        assert_eq!(plan.subs[1].seq, vec![2, 3]);
        // ε2 (delta level 0) must precede the row edge ε1.
        assert_eq!(plan.l0_delta_floor_levels[1], vec![0]);
        // Floor = ts(Δ[0]) + 1; no constraint → 0.
        assert_eq!(plan.l0_row_ts_floor(1, |lvl| [7, 9][lvl]), 8);
        assert!(plan.leaf_floor_positions[1].is_empty());
        assert_eq!(plan.leaf_ts_floor(1, |_, _| unreachable!("no positions")), 0);
    }

    #[test]
    fn out_of_order_arrivals_follow_policy() {
        use crate::ingest::{IngestError, OrderPolicy};
        let q = path2_query(&[]);

        // Reject (default): typed error, engine untouched.
        let mut eng: TimingEngine<MsTreeStore> = mk(q.clone());
        eng.try_insert(StreamEdge::new(1, 10, 0, 11, 1, 0, 5)).unwrap();
        let err = eng.try_insert(StreamEdge::new(2, 11, 1, 12, 2, 0, 3)).unwrap_err();
        assert_eq!(err, IngestError::OutOfOrder { ts: 3, watermark: 5 });
        assert_eq!(eng.stats().edges_processed, 1);
        assert_eq!(eng.ingest_stats().rejected_out_of_order, 1);
        assert_eq!(eng.watermark(), Some(5));

        // ClampToWatermark: admitted as "just now", joins like any other
        // arrival.
        let mut eng: TimingEngine<MsTreeStore> = mk(q.clone());
        eng.set_order_policy(OrderPolicy::ClampToWatermark);
        eng.try_insert(StreamEdge::new(1, 10, 0, 11, 1, 0, 5)).unwrap();
        let m = eng.try_insert(StreamEdge::new(2, 11, 1, 12, 2, 0, 3)).unwrap();
        assert_eq!(m.len(), 1, "clamped straggler still completes the match");
        assert_eq!(eng.ingest_stats().clamped, 1);
        assert_eq!(eng.watermark(), Some(5));

        // DropSilently: no matches, no error, counter moves.
        let mut eng: TimingEngine<MsTreeStore> = mk(q);
        eng.set_order_policy(OrderPolicy::DropSilently);
        eng.try_insert(StreamEdge::new(1, 10, 0, 11, 1, 0, 5)).unwrap();
        let m = eng.try_insert(StreamEdge::new(2, 11, 1, 12, 2, 0, 3)).unwrap();
        assert!(m.is_empty());
        assert_eq!(eng.stats().edges_processed, 1);
        assert_eq!(eng.ingest_stats().dropped_out_of_order, 1);
    }

    #[test]
    fn equal_timestamps_are_admitted() {
        let q = path2_query(&[]);
        let mut eng: TimingEngine<MsTreeStore> = mk(q);
        eng.try_insert(StreamEdge::new(1, 10, 0, 11, 1, 0, 5)).unwrap();
        let m = eng.try_insert(StreamEdge::new(2, 11, 1, 12, 2, 0, 5)).unwrap();
        assert_eq!(m.len(), 1, "nondecreasing, not strictly increasing, is in order");
        assert_eq!(eng.ingest_stats().admitted, 2);
    }

    #[test]
    fn mismatched_self_loop_labels_rejected() {
        use crate::ingest::IngestError;
        let q = path2_query(&[]);
        let mut eng: TimingEngine<MsTreeStore> = mk(q);
        let err = eng.try_insert(StreamEdge::new(1, 7, 0, 7, 1, 0, 1)).unwrap_err();
        assert_eq!(
            err,
            IngestError::DanglingEndpoint { id: EdgeId(1), vertex: tcs_graph::VertexId(7) }
        );
        assert_eq!(eng.ingest_stats().rejected_dangling, 1);
        assert_eq!(eng.stats().edges_processed, 0);
    }

    #[test]
    #[should_panic(expected = "invalid input")]
    fn insert_panics_on_out_of_order_input() {
        let q = path2_query(&[]);
        let mut eng: TimingEngine<MsTreeStore> = mk(q);
        eng.insert(StreamEdge::new(1, 10, 0, 11, 1, 0, 5));
        eng.insert(StreamEdge::new(2, 11, 1, 12, 2, 0, 3));
    }

    #[test]
    fn insert_batch_stops_at_first_rejection() {
        use crate::ingest::IngestError;
        let q = path2_query(&[]);
        let mut eng: TimingEngine<MsTreeStore> = mk(q);
        let batch = [
            StreamEdge::new(1, 10, 0, 11, 1, 0, 1),
            StreamEdge::new(2, 11, 1, 12, 2, 0, 2),
            StreamEdge::new(3, 10, 0, 11, 1, 0, 1), // behind watermark 2
            StreamEdge::new(4, 11, 1, 12, 2, 0, 3),
        ];
        let live: HashMap<EdgeId, StreamEdge> = batch.iter().map(|e| (e.id, *e)).collect();
        let mut sink = Vec::new();
        let err = eng.insert_batch_at(&batch, &live, &mut sink).unwrap_err();
        assert_eq!(err, IngestError::OutOfOrder { ts: 1, watermark: 2 });
        // Edges before the failure were processed and remain live, and
        // the match edge 2 completed is in the sink, not lost.
        assert_eq!(eng.stats().edges_processed, 2);
        assert_eq!(eng.live_match_count(), 1);
        assert_eq!(sink, vec![MatchRecord::from(vec![EdgeId(1), EdgeId(2)])]);
        // Resuming past the offender is well-defined.
        let mut m = Vec::new();
        eng.insert_batch_at(&batch[3..], &live, &mut m).unwrap();
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn stats_track_inserts_and_joins() {
        let q = path2_query(&[(0, 1)]);
        let mut eng: TimingEngine<MsTreeStore> = mk(q);
        eng.insert(StreamEdge::new(1, 10, 0, 11, 1, 0, 1));
        eng.insert(StreamEdge::new(2, 11, 1, 12, 2, 0, 2));
        let st = eng.stats();
        assert_eq!(st.edges_processed, 2);
        assert_eq!(st.partials_inserted, 2);
        assert!(st.join_ops >= 1);
    }

    #[test]
    fn space_accounting_moves_with_window() {
        let q = path2_query(&[(0, 1)]);
        let mut eng: TimingEngine<MsTreeStore> = mk(q);
        let mut w = SlidingWindow::new(4);
        let mut peak = 0;
        for t in 1..50u64 {
            let (s, sl, d, dl) = if t % 2 == 1 { (10, 0, 11, 1) } else { (11, 1, 12, 2) };
            eng.advance(&w.advance(StreamEdge::new(t, s, sl, d, dl, 0, t)));
            peak = peak.max(eng.space_bytes());
        }
        assert!(peak > 0);
        // Space stays bounded (window evicts).
        assert!(eng.space_bytes() <= peak);
    }

    /// Drives the batch entry the way `MultiQueryEngine::step` does: the
    /// chunk's expiries leave the external live view, a step's arrivals
    /// enter it, then every contiguous same-signature run is one
    /// `insert_batch_at` call.
    fn step_batch<S: MatchStore>(
        eng: &mut TimingEngine<S>,
        w: &mut SlidingWindow,
        live: &mut HashMap<EdgeId, StreamEdge>,
        chunk: &[StreamEdge],
    ) -> Vec<MatchRecord> {
        let mut out = Vec::new();
        for step in w.advance_batch(chunk).steps {
            for x in &step.expired {
                eng.expire_partials(x);
                live.remove(&x.id);
            }
            live.extend(step.arrivals.iter().map(|a| (a.id, *a)));
            for run in step.arrivals.chunk_by(|a, b| a.signature() == b.signature()) {
                eng.insert_batch_at(run, live, &mut out).unwrap();
            }
        }
        out
    }

    /// Streams chunked at random batch boundaries (and as one whole-stream
    /// batch): the batch path must emit byte-identical match streams AND
    /// stats vs the per-edge fold, for both stores, with window expiry in
    /// play. Besides random streams, one run-heavy input: 64 consecutive
    /// arrivals sharing (src, dst, signature) probe one 32-row bucket in a
    /// single call, the run continues across expiries, and a batch of two
    /// arrivals under one id ends the stream (id uniqueness is the gate's
    /// job; the engine processes a duplicate like any other arrival).
    #[test]
    fn batch_path_equals_per_edge_fold() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut inputs: Vec<(String, QueryGraph, Vec<StreamEdge>)> = Vec::new();
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x6a7c);
            let edges: Vec<StreamEdge> = (0..300)
                .map(|i| {
                    let src = rng.gen_range(0..6u32);
                    let mut dst = rng.gen_range(0..6u32);
                    while dst == src {
                        dst = rng.gen_range(0..6u32);
                    }
                    // Bursty timestamps so runs of equal signatures and
                    // multi-arrival batch steps both occur.
                    StreamEdge::new(i, src, (src % 3) as u16, dst, (dst % 3) as u16, 0, i / 3 + 1)
                })
                .collect();
            for pairs in [vec![], vec![(0, 1)]] {
                let label = format!("seed {seed} pairs {pairs:?}");
                inputs.push((label, path2_query(&pairs), edges.clone()));
            }
        }
        // Run-heavy: 32 parents a_i→b filed in b's bucket (ts 1..=32), a
        // run of b→c arrivals — 64 before the first expiry (ts 33..=40,
        // eight per tick), 40 more each retiring one parent — then the
        // duplicate-id batch.
        let mut hub: Vec<StreamEdge> =
            (0..32).map(|i| StreamEdge::new(i, 100 + i as u32, 0, 11, 1, 0, i + 1)).collect();
        hub.extend((0..64).map(|i| StreamEdge::new(32 + i, 11, 1, 12, 2, 0, 33 + i / 8)));
        hub.extend((0..40).map(|i| StreamEdge::new(96 + i, 11, 1, 12, 2, 0, 41 + i)));
        hub.extend([StreamEdge::new(900, 11, 1, 12, 2, 0, 81); 2]);
        inputs.push(("run-heavy".to_string(), path2_query(&[(0, 1)]), hub));

        for (label, q, edges) in &inputs {
            for whole in [false, true] {
                let mut rng = SmallRng::seed_from_u64(0xc0de);
                let mut per: TimingEngine<MsTreeStore> = mk(q.clone());
                let mut bat: TimingEngine<MsTreeStore> = mk(q.clone());
                let mut ind_per: TimingEngine<IndependentStore> = mk(q.clone());
                let mut ind_bat: TimingEngine<IndependentStore> = mk(q.clone());
                let mut ws = [
                    SlidingWindow::new(40),
                    SlidingWindow::new(40),
                    SlidingWindow::new(40),
                    SlidingWindow::new(40),
                ];
                let (mut live_ms, mut live_ind) = (HashMap::new(), HashMap::new());
                let mut emitted = 0;
                let mut rest = edges.as_slice();
                while !rest.is_empty() {
                    let n = if whole { rest.len() } else { rng.gen_range(1..=rest.len().min(64)) };
                    let (chunk, tail) = rest.split_at(n);
                    rest = tail;
                    let a: Vec<MatchRecord> =
                        chunk.iter().flat_map(|&e| per.advance(&ws[0].advance(e))).collect();
                    let b = step_batch(&mut bat, &mut ws[1], &mut live_ms, chunk);
                    let c: Vec<MatchRecord> =
                        chunk.iter().flat_map(|&e| ind_per.advance(&ws[2].advance(e))).collect();
                    let d = step_batch(&mut ind_bat, &mut ws[3], &mut live_ind, chunk);
                    // Byte-identical per store; set-identical across
                    // stores (their scan orders legitimately differ).
                    assert_eq!(a, b, "{label} whole={whole}");
                    assert_eq!(c, d, "{label} whole={whole} (ind)");
                    emitted += a.len();
                    let (mut sa, mut sc) = (a, c);
                    sa.sort();
                    sc.sort();
                    assert_eq!(sa, sc, "{label} whole={whole} (cross)");
                }
                assert_eq!(per.stats(), bat.stats(), "{label} whole={whole}");
                assert_eq!(ind_per.stats(), ind_bat.stats(), "{label} whole={whole} (ind)");
                assert_eq!(per.ingest_stats(), bat.ingest_stats());
                bat.assert_clean();
                ind_bat.assert_clean();
                if label == "run-heavy" {
                    assert!(emitted >= 64 * 32, "every run member joined the whole bucket");
                }
            }
        }
    }
}
