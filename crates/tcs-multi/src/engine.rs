//! The shared-window query registry with signature-routed dispatch and
//! cross-tenant template sharing.
//!
//! One [`MultiQueryEngine`] owns one [`SlidingWindow`] and one live-edge
//! table; registered queries are grouped by canonical plan fingerprint
//! into *shared templates* — one [`TimingEngine`] per distinct template,
//! fanned out to every subscriber — and each template resolves stored
//! edge ids through the table via the
//! `insert_batch_at`/`expire_partials` split (see the crate docs for the
//! sharing model, the dispatch-index lifecycle and registration
//! semantics, and `tcs_core::engine` for the split itself).

use crate::fault::{payload_str, FaultPolicy, QueryFault, ShardHealth};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use tcs_core::engine::EngineStats;
use tcs_core::fail_point;
use tcs_core::failpoints::sites;
use tcs_core::store::MatchStore;
use tcs_core::{
    IngestError, IngestGate, IngestStats, MsTreeStore, OrderPolicy, PlanFingerprint, QueryPlan,
    TimingEngine,
};
use tcs_graph::{
    ELabel, EdgeId, IdMap, LiveEdgeView, MatchRecord, SlidingWindow, StreamEdge, VLabel,
};
use tcs_telemetry::{EventKind, Recorder};

/// Identifier of a registered query, unique for the lifetime of the
/// engine (ids of unregistered queries are never reused).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

/// Identifier of a shared template (one per distinct canonical plan),
/// unique for the engine's lifetime — like query ids, never reused, so a
/// template re-registered after a quarantine starts from a fresh id and
/// can never inherit stale dispatch entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct TemplateId(u64);

/// Per-query counters and space share reported by
/// [`MultiQueryEngine::stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryStats {
    /// The query.
    pub id: QueryId,
    /// Engine counters, normalized to what an independent engine fed the
    /// same stream (from this query's registration on) would report:
    /// arrivals the dispatch index filtered out are counted as processed
    /// and discarded, because that is what the engine itself would have
    /// done with them. The counters are the shared engine's deltas
    /// since this subscriber registered, with
    /// `matches_emitted` replaced by the subscriber's own emission count
    /// (the epoch filter can withhold matches a warm engine completes).
    pub stats: EngineStats,
    /// Arrivals actually delivered to this query's (possibly shared)
    /// engine while this subscriber was registered.
    pub routed: u64,
    /// Matches delivered to *this* subscriber after epoch filtering.
    pub emitted: u64,
    /// Bytes attributable to this query alone: its template's
    /// partial-match store, reported once per template on the template's
    /// earliest live subscriber and 0 on the others (the live-edge table
    /// is reported once, in [`MultiStats::snapshot_bytes`]).
    pub store_bytes: usize,
}

/// Per-template counters reported by [`MultiQueryEngine::stats`] — one
/// entry per shared engine, the unit the sharing gates measure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TemplateStats {
    /// Digest of the template's canonical fingerprint.
    pub digest: u64,
    /// Live subscribers fanned out from this template's engine.
    pub subscribers: usize,
    /// The shared engine's raw (un-normalized) counters.
    pub stats: EngineStats,
    /// The template's store bytes — paid once regardless of subscriber
    /// count.
    pub store_bytes: usize,
}

/// Aggregate report of [`MultiQueryEngine::stats`]: per-query counters
/// plus the shared-window bytes, counted once.
#[derive(Clone, Debug, Default)]
pub struct MultiStats {
    /// One entry per registered query, in registration (id) order.
    pub queries: Vec<QueryStats>,
    /// One entry per shared template, in template-creation order.
    pub templates: Vec<TemplateStats>,
    /// Bytes of the registry's live-edge table (each live edge with its
    /// admission number) — the whole point of the shared window is that
    /// this appears once here instead of once per query.
    pub snapshot_bytes: usize,
    /// Arrivals the engine has seen since construction.
    pub edges_seen: u64,
    /// Every query quarantined so far, in fault order (see
    /// [`FaultPolicy::Quarantine`]). Quarantined queries no longer appear
    /// in [`MultiStats::queries`]; this log is how their fate is read.
    pub faults: Vec<QueryFault>,
    /// Ingestion-boundary counters: what the gate admitted, clamped,
    /// dropped and rejected (see `tcs_core::ingest`). Kept apart from the
    /// per-query [`EngineStats`] so those stay oracle-comparable.
    pub ingest: IngestStats,
    /// Per-shard health (shed counts, worker restarts) — filled by
    /// [`ShardedMultiEngine::stats`](crate::ShardedMultiEngine::stats),
    /// empty for a serial registry.
    pub shards: Vec<ShardHealth>,
}

impl MultiStats {
    /// Total bytes: the live-edge table once plus every query's own
    /// store (each template's store appears exactly once).
    pub fn space_bytes(&self) -> usize {
        self.snapshot_bytes + self.queries.iter().map(|q| q.store_bytes).sum::<usize>()
    }

    /// Sum of the per-query counters.
    pub fn total(&self) -> EngineStats {
        let mut t = EngineStats::default();
        for q in &self.queries {
            t.edges_processed += q.stats.edges_processed;
            t.edges_discarded += q.stats.edges_discarded;
            t.matches_emitted += q.stats.matches_emitted;
            t.partials_inserted += q.stats.partials_inserted;
            t.partials_deleted += q.stats.partials_deleted;
            t.join_ops += q.stats.join_ops;
        }
        t
    }
}

/// One shared template: the engine every fingerprint-identical
/// registration fans out from, plus everything fan-out touches — so
/// delivering a burst reads and writes this struct alone.
struct SharedTemplate<S: MatchStore> {
    engine: TimingEngine<S>,
    /// The canonical fingerprint this template is keyed under.
    fp: PlanFingerprint,
    /// canonical edge index → this engine's (the founder plan's) edge
    /// index.
    inv_perm: Vec<usize>,
    /// Arrivals delivered to the engine since the template was founded;
    /// a subscriber's routed count is this minus its
    /// [`Slot::routed_base`].
    routed: u64,
    /// Live subscribers' delivery state, in registration order
    /// (ascending id).
    slots: Vec<Slot>,
    /// The distinct non-identity remaps among the live subscribers,
    /// indexed by [`Slot::group`].
    groups: Vec<RemapGroup>,
    /// The current burst's emission floors, index-parallel to it; filled
    /// only while some slot is epoch-filtered (empty between bursts).
    floors: Vec<u64>,
}

/// One subscriber's delivery state, kept on its template.
struct Slot {
    id: QueryId,
    /// Emission epoch: `None` for a founder (saw the engine from birth,
    /// unfiltered); `Some(e)` for a late joiner to a warm engine, where
    /// `e` is the registry's arrival count at registration. It sees
    /// exactly the matches whose emission floor exceeds `e` — i.e.
    /// matches made entirely of post-registration edges (fresh-start
    /// semantics, enforced at the emission point).
    epoch: Option<u64>,
    /// The remap group whose edge order this subscriber receives records
    /// in; `None` = the founder's order (the engine's own records).
    group: Option<usize>,
    /// The template's `routed` when this subscriber registered.
    routed_base: u64,
    /// Matches delivered to this subscriber after epoch filtering.
    emitted: u64,
}

/// Permuted twins that number their edges the same way: one remap, done
/// once per burst for all of them.
struct RemapGroup {
    /// subscriber edge index → founder edge index.
    remap: Box<[usize]>,
    /// Live slots in this group.
    members: usize,
    /// The current burst's remapped records, index-parallel to it and
    /// built on first demand (empty between bursts).
    burst: Vec<Option<MatchRecord>>,
}

/// One registered query's registration facts; its delivery state lives
/// in its template's [`Slot`].
struct Subscriber {
    template: TemplateId,
    /// Value of `edges_seen` when the subscriber registered.
    seen_base: u64,
    /// The shared engine's counters at registration — per-subscriber
    /// stats are deltas from here.
    stats_base: EngineStats,
    /// The subscriber's own plan, kept only when it differs from the
    /// founder's (non-identity remap) so re-homing can re-register it
    /// verbatim; `None` = the template engine's plan is this plan.
    plan: Option<QueryPlan>,
}

/// The armed telemetry sink plus front-end sampling state (see
/// [`MultiQueryEngine::set_recorder`]). The front-end instruments its
/// own advance path — the wrapped [`TimingEngine`]s stay un-armed, so
/// nothing is ever double-counted across layers.
struct MultiTel {
    rec: Arc<Recorder>,
    /// Sampling tick: one per advance unit (edge or batch).
    tick: u32,
    /// Whether this registry counts endpoint hot-key traffic itself —
    /// the sharded front-end counts keys once at routing time and arms
    /// its shards with this off.
    hot_keys: bool,
}

/// Saturating nanoseconds since `t0`.
fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Quarantine payloads ride in the bounded event ring: keep a readable
/// prefix, not an arbitrary panic dump.
const EVENT_PAYLOAD_CAP: usize = 120;

/// A dynamic registry of standing queries over one shared window.
///
/// See the crate docs for the sharing model, the dispatch-index
/// lifecycle, registration semantics, and the equivalence guarantee
/// against independent engines.
pub struct MultiQueryEngine<S: MatchStore = MsTreeStore> {
    window: SlidingWindow,
    /// The live edges of the window, one copy for all queries; its
    /// admission count is the registry's `edges_seen`.
    live: LiveEdges,
    /// One engine per distinct canonical plan.
    templates: BTreeMap<TemplateId, SharedTemplate<S>>,
    /// Every registered query, in id order.
    subscribers: BTreeMap<QueryId, Subscriber>,
    /// canonical fingerprint → its live template.
    by_fp: IdMap<PlanFingerprint, TemplateId>,
    /// signature → templates with a query edge of that signature, each
    /// bucket in template-creation order.
    dispatch: IdMap<(VLabel, VLabel, ELabel), Vec<TemplateId>>,
    next_id: u64,
    id_stride: u64,
    next_template: u64,
    /// The typed ingestion boundary: every arrival passes the gate before
    /// it can touch the window, the live-edge table, or any engine.
    gate: IngestGate,
    /// What a panic inside one template's per-arrival work becomes.
    fault_policy: FaultPolicy,
    /// Quarantined queries, in fault order.
    faults: Vec<QueryFault>,
    /// The telemetry seam: `None` (default) until a harness arms a
    /// recorder — see [`MultiQueryEngine::set_recorder`]. Recording
    /// never touches [`MultiStats`] or any per-query counters.
    tel: Option<MultiTel>,
    /// The batch path's per-call buffers, reused across calls.
    scratch: BatchScratch,
}

/// The buffers one [`MultiQueryEngine::try_advance_batch_stamped`] call
/// works in, kept on the registry so a call allocates only what it
/// returns. Taken out for the call and cleared before use.
#[derive(Default)]
struct BatchScratch {
    /// Arrivals the gate admitted (possibly clamped).
    admitted: Vec<StreamEdge>,
    /// The current window step's expiries, oldest first.
    expired: Vec<StreamEdge>,
    /// The current window step's arrivals.
    arrivals: Vec<StreamEdge>,
    /// One routed run's emissions, before fan-out.
    emitted: Vec<MatchRecord>,
}

/// The registry's live-edge table: every edge inside the shared window
/// with its admission number — 1-based, in admission order, never
/// reused. Every template's engine resolves stored edge ids through it
/// ([`LiveEdgeView`]), and fan-out reads a match's emission floor from
/// the numbers. Arrival numbers, not timestamps: equal timestamps are
/// admissible, so only a number tells apart two arrivals a registration
/// falls between.
#[derive(Default)]
struct LiveEdges {
    edges: IdMap<EdgeId, (StreamEdge, u64)>,
    /// Arrivals admitted since construction: the last number handed out.
    admitted: u64,
}

impl LiveEdges {
    /// Admits an arrival under the next admission number. A live
    /// duplicate id is an owner bug (the gate rejects it) and panics.
    fn insert(&mut self, e: StreamEdge) {
        self.admitted += 1;
        let prev = self.edges.insert(e.id, (e, self.admitted));
        assert!(prev.is_none(), "duplicate edge id {:?}", e.id);
    }

    /// A match's emission floor: the smallest admission number among its
    /// edges. They are all live while the match is delivered; a missing
    /// one would read 0 and withhold the match from every late subscriber.
    fn floor(&self, m: &MatchRecord) -> u64 {
        let number = |id| self.edges.get(id).map_or(0, |&(_, n)| n);
        m.edges().iter().map(number).min().unwrap_or(0)
    }

    /// Everything the table holds per live edge: the id key and the entry.
    fn space_bytes(&self) -> usize {
        use std::mem::size_of;
        self.edges.len() * (size_of::<EdgeId>() + size_of::<(StreamEdge, u64)>())
    }
}

impl LiveEdgeView for LiveEdges {
    #[inline]
    fn live_edge(&self, id: EdgeId) -> Option<&StreamEdge> {
        self.edges.get(&id).map(|(e, _)| e)
    }
}

/// Component-wise delta of two monotone counter snapshots.
fn stats_since(now: &EngineStats, base: &EngineStats) -> EngineStats {
    EngineStats {
        edges_processed: now.edges_processed.saturating_sub(base.edges_processed),
        edges_discarded: now.edges_discarded.saturating_sub(base.edges_discarded),
        matches_emitted: now.matches_emitted.saturating_sub(base.matches_emitted),
        partials_inserted: now.partials_inserted.saturating_sub(base.partials_inserted),
        partials_deleted: now.partials_deleted.saturating_sub(base.partials_deleted),
        join_ops: now.join_ops.saturating_sub(base.join_ops),
    }
}

impl<S: MatchStore> SharedTemplate<S> {
    /// Adds a subscriber's slot; a non-identity `remap` joins the group
    /// of twins with the same remap, or founds one.
    fn subscribe(&mut self, id: QueryId, epoch: Option<u64>, remap: Option<Vec<usize>>) {
        debug_assert!(self.slots.last().is_none_or(|s| s.id < id), "slots stay in id order");
        let group = remap.map(|r| {
            if let Some(g) = self.groups.iter().position(|g| *g.remap == *r) {
                self.groups[g].members += 1;
                return g;
            }
            self.groups.push(RemapGroup { remap: r.into(), members: 1, burst: Vec::new() });
            self.groups.len() - 1
        });
        self.slots.push(Slot { id, epoch, group, routed_base: self.routed, emitted: 0 });
    }

    /// Drops a subscriber's slot, and its remap group with the group's
    /// last member.
    fn unsubscribe(&mut self, id: QueryId) {
        let Ok(i) = self.slots.binary_search_by_key(&id, |s| s.id) else {
            debug_assert!(false, "subscriber {id:?} has a slot on its template");
            return;
        };
        let Some(g) = self.slots.remove(i).group else { return };
        self.groups[g].members -= 1;
        if self.groups[g].members > 0 {
            return;
        }
        self.groups.remove(g);
        for s in &mut self.slots {
            if let Some(x) = &mut s.group {
                if *x > g {
                    *x -= 1;
                }
            }
        }
    }

    /// The delivery slot of subscriber `id`.
    fn slot(&self, id: QueryId) -> Option<&Slot> {
        let i = self.slots.binary_search_by_key(&id, |s| s.id).ok()?;
        Some(&self.slots[i])
    }

    /// Delivers the engine's reply `ms` to a routed run of `run_len`
    /// arrivals: per-subscriber epoch filtering against the emission
    /// floors (read from `live` once per record, and only while some
    /// subscriber is epoch-filtered), then one pushed handle per
    /// delivery — the engine's own record for the founder's edge order,
    /// the group's record (remapped once per burst, on first demand) for
    /// a permuted twin. A run that emitted nothing costs one counter bump.
    fn fan_out(
        &mut self,
        ms: &[MatchRecord],
        run_len: u64,
        live: &LiveEdges,
        out: &mut Vec<(QueryId, MatchRecord)>,
    ) {
        self.routed += run_len;
        if ms.is_empty() {
            return;
        }
        let Self { slots, groups, floors, .. } = self;
        if slots.iter().any(|s| s.epoch.is_some()) {
            floors.extend(ms.iter().map(|m| live.floor(m)));
        }
        for g in groups.iter_mut() {
            g.burst.resize(ms.len(), None);
        }
        out.reserve(slots.len() * ms.len());
        for slot in slots.iter_mut() {
            let before = out.len();
            for (mi, m) in ms.iter().enumerate() {
                // A late subscriber sees the match iff every constituent
                // edge arrived after its epoch.
                if slot.epoch.is_some_and(|ep| floors[mi] <= ep) {
                    continue;
                }
                let rec = match slot.group {
                    None => m.clone(),
                    Some(g) => {
                        let RemapGroup { remap, burst, .. } = &mut groups[g];
                        burst[mi].get_or_insert_with(|| remap_record(m, remap)).clone()
                    }
                };
                out.push((slot.id, rec));
            }
            slot.emitted += (out.len() - before) as u64;
        }
        for g in groups.iter_mut() {
            g.burst.clear();
        }
        floors.clear();
    }
}

/// Rewrites a founder-order match record into a subscriber's own edge
/// order (`remap[s]` = founder edge index of subscriber edge `s`).
fn remap_record(m: &MatchRecord, remap: &[usize]) -> MatchRecord {
    MatchRecord::new(remap.iter().map(|&f| m.edge(f)).collect())
}

impl<S: MatchStore> MultiQueryEngine<S> {
    /// An empty registry over a window of the given duration.
    pub fn new(window: u64) -> Self {
        Self::with_id_stride(window, 0, 1)
    }

    /// An empty registry whose [`QueryId`]s are `first, first + stride,
    /// first + 2·stride, …` — shard `i` of an `n`-shard front-end uses
    /// `(i, n)` so ids stay globally unique without coordination.
    pub fn with_id_stride(window: u64, first: u64, stride: u64) -> Self {
        assert!(stride >= 1, "id stride must be positive");
        MultiQueryEngine {
            window: SlidingWindow::new(window),
            live: LiveEdges::default(),
            templates: BTreeMap::new(),
            subscribers: BTreeMap::new(),
            by_fp: IdMap::default(),
            dispatch: IdMap::default(),
            next_id: first,
            id_stride: stride,
            next_template: 0,
            gate: IngestGate::new(window, OrderPolicy::default()),
            fault_policy: FaultPolicy::default(),
            faults: Vec::new(),
            tel: None,
            scratch: BatchScratch::default(),
        }
    }

    /// Arms the telemetry seam: per-arrival processing latency,
    /// per-query and per-template detection latency, endpoint hot-key
    /// traffic and lifecycle events (register/unregister/quarantine)
    /// flow into `rec` from now on, under its sampling contract.
    /// Telemetry never perturbs [`MultiStats`], any [`EngineStats`], or
    /// the match stream (the telemetry-equivalence suite pins this
    /// byte-for-byte). The wrapped per-template engines stay un-armed —
    /// this layer instruments its own dispatch path, so nothing is
    /// double-counted.
    pub fn set_recorder(&mut self, rec: Arc<Recorder>) {
        self.set_recorder_scoped(rec, true);
    }

    /// [`MultiQueryEngine::set_recorder`] with hot-key counting
    /// controlled by the caller — the sharded front-end counts keys once
    /// at routing time and arms its shards with `hot_keys: false`.
    pub(crate) fn set_recorder_scoped(&mut self, rec: Arc<Recorder>, hot_keys: bool) {
        self.tel = Some(MultiTel { rec, tick: 0, hot_keys });
    }

    /// Disarms the telemetry seam; the recorder keeps what it has.
    pub fn clear_recorder(&mut self) {
        self.tel = None;
    }

    /// Telemetry: one sampling tick per advance unit; `Some(stamp)` on
    /// the units that pay for a wall-clock read.
    fn tel_stamp(&mut self) -> Option<Instant> {
        let t = self.tel.as_mut()?;
        t.tick += 1;
        if t.tick >= t.rec.sample_every() {
            t.tick = 0;
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Telemetry: counts endpoint traffic for a sampled unit (skipped
    /// when the sharded front-end already counted these edges at routing
    /// time).
    fn tel_record_keys(&self, edges: &[StreamEdge]) {
        let Some(tel) = &self.tel else { return };
        if !tel.hot_keys {
            return;
        }
        for e in edges {
            tel.rec.record_key(u64::from(e.src.0));
            if e.dst != e.src {
                tel.rec.record_key(u64::from(e.dst.0));
            }
        }
    }

    /// Telemetry: closes a sampled unit. `proc` feeds per-edge
    /// processing latency (`n` edges at the unit's average); `arr` is
    /// the unit's *arrival* instant — the detection-latency origin,
    /// which the sharded front-end stamps at enqueue time so queue wait
    /// counts — feeding every emitted match's per-query and per-template
    /// histograms. `out` is grouped by template, then by subscriber, so
    /// each subscriber run is one per-query record and each template run
    /// one per-template record.
    fn tel_finish(
        &self,
        proc: Option<Instant>,
        arr: Option<Instant>,
        n: u64,
        out: &[(QueryId, MatchRecord)],
    ) {
        let Some(tel) = &self.tel else { return };
        if let Some(t0) = proc {
            if let Some(per_edge) = elapsed_ns(t0).checked_div(n) {
                tel.rec.record_edge_ns(per_edge, n);
            }
        }
        let Some(a0) = arr else { return };
        if out.is_empty() {
            return;
        }
        let ns = elapsed_ns(a0);
        // The template run being accumulated: (digest, deliveries).
        let mut pending: Option<(u64, u64)> = None;
        for run in out.chunk_by(|a, b| a.0 == b.0) {
            let (qid, n) = (run[0].0, run.len() as u64);
            tel.rec.record_detection(qid.0, ns, n);
            // A template quarantined after it delivered has no
            // subscribers left: its deliveries land under digest 0.
            let digest = self
                .subscribers
                .get(&qid)
                .and_then(|s| self.templates.get(&s.template))
                .map_or(0, |t| t.fp.digest());
            match &mut pending {
                Some((d, m)) if *d == digest => *m += n,
                _ => {
                    if let Some((d, m)) = pending.replace((digest, n)) {
                        tel.rec.record_detection_template(d, ns, m);
                    }
                }
            }
        }
        if let Some((d, m)) = pending {
            tel.rec.record_detection_template(d, ns, m);
        }
    }

    /// Telemetry: appends one lifecycle event (no-op while disarmed).
    fn tel_event(&self, kind: EventKind) {
        if let Some(tel) = &self.tel {
            tel.rec.event(kind);
        }
    }

    /// The active out-of-order arrival policy of the ingestion gate.
    pub fn order_policy(&self) -> OrderPolicy {
        self.gate.policy()
    }

    /// Replaces the ingestion gate's out-of-order policy (effective from
    /// the next arrival).
    pub fn set_order_policy(&mut self, policy: OrderPolicy) {
        self.gate.set_policy(policy);
    }

    /// Ingestion-boundary counters so far.
    pub fn ingest_stats(&self) -> IngestStats {
        self.gate.stats()
    }

    /// The active per-query panic policy.
    pub fn fault_policy(&self) -> FaultPolicy {
        self.fault_policy
    }

    /// Replaces the per-query panic policy (effective from the next
    /// arrival). [`FaultPolicy::Propagate`] is the default for a bare
    /// registry; [`ShardedMultiEngine`](crate::ShardedMultiEngine) puts
    /// its shards under [`FaultPolicy::Quarantine`].
    pub fn set_fault_policy(&mut self, policy: FaultPolicy) {
        self.fault_policy = policy;
    }

    /// Every query quarantined so far, in fault order. A panic inside a
    /// shared template quarantines *all* of its subscribers — one
    /// [`QueryFault`] each, same payload and edge sequence.
    pub fn faults(&self) -> &[QueryFault] {
        &self.faults
    }

    /// Number of registered queries (subscribers).
    pub fn n_queries(&self) -> usize {
        self.subscribers.len()
    }

    /// Number of live shared templates (engines actually running): the
    /// number of *distinct* canonical plans registered.
    pub fn n_templates(&self) -> usize {
        self.templates.len()
    }

    /// Ids of the registered queries, in registration (id) order.
    pub fn query_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.subscribers.keys().copied()
    }

    /// The distinct signatures the registry currently reacts to (the
    /// dispatch index keys). A sharded front-end unions these per shard
    /// into its routing table.
    pub fn signatures(&self) -> impl Iterator<Item = (VLabel, VLabel, ELabel)> + '_ {
        self.dispatch.keys().copied()
    }

    /// Whether any registered query can react to this signature.
    #[inline]
    pub fn wants(&self, sig: (VLabel, VLabel, ELabel)) -> bool {
        self.dispatch.contains_key(&sig)
    }

    /// Registers a compiled plan as a standing query, effective from the
    /// next arrival; returns its id. Edges already inside the window are
    /// not replayed (crate docs, "Registration semantics") — a late
    /// subscriber to a warm template is epoch-filtered at the emission
    /// point so it behaves exactly like a fresh private engine. Ids are
    /// never reused — in particular not those of quarantined queries, so a
    /// registration after a fault can never inherit stale dispatch entries
    /// (regression-tested).
    pub fn register(&mut self, plan: QueryPlan) -> QueryId {
        let id = QueryId(self.next_id);
        self.next_id = match self.next_id.checked_add(self.id_stride) {
            Some(n) => n,
            None => panic!("query ids exhausted"),
        };
        self.register_as(id, plan);
        id
    }

    /// Registers a plan under a caller-chosen id — the supervisor's
    /// re-homing path, where surviving queries keep their public ids
    /// across a shard rebuild. The id must be unused and must never
    /// collide with ids the stride will produce (callers pass ids the
    /// stride already produced).
    pub(crate) fn register_as(&mut self, id: QueryId, plan: QueryPlan) {
        debug_assert!(!self.subscribers.contains_key(&id), "query id {id:?} already registered");
        self.tel_event(EventKind::Register { qid: id.0 });
        let (fp, perm) = PlanFingerprint::canonicalize(&plan.query);
        if let Some(&tid) = self.by_fp.get(&fp) {
            let Some(t) = self.templates.get_mut(&tid) else {
                unreachable!("fingerprint index targets a live template");
            };
            // A late joiner: its epoch is the arrival count now, so only
            // matches of later arrivals reach this subscriber.
            let epoch = Some(self.live.admitted);
            let remap: Vec<usize> = perm.iter().map(|&c| t.inv_perm[c]).collect();
            let identity = remap.iter().enumerate().all(|(s, &f)| s == f);
            t.subscribe(id, epoch, (!identity).then_some(remap));
            let sub = Subscriber {
                template: tid,
                seen_base: self.live.admitted,
                stats_base: t.engine.stats(),
                plan: (!identity).then_some(plan),
            };
            self.subscribers.insert(id, sub);
            return;
        }
        // A founder saw its engine from birth: no epoch filter, zero
        // stats base.
        let tid = self.fresh_template(plan, fp, &perm, id);
        let sub = Subscriber {
            template: tid,
            seen_base: self.live.admitted,
            stats_base: EngineStats::default(),
            plan: None,
        };
        self.subscribers.insert(id, sub);
    }

    /// Builds a new template around this plan's engine, with `founder`
    /// as its first subscriber, and indexes it: dispatch entries per leaf
    /// signature, one fingerprint entry. `perm` maps the plan's edge
    /// indices to canonical ones.
    fn fresh_template(
        &mut self,
        plan: QueryPlan,
        fp: PlanFingerprint,
        perm: &[usize],
        founder: QueryId,
    ) -> TemplateId {
        let tid = TemplateId(self.next_template);
        self.next_template = match self.next_template.checked_add(1) {
            Some(n) => n,
            None => panic!("template ids exhausted"),
        };
        for sig in plan.signatures() {
            let bucket = self.dispatch.entry(sig).or_default();
            debug_assert!(!bucket.contains(&tid));
            bucket.push(tid);
        }
        let mut inv_perm = vec![0usize; perm.len()];
        for (e, &c) in perm.iter().enumerate() {
            inv_perm[c] = e;
        }
        self.by_fp.insert(fp.clone(), tid);
        let engine = TimingEngine::new(plan);
        let (slots, groups, floors) = (Vec::new(), Vec::new(), Vec::new());
        let mut t = SharedTemplate { engine, fp, inv_perm, routed: 0, slots, groups, floors };
        t.subscribe(founder, None, None);
        self.templates.insert(tid, t);
        tid
    }

    /// The next id [`MultiQueryEngine::register`] would hand out — a
    /// rebuilt shard resumes the sequence so ids stay unique across
    /// restarts.
    pub(crate) fn next_raw_id(&self) -> u64 {
        self.next_id
    }

    /// The registered queries as `(id, plan)` pairs in id order — what a
    /// supervisor re-homes after this registry's worker died. Each
    /// subscriber reports its *own* plan (edge order and all), not the
    /// founder's, so re-registration reproduces its exact match records.
    pub(crate) fn registrations(&self) -> Vec<(QueryId, QueryPlan)> {
        self.subscribers
            .iter()
            .map(|(&id, sub)| {
                let plan = match &sub.plan {
                    Some(p) => p.clone(),
                    None => match self.templates.get(&sub.template) {
                        Some(t) => t.engine.plan().clone(),
                        None => unreachable!("subscriber references a live template"),
                    },
                };
                (id, plan)
            })
            .collect()
    }

    /// Carries a predecessor's fault log into this registry (shard
    /// rebuild: the log survives the worker).
    pub(crate) fn adopt_faults(&mut self, faults: Vec<QueryFault>) {
        let mut faults = faults;
        faults.extend(std::mem::take(&mut self.faults));
        self.faults = faults;
    }

    /// Drops a standing query; the last subscriber of a template takes
    /// the template, its engine, its dispatch entries and its partial
    /// matches with it (refcounted teardown). Returns false if the id is
    /// unknown (already unregistered).
    pub fn unregister(&mut self, id: QueryId) -> bool {
        let removed = self.unregister_inner(id);
        if removed {
            self.tel_event(EventKind::Unregister { qid: id.0 });
        }
        removed
    }

    /// [`MultiQueryEngine::unregister`] without the lifecycle event —
    /// the quarantine path tears subscribers down through here so each
    /// faulted query logs exactly one event (the quarantine itself).
    fn unregister_inner(&mut self, id: QueryId) -> bool {
        let Some(sub) = self.subscribers.remove(&id) else {
            return false;
        };
        let tid = sub.template;
        let Some(t) = self.templates.get_mut(&tid) else {
            debug_assert!(false, "subscriber references a live template");
            return true;
        };
        t.unsubscribe(id);
        if !t.slots.is_empty() {
            return true;
        }
        let Some(t) = self.templates.remove(&tid) else {
            unreachable!("template present above");
        };
        if self.by_fp.get(&t.fp) == Some(&tid) {
            self.by_fp.remove(&t.fp);
        }
        for sig in t.engine.plan().signatures() {
            let std::collections::hash_map::Entry::Occupied(mut bucket) = self.dispatch.entry(sig)
            else {
                unreachable!("registered signature has a dispatch bucket");
            };
            bucket.get_mut().retain(|&q| q != tid);
            if bucket.get().is_empty() {
                bucket.remove();
            }
        }
        true
    }

    /// Slides the shared window to the arrival and routes the resulting
    /// expiries + insertion to the templates that can react. Returns the
    /// newly completed matches as `(query, match)` pairs, grouped by
    /// template in creation order, each template's subscribers in
    /// registration order, each subscriber's matches in emission order.
    ///
    /// Panics on invalid input ([`IngestError`]) — stream owners that must
    /// survive a misbehaving source use [`MultiQueryEngine::try_advance`]
    /// or a lenient [`OrderPolicy`] instead.
    pub fn advance(&mut self, e: StreamEdge) -> Vec<(QueryId, MatchRecord)> {
        match self.try_advance(e) {
            Ok(out) => out,
            Err(err) => panic!("MultiQueryEngine::advance fed invalid input: {err}"),
        }
    }

    /// [`MultiQueryEngine::advance`] with the ingestion boundary surfaced:
    /// an invalid arrival becomes a typed [`IngestError`] with the
    /// window, the live-edge table and every engine untouched; out-of-order arrivals follow
    /// the gate's [`OrderPolicy`]. Under [`FaultPolicy::Quarantine`] a
    /// panic inside one template's work quarantines that template — every
    /// subscriber gets one [`QueryFault`] (recorded in
    /// [`MultiQueryEngine::faults`]) — and the remaining templates still
    /// process the arrival. This is the one-edge case of
    /// [`MultiQueryEngine::try_advance_batch`].
    pub fn try_advance(
        &mut self,
        e: StreamEdge,
    ) -> Result<Vec<(QueryId, MatchRecord)>, IngestError> {
        self.try_advance_batch_stamped(std::slice::from_ref(&e), None)
    }

    /// Tears down every faulted template: all its subscribers are
    /// unregistered and each gets one [`QueryFault`] (same payload, same
    /// edge sequence) — the whole-template blast radius of sharing.
    fn quarantine(&mut self, faulted: Vec<(TemplateId, String)>) {
        for (tid, payload) in faulted {
            let subs: Vec<QueryId> = match self.templates.get(&tid) {
                Some(t) => t.slots.iter().map(|s| s.id).collect(),
                None => {
                    debug_assert!(false, "faulted template was registered");
                    continue;
                }
            };
            for qid in subs {
                let removed = self.unregister_inner(qid);
                debug_assert!(removed, "faulted subscriber was registered");
                self.tel_event(EventKind::Quarantine {
                    qid: qid.0,
                    edge_seq: self.live.admitted,
                    payload: payload.chars().take(EVENT_PAYLOAD_CAP).collect(),
                });
                self.faults.push(QueryFault {
                    qid,
                    payload: payload.clone(),
                    edge_seq: self.live.admitted,
                });
            }
        }
    }

    /// Batch form of [`MultiQueryEngine::advance`]: one gate pass, one
    /// shared-window advance and signature-grouped dispatch for a whole
    /// batch. Panics on invalid input like [`MultiQueryEngine::advance`].
    pub fn advance_batch(&mut self, batch: &[StreamEdge]) -> Vec<(QueryId, MatchRecord)> {
        match self.try_advance_batch(batch) {
            Ok(out) => out,
            Err(err) => panic!("MultiQueryEngine::advance_batch fed invalid input: {err}"),
        }
    }

    /// [`MultiQueryEngine::try_advance`] folded over a batch, amortized:
    /// the gate validates every arrival up front (stopping at the first
    /// rejection, whose error is returned after the admitted prefix is
    /// processed), the shared window advances once, and arrivals are
    /// dispatched as *runs* — maximal consecutive same-signature spans
    /// with no intervening expiry — so each reacting template receives a
    /// contiguous sub-batch through
    /// [`TimingEngine::insert_batch_at`] instead of one call per edge.
    ///
    /// Each query's own match stream is byte-identical to the per-edge
    /// fold; the *interleaving* across queries differs (grouped per run ×
    /// template × subscriber instead of per edge × query). Quarantine
    /// semantics carry over: a panic anywhere in a template's sub-batch
    /// work condemns that template alone — it is skipped for the rest of
    /// the batch and torn down at the end (one fault per subscriber), and
    /// every other template still processes the full batch.
    ///
    /// **A rejection loses the admitted prefix's matches.** On `Err` the
    /// arrivals before the rejected one have been fully processed — they
    /// are in the window, their partial matches are stored, and every
    /// match they completed was counted in its subscriber's `emitted` —
    /// but those matches are dropped with the `Ok` value, never returned.
    /// Feeding on from the arrival after the rejected one is
    /// well-defined; the lost deliveries cannot be recovered, so feeders
    /// that must not lose any validate first or use a lenient
    /// [`OrderPolicy`]. One layer down the loss is closed —
    /// [`TimingEngine::insert_batch_at`] appends to a caller-owned sink
    /// that keeps what was emitted before the error — but this method's
    /// return type is what the frozen benchmark calls, so moving it to a
    /// sink waits for the benchmark-contract change (ROADMAP.md, Step 0b).
    pub fn try_advance_batch(
        &mut self,
        batch: &[StreamEdge],
    ) -> Result<Vec<(QueryId, MatchRecord)>, IngestError> {
        self.try_advance_batch_stamped(batch, None)
    }

    /// [`MultiQueryEngine::try_advance_batch`] with an externally
    /// stamped arrival instant: the sharded front-end stamps each chunk
    /// when it enters the worker queue, so detection latency includes
    /// queue wait, not just engine work. `None` falls back to the
    /// sampled internal stamp (semantics are otherwise identical).
    pub fn try_advance_batch_stamped(
        &mut self,
        batch: &[StreamEdge],
        arrived: Option<Instant>,
    ) -> Result<Vec<(QueryId, MatchRecord)>, IngestError> {
        // One sampling tick per batch; an external arrival stamp means
        // the caller already paid for the clock read, so detection is
        // recorded for the whole chunk while per-edge processing
        // latency stays on the sampled cadence.
        let tel_t0 = self.tel_stamp();
        let tel_arr = match arrived {
            Some(a) if self.tel.is_some() => Some(a),
            _ => tel_t0,
        };
        let mut sc = std::mem::take(&mut self.scratch);
        sc.admitted.clear();
        sc.expired.clear();
        sc.arrivals.clear();
        let mut failure: Option<IngestError> = None;
        for &e in batch {
            match self.gate.admit(e) {
                Ok(Some(e)) => sc.admitted.push(e),
                Ok(None) => {}
                Err(err) => {
                    failure = Some(err);
                    break;
                }
            }
        }
        if tel_t0.is_some() {
            self.tel_record_keys(&sc.admitted);
        }
        // Templates that panicked during THIS call: skipped for the rest
        // of it, torn down after it.
        let mut faulted: Vec<(TemplateId, String)> = Vec::new();
        let mut out: Vec<(QueryId, MatchRecord)> = Vec::new();
        // Window steps are cut as the window slides: an arrival that
        // expires something closes the step before it (only the first
        // step may start without expiries), exactly the steps of
        // `SlidingWindow::advance_batch`. Steps never read the window, so
        // running each as soon as it closes changes nothing.
        for &a in &sc.admitted {
            let before = sc.expired.len();
            self.window.advance_into(a, &mut sc.expired);
            if sc.expired.len() > before && !sc.arrivals.is_empty() {
                let (exp, arr) = (&sc.expired[..before], &sc.arrivals[..]);
                self.step(exp, arr, &mut sc.emitted, &mut faulted, &mut out);
                sc.expired.drain(..before);
                sc.arrivals.clear();
            }
            sc.arrivals.push(a);
        }
        if !sc.arrivals.is_empty() {
            self.step(&sc.expired, &sc.arrivals, &mut sc.emitted, &mut faulted, &mut out);
        }
        let n_admitted = sc.admitted.len() as u64;
        self.scratch = sc;
        self.quarantine(faulted);
        self.tel_finish(tel_t0, tel_arr, n_admitted, &out);
        match failure {
            Some(err) => Err(err),
            None => Ok(out),
        }
    }

    /// One window step: routes `expired` to the templates holding
    /// deletion positions for each signature, admits `arrivals` to the
    /// live-edge table, then delivers them as same-signature runs to the
    /// templates that can react and fans each emission burst (collected
    /// in the `emitted` scratch) out to the template's subscribers.
    fn step(
        &mut self,
        expired: &[StreamEdge],
        arrivals: &[StreamEdge],
        emitted: &mut Vec<MatchRecord>,
        faulted: &mut Vec<(TemplateId, String)>,
        out: &mut Vec<(QueryId, MatchRecord)>,
    ) {
        for x in expired {
            for &tid in self.dispatch.get(&x.signature()).map_or(&[][..], Vec::as_slice) {
                let work = |engine: &mut TimingEngine<S>, slots: &[Slot]| {
                    for s in slots {
                        fail_point!(sites::PRE_EXPIRY, s.id.0);
                    }
                    engine.expire_partials(x);
                };
                Self::isolated(&mut self.templates, self.fault_policy, faulted, tid, work);
            }
            self.live.edges.remove(&x.id);
        }
        // The whole step enters the table before dispatch: engines only
        // resolve ids they have stored, so edges admitted ahead of their
        // own processing are invisible until their run is delivered.
        for &a in arrivals {
            self.live.insert(a);
        }
        let live = &self.live;
        for run in arrivals.chunk_by(|a, b| a.signature() == b.signature()) {
            for &tid in self.dispatch.get(&run[0].signature()).map_or(&[][..], Vec::as_slice) {
                emitted.clear();
                let work = |engine: &mut TimingEngine<S>, slots: &[Slot]| {
                    for s in slots {
                        fail_point!(sites::PRE_PROBE, s.id.0);
                    }
                    // The gate sanitized the stream, so an engine-level
                    // rejection is a bug in THIS template's plumbing:
                    // under Quarantine it condemns only the template.
                    if let Err(err) = engine.insert_batch_at(run, live, emitted) {
                        panic!("sanitized stream rejected: {err}");
                    }
                    for s in slots {
                        fail_point!(sites::POST_RECORD, s.id.0);
                    }
                };
                if let Some((t, ())) =
                    Self::isolated(&mut self.templates, self.fault_policy, faulted, tid, work)
                {
                    t.fan_out(emitted, run.len() as u64, live, out);
                }
            }
        }
    }

    /// The one fault boundary: runs `work` on template `tid`'s engine
    /// under `policy`, skipping templates that already faulted during this
    /// call. Under [`FaultPolicy::Quarantine`] a panic in `work` is caught
    /// and logged in `faulted` (the caller tears the template down once
    /// the call's dispatch is done); `None` means skipped or faulted.
    fn isolated<'t, R>(
        templates: &'t mut BTreeMap<TemplateId, SharedTemplate<S>>,
        policy: FaultPolicy,
        faulted: &mut Vec<(TemplateId, String)>,
        tid: TemplateId,
        work: impl FnOnce(&mut TimingEngine<S>, &[Slot]) -> R,
    ) -> Option<(&'t mut SharedTemplate<S>, R)> {
        if faulted.iter().any(|(f, _)| *f == tid) {
            return None;
        }
        let Some(t) = templates.get_mut(&tid) else {
            debug_assert!(false, "dispatch targets a live template");
            return None;
        };
        let work = AssertUnwindSafe(|| work(&mut t.engine, &t.slots));
        let r = match policy {
            FaultPolicy::Propagate => work(),
            FaultPolicy::Quarantine => match catch_unwind(work) {
                Ok(r) => r,
                Err(p) => {
                    faulted.push((tid, payload_str(&*p)));
                    return None;
                }
            },
        };
        Some((t, r))
    }

    /// Per-query counters (normalized — see [`QueryStats::stats`]) and
    /// per-template counters, plus the live-edge table's bytes, counted
    /// once. Template store bytes appear once each, attributed to the
    /// template's earliest live subscriber.
    pub fn stats(&self) -> MultiStats {
        let queries = self
            .subscribers
            .iter()
            .map(|(&id, sub)| {
                self.query_stats(id, sub)
                    .unwrap_or_else(|| unreachable!("subscriber has a live template and slot"))
            })
            .collect();
        let templates = self
            .templates
            .values()
            .map(|t| TemplateStats {
                digest: t.fp.digest(),
                subscribers: t.slots.len(),
                stats: t.engine.stats(),
                store_bytes: t.engine.store_space_bytes(),
            })
            .collect();
        MultiStats {
            queries,
            templates,
            snapshot_bytes: self.live.space_bytes(),
            edges_seen: self.live.admitted,
            faults: self.faults.clone(),
            ingest: self.gate.stats(),
            shards: Vec::new(),
        }
    }

    /// One query's [`QueryStats`], derived from its registration facts
    /// and its template's counters and slot.
    fn query_stats(&self, id: QueryId, sub: &Subscriber) -> Option<QueryStats> {
        let t = self.templates.get(&sub.template)?;
        let slot = t.slot(id)?;
        let routed = t.routed - slot.routed_base;
        let mut stats = stats_since(&t.engine.stats(), &sub.stats_base);
        // The engine-wide emission count includes matches the epoch
        // filter withheld from this subscriber; its own count is
        // authoritative.
        stats.matches_emitted = slot.emitted;
        // Arrivals since registration the dispatch index filtered out: an
        // independent engine would have processed and discarded them (no
        // candidate query edge, by construction of the index).
        let unrouted = (self.live.admitted - sub.seen_base) - routed;
        stats.edges_processed += unrouted;
        stats.edges_discarded += unrouted;
        let first = t.slots.first().map(|s| s.id) == Some(id);
        let store_bytes = if first { t.engine.store_space_bytes() } else { 0 };
        Some(QueryStats { id, stats, routed, emitted: slot.emitted, store_bytes })
    }

    /// Normalized counters of one query, if registered.
    pub fn stats_of(&self, id: QueryId) -> Option<EngineStats> {
        self.query_stats(id, self.subscribers.get(&id)?).map(|q| q.stats)
    }

    /// Raw routing counters of one query, if registered: `(arrivals
    /// routed to its template since it registered, matches emitted to it
    /// after epoch filtering)`.
    pub fn counters_of(&self, id: QueryId) -> Option<(u64, u64)> {
        self.query_stats(id, self.subscribers.get(&id)?).map(|q| (q.routed, q.emitted))
    }

    /// Live complete matches of one query's template engine, if
    /// registered (template-wide: a late subscriber's
    /// epoch filter applies to emission, not to the store).
    pub fn live_match_count(&self, id: QueryId) -> Option<usize> {
        let sub = self.subscribers.get(&id)?;
        self.templates.get(&sub.template).map(|t| t.engine.live_match_count())
    }

    /// Total bytes: the live-edge table once plus every template's store
    /// once (see [`MultiStats::space_bytes`]).
    pub fn space_bytes(&self) -> usize {
        self.stats().space_bytes()
    }

    /// Edges currently inside the shared window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Runs the full [`tcs_core::store::StoreAudit`] sweep over every
    /// template's store (plus each engine's `live_partials == store_rows`
    /// cross-check), prefixing each violation's detail with the owning
    /// template's subscriber ids.
    pub fn audit(&self) -> Vec<tcs_core::store::AuditViolation> {
        let mut out = Vec::new();
        for t in self.templates.values() {
            let owners = t.slots.iter().map(|s| s.id.0.to_string()).collect::<Vec<_>>().join(",");
            for mut v in t.engine.audit() {
                v.detail = format!("query {owners}: {}", v.detail);
                out.push(v);
            }
        }
        out
    }

    /// Panics with every [`MultiQueryEngine::audit`] violation.
    pub fn assert_clean(&self) {
        let violations = self.audit();
        assert!(
            violations.is_empty(),
            "multi-query store audit failed:\n{}",
            tcs_core::store::format_violations(&violations)
        );
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use tcs_core::PlanOptions;
    use tcs_graph::query::QueryEdge;
    use tcs_graph::{EdgeId, QueryGraph};

    /// 2-path query over the tenant's private label space
    /// `(3t, 3t+1, 3t+2)`, timed `ε0 ≺ ε1`.
    fn tenant_query(t: u16) -> QueryGraph {
        QueryGraph::new(
            vec![VLabel(3 * t), VLabel(3 * t + 1), VLabel(3 * t + 2)],
            vec![
                QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
                QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
            ],
            &[(0, 1)],
        )
        .unwrap()
    }

    fn plan(t: u16) -> QueryPlan {
        QueryPlan::build(tenant_query(t), PlanOptions::timing())
    }

    /// Tenant `t`'s permuted twin: the same 2-path with its edges listed
    /// in reverse — edge 0 is (b→c), edge 1 the opener (a→b) — and its
    /// vertices renumbered.
    fn twin_plan(t: u16) -> QueryPlan {
        let q = QueryGraph::new(
            vec![VLabel(3 * t + 2), VLabel(3 * t), VLabel(3 * t + 1)],
            vec![
                QueryEdge { src: 2, dst: 0, label: ELabel::NONE },
                QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
            ],
            &[(1, 0)],
        )
        .unwrap();
        QueryPlan::build(q, PlanOptions::timing())
    }

    /// Opening (a→b) and closing (b→c) edges of tenant `t`'s 2-chain.
    fn open_edge(id: u64, t: u16, ts: u64) -> StreamEdge {
        StreamEdge::new(id, 100 + id as u32, 3 * t, 200 + t as u32, 3 * t + 1, 0, ts)
    }
    fn close_edge(id: u64, t: u16, ts: u64) -> StreamEdge {
        StreamEdge::new(id, 200 + t as u32, 3 * t + 1, 300 + id as u32, 3 * t + 2, 0, ts)
    }

    #[test]
    fn dispatch_routes_only_matching_tenants() {
        let mut multi: MultiQueryEngine = MultiQueryEngine::new(100);
        let q0 = multi.register(plan(0));
        let q1 = multi.register(plan(1));
        assert_eq!(multi.n_queries(), 2);
        assert_eq!(multi.n_templates(), 2);
        assert!(multi.advance(open_edge(1, 0, 1)).is_empty());
        let out = multi.advance(close_edge(2, 0, 2));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, q0);
        // Tenant 1 never saw either edge.
        let s1 = multi.stats_of(q1).unwrap();
        assert_eq!(s1.edges_processed, 2);
        assert_eq!(s1.edges_discarded, 2);
        assert_eq!(s1.matches_emitted, 0);
        // Tenant 0 processed both for real.
        let s0 = multi.stats_of(q0).unwrap();
        assert_eq!(s0.edges_processed, 2);
        assert_eq!(s0.matches_emitted, 1);
        assert_eq!(multi.live_match_count(q0), Some(1));
    }

    #[test]
    fn unregister_drops_state_and_dispatch_entries() {
        let mut multi: MultiQueryEngine = MultiQueryEngine::new(100);
        let q0 = multi.register(plan(0));
        multi.advance(open_edge(1, 0, 1));
        multi.advance(close_edge(2, 0, 2));
        assert!(multi.wants(open_edge(9, 0, 9).signature()));
        assert!(multi.unregister(q0));
        assert!(!multi.unregister(q0), "double unregister reports unknown");
        assert!(!multi.wants(open_edge(9, 0, 9).signature()));
        assert_eq!(multi.n_queries(), 0);
        assert_eq!(multi.n_templates(), 0);
        // The stream keeps flowing; nobody reacts.
        assert!(multi.advance(close_edge(3, 0, 3)).is_empty());
        assert_eq!(multi.stats().space_bytes(), multi.stats().snapshot_bytes);
    }

    #[test]
    fn late_registration_starts_fresh() {
        // A query registered between the opening and closing edge of its
        // pattern must NOT see the opening edge (no replay): no match.
        let mut multi: MultiQueryEngine = MultiQueryEngine::new(100);
        multi.advance(open_edge(1, 0, 1));
        let q0 = multi.register(plan(0));
        assert!(multi.advance(close_edge(2, 0, 2)).is_empty());
        // A full pattern after registration does match.
        multi.advance(open_edge(3, 0, 3));
        let out = multi.advance(close_edge(4, 0, 4));
        assert_eq!(out, vec![(q0, MatchRecord::from(vec![EdgeId(3), EdgeId(4)]))]);
        // Stats count the pre-registration edge not at all, the
        // post-registration ones fully.
        let s = multi.stats_of(q0).unwrap();
        assert_eq!(s.edges_processed, 3);
    }

    #[test]
    fn expiry_is_routed_through_the_shared_window() {
        let mut multi: MultiQueryEngine = MultiQueryEngine::new(5);
        let q0 = multi.register(plan(0));
        multi.advance(open_edge(1, 0, 1));
        let out = multi.advance(close_edge(2, 0, 2));
        assert_eq!(out.len(), 1);
        assert_eq!(multi.live_match_count(q0), Some(1));
        // ts=10 expires both pattern edges: the match disappears and the
        // live-edge table shrinks with the window.
        multi.advance(open_edge(3, 1, 10));
        assert_eq!(multi.live_match_count(q0), Some(0));
        assert_eq!(multi.window_len(), 1);
        let st = multi.stats();
        assert!(st.queries[0].stats.partials_deleted >= 2);
    }

    /// Batched dispatch must match the per-edge fold per query — same
    /// per-query match subsequences, same normalized stats — with a
    /// registration landing between batches.
    #[test]
    fn advance_batch_matches_per_edge_fold() {
        let mut per: MultiQueryEngine = MultiQueryEngine::new(12);
        let mut bat: MultiQueryEngine = MultiQueryEngine::new(12);
        for t in 0..2u16 {
            per.register(plan(t));
            bat.register(plan(t));
        }
        let mut edges = Vec::new();
        let mut id = 0u64;
        for round in 0..60u64 {
            let t = (round % 2) as u16;
            id += 1;
            // Consecutive same-signature arrivals (runs) and window
            // expiries both occur on this stream.
            let e = if round % 4 < 2 {
                open_edge(id, t, round + 1)
            } else {
                close_edge(id, t, round + 1)
            };
            edges.push(e);
        }
        let mut out_per: Vec<(QueryId, MatchRecord)> = Vec::new();
        let mut out_bat: Vec<(QueryId, MatchRecord)> = Vec::new();
        for (bi, chunk) in edges.chunks(7).enumerate() {
            if bi == 3 {
                // A registration between batches must behave like one at
                // the same stream position of the per-edge fold.
                per.register(plan(2));
                bat.register(plan(2));
            }
            for &e in chunk {
                out_per.extend(per.advance(e));
            }
            out_bat.extend(bat.advance_batch(chunk));
        }
        // Per-query subsequences are byte-identical (cross-query
        // interleaving legitimately differs: run × query grouping).
        for qid in per.query_ids() {
            let a: Vec<&MatchRecord> =
                out_per.iter().filter(|(q, _)| *q == qid).map(|(_, m)| m).collect();
            let b: Vec<&MatchRecord> =
                out_bat.iter().filter(|(q, _)| *q == qid).map(|(_, m)| m).collect();
            assert_eq!(a, b, "query {qid:?}");
            assert_eq!(per.stats_of(qid), bat.stats_of(qid), "stats {qid:?}");
        }
        assert!(!out_per.is_empty());
        assert_eq!(per.ingest_stats(), bat.ingest_stats());
        per.assert_clean();
        bat.assert_clean();
    }

    /// Two registrations of a fingerprint-identical plan share one
    /// template and one store; both receive every post-registration
    /// match; the refcounted teardown keeps the engine alive until the
    /// last subscriber leaves.
    #[test]
    fn identical_plans_share_one_template() {
        let mut multi: MultiQueryEngine = MultiQueryEngine::new(100);
        let q0 = multi.register(plan(0));
        let q1 = multi.register(plan(0));
        assert_eq!(multi.n_queries(), 2);
        assert_eq!(multi.n_templates(), 1, "identical plans share one engine");
        multi.advance(open_edge(1, 0, 1));
        let out = multi.advance(close_edge(2, 0, 2));
        let want = MatchRecord::from(vec![EdgeId(1), EdgeId(2)]);
        assert_eq!(out, vec![(q0, want.clone()), (q1, want.clone())]);
        // Store bytes appear once across the pair.
        let st = multi.stats();
        assert_eq!(st.templates.len(), 1);
        assert_eq!(st.templates[0].subscribers, 2);
        let paid: Vec<usize> =
            st.queries.iter().map(|q| q.store_bytes).filter(|&b| b > 0).collect();
        assert_eq!(paid.len(), 1, "template store billed exactly once");
        // Unregistering one subscriber keeps the template running (the
        // earlier opener e1 is still in-window, so the close pairs with
        // both openers).
        assert!(multi.unregister(q0));
        assert_eq!(multi.n_templates(), 1);
        multi.advance(open_edge(3, 0, 3));
        let out = multi.advance(close_edge(4, 0, 4));
        assert_eq!(
            out,
            vec![
                (q1, MatchRecord::from(vec![EdgeId(1), EdgeId(4)])),
                (q1, MatchRecord::from(vec![EdgeId(3), EdgeId(4)])),
            ]
        );
        // The last unregister tears the template down.
        assert!(multi.unregister(q1));
        assert_eq!(multi.n_templates(), 0);
        assert!(!multi.wants(open_edge(9, 0, 9).signature()));
    }

    /// A late subscriber to a warm shared template sees only matches
    /// completed from edges that arrived after its registration — the
    /// same fresh-start semantics as a private engine — while the
    /// founder keeps seeing everything.
    #[test]
    fn late_subscriber_to_warm_template_starts_fresh() {
        let mut shared: MultiQueryEngine = MultiQueryEngine::new(100);
        let q0 = shared.register(plan(0));
        // Warm the engine: one full match plus a dangling opener.
        shared.advance(open_edge(1, 0, 1));
        shared.advance(close_edge(2, 0, 2));
        shared.advance(open_edge(3, 0, 3));
        let q1 = shared.register(plan(0));
        assert_eq!(shared.n_templates(), 1);
        // The close completes matches whose openers (e1, e3) predate q1:
        // only the founder sees them (a private engine for q1 would hold
        // no opener).
        let out = shared.advance(close_edge(4, 0, 4));
        assert_eq!(
            out,
            vec![
                (q0, MatchRecord::from(vec![EdgeId(1), EdgeId(4)])),
                (q0, MatchRecord::from(vec![EdgeId(3), EdgeId(4)])),
            ]
        );
        // A fully post-registration episode reaches both; the warm
        // openers keep pairing for the founder alone.
        shared.advance(open_edge(5, 0, 5));
        let out = shared.advance(close_edge(6, 0, 6));
        let q1_out: Vec<&MatchRecord> =
            out.iter().filter(|(q, _)| *q == q1).map(|(_, m)| m).collect();
        assert_eq!(q1_out, vec![&MatchRecord::from(vec![EdgeId(5), EdgeId(6)])]);
        assert_eq!(out.iter().filter(|(q, _)| *q == q0).count(), 3);
        // Normalized stats: q1 saw 3 arrivals, emitted 1.
        let s1 = shared.stats_of(q1).unwrap();
        assert_eq!(s1.matches_emitted, 1);
        assert_eq!(s1.edges_processed, 3);
        assert_eq!(shared.counters_of(q1), Some((3, 1)));
    }

    /// The bytes the registry reports are exactly what its live-edge
    /// table holds: with no template, the table is the whole state, and
    /// it follows the window through every expiry.
    #[test]
    fn live_edge_bytes_follow_the_window() {
        let per_edge = std::mem::size_of::<EdgeId>() + std::mem::size_of::<(StreamEdge, u64)>();
        let mut multi: MultiQueryEngine = MultiQueryEngine::new(6);
        for id in 1..=60u64 {
            // Two arrivals per timestamp: the window holds 12 edges once
            // full, and every later arrival expires old ones.
            multi.advance(open_edge(id, (id % 3) as u16, id.div_ceil(2)));
            let st = multi.stats();
            assert_eq!(st.space_bytes(), st.snapshot_bytes, "after edge {id}");
            assert_eq!(st.snapshot_bytes, multi.window_len() * per_edge, "after edge {id}");
        }
        assert_eq!(multi.window_len(), 12);
    }

    /// The founder owns the match that closes a prefix opened before a
    /// joiner registered; the joiner does not. A chain wholly after the
    /// joiner's epoch reaches it, but not a subscriber registered after
    /// the chain opened.
    #[test]
    fn emission_floors_partition_matches_by_epoch() {
        let m = |a: u64, b: u64| MatchRecord::from(vec![EdgeId(a), EdgeId(b)]);
        let mut multi: MultiQueryEngine = MultiQueryEngine::new(100);
        let founder = multi.register(plan(0));
        multi.advance(open_edge(1, 0, 1));
        let joiner = multi.register(plan(0));
        assert_eq!(multi.advance(close_edge(2, 0, 2)), vec![(founder, m(1, 2))]);
        multi.advance(open_edge(3, 0, 3));
        let later = multi.register(plan(0));
        let out = multi.advance(close_edge(4, 0, 4));
        assert_eq!(out, vec![(founder, m(1, 4)), (founder, m(3, 4)), (joiner, m(3, 4))]);
        assert_eq!(multi.counters_of(later), Some((1, 0)), "its chain's opener predates it");
    }

    /// Floors stay index-parallel to a burst: one run of two closers
    /// emits four records, alternating between a prefix opened before
    /// the joiner registered and one opened after, and the joiner gets
    /// exactly the second and fourth.
    #[test]
    fn emission_floors_stay_parallel_to_batch_records() {
        let mut multi: MultiQueryEngine = MultiQueryEngine::new(100);
        let founder = multi.register(plan(0));
        multi.advance(open_edge(1, 0, 1));
        let joiner = multi.register(plan(0));
        let batch = [open_edge(3, 0, 3), close_edge(4, 0, 4), close_edge(5, 0, 5)];
        let out = multi.advance_batch(&batch);
        let m = |a: u64, b: u64| MatchRecord::from(vec![EdgeId(a), EdgeId(b)]);
        // The two closers form one run, so the burst is delivered per
        // subscriber: the founder's four records, then the joiner's two.
        let want = vec![
            (founder, m(1, 4)),
            (founder, m(3, 4)),
            (founder, m(1, 5)),
            (founder, m(3, 5)),
            (joiner, m(3, 4)),
            (joiner, m(3, 5)),
        ];
        assert_eq!(out, want);
    }

    /// A registration between two arrivals with the same timestamp: the
    /// late subscriber sees no match that uses the earlier one, which a
    /// timestamp floor could not tell apart from the later one.
    #[test]
    fn equal_timestamps_split_by_a_registration() {
        let mut multi: MultiQueryEngine = MultiQueryEngine::new(100);
        let founder = multi.register(plan(0));
        multi.advance(open_edge(1, 0, 5));
        let late = multi.register(plan(0));
        multi.advance(open_edge(2, 0, 5));
        let out = multi.advance(close_edge(3, 0, 6));
        let m = |a: u64| MatchRecord::from(vec![EdgeId(a), EdgeId(3)]);
        assert_eq!(out, vec![(founder, m(1)), (founder, m(2)), (late, m(2))]);
    }

    /// A plan with duplicate leaf signatures (two query edges sharing one
    /// `(VLabel, VLabel, ELabel)` triple) must receive each arriving edge
    /// exactly once: the dispatch index is keyed per distinct signature,
    /// so a duplicated signature cannot produce a second bucket entry and
    /// a doubled delivery (which would double-count stats and re-emit
    /// matches).
    #[test]
    fn duplicate_leaf_signatures_dispatch_once() {
        // v0(L0) →ε0 v1(L1) ←ε1 v2(L0), ε0 ≺ ε1: both query edges carry
        // the signature (L0, L1, NONE).
        let q = QueryGraph::new(
            vec![VLabel(0), VLabel(1), VLabel(0)],
            vec![
                QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
                QueryEdge { src: 2, dst: 1, label: ELabel::NONE },
            ],
            &[(0, 1)],
        )
        .unwrap();
        let mut multi: MultiQueryEngine = MultiQueryEngine::new(100);
        let q0 = multi.register(QueryPlan::build(q, PlanOptions::timing()));
        assert!(multi.advance(StreamEdge::new(1, 10, 0, 20, 1, 0, 1)).is_empty());
        let out = multi.advance(StreamEdge::new(2, 30, 0, 20, 1, 0, 2));
        assert_eq!(out, vec![(q0, MatchRecord::from(vec![EdgeId(1), EdgeId(2)]))]);
        // Each arrival processed exactly once and the match emitted
        // exactly once — a doubled dispatch entry would show 4 routed
        // deliveries and a duplicate record.
        assert_eq!(multi.counters_of(q0), Some((2, 1)));
        let s = multi.stats_of(q0).unwrap();
        assert_eq!(s.edges_processed, 2);
        assert_eq!(s.matches_emitted, 1);
    }

    /// Subscribers whose plan lists the same edges in a different order
    /// still share the template, and each receives records in its *own*
    /// edge order.
    #[test]
    fn permuted_plan_shares_template_with_remapped_records() {
        // plan(0) lists (a→b) then (b→c); the permuted twin lists them
        // reversed and renumbers its vertices.
        let mut multi: MultiQueryEngine = MultiQueryEngine::new(100);
        let q0 = multi.register(plan(0));
        let q1 = multi.register(twin_plan(0));
        assert_eq!(multi.n_templates(), 1, "permuted twin shares the template");
        multi.advance(open_edge(1, 0, 1));
        let out = multi.advance(close_edge(2, 0, 2));
        assert_eq!(
            out,
            vec![
                (q0, MatchRecord::from(vec![EdgeId(1), EdgeId(2)])),
                // q1's edge 0 is the closing (b→c) edge, edge 1 the opener.
                (q1, MatchRecord::from(vec![EdgeId(2), EdgeId(1)])),
            ]
        );
    }

    /// Fan-out hands out handles, not copies: every identity subscriber
    /// of a template receives the engine's own record, and the permuted
    /// twins of one remap group share one remapped record per match. The
    /// late twin is still epoch-filtered, and unregistering subscribers
    /// (one identity, one twin) moves nobody else's counters.
    #[test]
    fn deliveries_share_one_record_per_edge_order() {
        let mut multi: MultiQueryEngine = MultiQueryEngine::new(100);
        let a = multi.register(plan(0));
        let b = multi.register(plan(0));
        let tw = multi.register(twin_plan(0));
        let c = multi.register(plan(0));
        multi.advance(open_edge(1, 0, 1));
        let late = multi.register(twin_plan(0));
        assert_eq!(multi.n_templates(), 1);
        let ptr = |out: &[(QueryId, MatchRecord)], q: QueryId, m: &[EdgeId]| {
            let (_, r) = out.iter().find(|(x, r)| *x == q && r.edges() == m).unwrap();
            r.edges().as_ptr()
        };

        // The opener predates the late twin: only the other four see it.
        let out = multi.advance(close_edge(2, 0, 2));
        let recs = |ids: &[EdgeId]| MatchRecord::from(ids.to_vec());
        let (fwd, rev) = (recs(&[EdgeId(1), EdgeId(2)]), recs(&[EdgeId(2), EdgeId(1)]));
        assert_eq!(out, vec![(a, fwd.clone()), (b, fwd.clone()), (tw, rev), (c, fwd)]);
        let id = ptr(&out, a, &[EdgeId(1), EdgeId(2)]);
        assert_eq!(ptr(&out, b, &[EdgeId(1), EdgeId(2)]), id);
        assert_eq!(ptr(&out, c, &[EdgeId(1), EdgeId(2)]), id);
        assert_ne!(ptr(&out, tw, &[EdgeId(2), EdgeId(1)]), id);

        // A fully post-registration match reaches all five; both twins
        // hold the same remapped allocation.
        multi.advance(open_edge(3, 0, 3));
        let out = multi.advance(close_edge(4, 0, 4));
        assert_eq!(out.iter().filter(|(q, _)| *q == late).count(), 1, "epoch filter holds");
        let (fwd, rev) = ([EdgeId(3), EdgeId(4)], [EdgeId(4), EdgeId(3)]);
        let id = ptr(&out, a, &fwd);
        assert!([b, c].iter().all(|&q| ptr(&out, q, &fwd) == id));
        let twin = ptr(&out, tw, &rev);
        assert_eq!(ptr(&out, late, &rev), twin, "one remap per group per burst");
        assert_ne!(twin, id);

        let snapshot = |m: &MultiQueryEngine, qs: &[QueryId]| {
            qs.iter().map(|&q| (m.counters_of(q), m.stats_of(q))).collect::<Vec<_>>()
        };
        assert_eq!(multi.counters_of(a), Some((4, 3)));
        assert_eq!(multi.counters_of(late), Some((3, 1)));
        let before = snapshot(&multi, &[a, tw, c, late]);
        assert!(multi.unregister(b));
        assert_eq!(snapshot(&multi, &[a, tw, c, late]), before);
        let before = snapshot(&multi, &[a, c, late]);
        assert!(multi.unregister(tw));
        assert_eq!(snapshot(&multi, &[a, c, late]), before);
        // The group outlives one twin: the late twin still gets its order.
        multi.advance(open_edge(5, 0, 5));
        let out = multi.advance(close_edge(6, 0, 6));
        let late_out: Vec<&MatchRecord> =
            out.iter().filter(|(q, _)| *q == late).map(|(_, m)| m).collect();
        assert_eq!(late_out, vec![&recs(&[EdgeId(6), EdgeId(3)]), &recs(&[EdgeId(6), EdgeId(5)])],);
    }

    /// Detection telemetry is recorded once per subscriber run and once
    /// per template run, and still counts every delivery exactly.
    #[test]
    fn detection_telemetry_counts_every_delivery() {
        let rec = Arc::new(Recorder::with_sampling(1));
        let mut multi: MultiQueryEngine = MultiQueryEngine::new(100);
        multi.set_recorder(Arc::clone(&rec));
        let ids: Vec<QueryId> = [plan(0), plan(0), twin_plan(0), plan(1), twin_plan(1), plan(1)]
            .into_iter()
            .map(|p| multi.register(p))
            .collect();
        assert_eq!(multi.n_templates(), 2);
        let batch = [
            open_edge(1, 0, 1),
            open_edge(2, 1, 2),
            close_edge(3, 0, 3),
            close_edge(4, 1, 4),
            open_edge(5, 0, 5),
            close_edge(6, 0, 6),
        ];
        let out = multi.advance_batch(&batch);
        let delivered = |qs: &[QueryId]| out.iter().filter(|(q, _)| qs.contains(q)).count() as u64;
        let snap = rec.snapshot();
        let count = |scopes: &[(u64, tcs_telemetry::HistogramSnapshot)], key: u64| {
            scopes.iter().find(|(k, _)| *k == key).map_or(0, |(_, h)| h.count)
        };
        for &q in &ids {
            assert!(delivered(&[q]) > 0);
            assert_eq!(count(&snap.detection_by_query, q.0), delivered(&[q]), "query {q:?}");
        }
        let templates = multi.stats().templates;
        for (t, subs) in templates.iter().zip(ids.chunks(3)) {
            assert_eq!(count(&snap.detection_by_template, t.digest), delivered(subs));
        }
    }

    /// A rejection mid-batch processes the admitted prefix, then drops
    /// the matches it completed: they are live and counted as emitted,
    /// yet never returned. This pins today's loss (see
    /// [`MultiQueryEngine::try_advance_batch`]); a caller-owned output
    /// sink is the fix.
    #[test]
    fn rejection_mid_batch_drops_the_admitted_prefix_matches() {
        let mut multi: MultiQueryEngine = MultiQueryEngine::new(100);
        let q0 = multi.register(plan(0));
        // The third arrival is out of order: the default policy rejects.
        let batch = [open_edge(1, 0, 5), close_edge(2, 0, 6), open_edge(3, 0, 4)];
        assert!(multi.try_advance_batch(&batch).is_err());
        assert_eq!(multi.window_len(), 2, "the prefix was admitted");
        assert_eq!(multi.live_match_count(q0), Some(1), "its match was completed");
        assert_eq!(multi.counters_of(q0), Some((2, 1)), "and counted as delivered");
        // Resuming past the offender is well-defined: the prefix stays.
        let out = multi.try_advance_batch(&[close_edge(4, 0, 7)]).unwrap();
        assert_eq!(out, vec![(q0, MatchRecord::from(vec![EdgeId(1), EdgeId(4)]))]);
    }

    /// Twins with different numberings form separate remap groups, and
    /// dropping one group (its last member leaves) re-points the groups
    /// after it: the survivors keep receiving their own edge order.
    #[test]
    fn remap_groups_survive_churn() {
        // v0 →ε0 v1 →ε1 v2 →ε2 v3, ε0 ≺ ε1 ≺ ε2, listed so that
        // subscriber edge `s` is founder edge `order[s]`.
        let path3 = |order: [usize; 3]| {
            let base = [(0, 1), (1, 2), (2, 3)];
            let pos = |f: usize| order.iter().position(|&o| o == f).unwrap();
            let edges = order
                .iter()
                .map(|&f| QueryEdge { src: base[f].0, dst: base[f].1, label: ELabel::NONE })
                .collect();
            let labels = (0..4).map(VLabel).collect();
            let q = QueryGraph::new(labels, edges, &[(pos(0), pos(1)), (pos(1), pos(2))]).unwrap();
            QueryPlan::build(q, PlanOptions::timing())
        };
        let hop = |id: u64, h: u32, ts: u64| {
            StreamEdge::new(id, 10 + h, h as u16, 11 + h, h as u16 + 1, 0, ts)
        };
        let mut multi: MultiQueryEngine = MultiQueryEngine::new(100);
        let f = multi.register(path3([0, 1, 2]));
        let ta = multi.register(path3([2, 1, 0]));
        let tb = multi.register(path3([1, 0, 2]));
        let ta2 = multi.register(path3([2, 1, 0]));
        assert_eq!(multi.n_templates(), 1);
        let check = |out: &[(QueryId, MatchRecord)], twins: &[(QueryId, [usize; 3])]| {
            let base: Vec<&MatchRecord> =
                out.iter().filter(|(q, _)| *q == f).map(|(_, m)| m).collect();
            assert!(!base.is_empty());
            for &(q, order) in twins {
                let got: Vec<&MatchRecord> =
                    out.iter().filter(|(x, _)| *x == q).map(|(_, m)| m).collect();
                let want: Vec<MatchRecord> = base
                    .iter()
                    .map(|m| {
                        MatchRecord::from(order.iter().map(|&o| m.edge(o)).collect::<Vec<_>>())
                    })
                    .collect();
                assert_eq!(got, want.iter().collect::<Vec<_>>(), "subscriber {q:?}");
            }
        };
        let mut out = Vec::new();
        for (i, h) in [0, 1, 2].into_iter().enumerate() {
            out.extend(multi.advance(hop(i as u64 + 1, h, i as u64 + 1)));
        }
        check(&out, &[(ta, [2, 1, 0]), (tb, [1, 0, 2]), (ta2, [2, 1, 0])]);
        // Group [2, 1, 0] loses both members and goes; [1, 0, 2] moves up.
        assert!(multi.unregister(ta));
        assert!(multi.unregister(ta2));
        let mut out = Vec::new();
        for (i, h) in [0, 1, 2].into_iter().enumerate() {
            out.extend(multi.advance(hop(i as u64 + 4, h, i as u64 + 4)));
        }
        check(&out, &[(tb, [1, 0, 2])]);
        assert_eq!(multi.counters_of(tb), Some((6, 4)));
    }
}
