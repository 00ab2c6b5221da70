//! The sharded concurrent front-end: queries partitioned across worker
//! threads, shared-nothing shards, signature-routed fan-out — with the
//! fault-tolerance layer on top.
//!
//! Serial [`MultiQueryEngine`] throughput is bounded by one core; a
//! multi-tenant deployment has thousands of independent queries and
//! machines with many cores. [`ShardedMultiEngine`] homes every query on
//! exactly one shard (see the crate docs, "Shard ownership"), gives each
//! shard its own window + live-edge table + dispatch index, and during
//! [`ShardedMultiEngine::process`] streams **chunks** of edges over a
//! bounded channel (`tcs_concurrent::chan`) to exactly the shards whose
//! routing entry says some homed query can react: the dispatcher
//! accumulates each shard's routed substream into a pending chunk and
//! flushes it when it reaches [`CHUNK`] edges (and at end of batch), so
//! workers pay one channel round-trip and one batched
//! [`MultiQueryEngine::advance_batch`] call per chunk instead of one
//! `advance` per edge. Shards never exchange state, so the only
//! synchronization is the channels' own back-pressure.
//!
//! # Fault handling
//!
//! Three fault classes, three blast radii (crate docs, "Failure model"):
//!
//! * **Query faults.** Shards run under [`FaultPolicy::Quarantine`]: a
//!   panic inside one query's per-arrival work condemns only that query.
//!   The shard records a [`QueryFault`](crate::QueryFault) and keeps
//!   serving; the worker thread and its channel stay alive, so the
//!   dispatcher never observes a dead channel for this class. After each
//!   batch the front-end reconciles shard quarantines into its own
//!   tables (homing, loads, routing).
//! * **Worker faults.** A panic *outside* the per-query boundary (e.g.
//!   the `worker-loop` failpoint) kills the whole worker thread; its
//!   channel reports disconnected and the dispatcher simply stops
//!   feeding that shard for the rest of the batch — other shards are
//!   unaffected. After the batch the supervisor rebuilds the dead shard,
//!   **re-homes its surviving queries** under their original ids, and
//!   **replays** the shard's replay log into it (see "Loss-free
//!   restart" below), so the batch's output includes the dead shard's
//!   matches and later batches find matches spanning the restart
//!   ([`ShardHealth::restarts`](crate::ShardHealth::restarts) counts
//!   rebuilds).
//! * **Overload.** The dispatcher→worker channels apply the configured
//!   [`OverloadPolicy`]: lossless back-pressure (default), or bounded
//!   shedding with per-shard loss counters. Shedding happens at chunk
//!   granularity (a full channel loses a whole pending chunk), but the
//!   loss counters stay in **edges** — a shed chunk adds its length.
//!
//! # Loss-free restart
//!
//! The front-end keeps one replay log per shard: every edge routed to
//! the shard, tagged with its admission ordinal, from the oldest edge
//! still inside the window up to the end of the current batch (it is
//! cut back to the window after each batch). A shard's match state is a
//! function of exactly those edges, because anything older expires
//! before the next arrival can join it. A rebuilt shard is fed its log
//! edge by edge, and each surviving query is re-registered just before
//! the first logged edge admitted after its original registration, so
//! it sees what it saw before (crate docs, "Registration semantics").
//! Matches completed by edges of earlier batches were already delivered
//! and are dropped; matches completed by the current batch's edges are
//! returned with it. Under back-pressure the result is the output of a
//! run without the fault. Under a shedding policy the log also holds the
//! edges that were shed, so a rebuilt shard may see more than the dead
//! one did. Per-query counters are not carried over: after a rebuild they
//! count the replayed substream. The log is front-end memory and is not
//! part of [`MultiStats::space_bytes`], which counts match state.
//!
//! Replay runs on the caller's thread under the shards' query
//! quarantine. A panic outside that boundary during replay (the
//! `shard-replay` failpoint, or a shard-level fault that the same edges
//! trigger again) leaves the shard rebuilt with empty windows, as a late
//! registration would be, and counts one
//! [`ShardHealth::replay_failures`](crate::ShardHealth::replay_failures).
//!
//! # Per-shard substream counters (contract)
//!
//! Each shard's window sees only the edges routed to it, so a query's
//! `edges_processed`/`edges_discarded` in [`ShardedMultiEngine::stats`]
//! are **relative to its home shard's substream**, not the full stream —
//! match, partial and join counters are exact either way. This is the
//! documented contract of `stats()`; use
//! [`ShardedMultiEngine::stats_normalized`] to scale the edge counters to
//! full-stream semantics (what N independent engines fed every admitted
//! edge would report).

use crate::engine::{MultiQueryEngine, MultiStats, QueryId};
use crate::fault::{FaultPolicy, OverloadPolicy, ShardHealth};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use tcs_concurrent::chan::{self, TrySendError};
use tcs_core::fail_point;
use tcs_core::failpoints::sites;
use tcs_core::store::MatchStore;
use tcs_core::{
    IngestError, IngestGate, IngestStats, MsTreeStore, OrderPolicy, PlanFingerprint, QueryPlan,
};
use tcs_graph::{ELabel, IdMap, MatchRecord, StreamEdge, VLabel};
use tcs_telemetry::{EventKind, Recorder, ShardLoad};

/// Edges per dispatcher→worker chunk. Large enough that workers amortize
/// channel synchronization and run the batched
/// [`MultiQueryEngine::advance_batch`] ingest path over same-signature
/// runs; small enough that a tight channel capacity
/// ([`ShardedMultiEngine::set_channel_capacity`]) still exerts
/// back-pressure and shedding on short streams.
pub const CHUNK: usize = 16;

/// One dispatcher→worker unit: a routed sub-batch plus — telemetry only
/// — its enqueue instant, so a shard can charge queue wait to detection
/// latency ([`MultiQueryEngine::try_advance_batch_stamped`]).
struct Chunk {
    at: Option<Instant>,
    edges: Vec<StreamEdge>,
}

/// Sends one pending chunk to a worker under the configured overload
/// policy. A disconnected channel (dead worker) retires the sender; loss
/// counters are incremented by the shed chunk's length, keeping
/// [`ShardHealth`] counters in edges. While a recorder is armed the
/// chunk is stamped at enqueue, the queue-depth high-water mark is
/// tracked, and every shed chunk logs one structured event.
fn flush_chunk(
    s: usize,
    txs: &mut [Option<chan::Sender<Chunk>>],
    edges: Vec<StreamEdge>,
    overload: OverloadPolicy,
    health: &mut [ShardHealth],
    rec: Option<&Recorder>,
    hwm: &mut [u64],
) {
    let Some(tx) = txs[s].as_ref() else {
        return;
    };
    if rec.is_some() {
        // Depth including this enqueue — a load gauge, racy by nature
        // (the worker drains concurrently).
        hwm[s] = hwm[s].max(tx.len() as u64 + 1);
    }
    let chunk = Chunk { at: rec.map(|_| Instant::now()), edges };
    match overload {
        OverloadPolicy::Backpressure => {
            if tx.send(chunk).is_err() {
                txs[s] = None;
            }
        }
        OverloadPolicy::ShedNewest => match tx.try_send(chunk) {
            Ok(()) => {}
            Err(TrySendError::Full(c)) => {
                health[s].shed_newest += c.edges.len() as u64;
                if let Some(rec) = rec {
                    rec.event(EventKind::Shed {
                        shard: s as u64,
                        edges: c.edges.len() as u64,
                        newest: true,
                    });
                }
            }
            Err(TrySendError::Disconnected(_)) => txs[s] = None,
        },
        OverloadPolicy::ShedOldest => match tx.send_evict(chunk) {
            Ok(None) => {}
            Ok(Some(c)) => {
                health[s].shed_oldest += c.edges.len() as u64;
                if let Some(rec) = rec {
                    rec.event(EventKind::Shed {
                        shard: s as u64,
                        edges: c.edges.len() as u64,
                        newest: false,
                    });
                }
            }
            Err(_) => txs[s] = None,
        },
    }
}

/// A pool of shared-nothing [`MultiQueryEngine`] shards behind a
/// signature-routed fan-out. Registration churn happens between
/// [`ShardedMultiEngine::process`] calls (the front-end is single-threaded
/// outside `process`); each `process` call runs one worker thread per
/// shard, supervised as described in the module docs.
pub struct ShardedMultiEngine<S: MatchStore = MsTreeStore> {
    shards: Vec<MultiQueryEngine<S>>,
    /// signature → shard indices with ≥ 1 homed query reacting to it
    /// (the union of the shards' own dispatch indexes, at shard
    /// granularity).
    route: IdMap<(VLabel, VLabel, ELabel), Vec<usize>>,
    /// query → its home shard (queries only migrate with their shard on a
    /// supervisor rebuild, never individually).
    home: IdMap<QueryId, usize>,
    /// Engines homed per shard, for least-loaded placement: one unit per
    /// *template* (duplicate registrations ride their template's shard
    /// for free).
    loads: Vec<usize>,
    /// canonical fingerprint → the shard its shared template lives on:
    /// duplicate registrations must land on the same shard or they
    /// cannot share an engine.
    template_home: IdMap<PlanFingerprint, usize>,
    /// canonical fingerprint → live subscriber count (the refcount that
    /// retires a [`ShardedMultiEngine::template_home`] entry).
    template_refs: IdMap<PlanFingerprint, usize>,
    /// query → its canonical fingerprint.
    fp_of: IdMap<QueryId, PlanFingerprint>,
    /// Admitted arrivals fed through [`ShardedMultiEngine::process`] —
    /// the front-end's own count, since per-shard counts only cover
    /// routed substreams (and overlap when shards share a signature).
    edges_fed: u64,
    /// Window duration, kept so the supervisor can rebuild a shard.
    window: u64,
    /// The stream-boundary gate: full-batch validation before fan-out.
    gate: IngestGate,
    /// What the dispatcher does at a full worker channel.
    overload: OverloadPolicy,
    /// Dispatcher→worker channel capacity.
    channel_cap: usize,
    /// Per-shard shed/restart counters.
    health: Vec<ShardHealth>,
    /// Per-shard replay logs: `(admission ordinal, edge)` for every edge
    /// routed to the shard that may still join a later arrival, plus the
    /// current batch (module docs, "Loss-free restart").
    replay: Vec<VecDeque<(u64, StreamEdge)>>,
    /// How many entries of each shard's fault log the front-end has
    /// already reconciled into its homing/routing tables.
    faults_seen: Vec<usize>,
    /// Value of `edges_fed` when each live query registered — the base
    /// for [`ShardedMultiEngine::stats_normalized`].
    fed_base: IdMap<QueryId, u64>,
    /// The telemetry seam: `None` (default) until
    /// [`ShardedMultiEngine::set_recorder`] arms it.
    tel: Option<Arc<Recorder>>,
    /// Telemetry sampling tick for front-end hot-key recording.
    tel_tick: u32,
    /// Edges routed to each shard since construction (telemetry gauge;
    /// shed chunks still count — they were routed).
    routed: Vec<u64>,
    /// Per-shard dispatcher→worker queue-depth high-water mark, in
    /// chunks (telemetry gauge, tracked only while a recorder is armed).
    queue_hwm: Vec<u64>,
}

impl<S: MatchStore> ShardedMultiEngine<S> {
    /// A front-end of `n_shards` empty shards over windows of the given
    /// duration. Shard `i` allocates [`QueryId`]s `i, i + n, i + 2n, …`,
    /// so ids are globally unique without coordination. Shards run under
    /// [`FaultPolicy::Quarantine`].
    pub fn new(window: u64, n_shards: usize) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        let shards = (0..n_shards)
            .map(|i| {
                let mut sh = MultiQueryEngine::with_id_stride(window, i as u64, n_shards as u64);
                sh.set_fault_policy(FaultPolicy::Quarantine);
                sh
            })
            .collect();
        ShardedMultiEngine {
            shards,
            route: IdMap::default(),
            home: IdMap::default(),
            loads: vec![0; n_shards],
            template_home: IdMap::default(),
            template_refs: IdMap::default(),
            fp_of: IdMap::default(),
            edges_fed: 0,
            window,
            gate: IngestGate::new(window, OrderPolicy::default()),
            overload: OverloadPolicy::default(),
            channel_cap: 1024,
            health: (0..n_shards)
                .map(|shard| ShardHealth { shard, ..Default::default() })
                .collect(),
            replay: vec![VecDeque::new(); n_shards],
            faults_seen: vec![0; n_shards],
            fed_base: IdMap::default(),
            tel: None,
            tel_tick: 0,
            routed: vec![0; n_shards],
            queue_hwm: vec![0; n_shards],
        }
    }

    /// Arms telemetry across the front-end and every shard. The
    /// front-end records endpoint hot-key traffic once at routing time,
    /// per-shard load gauges (routed edges, queue-depth high-water mark,
    /// shed, restarts) after each batch, and shed / worker-restart
    /// events; shards record advance latency, detection latency (chunks
    /// are stamped at enqueue, so queue wait counts) and lifecycle
    /// events, with shard-level hot-key counting off — an edge fanned to
    /// several shards would otherwise be counted once per shard.
    /// Telemetry never perturbs [`MultiStats`] or the match stream.
    pub fn set_recorder(&mut self, rec: Arc<Recorder>) {
        for sh in &mut self.shards {
            sh.set_recorder_scoped(Arc::clone(&rec), false);
        }
        self.tel = Some(rec);
    }

    /// Disarms telemetry everywhere; the recorder keeps what it has.
    pub fn clear_recorder(&mut self) {
        self.tel = None;
        for sh in &mut self.shards {
            sh.clear_recorder();
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of registered queries across all shards.
    pub fn n_queries(&self) -> usize {
        self.home.len()
    }

    /// Number of live shared templates (engines actually running) across
    /// all shards.
    pub fn n_templates(&self) -> usize {
        self.shards.iter().map(MultiQueryEngine::n_templates).sum()
    }

    /// The home shard of a registered query.
    pub fn shard_of(&self, id: QueryId) -> Option<usize> {
        self.home.get(&id).copied()
    }

    /// The active out-of-order arrival policy of the front-end gate.
    pub fn order_policy(&self) -> OrderPolicy {
        self.gate.policy()
    }

    /// Replaces the front-end gate's out-of-order policy (effective from
    /// the next batch). Shard-local gates never reject: routed substreams
    /// of the sanitized stream are nondecreasing by construction.
    pub fn set_order_policy(&mut self, policy: OrderPolicy) {
        self.gate.set_policy(policy);
    }

    /// Ingestion-boundary counters of the front-end gate.
    pub fn ingest_stats(&self) -> IngestStats {
        self.gate.stats()
    }

    /// The active overload policy (default
    /// [`OverloadPolicy::Backpressure`]).
    pub fn overload_policy(&self) -> OverloadPolicy {
        self.overload
    }

    /// Replaces the overload policy (effective from the next batch).
    pub fn set_overload_policy(&mut self, policy: OverloadPolicy) {
        self.overload = policy;
    }

    /// Resizes the dispatcher→worker channels (effective from the next
    /// batch; clamped to ≥ 1). Capacity counts **chunks** of up to
    /// [`CHUNK`] edges, not single edges. Smaller buffers trade
    /// throughput for earlier shedding/back-pressure.
    pub fn set_channel_capacity(&mut self, cap: usize) {
        self.channel_cap = cap.max(1);
    }

    /// Every quarantined query across all shards, in shard order (each
    /// shard's log in its own fault order).
    pub fn faults(&self) -> Vec<crate::QueryFault> {
        self.shards.iter().flat_map(|sh| sh.faults().iter().cloned()).collect()
    }

    /// The least-loaded shard (engines, not queries — see `loads`).
    fn least_loaded(&self) -> usize {
        self.loads.iter().enumerate().min_by_key(|&(_, &n)| n).map(|(i, _)| i).unwrap_or_default()
        // n_shards >= 1 — the constructor asserts it
    }

    /// Homes a compiled plan and registers it; returns its globally
    /// unique id. A plan whose canonical fingerprint already has a live
    /// template lands on that template's shard (duplicates must cohabit
    /// to share an engine) and adds no load; a new template goes to the
    /// least-loaded shard and counts one load unit.
    pub fn register(&mut self, plan: QueryPlan) -> QueryId {
        let fp = PlanFingerprint::of(&plan.query);
        let shard = self.template_home.get(&fp).copied().unwrap_or_else(|| self.least_loaded());
        let sigs: Vec<_> = plan.signatures().collect();
        let id = self.shards[shard].register(plan);
        self.home.insert(id, shard);
        self.fed_base.insert(id, self.edges_fed);
        let refs = self.template_refs.entry(fp.clone()).or_insert(0);
        *refs += 1;
        if *refs == 1 {
            self.template_home.insert(fp.clone(), shard);
            self.loads[shard] += 1;
        }
        self.fp_of.insert(id, fp);
        for sig in sigs {
            let bucket = self.route.entry(sig).or_default();
            if !bucket.contains(&shard) {
                bucket.push(shard);
            }
        }
        id
    }

    /// Releases one query's load accounting: the last subscriber of a
    /// template frees its load unit and its homing entry.
    fn release_load(&mut self, id: QueryId, shard: usize) {
        let Some(fp) = self.fp_of.remove(&id) else {
            debug_assert!(false, "registered query has a fingerprint");
            return;
        };
        let Some(refs) = self.template_refs.get_mut(&fp) else {
            debug_assert!(false, "fingerprinted query has a template refcount");
            return;
        };
        *refs -= 1;
        if *refs == 0 {
            self.template_refs.remove(&fp);
            self.template_home.remove(&fp);
            self.loads[shard] -= 1;
        }
    }

    /// Unregisters a query from its home shard and prunes routing entries
    /// the shard no longer needs. Returns false if the id is unknown.
    pub fn unregister(&mut self, id: QueryId) -> bool {
        let Some(shard) = self.home.remove(&id) else {
            return false;
        };
        let removed = self.shards[shard].unregister(id);
        debug_assert!(removed, "home table and shard registry agree");
        self.release_load(id, shard);
        self.fed_base.remove(&id);
        self.rebuild_route();
        removed
    }

    /// Re-derives the routing table from the shards' dispatch indexes:
    /// registration churn and quarantines are rare next to stream volume,
    /// and a full rebuild cannot leave a stale entry behind.
    fn rebuild_route(&mut self) {
        self.route.clear();
        for (i, sh) in self.shards.iter().enumerate() {
            for sig in sh.signatures() {
                self.route.entry(sig).or_default().push(i);
            }
        }
    }

    /// Streams a batch of edges through the shard pool: one worker thread
    /// per shard, each edge fanned out — in [`CHUNK`]-sized sub-batches —
    /// to exactly the shards that can react (an edge no query reacts to
    /// costs one routing lookup on the front-end thread and nothing
    /// anywhere else). Returns the completed
    /// `(query, match)` pairs; order across shards is unspecified, within
    /// one query it is stream order.
    ///
    /// Panics on invalid input ([`IngestError`]) — stream owners that
    /// must survive a misbehaving source use
    /// [`ShardedMultiEngine::try_process`] or a lenient [`OrderPolicy`].
    pub fn process(&mut self, stream: &[StreamEdge]) -> Vec<(QueryId, MatchRecord)>
    where
        S: Send,
    {
        match self.try_process(stream) {
            Ok(out) => out,
            Err(err) => panic!("ShardedMultiEngine::process fed invalid input: {err}"),
        }
    }

    /// [`ShardedMultiEngine::process`] with the ingestion boundary
    /// surfaced, **batch-atomically**: the whole batch is validated
    /// through the front-end gate before any edge is dispatched, so on
    /// `Err` *no* edge of the batch was admitted anywhere — fix or drop
    /// the offender and resubmit. Out-of-order arrivals follow the gate's
    /// [`OrderPolicy`]; edges it clamps or drops are rewritten/silently
    /// removed before fan-out.
    pub fn try_process(
        &mut self,
        stream: &[StreamEdge],
    ) -> Result<Vec<(QueryId, MatchRecord)>, IngestError>
    where
        S: Send,
    {
        // Validate on a staged copy of the gate; commit only if the whole
        // batch passes. The clone is proportional to the live window —
        // cheap next to dispatching the batch.
        let mut staged = self.gate.clone();
        let mut sanitized = Vec::with_capacity(stream.len());
        for &e in stream {
            if let Some(e) = staged.admit(e)? {
                sanitized.push(e);
            }
        }
        self.gate = staged;
        // Admission ordinal of the batch's first edge: the replay log's
        // tag, compared against each query's `fed_base`.
        let batch_start = self.edges_fed;
        self.edges_fed += sanitized.len() as u64;
        if let Some(rec) = &self.tel {
            // Hot keys are counted HERE, once per sanitized edge (on the
            // latency sampling cadence) — shards run with hot-key
            // recording off so multi-shard fan-out cannot double-count.
            let every = rec.sample_every();
            for e in &sanitized {
                self.tel_tick += 1;
                if self.tel_tick >= every {
                    self.tel_tick = 0;
                    rec.record_key(u64::from(e.src.0));
                    if e.dst != e.src {
                        rec.record_key(u64::from(e.dst.0));
                    }
                }
            }
        }

        let n = self.shards.len();
        let mut outs: Vec<Vec<(QueryId, MatchRecord)>> = Vec::with_capacity(n);
        let mut dead: Vec<usize> = Vec::new();
        {
            let route = &self.route;
            let overload = self.overload;
            let cap = self.channel_cap;
            let health = &mut self.health;
            let rec = self.tel.as_deref();
            let routed = &mut self.routed;
            let hwm = &mut self.queue_hwm;
            let replay = &mut self.replay;
            std::thread::scope(|scope| {
                let mut txs = Vec::with_capacity(n);
                let mut handles = Vec::with_capacity(n);
                for (i, sh) in self.shards.iter_mut().enumerate() {
                    let (tx, rx) = chan::bounded::<Chunk>(cap);
                    txs.push(Some(tx));
                    handles.push(scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            // The supervisor's target: a panic armed here
                            // (tag = shard index) kills the whole worker,
                            // not one query.
                            fail_point!(sites::WORKER_LOOP, i as u64);
                            match rx.recv() {
                                Ok(chunk) => {
                                    match sh.try_advance_batch_stamped(&chunk.edges, chunk.at) {
                                        Ok(ms) => out.extend(ms),
                                        Err(err) => panic!("sanitized stream rejected: {err}"),
                                    }
                                }
                                Err(_) => break,
                            }
                        }
                        out
                    }));
                }
                // Per-shard pending chunks: routed edges accumulate here
                // and flush as whole sub-batches, so workers run the
                // batched ingest path (signature runs) instead of one
                // `advance` per edge. A dead worker's channel reports
                // disconnected; `flush_chunk` retires it (the supervisor
                // deals with the corpse after the batch) — a survivable
                // fault never kills the dispatch loop. Every routed edge
                // enters the shard's replay log, whether or not its
                // worker is still alive to take it.
                let mut pending: Vec<Vec<StreamEdge>> = vec![Vec::new(); n];
                for (seq, &e) in (batch_start..).zip(&sanitized) {
                    let Some(shards) = route.get(&e.signature()) else {
                        continue;
                    };
                    for &s in shards {
                        replay[s].push_back((seq, e));
                        if txs[s].is_none() {
                            continue;
                        }
                        routed[s] += 1;
                        pending[s].push(e);
                        if pending[s].len() >= CHUNK {
                            let chunk = std::mem::take(&mut pending[s]);
                            flush_chunk(s, &mut txs, chunk, overload, health, rec, hwm);
                        }
                    }
                }
                for (s, chunk) in pending.into_iter().enumerate() {
                    if !chunk.is_empty() {
                        flush_chunk(s, &mut txs, chunk, overload, health, rec, hwm);
                    }
                }
                // Dropping the senders disconnects the channels; workers
                // drain what is buffered and return their matches.
                drop(txs);
                for (i, h) in handles.into_iter().enumerate() {
                    match h.join() {
                        Ok(out) => outs.push(out),
                        Err(_) => dead.push(i),
                    }
                }
            });
        }
        // Supervisor: rebuild dead shards (restart the worker's engine,
        // re-home its surviving queries under their original ids, replay
        // the shard's log and keep this batch's matches), then cut every
        // log back to the window and fold shard-level quarantines into
        // the front-end tables.
        for i in dead {
            outs.push(self.rebuild_shard(i, batch_start));
        }
        if let Some(last) = sanitized.last() {
            self.trim_replay_logs(last.ts.0);
        }
        self.reconcile_quarantines();
        self.publish_shard_loads();
        Ok(outs.into_iter().flatten().collect())
    }

    /// Telemetry: publishes the per-shard load gauges after a batch
    /// (no-op while disarmed).
    fn publish_shard_loads(&self) {
        let Some(rec) = &self.tel else { return };
        for (i, h) in self.health.iter().enumerate() {
            rec.set_shard_load(ShardLoad {
                shard: i as u64,
                edges_routed: self.routed[i],
                queue_depth_hwm: self.queue_hwm[i],
                shed: h.shed_oldest + h.shed_newest,
                restarts: h.restarts,
            });
        }
    }

    /// Replaces a dead shard with a fresh engine continuing the same id
    /// sequence, carries the fault log over, re-registers its surviving
    /// queries under their original ids and replays the shard's log into
    /// it (module docs, "Loss-free restart"). Returns the matches that
    /// edges admitted at or after `batch_start` complete — the dead
    /// worker's share of the current batch.
    fn rebuild_shard(&mut self, i: usize, batch_start: u64) -> Vec<(QueryId, MatchRecord)> {
        if let Some(rec) = &self.tel {
            rec.event(EventKind::WorkerRestart { shard: i as u64 });
        }
        self.health[i].restarts += 1;
        // Each survivor with the admission ordinal it registered at, in
        // registration order (ids grow with registration on one shard).
        let mut regs: Vec<(u64, QueryId, QueryPlan)> = self.shards[i]
            .registrations()
            .into_iter()
            .map(|(qid, plan)| (self.fed_base.get(&qid).copied().unwrap_or_default(), qid, plan))
            .collect();
        regs.sort_by_key(|&(base, qid, _)| (base, qid));

        let mut fresh = self.respawn(i);
        let log = &self.replay[i];
        let replayed = catch_unwind(AssertUnwindSafe(|| {
            fail_point!(sites::SHARD_REPLAY, i as u64);
            let mut pending = regs.iter().peekable();
            let mut out = Vec::new();
            for &(seq, e) in log {
                while let Some((_, qid, plan)) = pending.next_if(|r| r.0 <= seq) {
                    fresh.register_as(*qid, plan.clone());
                }
                match fresh.try_advance(e) {
                    Ok(ms) if seq >= batch_start => out.extend(ms),
                    Ok(_) => {}
                    Err(err) => panic!("replay log rejected by a fresh shard: {err}"),
                }
            }
            for (_, qid, plan) in pending {
                fresh.register_as(*qid, plan.clone());
            }
            out
        }));
        match replayed {
            Ok(out) => {
                self.shards[i] = fresh;
                out
            }
            Err(_) => {
                // The replay itself died: re-home onto empty windows.
                let mut empty = self.respawn(i);
                for (_, qid, plan) in regs {
                    empty.register_as(qid, plan);
                }
                self.shards[i] = empty;
                self.health[i].replay_failures += 1;
                Vec::new()
            }
        }
    }

    /// A fresh, query-less engine for shard `i`: the same id sequence,
    /// policies, fault log and recorder as the shard it replaces. The
    /// recorder is armed before anything registers, so each re-homed
    /// query's registration lands in the event log.
    fn respawn(&self, i: usize) -> MultiQueryEngine<S> {
        let stride = self.shards.len() as u64;
        let old = &self.shards[i];
        let mut fresh = MultiQueryEngine::with_id_stride(self.window, old.next_raw_id(), stride);
        fresh.set_fault_policy(FaultPolicy::Quarantine);
        fresh.set_order_policy(old.order_policy());
        fresh.adopt_faults(old.faults().to_vec());
        if let Some(rec) = &self.tel {
            fresh.set_recorder_scoped(Arc::clone(rec), false);
        }
        fresh
    }

    /// Cuts every replay log back to the edges a later arrival can still
    /// join: those with `ts > watermark − |W|`. Older edges expire before
    /// any arrival at or after the watermark reaches a join, whatever the
    /// shard's own window still holds.
    fn trim_replay_logs(&mut self, watermark: u64) {
        let Some(bound) = watermark.checked_sub(self.window) else {
            return;
        };
        for log in &mut self.replay {
            while log.front().is_some_and(|(_, e)| e.ts.0 <= bound) {
                log.pop_front();
            }
        }
    }

    /// Folds shard-level quarantines the front-end has not seen yet into
    /// its homing/load/normalization tables, then rebuilds the routing
    /// table so no stale signature entry survives.
    fn reconcile_quarantines(&mut self) {
        let mut quarantined: Vec<(QueryId, usize)> = Vec::new();
        for (i, sh) in self.shards.iter().enumerate() {
            let log = sh.faults();
            for f in &log[self.faults_seen[i].min(log.len())..] {
                if self.home.remove(&f.qid).is_some() {
                    quarantined.push((f.qid, i));
                    self.fed_base.remove(&f.qid);
                }
            }
            self.faults_seen[i] = log.len();
        }
        for (qid, shard) in quarantined {
            self.release_load(qid, shard);
        }
        self.rebuild_route();
    }

    /// Merged per-query stats across shards. Space is exact (each shard's
    /// live-edge table appears once, per-query stores on top) and `edges_seen`
    /// is the front-end's own admitted-arrival count (per-shard counts
    /// would double-count signatures homed on several shards and miss
    /// edges no query reacts to). The report also carries every shard's
    /// fault log, the front-end gate's ingest counters, and per-shard
    /// health.
    ///
    /// **Contract on the per-query edge counters:** each shard only sees
    /// its routed substream, so a query's
    /// `edges_processed`/`edges_discarded` here are relative to its home
    /// shard's deliveries, not the full stream — match, partial and join
    /// counters are exact. [`ShardedMultiEngine::stats_normalized`]
    /// rescales to full-stream counts.
    pub fn stats(&self) -> MultiStats {
        let mut merged = MultiStats::default();
        for sh in &self.shards {
            let st = sh.stats();
            merged.queries.extend(st.queries);
            merged.templates.extend(st.templates);
            merged.snapshot_bytes += st.snapshot_bytes;
            merged.faults.extend(st.faults);
        }
        merged.edges_seen = self.edges_fed;
        merged.ingest = self.gate.stats();
        merged.shards = self.health.clone();
        merged.queries.sort_by_key(|q| q.id);
        merged
    }

    /// [`ShardedMultiEngine::stats`] with the per-query edge counters
    /// scaled to **full-stream** semantics: every admitted arrival since
    /// a query's registration that its home shard did not deliver to it
    /// (not routed, shed, or counted only before its shard's last
    /// rebuild, since a rebuilt shard's counters start over) is counted as
    /// processed-and-discarded — what an independent engine fed the whole
    /// sanitized stream would have done with it. Match, partial and join
    /// counters are identical to [`ShardedMultiEngine::stats`].
    pub fn stats_normalized(&self) -> MultiStats {
        let mut st = self.stats();
        for q in &mut st.queries {
            let Some(&base) = self.fed_base.get(&q.id) else {
                debug_assert!(false, "registered query has a fed_base entry");
                continue;
            };
            let since = self.edges_fed - base;
            let extra = since.saturating_sub(q.stats.edges_processed);
            q.stats.edges_processed += extra;
            q.stats.edges_discarded += extra;
        }
        st
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use tcs_core::PlanOptions;
    use tcs_graph::query::QueryEdge;
    use tcs_graph::QueryGraph;

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

    fn tenant_stream(n_tenants: u16, rounds: u64) -> Vec<StreamEdge> {
        let mut out = Vec::new();
        let mut ts = 0u64;
        for r in 0..rounds {
            let t = (r % n_tenants as u64) as u16;
            ts += 1;
            if (r / n_tenants as u64).is_multiple_of(2) {
                out.push(StreamEdge::new(
                    ts,
                    1_000 + r as u32,
                    3 * t,
                    200 + t as u32,
                    3 * t + 1,
                    0,
                    ts,
                ));
            } else {
                out.push(StreamEdge::new(
                    ts,
                    200 + t as u32,
                    3 * t + 1,
                    10_000 + r as u32,
                    3 * t + 2,
                    0,
                    ts,
                ));
            }
        }
        out
    }

    #[test]
    fn sharded_equals_serial_registry() {
        let stream = tenant_stream(6, 240);
        let mut serial: MultiQueryEngine = MultiQueryEngine::new(25);
        let serial_ids: Vec<_> = (0..6u16).map(|t| serial.register(plan(t))).collect();
        let mut sharded: ShardedMultiEngine = ShardedMultiEngine::new(25, 3);
        let sharded_ids: Vec<_> = (0..6u16).map(|t| sharded.register(plan(t))).collect();
        assert_eq!(sharded.n_queries(), 6);

        let mut want: Vec<(usize, MatchRecord)> = Vec::new();
        for &e in &stream {
            for (qid, m) in serial.advance(e) {
                let tenant = serial_ids.iter().position(|&x| x == qid).unwrap();
                want.push((tenant, m));
            }
        }
        let mut got: Vec<(usize, MatchRecord)> = sharded
            .process(&stream)
            .into_iter()
            .map(|(qid, m)| (sharded_ids.iter().position(|&x| x == qid).unwrap(), m))
            .collect();
        want.sort();
        got.sort();
        assert_eq!(want, got);
        assert!(!want.is_empty(), "the workload produces matches");
    }

    #[test]
    fn registration_churn_between_batches() {
        let stream = tenant_stream(4, 160);
        let (first, second) = stream.split_at(80);
        let mut sharded: ShardedMultiEngine = ShardedMultiEngine::new(25, 2);
        let q0 = sharded.register(plan(0));
        let q1 = sharded.register(plan(1));
        let out1 = sharded.process(first);
        assert!(out1.iter().any(|(q, _)| *q == q0));
        assert!(out1.iter().any(|(q, _)| *q == q1));
        // Tenant 1 leaves, tenant 2 arrives between batches.
        assert!(sharded.unregister(q1));
        let q2 = sharded.register(plan(2));
        let out2 = sharded.process(second);
        assert!(out2.iter().all(|(q, _)| *q != q1), "unregistered query stays silent");
        assert!(out2.iter().any(|(q, _)| *q == q2), "late registration matches fresh patterns");
        // Stats merge across shards without losing anyone.
        let st = sharded.stats();
        assert_eq!(st.queries.len(), 2);
        assert!(st.space_bytes() >= st.snapshot_bytes);
    }

    /// The merged live-edge bytes are the shards' tables, summed: each
    /// shard holds exactly the routed edges still in its window.
    #[test]
    fn live_edge_bytes_sum_over_the_shards() {
        let per_edge =
            std::mem::size_of::<tcs_graph::EdgeId>() + std::mem::size_of::<(StreamEdge, u64)>();
        let mut sharded: ShardedMultiEngine = ShardedMultiEngine::new(10, 2);
        for t in 0..4u16 {
            sharded.register(plan(t));
        }
        for batch in tenant_stream(4, 200).chunks(9) {
            sharded.process(batch);
            let held: usize = sharded.shards.iter().map(|sh| sh.window_len()).sum();
            assert!(held > 0);
            assert_eq!(sharded.stats().snapshot_bytes, held * per_edge);
        }
    }

    #[test]
    fn least_loaded_placement_spreads_queries() {
        let mut sharded: ShardedMultiEngine = ShardedMultiEngine::new(10, 4);
        let ids: Vec<_> = (0..8u16).map(|t| sharded.register(plan(t))).collect();
        let mut per_shard = vec![0usize; 4];
        for &id in &ids {
            per_shard[sharded.shard_of(id).unwrap()] += 1;
        }
        assert_eq!(per_shard, vec![2, 2, 2, 2]);
        // Ids are globally unique and strided.
        let mut sorted: Vec<u64> = ids.iter().map(|q| q.0).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
    }

    /// Duplicate registrations land on their template's shard (sharing
    /// needs cohabitation) and cost no placement load, so distinct
    /// templates still spread evenly.
    #[test]
    fn duplicate_registrations_home_on_the_template_shard() {
        let mut sharded: ShardedMultiEngine = ShardedMultiEngine::new(10, 4);
        // 12 copies of tenant 0's template plus 3 distinct tenants.
        let copies: Vec<_> = (0..12).map(|_| sharded.register(plan(0))).collect();
        let others: Vec<_> = (1..4u16).map(|t| sharded.register(plan(t))).collect();
        let home0 = sharded.shard_of(copies[0]).unwrap();
        for &id in &copies {
            assert_eq!(sharded.shard_of(id), Some(home0), "copies cohabit");
        }
        assert_eq!(sharded.n_queries(), 15);
        assert_eq!(sharded.n_templates(), 4, "one engine per distinct template");
        // Load accounting is per template: every shard carries exactly
        // one engine despite the 12-subscriber pile-up.
        let mut homes: Vec<usize> =
            others.iter().map(|&id| sharded.shard_of(id).unwrap()).collect();
        homes.push(home0);
        homes.sort_unstable();
        homes.dedup();
        assert_eq!(homes.len(), 4, "distinct templates spread across all shards");
        // The last copy leaving frees the template's load unit.
        for &id in &copies {
            assert!(sharded.unregister(id));
        }
        assert_eq!(sharded.n_templates(), 3);
        let replacement = sharded.register(plan(0));
        assert!(sharded.shard_of(replacement).is_some());
        assert_eq!(sharded.n_templates(), 4);
    }

    #[test]
    fn try_process_is_batch_atomic_on_rejection() {
        let mut sharded: ShardedMultiEngine = ShardedMultiEngine::new(25, 2);
        let q0 = sharded.register(plan(0));
        let mut stream = tenant_stream(1, 8);
        // Corrupt one edge mid-batch: behind the watermark of its
        // predecessors.
        stream[5].ts = tcs_graph::Timestamp(1);
        let err = sharded.try_process(&stream).unwrap_err();
        assert!(matches!(err, IngestError::OutOfOrder { ts: 1, .. }));
        // Nothing was admitted or dispatched: the same batch minus the
        // offender goes through cleanly from scratch.
        assert_eq!(sharded.ingest_stats().admitted, 0);
        let st = sharded.stats();
        assert_eq!(st.edges_seen, 0);
        assert_eq!(st.queries[0].stats.edges_processed, 0);
        stream.remove(5);
        let out = sharded.try_process(&stream).unwrap();
        assert!(out.iter().any(|(q, _)| *q == q0));
        assert_eq!(sharded.ingest_stats().admitted, stream.len() as u64);
    }

    #[test]
    fn stats_normalized_scales_to_full_stream() {
        let stream = tenant_stream(4, 120);
        let mut sharded: ShardedMultiEngine = ShardedMultiEngine::new(25, 2);
        let ids: Vec<_> = (0..4u16).map(|t| sharded.register(plan(t))).collect();
        sharded.process(&stream);
        // Serial oracle over the same stream sees every edge for every
        // query (normalized semantics).
        let mut serial: MultiQueryEngine = MultiQueryEngine::new(25);
        let oracle_ids: Vec<_> = (0..4u16).map(|t| serial.register(plan(t))).collect();
        for &e in &stream {
            serial.advance(e);
        }
        let norm = sharded.stats_normalized();
        for (id, oid) in ids.iter().zip(&oracle_ids) {
            let got = norm.queries.iter().find(|q| q.id == *id).unwrap().stats;
            let want = serial.stats_of(*oid).unwrap();
            assert_eq!(got, want, "normalized sharded stats equal serial registry stats");
        }
        // The raw report, by contract, counts only the home shard's
        // substream: strictly fewer processed edges for at least one
        // query (two tenants share each shard here).
        let raw = sharded.stats();
        assert!(raw
            .queries
            .iter()
            .zip(&norm.queries)
            .any(|(r, n)| r.stats.edges_processed < n.stats.edges_processed));
    }
}
