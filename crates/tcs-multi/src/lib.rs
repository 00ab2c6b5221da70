//! Multi-query subsystem: many standing time-constrained queries over one
//! edge stream.
//!
//! The paper's engines answer **one** continuous query per stream; a
//! production deployment serves thousands of tenants watching the same
//! traffic. Running N independent [`TimingEngine`]s costs N copies of the
//! live window and N× per-edge work even when an arriving edge can match
//! none of a query's edge predicates. This crate removes both
//! multipliers:
//!
//! * [`MultiQueryEngine`] — a dynamic query registry over **one** shared
//!   [`SlidingWindow`](tcs_graph::SlidingWindow) and one live-edge table
//!   (each live edge with its admission number, and nothing else). Every
//!   registered query's engine resolves stored edge ids through the table
//!   (the [`LiveEdgeView`](tcs_graph::LiveEdgeView) seam in `tcs-core`),
//!   so the window is held once, not once per query. Like the paper's
//!   method, the registry keeps no snapshot graph of the window.
//! * **Signature-routed dispatch** — per-edge work is proportional to the
//!   queries that can actually react, not to the number registered (see
//!   the dispatch-index lifecycle below).
//! * [`ShardedMultiEngine`] — a concurrent front-end partitioning the
//!   registry across worker threads, one shard per core, with per-shard
//!   dispatch tables (see shard ownership below).
//!
//! # Dispatch-index lifecycle
//!
//! The index maps a label signature `(src VLabel, dst VLabel, ELabel)` to
//! the ids of the registered queries with at least one query edge of that
//! signature ([`QueryPlan::signatures`]). It is maintained purely by
//! registration churn:
//!
//! * [`MultiQueryEngine::register`] inserts the new id under every
//!   signature of the compiled plan;
//! * [`MultiQueryEngine::unregister`] removes the id from those buckets
//!   (dropping buckets that empty out);
//! * [`MultiQueryEngine::advance`] consults the index twice per window
//!   event — once per expired edge (only engines whose plans have
//!   deletion positions for the signature run Algorithm 2) and once for
//!   the arrival (only engines with candidate query edges run
//!   Algorithm 1). Everything else is untouched: an edge matching no
//!   registered signature costs one hash lookup total, not one per query.
//!
//! The keys are a prefilter exactly like the plans' own signature index:
//! a routed engine still runs its full candidate/self-loop/compatibility
//! checks, so dispatch is semantically invisible: N independent engines
//! each fed the whole stream through a private window emit the identical
//! per-query match streams, and `tests/multi_equivalence.rs` enforces it.
//!
//! # Registration semantics
//!
//! Queries register and unregister **mid-stream**. A query registered at
//! stream position `p` behaves exactly like a fresh independent
//! [`TimingEngine`] that starts consuming the stream at `p`: edges
//! already inside the window when it registers are *not* replayed into
//! it (they can resolve through the live-edge table but never enter the
//! newcomer's partial-match store, so they never appear in its matches).
//! Unregistering drops the query's store immediately; its
//! [`QueryId`] is never reused. Expiry routing to a query registered
//! after the expiring edge arrived is a no-op on its store — stores
//! ignore expiries for edges they never absorbed.
//!
//! # Sharing model
//!
//! A tenant fleet is dominated by *near-identical* standing queries —
//! the same fraud template registered thousands of times. The registry
//! therefore keys engines by **plan identity**, not registration:
//!
//! * **Identity** is the canonical
//!   [`PlanFingerprint`](tcs_core::plan::PlanFingerprint) — WL colour
//!   refinement plus individualize-and-refine over the query graph with
//!   its timing order, so two plans share iff they are the *same query
//!   up to edge/vertex numbering*, not merely textually equal. The
//!   first registration of a fingerprint founds a **template** (one
//!   [`TimingEngine`], one store); every later one becomes a
//!   *subscriber* on the existing template. Store bytes and per-edge
//!   work are paid once per template, never per subscriber.
//! * **Late joiners stay exact.** A subscriber joining a warm template
//!   records an emission *epoch*: the registry's arrival count at join.
//!   Fan-out reads each match's emission *floor* — the smallest
//!   admission number among its constituent edges — from the live-edge
//!   table, once per match and only for templates with such a
//!   subscriber, and delivers the match to a late subscriber only if
//!   `floor > epoch`. Admission numbers, not timestamps: two arrivals
//!   with one timestamp can fall on either side of a registration. A late joiner therefore
//!   sees exactly the matches built entirely from edges that arrived
//!   after it registered — byte-identical to a fresh independent
//!   engine, which the equivalence suites enforce under churn.
//! * **Deliveries are handles.** A
//!   [`MatchRecord`](tcs_graph::MatchRecord) is immutable and its clone
//!   is a refcount bump, so every subscriber in the founder's edge order
//!   receives the engine's own record: a delivery costs a pointer copy,
//!   not an allocation. Fan-out state — each subscriber's epoch, remap
//!   group and `emitted` count — lives in a `Vec` on the template, in
//!   registration order, so delivering a burst touches only the
//!   template, and a routed run that emitted nothing costs one counter
//!   bump.
//! * **Permuted twins** (same query, different edge numbering) share
//!   too: registration canonicalizes, and fan-out remaps each match's
//!   edge list back into the subscriber's own query-edge order. Twins
//!   with the same numbering form one *remap group*, deduplicated at
//!   registration: each burst is remapped once per group (on first
//!   demand, so an epoch-filtered group remaps nothing) and every
//!   member receives that one record.
//! * **Attribution.** Per-subscriber [`QueryStats`] carry `routed`
//!   (edges dispatched to the subscriber's template while it was live)
//!   and `emitted` (matches actually delivered past the epoch filter).
//!   `routed` is derived on read — one per-template counter minus the
//!   value it had when the subscriber registered — and engine work
//!   counters are likewise deltas from the subscriber's join point;
//!   template store bytes are charged to the founding subscriber and
//!   reported per template in [`MultiStats::templates`]. Unregistering
//!   the last subscriber drops the template and its store.
//! * **Blast radius.** Quarantine is per *template*: a fault while a
//!   shared template works unregisters every subscriber of that
//!   template (one [`QueryFault`] each, same payload and position), and
//!   the chaos tests pin it. The plan stays re-registerable; the next
//!   registration founds a fresh template.
//!
//! The sharded front-end homes registrations by fingerprint, so all
//! subscribers of a template land on the template's shard and the
//! per-shard loads count *templates*, not registrations.
//!
//! # Shard ownership
//!
//! [`ShardedMultiEngine`] owns `n_shards` single-threaded
//! [`MultiQueryEngine`]s. Each query is **homed** on exactly one shard
//! (least-loaded at registration) and never migrates; each shard owns its
//! own window + live-edge table holding only the edges routed to it, so
//! shards share nothing and need no locks. The front-end keeps a per-signature
//! shard-routing table (the union of its shards' dispatch indexes) and,
//! during [`ShardedMultiEngine::process`], fans each edge out over
//! `tcs-concurrent`'s bounded channels to the shards that can react; a
//! shard's window therefore sees a filtered — but still nondecreasing in
//! timestamp — substream, which is exactly what its queries would have
//! kept from the full stream. Registration churn is a front-end
//! (single-threaded) operation between `process` calls; match streams
//! come back per shard and are concatenated (order across shards is
//! unspecified — within one query it remains stream order).
//!
//! # Failure model
//!
//! A multi-tenant registry is exactly where faults hurt the most: one
//! tenant's pathological query, one source's corrupted feed, or one slow
//! core must not take down every other tenant. The crate names three
//! fault classes and gives each the smallest blast radius that keeps the
//! survivors' semantics exact:
//!
//! 1. **Bad input** is rejected *at the boundary, before any state
//!    mutates*. Every arrival passes an [`IngestGate`](tcs_core::IngestGate)
//!    (watermark + live-edge bookkeeping): out-of-order timestamps are
//!    handled per the configured [`OrderPolicy`] (typed rejection by
//!    default, or clamp-to-watermark / counted silent drop), duplicate
//!    live edge ids and inconsistently-labelled endpoints are always
//!    rejected. [`MultiQueryEngine::try_advance`] and
//!    [`ShardedMultiEngine::try_process`] surface the
//!    [`IngestError`]; the panicking `advance`/`process` wrappers keep
//!    the happy-path API. `try_process` is batch-atomic: on `Err`
//!    nothing from the batch was admitted anywhere. Blast radius: the
//!    offending edge (or batch), zero queries.
//!
//!    [`MultiQueryEngine::try_advance_batch`] is *not* batch-atomic,
//!    and loses matches silently: it processes the prefix admitted
//!    before the rejected arrival, then returns the `Err` and drops the
//!    matches that prefix completed (they were counted as emitted, but
//!    no caller ever receives them). A caller-owned output sink is the
//!    fix — the engines below already append to one
//!    (`TimingEngine::insert_batch_at`), but this method's return type
//!    is frozen by the benchmark; until it moves, feeders that cannot
//!    afford the loss validate first or use a lenient policy.
//! 2. **Query faults** — a panic inside one query's per-arrival work.
//!    Under [`FaultPolicy::Quarantine`] (the default for shards of a
//!    [`ShardedMultiEngine`]; bare engines default to
//!    [`FaultPolicy::Propagate`]) the registry catches the panic at a
//!    per-template `catch_unwind` boundary (one helper wraps every
//!    expiry and arrival delivery), unregisters the offender and
//!    records a [`QueryFault`] (id, stringified payload, stream
//!    position) in a fault log surfaced through `stats()`. Blast
//!    radius: the faulting query's *template* — every subscriber of
//!    the shared engine (see the sharing model above). The shard,
//!    worker thread and channel keep serving, and the dispatcher never
//!    observes a dead channel for this class.
//! 3. **Worker faults and overload** — a panic outside the per-query
//!    boundary kills a shard worker; the dispatcher skips the dead
//!    channel for the rest of the batch and the supervisor then rebuilds
//!    the shard, re-homing surviving queries under their original ids
//!    and replaying the edges routed to the shard that are still inside
//!    the window, so the batch's output and every later match are what
//!    a run without the fault produces ([`ShardHealth::restarts`] counts
//!    rebuilds; a replay that itself panics leaves the shard on empty
//!    windows and counts in [`ShardHealth::replay_failures`]). A worker
//!    that is merely *slow* fills its channel instead, and the
//!    configured [`OverloadPolicy`] either back-pressures (default,
//!    lossless) or sheds bounded work with per-shard counters. Blast
//!    radius: one shard's per-query counters (restart) or the shed
//!    edges (overload) — never another shard.
//!
//! The `failpoints` cargo feature (off by default, zero-cost when off)
//! compiles in the `tcs-core` fault-injection sites the chaos tests use
//! to drive all three classes deterministically.
//!
//! # Observability
//!
//! Every layer of the stack reports into one optional
//! [`Recorder`](tcs_telemetry::Recorder) seam
//! ([`MultiQueryEngine::set_recorder`] /
//! [`ShardedMultiEngine::set_recorder`]; bare engines have
//! `TimingEngine::set_recorder`). The seam is `Option<Arc<Recorder>>`,
//! default `None`: un-armed it costs one branch per instrumented site,
//! and armed it **never** perturbs behavior — match streams and the
//! oracle-comparable `EngineStats`/[`MultiStats`] counters stay
//! byte-identical with the recorder on vs off
//! (`tests/telemetry_equivalence.rs` enforces it; the CI gate holds the
//! armed hub workload within 1.05× of the no-op seam). What a recorder
//! collects:
//!
//! * **Per-edge processing latency** (`tcs_edge_latency_ns`) — wall
//!   time one arrival spends in the matching core, recorded on every
//!   `sample_every`-th edge (default 1 in 16; `with_sampling(1)` is
//!   exact) into a mergeable log-scale histogram with O(1) record and
//!   ≤ ~3% quantile error (`p50`/`p99`/`p999`).
//! * **Detection latency** (`tcs_detection_latency_ns`) — emission time minus
//!   the *completing edge's* arrival time, per query (`QueryId`; a bare
//!   engine records under scope 0) and per template (canonical
//!   [`PlanFingerprint`](tcs_core::plan::PlanFingerprint) digest).
//!   Under the sharded front-end, chunks are stamped at enqueue, so
//!   queue wait inside a worker's channel counts toward detection —
//!   that is the latency a tenant actually experiences. At most 1024
//!   scopes get private histograms; the rest collapse into one overflow
//!   scope.
//! * **Skew and shard load** — per-shard gauges (edges routed, queue
//!   depth high-water mark, shed edges, worker restarts) refreshed
//!   every `process` call, plus hot-key counters over arrival endpoints
//!   (top-16 keys and log2-degree buckets: mass in high buckets *is*
//!   hub skew). Hot keys ride the sampled cadence; gauges and events
//!   are always exact. The registry records keys once at the routing
//!   front-end, and inner engines of a registry are never separately
//!   armed, so nothing double-counts.
//! * **Structured events** — a bounded ring of sequence-numbered
//!   lifecycle events: `Register`/`Unregister` (registration churn),
//!   `Quarantine` (query fault: id, stream position, truncated
//!   payload), `Shed` (overload: shard, edge count, which end),
//!   `WorkerRestart` (shard rebuild). A quarantined query logs exactly
//!   one `Quarantine` event, not an `Unregister`.
//!
//! `Recorder::snapshot()` exports everything as a
//! [`TelemetrySnapshot`](tcs_telemetry::TelemetrySnapshot);
//! `Recorder::dump(dir)` writes `metrics.prom` (Prometheus text) and
//! `metrics.json` (exact JSON round-trip) — `repro telemetry` prints
//! the quantile tables, and `examples/cyber_attack.rs --metrics-dir`
//! dumps them periodically for scraping.
//!
//! [`TimingEngine`]: tcs_core::TimingEngine
//! [`QueryPlan::signatures`]: tcs_core::QueryPlan::signatures

// unwrap/expect are denied workspace-wide (see [workspace.lints] in the
// root manifest): every unwrap/expect must be either proven unreachable
// (let-else + debug_assert) or turned into a typed error.
#![forbid(unsafe_code)]

pub mod engine;
pub mod fault;
pub mod shard;

pub use engine::{MultiQueryEngine, MultiStats, QueryId, QueryStats, TemplateStats};
pub use fault::{FaultPolicy, OverloadPolicy, QueryFault, ShardHealth};
pub use shard::ShardedMultiEngine;
pub use tcs_core::{IngestError, IngestStats, OrderPolicy};
