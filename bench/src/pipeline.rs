//! The system under test, as the benchmark drives it: set-up from text,
//! one `feed` entry point per stack, and the subscriber-side [`Sink`].

use crate::trace::{self, Name};
use crate::workload::{Inputs, Spec, Stack, SHARDS};
use std::sync::Arc;
use std::time::Instant;
use tcs_core::{MatchStore, PlanOptions, QueryPlan, TimingEngine};
use tcs_graph::io::{query_from_str, stream_from_str};
use tcs_graph::{MatchRecord, QueryGraph, SlidingWindow, StreamEdge};
use tcs_multi::{IngestError, MultiQueryEngine, MultiStats, QueryId, ShardedMultiEngine};
use tcs_telemetry::Recorder;

// ---- sink ----------------------------------------------------------------

/// Open-loop clock: edge `first_id + i` is due `i / rate` seconds after `t0`.
pub struct OpenClock {
    pub t0: Instant,
    pub rate: f64,
    pub first_id: u64,
    /// Detection latency of every detecting arrival, µs.
    pub lat_us: Vec<f64>,
}

/// What a subscriber would do with the match stream, reduced to what the
/// benchmark needs: an order-independent digest, a count, and which
/// arrivals of the current call delivered something.
pub struct Sink {
    /// `QueryId` → registration index (ids are dealt per shard).
    qmap: Vec<u32>,
    pub count: u64,
    pub digest: u64,
    /// Deliveries whose newest edge is not an arrival of the current call.
    pub stray: u64,
    /// Edges the stack refused (typed ingest error).
    pub refused: u64,
    base: u64,
    marks: Vec<bool>,
    any: bool,
    pub open: Option<OpenClock>,
    /// Deliveries kept verbatim (oracle pass only).
    pub keep: Option<Vec<(u32, MatchRecord)>>,
}

impl Sink {
    pub fn new(qmap: Vec<u32>) -> Self {
        Sink {
            qmap,
            count: 0,
            digest: 0,
            stray: 0,
            refused: 0,
            base: 0,
            marks: Vec::new(),
            any: false,
            open: None,
            keep: None,
        }
    }

    /// A call into the stack is about to be handed `len` arrivals, the
    /// first with id `base` (ids are arrival ordinals).
    #[inline]
    pub fn call_begin(&mut self, base: u64, len: usize) {
        self.base = base;
        if self.marks.len() < len {
            self.marks.resize(len, false);
        }
    }

    /// One delivery to subscriber `qid`.
    #[inline]
    pub fn deliver(&mut self, qid: u64, m: &MatchRecord) {
        let q = self.qmap.get(qid as usize).copied().unwrap_or(u32::MAX);
        let mut h = (u64::from(q) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut newest = 0u64;
        for e in m.edges() {
            h = (h ^ e.0).wrapping_mul(0x0000_0100_0000_01b3);
            h ^= h >> 29;
            newest = newest.max(e.0);
        }
        self.digest = self.digest.wrapping_add(h);
        self.count += 1;
        match self.marks.get_mut(newest.wrapping_sub(self.base) as usize) {
            Some(slot) => {
                *slot = true;
                self.any = true;
            }
            None => self.stray += 1,
        }
        if let Some(k) = &mut self.keep {
            k.push((q, m.clone()));
        }
    }

    /// The call returned. In an open loop this is the instant detection
    /// latency is read at.
    #[inline]
    pub fn call_end(&mut self, len: usize) {
        if !self.any {
            return;
        }
        self.any = false;
        let now = self.open.as_ref().map(|o| o.t0.elapsed().as_secs_f64());
        for j in 0..len {
            if !self.marks[j] {
                continue;
            }
            self.marks[j] = false;
            if let (Some(o), Some(now)) = (&mut self.open, now) {
                let due = (self.base + j as u64 - o.first_id) as f64 / o.rate;
                o.lat_us.push((now - due) * 1e6);
            }
        }
    }
}

// ---- stacks --------------------------------------------------------------

/// Exact counters read from the stack when a run ends.
#[derive(Clone, Debug, Default)]
pub struct StackCounts {
    /// Arrivals handed to engines (bare: one engine; multi: templates
    /// routed, summed).
    pub edges_processed: u64,
    pub edges_discarded: u64,
    pub matches_emitted: u64,
    pub partials_inserted: u64,
    pub join_ops: u64,
    pub ingest_rejected: u64,
    pub ingest_dropped: u64,
    pub shed: u64,
    pub restarts: u64,
    pub quarantined: u64,
    pub templates: u64,
    pub subscribers: u64,
    pub delivered: u64,
    pub store_bytes: u64,
    pub snapshot_bytes: u64,
}

impl StackCounts {
    fn of_multi(st: &MultiStats) -> Self {
        let mut c = StackCounts::default();
        for t in &st.templates {
            c.edges_processed += t.stats.edges_processed;
            c.edges_discarded += t.stats.edges_discarded;
            c.matches_emitted += t.stats.matches_emitted;
            c.partials_inserted += t.stats.partials_inserted;
            c.join_ops += t.stats.join_ops;
            c.store_bytes += t.store_bytes as u64;
        }
        c.delivered = st.queries.iter().map(|q| q.emitted).sum();
        c.ingest_rejected = st.ingest.rejected();
        c.ingest_dropped = st.ingest.dropped_out_of_order;
        c.shed = st.shards.iter().map(|h| h.shed_oldest + h.shed_newest).sum();
        c.restarts = st.shards.iter().map(|h| h.restarts).sum();
        c.quarantined = st.faults.len() as u64;
        c.templates = st.templates.len() as u64;
        c.subscribers = st.queries.len() as u64;
        c.snapshot_bytes = st.snapshot_bytes as u64;
        c
    }

    pub fn add(&mut self, o: &StackCounts) {
        self.edges_processed += o.edges_processed;
        self.edges_discarded += o.edges_discarded;
        self.matches_emitted += o.matches_emitted;
        self.partials_inserted += o.partials_inserted;
        self.join_ops += o.join_ops;
        self.ingest_rejected += o.ingest_rejected;
        self.ingest_dropped += o.ingest_dropped;
        self.shed += o.shed;
        self.restarts += o.restarts;
        self.quarantined += o.quarantined;
        self.templates += o.templates;
        self.subscribers += o.subscribers;
        self.delivered += o.delivered;
        self.store_bytes += o.store_bytes;
        self.snapshot_bytes += o.snapshot_bytes;
    }
}

/// One independently fed unit of a workload: the bare stack has one leg
/// per query (run one after another), the others a single leg.
pub trait Leg {
    /// Hands `edges` to the stack, in calls of at most the workload's
    /// batch size, delivering every result to `sink`.
    fn feed(&mut self, edges: &[StreamEdge], sink: &mut Sink);
    /// The same, with spans around every call the benchmark makes.
    fn feed_traced(&mut self, edges: &[StreamEdge], sink: &mut Sink);
    /// Engine-reported bytes of state.
    fn state_bytes(&self) -> usize;
    fn counts(&self) -> StackCounts;
}

pub struct BareLeg<S: MatchStore> {
    q: u64,
    window: SlidingWindow,
    engine: TimingEngine<S>,
    /// Traced run only: Σ and count of `engine.insert` spans over
    /// arrivals the engine discarded.
    pub discarded_insert_ns: u64,
    pub discarded_inserts: u64,
    /// Traced run only: window occupancy and expiries.
    pub live_max: usize,
    pub expired: u64,
}

impl<S: MatchStore> Leg for BareLeg<S> {
    fn feed(&mut self, edges: &[StreamEdge], sink: &mut Sink) {
        for &e in edges {
            sink.call_begin(e.id.0, 1);
            let ev = self.window.advance(e);
            for m in &self.engine.advance(&ev) {
                sink.deliver(self.q, m);
            }
            sink.call_end(1);
        }
    }

    fn feed_traced(&mut self, edges: &[StreamEdge], sink: &mut Sink) {
        for &e in edges {
            trace::next_root(Name::Arrival);
            sink.call_begin(e.id.0, 1);
            let ev = {
                let _s = trace::span(Name::WindowAdvance);
                self.window.advance(e)
            };
            self.live_max = self.live_max.max(self.window.len());
            self.expired += ev.expired.len() as u64;
            for x in &ev.expired {
                let _s = trace::span(Name::EngineExpire);
                self.engine.expire(x);
            }
            let before = self.engine.stats().edges_discarded;
            let s = trace::span(Name::EngineInsert);
            let ms = self.engine.insert(ev.arrival);
            let ns = s.end();
            if self.engine.stats().edges_discarded > before {
                self.discarded_insert_ns += ns;
                self.discarded_inserts += 1;
            }
            if !ms.is_empty() {
                let _s = trace::span(Name::Deliver);
                for m in &ms {
                    sink.deliver(self.q, m);
                }
            }
            sink.call_end(1);
        }
    }

    fn state_bytes(&self) -> usize {
        self.engine.space_bytes()
    }

    fn counts(&self) -> StackCounts {
        let st = self.engine.stats();
        let ing = self.engine.ingest_stats();
        StackCounts {
            edges_processed: st.edges_processed,
            edges_discarded: st.edges_discarded,
            matches_emitted: st.matches_emitted,
            partials_inserted: st.partials_inserted,
            join_ops: st.join_ops,
            ingest_rejected: ing.rejected(),
            ingest_dropped: ing.dropped_out_of_order,
            templates: 1,
            subscribers: 1,
            delivered: st.matches_emitted,
            store_bytes: self.engine.store_space_bytes() as u64,
            ..StackCounts::default()
        }
    }
}

/// What the two batch-fed stacks have in common, so one leg drives both.
pub trait BatchStack {
    /// Name of the span around [`BatchStack::call`].
    const SPAN: Name;
    /// One call into the stack with at most the workload's batch size.
    fn call(&mut self, chunk: &[StreamEdge]) -> Result<Vec<(QueryId, MatchRecord)>, IngestError>;
    fn stats(&self) -> MultiStats;
}

impl<S: MatchStore> BatchStack for MultiQueryEngine<S> {
    const SPAN: Name = Name::MultiAdvance;

    fn call(&mut self, chunk: &[StreamEdge]) -> Result<Vec<(QueryId, MatchRecord)>, IngestError> {
        self.try_advance_batch(chunk)
    }

    fn stats(&self) -> MultiStats {
        MultiQueryEngine::stats(self)
    }
}

impl<S: MatchStore + Send> BatchStack for ShardedMultiEngine<S> {
    const SPAN: Name = Name::ShardProcess;

    fn call(&mut self, chunk: &[StreamEdge]) -> Result<Vec<(QueryId, MatchRecord)>, IngestError> {
        self.try_process(chunk)
    }

    fn stats(&self) -> MultiStats {
        ShardedMultiEngine::stats(self)
    }
}

pub struct BatchLeg<E: BatchStack> {
    engine: E,
    batch: usize,
}

impl<E: BatchStack> BatchLeg<E> {
    fn call(&mut self, chunk: &[StreamEdge], sink: &mut Sink, traced: bool) {
        sink.call_begin(chunk[0].id.0, chunk.len());
        let out = {
            let _s = traced.then(|| trace::span(E::SPAN));
            self.engine.call(chunk)
        };
        match out {
            Ok(out) => {
                let _s = traced.then(|| trace::span(Name::Deliver));
                for (q, m) in &out {
                    sink.deliver(q.0, m);
                }
            }
            // The stack dropped the offender and what followed it (the
            // sharded one the whole call): charge the call.
            Err(_) => sink.refused += chunk.len() as u64,
        }
        sink.call_end(chunk.len());
    }
}

impl<E: BatchStack> Leg for BatchLeg<E> {
    fn feed(&mut self, edges: &[StreamEdge], sink: &mut Sink) {
        for chunk in edges.chunks(self.batch) {
            self.call(chunk, sink, false);
        }
    }

    fn feed_traced(&mut self, edges: &[StreamEdge], sink: &mut Sink) {
        for chunk in edges.chunks(self.batch) {
            trace::next_root(Name::Batch);
            self.call(chunk, sink, true);
        }
    }

    fn state_bytes(&self) -> usize {
        self.engine.stats().space_bytes()
    }

    fn counts(&self) -> StackCounts {
        StackCounts::of_multi(&self.engine.stats())
    }
}

// ---- set-up --------------------------------------------------------------

/// Wall time of each set-up stage, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub parse_stream: f64,
    pub parse_queries: f64,
    pub build_plans: f64,
    pub register: f64,
    pub warm: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.parse_stream + self.parse_queries + self.build_plans + self.register + self.warm
    }
}

/// The legs of one workload, typed by stack.
pub enum Legs<S: MatchStore + Send> {
    Bare(Vec<BareLeg<S>>),
    Multi(BatchLeg<MultiQueryEngine<S>>),
    Sharded(BatchLeg<ShardedMultiEngine<S>>),
}

impl<S: MatchStore + Send> Legs<S> {
    pub fn each(&mut self) -> Vec<&mut dyn Leg> {
        match self {
            Legs::Bare(v) => v.iter_mut().map(|l| l as &mut dyn Leg).collect(),
            Legs::Multi(l) => vec![l],
            Legs::Sharded(l) => vec![l],
        }
    }

    pub fn counts(&mut self) -> StackCounts {
        let mut c = StackCounts::default();
        for l in self.each() {
            c.add(&l.counts());
        }
        c
    }
}

/// A stack set up from text and warmed with a prefix of the stream.
pub struct Ready<S: MatchStore + Send> {
    pub legs: Legs<S>,
    /// The edges after the warm-up prefix.
    pub measured: Vec<StreamEdge>,
    /// One query per registration, as parsed.
    pub queries: Vec<QueryGraph>,
    /// Mean decomposition size `k` over the compiled plans.
    pub plan_k_mean: f64,
    /// A fresh sink that maps this stack's query ids to registrations.
    pub sink: Sink,
    pub times: SetupTimes,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The timed set-up: parse the stream and query text, compile a plan per
/// registration, register, and feed the first `warm` edges. `window` is
/// the window duration the stack is built with.
pub fn set_up<S: MatchStore + Send>(
    spec: &Spec,
    inputs: &Inputs,
    window: u64,
    warm: usize,
    recorder: Option<&Arc<Recorder>>,
) -> Result<Ready<S>, String> {
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let mut stream = stream_from_str(&inputs.stream_text).map_err(|e| e.to_string())?;
    times.parse_stream = secs(t);
    if stream.len() < warm || stream.iter().enumerate().any(|(i, e)| e.id.0 != i as u64) {
        return Err(format!("{}: stream ids are not arrival ordinals", spec.name));
    }

    let t = Instant::now();
    let queries = inputs
        .query_texts
        .iter()
        .map(|text| query_from_str(text).map_err(|e| e.to_string()))
        .collect::<Result<Vec<QueryGraph>, String>>()?;
    times.parse_queries = secs(t);

    let t = Instant::now();
    let plans: Vec<QueryPlan> =
        queries.iter().map(|q| QueryPlan::build(q.clone(), PlanOptions::timing())).collect();
    times.build_plans = secs(t);
    let plan_k_mean = plans.iter().map(|p| p.k() as f64).sum::<f64>() / plans.len().max(1) as f64;

    let t = Instant::now();
    let mut qmap: Vec<u32> = Vec::new();
    let mut map = |id: u64, reg: usize| {
        if qmap.len() <= id as usize {
            qmap.resize(id as usize + 1, u32::MAX);
        }
        qmap[id as usize] = reg as u32;
    };
    let mut legs = match spec.stack {
        Stack::Bare => Legs::Bare(
            plans
                .into_iter()
                .enumerate()
                .map(|(i, plan)| {
                    map(i as u64, i);
                    let mut engine = TimingEngine::new(plan);
                    if let Some(rec) = recorder {
                        engine.set_recorder(Arc::clone(rec));
                    }
                    BareLeg {
                        q: i as u64,
                        window: SlidingWindow::new(window),
                        engine,
                        discarded_insert_ns: 0,
                        discarded_inserts: 0,
                        live_max: 0,
                        expired: 0,
                    }
                })
                .collect(),
        ),
        Stack::Multi => {
            let mut engine = MultiQueryEngine::new(window);
            if let Some(rec) = recorder {
                engine.set_recorder(Arc::clone(rec));
            }
            for (i, plan) in plans.into_iter().enumerate() {
                map(engine.register(plan).0, i);
            }
            Legs::Multi(BatchLeg { engine, batch: spec.batch })
        }
        Stack::Sharded => {
            let mut engine = ShardedMultiEngine::new(window, SHARDS);
            if let Some(rec) = recorder {
                engine.set_recorder(Arc::clone(rec));
            }
            for (i, plan) in plans.into_iter().enumerate() {
                map(engine.register(plan).0, i);
            }
            Legs::Sharded(BatchLeg { engine, batch: spec.batch })
        }
    };
    times.register = secs(t);

    let t = Instant::now();
    let mut sink = Sink::new(qmap);
    for leg in legs.each() {
        leg.feed(&stream[..warm], &mut sink);
    }
    times.warm = secs(t);
    sink.count = 0;
    sink.digest = 0;

    let measured = stream.split_off(warm);
    Ok(Ready { legs, measured, queries, plan_k_mean, sink, times })
}
