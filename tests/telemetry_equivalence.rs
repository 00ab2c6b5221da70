#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench targets panic by design
//! The telemetry seam's defining guarantee, test-enforced: arming a
//! [`Recorder`] — at exact sampling or the default serving cadence —
//! never changes observable behavior. Match streams and the
//! oracle-comparable `EngineStats` counters are byte-identical with the
//! recorder on vs off, on the per-edge and batch-ingestion paths, the
//! registry under register/unregister churn, and the sharded front-end.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use tcs_core::plan::{PlanOptions, QueryPlan};
use tcs_core::{MsTreeStore, TimingEngine};
use tcs_graph::query::QueryEdge;
use tcs_graph::window::SlidingWindow;
use tcs_graph::{ELabel, EdgeId, MatchRecord, QueryGraph, StreamEdge, VLabel};
use tcs_multi::{MultiQueryEngine, QueryId, ShardedMultiEngine};
use tcs_telemetry::Recorder;

/// A small connected random query (the `tests/multi_equivalence.rs`
/// recipe).
fn random_query(rng: &mut SmallRng, n_labels: u16) -> QueryGraph {
    let n_v = rng.gen_range(2..4usize);
    let labels: Vec<VLabel> = (0..n_v).map(|_| VLabel(rng.gen_range(0..n_labels))).collect();
    let mut edges = Vec::new();
    for v in 1..n_v {
        let u = rng.gen_range(0..v);
        if rng.gen_bool(0.5) {
            edges.push(QueryEdge { src: u, dst: v, label: ELabel::NONE });
        } else {
            edges.push(QueryEdge { src: v, dst: u, label: ELabel::NONE });
        }
    }
    if rng.gen_bool(0.4) {
        let a = rng.gen_range(0..n_v);
        let b = rng.gen_range(0..n_v);
        edges.push(QueryEdge { src: a, dst: b, label: ELabel::NONE });
    }
    let mut pairs = Vec::new();
    for i in 0..edges.len() {
        for j in i + 1..edges.len() {
            if rng.gen_bool(0.4) {
                pairs.push((i, j));
            }
        }
    }
    QueryGraph::new(labels, edges, &pairs).expect("construction is valid")
}

/// A random edge stream with strictly increasing timestamps and
/// occasional jumps that force multi-edge expiry cascades.
fn random_stream(rng: &mut SmallRng, len: usize, n_labels: u16, window: u64) -> Vec<StreamEdge> {
    let mut ts = 0u64;
    (0..len)
        .map(|i| {
            ts += if rng.gen_bool(0.05) { window / 3 + 1 } else { 1 };
            let src = rng.gen_range(0..8u32);
            let mut dst = rng.gen_range(0..8u32);
            while dst == src {
                dst = rng.gen_range(0..8u32);
            }
            StreamEdge::new(
                i as u64 + 1,
                src,
                (src % n_labels as u32) as u16,
                dst,
                (dst % n_labels as u32) as u16,
                0,
                ts,
            )
        })
        .collect()
}

/// The two recorder configurations behavior must be invariant under:
/// exact stamping (maximum instrumentation) and the default 1-in-16
/// serving cadence.
fn recorders() -> [Arc<Recorder>; 2] {
    [Arc::new(Recorder::with_sampling(1)), Arc::new(Recorder::new())]
}

fn check_timing_engine(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let window = 60u64;
    let query = random_query(&mut rng, 3);
    let stream = random_stream(&mut rng, 160, 3, window);
    let plan = || QueryPlan::build(query.clone(), PlanOptions::timing());

    // Windowed per-edge path.
    for rec in recorders() {
        let mut off: TimingEngine<MsTreeStore> = TimingEngine::new(plan());
        let mut on: TimingEngine<MsTreeStore> = TimingEngine::new(plan());
        on.set_recorder(Arc::clone(&rec));
        let mut w_off = SlidingWindow::new(window);
        let mut w_on = SlidingWindow::new(window);
        for e in &stream {
            let a = off.advance(&w_off.advance(*e));
            let b = on.advance(&w_on.advance(*e));
            assert_eq!(a, b, "seed {seed} edge {}", e.id.0);
        }
        assert_eq!(off.stats(), on.stats(), "seed {seed} stats");
    }

    // Batch-ingestion path, random chunking.
    for rec in recorders() {
        let mut off: TimingEngine<MsTreeStore> = TimingEngine::new(plan());
        let mut on: TimingEngine<MsTreeStore> = TimingEngine::new(plan());
        on.set_recorder(Arc::clone(&rec));
        let mut chunk_rng = SmallRng::seed_from_u64(seed ^ 0xba7c);
        let mut live: HashMap<EdgeId, StreamEdge> = HashMap::new();
        let mut i = 0usize;
        while i < stream.len() {
            let n = chunk_rng.gen_range(1..8usize).min(stream.len() - i);
            let batch = &stream[i..i + n];
            live.extend(batch.iter().map(|e| (e.id, *e)));
            let (mut a, mut b) = (Vec::new(), Vec::new());
            off.insert_batch_at(batch, &live, &mut a).expect("stream batches are valid");
            on.insert_batch_at(batch, &live, &mut b).expect("stream batches are valid");
            assert_eq!(a, b, "seed {seed} batch at {i}");
            i += n;
        }
        assert_eq!(off.stats(), on.stats(), "seed {seed} batch stats");
        assert_eq!(off.ingest_stats(), on.ingest_stats(), "seed {seed} batch ingest stats");
    }
}

fn check_multi_engine(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let window = 60u64;
    let n_labels = 3u16;
    let stream = random_stream(&mut rng, 200, n_labels, window);
    let n_queries = rng.gen_range(2..5usize);
    // Each query is live for a random arrival range (mid-stream churn).
    let episodes: Vec<(QueryGraph, usize, usize)> = (0..n_queries)
        .map(|_| {
            let q = random_query(&mut rng, n_labels);
            let start = rng.gen_range(0..stream.len() / 2);
            let end = if rng.gen_bool(0.5) {
                rng.gen_range(start + 1..=stream.len())
            } else {
                stream.len()
            };
            (q, start, end)
        })
        .collect();

    let run = |rec: Option<Arc<Recorder>>| -> (
        Vec<(usize, MatchRecord)>,
        Vec<Option<tcs_core::EngineStats>>,
    ) {
        let mut multi: MultiQueryEngine<MsTreeStore> = MultiQueryEngine::new(window);
        if let Some(rec) = rec {
            multi.set_recorder(rec);
        }
        let mut ids: Vec<Option<QueryId>> = vec![None; episodes.len()];
        let mut out = Vec::new();
        for (i, e) in stream.iter().enumerate() {
            for (ei, (_, _, end)) in episodes.iter().enumerate() {
                if *end == i {
                    assert!(multi.unregister(ids[ei].expect("episode was registered")));
                }
            }
            for (ei, (q, start, _)) in episodes.iter().enumerate() {
                if *start == i {
                    ids[ei] =
                        Some(multi.register(QueryPlan::build(q.clone(), PlanOptions::timing())));
                }
            }
            for (qid, m) in multi.advance(*e) {
                let ei = ids.iter().position(|&x| x == Some(qid)).expect("emitter is live");
                out.push((ei, m));
            }
        }
        let stats = ids.iter().map(|id| id.and_then(|q| multi.stats_of(q))).collect();
        (out, stats)
    };

    let (base_out, base_stats) = run(None);
    for rec in recorders() {
        let (out, stats) = run(Some(rec));
        assert_eq!(base_out, out, "seed {seed} match stream");
        assert_eq!(base_stats, stats, "seed {seed} stats");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A standalone engine emits byte-identical matches and stats with
    /// the recorder on vs off, per edge and batch at a time.
    #[test]
    fn timing_engine_is_invariant_under_recording(seed in any::<u64>()) {
        check_timing_engine(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The registry emits byte-identical per-query streams and stats
    /// with the recorder on vs off under register/unregister churn.
    #[test]
    fn multi_engine_is_invariant_under_recording(seed in any::<u64>()) {
        check_multi_engine(seed);
    }
}

/// The sharded front-end: same per-query match streams and per-query
/// stats with a recorder fanned out over all shards vs none, and the
/// armed run actually observed the stack (histograms + shard gauges
/// are populated).
#[test]
fn sharded_front_end_is_invariant_under_recording() {
    let mut rng = SmallRng::seed_from_u64(0x7e1e);
    let window = 80u64;
    let n_labels = 4u16;
    let stream = random_stream(&mut rng, 600, n_labels, window);
    let queries: Vec<QueryGraph> = (0..16).map(|_| random_query(&mut rng, n_labels)).collect();

    let run = |rec: Option<Arc<Recorder>>| {
        let mut hub: ShardedMultiEngine<MsTreeStore> = ShardedMultiEngine::new(window, 4);
        if let Some(rec) = rec {
            hub.set_recorder(rec);
        }
        let ids: Vec<QueryId> = queries
            .iter()
            .map(|q| hub.register(QueryPlan::build(q.clone(), PlanOptions::timing())))
            .collect();
        let mut per_query: Vec<Vec<MatchRecord>> = vec![Vec::new(); queries.len()];
        for (qid, m) in hub.process(&stream) {
            per_query[ids.iter().position(|&x| x == qid).unwrap()].push(m);
        }
        let stats: Vec<_> = hub.stats().queries.iter().map(|q| q.stats).collect();
        (per_query, stats)
    };

    let (base_streams, base_stats) = run(None);
    let rec = Arc::new(Recorder::with_sampling(1));
    let (streams, stats) = run(Some(Arc::clone(&rec)));
    assert_eq!(base_streams, streams, "sharded per-query match streams");
    assert_eq!(base_stats, stats, "sharded per-query stats");

    let snap = rec.snapshot();
    assert!(snap.edge.count > 0, "per-edge histogram saw the stream");
    assert!(
        snap.detection_by_query.iter().any(|(_, h)| h.count > 0),
        "detection histograms saw matches"
    );
    assert_eq!(snap.shards.len(), 4, "every shard published load gauges");
    assert!(snap.shards.iter().map(|s| s.edges_routed).sum::<u64>() > 0);
    assert!(!snap.events.is_empty(), "register events were logged");
}
