#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench targets panic by design
//! The multi-query subsystem's defining guarantee, test-enforced: a
//! [`MultiQueryEngine`] with N registered plans emits, per query, exactly
//! the match stream of N independent [`TimingEngine`]s consuming the same
//! edge sequence — through signature-routed dispatch, template sharing,
//! the sharded front-end, window expiry, and mid-stream
//! register/unregister churn (a query registered at stream position `p`
//! behaves like an independent engine that starts consuming at `p`).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tcs_core::plan::{PlanOptions, QueryPlan};
use tcs_core::{MsTreeStore, TimingEngine};
use tcs_graph::query::QueryEdge;
use tcs_graph::window::SlidingWindow;
use tcs_graph::{ELabel, MatchRecord, QueryGraph, StreamEdge, VLabel};
use tcs_multi::{MultiQueryEngine, QueryId, ShardedMultiEngine};

/// A small connected random query over `n_labels` vertex labels: a random
/// tree plus optional extra edges and a sparse random timing DAG (the
/// same recipe as `tests/property_tests.rs`).
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

/// A random edge stream over `n_labels` labels with strictly increasing
/// timestamps and occasional jumps that force multi-edge expiry cascades.
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

/// One registration episode of a query: active for arrivals
/// `start..end` of the stream.
struct Episode {
    query: QueryGraph,
    start: usize,
    end: usize,
}

/// The per-episode reference: an independent engine consuming exactly the
/// episode's arrival range through its own fresh window.
fn independent_run(ep: &Episode, stream: &[StreamEdge], window: u64) -> Vec<MatchRecord> {
    let mut eng: TimingEngine<MsTreeStore> =
        TimingEngine::new(QueryPlan::build(ep.query.clone(), PlanOptions::timing()));
    let mut w = SlidingWindow::new(window);
    let mut out = Vec::new();
    for e in &stream[ep.start..ep.end] {
        out.extend(eng.advance(&w.advance(*e)));
    }
    out
}

/// Drives a `MultiQueryEngine` through the stream with the episode
/// schedule and returns each episode's emitted match stream in order.
fn multi_run(
    episodes: &[Episode],
    stream: &[StreamEdge],
    window: u64,
) -> (Vec<Vec<MatchRecord>>, MultiQueryEngine<MsTreeStore>, Vec<Option<QueryId>>) {
    let mut multi: MultiQueryEngine<MsTreeStore> = MultiQueryEngine::new(window);
    let mut ids: Vec<Option<QueryId>> = vec![None; episodes.len()];
    let mut out: Vec<Vec<MatchRecord>> = (0..episodes.len()).map(|_| Vec::new()).collect();
    for (i, e) in stream.iter().enumerate() {
        for (ei, ep) in episodes.iter().enumerate() {
            if ep.end == i {
                assert!(multi.unregister(ids[ei].expect("episode was registered")));
            }
        }
        for (ei, ep) in episodes.iter().enumerate() {
            if ep.start == i {
                ids[ei] =
                    Some(multi.register(QueryPlan::build(ep.query.clone(), PlanOptions::timing())));
            }
        }
        for (qid, m) in multi.advance(*e) {
            let ei = ids.iter().position(|&x| x == Some(qid)).expect("emitting query is live");
            out[ei].push(m);
        }
    }
    (out, multi, ids)
}

fn check_schedule(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let window = 60u64;
    let n_labels = 3u16;
    let stream = random_stream(&mut rng, 220, n_labels, window);
    let n_queries = rng.gen_range(1..5usize);
    let mut episodes = Vec::new();
    for _ in 0..n_queries {
        let query = random_query(&mut rng, n_labels);
        let start = rng.gen_range(0..stream.len() / 2);
        let end =
            if rng.gen_bool(0.5) { rng.gen_range(start + 1..=stream.len()) } else { stream.len() };
        // Half the unregistered queries come back later under a fresh id
        // — same query graph, new registration, new reference engine.
        if end < stream.len() && rng.gen_bool(0.5) {
            let restart = rng.gen_range(end..stream.len());
            episodes.push(Episode { query: query.clone(), start: restart, end: stream.len() });
        }
        episodes.push(Episode { query, start, end });
    }
    let (out, multi, ids) = multi_run(&episodes, &stream, window);
    for (ei, ep) in episodes.iter().enumerate() {
        let want = independent_run(ep, &stream, window);
        assert_eq!(out[ei], want, "seed {seed} episode {ei}");
        // Episodes alive at stream end also agree on normalized stats
        // with their independent reference. A late joiner to a shared
        // template runs on a warm engine, so the internal work counters
        // (partials, joins) legitimately differ — the emission-visible
        // ones must not.
        if ep.end == stream.len() {
            let mut reference: TimingEngine<MsTreeStore> =
                TimingEngine::new(QueryPlan::build(ep.query.clone(), PlanOptions::timing()));
            let mut w = SlidingWindow::new(window);
            for e in &stream[ep.start..] {
                reference.advance(&w.advance(*e));
            }
            let stats = multi.stats_of(ids[ei].unwrap()).unwrap();
            assert_eq!(
                stats.matches_emitted,
                reference.stats().matches_emitted,
                "seed {seed} episode {ei} emissions"
            );
            assert_eq!(
                stats.edges_processed,
                reference.stats().edges_processed,
                "seed {seed} episode {ei} processed"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// N random plans under random register/unregister schedules: every
    /// episode's match stream and end-of-stream emission counters equal
    /// an independent engine consuming the same arrival range.
    #[test]
    fn registry_equals_independent_engines_under_churn(seed in any::<u64>()) {
        check_schedule(seed);
    }
}

/// The acceptance bar: 64 registered queries, one stream, per-query
/// match streams identical to 64 independent engines — for the serial
/// registry AND the sharded front-end — plus the shared-window space win
/// the subsystem exists for.
#[test]
fn sixty_four_queries_match_sixty_four_independent_engines() {
    let mut rng = SmallRng::seed_from_u64(0x64);
    let window = 80u64;
    let n_labels = 4u16;
    let stream = random_stream(&mut rng, 700, n_labels, window);
    let queries: Vec<QueryGraph> = (0..64).map(|_| random_query(&mut rng, n_labels)).collect();

    // 64 independent engines, each with its own window copy.
    let mut independent: Vec<(TimingEngine<MsTreeStore>, SlidingWindow, Vec<MatchRecord>)> =
        queries
            .iter()
            .map(|q| {
                (
                    TimingEngine::new(QueryPlan::build(q.clone(), PlanOptions::timing())),
                    SlidingWindow::new(window),
                    Vec::new(),
                )
            })
            .collect();
    for e in &stream {
        for (eng, w, out) in independent.iter_mut() {
            out.extend(eng.advance(&w.advance(*e)));
        }
    }

    // The serial registry.
    let mut multi: MultiQueryEngine<MsTreeStore> = MultiQueryEngine::new(window);
    let ids: Vec<QueryId> = queries
        .iter()
        .map(|q| multi.register(QueryPlan::build(q.clone(), PlanOptions::timing())))
        .collect();
    let mut per_query: Vec<Vec<MatchRecord>> = vec![Vec::new(); 64];
    for e in &stream {
        for (qid, m) in multi.advance(*e) {
            per_query[ids.iter().position(|&x| x == qid).unwrap()].push(m);
        }
    }
    for (i, (eng, _, want)) in independent.iter().enumerate() {
        assert_eq!(&per_query[i], want, "query {i} stream");
        assert_eq!(multi.stats_of(ids[i]).unwrap(), eng.stats(), "query {i} stats");
    }
    // The live-edge table is counted once: the registry holds strictly
    // less than 64 engines each paying for a window copy.
    let shared = multi.stats();
    let private: usize = independent.iter().map(|(eng, _, _)| eng.space_bytes()).sum();
    assert!(shared.queries.iter().all(|q| q.stats.edges_processed == stream.len() as u64));
    assert!(shared.space_bytes() < private, "shared {} !< private {private}", shared.space_bytes());

    // The sharded front-end on 4 workers.
    let mut sharded: ShardedMultiEngine<MsTreeStore> = ShardedMultiEngine::new(window, 4);
    let ids: Vec<QueryId> = queries
        .iter()
        .map(|q| sharded.register(QueryPlan::build(q.clone(), PlanOptions::timing())))
        .collect();
    let mut per_query: Vec<Vec<MatchRecord>> = vec![Vec::new(); 64];
    for (qid, m) in sharded.process(&stream) {
        per_query[ids.iter().position(|&x| x == qid).unwrap()].push(m);
    }
    for (i, (_, _, want)) in independent.iter().enumerate() {
        assert_eq!(&per_query[i], want, "query {i} stream (sharded)");
    }
}
