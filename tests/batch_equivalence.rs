#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench targets panic by design
//! The batch path's defining guarantee, property-tested: slicing a stream
//! into batches at *any* boundaries — size-1 batches, one whole-stream
//! batch, or random chunks — emits match streams and engine stats
//! byte-identical to per-edge ingestion. Batching is amortization only;
//! it must never change what is emitted, in what order, or what the
//! counters say.
//!
//! Coverage: both serial stores (MS-tree and Timing-IND), the concurrent
//! engine's CmsTree as the third store (sorted-set equality, its
//! documented contract), and the multi-query registry with
//! register/unregister churn landing exactly on batch boundaries. The
//! reference is always the per-edge fold `advance(&w.advance(e))` of a
//! standalone engine.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use tcs_concurrent::{ConcurrentEngine, LockingMode};
use tcs_core::plan::{PlanOptions, QueryPlan};
use tcs_core::store::MatchStore;
use tcs_core::{IndependentStore, MsTreeStore, TimingEngine};
use tcs_graph::query::QueryEdge;
use tcs_graph::window::SlidingWindow;
use tcs_graph::{ELabel, EdgeId, MatchRecord, QueryGraph, StreamEdge, VLabel};
use tcs_multi::{MultiQueryEngine, QueryId};

/// A small connected random query (the `tests/property_tests.rs` recipe).
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

/// A random stream with nondecreasing timestamps, repeated endpoints (so
/// same-signature runs form) and occasional jumps that force multi-edge
/// expiry cascades mid-batch.
fn random_stream(rng: &mut SmallRng, len: usize, n_labels: u16, window: u64) -> Vec<StreamEdge> {
    let mut ts = 0u64;
    (0..len)
        .map(|i| {
            if rng.gen_bool(0.05) {
                ts += window / 3 + 1;
            } else if rng.gen_bool(0.6) {
                ts += 1; // bursts: repeated ts keeps runs unbroken
            }
            let src = rng.gen_range(0..6u32);
            let mut dst = rng.gen_range(0..6u32);
            while dst == src {
                dst = rng.gen_range(0..6u32);
            }
            StreamEdge::new(
                i as u64 + 1,
                src,
                (src % n_labels as u32) as u16,
                dst,
                (dst % n_labels as u32) as u16,
                0,
                ts.max(1),
            )
        })
        .collect()
}

/// Batch boundaries for a stream of `len` edges: `kind` 0 = all size-1
/// batches, 1 = one whole-stream batch, otherwise random chunk sizes.
/// Returned as exclusive end positions; always ends at `len`.
fn boundaries(rng: &mut SmallRng, len: usize, kind: u8) -> Vec<usize> {
    match kind {
        0 => (1..=len).collect(),
        1 => vec![len],
        _ => {
            let mut cuts = Vec::new();
            let mut at = 0;
            while at < len {
                at = (at + rng.gen_range(1..=len.min(24))).min(len);
                cuts.push(at);
            }
            cuts
        }
    }
}

/// Per-edge reference run: one window event at a time through
/// `TimingEngine::advance` — what the batch path must reproduce exactly.
fn per_edge_run<S: MatchStore>(
    q: &QueryGraph,
    stream: &[StreamEdge],
    window: u64,
) -> (Vec<MatchRecord>, TimingEngine<S>) {
    let mut eng: TimingEngine<S> =
        TimingEngine::new(QueryPlan::build(q.clone(), PlanOptions::timing()));
    let mut w = SlidingWindow::new(window);
    let mut out = Vec::new();
    for &e in stream {
        out.extend(eng.advance(&w.advance(e)));
    }
    (out, eng)
}

/// Batched run over the given boundaries through the engine's batch entry
/// (`insert_batch_at` over a `HashMap` live view), driven the way
/// `MultiQueryEngine::step` drives it: per `BatchEvent` step the expiries
/// leave the view, the arrivals enter it, and each contiguous
/// same-signature run is one call.
fn batched_run<S: MatchStore>(
    q: &QueryGraph,
    stream: &[StreamEdge],
    window: u64,
    cuts: &[usize],
) -> (Vec<MatchRecord>, TimingEngine<S>) {
    let mut eng: TimingEngine<S> =
        TimingEngine::new(QueryPlan::build(q.clone(), PlanOptions::timing()));
    let mut w = SlidingWindow::new(window);
    let mut live: HashMap<EdgeId, StreamEdge> = HashMap::new();
    let mut out = Vec::new();
    let mut at = 0;
    for &end in cuts {
        for step in w.advance_batch(&stream[at..end]).steps {
            for x in &step.expired {
                eng.expire_partials(x);
                live.remove(&x.id);
            }
            live.extend(step.arrivals.iter().map(|a| (a.id, *a)));
            for run in step.arrivals.chunk_by(|a, b| a.signature() == b.signature()) {
                eng.insert_batch_at(run, &live, &mut out).expect("stream is in order");
            }
        }
        at = end;
    }
    (out, eng)
}

fn check_serial<S: MatchStore>(
    q: &QueryGraph,
    stream: &[StreamEdge],
    window: u64,
    cuts: &[usize],
    label: &str,
) -> Vec<MatchRecord> {
    let (want, ref_eng) = per_edge_run::<S>(q, stream, window);
    let (got, eng) = batched_run::<S>(q, stream, window, cuts);
    assert_eq!(got, want, "{label}: match streams diverge");
    assert_eq!(eng.stats(), ref_eng.stats(), "{label}: stats diverge");
    assert_eq!(eng.ingest_stats(), ref_eng.ingest_stats(), "{label}");
    assert_eq!(eng.live_match_count(), ref_eng.live_match_count(), "{label}");
    eng.assert_clean();
    want
}

/// One registration episode of a query: registered just before stream
/// position `start`, unregistered just before `end` (both on batch
/// boundaries).
struct Episode {
    query: QueryGraph,
    start: usize,
    end: usize,
}

/// Multi-query run with churn at batch boundaries: one `advance_batch`
/// call per chunk, each episode's registration and removal applied at its
/// stream position. Returns every episode's match stream in order.
fn multi_run(
    episodes: &[Episode],
    stream: &[StreamEdge],
    window: u64,
    cuts: &[usize],
) -> (Vec<Vec<MatchRecord>>, MultiQueryEngine<MsTreeStore>) {
    let mut multi: MultiQueryEngine<MsTreeStore> = MultiQueryEngine::new(window);
    let mut ids: Vec<Option<QueryId>> = vec![None; episodes.len()];
    let mut out: Vec<Vec<MatchRecord>> = (0..episodes.len()).map(|_| Vec::new()).collect();
    let mut at = 0;
    for &end in cuts {
        for (ei, ep) in episodes.iter().enumerate() {
            if ep.end == at {
                assert!(multi.unregister(ids[ei].expect("episode was registered")));
            }
        }
        for (ei, ep) in episodes.iter().enumerate() {
            if ep.start == at {
                ids[ei] =
                    Some(multi.register(QueryPlan::build(ep.query.clone(), PlanOptions::timing())));
            }
        }
        for (qid, m) in multi.advance_batch(&stream[at..end]) {
            let ei = ids.iter().position(|&x| x == Some(qid)).expect("emitting query is live");
            out[ei].push(m);
        }
        at = end;
    }
    (out, multi)
}

fn check_case(seed: u64, kind: u8) {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(kind as u64));
    let window = 40u64;
    let n_labels = 3u16;
    let stream = random_stream(&mut rng, 160, n_labels, window);
    let q = random_query(&mut rng, n_labels);
    let cuts = boundaries(&mut rng, stream.len(), kind);

    // Serial engines, both stores: byte-identical streams and stats.
    let ms = check_serial::<MsTreeStore>(&q, &stream, window, &cuts, "ms-tree");
    let ind = check_serial::<IndependentStore>(&q, &stream, window, &cuts, "timing-ind");
    // Cross-store emission order legitimately differs; sets agree.
    let mut ms_sorted = ms;
    let mut ind_sorted = ind;
    ms_sorted.sort();
    ind_sorted.sort();
    assert_eq!(ms_sorted, ind_sorted, "stores agree on the match set");

    // Third store: the concurrent engine's CmsTree consuming the same
    // stream — sorted-set equality is its documented contract.
    let plan = QueryPlan::build(q.clone(), PlanOptions::timing());
    let mut conc = ConcurrentEngine::new(plan, 2, LockingMode::FineGrained);
    let mut got = conc.run(&stream, window).matches;
    got.sort();
    assert_eq!(got, ms_sorted, "cms-tree agrees on the match set");
    conc.assert_clean();

    // Multi-query registry with register/unregister churn on batch
    // boundaries: each episode's subsequence is byte-identical to a fresh
    // standalone engine folding `advance` over the episode's range.
    let starts: Vec<usize> = std::iter::once(0).chain(cuts.iter().copied()).collect();
    let n_eps = rng.gen_range(1..4usize);
    let episodes: Vec<Episode> = (0..n_eps)
        .map(|_| {
            let si = rng.gen_range(0..starts.len() - 1);
            let start = starts[si];
            let end = if rng.gen_bool(0.5) {
                starts[rng.gen_range(si + 1..starts.len())]
            } else {
                stream.len() + 1 // never unregisters
            };
            Episode { query: random_query(&mut rng, n_labels), start, end }
        })
        .collect();
    let (got, batched) = multi_run(&episodes, &stream, window, &cuts);
    for (ei, ep) in episodes.iter().enumerate() {
        let range = &stream[ep.start..ep.end.min(stream.len())];
        let (want, _) = per_edge_run::<MsTreeStore>(&ep.query, range, window);
        assert_eq!(got[ei], want, "episode {ei} diverges from its independent per-edge engine");
    }
    batched.assert_clean();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_batch_boundaries_are_invisible(seed in any::<u64>(), kind in 0u8..3) {
        check_case(seed, kind);
    }
}

/// The two degenerate slicings are always exercised, whatever proptest
/// samples: every batch size 1, and the whole stream as one batch.
#[test]
fn degenerate_slicings_are_invisible() {
    for seed in 0..3u64 {
        check_case(seed, 0);
        check_case(seed, 1);
    }
}
