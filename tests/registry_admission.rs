#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench targets panic by design
//! Admission inside one registry batch: the registry's ingestion gate is
//! its window, so an arrival is judged against the window as the earlier
//! arrivals of the same `try_advance_batch` call left it. An id or a
//! vertex label freed by an expiry earlier in the call is free again; a
//! live duplicate or a live relabel is a typed rejection, after which the
//! registry reads as if only the admitted prefix had arrived. In every
//! case each query's matches equal the per-edge `try_advance` fold.

use tcs_core::plan::{PlanOptions, QueryPlan};
use tcs_core::{IngestError, IngestGate, OrderPolicy};
use tcs_graph::query::QueryEdge;
use tcs_graph::{
    ELabel, EdgeId, LiveEdgeView, MatchRecord, QueryGraph, StreamEdge, VLabel, VertexId,
};
use tcs_multi::{MultiQueryEngine, QueryId};

const WINDOW: u64 = 10;

/// `v0(L0) → v1(L1) → v2(L2)`; `forward` times the edges `ε0 ≺ ε1`, the
/// other plan `ε1 ≺ ε0`, so the two found separate templates.
fn path_plan(forward: bool) -> QueryPlan {
    let order = if forward { [(0, 1)] } else { [(1, 0)] };
    let q = QueryGraph::new(
        vec![VLabel(0), VLabel(1), VLabel(2)],
        vec![
            QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
            QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
        ],
        &order,
    )
    .unwrap();
    QueryPlan::build(q, PlanOptions::timing())
}

fn edge(id: u64, src: u32, sl: u16, dst: u32, dl: u16, ts: u64) -> StreamEdge {
    StreamEdge::new(id, src, sl, dst, dl, 0, ts)
}

fn registry() -> (MultiQueryEngine, Vec<QueryId>) {
    let mut multi: MultiQueryEngine = MultiQueryEngine::new(WINDOW);
    let ids = vec![multi.register(path_plan(true)), multi.register(path_plan(false))];
    (multi, ids)
}

/// One query's matches, in emission order.
fn of(out: &[(QueryId, MatchRecord)], q: QueryId) -> Vec<MatchRecord> {
    out.iter().filter(|(x, _)| *x == q).map(|(_, m)| m.clone()).collect()
}

fn m(a: u64, b: u64) -> MatchRecord {
    MatchRecord::from(vec![EdgeId(a), EdgeId(b)])
}

/// Feeds `batch` to one registry in a single `try_advance_batch` call
/// and to another edge by edge (stopping at the first rejection, where
/// the batch stops too), checks that both read the same, and returns
/// both registries with the batch's result.
#[allow(clippy::type_complexity)]
fn batch_and_fold(
    batch: &[StreamEdge],
) -> (
    MultiQueryEngine,
    MultiQueryEngine,
    Vec<QueryId>,
    Result<Vec<(QueryId, MatchRecord)>, IngestError>,
) {
    let (mut batched, ids) = registry();
    let (mut folded, _) = registry();
    let got = batched.try_advance_batch(batch);
    let mut fold_out = Vec::new();
    let mut fold_err = None;
    for &e in batch {
        match folded.try_advance(e) {
            Ok(out) => fold_out.extend(out),
            Err(err) => {
                fold_err = Some(err);
                break;
            }
        }
    }
    match (&got, fold_err) {
        (Ok(out), None) => {
            for &q in &ids {
                assert_eq!(of(out, q), of(&fold_out, q), "query {q:?}");
            }
        }
        // The batch drops the matches its admitted prefix completed; the
        // counters below show they were made all the same.
        (Err(a), Some(b)) => assert_eq!(*a, b),
        (a, b) => panic!("batch {a:?} but fold {b:?}"),
    }
    for &q in &ids {
        assert_eq!(batched.counters_of(q), folded.counters_of(q), "query {q:?}");
        assert_eq!(batched.live_match_count(q), folded.live_match_count(q), "query {q:?}");
    }
    assert_eq!(batched.window_len(), folded.window_len());
    assert_eq!(batched.stats().snapshot_bytes, folded.stats().snapshot_bytes);
    assert_eq!(batched.ingest_stats(), folded.ingest_stats());
    (batched, folded, ids, got)
}

/// Both registries left the same state behind: a continuation that
/// joins the edges still live emits the same matches on each.
fn same_continuation(a: &mut MultiQueryEngine, b: &mut MultiQueryEngine, ids: &[QueryId]) {
    // `3 → 6` opens a path into vertex 6 and `6 → 9` closes every open
    // one, so both plans react to what the batch left live.
    let tail = [edge(900, 3, 0, 6, 1, 15), edge(901, 6, 1, 9, 2, 16)];
    let feed = |multi: &mut MultiQueryEngine| -> Vec<(QueryId, MatchRecord)> {
        tail.iter().flat_map(|&e| multi.try_advance(e).unwrap()).collect()
    };
    let (out_a, out_b) = (feed(a), feed(b));
    assert!(!out_a.is_empty());
    for &q in ids {
        assert_eq!(of(&out_a, q), of(&out_b, q), "query {q:?} after the batch");
    }
}

/// Checks that a rejected batch left its registry exactly as a registry
/// fed only the admitted prefix, apart from the one rejection counted.
fn reads_as_prefix(multi: &MultiQueryEngine, prefix: &[StreamEdge], err: IngestError) {
    let (mut want, ids) = registry();
    want.try_advance_batch(prefix).unwrap();
    assert_eq!(multi.window_len(), want.window_len());
    assert_eq!(multi.stats().snapshot_bytes, want.stats().snapshot_bytes);
    assert_eq!(multi.stats().edges_seen, prefix.len() as u64);
    for &q in &ids {
        assert_eq!(multi.counters_of(q), want.counters_of(q), "query {q:?}");
    }
    let mut ingest = want.ingest_stats();
    match err {
        IngestError::DuplicateEdgeId { .. } => ingest.rejected_duplicate += 1,
        IngestError::DanglingEndpoint { .. } => ingest.rejected_dangling += 1,
        IngestError::OutOfOrder { .. } => ingest.rejected_out_of_order += 1,
    }
    assert_eq!(multi.ingest_stats(), ingest);
}

/// The opening of every batch below: a forward match (1, 2) at vertex 1
/// (label L1), then an arrival at ts 11 that expires edge 1 and reuses
/// its id on a new edge `3 → 6`, and a closer at ts 12 that expires edge
/// 2 and joins the new id 1 — which resolves only if the id now names
/// the new edge.
fn opening() -> Vec<StreamEdge> {
    vec![
        edge(1, 0, 0, 1, 1, 1),
        edge(2, 1, 1, 2, 2, 2),
        edge(1, 3, 0, 6, 1, 11),
        edge(5, 6, 1, 4, 2, 12),
    ]
}

#[test]
fn expired_ids_and_labels_are_free_again_within_one_call() {
    let mut batch = opening();
    // Vertex 1's last live edge (id 2, ts 2) expired at ts 12, so it may
    // now carry label L0; the closer binds it as the path's source.
    batch.extend([edge(7, 1, 0, 8, 1, 13), edge(8, 8, 1, 9, 2, 14)]);
    let (mut multi, mut folded, ids, got) = batch_and_fold(&batch);
    let out = got.unwrap();
    assert_eq!(of(&out, ids[0]), vec![m(1, 2), m(1, 5), m(7, 8)]);
    assert!(of(&out, ids[1]).is_empty(), "every ε1 arrived after its ε0");
    assert_eq!(multi.window_len(), 4, "edges 1 (reused), 5, 7 and 8");
    assert_eq!(multi.ingest_stats().admitted, 6);
    assert_eq!(multi.ingest_stats().rejected(), 0);
    same_continuation(&mut multi, &mut folded, &ids);
}

#[test]
fn a_live_duplicate_id_is_rejected_after_the_prefix() {
    let mut batch = opening();
    // Id 5 (ts 12) is live at ts 13; the arrival after it never runs.
    batch.extend([edge(5, 0, 0, 6, 1, 13), edge(9, 6, 1, 7, 2, 14)]);
    let (mut multi, mut folded, ids, got) = batch_and_fold(&batch);
    let err = got.unwrap_err();
    assert_eq!(err, IngestError::DuplicateEdgeId { id: EdgeId(5) });
    reads_as_prefix(&multi, &batch[..4], err);
    same_continuation(&mut multi, &mut folded, &ids);
}

#[test]
fn a_live_relabel_is_rejected_after_the_prefix() {
    let mut batch = opening();
    // Vertex 6 is live as L1 (edges 1 and 5); claiming L0 dangles.
    batch.extend([edge(9, 6, 0, 7, 1, 13), edge(10, 7, 1, 8, 2, 14)]);
    let (mut multi, mut folded, ids, got) = batch_and_fold(&batch);
    let err = got.unwrap_err();
    assert_eq!(err, IngestError::DanglingEndpoint { id: EdgeId(9), vertex: VertexId(6) });
    reads_as_prefix(&multi, &batch[..4], err);
    same_continuation(&mut multi, &mut folded, &ids);
}

/// The gate alone: an arrival that expires edges hands them over oldest
/// first before it is numbered, and ids resolve by admission number.
#[test]
fn the_gate_is_the_window() {
    let mut g = IngestGate::new(5, OrderPolicy::default());
    for (id, ts) in [(1, 1), (2, 2), (3, 2), (4, 4)] {
        g.admit_with(edge(id, 0, 0, 1, 1, ts), |x| panic!("{x:?} retired early")).unwrap();
    }
    assert!(!g.retires(5), "the window at 5 is (0, 5]");
    assert!(g.retires(6));
    // Id 2 is reused by the arrival that expires it: the old edge is
    // retired first, and the id resolves to the new one.
    let mut retired = Vec::new();
    g.admit_with(edge(2, 2, 2, 3, 3, 7), |x| retired.push(x.id.0)).unwrap();
    assert_eq!(retired, vec![1, 2, 3]);
    assert_eq!((g.len(), g.stats().admitted), (2, 5));
    assert_eq!(g.live_edge(EdgeId(2)).map(|e| e.ts.0), Some(7));
    assert_eq!(g.live_edge(EdgeId(4)).map(|e| e.ts.0), Some(4));
    assert!(g.live_edge(EdgeId(1)).is_none());
    // Floors are admission numbers: id 4 was the fourth arrival.
    assert_eq!(g.floor(&m(2, 4)), 4);
    assert_eq!(g.live_edge_bytes(), 2 * 48);
}
