#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench targets panic by design
//! Window-semantics integration tests: matches must appear and disappear
//! exactly as the time window slides (Definition 2 + Definition 4), across
//! all engines.

use tcs_baselines::{IncMat, SjTree};
use tcs_concurrent::{ConcurrentEngine, LockingMode};
use tcs_core::{IndependentStore, MatchStore, MsTreeStore, PlanOptions, QueryPlan, TimingEngine};
use tcs_graph::query::QueryEdge;
use tcs_graph::window::SlidingWindow;
use tcs_graph::{ELabel, QueryGraph, StreamEdge, VLabel};
use tcs_subiso::Strategy;

fn two_path(pairs: &[(usize, usize)]) -> QueryGraph {
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

fn engine(q: &QueryGraph) -> TimingEngine<MsTreeStore> {
    TimingEngine::new(QueryPlan::build(q.clone(), PlanOptions::timing()))
}

#[test]
fn match_lives_exactly_while_all_edges_live() {
    let q = two_path(&[(0, 1)]);
    let mut eng = engine(&q);
    let mut w = SlidingWindow::new(10);
    eng.advance(&w.advance(StreamEdge::new(1, 10, 0, 11, 1, 0, 5)));
    let m = eng.advance(&w.advance(StreamEdge::new(2, 11, 1, 12, 2, 0, 8)));
    assert_eq!(m.len(), 1);
    assert_eq!(eng.live_match_count(), 1);
    // At t=14 edge 1 (ts=5) is still inside (4, 14]: alive.
    eng.advance(&w.advance(StreamEdge::new(3, 50, 0, 51, 1, 0, 14)));
    assert_eq!(eng.live_match_count(), 1);
    // At t=15 edge 1 expires ((5, 15] excludes ts=5): match gone.
    eng.advance(&w.advance(StreamEdge::new(4, 52, 0, 53, 1, 0, 15)));
    assert_eq!(eng.live_match_count(), 0);
}

#[test]
fn rebuilt_pattern_after_expiry_matches_again() {
    let q = two_path(&[(0, 1)]);
    let mut eng = engine(&q);
    let mut w = SlidingWindow::new(10);
    eng.advance(&w.advance(StreamEdge::new(1, 10, 0, 11, 1, 0, 1)));
    assert_eq!(eng.advance(&w.advance(StreamEdge::new(2, 11, 1, 12, 2, 0, 2))).len(), 1);
    // Slide far: everything expires.
    eng.advance(&w.advance(StreamEdge::new(3, 99, 0, 98, 1, 0, 100)));
    assert_eq!(eng.live_match_count(), 0);
    // Same vertices again, fresh edges: a new match forms.
    eng.advance(&w.advance(StreamEdge::new(4, 10, 0, 11, 1, 0, 101)));
    let m = eng.advance(&w.advance(StreamEdge::new(5, 11, 1, 12, 2, 0, 102)));
    assert_eq!(m.len(), 1);
    assert_eq!(eng.live_match_count(), 1);
}

#[test]
fn partial_prefix_expiry_prunes_descendants_only() {
    // Query a→b, b→c, b→d with 0≺1, 0≺2: two leaves share the prefix.
    let q = QueryGraph::new(
        vec![VLabel(0), VLabel(1), VLabel(2), VLabel(2)],
        vec![
            QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
            QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
            QueryEdge { src: 1, dst: 3, label: ELabel::NONE },
        ],
        &[(0, 1), (0, 2)],
    )
    .unwrap();
    let mut eng = engine(&q);
    let mut w = SlidingWindow::new(100);
    eng.advance(&w.advance(StreamEdge::new(1, 10, 0, 11, 1, 0, 1)));
    eng.advance(&w.advance(StreamEdge::new(2, 11, 1, 12, 2, 0, 2)));
    let m = eng.advance(&w.advance(StreamEdge::new(3, 11, 1, 13, 2, 0, 3)));
    assert_eq!(
        m.len(),
        2,
        "two (c,d) assignments: (12,13) and (13,12)? \
        no — ε1→e2/ε2→e3 and ε1→e3/ε2→e2, both valid: {m:?}"
    );
}

#[test]
fn sjtree_and_timing_agree_after_heavy_sliding() {
    let q = two_path(&[(0, 1)]);
    let mut a = engine(&q);
    let mut b = SjTree::new(q.clone());
    let mut w1 = SlidingWindow::new(7);
    let mut w2 = SlidingWindow::new(7);
    let mut total_a = 0;
    let mut total_b = 0;
    // Repeating pattern with increasing gaps: exercises many expiries.
    let mut ts = 0u64;
    for round in 0..40u64 {
        ts += 1 + round % 3;
        let e1 = StreamEdge::new(round * 2, 10, 0, 11, 1, 0, ts);
        total_a += a.advance(&w1.advance(e1)).len();
        total_b += b.advance(&w2.advance(e1)).len();
        ts += 1 + (round / 2) % 4;
        let e2 = StreamEdge::new(round * 2 + 1, 11, 1, 12, 2, 0, ts);
        total_a += a.advance(&w1.advance(e2)).len();
        total_b += b.advance(&w2.advance(e2)).len();
    }
    assert_eq!(total_a, total_b);
    assert!(total_a > 0);
}

/// The general window boundary, pinned across every engine and baseline:
/// with a window of duration `|W|` at time `t`, the timespan is the
/// half-open `(t − |W|, t]`, so an edge whose timestamp is EXACTLY
/// `t − |W|` is expired while `t − |W| + 1` is still live. The PR-2 fix
/// pinned the `ts = 0, t < |W|` corner in `SlidingWindow` itself; this
/// drives the fencepost through `TimingEngine` (both stores), the
/// concurrent engine, SJ-tree and IncMat, checking they all agree.
///
/// Construction: e1 = a→b at `base`, e2 = b→c at `base + 1` form a match;
/// a probe edge e3 = b→c' arrives at `base + |W| + off`. For `off = 0` the
/// window is `(base, base + |W|]` — e1 sits exactly on the open bound and
/// must be gone, so e3 joins nothing. For `off = −1` e1 is still live and
/// e3 forms a second match.
#[test]
fn exact_boundary_expiry_is_identical_across_engines_and_baselines() {
    const W: u64 = 10;
    let q = two_path(&[(0, 1)]);
    for (base, probe_offset, expect_probe_matches) in
        [(5u64, 0i64, 0usize), (5, -1, 1), (1, 0, 0), (1, -1, 1), (23, 3, 0), (40, -4, 1)]
    {
        let probe_ts = (base + W).checked_add_signed(probe_offset).expect("valid ts");
        let stream = [
            StreamEdge::new(1, 10, 0, 11, 1, 0, base),
            StreamEdge::new(2, 11, 1, 12, 2, 0, base + 1),
            // b→c' with a fresh c': joins e1 iff e1 is still live.
            StreamEdge::new(3, 11, 1, 13, 2, 0, probe_ts),
        ];
        let tag = format!("base {base} probe at t-|W|{probe_offset:+}");

        // Serial engines, both stores.
        fn timing_counts<S: MatchStore>(q: &QueryGraph, stream: &[StreamEdge]) -> (usize, usize) {
            let mut eng: TimingEngine<S> =
                TimingEngine::new(QueryPlan::build(q.clone(), PlanOptions::timing()));
            let mut w = SlidingWindow::new(W);
            let mut per_arrival = Vec::new();
            for &e in stream {
                per_arrival.push(eng.advance(&w.advance(e)).len());
            }
            (*per_arrival.last().expect("nonempty"), eng.live_match_count())
        }
        let (ms_probe, ms_live) = timing_counts::<MsTreeStore>(&q, &stream);
        let (ind_probe, ind_live) = timing_counts::<IndependentStore>(&q, &stream);
        assert_eq!(ms_probe, expect_probe_matches, "MsTree probe matches, {tag}");
        assert_eq!((ms_probe, ms_live), (ind_probe, ind_live), "store divergence, {tag}");

        // Concurrent engine: total matches = the first pair's match plus
        // the probe's (if the boundary kept e1 alive); final live count
        // counts only windows-surviving matches.
        for mode in [LockingMode::FineGrained, LockingMode::AllLocks] {
            let plan = QueryPlan::build(q.clone(), PlanOptions::timing());
            let mut conc = ConcurrentEngine::new(plan, 2, mode);
            let total = conc.run(&stream, W).matches.len();
            assert_eq!(total, 1 + expect_probe_matches, "concurrent total, {tag} {mode:?}");
        }

        // SJ-tree (posterior timing filter, same window events).
        let mut sj = SjTree::new(q.clone());
        let mut w = SlidingWindow::new(W);
        let mut sj_per_arrival = Vec::new();
        for &e in &stream {
            sj_per_arrival.push(sj.advance(&w.advance(e)).len());
        }
        assert_eq!(
            *sj_per_arrival.last().expect("nonempty"),
            expect_probe_matches,
            "SJ-tree probe matches, {tag}"
        );

        // IncMat recomputes from the window's snapshot graph — the
        // boundary edge must already be outside it.
        for strategy in [Strategy::QuickSi, Strategy::TurboIso, Strategy::BoostIso] {
            let mut inc = IncMat::new(q.clone(), strategy);
            let mut w = SlidingWindow::new(W);
            let mut inc_per_arrival = Vec::new();
            for &e in &stream {
                inc_per_arrival.push(inc.advance(&w.advance(e)).len());
            }
            assert_eq!(
                *inc_per_arrival.last().expect("nonempty"),
                expect_probe_matches,
                "IncMat probe matches, {tag} {strategy:?}"
            );
        }
    }
}

#[test]
fn boundary_expiry_retracts_live_matches_in_both_stores() {
    // The match itself must disappear the instant its oldest edge sits
    // exactly on t − |W|, in both serial stores (live_match_count probes
    // the store's own row accounting, exercised by in-place unlinks).
    const W: u64 = 7;
    fn live_after<S: MatchStore>(q: &QueryGraph, slide_to: u64) -> usize {
        let mut eng: TimingEngine<S> =
            TimingEngine::new(QueryPlan::build(q.clone(), PlanOptions::timing()));
        let mut w = SlidingWindow::new(W);
        eng.advance(&w.advance(StreamEdge::new(1, 10, 0, 11, 1, 0, 3)));
        eng.advance(&w.advance(StreamEdge::new(2, 11, 1, 12, 2, 0, 4)));
        eng.advance(&w.advance(StreamEdge::new(3, 50, 0, 51, 1, 0, slide_to)));
        eng.live_match_count()
    }
    let q = two_path(&[(0, 1)]);
    // At t = 3 + W − 1 = 9 the oldest edge (ts 3) is inside (2, 9]: live.
    assert_eq!(live_after::<MsTreeStore>(&q, 3 + W - 1), 1);
    assert_eq!(live_after::<IndependentStore>(&q, 3 + W - 1), 1);
    // At t = 3 + W = 10 it sits exactly on the open bound of (3, 10]: gone.
    assert_eq!(live_after::<MsTreeStore>(&q, 3 + W), 0);
    assert_eq!(live_after::<IndependentStore>(&q, 3 + W), 0);
}

#[test]
fn empty_window_engine_is_stable() {
    // Long silence between edges: everything expires between ticks.
    let q = two_path(&[]);
    let mut eng = engine(&q);
    let mut w = SlidingWindow::new(2);
    for i in 0..20u64 {
        let m = eng.advance(&w.advance(StreamEdge::new(i, 10, 0, 11, 1, 0, (i + 1) * 100)));
        assert!(m.is_empty());
        assert_eq!(eng.live_match_count(), 0);
    }
    assert_eq!(eng.stats().partials_deleted, 19, "each tick expires the previous edge");
}
