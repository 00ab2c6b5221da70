#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench targets panic by design
//! Streaming consistency (Definition 11): the concurrent engine — any
//! thread count, either locking mode — must produce exactly the serial
//! engine's results and final state on realistic generated workloads.

use tcs_concurrent::{ConcurrentEngine, LockingMode};
use tcs_core::{MsTreeStore, PlanOptions, QueryPlan, TimingEngine};
use tcs_graph::gen::{Dataset, QueryGen, TimingMode};
use tcs_graph::window::SlidingWindow;
use tcs_graph::{MatchRecord, QueryGraph, StreamEdge};

fn serial_run(q: &QueryGraph, stream: &[StreamEdge], window: u64) -> (Vec<MatchRecord>, usize) {
    let mut eng: TimingEngine<MsTreeStore> =
        TimingEngine::new(QueryPlan::build(q.clone(), PlanOptions::timing()));
    let mut w = SlidingWindow::new(window);
    let mut out = Vec::new();
    for &e in stream {
        out.extend(eng.advance(&w.advance(e)));
    }
    out.sort();
    (out, eng.live_match_count())
}

fn check(q: &QueryGraph, stream: &[StreamEdge], window: u64, label: &str) {
    let (expected, live) = serial_run(q, stream, window);
    for threads in [1usize, 2, 4] {
        for mode in [LockingMode::FineGrained, LockingMode::AllLocks] {
            let plan = QueryPlan::build(q.clone(), PlanOptions::timing());
            let mut eng = ConcurrentEngine::new(plan, threads, mode);
            let mut got = eng.run(stream, window).matches;
            got.sort();
            assert_eq!(got, expected, "{label} threads={threads} mode={mode:?}");
            assert_eq!(
                eng.live_match_count(),
                live,
                "{label} final state, threads={threads} mode={mode:?}"
            );
        }
    }
}

#[test]
fn consistency_on_every_dataset() {
    for dataset in Dataset::ALL {
        let stream = dataset.generate(600, 31);
        let gen = QueryGen::new(&stream, 300);
        for mode in [TimingMode::Random, TimingMode::Empty, TimingMode::Full] {
            for q in gen.generate_many(3, mode, 1, 9) {
                check(&q, &stream, 200, dataset.name());
            }
        }
    }
}

#[test]
fn consistency_under_heavy_expiry() {
    // A tiny window forces constant deletion transactions interleaving
    // with insertions — the partial-removal protocol's stress case.
    let stream = Dataset::WikiTalk.generate(800, 55);
    let gen = QueryGen::new(&stream, 300);
    for q in gen.generate_many(3, TimingMode::Random, 2, 77) {
        check(&q, &stream, 25, "tiny-window");
    }
}

#[test]
fn consistency_with_multi_position_edges() {
    // Queries whose edges share signatures (single label) make one arrival
    // match several query edges — several lock groups per transaction.
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tcs_graph::query::QueryEdge;
    use tcs_graph::{ELabel, VLabel};
    let mut rng = SmallRng::seed_from_u64(5);
    let stream: Vec<StreamEdge> = (0..500)
        .map(|i| {
            let src = rng.gen_range(0..10u32);
            let mut dst = rng.gen_range(0..10u32);
            while dst == src {
                dst = rng.gen_range(0..10u32);
            }
            StreamEdge::new(i, src, 0, dst, 0, 0, i + 1)
        })
        .collect();
    let q = QueryGraph::new(
        vec![VLabel(0); 4],
        vec![
            QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
            QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
            QueryEdge { src: 2, dst: 3, label: ELabel::NONE },
        ],
        &[(0, 2)],
    )
    .unwrap();
    check(&q, &stream, 60, "uniform-labels");
}

#[test]
fn consistency_with_self_loops() {
    // Self-loop and ordinary edges of one signature: only the shared shape
    // filter (`QueryPlan::shape_matches`) decides which query edges an
    // arrival can take, in the serial engine, the concurrent runner and
    // the concurrent lock predictor alike.
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tcs_graph::query::QueryEdge;
    use tcs_graph::{ELabel, VLabel};
    let mut rng = SmallRng::seed_from_u64(13);
    let stream: Vec<StreamEdge> = (0..400u64)
        .map(|i| {
            let src = rng.gen_range(0..6u32);
            let dst = if rng.gen_bool(0.3) { src } else { (src + rng.gen_range(1..6u32)) % 6 };
            StreamEdge::new(i, src, 0, dst, 0, 0, i + 1)
        })
        .collect();
    let lp = QueryEdge { src: 0, dst: 0, label: ELabel::NONE };
    let arc = QueryEdge { src: 0, dst: 1, label: ELabel::NONE };
    check(&QueryGraph::new(vec![VLabel(0)], vec![lp], &[]).unwrap(), &stream, 40, "loop");
    check(&QueryGraph::new(vec![VLabel(0); 2], vec![arc], &[]).unwrap(), &stream, 40, "arc");
    for pairs in [vec![], vec![(0, 1)], vec![(1, 0)]] {
        let q = QueryGraph::new(vec![VLabel(0); 2], vec![lp, arc], &pairs).unwrap();
        check(&q, &stream, 40, &format!("loop+arc {pairs:?}"));
    }
}
