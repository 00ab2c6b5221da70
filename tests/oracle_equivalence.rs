#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench targets panic by design
//! Oracle equivalence: the streaming engines must report exactly the same
//! new matches as the naive per-snapshot enumerator, at every tick, on
//! random streams and generated queries.

use tcs_core::{IndependentStore, MsTreeStore, PlanOptions, QueryPlan, TimingEngine};
use tcs_graph::gen::{Dataset, QueryGen, TimingMode};
use tcs_graph::window::SlidingWindow;
use tcs_graph::{MatchRecord, QueryGraph, StreamEdge};
use tcs_subiso::SnapshotOracle;

/// Streams `edges` through the oracle and an engine simultaneously,
/// asserting identical new-match sets at every tick.
fn assert_engine_matches_oracle<S: tcs_core::MatchStore>(
    q: &QueryGraph,
    edges: &[StreamEdge],
    window: u64,
    opts: PlanOptions,
    label: &str,
) {
    let mut oracle = SnapshotOracle::new(q.clone());
    let mut engine: TimingEngine<S> = TimingEngine::new(QueryPlan::build(q.clone(), opts));
    let mut w1 = SlidingWindow::new(window);
    let mut w2 = SlidingWindow::new(window);
    for (tick, &e) in edges.iter().enumerate() {
        let expected = oracle.advance(&w1.advance(e));
        let mut got: Vec<MatchRecord> = engine.advance(&w2.advance(e));
        got.sort();
        assert_eq!(got, expected, "{label}: divergence at tick {tick} (edge {:?})", e.id);
    }
}

/// Small dense random streams (few vertices, few labels) stress joins,
/// expiry and multi-role edges much harder than realistic data.
fn dense_stream(n: usize, n_vertices: u32, n_labels: u16, seed: u64) -> Vec<StreamEdge> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let src = rng.gen_range(0..n_vertices);
            let mut dst = rng.gen_range(0..n_vertices);
            while dst == src {
                dst = rng.gen_range(0..n_vertices);
            }
            StreamEdge::new(
                i as u64,
                src,
                (src % n_labels as u32) as u16,
                dst,
                (dst % n_labels as u32) as u16,
                0,
                i as u64 + 1,
            )
        })
        .collect()
}

/// Queries walked out of the dense stream itself, every timing mode.
fn walked_queries(edges: &[StreamEdge], sizes: &[usize], seed: u64) -> Vec<QueryGraph> {
    let gen = QueryGen::new(edges, edges.len().min(100));
    let mut out = Vec::new();
    for &size in sizes {
        for mode in [TimingMode::Full, TimingMode::Empty, TimingMode::Random] {
            out.extend(gen.generate_many(size, mode, 2, seed));
        }
    }
    out
}

#[test]
fn mstree_engine_equals_oracle_on_dense_streams() {
    for seed in 0..4u64 {
        let edges = dense_stream(300, 7, 3, seed);
        for q in walked_queries(&edges, &[2, 3, 4], seed) {
            assert_engine_matches_oracle::<MsTreeStore>(
                &q,
                &edges,
                60,
                PlanOptions::timing(),
                &format!("mstree seed={seed} k≈{}", q.n_edges()),
            );
        }
    }
}

#[test]
fn independent_engine_equals_oracle_on_dense_streams() {
    for seed in 4..7u64 {
        let edges = dense_stream(250, 6, 2, seed);
        for q in walked_queries(&edges, &[2, 3], seed) {
            assert_engine_matches_oracle::<IndependentStore>(
                &q,
                &edges,
                50,
                PlanOptions::timing(),
                &format!("independent seed={seed}"),
            );
        }
    }
}

#[test]
fn cross_constraint_floors_equal_oracle() {
    // `Q¹ = {ε0: a→b ≺ ε1: b→c}`, `Q² = {ε2: d→a ≺ ε3: d→e}` with the
    // cross-subquery constraint `ε2 ≺ ε1`: the shape whose `L₀` probes
    // carry a nonzero timestamp floor, so rows skipped below the floor
    // must be exactly the rows the oracle rejects on timing.
    use tcs_graph::query::QueryEdge;
    use tcs_graph::{ELabel, VLabel};
    let q = QueryGraph::new(
        vec![VLabel(0), VLabel(1), VLabel(2), VLabel(3), VLabel(4)],
        vec![
            QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
            QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
            QueryEdge { src: 3, dst: 0, label: ELabel::NONE },
            QueryEdge { src: 3, dst: 4, label: ELabel::NONE },
        ],
        &[(0, 1), (2, 3), (2, 1)],
    )
    .unwrap();
    for seed in 0..4u64 {
        let edges = dense_stream(300, 10, 5, seed ^ 0x5eed);
        let label = format!("cross-constraint seed={seed}");
        assert_engine_matches_oracle::<MsTreeStore>(&q, &edges, 80, PlanOptions::timing(), &label);
        assert_engine_matches_oracle::<IndependentStore>(
            &q,
            &edges,
            80,
            PlanOptions::timing(),
            &label,
        );
    }
}

#[test]
fn self_loop_shapes_equal_oracle() {
    // A self-loop query edge and an ordinary one between two same-label
    // vertices share a signature; only the engines' shape filter
    // (`QueryPlan::shape_matches`) tells them apart. The stream mixes
    // self-loops and ordinary edges of that signature. The two-edge query
    // runs in every timing order; each of its edges alone is the case
    // where a level-0 insert is reported with no join check after it.
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tcs_graph::query::QueryEdge;
    use tcs_graph::{ELabel, VLabel};
    let lp = QueryEdge { src: 0, dst: 0, label: ELabel::NONE };
    let arc = QueryEdge { src: 0, dst: 1, label: ELabel::NONE };
    let mut queries = vec![
        QueryGraph::new(vec![VLabel(0)], vec![lp], &[]).unwrap(),
        QueryGraph::new(vec![VLabel(0); 2], vec![arc], &[]).unwrap(),
    ];
    for pairs in [vec![], vec![(0, 1)], vec![(1, 0)]] {
        queries.push(QueryGraph::new(vec![VLabel(0); 2], vec![lp, arc], &pairs).unwrap());
    }
    for seed in 0..3u64 {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x100f);
        let edges: Vec<StreamEdge> = (0..300u64)
            .map(|i| {
                let src = rng.gen_range(0..6u32);
                let dst = if rng.gen_bool(0.3) { src } else { (src + rng.gen_range(1..6u32)) % 6 };
                StreamEdge::new(i, src, 0, dst, 0, 0, i + 1)
            })
            .collect();
        for (n, q) in queries.iter().enumerate() {
            let label = format!("self-loop seed={seed} query={n}");
            let opts = PlanOptions::timing();
            assert_engine_matches_oracle::<MsTreeStore>(q, &edges, 40, opts, &label);
            assert_engine_matches_oracle::<IndependentStore>(q, &edges, 40, opts, &label);
        }
    }
}

#[test]
fn randomized_plans_equal_oracle() {
    // Timing-RD / Timing-RJ / Timing-RDJ change performance, never results.
    let edges = dense_stream(250, 6, 2, 11);
    for q in walked_queries(&edges, &[3, 4], 11) {
        for (name, opts) in [
            ("RD", PlanOptions::random_decomposition(5)),
            ("RJ", PlanOptions::random_join(6)),
            ("RDJ", PlanOptions::random_both(7)),
        ] {
            assert_engine_matches_oracle::<MsTreeStore>(&q, &edges, 50, opts, name);
        }
    }
}

#[test]
fn engine_equals_oracle_on_realistic_generators() {
    for dataset in Dataset::ALL {
        let edges = dataset.generate(400, 21);
        let gen = QueryGen::new(&edges, 200);
        for mode in [TimingMode::Full, TimingMode::Empty, TimingMode::Random] {
            for q in gen.generate_many(3, mode, 2, 33) {
                assert_engine_matches_oracle::<MsTreeStore>(
                    &q,
                    &edges,
                    150,
                    PlanOptions::timing(),
                    dataset.name(),
                );
            }
        }
    }
}

#[test]
fn running_example_equals_oracle() {
    // The paper's own query over its own stream (Figure 3/5).
    let q = QueryGraph::running_example();
    let edges = vec![
        StreamEdge::new(1, 7, 4, 8, 5, 0, 1),
        StreamEdge::new(2, 4, 2, 9, 4, 0, 2),
        StreamEdge::new(3, 4, 2, 7, 4, 0, 3),
        StreamEdge::new(4, 5, 3, 4, 2, 0, 4),
        StreamEdge::new(5, 3, 1, 4, 2, 0, 5),
        StreamEdge::new(6, 2, 0, 3, 1, 0, 6),
        StreamEdge::new(7, 5, 3, 3, 1, 0, 7),
        StreamEdge::new(8, 1, 0, 3, 1, 0, 8),
        StreamEdge::new(9, 6, 3, 4, 2, 0, 9),
        StreamEdge::new(10, 5, 3, 7, 4, 0, 10),
    ];
    assert_engine_matches_oracle::<MsTreeStore>(
        &q,
        &edges,
        9,
        PlanOptions::timing(),
        "running-example",
    );
    assert_engine_matches_oracle::<IndependentStore>(
        &q,
        &edges,
        9,
        PlanOptions::timing(),
        "running-example-ind",
    );
}
