#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench targets panic by design
//! Property-based tests (proptest) over the core invariants:
//! timing-order closure laws, decomposition partition/validity, join-order
//! prefix-connectivity, store equivalence under random operation
//! sequences, engine-vs-oracle equivalence on small random instances, and
//! the registry's batch path against its per-edge fold.

use proptest::prelude::*;
use tcs_core::decompose::{decompose, is_timing_sequence, tc_subqueries};
use tcs_core::joinorder::{is_prefix_connected, order_by_joint_number};
use tcs_core::plan::{PlanOptions, QueryPlan};
use tcs_core::{IndependentStore, IngestError, IngestGate, MsTreeStore, OrderPolicy, TimingEngine};
use tcs_graph::query::QueryEdge;
use tcs_graph::window::SlidingWindow;
use tcs_graph::{ELabel, EdgeId, IdMap, LiveEdgeView, MatchRecord, QueryGraph, StreamEdge, VLabel};
use tcs_multi::{MultiQueryEngine, QueryId};
use tcs_subiso::SnapshotOracle;

/// A connected random query: a random tree over `n_v` vertices plus a few
/// extra edges, random labels, and a random (acyclic by construction)
/// timing order.
fn arb_query() -> impl Strategy<Value = QueryGraph> {
    (2usize..6, 0usize..3, any::<u64>()).prop_map(|(n_v, extra, seed)| {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let labels: Vec<VLabel> = (0..n_v).map(|_| VLabel(rng.gen_range(0..3))).collect();
        let mut edges = Vec::new();
        for v in 1..n_v {
            let u = rng.gen_range(0..v);
            if rng.gen_bool(0.5) {
                edges.push(QueryEdge { src: u, dst: v, label: ELabel::NONE });
            } else {
                edges.push(QueryEdge { src: v, dst: u, label: ELabel::NONE });
            }
        }
        for _ in 0..extra {
            let a = rng.gen_range(0..n_v);
            let b = rng.gen_range(0..n_v);
            edges.push(QueryEdge { src: a, dst: b, label: ELabel::NONE });
        }
        // Random DAG order: only pairs (i, j) with i < j, sampled sparsely.
        let mut pairs = Vec::new();
        for i in 0..edges.len() {
            for j in i + 1..edges.len() {
                if rng.gen_bool(0.3) {
                    pairs.push((i, j));
                }
            }
        }
        QueryGraph::new(labels, edges, &pairs).expect("construction is valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn closure_is_transitive_and_irreflexive(q in arb_query()) {
        let o = &q.order;
        let n = q.n_edges();
        for i in 0..n {
            prop_assert!(!o.lt(i, i), "irreflexive");
            for j in 0..n {
                for k in 0..n {
                    if o.lt(i, j) && o.lt(j, k) {
                        prop_assert!(o.lt(i, k), "transitive ({i},{j},{k})");
                    }
                }
                if o.lt(i, j) {
                    prop_assert!(!o.lt(j, i), "antisymmetric ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn decomposition_is_a_partition_of_tc_subqueries(q in arb_query()) {
        let d = decompose(&q);
        prop_assert!(d.is_partition_of(&q));
        for s in &d.subqueries {
            prop_assert!(is_timing_sequence(&q, &s.seq), "{:?}", s.seq);
        }
    }

    #[test]
    fn every_tcsub_member_is_valid(q in arb_query()) {
        for s in tc_subqueries(&q) {
            prop_assert!(is_timing_sequence(&q, &s.seq));
            prop_assert_eq!(
                s.seq.iter().map(|&e| 1u64 << e).sum::<u64>(),
                s.mask
            );
        }
    }

    #[test]
    fn join_orders_are_prefix_connected(q in arb_query(), seed in any::<u64>()) {
        let d = decompose(&q);
        let ordered = order_by_joint_number(&q, &d);
        prop_assert!(is_prefix_connected(&q, &ordered));
        let random = tcs_core::joinorder::order_randomly(&q, &d, seed);
        prop_assert!(is_prefix_connected(&q, &random));
        prop_assert_eq!(ordered.len(), d.k());
    }

    #[test]
    fn plan_positions_are_a_bijection(q in arb_query()) {
        let plan = QueryPlan::build(q.clone(), PlanOptions::timing());
        let mut seen = vec![false; q.n_edges()];
        for (e, seen_e) in seen.iter_mut().enumerate() {
            let (s, l) = plan.pos[e];
            prop_assert_eq!(plan.subs[s].seq[l], e);
            prop_assert!(!*seen_e);
            *seen_e = true;
        }
    }
}

/// Fails the running case with the full formatted violation list when a
/// [`tcs_core::store::StoreAudit`] sweep reports anything.
fn assert_audit_clean(violations: &[tcs_core::store::AuditViolation], store: &str, tick: u64) {
    prop_assert!(
        violations.is_empty(),
        "{store} store audit failed at tick {tick}:\n{}",
        tcs_core::store::format_violations(violations)
    );
}

/// An id is reused only once its previous edge is this many ticks old:
/// past every window the single-engine properties below draw (< 40), so
/// to them every id is unique among live edges, while the registry
/// property draws longer windows and meets live duplicates too.
const REUSE_GAP: u64 = 40;

/// A random stream and the batch cuts a registry consumes it in.
#[derive(Clone, Debug)]
struct RandomStream {
    edges: Vec<StreamEdge>,
    /// Batch lengths, summing to at least `edges.len()`.
    cuts: Vec<usize>,
}

/// Random small streams for engine-vs-oracle and registry properties.
/// About one arrival in three shares its predecessor's timestamp, one in
/// twenty jumps ahead far enough to expire many edges at once, and one in
/// five reuses the id of an edge at least [`REUSE_GAP`] ticks old.
fn arb_stream() -> impl Strategy<Value = RandomStream> {
    (20usize..80, any::<u64>()).prop_map(|(n, seed)| {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ts = 0u64;
        // id → timestamp of its newest edge.
        let mut last_use: Vec<(u64, u64)> = Vec::new();
        let mut edges = Vec::with_capacity(n);
        for i in 0..n {
            ts += match rng.gen_range(0..20u32) {
                _ if ts == 0 => 1,
                0..=5 => 0,
                6 => rng.gen_range(10..40u64),
                _ => rng.gen_range(1..3u64),
            };
            let free: Vec<usize> =
                (0..last_use.len()).filter(|&k| last_use[k].1 + REUSE_GAP <= ts).collect();
            let id = if !free.is_empty() && rng.gen_bool(0.2) {
                // Half the time the youngest free id: its edge is the
                // likeliest to be live, or to expire with this arrival.
                let k = if rng.gen_bool(0.5) {
                    free[free.len() - 1]
                } else {
                    free[rng.gen_range(0..free.len())]
                };
                last_use[k].1 = ts;
                last_use[k].0
            } else {
                last_use.push((i as u64, ts));
                i as u64
            };
            let src = rng.gen_range(0..5u32);
            let mut dst = rng.gen_range(0..5u32);
            while dst == src {
                dst = rng.gen_range(0..5u32);
            }
            edges.push(StreamEdge::new(id, src, (src % 3) as u16, dst, (dst % 3) as u16, 0, ts));
        }
        let mut cuts = Vec::new();
        let mut covered = 0;
        while covered < n {
            cuts.push(rng.gen_range(1..13usize));
            covered += cuts[cuts.len() - 1];
        }
        RandomStream { edges, cuts }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_equals_oracle_on_random_instances(
        stream in arb_stream(),
        q in arb_query(),
        window in 10u64..40,
    ) {
        // Relabel query vertices into the stream's label space (0..3) is
        // already guaranteed by arb_query; run both and compare per tick.
        let mut oracle = SnapshotOracle::new(q.clone());
        let mut ms: TimingEngine<MsTreeStore> =
            TimingEngine::new(QueryPlan::build(q.clone(), PlanOptions::timing()));
        let mut ind: TimingEngine<IndependentStore> =
            TimingEngine::new(QueryPlan::build(q.clone(), PlanOptions::timing()));
        let mut w0 = SlidingWindow::new(window);
        let mut w1 = SlidingWindow::new(window);
        let mut w2 = SlidingWindow::new(window);
        for &e in &stream.edges {
            let expected = oracle.advance(&w0.advance(e));
            let mut a = ms.advance(&w1.advance(e));
            a.sort();
            let mut b = ind.advance(&w2.advance(e));
            b.sort();
            prop_assert_eq!(&a, &expected, "mstree tick {}", e.ts);
            prop_assert_eq!(&b, &expected, "independent tick {}", e.ts);
            assert_audit_clean(&ms.audit(), "mstree", e.ts.0);
            assert_audit_clean(&ind.audit(), "independent", e.ts.0);
        }
        // Final live counts agree too.
        prop_assert_eq!(ms.live_match_count(), ind.live_match_count());
        prop_assert_eq!(ms.live_match_count(), oracle.all_matches().len());
    }

    #[test]
    fn emitted_matches_always_verify(stream in arb_stream(), q in arb_query()) {
        // Whatever the engine emits must satisfy Definition 4 — checked
        // against an independently maintained snapshot.
        use tcs_graph::snapshot::Snapshot;
        let mut eng: TimingEngine<MsTreeStore> =
            TimingEngine::new(QueryPlan::build(q.clone(), PlanOptions::timing()));
        let mut w = SlidingWindow::new(30);
        let mut snap = Snapshot::new();
        for &e in &stream.edges {
            let ev = w.advance(e);
            for x in &ev.expired {
                snap.remove(x.id);
            }
            snap.insert(ev.arrival);
            for m in eng.advance(&ev) {
                prop_assert_eq!(m.verify(&q, |id| snap.edge(id)), Ok(()));
            }
        }
    }
}

/// Random hub-heavy streams: endpoints drawn from a Zipf distribution so
/// a few hub vertices concentrate most edges — the workload where the
/// hash-indexed expansion lists matter (one hot bucket per hub) and where
/// an index-coherence bug would surface as a wrong match stream.
fn arb_zipf_stream() -> impl Strategy<Value = Vec<StreamEdge>> {
    (40usize..100, any::<u64>()).prop_map(|(n, seed)| {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use tcs_graph::gen::Zipf;
        let mut rng = SmallRng::seed_from_u64(seed);
        let zipf = Zipf::new(12, 1.4);
        (0..n)
            .map(|i| {
                let src = zipf.sample(&mut rng) as u32;
                let mut dst = zipf.sample(&mut rng) as u32;
                while dst == src {
                    dst = rng.gen_range(0..12u32);
                }
                StreamEdge::new(
                    i as u64,
                    src,
                    (src % 3) as u16,
                    dst,
                    (dst % 3) as u16,
                    0,
                    i as u64 + 1,
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant of the join-key indexes: the indexed
    /// (probing) engine emits the exact same match stream as the naive
    /// subiso oracle on hub-heavy Zipf streams, tick by tick, on both
    /// stores — the index must be semantically invisible.
    #[test]
    fn indexed_engine_equals_oracle_on_zipf_streams(
        stream in arb_zipf_stream(),
        q in arb_query(),
        window in 10u64..50,
    ) {
        let mut oracle = SnapshotOracle::new(q.clone());
        let mut probe: TimingEngine<MsTreeStore> =
            TimingEngine::new(QueryPlan::build(q.clone(), PlanOptions::timing()));
        let mut ind: TimingEngine<IndependentStore> =
            TimingEngine::new(QueryPlan::build(q.clone(), PlanOptions::timing()));
        let mut w0 = SlidingWindow::new(window);
        let mut w1 = SlidingWindow::new(window);
        let mut w2 = SlidingWindow::new(window);
        for &e in &stream {
            let expected = oracle.advance(&w0.advance(e));
            let mut got = probe.advance(&w1.advance(e));
            got.sort();
            prop_assert_eq!(&got, &expected, "probe vs oracle at tick {}", e.ts);
            let mut ind_got = ind.advance(&w2.advance(e));
            ind_got.sort();
            prop_assert_eq!(&ind_got, &expected, "independent probe vs oracle at tick {}", e.ts);
            assert_audit_clean(&probe.audit(), "mstree", e.ts.0);
            assert_audit_clean(&ind.audit(), "independent", e.ts.0);
        }
        prop_assert_eq!(probe.live_match_count(), oracle.all_matches().len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// MS-tree and the independent store must stay observationally
    /// equivalent under arbitrary interleavings of inserts and expiries
    /// driven through the engine.
    #[test]
    fn stores_stay_equivalent_under_random_ops(
        stream in arb_stream(),
        q in arb_query(),
        window in 5u64..25,
    ) {
        let mut ms: TimingEngine<MsTreeStore> =
            TimingEngine::new(QueryPlan::build(q.clone(), PlanOptions::timing()));
        let mut ind: TimingEngine<IndependentStore> =
            TimingEngine::new(QueryPlan::build(q.clone(), PlanOptions::timing()));
        let mut w1 = SlidingWindow::new(window);
        let mut w2 = SlidingWindow::new(window);
        for &e in &stream.edges {
            let mut a = ms.advance(&w1.advance(e));
            a.sort();
            let mut b = ind.advance(&w2.advance(e));
            b.sort();
            prop_assert_eq!(a, b);
            prop_assert_eq!(ms.live_match_count(), ind.live_match_count());
            assert_audit_clean(&ms.audit(), "mstree", e.ts.0);
            assert_audit_clean(&ind.audit(), "independent", e.ts.0);
        }
    }

    /// The concurrent tree passes the same invariant sweep at every
    /// quiescent point: run the fine-grained engine over random streams
    /// in several batches and audit between batches (all workers joined,
    /// all partial removals reclaimed).
    #[test]
    fn concurrent_tree_audit_is_clean_at_quiescence(
        stream in arb_stream(),
        q in arb_query(),
        window in 5u64..25,
    ) {
        use tcs_concurrent::engine::{ConcurrentEngine, LockingMode};
        let mut eng = ConcurrentEngine::new(
            QueryPlan::build(q, PlanOptions::timing()),
            2,
            LockingMode::FineGrained,
        );
        // This engine takes the raw stream, with no ingestion gate, and
        // does not yet survive a reused id (it stalls; ROADMAP direction
        // 8c): the audit runs on the stream with every id made unique.
        let edges: Vec<StreamEdge> = stream
            .edges
            .iter()
            .enumerate()
            .map(|(i, e)| StreamEdge { id: EdgeId(i as u64), ..*e })
            .collect();
        for chunk in edges.chunks(edges.len().div_ceil(3).max(1)) {
            eng.run(chunk, window);
            assert_audit_clean(&eng.audit(), "cms-tree", 0);
        }
    }

    /// The registry over random batch cuts equals its per-edge fold —
    /// matches, rejections, counters, `window_len` and `snapshot_bytes` —
    /// and a gate fed the same arrivals resolves exactly the ids that a
    /// `SlidingWindow` plus an id map hold live.
    #[test]
    fn registry_over_batch_cuts_equals_per_edge_fold(
        stream in arb_stream(),
        q in arb_query(),
        q2 in arb_query(),
        window in 10u64..80,
    ) {
        let mut batched: MultiQueryEngine = MultiQueryEngine::new(window);
        let mut folded: MultiQueryEngine = MultiQueryEngine::new(window);
        let mut ids = Vec::new();
        for q in [q, q2] {
            let plan = QueryPlan::build(q, PlanOptions::timing());
            let id = batched.register(plan.clone());
            prop_assert_eq!(folded.register(plan), id);
            ids.push(id);
        }
        let of = |out: &[(QueryId, MatchRecord)], q: QueryId| -> Vec<MatchRecord> {
            out.iter().filter(|(x, _)| *x == q).map(|(_, m)| m.clone()).collect()
        };
        let mut gate = IngestGate::new(window, OrderPolicy::default());
        let mut reference = SlidingWindow::new(window);
        let mut live: IdMap<EdgeId, StreamEdge> = IdMap::default();
        let mut seen: Vec<EdgeId> = Vec::new();
        let mut rest = &stream.edges[..];
        for &cut in &stream.cuts {
            let (batch, tail) = rest.split_at(cut.min(rest.len()));
            rest = tail;
            let got = batched.try_advance_batch(batch);
            let mut fold_out = Vec::new();
            let mut fold_err = None;
            for &e in batch {
                // Ids are the only thing the stream can get wrong: a
                // duplicate is an id still live after this arrival's
                // expiries.
                let bound = e.ts.0.checked_sub(window);
                let dup = live.get(&e.id).is_some_and(|x| bound.is_none_or(|b| x.ts.0 > b));
                prop_assert_eq!(gate.admit(e).is_err(), dup);
                match folded.try_advance(e) {
                    Ok(out) => fold_out.extend(out),
                    Err(err) => {
                        prop_assert!(dup);
                        prop_assert_eq!(err, IngestError::DuplicateEdgeId { id: e.id });
                        fold_err = Some(err);
                        break;
                    }
                }
                prop_assert!(!dup);
                for x in reference.advance(e).expired {
                    live.remove(&x.id);
                }
                live.insert(e.id, e);
                seen.push(e.id);
                for id in &seen {
                    prop_assert_eq!(gate.live_edge(*id), live.get(id));
                }
            }
            match (&got, fold_err) {
                (Ok(out), None) => {
                    for &q in &ids {
                        prop_assert_eq!(of(out, q), of(&fold_out, q));
                    }
                }
                (Err(a), Some(b)) => prop_assert_eq!(*a, b),
                (a, b) => prop_assert!(false, "batch {:?} but fold {:?}", a, b),
            }
            for &q in &ids {
                prop_assert_eq!(batched.counters_of(q), folded.counters_of(q));
                prop_assert_eq!(batched.live_match_count(q), folded.live_match_count(q));
            }
            prop_assert_eq!(batched.window_len(), folded.window_len());
            prop_assert_eq!(batched.window_len(), reference.len());
            prop_assert_eq!(batched.stats().snapshot_bytes, folded.stats().snapshot_bytes);
            prop_assert_eq!(batched.stats().snapshot_bytes, gate.live_edge_bytes());
            prop_assert_eq!(batched.ingest_stats(), folded.ingest_stats());
            prop_assert_eq!(batched.ingest_stats(), gate.stats());
        }
    }

    /// Timing-order semantics: with a FULL chain over a 2-edge path query,
    /// reversing edge arrival order kills the match; structure-only keeps
    /// it.
    #[test]
    fn chain_order_is_enforced(t1 in 1u64..50, gap in 1u64..50) {
        let q_chain = QueryGraph::new(
            vec![VLabel(0), VLabel(1), VLabel(2)],
            vec![
                QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
                QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
            ],
            &[(0, 1)],
        )
        .unwrap();
        let t2 = t1 + gap;
        // ε1-shaped first, ε0-shaped second.
        let e_b = StreamEdge::new(1, 11, 1, 12, 2, 0, t1);
        let e_a = StreamEdge::new(2, 10, 0, 11, 1, 0, t2);
        let mut eng: TimingEngine<MsTreeStore> =
            TimingEngine::new(QueryPlan::build(q_chain.clone(), PlanOptions::timing()));
        let mut w = SlidingWindow::new(1_000);
        let m1 = eng.advance(&w.advance(e_b));
        let m2 = eng.advance(&w.advance(e_a));
        prop_assert!(m1.is_empty() && m2.is_empty(), "order violated ⇒ no match");

        let q_free = QueryGraph::new(
            q_chain.vertex_labels.clone(),
            q_chain.edges.clone(),
            &[],
        )
        .unwrap();
        let mut eng2: TimingEngine<MsTreeStore> =
            TimingEngine::new(QueryPlan::build(q_free, PlanOptions::timing()));
        let mut w2 = SlidingWindow::new(1_000);
        let n1 = eng2.advance(&w2.advance(e_b));
        let n2 = eng2.advance(&w2.advance(e_a));
        prop_assert_eq!(n1.len() + n2.len(), 1, "structure-only finds it");
    }
}
