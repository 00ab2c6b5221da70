//! Edge-at-a-time backtracking subgraph-isomorphism matcher.
//!
//! The matcher enumerates all assignments of distinct data edges to query
//! edges such that the induced vertex mapping is consistent and injective
//! and all labels match (Definition 4's structure constraint). It walks
//! query edges in a *prefix-connected* order supplied by a [`Strategy`],
//! so from the second step onwards at least one endpoint of the current
//! query edge is already bound and candidates come from adjacency lists
//! instead of the global signature index.

use crate::strategy::Strategy;
use tcs_graph::snapshot::Snapshot;
use tcs_graph::{EdgeId, MatchRecord, QueryGraph, StreamEdge, VertexId};

/// Options narrowing an enumeration.
#[derive(Clone, Debug, Default)]
pub struct MatchOptions {
    /// Only report matches that use this data edge (incremental search for
    /// matches created by a new arrival).
    pub must_contain: Option<EdgeId>,
    /// Anchor: force query edge `.0` to match data edge `.1` and start the
    /// matching order there. Incremental matchers use this to seed the
    /// search at the new arrival instead of enumerating the whole region
    /// and filtering.
    pub anchor: Option<(usize, EdgeId)>,
    /// Restrict the search to this edge set (IncMat's affected area). Edges
    /// outside the set are invisible.
    pub restrict_to: Option<tcs_graph::IdSet<EdgeId>>,
    /// Stop after this many matches (0 = unlimited).
    pub limit: usize,
}

/// Enumerates matches of `q` in `snap` under `opts`, using `strategy` to
/// pick the matching order and extra pruning.
pub fn enumerate_matches(
    snap: &Snapshot,
    q: &QueryGraph,
    strategy: Strategy,
    opts: &MatchOptions,
) -> Vec<MatchRecord> {
    let order = strategy.matching_order_from(q, snap, opts.anchor.map(|(qe, _)| qe));
    debug_assert_eq!(order.len(), q.n_edges());
    let mut st = SearchState {
        snap,
        q,
        strategy,
        opts,
        order: &order,
        assigned: vec![EdgeId(u64::MAX); q.n_edges()],
        used_edges: Vec::with_capacity(q.n_edges()),
        fwd: vec![None; q.n_vertices()],
        bwd: Vec::with_capacity(q.n_vertices()),
        out: Vec::new(),
    };
    st.recurse(0);
    st.out
}

struct SearchState<'a> {
    snap: &'a Snapshot,
    q: &'a QueryGraph,
    strategy: Strategy,
    opts: &'a MatchOptions,
    order: &'a [usize],
    /// Data edge assigned to each query edge (by query-edge index).
    assigned: Vec<EdgeId>,
    used_edges: Vec<EdgeId>,
    /// Query vertex → bound data vertex.
    fwd: Vec<Option<VertexId>>,
    /// Stack of (data vertex, query vertex) bindings for reverse lookups and
    /// undo.
    bwd: Vec<(VertexId, usize)>,
    out: Vec<MatchRecord>,
}

impl<'a> SearchState<'a> {
    fn recurse(&mut self, depth: usize) {
        if self.opts.limit != 0 && self.out.len() >= self.opts.limit {
            return;
        }
        if depth == self.order.len() {
            if let Some(need) = self.opts.must_contain {
                if !self.assigned.contains(&need) {
                    return;
                }
            }
            self.out.push(MatchRecord::from(self.assigned.clone()));
            return;
        }
        let qe_idx = self.order[depth];
        let qe = self.q.edges[qe_idx];
        let want_sig = self.q.signature(qe_idx);
        let src_bound = self.fwd[qe.src];
        let dst_bound = self.fwd[qe.dst];

        // Candidate edges: an anchored query edge has exactly one
        // candidate; otherwise prefer adjacency of a bound endpoint and
        // fall back to the signature index for the very first edge.
        if let Some((aqe, aid)) = self.opts.anchor {
            if aqe == qe_idx {
                self.try_candidate(depth, qe_idx, aid);
                return;
            }
        }
        let candidates: Vec<EdgeId> = match (src_bound, dst_bound) {
            (Some(s), _) => self
                .snap
                .incident(s)
                .iter()
                .filter(|&&(_, d)| d == tcs_graph::snapshot::Dir::Out)
                .map(|&(e, _)| e)
                .collect(),
            (None, Some(d)) => self
                .snap
                .incident(d)
                .iter()
                .filter(|&&(_, dir)| dir == tcs_graph::snapshot::Dir::In)
                .map(|&(e, _)| e)
                .collect(),
            (None, None) => self.snap.with_signature(want_sig).to_vec(),
        };

        for eid in candidates {
            self.try_candidate(depth, qe_idx, eid);
        }
    }

    /// Attempts to assign data edge `eid` to query edge `qe_idx` at the
    /// given depth, recursing deeper on success.
    fn try_candidate(&mut self, depth: usize, qe_idx: usize, eid: EdgeId) {
        let qe = self.q.edges[qe_idx];
        let want_sig = self.q.signature(qe_idx);
        if let Some(restrict) = &self.opts.restrict_to {
            if !restrict.contains(&eid) {
                return;
            }
        }
        if self.used_edges.contains(&eid) {
            return;
        }
        let Some(&e) = self.snap.edge(eid) else {
            return; // anchors may reference edges not (yet) live
        };
        if e.signature() != want_sig {
            return;
        }
        if !self.endpoints_compatible(qe.src, e.src) || !self.endpoints_compatible(qe.dst, e.dst) {
            return;
        }
        if e.src == e.dst && qe.src != qe.dst {
            return; // self-loop cannot host two distinct query vertices
        }
        if qe.src == qe.dst && e.src != e.dst {
            return;
        }
        if !self.strategy.candidate_ok(self.q, qe_idx, &e, self.snap) {
            return;
        }
        // Bind and recurse.
        let bound_src = self.bind(qe.src, e.src);
        let bound_dst = self.bind(qe.dst, e.dst);
        self.assigned[qe_idx] = eid;
        self.used_edges.push(eid);
        self.recurse(depth + 1);
        self.used_edges.pop();
        self.assigned[qe_idx] = EdgeId(u64::MAX);
        if bound_dst {
            self.unbind(qe.dst);
        }
        if bound_src {
            self.unbind(qe.src);
        }
    }

    /// Checks binding `qv → dv` against consistency and injectivity.
    fn endpoints_compatible(&self, qv: usize, dv: VertexId) -> bool {
        match self.fwd[qv] {
            Some(prev) => prev == dv,
            None => !self.bwd.iter().any(|&(v, q)| v == dv && q != qv),
        }
    }

    /// Binds `qv → dv` if not already bound; returns whether a new binding
    /// was created (caller must undo exactly those).
    fn bind(&mut self, qv: usize, dv: VertexId) -> bool {
        if self.fwd[qv].is_some() {
            return false;
        }
        self.fwd[qv] = Some(dv);
        self.bwd.push((dv, qv));
        true
    }

    fn unbind(&mut self, qv: usize) {
        let dv = self.fwd[qv].take().unwrap_or_else(|| unreachable!("unbind of unbound vertex"));
        let pos = self
            .bwd
            .iter()
            .rposition(|&(v, q)| v == dv && q == qv)
            .unwrap_or_else(|| unreachable!("binding recorded"));
        self.bwd.remove(pos);
    }
}

/// Convenience: builds a snapshot from edges (tests and small tools).
pub fn snapshot_of(edges: &[StreamEdge]) -> Snapshot {
    let mut s = Snapshot::new();
    for &e in edges {
        s.insert(e);
    }
    s
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;
    use tcs_graph::query::QueryEdge;
    use tcs_graph::{ELabel, VLabel};

    fn triangle_query() -> QueryGraph {
        // a→b, b→c, c→a with distinct labels 0,1,2.
        QueryGraph::new(
            vec![VLabel(0), VLabel(1), VLabel(2)],
            vec![
                QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
                QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
                QueryEdge { src: 2, dst: 0, label: ELabel::NONE },
            ],
            &[],
        )
        .unwrap()
    }

    fn triangle_data() -> Vec<StreamEdge> {
        vec![
            StreamEdge::new(1, 10, 0, 11, 1, 0, 1),
            StreamEdge::new(2, 11, 1, 12, 2, 0, 2),
            StreamEdge::new(3, 12, 2, 10, 0, 0, 3),
            // A distractor edge with wrong labels.
            StreamEdge::new(4, 20, 5, 21, 6, 0, 4),
        ]
    }

    #[test]
    fn finds_the_triangle_with_every_strategy() {
        let snap = snapshot_of(&triangle_data());
        let q = triangle_query();
        for s in Strategy::ALL {
            let ms = enumerate_matches(&snap, &q, s, &MatchOptions::default());
            assert_eq!(ms.len(), 1, "strategy {s:?}");
            assert_eq!(ms[0].edges(), &[EdgeId(1), EdgeId(2), EdgeId(3)]);
            ms[0].verify(&q, |id| snap.edge(id)).unwrap();
        }
    }

    #[test]
    fn parallel_edges_yield_multiple_matches() {
        // Two parallel a→b edges: a one-edge query matches twice.
        let q = QueryGraph::new(
            vec![VLabel(0), VLabel(1)],
            vec![QueryEdge { src: 0, dst: 1, label: ELabel::NONE }],
            &[],
        )
        .unwrap();
        let snap = snapshot_of(&[
            StreamEdge::new(1, 10, 0, 11, 1, 0, 1),
            StreamEdge::new(2, 10, 0, 11, 1, 0, 2),
        ]);
        let ms = enumerate_matches(&snap, &q, Strategy::QuickSi, &MatchOptions::default());
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn must_contain_filters() {
        let snap = snapshot_of(&triangle_data());
        let q = triangle_query();
        let mut opts = MatchOptions { must_contain: Some(EdgeId(4)), ..Default::default() };
        assert!(enumerate_matches(&snap, &q, Strategy::QuickSi, &opts).is_empty());
        opts.must_contain = Some(EdgeId(2));
        assert_eq!(enumerate_matches(&snap, &q, Strategy::QuickSi, &opts).len(), 1);
    }

    #[test]
    fn restrict_to_hides_edges() {
        let snap = snapshot_of(&triangle_data());
        let q = triangle_query();
        let opts = MatchOptions {
            restrict_to: Some([EdgeId(1), EdgeId(2)].into_iter().collect()),
            ..Default::default()
        };
        assert!(enumerate_matches(&snap, &q, Strategy::QuickSi, &opts).is_empty());
    }

    #[test]
    fn limit_caps_results() {
        let q = QueryGraph::new(
            vec![VLabel(0), VLabel(1)],
            vec![QueryEdge { src: 0, dst: 1, label: ELabel::NONE }],
            &[],
        )
        .unwrap();
        let edges: Vec<StreamEdge> =
            (0..10).map(|i| StreamEdge::new(i, 10 + i as u32, 0, 50, 1, 0, i + 1)).collect();
        let snap = snapshot_of(&edges);
        let opts = MatchOptions { limit: 3, ..Default::default() };
        assert_eq!(enumerate_matches(&snap, &q, Strategy::TurboIso, &opts).len(), 3);
    }

    #[test]
    fn injectivity_prevents_vertex_reuse() {
        // Query: a→b, a→c (two distinct neighbours with the same label).
        let q = QueryGraph::new(
            vec![VLabel(0), VLabel(1), VLabel(1)],
            vec![
                QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
                QueryEdge { src: 0, dst: 2, label: ELabel::NONE },
            ],
            &[],
        )
        .unwrap();
        // Data: single edge 10→11 plus parallel 10→11: both query edges
        // would need dst vertices 11 and 11 — not injective. Two distinct
        // dst vertices 11, 12 give 2 matches (symmetry).
        let snap = snapshot_of(&[
            StreamEdge::new(1, 10, 0, 11, 1, 0, 1),
            StreamEdge::new(2, 10, 0, 11, 1, 0, 2),
        ]);
        assert!(
            enumerate_matches(&snap, &q, Strategy::QuickSi, &MatchOptions::default()).is_empty()
        );
        let snap2 = snapshot_of(&[
            StreamEdge::new(1, 10, 0, 11, 1, 0, 1),
            StreamEdge::new(2, 10, 0, 12, 1, 0, 2),
        ]);
        assert_eq!(
            enumerate_matches(&snap2, &q, Strategy::QuickSi, &MatchOptions::default()).len(),
            2
        );
    }

    #[test]
    fn self_loop_query_matches_only_self_loops() {
        let q = QueryGraph::new(
            vec![VLabel(0)],
            vec![QueryEdge { src: 0, dst: 0, label: ELabel::NONE }],
            &[],
        )
        .unwrap();
        let snap = snapshot_of(&[
            StreamEdge::new(1, 5, 0, 5, 0, 0, 1),
            StreamEdge::new(2, 6, 0, 7, 0, 0, 2),
        ]);
        let ms = enumerate_matches(&snap, &q, Strategy::BoostIso, &MatchOptions::default());
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].edge(0), EdgeId(1));
    }

    #[test]
    fn strategies_agree_on_counts() {
        // Random-ish small graph; all strategies must agree on the number
        // of matches (they only change order/pruning, never semantics).
        let q = triangle_query();
        let mut edges = triangle_data();
        edges.push(StreamEdge::new(5, 12, 2, 13, 0, 0, 5));
        edges.push(StreamEdge::new(6, 13, 0, 11, 1, 0, 6));
        let snap = snapshot_of(&edges);
        let counts: Vec<usize> = Strategy::ALL
            .iter()
            .map(|&s| enumerate_matches(&snap, &q, s, &MatchOptions::default()).len())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }
}
