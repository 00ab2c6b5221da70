//! SJ-tree: continuous subgraph search without timing pruning
//! (Choudhury et al., "A selectivity based approach to continuous pattern
//! detection in streaming graphs", EDBT 2015 — the paper's \[1\]).
//!
//! The SJ-tree is a left-deep join tree whose leaves are single query edges
//! and whose internal node `i` stores all partial matches of the first
//! `i + 1` edges; the root stores complete structural matches. This is
//! precisely the expansion-list machinery of the main engine *with the
//! timing order erased*: the decomposition degenerates to singletons and
//! the `L₀` chain is the left-deep join tree. We therefore reuse
//! [`TimingEngine`] over a structure-only copy of the query — every edge is
//! admitted (no discardable-edge pruning), every partial match is retained,
//! and each partial match is stored independently
//! ([`IndependentStore`], matching the original system, which does not
//! prefix-compress) — then verify the timing order **posteriorly** on
//! complete matches, exactly how the paper evaluates SJ-tree (§VII-C).

use std::collections::HashMap;
use tcs_core::{IndependentStore, PlanOptions, QueryPlan, TimingEngine};
use tcs_graph::window::WindowEvent;
use tcs_graph::{EdgeId, MatchRecord, QueryGraph, Timestamp};

/// The SJ-tree baseline system.
pub struct SjTree {
    /// The original query, including the timing order used for the
    /// posterior filter.
    query: QueryGraph,
    /// Engine over the structure-only query.
    engine: TimingEngine<IndependentStore>,
    /// Timestamps of live edges, for the posterior timing check.
    ts: HashMap<EdgeId, Timestamp>,
}

impl SjTree {
    /// Builds the SJ-tree for a query.
    pub fn new(query: QueryGraph) -> SjTree {
        let structural = QueryGraph::new(
            query.vertex_labels.clone(),
            query.edges.clone(),
            &[], // timing order erased: SJ-tree is structure-only
        )
        .unwrap_or_else(|e| unreachable!("erasing the timing order preserves validity: {e}"));
        let plan = QueryPlan::build(structural, PlanOptions::timing());
        SjTree { query, engine: TimingEngine::new(plan), ts: HashMap::new() }
    }

    /// Applies one window event; returns new *time-constrained* matches
    /// (structural matches that survive the posterior timing filter).
    pub fn advance(&mut self, ev: &WindowEvent) -> Vec<MatchRecord> {
        for e in &ev.expired {
            self.ts.remove(&e.id);
        }
        self.ts.insert(ev.arrival.id, ev.arrival.ts);
        let structural = self.engine.advance(ev);
        structural.into_iter().filter(|m| self.timing_ok(m)).collect()
    }

    fn timing_ok(&self, m: &MatchRecord) -> bool {
        for j in 0..self.query.n_edges() {
            let tj = self.ts[&m.edge(j)];
            let mut preds = self.query.order.before_mask(j);
            while preds != 0 {
                let i = preds.trailing_zeros() as usize;
                preds &= preds - 1;
                if self.ts[&m.edge(i)] >= tj {
                    return false;
                }
            }
        }
        true
    }

    /// Bytes of maintained state (partial matches + live-edge records).
    /// Dominated by the unpruned partial matches — SJ-tree's weakness in
    /// Figures 17/18.
    pub fn space_bytes(&self) -> usize {
        self.engine.space_bytes()
            + self.ts.len() * (std::mem::size_of::<EdgeId>() + std::mem::size_of::<Timestamp>())
    }

    /// Number of live *structural* matches at the root (pre-filter).
    pub fn structural_match_count(&self) -> usize {
        self.engine.live_match_count()
    }

    /// Benchmark safety valve (see
    /// [`TimingEngine::set_partial_cap`](tcs_core::TimingEngine::set_partial_cap)):
    /// SJ-tree keeps every structural partial match, which explodes on
    /// hub-heavy streams.
    pub fn set_partial_cap(&mut self, cap: u64) {
        self.engine.set_partial_cap(cap);
    }

    /// Whether the cap was hit.
    pub fn saturated(&self) -> bool {
        self.engine.saturated()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;
    use tcs_graph::query::QueryEdge;
    use tcs_graph::window::SlidingWindow;
    use tcs_graph::{ELabel, StreamEdge, VLabel};

    fn q(pairs: &[(usize, usize)]) -> QueryGraph {
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

    #[test]
    fn posterior_filter_drops_wrong_order() {
        // ε0 ≺ ε1 but the ε1-shaped edge arrives first: SJ-tree stores the
        // partial match anyway (no pruning) and the posterior filter drops
        // the complete match.
        let mut s = SjTree::new(q(&[(0, 1)]));
        let mut w = SlidingWindow::new(100);
        let m1 = s.advance(&w.advance(StreamEdge::new(1, 11, 1, 12, 2, 0, 1)));
        assert!(m1.is_empty());
        let m2 = s.advance(&w.advance(StreamEdge::new(2, 10, 0, 11, 1, 0, 2)));
        assert!(m2.is_empty(), "structural match exists but timing fails");
        assert_eq!(s.structural_match_count(), 1, "kept anyway — the waste");
    }

    #[test]
    fn accepts_right_order() {
        let mut s = SjTree::new(q(&[(0, 1)]));
        let mut w = SlidingWindow::new(100);
        s.advance(&w.advance(StreamEdge::new(1, 10, 0, 11, 1, 0, 1)));
        let m = s.advance(&w.advance(StreamEdge::new(2, 11, 1, 12, 2, 0, 2)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn keeps_discardable_partials_unlike_timing() {
        use tcs_core::{MsTreeStore, TimingEngine};
        // Stream many ε1-shaped edges first (discardable under ε0 ≺ ε1).
        let query = q(&[(0, 1)]);
        let mut sj = SjTree::new(query.clone());
        let mut timing: TimingEngine<MsTreeStore> =
            TimingEngine::new(QueryPlan::build(query, PlanOptions::timing()));
        let mut w1 = SlidingWindow::new(1000);
        let mut w2 = SlidingWindow::new(1000);
        for t in 1..=50u64 {
            let e = StreamEdge::new(t, 100 + t as u32, 1, 200 + t as u32, 2, 0, t);
            sj.advance(&w1.advance(e));
            timing.advance(&w2.advance(e));
        }
        assert!(
            sj.space_bytes() > timing.space_bytes(),
            "SJ-tree hoards discardable partials: {} vs {}",
            sj.space_bytes(),
            timing.space_bytes()
        );
    }

    #[test]
    fn expiry_cleans_state() {
        let mut s = SjTree::new(q(&[]));
        let mut w = SlidingWindow::new(3);
        s.advance(&w.advance(StreamEdge::new(1, 10, 0, 11, 1, 0, 1)));
        s.advance(&w.advance(StreamEdge::new(2, 11, 1, 12, 2, 0, 2)));
        assert_eq!(s.structural_match_count(), 1);
        s.advance(&w.advance(StreamEdge::new(3, 50, 0, 51, 1, 0, 10)));
        assert_eq!(s.structural_match_count(), 0);
    }
}
