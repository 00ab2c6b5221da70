//! IncMat: incremental matching by affected-area recomputation
//! (Fan, Wang, Wu — "Incremental graph pattern matching", TODS 2013; the
//! paper's \[11\]).
//!
//! IncMat keeps no partial results. It maintains the window's graph
//! structure and, for every inserted edge, runs a *static* subgraph
//! isomorphism algorithm over the affected area `∆(G_i)` — the subgraph
//! induced by all vertices within query-diameter hops of the updated
//! edge's endpoints — restricted to matches containing the new edge. The
//! timing order is checked posteriorly (the framework predates timing
//! constraints). The static matcher is pluggable (QuickSI / TurboISO /
//! BoostISO styles), giving the three baseline curves of Figures 15–18.

use tcs_graph::snapshot::Snapshot;
use tcs_graph::window::WindowEvent;
use tcs_graph::{MatchRecord, QueryGraph};
use tcs_subiso::matcher::{enumerate_matches, MatchOptions};
use tcs_subiso::timing::filter_timing;
use tcs_subiso::Strategy;

/// The IncMat baseline system.
pub struct IncMat {
    query: QueryGraph,
    strategy: Strategy,
    snap: Snapshot,
    diameter: usize,
}

impl IncMat {
    /// Builds IncMat with the given static-matcher strategy.
    pub fn new(query: QueryGraph, strategy: Strategy) -> IncMat {
        let diameter = query.diameter();
        IncMat { query, strategy, snap: Snapshot::new(), diameter }
    }

    /// Applies one window event; returns new time-constrained matches.
    pub fn advance(&mut self, ev: &WindowEvent) -> Vec<MatchRecord> {
        for e in &ev.expired {
            self.snap.remove(e.id);
        }
        self.snap.insert(ev.arrival);
        // Affected area: vertices within `diameter` hops of the new edge.
        let area = self.snap.k_hop_edges(&[ev.arrival.src, ev.arrival.dst], self.diameter);
        // Anchor the search at the new edge, once per query edge it can
        // match: a match contains the new edge at exactly one position, so
        // the anchored searches partition the incremental results.
        let sig = ev.arrival.signature();
        let mut structural = Vec::new();
        for qe in 0..self.query.n_edges() {
            if self.query.signature(qe) != sig {
                continue;
            }
            let opts = MatchOptions {
                must_contain: None,
                anchor: Some((qe, ev.arrival.id)),
                restrict_to: Some(area.clone()),
                limit: 0,
            };
            structural.extend(enumerate_matches(&self.snap, &self.query, self.strategy, &opts));
        }
        filter_timing(&self.query, structural, &self.snap)
    }

    /// Bytes of maintained state. IncMat stores no matches but pays for
    /// the full adjacency structure of the window (§VII-C2: "QuickSI,
    /// TurboISO and BoostISO need to maintain the graph structure ... in
    /// each window").
    pub fn space_bytes(&self) -> usize {
        self.snap.space_bytes()
    }

    /// The matcher strategy (for harness labels).
    pub fn strategy(&self) -> Strategy {
        self.strategy
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
    fn finds_matches_incrementally() {
        for strat in Strategy::ALL {
            let mut m = IncMat::new(q(&[(0, 1)]), strat);
            let mut w = SlidingWindow::new(100);
            assert!(m.advance(&w.advance(StreamEdge::new(1, 10, 0, 11, 1, 0, 1))).is_empty());
            let got = m.advance(&w.advance(StreamEdge::new(2, 11, 1, 12, 2, 0, 2)));
            assert_eq!(got.len(), 1, "{strat:?}");
        }
    }

    #[test]
    fn timing_checked_posteriorly() {
        let mut m = IncMat::new(q(&[(0, 1)]), Strategy::QuickSi);
        let mut w = SlidingWindow::new(100);
        m.advance(&w.advance(StreamEdge::new(1, 11, 1, 12, 2, 0, 1)));
        let got = m.advance(&w.advance(StreamEdge::new(2, 10, 0, 11, 1, 0, 2)));
        assert!(got.is_empty());
    }

    #[test]
    fn space_tracks_window_structure() {
        let mut m = IncMat::new(q(&[]), Strategy::TurboIso);
        let mut w = SlidingWindow::new(5);
        for t in 1..=20u64 {
            m.advance(&w.advance(StreamEdge::new(t, t as u32, 0, 1000 + t as u32, 1, 0, t)));
        }
        // Window keeps ≤ 5 edges: space stays bounded.
        let bytes = m.space_bytes();
        assert!(bytes > 0);
        for t in 21..=40u64 {
            m.advance(&w.advance(StreamEdge::new(t, t as u32, 0, 1000 + t as u32, 1, 0, t)));
        }
        assert!(m.space_bytes() <= bytes * 2, "bounded by the window");
    }

    #[test]
    fn affected_area_misses_nothing() {
        // A match spanning the full diameter around the new edge must be
        // found — the area bound is the query diameter, tight case: the
        // new edge at one end of the path.
        let mut m = IncMat::new(q(&[]), Strategy::QuickSi);
        let mut w = SlidingWindow::new(100);
        m.advance(&w.advance(StreamEdge::new(1, 11, 1, 12, 2, 0, 1)));
        let got = m.advance(&w.advance(StreamEdge::new(2, 10, 0, 11, 1, 0, 2)));
        assert_eq!(got.len(), 1, "new edge at the far end still matched");
    }
}
