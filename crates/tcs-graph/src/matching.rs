//! The canonical match record (Definition 4) shared by every engine.
//!
//! A time-constrained match assigns one data edge to every query edge. The
//! vertex bijection `F` of Definition 4 is implied: it is derived from the
//! edge assignment and validated by [`MatchRecord::verify`]. Storing only the
//! edge assignment keeps records compact and makes results from different
//! engines directly comparable in tests.
//!
//! Records are immutable once built and their edge list is reference
//! counted: [`Clone`] is O(1) — a refcount bump, never a copy — so a
//! front-end fanning one emitted match out to many subscribers hands each
//! of them the engine's own allocation. Equality, ordering, hashing and
//! `Debug` look at the edge list's *values*, never at the allocation.

use crate::edge::StreamEdge;
use crate::ids::{EdgeId, VertexId};
use crate::query::QueryGraph;
use std::collections::HashMap;
use std::sync::Arc;

/// An assignment of data edges to query edges; index `i` holds the data edge
/// matched to query edge `i`. Immutable and shared: clones point at the
/// same edge list (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MatchRecord {
    edges: Arc<[EdgeId]>,
}

/// Why a candidate record failed verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MatchViolation {
    /// Record length differs from the query's edge count.
    ArityMismatch,
    /// A referenced data edge is not live (not supplied to `verify`).
    MissingEdge(EdgeId),
    /// Two query edges mapped to the same data edge.
    DuplicateEdge(EdgeId),
    /// A vertex or edge label mismatch on a query edge.
    LabelMismatch(usize),
    /// Two distinct query vertices mapped to the same data vertex, or one
    /// query vertex mapped to two data vertices.
    NotInjective,
    /// A timing constraint `i ≺ j` violated by the assigned timestamps.
    TimingViolated { before: usize, after: usize },
}

impl MatchRecord {
    /// Builds a record from edges listed in query-edge order.
    pub fn new(edges: Arc<[EdgeId]>) -> Self {
        MatchRecord { edges }
    }

    /// The data edge matched to query edge `i`.
    #[inline]
    pub fn edge(&self, i: usize) -> EdgeId {
        self.edges[i]
    }

    /// All assigned data edges in query-edge order.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Number of query edges covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True for the (invalid in practice) empty record.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Whether this match uses the given data edge.
    pub fn contains(&self, e: EdgeId) -> bool {
        self.edges.contains(&e)
    }

    /// Fully re-checks Definition 4 against the query and a resolver from
    /// edge id to live edge. Engines use this in debug assertions and the
    /// test oracle uses it as ground truth.
    pub fn verify<'a, F>(&self, q: &QueryGraph, resolve: F) -> Result<(), MatchViolation>
    where
        F: Fn(EdgeId) -> Option<&'a StreamEdge>,
    {
        if self.edges.len() != q.n_edges() {
            return Err(MatchViolation::ArityMismatch);
        }
        let mut seen = HashMap::with_capacity(self.edges.len());
        let mut resolved = Vec::with_capacity(self.edges.len());
        for &id in self.edges.iter() {
            if seen.insert(id, ()).is_some() {
                return Err(MatchViolation::DuplicateEdge(id));
            }
            let e = resolve(id).ok_or(MatchViolation::MissingEdge(id))?;
            resolved.push(*e);
        }
        // Derive the vertex mapping; demand consistency and injectivity.
        let mut fwd: HashMap<usize, VertexId> = HashMap::new();
        let mut bwd: HashMap<VertexId, usize> = HashMap::new();
        let mut bind = |qv: usize, dv: VertexId| -> bool {
            match fwd.get(&qv) {
                Some(&prev) if prev != dv => false,
                Some(_) => true,
                None => match bwd.get(&dv) {
                    Some(&prev_q) if prev_q != qv => false,
                    _ => {
                        fwd.insert(qv, dv);
                        bwd.insert(dv, qv);
                        true
                    }
                },
            }
        };
        for (i, (qe, de)) in q.edges.iter().zip(resolved.iter()).enumerate() {
            if q.vertex_labels[qe.src] != de.src_label
                || q.vertex_labels[qe.dst] != de.dst_label
                || qe.label != de.label
            {
                return Err(MatchViolation::LabelMismatch(i));
            }
            if !bind(qe.src, de.src) || !bind(qe.dst, de.dst) {
                return Err(MatchViolation::NotInjective);
            }
        }
        // Timing order over assigned timestamps.
        for j in 0..q.n_edges() {
            let mut preds = q.order.before_mask(j);
            while preds != 0 {
                let i = preds.trailing_zeros() as usize;
                preds &= preds - 1;
                if resolved[i].ts >= resolved[j].ts {
                    return Err(MatchViolation::TimingViolated { before: i, after: j });
                }
            }
        }
        Ok(())
    }
}

impl From<Vec<EdgeId>> for MatchRecord {
    fn from(v: Vec<EdgeId>) -> Self {
        MatchRecord::new(v.into())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;
    use crate::ids::{ELabel, VLabel};
    use crate::query::QueryEdge;
    use std::hash::BuildHasher;

    /// Two-edge path query a→b→c with ε0 ≺ ε1.
    fn q() -> QueryGraph {
        QueryGraph::new(
            vec![VLabel(0), VLabel(1), VLabel(2)],
            vec![
                QueryEdge { src: 0, dst: 1, label: ELabel(9) },
                QueryEdge { src: 1, dst: 2, label: ELabel(9) },
            ],
            &[(0, 1)],
        )
        .unwrap()
    }

    fn resolver(edges: Vec<StreamEdge>) -> impl Fn(EdgeId) -> Option<&'static StreamEdge> {
        let leaked: &'static [StreamEdge] = Box::leak(edges.into_boxed_slice());
        move |id| leaked.iter().find(|e| e.id == id)
    }

    #[test]
    fn valid_match_verifies() {
        let es =
            vec![StreamEdge::new(1, 10, 0, 11, 1, 9, 1), StreamEdge::new(2, 11, 1, 12, 2, 9, 2)];
        let m = MatchRecord::from(vec![EdgeId(1), EdgeId(2)]);
        assert_eq!(m.verify(&q(), resolver(es)), Ok(()));
    }

    #[test]
    fn timing_violation_detected() {
        let es =
            vec![StreamEdge::new(1, 10, 0, 11, 1, 9, 5), StreamEdge::new(2, 11, 1, 12, 2, 9, 2)];
        let m = MatchRecord::from(vec![EdgeId(1), EdgeId(2)]);
        assert_eq!(
            m.verify(&q(), resolver(es)),
            Err(MatchViolation::TimingViolated { before: 0, after: 1 })
        );
    }

    #[test]
    fn injectivity_violation_detected() {
        // b and c both map to vertex 11 via a second edge 11→11? Use a
        // cleaner case: ε1 maps b→c onto 11→10, colliding c with a's vertex.
        let es =
            vec![StreamEdge::new(1, 10, 0, 11, 1, 9, 1), StreamEdge::new(2, 11, 1, 10, 2, 9, 2)];
        let m = MatchRecord::from(vec![EdgeId(1), EdgeId(2)]);
        assert_eq!(m.verify(&q(), resolver(es)), Err(MatchViolation::NotInjective));
    }

    #[test]
    fn label_mismatch_detected() {
        let es = vec![
            StreamEdge::new(1, 10, 0, 11, 1, 8, 1), // wrong edge label
            StreamEdge::new(2, 11, 1, 12, 2, 9, 2),
        ];
        let m = MatchRecord::from(vec![EdgeId(1), EdgeId(2)]);
        assert_eq!(m.verify(&q(), resolver(es)), Err(MatchViolation::LabelMismatch(0)));
    }

    #[test]
    fn duplicate_and_missing_edges_detected() {
        let es = vec![StreamEdge::new(1, 10, 0, 11, 1, 9, 1)];
        let dup = MatchRecord::from(vec![EdgeId(1), EdgeId(1)]);
        assert_eq!(
            dup.verify(&q(), resolver(es.clone())),
            Err(MatchViolation::DuplicateEdge(EdgeId(1)))
        );
        let missing = MatchRecord::from(vec![EdgeId(1), EdgeId(42)]);
        assert_eq!(
            missing.verify(&q(), resolver(es)),
            Err(MatchViolation::MissingEdge(EdgeId(42)))
        );
    }

    #[test]
    fn arity_mismatch_detected() {
        let m = MatchRecord::from(vec![EdgeId(1)]);
        assert_eq!(m.verify(&q(), |_| None), Err(MatchViolation::ArityMismatch));
    }

    #[test]
    fn clone_shares_the_edge_list() {
        let m = MatchRecord::new(Arc::from(&[EdgeId(1), EdgeId(2)][..]));
        let c = m.clone();
        assert_eq!(c.edges().as_ptr(), m.edges().as_ptr(), "clone is a refcount bump");
        // Value semantics: an equal record from another allocation is
        // equal, hashes equal and orders equal.
        let other = MatchRecord::from(vec![EdgeId(1), EdgeId(2)]);
        assert_ne!(other.edges().as_ptr(), m.edges().as_ptr());
        assert_eq!(other, m);
        assert_eq!(other.cmp(&m), std::cmp::Ordering::Equal);
        let state = std::collections::hash_map::RandomState::new();
        assert_eq!(state.hash_one(&other), state.hash_one(&m));
        assert_eq!(format!("{m:?}"), format!("{other:?}"));
    }

    #[test]
    fn vertex_consistency_enforced() {
        // ε0 maps b→11 but ε1 maps b→13: inconsistent F.
        let es =
            vec![StreamEdge::new(1, 10, 0, 11, 1, 9, 1), StreamEdge::new(2, 13, 1, 12, 2, 9, 2)];
        let m = MatchRecord::from(vec![EdgeId(1), EdgeId(2)]);
        assert_eq!(m.verify(&q(), resolver(es)), Err(MatchViolation::NotInjective));
    }
}
