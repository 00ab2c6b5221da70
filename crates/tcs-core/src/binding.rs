//! Vertex-binding and timing compatibility checks used at every join.
//!
//! The paper's `⋈ᵀ` join (§III-A1) combines matches of two subqueries when
//! their union is a time-constrained match of the union subquery. That
//! requires (1) a consistent, injective vertex mapping over the union, (2)
//! pairwise-distinct data edges and (3) every ≺ constraint between edges of
//! the two sides holding on the assigned timestamps. [`PartialAssignment`]
//! packages the per-side state so joins are a single `compatible_with`
//! call.

use tcs_graph::{EdgeId, QueryGraph, StreamEdge, Timestamp, VertexId};

/// One side of a join: the data edges assigned to a set of query edges.
#[derive(Clone, Debug, Default)]
pub struct PartialAssignment {
    /// (query edge index, assigned data edge).
    pub edges: Vec<(usize, StreamEdge)>,
}

impl PartialAssignment {
    /// Builds an assignment, returning `None` if it is not internally
    /// consistent (it never is `None` for assignments produced by the
    /// engine's stores, but the check is cheap insurance in debug builds).
    pub fn new(edges: Vec<(usize, StreamEdge)>) -> PartialAssignment {
        PartialAssignment { edges }
    }

    /// Appends one more (query edge, data edge) pair.
    pub fn push(&mut self, qe: usize, e: StreamEdge) {
        self.edges.push((qe, e));
    }

    /// Timestamp of the data edge assigned to query edge `qe`, if assigned.
    pub fn ts_of(&self, qe: usize) -> Option<Timestamp> {
        self.edges.iter().find(|&&(q, _)| q == qe).map(|&(_, e)| e.ts)
    }

    /// Largest timestamp on this side (`None` when empty).
    pub fn max_ts(&self) -> Option<Timestamp> {
        self.edges.iter().map(|&(_, e)| e.ts).max()
    }

    /// Checks that *this assignment alone* forms a consistent, injective
    /// partial vertex mapping with distinct edges and internally valid
    /// timing. Used by debug assertions.
    pub fn self_consistent(&self, q: &QueryGraph) -> bool {
        merge_binding(q, &self.edges, &[]).is_some() && cross_timing_ok(q, &self.edges, &[])
    }

    /// The join check: can `self ∪ other` be one partial match?
    pub fn compatible_with(&self, q: &QueryGraph, other: &PartialAssignment) -> bool {
        compat_sides(q, &self.edges, &other.edges) == Compat::Ok
    }
}

/// Why a join check passed or failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Compat {
    /// The union is a valid partial match.
    Ok,
    /// Shared data edge, vertex-mapping conflict, or injectivity breach —
    /// depends only on ids and endpoints, never on timestamps.
    BindingMismatch,
    /// A ≺ constraint fails on the assigned timestamps.
    TimingViolation,
}

/// Slice-level join check (the workhorse behind
/// [`PartialAssignment::compatible_with`]): classifies `a ∪ b` without
/// requiring either side to be wrapped in a `PartialAssignment`.
///
/// One `cross_timing_ok` call suffices: it scans `a.chain(b)` for both
/// the constrained edge and its predecessors, so every cross- and
/// intra-side constraint is covered in a single pass.
pub fn compat_sides(
    q: &QueryGraph,
    a: &[(usize, StreamEdge)],
    b: &[(usize, StreamEdge)],
) -> Compat {
    // Distinct data edges across sides (identical timestamps are
    // impossible for distinct stream edges, so an id collision is the
    // only aliasing to rule out).
    for &(_, ea) in a {
        if b.iter().any(|&(_, eb)| eb.id == ea.id) {
            return Compat::BindingMismatch;
        }
    }
    if merge_binding(q, a, b).is_none() {
        return Compat::BindingMismatch;
    }
    if !cross_timing_ok(q, a, b) {
        return Compat::TimingViolation;
    }
    Compat::Ok
}

/// Tries to build the injective vertex mapping over both edge lists;
/// `None` on conflict.
fn merge_binding(
    q: &QueryGraph,
    a: &[(usize, StreamEdge)],
    b: &[(usize, StreamEdge)],
) -> Option<Vec<(usize, VertexId)>> {
    let mut pairs: Vec<(usize, VertexId)> = Vec::with_capacity((a.len() + b.len()) * 2);
    let bind = |pairs: &mut Vec<(usize, VertexId)>, qv: usize, dv: VertexId| -> bool {
        for &(pq, pv) in pairs.iter() {
            if pq == qv {
                return pv == dv;
            }
            if pv == dv {
                return false; // injectivity
            }
        }
        pairs.push((qv, dv));
        true
    };
    for &(qe, e) in a.iter().chain(b.iter()) {
        let q_edge = q.edges[qe];
        if !bind(&mut pairs, q_edge.src, e.src) || !bind(&mut pairs, q_edge.dst, e.dst) {
            return None;
        }
    }
    Some(pairs)
}

/// Checks every ≺ constraint with the "before" edge in `a` and the "after"
/// edge in `b` (callers invoke it both ways), plus the constraints inside
/// `a` itself.
fn cross_timing_ok(q: &QueryGraph, a: &[(usize, StreamEdge)], b: &[(usize, StreamEdge)]) -> bool {
    for &(qj, ej) in a.iter().chain(b.iter()) {
        let mut preds = q.order.before_mask(qj);
        while preds != 0 {
            let qi = preds.trailing_zeros() as usize;
            preds &= preds - 1;
            // Find qi on either side; unassigned predecessors are checked
            // at a later join level.
            let ti = a.iter().chain(b.iter()).find(|&&(x, _)| x == qi).map(|&(_, e)| e.ts);
            if let Some(ti) = ti {
                if ti >= ej.ts {
                    return false;
                }
            }
        }
    }
    true
}

/// Convenience: merged edge id set (for tests).
pub fn edge_ids(a: &PartialAssignment) -> Vec<EdgeId> {
    a.edges.iter().map(|&(_, e)| e.id).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;
    use tcs_graph::query::QueryEdge;
    use tcs_graph::{ELabel, VLabel};

    /// Path a→b→c→d, ε0 ≺ ε2.
    fn q() -> QueryGraph {
        QueryGraph::new(
            vec![VLabel(0), VLabel(1), VLabel(2), VLabel(3)],
            vec![
                QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
                QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
                QueryEdge { src: 2, dst: 3, label: ELabel::NONE },
            ],
            &[(0, 2)],
        )
        .unwrap()
    }

    fn se(id: u64, src: u32, dst: u32, ts: u64) -> StreamEdge {
        StreamEdge::new(id, src, 0, dst, 0, 0, ts)
    }

    #[test]
    fn compatible_sides_join() {
        let q = q();
        let a = PartialAssignment::new(vec![(0, se(1, 10, 11, 1))]);
        let b = PartialAssignment::new(vec![(1, se(2, 11, 12, 2)), (2, se(3, 12, 13, 3))]);
        assert!(a.compatible_with(&q, &b));
        assert!(b.compatible_with(&q, &a), "symmetric");
    }

    #[test]
    fn vertex_conflict_rejected() {
        let q = q();
        let a = PartialAssignment::new(vec![(0, se(1, 10, 11, 1))]);
        // ε1 must start at F(b)=11, starts at 99 instead.
        let b = PartialAssignment::new(vec![(1, se(2, 99, 12, 2))]);
        assert!(!a.compatible_with(&q, &b));
    }

    #[test]
    fn injectivity_rejected() {
        let q = q();
        let a = PartialAssignment::new(vec![(0, se(1, 10, 11, 1))]);
        // F(c) = 10 = F(a): two query vertices on one data vertex.
        let b = PartialAssignment::new(vec![(1, se(2, 11, 10, 2))]);
        assert!(!a.compatible_with(&q, &b));
    }

    #[test]
    fn timing_cross_constraint_rejected() {
        let q = q();
        // ε0 ≺ ε2 but ts(ε0) = 9 > ts(ε2) = 3.
        let a = PartialAssignment::new(vec![(0, se(1, 10, 11, 9))]);
        let b = PartialAssignment::new(vec![(1, se(2, 11, 12, 2)), (2, se(3, 12, 13, 3))]);
        assert!(!a.compatible_with(&q, &b));
        assert!(!b.compatible_with(&q, &a));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let q = q();
        let shared = se(7, 10, 11, 1);
        let a = PartialAssignment::new(vec![(0, shared)]);
        let b = PartialAssignment::new(vec![(1, shared)]);
        assert!(!a.compatible_with(&q, &b));
    }

    #[test]
    fn unassigned_predecessors_are_deferred() {
        let q = q();
        // Join ε1 and ε2 only: ε0 ≺ ε2 cannot be checked yet and must not
        // reject the join.
        let a = PartialAssignment::new(vec![(1, se(2, 11, 12, 5))]);
        let b = PartialAssignment::new(vec![(2, se(3, 12, 13, 6))]);
        assert!(a.compatible_with(&q, &b));
    }

    #[test]
    fn compat_sides_classifies_failures() {
        let q = q();
        let prefix = vec![(0, se(1, 10, 11, 1)), (1, se(2, 11, 12, 2))];
        // Clean extension.
        assert_eq!(compat_sides(&q, &prefix, &[(2, se(3, 12, 13, 3))]), Compat::Ok);
        // Shared edge id → binding, regardless of timestamps.
        assert_eq!(compat_sides(&q, &prefix, &[(2, se(1, 12, 13, 3))]), Compat::BindingMismatch);
        // Injectivity breach (F(d) = 10 = F(a)) → binding.
        assert_eq!(compat_sides(&q, &prefix, &[(2, se(3, 12, 10, 3))]), Compat::BindingMismatch);
        // ε0 ≺ ε2 violated on timestamps only → timing.
        assert_eq!(compat_sides(&q, &prefix, &[(2, se(3, 12, 13, 1))]), Compat::TimingViolation);
    }

    #[test]
    fn self_consistency_and_accessors() {
        let q = q();
        let mut a = PartialAssignment::new(vec![(0, se(1, 10, 11, 1))]);
        a.push(1, se(2, 11, 12, 2));
        assert!(a.self_consistent(&q));
        assert_eq!(a.ts_of(0), Some(Timestamp(1)));
        assert_eq!(a.ts_of(2), None);
        assert_eq!(a.max_ts(), Some(Timestamp(2)));
        assert_eq!(edge_ids(&a), vec![EdgeId(1), EdgeId(2)]);
    }
}
