//! The join compatibility check behind every join of the kernel
//! ([`crate::join`]).
//!
//! The paper's `⋈ᵀ` join (§III-A1) combines matches of two subqueries when
//! their union is a time-constrained match of the union subquery. That
//! requires (1) a consistent, injective vertex mapping over the union, (2)
//! pairwise-distinct data edges and (3) every ≺ constraint between edges of
//! the two sides holding on the assigned timestamps. Each side is a slice
//! of `(query edge, data edge)` pairs — a span of the kernel's row arena —
//! so no side is copied into a wrapper to be checked.

use tcs_graph::{QueryGraph, StreamEdge, VertexId};

/// The join check: can `a ∪ b` be one partial match?
///
/// One `cross_timing_ok` call suffices: it scans `a.chain(b)` for both
/// the constrained edge and its predecessors, so every cross- and
/// intra-side constraint is covered in a single pass.
pub(crate) fn compat_sides(
    q: &QueryGraph,
    a: &[(usize, StreamEdge)],
    b: &[(usize, StreamEdge)],
) -> bool {
    // Distinct data edges across sides (identical timestamps are
    // impossible for distinct stream edges, so an id collision is the
    // only aliasing to rule out).
    for &(_, ea) in a {
        if b.iter().any(|&(_, eb)| eb.id == ea.id) {
            return false;
        }
    }
    merge_binding(q, a, b).is_some() && cross_timing_ok(q, a, b)
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
        let a = [(0, se(1, 10, 11, 1))];
        let b = [(1, se(2, 11, 12, 2)), (2, se(3, 12, 13, 3))];
        assert!(compat_sides(&q, &a, &b));
        assert!(compat_sides(&q, &b, &a), "symmetric");
    }

    #[test]
    fn vertex_conflict_rejected() {
        let q = q();
        let a = [(0, se(1, 10, 11, 1))];
        // ε1 must start at F(b)=11, starts at 99 instead.
        let b = [(1, se(2, 99, 12, 2))];
        assert!(!compat_sides(&q, &a, &b));
    }

    #[test]
    fn injectivity_rejected() {
        let q = q();
        let a = [(0, se(1, 10, 11, 1))];
        // F(c) = 10 = F(a): two query vertices on one data vertex.
        let b = [(1, se(2, 11, 10, 2))];
        assert!(!compat_sides(&q, &a, &b));
    }

    #[test]
    fn timing_cross_constraint_rejected() {
        let q = q();
        // ε0 ≺ ε2 but ts(ε0) = 9 > ts(ε2) = 3.
        let a = [(0, se(1, 10, 11, 9))];
        let b = [(1, se(2, 11, 12, 2)), (2, se(3, 12, 13, 3))];
        assert!(!compat_sides(&q, &a, &b));
        assert!(!compat_sides(&q, &b, &a));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let q = q();
        let shared = se(7, 10, 11, 1);
        assert!(!compat_sides(&q, &[(0, shared)], &[(1, shared)]));
    }

    #[test]
    fn unassigned_predecessors_are_deferred() {
        let q = q();
        // Join ε1 and ε2 only: ε0 ≺ ε2 cannot be checked yet and must not
        // reject the join.
        assert!(compat_sides(&q, &[(1, se(2, 11, 12, 5))], &[(2, se(3, 12, 13, 6))]));
    }

    #[test]
    fn compat_sides_classifies_failures() {
        let q = q();
        let prefix = vec![(0, se(1, 10, 11, 1)), (1, se(2, 11, 12, 2))];
        // Clean extension.
        assert!(compat_sides(&q, &prefix, &[(2, se(3, 12, 13, 3))]));
        // Shared edge id, regardless of timestamps.
        assert!(!compat_sides(&q, &prefix, &[(2, se(1, 12, 13, 3))]));
        // Injectivity breach (F(d) = 10 = F(a)).
        assert!(!compat_sides(&q, &prefix, &[(2, se(3, 12, 10, 3))]));
        // ε0 ≺ ε2 violated on timestamps only.
        assert!(!compat_sides(&q, &prefix, &[(2, se(3, 12, 13, 1))]));
    }
}
