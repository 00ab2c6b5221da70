//! TC-subquery enumeration and TC decomposition (§III-A, §VI-B).
//!
//! A *timing-connected query* (TC-query, Definition 8) admits a
//! prefix-connected permutation `ε_1, …, ε_k` of its edges with
//! `ε_j ≺ ε_{j+1}` for all `j`; its prerequisite subqueries are then exactly
//! the prefixes, which is what makes the expansion list of §III-A3 work.
//!
//! [`tc_subqueries`] enumerates `TCsub(Q)` — every TC-subquery of `Q` —
//! by the dynamic programming of Algorithm 5, deduplicating states on
//! `(edge-set, last-edge)` (extensions of a sequence depend only on those
//! two, so full sequences need not be materialized). [`decompose`]
//! implements Algorithm 6's greedy cover: repeatedly take the largest
//! remaining TC-subquery that is edge-disjoint from the ones already
//! chosen. Every single edge is a TC-subquery, so the greedy cover always
//! terminates with a partition.

use tcs_graph::{IdMap, IdSet, QueryGraph};

/// One TC-subquery: a timing sequence of query-edge indices whose prefixes
/// are all weakly connected and chained by ≺.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TcSubquery {
    /// Query-edge indices in timing-sequence order.
    pub seq: Vec<usize>,
    /// Bitmask of `seq` (bit `e` set iff edge `e` belongs to the subquery).
    pub mask: u64,
}

impl TcSubquery {
    /// Number of edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True for the empty subquery (never produced by this module).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

/// A TC decomposition `D = {Q^1, …, Q^k}` of a query: an edge-disjoint
/// cover of `E(Q)` by TC-subqueries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decomposition {
    /// The TC-subqueries; their order here is *not* yet the join order
    /// (see [`crate::joinorder`]).
    pub subqueries: Vec<TcSubquery>,
}

impl Decomposition {
    /// Number of TC-subqueries `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.subqueries.len()
    }

    /// Checks the partition invariant: subqueries are pairwise
    /// edge-disjoint and cover every query edge.
    pub fn is_partition_of(&self, q: &QueryGraph) -> bool {
        let mut seen = 0u64;
        for s in &self.subqueries {
            if s.mask & seen != 0 {
                return false;
            }
            seen |= s.mask;
        }
        let all = if q.n_edges() == 64 { u64::MAX } else { (1u64 << q.n_edges()) - 1 };
        seen == all
    }
}

/// Verifies that `seq` is a valid timing sequence for a TC-subquery of `q`:
/// consecutive elements are ≺-related and every prefix is weakly connected.
pub fn is_timing_sequence(q: &QueryGraph, seq: &[usize]) -> bool {
    if seq.is_empty() {
        return false;
    }
    let mut mask = 0u64;
    for (j, &e) in seq.iter().enumerate() {
        if mask & (1u64 << e) != 0 {
            return false; // repeated edge
        }
        if j > 0 && !q.order.lt(seq[j - 1], e) {
            return false;
        }
        mask |= 1u64 << e;
        if !q.edge_set_connected(mask) {
            return false;
        }
    }
    true
}

/// Whether the whole query is a TC-query (Definition 8).
pub fn is_tc_query(q: &QueryGraph) -> bool {
    let all = if q.n_edges() == 64 { u64::MAX } else { (1u64 << q.n_edges()) - 1 };
    tc_subqueries(q).iter().any(|s| s.mask == all)
}

/// Enumerates `TCsub(Q)` (Algorithm 5).
///
/// Returns one representative [`TcSubquery`] per distinct TC-subquery
/// *edge set*; when several timing sequences realize the same edge set,
/// any of them is equivalent for query evaluation (all are total orders of
/// the same edges consistent with ≺, and the expansion list only relies on
/// the chain property).
pub fn tc_subqueries(q: &QueryGraph) -> Vec<TcSubquery> {
    let n = q.n_edges();
    // BFS over (mask, last) states; parent pointers reconstruct a sequence.
    #[derive(Clone, Copy)]
    struct State {
        mask: u64,
        last: usize,
        parent: usize, // index into `states`, usize::MAX for roots
    }
    let mut states: Vec<State> = Vec::with_capacity(n * 4);
    let mut seen: IdSet<(u64, usize)> = IdSet::default();
    let mut best_per_mask: IdMap<u64, usize> = IdMap::default();
    for e in 0..n {
        let mask = 1u64 << e;
        states.push(State { mask, last: e, parent: usize::MAX });
        seen.insert((mask, e));
        best_per_mask.entry(mask).or_insert(states.len() - 1);
    }
    let mut head = 0;
    while head < states.len() {
        let st = states[head];
        for x in 0..n {
            if st.mask & (1u64 << x) != 0 {
                continue;
            }
            if !q.order.lt(st.last, x) {
                continue;
            }
            // Connectivity: x must touch some edge already in the mask.
            let mut adj = false;
            let mut m = st.mask;
            while m != 0 {
                let e = m.trailing_zeros() as usize;
                m &= m - 1;
                if q.edges_adjacent(e, x) {
                    adj = true;
                    break;
                }
            }
            if !adj {
                continue;
            }
            let nmask = st.mask | (1u64 << x);
            if !seen.insert((nmask, x)) {
                continue;
            }
            states.push(State { mask: nmask, last: x, parent: head });
            best_per_mask.entry(nmask).or_insert(states.len() - 1);
        }
        head += 1;
    }
    // Materialize one representative sequence per mask.
    let mut out: Vec<TcSubquery> = best_per_mask
        .into_iter()
        .map(|(mask, idx)| {
            let mut seq = Vec::with_capacity(mask.count_ones() as usize);
            let mut cur = idx;
            loop {
                seq.push(states[cur].last);
                if states[cur].parent == usize::MAX {
                    break;
                }
                cur = states[cur].parent;
            }
            seq.reverse();
            TcSubquery { seq, mask }
        })
        .collect();
    // Deterministic order: by size descending, then mask ascending — the
    // order Algorithm 6 consumes.
    out.sort_by(|a, b| b.len().cmp(&a.len()).then(a.mask.cmp(&b.mask)));
    out
}

/// Greedy minimum-cardinality TC decomposition (Algorithm 6).
pub fn decompose(q: &QueryGraph) -> Decomposition {
    decompose_from(q, &tc_subqueries(q))
}

/// Algorithm 6 over a precomputed `TCsub(Q)` (callers that need both the
/// enumeration and the cover avoid recomputing it).
pub fn decompose_from(q: &QueryGraph, tcsub: &[TcSubquery]) -> Decomposition {
    let mut chosen: Vec<TcSubquery> = Vec::new();
    let mut covered = 0u64;
    let all = if q.n_edges() == 64 { u64::MAX } else { (1u64 << q.n_edges()) - 1 };
    // `tcsub` is sorted by size descending already (tc_subqueries), but be
    // robust to arbitrary input order.
    let mut order: Vec<&TcSubquery> = tcsub.iter().collect();
    order.sort_by(|a, b| b.len().cmp(&a.len()).then(a.mask.cmp(&b.mask)));
    for s in order {
        if covered == all {
            break;
        }
        if s.mask & covered != 0 {
            continue;
        }
        covered |= s.mask;
        chosen.push(s.clone());
    }
    debug_assert_eq!(covered, all, "singletons guarantee a full cover");
    Decomposition { subqueries: chosen }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;
    use tcs_graph::query::QueryEdge;
    use tcs_graph::{ELabel, VLabel};

    #[test]
    fn running_example_tcsub_matches_paper() {
        // §VI-B: TCsub(Q) of the running example contains 10 TC-subqueries:
        // {ε6,ε5,ε4}, {ε3,ε1}, {ε5,ε4}, {ε6,ε5}, and the 6 singletons.
        let q = QueryGraph::running_example();
        let tcs = tc_subqueries(&q);
        assert_eq!(tcs.len(), 10);
        let masks: Vec<u64> = tcs.iter().map(|s| s.mask).collect();
        // paper edge k = index k-1: {ε6,ε5,ε4} = bits {5,4,3}.
        assert!(masks.contains(&0b111000));
        assert!(masks.contains(&0b000101)); // {ε3, ε1} = bits {2, 0}
        assert!(masks.contains(&0b011000)); // {ε5, ε4} = bits {4, 3}
        assert!(masks.contains(&0b110000)); // {ε6, ε5} = bits {5, 4}
        for e in 0..6 {
            assert!(masks.contains(&(1u64 << e)), "singleton {e}");
        }
    }

    #[test]
    fn running_example_decomposition_matches_paper() {
        // Figure 8/9: D = { {ε6,ε5,ε4}, {ε3,ε1}, {ε2} }.
        let q = QueryGraph::running_example();
        let d = decompose(&q);
        assert_eq!(d.k(), 3);
        assert!(d.is_partition_of(&q));
        let masks: Vec<u64> = d.subqueries.iter().map(|s| s.mask).collect();
        assert_eq!(masks[0], 0b111000);
        assert!(masks.contains(&0b000101));
        assert!(masks.contains(&0b000010));
        // Timing sequences are valid and chained.
        for s in &d.subqueries {
            assert!(is_timing_sequence(&q, &s.seq), "{:?}", s.seq);
        }
        // The big subquery's sequence is exactly ε6, ε5, ε4.
        assert_eq!(d.subqueries[0].seq, vec![5, 4, 3]);
    }

    #[test]
    fn empty_order_decomposes_into_singletons() {
        // §VII-G: with ≺ = ∅, k = |E(Q)|.
        let q = QueryGraph::new(
            vec![VLabel(0); 4],
            vec![
                QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
                QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
                QueryEdge { src: 2, dst: 3, label: ELabel::NONE },
            ],
            &[],
        )
        .unwrap();
        let d = decompose(&q);
        assert_eq!(d.k(), 3);
        assert!(!is_tc_query(&q));
    }

    #[test]
    fn full_chain_is_tc_query() {
        // A path with a total order following the path is a TC-query: k=1.
        let q = QueryGraph::new(
            vec![VLabel(0); 4],
            vec![
                QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
                QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
                QueryEdge { src: 2, dst: 3, label: ELabel::NONE },
            ],
            &[(0, 1), (1, 2)],
        )
        .unwrap();
        assert!(is_tc_query(&q));
        let d = decompose(&q);
        assert_eq!(d.k(), 1);
        assert_eq!(d.subqueries[0].seq, vec![0, 1, 2]);
    }

    #[test]
    fn timing_chain_without_connectivity_is_not_tc() {
        // ε0 ≺ ε1 but the edges are only connected through ε2 (no order):
        // {ε0, ε1} is NOT a TC-subquery (prefix {ε0,ε1} disconnected);
        // star: 0→1 (ε0), 2→3 (ε1), 1→2 (ε2).
        let q = QueryGraph::new(
            vec![VLabel(0); 4],
            vec![
                QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
                QueryEdge { src: 2, dst: 3, label: ELabel::NONE },
                QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
            ],
            &[(0, 1)],
        )
        .unwrap();
        let tcs = tc_subqueries(&q);
        assert!(!tcs.iter().any(|s| s.mask == 0b011));
        assert_eq!(decompose(&q).k(), 3);
    }

    #[test]
    fn is_timing_sequence_rejects_bad_sequences() {
        let q = QueryGraph::running_example();
        assert!(is_timing_sequence(&q, &[5, 4, 3]));
        assert!(!is_timing_sequence(&q, &[4, 5]), "5 ≺ 4 not 4 ≺ 5");
        assert!(!is_timing_sequence(&q, &[5, 5]), "repeat");
        assert!(!is_timing_sequence(&q, &[]), "empty");
        // 6 ≺ 3 holds but ε6 (e→f) and ε3 (a→b) are not adjacent.
        assert!(!is_timing_sequence(&q, &[5, 2]));
    }

    #[test]
    fn transitive_shortcut_sequences_allowed() {
        // With 0≺1≺2 (closure gives 0≺2), sequence [0,2] is a valid
        // timing sequence when edges are adjacent.
        let q = QueryGraph::new(
            vec![VLabel(0); 4],
            vec![
                QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
                QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
                QueryEdge { src: 1, dst: 3, label: ELabel::NONE },
            ],
            &[(0, 1), (1, 2)],
        )
        .unwrap();
        assert!(is_timing_sequence(&q, &[0, 2]));
        let tcs = tc_subqueries(&q);
        assert!(tcs.iter().any(|s| s.mask == 0b101));
    }

    #[test]
    fn decomposition_partition_invariant_holds_broadly() {
        // The running example plus variations with extra constraints.
        for pairs in [
            vec![],
            vec![(0usize, 1usize)],
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
            vec![(5, 0), (3, 1)],
        ] {
            let base = QueryGraph::running_example();
            let q =
                QueryGraph::new(base.vertex_labels.clone(), base.edges.clone(), &pairs).unwrap();
            let d = decompose(&q);
            assert!(d.is_partition_of(&q), "pairs {pairs:?}");
            for s in &d.subqueries {
                assert!(is_timing_sequence(&q, &s.seq));
            }
        }
    }
}
