//! The current-window snapshot graph `G_t` (Definition 2).
//!
//! Engines that recompute matches from the graph structure (the IncMat
//! baseline family and the test oracle) need random access to the live
//! edges: adjacency lists per vertex, an edge-signature index for candidate
//! retrieval, and k-hop neighbourhood extraction for affected-area
//! computation. The paper's own method deliberately does *not* keep this
//! structure (§VII-C2 credits part of its space advantage to that), which is
//! why the snapshot lives in the substrate crate and is only wired into the
//! baselines and the oracle. The paper's engines resolve stored edge ids
//! through a [`LiveEdgeView`] instead: an id-keyed table and nothing more.

use crate::edge::StreamEdge;
use crate::hash::{IdMap, IdSet};
use crate::ids::{ELabel, EdgeId, VLabel, VertexId};
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasher;

/// Read access to the live edges of the current window, independent of who
/// owns them.
///
/// A standalone serial engine keeps its own `EdgeId → StreamEdge` map; the
/// multi-query registry keeps **one** live-edge table per registry (one
/// per shard under the sharded front-end) and hands every registered
/// query a view of it. Anything that can resolve a live edge id
/// qualifies: the plain map (private engines and tests) or the registry's
/// table, which also numbers each edge's admission.
///
/// Implementations must return `Some` for every edge currently inside the
/// window and `None` only for edges that already expired — consumers store
/// ids obtained from live arrivals and resolve them during joins, so a
/// `None` for a stored id is a window-maintenance bug on the owner's side.
pub trait LiveEdgeView {
    /// Resolves a live edge by id.
    fn live_edge(&self, id: EdgeId) -> Option<&StreamEdge>;
}

impl<S: BuildHasher> LiveEdgeView for HashMap<EdgeId, StreamEdge, S> {
    #[inline]
    fn live_edge(&self, id: EdgeId) -> Option<&StreamEdge> {
        self.get(&id)
    }
}

/// Direction of an incident edge relative to the indexed vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// The vertex is the edge's source.
    Out,
    /// The vertex is the edge's destination.
    In,
}

/// Where one edge sits inside the adjacency and signature lists, so
/// removal is an O(1) swap-remove instead of an O(degree)/O(bucket)
/// `Vec::retain` (hub vertices made the latter quadratic under expiry).
#[derive(Clone, Copy, Debug, Default)]
struct EdgePos {
    /// Index in `adj[src]`.
    src_pos: u32,
    /// Index in `adj[dst]` (unused for self-loops, which are indexed once).
    dst_pos: u32,
    /// Index in `by_signature[signature]`.
    sig_pos: u32,
}

/// A mutable snapshot of the live window contents with adjacency and
/// label indexes.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    edges: IdMap<EdgeId, StreamEdge>,
    /// vertex → incident edge ids (both directions).
    adj: IdMap<VertexId, Vec<(EdgeId, Dir)>>,
    /// (src label, dst label, edge label) → live edge ids.
    by_signature: IdMap<(VLabel, VLabel, ELabel), Vec<EdgeId>>,
    /// Per-edge list positions maintained across swap-removes.
    pos: IdMap<EdgeId, EdgePos>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Number of live edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of vertices with at least one live incident edge.
    pub fn n_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Inserts a live edge.
    ///
    /// # Panics
    /// Panics if the edge id is already present (stream ids are unique).
    pub fn insert(&mut self, e: StreamEdge) {
        let prev = self.edges.insert(e.id, e);
        assert!(prev.is_none(), "duplicate edge id {:?}", e.id);
        let src_list = self.adj.entry(e.src).or_default();
        let src_pos = src_list.len() as u32;
        src_list.push((e.id, Dir::Out));
        let dst_pos = if e.dst != e.src {
            let dst_list = self.adj.entry(e.dst).or_default();
            let p = dst_list.len() as u32;
            dst_list.push((e.id, Dir::In));
            p
        } else {
            0
        };
        let sig_list = self.by_signature.entry(e.signature()).or_default();
        let sig_pos = sig_list.len() as u32;
        sig_list.push(e.id);
        self.pos.insert(e.id, EdgePos { src_pos, dst_pos, sig_pos });
    }

    /// Swap-removes position `p` of vertex `v`'s adjacency list, patching
    /// the moved entry's stored position.
    fn remove_adj_at(&mut self, v: VertexId, p: u32) {
        let Some(list) = self.adj.get_mut(&v) else {
            debug_assert!(false, "indexed vertex has a list");
            return;
        };
        list.swap_remove(p as usize);
        if let Some(&(moved, dir)) = list.get(p as usize) {
            let Some(mp) = self.pos.get_mut(&moved) else {
                debug_assert!(false, "live edge has positions");
                return;
            };
            match dir {
                Dir::Out => mp.src_pos = p,
                Dir::In => mp.dst_pos = p,
            }
        }
        if list.is_empty() {
            self.adj.remove(&v);
        }
    }

    /// Removes an expired edge in O(1) per index; no-op if absent.
    pub fn remove(&mut self, id: EdgeId) {
        let Some(e) = self.edges.remove(&id) else {
            return;
        };
        let Some(pos) = self.pos.remove(&id) else {
            debug_assert!(false, "live edge has positions");
            return;
        };
        self.remove_adj_at(e.src, pos.src_pos);
        if e.dst != e.src {
            self.remove_adj_at(e.dst, pos.dst_pos);
        }
        let sig = e.signature();
        let Some(list) = self.by_signature.get_mut(&sig) else {
            debug_assert!(false, "indexed signature has a list");
            return;
        };
        list.swap_remove(pos.sig_pos as usize);
        if let Some(&moved) = list.get(pos.sig_pos as usize) {
            if let Some(mp) = self.pos.get_mut(&moved) {
                mp.sig_pos = pos.sig_pos;
            } else {
                debug_assert!(false, "live edge has positions");
            }
        }
        if list.is_empty() {
            self.by_signature.remove(&sig);
        }
    }

    /// Looks up a live edge.
    pub fn edge(&self, id: EdgeId) -> Option<&StreamEdge> {
        self.edges.get(&id)
    }

    /// All live edges (arbitrary order).
    pub fn edges(&self) -> impl Iterator<Item = &StreamEdge> {
        self.edges.values()
    }

    /// Incident edges of a vertex (both directions).
    pub fn incident(&self, v: VertexId) -> &[(EdgeId, Dir)] {
        self.adj.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Live edges with the given label signature.
    pub fn with_signature(&self, sig: (VLabel, VLabel, ELabel)) -> &[EdgeId] {
        self.by_signature.get(&sig).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The set of edge ids within `hops` undirected hops of `seeds`
    /// (inclusive of edges between reached vertices) — the *affected area*
    /// `∆(G_i)` of an update per Fan et al., used by the IncMat baseline.
    pub fn k_hop_edges(&self, seeds: &[VertexId], hops: usize) -> IdSet<EdgeId> {
        let mut dist: IdMap<VertexId, usize> = IdMap::default();
        let mut queue = VecDeque::new();
        for &s in seeds {
            dist.insert(s, 0);
            queue.push_back(s);
        }
        while let Some(u) = queue.pop_front() {
            let d = dist[&u];
            if d == hops {
                continue;
            }
            for &(eid, _) in self.incident(u) {
                let e = self.edges[&eid];
                let other = if e.src == u { e.dst } else { e.src };
                if let std::collections::hash_map::Entry::Vacant(slot) = dist.entry(other) {
                    slot.insert(d + 1);
                    queue.push_back(other);
                }
            }
        }
        let mut out = IdSet::default();
        for (&v, _) in dist.iter() {
            for &(eid, _) in self.incident(v) {
                let e = self.edges[&eid];
                if dist.contains_key(&e.src) && dist.contains_key(&e.dst) {
                    out.insert(eid);
                }
            }
        }
        out
    }

    /// Rough byte accounting of the structure (used in the space
    /// experiments; IncMat-style baselines pay for this, the paper's method
    /// does not).
    pub fn space_bytes(&self) -> usize {
        use std::mem::size_of;
        let edge_bytes = self.edges.len() * (size_of::<EdgeId>() + size_of::<StreamEdge>());
        let adj_bytes: usize = self
            .adj
            .values()
            .map(|v| size_of::<VertexId>() + v.capacity() * size_of::<(EdgeId, Dir)>())
            .sum();
        let sig_bytes: usize = self
            .by_signature
            .values()
            .map(|v| size_of::<(VLabel, VLabel, ELabel)>() + v.capacity() * size_of::<EdgeId>())
            .sum();
        let pos_bytes = self.pos.len() * (size_of::<EdgeId>() + size_of::<EdgePos>());
        edge_bytes + adj_bytes + sig_bytes + pos_bytes
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;

    fn edge(id: u64, src: u32, dst: u32, ts: u64) -> StreamEdge {
        StreamEdge::new(id, src, 1, dst, 2, 3, ts)
    }

    #[test]
    fn insert_and_remove_maintain_indexes() {
        let mut s = Snapshot::new();
        s.insert(edge(1, 10, 20, 1));
        s.insert(edge(2, 10, 30, 2));
        assert_eq!(s.n_edges(), 2);
        assert_eq!(s.n_vertices(), 3);
        assert_eq!(s.incident(VertexId(10)).len(), 2);
        assert_eq!(s.with_signature((VLabel(1), VLabel(2), ELabel(3))).len(), 2);

        s.remove(EdgeId(1));
        assert_eq!(s.n_edges(), 1);
        assert_eq!(s.n_vertices(), 2, "vertex 20 dropped with its last edge");
        assert_eq!(s.incident(VertexId(20)).len(), 0);
        assert_eq!(s.with_signature((VLabel(1), VLabel(2), ELabel(3))).len(), 1);

        s.remove(EdgeId(99)); // absent: no-op
        assert_eq!(s.n_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate edge id")]
    fn duplicate_id_panics() {
        let mut s = Snapshot::new();
        s.insert(edge(1, 0, 1, 1));
        s.insert(edge(1, 2, 3, 2));
    }

    #[test]
    fn self_loop_indexed_once() {
        let mut s = Snapshot::new();
        s.insert(StreamEdge::new(7, 5, 0, 5, 0, 0, 1));
        assert_eq!(s.incident(VertexId(5)).len(), 1);
        s.remove(EdgeId(7));
        assert_eq!(s.n_vertices(), 0);
    }

    #[test]
    fn k_hop_edges_bounds_area() {
        // Path 1 -2- 3 -4- 5 plus far-away edge 100-101.
        let mut s = Snapshot::new();
        s.insert(edge(1, 1, 2, 1));
        s.insert(edge(2, 2, 3, 2));
        s.insert(edge(3, 3, 4, 3));
        s.insert(edge(4, 4, 5, 4));
        s.insert(edge(5, 100, 101, 5));
        let area = s.k_hop_edges(&[VertexId(1)], 1);
        // vertices within 1 hop of 1: {1, 2}; induced edges: just edge 1.
        assert_eq!(area, IdSet::from_iter([EdgeId(1)]));
        let area2 = s.k_hop_edges(&[VertexId(1)], 2);
        assert_eq!(area2, IdSet::from_iter([EdgeId(1), EdgeId(2)]));
        let all = s.k_hop_edges(&[VertexId(1)], 10);
        assert_eq!(all.len(), 4, "far component never reached");
    }

    #[test]
    fn swap_remove_positions_survive_heavy_churn() {
        // Hub vertex 0 with many incident edges removed in adversarial
        // (middle-first) order: every removal swap-removes and must patch
        // the moved entry's stored position, or later removals corrupt
        // the lists.
        let mut s = Snapshot::new();
        let n = 200u64;
        for i in 0..n {
            s.insert(edge(i, 0, 1 + i as u32, i));
        }
        assert_eq!(s.incident(VertexId(0)).len(), n as usize);
        // Remove odds, then the rest in reverse, interleaving re-inserts.
        for i in (1..n).step_by(2) {
            s.remove(EdgeId(i));
        }
        let evens: Vec<u64> = (0..n).step_by(2).collect();
        for &i in evens.iter().rev() {
            s.remove(EdgeId(i));
            s.insert(edge(1000 + i, 0, 1 + i as u32, 1000 + i));
        }
        assert_eq!(s.incident(VertexId(0)).len(), (n / 2) as usize);
        // Every surviving edge is still reachable through both indexes.
        for i in (0..n).step_by(2) {
            let id = EdgeId(1000 + i);
            let e = *s.edge(id).expect("reinserted edge is live");
            assert!(s.incident(e.src).iter().any(|&(x, _)| x == id));
            assert!(s.incident(e.dst).iter().any(|&(x, _)| x == id));
            assert!(s.with_signature(e.signature()).contains(&id));
            s.remove(id);
        }
        assert_eq!(s.n_edges(), 0);
        assert_eq!(s.n_vertices(), 0);
    }

    #[test]
    fn space_is_nonzero_and_monotone() {
        let mut s = Snapshot::new();
        let empty = s.space_bytes();
        s.insert(edge(1, 1, 2, 1));
        assert!(s.space_bytes() > empty);
    }
}
