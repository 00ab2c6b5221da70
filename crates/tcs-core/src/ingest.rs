//! The typed ingestion boundary: malformed or out-of-order input becomes
//! an [`IngestError`] instead of silently corrupting store order.
//!
//! Every store in this workspace leans on the PR-2 ordered-bucket
//! invariant: item lists and key buckets are nondecreasing in newest-edge
//! timestamp, and every timing filter stops at its cutoff instead of scanning.
//! Until this module, that invariant was only *debug*-asserted — a release
//! build fed an out-of-order edge would file rows at the wrong bucket
//! positions and quietly return wrong (not just incomplete) results ever
//! after. The fault-tolerance layer promotes the check to a typed result
//! at the **engine boundary only**: one comparison against a watermark per
//! arrival, zero checks in the hot inner loops, and a configurable
//! [`OrderPolicy`] deciding what a violating arrival becomes.
//!
//! Two more malformation classes are caught at the same boundary:
//!
//! * [`IngestError::DuplicateEdgeId`] — stream ids must be unique among
//!   live edges (the registry's live-edge table indexes by id; a
//!   duplicate would alias another query's bindings).
//! * [`IngestError::DanglingEndpoint`] — an endpoint that cannot denote a
//!   real vertex: a self-loop whose two endpoint labels disagree, or a
//!   vertex already live in the window under a different label. Stored
//!   rows resolve edge endpoints during joins; admitting such an edge
//!   plants bindings that dangle semantically even though the id resolves.
//!
//! [`IngestGate`] packages the full check set (watermark, live-id window,
//! vertex-label table) for owners of a whole stream boundary (the
//! multi-query front-ends); engines embedded behind such a gate only
//! re-check the watermark, which their filtered substream preserves.

use std::collections::VecDeque;
use tcs_graph::{EdgeId, IdMap, IdSet, StreamEdge, Timestamp, VLabel, VertexId};

/// A rejected arrival, with enough context to log or alert on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// The arrival's timestamp is below the stream watermark (the newest
    /// accepted timestamp) — Definition 1 orders streams nondecreasing.
    OutOfOrder {
        /// The offending arrival's timestamp.
        ts: u64,
        /// The watermark it fell behind.
        watermark: u64,
    },
    /// An endpoint of the arrival cannot denote a real vertex: a
    /// self-loop whose endpoint labels disagree, or a vertex that is
    /// already live under a different label.
    DanglingEndpoint {
        /// The offending arrival's id.
        id: EdgeId,
        /// The endpoint vertex whose binding dangles.
        vertex: VertexId,
    },
    /// The arrival reuses the id of an edge still inside the window.
    DuplicateEdgeId {
        /// The reused id.
        id: EdgeId,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::OutOfOrder { ts, watermark } => {
                write!(f, "out-of-order arrival: ts {ts} behind watermark {watermark}")
            }
            IngestError::DanglingEndpoint { id, vertex } => {
                write!(f, "dangling endpoint: edge {id:?} binds vertex {vertex:?} inconsistently")
            }
            IngestError::DuplicateEdgeId { id } => {
                write!(f, "duplicate edge id {id:?} among live edges")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// What an out-of-order arrival becomes at the boundary.
///
/// Only *ordering* violations are policy-controlled; duplicate ids and
/// dangling endpoints are always errors (there is no safe rewrite for
/// them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OrderPolicy {
    /// Return [`IngestError::OutOfOrder`]; the store is untouched
    /// (default — matches the strict stream model of Definition 1).
    #[default]
    Reject,
    /// Admit the arrival with its timestamp raised to the watermark — it
    /// is treated as "just now". The clamped edge participates in joins
    /// like any other arrival; clamps are counted in
    /// [`IngestStats::clamped`].
    ClampToWatermark,
    /// Drop the arrival silently and count it in
    /// [`IngestStats::dropped_out_of_order`] — the lossy policy for
    /// sources known to emit stragglers nobody wants.
    DropSilently,
}

/// Boundary counters: what the gate admitted, rewrote, dropped and
/// rejected. Deliberately **not** part of
/// [`EngineStats`](crate::engine::EngineStats) — engine counters must
/// stay byte-identical to an oracle engine fed the sanitized stream, so
/// ingest accounting lives beside them, not inside them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Arrivals admitted (including clamped ones).
    pub admitted: u64,
    /// Arrivals admitted with their timestamp clamped to the watermark
    /// ([`OrderPolicy::ClampToWatermark`]).
    pub clamped: u64,
    /// Arrivals silently dropped ([`OrderPolicy::DropSilently`]).
    pub dropped_out_of_order: u64,
    /// Arrivals rejected with [`IngestError::OutOfOrder`].
    pub rejected_out_of_order: u64,
    /// Arrivals rejected with [`IngestError::DuplicateEdgeId`].
    pub rejected_duplicate: u64,
    /// Arrivals rejected with [`IngestError::DanglingEndpoint`].
    pub rejected_dangling: u64,
}

impl IngestStats {
    /// Total arrivals rejected with an error.
    pub fn rejected(&self) -> u64 {
        self.rejected_out_of_order + self.rejected_duplicate + self.rejected_dangling
    }
}

/// The admission decision of a gate: the (possibly clamped) edge to
/// process, or nothing (dropped under [`OrderPolicy::DropSilently`]).
pub type Admission = Option<StreamEdge>;

/// A full stream-boundary validator for owners of a shared window: tracks
/// the watermark, the ids live inside the window, and each live vertex's
/// label, so every [`IngestError`] class is detected in release builds at
/// O(1) amortized per arrival.
///
/// The gate keeps its own id/label bookkeeping (an [`IdSet`] + `VecDeque`
/// sized to the window, and a refcounted vertex-label table) instead of
/// borrowing the owner's snapshot, so it works identically for owners
/// with no snapshot at all (broadcast mode, the sharded dispatcher).
/// Those tables hash with the in-tree id hasher, which has no random
/// seed: the gate is the trust boundary for ids, and a hostile id source
/// must be remapped before it (see [`tcs_graph::hash`]).
#[derive(Clone, Debug)]
pub struct IngestGate {
    duration: u64,
    policy: OrderPolicy,
    watermark: Option<u64>,
    /// Ids of edges whose timestamps are still inside the window, with
    /// the arrival queue that expires them.
    live_ids: IdSet<EdgeId>,
    arrivals: VecDeque<(u64, EdgeId, VertexId, VertexId)>,
    /// vertex → (label, live incident-edge count).
    labels: IdMap<VertexId, (VLabel, u32)>,
    stats: IngestStats,
}

impl IngestGate {
    /// A gate for a window of the given duration (same half-open
    /// `(t − |W|, t]` timespan as [`tcs_graph::SlidingWindow`]).
    pub fn new(duration: u64, policy: OrderPolicy) -> Self {
        IngestGate {
            duration,
            policy,
            watermark: None,
            live_ids: IdSet::default(),
            arrivals: VecDeque::new(),
            labels: IdMap::default(),
            stats: IngestStats::default(),
        }
    }

    /// The active ordering policy.
    pub fn policy(&self) -> OrderPolicy {
        self.policy
    }

    /// Replaces the ordering policy (effective from the next arrival).
    pub fn set_policy(&mut self, policy: OrderPolicy) {
        self.policy = policy;
    }

    /// The newest accepted timestamp, if any arrival was admitted yet.
    pub fn watermark(&self) -> Option<u64> {
        self.watermark
    }

    /// Boundary counters so far.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Validates one arrival. `Ok(Some(e))` admits `e` (timestamp
    /// possibly clamped), `Ok(None)` drops it silently per policy, and
    /// `Err` rejects it leaving every structure untouched.
    pub fn admit(&mut self, mut e: StreamEdge) -> Result<Admission, IngestError> {
        // Ordering first: the policy may rewrite the timestamp the other
        // checks and the bookkeeping then use.
        if let Some(w) = self.watermark {
            if e.ts.0 < w {
                match self.policy {
                    OrderPolicy::Reject => {
                        self.stats.rejected_out_of_order += 1;
                        return Err(IngestError::OutOfOrder { ts: e.ts.0, watermark: w });
                    }
                    OrderPolicy::ClampToWatermark => {
                        e.ts = Timestamp(w);
                        self.stats.clamped += 1;
                    }
                    OrderPolicy::DropSilently => {
                        self.stats.dropped_out_of_order += 1;
                        return Ok(None);
                    }
                }
            }
        }
        // The arrivals this (possibly clamped) one expires. Their ids and
        // vertex labels are still on the books — retirement waits for
        // admission, so a rejection leaves every structure untouched —
        // but a re-used id of such an edge is NOT a duplicate and a
        // relabelled vertex with no younger incident edge is NOT
        // dangling: a hit below is checked against this prefix.
        let bound = e.ts.0.checked_sub(self.duration);
        let arrivals = &self.arrivals;
        let expiring = || arrivals.iter().take_while(|a| bound.is_some_and(|b| a.0 <= b));
        if self.live_ids.contains(&e.id) && !expiring().any(|a| a.1 == e.id) {
            self.stats.rejected_duplicate += 1;
            return Err(IngestError::DuplicateEdgeId { id: e.id });
        }
        if e.src == e.dst && e.src_label != e.dst_label {
            self.stats.rejected_dangling += 1;
            return Err(IngestError::DanglingEndpoint { id: e.id, vertex: e.src });
        }
        for (v, l) in [(e.src, e.src_label), (e.dst, e.dst_label)] {
            if let Some(&(have, live)) = self.labels.get(&v) {
                if have != l && expiring().filter(|a| a.2 == v || a.3 == v).count() < live as usize
                {
                    self.stats.rejected_dangling += 1;
                    return Err(IngestError::DanglingEndpoint { id: e.id, vertex: v });
                }
            }
        }
        // Admitted: retire what it expires, then record it.
        if let Some(bound) = bound {
            while let Some(&(ts, id, src, dst)) = self.arrivals.front() {
                if ts > bound {
                    break;
                }
                self.arrivals.pop_front();
                self.live_ids.remove(&id);
                self.release_vertex(src);
                if dst != src {
                    self.release_vertex(dst);
                }
            }
        }
        self.watermark = Some(self.watermark.map_or(e.ts.0, |w| w.max(e.ts.0)));
        self.live_ids.insert(e.id);
        self.arrivals.push_back((e.ts.0, e.id, e.src, e.dst));
        self.retain_vertex(e.src, e.src_label);
        if e.dst != e.src {
            self.retain_vertex(e.dst, e.dst_label);
        }
        self.stats.admitted += 1;
        Ok(Some(e))
    }

    fn retain_vertex(&mut self, v: VertexId, l: VLabel) {
        let entry = self.labels.entry(v).or_insert((l, 0));
        entry.1 += 1;
    }

    fn release_vertex(&mut self, v: VertexId) {
        if let Some(entry) = self.labels.get_mut(&v) {
            entry.1 -= 1;
            if entry.1 == 0 {
                self.labels.remove(&v);
            }
        }
    }

    /// Rough byte accounting of the gate's own bookkeeping.
    pub fn space_bytes(&self) -> usize {
        use std::mem::size_of;
        self.live_ids.len() * size_of::<EdgeId>()
            + self.arrivals.len() * size_of::<(u64, EdgeId, VertexId, VertexId)>()
            + self.labels.len() * (size_of::<VertexId>() + size_of::<(VLabel, u32)>())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;

    fn edge(id: u64, src: u32, sl: u16, dst: u32, dl: u16, ts: u64) -> StreamEdge {
        StreamEdge::new(id, src, sl, dst, dl, 0, ts)
    }

    #[test]
    fn reject_policy_errors_and_preserves_state() {
        let mut g = IngestGate::new(10, OrderPolicy::Reject);
        assert!(g.admit(edge(1, 0, 0, 1, 1, 5)).unwrap().is_some());
        let err = g.admit(edge(2, 0, 0, 1, 1, 3)).unwrap_err();
        assert_eq!(err, IngestError::OutOfOrder { ts: 3, watermark: 5 });
        // The rejected edge left nothing behind: its id is reusable.
        assert!(g.admit(edge(2, 0, 0, 1, 1, 6)).unwrap().is_some());
        assert_eq!(g.stats().rejected_out_of_order, 1);
        assert_eq!(g.stats().admitted, 2);

        // A rejection far ahead of the watermark retires nothing either:
        // id 1 and v0's label stay bound while their edge is in window.
        let mut g = IngestGate::new(10, OrderPolicy::Reject);
        g.admit(edge(1, 0, 0, 1, 1, 1)).unwrap();
        assert_eq!(
            g.admit(edge(99, 5, 0, 5, 1, 1000)).unwrap_err(),
            IngestError::DanglingEndpoint { id: EdgeId(99), vertex: VertexId(5) }
        );
        assert_eq!(g.watermark(), Some(1));
        assert_eq!(
            g.admit(edge(1, 2, 2, 3, 3, 2)).unwrap_err(),
            IngestError::DuplicateEdgeId { id: EdgeId(1) }
        );
        assert_eq!(
            g.admit(edge(2, 0, 7, 3, 3, 2)).unwrap_err(),
            IngestError::DanglingEndpoint { id: EdgeId(2), vertex: VertexId(0) }
        );
        assert_eq!(g.stats().admitted, 1);
        // Same for a duplicate rejected at a timestamp that would have
        // expired an older edge: id 2 (ts 5) is live at ts 11, id 1 (ts 1)
        // is not — but the watermark stays 5, where id 1 still is.
        g.admit(edge(2, 1, 1, 2, 2, 5)).unwrap();
        assert_eq!(
            g.admit(edge(2, 1, 1, 2, 2, 11)).unwrap_err(),
            IngestError::DuplicateEdgeId { id: EdgeId(2) }
        );
        assert_eq!(
            g.admit(edge(1, 1, 1, 2, 2, 6)).unwrap_err(),
            IngestError::DuplicateEdgeId { id: EdgeId(1) }
        );
        assert_eq!(g.stats().admitted, 2);
        // The arrival that does expire both may reuse an id and relabel
        // their vertices (v1 is bound by both edges).
        assert!(g.admit(edge(1, 0, 7, 1, 8, 100)).unwrap().is_some());
    }

    #[test]
    fn clamp_policy_raises_timestamp_to_watermark() {
        let mut g = IngestGate::new(10, OrderPolicy::ClampToWatermark);
        g.admit(edge(1, 0, 0, 1, 1, 5)).unwrap();
        let admitted = g.admit(edge(2, 1, 1, 2, 2, 3)).unwrap().expect("clamped, not dropped");
        assert_eq!(admitted.ts.0, 5);
        assert_eq!(g.stats().clamped, 1);
        assert_eq!(g.watermark(), Some(5));
    }

    #[test]
    fn drop_policy_counts_and_returns_none() {
        let mut g = IngestGate::new(10, OrderPolicy::DropSilently);
        g.admit(edge(1, 0, 0, 1, 1, 5)).unwrap();
        assert!(g.admit(edge(2, 0, 0, 1, 1, 2)).unwrap().is_none());
        assert_eq!(g.stats().dropped_out_of_order, 1);
        assert_eq!(g.stats().admitted, 1);
    }

    #[test]
    fn duplicate_ids_rejected_only_while_live() {
        let mut g = IngestGate::new(5, OrderPolicy::Reject);
        g.admit(edge(1, 0, 0, 1, 1, 1)).unwrap();
        assert_eq!(
            g.admit(edge(1, 2, 2, 3, 3, 2)).unwrap_err(),
            IngestError::DuplicateEdgeId { id: EdgeId(1) }
        );
        // At ts=7 the window is (2, 7]: the original id-1 edge expired,
        // so the id is free again.
        assert!(g.admit(edge(1, 2, 2, 3, 3, 7)).unwrap().is_some());
    }

    #[test]
    fn dangling_endpoints_rejected() {
        let mut g = IngestGate::new(10, OrderPolicy::Reject);
        // Self-loop with disagreeing labels never denotes a vertex.
        assert_eq!(
            g.admit(edge(1, 5, 0, 5, 1, 1)).unwrap_err(),
            IngestError::DanglingEndpoint { id: EdgeId(1), vertex: VertexId(5) }
        );
        // Vertex 7 live as label 2; a later edge claiming label 3 dangles.
        g.admit(edge(2, 7, 2, 8, 9, 2)).unwrap();
        assert_eq!(
            g.admit(edge(3, 7, 3, 9, 9, 3)).unwrap_err(),
            IngestError::DanglingEndpoint { id: EdgeId(3), vertex: VertexId(7) }
        );
        // Once vertex 7's last live edge expires, it may be relabelled.
        g.admit(edge(4, 1, 1, 2, 2, 20)).unwrap();
        assert!(g.admit(edge(5, 7, 3, 9, 9, 21)).unwrap().is_some());
        assert_eq!(g.stats().rejected_dangling, 2);
    }

    #[test]
    fn equal_timestamps_are_in_order() {
        let mut g = IngestGate::new(10, OrderPolicy::Reject);
        g.admit(edge(1, 0, 0, 1, 1, 5)).unwrap();
        assert!(g.admit(edge(2, 1, 1, 2, 2, 5)).unwrap().is_some());
    }
}
