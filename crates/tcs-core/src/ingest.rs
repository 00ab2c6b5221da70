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
//! arrival and zero checks in the hot inner loops. A violating arrival is
//! always an [`IngestError::OutOfOrder`] that leaves all state untouched;
//! nothing is rewritten or dropped.
//!
//! Two more malformation classes are caught at the same boundary:
//!
//! * [`IngestError::DuplicateEdgeId`] — stream ids must be unique among
//!   live edges (engines resolve stored ids through the gate's live
//!   edges; a duplicate would alias another query's bindings).
//! * [`IngestError::DanglingEndpoint`] — an endpoint that cannot denote a
//!   real vertex: a self-loop whose two endpoint labels disagree, or a
//!   vertex already live in the window under a different label. Stored
//!   rows resolve edge endpoints during joins; admitting such an edge
//!   plants bindings that dangle semantically even though the id resolves.
//!
//! [`IngestGate`] packages the full check set (watermark, live edges,
//! vertex-label table) for owners of a whole stream boundary (the
//! multi-query front-ends). Its live edges are the owner's window: the
//! registry reads expiries, resolves edge ids and numbers admissions
//! through the gate alone. Engines embedded behind a gate only re-check
//! the watermark, which their filtered substream preserves.

use std::collections::VecDeque;
use tcs_graph::{EdgeId, IdMap, LiveEdgeView, MatchRecord, StreamEdge, VLabel, VertexId};

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

/// What an out-of-order arrival becomes at the boundary: always
/// [`IngestError::OutOfOrder`], with the store untouched (the strict
/// stream model of Definition 1).
///
/// `Reject` is the only value. The type survives only because the
/// frozen benchmark passes it to [`IngestGate::new`]; ROADMAP Step 0a
/// removes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OrderPolicy {
    /// Return [`IngestError::OutOfOrder`]; the store is untouched.
    #[default]
    Reject,
}

/// Boundary counters: what the gate admitted and rejected. Deliberately
/// **not** part of [`EngineStats`](crate::engine::EngineStats) — engine
/// counters must stay byte-identical to an oracle engine fed the
/// sanitized stream, so ingest accounting lives beside them, not inside
/// them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Arrivals admitted: also the last admission number handed out.
    pub admitted: u64,
    /// Always 0: no arrival is dropped. Kept only because the frozen
    /// benchmark reads it; ROADMAP Step 0a removes it.
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

/// The admission decision of a gate: the admitted edge, unchanged. It is
/// always `Some`; the `Option` remains only because the frozen benchmark
/// matches on it, and ROADMAP Step 0a removes it.
pub type Admission = Option<StreamEdge>;

/// A full stream-boundary validator that is also its owner's window:
/// tracks the watermark, the live edges and each live vertex's label, so
/// every [`IngestError`] class is detected in release builds at O(1)
/// amortized per arrival.
///
/// Each live edge is held once: in an admission-ordered queue (oldest
/// first) plus an id → admission number entry (1-based, never reused).
/// The number gives the edge's queue position and, for the registry, a
/// match's emission [`floor`](Self::floor): numbers, not timestamps,
/// because only a number tells apart two equal-timestamp arrivals a
/// registration falls between. Engines resolve stored edge ids through
/// the gate ([`LiveEdgeView`]). The id and label tables hash with the
/// in-tree id hasher, which has no random seed: the gate is the trust
/// boundary for ids, and a hostile id source must be remapped before it
/// (see [`tcs_graph::hash`]).
#[derive(Clone, Debug)]
pub struct IngestGate {
    duration: u64,
    watermark: Option<u64>,
    /// The window: admitted edges still inside it, oldest first.
    edges: VecDeque<StreamEdge>,
    /// id → admission number of every edge in `edges`.
    numbers: IdMap<EdgeId, u64>,
    /// vertex → (label, live incident-edge count).
    labels: IdMap<VertexId, (VLabel, u32)>,
    stats: IngestStats,
}

impl IngestGate {
    /// A gate for a window of the given duration (the half-open
    /// `(t − |W|, t]` timespan of Definition 2). `OrderPolicy` has one
    /// value, so the second argument changes nothing.
    ///
    /// # Panics
    /// Panics if `duration == 0`; a zero-length window would expire every
    /// edge at the instant it arrives.
    pub fn new(duration: u64, _policy: OrderPolicy) -> Self {
        assert!(duration > 0, "window duration must be positive");
        IngestGate {
            duration,
            watermark: None,
            edges: VecDeque::new(),
            numbers: IdMap::default(),
            labels: IdMap::default(),
            stats: IngestStats::default(),
        }
    }

    /// The newest accepted timestamp, if any arrival was admitted yet.
    pub fn watermark(&self) -> Option<u64> {
        self.watermark
    }

    /// Boundary counters so far.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Number of live edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no edge is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Whether an arrival at `ts` expires edge `x`: `x.ts ≤ ts − |W|`.
    /// While `ts < |W|` the timespan `(ts − |W|, ts]` still covers every
    /// timestamp down to 0, so nothing expires.
    #[inline]
    fn expired_by(&self, ts: u64) -> impl Fn(&StreamEdge) -> bool + Copy {
        let bound = ts.checked_sub(self.duration);
        move |x| bound.is_some_and(|b| x.ts.0 <= b)
    }

    /// Whether admitting an arrival at `ts` would retire the oldest live
    /// edge. Owners that run work against the live edges read this before
    /// [`admit_with`](Self::admit_with), to finish that work while the
    /// edges the arrival expires still resolve.
    #[inline]
    pub fn retires(&self, ts: u64) -> bool {
        self.edges.front().is_some_and(self.expired_by(ts))
    }

    /// Validates one arrival. `Ok(Some(e))` admits `e` unchanged, and
    /// `Err` rejects it leaving every structure untouched — the one-edge
    /// form of [`admit_with`](Self::admit_with) for callers that do not
    /// want the retired edges.
    pub fn admit(&mut self, e: StreamEdge) -> Result<Admission, IngestError> {
        self.admit_with(e, |_| {})
    }

    /// Validates one arrival and, if it is admitted, slides the window to
    /// it: the edges it expires are retired, oldest first, each handed to
    /// `retired`, before the arrival takes the next admission number. On
    /// `Err` nothing is retired and every structure is untouched.
    pub fn admit_with(
        &mut self,
        e: StreamEdge,
        mut retired: impl FnMut(StreamEdge),
    ) -> Result<Admission, IngestError> {
        if let Some(w) = self.watermark {
            if e.ts.0 < w {
                self.stats.rejected_out_of_order += 1;
                return Err(IngestError::OutOfOrder { ts: e.ts.0, watermark: w });
            }
        }
        // The edges this arrival expires are still on the books —
        // retirement waits for admission, so a rejection leaves every
        // structure untouched — but a re-used id of such an edge is NOT
        // a duplicate and a relabelled vertex with no younger incident
        // edge is NOT dangling: a hit below is checked against this
        // prefix.
        let expiring = self.expired_by(e.ts.0);
        if let Some(&n) = self.numbers.get(&e.id) {
            if !self.edges.get(self.position(n)).is_some_and(expiring) {
                self.stats.rejected_duplicate += 1;
                return Err(IngestError::DuplicateEdgeId { id: e.id });
            }
        }
        if e.src == e.dst && e.src_label != e.dst_label {
            self.stats.rejected_dangling += 1;
            return Err(IngestError::DanglingEndpoint { id: e.id, vertex: e.src });
        }
        for (v, l) in [(e.src, e.src_label), (e.dst, e.dst_label)] {
            if let Some(&(have, live)) = self.labels.get(&v) {
                if have != l {
                    let gone = self.edges.iter().take_while(|x| expiring(x));
                    if gone.filter(|x| x.src == v || x.dst == v).count() < live as usize {
                        self.stats.rejected_dangling += 1;
                        return Err(IngestError::DanglingEndpoint { id: e.id, vertex: v });
                    }
                }
            }
        }
        // Admitted: retire what it expires, then record it.
        while let Some(&x) = self.edges.front().filter(|&x| expiring(x)) {
            self.edges.pop_front();
            self.numbers.remove(&x.id);
            self.release_vertex(x.src);
            if x.dst != x.src {
                self.release_vertex(x.dst);
            }
            retired(x);
        }
        self.watermark = Some(e.ts.0);
        self.stats.admitted += 1;
        self.numbers.insert(e.id, self.stats.admitted);
        self.edges.push_back(e);
        self.retain_vertex(e.src, e.src_label);
        if e.dst != e.src {
            self.retain_vertex(e.dst, e.dst_label);
        }
        Ok(Some(e))
    }

    /// The queue position of the live edge with admission number `n`.
    #[inline]
    fn position(&self, n: u64) -> usize {
        // The front's number is `admitted − len + 1`.
        (n + self.edges.len() as u64 - self.stats.admitted - 1) as usize
    }

    /// A match's emission floor: the smallest admission number among its
    /// edges. They are all live while the match is delivered; a missing
    /// one would read 0 and withhold the match from every late subscriber.
    pub fn floor(&self, m: &MatchRecord) -> u64 {
        let number = |id| self.numbers.get(id).copied().unwrap_or(0);
        m.edges().iter().map(number).min().unwrap_or(0)
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

    /// Everything the gate holds per live edge: the queue entry and its
    /// id → admission-number entry. The vertex-label table is not counted.
    pub fn live_edge_bytes(&self) -> usize {
        use std::mem::size_of;
        self.edges.len() * (size_of::<StreamEdge>() + size_of::<EdgeId>() + size_of::<u64>())
    }
}

impl LiveEdgeView for IngestGate {
    #[inline]
    fn live_edge(&self, id: EdgeId) -> Option<&StreamEdge> {
        self.edges.get(self.position(*self.numbers.get(&id)?))
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
