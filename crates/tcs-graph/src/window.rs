//! The time-based sliding window (Definition 2).
//!
//! A window of duration `|W|` at current time `t` covers the timespan
//! `(t − |W|, t]`. As edges arrive the window slides forward and edges whose
//! timestamp falls out of the timespan *expire*. [`SlidingWindow::advance`]
//! turns one arrival into a [`WindowEvent`] carrying the expiries (in
//! timestamp order) followed by the arrival — the exact sequence every engine
//! in this workspace consumes, which is also the order used to define
//! streaming consistency (Definition 11).

use crate::edge::StreamEdge;
use std::collections::VecDeque;

/// One tick of the stream: edges that left the window, then the new edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowEvent {
    /// Edges expired by this arrival, oldest first.
    pub expired: Vec<StreamEdge>,
    /// The newly arrived edge.
    pub arrival: StreamEdge,
}

/// One segment of a batched advance: the edges expired at this boundary,
/// then the run of arrivals admitted before the next expiry boundary.
///
/// Concatenating a step's `expired` (oldest first) and `arrivals` (stream
/// order) reproduces exactly the per-edge [`WindowEvent`] sequence: an
/// arrival that expires nothing is folded into the previous step's run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowBatchStep {
    /// Edges expired before the first arrival of this step, oldest first.
    pub expired: Vec<StreamEdge>,
    /// Consecutive arrivals with no expiry boundary between them.
    pub arrivals: Vec<StreamEdge>,
}

/// A batch of arrivals split at its expiry boundaries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchEvent {
    /// Steps in stream order; every arrival of the batch appears in exactly
    /// one step, and only the first step may have an empty `expired` list.
    pub steps: Vec<WindowBatchStep>,
}

impl BatchEvent {
    /// Total arrivals across all steps.
    pub fn arrivals(&self) -> usize {
        self.steps.iter().map(|s| s.arrivals.len()).sum()
    }

    /// Total expiries across all steps.
    pub fn expiries(&self) -> usize {
        self.steps.iter().map(|s| s.expired.len()).sum()
    }
}

/// A time-based sliding window over a stream of [`StreamEdge`]s.
#[derive(Clone, Debug)]
pub struct SlidingWindow {
    duration: u64,
    buffer: VecDeque<StreamEdge>,
    last_ts: Option<u64>,
}

impl SlidingWindow {
    /// Creates a window of the given duration (in timestamp units).
    ///
    /// # Panics
    /// Panics if `duration == 0`; a zero-length window would expire every
    /// edge at the instant it arrives.
    pub fn new(duration: u64) -> Self {
        assert!(duration > 0, "window duration must be positive");
        SlidingWindow { duration, buffer: VecDeque::new(), last_ts: None }
    }

    /// The window duration `|W|`.
    #[inline]
    pub fn duration(&self) -> u64 {
        self.duration
    }

    /// Edges currently inside the window, oldest first.
    pub fn edges(&self) -> impl Iterator<Item = &StreamEdge> {
        self.buffer.iter()
    }

    /// Number of live edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// True when no edge is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Slides the window to the arrival's timestamp and admits it.
    ///
    /// Returns the expired edges (those with `ts ≤ arrival.ts − |W|`) oldest
    /// first, paired with the arrival — [`SlidingWindow::advance_into`]
    /// with a fresh expiry list.
    ///
    /// # Panics
    /// Panics if timestamps are not nondecreasing (see
    /// [`SlidingWindow::advance_into`]).
    pub fn advance(&mut self, arrival: StreamEdge) -> WindowEvent {
        let mut expired = Vec::new();
        self.advance_into(arrival, &mut expired);
        WindowEvent { expired, arrival }
    }

    /// The window body every other advance goes through: slides to the
    /// arrival's timestamp, **appends** the edges it expires (oldest
    /// first) to `expired`, and admits the arrival. Callers that cut
    /// their own steps keep one expiry buffer across arrivals and batches
    /// instead of receiving a fresh `Vec` per event.
    ///
    /// # Panics
    /// Panics if timestamps are not nondecreasing. Equal timestamps are
    /// accepted: batched sources legitimately stamp several edges with one
    /// tick, and the `ClampToWatermark` ingestion policy (`tcs-core`)
    /// rewrites stragglers to exactly the watermark — the buffer stays
    /// sorted either way, which is all expiry needs.
    pub fn advance_into(&mut self, arrival: StreamEdge, expired: &mut Vec<StreamEdge>) {
        if let Some(last) = self.last_ts {
            assert!(
                arrival.ts.0 >= last,
                "stream timestamps must be nondecreasing ({} after {})",
                arrival.ts.0,
                last
            );
        }
        self.last_ts = Some(arrival.ts.0);
        // Only expire once `t − |W| ≥ 0` is representable: for `t < |W|`
        // the timespan `(t − |W|, t]` still covers every timestamp down to
        // 0, so even a `ts = 0` edge is live (a saturating bound of 0 would
        // wrongly expire it).
        if arrival.ts.0 >= self.duration {
            let bound = arrival.ts.0 - self.duration;
            while self.buffer.front().is_some_and(|front| front.ts.0 <= bound) {
                if let Some(e) = self.buffer.pop_front() {
                    expired.push(e);
                }
            }
        }
        self.buffer.push_back(arrival);
    }

    /// Slides the window across a whole batch of arrivals at once.
    ///
    /// Semantically identical to calling [`advance`](Self::advance) per
    /// edge; the per-edge events are merged into maximal expiry-free runs
    /// so batch consumers advance their stores once per boundary instead of
    /// once per edge.
    ///
    /// # Panics
    /// Panics if timestamps are not nondecreasing (same as `advance`).
    pub fn advance_batch(&mut self, arrivals: &[StreamEdge]) -> BatchEvent {
        let mut steps: Vec<WindowBatchStep> = Vec::new();
        let mut expired = Vec::new();
        for &a in arrivals {
            self.advance_into(a, &mut expired);
            match steps.last_mut() {
                Some(step) if expired.is_empty() => step.arrivals.push(a),
                _ => steps.push(WindowBatchStep {
                    expired: std::mem::take(&mut expired),
                    arrivals: vec![a],
                }),
            }
        }
        BatchEvent { steps }
    }

    /// Drains every remaining edge as expired (stream end).
    pub fn drain(&mut self) -> Vec<StreamEdge> {
        self.buffer.drain(..).collect()
    }
}

/// Adapts an edge iterator into a [`WindowEvent`] iterator.
pub fn events<I>(duration: u64, edges: I) -> impl Iterator<Item = WindowEvent>
where
    I: IntoIterator<Item = StreamEdge>,
{
    let mut w = SlidingWindow::new(duration);
    edges.into_iter().map(move |e| w.advance(e))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;

    fn edge(id: u64, ts: u64) -> StreamEdge {
        StreamEdge::new(id, 0, 0, 1, 0, 0, ts)
    }

    #[test]
    fn expiry_follows_paper_example() {
        // Figure 3/4: window size 9; at t=10 the edge with t=1 expires
        // because the timespan becomes (1, 10].
        let mut w = SlidingWindow::new(9);
        for t in 1..=9 {
            let ev = w.advance(edge(t, t));
            assert!(ev.expired.is_empty(), "no expiry through t=9");
        }
        let ev = w.advance(edge(10, 10));
        assert_eq!(ev.expired.len(), 1);
        assert_eq!(ev.expired[0].ts.0, 1);
        assert_eq!(w.len(), 9);
    }

    #[test]
    fn multiple_expiries_when_time_jumps() {
        let mut w = SlidingWindow::new(5);
        for t in [1, 2, 3] {
            w.advance(edge(t, t));
        }
        let ev = w.advance(edge(4, 100));
        assert_eq!(ev.expired.len(), 3);
        assert_eq!(ev.expired.iter().map(|e| e.ts.0).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn advance_into_appends_to_the_callers_buffer() {
        let mut w = SlidingWindow::new(5);
        let mut expired = vec![edge(99, 0)];
        for t in [1, 2, 3] {
            w.advance_into(edge(t, t), &mut expired);
        }
        assert_eq!(expired.len(), 1, "nothing expired yet; the old entry stays");
        w.advance_into(edge(4, 7), &mut expired);
        assert_eq!(expired.iter().map(|e| e.id.0).collect::<Vec<_>>(), vec![99, 1, 2]);
        assert_eq!(w.len(), 2);
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn non_monotone_timestamps_panic() {
        let mut w = SlidingWindow::new(5);
        w.advance(edge(1, 10));
        w.advance(edge(2, 9));
    }

    #[test]
    fn equal_timestamps_are_accepted() {
        // Nondecreasing, not strictly increasing: batched ticks and
        // watermark-clamped stragglers share a timestamp legally, and both
        // edges expire together when the window passes them.
        let mut w = SlidingWindow::new(5);
        w.advance(edge(1, 10));
        let ev = w.advance(edge(2, 10));
        assert!(ev.expired.is_empty());
        assert_eq!(w.len(), 2);
        let ev2 = w.advance(edge(3, 15));
        assert_eq!(ev2.expired.iter().map(|e| e.id.0).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_duration_panics() {
        SlidingWindow::new(0);
    }

    #[test]
    fn drain_returns_rest() {
        let mut w = SlidingWindow::new(100);
        for t in 1..=4 {
            w.advance(edge(t, t));
        }
        let rest = w.drain();
        assert_eq!(rest.len(), 4);
        assert!(w.is_empty());
    }

    #[test]
    fn events_adapter_matches_manual_loop() {
        let es: Vec<_> = (1..=20).map(|t| edge(t, t * 3)).collect();
        let via_adapter: Vec<_> = events(10, es.clone()).collect();
        let mut w = SlidingWindow::new(10);
        let manual: Vec<_> = es.into_iter().map(|e| w.advance(e)).collect();
        assert_eq!(via_adapter, manual);
    }

    #[test]
    fn ts_zero_edge_survives_while_window_covers_it() {
        // Regression: with |W| = 5 the window at t = 3 is (−2, 3], which
        // contains ts = 0; the saturating bound used to clamp to 0 and
        // expire the edge anyway.
        let mut w = SlidingWindow::new(5);
        let ev0 = w.advance(edge(1, 0));
        assert!(ev0.expired.is_empty());
        let ev = w.advance(edge(2, 3));
        assert!(ev.expired.is_empty(), "ts=0 is inside (−2, 3]");
        assert_eq!(w.len(), 2);
        // At t = 5 the timespan is (0, 5]: now ts = 0 expires.
        let ev2 = w.advance(edge(3, 5));
        assert_eq!(ev2.expired.len(), 1);
        assert_eq!(ev2.expired[0].ts.0, 0);
    }

    #[test]
    fn advance_batch_flattens_to_per_edge_events() {
        // Nondecreasing timestamps with ties and jumps: increments cycle
        // through 2, 4, 1, 3, 0.
        let mut ts = 0u64;
        let es: Vec<_> = (1..=40)
            .map(|t| {
                ts += (t * 7) % 5;
                edge(t, ts)
            })
            .collect();
        let mut per_edge = SlidingWindow::new(10);
        let evs: Vec<_> = es.iter().map(|&e| per_edge.advance(e)).collect();
        for split in [1usize, 3, 17, 40] {
            let mut batched = SlidingWindow::new(10);
            let mut flat: Vec<(Vec<StreamEdge>, Vec<StreamEdge>)> = Vec::new();
            for chunk in es.chunks(split) {
                let bev = batched.advance_batch(chunk);
                assert_eq!(bev.arrivals(), chunk.len());
                for (k, step) in bev.steps.iter().enumerate() {
                    assert!(!step.arrivals.is_empty(), "steps carry at least one arrival");
                    assert!(k == 0 || !step.expired.is_empty(), "later steps start at a boundary");
                    flat.push((step.expired.clone(), step.arrivals.clone()));
                }
            }
            // Re-derive the per-edge event list from the steps.
            let mut rebuilt = Vec::new();
            for (expired, arrivals) in flat {
                let mut expired = Some(expired);
                for a in arrivals {
                    rebuilt.push(WindowEvent {
                        expired: expired.take().unwrap_or_default(),
                        arrival: a,
                    });
                }
            }
            assert_eq!(rebuilt, evs, "batch of {split} must flatten to per-edge events");
            assert_eq!(batched.len(), per_edge.len());
        }
    }

    #[test]
    fn advance_batch_of_empty_slice_is_noop() {
        let mut w = SlidingWindow::new(5);
        w.advance(edge(1, 1));
        let bev = w.advance_batch(&[]);
        assert!(bev.steps.is_empty());
        assert_eq!(bev.arrivals() + bev.expiries(), 0);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn boundary_is_half_open() {
        // Window (t-|W|, t]: an edge exactly at t-|W| expires.
        let mut w = SlidingWindow::new(9);
        w.advance(edge(1, 1));
        let ev = w.advance(edge(2, 10));
        assert_eq!(ev.expired.len(), 1, "ts=1 is outside (1,10]");
    }
}
