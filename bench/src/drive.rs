//! Load drivers: the closed loop (as fast as calls return), the open loop
//! (edges due on a fixed schedule) and the traced variant of the closed
//! loop. One driver thread; only `sharded_mixed` has workers, and its
//! caller blocks inside `process`.

use crate::pipeline::{Leg, OpenClock, Sink, StackCounts};
use std::time::Instant;
use tcs_graph::StreamEdge;

/// Arrival ordinals at which state size is sampled in a closed round.
const SPACE_SAMPLES: usize = 32;

/// Result of one closed round over every leg.
#[derive(Clone, Debug, Default)]
pub struct ClosedRound {
    /// Edges fed, summed over legs.
    pub edges: u64,
    /// Seconds spent inside `feed`, summed over legs (sampling excluded).
    pub busy_s: f64,
    /// Σ over legs of the largest sampled `state_bytes()`.
    pub peak_state_bytes: u64,
    /// Σ over legs of the largest store / snapshot bytes sampled (traced
    /// rounds only).
    pub store_bytes_max: u64,
    pub snapshot_bytes_max: u64,
    /// Exact counter deltas over the round.
    pub counts: StackCounts,
}

/// Counter deltas between two readings of a stack (levels — sizes,
/// template and subscriber counts — are `after`'s).
pub fn delta(after: &StackCounts, before: &StackCounts) -> StackCounts {
    StackCounts {
        edges_processed: after.edges_processed - before.edges_processed,
        edges_discarded: after.edges_discarded - before.edges_discarded,
        matches_emitted: after.matches_emitted - before.matches_emitted,
        partials_inserted: after.partials_inserted - before.partials_inserted,
        join_ops: after.join_ops - before.join_ops,
        ingest_rejected: after.ingest_rejected - before.ingest_rejected,
        ingest_dropped: after.ingest_dropped - before.ingest_dropped,
        shed: after.shed - before.shed,
        restarts: after.restarts - before.restarts,
        quarantined: after.quarantined - before.quarantined,
        delivered: after.delivered - before.delivered,
        ..after.clone()
    }
}

/// Feeds `segment` to every leg, one leg after another, as fast as the
/// calls return. `chunk` is the number of edges between two state-size
/// samples (at least the workload's batch, so sampling never splits a
/// call); the clock is stopped while sampling.
pub fn closed_round(
    legs: &mut [&mut dyn Leg],
    segment: &[StreamEdge],
    batch: usize,
    sink: &mut Sink,
    traced: bool,
) -> ClosedRound {
    let chunk = segment.len().div_ceil(SPACE_SAMPLES).max(batch).max(1);
    let mut out = ClosedRound::default();
    for leg in legs.iter_mut() {
        let before = leg.counts();
        let mut peak = leg.state_bytes() as u64;
        let (mut store_max, mut snapshot_max) = (0u64, 0u64);
        for part in segment.chunks(chunk) {
            let t = Instant::now();
            if traced {
                leg.feed_traced(part, sink);
                crate::trace::end_roots();
            } else {
                leg.feed(part, sink);
            }
            out.busy_s += t.elapsed().as_secs_f64();
            peak = peak.max(leg.state_bytes() as u64);
            if traced {
                // Layer sizes cost a stats() walk; only the traced run,
                // which reports them, pays for it.
                let c = leg.counts();
                store_max = store_max.max(c.store_bytes);
                snapshot_max = snapshot_max.max(c.snapshot_bytes);
            }
        }
        out.edges += segment.len() as u64;
        out.peak_state_bytes += peak;
        out.store_bytes_max += store_max;
        out.snapshot_bytes_max += snapshot_max;
        out.counts.add(&delta(&leg.counts(), &before));
    }
    out
}

/// Result of one open-loop run over every leg.
#[derive(Clone, Debug, Default)]
pub struct OpenRun {
    pub edges: u64,
    /// Detection latency of every detecting arrival, µs, unsorted.
    pub lat_us: Vec<f64>,
    /// Largest lateness of the generator: feed time − due time, µs.
    pub lag_max_us: f64,
    /// Deepest due-but-unfed backlog, edges.
    pub backlog_max_edges: u64,
    /// Mean backlog over the first and the last quarter of the run.
    pub backlog_first_q: f64,
    pub backlog_last_q: f64,
    pub wall_s: f64,
    /// Length of the schedule: edges ÷ offered rate, summed over legs.
    pub schedule_s: f64,
}

impl OpenRun {
    /// Pools another pass over the same schedule into this one: latencies
    /// and totals add up, the generator's figures keep their worst value.
    pub fn absorb(&mut self, other: OpenRun) {
        self.edges += other.edges;
        self.lat_us.extend(other.lat_us);
        self.lag_max_us = self.lag_max_us.max(other.lag_max_us);
        self.backlog_max_edges = self.backlog_max_edges.max(other.backlog_max_edges);
        self.backlog_first_q = self.backlog_first_q.max(other.backlog_first_q);
        self.backlog_last_q = self.backlog_last_q.max(other.backlog_last_q);
        self.wall_s += other.wall_s;
        self.schedule_s += other.schedule_s;
    }
}

/// Feeds `segment` to every leg on a fixed schedule: edge `i` is due at
/// `t0 + i / rate`. The driver feeds every edge already due, at most
/// `group` per turn, and spins when none is. Latency is taken per
/// detecting arrival as (return of the call that delivered it) − (that
/// arrival's due time), inside [`Sink::call_end`].
pub fn open_loop(
    legs: &mut [&mut dyn Leg],
    segment: &[StreamEdge],
    rate: f64,
    group: usize,
    sink: &mut Sink,
) -> OpenRun {
    let n = segment.len();
    let mut out = OpenRun::default();
    let (mut first_sum, mut first_n, mut last_sum, mut last_n) = (0u64, 0u64, 0u64, 0u64);
    let wall = Instant::now();
    for leg in legs.iter_mut() {
        let t0 = Instant::now();
        sink.open = Some(OpenClock {
            t0,
            rate,
            first_id: segment[0].id.0,
            lat_us: std::mem::take(&mut out.lat_us),
        });
        let mut fed = 0usize;
        while fed < n {
            let now = t0.elapsed().as_secs_f64();
            // Edges with i / rate <= now.
            let due = ((now * rate) as usize + 1).min(n);
            if due <= fed {
                std::hint::spin_loop();
                continue;
            }
            let backlog = (due - fed) as u64;
            out.backlog_max_edges = out.backlog_max_edges.max(backlog);
            if fed < n / 4 {
                first_sum += backlog;
                first_n += 1;
            } else if fed >= n - n / 4 {
                last_sum += backlog;
                last_n += 1;
            }
            let lag = (now - fed as f64 / rate) * 1e6;
            out.lag_max_us = out.lag_max_us.max(lag);
            let take = (due - fed).min(group);
            leg.feed(&segment[fed..fed + take], sink);
            fed += take;
        }
        if let Some(o) = sink.open.take() {
            out.lat_us = o.lat_us;
        }
        out.edges += n as u64;
        out.schedule_s += n as f64 / rate;
    }
    out.wall_s = wall.elapsed().as_secs_f64();
    out.backlog_first_q = first_sum as f64 / first_n.max(1) as f64;
    out.backlog_last_q = last_sum as f64 / last_n.max(1) as f64;
    out
}

/// The `p`-quantile (0 < p <= 1) of a sorted sample: the smallest value
/// with at least `p` of the sample at or below it.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else if v.len() % 2 == 1 {
        v[v.len() / 2]
    } else {
        (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_the_smallest_value_covering_p() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.50), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v[..3], 0.99), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
