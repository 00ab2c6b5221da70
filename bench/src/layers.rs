//! Standalone replays of the layers that sit in front of the engines
//! inside `tcs-multi` and cannot be spanned from outside: the stream is
//! replayed through each layer's own public entry point, alone, and timed.

use crate::workload::WINDOW;
use std::time::Instant;
use tcs_core::{IngestGate, OrderPolicy, PlanFingerprint};
use tcs_graph::{QueryGraph, SlidingWindow, Snapshot, StreamEdge};

#[derive(Clone, Copy, Debug, Default)]
pub struct IngestReplay {
    pub admit_ns_per_edge: f64,
    pub rejected: u64,
}

/// `IngestGate::admit` over the whole stream.
pub fn ingest(stream: &[StreamEdge]) -> IngestReplay {
    let mut gate = IngestGate::new(WINDOW, OrderPolicy::default());
    let mut admitted = 0u64;
    let t = Instant::now();
    for &e in stream {
        if let Ok(Some(e)) = gate.admit(e) {
            admitted += std::hint::black_box(e).id.0 & 1;
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(admitted);
    IngestReplay {
        admit_ns_per_edge: ns / stream.len().max(1) as f64,
        rejected: gate.stats().rejected(),
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct WindowReplay {
    pub advance_ns_per_edge: f64,
    pub expired_per_arrival: f64,
    pub live_max: u64,
}

/// `SlidingWindow::advance_batch` over the stream in `batch`-sized calls,
/// counted from `skip` on (the warm-up prefix fills the window untimed).
pub fn window(stream: &[StreamEdge], skip: usize, batch: usize) -> WindowReplay {
    let mut w = SlidingWindow::new(WINDOW);
    std::hint::black_box(w.advance_batch(&stream[..skip]));
    let (mut expired, mut live_max, mut ns) = (0u64, 0usize, 0u128);
    for chunk in stream[skip..].chunks(batch.max(1)) {
        let t = Instant::now();
        let ev = w.advance_batch(chunk);
        ns += t.elapsed().as_nanos();
        expired += ev.expiries() as u64;
        live_max = live_max.max(w.len());
        std::hint::black_box(ev);
    }
    let n = (stream.len() - skip).max(1) as f64;
    WindowReplay {
        advance_ns_per_edge: ns as f64 / n,
        expired_per_arrival: expired as f64 / n,
        live_max: live_max as u64,
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct SnapshotReplay {
    pub update_ns_per_edge: f64,
    pub bytes_max: u64,
}

/// `Snapshot::remove` / `Snapshot::insert` over the window's own event
/// sequence (expiries, then the arrival), counted from `skip` on.
pub fn snapshot(stream: &[StreamEdge], skip: usize) -> SnapshotReplay {
    let mut w = SlidingWindow::new(WINDOW);
    let mut snap = Snapshot::new();
    for &e in &stream[..skip] {
        for x in w.advance(e).expired {
            snap.remove(x.id);
        }
        snap.insert(e);
    }
    let (mut ns, mut bytes_max) = (0u128, snap.space_bytes());
    for chunk in stream[skip..].chunks(1_024) {
        let events: Vec<_> = chunk.iter().map(|&e| w.advance(e)).collect();
        let t = Instant::now();
        for ev in &events {
            for x in &ev.expired {
                snap.remove(x.id);
            }
            snap.insert(ev.arrival);
        }
        ns += t.elapsed().as_nanos();
        bytes_max = bytes_max.max(snap.space_bytes());
    }
    SnapshotReplay {
        update_ns_per_edge: ns as f64 / (stream.len() - skip).max(1) as f64,
        bytes_max: bytes_max as u64,
    }
}

/// Mean µs of `PlanFingerprint::canonicalize` per query.
pub fn fingerprint_us_per_query(queries: &[QueryGraph]) -> f64 {
    let t = Instant::now();
    for q in queries {
        std::hint::black_box(PlanFingerprint::canonicalize(q));
    }
    t.elapsed().as_secs_f64() * 1e6 / queries.len().max(1) as f64
}
