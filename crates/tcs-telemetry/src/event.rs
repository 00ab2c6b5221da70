//! A bounded ring-buffer structured event log.
//!
//! Lifecycle transitions that today surface only as bare counters —
//! quarantines, worker restarts, registration churn — become ordered [`Event`]s with monotone
//! sequence numbers. The buffer is bounded ([`EventLog::with_capacity`]):
//! when full, the *oldest* events are evicted and counted in
//! `dropped`, so the log can run unattended forever; sequence numbers
//! keep advancing across evictions, so a consumer can always tell how
//! much history it lost.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default ring capacity.
const DEFAULT_CAP: usize = 1024;

/// One structured lifecycle event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotone sequence number, 1-based, never reused — gaps at the
    /// front of a snapshot mean the ring evicted history.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The event vocabulary of the serving stack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A query registered (`qid` = its `QueryId`).
    Register {
        /// The registered query id.
        qid: u64,
    },
    /// A query unregistered voluntarily.
    Unregister {
        /// The unregistered query id.
        qid: u64,
    },
    /// A query was quarantined after a caught panic (mirrors
    /// `QueryFault`).
    Quarantine {
        /// The quarantined query id.
        qid: u64,
        /// Arrival ordinal at the owning registry when the fault fired.
        edge_seq: u64,
        /// The stringified panic payload (truncated).
        payload: String,
    },
    /// The supervisor rebuilt a shard after its worker died.
    WorkerRestart {
        /// The rebuilt shard.
        shard: u64,
    },
}

impl EventKind {
    /// The snake_case discriminant used by both exporters.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Register { .. } => "register",
            EventKind::Unregister { .. } => "unregister",
            EventKind::Quarantine { .. } => "quarantine",
            EventKind::WorkerRestart { .. } => "worker_restart",
        }
    }
}

/// The bounded, thread-safe event ring. See module docs.
#[derive(Debug)]
pub struct EventLog {
    next_seq: AtomicU64,
    cap: usize,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    ring: VecDeque<Event>,
    dropped: u64,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::with_capacity(DEFAULT_CAP)
    }
}

impl EventLog {
    /// A log retaining at most `cap` events (≥ 1).
    pub fn with_capacity(cap: usize) -> EventLog {
        EventLog {
            next_seq: AtomicU64::new(0),
            cap: cap.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Appends an event, evicting the oldest if full; returns the
    /// assigned sequence number.
    pub fn push(&self, kind: EventKind) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut inner = self.inner.lock();
        if inner.ring.len() == self.cap {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(Event { seq, kind });
        seq
    }

    /// Events retained, oldest first, plus how many were evicted.
    pub fn snapshot(&self) -> (Vec<Event>, u64) {
        let inner = self.inner.lock();
        (inner.ring.iter().cloned().collect(), inner.dropped)
    }

    /// Total events ever pushed (retained + dropped).
    pub fn total(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;

    #[test]
    fn sequence_numbers_survive_eviction() {
        let log = EventLog::with_capacity(4);
        for qid in 0..10u64 {
            assert_eq!(log.push(EventKind::Register { qid }), qid + 1);
        }
        let (events, dropped) = log.snapshot();
        assert_eq!(dropped, 6);
        assert_eq!(log.total(), 10);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10], "oldest evicted, order kept");
        assert_eq!(events[0].kind, EventKind::Register { qid: 6 });
    }

    #[test]
    fn kind_names_are_stable() {
        let kinds = [
            EventKind::Register { qid: 0 },
            EventKind::Unregister { qid: 0 },
            EventKind::Quarantine { qid: 0, edge_seq: 0, payload: String::new() },
            EventKind::WorkerRestart { shard: 0 },
        ];
        let names: Vec<_> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["register", "unregister", "quarantine", "worker_restart"]);
    }
}
