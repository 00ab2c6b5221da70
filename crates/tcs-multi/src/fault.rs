//! Fault-domain types: what a per-query panic becomes, what an overloaded
//! channel does, and what the health report carries.
//!
//! The failure model (crate docs, "Failure model") separates three fault
//! classes with three different blast radii:
//!
//! 1. **Query faults** — a panic inside one query's per-arrival work.
//!    Under [`FaultPolicy::Quarantine`] the registry catches it, records
//!    a [`QueryFault`], and unregisters the offender; every other query
//!    keeps serving. The dispatcher never observes a dead channel for
//!    this class.
//! 2. **Worker faults** — a panic outside the per-query isolation
//!    boundary kills a whole shard worker. The supervisor inside
//!    [`ShardedMultiEngine::process`](crate::ShardedMultiEngine::process)
//!    rebuilds the shard, re-homes its surviving queries and replays the
//!    shard's in-window edges into it, so no match is lost
//!    ([`ShardHealth::restarts`]; [`ShardHealth::replay_failures`]
//!    counts the rebuilds whose replay died).
//! 3. **Overload** — a worker that cannot keep up fills its channel. The
//!    [`OverloadPolicy`] decides whether the dispatcher waits or sheds,
//!    and [`ShardHealth`] counts what was shed.

use crate::engine::QueryId;
use std::any::Any;

/// What a panic inside one query's per-arrival work becomes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Let the panic unwind to the caller (default for a bare
    /// [`MultiQueryEngine`](crate::MultiQueryEngine) — a single-threaded
    /// embedder usually wants the crash, and the catch boundary costs
    /// nothing when unused).
    #[default]
    Propagate,
    /// Catch the panic, record a [`QueryFault`], unregister the offending
    /// query and keep serving the rest (default for the shards of a
    /// [`ShardedMultiEngine`](crate::ShardedMultiEngine) — one tenant's
    /// bug must not take down its neighbours).
    Quarantine,
}

/// What the dispatcher does when a shard worker's channel is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Block until the worker drains (default — lossless, the slowest
    /// shard paces the stream).
    #[default]
    Backpressure,
    /// Evict the *oldest* queued edge to admit the new one — bounded
    /// staleness: the worker always sees the freshest traffic, losing
    /// history ([`ShardHealth::shed_oldest`] counts the losses).
    ShedOldest,
    /// Drop the *newest* edge (the arrival itself) when the buffer is
    /// full — bounded effort: queued work is never wasted, fresh traffic
    /// is sacrificed ([`ShardHealth::shed_newest`] counts the losses).
    ShedNewest,
}

/// One quarantined query: the panic that condemned it and where in the
/// stream it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryFault {
    /// The quarantined query (already unregistered when this is visible).
    pub qid: QueryId,
    /// The panic payload, stringified (`String`/`&str` payloads verbatim,
    /// anything else a placeholder).
    pub payload: String,
    /// Arrival ordinal at the owning registry when the fault fired — the
    /// registry's `edges_seen` count, i.e. the shard-local substream
    /// position under a sharded front-end.
    pub edge_seq: u64,
}

/// Per-shard health counters reported by
/// [`ShardedMultiEngine::stats`](crate::ShardedMultiEngine::stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardHealth {
    /// The shard index.
    pub shard: usize,
    /// Edges evicted from this shard's queue ([`OverloadPolicy::ShedOldest`]).
    pub shed_oldest: u64,
    /// Arrivals dropped at this shard's full queue
    /// ([`OverloadPolicy::ShedNewest`]).
    pub shed_newest: u64,
    /// Times the supervisor rebuilt this shard after its worker died.
    pub restarts: u64,
    /// Rebuilds whose replay itself panicked, leaving the shard's queries
    /// on empty windows (the one restart that loses in-window state).
    pub replay_failures: u64,
}

/// Stringifies a panic payload: `String` and `&str` come back verbatim
/// (failpoint-injected panics carry `String`s), anything else becomes a
/// placeholder — the fault log must never lose a record to an exotic
/// payload type.
pub(crate) fn payload_str(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn payloads_stringify() {
        let s: Box<dyn Any + Send> = Box::new(String::from("boom"));
        assert_eq!(payload_str(s.as_ref()), "boom");
        let s: Box<dyn Any + Send> = Box::new("static boom");
        assert_eq!(payload_str(s.as_ref()), "static boom");
        let s: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(payload_str(s.as_ref()), "<non-string panic payload>");
    }
}
