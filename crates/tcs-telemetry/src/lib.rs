//! Serving-stack telemetry: latency histograms, skew/shard-load gauges
//! and a structured event log.
//!
//! The engines in `tcs-core` / `tcs-multi` accept an
//! `Option<Arc<`[`Recorder`]`>>` seam (default `None` — a no-op that
//! costs one branch per instrumented site and never perturbs the
//! oracle-comparable engine counters). When armed, the recorder
//! collects:
//!
//! * **Latency** — mergeable HDR-style [`LatencyHistogram`]s (O(1)
//!   record, ≤ 1/32 relative error) for per-edge *processing* latency
//!   and per-query / per-template *detection* latency (emission time
//!   minus completing-edge arrival time), under the sampling contract
//!   documented in [`recorder`];
//! * **Skew and load** — per-shard routed/queue-depth/restart
//!   gauges ([`ShardLoad`]) and degree-bucketed hot-key counters, the
//!   inputs the future shard rebalancer needs;
//! * **Events** — a bounded ring of sequence-numbered lifecycle
//!   [`Event`]s (register/unregister, quarantine, worker restart).
//!
//! Everything exports through [`TelemetrySnapshot`]: Prometheus text
//! ([`TelemetrySnapshot::to_prometheus`]) and a lossless JSON
//! round-trip ([`TelemetrySnapshot::to_json`] /
//! [`TelemetrySnapshot::from_json`]); [`Recorder::dump`] writes both
//! into a metrics directory for dashboards to scrape.
//!
//! This crate is a leaf: it depends on nothing in the workspace, so
//! every layer of the stack can report into it without cycles.

#![forbid(unsafe_code)]

pub mod event;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod snapshot;

pub use event::{Event, EventKind, EventLog};
pub use hist::{HistogramSnapshot, LatencyHistogram};
pub use recorder::{Recorder, MAX_TRACKED_SCOPES, OVERFLOW_SCOPE};
pub use snapshot::{ShardLoad, TelemetrySnapshot};
