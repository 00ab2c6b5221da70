//! # timingsubg
//!
//! A Rust reproduction of *"Time Constrained Continuous Subgraph Search
//! over Streaming Graphs"* (Li, Zou, Özsu, Zhao — ICDE 2019).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`graph`] — streaming-graph substrate (edges, windows, snapshots,
//!   queries with timing orders, dataset generators).
//! * [`subiso`] — static subgraph-isomorphism substrate (QuickSI /
//!   TurboISO / BoostISO-style matchers, timing post-filter, test oracle).
//! * [`core`] — the paper's method: TC decomposition, expansion lists,
//!   MS-trees and the streaming engine.
//! * [`baselines`] — SJ-tree (Choudhury et al.) and IncMat (Fan et al.)
//!   comparison systems.
//! * [`concurrent`] — the fine-grained locking framework and concurrent
//!   engine of §V.
//! * [`multi`] — the multi-query subsystem: a shared-snapshot query
//!   registry with signature-routed dispatch and a sharded concurrent
//!   front-end, for many standing queries over one stream.
//! * [`telemetry`] — the observability layer: mergeable latency
//!   histograms (per-edge + detection), skew/shard-load gauges, a
//!   structured event log, and Prometheus/JSON exporters. Engines
//!   accept a `Recorder` through an opt-in seam that never perturbs
//!   their oracle-comparable counters.
//!
//! ## Verification
//!
//! Two dedicated verification layers back the test suite:
//!
//! * **Bounded model checking** — `concurrent`'s primitives come from its
//!   `sync` shim; building with `RUSTFLAGS="--cfg tcs_model"` swaps in
//!   the `tcs-verify` scheduler, which enumerates thread interleavings up
//!   to a preemption bound and prints a replayable schedule string on
//!   failure (see the `tcs-verify` crate docs for the howto and the
//!   soundness limits of preemption bounding).
//! * **Store invariant audits** — every match store implements
//!   [`core::store::StoreAudit`], one sweep over all documented
//!   invariants: nondecreasing bucket timestamps, key-list coherence
//!   (every link has its backlink, only live rows are linked),
//!   index/list coherence, no dangling parent or component
//!   references, and allocator accounting — plus the engine's
//!   `live_partials == store_rows` cross-check. The workspace
//!   `debug-audit` feature arms the sweep at every end-of-cascade,
//!   end-of-batch and end-of-run boundary; property and chaos tests call
//!   it after every generated operation.
//!
//! ## Quickstart
//!
//! ```
//! use timingsubg::core::{MsTreeStore, PlanOptions, QueryPlan, TimingEngine};
//! use timingsubg::graph::window::SlidingWindow;
//! use timingsubg::graph::{QueryGraph, StreamEdge};
//! use timingsubg::graph::query::QueryEdge;
//! use timingsubg::graph::{ELabel, VLabel};
//!
//! // Query: a→b then b→c, with the a→b edge required to come first.
//! let query = QueryGraph::new(
//!     vec![VLabel(0), VLabel(1), VLabel(2)],
//!     vec![
//!         QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
//!         QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
//!     ],
//!     &[(0, 1)],
//! )
//! .unwrap();
//!
//! let plan = QueryPlan::build(query, PlanOptions::timing());
//! let mut engine: TimingEngine<MsTreeStore> = TimingEngine::new(plan);
//! let mut window = SlidingWindow::new(100);
//!
//! let m1 = engine.advance(&window.advance(StreamEdge::new(1, 10, 0, 11, 1, 0, 1)));
//! assert!(m1.is_empty());
//! let m2 = engine.advance(&window.advance(StreamEdge::new(2, 11, 1, 12, 2, 0, 2)));
//! assert_eq!(m2.len(), 1); // the pattern completed, in order
//! ```

#![forbid(unsafe_code)]

pub use tcs_baselines as baselines;
pub use tcs_concurrent as concurrent;
pub use tcs_core as core;
pub use tcs_graph as graph;
pub use tcs_multi as multi;
pub use tcs_subiso as subiso;
pub use tcs_telemetry as telemetry;
