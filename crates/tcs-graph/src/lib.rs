//! Streaming-graph substrate for time-constrained continuous subgraph search.
//!
//! This crate provides everything the paper's engine and its baselines need
//! from the data side:
//!
//! * [`ids`] — strongly-typed identifiers ([`VertexId`], [`EdgeId`], labels,
//!   [`Timestamp`]).
//! * [`edge`] — the timestamped, labelled [`StreamEdge`] (Definition 1 of the
//!   paper).
//! * [`query`] — the query graph with a strict partial *timing order* over its
//!   edges (Definition 3), including transitive-closure bitmasks and
//!   prerequisite subqueries (Definition 6).
//! * [`window`] — the time-based sliding window (Definition 2) that turns a
//!   stream of arrivals into arrival + expiry events.
//! * [`snapshot`] — the current-window snapshot graph `G_t` with adjacency and
//!   label indexes, used by snapshot-based baselines.
//! * [`matching`] — the canonical match record (Definition 4) shared by every
//!   engine so results can be compared exactly.
//! * [`gen`] — synthetic dataset generators standing in for the paper's CAIDA
//!   network-flow, LSBench social-stream and SNAP wiki-talk datasets, plus the
//!   random-walk query generator of §VII-B.
//! * [`io`] — plain-text serialization of streams and queries.
//! * [`hash`] — the in-tree integer hasher behind [`IdMap`] / [`IdSet`],
//!   the maps every id-, key- and signature-keyed table on the arrival
//!   path uses.

#![forbid(unsafe_code)]

pub mod edge;
pub mod gen;
pub mod hash;
pub mod ids;
pub mod io;
pub mod matching;
pub mod query;
pub mod snapshot;
pub mod window;

pub use edge::StreamEdge;
pub use hash::{IdMap, IdSet};
pub use ids::{ELabel, EdgeId, Timestamp, VLabel, VertexId};
pub use matching::MatchRecord;
pub use query::{QueryEdge, QueryGraph, TimingOrder};
pub use snapshot::{LiveEdgeView, Snapshot};
pub use window::{BatchEvent, SlidingWindow, WindowBatchStep, WindowEvent};
