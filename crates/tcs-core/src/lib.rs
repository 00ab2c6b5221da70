//! Time-constrained continuous subgraph search — the paper's contribution.
//!
//! This crate implements the full pipeline of *"Time Constrained Continuous
//! Subgraph Search over Streaming Graphs"* (Li, Zou, Özsu, Zhao — ICDE
//! 2019):
//!
//! 1. [`mod@decompose`] — TC-subquery enumeration (`TCsub(Q)`, Algorithm 5) and
//!    the greedy minimum-cardinality TC decomposition (Algorithm 6).
//! 2. [`joinorder`] — the joint-number heuristic (Definition 12) choosing a
//!    prefix-connected join order over the decomposition (§VI-C).
//! 3. [`cost`] — the expected-join-operations cost model (Theorem 7).
//! 4. [`plan`] — a compiled [`QueryPlan`] binding query
//!    edges to (subquery, level) positions; also the randomized plan
//!    variants Timing-RD / Timing-RJ / Timing-RDJ used in Figure 21.
//! 5. [`store`] — the storage abstraction over expansion-list items, with
//!    two implementations: the trie-compressed [`mstree::MsTreeStore`]
//!    (§IV) and the uncompressed [`independent::IndependentStore`]
//!    (the Timing-IND ablation).
//! 6. [`join`] — the join kernel: Algorithm 1's chain join and `L₀`
//!    propagation, run back to back by the serial engine and under item
//!    locks by the concurrent one (`tcs-concurrent`).
//! 7. [`engine`] — the streaming engine: Algorithm 1 (INSERT), Algorithm 2
//!    (DELETE), discardable-edge pruning (Lemma 1 / Theorem 2) and
//!    duplicate-free reporting of complete matches.

#![forbid(unsafe_code)]

mod binding;
pub mod cost;
pub mod decompose;
pub mod engine;
pub mod failpoints;
pub mod independent;
pub mod ingest;
pub mod join;
pub mod joinorder;
pub mod mstree;
pub mod plan;
pub mod store;

pub use decompose::{decompose, tc_subqueries, Decomposition, TcSubquery};
pub use engine::{EngineStats, TimingEngine};
pub use independent::IndependentStore;
pub use ingest::{IngestError, IngestGate, IngestStats, OrderPolicy};
pub use mstree::MsTreeStore;
pub use plan::{PlanFingerprint, PlanOptions, QueryPlan};
pub use store::{ExpiryMode, MatchStore};
