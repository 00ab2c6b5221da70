//! Concurrency management for streaming subgraph search (§V).
//!
//! High-speed streams need multi-threaded edge processing, but concurrent
//! transactions over shared expansion lists conflict. The paper's design,
//! reproduced here:
//!
//! * [`lock`] — expansion-list items are lockable resources with
//!   **chronological wait-lists**: a single dispatcher appends every
//!   transaction's lock requests in stream-timestamp order before the
//!   transaction starts, and grants strictly follow wait-list order. A
//!   transaction holds at most one item lock at a time, so there are no
//!   deadlocks, and the resulting schedule is *streaming consistent*
//!   (Definition 11 / Theorem 4) — equivalent to serial execution in
//!   timestamp order, a stronger guarantee than serializability.
//! * [`cmstree`] — a thread-safe MS-tree. All node links are atomics; each
//!   level's list is guarded by its item lock; deletion uses the
//!   **partial-removal** protocol of §V-C (unlink from the level list and
//!   the parent's child list, keep the child→parent link) so older readers
//!   can still backtrack through removed nodes (Theorems 5–6), and nodes
//!   are only reclaimed after the deleting transaction's full level pass.
//! * [`engine`] — the concurrent engine: a dispatcher thread turns window
//!   events into insertion/deletion transactions executed by `N` workers;
//!   an insertion runs `tcs_core::join`'s kernel — the serial engine's
//!   join — under item locks, in either fine-grained mode (the paper's
//!   "Timing-N") or the coarse-grained [`engine::LockingMode::AllLocks`]
//!   baseline
//!   ("All-locks-N", which acquires every lock up front and collapses to
//!   nearly serial execution — the flat ≈1.2× speedup of Figures 19–20).
//!
//! # Verification
//!
//! The concurrency in this crate is model-checked. Every primitive is
//! taken from the [`sync`] shim: a plain re-export of
//! `parking_lot`/`std` in normal builds, and — under
//! `RUSTFLAGS="--cfg tcs_model"` — the instrumented primitives of the
//! `tcs-verify` crate, whose CHESS-style scheduler enumerates thread
//! interleavings up to a preemption bound and replays any failing
//! schedule deterministically. The model suite
//! (`tests/model.rs`, compiled only under the cfg) exhaustively explores
//! the [`chan`] send/recv/disconnect protocol, the [`lock`] manager's
//! dispatch/acquire/release cycle, the [`cmstree`] keyed walk racing
//! removal, reclamation and slot reuse, and the [`cmstree`] X-guard
//! insert/expire/report protocol at preemption bound 2 — including a
//! regression model that narrows the X guard and proves the PR-2 race is
//! caught with a replayable minimized schedule. See the `tcs-verify`
//! crate docs for the scheduler's limits and the replay howto.
//!
//! Data-structure *state* is separately auditable:
//! [`cmstree::CmsTree`] implements `tcs_core::store::StoreAudit`, a full
//! invariant sweep (ordered buckets, key-list and index coherence, no
//! dangling references, allocator accounting) valid at
//! quiescent points; the `debug-audit` feature arms it at the end of
//! every [`engine::ConcurrentEngine::run`].

#![forbid(unsafe_code)]

pub mod chan;
pub mod cmstree;
pub mod engine;
pub mod lock;
pub mod sync;

pub use engine::{ConcurrentEngine, ConcurrentResult, LockingMode};
pub use lock::{LockManager, Mode, TxnId};
