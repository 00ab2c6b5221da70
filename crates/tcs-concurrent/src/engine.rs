//! The concurrent streaming engine (§V, Algorithm 3): Algorithm 1's join
//! run under fine-grained item locks.
//!
//! A single **dispatcher** (the main thread) walks the stream in timestamp
//! order. For every window event it creates deletion transactions for the
//! expired edges followed by an insertion transaction for the arrival,
//! appends each transaction's *predicted lock requests* to the item
//! wait-lists ([`crate::lock::LockManager::dispatch`]) and hands the
//! transaction to a pool of `N` workers. Prediction assumes the worst case
//! (every conditional join succeeds); requests for work that evaporates
//! are cancelled so younger transactions are not stranded.
//!
//! The per-query-edge lock sequence reproduces Figure 13 exactly — e.g. an
//! edge matching the last edge of `Q^1` in the running example requests
//! `S(L₁²) X(L₁³) S(L₂²) X(L₀²) S(L₃¹) X(L₀³)`, and `L₀¹` is never
//! requested because it aliases `L₁³` (tested below).
//!
//! # Shared kernel, engine-specific locking
//!
//! An insertion runs the serial engine's join: the steps of the
//! `tcs_core::join` kernel, each under one lock — S around a chain or
//! `L₀` probe, X around an insert. Expansions and reports of fresh
//! matches run under the X guard of the insert that made them: once every
//! lock is released, a younger deletion may partially remove and even
//! reclaim the fresh nodes and drop their edges from `live`. What stays
//! here is the lock choreography (prediction, acquisition in lockstep,
//! cancelling the rest of an abandoned lock group), one kernel arena per
//! worker, and Algorithm 2's deletion transactions. There is no partial
//! cap, no emission floors and no telemetry on this path.
//!
//! [`LockingMode::AllLocks`] implements the paper's comparison baseline:
//! the transaction acquires *all* its locks before doing any work, which
//! serializes nearly everything (the flat ≈1.2× speedup of Figures 19/20).

use crate::cmstree::CmsTree;
use crate::lock::{LockManager, Mode, TxnId};
use crate::sync::{Mutex, RwLock};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcs_core::join::RowArena;
use tcs_core::plan::QueryPlan;
use tcs_core::store::StoreLayout;
use tcs_graph::window::SlidingWindow;
use tcs_graph::{EdgeId, IdMap, IdSet, MatchRecord, StreamEdge};

/// Locking strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockingMode {
    /// The paper's fine-grained scheme: one item lock at a time,
    /// acquired/released around each elementary operation ("Timing-N").
    FineGrained,
    /// Acquire every (deduplicated) lock before starting ("All-locks-N").
    AllLocks,
}

/// Outcome of a concurrent run.
#[derive(Clone, Debug)]
pub struct ConcurrentResult {
    /// All complete matches, ordered by the transaction (= arrival) that
    /// produced them.
    pub matches: Vec<MatchRecord>,
    /// Wall-clock time of the run (dispatch + processing).
    pub elapsed: Duration,
    /// Number of transactions executed (insertions + deletions).
    pub transactions: u64,
}

/// The concurrent engine. Owns the shared state; `run` processes a whole
/// stream.
pub struct ConcurrentEngine {
    shared: Arc<Shared>,
    n_threads: usize,
}

struct Shared {
    plan: QueryPlan,
    tree: CmsTree,
    locks: LockManager,
    live: RwLock<IdMap<EdgeId, StreamEdge>>,
    results: Mutex<Vec<(TxnId, Vec<MatchRecord>)>>,
    mode: LockingMode,
}

#[derive(Clone, Copy)]
enum TxnKind {
    Ins(StreamEdge),
    Del(StreamEdge),
}

struct Txn {
    id: TxnId,
    kind: TxnKind,
    /// The query edges the edge can match, shape-filtered, in the order
    /// the runner walks them.
    qes: Vec<usize>,
    reqs: Vec<(usize, Mode)>,
}

impl ConcurrentEngine {
    /// Creates an engine with `n_threads` workers.
    pub fn new(plan: QueryPlan, n_threads: usize, mode: LockingMode) -> ConcurrentEngine {
        assert!(n_threads >= 1);
        let tree = CmsTree::new(StoreLayout { sub_lens: plan.sub_lens() });
        let locks = LockManager::new(tree.n_items());
        ConcurrentEngine {
            shared: Arc::new(Shared {
                plan,
                tree,
                locks,
                live: RwLock::new(IdMap::default()),
                results: Mutex::new(Vec::new()),
                mode,
            }),
            n_threads,
        }
    }

    /// Number of live complete matches (after `run`).
    pub fn live_match_count(&self) -> usize {
        let k = self.shared.plan.k();
        if k == 1 {
            self.shared.tree.len_sub(0, self.shared.plan.subs[0].len() - 1)
        } else {
            self.shared.tree.len_l0(k - 1)
        }
    }

    /// Bytes held by the tree.
    pub fn space_bytes(&self) -> usize {
        self.shared.tree.space_bytes()
    }

    /// Runs the full [`tcs_core::store::StoreAudit`] sweep over the
    /// shared tree. Only meaningful at quiescent points — between `run`
    /// calls, when no transaction is in flight and every partial removal
    /// has been reclaimed.
    pub fn audit(&self) -> Vec<tcs_core::store::AuditViolation> {
        tcs_core::store::StoreAudit::audit(&self.shared.tree)
    }

    /// Panics with every [`ConcurrentEngine::audit`] violation; same
    /// quiescence requirement.
    pub fn assert_clean(&self) {
        tcs_core::store::StoreAudit::assert_clean(&self.shared.tree);
    }

    /// Processes the whole stream under a window of the given duration.
    pub fn run(&mut self, stream: &[StreamEdge], window: u64) -> ConcurrentResult {
        self.run_budgeted(stream, window, None)
    }

    /// Like [`ConcurrentEngine::run`], but stops dispatching new
    /// transactions once `budget` elapses (in-flight transactions drain).
    /// Benchmarks compare *rates* (`transactions / elapsed`) under equal
    /// budgets; correctness tests use the unbudgeted [`ConcurrentEngine::run`].
    pub fn run_budgeted(
        &mut self,
        stream: &[StreamEdge],
        window: u64,
        budget: Option<Duration>,
    ) -> ConcurrentResult {
        let start = Instant::now();
        let shared = &self.shared;
        let (tx, rx) = crate::chan::bounded::<Txn>(self.n_threads * 4);
        let mut transactions = 0u64;
        std::thread::scope(|scope| {
            for _ in 0..self.n_threads {
                let rx = rx.clone();
                let shared = Arc::clone(shared);
                scope.spawn(move || {
                    let mut arena = RowArena::default();
                    while let Ok(txn) = rx.recv() {
                        run_txn(&shared, txn, &mut arena);
                    }
                });
            }
            drop(rx);
            let mut w = SlidingWindow::new(window);
            let mut next_id: TxnId = 0;
            for (i, &e) in stream.iter().enumerate() {
                if let Some(b) = budget {
                    if i % 16 == 0 && start.elapsed() > b {
                        break;
                    }
                }
                let ev = w.advance(e);
                for expired in &ev.expired {
                    if let Some(txn) = make_txn(shared, next_id, TxnKind::Del(*expired)) {
                        next_id += 1;
                        transactions += 1;
                        shared.locks.dispatch(txn.id, &txn.reqs);
                        tx.send(txn).unwrap_or_else(|_| unreachable!("workers alive"));
                    }
                }
                if let Some(txn) = make_txn(shared, next_id, TxnKind::Ins(ev.arrival)) {
                    next_id += 1;
                    transactions += 1;
                    shared.live.write().insert(ev.arrival.id, ev.arrival);
                    shared.locks.dispatch(txn.id, &txn.reqs);
                    tx.send(txn).unwrap_or_else(|_| unreachable!("workers alive"));
                }
            }
            drop(tx);
        });
        // All workers have joined: the tree is quiescent (every partial
        // removal reclaimed), the one boundary where the full CmsTree
        // audit is valid.
        #[cfg(feature = "debug-audit")]
        tcs_core::store::StoreAudit::assert_clean(&shared.tree);
        let mut results = shared.results.lock();
        results.sort_by_key(|&(id, _)| id);
        let matches = results.drain(..).flat_map(|(_, ms)| ms).collect();
        ConcurrentResult { matches, elapsed: start.elapsed(), transactions }
    }
}

/// The item the `⋈ᵀ` step into `L₀` item `level` reads, for `Δ` completing
/// subquery `i`: `Ω(L₀^{level-1})` for `Δ`'s own step — `L₀`'s first item
/// aliases `Q^1`'s last item (Figure 13) — else subquery `level`'s leaves.
fn probe_item(plan: &QueryPlan, tree: &CmsTree, i: usize, level: usize) -> usize {
    let leaf_item = |m: usize| tree.sub_item(m, plan.subs[m].len() - 1);
    if level != i {
        leaf_item(level)
    } else if level == 1 {
        leaf_item(0)
    } else {
        tree.l0_item(level - 1)
    }
}

/// The lock sequence for one matched query edge (Figure 13's recipe).
fn qe_lock_ops(plan: &QueryPlan, tree: &CmsTree, qe: usize) -> Vec<(usize, Mode)> {
    let (i, j) = plan.pos[qe];
    let mut ops = Vec::new();
    if j > 0 {
        ops.push((tree.sub_item(i, j - 1), Mode::S));
    }
    ops.push((tree.sub_item(i, j), Mode::X));
    if j + 1 == plan.subs[i].len() {
        for level in i.max(1)..plan.k() {
            ops.push((probe_item(plan, tree, i, level), Mode::S));
            ops.push((tree.l0_item(level), Mode::X));
        }
    }
    ops
}

/// The subqueries a deletion of an edge matching `qes` touches, each with
/// the lowest level the edge can sit at (Algorithm 2 cascades down from
/// there), in subquery order.
fn del_starts(plan: &QueryPlan, qes: &[usize]) -> Vec<(usize, usize)> {
    let mut starts: Vec<(usize, usize)> = qes.iter().map(|&qe| plan.pos[qe]).collect();
    starts.sort_unstable();
    starts.dedup_by_key(|&mut (sub, _)| sub);
    starts
}

/// Builds a transaction with its predicted lock requests, or `None` when
/// the edge matches no query edge.
fn make_txn(shared: &Shared, id: TxnId, kind: TxnKind) -> Option<Txn> {
    let (plan, tree) = (&shared.plan, &shared.tree);
    let (TxnKind::Ins(e) | TxnKind::Del(e)) = kind;
    let qes: Vec<usize> = plan
        .candidates(e.signature())
        .iter()
        .copied()
        .filter(|&qe| plan.shape_matches(qe, &e))
        .collect();
    if qes.is_empty() {
        return None;
    }
    let mut reqs: Vec<(usize, Mode)> = match kind {
        TxnKind::Ins(_) => qes.iter().flat_map(|&qe| qe_lock_ops(plan, tree, qe)).collect(),
        TxnKind::Del(_) => del_starts(plan, &qes)
            .into_iter()
            .flat_map(|(sub, min_level)| {
                (min_level..plan.subs[sub].len()).map(move |level| tree.sub_item(sub, level))
            })
            .chain((1..plan.k()).map(|m| tree.l0_item(m)))
            .map(|item| (item, Mode::X))
            .collect(),
    };
    if shared.mode == LockingMode::AllLocks {
        reqs = dedupe_strongest(reqs);
    }
    Some(Txn { id, kind, qes, reqs })
}

fn dedupe_strongest(reqs: Vec<(usize, Mode)>) -> Vec<(usize, Mode)> {
    let mut out: Vec<(usize, Mode)> = Vec::new();
    for (item, mode) in reqs {
        if let Some(existing) = out.iter_mut().find(|(i, _)| *i == item) {
            if mode == Mode::X {
                existing.1 = Mode::X;
            }
        } else {
            out.push((item, mode));
        }
    }
    out
}

/// Walks a transaction's predicted request list: acquire in order, cancel
/// abandoned suffixes. In All-locks mode every lock is pre-acquired and
/// the per-op calls are no-ops.
struct OpCtx<'a> {
    locks: &'a LockManager,
    txn: TxnId,
    reqs: &'a [(usize, Mode)],
    pos: usize,
    fine: bool,
}

/// A held elementary-operation lock (no-op wrapper in All-locks mode).
struct OpGuard<'a> {
    locks: &'a LockManager,
    txn: TxnId,
    item: usize,
    fine: bool,
}

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        if self.fine {
            self.locks.release(self.item, self.txn);
        }
    }
}

impl<'a> OpCtx<'a> {
    fn new(shared: &'a Shared, txn: &'a Txn) -> Self {
        let fine = shared.mode == LockingMode::FineGrained;
        OpCtx { locks: &shared.locks, txn: txn.id, reqs: &txn.reqs, pos: 0, fine }
    }

    /// Acquires the next predicted request; asserts it matches the
    /// runner's expectation (predictor and runner must stay in lockstep).
    /// In All-locks mode the request list is deduplicated and every lock is
    /// pre-held, so the guard is a no-op and the list is not consulted.
    fn acquire(&mut self, expect_item: usize, expect_mode: Mode) -> OpGuard<'a> {
        if !self.fine {
            return OpGuard { locks: self.locks, txn: self.txn, item: expect_item, fine: false };
        }
        let (item, mode) = self.reqs[self.pos];
        debug_assert_eq!((item, mode), (expect_item, expect_mode), "lock plan desync");
        let _ = expect_mode;
        self.pos += 1;
        self.locks.acquire(item, self.txn, mode);
        OpGuard { locks: self.locks, txn: self.txn, item, fine: self.fine }
    }

    /// Cancels the predicted requests up to (excluding) position `end`:
    /// the rest of a lock group whose work evaporated. A no-op in
    /// All-locks mode, where the list is not walked.
    fn cancel_until(&mut self, end: usize) {
        if self.fine {
            for &(item, mode) in &self.reqs[self.pos..end] {
                self.locks.cancel(item, self.txn, mode);
            }
            self.pos = end;
        }
    }
}

fn run_txn(shared: &Shared, txn: Txn, arena: &mut RowArena) {
    // All-locks: take everything up front, in dispatch order (deadlock-free
    // because wait-lists are chronological).
    let mut preheld = Vec::new();
    if shared.mode == LockingMode::AllLocks {
        for &(item, mode) in &txn.reqs {
            shared.locks.acquire(item, txn.id, mode);
            preheld.push(item);
        }
    }
    match txn.kind {
        TxnKind::Ins(e) => run_ins(shared, &txn, e, arena),
        TxnKind::Del(e) => run_del(shared, &txn, e),
    }
    for item in preheld {
        shared.locks.release(item, txn.id);
    }
}

/// An insertion transaction: per matched query edge, the kernel's steps
/// under the lock sequence [`qe_lock_ops`] predicted.
fn run_ins(shared: &Shared, txn: &Txn, sigma: StreamEdge, arena: &mut RowArena) {
    let (plan, tree) = (&shared.plan, &shared.tree);
    let now = sigma.ts.0;
    let mut ctx = OpCtx::new(shared, txn);
    let mut emitted: Vec<MatchRecord> = Vec::new();
    for &qe in &txn.qes {
        let group_end = ctx.pos + qe_lock_ops(plan, tree, qe).len();
        let (i, j) = plan.pos[qe];
        // Chain join: S(L^{j-1}_i) around the probe (level 0 has none).
        let found = {
            let _s = (j > 0).then(|| ctx.acquire(tree.sub_item(i, j - 1), Mode::S));
            arena.chain_parents(plan, tree, &*shared.live.read(), qe, &sigma)
        };
        if !found {
            ctx.cancel_until(group_end);
            continue;
        }
        let leaf = j + 1 == plan.subs[i].len();
        {
            // Expansions and reports of Δ stay under this X guard (module
            // docs), as do the L₀ steps' below.
            let _x = ctx.acquire(tree.sub_item(i, j), Mode::X);
            arena.insert_chain(|parent, key| {
                Some(tree.insert_sub(i, j, parent, sigma.id, now, key))
            });
            if leaf {
                let live = shared.live.read();
                arena.expand_delta(plan, tree, &*live, i);
                if plan.k() == 1 {
                    arena.emit(plan, tree, &*live, &mut emitted);
                }
            }
        }
        if !leaf {
            continue;
        }
        // ⋈ᵀ through L₀ (Algorithm 1 lines 11–24): per item, S on what
        // the probe reads, then X on the item for the inserts and, at the
        // last item, the reports.
        for level in i.max(1)..plan.k() {
            let found = {
                let _s = ctx.acquire(probe_item(plan, tree, i, level), Mode::S);
                arena.probe(plan, tree, &*shared.live.read(), level)
            };
            if !found {
                ctx.cancel_until(group_end);
                break;
            }
            let _x = ctx.acquire(tree.l0_item(level), Mode::X);
            arena.insert_pairs(plan, level, now, |parent, comp, key| {
                Some(tree.insert_l0(level, parent, comp, now, key))
            });
            if level + 1 == plan.k() {
                arena.emit(plan, tree, &*shared.live.read(), &mut emitted);
            }
        }
    }
    if !emitted.is_empty() {
        shared.results.lock().push((txn.id, emitted));
    }
}

fn run_del(shared: &Shared, txn: &Txn, sigma: StreamEdge) {
    let plan = &shared.plan;
    let tree = &shared.tree;
    let mut ctx = OpCtx::new(shared, txn);
    let k = plan.k();
    let match_positions: IdSet<(usize, usize)> = txn.qes.iter().map(|&qe| plan.pos[qe]).collect();

    let mut all_marked: Vec<u32> = Vec::new();
    let mut dead_leaves: Vec<IdSet<u64>> = vec![IdSet::default(); k];
    let mut sub0_dead_leaves: Vec<u32> = Vec::new();

    for (sub, min_level) in del_starts(plan, &txn.qes) {
        let len = plan.subs[sub].len();
        let mut prev: Vec<u32> = Vec::new();
        for level in min_level..len {
            // Early break: nothing left to cascade and no payload position
            // at this level or beyond.
            let payload_here_or_later = (level..len).any(|l| match_positions.contains(&(sub, l)));
            if prev.is_empty() && !payload_here_or_later {
                ctx.cancel_until(ctx.pos + len - level);
                break;
            }
            let item = tree.sub_item(sub, level);
            let g = ctx.acquire(item, Mode::X);
            let mut cands = tree.children_of(&prev);
            if match_positions.contains(&(sub, level)) {
                cands.extend(tree.payload_matches(item, sigma.id.0, sigma.ts.0));
            }
            let removed = tree.partial_remove(item, &cands);
            drop(g);
            if level == len - 1 {
                if sub == 0 {
                    sub0_dead_leaves.extend_from_slice(&removed);
                } else {
                    dead_leaves[sub].extend(removed.iter().map(|&n| n as u64));
                }
            }
            all_marked.extend_from_slice(&removed);
            prev = removed;
        }
    }

    if k > 1 {
        let any_leaf_dead =
            !sub0_dead_leaves.is_empty() || dead_leaves.iter().any(|s| !s.is_empty());
        if !any_leaf_dead {
            ctx.cancel_until(ctx.pos + k - 1);
        } else {
            let mut prev: Vec<u32> = sub0_dead_leaves;
            for m in 1..k {
                let later_dead = (m..k).any(|x| !dead_leaves[x].is_empty());
                if prev.is_empty() && !later_dead {
                    ctx.cancel_until(ctx.pos + k - m);
                    break;
                }
                let item = tree.l0_item(m);
                let g = ctx.acquire(item, Mode::X);
                let mut cands = tree.children_of(&prev);
                // Rows referencing a dead complete match of subquery m are
                // found by referencer-index lookup, not an item scan
                // (duplicates with the cascade are benign: the dead flag
                // makes partial_remove idempotent).
                for &leaf in &dead_leaves[m] {
                    cands.extend(tree.l0_referencers(m, leaf));
                }
                let removed = tree.partial_remove(item, &cands);
                drop(g);
                all_marked.extend_from_slice(&removed);
                prev = removed;
            }
        }
    }

    // "Finally remove": every older transaction has passed (Theorem 6).
    tree.reclaim(&all_marked);
    shared.live.write().remove(&sigma.id);
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;
    use tcs_core::plan::PlanOptions;
    use tcs_core::{MsTreeStore, TimingEngine};
    use tcs_graph::QueryGraph;

    fn serial_matches(q: &QueryGraph, stream: &[StreamEdge], window: u64) -> Vec<MatchRecord> {
        let mut eng: TimingEngine<MsTreeStore> =
            TimingEngine::new(QueryPlan::build(q.clone(), PlanOptions::timing()));
        let mut w = SlidingWindow::new(window);
        let mut out = Vec::new();
        for &e in stream {
            out.extend(eng.advance(&w.advance(e)));
        }
        out.sort();
        out
    }

    #[test]
    fn figure13_lock_sequence_for_sigma14() {
        // σ14 matches ε4 — the last edge of Q^1 = {ε6, ε5, ε4}. Expected:
        // S(L₁²) X(L₁³) S(L₂²) X(L₀²) S(L₃¹) X(L₀³); never L₀¹.
        let q = QueryGraph::running_example();
        let plan = QueryPlan::build(q, PlanOptions::timing());
        let tree = CmsTree::new(StoreLayout { sub_lens: plan.sub_lens() });
        // Identify which of our subs is the 3-edge Q¹ (it is join-position
        // dependent); find ε4 = edge index 3.
        let (i, j) = plan.pos[3];
        assert_eq!(j, plan.subs[i].len() - 1, "ε4 is the last of its seq");
        let ops = qe_lock_ops(&plan, &tree, 3);
        let modes: Vec<Mode> = ops.iter().map(|&(_, m)| m).collect();
        assert!(modes.chunks(2).all(|c| c == [Mode::S, Mode::X]));
        // When Q¹ completes (i == 0) there is no separate L₀¹ request.
        if i == 0 {
            assert_eq!(ops.len(), 2 + 2 * (plan.k() - 1));
            let x_targets: Vec<usize> =
                ops.iter().filter(|&&(_, m)| m == Mode::X).map(|&(it, _)| it).collect();
            // X targets: the subquery's own leaf + L₀ items 1..k, never an
            // "L₀ item 0".
            assert_eq!(x_targets[0], tree.sub_item(i, j));
            for (idx, &t) in x_targets[1..].iter().enumerate() {
                assert_eq!(t, tree.l0_item(idx + 1));
            }
        }
    }

    #[test]
    fn single_edge_query_lock_plan() {
        // σ matching the only edge of a singleton subquery in a k=3 plan
        // mirrors Ins(σ13): X(own item), S(L₀ prev), X(L₀ own), …
        let q = QueryGraph::running_example();
        let plan = QueryPlan::build(q, PlanOptions::timing());
        let tree = CmsTree::new(StoreLayout { sub_lens: plan.sub_lens() });
        // ε2 = edge index 1 is the singleton Q³ in the paper's
        // decomposition.
        let (i, j) = plan.pos[1];
        assert_eq!(plan.subs[i].len(), 1);
        assert_eq!(j, 0);
        let ops = qe_lock_ops(&plan, &tree, 1);
        assert_eq!(ops[0], (tree.sub_item(i, 0), Mode::X));
        if i > 0 {
            let expect_read =
                if i == 1 { tree.sub_item(0, plan.subs[0].len() - 1) } else { tree.l0_item(i - 1) };
            assert_eq!(ops[1], (expect_read, Mode::S));
            assert_eq!(ops[2], (tree.l0_item(i), Mode::X));
        }
    }

    #[test]
    fn concurrent_equals_serial_running_example() {
        let q = QueryGraph::running_example();
        let edges = vec![
            StreamEdge::new(1, 7, 4, 8, 5, 0, 1),
            StreamEdge::new(2, 4, 2, 9, 4, 0, 2),
            StreamEdge::new(3, 4, 2, 7, 4, 0, 3),
            StreamEdge::new(4, 5, 3, 4, 2, 0, 4),
            StreamEdge::new(5, 3, 1, 4, 2, 0, 5),
            StreamEdge::new(6, 2, 0, 3, 1, 0, 6),
            StreamEdge::new(7, 5, 3, 3, 1, 0, 7),
            StreamEdge::new(8, 1, 0, 3, 1, 0, 8),
            StreamEdge::new(9, 6, 3, 4, 2, 0, 9),
            StreamEdge::new(10, 5, 3, 7, 4, 0, 10),
        ];
        let expected = serial_matches(&q, &edges, 9);
        for threads in [1, 2, 4] {
            for mode in [LockingMode::FineGrained, LockingMode::AllLocks] {
                let plan = QueryPlan::build(q.clone(), PlanOptions::timing());
                let mut eng = ConcurrentEngine::new(plan, threads, mode);
                let mut got = eng.run(&edges, 9).matches;
                got.sort();
                assert_eq!(got, expected, "threads={threads} mode={mode:?}");
            }
        }
    }

    #[test]
    fn concurrent_equals_serial_on_random_streams() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use tcs_graph::query::QueryEdge;
        use tcs_graph::{ELabel, VLabel};
        // 3-edge path, partial timing order → k = 2 decomposition.
        let path3 = QueryGraph::new(
            vec![VLabel(0), VLabel(1), VLabel(2), VLabel(0)],
            vec![
                QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
                QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
                QueryEdge { src: 2, dst: 3, label: ELabel::NONE },
            ],
            &[(0, 1)],
        )
        .unwrap();
        // The cross-constraint query (ε2 ≺ ε1 across subqueries): its L₀
        // probes carry a nonzero timestamp floor, so the concurrent
        // engine's ordered range reads are exercised for real.
        let crossed = QueryGraph::new(
            vec![VLabel(0), VLabel(1), VLabel(2), VLabel(3), VLabel(4)],
            vec![
                QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
                QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
                QueryEdge { src: 3, dst: 0, label: ELabel::NONE },
                QueryEdge { src: 3, dst: 4, label: ELabel::NONE },
            ],
            &[(0, 1), (2, 3), (2, 1)],
        )
        .unwrap();
        for (q, n_labels) in [(path3, 3u32), (crossed, 5)] {
            for seed in 0..3u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let edges: Vec<StreamEdge> = (0..400)
                    .map(|i| {
                        let src = rng.gen_range(0..8u32);
                        let mut dst = rng.gen_range(0..8u32);
                        while dst == src {
                            dst = rng.gen_range(0..8u32);
                        }
                        StreamEdge::new(
                            i,
                            src,
                            (src % n_labels) as u16,
                            dst,
                            (dst % n_labels) as u16,
                            0,
                            i + 1,
                        )
                    })
                    .collect();
                let expected = serial_matches(&q, &edges, 60);
                for threads in [1, 3] {
                    for mode in [LockingMode::FineGrained, LockingMode::AllLocks] {
                        let plan = QueryPlan::build(q.clone(), PlanOptions::timing());
                        let mut eng = ConcurrentEngine::new(plan, threads, mode);
                        let mut got = eng.run(&edges, 60).matches;
                        got.sort();
                        assert_eq!(got, expected, "seed={seed} threads={threads} mode={mode:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn final_state_matches_serial_live_count() {
        let q = QueryGraph::running_example();
        let edges = vec![
            StreamEdge::new(1, 7, 4, 8, 5, 0, 1),
            StreamEdge::new(2, 4, 2, 7, 4, 0, 2),
            StreamEdge::new(3, 5, 3, 4, 2, 0, 3),
            StreamEdge::new(4, 3, 1, 4, 2, 0, 4),
            StreamEdge::new(5, 5, 3, 3, 1, 0, 5),
            StreamEdge::new(6, 1, 0, 3, 1, 0, 6),
        ];
        let mut serial: TimingEngine<MsTreeStore> =
            TimingEngine::new(QueryPlan::build(q.clone(), PlanOptions::timing()));
        let mut w = SlidingWindow::new(100);
        for &e in &edges {
            serial.advance(&w.advance(e));
        }
        let plan = QueryPlan::build(q, PlanOptions::timing());
        let mut conc = ConcurrentEngine::new(plan, 4, LockingMode::FineGrained);
        conc.run(&edges, 100);
        assert_eq!(conc.live_match_count(), serial.live_match_count());
    }
}
