//! Thread-safe MS-tree with partial removal (§V-C).
//!
//! Layout mirrors the serial [`tcs_core::mstree::MsTreeStore`]: one node
//! arena shared by all expansion lists, per-item (level) doubly linked
//! lists, parent links for backtracking, and the `L₀` tree grafted onto
//! subquery 0's leaves with pointer payloads.
//!
//! # Synchronization contract
//!
//! The tree itself takes *no* locks beyond a tiny per-item list-head mutex
//! and the allocator mutex; callers must hold the corresponding expansion
//! -list item lock from [`crate::lock::LockManager`]:
//!
//! * `insert_*` and the deletion primitives require the item's X lock;
//! * `for_each_*` require at least the S lock;
//! * backtracking (`expand_sub`, the read callbacks) intentionally reads
//!   *ancestor* nodes without their items' locks — safe because deletion
//!   only **partially removes** nodes while transactions older than the
//!   deleter can still reach them: a partially removed node is unlinked
//!   from its level list and its parent's child list, but keeps its own
//!   parent/payload fields (Figure 14), and is reclaimed only after the
//!   deleting transaction has finished its whole level pass — at which
//!   point every older transaction has finished with the node because its
//!   lock requests preceded the deleter's on every shared item (the proof
//!   of Theorem 6).
//!
//! All node fields are atomics, so even a protocol bug cannot cause UB —
//! only (detectable) logical corruption.
//!
//! # Ordering and expiry cost
//!
//! Item lists and key buckets obey the timestamp-ordered invariant of
//! `tcs_core::store`'s module docs: nodes carry their match's newest-edge
//! timestamp, appends are checked nondecreasing (X locks are granted in
//! dispatch = timestamp order, so insertions arrive sorted even under
//! concurrency). The concurrent engine relies on it for the
//! binary-searched range probes of the join kernel ([`JoinReads`]'s
//! `for_each_sub_keyed_before` / `..._from` / `for_each_l0_keyed_from`)
//! and for the oldest-first early exit of [`CmsTree::payload_matches`]
//! during deletion transactions.
//!
//! Key buckets are [`DrainBucket`](tcs_core::store::DrainBucket)s:
//! [`CmsTree::partial_remove`] punches a timestamp-keeping tombstone per
//! removed node and, before returning, front-drains the leading
//! tombstones off every touched bucket — payload-level deaths are the
//! bucket's oldest prefix, so steady-state expiry costs O(deaths) — while
//! interior holes from cascaded descendants are compacted only past the
//! tombstone threshold (see the lifecycle section of `tcs_core::store`'s
//! docs). Because a tombstone keeps its own copy of the timestamp, range
//! reads never dereference dead nodes, so reclaimed arena slots can be
//! reused without aliasing.
//!
//! The tree owns only its guarded atomic nodes and list mutexes. Each
//! list's key index and referencer lists are `tcs_core::store`'s shared
//! [`KeyIndex`] and [`RefLists`], and the audit is its [`audit_tree`], the
//! same code the serial MS-tree runs.

use crate::sync::{AtomicBool, AtomicU32, AtomicU64, Mutex, Ordering};
use std::sync::OnceLock;
use tcs_core::join::JoinReads;
use tcs_core::store::{
    audit_tree, AuditViolation, ItemView, JoinKey, KeyIndex, NodeView, RefLists, StoreAudit,
    StoreLayout, NIL,
};
use tcs_graph::EdgeId;

/// Nodes per arena chunk.
const CHUNK: usize = 1 << 12;
/// Maximum chunks (caps the arena at ~16M nodes — far beyond any window).
const MAX_CHUNKS: usize = 1 << 12;

/// Relaxed is sufficient for fields only mutated under the owning item
/// lock; the lock's release/acquire edges order them. We use Acquire /
/// Release anyway: the cost is negligible and it keeps the tree correct
/// even for the deliberately lock-free backtracking reads.
const LOAD: Ordering = Ordering::Acquire;
const STORE: Ordering = Ordering::Release;

#[derive(Debug)]
struct Node {
    payload: AtomicU64,
    /// Timestamp of the match's newest edge — nondecreasing along every
    /// item list and key bucket (the ordered-bucket invariant; written at
    /// insert under the owning item's list mutex).
    ts: AtomicU64,
    parent: AtomicU32,
    first_child: AtomicU32,
    next_sib: AtomicU32,
    prev_sib: AtomicU32,
    next: AtomicU32,
    prev: AtomicU32,
    /// Join key the node is filed under; written at insert and read at
    /// removal, both under the owning item's list mutex.
    key: AtomicU64,
    /// Position in the item's key bucket (mutated under the list mutex;
    /// removals punch a hole there, compacted once per level pass).
    key_pos: AtomicU32,
    /// For `L₀` nodes: position inside the referencer list
    /// `refs[payload]` of the owning item (O(1) deregistration; mutated
    /// under the list mutex). Unused for subquery nodes.
    ref_pos: AtomicU32,
    dead: AtomicBool,
}

impl Default for Node {
    fn default() -> Self {
        Node {
            payload: AtomicU64::new(0),
            ts: AtomicU64::new(0),
            parent: AtomicU32::new(NIL),
            first_child: AtomicU32::new(NIL),
            next_sib: AtomicU32::new(NIL),
            prev_sib: AtomicU32::new(NIL),
            next: AtomicU32::new(NIL),
            prev: AtomicU32::new(NIL),
            key: AtomicU64::new(0),
            key_pos: AtomicU32::new(0),
            ref_pos: AtomicU32::new(0),
            dead: AtomicBool::new(false),
        }
    }
}

#[derive(Debug)]
struct ListHead {
    head: u32,
    tail: u32,
    len: usize,
    /// Join-key index of this item: key → tombstoned ordered bucket
    /// (guarded by the same mutex as the list links, which the item lock
    /// already serializes).
    index: KeyIndex,
    /// Referencer index, populated only for `L₀` items: complete-match
    /// leaf handle (the node payload) → `L₀` nodes referencing it.
    /// Algorithm 2's right-to-left `L₀` pass looks dead leaves up here
    /// instead of scanning the whole item. Maintained under the same
    /// mutex via each node's `ref_pos`.
    refs: RefLists<u64>,
}

impl Default for ListHead {
    fn default() -> Self {
        let (index, refs) = Default::default();
        ListHead { head: NIL, tail: NIL, len: 0, index, refs }
    }
}

/// The concurrent match-store tree.
pub struct CmsTree {
    layout: StoreLayout,
    sub_offsets: Vec<usize>,
    l0_base: usize,
    chunks: Vec<OnceLock<Box<[Node]>>>,
    next_free: AtomicU32,
    free: Mutex<Vec<u32>>,
    lists: Vec<Mutex<ListHead>>,
}

impl CmsTree {
    /// Creates an empty tree for the layout.
    pub fn new(layout: StoreLayout) -> CmsTree {
        let mut sub_offsets = Vec::with_capacity(layout.k());
        let mut acc = 0;
        for &len in &layout.sub_lens {
            sub_offsets.push(acc);
            acc += len;
        }
        let l0_base = acc;
        let n_items = acc + layout.k().saturating_sub(1);
        CmsTree {
            layout,
            sub_offsets,
            l0_base,
            chunks: (0..MAX_CHUNKS).map(|_| OnceLock::new()).collect(),
            next_free: AtomicU32::new(0),
            free: Mutex::new(Vec::new()),
            lists: (0..n_items).map(|_| Mutex::new(ListHead::default())).collect(),
        }
    }

    /// Total number of lockable items (for sizing the [`crate::LockManager`]).
    pub fn n_items(&self) -> usize {
        self.lists.len()
    }

    /// Item id of subquery `sub`'s level `level`.
    #[inline]
    pub fn sub_item(&self, sub: usize, level: usize) -> usize {
        debug_assert!(level < self.layout.sub_lens[sub]);
        self.sub_offsets[sub] + level
    }

    /// Item id of `L₀`'s item `i` (`1 ≤ i < k`).
    #[inline]
    pub fn l0_item(&self, i: usize) -> usize {
        debug_assert!(i >= 1 && i < self.layout.k());
        self.l0_base + (i - 1)
    }

    /// The store layout.
    pub fn layout(&self) -> &StoreLayout {
        &self.layout
    }

    #[inline]
    fn node(&self, idx: u32) -> &Node {
        let chunk = idx as usize / CHUNK;
        let off = idx as usize % CHUNK;
        &self.chunks[chunk].get().unwrap_or_else(|| unreachable!("allocated chunk"))[off]
    }

    fn alloc(&self, payload: u64, parent: u32, ts: u64) -> u32 {
        let idx = self.free.lock().pop().unwrap_or_else(|| {
            let idx = self.next_free.fetch_add(1, Ordering::AcqRel);
            let chunk = idx as usize / CHUNK;
            assert!(chunk < MAX_CHUNKS, "CmsTree arena exhausted");
            self.chunks[chunk].get_or_init(|| {
                (0..CHUNK).map(|_| Node::default()).collect::<Vec<_>>().into_boxed_slice()
            });
            idx
        });
        let n = self.node(idx);
        n.payload.store(payload, STORE);
        n.ts.store(ts, STORE);
        n.parent.store(parent, STORE);
        n.first_child.store(NIL, STORE);
        n.next_sib.store(NIL, STORE);
        n.prev_sib.store(NIL, STORE);
        n.next.store(NIL, STORE);
        n.prev.store(NIL, STORE);
        n.dead.store(false, STORE);
        idx
    }

    /// Inserts a node under `parent` into `item`'s level list and key
    /// index, checking the timestamp-ordered invariant against the item
    /// tail and bucket tail. Caller must hold X(`item`); X requests are
    /// granted in dispatch (= timestamp) order, so appends arrive
    /// nondecreasing.
    fn insert_node(&self, payload: u64, parent: u64, item: usize, ts: u64, key: JoinKey) -> u64 {
        let parent_idx = if parent == u64::MAX { NIL } else { parent as u32 };
        let idx = self.alloc(payload, parent_idx, ts);
        if parent_idx != NIL {
            // Push-front into the parent's child list. Only transactions
            // holding X(item) touch this parent's child links (children
            // live in `item`), so this is race-free.
            let old = self.node(parent_idx).first_child.swap(idx, Ordering::AcqRel);
            self.node(idx).next_sib.store(old, STORE);
            if old != NIL {
                self.node(old).prev_sib.store(idx, STORE);
            }
        }
        let mut list = self.lists[item].lock();
        debug_assert!(
            list.tail == NIL || self.node(list.tail).ts.load(LOAD) <= ts,
            "item {item} insert violates the timestamp-ordered invariant"
        );
        if list.tail == NIL {
            list.head = idx;
            list.tail = idx;
        } else {
            self.node(list.tail).next.store(idx, STORE);
            self.node(idx).prev.store(list.tail, STORE);
            list.tail = idx;
        }
        list.len += 1;
        self.node(idx).key.store(key, STORE);
        self.node(idx).key_pos.store(list.index.file(key, idx, ts), STORE);
        // Register L₀ nodes with the referencer index so a death of the
        // component they reference finds them by lookup, not by scan.
        if item >= self.l0_base {
            self.node(idx).ref_pos.store(list.refs.add(payload, idx), STORE);
        }
        idx as u64
    }

    /// Inserts a subquery match filed under `key` with the newest edge's
    /// timestamp `ts`. Caller holds X(sub_item(sub, level)).
    pub fn insert_sub(
        &self,
        sub: usize,
        level: usize,
        parent: u64,
        edge: EdgeId,
        ts: u64,
        key: JoinKey,
    ) -> u64 {
        self.insert_node(edge.0, parent, self.sub_item(sub, level), ts, key)
    }

    /// Inserts an `L₀` row filed under `key` with the completing
    /// arrival's timestamp `ts`. Caller holds X(l0_item(i)).
    pub fn insert_l0(&self, i: usize, parent: u64, comp: u64, ts: u64, key: JoinKey) -> u64 {
        self.insert_node(comp, parent, self.l0_item(i), ts, key)
    }

    /// Iterates subquery matches. Caller holds ≥ S(sub_item(sub, level)).
    pub fn for_each_sub(&self, sub: usize, level: usize, f: &mut dyn FnMut(u64, &[EdgeId])) {
        self.emit_sub_nodes(&self.list_nodes(self.sub_item(sub, level)), level, f);
    }

    /// The nodes of `item`'s level list, oldest first. Caller holds
    /// ≥ S(item).
    fn list_nodes(&self, item: usize) -> Vec<u32> {
        let mut out = Vec::new();
        let mut n = self.lists[item].lock().head;
        while n != NIL {
            out.push(n);
            n = self.node(n).next.load(LOAD);
        }
        out
    }

    /// The live bucket prefix of nodes with `ts < cutoff_ts`, snapshotted
    /// under the list mutex (with the item's S lock held, membership cannot
    /// change concurrently): the binary search runs over the entries' own
    /// timestamp copies (valid even across tombstones and arena reuse) so
    /// only the surviving range is copied out — the probe stays
    /// output-sensitive. Tombstones are skipped during the copy.
    fn bucket_before(&self, item: usize, key: JoinKey, cutoff_ts: u64) -> Vec<u32> {
        let list = self.lists[item].lock();
        list.index.get(key).map_or_else(Vec::new, |b| b.live_before(cutoff_ts).collect())
    }

    /// The live bucket suffix of nodes with `ts ≥ min_ts` (same
    /// copy-only-the-range discipline as [`CmsTree::bucket_before`];
    /// `min_ts == 0` is the whole bucket).
    fn bucket_from(&self, item: usize, key: JoinKey, min_ts: u64) -> Vec<u32> {
        let list = self.lists[item].lock();
        list.index.get(key).map_or_else(Vec::new, |b| b.live_from(min_ts).collect())
    }

    /// Iterates only the subquery matches filed under `key`. Caller holds
    /// ≥ S(sub_item(sub, level)).
    pub fn for_each_sub_keyed(
        &self,
        sub: usize,
        level: usize,
        key: JoinKey,
        f: &mut dyn FnMut(u64, &[EdgeId]),
    ) {
        let item = self.sub_item(sub, level);
        self.emit_sub_nodes(&self.bucket_from(item, key, 0), level, f);
    }

    /// Materializes and emits the root-to-node paths of subquery nodes.
    fn emit_sub_nodes(&self, nodes: &[u32], level: usize, f: &mut dyn FnMut(u64, &[EdgeId])) {
        let mut buf = vec![EdgeId(0); level + 1];
        for &n in nodes {
            let mut cur = n;
            for d in (0..=level).rev() {
                buf[d] = EdgeId(self.node(cur).payload.load(LOAD));
                cur = self.node(cur).parent.load(LOAD);
            }
            f(n as u64, &buf);
        }
    }

    /// Iterates `L₀` rows as component handles. Caller holds ≥ S(l0_item(i)).
    pub fn for_each_l0(&self, i: usize, f: &mut dyn FnMut(u64, &[u64])) {
        self.emit_l0_nodes(&self.list_nodes(self.l0_item(i)), i, f);
    }

    /// Iterates only the `L₀` rows filed under `key`. Caller holds
    /// ≥ S(l0_item(i)).
    pub fn for_each_l0_keyed(&self, i: usize, key: JoinKey, f: &mut dyn FnMut(u64, &[u64])) {
        let item = self.l0_item(i);
        self.emit_l0_nodes(&self.bucket_from(item, key, 0), i, f);
    }

    /// The `L₀` nodes of item `i` referencing complete-match leaf `comp`
    /// — the referencer-index lookup behind Algorithm 2's right-to-left
    /// `L₀` pass, replacing a full item scan per dead leaf. Caller holds
    /// X(l0_item(i)).
    pub fn l0_referencers(&self, i: usize, comp: u64) -> Vec<u32> {
        self.lists[self.l0_item(i)].lock().refs.get(comp).to_vec()
    }

    /// Materializes and emits `L₀` rows as component handles.
    fn emit_l0_nodes(&self, nodes: &[u32], i: usize, f: &mut dyn FnMut(u64, &[u64])) {
        let mut comps = vec![0u64; i + 1];
        for &n in nodes {
            let mut cur = n;
            for d in (1..=i).rev() {
                comps[d] = self.node(cur).payload.load(LOAD);
                cur = self.node(cur).parent.load(LOAD);
            }
            comps[0] = cur as u64;
            f(n as u64, &comps);
        }
    }

    /// Expands a subquery match handle into its edges (timing order).
    /// Safe without the item lock for handles obtained under a lock that
    /// the current transaction has not yet fully "passed" (see module
    /// docs).
    pub fn expand_sub(&self, handle: u64, out: &mut Vec<EdgeId>) {
        let start = out.len();
        let mut cur = handle as u32;
        while cur != NIL {
            out.push(EdgeId(self.node(cur).payload.load(LOAD)));
            cur = self.node(cur).parent.load(LOAD);
        }
        out[start..].reverse();
    }

    /// Nodes in `item` whose payload equals `value`, where `value` is an
    /// edge id with arrival timestamp `ts`. The item list is
    /// timestamp-ordered and a node whose newest edge is `value` carries
    /// exactly `ts`, so the walk goes oldest-first and stops at the first
    /// newer entry instead of filtering the whole item. Caller holds
    /// X(item).
    pub fn payload_matches(&self, item: usize, value: u64, ts: u64) -> Vec<u32> {
        let mut out = Vec::new();
        let mut n = self.lists[item].lock().head;
        while n != NIL {
            if self.node(n).ts.load(LOAD) > ts {
                break;
            }
            if self.node(n).payload.load(LOAD) == value {
                debug_assert_eq!(self.node(n).ts.load(LOAD), ts, "one edge, one timestamp");
                out.push(n);
            }
            n = self.node(n).next.load(LOAD);
        }
        out
    }

    /// Children of the given nodes (they all live one level deeper —
    /// including `L₀` level 1 for subquery-0 leaves via the graft).
    /// Caller holds X on the children's item.
    pub fn children_of(&self, nodes: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        for &p in nodes {
            let mut c = self.node(p).first_child.load(LOAD);
            while c != NIL {
                out.push(c);
                c = self.node(c).next_sib.load(LOAD);
            }
        }
        out
    }

    /// Partially removes nodes (§V-C): unlink from the level list and from
    /// the parent's child list; keep payload/parent so older transactions
    /// can still backtrack. Bucket removals punch timestamp-keeping
    /// tombstones (a swap-remove would break the timestamp order); before
    /// returning, every touched bucket front-drains its leading tombstones
    /// and compacts past the tombstone threshold ([`KeyIndex::finish`]),
    /// so the steady-state oldest-prefix case costs O(deaths). Returns the
    /// nodes whose dead flag *this* call flipped (concurrent deleters race
    /// benignly on shared descendants).
    /// Caller holds X(`item`).
    pub fn partial_remove(&self, item: usize, nodes: &[u32]) -> Vec<u32> {
        let mut removed = Vec::with_capacity(nodes.len());
        let mut touched_keys: Vec<JoinKey> = Vec::new();
        for &idx in nodes {
            if self.node(idx).dead.swap(true, Ordering::AcqRel) {
                continue;
            }
            removed.push(idx);
            // Level list.
            let mut list = self.lists[item].lock();
            let prev = self.node(idx).prev.load(LOAD);
            let next = self.node(idx).next.load(LOAD);
            if prev != NIL {
                self.node(prev).next.store(next, STORE);
            } else {
                list.head = next;
            }
            if next != NIL {
                self.node(next).prev.store(prev, STORE);
            } else {
                list.tail = prev;
            }
            list.len -= 1;
            // Key index (same mutex guards the buckets): punch a
            // tombstone at the node's recorded position.
            let key = self.node(idx).key.load(LOAD);
            list.index.punch(key, self.node(idx).key_pos.load(LOAD), idx);
            touched_keys.push(key);
            // Deregister L₀ nodes from the referencer index, fixing the
            // moved node's back-reference.
            if item >= self.l0_base {
                let rp = self.node(idx).ref_pos.load(LOAD);
                if let Some(moved) = list.refs.remove(self.node(idx).payload.load(LOAD), rp, idx) {
                    self.node(moved).ref_pos.store(rp, STORE);
                }
            }
            drop(list);
            // Parent's child list (the links live at this item's level).
            let parent = self.node(idx).parent.load(LOAD);
            if parent != NIL {
                let prev_sib = self.node(idx).prev_sib.load(LOAD);
                let next_sib = self.node(idx).next_sib.load(LOAD);
                if prev_sib != NIL {
                    self.node(prev_sib).next_sib.store(next_sib, STORE);
                } else if self.node(parent).first_child.load(LOAD) == idx {
                    self.node(parent).first_child.store(next_sib, STORE);
                }
                if next_sib != NIL {
                    self.node(next_sib).prev_sib.store(prev_sib, STORE);
                }
            }
        }
        // End-of-cascade bucket maintenance: front-drain, threshold
        // compaction (re-recording survivor positions — order, and thus
        // timestamp sortedness, is preserved), empty-bucket removal. No
        // reader can observe intermediate states: we hold X(item).
        if !touched_keys.is_empty() {
            let mut list = self.lists[item].lock();
            list.index
                .finish(&mut touched_keys, |slot, pos| self.node(slot).key_pos.store(pos, STORE));
        }
        removed
    }

    /// Returns partially removed nodes to the free list. Only call after
    /// the removing transaction has finished its complete level pass
    /// (Theorem 6's "finally remove").
    pub fn reclaim(&self, nodes: &[u32]) {
        if nodes.is_empty() {
            return;
        }
        self.free.lock().extend_from_slice(nodes);
    }

    /// Number of live matches in a subquery item.
    pub fn len_sub(&self, sub: usize, level: usize) -> usize {
        self.lists[self.sub_item(sub, level)].lock().len
    }

    /// Number of live rows in an `L₀` item.
    pub fn len_l0(&self, i: usize) -> usize {
        self.lists[self.l0_item(i)].lock().len
    }

    /// Approximate bytes held: live nodes, list heads and the key
    /// buckets' heap (the serial [`tcs_core::mstree::MsTreeStore`]'s
    /// terms).
    pub fn space_bytes(&self) -> usize {
        let allocated = self.next_free.load(LOAD) as usize;
        let free = self.free.lock().len();
        let index_bytes: usize = self.lists.iter().map(|l| l.lock().index.heap_bytes()).sum();
        (allocated - free) * std::mem::size_of::<Node>()
            + self.lists.len() * std::mem::size_of::<Mutex<ListHead>>()
            + index_bytes
    }
}

/// The join kernel's reads. Callers hold at least the S lock of the item
/// read; [`JoinReads::expand_sub`] backtracks without locks (module docs).
impl JoinReads for CmsTree {
    /// Iterates only the subquery matches filed under `key` whose newest
    /// edge is strictly older than `cutoff_ts` — the binary-searched
    /// prefix of the ordered bucket (the chain join's `last.ts < σ.ts`).
    fn for_each_sub_keyed_before(
        &self,
        sub: usize,
        level: usize,
        key: JoinKey,
        cutoff_ts: u64,
        f: &mut dyn FnMut(u64, &[EdgeId]),
    ) {
        let item = self.sub_item(sub, level);
        self.emit_sub_nodes(&self.bucket_before(item, key, cutoff_ts), level, f);
    }

    /// Iterates only the subquery matches filed under `key` with
    /// timestamp `≥ min_ts` — the binary-searched suffix of the ordered
    /// bucket.
    fn for_each_sub_keyed_from(
        &self,
        sub: usize,
        level: usize,
        key: JoinKey,
        min_ts: u64,
        f: &mut dyn FnMut(u64, &[EdgeId]),
    ) {
        let item = self.sub_item(sub, level);
        self.emit_sub_nodes(&self.bucket_from(item, key, min_ts), level, f);
    }

    /// Iterates only the `L₀` rows filed under `key` with completion
    /// timestamp `≥ min_ts` — the binary-searched suffix of the ordered
    /// bucket (rows below a cross-subquery constraint floor are skipped
    /// before expansion).
    fn for_each_l0_keyed_from(
        &self,
        i: usize,
        key: JoinKey,
        min_ts: u64,
        f: &mut dyn FnMut(u64, &[u64]),
    ) {
        let item = self.l0_item(i);
        self.emit_l0_nodes(&self.bucket_from(item, key, min_ts), i, f);
    }

    fn expand_sub(&self, _sub: usize, handle: u64, out: &mut Vec<EdgeId>) {
        CmsTree::expand_sub(self, handle, out);
    }
}

impl StoreAudit for CmsTree {
    /// Full invariant sweep ([`audit_tree`]), locking each list in turn.
    /// Only meaningful at quiescent points — no in-flight transactions: a
    /// mid-transaction audit would see partially removed nodes awaiting
    /// their level pass and unreclaimed arena slots.
    fn audit(&self) -> Vec<AuditViolation> {
        let node = |n: u32| {
            let v = self.node(n);
            NodeView {
                payload: v.payload.load(LOAD),
                ts: v.ts.load(LOAD),
                parent: v.parent.load(LOAD),
                prev: v.prev.load(LOAD),
                next: v.next.load(LOAD),
                dead: v.dead.load(LOAD),
                item: None,
                key: v.key.load(LOAD),
                key_pos: v.key_pos.load(LOAD),
                ref_pos: v.ref_pos.load(LOAD),
            }
        };
        let item = |i: usize, f: &mut dyn FnMut(ItemView<'_>)| {
            let list = self.lists[i].lock();
            let (head, tail, len) = (list.head, list.tail, list.len);
            f(ItemView { head, tail, len, index: &list.index, refs: Some(&list.refs) })
        };
        let free = self.free.lock();
        audit_tree("cms-tree", &self.layout, node, item, &free, self.next_free.load(LOAD) as usize)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;
    use tcs_core::store::BucketEntry;

    fn layout() -> StoreLayout {
        StoreLayout { sub_lens: vec![3, 2] }
    }

    #[test]
    fn serial_roundtrip() {
        let t = CmsTree::new(layout());
        let a = t.insert_sub(0, 0, u64::MAX, EdgeId(1), 1, 0);
        let b = t.insert_sub(0, 1, a, EdgeId(2), 2, 0);
        let c = t.insert_sub(0, 2, b, EdgeId(3), 3, 0);
        assert_eq!(t.len_sub(0, 2), 1);
        let mut got = Vec::new();
        t.for_each_sub(0, 2, &mut |h, edges| {
            assert_eq!(h, c);
            got = edges.to_vec();
        });
        assert_eq!(got, vec![EdgeId(1), EdgeId(2), EdgeId(3)]);
        let mut out = Vec::new();
        t.expand_sub(c, &mut out);
        assert_eq!(out, vec![EdgeId(1), EdgeId(2), EdgeId(3)]);
    }

    #[test]
    fn l0_graft_components() {
        let t = CmsTree::new(layout());
        let a = t.insert_sub(0, 0, u64::MAX, EdgeId(1), 1, 0);
        let b = t.insert_sub(0, 1, a, EdgeId(2), 2, 0);
        let c0 = t.insert_sub(0, 2, b, EdgeId(3), 3, 0);
        let x = t.insert_sub(1, 0, u64::MAX, EdgeId(10), 10, 0);
        let c1 = t.insert_sub(1, 1, x, EdgeId(11), 11, 0);
        t.insert_l0(1, c0, c1, 11, 0);
        let mut rows = Vec::new();
        t.for_each_l0(1, &mut |_, comps| rows.push(comps.to_vec()));
        assert_eq!(rows, vec![vec![c0, c1]]);
    }

    #[test]
    fn partial_remove_keeps_backtracking_alive() {
        let t = CmsTree::new(layout());
        let a = t.insert_sub(0, 0, u64::MAX, EdgeId(1), 1, 0);
        let b = t.insert_sub(0, 1, a, EdgeId(2), 2, 0);
        // Partially remove the level-0 node: it leaves the level list but
        // the child keeps its parent pointer and stays expandable — the
        // property Theorem 6 relies on.
        let removed = t.partial_remove(t.sub_item(0, 0), &[a as u32]);
        assert_eq!(removed, vec![a as u32]);
        assert_eq!(t.len_sub(0, 0), 0);
        let mut out = Vec::new();
        t.expand_sub(b, &mut out);
        assert_eq!(out, vec![EdgeId(1), EdgeId(2)], "backtracking through the dead node");
        // Children of the dead node remain discoverable for the next pass.
        let kids = t.children_of(&removed);
        assert_eq!(kids, vec![b as u32]);
        // Second remove of the same node is a no-op (dead flag).
        assert!(t.partial_remove(t.sub_item(0, 0), &[a as u32]).is_empty());
    }

    #[test]
    fn full_delete_pass_and_reclaim() {
        let t = CmsTree::new(layout());
        let a = t.insert_sub(0, 0, u64::MAX, EdgeId(1), 1, 0);
        let b = t.insert_sub(0, 1, a, EdgeId(2), 2, 0);
        t.insert_sub(0, 2, b, EdgeId(3), 3, 0);
        t.insert_sub(0, 2, b, EdgeId(4), 4, 0);
        // Level pass for expiring edge 1.
        let mut all = Vec::new();
        let l0 = t.partial_remove(t.sub_item(0, 0), &t.payload_matches(t.sub_item(0, 0), 1, 1));
        all.extend_from_slice(&l0);
        let l1 = t.partial_remove(t.sub_item(0, 1), &t.children_of(&l0));
        all.extend_from_slice(&l1);
        let l2 = t.partial_remove(t.sub_item(0, 2), &t.children_of(&l1));
        all.extend_from_slice(&l2);
        assert_eq!(all.len(), 4);
        assert_eq!(t.len_sub(0, 2), 0);
        t.reclaim(&all);
        // Reuse: allocate 4 nodes without growing the arena.
        let before = t.next_free.load(Ordering::Acquire);
        let a2 = t.insert_sub(0, 0, u64::MAX, EdgeId(9), 9, 0);
        let b2 = t.insert_sub(0, 1, a2, EdgeId(10), 10, 0);
        t.insert_sub(0, 2, b2, EdgeId(11), 11, 0);
        t.insert_sub(0, 2, b2, EdgeId(12), 12, 0);
        assert_eq!(t.next_free.load(Ordering::Acquire), before);
    }

    #[test]
    fn concurrent_inserts_into_distinct_items() {
        // Hammer the allocator and distinct level lists from many threads;
        // this is the allocation path that must be thread-safe on its own
        // (list mutations are serialized by item locks in the real engine,
        // so here each thread owns one item).
        let t = std::sync::Arc::new(CmsTree::new(StoreLayout { sub_lens: vec![1, 1, 1, 1] }));
        let mut handles = Vec::new();
        for sub in 0..4 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    t.insert_sub(sub, 0, u64::MAX, EdgeId(i), i, 0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for sub in 0..4 {
            assert_eq!(t.len_sub(sub, 0), 1000);
        }
        assert_eq!(t.next_free.load(Ordering::Acquire), 4000);
    }

    #[test]
    fn ordered_buckets_survive_random_ops() {
        // The CmsTree counterpart of the store conformance property test:
        // after any interleaving of keyed inserts and payload-scan →
        // cascade → partial-remove → reclaim expiries — front-drains,
        // tombstoned descendant holes and threshold compactions all happen
        // — the tree must stay indistinguishable from a naive no-tombstone
        // model (rows per level in insertion order, retain-based expiry),
        // every bucket must iterate in nondecreasing newest-edge-timestamp
        // order, and the binary-searched range reads must equal filtered
        // full iteration (ts = edge-id convention).
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x51ed_2701));
            let t = CmsTree::new(StoreLayout { sub_lens: vec![3] });
            // model[level]: live rows as edge-id paths, insertion (=
            // timestamp) order; a row's key is its newest edge % 2.
            let mut model: Vec<Vec<Vec<u64>>> = vec![Vec::new(); 3];
            for ts in 1..=200u64 {
                let rows_at = |level: usize| {
                    let mut rows: Vec<(u64, u64)> = Vec::new();
                    t.for_each_sub(0, level, &mut |h, edges| {
                        rows.push((h, edges.last().expect("nonempty").0));
                    });
                    rows
                };
                match rng.gen_range(0..4u32) {
                    0 => {
                        // Full expiry pass for a random live row's newest
                        // edge: payload scan at its level, cascade to the
                        // leaf, then reclaim.
                        let level = rng.gen_range(0..3usize);
                        let rows = rows_at(level);
                        if let Some(&(_, edge)) = rows.get(rng.gen_range(0..rows.len().max(1))) {
                            let mut all = Vec::new();
                            let mut prev = t.partial_remove(
                                t.sub_item(0, level),
                                &t.payload_matches(t.sub_item(0, level), edge, edge),
                            );
                            all.extend_from_slice(&prev);
                            for deeper in level + 1..3 {
                                prev =
                                    t.partial_remove(t.sub_item(0, deeper), &t.children_of(&prev));
                                all.extend_from_slice(&prev);
                            }
                            t.reclaim(&all);
                            for rows in model.iter_mut().skip(level) {
                                rows.retain(|r| r[level] != edge);
                            }
                        }
                    }
                    1 => {
                        t.insert_sub(0, 0, u64::MAX, EdgeId(ts), ts, ts % 2);
                        model[0].push(vec![ts]);
                    }
                    _ => {
                        let level = rng.gen_range(0..2usize);
                        let rows = rows_at(level);
                        if rows.is_empty() {
                            t.insert_sub(0, 0, u64::MAX, EdgeId(ts), ts, ts % 2);
                            model[0].push(vec![ts]);
                        } else {
                            let (parent, newest) = rows[rng.gen_range(0..rows.len())];
                            t.insert_sub(0, level + 1, parent, EdgeId(ts), ts, ts % 2);
                            let mut row = model[level]
                                .iter()
                                .find(|r| *r.last().expect("nonempty") == newest)
                                .expect("model tracks every live row")
                                .clone();
                            row.push(ts);
                            model[level + 1].push(row);
                        }
                    }
                }
                for (level, model_rows) in model.iter().enumerate() {
                    assert_eq!(
                        t.len_sub(0, level),
                        model_rows.len(),
                        "seed {seed} ts {ts} level {level} len"
                    );
                    for key in 0..2u64 {
                        let mut full: Vec<Vec<u64>> = Vec::new();
                        t.for_each_sub_keyed(0, level, key, &mut |_, edges| {
                            full.push(edges.iter().map(|x| x.0).collect());
                        });
                        let expect: Vec<Vec<u64>> = model_rows
                            .iter()
                            .filter(|r| *r.last().expect("nonempty") % 2 == key)
                            .cloned()
                            .collect();
                        assert_eq!(
                            full, expect,
                            "seed {seed} ts {ts}: bucket ({level}, {key}) diverged from the model"
                        );
                        for cutoff in [0, ts / 2, ts, u64::MAX] {
                            let prefix: Vec<Vec<u64>> = full
                                .iter()
                                .filter(|r| *r.last().expect("nonempty") < cutoff)
                                .cloned()
                                .collect();
                            let mut got = Vec::new();
                            t.for_each_sub_keyed_before(0, level, key, cutoff, &mut |_, edges| {
                                got.push(edges.iter().map(|x| x.0).collect::<Vec<u64>>());
                            });
                            assert_eq!(got, prefix, "seed {seed} ts {ts} cutoff {cutoff}");
                            let suffix: Vec<Vec<u64>> = full
                                .iter()
                                .filter(|r| *r.last().expect("nonempty") >= cutoff)
                                .cloned()
                                .collect();
                            let mut got = Vec::new();
                            t.for_each_sub_keyed_from(0, level, key, cutoff, &mut |_, edges| {
                                got.push(edges.iter().map(|x| x.0).collect::<Vec<u64>>());
                            });
                            assert_eq!(got, suffix, "seed {seed} ts {ts} min {cutoff}");
                        }
                    }
                }
            }
        }
    }

    /// One deletion transaction for `edge` (a level-0 payload of layout
    /// `[2]`): both level passes, then reclaim. Returns the nodes removed.
    fn expire_root(t: &CmsTree, edge: u64) -> usize {
        let l0 =
            t.partial_remove(t.sub_item(0, 0), &t.payload_matches(t.sub_item(0, 0), edge, edge));
        let l1 = t.partial_remove(t.sub_item(0, 1), &t.children_of(&l0));
        t.reclaim(&l0);
        t.reclaim(&l1);
        l0.len() + l1.len()
    }

    fn keyed_rows(t: &CmsTree, level: usize, key: JoinKey) -> Vec<Vec<u64>> {
        let mut rows = Vec::new();
        t.for_each_sub_keyed(0, level, key, &mut |_, edges| {
            rows.push(edges.iter().map(|x| x.0).collect());
        });
        rows
    }

    #[test]
    fn same_bucket_double_death_across_level_passes() {
        // Satellite regression, CmsTree edition: one deletion transaction
        // removes two same-bucket rows in one `partial_remove` call, and a
        // follow-up transaction must still find the survivor's (possibly
        // re-recorded) bucket position.
        let t = CmsTree::new(StoreLayout { sub_lens: vec![2] });
        let a1 = t.insert_sub(0, 0, u64::MAX, EdgeId(1), 1, 5);
        let a2 = t.insert_sub(0, 0, u64::MAX, EdgeId(2), 2, 5);
        t.insert_sub(0, 1, a1, EdgeId(3), 3, 7);
        t.insert_sub(0, 1, a1, EdgeId(4), 4, 7);
        t.insert_sub(0, 1, a2, EdgeId(5), 5, 7);
        // Transaction 1: expire edge 1 (kills a1 + two bucket-7 rows).
        assert_eq!(expire_root(&t, 1), 3);
        assert_eq!(keyed_rows(&t, 1, 7), vec![vec![2, 5]]);
        // Transaction 2: expire edge 2 — the survivor's back-reference
        // must still punch cleanly.
        assert_eq!(expire_root(&t, 2), 2);
        assert_eq!(t.len_sub(0, 0), 0);
        assert_eq!(t.len_sub(0, 1), 0);
    }

    #[test]
    fn interior_deaths_compact_past_the_threshold() {
        // The store conformance case of the same name, run as deletion
        // transactions: a2's child heads bucket 7, then nine children of
        // a1, then a second child of a2. Expiring a1 kills the nine
        // interior rows; the bucket must compact to its two survivors and
        // re-record their positions, which expiring a2 then punches.
        let t = CmsTree::new(StoreLayout { sub_lens: vec![2] });
        let a1 = t.insert_sub(0, 0, u64::MAX, EdgeId(1), 1, 5);
        let a2 = t.insert_sub(0, 0, u64::MAX, EdgeId(2), 2, 5);
        for ts in 3..=13 {
            t.insert_sub(0, 1, if ts == 3 || ts == 13 { a2 } else { a1 }, EdgeId(ts), ts, 7);
        }
        assert_eq!(expire_root(&t, 1), 10, "a1 and its nine children");
        {
            let list = t.lists[t.sub_item(0, 1)].lock();
            let b = list.index.get(7).expect("bucket 7 keeps two rows");
            assert_eq!((b.indexed().len(), b.live_len()), (2, 2), "compacted to the survivors");
        }
        t.assert_clean();
        assert_eq!(keyed_rows(&t, 1, 7), vec![vec![2, 3], vec![2, 13]]);
        assert_eq!(expire_root(&t, 2), 3, "a2 and both survivors");
        assert!(t.lists[t.sub_item(0, 1)].lock().index.get(7).is_none());
        t.assert_clean();
    }

    #[test]
    fn space_bytes_counts_key_buckets() {
        let t = CmsTree::new(StoreLayout { sub_lens: vec![1] });
        let base = t.space_bytes();
        for ts in 0..1000u64 {
            t.insert_sub(0, 0, u64::MAX, EdgeId(ts), ts, 7);
        }
        let entries = 1000 * (std::mem::size_of::<Node>() + std::mem::size_of::<BucketEntry>());
        assert!(t.space_bytes() >= base + entries, "{} < {base} + {entries}", t.space_bytes());
    }

    #[test]
    fn l0_referencer_index_tracks_rows() {
        // Rows register under the component they reference, deaths
        // deregister with the swap-remove back-reference fix, and the
        // lookup matches what a full scan would find.
        let t = CmsTree::new(layout());
        let a = t.insert_sub(0, 0, u64::MAX, EdgeId(1), 1, 0);
        let b = t.insert_sub(0, 1, a, EdgeId(2), 2, 0);
        let c0 = t.insert_sub(0, 2, b, EdgeId(3), 3, 0);
        let x = t.insert_sub(1, 0, u64::MAX, EdgeId(10), 10, 0);
        let c1 = t.insert_sub(1, 1, x, EdgeId(11), 11, 0);
        let y = t.insert_sub(1, 0, u64::MAX, EdgeId(12), 12, 0);
        let c2 = t.insert_sub(1, 1, y, EdgeId(13), 13, 0);
        let r1 = t.insert_l0(1, c0, c1, 11, 0);
        let r2 = t.insert_l0(1, c0, c1, 12, 1);
        let r3 = t.insert_l0(1, c0, c2, 13, 0);
        assert_eq!(t.l0_referencers(1, c1), vec![r1 as u32, r2 as u32]);
        assert_eq!(t.l0_referencers(1, c2), vec![r3 as u32]);
        // Kill one c1 row: the swap-removed survivor still round-trips
        // (the audit's referencer invariants check the back-references).
        let removed = t.partial_remove(t.l0_item(1), &[r1 as u32]);
        assert_eq!(removed, vec![r1 as u32]);
        t.reclaim(&removed);
        assert_eq!(t.l0_referencers(1, c1), vec![r2 as u32]);
        assert!(t.audit().is_empty(), "referencer index survives churn");
        let removed = t.partial_remove(t.l0_item(1), &[r2 as u32, r3 as u32]);
        t.reclaim(&removed);
        assert!(t.l0_referencers(1, c1).is_empty(), "emptied referencer lists are dropped");
        assert!(t.l0_referencers(1, c2).is_empty());
    }

    #[test]
    fn arena_crosses_chunk_boundaries() {
        let t = CmsTree::new(StoreLayout { sub_lens: vec![1] });
        for i in 0..(CHUNK as u64 + 10) {
            t.insert_sub(0, 0, u64::MAX, EdgeId(i), i, 0);
        }
        assert_eq!(t.len_sub(0, 0), CHUNK + 10);
        // Everything is still reachable via the level list.
        let mut count = 0;
        t.for_each_sub(0, 0, &mut |_, _| count += 1);
        assert_eq!(count, CHUNK + 10);
    }

    #[test]
    fn audit_reports_each_corrupted_field() {
        // One corrupted field per invariant family, each on a fresh tree
        // holding an L₀ row `r` and one reclaimed node.
        fn bump(a: &AtomicU32) {
            a.store(a.load(LOAD) + 1, STORE);
        }
        type Corrupt = fn(&CmsTree, u32);
        let cases: [(&str, Corrupt); 4] = [
            ("bucket-position", |t, r| bump(&t.node(r).key_pos)),
            ("referencer-position", |t, r| bump(&t.node(r).ref_pos)),
            ("list-backlink", |t, r| t.node(r).prev.store(r, STORE)),
            ("free-list-duplicates", |t, _| {
                let mut free = t.free.lock();
                let first = free[0];
                free.push(first);
            }),
        ];
        for (slug, corrupt) in cases {
            let t = CmsTree::new(StoreLayout { sub_lens: vec![1, 1] });
            let a = t.insert_sub(0, 0, u64::MAX, EdgeId(1), 1, 0);
            let b = t.insert_sub(1, 0, u64::MAX, EdgeId(2), 2, 0);
            let r = t.insert_l0(1, a, b, 2, 0) as u32;
            let c = t.insert_sub(1, 0, u64::MAX, EdgeId(3), 3, 0) as u32;
            t.reclaim(&t.partial_remove(t.sub_item(1, 0), &[c]));
            t.assert_clean();
            corrupt(&t, r);
            let found = t.audit();
            assert!(
                found.iter().any(|v| (v.store, v.invariant) == ("cms-tree", slug)),
                "{found:?}"
            );
        }
    }
}
