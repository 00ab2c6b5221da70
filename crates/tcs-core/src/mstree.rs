//! The match-store tree (MS-tree, §IV).
//!
//! One trie-like tree per expansion list, all allocated from a single node
//! arena:
//!
//! * A node at depth `j` of subquery `i`'s tree holds the data edge matched
//!   to the `j`-th edge of the timing sequence; the root-to-node path spells
//!   the whole partial match, so a match of `Preq(ε_{j+1})` shares its
//!   prefix with every extension — the paper's space compression.
//! * Nodes of the same item (level) are linked in a doubly linked list so an
//!   item can be scanned without touching the rest of the tree — the
//!   "horizontal access" of §IV-C.
//! * Every node records its parent, so reads backtrack to materialize the
//!   match; insertion appends a child under a handle the engine obtained
//!   during the preceding read — O(1), never re-walking the path.
//! * The `L₀` tree is *grafted onto subquery 0's leaves*: `L₀`'s first item
//!   is `Ω(Q^1)` itself (Figure 13 never locks `L₀¹` separately), so an
//!   `L₀` node at depth `i ≥ 1` has the subquery-0 leaf as its deepest
//!   ancestor and carries a **pointer payload** — the handle of subquery
//!   `i`'s complete match — instead of a copy (the §IV-A optimization of
//!   replacing `n₀` nodes by pointers into `M_i`).
//!
//! Deletion removes all nodes containing an expired edge plus their
//! descendants (which reach the grafted `L₀` levels through ordinary child
//! links for subquery 0, and through a *referencer index* for subqueries
//! `i ≥ 1`: every `L₀` item keeps a leaf-handle → referencing-nodes map, so
//! Algorithm 2's "scan `L₀^i` to `L₀^k`" step costs O(deaths) lookups
//! instead of a content scan over every `L₀` row).
//!
//! # Ordering and expiry cost
//!
//! Item lists and key buckets obey the timestamp-ordered invariant of the
//! `store.rs` module docs: nodes carry the timestamp of their match's
//! newest edge and appends are checked nondecreasing. The engines rely on
//! it for range probes that stop at the cutoff
//! ([`MatchStore::for_each_sub_keyed_before`] / `..._from`) and for the
//! oldest-first early exit of `expire_edge`'s payload scans.
//!
//! Deletion costs what it deletes: both of a node's lists are intrusive.
//! Besides its item-list links every node carries `key_prev` / `key_next`,
//! its place in the per-key list of its item's join-key index, so a dying
//! node leaves its item list and its key list in O(1) wherever it sits (see
//! the key-list section of the `store.rs` docs). The index itself is only
//! a `JoinKey → {head, tail}` map; a node stays 64 bytes because its dead
//! flag is the top bit of its item number.
//!
//! The tree owns only its node representation. The key index, the
//! referencer lists and the audit are the shared [`KeyIndex`],
//! [`RefLists`] and [`audit_tree`] of `store.rs`, the same code the
//! concurrent tree and Timing-IND run.

use crate::store::{
    audit_tree, AuditViolation, Handle, ItemView, JoinKey, KeyIndex, KeyLinks, MatchStore,
    NodeView, RefLists, StoreAudit, StoreLayout, NIL, ROOT,
};
use tcs_graph::query::MAX_QUERY_EDGES;
use tcs_graph::EdgeId;

#[derive(Clone, Copy, Debug)]
struct Node {
    /// Data-edge id (subquery trees) or component handle (L₀ levels ≥ 1).
    payload: u64,
    /// Timestamp of the match's newest edge — nondecreasing along every
    /// item list and key bucket (the ordered-bucket invariant).
    ts: u64,
    parent: u32,
    first_child: u32,
    next_sib: u32,
    prev_sib: u32,
    /// Intrusive per-item (level) doubly linked list.
    next: u32,
    prev: u32,
    /// Which item (level list) this node belongs to, with [`DEAD`] set
    /// once a cascade marks it.
    item: u32,
    /// Join key the node was filed under (see `store.rs` module docs).
    key: JoinKey,
    /// Intrusive per-key doubly linked list of the item's key index.
    key_prev: u32,
    key_next: u32,
    /// For `L₀` nodes (`item ≥ l0_base`): position inside the referencer
    /// list `l0_refs[item − l0_base][payload]` (O(1) deregistration;
    /// re-recorded when a swap-remove moves another node into the slot).
    /// Unused for subquery nodes.
    ref_pos: u32,
}

/// The dead flag: the top bit of a node's `item` field.
const DEAD: u32 = 1 << 31;

impl Node {
    #[inline]
    fn item(&self) -> usize {
        (self.item & !DEAD) as usize
    }

    #[inline]
    fn dead(&self) -> bool {
        self.item & DEAD != 0
    }
}

impl KeyLinks for Vec<Node> {
    #[inline]
    fn ts(&self, row: u32) -> u64 {
        self[row as usize].ts
    }
    #[inline]
    fn key_prev(&self, row: u32) -> u32 {
        self[row as usize].key_prev
    }
    #[inline]
    fn key_next(&self, row: u32) -> u32 {
        self[row as usize].key_next
    }
    #[inline]
    fn set_key_prev(&mut self, row: u32, to: u32) {
        self[row as usize].key_prev = to;
    }
    #[inline]
    fn set_key_next(&mut self, row: u32, to: u32) {
        self[row as usize].key_next = to;
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct ItemList {
    head: u32,
    tail: u32,
    len: usize,
}

/// The MS-tree storage backend.
pub struct MsTreeStore {
    layout: StoreLayout,
    nodes: Vec<Node>,
    free: Vec<u32>,
    items: Vec<ItemList>,
    /// Per-item join-key index: key → the ends of that key's node list,
    /// kept coherent with the intrusive item lists through `expire_edge`.
    indexes: Vec<KeyIndex>,
    /// Start of each subquery's item range in `items`.
    sub_offsets: Vec<usize>,
    /// Start of the L₀ item range (items `l0_base + (i−1)` for `i ≥ 1`).
    l0_base: usize,
    /// Per-L₀-item referencer index: complete-match leaf handle (an L₀
    /// node's payload) → the L₀ nodes of that item referencing it. Turns
    /// Algorithm 2's dead-leaf scan into O(deaths) lookups; kept coherent
    /// by `insert_l0` / `unlink` via each node's `ref_pos`.
    l0_refs: Vec<RefLists<u64>>,
    /// `expire_edge`'s buffers, reused across cascades.
    scratch: ExpireScratch,
}

/// The buffers of one `expire_edge` cascade, owned by the store so a
/// cascade allocates nothing once their capacities have grown. The
/// cascade takes them out on entry and clears each before use; nothing
/// in them outlives the call.
#[derive(Default)]
struct ExpireScratch {
    /// Nodes marked dead, in mark order.
    marked: Vec<u32>,
    /// Items whose payload scan already ran (one per distinct position,
    /// so a short list).
    seen_items: Vec<usize>,
}

impl MsTreeStore {
    #[inline]
    fn sub_item(&self, sub: usize, level: usize) -> usize {
        debug_assert!(level < self.layout.sub_lens[sub]);
        self.sub_offsets[sub] + level
    }

    #[inline]
    fn l0_item(&self, i: usize) -> usize {
        debug_assert!(i >= 1 && i < self.layout.k());
        self.l0_base + (i - 1)
    }

    fn alloc(&mut self, payload: u64, parent: u32, item: u32, ts: u64, key: JoinKey) -> u32 {
        let node = Node {
            payload,
            ts,
            parent,
            first_child: NIL,
            next_sib: NIL,
            prev_sib: NIL,
            next: NIL,
            prev: NIL,
            item,
            key,
            key_prev: NIL,
            key_next: NIL,
            ref_pos: 0,
        };
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx as usize] = node;
                idx
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    fn link_into_item(&mut self, idx: u32) {
        let item = self.nodes[idx as usize].item();
        let list = &mut self.items[item];
        if list.tail == NIL {
            list.head = idx;
            list.tail = idx;
        } else {
            let tail = list.tail;
            self.nodes[tail as usize].next = idx;
            self.nodes[idx as usize].prev = tail;
            list.tail = idx;
        }
        list.len += 1;
    }

    fn link_under_parent(&mut self, idx: u32, parent: u32) {
        let old_first = self.nodes[parent as usize].first_child;
        self.nodes[idx as usize].next_sib = old_first;
        if old_first != NIL {
            self.nodes[old_first as usize].prev_sib = idx;
        }
        self.nodes[parent as usize].first_child = idx;
    }

    fn insert_node(
        &mut self,
        payload: u64,
        parent: Handle,
        item: usize,
        ts: u64,
        key: JoinKey,
    ) -> Handle {
        // Ordered-bucket invariant: appends arrive in nondecreasing
        // timestamp order (the stream is strictly increasing), checked
        // against the item tail here and the key-list tail on filing.
        debug_assert!(
            self.items[item].tail == NIL || self.nodes[self.items[item].tail as usize].ts <= ts,
            "item {item} insert violates the timestamp-ordered invariant"
        );
        let parent_idx = if parent == ROOT { NIL } else { parent as u32 };
        let idx = self.alloc(payload, parent_idx, item as u32, ts, key);
        if parent_idx != NIL {
            self.link_under_parent(idx, parent_idx);
        }
        self.link_into_item(idx);
        self.indexes[item].file(&mut self.nodes, key, idx);
        idx as Handle
    }

    /// Marks `idx` and all descendants dead, appending them to `marked`.
    /// Touches nothing but the nodes, so callers may hold other fields
    /// (the referencer index) borrowed across it.
    fn mark_cascade(nodes: &mut [Node], idx: u32, marked: &mut Vec<u32>) {
        if nodes[idx as usize].dead() {
            return;
        }
        nodes[idx as usize].item |= DEAD;
        marked.push(idx);
        let mut head = marked.len() - 1;
        while head < marked.len() {
            let n = marked[head];
            let mut c = nodes[n as usize].first_child;
            while c != NIL {
                if !nodes[c as usize].dead() {
                    nodes[c as usize].item |= DEAD;
                    marked.push(c);
                }
                c = nodes[c as usize].next_sib;
            }
            head += 1;
        }
    }

    /// Unlinks a dead node from its item list, its key list, its L₀
    /// referencer list (if it is an L₀ node), and its parent's child list.
    fn unlink(&mut self, idx: u32) {
        let n = self.nodes[idx as usize];
        let item = n.item();
        self.indexes[item].unlink(&mut self.nodes, n.key, idx);
        if let Some(refs) = item.checked_sub(self.l0_base) {
            if let Some(moved) = self.l0_refs[refs].remove(n.payload, n.ref_pos, idx) {
                self.nodes[moved as usize].ref_pos = n.ref_pos;
            }
        }
        // Item list.
        if n.prev != NIL {
            self.nodes[n.prev as usize].next = n.next;
        } else {
            self.items[item].head = n.next;
        }
        if n.next != NIL {
            self.nodes[n.next as usize].prev = n.prev;
        } else {
            self.items[item].tail = n.prev;
        }
        self.items[item].len -= 1;
        // Child list of the parent (harmless when the parent is dead too).
        if n.parent != NIL {
            if n.prev_sib != NIL {
                self.nodes[n.prev_sib as usize].next_sib = n.next_sib;
            } else if self.nodes[n.parent as usize].first_child == idx {
                self.nodes[n.parent as usize].first_child = n.next_sib;
            }
            if n.next_sib != NIL {
                self.nodes[n.next_sib as usize].prev_sib = n.prev_sib;
            }
        }
    }

    /// Materializes the root-to-node path of a subquery node into `buf`
    /// and invokes the callback (shared by full and keyed iteration).
    fn emit_sub_path(
        &self,
        n: u32,
        level: usize,
        buf: &mut [EdgeId],
        f: &mut dyn FnMut(Handle, &[EdgeId]),
    ) {
        let mut cur = n;
        for d in (0..=level).rev() {
            buf[d] = EdgeId(self.nodes[cur as usize].payload);
            cur = self.nodes[cur as usize].parent;
        }
        debug_assert_eq!(cur, NIL, "subquery path ends at the root");
        f(n as Handle, buf);
    }

    /// Materializes an L₀ row's component handles into `comps` and invokes
    /// the callback (shared by full and keyed iteration).
    fn emit_l0_row(
        &self,
        n: u32,
        i: usize,
        comps: &mut [Handle],
        f: &mut dyn FnMut(Handle, &[Handle]),
    ) {
        let mut cur = n;
        for d in (1..=i).rev() {
            comps[d] = self.nodes[cur as usize].payload;
            cur = self.nodes[cur as usize].parent;
        }
        // `cur` is now the grafted subquery-0 leaf: its *handle* is
        // component 0.
        comps[0] = cur as Handle;
        f(n as Handle, comps);
    }
}

impl StoreAudit for MsTreeStore {
    fn audit(&self) -> Vec<AuditViolation> {
        let node = |n: u32| {
            let v = self.nodes[n as usize];
            let Node { payload, ts, parent, next, prev, key, ref_pos, .. } = v;
            let (dead, item) = (v.dead(), Some(v.item() as u32));
            NodeView { payload, ts, parent, prev, next, dead, item, key, ref_pos }
        };
        let item = |i: usize, f: &mut dyn FnMut(ItemView<'_>)| {
            let ItemList { head, tail, len } = self.items[i];
            let refs = i.checked_sub(self.l0_base).map(|j| &self.l0_refs[j]);
            f(ItemView { head, tail, len, index: &self.indexes[i], refs })
        };
        audit_tree("ms-tree", &self.layout, node, &self.nodes, item, &self.free, self.nodes.len())
    }
}

impl MatchStore for MsTreeStore {
    fn new(layout: StoreLayout) -> Self {
        let mut sub_offsets = Vec::with_capacity(layout.k());
        let mut acc = 0;
        for &len in &layout.sub_lens {
            sub_offsets.push(acc);
            acc += len;
        }
        let l0_base = acc;
        let l0_items = layout.k().saturating_sub(1);
        MsTreeStore {
            items: vec![ItemList { head: NIL, tail: NIL, len: 0 }; acc + l0_items],
            indexes: vec![KeyIndex::default(); acc + l0_items],
            l0_refs: vec![RefLists::default(); l0_items],
            layout,
            nodes: Vec::new(),
            free: Vec::new(),
            sub_offsets,
            l0_base,
            scratch: ExpireScratch::default(),
        }
    }

    fn for_each_sub(&self, sub: usize, level: usize, f: &mut dyn FnMut(Handle, &[EdgeId])) {
        let item = self.sub_item(sub, level);
        let mut buf = vec![EdgeId(0); level + 1];
        let mut n = self.items[item].head;
        while n != NIL {
            self.emit_sub_path(n, level, &mut buf, f);
            n = self.nodes[n as usize].next;
        }
    }

    fn for_each_sub_keyed_before(
        &self,
        sub: usize,
        level: usize,
        key: JoinKey,
        cutoff_ts: u64,
        f: &mut dyn FnMut(Handle, &[EdgeId]),
    ) {
        let item = self.sub_item(sub, level);
        let mut buf = [EdgeId(0); MAX_QUERY_EDGES];
        for n in self.indexes[item].before(&self.nodes, key, cutoff_ts) {
            self.emit_sub_path(n, level, &mut buf[..=level], f);
        }
    }

    fn for_each_sub_keyed_from(
        &self,
        sub: usize,
        level: usize,
        key: JoinKey,
        min_ts: u64,
        f: &mut dyn FnMut(Handle, &[EdgeId]),
    ) {
        let item = self.sub_item(sub, level);
        let mut buf = [EdgeId(0); MAX_QUERY_EDGES];
        for n in self.indexes[item].from(&self.nodes, key, min_ts) {
            self.emit_sub_path(n, level, &mut buf[..=level], f);
        }
    }

    fn insert_sub(
        &mut self,
        sub: usize,
        level: usize,
        parent: Handle,
        edge: EdgeId,
        ts: u64,
        key: JoinKey,
    ) -> Handle {
        debug_assert_eq!(parent == ROOT, level == 0);
        let item = self.sub_item(sub, level);
        self.insert_node(edge.0, parent, item, ts, key)
    }

    fn for_each_l0(&self, i: usize, f: &mut dyn FnMut(Handle, &[Handle])) {
        let item = self.l0_item(i);
        let mut comps = vec![0 as Handle; i + 1];
        let mut n = self.items[item].head;
        while n != NIL {
            self.emit_l0_row(n, i, &mut comps, f);
            n = self.nodes[n as usize].next;
        }
    }

    fn for_each_l0_keyed_from(
        &self,
        i: usize,
        key: JoinKey,
        min_ts: u64,
        f: &mut dyn FnMut(Handle, &[Handle]),
    ) {
        let item = self.l0_item(i);
        let mut comps = [0 as Handle; MAX_QUERY_EDGES];
        for n in self.indexes[item].from(&self.nodes, key, min_ts) {
            self.emit_l0_row(n, i, &mut comps[..=i], f);
        }
    }

    fn insert_l0(
        &mut self,
        i: usize,
        parent: Handle,
        comp: Handle,
        ts: u64,
        key: JoinKey,
    ) -> Handle {
        let item = self.l0_item(i);
        let h = self.insert_node(comp, parent, item, ts, key);
        // Register with the referencer index so a death of the component
        // leaf finds this row by lookup instead of an item scan.
        self.nodes[h as usize].ref_pos = self.l0_refs[i - 1].add(comp, h as u32);
        h
    }

    fn expand_sub(&self, sub: usize, handle: Handle, out: &mut Vec<EdgeId>) {
        let _ = sub;
        let start = out.len();
        let mut cur = handle as u32;
        while cur != NIL {
            out.push(EdgeId(self.nodes[cur as usize].payload));
            cur = self.nodes[cur as usize].parent;
        }
        out[start..].reverse();
    }

    fn expire_edge(&mut self, edge: EdgeId, ts: u64, positions: &[(usize, usize)]) -> usize {
        let mut sc = std::mem::take(&mut self.scratch);
        sc.marked.clear();
        sc.seen_items.clear();
        // Phase 1: payload scans at the positions the edge can occupy,
        // cascading into descendants (which reach grafted L₀ levels for
        // subquery 0 automatically). Item lists are timestamp-ordered and
        // a node whose newest edge is `edge` carries exactly `ts`, so the
        // scan walks oldest-first and stops at the first newer entry
        // instead of filtering the whole item.
        for &(sub, level) in positions {
            let item = self.sub_item(sub, level);
            if sc.seen_items.contains(&item) {
                continue;
            }
            sc.seen_items.push(item);
            let mut n = self.items[item].head;
            while n != NIL {
                if self.nodes[n as usize].ts > ts {
                    break;
                }
                let next = self.nodes[n as usize].next;
                if self.nodes[n as usize].payload == edge.0 {
                    debug_assert_eq!(self.nodes[n as usize].ts, ts, "one edge, one timestamp");
                    Self::mark_cascade(&mut self.nodes, n, &mut sc.marked);
                }
                n = next;
            }
        }
        // Phases 2–3: the dead complete-match leaves of subqueries ≥ 1
        // (their L₀ references are payloads, not child links) kill the
        // rows referencing them, L₀ items left to right (Algorithm 2 line
        // 7) and each subquery's leaves in mark order — via the
        // referencer index, so the step is O(deaths) lookups rather than
        // a payload scan over every row of the item. Phase 3 only marks
        // L₀ rows, so the leaves are exactly the phase-1 marks. Cascades
        // may kill deeper L₀ rows before their own item's turn — the dead
        // flag makes that idempotent.
        let phase1 = sc.marked.len();
        for i in 1..self.layout.k() {
            let leaf_item = self.sub_item(i, self.layout.sub_lens[i] - 1);
            let Self { nodes, l0_refs, .. } = self;
            for x in 0..phase1 {
                let leaf = sc.marked[x];
                if nodes[leaf as usize].item() != leaf_item {
                    continue;
                }
                for &n in l0_refs[i - 1].get(u64::from(leaf)) {
                    Self::mark_cascade(nodes, n, &mut sc.marked);
                }
            }
        }
        // Unlink everything, then reclaim: no list links a freed node, so
        // reusing it immediately is safe.
        for &m in &sc.marked {
            self.unlink(m);
        }
        self.free.extend_from_slice(&sc.marked);
        let removed = sc.marked.len();
        self.scratch = sc;
        removed
    }

    fn len_sub(&self, sub: usize, level: usize) -> usize {
        self.items[self.sub_item(sub, level)].len
    }

    fn len_l0(&self, i: usize) -> usize {
        self.items[self.l0_item(i)].len
    }

    fn space_bytes(&self) -> usize {
        use std::mem::size_of;
        let live = self.nodes.len() - self.free.len();
        let index_bytes: usize = self.indexes.iter().map(KeyIndex::heap_bytes).sum();
        let ref_bytes: usize = self.l0_refs.iter().map(RefLists::heap_bytes).sum();
        live * size_of::<Node>()
            + self.items.len() * size_of::<ItemList>()
            + index_bytes
            + ref_bytes
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;
    use crate::store::conformance;

    #[test]
    fn conformance_insert_read() {
        conformance::insert_read_roundtrip::<MsTreeStore>();
    }
    #[test]
    fn conformance_expand() {
        conformance::expand_matches_read::<MsTreeStore>();
    }
    #[test]
    fn conformance_l0() {
        conformance::l0_components_roundtrip::<MsTreeStore>();
    }
    #[test]
    fn conformance_expire_cascade() {
        conformance::expire_cascades_within_sub::<MsTreeStore>();
    }
    #[test]
    fn conformance_expire_middle() {
        conformance::expire_middle_level_keeps_prefix::<MsTreeStore>();
    }
    #[test]
    fn conformance_expire_l0() {
        conformance::expire_cleans_l0::<MsTreeStore>();
    }
    #[test]
    fn conformance_expire_unrelated() {
        conformance::expire_ignores_unrelated_edges::<MsTreeStore>();
    }
    #[test]
    fn conformance_space() {
        conformance::space_grows_and_shrinks::<MsTreeStore>();
    }
    #[test]
    fn conformance_three_sub_chain() {
        conformance::three_sub_l0_chain::<MsTreeStore>();
    }
    #[test]
    fn conformance_keyed_sub() {
        conformance::keyed_sub_read_equals_filtered_scan::<MsTreeStore>();
    }
    #[test]
    fn conformance_keyed_after_expire() {
        conformance::keyed_reads_stay_coherent_after_expire::<MsTreeStore>();
    }
    #[test]
    fn conformance_keyed_l0() {
        conformance::keyed_l0_read_equals_filtered_scan::<MsTreeStore>();
    }
    #[test]
    fn conformance_keyed_ranges() {
        conformance::keyed_range_reads_equal_filtered_iteration::<MsTreeStore>();
    }
    #[test]
    fn conformance_ordered_buckets_property() {
        conformance::ordered_buckets_survive_random_ops::<MsTreeStore>();
    }
    #[test]
    fn conformance_ordered_l0_buckets_property() {
        conformance::ordered_l0_buckets_survive_random_ops::<MsTreeStore>();
    }
    #[test]
    fn conformance_same_bucket_double_death() {
        conformance::same_bucket_double_death_in_one_cascade::<MsTreeStore>();
    }
    #[test]
    fn conformance_key_lists_match_model() {
        conformance::key_lists_match_model_store::<MsTreeStore>();
    }
    #[test]
    fn conformance_interior_deaths_unlink_in_place() {
        conformance::interior_deaths_unlink_in_place::<MsTreeStore>(|s| s.indexes[1].contains(7));
    }
    #[test]
    fn conformance_state_tracks_live_rows() {
        conformance::state_tracks_live_rows::<MsTreeStore>();
    }

    #[test]
    fn node_is_64_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 64);
    }

    #[test]
    fn space_bytes_counts_referencer_lists() {
        // N L₀ rows referencing N distinct leaves: each costs its node and
        // at least one referencer-list entry.
        const N: usize = 100;
        let mut s = MsTreeStore::new(StoreLayout { sub_lens: vec![1, 1] });
        let a = s.insert_sub(0, 0, ROOT, EdgeId(0), 0, 0);
        let leaves: Vec<Handle> =
            (1..=N as u64).map(|t| s.insert_sub(1, 0, ROOT, EdgeId(t), t, 0)).collect();
        let base = s.space_bytes();
        for (&b, t) in leaves.iter().zip(N as u64 + 1..) {
            s.insert_l0(1, a, b, t, 0);
        }
        let grown = N * (std::mem::size_of::<Node>() + std::mem::size_of::<u32>());
        assert!(s.space_bytes() >= base + grown, "{} < {base} + {grown}", s.space_bytes());
    }

    #[test]
    fn l0_referencer_index_tracks_rows() {
        // Two L₀ rows referencing the SAME sub-1 leaf, one referencing
        // another: expiring the shared leaf's edge kills exactly its two
        // referencers by lookup, and the index survives the swap-remove
        // churn (checked by the audit's referencer invariants).
        let mut s = MsTreeStore::new(StoreLayout { sub_lens: vec![1, 1] });
        let a1 = s.insert_sub(0, 0, ROOT, EdgeId(1), 1, 0);
        let a2 = s.insert_sub(0, 0, ROOT, EdgeId(2), 2, 0);
        let a3 = s.insert_sub(0, 0, ROOT, EdgeId(3), 3, 0);
        let b1 = s.insert_sub(1, 0, ROOT, EdgeId(10), 10, 0);
        let b2 = s.insert_sub(1, 0, ROOT, EdgeId(11), 11, 0);
        s.insert_l0(1, a1, b1, 10, 0);
        s.insert_l0(1, a2, b2, 11, 0);
        s.insert_l0(1, a3, b1, 12, 0);
        assert_eq!(s.l0_refs[0].get(b1).len(), 2);
        assert_eq!(s.l0_refs[0].get(b2).len(), 1);
        s.assert_clean();
        let n = s.expire_edge(EdgeId(10), 10, &[(1, 0)]);
        assert_eq!(n, 3, "leaf b1 and its two referencing rows");
        assert_eq!(s.len_l0(1), 1);
        assert!(s.l0_refs[0].get(b1).is_empty());
        assert_eq!(s.l0_refs[0].get(b2).len(), 1);
        // The audit reports any emptied referencer list still kept.
        s.assert_clean();
        let n2 = s.expire_edge(EdgeId(11), 11, &[(1, 0)]);
        assert_eq!(n2, 2);
        assert!(s.l0_refs[0].get(b2).is_empty());
        s.assert_clean();
    }

    #[test]
    fn prefix_sharing_reuses_nodes() {
        // Figure 10: matches {σ1}, {σ1,σ3}, {σ1,σ3,σ4}, {σ1,σ3,σ9} use
        // exactly 4 nodes.
        let mut s = MsTreeStore::new(StoreLayout { sub_lens: vec![3] });
        let a = s.insert_sub(0, 0, ROOT, EdgeId(1), 1, 0);
        let b = s.insert_sub(0, 1, a, EdgeId(3), 3, 0);
        s.insert_sub(0, 2, b, EdgeId(4), 4, 0);
        s.insert_sub(0, 2, b, EdgeId(9), 9, 0);
        assert_eq!(s.nodes.len(), 4);
        s.assert_clean();
        // Deleting σ1 (Figure 10 walk-through) removes all 4 nodes.
        let n = s.expire_edge(EdgeId(1), 1, &[(0, 0)]);
        assert_eq!(n, 4);
        assert_eq!(s.free.len(), 4);
        s.assert_clean();
    }

    #[test]
    fn freed_nodes_are_reused() {
        let mut s = MsTreeStore::new(StoreLayout { sub_lens: vec![2] });
        let a = s.insert_sub(0, 0, ROOT, EdgeId(1), 1, 0);
        s.insert_sub(0, 1, a, EdgeId(2), 2, 0);
        s.expire_edge(EdgeId(1), 1, &[(0, 0)]);
        let cap = s.nodes.len();
        let a2 = s.insert_sub(0, 0, ROOT, EdgeId(3), 3, 0);
        s.insert_sub(0, 1, a2, EdgeId(4), 4, 0);
        assert_eq!(s.nodes.len(), cap, "arena did not grow");
        s.assert_clean();
    }

    #[test]
    fn sibling_unlink_keeps_child_lists_intact() {
        // Parent with three children; delete the middle child's payload.
        let mut s = MsTreeStore::new(StoreLayout { sub_lens: vec![2] });
        let p = s.insert_sub(0, 0, ROOT, EdgeId(1), 1, 0);
        s.insert_sub(0, 1, p, EdgeId(10), 10, 0);
        s.insert_sub(0, 1, p, EdgeId(11), 11, 0);
        s.insert_sub(0, 1, p, EdgeId(12), 12, 0);
        let n = s.expire_edge(EdgeId(11), 11, &[(0, 1)]);
        assert_eq!(n, 1);
        s.assert_clean();
        // The two survivors are still reachable as children of p: expire p
        // and verify the cascade count.
        let n2 = s.expire_edge(EdgeId(1), 1, &[(0, 0)]);
        assert_eq!(n2, 3, "parent + two remaining children");
        s.assert_clean();
    }

    /// One insert named by edge ids (timestamp = edge id): a subquery row
    /// extending the row of its edges minus the last, or an `L₀` row
    /// joining a subquery-0 leaf with a subquery-1 leaf.
    enum Op {
        Sub(usize, Vec<u64>),
        L0(Vec<u64>, Vec<u64>),
    }

    impl Op {
        fn edges(&self) -> Vec<u64> {
            match self {
                Op::Sub(_, es) => es.clone(),
                Op::L0(a, b) => a.iter().chain(b).copied().collect(),
            }
        }
    }

    fn handle_of(s: &MsTreeStore, sub: usize, edges: &[u64]) -> Handle {
        let mut found = None;
        s.for_each_sub(sub, edges.len() - 1, &mut |h, es| {
            if es.iter().map(|e| e.0).eq(edges.iter().copied()) {
                found = Some(h);
            }
        });
        found.expect("the row an insert extends is live")
    }

    fn apply(s: &mut MsTreeStore, op: &Op) {
        match op {
            Op::Sub(sub, es) => {
                let last = *es.last().expect("nonempty");
                let parent =
                    if es.len() == 1 { ROOT } else { handle_of(s, *sub, &es[..es.len() - 1]) };
                // Subquery 1 files every row under its own key, so a
                // cascade can empty (and drop) a bucket for good.
                let key = if *sub == 1 { last } else { last % 2 };
                s.insert_sub(*sub, es.len() - 1, parent, EdgeId(last), last, key);
            }
            Op::L0(a, b) => {
                let ts = *a.iter().chain(b).max().expect("nonempty");
                let (ha, hb) = (handle_of(s, 0, a), handle_of(s, 1, b));
                s.insert_l0(1, ha, hb, ts, 0);
            }
        }
    }

    /// Every item's rows as edge-id lists, `L₀` rows expanded through
    /// their components — comparable across stores whatever the handles.
    fn contents(s: &MsTreeStore) -> Vec<Vec<Vec<u64>>> {
        let mut out = Vec::new();
        for (sub, levels) in [(0usize, 2usize), (1, 1)] {
            for level in 0..levels {
                let mut rows = Vec::new();
                s.for_each_sub(sub, level, &mut |_, es| {
                    rows.push(es.iter().map(|e| e.0).collect())
                });
                rows.sort();
                out.push(rows);
            }
        }
        let mut rows: Vec<Vec<u64>> = Vec::new();
        s.for_each_l0(1, &mut |_, comps| {
            let mut es = Vec::new();
            s.expand_sub(0, comps[0], &mut es);
            s.expand_sub(1, comps[1], &mut es);
            rows.push(es.iter().map(|e| e.0).collect());
        });
        rows.sort();
        out.push(rows);
        out
    }

    #[test]
    fn back_to_back_cascades_leave_no_stale_scratch() {
        // Layout: subquery 0 with two levels, subquery 1 with one, one L₀
        // item. Each cascade reuses the store's expiry scratch; a buffer
        // that kept the previous cascade's entries would re-unlink freed
        // (or reused) nodes or skip an already-scanned item — each of
        // which the checks below catch.
        let layout = || StoreLayout { sub_lens: vec![2, 1] };
        let mut ops = vec![
            Op::Sub(0, vec![1]),
            Op::Sub(0, vec![2]),
            Op::Sub(0, vec![1, 3]),
            Op::Sub(0, vec![2, 4]),
            Op::Sub(1, vec![5]),
            Op::L0(vec![1, 3], vec![5]),
            Op::L0(vec![2, 4], vec![5]),
            Op::Sub(1, vec![6]),
            Op::L0(vec![2, 4], vec![6]),
        ];
        let mut s = MsTreeStore::new(layout());
        for op in &ops {
            apply(&mut s, op);
        }
        let mut expired: Vec<u64> = Vec::new();
        let check = |s: &MsTreeStore, ops: &[Op], expired: &[u64], what: &str| {
            s.assert_clean();
            let mut fresh = MsTreeStore::new(layout());
            for op in ops.iter().filter(|op| op.edges().iter().all(|e| !expired.contains(e))) {
                apply(&mut fresh, op);
            }
            assert_eq!(contents(s), contents(&fresh), "after {what}");
        };
        // 1: a subquery-1 leaf with two referencing L₀ rows (referencer
        // deaths), emptying that leaf's own bucket.
        assert_eq!(s.expire_edge(EdgeId(5), 5, &[(1, 0)]), 3);
        expired.push(5);
        check(&s, &ops, &expired, "the cascade with L₀ deaths");
        // Refill the freed slots, then 2: the same item, no L₀ deaths.
        for op in [Op::Sub(1, vec![9]), Op::L0(vec![1, 3], vec![9]), Op::Sub(1, vec![10])] {
            apply(&mut s, &op);
            ops.push(op);
        }
        assert_eq!(s.expire_edge(EdgeId(10), 10, &[(1, 0)]), 1);
        expired.push(10);
        check(&s, &ops, &expired, "the cascade without L₀ deaths");
        // 3: a different item — subquery 0's root edge, reaching L₀
        // through the graft.
        assert_eq!(s.expire_edge(EdgeId(1), 1, &[(0, 0)]), 3, "[1], [1, 3] and its L₀ row");
        expired.push(1);
        check(&s, &ops, &expired, "the cascade on another item");
    }

    #[test]
    fn deep_graft_chain_cascades_from_sub0() {
        // k = 3; expire sub-0's edge: the L₀ chain dies via graft links.
        let mut s = MsTreeStore::new(StoreLayout { sub_lens: vec![1, 1, 1] });
        let c0 = s.insert_sub(0, 0, ROOT, EdgeId(1), 1, 0);
        let c1 = s.insert_sub(1, 0, ROOT, EdgeId(2), 2, 0);
        let c2 = s.insert_sub(2, 0, ROOT, EdgeId(3), 3, 0);
        let u = s.insert_l0(1, c0, c1, 2, 0);
        s.insert_l0(2, u, c2, 3, 0);
        let n = s.expire_edge(EdgeId(1), 1, &[(0, 0)]);
        assert_eq!(n, 3, "c0 + u01 + u012 die; c1, c2 survive");
        assert_eq!(s.len_sub(1, 0), 1);
        assert_eq!(s.len_sub(2, 0), 1);
        s.assert_clean();
    }

    #[test]
    fn audit_reports_each_corrupted_field() {
        // One corrupted field per invariant family, each on a fresh store
        // holding an L₀ row `r` and one freed node.
        type Corrupt = fn(&mut MsTreeStore, usize);
        let cases: [(&str, Corrupt); 4] = [
            ("bucket-position", |s, r| s.nodes[r].key_prev = r as u32),
            ("referencer-position", |s, r| s.nodes[r].ref_pos += 1),
            ("list-backlink", |s, r| s.nodes[r].prev = r as u32),
            ("free-list-duplicates", |s, _| s.free.push(s.free[0])),
        ];
        for (slug, corrupt) in cases {
            let mut s = MsTreeStore::new(StoreLayout { sub_lens: vec![1, 1] });
            let a = s.insert_sub(0, 0, ROOT, EdgeId(1), 1, 0);
            let b = s.insert_sub(1, 0, ROOT, EdgeId(2), 2, 0);
            let r = s.insert_l0(1, a, b, 2, 0) as usize;
            s.insert_sub(1, 0, ROOT, EdgeId(3), 3, 0);
            s.expire_edge(EdgeId(3), 3, &[(1, 0)]);
            s.assert_clean();
            corrupt(&mut s, r);
            let found = s.audit();
            assert!(found.iter().any(|v| (v.store, v.invariant) == ("ms-tree", slug)), "{found:?}");
        }
    }
}
