//! Storage abstraction over expansion-list items.
//!
//! An expansion list (Definition 9) is a sequence of *items*; item `j` of
//! subquery `Q^i`'s list holds all current matches of the prerequisite
//! subquery `Preq(ε_{j+1})` (0-based: the first `j+1` edges of the timing
//! sequence). For a non-TC query the additional list `L₀` over the
//! decomposition holds join results `Ω(Q^1 ∪ … ∪ Q^i)` (§III-B).
//!
//! The engine is generic over [`MatchStore`] so the paper's two storage
//! designs plug in interchangeably:
//!
//! * [`crate::mstree::MsTreeStore`] — the match-store tree (§IV): one trie
//!   per expansion list, prefix-compressed, with `L₀` nodes carrying
//!   *pointers* to subquery leaves instead of copies, and `L₀`'s first item
//!   aliased to `Q^1`'s last item (both are `Ω(Q^1)`, cf. Figure 13 where
//!   `Ins(σ14)` never locks `L₀¹`).
//! * [`crate::independent::IndependentStore`] — Timing-IND: every partial
//!   match stored independently, no sharing.
//!
//! # Handles
//!
//! Reads hand out opaque [`Handle`]s; the engine passes them back as the
//! `parent` of an insertion (O(1) child append in the MS-tree — the paper's
//! "our insertion strategy does not need to wastefully access the whole
//! path" observation) or as `L₀` *components* (complete-subquery-match
//! references). A handle is only guaranteed valid until the next
//! `expire_edge` call, which is exactly how the engine uses them.
//!
//! # Join-key indexes
//!
//! Algorithm 1 joins every arrival `σ` against *all* matches stored in
//! item `L^{j−1}_i`, and every fresh complete subquery match against all
//! `L₀^{i−1}` rows — `O(|item|)` per arrival, the dominant cost on
//! hub-heavy streams. Both stores therefore keep every item *pre-indexed
//! by join key*, the way `arrange_by_key` pre-indexes arrangements in
//! differential dataflow:
//!
//! * A [`JoinKey`] is an opaque `u64` computed by the **engine** from the
//!   plan's key specs ([`crate::plan::ChainKeyPart`] /
//!   [`crate::plan::L0KeyPart`]): the data vertices bound to the query
//!   vertices shared between the two join sides, folded FNV-1a-style in
//!   canonical (ascending query-vertex) order. Two joinable matches agree
//!   on every shared vertex, so they agree on the key; the store never
//!   interprets keys, it only groups equal ones.
//! * Every insertion carries the key under which the new match will later
//!   be probed (`insert_sub` → the next level's chain spec, or the `L₀`
//!   spec at the leaf; `insert_l0` → the next `L₀` item's row spec).
//! * [`MatchStore::for_each_sub_keyed`] / [`MatchStore::for_each_l0_keyed`]
//!   visit exactly the matches inserted under an equal key — a strict
//!   subset of the full scan, and a superset of the joinable matches
//!   (equal shared vertices ⇒ equal key; hash collisions only ever *add*
//!   candidates). The key is a **prefilter**: callers must still run the
//!   full compatibility check on every probe hit, so semantics are
//!   identical to the full-scan path.
//! * `expire_edge`'s cascading deletes keep the indexes coherent: every
//!   unlink also unlinks the match from its key list, in O(1) wherever it
//!   sits in the list.
//!
//! A spec with no shared vertices folds to [`crate::plan::KEY_EMPTY`] on
//! both sides — one bucket holding the whole item, which degrades
//! gracefully to the original full scan.
//!
//! # The ordered-bucket invariant
//!
//! Every insertion also carries the match's *timestamp*: the arrival
//! timestamp of its newest edge, which for every row the engine creates is
//! the timestamp of the arrival that triggered the insertion (subquery
//! rows are created by the arrival of their newest edge; an `L₀` row is
//! created the moment its last-completing component completes, so its
//! newest component's newest edge *is* the current arrival). Stream
//! timestamps are strictly increasing, so appends arrive in nondecreasing
//! timestamp order, and the stores promote that from an accident of
//! append order to a **checked invariant**:
//!
//! * every item list and every key list (a key's *bucket*) iterates in
//!   nondecreasing timestamp order, oldest first (asserted on insert in
//!   debug builds);
//! * `expire_edge` preserves the order — a removal unlinks the row in
//!   place, so the survivors keep their neighbours.
//!
//! Three consumers exploit the sortedness to *stop* instead of *filter*:
//!
//! * [`MatchStore::for_each_sub_keyed_before`] walks the key list from
//!   its oldest row and stops at the first row not older than the chain
//!   join's `last.ts < σ.ts` cutoff;
//! * [`MatchStore::for_each_sub_keyed_from`] /
//!   [`MatchStore::for_each_l0_keyed_from`] walk back from the newest row
//!   to the oldest one at or above a minimum timestamp, then visit that
//!   suffix oldest first — the engine derives the floor from
//!   cross-subquery ≺ constraints
//!   ([`crate::plan::QueryPlan::l0_delta_floor_levels`]), skipping rows
//!   that cannot satisfy them *before* their merged assignment is built;
//! * `expire_edge` walks items oldest-first and stops at the first entry
//!   newer than the expired edge: an entry whose newest edge is the
//!   expired edge has exactly its timestamp, so nothing beyond that point
//!   can die at the scanned position.
//!
//! Like the join key, the timestamp bounds are *prefilters*: every visited
//! candidate still runs the full compatibility check, and a range read
//! visits a superset of the joinable matches within the bucket (the ts
//! bound is a necessary condition), so semantics are identical to the
//! filtered full scan. The contract callers must uphold is "one edge, one
//! timestamp": distinct stream edges never share a timestamp (Definition 1
//! gives strictly increasing arrivals).
//!
//! # Expiry cost and the key lists
//!
//! An item's join-key index is a map from each live key to the head and
//! tail of a doubly linked list threaded through the item's rows: every
//! row carries a `key_prev` / `key_next` link pair beside its own fields,
//! the way the MS-tree's item lists thread through its nodes (§IV-C's
//! horizontal access). Rows join a list at its tail — appends arrive in
//! timestamp order, so the list stays ordered — and leave it in O(1) from
//! any position.
//!
//! Because edges leave the window oldest-first, every *payload-level*
//! death (a row whose newest edge is the expired edge) is its list's
//! oldest prefix; cascade deaths (descendants of a dying prefix, and `L₀`
//! rows referencing a dead leaf) are newer and sit anywhere in their
//! lists. Both cost one unlink, so expiry costs O(deaths) with no
//! end-of-cascade pass, and a list never holds anything but live rows. A
//! list that loses its last row drops its map entry, so an index holds
//! one `JoinKey → {head, tail}` entry per live key plus 8 bytes of links
//! per row, whatever the item's history.
//!
//! # Shared per-item bookkeeping
//!
//! The three stores differ only in how they represent a row (trie node,
//! flat row, guarded atomic node). Everything else about an item is
//! written once, here, and is the only implementation of it:
//!
//! * [`KeyIndex`] — the item's `JoinKey → {head, tail}` map over the
//!   rows' key links, which each store exposes through [`KeyLinks`]:
//!   filing, unlinking, the ordered walks, byte accounting and its audit;
//! * [`RefLists`] — lists whose members record their own position (the
//!   trees' `L₀` referencer index, Timing-IND's payload index), with the
//!   swap-remove that hands back the moved member, and its audit;
//! * [`audit_tree`] — the list, parent, component and arena audit of
//!   both MS-trees, read through a per-node [`NodeView`].

use std::collections::HashSet;
use std::hash::Hash;
use std::mem::size_of;
use tcs_graph::{EdgeId, IdMap};

/// Opaque reference to a stored partial match.
pub type Handle = u64;

/// One violated invariant found by a [`StoreAudit`] sweep.
#[derive(Clone, Debug)]
pub struct AuditViolation {
    /// Which store reported it (`"ms-tree"`, `"independent"`,
    /// `"cms-tree"`, or `"engine"` for the accounting cross-check).
    pub store: &'static str,
    /// Short slug of the broken invariant (stable across messages, so
    /// tests can match on it).
    pub invariant: &'static str,
    /// Human-readable specifics: which item/bucket/node and how.
    pub detail: String,
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.store, self.invariant, self.detail)
    }
}

/// Renders a violation list the way [`StoreAudit::assert_clean`] panics
/// with it: one numbered line per violation.
pub fn format_violations(found: &[AuditViolation]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for (i, v) in found.iter().enumerate() {
        let _ = write!(s, "\n  {}. {v}", i + 1);
    }
    s
}

/// A full invariant sweep over a store's internal state, callable from
/// tests at any operation boundary and wired behind the `debug-audit`
/// feature at the engine's end-of-cascade / end-of-batch boundaries.
///
/// One call checks every documented invariant at once:
///
/// * **ordered buckets** — every item list and key list iterates in
///   nondecreasing newest-edge-timestamp order;
/// * **index coherence** — key lists link exactly the live rows of their
///   item, each under its own key, every link has its backlink and every
///   list ends at its recorded tail;
/// * **no dangling references** — parent/prefix links and `L₀` component
///   handles resolve to live rows of the right item;
/// * **allocator accounting** — live rows plus free slots cover the arena
///   exactly (nothing leaked, nothing aliased).
///
/// Implementations take `&self` and must not mutate; the concurrent
/// store's implementation locks each list in turn and is only meaningful
/// at quiescent points (no in-flight transactions).
pub trait StoreAudit {
    /// Sweeps every invariant, returning all violations found (empty =
    /// clean).
    fn audit(&self) -> Vec<AuditViolation>;

    /// Panics with a numbered list of violations if the sweep finds any.
    fn assert_clean(&self) {
        let found = self.audit();
        assert!(
            found.is_empty(),
            "store audit found {} violation(s):{}",
            found.len(),
            format_violations(&found)
        );
    }
}

/// Opaque join-key under which a stored match is grouped for keyed
/// iteration (see the module docs). Computed by the engine from the
/// plan's key specs; equal keys ⇔ same bucket.
pub type JoinKey = u64;

/// Sentinel parent for level-0 insertions.
pub const ROOT: Handle = Handle::MAX;

/// How a store retires the key-index entries of expired rows (see the
/// "Expiry cost and the key lists" section of the module docs). One
/// policy is left, so the type selects nothing; it stays only because
/// the frozen benchmark's `TracedStore` names it (through
/// [`MatchStore::set_expiry_mode`]). Queued for the benchmark PR that
/// drops it there.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExpiryMode {
    /// Unlink each dying row from its key list in place (expiry is
    /// O(deaths)).
    #[default]
    FrontDrain,
}

/// Row access a [`KeyIndex`] needs: each row's timestamp and its two key
/// links. Rows are named by the store's `u32` slot (node index / slab
/// slot); [`NIL`] is the null link. Every store implements it over its own
/// row representation.
pub trait KeyLinks {
    /// Timestamp of row `row`'s newest edge.
    fn ts(&self, row: u32) -> u64;
    /// The row before `row` in its key list.
    fn key_prev(&self, row: u32) -> u32;
    /// The row after `row` in its key list.
    fn key_next(&self, row: u32) -> u32;
    /// Sets the row before `row`.
    fn set_key_prev(&mut self, row: u32, to: u32);
    /// Sets the row after `row`.
    fn set_key_next(&mut self, row: u32, to: u32);
}

/// Both ends of one key list.
#[derive(Clone, Copy, Debug)]
struct KeyList {
    head: u32,
    tail: u32,
}

/// One item's join-key index: `JoinKey →` the ends of a doubly linked
/// list threaded through the rows' own key links (module docs: "Expiry
/// cost and the key lists"), oldest row first. Every store keeps one per
/// item and reaches its rows through [`KeyLinks`].
#[derive(Clone, Debug, Default)]
pub struct KeyIndex {
    lists: IdMap<JoinKey, KeyList>,
}

impl KeyIndex {
    /// Appends row `row` to `key`'s list. The row's timestamp must be no
    /// older than the list's tail (checked in debug builds).
    #[inline]
    pub fn file(&mut self, rows: &mut impl KeyLinks, key: JoinKey, row: u32) {
        rows.set_key_next(row, NIL);
        match self.lists.get_mut(&key) {
            Some(list) => {
                debug_assert!(
                    rows.ts(list.tail) <= rows.ts(row),
                    "key list insert violates the timestamp-ordered invariant"
                );
                rows.set_key_prev(row, list.tail);
                rows.set_key_next(list.tail, row);
                list.tail = row;
            }
            None => {
                rows.set_key_prev(row, NIL);
                self.lists.insert(key, KeyList { head: row, tail: row });
            }
        }
    }

    /// Unlinks row `row`, filed under `key`, from its list; a list left
    /// empty drops its key.
    #[inline]
    pub fn unlink(&mut self, rows: &mut impl KeyLinks, key: JoinKey, row: u32) {
        let (prev, next) = (rows.key_prev(row), rows.key_next(row));
        if prev != NIL && next != NIL {
            rows.set_key_next(prev, next);
            rows.set_key_prev(next, prev);
            return;
        }
        let list = self.lists.get_mut(&key).unwrap_or_else(|| unreachable!("filed row"));
        if prev == NIL && next == NIL {
            debug_assert!(list.head == row && list.tail == row, "stale key link");
            self.lists.remove(&key);
            return;
        }
        if prev == NIL {
            list.head = next;
            rows.set_key_prev(next, NIL);
        } else {
            list.tail = prev;
            rows.set_key_next(prev, NIL);
        }
    }

    /// Whether any row is filed under `key`.
    #[inline]
    pub fn contains(&self, key: JoinKey) -> bool {
        self.lists.contains_key(&key)
    }

    /// The rows filed under `key` with `ts < cutoff_ts`, oldest first: a
    /// walk from the head that stops at the first newer row.
    #[inline]
    pub fn before<'a, R: KeyLinks>(
        &self,
        rows: &'a R,
        key: JoinKey,
        cutoff_ts: u64,
    ) -> KeyWalk<'a, R> {
        let at = self.lists.get(&key).map_or(NIL, |l| l.head);
        KeyWalk { rows, at, cutoff: Some(cutoff_ts) }
    }

    /// The rows filed under `key` with `ts ≥ min_ts`, oldest first: a walk
    /// back from the tail finds the oldest of them, so the cost is the
    /// suffix's length, not the list's.
    #[inline]
    pub fn from<'a, R: KeyLinks>(&self, rows: &'a R, key: JoinKey, min_ts: u64) -> KeyWalk<'a, R> {
        let mut at = NIL;
        if let Some(list) = self.lists.get(&key) {
            if rows.ts(list.head) >= min_ts {
                at = list.head;
            } else {
                let mut n = list.tail;
                while rows.ts(n) >= min_ts {
                    at = n;
                    n = rows.key_prev(n);
                }
            }
        }
        KeyWalk { rows, at, cutoff: None }
    }

    /// Bytes held: one map entry per live key (the links live in the
    /// rows, which their store counts).
    pub fn heap_bytes(&self) -> usize {
        self.lists.len() * (size_of::<JoinKey>() + size_of::<KeyList>())
    }

    /// Audits the index against the item's live rows, given as `(row,
    /// key)`, `len` being the item's recorded live count: every list links
    /// only live rows of its own key, each once, with matching backlinks,
    /// in timestamp order, ending at its recorded tail; every live row is
    /// linked; and the lists hold `len` rows. `what` labels the item.
    pub fn audit(
        &self,
        store: &'static str,
        what: &str,
        rows: &impl KeyLinks,
        members: impl IntoIterator<Item = (u32, JoinKey)>,
        len: usize,
        out: &mut Vec<AuditViolation>,
    ) {
        let mut report = |invariant, detail| out.push(AuditViolation { store, invariant, detail });
        let members: IdMap<u32, JoinKey> = members.into_iter().collect();
        let mut linked = HashSet::new();
        for (&key, list) in &self.lists {
            let (mut n, mut prev, mut prev_ts) = (list.head, NIL, 0);
            if n == NIL {
                report("empty-bucket-retained", format!("{what} key {key}: empty list kept"));
            }
            while n != NIL {
                if members.get(&n) != Some(&key) || !linked.insert(n) {
                    let detail = format!("{what} key {key}: links row {n} twice or not its own");
                    report("bucket-position", detail);
                    break;
                }
                if rows.key_prev(n) != prev {
                    let detail = format!("{what} key {key}: row {n} backlink != {prev}");
                    report("bucket-position", detail);
                }
                let ts = rows.ts(n);
                if ts < prev_ts {
                    let detail = format!("{what} key {key}: row {n} older than its predecessor");
                    report("bucket-timestamp-order", detail);
                }
                (prev, prev_ts, n) = (n, ts, rows.key_next(n));
            }
            if n == NIL && list.tail != prev {
                let detail = format!("{what} key {key}: tail {} is not {prev}", list.tail);
                report("bucket-position", detail);
            }
        }
        for (&row, &key) in members.iter().filter(|(row, _)| !linked.contains(*row)) {
            if self.contains(key) {
                report("bucket-position", format!("{what}: row {row} missing from key {key}"));
            } else {
                report("missing-bucket", format!("{what}: row {row} under absent key {key}"));
            }
        }
        if linked.len() != len {
            let detail = format!("{what}: {} linked rows vs len {len}", linked.len());
            report("index-live-size", detail);
        }
    }
}

/// The walk [`KeyIndex::before`] / [`KeyIndex::from`] hand out: rows
/// forward along one key list, stopping at `cutoff` if there is one.
pub struct KeyWalk<'a, R> {
    rows: &'a R,
    at: u32,
    cutoff: Option<u64>,
}

impl<R: KeyLinks> Iterator for KeyWalk<'_, R> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        let n = self.at;
        if n == NIL || self.cutoff.is_some_and(|c| self.rows.ts(n) >= c) {
            return None;
        }
        self.at = self.rows.key_next(n);
        Some(n)
    }
}

/// Lists keyed by `K` whose members (row slots) record their own position
/// in their list: the trees' `L₀` referencer index and Timing-IND's payload
/// index. Removal swap-removes and hands back the member that moved into
/// the hole, so the caller can re-record that member's position; a list
/// that empties is dropped.
#[derive(Clone, Debug)]
pub struct RefLists<K> {
    lists: IdMap<K, Vec<u32>>,
}

impl<K> Default for RefLists<K> {
    fn default() -> Self {
        RefLists { lists: IdMap::default() }
    }
}

impl<K: Copy + Eq + Hash + std::fmt::Debug> RefLists<K> {
    /// Appends `member` to `key`'s list; returns its position.
    #[inline]
    pub fn add(&mut self, key: K, member: u32) -> u32 {
        let list = self.lists.entry(key).or_default();
        list.push(member);
        (list.len() - 1) as u32
    }

    /// Removes `member` from position `pos` of `key`'s list; returns the
    /// member now at `pos` (whose recorded position becomes `pos`), if any.
    #[inline]
    pub fn remove(&mut self, key: K, pos: u32, member: u32) -> Option<u32> {
        let list = self.lists.get_mut(&key).unwrap_or_else(|| unreachable!("member is listed"));
        debug_assert_eq!(list.get(pos as usize), Some(&member), "stale list back-reference");
        list.swap_remove(pos as usize);
        let moved = list.get(pos as usize).copied();
        if list.is_empty() {
            self.lists.remove(&key);
        }
        moved
    }

    /// The members listed under `key` (empty when none).
    #[inline]
    pub fn get(&self, key: K) -> &[u32] {
        self.lists.get(&key).map_or(&[], Vec::as_slice)
    }

    /// Bytes held: one map entry per list plus the members' heap.
    pub fn heap_bytes(&self) -> usize {
        self.lists.len() * (size_of::<K>() + size_of::<Vec<u32>>())
            + self.lists.values().map(|l| l.capacity() * size_of::<u32>()).sum::<usize>()
    }

    /// Audits the lists against their members: every entry round-trips
    /// (`position(key, member)` is the member's recorded position under
    /// `key`, `None` when it is no live member filed there), no empty list
    /// is kept, and the lists hold `len` members in total. `slugs` names
    /// the `[position, size, empty-list]` invariants in the store's words.
    pub fn audit(
        &self,
        store: &'static str,
        what: &str,
        slugs: [&'static str; 3],
        len: usize,
        position: impl Fn(K, u32) -> Option<u32>,
        out: &mut Vec<AuditViolation>,
    ) {
        let mut report = |invariant, detail| out.push(AuditViolation { store, invariant, detail });
        for (&key, list) in &self.lists {
            if list.is_empty() {
                report(slugs[2], format!("{what}: key {key:?} lists no rows"));
            }
            for (pos, &m) in list.iter().enumerate() {
                if position(key, m) != Some(pos as u32) {
                    report(slugs[0], format!("{what}: row {m} not at {pos} of key {key:?}"));
                }
            }
        }
        let listed: usize = self.lists.values().map(Vec::len).sum();
        if listed != len {
            report(slugs[1], format!("{what}: {listed} listed rows vs {len} live"));
        }
    }
}

/// Null node link of [`NodeView`] / [`ItemView`].
pub const NIL: u32 = u32::MAX;

/// One MS-tree node as [`audit_tree`] reads it; the fields mirror the
/// trees' node fields of the same names.
#[derive(Clone, Copy, Debug)]
pub struct NodeView {
    /// Data edge id, or the component handle of an `L₀` node.
    pub payload: u64,
    /// Timestamp of the match's newest edge.
    pub ts: u64,
    /// Parent node ([`NIL`] at level 0).
    pub parent: u32,
    /// Previous node of the item list ([`NIL`] at the head).
    pub prev: u32,
    /// Next node of the item list ([`NIL`] at the tail).
    pub next: u32,
    /// Marked dead by a cascade.
    pub dead: bool,
    /// The item the node records, where the tree records one.
    pub item: Option<u32>,
    /// Join key the node is filed under.
    pub key: JoinKey,
    /// Position in its `L₀` referencer list (`L₀` nodes only).
    pub ref_pos: u32,
}

/// One MS-tree item list as [`audit_tree`] reads it.
#[derive(Clone, Copy, Debug)]
pub struct ItemView<'a> {
    /// First node ([`NIL`] when empty).
    pub head: u32,
    /// Last node ([`NIL`] when empty).
    pub tail: u32,
    /// Recorded live count.
    pub len: usize,
    /// The item's join-key index.
    pub index: &'a KeyIndex,
    /// The item's referencer lists, where the tree keeps them for it
    /// (they must be empty on a subquery item).
    pub refs: Option<&'a RefLists<u64>>,
}

/// The audit both MS-trees (serial and concurrent) share. Items are
/// numbered the way both trees number them: each subquery's levels in
/// order, then the `L₀` items; `item(i, f)` calls `f` with item `i`'s
/// view (the concurrent tree under that item's list mutex), and `links`
/// reads the nodes' key links. It checks:
///
/// * every item list — cycles, dead nodes still linked, backlinks,
///   membership, timestamp order, length and tail — with the item's
///   [`KeyIndex::audit`] and [`RefLists::audit`];
/// * that subquery nodes hang under a live node one level up, `L₀` nodes
///   under the previous `L₀` item (item 1: a subquery-0 leaf), and `L₀`
///   payloads name live complete matches of their subquery;
/// * that the `arena` slots are exactly the linked nodes plus `free`.
pub fn audit_tree(
    store: &'static str,
    layout: &StoreLayout,
    node: impl Fn(u32) -> NodeView,
    links: &impl KeyLinks,
    item: impl Fn(usize, &mut dyn FnMut(ItemView<'_>)),
    free: &[u32],
    arena: usize,
) -> Vec<AuditViolation> {
    let mut out = Vec::new();
    let k = layout.k();
    let sub_item = |sub: usize, level: usize| layout.sub_lens[..sub].iter().sum::<usize>() + level;
    let l0_base = sub_item(k, 0);
    let l0_item = |i: usize| l0_base + i - 1;
    let mut live_of: Vec<HashSet<u32>> = Vec::new();
    for i in 0..l0_base + k.saturating_sub(1) {
        let mut live = HashSet::new();
        item(i, &mut |list| {
            let mut report =
                |invariant, detail| out.push(AuditViolation { store, invariant, detail });
            let (mut n, mut prev, mut prev_ts, mut rows) = (list.head, NIL, 0, Vec::new());
            while n != NIL {
                if !live.insert(n) {
                    report("list-cycle", format!("item {i}: node {n} linked twice"));
                    break;
                }
                let v = node(n);
                if v.dead {
                    report("dead-node-linked", format!("item {i}: dead node {n} is listed"));
                }
                if v.prev != prev {
                    report(
                        "list-backlink",
                        format!("item {i}: node {n} prev {} != {prev}", v.prev),
                    );
                }
                if v.item.is_some_and(|it| it as usize != i) {
                    report("list-membership", format!("item {i}: node {n} in {:?}", v.item));
                }
                if v.ts < prev_ts {
                    report("item-timestamp-order", format!("item {i}: node {n} ts < {prev_ts}"));
                }
                rows.push((n, v.key));
                (prev, prev_ts, n) = (n, v.ts, v.next);
            }
            if live.len() != list.len {
                report(
                    "item-length",
                    format!("item {i}: walked {} != len {}", live.len(), list.len),
                );
            }
            if list.tail != prev {
                report("list-tail", format!("item {i}: tail is {} not {prev}", list.tail));
            }
            let what = format!("item {i}");
            list.index.audit(store, &what, links, rows, list.len, &mut out);
            if let Some(refs) = list.refs {
                let slugs = ["referencer-position", "referencer-size", "empty-referencer-list"];
                let expect = if i >= l0_base { list.len } else { 0 };
                let position = |payload, m| {
                    let v = node(m);
                    (live.contains(&m) && v.payload == payload).then_some(v.ref_pos)
                };
                refs.audit(store, &what, slugs, expect, position, &mut out);
            }
        });
        live_of.push(live);
    }
    let mut report = |invariant, detail| out.push(AuditViolation { store, invariant, detail });
    let mut check_parent = |n: u32, parent_item: Option<usize>| {
        let parent = node(n).parent;
        let ok = match parent_item {
            None => parent == NIL,
            Some(p) => live_of[p].contains(&parent),
        };
        if !ok {
            report("dangling-parent", format!("node {n}: parent {parent} not in {parent_item:?}"));
        }
    };
    for (sub, &len) in layout.sub_lens.iter().enumerate() {
        for level in 0..len {
            for &n in &live_of[sub_item(sub, level)] {
                check_parent(n, level.checked_sub(1).map(|up| sub_item(sub, up)));
            }
        }
    }
    for i in 1..k {
        let parent_item = if i == 1 { sub_item(0, layout.sub_lens[0] - 1) } else { l0_item(i - 1) };
        for &n in &live_of[l0_item(i)] {
            check_parent(n, Some(parent_item));
        }
    }
    for i in 1..k {
        let leaves = &live_of[sub_item(i, layout.sub_lens[i] - 1)];
        for &n in &live_of[l0_item(i)] {
            let comp = node(n).payload;
            if !u32::try_from(comp).is_ok_and(|c| leaves.contains(&c)) {
                report("dangling-component", format!("L0 item {i} node {n}: no live leaf {comp}"));
            }
        }
    }
    let distinct: HashSet<u32> = free.iter().copied().collect();
    if distinct.len() != free.len() {
        report("free-list-duplicates", format!("{} free, {} distinct", free.len(), distinct.len()));
    }
    let linked: usize = live_of.iter().map(HashSet::len).sum();
    if linked + distinct.len() != arena {
        report("arena-accounting", format!("{linked} linked + {} free != {arena}", distinct.len()));
    }
    for n in live_of.iter().flatten().filter(|n| distinct.contains(n)) {
        report("free-live-overlap", format!("node {n} is both linked and on the free list"));
    }
    out
}

/// Store layout: the expansion-list lengths per subquery, in join order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreLayout {
    /// `sub_lens[i]` = number of edges (= items) of subquery `i`'s list.
    pub sub_lens: Vec<usize>,
}

impl StoreLayout {
    /// Number of subqueries `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.sub_lens.len()
    }
}

/// Storage for all expansion lists of one query plan. Every store is
/// also [`StoreAudit`]-able so tests and the `debug-audit` engine hooks
/// can sweep all documented invariants in one call.
pub trait MatchStore: StoreAudit {
    /// Creates an empty store for the layout.
    fn new(layout: StoreLayout) -> Self
    where
        Self: Sized;

    /// Iterates all matches of subquery `sub`'s item `level`; the slice
    /// holds the `level + 1` data edges in timing-sequence order.
    fn for_each_sub(&self, sub: usize, level: usize, f: &mut dyn FnMut(Handle, &[EdgeId]));

    /// Iterates only the matches of subquery `sub`'s item `level` that
    /// were inserted under join key `key` — the keyed probe replacing a
    /// full [`MatchStore::for_each_sub`] scan (see the module docs; the
    /// callback contract is identical).
    fn for_each_sub_keyed(
        &self,
        sub: usize,
        level: usize,
        key: JoinKey,
        f: &mut dyn FnMut(Handle, &[EdgeId]),
    ) {
        self.for_each_sub_keyed_from(sub, level, key, 0, f);
    }

    /// Like [`MatchStore::for_each_sub_keyed`], but visits only the bucket
    /// prefix of matches strictly older than `cutoff_ts`, oldest first:
    /// the key list is timestamp-ordered (module docs), so the walk stops
    /// at the first newer match instead of filtering per candidate.
    fn for_each_sub_keyed_before(
        &self,
        sub: usize,
        level: usize,
        key: JoinKey,
        cutoff_ts: u64,
        f: &mut dyn FnMut(Handle, &[EdgeId]),
    );

    /// Like [`MatchStore::for_each_sub_keyed`], but visits only the bucket
    /// suffix of matches with timestamp `≥ min_ts`, oldest first (found by
    /// a walk back from the newest match; `min_ts == 0` is the whole
    /// bucket).
    fn for_each_sub_keyed_from(
        &self,
        sub: usize,
        level: usize,
        key: JoinKey,
        min_ts: u64,
        f: &mut dyn FnMut(Handle, &[EdgeId]),
    );

    /// Inserts a match of subquery `sub` at `level`, extending `parent`
    /// (which must be a handle from item `level − 1`, or [`ROOT`] when
    /// `level == 0`) with `edge`, filed under join key `key` for later
    /// keyed iteration. `ts` is the arrival timestamp of `edge` (the
    /// match's newest edge); it must be no older than anything already
    /// stored in the item (the ordered-bucket invariant, checked in debug
    /// builds). Returns the new match's handle.
    fn insert_sub(
        &mut self,
        sub: usize,
        level: usize,
        parent: Handle,
        edge: EdgeId,
        ts: u64,
        key: JoinKey,
    ) -> Handle;

    /// Iterates all matches of `L₀`'s item `i` (`1 ≤ i < k`); the slice
    /// holds `i + 1` component handles, component `j` being a complete
    /// match of subquery `j`.
    fn for_each_l0(&self, i: usize, f: &mut dyn FnMut(Handle, &[Handle]));

    /// Iterates only the `L₀` item-`i` rows inserted under join key `key`
    /// (keyed counterpart of [`MatchStore::for_each_l0`]).
    fn for_each_l0_keyed(&self, i: usize, key: JoinKey, f: &mut dyn FnMut(Handle, &[Handle])) {
        self.for_each_l0_keyed_from(i, key, 0, f);
    }

    /// Like [`MatchStore::for_each_l0_keyed`], but visits only the bucket
    /// suffix of rows with timestamp `≥ min_ts`, oldest first (found by a
    /// walk back from the newest row; `min_ts == 0` is the whole bucket).
    fn for_each_l0_keyed_from(
        &self,
        i: usize,
        key: JoinKey,
        min_ts: u64,
        f: &mut dyn FnMut(Handle, &[Handle]),
    );

    /// Inserts into `L₀` item `i` (`1 ≤ i < k`): `parent` is a handle from
    /// `L₀` item `i − 1` — which for `i == 1` is a complete-match handle of
    /// subquery 0 (the aliased first item) — and `comp` is a complete-match
    /// handle of subquery `i`. The row is filed under join key `key` with
    /// timestamp `ts` (the row's newest component's newest edge — the
    /// arrival that completed the row; same ordering contract as
    /// [`MatchStore::insert_sub`]).
    fn insert_l0(
        &mut self,
        i: usize,
        parent: Handle,
        comp: Handle,
        ts: u64,
        key: JoinKey,
    ) -> Handle;

    /// Appends the data edges of a complete or partial subquery match (in
    /// timing-sequence order) to `out`.
    fn expand_sub(&self, sub: usize, handle: Handle, out: &mut Vec<EdgeId>);

    /// Deletes every partial match containing `edge`, which can only occur
    /// at the given (subquery, level) positions, cascading through deeper
    /// items and `L₀` (Algorithm 2). `ts` must be `edge`'s arrival
    /// timestamp: the position scans walk items oldest-first and stop at
    /// the first entry newer than `ts` (every entry whose newest edge is
    /// `edge` carries exactly `ts`). Removals preserve the ordered-bucket
    /// invariant: each dying row is unlinked from its key list in place
    /// (see the module docs). Returns the number of partial matches
    /// removed (over all items).
    fn expire_edge(&mut self, edge: EdgeId, ts: u64, positions: &[(usize, usize)]) -> usize;

    /// Inert: [`ExpiryMode`] has one variant, so there is nothing to
    /// select. Kept only because the frozen benchmark's `TracedStore`
    /// implements it; queued, with [`ExpiryMode`], for the benchmark PR
    /// that drops it there. No store overrides it.
    fn set_expiry_mode(&mut self, _mode: ExpiryMode) {}

    /// Inert (expiry has no deferred maintenance: every dying row leaves
    /// its key list at once), kept only because
    /// the frozen benchmark's `TracedStore` implements it. Queued, with
    /// [`MatchStore::set_expiry_mode`], for the benchmark PR that drops it
    /// there. No store overrides it.
    fn set_maintenance_fuel(&mut self, _tank: Option<u64>) {}

    /// Inert since PR 14; see [`MatchStore::set_maintenance_fuel`].
    fn refuel(&mut self, _budget: u64) {}

    /// Inert since PR 14; see [`MatchStore::set_maintenance_fuel`].
    fn settle_maintenance(&mut self) {}

    /// Always `0` since PR 14; see [`MatchStore::set_maintenance_fuel`].
    fn deferred_maintenance(&self) -> usize {
        0
    }

    /// Number of matches in subquery `sub`'s item `level`.
    fn len_sub(&self, sub: usize, level: usize) -> usize;

    /// Number of matches in `L₀`'s item `i` (`1 ≤ i < k`).
    fn len_l0(&self, i: usize) -> usize;

    /// Approximate bytes of partial-match state held.
    fn space_bytes(&self) -> usize;
}

/// Shared conformance tests run against both store implementations (called
/// from each implementation's test module). Uses a 2-subquery layout:
/// sub 0 with 3 levels, sub 1 with 2 levels. Inserts carry arbitrary
/// engine-chosen join keys; where a test is not about keyed reads it keys
/// every match by its newest edge id, which exercises multi-bucket items
/// without changing the semantics under test.
#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
pub(crate) mod conformance {
    use super::*;

    fn e(x: u64) -> EdgeId {
        EdgeId(x)
    }

    fn layout() -> StoreLayout {
        StoreLayout { sub_lens: vec![3, 2] }
    }

    /// Key convention for tests that are not about keyed reads.
    fn k(edge: u64) -> JoinKey {
        edge
    }

    fn collect_sub<S: MatchStore>(s: &S, sub: usize, level: usize) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        s.for_each_sub(sub, level, &mut |_, edges| {
            out.push(edges.iter().map(|x| x.0).collect());
        });
        out.sort();
        out
    }

    fn collect_sub_keyed<S: MatchStore>(
        s: &S,
        sub: usize,
        level: usize,
        key: JoinKey,
    ) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        s.for_each_sub_keyed(sub, level, key, &mut |_, edges| {
            out.push(edges.iter().map(|x| x.0).collect());
        });
        out.sort();
        out
    }

    fn collect_l0<S: MatchStore>(s: &S, i: usize) -> Vec<Vec<Handle>> {
        let mut out = Vec::new();
        s.for_each_l0(i, &mut |_, comps| out.push(comps.to_vec()));
        out.sort();
        out
    }

    fn collect_l0_keyed<S: MatchStore>(s: &S, i: usize, key: JoinKey) -> Vec<Vec<Handle>> {
        let mut out = Vec::new();
        s.for_each_l0_keyed(i, key, &mut |_, comps| out.push(comps.to_vec()));
        out.sort();
        out
    }

    pub fn insert_read_roundtrip<S: MatchStore>() {
        let mut s = S::new(layout());
        let a = s.insert_sub(0, 0, ROOT, e(1), 1, k(1));
        let b = s.insert_sub(0, 1, a, e(2), 2, k(2));
        let _c1 = s.insert_sub(0, 2, b, e(3), 3, k(3));
        let _c2 = s.insert_sub(0, 2, b, e(4), 4, k(4));
        assert_eq!(s.len_sub(0, 0), 1);
        assert_eq!(s.len_sub(0, 1), 1);
        assert_eq!(s.len_sub(0, 2), 2);
        assert_eq!(collect_sub(&s, 0, 0), vec![vec![1]]);
        assert_eq!(collect_sub(&s, 0, 1), vec![vec![1, 2]]);
        assert_eq!(collect_sub(&s, 0, 2), vec![vec![1, 2, 3], vec![1, 2, 4]]);
    }

    pub fn expand_matches_read<S: MatchStore>() {
        let mut s = S::new(layout());
        let a = s.insert_sub(0, 0, ROOT, e(1), 1, k(1));
        let b = s.insert_sub(0, 1, a, e(2), 2, k(2));
        let c = s.insert_sub(0, 2, b, e(3), 3, k(3));
        let mut out = Vec::new();
        s.expand_sub(0, c, &mut out);
        assert_eq!(out, vec![e(1), e(2), e(3)]);
    }

    pub fn l0_components_roundtrip<S: MatchStore>() {
        let mut s = S::new(layout());
        // Complete match of sub 0: 1-2-3.
        let a = s.insert_sub(0, 0, ROOT, e(1), 1, k(1));
        let b = s.insert_sub(0, 1, a, e(2), 2, k(2));
        let c0 = s.insert_sub(0, 2, b, e(3), 3, k(3));
        // Complete match of sub 1: 10-11.
        let x = s.insert_sub(1, 0, ROOT, e(10), 10, k(10));
        let c1 = s.insert_sub(1, 1, x, e(11), 11, k(11));
        let h = s.insert_l0(1, c0, c1, 11, 77);
        assert_eq!(s.len_l0(1), 1);
        let rows = collect_l0(&s, 1);
        assert_eq!(rows, vec![vec![c0, c1]]);
        let _ = h;
        // Expansion of the components recovers the edges.
        let mut e0 = Vec::new();
        s.expand_sub(0, rows[0][0], &mut e0);
        assert_eq!(e0, vec![e(1), e(2), e(3)]);
        let mut e1 = Vec::new();
        s.expand_sub(1, rows[0][1], &mut e1);
        assert_eq!(e1, vec![e(10), e(11)]);
    }

    pub fn expire_cascades_within_sub<S: MatchStore>() {
        let mut s = S::new(layout());
        let a = s.insert_sub(0, 0, ROOT, e(1), 1, k(1));
        let b = s.insert_sub(0, 1, a, e(2), 2, k(2));
        s.insert_sub(0, 2, b, e(3), 3, k(3));
        s.insert_sub(0, 2, b, e(4), 4, k(4));
        // Expire e(1): everything dies (positions say e(1) sits at (0,0)).
        let n = s.expire_edge(e(1), 1, &[(0, 0)]);
        assert_eq!(n, 4, "1 + 1 + 2 partial matches removed");
        assert_eq!(s.len_sub(0, 0), 0);
        assert_eq!(s.len_sub(0, 1), 0);
        assert_eq!(s.len_sub(0, 2), 0);
    }

    pub fn expire_middle_level_keeps_prefix<S: MatchStore>() {
        let mut s = S::new(layout());
        let a = s.insert_sub(0, 0, ROOT, e(1), 1, k(1));
        let b = s.insert_sub(0, 1, a, e(2), 2, k(2));
        s.insert_sub(0, 2, b, e(3), 3, k(3));
        let n = s.expire_edge(e(2), 2, &[(0, 1)]);
        assert_eq!(n, 2);
        assert_eq!(s.len_sub(0, 0), 1, "prefix {{1}} survives");
        assert_eq!(s.len_sub(0, 1), 0);
        assert_eq!(s.len_sub(0, 2), 0);
    }

    pub fn expire_cleans_l0<S: MatchStore>() {
        let mut s = S::new(layout());
        let a = s.insert_sub(0, 0, ROOT, e(1), 1, k(1));
        let b = s.insert_sub(0, 1, a, e(2), 2, k(2));
        let c0 = s.insert_sub(0, 2, b, e(3), 3, k(3));
        let x = s.insert_sub(1, 0, ROOT, e(10), 10, k(10));
        let c1 = s.insert_sub(1, 1, x, e(11), 11, k(11));
        s.insert_l0(1, c0, c1, 11, 77);

        // Expiring e(10) kills sub 1's matches and the L0 row.
        let n = s.expire_edge(e(10), 10, &[(1, 0)]);
        assert_eq!(n, 3, "{{10}}, {{10,11}} and the L0 row");
        assert_eq!(s.len_l0(1), 0);
        assert_eq!(s.len_sub(0, 2), 1, "sub 0 untouched");

        // Rebuild sub 1 and the join, then expire via sub 0's root edge:
        // the L0 row must die through the component-0 side too.
        let x2 = s.insert_sub(1, 0, ROOT, e(20), 20, k(20));
        let c12 = s.insert_sub(1, 1, x2, e(21), 21, k(21));
        s.insert_l0(1, c0, c12, 21, 77);
        assert_eq!(s.len_l0(1), 1);
        let n2 = s.expire_edge(e(1), 1, &[(0, 0)]);
        assert_eq!(n2, 4, "three sub-0 prefixes + 1 L0 row");
        assert_eq!(s.len_l0(1), 0);
        assert_eq!(s.len_sub(1, 1), 1, "sub 1 intact");
    }

    pub fn expire_ignores_unrelated_edges<S: MatchStore>() {
        let mut s = S::new(layout());
        let a = s.insert_sub(0, 0, ROOT, e(1), 1, k(1));
        s.insert_sub(0, 1, a, e(2), 2, k(2));
        let n = s.expire_edge(e(99), 99, &[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]);
        assert_eq!(n, 0);
        assert_eq!(s.len_sub(0, 0), 1);
        assert_eq!(s.len_sub(0, 1), 1);
    }

    pub fn space_grows_and_shrinks<S: MatchStore>() {
        let mut s = S::new(layout());
        let base = s.space_bytes();
        let a = s.insert_sub(0, 0, ROOT, e(1), 1, k(1));
        let b = s.insert_sub(0, 1, a, e(2), 2, k(2));
        s.insert_sub(0, 2, b, e(3), 3, k(3));
        let grown = s.space_bytes();
        assert!(grown > base);
        s.expire_edge(e(1), 1, &[(0, 0)]);
        assert!(s.space_bytes() <= grown);
    }

    pub fn three_sub_l0_chain<S: MatchStore>() {
        // k = 3 with single-edge subqueries: the L0 list is a 2-level trie.
        let mut s = S::new(StoreLayout { sub_lens: vec![1, 1, 1] });
        let c0 = s.insert_sub(0, 0, ROOT, e(1), 1, k(1));
        let c1 = s.insert_sub(1, 0, ROOT, e(2), 2, k(2));
        let c2a = s.insert_sub(2, 0, ROOT, e(3), 3, k(3));
        let c2b = s.insert_sub(2, 0, ROOT, e(4), 4, k(4));
        let u01 = s.insert_l0(1, c0, c1, 2, 77);
        s.insert_l0(2, u01, c2a, 3, 77);
        s.insert_l0(2, u01, c2b, 4, 77);
        assert_eq!(s.len_l0(1), 1);
        assert_eq!(s.len_l0(2), 2);
        let mut rows = Vec::new();
        s.for_each_l0(2, &mut |_, comps| rows.push(comps.to_vec()));
        rows.sort();
        assert_eq!(rows, vec![vec![c0, c1, c2a], vec![c0, c1, c2b]]);
        // Expire the middle subquery's edge: both full rows and u01 die.
        let n = s.expire_edge(e(2), 2, &[(1, 0)]);
        assert_eq!(n, 4, "{{2}}, u01, and two level-2 rows");
        assert_eq!(s.len_l0(1), 0);
        assert_eq!(s.len_l0(2), 0);
        assert_eq!(s.len_sub(2, 0), 2);
    }

    /// Full scan of an item, filtered to the rows whose insertion key was
    /// `key` — the reference semantics every keyed read must reproduce.
    fn filtered_scan<S: MatchStore>(
        s: &S,
        sub: usize,
        level: usize,
        key: JoinKey,
        key_of: &std::collections::HashMap<Vec<u64>, JoinKey>,
    ) -> Vec<Vec<u64>> {
        let mut out: Vec<Vec<u64>> = Vec::new();
        s.for_each_sub(sub, level, &mut |_, edges| {
            let row: Vec<u64> = edges.iter().map(|x| x.0).collect();
            if key_of[&row] == key {
                out.push(row);
            }
        });
        out.sort();
        out
    }

    pub fn keyed_sub_read_equals_filtered_scan<S: MatchStore>() {
        let mut s = S::new(layout());
        // Two prefix trees fanned out over three distinct keys at level 2,
        // with one key shared across parents.
        let mut key_of: std::collections::HashMap<Vec<u64>, JoinKey> =
            std::collections::HashMap::new();
        let a = s.insert_sub(0, 0, ROOT, e(1), 1, 100);
        key_of.insert(vec![1], 100);
        let a2 = s.insert_sub(0, 0, ROOT, e(2), 2, 101);
        key_of.insert(vec![2], 101);
        let b = s.insert_sub(0, 1, a, e(3), 3, 200);
        key_of.insert(vec![1, 3], 200);
        let b2 = s.insert_sub(0, 1, a2, e(4), 4, 200);
        key_of.insert(vec![2, 4], 200);
        for (parent, prefix, edge, key) in [
            (b, vec![1u64, 3], 10u64, 300u64),
            (b, vec![1, 3], 11, 301),
            (b2, vec![2, 4], 12, 300),
            (b2, vec![2, 4], 13, 302),
        ] {
            let mut row = prefix.clone();
            row.push(edge);
            key_of.insert(row, key);
            s.insert_sub(0, 2, parent, e(edge), edge, key);
        }
        for key in [100u64, 101, 200, 300, 301, 302, 999] {
            for level in 0..3 {
                assert_eq!(
                    collect_sub_keyed(&s, 0, level, key),
                    filtered_scan(&s, 0, level, key, &key_of),
                    "level {level} key {key}"
                );
            }
        }
        // Keyed reads over all used keys cover the full scan exactly.
        let mut union: Vec<Vec<u64>> =
            [300u64, 301, 302].iter().flat_map(|&key| collect_sub_keyed(&s, 0, 2, key)).collect();
        union.sort();
        assert_eq!(union, collect_sub(&s, 0, 2));
    }

    pub fn keyed_reads_stay_coherent_after_expire<S: MatchStore>() {
        let mut s = S::new(layout());
        let a = s.insert_sub(0, 0, ROOT, e(1), 1, 100);
        let a2 = s.insert_sub(0, 0, ROOT, e(2), 2, 100);
        let b = s.insert_sub(0, 1, a, e(3), 3, 200);
        let b2 = s.insert_sub(0, 1, a2, e(4), 4, 200);
        s.insert_sub(0, 2, b, e(10), 10, 300);
        s.insert_sub(0, 2, b, e(11), 11, 300);
        s.insert_sub(0, 2, b2, e(12), 12, 300);
        // Expire e(3): the cascade kills {1,3}, {1,3,10}, {1,3,11} and
        // must remove them from the shared 200/300 buckets, leaving the
        // sibling tree intact in the same buckets.
        let n = s.expire_edge(e(3), 3, &[(0, 1)]);
        assert_eq!(n, 3);
        assert_eq!(collect_sub_keyed(&s, 0, 0, 100), vec![vec![1], vec![2]]);
        assert_eq!(collect_sub_keyed(&s, 0, 1, 200), vec![vec![2, 4]]);
        assert_eq!(collect_sub_keyed(&s, 0, 2, 300), vec![vec![2, 4, 12]]);
        // Root expiries empty the buckets completely ({1} survived the
        // level-1 cascade above).
        s.expire_edge(e(1), 1, &[(0, 0)]);
        s.expire_edge(e(2), 2, &[(0, 0)]);
        assert!(collect_sub_keyed(&s, 0, 0, 100).is_empty());
        assert!(collect_sub_keyed(&s, 0, 1, 200).is_empty());
        assert!(collect_sub_keyed(&s, 0, 2, 300).is_empty());
        // Buckets are reusable after emptying.
        s.insert_sub(0, 0, ROOT, e(9), 9, 100);
        assert_eq!(collect_sub_keyed(&s, 0, 0, 100), vec![vec![9]]);
    }

    fn collect_sub_keyed_before<S: MatchStore>(
        s: &S,
        sub: usize,
        level: usize,
        key: JoinKey,
        cutoff: u64,
    ) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        s.for_each_sub_keyed_before(sub, level, key, cutoff, &mut |_, edges| {
            out.push(edges.iter().map(|x| x.0).collect());
        });
        out
    }

    fn collect_sub_keyed_from<S: MatchStore>(
        s: &S,
        sub: usize,
        level: usize,
        key: JoinKey,
        min_ts: u64,
    ) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        s.for_each_sub_keyed_from(sub, level, key, min_ts, &mut |_, edges| {
            out.push(edges.iter().map(|x| x.0).collect());
        });
        out
    }

    /// Deterministic range-read check: with the ts = edge-id convention,
    /// `keyed_before(c)` must equal the keyed read filtered to newest-edge
    /// ts < c, and `keyed_from(m)` the ≥ m suffix, for every cutoff.
    pub fn keyed_range_reads_equal_filtered_iteration<S: MatchStore>() {
        let mut s = S::new(layout());
        let a = s.insert_sub(0, 0, ROOT, e(1), 1, 100);
        let a2 = s.insert_sub(0, 0, ROOT, e(2), 2, 100);
        for (parent, edge, key) in
            [(a, 3u64, 200u64), (a2, 4, 200), (a, 5, 200), (a2, 6, 201), (a, 7, 200)]
        {
            s.insert_sub(0, 1, parent, e(edge), edge, key);
        }
        for key in [100u64, 200, 201, 999] {
            for level in 0..2 {
                // Unbounded range reads equal the plain keyed read.
                let full: Vec<Vec<u64>> = {
                    let mut out = Vec::new();
                    s.for_each_sub_keyed(0, level, key, &mut |_, edges| {
                        out.push(edges.iter().map(|x| x.0).collect());
                    });
                    out
                };
                assert_eq!(collect_sub_keyed_before::<S>(&s, 0, level, key, u64::MAX), full);
                assert_eq!(collect_sub_keyed_from::<S>(&s, 0, level, key, 0), full);
                for cutoff in 0..9u64 {
                    let prefix: Vec<Vec<u64>> = full
                        .iter()
                        .filter(|row| *row.last().expect("nonempty") < cutoff)
                        .cloned()
                        .collect();
                    let suffix: Vec<Vec<u64>> = full
                        .iter()
                        .filter(|row| *row.last().expect("nonempty") >= cutoff)
                        .cloned()
                        .collect();
                    assert_eq!(
                        collect_sub_keyed_before::<S>(&s, 0, level, key, cutoff),
                        prefix,
                        "level {level} key {key} cutoff {cutoff}"
                    );
                    assert_eq!(
                        collect_sub_keyed_from::<S>(&s, 0, level, key, cutoff),
                        suffix,
                        "level {level} key {key} min {cutoff}"
                    );
                }
            }
        }
    }

    /// The ordered-bucket property test: after any interleaving of keyed
    /// inserts (extensions included) and `expire_edge` cascades, every
    /// bucket iterates in nondecreasing newest-edge-timestamp order and
    /// early-exit range iteration equals filtered full iteration. Uses the
    /// ts = edge-id convention so row timestamps are recoverable from the
    /// emitted edges.
    pub fn ordered_buckets_survive_random_ops<S: MatchStore>() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
            let mut s = S::new(StoreLayout { sub_lens: vec![3] });
            for t in 1..=160u64 {
                // Current rows per level as (handle, newest edge id).
                let rows_at = |s: &S, level: usize| {
                    let mut rows: Vec<(Handle, u64)> = Vec::new();
                    s.for_each_sub(0, level, &mut |h, edges| {
                        rows.push((h, edges.last().expect("nonempty").0));
                    });
                    rows
                };
                match rng.gen_range(0..4u32) {
                    0 => {
                        // Expire the newest edge of a random live row at a
                        // random level (its (0, level) position).
                        let level = rng.gen_range(0..3usize);
                        let rows = rows_at(&s, level);
                        if let Some(&(_, edge)) = rows.get(rng.gen_range(0..rows.len().max(1))) {
                            s.expire_edge(e(edge), edge, &[(0, level)]);
                        }
                    }
                    1 => {
                        s.insert_sub(0, 0, ROOT, e(t), t, t % 3);
                    }
                    _ => {
                        // Extend a random level-0 or level-1 row.
                        let level = rng.gen_range(0..2usize);
                        let rows = rows_at(&s, level);
                        if rows.is_empty() {
                            s.insert_sub(0, 0, ROOT, e(t), t, t % 3);
                        } else {
                            let (parent, _) = rows[rng.gen_range(0..rows.len())];
                            s.insert_sub(0, level + 1, parent, e(t), t, t % 3);
                        }
                    }
                }
                // Invariant: the full audit sweep passes, every bucket is
                // newest-edge-ts ordered and range reads equal filtered
                // full iteration.
                s.assert_clean();
                for level in 0..3usize {
                    for key in 0..3u64 {
                        let full: Vec<Vec<u64>> = {
                            let mut out = Vec::new();
                            s.for_each_sub_keyed(0, level, key, &mut |_, edges| {
                                out.push(edges.iter().map(|x| x.0).collect());
                            });
                            out
                        };
                        for w in full.windows(2) {
                            assert!(
                                w[0].last() <= w[1].last(),
                                "seed {seed} t {t}: bucket ({level}, {key}) out of order"
                            );
                        }
                        for cutoff in [0, t / 2, t, u64::MAX] {
                            let prefix: Vec<Vec<u64>> = full
                                .iter()
                                .filter(|r| *r.last().expect("nonempty") < cutoff)
                                .cloned()
                                .collect();
                            assert_eq!(
                                collect_sub_keyed_before::<S>(&s, 0, level, key, cutoff),
                                prefix,
                                "seed {seed} t {t} level {level} key {key} cutoff {cutoff}"
                            );
                            let suffix: Vec<Vec<u64>> = full
                                .iter()
                                .filter(|r| *r.last().expect("nonempty") >= cutoff)
                                .cloned()
                                .collect();
                            assert_eq!(
                                collect_sub_keyed_from::<S>(&s, 0, level, key, cutoff),
                                suffix,
                                "seed {seed} t {t} level {level} key {key} min {cutoff}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Ordered-bucket property for `L₀` rows: random leaf inserts, row
    /// inserts and expiries; `for_each_l0_keyed_from` must always equal
    /// the filtered keyed iteration, in insertion (timestamp) order.
    pub fn ordered_l0_buckets_survive_random_ops<S: MatchStore>() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0xabcd_1234));
            let mut s = S::new(StoreLayout { sub_lens: vec![1, 1] });
            // Row timestamps tracked by the component edge-id pair (edge
            // ids are never reused, unlike handles).
            let mut row_ts: std::collections::HashMap<(u64, u64), u64> =
                std::collections::HashMap::new();
            let mut joined: std::collections::HashSet<(u64, u64)> =
                std::collections::HashSet::new();
            for t in 1..=120u64 {
                let leaves = |s: &S, sub: usize| {
                    let mut rows: Vec<(Handle, u64)> = Vec::new();
                    s.for_each_sub(sub, 0, &mut |h, edges| rows.push((h, edges[0].0)));
                    rows
                };
                match rng.gen_range(0..4u32) {
                    0 => {
                        s.insert_sub(0, 0, ROOT, e(t), t, t % 2);
                    }
                    1 => {
                        s.insert_sub(1, 0, ROOT, e(t), t, t % 2);
                    }
                    2 => {
                        // Join a random pair not joined yet.
                        let l0 = leaves(&s, 0);
                        let l1 = leaves(&s, 1);
                        if !l0.is_empty() && !l1.is_empty() {
                            let (c0, e0) = l0[rng.gen_range(0..l0.len())];
                            let (c1, e1) = l1[rng.gen_range(0..l1.len())];
                            if joined.insert((e0, e1)) {
                                s.insert_l0(1, c0, c1, t, t % 2);
                                row_ts.insert((e0, e1), t);
                            }
                        }
                    }
                    _ => {
                        // Expire a random live leaf edge of either sub.
                        let sub = rng.gen_range(0..2usize);
                        let rows = leaves(&s, sub);
                        if let Some(&(_, edge)) = rows.get(rng.gen_range(0..rows.len().max(1))) {
                            s.expire_edge(e(edge), edge, &[(sub, 0)]);
                            joined.retain(|&(e0, e1)| {
                                let gone = if sub == 0 { e0 == edge } else { e1 == edge };
                                if gone {
                                    row_ts.remove(&(e0, e1));
                                }
                                !gone
                            });
                        }
                    }
                }
                s.assert_clean();
                // Rows as component edge-id pairs, via expansion.
                let expand_pair = |s: &S, comps: &[Handle]| {
                    let mut e0 = Vec::new();
                    s.expand_sub(0, comps[0], &mut e0);
                    let mut e1 = Vec::new();
                    s.expand_sub(1, comps[1], &mut e1);
                    (e0[0].0, e1[0].0)
                };
                for key in 0..2u64 {
                    let mut full: Vec<(u64, u64)> = Vec::new();
                    s.for_each_l0_keyed(1, key, &mut |_, comps| {
                        full.push(expand_pair(&s, comps));
                    });
                    for w in full.windows(2) {
                        assert!(
                            row_ts[&w[0]] <= row_ts[&w[1]],
                            "seed {seed} t {t}: L0 bucket {key} out of order"
                        );
                    }
                    for min_ts in [0, t / 2, t, u64::MAX] {
                        let expect: Vec<(u64, u64)> =
                            full.iter().filter(|p| row_ts[p] >= min_ts).cloned().collect();
                        let mut got: Vec<(u64, u64)> = Vec::new();
                        s.for_each_l0_keyed_from(1, key, min_ts, &mut |_, comps| {
                            got.push(expand_pair(&s, comps));
                        });
                        assert_eq!(got, expect, "seed {seed} t {t} key {key} min {min_ts}");
                    }
                }
            }
        }
    }

    /// Regression (same-cascade bucket staleness): two rows in the SAME
    /// key list dying in one `expire_edge` cascade must both be unlinked,
    /// and a survivor behind them must keep valid links so a *follow-up*
    /// expiry can remove it too.
    pub fn same_bucket_double_death_in_one_cascade<S: MatchStore>() {
        let mut s = S::new(StoreLayout { sub_lens: vec![2] });
        let a1 = s.insert_sub(0, 0, ROOT, e(1), 1, 5);
        let a2 = s.insert_sub(0, 0, ROOT, e(2), 2, 5);
        // Three level-1 extensions sharing ONE bucket (key 7): two under
        // a1 (both die in a1's cascade), one under a2.
        s.insert_sub(0, 1, a1, e(3), 3, 7);
        s.insert_sub(0, 1, a1, e(4), 4, 7);
        s.insert_sub(0, 1, a2, e(5), 5, 7);
        let n = s.expire_edge(e(1), 1, &[(0, 0)]);
        assert_eq!(n, 3, "a1 and its two same-bucket children");
        assert_eq!(collect_sub_keyed(&s, 0, 0, 5), vec![vec![2]]);
        assert_eq!(collect_sub_keyed(&s, 0, 1, 7), vec![vec![2, 5]]);
        // The survivor's links must still be exact: expiring a2 unlinks
        // {2,5} from the list the first cascade left.
        let n2 = s.expire_edge(e(2), 2, &[(0, 0)]);
        assert_eq!(n2, 2);
        assert!(collect_sub_keyed(&s, 0, 1, 7).is_empty());
        assert_eq!(s.len_sub(0, 0), 0);
        assert_eq!(s.len_sub(0, 1), 0);
        // Buckets are reusable after a full drain.
        let b1 = s.insert_sub(0, 0, ROOT, e(10), 10, 5);
        s.insert_sub(0, 1, b1, e(11), 11, 7);
        assert_eq!(collect_sub_keyed(&s, 0, 1, 7), vec![vec![10, 11]]);
    }

    /// Interior deaths with a live front: a2's child heads key 7's list,
    /// then nine children of a1, then a second child of a2. Expiring a1
    /// kills the nine interior rows in one cascade; each is unlinked in
    /// place, so the list reads back as its two survivors, whose links a
    /// follow-up expiry of a2 then follows. `indexed(s)` says whether sub
    /// 0 level 1 still files anything under key 7.
    pub fn interior_deaths_unlink_in_place<S: MatchStore>(indexed: fn(&S) -> bool) {
        let mut s = S::new(StoreLayout { sub_lens: vec![2] });
        let a1 = s.insert_sub(0, 0, ROOT, e(1), 1, 5);
        let a2 = s.insert_sub(0, 0, ROOT, e(2), 2, 5);
        for t in 3..=13 {
            s.insert_sub(0, 1, if t == 3 || t == 13 { a2 } else { a1 }, e(t), t, 7);
        }
        assert_eq!(s.expire_edge(e(1), 1, &[(0, 0)]), 10, "a1 and its nine children");
        assert!(indexed(&s), "key 7 keeps two rows");
        s.assert_clean();
        assert_eq!(collect_sub_keyed(&s, 0, 1, 7), vec![vec![2, 3], vec![2, 13]]);
        assert_eq!(s.expire_edge(e(2), 2, &[(0, 0)]), 3, "a2 and both survivors");
        assert!(!indexed(&s), "key 7 is gone");
        s.assert_clean();
    }

    /// State follows the live rows, not the history: 1,000 rows filed
    /// under 10 keys, the oldest 990 expired, must hold exactly the bytes
    /// of a fresh store fed only the 10 survivors.
    pub fn state_tracks_live_rows<S: MatchStore>() {
        let layout = || StoreLayout { sub_lens: vec![1] };
        let (mut s, mut fresh) = (S::new(layout()), S::new(layout()));
        for t in 1..=1000u64 {
            s.insert_sub(0, 0, ROOT, e(t), t, t % 10);
        }
        for t in 1..=990u64 {
            assert_eq!(s.expire_edge(e(t), t, &[(0, 0)]), 1);
        }
        for t in 991..=1000u64 {
            fresh.insert_sub(0, 0, ROOT, e(t), t, t % 10);
        }
        s.assert_clean();
        assert_eq!(s.len_sub(0, 0), 10);
        assert_eq!(s.space_bytes(), fresh.space_bytes());
    }

    /// The key-list property test: a naive model (rows per level in
    /// insertion order, retain-based expiry) must stay indistinguishable
    /// from the real store through any interleaving of inserts,
    /// oldest-prefix expiries and scattered descendant deaths. Uses the
    /// ts = edge-id convention and two fat key lists per item, so deaths
    /// land at the head, the tail and in between.
    pub fn key_lists_match_model_store<S: MatchStore>() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        #[derive(Clone)]
        struct ModelRow {
            edges: Vec<u64>,
            key: JoinKey,
        }
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0xc0ff_ee11));
            let mut s = S::new(StoreLayout { sub_lens: vec![3] });
            // model[level] in insertion (= timestamp) order; a row's ts is
            // its newest edge id.
            let mut model: Vec<Vec<ModelRow>> = vec![Vec::new(); 3];
            for t in 1..=240u64 {
                let rows_at = |s: &S, level: usize| {
                    let mut rows: Vec<(Handle, u64)> = Vec::new();
                    s.for_each_sub(0, level, &mut |h, edges| {
                        rows.push((h, edges.last().expect("nonempty").0));
                    });
                    rows
                };
                let expire = |s: &mut S, model: &mut Vec<Vec<ModelRow>>, edge: u64, pos: usize| {
                    s.expire_edge(e(edge), edge, &[(0, pos)]);
                    for rows in model.iter_mut().skip(pos) {
                        rows.retain(|r| r.edges[pos] != edge);
                    }
                };
                match rng.gen_range(0..8u32) {
                    0 | 1 => {
                        s.insert_sub(0, 0, ROOT, e(t), t, t % 2);
                        model[0].push(ModelRow { edges: vec![t], key: t % 2 });
                    }
                    2..=4 => {
                        // Extend a random level-0 or level-1 row.
                        let level = rng.gen_range(0..2usize);
                        let rows = rows_at(&s, level);
                        if rows.is_empty() {
                            s.insert_sub(0, 0, ROOT, e(t), t, t % 2);
                            model[0].push(ModelRow { edges: vec![t], key: t % 2 });
                        } else {
                            let (parent, newest) = rows[rng.gen_range(0..rows.len())];
                            s.insert_sub(0, level + 1, parent, e(t), t, t % 2);
                            let prefix = model[level]
                                .iter()
                                .find(|r| *r.edges.last().expect("nonempty") == newest)
                                .expect("model tracks every live row");
                            let mut edges = prefix.edges.clone();
                            edges.push(t);
                            model[level + 1].push(ModelRow { edges, key: t % 2 });
                        }
                    }
                    5 | 6 => {
                        // Scattered deaths: expire the newest edge of a
                        // random live row at a random level — descendants
                        // leave the middle of their key lists.
                        let level = rng.gen_range(0..3usize);
                        let rows = rows_at(&s, level);
                        if let Some(&(_, edge)) = rows.get(rng.gen_range(0..rows.len().max(1))) {
                            expire(&mut s, &mut model, edge, level);
                        }
                    }
                    _ => {
                        // Sliding-window-style front-drain: expire the
                        // OLDEST level-0 edge.
                        if let Some(&(_, edge)) = rows_at(&s, 0).iter().min_by_key(|&&(_, ts)| ts) {
                            expire(&mut s, &mut model, edge, 0);
                        }
                    }
                }
                // The store must be indistinguishable from the model: live
                // counts, unkeyed iteration (as a multiset), and keyed /
                // range iteration in exact timestamp order — and the full
                // invariant sweep must stay clean.
                s.assert_clean();
                for (level, model_rows) in model.iter().enumerate() {
                    assert_eq!(
                        s.len_sub(0, level),
                        model_rows.len(),
                        "seed {seed} t {t} level {level} len"
                    );
                    let mut unkeyed = collect_sub(&s, 0, level);
                    unkeyed.sort();
                    let mut expect_unkeyed: Vec<Vec<u64>> =
                        model_rows.iter().map(|r| r.edges.clone()).collect();
                    expect_unkeyed.sort();
                    assert_eq!(
                        unkeyed, expect_unkeyed,
                        "seed {seed} t {t} level {level} full scan"
                    );
                    for key in 0..2u64 {
                        let keyed: Vec<Vec<u64>> = {
                            let mut out = Vec::new();
                            s.for_each_sub_keyed(0, level, key, &mut |_, edges| {
                                out.push(edges.iter().map(|x| x.0).collect());
                            });
                            out
                        };
                        let expect: Vec<Vec<u64>> = model_rows
                            .iter()
                            .filter(|r| r.key == key)
                            .map(|r| r.edges.clone())
                            .collect();
                        assert_eq!(keyed, expect, "seed {seed} t {t} level {level} key {key}");
                        for cutoff in [0, t / 2, t, u64::MAX] {
                            let prefix: Vec<Vec<u64>> = expect
                                .iter()
                                .filter(|r| *r.last().expect("nonempty") < cutoff)
                                .cloned()
                                .collect();
                            assert_eq!(
                                collect_sub_keyed_before::<S>(&s, 0, level, key, cutoff),
                                prefix,
                                "seed {seed} t {t} level {level} key {key} < {cutoff}"
                            );
                            let suffix: Vec<Vec<u64>> = expect
                                .iter()
                                .filter(|r| *r.last().expect("nonempty") >= cutoff)
                                .cloned()
                                .collect();
                            assert_eq!(
                                collect_sub_keyed_from::<S>(&s, 0, level, key, cutoff),
                                suffix,
                                "seed {seed} t {t} level {level} key {key} >= {cutoff}"
                            );
                        }
                    }
                }
            }
        }
    }

    pub fn keyed_l0_read_equals_filtered_scan<S: MatchStore>() {
        let mut s = S::new(StoreLayout { sub_lens: vec![1, 1, 1] });
        let c0 = s.insert_sub(0, 0, ROOT, e(1), 1, 7);
        let c1a = s.insert_sub(1, 0, ROOT, e(2), 2, 7);
        let c1b = s.insert_sub(1, 0, ROOT, e(3), 3, 7);
        let c2 = s.insert_sub(2, 0, ROOT, e(4), 4, 7);
        let ua = s.insert_l0(1, c0, c1a, 2, 500);
        let ub = s.insert_l0(1, c0, c1b, 3, 501);
        s.insert_l0(2, ua, c2, 4, 600);
        s.insert_l0(2, ub, c2, 4, 600);
        assert_eq!(collect_l0_keyed(&s, 1, 500), vec![vec![c0, c1a]]);
        assert_eq!(collect_l0_keyed(&s, 1, 501), vec![vec![c0, c1b]]);
        assert!(collect_l0_keyed(&s, 1, 999).is_empty());
        assert_eq!(collect_l0_keyed(&s, 2, 600), vec![vec![c0, c1a, c2], vec![c0, c1b, c2]]);
        assert_eq!(collect_l0_keyed(&s, 2, 600), collect_l0(&s, 2));
        // Expire through sub 1's edge 2: row ua and its level-2 extension
        // leave their buckets; the 600 bucket keeps exactly the survivor.
        let n = s.expire_edge(e(2), 2, &[(1, 0)]);
        assert_eq!(n, 3, "{{2}}, ua, and one level-2 row");
        assert!(collect_l0_keyed(&s, 1, 500).is_empty());
        assert_eq!(collect_l0_keyed(&s, 1, 501), vec![vec![c0, c1b]]);
        assert_eq!(collect_l0_keyed(&s, 2, 600), vec![vec![c0, c1b, c2]]);
    }
}
