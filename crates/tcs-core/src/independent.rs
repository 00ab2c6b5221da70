//! The Timing-IND storage ablation: every partial match stored
//! independently.
//!
//! The paper compares against a "counterpart without MS-trees (called
//! Timing-IND) where every partial match is stored independently"
//! (§VII-C). Each item keeps fully materialized rows — a level-`j` row owns
//! a copy of all `j + 1` edges — so prefixes are duplicated across levels
//! and siblings, which is exactly the space overhead the MS-tree removes.
//! Deletion must scan rows instead of cascading through child pointers.
//!
//! Like the MS-tree, every item also keeps a join-key index — per-key
//! lists threaded through the rows' own `key_prev` / `key_next` links (see
//! the `store.rs` module docs) — so the engine's keyed probes work against
//! both backends.
//!
//! Each item also carries a *payload index* — one `edge → [slots]` map per
//! edge position — so expiry looks the deaths up directly instead of
//! content-scanning rows. Every row containing the expired edge (at any
//! level) is dead by definition, so the per-(level, payload-edge) lookup
//! *is* the death set; the cascade still breaks out entirely once a level
//! kills nothing (an extension cannot outlive its stored prefix). A dying
//! row leaves its key list and its payload lists in O(1), in any order.
//! Timing-IND still has no child pointers to cascade through — the `L₀`
//! phase keeps its row scan, which *is* the ablation — but item
//! maintenance costs O(deaths), never O(item).
//!
//! The store owns only its flat-row representation: the key indexes are
//! the shared [`KeyIndex`] and each payload-index position is a shared
//! [`RefLists`], the same code both MS-trees run.

use crate::store::{
    AuditViolation, Handle, JoinKey, KeyIndex, KeyLinks, MatchStore, RefLists, StoreAudit,
    StoreLayout, NIL, ROOT,
};
use tcs_graph::{EdgeId, IdSet};

/// A slot-reusing row container; handles stay stable until the row dies.
#[derive(Clone, Debug)]
struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab { slots: Vec::new(), free: Vec::new(), len: 0 }
    }
}

impl<T> Slab<T> {
    fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(value);
                i
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn remove(&mut self, i: u32) -> Option<T> {
        let v = self.slots[i as usize].take();
        if v.is_some() {
            self.free.push(i);
            self.len -= 1;
        }
        v
    }

    fn get(&self, i: u32) -> Option<&T> {
        self.slots.get(i as usize).and_then(Option::as_ref)
    }

    fn get_mut(&mut self, i: u32) -> Option<&mut T> {
        self.slots.get_mut(i as usize).and_then(Option::as_mut)
    }

    /// The row in slot `i`, which the caller knows is live.
    fn live(&self, i: u32) -> &T {
        self.get(i).unwrap_or_else(|| unreachable!("live row"))
    }

    /// Mutable [`Slab::live`].
    fn live_mut(&mut self, i: u32) -> &mut T {
        self.get_mut(i).unwrap_or_else(|| unreachable!("live row"))
    }

    fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|v| (i as u32, v)))
    }
}

/// One stored row: its payload `data` plus what the key index reads.
#[derive(Clone, Debug)]
struct Row<P> {
    data: P,
    /// Timestamp of the newest edge (subquery rows) or of the arrival that
    /// completed the row (`L₀` rows).
    ts: u64,
    /// Join key the row is filed under.
    key: JoinKey,
    /// The row's neighbours in its key list.
    key_prev: u32,
    key_next: u32,
}

impl<P> Row<P> {
    fn new(data: P, ts: u64, key: JoinKey) -> Self {
        Row { data, ts, key, key_prev: NIL, key_next: NIL }
    }
}

/// A subquery row's payload.
#[derive(Clone, Debug)]
struct SubData {
    /// The full prefix of the timing sequence, duplicated per row.
    edges: Vec<EdgeId>,
    /// Per edge position: index of this row in the payload-index list for
    /// `edges[pos]`, so deregistration is O(1) per position.
    ref_pos: Vec<u32>,
}

type SubRow = Row<SubData>;
/// An `L₀` row's payload is the complete-match handles of subqueries
/// `0..=i`.
type L0Row = Row<Vec<Handle>>;

impl<P> KeyLinks for Slab<Row<P>> {
    #[inline]
    fn ts(&self, row: u32) -> u64 {
        self.live(row).ts
    }
    #[inline]
    fn key_prev(&self, row: u32) -> u32 {
        self.live(row).key_prev
    }
    #[inline]
    fn key_next(&self, row: u32) -> u32 {
        self.live(row).key_next
    }
    #[inline]
    fn set_key_prev(&mut self, row: u32, to: u32) {
        self.live_mut(row).key_prev = to;
    }
    #[inline]
    fn set_key_next(&mut self, row: u32, to: u32) {
        self.live_mut(row).key_next = to;
    }
}

/// One (subquery, level) item: its rows and the two indexes over them.
#[derive(Default)]
struct SubItem {
    rows: Slab<SubRow>,
    /// Join-key index.
    index: KeyIndex,
    /// The payload index: `payload[pos]` maps an edge to the rows holding
    /// it at `pos`, the direct death lookup `expire_edge` uses instead of
    /// a content scan.
    payload: Vec<RefLists<EdgeId>>,
}

/// One `L₀` item: its rows and their join-key index.
#[derive(Default)]
struct L0Item {
    rows: Slab<L0Row>,
    index: KeyIndex,
}

/// The independent (uncompressed) storage backend.
pub struct IndependentStore {
    layout: StoreLayout,
    /// `subs[sub][level]`: one item per subquery level.
    subs: Vec<Vec<SubItem>>,
    /// `l0[i - 1]`: `L₀` item `i`.
    l0: Vec<L0Item>,
}

#[inline]
fn encode(item: u32, slot: u32) -> Handle {
    ((item as u64) << 32) | slot as u64
}

#[inline]
fn decode(h: Handle) -> (u32, u32) {
    ((h >> 32) as u32, h as u32)
}

impl IndependentStore {
    #[inline]
    fn sub_item_id(&self, sub: usize, level: usize) -> u32 {
        (self.layout.sub_lens[..sub].iter().sum::<usize>() + level) as u32
    }

    #[inline]
    fn l0_item_id(&self, i: usize) -> u32 {
        let total: usize = self.layout.sub_lens.iter().sum();
        (total + i - 1) as u32
    }
}

/// This store's label in audit violations.
const S: &str = "independent";

/// Records one violation under this store's label.
fn report(out: &mut Vec<AuditViolation>, invariant: &'static str, detail: String) {
    out.push(AuditViolation { store: S, invariant, detail });
}

impl<T> Slab<T> {
    /// Audits the slot accounting: live slots, `len` and the free list
    /// cover the slots exactly. `what` labels the item.
    fn audit(&self, what: &str, out: &mut Vec<AuditViolation>) {
        let (live, free, slots) = (self.iter().count(), self.free.len(), self.slots.len());
        if live != self.len || self.len + free != slots {
            let detail =
                format!("{what}: {live} live rows, len {}, {free} free of {slots}", self.len);
            report(out, "slab-accounting", detail);
        }
    }
}

impl StoreAudit for IndependentStore {
    fn audit(&self) -> Vec<AuditViolation> {
        let mut out = Vec::new();
        for (sub, levels) in self.subs.iter().enumerate() {
            for (level, SubItem { rows, index, payload }) in levels.iter().enumerate() {
                let what = format!("sub {sub} level {level}");
                rows.audit(&what, &mut out);
                let filed = rows.iter().map(|(slot, r)| (slot, r.key));
                index.audit(S, &what, rows, filed, rows.len, &mut out);
                // Rows carry the full prefix: arity is the level + 1, and
                // every position carries a payload-index back-reference.
                for (slot, row) in rows.iter() {
                    let (edges, refs) = (row.data.edges.len(), row.data.ref_pos.len());
                    if edges != level + 1 || refs != level + 1 {
                        report(&mut out, "row-arity", format!("{what}: row {slot} {edges}/{refs}"));
                    }
                }
                // Payload-index coherence: every registration points at a
                // live row holding that edge at that position (and the
                // row's back-reference agrees), and every position indexes
                // exactly the live rows.
                for (pos, lists) in payload.iter().enumerate() {
                    let position = |e, rslot| {
                        let row = rows.get(rslot).filter(|r| r.data.edges.get(pos) == Some(&e));
                        row.and_then(|r| r.data.ref_pos.get(pos).copied())
                    };
                    let slugs = ["payload-position", "payload-size", "empty-payload-entry"];
                    let what = format!("{what} pos {pos}");
                    lists.audit(S, &what, slugs, rows.len, position, &mut out);
                }
            }
        }
        for (i, L0Item { rows, index }) in (1..).zip(&self.l0) {
            let what = format!("L0 item {i}");
            rows.audit(&what, &mut out);
            let filed = rows.iter().map(|(slot, r)| (slot, r.key));
            index.audit(S, &what, rows, filed, rows.len, &mut out);
            for (slot, row) in rows.iter() {
                if row.data.len() != i + 1 {
                    let detail = format!("{what}: row {slot} holds {} components", row.data.len());
                    report(&mut out, "row-arity", detail);
                    continue;
                }
                // Every component must resolve to a live complete match
                // of its subquery — the no-dangling-references invariant.
                for (j, &comp) in row.data.iter().enumerate() {
                    let leaf = self.layout.sub_lens[j] - 1;
                    let (item, cslot) = decode(comp);
                    if item != self.sub_item_id(j, leaf)
                        || self.subs[j][leaf].rows.get(cslot).is_none()
                    {
                        let detail =
                            format!("{what}: row {slot} component {j} ({comp:#x}) is dead");
                        report(&mut out, "dangling-component", detail);
                    }
                }
            }
        }
        out
    }
}

impl MatchStore for IndependentStore {
    fn new(layout: StoreLayout) -> Self {
        let item =
            |lvl| SubItem { payload: vec![RefLists::default(); lvl + 1], ..SubItem::default() };
        let subs = layout.sub_lens.iter().map(|&len| (0..len).map(item).collect()).collect();
        let l0 = (1..layout.k()).map(|_| L0Item::default()).collect();
        IndependentStore { layout, subs, l0 }
    }

    fn for_each_sub(&self, sub: usize, level: usize, f: &mut dyn FnMut(Handle, &[EdgeId])) {
        let item = self.sub_item_id(sub, level);
        for (slot, row) in self.subs[sub][level].rows.iter() {
            f(encode(item, slot), &row.data.edges);
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
        let (item, it) = (self.sub_item_id(sub, level), &self.subs[sub][level]);
        for slot in it.index.before(&it.rows, key, cutoff_ts) {
            f(encode(item, slot), &it.rows.live(slot).data.edges);
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
        let (item, it) = (self.sub_item_id(sub, level), &self.subs[sub][level]);
        for slot in it.index.from(&it.rows, key, min_ts) {
            f(encode(item, slot), &it.rows.live(slot).data.edges);
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
        let edges = if level == 0 {
            debug_assert_eq!(parent, ROOT);
            vec![edge]
        } else {
            let (_, pslot) = decode(parent);
            let mut edges = self.subs[sub][level - 1].rows.live(pslot).data.edges.clone();
            edges.push(edge);
            edges
        };
        let item = self.sub_item_id(sub, level);
        let SubItem { rows, index, payload } = &mut self.subs[sub][level];
        let ref_pos = Vec::with_capacity(level + 1);
        let slot = rows.insert(Row::new(SubData { edges, ref_pos }, ts, key));
        index.file(rows, key, slot);
        let row = &mut rows.live_mut(slot).data;
        for (pos, lists) in payload.iter_mut().enumerate() {
            row.ref_pos.push(lists.add(row.edges[pos], slot));
        }
        encode(item, slot)
    }

    fn for_each_l0(&self, i: usize, f: &mut dyn FnMut(Handle, &[Handle])) {
        let item = self.l0_item_id(i);
        for (slot, row) in self.l0[i - 1].rows.iter() {
            f(encode(item, slot), &row.data);
        }
    }

    fn for_each_l0_keyed_from(
        &self,
        i: usize,
        key: JoinKey,
        min_ts: u64,
        f: &mut dyn FnMut(Handle, &[Handle]),
    ) {
        let (item, it) = (self.l0_item_id(i), &self.l0[i - 1]);
        for slot in it.index.from(&it.rows, key, min_ts) {
            f(encode(item, slot), &it.rows.live(slot).data);
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
        let comps = if i == 1 {
            vec![parent, comp]
        } else {
            let (_, pslot) = decode(parent);
            let mut comps = self.l0[i - 2].rows.live(pslot).data.clone();
            comps.push(comp);
            comps
        };
        let item = self.l0_item_id(i);
        let L0Item { rows, index } = &mut self.l0[i - 1];
        let slot = rows.insert(Row::new(comps, ts, key));
        index.file(rows, key, slot);
        encode(item, slot)
    }

    fn expand_sub(&self, sub: usize, handle: Handle, out: &mut Vec<EdgeId>) {
        let (_, slot) = decode(handle);
        // The handle's level is recoverable from the row length, but we
        // must find which level slab owns the slot; handles returned by
        // this store always come from complete-match (leaf) reads or
        // parent chains the engine just read, so search levels for a live
        // row. Leaf level first: it is the overwhelmingly common case.
        for level in (0..self.layout.sub_lens[sub]).rev() {
            let item = self.sub_item_id(sub, level);
            if (handle >> 32) as u32 == item {
                if let Some(row) = self.subs[sub][level].rows.get(slot) {
                    out.extend_from_slice(&row.data.edges);
                }
                return;
            }
        }
        unreachable!("expand_sub with a foreign handle");
    }

    fn expire_edge(&mut self, edge: EdgeId, ts: u64, positions: &[(usize, usize)]) -> usize {
        let mut deleted = 0usize;
        let mut dead_handles: IdSet<Handle> = IdSet::default();
        let mut seen: IdSet<(usize, usize)> = IdSet::default();
        for &(sub, pos_level) in positions {
            if !seen.insert((sub, pos_level)) {
                continue;
            }
            let leaf_level = self.layout.sub_lens[sub] - 1;
            for level in pos_level..=leaf_level {
                let item = self.sub_item_id(sub, level);
                let SubItem { rows, index, payload } = &mut self.subs[sub][level];
                // The payload index answers "which rows hold `edge` at
                // `pos_level`?" directly — and every such row is dead by
                // definition, so the lookup *is* the death set.
                let dead = payload[pos_level].get(edge).to_vec();
                if dead.is_empty() {
                    // A deeper death would extend a row dying here; none
                    // exists, so the cascade is over for this position.
                    break;
                }
                for slot in dead {
                    let key = rows.live(slot).key;
                    index.unlink(rows, key, slot);
                    let Row { data, ts: row_ts, .. } =
                        rows.remove(slot).unwrap_or_else(|| unreachable!("indexed row is live"));
                    debug_assert_eq!(data.edges[pos_level], edge);
                    debug_assert!(level > pos_level || row_ts == ts, "one edge, one timestamp");
                    // Deregister the row from every payload position
                    // (swap-remove + moved-row fixup, O(1) each).
                    for (pos, lists) in payload.iter_mut().enumerate() {
                        let rp = data.ref_pos[pos];
                        if let Some(moved) = lists.remove(data.edges[pos], rp, slot) {
                            rows.live_mut(moved).data.ref_pos[pos] = rp;
                        }
                    }
                    deleted += 1;
                    if level == leaf_level {
                        dead_handles.insert(encode(item, slot));
                    }
                }
            }
        }
        if !dead_handles.is_empty() {
            for L0Item { rows, index } in &mut self.l0 {
                // Timing-IND keeps full-row scans here: with no child
                // pointers from leaves into L₀ rows, finding dependents
                // means inspecting row contents — that scan is the
                // ablation the paper measures.
                let dead: Vec<(u32, JoinKey)> = rows
                    .iter()
                    .filter(|(_, row)| row.data.iter().any(|c| dead_handles.contains(c)))
                    .map(|(slot, row)| (slot, row.key))
                    .collect();
                for (slot, key) in dead {
                    index.unlink(rows, key, slot);
                    let row =
                        rows.remove(slot).unwrap_or_else(|| unreachable!("scanned row is live"));
                    // A row dying through a dead leaf completed no earlier
                    // than that leaf's newest edge — i.e. the expired edge.
                    debug_assert!(row.ts >= ts, "L0 row older than the edge that killed it");
                    deleted += 1;
                }
            }
        }
        deleted
    }

    fn len_sub(&self, sub: usize, level: usize) -> usize {
        self.subs[sub][level].rows.len
    }

    fn len_l0(&self, i: usize) -> usize {
        self.l0[i - 1].rows.len
    }

    /// Live rows with their heap, plus the indexes. Free slab slots are
    /// not counted, as the trees do not count their free nodes.
    fn space_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = 0;
        for it in self.subs.iter().flatten() {
            bytes += it.rows.len * size_of::<Option<SubRow>>();
            for (_, row) in it.rows.iter() {
                bytes += row.data.edges.capacity() * size_of::<EdgeId>();
                bytes += row.data.ref_pos.capacity() * size_of::<u32>();
            }
            bytes += it.index.heap_bytes();
            bytes += it.payload.iter().map(RefLists::heap_bytes).sum::<usize>();
        }
        for it in &self.l0 {
            bytes += it.rows.len * size_of::<Option<L0Row>>();
            for (_, row) in it.rows.iter() {
                bytes += row.data.capacity() * size_of::<Handle>();
            }
            bytes += it.index.heap_bytes();
        }
        bytes
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;
    use crate::mstree::MsTreeStore;
    use crate::store::conformance;

    #[test]
    fn conformance_insert_read() {
        conformance::insert_read_roundtrip::<IndependentStore>();
    }
    #[test]
    fn conformance_expand() {
        conformance::expand_matches_read::<IndependentStore>();
    }
    #[test]
    fn conformance_l0() {
        conformance::l0_components_roundtrip::<IndependentStore>();
    }
    #[test]
    fn conformance_expire_cascade() {
        conformance::expire_cascades_within_sub::<IndependentStore>();
    }
    #[test]
    fn conformance_expire_middle() {
        conformance::expire_middle_level_keeps_prefix::<IndependentStore>();
    }
    #[test]
    fn conformance_expire_l0() {
        conformance::expire_cleans_l0::<IndependentStore>();
    }
    #[test]
    fn conformance_expire_unrelated() {
        conformance::expire_ignores_unrelated_edges::<IndependentStore>();
    }
    #[test]
    fn conformance_space() {
        conformance::space_grows_and_shrinks::<IndependentStore>();
    }
    #[test]
    fn conformance_three_sub_chain() {
        conformance::three_sub_l0_chain::<IndependentStore>();
    }
    #[test]
    fn conformance_keyed_sub() {
        conformance::keyed_sub_read_equals_filtered_scan::<IndependentStore>();
    }
    #[test]
    fn conformance_keyed_after_expire() {
        conformance::keyed_reads_stay_coherent_after_expire::<IndependentStore>();
    }
    #[test]
    fn conformance_keyed_l0() {
        conformance::keyed_l0_read_equals_filtered_scan::<IndependentStore>();
    }
    #[test]
    fn conformance_keyed_ranges() {
        conformance::keyed_range_reads_equal_filtered_iteration::<IndependentStore>();
    }
    #[test]
    fn conformance_ordered_buckets_property() {
        conformance::ordered_buckets_survive_random_ops::<IndependentStore>();
    }
    #[test]
    fn conformance_ordered_l0_buckets_property() {
        conformance::ordered_l0_buckets_survive_random_ops::<IndependentStore>();
    }
    #[test]
    fn conformance_same_bucket_double_death() {
        conformance::same_bucket_double_death_in_one_cascade::<IndependentStore>();
    }
    #[test]
    fn conformance_key_lists_match_model() {
        conformance::key_lists_match_model_store::<IndependentStore>();
    }
    #[test]
    fn conformance_interior_deaths_unlink_in_place() {
        conformance::interior_deaths_unlink_in_place::<IndependentStore>(|s| {
            s.subs[0][1].index.contains(7)
        });
    }
    #[test]
    fn conformance_state_tracks_live_rows() {
        conformance::state_tracks_live_rows::<IndependentStore>();
    }

    #[test]
    fn payload_index_finds_descendant_deaths() {
        // Layout [3]: rows at level 2 hold the level-0 edge at position 0;
        // expiring that edge must kill every extension via index lookup
        // (the audit cross-checks registrations after every step).
        let layout = StoreLayout { sub_lens: vec![3] };
        let mut s = IndependentStore::new(layout);
        let a = s.insert_sub(0, 0, ROOT, EdgeId(1), 1, 0);
        let b1 = s.insert_sub(0, 1, a, EdgeId(2), 2, 0);
        let b2 = s.insert_sub(0, 1, a, EdgeId(3), 3, 0);
        for x in 0..4u64 {
            s.insert_sub(0, 2, b1, EdgeId(10 + x), 10 + x, x);
        }
        for x in 0..4u64 {
            s.insert_sub(0, 2, b2, EdgeId(20 + x), 20 + x, x);
        }
        s.assert_clean();
        // Kill the middle level's first branch: its 4 extensions cascade.
        let n = s.expire_edge(EdgeId(2), 2, &[(0, 1)]);
        assert_eq!(n, 5, "b1 and its four extensions");
        assert_eq!(s.len_sub(0, 2), 4);
        s.assert_clean();
        // Kill the shared root: everything else dies through position 0.
        let n = s.expire_edge(EdgeId(1), 1, &[(0, 0)]);
        assert_eq!(n, 6, "a, b2, and b2's four extensions");
        assert_eq!(s.len_sub(0, 0) + s.len_sub(0, 1) + s.len_sub(0, 2), 0);
        s.assert_clean();
    }

    #[test]
    fn independent_store_uses_more_space_than_mstree() {
        // The whole point of the MS-tree (§IV): shared prefixes. Build a
        // fan-out of 50 extensions under one long prefix and compare.
        let layout = StoreLayout { sub_lens: vec![3] };
        let mut ind = IndependentStore::new(layout.clone());
        let mut ms = MsTreeStore::new(layout);
        let a_i = ind.insert_sub(0, 0, ROOT, EdgeId(1), 1, 0);
        let b_i = ind.insert_sub(0, 1, a_i, EdgeId(2), 2, 0);
        let a_m = ms.insert_sub(0, 0, ROOT, EdgeId(1), 1, 0);
        let b_m = ms.insert_sub(0, 1, a_m, EdgeId(2), 2, 0);
        for x in 0..50 {
            ind.insert_sub(0, 2, b_i, EdgeId(100 + x), 100 + x, 0);
            ms.insert_sub(0, 2, b_m, EdgeId(100 + x), 100 + x, 0);
        }
        assert!(
            ind.space_bytes() > ms.space_bytes(),
            "IND {} ≤ MS {}",
            ind.space_bytes(),
            ms.space_bytes()
        );
    }

    #[test]
    fn slab_reuses_slots() {
        let mut s: Slab<u32> = Slab::default();
        let a = s.insert(1);
        let b = s.insert(2);
        assert_eq!(s.len, 2);
        s.remove(a);
        let c = s.insert(3);
        assert_eq!(c, a, "slot reused");
        assert_eq!(s.get(b), Some(&2));
        assert_eq!(s.iter().count(), 2);
    }

    #[test]
    fn audit_reports_each_corrupted_field() {
        // One corrupted field per invariant family of a level-1 row, each
        // on a fresh store.
        type Corrupt = fn(&mut Slab<SubRow>);
        let cases: [(&str, Corrupt); 3] = [
            ("bucket-position", |slab| slab.live_mut(0).key_prev = 0),
            ("payload-position", |slab| slab.live_mut(0).data.ref_pos[0] += 1),
            ("slab-accounting", |slab| slab.len += 1),
        ];
        for (slug, corrupt) in cases {
            let mut s = IndependentStore::new(StoreLayout { sub_lens: vec![2] });
            let a = s.insert_sub(0, 0, ROOT, EdgeId(1), 1, 0);
            s.insert_sub(0, 1, a, EdgeId(2), 2, 0);
            s.assert_clean();
            corrupt(&mut s.subs[0][1].rows);
            let found = s.audit();
            let hit = found.iter().any(|v| (v.store, v.invariant) == ("independent", slug));
            assert!(hit, "{found:?}");
        }
    }
}
