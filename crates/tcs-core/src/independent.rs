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
//! Like the MS-tree, every item also keeps a join-key index (key →
//! [`DrainBucket`]; see `store.rs` module docs) so the engine's keyed
//! probes work against both backends, plus a per-item *timeline* — one
//! more `DrainBucket` holding every live row of the item in insertion
//! (= timestamp) order, the slab-world stand-in for the MS-tree's
//! intrusive item list.
//!
//! Expiry used to walk the timelines and content-scan each suffix row's
//! payload edge; each item now also carries a *payload index* — one
//! `edge → [slots]` map per edge position — so the descendant walk looks
//! the deaths up directly instead of scanning the `> ts` timeline suffix
//! per cascade level. Every row containing the expired edge (at any
//! level) is dead by definition, so the per-(level, payload-edge) lookup
//! *is* the death set; the cascade still breaks out entirely once a level
//! kills nothing (an extension cannot outlive its stored prefix). Dying
//! rows punch tombstones into their key bucket and the timeline (both via
//! stored back-references); the end of the cascade front-drains and
//! threshold-compacts whatever was touched — see the tombstone-lifecycle
//! section of the `store.rs` docs. Timing-IND still has no child pointers
//! to cascade through — the `L₀` phase keeps its row scan, which *is* the
//! ablation — but item maintenance costs O(deaths), never O(item).

use crate::store::{
    finish_touched_buckets, AuditViolation, DrainBucket, ExpiryMode, Handle, JoinKey, MatchStore,
    StoreAudit, StoreLayout, ROOT,
};
use std::collections::HashSet;
use tcs_graph::{EdgeId, IdMap, IdSet};

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

    fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|v| (i as u32, v)))
    }
}

#[derive(Clone, Debug)]
struct SubRow {
    /// The full prefix of the timing sequence, duplicated per row.
    edges: Vec<EdgeId>,
    /// Timestamp of the newest edge (= the last element's arrival).
    ts: u64,
    /// Join key the row is filed under.
    key: JoinKey,
    /// Absolute position of the row's entry in its key bucket.
    key_pos: u32,
    /// Absolute position of the row's entry in the item timeline.
    tl_pos: u32,
    /// Per edge position: index of this row in the payload-index list for
    /// `edges[pos]`, so deregistration is O(1) per position.
    ref_pos: Vec<u32>,
}

#[derive(Clone, Debug)]
struct L0Row {
    /// Complete-match handles of subqueries `0..=i`.
    comps: Vec<Handle>,
    /// Timestamp of the arrival that completed the row.
    ts: u64,
    key: JoinKey,
    /// Absolute position of the row's entry in its key bucket.
    key_pos: u32,
}

type KeyIndex = IdMap<JoinKey, DrainBucket>;
/// Per (item, edge position): which live slots hold a given edge there.
type PayloadIndex = Vec<IdMap<EdgeId, Vec<u32>>>;

/// The independent (uncompressed) storage backend.
pub struct IndependentStore {
    layout: StoreLayout,
    subs: Vec<Vec<Slab<SubRow>>>,
    /// Join-key index per (subquery, level) item.
    sub_idx: Vec<Vec<KeyIndex>>,
    /// Per (subquery, level) item: every live slot in insertion
    /// (timestamp) order — the ordered spine that keeps expiry punches in
    /// timestamp order. Rows record their position in `tl_pos`.
    timelines: Vec<Vec<DrainBucket>>,
    /// Per (subquery, level) item: the payload index (`payload_idx[sub]
    /// [level][pos]` maps an edge to the rows holding it at `pos`), the
    /// direct death lookup `expire_edge` uses instead of a content scan.
    payload_idx: Vec<Vec<PayloadIndex>>,
    l0: Vec<Slab<L0Row>>,
    /// Join-key index per `L₀` item (`l0_idx[i - 1]` for item `i`).
    l0_idx: Vec<KeyIndex>,
    /// Expiry compaction policy.
    mode: ExpiryMode,
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
        let mut acc = 0u32;
        for s in 0..sub {
            acc += self.layout.sub_lens[s] as u32;
        }
        acc + level as u32
    }

    #[inline]
    fn l0_item_id(&self, i: usize) -> u32 {
        let total: usize = self.layout.sub_lens.iter().sum();
        (total + i - 1) as u32
    }

    fn sub_row(&self, sub: usize, level: usize, slot: u32) -> &SubRow {
        self.subs[sub][level].get(slot).unwrap_or_else(|| unreachable!("live sub row"))
    }
}

/// Audits one slab + key-index pair: slab accounting, every row's bucket
/// back-reference round-trips, index live totals match, no live-empty
/// bucket survives, and each bucket passes its own lifecycle audit.
/// `row_info` extracts `(key, key_pos, ts)` from a row; `what` labels the
/// item (e.g. `"sub 0 level 2"`).
fn audit_slab_index<T>(
    slab: &Slab<T>,
    index: &KeyIndex,
    what: &str,
    row_info: impl Fn(&T) -> (JoinKey, u32, u64),
    out: &mut Vec<AuditViolation>,
) {
    const S: &str = "independent";
    let live = slab.iter().count();
    if live != slab.len || slab.len + slab.free.len() != slab.slots.len() {
        out.push(AuditViolation {
            store: S,
            invariant: "slab-accounting",
            detail: format!(
                "{what}: {live} live rows, recorded len {}, {} free of {} slots",
                slab.len,
                slab.free.len(),
                slab.slots.len()
            ),
        });
    }
    for (slot, row) in slab.iter() {
        let (key, key_pos, ts) = row_info(row);
        match index.get(&key) {
            None => out.push(AuditViolation {
                store: S,
                invariant: "missing-bucket",
                detail: format!("{what}: row {slot} filed under absent key {key}"),
            }),
            Some(bucket) => {
                let pos_ok = key_pos >= bucket.front()
                    && bucket
                        .indexed()
                        .get((key_pos - bucket.front()) as usize)
                        .is_some_and(|e| e.slot == slot && e.ts == ts);
                if !pos_ok {
                    out.push(AuditViolation {
                        store: S,
                        invariant: "bucket-position",
                        detail: format!(
                            "{what}: row {slot} position {key_pos} does not round-trip \
                             in key {key}"
                        ),
                    });
                }
            }
        }
    }
    let indexed: usize = index.values().map(DrainBucket::live_len).sum();
    if indexed != slab.len {
        out.push(AuditViolation {
            store: S,
            invariant: "index-live-size",
            detail: format!("{what}: {indexed} live index entries vs len {}", slab.len),
        });
    }
    for (key, bucket) in index {
        if bucket.live_len() == 0 {
            out.push(AuditViolation {
                store: S,
                invariant: "empty-bucket-retained",
                detail: format!("{what}: key {key} bucket has no live entry"),
            });
        }
        bucket.audit(S, &format!("{what} key {key}"), out);
    }
}

impl StoreAudit for IndependentStore {
    fn audit(&self) -> Vec<AuditViolation> {
        const S: &str = "independent";
        let mut out = Vec::new();
        for (sub, levels) in self.subs.iter().enumerate() {
            for (level, slab) in levels.iter().enumerate() {
                let what = format!("sub {sub} level {level}");
                audit_slab_index(
                    slab,
                    &self.sub_idx[sub][level],
                    &what,
                    |r: &SubRow| (r.key, r.key_pos, r.ts),
                    &mut out,
                );
                // Rows carry the full prefix: arity is the level + 1, and
                // every position carries a payload-index back-reference.
                for (slot, row) in slab.iter() {
                    if row.edges.len() != level + 1 || row.ref_pos.len() != level + 1 {
                        out.push(AuditViolation {
                            store: S,
                            invariant: "row-arity",
                            detail: format!(
                                "{what}: row {slot} holds {} edges / {} back-refs, expected {}",
                                row.edges.len(),
                                row.ref_pos.len(),
                                level + 1
                            ),
                        });
                    }
                }
                // The timeline (the ordered spine expiry punches through)
                // must hold exactly the live slots, in timestamp order,
                // and every row's stored position must round-trip.
                let timeline = &self.timelines[sub][level];
                timeline.audit(S, &format!("{what} timeline"), &mut out);
                let spine: HashSet<u32> = timeline.live_slots().collect();
                let rows: HashSet<u32> = slab.iter().map(|(slot, _)| slot).collect();
                if spine != rows {
                    out.push(AuditViolation {
                        store: S,
                        invariant: "timeline-membership",
                        detail: format!(
                            "{what}: timeline holds {} slots, slab holds {} — sets differ",
                            spine.len(),
                            rows.len()
                        ),
                    });
                }
                for (slot, row) in slab.iter() {
                    let pos_ok = row.tl_pos >= timeline.front()
                        && timeline
                            .indexed()
                            .get((row.tl_pos - timeline.front()) as usize)
                            .is_some_and(|e| e.slot == slot && e.ts == row.ts);
                    if !pos_ok {
                        out.push(AuditViolation {
                            store: S,
                            invariant: "timeline-position",
                            detail: format!(
                                "{what}: row {slot} timeline position {} does not round-trip",
                                row.tl_pos
                            ),
                        });
                    }
                }
                // Payload-index coherence: every registration points at a
                // live row holding that edge at that position (and the
                // row's back-reference agrees), and every position indexes
                // exactly the live rows.
                for (pos, map) in self.payload_idx[sub][level].iter().enumerate() {
                    let mut registered = 0usize;
                    for (e, refs) in map {
                        if refs.is_empty() {
                            out.push(AuditViolation {
                                store: S,
                                invariant: "empty-payload-entry",
                                detail: format!("{what}: pos {pos} edge {e:?} lists no rows"),
                            });
                        }
                        registered += refs.len();
                        for (rp, &rslot) in refs.iter().enumerate() {
                            let ok = slab.get(rslot).is_some_and(|r| {
                                r.edges.get(pos) == Some(e)
                                    && r.ref_pos.get(pos) == Some(&(rp as u32))
                            });
                            if !ok {
                                out.push(AuditViolation {
                                    store: S,
                                    invariant: "payload-position",
                                    detail: format!(
                                        "{what}: pos {pos} edge {e:?} entry {rp} does not \
                                         round-trip through row {rslot}"
                                    ),
                                });
                            }
                        }
                    }
                    if registered != slab.len {
                        out.push(AuditViolation {
                            store: S,
                            invariant: "payload-size",
                            detail: format!(
                                "{what}: pos {pos} registers {registered} rows, slab holds {}",
                                slab.len
                            ),
                        });
                    }
                }
            }
        }
        for i in 1..self.layout.k() {
            let what = format!("L0 item {i}");
            audit_slab_index(
                &self.l0[i - 1],
                &self.l0_idx[i - 1],
                &what,
                |r: &L0Row| (r.key, r.key_pos, r.ts),
                &mut out,
            );
            for (slot, row) in self.l0[i - 1].iter() {
                if row.comps.len() != i + 1 {
                    out.push(AuditViolation {
                        store: S,
                        invariant: "row-arity",
                        detail: format!(
                            "{what}: row {slot} holds {} components, expected {}",
                            row.comps.len(),
                            i + 1
                        ),
                    });
                    continue;
                }
                // Every component must resolve to a live complete match
                // of its subquery — the no-dangling-references invariant.
                for (j, &comp) in row.comps.iter().enumerate() {
                    let leaf = self.layout.sub_lens[j] - 1;
                    let (item, cslot) = decode(comp);
                    let live = item == self.sub_item_id(j, leaf)
                        && self.subs[j][leaf].get(cslot).is_some();
                    if !live {
                        out.push(AuditViolation {
                            store: S,
                            invariant: "dangling-component",
                            detail: format!(
                                "{what}: row {slot} component {j} ({comp:#x}) is not a \
                                 live complete match of subquery {j}"
                            ),
                        });
                    }
                }
            }
        }
        out
    }
}

impl MatchStore for IndependentStore {
    fn new(layout: StoreLayout) -> Self {
        let subs: Vec<Vec<Slab<SubRow>>> = layout
            .sub_lens
            .iter()
            .map(|&len| (0..len).map(|_| Slab::default()).collect())
            .collect();
        let sub_idx = layout
            .sub_lens
            .iter()
            .map(|&len| (0..len).map(|_| KeyIndex::default()).collect())
            .collect();
        let timelines = layout
            .sub_lens
            .iter()
            .map(|&len| (0..len).map(|_| DrainBucket::default()).collect())
            .collect();
        let payload_idx = layout
            .sub_lens
            .iter()
            .map(|&len| (0..len).map(|lvl| vec![IdMap::default(); lvl + 1]).collect())
            .collect();
        let l0 = (0..layout.k().saturating_sub(1)).map(|_| Slab::default()).collect();
        let l0_idx = (0..layout.k().saturating_sub(1)).map(|_| KeyIndex::default()).collect();
        IndependentStore {
            layout,
            subs,
            sub_idx,
            timelines,
            payload_idx,
            l0,
            l0_idx,
            mode: ExpiryMode::default(),
        }
    }

    fn set_expiry_mode(&mut self, mode: ExpiryMode) {
        self.mode = mode;
    }

    fn for_each_sub(&self, sub: usize, level: usize, f: &mut dyn FnMut(Handle, &[EdgeId])) {
        let item = self.sub_item_id(sub, level);
        for (slot, row) in self.subs[sub][level].iter() {
            f(encode(item, slot), &row.edges);
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
        let item = self.sub_item_id(sub, level);
        let Some(bucket) = self.sub_idx[sub][level].get(&key) else {
            return;
        };
        for slot in bucket.live_before(cutoff_ts) {
            let row = self.sub_row(sub, level, slot);
            f(encode(item, slot), &row.edges);
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
        let item = self.sub_item_id(sub, level);
        let Some(bucket) = self.sub_idx[sub][level].get(&key) else {
            return;
        };
        for slot in bucket.live_from(min_ts) {
            let row = self.sub_row(sub, level, slot);
            f(encode(item, slot), &row.edges);
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
            let mut edges = self.sub_row(sub, level - 1, pslot).edges.clone();
            edges.push(edge);
            edges
        };
        let slot = self.subs[sub][level].insert(SubRow {
            edges,
            ts,
            key,
            key_pos: 0,
            tl_pos: 0,
            ref_pos: Vec::new(),
        });
        let key_pos = self.sub_idx[sub][level].entry(key).or_default().push(slot, ts);
        let tl_pos = self.timelines[sub][level].push(slot, ts);
        let slab = &mut self.subs[sub][level];
        let pidx = &mut self.payload_idx[sub][level];
        let row = slab.get_mut(slot).unwrap_or_else(|| unreachable!("fresh row"));
        row.key_pos = key_pos;
        row.tl_pos = tl_pos;
        row.ref_pos.reserve_exact(level + 1);
        for (pos, pidx_level) in pidx.iter_mut().enumerate().take(level + 1) {
            let refs = pidx_level.entry(row.edges[pos]).or_default();
            row.ref_pos.push(refs.len() as u32);
            refs.push(slot);
        }
        encode(self.sub_item_id(sub, level), slot)
    }

    fn for_each_l0(&self, i: usize, f: &mut dyn FnMut(Handle, &[Handle])) {
        let item = self.l0_item_id(i);
        for (slot, row) in self.l0[i - 1].iter() {
            f(encode(item, slot), &row.comps);
        }
    }

    fn for_each_l0_keyed_from(
        &self,
        i: usize,
        key: JoinKey,
        min_ts: u64,
        f: &mut dyn FnMut(Handle, &[Handle]),
    ) {
        let item = self.l0_item_id(i);
        let Some(bucket) = self.l0_idx[i - 1].get(&key) else {
            return;
        };
        for slot in bucket.live_from(min_ts) {
            let row = self.l0[i - 1].get(slot).unwrap_or_else(|| unreachable!("live L0 row"));
            f(encode(item, slot), &row.comps);
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
            let mut comps = self.l0[i - 2]
                .get(pslot)
                .unwrap_or_else(|| unreachable!("live L0 parent"))
                .comps
                .clone();
            comps.push(comp);
            comps
        };
        let slot = self.l0[i - 1].insert(L0Row { comps, ts, key, key_pos: 0 });
        let key_pos = self.l0_idx[i - 1].entry(key).or_default().push(slot, ts);
        self.l0[i - 1].get_mut(slot).unwrap_or_else(|| unreachable!("fresh row")).key_pos = key_pos;
        encode(self.l0_item_id(i), slot)
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
                if let Some(row) = self.subs[sub][level].get(slot) {
                    out.extend_from_slice(&row.edges);
                }
                return;
            }
        }
        unreachable!("expand_sub with a foreign handle");
    }

    fn expire_edge(&mut self, edge: EdgeId, ts: u64, positions: &[(usize, usize)]) -> usize {
        let mode = self.mode;
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
                // The payload index answers "which rows hold `edge` at
                // `pos_level`?" directly — and every such row is dead by
                // definition, so the lookup *is* the death set. No
                // timeline suffix scan.
                let Some(refs) = self.payload_idx[sub][level][pos_level].get(&edge) else {
                    // A deeper death would extend a row dying here; none
                    // exists, so the cascade is over for this position.
                    break;
                };
                // Deaths as (absolute timeline position, slot), processed
                // in timestamp order like the old walk.
                let mut dead: Vec<(u32, u32)> = refs
                    .iter()
                    .map(|&slot| (self.sub_row(sub, level, slot).tl_pos, slot))
                    .collect();
                dead.sort_unstable();
                let mut touched: Vec<JoinKey> = Vec::with_capacity(dead.len());
                for &(tpos, slot) in &dead {
                    let row = self.subs[sub][level]
                        .remove(slot)
                        .unwrap_or_else(|| unreachable!("indexed row is live"));
                    debug_assert_eq!(row.edges[pos_level], edge);
                    debug_assert!(level > pos_level || row.ts == ts, "one edge, one timestamp");
                    // Deregister the row from every payload position
                    // (swap-remove + moved-row fixup, O(1) each).
                    let slab = &mut self.subs[sub][level];
                    let pidx = &mut self.payload_idx[sub][level];
                    for (pos, pidx_level) in pidx.iter_mut().enumerate().take(row.edges.len()) {
                        let e = row.edges[pos];
                        let rp = row.ref_pos[pos] as usize;
                        let prefs = pidx_level
                            .get_mut(&e)
                            .unwrap_or_else(|| unreachable!("row is registered at every position"));
                        debug_assert_eq!(prefs[rp], slot, "stale payload back-reference");
                        prefs.swap_remove(rp);
                        if let Some(&moved) = prefs.get(rp) {
                            slab.get_mut(moved)
                                .unwrap_or_else(|| unreachable!("referencer is live"))
                                .ref_pos[pos] = rp as u32;
                        }
                        if prefs.is_empty() {
                            pidx_level.remove(&e);
                        }
                    }
                    self.sub_idx[sub][level]
                        .get_mut(&row.key)
                        .unwrap_or_else(|| unreachable!("indexed row has a bucket"))
                        .punch(row.key_pos, slot);
                    touched.push(row.key);
                    self.timelines[sub][level].punch(tpos, slot);
                    deleted += 1;
                    if level == leaf_level {
                        dead_handles.insert(encode(item, slot));
                    }
                }
                let slab = &mut self.subs[sub][level];
                finish_touched_buckets(
                    &mut self.sub_idx[sub][level],
                    &mut touched,
                    mode,
                    |s, pos| {
                        slab.get_mut(s)
                            .unwrap_or_else(|| unreachable!("survivor is live"))
                            .key_pos = pos;
                    },
                );
                // Timeline survivors re-record their position on
                // compaction; a drained timeline resets and stays.
                self.timelines[sub][level].finish_cascade(mode, |s, pos| {
                    slab.get_mut(s).unwrap_or_else(|| unreachable!("survivor is live")).tl_pos =
                        pos;
                });
            }
        }
        if !dead_handles.is_empty() {
            for i in 1..self.layout.k() {
                // Timing-IND keeps full-row scans here: with no child
                // pointers from leaves into L₀ rows, finding dependents
                // means inspecting row contents — that scan is the
                // ablation the paper measures.
                let dead: Vec<(u32, JoinKey, u32)> = self.l0[i - 1]
                    .iter()
                    .filter(|(_, row)| row.comps.iter().any(|c| dead_handles.contains(c)))
                    .map(|(slot, row)| (slot, row.key, row.key_pos))
                    .collect();
                let mut touched: Vec<JoinKey> = Vec::with_capacity(dead.len());
                for &(slot, key, key_pos) in &dead {
                    let row = self.l0[i - 1]
                        .remove(slot)
                        .unwrap_or_else(|| unreachable!("scanned row is live"));
                    // A row dying through a dead leaf completed no earlier
                    // than that leaf's newest edge — i.e. the expired edge.
                    debug_assert!(row.ts >= ts, "L0 row older than the edge that killed it");
                    self.l0_idx[i - 1]
                        .get_mut(&key)
                        .unwrap_or_else(|| unreachable!("indexed row has a bucket"))
                        .punch(key_pos, slot);
                    touched.push(key);
                    deleted += 1;
                }
                let slab = &mut self.l0[i - 1];
                finish_touched_buckets(&mut self.l0_idx[i - 1], &mut touched, mode, |s, pos| {
                    slab.get_mut(s).unwrap_or_else(|| unreachable!("survivor is live")).key_pos =
                        pos;
                });
            }
        }
        deleted
    }

    fn len_sub(&self, sub: usize, level: usize) -> usize {
        self.subs[sub][level].len
    }

    fn len_l0(&self, i: usize) -> usize {
        self.l0[i - 1].len
    }

    fn space_bytes(&self) -> usize {
        use std::mem::size_of;
        let index_bytes = |ix: &KeyIndex| {
            ix.len() * (size_of::<JoinKey>() + size_of::<DrainBucket>())
                + ix.values().map(DrainBucket::heap_bytes).sum::<usize>()
        };
        let mut bytes = 0;
        for (sub, levels) in self.subs.iter().enumerate() {
            for (level, slab) in levels.iter().enumerate() {
                bytes += slab.slots.capacity() * size_of::<Option<SubRow>>();
                for (_, row) in slab.iter() {
                    bytes += row.edges.capacity() * size_of::<EdgeId>();
                    bytes += row.ref_pos.capacity() * size_of::<u32>();
                }
                bytes += index_bytes(&self.sub_idx[sub][level]);
                bytes += self.timelines[sub][level].heap_bytes();
                for map in &self.payload_idx[sub][level] {
                    bytes += map.len() * (size_of::<EdgeId>() + size_of::<Vec<u32>>());
                    bytes += map.values().map(|v| v.capacity() * size_of::<u32>()).sum::<usize>();
                }
            }
        }
        for (i, slab) in self.l0.iter().enumerate() {
            bytes += slab.slots.capacity() * size_of::<Option<L0Row>>();
            for (_, row) in slab.iter() {
                bytes += row.comps.capacity() * size_of::<Handle>();
            }
            bytes += index_bytes(&self.l0_idx[i]);
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
    fn conformance_tombstones_match_model() {
        conformance::tombstoned_buckets_match_model_store::<IndependentStore>();
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
}
