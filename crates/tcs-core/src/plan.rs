//! Compiled query plans: decomposition + join order + edge positioning +
//! join-key specifications.
//!
//! A [`QueryPlan`] fixes everything the streaming engine needs to know at
//! run time: the TC decomposition in join order, the (subquery, level)
//! position of every query edge inside the expansion lists, a signature
//! index mapping an incoming data edge to the query edges it can match,
//! and — for the hash-indexed expansion lists — the *join keys*: which
//! query vertices are shared between `Preq(ε_j)` and `ε_j` (chain joins,
//! [`ChainKeyPart`]) and between `Q^1 ∪ … ∪ Q^{i}` and `Q^{i+1}` (`L₀`
//! joins, [`L0KeyPart`]), plus where each shared vertex is first bound on
//! either side. The engines fold those bindings into an opaque
//! [`JoinKey`] so each arrival probes a hash bucket instead of scanning a
//! whole item (see `store.rs` module docs for the index design).
//!
//! [`PlanOptions`] selects the paper's ablation variants of Figure 21:
//! Timing-RD (random decomposition), Timing-RJ (random join order) and
//! Timing-RDJ (both).

use crate::decompose::{decompose_from, tc_subqueries, Decomposition, TcSubquery};
use crate::joinorder::{is_prefix_connected, order_by_joint_number, order_randomly};
use crate::store::JoinKey;
use std::fmt;
use tcs_graph::{ELabel, IdMap, QueryGraph, StreamEdge, VLabel, VertexId};

/// Plan-construction options (defaults reproduce the paper's "Timing").
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanOptions {
    /// Use a random TC decomposition instead of Algorithm 6 (Timing-RD).
    pub random_decomposition: Option<u64>,
    /// Use a random prefix-connected join order instead of the joint-number
    /// greedy (Timing-RJ).
    pub random_join_order: Option<u64>,
}

impl PlanOptions {
    /// The paper's full method.
    pub fn timing() -> Self {
        PlanOptions::default()
    }

    /// Timing-RD: random decomposition, joint-number join order.
    pub fn random_decomposition(seed: u64) -> Self {
        PlanOptions { random_decomposition: Some(seed), random_join_order: None }
    }

    /// Timing-RJ: Algorithm 6 decomposition, random join order.
    pub fn random_join(seed: u64) -> Self {
        PlanOptions { random_decomposition: None, random_join_order: Some(seed) }
    }

    /// Timing-RDJ: both randomized.
    pub fn random_both(seed: u64) -> Self {
        PlanOptions {
            random_decomposition: Some(seed),
            random_join_order: Some(seed.wrapping_add(1)),
        }
    }
}

/// One shared query vertex of a chain join at position `(i, j)`: the
/// arriving edge `σ` (matching `ε_j = seq[j]`) binds it at one endpoint,
/// the stored `Preq(ε_j)` prefix binds it at a fixed (level, endpoint)
/// position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainKeyPart {
    /// `true` → the vertex is `ε_j.dst` (take `σ.dst`); else take `σ.src`.
    pub sigma_dst: bool,
    /// Prefix level whose edge first binds the vertex.
    pub level: usize,
    /// `true` → the vertex is that level's `dst`; else its `src`.
    pub level_dst: bool,
}

/// One shared query vertex of the `L₀` join between the union of
/// subqueries `0..i` (the *row* side) and subquery `i` (the *delta*
/// side).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L0KeyPart {
    /// First binding on the row side: (subquery, level, take-dst?).
    pub row: (usize, usize, bool),
    /// First binding on the delta side: (level within `Q^i`, take-dst?).
    pub delta: (usize, bool),
}

/// FNV-1a offset basis: the key of an empty spec (single-bucket probe).
pub const KEY_EMPTY: JoinKey = 0xcbf2_9ce4_8422_2325;

/// Folds one shared-vertex binding into a key (FNV-1a step). Collisions
/// are harmless — the key is a prefilter, the full compatibility check
/// still runs on every probe hit.
#[inline]
pub fn fold_key(key: JoinKey, v: VertexId) -> JoinKey {
    (key ^ v.0 as u64).wrapping_mul(0x0000_0100_0000_01b3)
}

/// A compiled plan for one continuous query.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// The query this plan evaluates.
    pub query: QueryGraph,
    /// TC-subqueries in join order (`Q^1 … Q^k` of §III-B).
    pub subs: Vec<TcSubquery>,
    /// For each query edge index: (subquery position in `subs`, level in
    /// that subquery's timing sequence).
    pub pos: Vec<(usize, usize)>,
    /// `sub_keys[i][j]` (for `j ≥ 1`): shared vertices between
    /// `Preq(ε_j)` and `ε_j` in subquery `i` — the key of the join that
    /// extends item `j − 1` with an arrival at level `j`. `sub_keys[i][0]`
    /// is empty (level 0 starts fresh matches).
    pub sub_keys: Vec<Vec<Vec<ChainKeyPart>>>,
    /// `l0_keys[i]` (for `1 ≤ i < k`): shared vertices between
    /// `Q^1 ∪ … ∪ Q^{i}` and `Q^{i+1}` (0-based: subqueries `0..i` vs
    /// subquery `i`) — the key of the `L₀` join at item `i`. Index 0 is
    /// empty padding.
    pub l0_keys: Vec<Vec<L0KeyPart>>,
    /// `l0_delta_floor_levels[i]` (for `1 ≤ i < k`): levels `d` of
    /// subquery `i` whose edge must (by a cross-subquery ≺ constraint)
    /// precede at least one edge of subqueries `0..i`. When a fresh
    /// complete match Δ of `Q^{i+1}` probes the `L₀^{i-1}` rows, any row
    /// whose newest timestamp is ≤ `ts(Δ[d])` cannot satisfy that
    /// constraint — the engine's walk of the timestamp-ordered bucket
    /// never reaches those rows, so no merged assignment is built for them.
    /// Index 0 is empty padding.
    pub l0_delta_floor_levels: Vec<Vec<usize>>,
    /// `leaf_floor_positions[s]` (for `1 ≤ s < k`): positions
    /// `(subquery, level)` among subqueries `0..s` whose edge must precede
    /// at least one edge of subquery `s`. When an `L₀` row extends
    /// rightwards over subquery `s`'s leaves, a leaf whose newest
    /// timestamp is ≤ the row's binding at such a position cannot satisfy
    /// the constraint and is skipped the same way. Index 0 is empty
    /// padding.
    pub leaf_floor_positions: Vec<Vec<(usize, usize)>>,
    /// Signature → query edges with that signature, and where they sit.
    sig_to_edges: IdMap<(VLabel, VLabel, ELabel), SigEdges>,
}

/// The query edges of one signature (ascending) and their
/// `(subquery, level)` positions, index-parallel — both fixed at
/// [`QueryPlan::build`], so the per-arrival and per-expiry lookups hand out
/// slices.
#[derive(Clone, Debug, Default)]
struct SigEdges {
    edges: Vec<usize>,
    positions: Vec<(usize, usize)>,
}

impl QueryPlan {
    /// Compiles a plan.
    pub fn build(query: QueryGraph, opts: PlanOptions) -> QueryPlan {
        let tcsub = tc_subqueries(&query);
        let decomposition = match opts.random_decomposition {
            None => decompose_from(&query, &tcsub),
            Some(seed) => random_cover(&query, &tcsub, seed),
        };
        let subs = match opts.random_join_order {
            None => order_by_joint_number(&query, &decomposition),
            Some(seed) => order_randomly(&query, &decomposition, seed),
        };
        debug_assert!(is_prefix_connected(&query, &subs));
        let mut pos = vec![(usize::MAX, usize::MAX); query.n_edges()];
        for (si, s) in subs.iter().enumerate() {
            for (level, &e) in s.seq.iter().enumerate() {
                pos[e] = (si, level);
            }
        }
        debug_assert!(pos.iter().all(|&(s, _)| s != usize::MAX));
        let mut sig_to_edges: IdMap<(VLabel, VLabel, ELabel), SigEdges> = IdMap::default();
        for (e, &p) in pos.iter().enumerate() {
            let entry = sig_to_edges.entry(query.signature(e)).or_default();
            entry.edges.push(e);
            entry.positions.push(p);
        }
        let sub_keys = chain_key_specs(&query, &subs);
        let l0_keys = l0_key_specs(&query, &subs);
        let l0_delta_floor_levels = l0_delta_floor_specs(&query, &subs);
        let leaf_floor_positions = leaf_floor_specs(&query, &subs);
        QueryPlan {
            query,
            subs,
            pos,
            sub_keys,
            l0_keys,
            l0_delta_floor_levels,
            leaf_floor_positions,
            sig_to_edges,
        }
    }

    /// The minimum stored timestamp (inclusive) an `L₀^{i-1}` row must
    /// have to possibly satisfy the cross-subquery ≺ constraints against a
    /// fresh complete match of subquery `i`; `delta_ts(level)` resolves
    /// the Δ-side edge timestamps. Returns 0 when no constraint applies.
    #[inline]
    pub fn l0_row_ts_floor(&self, i: usize, mut delta_ts: impl FnMut(usize) -> u64) -> u64 {
        self.l0_delta_floor_levels[i]
            .iter()
            .map(|&d| delta_ts(d).saturating_add(1))
            .max()
            .unwrap_or(0)
    }

    /// The minimum stored timestamp (inclusive) a leaf of subquery `next`
    /// must have to possibly satisfy the cross-subquery ≺ constraints
    /// against an `L₀` row over subqueries `0..next`; `row_ts(sub, level)`
    /// resolves the row-side edge timestamps. Returns 0 when no constraint
    /// applies.
    #[inline]
    pub fn leaf_ts_floor(&self, next: usize, mut row_ts: impl FnMut(usize, usize) -> u64) -> u64 {
        self.leaf_floor_positions[next]
            .iter()
            .map(|&(sub, lvl)| row_ts(sub, lvl).saturating_add(1))
            .max()
            .unwrap_or(0)
    }

    /// Probe key of an arrival `σ` matching level `j ≥ 1` of subquery `i`
    /// against the stored prefixes of item `j − 1`.
    #[inline]
    pub fn chain_probe_key(&self, i: usize, j: usize, sigma: &StreamEdge) -> JoinKey {
        let mut key = KEY_EMPTY;
        for p in &self.sub_keys[i][j] {
            key = fold_key(key, if p.sigma_dst { sigma.dst } else { sigma.src });
        }
        key
    }

    /// Key under which a subquery-`i` match at `level` must be stored so
    /// the next probe finds it: the chain spec of `level + 1` below the
    /// leaf, the `L₀` spec at the leaf (subquery leaves are only ever
    /// probed by `L₀` joins), [`KEY_EMPTY`] for a TC-query (`k = 1`).
    /// `endpoints(l)` resolves the (src, dst) of the match's data edge at
    /// level `l ≤ level`.
    pub fn stored_sub_key(
        &self,
        i: usize,
        level: usize,
        mut endpoints: impl FnMut(usize) -> (VertexId, VertexId),
    ) -> JoinKey {
        let len = self.subs[i].len();
        if level + 1 < len {
            let mut key = KEY_EMPTY;
            for p in &self.sub_keys[i][level + 1] {
                let (src, dst) = endpoints(p.level);
                key = fold_key(key, if p.level_dst { dst } else { src });
            }
            return key;
        }
        // Leaf: the match is a complete match of subquery `i`.
        if self.k() == 1 {
            return KEY_EMPTY;
        }
        if i == 0 {
            // Aliased as `L₀`'s first item: row side of the first L₀ join.
            let mut key = KEY_EMPTY;
            for p in &self.l0_keys[1] {
                debug_assert_eq!(p.row.0, 0, "L₀¹ row side binds in subquery 0");
                let (src, dst) = endpoints(p.row.1);
                key = fold_key(key, if p.row.2 { dst } else { src });
            }
            key
        } else {
            // Probed by L₀ rows extending rightwards: delta side.
            self.l0_delta_key(i, endpoints)
        }
    }

    /// Probe key of a complete subquery-`i` match (`i ≥ 1`) against the
    /// rows of `L₀` item `i − 1` — the delta side of `l0_keys[i]`.
    /// `endpoints(l)` resolves the match's data edge at level `l`.
    #[inline]
    pub fn l0_delta_key(
        &self,
        i: usize,
        mut endpoints: impl FnMut(usize) -> (VertexId, VertexId),
    ) -> JoinKey {
        let mut key = KEY_EMPTY;
        for p in &self.l0_keys[i] {
            let (src, dst) = endpoints(p.delta.0);
            key = fold_key(key, if p.delta.1 { dst } else { src });
        }
        key
    }

    /// Row-side key of the `L₀` join at item `next` (`1 ≤ next < k`) over
    /// a row covering subqueries `0..next`: the key under which such a row
    /// is stored *and* the key with which it probes subquery `next`'s
    /// leaves. `endpoints(sub, l)` resolves the row's data edge at level
    /// `l` of subquery `sub`.
    #[inline]
    pub fn l0_row_key(
        &self,
        next: usize,
        mut endpoints: impl FnMut(usize, usize) -> (VertexId, VertexId),
    ) -> JoinKey {
        let mut key = KEY_EMPTY;
        for p in &self.l0_keys[next] {
            let (src, dst) = endpoints(p.row.0, p.row.1);
            key = fold_key(key, if p.row.2 { dst } else { src });
        }
        key
    }

    /// Key under which an `L₀` row at item `level` must be stored:
    /// the row side of the next `L₀` join, or [`KEY_EMPTY`] for the last
    /// item (complete query matches are never probed).
    #[inline]
    pub fn stored_l0_key(
        &self,
        level: usize,
        endpoints: impl FnMut(usize, usize) -> (VertexId, VertexId),
    ) -> JoinKey {
        if level + 1 >= self.k() {
            KEY_EMPTY
        } else {
            self.l0_row_key(level + 1, endpoints)
        }
    }

    /// Decomposition size `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.subs.len()
    }

    /// Query edges an incoming edge with this signature can match.
    #[inline]
    pub fn candidates(&self, sig: (VLabel, VLabel, ELabel)) -> &[usize] {
        self.sig_to_edges.get(&sig).map_or(&[], |s| s.edges.as_slice())
    }

    /// Whether data edge `e` has query edge `qe`'s shape: a self-loop
    /// query edge matches only self-loop data edges and vice versa, which
    /// a signature cannot tell. Both engines filter every candidate of
    /// [`QueryPlan::candidates`] through it, because a level-0 insert runs
    /// no compatibility check.
    #[inline]
    pub fn shape_matches(&self, qe: usize, e: &StreamEdge) -> bool {
        let q = self.query.edges[qe];
        (q.src == q.dst) == (e.src == e.dst)
    }

    /// The distinct label signatures of this plan's query edges — exactly
    /// the data-edge signatures the plan can react to, on arrival
    /// ([`QueryPlan::candidates`] non-empty) and expiry
    /// ([`QueryPlan::positions`] non-empty). Multi-query front-ends build
    /// their signature-routed dispatch index from this set at
    /// registration.
    pub fn signatures(&self) -> impl Iterator<Item = (VLabel, VLabel, ELabel)> + '_ {
        self.sig_to_edges.keys().copied()
    }

    /// All (subquery, level) positions where an edge of this signature can
    /// sit — the deletion positions of Algorithm 2 — index-parallel to
    /// [`QueryPlan::candidates`] (`positions(sig)[x] == pos[candidates(sig)[x]]`).
    /// Precomputed at [`QueryPlan::build`]: every routed expiry asks, so the
    /// answer is a borrowed slice, empty for a signature the plan cannot
    /// hold.
    #[inline]
    pub fn positions(&self, sig: (VLabel, VLabel, ELabel)) -> &[(usize, usize)] {
        self.sig_to_edges.get(&sig).map_or(&[], |s| s.positions.as_slice())
    }

    /// Lengths of each subquery's expansion list, in join order (the store
    /// layout).
    pub fn sub_lens(&self) -> Vec<usize> {
        self.subs.iter().map(|s| s.len()).collect()
    }

    /// Canonical structural identity of this plan's query — see
    /// [`PlanFingerprint`]. Plans compiled from structurally identical
    /// queries fingerprint equal regardless of [`PlanOptions`]
    /// (decomposition and join order never change *what* is matched, only
    /// how, so they are deliberately outside the identity).
    pub fn fingerprint(&self) -> PlanFingerprint {
        PlanFingerprint::of(&self.query)
    }
}

/// Canonical identity of a continuous query: byte-equal for queries that
/// are identical up to vertex renumbering and edge reordering (with the
/// timing order carried along), and distinct otherwise.
///
/// The encoding is *faithful* — it serializes the full canonicalized
/// query (labels, structure, timing closure), so equal bytes imply
/// isomorphic queries unconditionally. The canonical form is found by
/// colour refinement plus an individualize-and-refine search whose leaf
/// count is capped; hitting the cap on a pathologically symmetric query
/// can at worst make two isomorphic queries fingerprint *unequal*
/// (missed sharing), never make distinct queries collide.
///
/// The timing order enters through its transitive closure, so orders
/// that close to the same relation (e.g. `{0≺1, 1≺2}` vs
/// `{0≺1, 1≺2, 0≺2}`) are identified.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PlanFingerprint {
    bytes: Vec<u8>,
}

impl fmt::Debug for PlanFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PlanFingerprint({:016x})", self.digest())
    }
}

/// Leaf budget of the individualize-and-refine search. Queries are tiny
/// (≤ 64 edges), so real workloads stay far below this; the cap only
/// bounds adversarially symmetric inputs (see [`PlanFingerprint`] for
/// why an exhausted budget is safe).
const FINGERPRINT_MAX_LEAVES: usize = 2_000;

/// Budget on duplicate-edge-triple permutations tried when minimizing
/// the timing encoding (parallel edges with identical signatures).
const FINGERPRINT_MAX_TIE_PERMS: usize = 720;

impl PlanFingerprint {
    /// Fingerprints a query (dropping the edge permutation).
    pub fn of(q: &QueryGraph) -> PlanFingerprint {
        PlanFingerprint::canonicalize(q).0
    }

    /// Fingerprints a query and returns the edge permutation into the
    /// canonical form: `perm[e]` is the canonical index of query edge
    /// `e`. Two queries with equal fingerprints can be aligned by
    /// composing one permutation with the other's inverse.
    pub fn canonicalize(q: &QueryGraph) -> (PlanFingerprint, Vec<usize>) {
        // Initial colouring: dense ids of the vertex labels, assigned in
        // ascending label order so the partition is input-order free.
        let mut labels: Vec<u16> = q.vertex_labels.iter().map(|l| l.0).collect();
        labels.sort_unstable();
        labels.dedup();
        let mut colors: Vec<u32> = q
            .vertex_labels
            .iter()
            .map(|l| {
                labels
                    .binary_search(&l.0)
                    .unwrap_or_else(|_| unreachable!("label came from this list"))
                    as u32
            })
            .collect();
        wl_refine(q, &mut colors);
        let mut search = FingerprintSearch { q, best: None, leaves: 0 };
        search.run(colors);
        let (bytes, perm) =
            search.best.unwrap_or_else(|| unreachable!("≥1 leaf: cells only ever split"));
        debug_assert_eq!(perm.len(), q.n_edges());
        (PlanFingerprint { bytes }, perm)
    }

    /// A short display form (FNV-1a over the canonical bytes). Unlike
    /// the fingerprint itself the digest can collide; use it for logs
    /// and stats, not identity.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &self.bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// One round-to-fixpoint Weisfeiler–Leman colour refinement: a vertex's
/// new colour is its old colour plus the multiset of (direction, edge
/// label, neighbour colour) over its incident edges. Colours are
/// re-densified by sorted key each round, so equal partitions get equal
/// numberings whatever order the input listed vertices in.
fn wl_refine(q: &QueryGraph, colors: &mut [u32]) {
    /// A vertex's refinement key: its colour plus the sorted multiset of
    /// (direction, edge label, neighbour colour) over incident edges.
    type WlKey = (u32, Vec<(u8, u16, u32)>);
    let n = colors.len();
    loop {
        let mut keys: Vec<WlKey> = (0..n)
            .map(|v| {
                let mut inc = Vec::new();
                for e in &q.edges {
                    if e.src == v && e.dst == v {
                        inc.push((2u8, e.label.0, colors[v]));
                    } else if e.src == v {
                        inc.push((0u8, e.label.0, colors[e.dst]));
                    } else if e.dst == v {
                        inc.push((1u8, e.label.0, colors[e.src]));
                    }
                }
                inc.sort_unstable();
                (colors[v], inc)
            })
            .collect();
        let mut sorted: Vec<WlKey> = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let before = colors.iter().collect::<std::collections::BTreeSet<_>>().len();
        if sorted.len() == before {
            return; // stable partition — refining further changes nothing
        }
        for (v, key) in keys.drain(..).enumerate() {
            colors[v] = sorted
                .binary_search(&key)
                .unwrap_or_else(|_| unreachable!("key came from this list"))
                as u32;
        }
    }
}

/// Individualize-and-refine over the stable partition: branch on each
/// vertex of the first non-singleton cell, refine, recurse; at discrete
/// leaves serialize the query under the induced vertex order and keep
/// the lexicographically smallest encoding.
struct FingerprintSearch<'a> {
    q: &'a QueryGraph,
    best: Option<(Vec<u8>, Vec<usize>)>,
    leaves: usize,
}

impl FingerprintSearch<'_> {
    fn run(&mut self, colors: Vec<u32>) {
        if self.leaves >= FINGERPRINT_MAX_LEAVES {
            return;
        }
        let n = colors.len();
        // Colours are not necessarily dense here (a refinement that was
        // already stable returns them doubled), so find the smallest
        // *value* that names a non-singleton cell.
        let mut sorted_colors = colors.clone();
        sorted_colors.sort_unstable();
        let duplicated = sorted_colors.windows(2).find(|w| w[0] == w[1]).map(|w| w[0]);
        let target = match duplicated {
            None => {
                // Discrete colouring — one canonical candidate.
                self.leaves += 1;
                let cand = encode_under(self.q, &colors);
                if self.best.as_ref().is_none_or(|b| cand.0 < b.0) {
                    self.best = Some(cand);
                }
                return;
            }
            Some(c) => c,
        };
        for v in 0..n {
            if colors[v] != target {
                continue;
            }
            // Individualize `v` just below its cell: double every colour
            // (cells keep even values) and park `v` on the odd value in
            // between. Colours stay ≤ 2n + 2, so no overflow.
            let mut next: Vec<u32> = colors.iter().map(|&c| c * 2 + 2).collect();
            next[v] = target * 2 + 1;
            wl_refine(self.q, &mut next);
            self.run(next);
        }
    }
}

/// Serializes `q` under the vertex order induced by a discrete
/// colouring; returns (canonical bytes, edge permutation). Parallel
/// edges with identical canonical triples are tie-broken by trying
/// their permutations against the timing encoding (capped; the
/// fallback keeps input order, which can only miss sharing).
fn encode_under(q: &QueryGraph, colors: &[u32]) -> (Vec<u8>, Vec<usize>) {
    let n = q.n_vertices();
    let m = q.n_edges();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&v| colors[v]);
    let mut pi = vec![0usize; n];
    for (pos, &v) in order.iter().enumerate() {
        pi[v] = pos;
    }
    // Canonical edge triples, ties among identical triples by original
    // index for now (revisited below).
    let mut es: Vec<(usize, usize, u16, usize)> =
        q.edges.iter().enumerate().map(|(i, e)| (pi[e.src], pi[e.dst], e.label.0, i)).collect();
    es.sort_unstable();
    // `orig[j]` = original index of canonical edge `j`.
    let mut orig: Vec<usize> = es.iter().map(|&(_, _, _, i)| i).collect();
    // Duplicate-triple groups: ranges of canonical positions whose
    // (src, dst, label) coincide. The timing order may distinguish
    // members, so the assignment within a group is searched.
    let mut groups: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    for j in 1..=m {
        if j == m || (es[j].0, es[j].1, es[j].2) != (es[start].0, es[start].1, es[start].2) {
            if j - start > 1 {
                groups.push((start, j));
            }
            start = j;
        }
    }
    let combos: usize = groups
        .iter()
        .map(|&(s, e)| (1..=(e - s)).product::<usize>())
        .try_fold(1usize, |a, f: usize| a.checked_mul(f))
        .unwrap_or(usize::MAX);
    if !groups.is_empty() && combos <= FINGERPRINT_MAX_TIE_PERMS {
        let mut best_timing: Option<(Vec<u8>, Vec<usize>)> = None;
        permute_groups(&groups, &mut orig, 0, &mut |orig: &[usize]| {
            let cand = timing_bytes(q, orig);
            if best_timing.as_ref().is_none_or(|b| cand < b.0) {
                best_timing = Some((cand, orig.to_vec()));
            }
        });
        if let Some((_, o)) = best_timing {
            orig = o;
        }
    }
    let mut perm = vec![0usize; m];
    for (j, &e) in orig.iter().enumerate() {
        perm[e] = j;
    }
    // Faithful serialization: sizes, labels, structure, timing closure.
    let mut bytes = Vec::with_capacity(8 + 2 * n + 10 * m);
    push_u32(&mut bytes, n as u32);
    push_u32(&mut bytes, m as u32);
    for &v in &order {
        push_u16(&mut bytes, q.vertex_labels[v].0);
    }
    for &(s, d, l, _) in &es {
        push_u32(&mut bytes, s as u32);
        push_u32(&mut bytes, d as u32);
        push_u16(&mut bytes, l);
    }
    bytes.extend_from_slice(&timing_bytes(q, &orig));
    (bytes, perm)
}

/// Timing-closure encoding under the canonical edge order `orig`
/// (`orig[j]` = original index of canonical edge `j`): per canonical
/// edge, the sorted canonical indices of its closure predecessors.
fn timing_bytes(q: &QueryGraph, orig: &[usize]) -> Vec<u8> {
    let m = orig.len();
    let mut perm = vec![0usize; m];
    for (j, &e) in orig.iter().enumerate() {
        perm[e] = j;
    }
    let mut bytes = Vec::with_capacity(m * 4);
    for &e in orig {
        let mut preds: Vec<u32> = Vec::new();
        let mut mask = q.order.before_mask(e);
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            preds.push(perm[i] as u32);
        }
        preds.sort_unstable();
        push_u32(&mut bytes, preds.len() as u32);
        for p in preds {
            push_u32(&mut bytes, p);
        }
    }
    bytes
}

/// Visits every within-group permutation of `orig` (groups are disjoint
/// canonical-position ranges), invoking `f` on each arrangement.
fn permute_groups(
    groups: &[(usize, usize)],
    orig: &mut Vec<usize>,
    g: usize,
    f: &mut impl FnMut(&[usize]),
) {
    match groups.get(g) {
        None => f(orig),
        Some(&(s, e)) => {
            // Recursive lexicographic permutations of orig[s..e].
            fn perm_range(
                groups: &[(usize, usize)],
                orig: &mut Vec<usize>,
                s: usize,
                e: usize,
                i: usize,
                g: usize,
                f: &mut impl FnMut(&[usize]),
            ) {
                if i + 1 >= e - s {
                    permute_groups(groups, orig, g + 1, f);
                    return;
                }
                for j in i..(e - s) {
                    orig.swap(s + i, s + j);
                    perm_range(groups, orig, s, e, i + 1, g, f);
                    orig.swap(s + i, s + j);
                }
            }
            perm_range(groups, orig, s, e, 0, g, f);
        }
    }
}

fn push_u32(bytes: &mut Vec<u8>, v: u32) {
    bytes.extend_from_slice(&v.to_le_bytes());
}

fn push_u16(bytes: &mut Vec<u8>, v: u16) {
    bytes.extend_from_slice(&v.to_le_bytes());
}

/// First (level, is-dst) position binding query vertex `v` within the
/// edges `seq`, if any.
fn first_binding(q: &QueryGraph, seq: &[usize], v: usize) -> Option<(usize, bool)> {
    for (level, &e) in seq.iter().enumerate() {
        let qe = q.edges[e];
        if qe.src == v {
            return Some((level, false));
        }
        if qe.dst == v {
            return Some((level, true));
        }
    }
    None
}

/// Chain-join key specs: for every position `(i, j ≥ 1)`, the query
/// vertices of `ε_j = seq[j]` already bound by the prefix `seq[0..j]`, in
/// ascending query-vertex order (both join sides fold in the same order,
/// so the fold order only has to be canonical).
fn chain_key_specs(q: &QueryGraph, subs: &[TcSubquery]) -> Vec<Vec<Vec<ChainKeyPart>>> {
    subs.iter()
        .map(|s| {
            let mut per_level = vec![Vec::new()];
            for j in 1..s.len() {
                let qe = q.edges[s.seq[j]];
                let mut verts = vec![qe.src];
                if qe.dst != qe.src {
                    verts.push(qe.dst);
                }
                verts.sort_unstable();
                let mut parts = Vec::new();
                for v in verts {
                    if let Some((level, level_dst)) = first_binding(q, &s.seq[..j], v) {
                        parts.push(ChainKeyPart {
                            sigma_dst: v == qe.dst && v != qe.src,
                            level,
                            level_dst,
                        });
                    }
                }
                per_level.push(parts);
            }
            per_level
        })
        .collect()
}

/// `L₀`-join key specs: for every `1 ≤ i < k`, the query vertices shared
/// between the union of subqueries `0..i` and subquery `i`, with the
/// first binding position on each side, in ascending query-vertex order.
fn l0_key_specs(q: &QueryGraph, subs: &[TcSubquery]) -> Vec<Vec<L0KeyPart>> {
    let k = subs.len();
    let mut out = vec![Vec::new()];
    for i in 1..k {
        let mut in_right = vec![false; q.n_vertices()];
        for &e in &subs[i].seq {
            in_right[q.edges[e].src] = true;
            in_right[q.edges[e].dst] = true;
        }
        let mut parts = Vec::new();
        for (v, &shared) in in_right.iter().enumerate() {
            if !shared {
                continue;
            }
            // First row-side binding: walk subqueries 0..i in join order.
            let row = subs[..i].iter().enumerate().find_map(|(sub, s)| {
                first_binding(q, &s.seq, v).map(|(level, dst)| (sub, level, dst))
            });
            if let Some(row) = row {
                let delta = first_binding(q, &subs[i].seq, v)
                    .unwrap_or_else(|| unreachable!("v is in the right side"));
                parts.push(L0KeyPart { row, delta: (delta.0, delta.1) });
            }
        }
        out.push(parts);
    }
    out
}

/// Timing-floor specs for the `L₀` joins: per join `i`, the Δ-side levels
/// whose edge a cross-subquery ≺ constraint places before some row-side
/// edge. A row older than (or as old as) all of Δ's bindings at those
/// levels cannot satisfy the constraints, whatever its own bindings are —
/// the necessary condition the ordered-bucket range walk exploits.
fn l0_delta_floor_specs(q: &QueryGraph, subs: &[TcSubquery]) -> Vec<Vec<usize>> {
    let k = subs.len();
    let mut out = vec![Vec::new()];
    for i in 1..k {
        let row_mask: u64 = subs[..i].iter().map(|s| s.mask).fold(0, |a, m| a | m);
        let mut levels = Vec::new();
        for (d, &e) in subs[i].seq.iter().enumerate() {
            if q.order.after_mask(e) & row_mask != 0 {
                levels.push(d);
            }
        }
        out.push(levels);
    }
    out
}

/// Timing-floor specs for the rightward leaf probes: per subquery `s`,
/// the row-side positions whose edge must precede some edge of `s` — a
/// leaf not newer than all of the row's bindings there cannot join.
fn leaf_floor_specs(q: &QueryGraph, subs: &[TcSubquery]) -> Vec<Vec<(usize, usize)>> {
    let k = subs.len();
    let mut out = vec![Vec::new()];
    for s in 1..k {
        let mut positions = Vec::new();
        for (sub, sq) in subs.iter().enumerate().take(s) {
            for (lvl, &e) in sq.seq.iter().enumerate() {
                if q.order.after_mask(e) & subs[s].mask != 0 {
                    positions.push((sub, lvl));
                }
            }
        }
        out.push(positions);
    }
    out
}

/// A random edge-disjoint cover by TC-subqueries (Timing-RD): walk
/// `TCsub(Q)` in a seeded pseudo-random order and keep whatever fits.
/// Singletons guarantee completion.
fn random_cover(q: &QueryGraph, tcsub: &[TcSubquery], seed: u64) -> Decomposition {
    let mut idx: Vec<usize> = (0..tcsub.len()).collect();
    // Seeded Fisher–Yates with a splitmix64 sequence.
    let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..idx.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    let all = if q.n_edges() == 64 { u64::MAX } else { (1u64 << q.n_edges()) - 1 };
    let mut covered = 0u64;
    let mut chosen = Vec::new();
    for i in idx {
        if covered == all {
            break;
        }
        let s = &tcsub[i];
        if s.mask & covered == 0 {
            covered |= s.mask;
            chosen.push(s.clone());
        }
    }
    debug_assert_eq!(covered, all);
    Decomposition { subqueries: chosen }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;

    #[test]
    fn timing_plan_on_running_example() {
        let q = QueryGraph::running_example();
        let plan = QueryPlan::build(q.clone(), PlanOptions::timing());
        assert_eq!(plan.k(), 3);
        // Every edge has a position and positions are within bounds.
        for e in 0..q.n_edges() {
            let (s, l) = plan.pos[e];
            assert!(s < plan.k());
            assert!(l < plan.subs[s].len());
            assert_eq!(plan.subs[s].seq[l], e);
        }
        // Signature lookup: every edge label is distinct here, so each
        // signature maps to exactly one query edge.
        for e in 0..q.n_edges() {
            assert_eq!(plan.candidates(q.signature(e)), &[e]);
        }
        assert!(plan.candidates((VLabel(99), VLabel(99), ELabel(0))).is_empty());
    }

    #[test]
    fn random_variants_are_valid_partitions() {
        let q = QueryGraph::running_example();
        for opts in [
            PlanOptions::random_decomposition(3),
            PlanOptions::random_join(4),
            PlanOptions::random_both(5),
        ] {
            let plan = QueryPlan::build(q.clone(), opts);
            let d = Decomposition { subqueries: plan.subs.clone() };
            assert!(d.is_partition_of(&q));
            assert!(is_prefix_connected(&q, &plan.subs));
        }
    }

    #[test]
    fn random_decomposition_tends_to_be_larger() {
        // Timing-RD often picks a suboptimal k — over many seeds its mean k
        // is at least the greedy k, usually strictly greater for the
        // running example.
        let q = QueryGraph::running_example();
        let greedy_k = QueryPlan::build(q.clone(), PlanOptions::timing()).k();
        let mean_random: f64 = (0..32)
            .map(|s| QueryPlan::build(q.clone(), PlanOptions::random_decomposition(s)).k() as f64)
            .sum::<f64>()
            / 32.0;
        assert!(mean_random >= greedy_k as f64);
    }

    #[test]
    fn positions_cover_deletion_targets() {
        let q = QueryGraph::running_example();
        let plan = QueryPlan::build(q.clone(), PlanOptions::timing());
        let sig = q.signature(3); // ε4
        let ps = plan.positions(sig);
        assert_eq!(ps, vec![plan.pos[3]]);
    }

    #[test]
    fn sub_lens_sum_to_edge_count() {
        let q = QueryGraph::running_example();
        let plan = QueryPlan::build(q, PlanOptions::timing());
        assert_eq!(plan.sub_lens().iter().sum::<usize>(), 6);
    }

    use tcs_graph::QueryEdge;

    /// The running example with vertices renumbered by `pi` and edges
    /// listed in `edge_order`, timing pairs remapped to match.
    fn relabelled_running_example(pi: &[usize], edge_order: &[usize]) -> QueryGraph {
        let q = QueryGraph::running_example();
        let mut labels = vec![VLabel(0); q.n_vertices()];
        for (v, &p) in pi.iter().enumerate() {
            labels[p] = q.vertex_labels[v];
        }
        let mut inv = vec![0usize; edge_order.len()];
        for (new, &old) in edge_order.iter().enumerate() {
            inv[old] = new;
        }
        let edges: Vec<QueryEdge> = edge_order
            .iter()
            .map(|&e| {
                let qe = q.edges[e];
                QueryEdge { src: pi[qe.src], dst: pi[qe.dst], label: qe.label }
            })
            .collect();
        let pairs: Vec<(usize, usize)> =
            q.order.pairs().iter().map(|&(i, j)| (inv[i], inv[j])).collect();
        QueryGraph::new(labels, edges, &pairs).unwrap()
    }

    #[test]
    fn fingerprint_invariant_under_renumbering_and_reordering() {
        let q = QueryGraph::running_example();
        let base = PlanFingerprint::of(&q);
        let relabelled = relabelled_running_example(&[3, 5, 0, 2, 4, 1], &[4, 2, 0, 5, 3, 1]);
        assert_ne!(q.edges, relabelled.edges, "the rewrite actually changed the listing");
        assert_eq!(base, PlanFingerprint::of(&relabelled));
        // Identity rewrite too.
        let same = relabelled_running_example(&[0, 1, 2, 3, 4, 5], &[0, 1, 2, 3, 4, 5]);
        assert_eq!(base, PlanFingerprint::of(&same));
    }

    #[test]
    fn fingerprint_edge_perm_aligns_isomorphic_queries() {
        let q = QueryGraph::running_example();
        let r = relabelled_running_example(&[3, 5, 0, 2, 4, 1], &[4, 2, 0, 5, 3, 1]);
        let (fq, pq) = PlanFingerprint::canonicalize(&q);
        let (fr, pr) = PlanFingerprint::canonicalize(&r);
        assert_eq!(fq, fr);
        // perm maps each query's edges onto one shared canonical listing:
        // corresponding edges carry equal signatures and timing closures.
        let mut canon_q = [usize::MAX; 6];
        let mut canon_r = [usize::MAX; 6];
        for e in 0..6 {
            canon_q[pq[e]] = e;
            canon_r[pr[e]] = e;
        }
        for j in 0..6 {
            assert_eq!(q.signature(canon_q[j]), r.signature(canon_r[j]));
            // Closure predecessors agree through the permutations.
            let mut preds_q: Vec<usize> =
                (0..6).filter(|&i| q.order.lt(i, canon_q[j])).map(|i| pq[i]).collect();
            let mut preds_r: Vec<usize> =
                (0..6).filter(|&i| r.order.lt(i, canon_r[j])).map(|i| pr[i]).collect();
            preds_q.sort_unstable();
            preds_r.sort_unstable();
            assert_eq!(preds_q, preds_r);
        }
    }

    #[test]
    fn fingerprint_separates_structure_labels_and_timing() {
        let q = QueryGraph::running_example();
        let base = PlanFingerprint::of(&q);
        // Different vertex label.
        let mut labels: Vec<VLabel> = q.vertex_labels.clone();
        labels[2] = VLabel(99);
        let lab = QueryGraph::new(labels, q.edges.clone(), q.order.pairs()).unwrap();
        assert_ne!(base, PlanFingerprint::of(&lab));
        // Extra timing constraint (not closure-implied).
        let mut pairs = q.order.pairs().to_vec();
        pairs.push((0, 1));
        let tim = QueryGraph::new(q.vertex_labels.clone(), q.edges.clone(), &pairs).unwrap();
        assert_ne!(base, PlanFingerprint::of(&tim));
        // Different structure (redirect an edge endpoint).
        let mut edges = q.edges.clone();
        edges[1] = QueryEdge { src: 1, dst: 3, label: edges[1].label };
        let st = QueryGraph::new(q.vertex_labels.clone(), edges, q.order.pairs()).unwrap();
        assert_ne!(base, PlanFingerprint::of(&st));
    }

    #[test]
    fn fingerprint_identifies_equal_timing_closures() {
        // {0≺1, 1≺2} and its closure {0≺1, 1≺2, 0≺2} are the same order.
        let labels = vec![VLabel(0), VLabel(1), VLabel(2), VLabel(3)];
        let edges = vec![
            QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
            QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
            QueryEdge { src: 2, dst: 3, label: ELabel::NONE },
        ];
        let a = QueryGraph::new(labels.clone(), edges.clone(), &[(0, 1), (1, 2)]).unwrap();
        let b = QueryGraph::new(labels, edges, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(PlanFingerprint::of(&a), PlanFingerprint::of(&b));
    }

    #[test]
    fn fingerprint_distinguishes_parallel_edges_by_timing() {
        // Two parallel a→b edges where only the timing order tells them
        // apart; listing them in either order must fingerprint equal,
        // while dropping the constraint must not.
        let labels = vec![VLabel(0), VLabel(1)];
        let para = |pairs: &[(usize, usize)]| {
            QueryGraph::new(
                labels.clone(),
                vec![
                    QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
                    QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
                ],
                pairs,
            )
            .unwrap()
        };
        let fwd = para(&[(0, 1)]);
        let rev = para(&[(1, 0)]);
        let free = para(&[]);
        assert_eq!(PlanFingerprint::of(&fwd), PlanFingerprint::of(&rev));
        assert_ne!(PlanFingerprint::of(&fwd), PlanFingerprint::of(&free));
    }

    #[test]
    fn fingerprint_ignores_plan_options() {
        let q = QueryGraph::running_example();
        let a = QueryPlan::build(q.clone(), PlanOptions::timing()).fingerprint();
        let b = QueryPlan::build(q, PlanOptions::random_both(7)).fingerprint();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn fingerprint_survives_symmetric_queries() {
        // A 4-cycle of identical labels has a large automorphism group —
        // the search must still terminate and stay invariant under
        // rotation of the edge listing.
        let labels = vec![VLabel(0); 4];
        let cyc = |rot: usize| {
            let edges: Vec<QueryEdge> = (0..4)
                .map(|i| {
                    let j = (i + rot) % 4;
                    QueryEdge { src: j, dst: (j + 1) % 4, label: ELabel::NONE }
                })
                .collect();
            QueryGraph::new(labels.clone(), edges, &[]).unwrap()
        };
        let f0 = PlanFingerprint::of(&cyc(0));
        for rot in 1..4 {
            assert_eq!(f0, PlanFingerprint::of(&cyc(rot)));
        }
    }
}
