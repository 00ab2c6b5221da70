//! The five workloads: frozen parameters, input generation and screening.
//!
//! Everything here is the benchmark's own (untimed) work. Its product is
//! *text* — a 7-field stream file and `v/e/t` query files — which is all
//! the system under test ever receives (see `pipeline::set_up`).
//!
//! What `--seed` moves and what it does not. A workload is its stream's
//! shape (who the hubs are, which labels meet at them, when) and its
//! query set; both are frozen at [`STRUCTURE_SEED`], the stream as the
//! named generator's output, the queries in `queries/*.txt` (`screen`
//! regenerates them). `--seed` draws the *vertex naming*: a random
//! bijection of vertex ids, so every hash, join key and bucket differs
//! while the match stream is the same up to that renaming. The reason is
//! measured, not assumed (README, "What the seed moves"): re-drawing
//! stream and queries per seed moved throughput and state 2x and p99 10x
//! between seeds; re-drawing only the stream still moved throughput 15 %
//! and p99 10x, because on hub-skewed streams a run's cost sits in a few
//! bursts that differ per draw. No bound could tell a regression from a
//! re-roll on such inputs.

use std::fmt::Write as _;
use tcs_core::{MsTreeStore, PlanFingerprint, PlanOptions, QueryPlan, TimingEngine};
use tcs_graph::gen::{Dataset, QueryGen, TimingMode};
use tcs_graph::io::{query_from_str, query_to_string, stream_to_string};
use tcs_graph::{QueryGraph, SlidingWindow, StreamEdge, VertexId};

/// Window duration of every workload, in time units (≈ edges).
pub const WINDOW: u64 = 5_000;
/// Query size (edges) of every candidate.
pub const QUERY_EDGES: usize = 6;
/// The generator seed of every workload's stream, at which the query
/// sets were screened.
pub const STRUCTURE_SEED: u64 = 42;
/// Shards of the `sharded_mixed` workload (= cores of the sandbox).
pub const SHARDS: usize = 2;

/// Which serving stack a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stack {
    /// `SlidingWindow::advance` → `TimingEngine::advance`, one query at a
    /// time, one arrival per call.
    Bare,
    /// `MultiQueryEngine::advance_batch`.
    Multi,
    /// `ShardedMultiEngine::process` over [`SHARDS`] shards.
    Sharded,
}

/// Exact figures of one candidate query over the count-only pilot.
#[derive(Clone, Copy, Debug)]
pub struct Pilot {
    pub matches_per_edge: f64,
    pub partials_per_edge: f64,
    pub discarded_per_edge: f64,
    /// Arrivals that completed at least one match, per edge.
    pub detections_per_edge: f64,
    /// Most work one arrival caused: partial matches inserted plus
    /// matches completed. A run whose cost sits in a few huge bursts has
    /// its p99 decided by whether a scheduling hiccup lands on one.
    pub max_work_per_arrival: f64,
}

/// Screening band: a candidate is kept iff every pilot figure lies inside
/// its closed interval.
#[derive(Clone, Copy, Debug)]
pub struct Band {
    pub matches_per_edge: (f64, f64),
    pub partials_per_edge: (f64, f64),
    pub discarded_per_edge: (f64, f64),
    pub detections_per_edge: (f64, f64),
    pub max_work_per_arrival: (f64, f64),
}

const ANY: (f64, f64) = (0.0, f64::INFINITY);

impl Band {
    fn holds(&self, p: &Pilot) -> bool {
        let inside = |x: f64, (lo, hi): (f64, f64)| x >= lo && x <= hi;
        inside(p.matches_per_edge, self.matches_per_edge)
            && inside(p.partials_per_edge, self.partials_per_edge)
            && inside(p.discarded_per_edge, self.discarded_per_edge)
            && inside(p.detections_per_edge, self.detections_per_edge)
            && inside(p.max_work_per_arrival, self.max_work_per_arrival)
    }
}

/// Frozen parameters of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub dataset: Dataset,
    pub stack: Stack,
    /// Distinct query templates.
    pub templates: usize,
    /// Subscribers registered per template (1 = no fan-out).
    pub copies: usize,
    /// The band the frozen query set was screened with.
    pub band: Band,
    /// The frozen query set (`queries/<file>`), `templates` blocks.
    pub queries: &'static str,
    /// File name of the query set under `queries/`.
    pub queries_file: &'static str,
    /// Measured edges of one pass (per query on the bare stack).
    pub closed_edges: usize,
    /// Largest batch handed to one call of the stack.
    pub batch: usize,
    /// Window and length of the stream prefix the oracle pass replays.
    /// `SnapshotOracle` enumerates the whole snapshot at every arrival, so
    /// its cost climbs steeply with the window, while below ~2000 time
    /// units no 6-edge query of these sets completes a match at all: each
    /// pair is the cheapest found that gives the workload a non-empty
    /// reference in under 3 s.
    pub oracle_window: u64,
    pub oracle_edges: usize,
}

const MIXED_BAND: Band = Band {
    matches_per_edge: (0.0, 1.0),
    partials_per_edge: ANY,
    discarded_per_edge: ANY,
    detections_per_edge: ANY,
    max_work_per_arrival: (0.0, 5_000.0),
};

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "bare_join",
        dataset: Dataset::NetworkFlow,
        stack: Stack::Bare,
        templates: 8,
        copies: 1,
        band: Band {
            matches_per_edge: (0.0, 10.0),
            partials_per_edge: (1.0, 12.0),
            discarded_per_edge: ANY,
            detections_per_edge: (0.001, 1.0),
            max_work_per_arrival: (0.0, 5_000.0),
        },
        queries: include_str!("../queries/bare_join.txt"),
        queries_file: "bare_join.txt",
        closed_edges: 100_000,
        batch: 1,
        oracle_window: 2_000,
        oracle_edges: 2_800,
    },
    Spec {
        name: "bare_discard",
        dataset: Dataset::WikiTalk,
        stack: Stack::Bare,
        templates: 8,
        copies: 1,
        band: Band {
            matches_per_edge: ANY,
            partials_per_edge: (0.0, 1.0),
            discarded_per_edge: (0.95, 1.0),
            detections_per_edge: (0.0004, 1.0),
            max_work_per_arrival: (0.0, 500.0),
        },
        queries: include_str!("../queries/bare_discard.txt"),
        queries_file: "bare_discard.txt",
        closed_edges: 600_000,
        batch: 1,
        oracle_window: 3_000,
        oracle_edges: 5_000,
    },
    Spec {
        name: "multi_mixed",
        dataset: Dataset::WikiTalk,
        stack: Stack::Multi,
        templates: 64,
        copies: 1,
        band: MIXED_BAND,
        queries: include_str!("../queries/mixed.txt"),
        queries_file: "mixed.txt",
        closed_edges: 120_000,
        batch: 256,
        oracle_window: 2_500,
        oracle_edges: 4_500,
    },
    Spec {
        name: "sharded_mixed",
        dataset: Dataset::WikiTalk,
        stack: Stack::Sharded,
        templates: 64,
        copies: 1,
        band: MIXED_BAND,
        queries: include_str!("../queries/mixed.txt"),
        queries_file: "mixed.txt",
        closed_edges: 120_000,
        batch: 4_096,
        oracle_window: 2_500,
        oracle_edges: 4_500,
    },
    Spec {
        name: "multi_fanout",
        dataset: Dataset::NetworkFlow,
        stack: Stack::Multi,
        templates: 4,
        copies: 128,
        band: Band {
            matches_per_edge: (0.05, 1.5),
            partials_per_edge: (0.0, 12.0),
            discarded_per_edge: ANY,
            detections_per_edge: (0.004, 1.0),
            max_work_per_arrival: (0.0, 2_500.0),
        },
        queries: include_str!("../queries/fanout.txt"),
        queries_file: "fanout.txt",
        closed_edges: 40_000,
        batch: 256,
        oracle_window: 2_500,
        oracle_edges: 4_000,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

// ---- the stream ----------------------------------------------------------

/// splitmix64: the benchmark's own seeded generator (the stream itself
/// comes from `tcs_graph::gen`).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Renames the stream's vertices by a bijection of `0..=max id` drawn
/// from `seed` (Fisher-Yates).
fn rename_vertices(stream: &mut [StreamEdge], seed: u64) {
    let n = stream.iter().map(|e| e.src.0.max(e.dst.0)).max().map_or(0, |m| m as usize + 1);
    let mut name: Vec<u32> = (0..n as u32).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        name.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
    }
    for e in stream {
        e.src = VertexId(name[e.src.0 as usize]);
        e.dst = VertexId(name[e.dst.0 as usize]);
    }
}

/// The first `n` edges of the workload's stream under `seed`'s naming.
fn stream(spec: &Spec, n: usize, seed: u64) -> Vec<StreamEdge> {
    let mut edges = spec.dataset.generate(n, STRUCTURE_SEED);
    rename_vertices(&mut edges, seed);
    edges
}

// ---- generated inputs ----------------------------------------------------

/// What the system under test is handed: text only.
pub struct Inputs {
    /// 7-field stream lines: `WINDOW` warm-up edges, then the measured ones.
    pub stream_text: String,
    /// One `v/e/t` file per registration, in registration order. With
    /// `copies > 1` every second copy of a template lists its query edges
    /// in reversed numbering (a permuted twin: same query, remap path).
    pub query_texts: Vec<String>,
}

/// Splits a `queries/*.txt` file into its `# query` blocks.
fn query_blocks(text: &str) -> Vec<String> {
    let mut blocks: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.starts_with("# query") {
            blocks.push(String::new());
        }
        if let Some(b) = blocks.last_mut() {
            b.push_str(line);
            b.push('\n');
        }
    }
    blocks
}

/// Reverses a query's edge numbering, carrying the timing pairs along.
fn reversed_twin(q: &QueryGraph) -> QueryGraph {
    let k = q.n_edges();
    let edges = q.edges.iter().rev().copied().collect();
    let pairs: Vec<(usize, usize)> =
        q.order.pairs().iter().map(|&(a, b)| (k - 1 - a, k - 1 - b)).collect();
    QueryGraph::new(q.vertex_labels.clone(), edges, &pairs)
        .unwrap_or_else(|e| unreachable!("renumbering a valid query keeps it valid: {e}"))
}

/// One workload's inputs: the stream from `seed`, the frozen query set.
/// `measured` = edges after the warm-up prefix.
pub fn generate(spec: &Spec, seed: u64, measured: usize) -> Result<Inputs, String> {
    let blocks = query_blocks(spec.queries);
    if blocks.len() != spec.templates {
        return Err(format!(
            "queries/{} holds {} queries, {} wants {}; run `screen`",
            spec.queries_file,
            blocks.len(),
            spec.name,
            spec.templates
        ));
    }
    let mut query_texts = Vec::with_capacity(blocks.len() * spec.copies);
    let mut twins: Vec<String> = Vec::new();
    if spec.copies > 1 {
        for b in &blocks {
            let q = query_from_str(b).map_err(|e| format!("queries/{}: {e}", spec.queries_file))?;
            twins.push(query_to_string(&reversed_twin(&q)));
        }
    }
    for c in 0..spec.copies {
        query_texts.extend(if c % 2 == 1 { twins.iter().cloned() } else { blocks.iter().cloned() });
    }
    let edges = stream(spec, WINDOW as usize + measured, seed);
    Ok(Inputs { stream_text: stream_to_string(&edges), query_texts })
}

// ---- screening (the `screen` subcommand) ---------------------------------

/// Live-partial cap of the pilot engine; reaching it disqualifies.
const PILOT_PARTIAL_CAP: u64 = 100_000;
/// Candidates drawn per `generate_many` call.
const CANDIDATE_CHUNK: usize = 32;
/// Give up after this many candidates (a band nothing passes is a bug in
/// the spec, not something to loop on).
const MAX_CANDIDATES: usize = 4_096;

/// Runs one candidate over the workload's whole stream (warm-up and
/// measured edges); `None` when it saturated the cap or tripped the abort
/// rule (`partials_inserted > 30·edges + 10k`). Counts only — no clock is
/// read anywhere in screening.
fn pilot(q: &QueryGraph, stream: &[StreamEdge]) -> Option<Pilot> {
    let mut engine: TimingEngine<MsTreeStore> =
        TimingEngine::new(QueryPlan::build(q.clone(), PlanOptions::timing()));
    engine.set_partial_cap(PILOT_PARTIAL_CAP);
    let mut window = SlidingWindow::new(WINDOW);
    let (mut detections, mut max_work) = (0u64, 0u64);
    for (i, &e) in stream.iter().enumerate() {
        let before = engine.stats();
        let ms = engine.advance(&window.advance(e));
        let st = engine.stats();
        detections += u64::from(!ms.is_empty());
        max_work = max_work.max(st.partials_inserted - before.partials_inserted + ms.len() as u64);
        if engine.saturated() || st.partials_inserted > 30 * (i as u64 + 1) + 10_000 {
            return None;
        }
    }
    let st = engine.stats();
    let n = stream.len() as f64;
    Some(Pilot {
        matches_per_edge: st.matches_emitted as f64 / n,
        partials_per_edge: st.partials_inserted as f64 / n,
        discarded_per_edge: st.edges_discarded as f64 / n,
        detections_per_edge: detections as f64 / n,
        max_work_per_arrival: max_work as f64,
    })
}

/// Candidate `i` of the workload's dataset: `QueryGen::generate_many(6,
/// Random, …)` over the stream's first window-sized regions, in chunks.
fn candidates(stream: &[StreamEdge], chunk: usize) -> Vec<QueryGraph> {
    // generate_many(base) tries base, base+1, …; a stride far above its
    // retry budget keeps successive chunks disjoint.
    let base = STRUCTURE_SEED.wrapping_add(((chunk * CANDIDATE_CHUNK) as u64) << 20);
    QueryGen::new(stream, WINDOW as usize).generate_many(
        QUERY_EDGES,
        TimingMode::Random,
        CANDIDATE_CHUNK,
        base,
    )
}

/// Screens `spec`'s query set: the first `spec.templates` candidates, in
/// generation order, that pass the pilot inside the band and are pairwise
/// distinct as plans. Returns the text of `queries/<file>`.
pub fn screen(spec: &Spec) -> Result<String, String> {
    let stream = stream(spec, WINDOW as usize + spec.closed_edges, STRUCTURE_SEED);
    let mut out = format!(
        "# Frozen query set of `{}`: screened by `screen` over the {} {} edges of the\n\
         # workload's stream (generator seed {STRUCTURE_SEED}, window {WINDOW}). Do not edit by hand.\n",
        spec.name,
        stream.len(),
        spec.dataset.name()
    );
    let mut prints: Vec<PlanFingerprint> = Vec::with_capacity(spec.templates);
    let mut drawn = 0usize;
    while prints.len() < spec.templates && drawn < MAX_CANDIDATES {
        let chunk = candidates(&stream, drawn / CANDIDATE_CHUNK);
        if chunk.is_empty() {
            return Err(format!("{}: query generator produced nothing", spec.name));
        }
        for (i, q) in chunk.iter().enumerate() {
            if prints.len() == spec.templates {
                break;
            }
            let Some(p) = pilot(q, &stream) else { continue };
            let fp = PlanFingerprint::of(q);
            if !spec.band.holds(&p) || prints.contains(&fp) {
                continue;
            }
            let _ = writeln!(
                out,
                "# query {}: candidate {}, matches/edge {:.4}, partials/edge {:.4}, \
                 discarded/edge {:.4}, detections/edge {:.4}, max work/arrival {}",
                prints.len(),
                drawn + i,
                p.matches_per_edge,
                p.partials_per_edge,
                p.discarded_per_edge,
                p.detections_per_edge,
                p.max_work_per_arrival
            );
            out.push_str(&query_to_string(q));
            prints.push(fp);
        }
        drawn += CANDIDATE_CHUNK;
    }
    if prints.len() < spec.templates {
        return Err(format!(
            "{}: only {} of {} queries passed screening after {drawn} candidates",
            spec.name,
            prints.len(),
            spec.templates
        ));
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;

    #[test]
    fn every_frozen_query_set_parses_and_has_the_spec_size() {
        for spec in &SPECS {
            let blocks = query_blocks(spec.queries);
            assert_eq!(blocks.len(), spec.templates, "{}", spec.name);
            let mut prints = Vec::new();
            for b in &blocks {
                let q = query_from_str(b).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
                assert_eq!(q.n_edges(), QUERY_EDGES);
                let fp = PlanFingerprint::of(&q);
                assert!(!prints.contains(&fp), "{}: duplicate plan", spec.name);
                prints.push(fp);
            }
        }
    }

    #[test]
    fn reversed_twin_is_the_same_query_in_another_numbering() {
        let q = query_from_str(&query_blocks(SPECS[4].queries)[0]).expect("frozen query parses");
        let twin = reversed_twin(&q);
        assert_ne!(q.edges, twin.edges);
        assert_eq!(PlanFingerprint::of(&q), PlanFingerprint::of(&twin));
    }

    #[test]
    fn renaming_is_a_bijection_that_depends_on_the_seed() {
        let base = Dataset::NetworkFlow.generate(2_000, STRUCTURE_SEED);
        let (mut a, mut b) = (base.clone(), base.clone());
        rename_vertices(&mut a, 1);
        rename_vertices(&mut b, 2);
        assert_ne!(a, b);
        // Same structure: equal endpoints stay equal, distinct stay distinct.
        let mut seen = std::collections::HashMap::new();
        for (x, y) in base.iter().zip(&a) {
            assert_eq!((x.id, x.label, x.ts), (y.id, y.label, y.ts));
            for (old, new) in [(x.src, y.src), (x.dst, y.dst)] {
                assert_eq!(*seen.entry(old).or_insert(new), new);
            }
        }
        let images: std::collections::HashSet<_> = seen.values().collect();
        assert_eq!(images.len(), seen.len());
    }
}
