#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench targets panic by design
//! The sharing layer's contract, test-enforced from two directions:
//!
//! 1. **Equivalence** (default build): under random register/unregister
//!    churn of *duplicated* plans — the workload sharing exists for, half
//!    of the duplicates permuted twins that number the query's edges the
//!    other way round — every subscriber's match stream is byte-identical
//!    to a fresh standalone [`TimingEngine`] built from its own plan and
//!    fed its registration episode, while the registry runs one engine
//!    per distinct live query; the routed/emitted counters account for
//!    every fan-out decision.
//! 2. **Blast radius** (`--features failpoints`): a fault injected while
//!    a shared template works hits *exactly* that template's subscribers
//!    — all of them, and nobody else. The whole-template blast radius is
//!    the price of sharing, and it is test-pinned, not folklore.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tcs_core::plan::{PlanOptions, QueryPlan};
use tcs_core::{MsTreeStore, TimingEngine};
use tcs_graph::query::QueryEdge;
use tcs_graph::window::SlidingWindow;
use tcs_graph::{ELabel, MatchRecord, QueryGraph, StreamEdge, VLabel};
use tcs_multi::{MultiQueryEngine, QueryId};

/// Tenant `t`'s two-hop path over its private label alphabet
/// `{3t, 3t+1, 3t+2}` — tenant edges route only to tenant queries, so
/// per-tenant match streams (and fault targeting) are deterministic.
fn tenant_query(t: u16) -> QueryGraph {
    QueryGraph::new(
        vec![VLabel(3 * t), VLabel(3 * t + 1), VLabel(3 * t + 2)],
        vec![
            QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
            QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
        ],
        &[(0, 1)],
    )
    .unwrap()
}

/// Tenant `t`'s query as a permuted twin: the same two-hop path with its
/// edges listed in reverse (edge 0 is the second hop) and its vertices
/// renumbered — it shares the tenant's template, and its matches come
/// back in its own edge order.
fn twin_query(t: u16) -> QueryGraph {
    QueryGraph::new(
        vec![VLabel(3 * t + 2), VLabel(3 * t), VLabel(3 * t + 1)],
        vec![
            QueryEdge { src: 2, dst: 0, label: ELabel::NONE },
            QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
        ],
        &[(1, 0)],
    )
    .unwrap()
}

/// A stream that interleaves every tenant's two-hop occurrences: for
/// tenant `t`, vertices `10t -> 10t+1 -> 10t+2` with hop 1 before hop 2.
fn tenant_stream(rng: &mut SmallRng, n_tenants: u16, len: usize) -> Vec<StreamEdge> {
    let mut ts = 0u64;
    (0..len)
        .map(|i| {
            ts += 1;
            let t = rng.gen_range(0..n_tenants) as u32;
            let hop = rng.gen_range(0..2u32);
            StreamEdge::new(
                i as u64 + 1,
                10 * t + hop,
                (3 * t + hop) as u16,
                10 * t + hop + 1,
                (3 * t + hop + 1) as u16,
                0,
                ts,
            )
        })
        .collect()
}

/// One registration episode: tenant `tenant`'s query — its permuted
/// twin if `twin` — live for arrivals `start..end`.
struct Episode {
    tenant: u16,
    twin: bool,
    start: usize,
    end: usize,
}

impl Episode {
    fn query(&self) -> QueryGraph {
        if self.twin {
            twin_query(self.tenant)
        } else {
            tenant_query(self.tenant)
        }
    }
}

/// The per-registration reference (the same as `multi_equivalence`'s):
/// a fresh standalone engine for `q` consuming exactly `range` through
/// its own window.
fn independent_run(q: QueryGraph, range: &[StreamEdge], window: u64) -> Vec<MatchRecord> {
    let mut eng: TimingEngine<MsTreeStore> =
        TimingEngine::new(QueryPlan::build(q, PlanOptions::timing()));
    let mut w = SlidingWindow::new(window);
    range.iter().flat_map(|&e| eng.advance(&w.advance(e))).collect()
}

/// Drives a registry through the stream under the episode schedule,
/// checking at every position that it runs exactly one engine per
/// distinct live plan; returns per-episode match streams plus each live
/// episode's final (routed, emitted) counters.
#[allow(clippy::type_complexity)]
fn run(
    episodes: &[Episode],
    stream: &[StreamEdge],
    window: u64,
) -> (Vec<Vec<MatchRecord>>, Vec<Option<(u64, u64)>>) {
    let mut multi: MultiQueryEngine<MsTreeStore> = MultiQueryEngine::new(window);
    let mut ids: Vec<Option<QueryId>> = vec![None; episodes.len()];
    let mut out: Vec<Vec<MatchRecord>> = (0..episodes.len()).map(|_| Vec::new()).collect();
    for (i, e) in stream.iter().enumerate() {
        for (ei, ep) in episodes.iter().enumerate() {
            if ep.end == i {
                assert!(multi.unregister(ids[ei].expect("episode was registered")));
            }
        }
        for (ei, ep) in episodes.iter().enumerate() {
            if ep.start == i {
                ids[ei] = Some(multi.register(QueryPlan::build(ep.query(), PlanOptions::timing())));
            }
        }
        let live: Vec<u16> =
            episodes.iter().filter(|ep| ep.start <= i && i < ep.end).map(|ep| ep.tenant).collect();
        let mut distinct = live.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(multi.n_queries(), live.len(), "position {i}");
        assert_eq!(multi.n_templates(), distinct.len(), "position {i}: one engine per plan");
        if distinct.len() < live.len() {
            assert!(multi.n_templates() < multi.n_queries(), "position {i}: duplicates share");
        }
        for (qid, m) in multi.advance(*e) {
            let ei = ids.iter().position(|&x| x == Some(qid)).expect("emitting query is live");
            out[ei].push(m);
        }
    }
    let counters = episodes
        .iter()
        .enumerate()
        .map(
            |(ei, ep)| {
                if ep.end == stream.len() {
                    multi.counters_of(ids[ei].unwrap())
                } else {
                    None
                }
            },
        )
        .collect();
    (out, counters)
}

fn check_duplicated_churn(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let window = 40u64;
    let n_tenants = 3u16;
    let stream = tenant_stream(&mut rng, n_tenants, 160);
    // Each tenant's query registered with random multiplicity (1..=4)
    // and random lifetimes — heavy duplication by construction. The
    // odd-numbered duplicates are permuted twins, so whichever numbering
    // founds the template, the other one is remapped under churn.
    let mut episodes = Vec::new();
    for t in 0..n_tenants {
        for dup in 0..rng.gen_range(1..=4usize) {
            let start = rng.gen_range(0..stream.len() / 2);
            let end = if rng.gen_bool(0.4) {
                rng.gen_range(start + 1..=stream.len())
            } else {
                stream.len()
            };
            episodes.push(Episode { tenant: t, twin: dup % 2 == 1, start, end });
        }
    }
    let (got, counters) = run(&episodes, &stream, window);
    for (ei, ep) in episodes.iter().enumerate() {
        let want = independent_run(ep.query(), &stream[ep.start..ep.end], window);
        assert_eq!(got[ei], want, "seed {seed} episode {ei}: shared vs independent engine");
        // Counters reconcile exactly: `emitted` is the subscriber's match
        // count, and `routed` is its dispatched-edge count — every tenant
        // edge in the live range matches exactly one of the two-hop
        // query's signatures (sharing must not double- or under-dispatch).
        if let Some((routed, emitted)) = counters[ei] {
            assert_eq!(emitted, want.len() as u64, "seed {seed} episode {ei} emitted");
            let tenant_edges =
                stream[ep.start..ep.end].iter().filter(|e| e.src_label.0 / 3 == ep.tenant).count()
                    as u64;
            assert_eq!(routed, tenant_edges, "seed {seed} episode {ei} routed");
        }
    }
}

/// The failpoint registry is process-global, so with `--features
/// failpoints` every test in this file serializes on one lock — an armed
/// site must never fire inside a concurrently running test's engines.
#[cfg(feature = "failpoints")]
fn chaos_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Duplicated plans under random churn: every subscriber's stream
    /// equals its independent engine's, counters reconcile, and the
    /// registry holds exactly one template per distinct live plan.
    #[test]
    fn shared_equals_independent_engines_under_duplicated_churn(seed in any::<u64>()) {
        #[cfg(feature = "failpoints")]
        let _g = chaos_lock();
        check_duplicated_churn(seed);
    }
}

/// Fault-injection half: compiled only with `--features failpoints`
/// (CI's chaos step runs it).
#[cfg(feature = "failpoints")]
mod blast_radius {
    use super::*;
    use std::sync::OnceLock;
    use tcs_core::failpoints::{self, sites, Action};
    use tcs_multi::FaultPolicy;

    fn quiet() {
        static ONCE: OnceLock<()> = OnceLock::new();
        ONCE.get_or_init(failpoints::install_quiet_hook);
    }

    /// Three tenants; tenant 0's query registered three times. A panic
    /// armed on one tenant-0 subscriber while its shared template works.
    fn build() -> (MultiQueryEngine<MsTreeStore>, Vec<QueryId>) {
        let mut multi: MultiQueryEngine<MsTreeStore> = MultiQueryEngine::new(60);
        multi.set_fault_policy(FaultPolicy::Quarantine);
        let mut ids = Vec::new();
        for t in [0u16, 0, 0, 1, 2] {
            ids.push(multi.register(QueryPlan::build(tenant_query(t), PlanOptions::timing())));
        }
        (multi, ids)
    }

    fn stream() -> Vec<StreamEdge> {
        tenant_stream(&mut SmallRng::seed_from_u64(0xb1a57), 3, 120)
    }

    fn drive(
        multi: &mut MultiQueryEngine<MsTreeStore>,
        per_q: &mut [Vec<MatchRecord>],
        ids: &[QueryId],
    ) {
        for e in stream() {
            for (qid, m) in multi.advance(e) {
                per_q[ids.iter().position(|&x| x == qid).unwrap()].push(m);
            }
        }
    }

    /// The fault takes down the whole template — all three tenant-0
    /// subscribers — and exactly them. Tenants 1 and 2 keep
    /// their full streams.
    #[test]
    fn shared_fault_quarantines_every_template_subscriber() {
        let _g = chaos_lock();
        quiet();
        failpoints::reset();
        let (mut multi, ids) = build();
        assert_eq!(multi.n_templates(), 3);
        failpoints::arm(
            sites::PRE_PROBE,
            Some(ids[1].0),
            Action::Panic("failpoint: shared".into()),
        );
        let mut per_q: Vec<Vec<MatchRecord>> = vec![Vec::new(); ids.len()];
        drive(&mut multi, &mut per_q, &ids);
        failpoints::reset();
        let mut faulted: Vec<QueryId> = multi.faults().iter().map(|f| f.qid).collect();
        faulted.sort_unstable();
        assert_eq!(faulted, vec![ids[0], ids[1], ids[2]], "whole template, nothing else");
        assert_eq!(multi.n_templates(), 2, "faulted template is gone, survivors kept");
        assert!(per_q[0].is_empty() && per_q[1].is_empty() && per_q[2].is_empty());
        // Survivors saw every one of their matches: byte-identical to a
        // standalone engine per surviving tenant over the same stream.
        let want1 = independent_run(tenant_query(1), &stream(), 60);
        let want2 = independent_run(tenant_query(2), &stream(), 60);
        assert_eq!(per_q[3], want1, "tenant 1 unaffected");
        assert_eq!(per_q[4], want2, "tenant 2 unaffected");
        assert!(!want1.is_empty() && !want2.is_empty(), "reference streams are non-trivial");
    }

    /// A template quarantined by a fault is re-registerable fresh: the
    /// next registration of the same plan founds a new engine and emits
    /// from its own start, with no residue from the dead template.
    #[test]
    fn quarantined_template_rebuilds_fresh_on_reregistration() {
        let _g = chaos_lock();
        quiet();
        failpoints::reset();
        let (mut multi, ids) = build();
        failpoints::arm(sites::PRE_PROBE, Some(ids[0].0), Action::Panic("failpoint: dead".into()));
        let mut per_q: Vec<Vec<MatchRecord>> = vec![Vec::new(); ids.len()];
        drive(&mut multi, &mut per_q, &ids);
        failpoints::reset();
        assert_eq!(multi.faults().len(), 3);
        let revived = multi.register(QueryPlan::build(tenant_query(0), PlanOptions::timing()));
        assert!(ids.iter().all(|&id| id != revived), "ids are never reused");
        assert_eq!(multi.n_templates(), 3, "fresh founder for the dead plan");
        assert_eq!(multi.counters_of(revived), Some((0, 0)));
    }
}
