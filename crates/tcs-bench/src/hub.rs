//! The shared hub fan-out workloads behind the `repro join` and `repro
//! telemetry` measurements.
//!
//! * the **keyed-probe** workload ([`hub_query`] / [`hub_engine`] /
//!   [`hub_arrival`]): a timed 2-path query, `fanout` level-0 prefixes
//!   parked on distinct hub vertices, and an arrival stream where each
//!   edge joins exactly one prefix — the keyed probe visits one bucket
//!   of one row however large `fanout` grows;
//! * the **expiry-heavy** workload ([`expiry_engine`] / [`expiry_edge`] /
//!   [`expiry_window`]): a sliding window retiring one chain per slide
//!   out of one shared ~`fanout`-row leaf bucket, where front-drain
//!   expiry ([`ExpiryMode::FrontDrain`]) costs O(deaths) and the
//!   hole-compaction baseline ([`ExpiryMode::EagerCompact`]) re-walks
//!   the bucket per cascade;
//! * the **multi-tenant** workload ([`multi_engine`] / [`multi_edge`] /
//!   [`multi_window`]): `n` standing tenant queries over disjoint label
//!   spaces sharing one stream that round-robins a two-edge chain per
//!   tenant, so signature-routed dispatch touches exactly the one query
//!   an edge can react to.
//!
//! # `BENCH_join.json` schema
//!
//! The `repro join` experiment serializes two ratios into
//! `BENCH_join.json` (unit: edges/s, measured at fan-outs 64 and 512;
//! both are CI-gated). Absolute throughput, latency and footprint of the
//! whole pipeline are the frozen `bench/` package's job (`BENCHMARK.json`),
//! not this file's:
//!
//! ```json
//! {
//!   "bench": "join_probe",
//!   "unit": "edges_per_sec",
//!   "expiry_rows": [{"fanout", "front_drain", "eager", "speedup"}, ...],
//!   "telemetry_rows": [{"fanout", "recorded", "noop", "overhead"}, ...]
//! }
//! ```
//!
//! * `expiry_rows` — front-drain + tombstone expiry vs the eager
//!   hole-compaction baseline on the expiry-heavy workload, measured over
//!   whole window ticks (expiries + insert; gate: ≥ 2× at 512);
//! * `telemetry_rows` — the keyed-probe workload with a default-sampling
//!   [`tcs_telemetry::Recorder`] armed (`recorded`) vs the no-op `None`
//!   seam (`noop`, both best-of-rounds throughput); `overhead` is the
//!   recorder's throughput cost, measured as the *minimum* over
//!   interleaved back-to-back rounds of the per-round `noop / recorded`
//!   ratio so machine-speed drift cancels (gate: ≤ 1.05× at 512).

use tcs_core::plan::{PlanOptions, QueryPlan};
use tcs_core::{ExpiryMode, MsTreeStore, TimingEngine};
use tcs_graph::query::QueryEdge;
use tcs_graph::{ELabel, QueryGraph, StreamEdge, VLabel};
use tcs_multi::MultiQueryEngine;

/// The 2-path query `a→b ≺ b→c` (one TC-subquery of length 2).
pub fn hub_query() -> QueryGraph {
    QueryGraph::new(
        vec![VLabel(0), VLabel(1), VLabel(2)],
        vec![
            QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
            QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
        ],
        &[(0, 1)],
    )
    .unwrap_or_else(|e| unreachable!("valid hub query: {e}"))
}

/// An engine pre-seeded with `fanout` level-0 prefixes `i → 10000+i`
/// (the probed item).
pub fn hub_engine(fanout: usize) -> TimingEngine<MsTreeStore> {
    let mut eng: TimingEngine<MsTreeStore> =
        TimingEngine::new(QueryPlan::build(hub_query(), PlanOptions::timing()));
    for i in 0..fanout {
        eng.insert(StreamEdge::new(i as u64, i as u32, 0, 10_000 + i as u32, 1, 0, i as u64 + 1));
    }
    eng
}

/// The `id`-th measured arrival: matches the second query edge and joins
/// exactly one of the `fanout` stored prefixes (the one ending at
/// `10000 + id % fanout`). `id` must start above `fanout` so ids and
/// timestamps stay unique and increasing.
pub fn hub_arrival(fanout: usize, id: u64) -> StreamEdge {
    debug_assert!(id >= fanout as u64);
    let j = (id % fanout as u64) as u32;
    StreamEdge::new(id, 10_000 + j, 1, 1_000_000 + id as u32, 2, 0, id + 1)
}

/// An engine for the expiry-heavy workload: the 2-path [`hub_query`]
/// under the given expiry mode. The query is a single TC-subquery, so
/// every completed chain's leaf is stored under `KEY_EMPTY` in ONE shared
/// bucket that grows to ~`fanout` rows under [`expiry_window`]; each
/// prefix-edge expiry then kills exactly that chain's prefix row and leaf
/// row — the bucket's oldest entry. [`ExpiryMode::FrontDrain`] retires it
/// in O(1); [`ExpiryMode::EagerCompact`] (the hole-compaction baseline)
/// re-walks all ~`fanout` entries per cascade.
pub fn expiry_engine(mode: ExpiryMode) -> TimingEngine<MsTreeStore> {
    let mut eng: TimingEngine<MsTreeStore> =
        TimingEngine::new(QueryPlan::build(hub_query(), PlanOptions::timing()));
    eng.set_expiry_mode(mode);
    eng
}

/// Window duration holding ~`fanout` live 2-edge chains.
pub fn expiry_window(fanout: usize) -> u64 {
    2 * fanout as u64 + 1
}

/// Ticks needed to fill the window before measuring (the warm-up).
pub fn expiry_warmup(fanout: usize) -> u64 {
    expiry_window(fanout) + 2
}

/// The edge arriving at timestamp `ts` (1-based): odd timestamps open
/// chain `i = ts/2` with its a→b prefix edge, even timestamps close chain
/// `i = ts/2 − 1` with its b→c edge — completing one match per chain. At
/// steady state every tick expires exactly one edge of a retired chain.
pub fn expiry_edge(ts: u64) -> StreamEdge {
    debug_assert!(ts >= 1);
    if ts % 2 == 1 {
        let i = (ts / 2) as u32;
        StreamEdge::new(ts, 3_000_000 + i, 0, 1_000_000 + i, 1, 0, ts)
    } else {
        let i = (ts / 2 - 1) as u32;
        StreamEdge::new(ts, 1_000_000 + i, 1, 2_000_000 + i, 2, 0, ts)
    }
}

/// Tenant `t`'s standing query of the multi-tenant workload: the 2-path
/// `a→b ≺ b→c` over the tenant's private label space
/// `(3t, 3t + 1, 3t + 2)` — signatures are disjoint across tenants, so
/// every stream edge can react with exactly one registered query.
pub fn multi_query(t: u16) -> QueryGraph {
    QueryGraph::new(
        vec![VLabel(3 * t), VLabel(3 * t + 1), VLabel(3 * t + 2)],
        vec![
            QueryEdge { src: 0, dst: 1, label: ELabel::NONE },
            QueryEdge { src: 1, dst: 2, label: ELabel::NONE },
        ],
        &[(0, 1)],
    )
    .unwrap_or_else(|e| unreachable!("valid tenant query: {e}"))
}

/// Window duration holding ~one live 2-edge chain per tenant.
pub fn multi_window(n_queries: usize) -> u64 {
    2 * n_queries as u64 + 1
}

/// Ticks needed to fill the window before measuring (the warm-up).
pub fn multi_warmup(n_queries: usize) -> u64 {
    multi_window(n_queries) + 2
}

/// A registry with `n_queries` tenant queries registered (shared window,
/// one routed query per edge).
pub fn multi_engine(n_queries: usize) -> MultiQueryEngine<MsTreeStore> {
    let mut multi: MultiQueryEngine<MsTreeStore> = MultiQueryEngine::new(multi_window(n_queries));
    for t in 0..n_queries {
        multi.register(QueryPlan::build(multi_query(t as u16), PlanOptions::timing()));
    }
    multi
}

/// The edge arriving at timestamp `ts` (1-based): odd timestamps open
/// chain `i = ts/2` with tenant `i mod n`'s a→b edge, even timestamps
/// close chain `i = ts/2 − 1` with its b→c edge — one complete match for
/// that tenant per closing edge, round-robin over tenants. At steady
/// state under [`multi_window`] every tick also expires one edge of a
/// retired chain, so dispatch is exercised on both the arrival and the
/// expiry path.
pub fn multi_edge(n_queries: usize, ts: u64) -> StreamEdge {
    debug_assert!(ts >= 1);
    if ts % 2 == 1 {
        let i = ts / 2;
        let t = (i % n_queries as u64) as u16;
        StreamEdge::new(ts, 3_000_000 + i as u32, 3 * t, 1_000_000 + i as u32, 3 * t + 1, 0, ts)
    } else {
        let i = ts / 2 - 1;
        let t = (i % n_queries as u64) as u16;
        StreamEdge::new(ts, 1_000_000 + i as u32, 3 * t + 1, 2_000_000 + i as u32, 3 * t + 2, 0, ts)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;
    use tcs_graph::window::SlidingWindow;

    #[test]
    fn each_arrival_joins_exactly_one_prefix() {
        let mut eng = hub_engine(8);
        for id in 8..24u64 {
            let matches = eng.insert(hub_arrival(8, id));
            assert_eq!(matches.len(), 1, "id {id}");
        }
        assert_eq!(eng.stats().matches_emitted, 16);
    }

    #[test]
    fn multi_workload_emits_one_match_per_closing_edge() {
        let n = 12usize;
        let mut multi = multi_engine(n);
        for ts in 1..=8 * multi_window(n) {
            let out = multi.advance(multi_edge(n, ts));
            assert_eq!(out.len(), usize::from(ts % 2 == 0), "one match per closing edge");
            if ts % 2 == 0 {
                let t = ((ts / 2 - 1) % n as u64) as usize;
                assert_eq!(out[0].0, multi.query_ids().nth(t).unwrap(), "the owning tenant");
            }
        }
        // Every tenant matched, and the shared window is accounted once
        // (snapshot bytes appear in the registry total, never in any
        // per-query share).
        let st = multi.stats();
        assert!(st.queries.iter().all(|q| q.stats.matches_emitted > 0));
        assert!(st.snapshot_bytes > 0);
        assert_eq!(
            st.space_bytes(),
            st.snapshot_bytes + st.queries.iter().map(|q| q.store_bytes).sum::<usize>()
        );
    }

    #[test]
    fn expiry_workload_emits_one_match_per_chain_in_both_modes() {
        let fanout = 16usize;
        let mut front = expiry_engine(ExpiryMode::FrontDrain);
        let mut eager = expiry_engine(ExpiryMode::EagerCompact);
        let mut wf = SlidingWindow::new(expiry_window(fanout));
        let mut we = SlidingWindow::new(expiry_window(fanout));
        for ts in 1..=10 * expiry_window(fanout) {
            let e = expiry_edge(ts);
            let a = front.advance(&wf.advance(e));
            let b = eager.advance(&we.advance(e));
            assert_eq!(a, b, "ts {ts}");
            assert_eq!(a.len(), usize::from(ts % 2 == 0), "one match per closing edge");
        }
        // Identical counters, exact live accounting under tombstones, and
        // a steady-state store bounded by the window.
        assert_eq!(front.stats(), eager.stats());
        assert_eq!(front.live_partials(), front.store_rows());
        assert_eq!(eager.live_partials(), eager.store_rows());
        assert!(front.store_rows() <= 2 * (fanout as u64 + 2));
    }
}
