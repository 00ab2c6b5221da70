#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench targets panic by design
//! Multi-tenant monitoring: many standing fraud/attack queries over ONE
//! transaction stream.
//!
//! A payment platform serves many banks; each bank registers its own
//! time-constrained patterns — a cash-out fraud cycle (the Figure-2
//! shape of `credit_fraud.rs`) and an account-takeover chain — over the
//! platform's single shared stream. Before the multi-query subsystem the
//! only option was one independent engine per query: N window copies and
//! N× per-edge work. Here a [`ShardedMultiEngine`] keeps ONE window per
//! shard, routes each transaction to exactly the queries whose edge
//! predicates can react, and spreads the tenants over worker threads.
//! Tenants come and go mid-stream (one bank unregisters, a new one
//! onboards between batches).
//!
//! Run with `cargo run --release --example multi_tenant`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use timingsubg::core::{PlanOptions, QueryPlan};
use timingsubg::graph::query::QueryEdge;
use timingsubg::graph::{ELabel, QueryGraph, StreamEdge, VLabel};
use timingsubg::multi::{MultiQueryEngine, QueryId, ShardedMultiEngine};

// Vertex types (shared by every tenant).
const ACCOUNT: VLabel = VLabel(0);
const MERCHANT: VLabel = VLabel(1);
const BANK: VLabel = VLabel(2);
const DEVICE: VLabel = VLabel(3);

// Per-tenant transaction types: each bank only watches its own product's
// edge labels, so label spaces are disjoint across tenants — exactly the
// situation signature-routed dispatch exploits.
fn credit_pay(bank: u16) -> ELabel {
    ELabel(10 * bank)
}
fn real_payment(bank: u16) -> ELabel {
    ELabel(10 * bank + 1)
}
fn transfer(bank: u16) -> ELabel {
    ELabel(10 * bank + 2)
}
fn login(bank: u16) -> ELabel {
    ELabel(10 * bank + 3)
}
fn reset(bank: u16) -> ELabel {
    ELabel(10 * bank + 4)
}
fn drain(bank: u16) -> ELabel {
    ELabel(10 * bank + 5)
}

/// Figure 2 as a standing query for one bank: criminal c, merchant m,
/// bank b, middleman a — credit pay, real payment, transfer out,
/// transfer back, in that chronological order.
fn fraud_query(bank: u16) -> QueryGraph {
    QueryGraph::new(
        vec![ACCOUNT, MERCHANT, BANK, ACCOUNT],
        vec![
            QueryEdge { src: 0, dst: 1, label: credit_pay(bank) },
            QueryEdge { src: 2, dst: 1, label: real_payment(bank) },
            QueryEdge { src: 1, dst: 3, label: transfer(bank) },
            QueryEdge { src: 3, dst: 0, label: transfer(bank) },
        ],
        &[(0, 1), (1, 2), (2, 3)],
    )
    .expect("valid fraud query")
}

/// Account takeover for one bank: a new device logs into an account,
/// resets its credentials, then drains it to another account — strictly
/// in that order. The same three edges in any other order are a customer
/// getting a new phone.
fn takeover_query(bank: u16) -> QueryGraph {
    QueryGraph::new(
        vec![DEVICE, ACCOUNT, ACCOUNT],
        vec![
            QueryEdge { src: 0, dst: 1, label: login(bank) },
            QueryEdge { src: 0, dst: 1, label: reset(bank) },
            QueryEdge { src: 1, dst: 2, label: drain(bank) },
        ],
        &[(0, 1), (1, 2)],
    )
    .expect("valid takeover query")
}

fn plan(q: QueryGraph) -> QueryPlan {
    QueryPlan::build(q, PlanOptions::timing())
}

/// Generates `n` transactions of benign per-bank traffic with planted
/// fraud cycles and takeover chains, continuing from `(id, ts)`.
fn traffic(
    rng: &mut SmallRng,
    n_banks: u16,
    n: usize,
    id: &mut u64,
    ts: &mut u64,
    planted: &mut Vec<(u16, &'static str, u64)>,
) -> Vec<StreamEdge> {
    let mut out = Vec::with_capacity(n + 16);
    let push = |out: &mut Vec<StreamEdge>,
                id: &mut u64,
                ts: &mut u64,
                src: u32,
                sl: VLabel,
                dst: u32,
                dl: VLabel,
                label: ELabel| {
        *id += 1;
        *ts += 1;
        out.push(StreamEdge {
            id: timingsubg::graph::EdgeId(*id),
            src: timingsubg::graph::VertexId(src),
            dst: timingsubg::graph::VertexId(dst),
            src_label: sl,
            dst_label: dl,
            label,
            ts: timingsubg::graph::Timestamp(*ts),
        });
    };
    while out.len() < n {
        let bank = rng.gen_range(0..n_banks);
        let acct = |r: &mut SmallRng| 10_000 + r.gen_range(0..2_000u32);
        let merch = |r: &mut SmallRng| 100_000 + r.gen_range(0..200u32);
        match rng.gen_range(0..100u32) {
            // Ordinary commerce: a purchase (credit pay, later real
            // payment) or a transfer — partial pattern shapes that keep
            // the engines honest.
            0..=59 => {
                let (a, m) = (acct(rng), merch(rng));
                push(&mut out, id, ts, a, ACCOUNT, m, MERCHANT, credit_pay(bank));
                push(&mut out, id, ts, bank as u32, BANK, m, MERCHANT, real_payment(bank));
            }
            60..=89 => {
                let (a, b) = (acct(rng), acct(rng));
                push(&mut out, id, ts, a, ACCOUNT, b, ACCOUNT, transfer(bank));
            }
            // A planted fraud cycle, in exactly the criminal chronology.
            90..=94 => {
                let (c, a, m) = (acct(rng), 500_000 + rng.gen_range(0..1_000u32), merch(rng));
                push(&mut out, id, ts, c, ACCOUNT, m, MERCHANT, credit_pay(bank));
                push(&mut out, id, ts, bank as u32, BANK, m, MERCHANT, real_payment(bank));
                push(&mut out, id, ts, m, MERCHANT, a, ACCOUNT, transfer(bank));
                push(&mut out, id, ts, a, ACCOUNT, c, ACCOUNT, transfer(bank));
                planted.push((bank, "fraud", *ts));
            }
            // A planted takeover chain. The victim and the destination
            // must be distinct accounts: matching is injective, so a
            // v == x draw would make the plant unmatchable.
            _ => {
                let (d, v) = (900_000 + rng.gen_range(0..500u32), acct(rng));
                let mut x = acct(rng);
                while x == v {
                    x = acct(rng);
                }
                push(&mut out, id, ts, d, DEVICE, v, ACCOUNT, login(bank));
                push(&mut out, id, ts, d, DEVICE, v, ACCOUNT, reset(bank));
                push(&mut out, id, ts, v, ACCOUNT, x, ACCOUNT, drain(bank));
                planted.push((bank, "takeover", *ts));
            }
        }
    }
    out
}

fn main() {
    let n_banks = 8u16;
    let mut rng = SmallRng::seed_from_u64(2026);
    let mut hub: ShardedMultiEngine = ShardedMultiEngine::new(1_000, 4);
    // Exact-sampling recorder over the whole sharded stack: detection
    // latency per template, shard-load gauges and the hot-key skew view
    // all come out of this one sink at the end of the run.
    let recorder = std::sync::Arc::new(timingsubg::telemetry::Recorder::with_sampling(1));
    hub.set_recorder(std::sync::Arc::clone(&recorder));

    // Every bank registers its two standing patterns.
    let mut owners: Vec<(QueryId, u16, &'static str)> = Vec::new();
    for bank in 0..n_banks {
        owners.push((hub.register(plan(fraud_query(bank))), bank, "fraud"));
        owners.push((hub.register(plan(takeover_query(bank))), bank, "takeover"));
    }
    println!(
        "{} tenants × 2 standing queries = {} registered, over {} shards",
        n_banks,
        hub.n_queries(),
        hub.n_shards()
    );

    let mut planted: Vec<(u16, &'static str, u64)> = Vec::new();
    let (mut id, mut ts) = (0u64, 0u64);
    let batch1 = traffic(&mut rng, n_banks, 30_000, &mut id, &mut ts, &mut planted);
    let batch1_end = ts;
    let alerts1 = hub.process(&batch1);
    println!("batch 1: {} transactions → {} alerts", batch1.len(), alerts1.len());

    // Bank 0 churns out; a new bank onboards mid-stream.
    let retired: Vec<QueryId> =
        owners.iter().filter(|&&(_, b, _)| b == 0).map(|&(q, _, _)| q).collect();
    for q in &retired {
        assert!(hub.unregister(*q));
    }
    let new_bank = n_banks;
    owners.push((hub.register(plan(fraud_query(new_bank))), new_bank, "fraud"));
    owners.push((hub.register(plan(takeover_query(new_bank))), new_bank, "takeover"));
    println!("bank 0 unregistered, bank {new_bank} onboarded ({} queries live)", hub.n_queries());

    let batch2 = traffic(&mut rng, n_banks + 1, 30_000, &mut id, &mut ts, &mut planted);
    let alerts2 = hub.process(&batch2);
    println!("batch 2: {} transactions → {} alerts", batch2.len(), alerts2.len());
    assert!(!alerts2.iter().any(|(q, _)| retired.contains(q)), "a retired tenant must stay silent");

    // Per-tenant alert counts: every planted pattern lands at its owner.
    let mut by_owner = std::collections::HashMap::new();
    for (q, _) in alerts1.iter().chain(&alerts2) {
        *by_owner.entry(*q).or_insert(0usize) += 1;
    }
    for &(q, bank, kind) in &owners {
        let n = by_owner.get(&q).copied().unwrap_or(0);
        // A query only answers for patterns planted while it was
        // registered: bank 0's queries retired after batch 1, the
        // onboarded bank only existed in batch 2.
        let expect = planted
            .iter()
            .filter(|&&(b, k, at)| b == bank && k == kind && (b != 0 || at <= batch1_end))
            .count();
        println!("  bank {bank:2} {kind:8}: {n:3} alerts ({expect} planted while registered)");
        assert!(n >= expect, "every planted pattern reaches its owner");
    }

    let st = hub.stats();
    let store_total: usize = st.queries.iter().map(|q| q.store_bytes).sum();
    println!(
        "space: {} KB shared windows (counted once) + {} KB across {} query stores",
        st.snapshot_bytes / 1024,
        store_total / 1024,
        st.queries.len()
    );
    let total = st.total();
    println!(
        "dispatch filtered {:.1}% of per-query edge deliveries as non-reactive",
        100.0 * total.edges_discarded as f64 / total.edges_processed.max(1) as f64
    );

    // --- Telemetry: per-template latency and shard/skew summary --------
    let snap = recorder.snapshot();
    let fmt = |ns: u64| format!("{:.1}us", ns as f64 / 1e3);
    println!("\ntelemetry (exact sampling, queue wait included):");
    for (digest, h) in &snap.detection_by_template {
        println!(
            "  template {digest:016x}: detection p50={} p99={} p999={} over {} matches",
            fmt(h.p50()),
            fmt(h.p99()),
            fmt(h.p999()),
            h.count
        );
    }
    for s in &snap.shards {
        println!(
            "  shard {}: {} edges routed, queue hwm {} chunks, {} shed edges, {} restarts",
            s.shard, s.edges_routed, s.queue_depth_hwm, s.shed, s.restarts
        );
    }
    // Degree buckets: bucket b counts deliveries to keys with 2^b..2^(b+1)
    // prior hits — mass in high buckets IS the hub skew.
    if let Some(&(hottest, hits)) = snap.hot_keys.first() {
        let high_bucket = snap.degree_buckets.iter().map(|&(b, _)| b).max().unwrap_or(0);
        println!(
            "  skew: hottest vertex {hottest} saw {hits} deliveries; \
             busiest degree bucket 2^{high_bucket}+ ({} events logged)",
            snap.events.len()
        );
    }

    // --- Template sharing at fleet scale -------------------------------
    // A platform-wide template is not 17 queries, it is thousands of
    // copies of ONE pattern: every bank deploys the vendor's stock fraud
    // template. Register 10k copies of bank 0's fraud query: the registry
    // runs one engine for the canonical plan and fans its alerts out to
    // every subscriber, so the fleet costs one query's store.
    println!("\n10k-copy template fleet (bank 0's fraud pattern):");
    let copies = 10_000usize;
    let fleet_window = 100u64;
    let mut fleet_rng = SmallRng::seed_from_u64(77);
    let mut planted = Vec::new();
    let (mut id, mut ts) = (0u64, 0u64);
    let fleet_traffic = traffic(&mut fleet_rng, 1, 500, &mut id, &mut ts, &mut planted);
    // Drives `n` registrations of the template over the fleet traffic:
    // (edges/s, total store bytes, alerts delivered).
    let run = |n: usize| -> (f64, usize, u64) {
        let mut multi: MultiQueryEngine = MultiQueryEngine::new(fleet_window);
        let ids: Vec<QueryId> = (0..n).map(|_| multi.register(plan(fraud_query(0)))).collect();
        assert_eq!(multi.n_templates(), 1, "identical plans share one engine");
        let start = std::time::Instant::now();
        let mut alerts = 0u64;
        for &e in &fleet_traffic {
            alerts += multi.advance(e).len() as u64;
        }
        let rate = fleet_traffic.len() as f64 / start.elapsed().as_secs_f64();
        let st = multi.stats();
        let store: usize = st.queries.iter().map(|q| q.store_bytes).sum();
        // Every subscriber saw every alert: fan-out is exact.
        let per_sub = alerts / n as u64;
        for &q in &ids {
            assert_eq!(
                multi.stats_of(q).map(|s| s.matches_emitted),
                Some(per_sub),
                "all {n} subscribers see the same alerts"
            );
        }
        (rate, store, alerts)
    };
    // One registration is the yardstick for both results and footprint.
    let (_, single_store, single_alerts) = run(1);
    let (fleet_rate, fleet_store, fleet_alerts) = run(copies);
    assert_eq!(fleet_alerts, copies as u64 * single_alerts, "sharing changes cost, never results");
    println!(
        "  {:>10.0} edges/s, {:>8} B store ({}x one query's), {} alerts fanned out to all {copies} tenants",
        fleet_rate,
        fleet_store,
        fleet_store / single_store.max(1),
        single_alerts
    );
    // The ROADMAP gate: 10k copies within 2x of one query's store bytes.
    assert!(
        fleet_store <= 2 * single_store,
        "fleet store {fleet_store} B exceeds 2x single-query {single_store} B"
    );
}
