//! Chaos suite for the fault-tolerance layer (`--features failpoints`).
//!
//! Every test here drives a *real* engine through *injected* faults — the
//! `tcs-core` failpoint sites compiled in by the `failpoints` feature —
//! and checks the blast radii promised by the failure model (tcs-multi
//! crate docs): a per-query panic quarantines exactly one query, a worker
//! panic costs one shard a rebuild and no match, overload sheds boundedly
//! and countedly, and survivors stay **byte-identical** to independent
//! oracle engines fed the sanitized stream.
//!
//! The failpoint registry is process-global, so every test serializes on
//! [`chaos_lock`] and resets the registry before and after itself.

#![cfg(feature = "failpoints")]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard, OnceLock};
use tcs_core::failpoints::{self, sites, Action};
use tcs_core::plan::{PlanOptions, QueryPlan};
use tcs_core::{MsTreeStore, TimingEngine};
use tcs_graph::query::QueryEdge;
use tcs_graph::window::SlidingWindow;
use tcs_graph::{ELabel, MatchRecord, QueryGraph, StreamEdge, Timestamp, VLabel};
use tcs_multi::{
    FaultPolicy, IngestError, MultiQueryEngine, MultiStats, OverloadPolicy, QueryId,
    ShardedMultiEngine,
};

/// Serializes chaos tests: the failpoint registry and panic hook are
/// process-global. Poisoning is survivable — a failed test must not
/// cascade into every later one.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn quiet() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(failpoints::install_quiet_hook);
}

/// Tenant `t`'s two-hop path query over its private label alphabet
/// `{3t, 3t+1, 3t+2}` — tenant edges route only to tenant queries, which
/// makes fault targeting deterministic.
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

fn plan(t: u16) -> QueryPlan {
    QueryPlan::build(tenant_query(t), PlanOptions::timing())
}

/// Round-robin tenant traffic: each round one edge for tenant
/// `r % n_tenants`, alternating the two hops of its path so every tenant
/// completes matches regularly. Vertex id spaces are disjoint by
/// construction.
fn tenant_stream(n_tenants: u16, rounds: u64) -> Vec<StreamEdge> {
    let mut out = Vec::new();
    for r in 0..rounds {
        let t = (r % n_tenants as u64) as u16;
        let ts = r + 1;
        if (r / n_tenants as u64).is_multiple_of(2) {
            out.push(StreamEdge::new(
                ts,
                1_000 + r as u32,
                3 * t,
                200 + t as u32,
                3 * t + 1,
                0,
                ts,
            ));
        } else {
            out.push(StreamEdge::new(
                ts,
                200 + t as u32,
                3 * t + 1,
                10_000 + r as u32,
                3 * t + 2,
                0,
                ts,
            ));
        }
    }
    out
}

/// The ISSUE's acceptance scenario: 4 shards, a panic injected into one
/// query's probe path. Exactly that query is quarantined; every other
/// query — including the victim's shard-mates — emits the same match
/// stream as a fault-free run.
#[test]
fn injected_panic_quarantines_only_the_faulting_query() {
    let _g = chaos_lock();
    quiet();
    failpoints::reset();

    let stream = tenant_stream(8, 320);
    let clean: Vec<(usize, MatchRecord)> = {
        let mut sharded: ShardedMultiEngine<MsTreeStore> = ShardedMultiEngine::new(25, 4);
        let ids: Vec<_> = (0..8u16).map(|t| sharded.register(plan(t))).collect();
        sharded
            .process(&stream)
            .into_iter()
            .map(|(q, m)| (ids.iter().position(|&x| x == q).unwrap(), m))
            .collect()
    };

    let mut sharded: ShardedMultiEngine<MsTreeStore> = ShardedMultiEngine::new(25, 4);
    let ids: Vec<_> = (0..8u16).map(|t| sharded.register(plan(t))).collect();
    let victim = ids[3];
    failpoints::arm(sites::PRE_PROBE, Some(victim.0), Action::Panic("failpoint: probe".into()));
    let out = sharded.process(&stream);
    failpoints::reset();

    // Exactly one quarantine, the right query, a readable payload.
    let faults = sharded.faults();
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].qid, victim);
    assert_eq!(faults[0].payload, "failpoint: probe");
    let st = sharded.stats();
    assert_eq!(st.faults.len(), 1, "fault log is surfaced through stats()");
    assert!(st.queries.iter().all(|q| q.id != victim), "quarantined query left the registry");
    assert_eq!(sharded.n_queries(), 7);
    // No worker died for a *query* fault: the supervisor never restarted.
    assert!(st.shards.iter().all(|h| h.restarts == 0));

    // Survivors are byte-identical to the fault-free run.
    let mut got: Vec<(usize, MatchRecord)> = out
        .into_iter()
        .map(|(q, m)| (ids.iter().position(|&x| x == q).unwrap(), m))
        .filter(|(t, _)| ids[*t] != victim)
        .collect();
    let mut want: Vec<(usize, MatchRecord)> =
        clean.into_iter().filter(|(t, _)| ids[*t] != victim).collect();
    got.sort();
    want.sort();
    assert_eq!(got, want);
    assert!(!want.is_empty());
}

/// Registration after a quarantine: the freed capacity is reusable, the
/// dead id is not. A new query registered after a fault gets a fresh id,
/// receives traffic, and the quarantined id never re-enters dispatch.
#[test]
fn register_after_quarantine_serves_under_a_fresh_id() {
    let _g = chaos_lock();
    quiet();
    failpoints::reset();

    let stream = tenant_stream(2, 80);
    let (first, second) = stream.split_at(40);
    let mut sharded: ShardedMultiEngine<MsTreeStore> = ShardedMultiEngine::new(25, 2);
    let q0 = sharded.register(plan(0));
    let q1 = sharded.register(plan(1));
    failpoints::arm(sites::PRE_PROBE, Some(q1.0), Action::Panic("failpoint: q1".into()));
    sharded.process(first);
    failpoints::reset();
    assert_eq!(sharded.faults().len(), 1);
    assert_eq!(sharded.n_queries(), 1);

    // Same tenant re-registers (same plan, new identity).
    let q1b = sharded.register(plan(1));
    assert_ne!(q1b, q1, "query ids are never reused");
    let out = sharded.process(second);
    assert!(out.iter().any(|(q, _)| *q == q1b), "replacement query serves traffic");
    assert!(out.iter().any(|(q, _)| *q == q0), "bystander unaffected");
    assert!(out.iter().all(|(q, _)| *q != q1), "quarantined id stays dead");
}

/// A panic outside the per-query boundary (the worker-loop site) kills a
/// whole shard worker: the supervisor rebuilds the shard, replays its
/// in-window edges, and the re-homed queries serve the next batch under
/// their original ids.
#[test]
fn worker_death_is_survived_and_restarted() {
    let _g = chaos_lock();
    quiet();
    failpoints::reset();

    let stream = tenant_stream(4, 160);
    let (first, second) = stream.split_at(80);
    let mut sharded: ShardedMultiEngine<MsTreeStore> = ShardedMultiEngine::new(25, 2);
    let ids: Vec<_> = (0..4u16).map(|t| sharded.register(plan(t))).collect();
    let dead_shard = sharded.shard_of(ids[0]).unwrap();
    failpoints::arm(
        sites::WORKER_LOOP,
        Some(dead_shard as u64),
        Action::Panic("failpoint: worker".into()),
    );
    let out = sharded.process(first);
    failpoints::reset();

    // The other shard's queries still answered within the same batch.
    let survivors: Vec<_> =
        ids.iter().filter(|q| sharded.shard_of(**q) == Some(1 - dead_shard)).collect();
    assert!(survivors.iter().any(|q| out.iter().any(|(oq, _)| oq == *q)));
    // The supervisor rebuilt the dead shard; nobody was quarantined (the
    // worker died, not a query) and the homing survived the rebuild.
    let st = sharded.stats();
    assert_eq!(st.shards[dead_shard].restarts, 1);
    assert_eq!(st.shards[dead_shard].replay_failures, 0);
    assert!(sharded.faults().is_empty());
    assert_eq!(sharded.n_queries(), 4);
    for &q in &ids {
        assert_eq!(
            sharded.shard_of(q).unwrap(),
            if survivors.contains(&&q) { 1 - dead_shard } else { dead_shard }
        );
    }
    // Re-homed queries serve the next batch (replayed window, same ids).
    let out2 = sharded.process(second);
    for &q in &ids {
        assert!(out2.iter().any(|(oq, _)| *oq == q), "query {q:?} serves after restart");
    }
}

/// One scripted session against a 2-shard front-end: three batches with
/// registration churn between them (a late tenant, a late duplicate that
/// joins a warm template, a departure), optionally killing the worker of
/// `ids[0]`'s shard during batch `kill`. Returns each batch's output,
/// sorted, and the final shard health.
fn scripted_session(kill: Option<usize>) -> (Vec<Vec<(QueryId, MatchRecord)>>, MultiStats) {
    let stream = tenant_stream(5, 200);
    let batches = [&stream[..60], &stream[60..130], &stream[130..]];
    let mut sharded: ShardedMultiEngine<MsTreeStore> = ShardedMultiEngine::new(25, 2);
    let ids: Vec<_> = (0..4u16).map(|t| sharded.register(plan(t))).collect();
    let dead_shard = sharded.shard_of(ids[0]).unwrap() as u64;
    let mut outs = Vec::new();
    for (b, batch) in batches.into_iter().enumerate() {
        if b == 1 {
            sharded.register(plan(4));
            sharded.register(plan(0));
            assert!(sharded.unregister(ids[1]));
        }
        if kill == Some(b) {
            let panic = Action::Panic("failpoint: worker".into());
            failpoints::arm(sites::WORKER_LOOP, Some(dead_shard), panic);
        }
        let mut out = sharded.process(batch);
        failpoints::reset();
        out.sort();
        outs.push(out);
    }
    (outs, sharded.stats())
}

/// A worker death loses no match: the faulting batch returns the dead
/// shard's matches, and matches whose first edge arrived before the
/// restart still complete after it. Every batch's output equals the
/// fault-free run's, under the same query ids.
#[test]
fn worker_death_loses_no_match() {
    let _g = chaos_lock();
    quiet();
    failpoints::reset();

    let (clean, _) = scripted_session(None);
    assert!(clean.iter().all(|out| !out.is_empty()));
    for kill in 0..3 {
        let (got, st) = scripted_session(Some(kill));
        assert_eq!(got, clean, "worker killed during batch {kill}");
        assert_eq!(st.shards.iter().map(|h| h.restarts).sum::<u64>(), 1);
        assert!(st.shards.iter().all(|h| h.replay_failures == 0));
        assert!(st.faults.is_empty());
    }
}

/// A replay that itself panics (the shard-replay site) falls back to the
/// old restart: the shard's queries are re-homed onto empty windows, the
/// loss is counted, and they serve the next batch.
#[test]
fn failed_replay_rehomes_onto_empty_windows() {
    let _g = chaos_lock();
    quiet();
    failpoints::reset();

    let stream = tenant_stream(4, 160);
    let (first, second) = stream.split_at(80);
    let mut sharded: ShardedMultiEngine<MsTreeStore> = ShardedMultiEngine::new(25, 2);
    let ids: Vec<_> = (0..4u16).map(|t| sharded.register(plan(t))).collect();
    let dead_shard = sharded.shard_of(ids[0]).unwrap();
    let tag = Some(dead_shard as u64);
    failpoints::arm(sites::WORKER_LOOP, tag, Action::Panic("failpoint: worker".into()));
    failpoints::arm(sites::SHARD_REPLAY, tag, Action::Panic("failpoint: replay".into()));
    let out = sharded.process(first);
    failpoints::reset();

    let st = sharded.stats();
    assert_eq!(st.shards[dead_shard].restarts, 1);
    assert_eq!(st.shards[dead_shard].replay_failures, 1);
    assert!(sharded.faults().is_empty());
    assert_eq!(sharded.n_queries(), 4);
    let front = &sharded;
    let homed_on = |s: usize| ids.iter().filter(move |q| front.shard_of(**q) == Some(s));
    assert!(homed_on(dead_shard).all(|q| out.iter().all(|(oq, _)| oq != q)));
    assert!(homed_on(1 - dead_shard).any(|q| out.iter().any(|(oq, _)| oq == q)));
    let out2 = sharded.process(second);
    for &q in &ids {
        assert!(out2.iter().any(|(oq, _)| *oq == q), "query {q:?} serves after restart");
    }
}

/// Overload with a deliberately slow worker: back-pressure stays
/// lossless; the shedding policies lose edges *boundedly and countedly*
/// on exactly the overloaded shard.
#[test]
fn overload_policies_shed_countedly_or_not_at_all() {
    let _g = chaos_lock();
    quiet();
    failpoints::reset();

    let stream = tenant_stream(2, 120);
    let run = |policy: OverloadPolicy| {
        let mut sharded: ShardedMultiEngine<MsTreeStore> = ShardedMultiEngine::new(25, 2);
        let ids: Vec<_> = (0..2u16).map(|t| sharded.register(plan(t))).collect();
        let slow = sharded.shard_of(ids[0]).unwrap();
        sharded.set_overload_policy(policy);
        sharded.set_channel_capacity(2);
        failpoints::arm(sites::WORKER_LOOP, Some(slow as u64), Action::SleepMs(1));
        let out = sharded.process(&stream);
        failpoints::reset();
        (sharded.stats(), slow, ids, out)
    };

    let (st, slow, _, out) = run(OverloadPolicy::Backpressure);
    assert_eq!(st.shards[slow].shed_oldest + st.shards[slow].shed_newest, 0, "lossless");
    assert!(!out.is_empty());

    let (st, slow, _, _) = run(OverloadPolicy::ShedNewest);
    assert!(st.shards[slow].shed_newest > 0, "a slow worker at cap 2 must shed arrivals");
    assert_eq!(st.shards[slow].shed_oldest, 0, "the policies never mix");

    let (st, slow, _, _) = run(OverloadPolicy::ShedOldest);
    assert!(st.shards[slow].shed_oldest > 0, "eviction shedding is counted per shard");
    assert_eq!(st.shards[slow].shed_newest, 0);
}

// Randomized chaos: random tenant fleets, random per-query fault
// schedules on all three query-level sites, and randomly injected
// out-of-order edges (rejected at the gate). Invariant: every query
// never condemned is byte-identical — match stream and stats — to an
// independent TimingEngine fed the sanitized stream.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn chaos_schedules_leave_survivors_byte_identical(seed in any::<u64>()) {
        let _g = chaos_lock();
        quiet();
        failpoints::reset();
        let mut rng = SmallRng::seed_from_u64(seed);
        let window = 25u64;
        let n_tenants = rng.gen_range(2..6u16);
        let len = rng.gen_range(60..200u64);
        let mut stream = tenant_stream(n_tenants, len);
        // Corrupt ~5% of edges: timestamps thrown behind the watermark.
        for e in stream.iter_mut().skip(2) {
            if rng.gen_bool(0.05) {
                e.ts = Timestamp(e.ts.0.saturating_sub(rng.gen_range(2..window * 2)));
            }
        }

        let mut multi: MultiQueryEngine<MsTreeStore> = MultiQueryEngine::new(window);
        multi.set_fault_policy(FaultPolicy::Quarantine);
        let ids: Vec<QueryId> = (0..n_tenants).map(|t| multi.register(plan(t))).collect();
        // Fault schedule: each query may be condemned at a random stream
        // position via a random query-level site.
        let site_pool = [sites::PRE_PROBE, sites::POST_RECORD, sites::PRE_EXPIRY];
        let mut schedule: Vec<(usize, QueryId, &'static str)> = Vec::new();
        for &q in &ids {
            if rng.gen_bool(0.5) {
                let at = rng.gen_range(0..stream.len());
                schedule.push((at, q, site_pool[rng.gen_range(0..3usize)]));
            }
        }
        schedule.sort();

        let mut sanitized: Vec<StreamEdge> = Vec::new();
        let mut emitted: Vec<Vec<MatchRecord>> = vec![Vec::new(); ids.len()];
        for (i, &e) in stream.iter().enumerate() {
            // One arm at a time: the newest scheduled fault replaces any
            // prior arm that never fired (its victim simply survives).
            while let Some(&(at, q, site)) = schedule.first() {
                if at > i {
                    break;
                }
                schedule.remove(0);
                failpoints::arm(site, Some(q.0), Action::Panic(format!("failpoint: {site}")));
            }
            match multi.try_advance(e) {
                Ok(out) => {
                    sanitized.push(e);
                    for (q, m) in out {
                        emitted[ids.iter().position(|&x| x == q).unwrap()].push(m);
                    }
                }
                Err(err) => {
                    prop_assert!(matches!(err, IngestError::OutOfOrder { .. }));
                }
            }
            // A mid-operation panic must never corrupt a *surviving*
            // query's store: the full invariant sweep stays clean after
            // every operation, faults included.
            let violations = multi.audit();
            prop_assert!(
                violations.is_empty(),
                "survivor store audit failed after edge {}:\n{}",
                i,
                tcs_core::store::format_violations(&violations)
            );
        }
        failpoints::reset();

        // Oracle: one independent engine per *surviving* query, fed the
        // sanitized stream. Byte-identical matches and counters.
        let condemned: Vec<QueryId> = multi.faults().iter().map(|f| f.qid).collect();
        prop_assert!(multi.stats().ingest.rejected() > 0 || stream.len() == sanitized.len());
        for (t, &q) in ids.iter().enumerate() {
            if condemned.contains(&q) {
                prop_assert!(multi.stats_of(q).is_none(), "quarantined ⇒ unregistered");
                continue;
            }
            let mut oracle: TimingEngine<MsTreeStore> =
                TimingEngine::new(QueryPlan::build(tenant_query(t as u16), PlanOptions::timing()));
            let mut w = SlidingWindow::new(window);
            let mut want: Vec<MatchRecord> = Vec::new();
            for &e in &sanitized {
                want.extend(oracle.advance(&w.advance(e)));
            }
            prop_assert_eq!(&emitted[t], &want, "survivor match stream, tenant {}", t);
            prop_assert_eq!(multi.stats_of(q).unwrap(), oracle.stats(), "survivor stats, tenant {}", t);
            let oracle_violations = oracle.audit();
            prop_assert!(
                oracle_violations.is_empty(),
                "oracle store audit failed, tenant {}:\n{}",
                t,
                tcs_core::store::format_violations(&oracle_violations)
            );
        }
    }
}

// Randomized worker deaths: random tenant fleets, shard counts, windows,
// batch cuts, coarse (repeating) timestamps and registration churn
// between batches, with a random shard's worker killed during about half
// the batches. Invariant: every batch's output equals the fault-free
// run's.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn worker_deaths_leave_every_batch_identical(seed in any::<u64>()) {
        let _g = chaos_lock();
        quiet();
        failpoints::reset();
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_tenants = rng.gen_range(2..6u16);
        let n_shards = rng.gen_range(2..4usize);
        let window = rng.gen_range(4..40u64);
        let coarse = rng.gen_range(1..4u64);
        let mut stream = tenant_stream(n_tenants, rng.gen_range(40..240u64));
        for e in &mut stream {
            e.ts = Timestamp(e.ts.0 / coarse + 1);
        }
        let mut cuts = vec![0];
        while cuts.last() != Some(&stream.len()) {
            let next = cuts.last().unwrap() + rng.gen_range(1..60usize);
            cuts.push(next.min(stream.len()));
        }
        let n_batches = cuts.len() - 1;
        // Churn before each batch: `Some(t)` registers tenant `t` (repeats
        // share a template), `None` unregisters a random earlier query.
        let churn: Vec<Vec<(Option<u16>, usize)>> = (0..n_batches)
            .map(|_| {
                (0..rng.gen_range(0..3usize))
                    .map(|_| (rng.gen_bool(0.7).then(|| rng.gen_range(0..n_tenants)), rng.gen_range(0..64usize)))
                    .collect()
            })
            .collect();
        let kills: Vec<Option<u64>> = (0..n_batches)
            .map(|_| rng.gen_bool(0.5).then(|| rng.gen_range(0..n_shards) as u64))
            .collect();

        let run = |faulty: bool| {
            let mut sharded: ShardedMultiEngine<MsTreeStore> =
                ShardedMultiEngine::new(window, n_shards);
            let mut ids: Vec<QueryId> =
                (0..n_tenants).map(|t| sharded.register(plan(t))).collect();
            let mut outs = Vec::new();
            for (b, ops) in churn.iter().enumerate() {
                for &(op, pick) in ops {
                    match op {
                        Some(t) => ids.push(sharded.register(plan(t))),
                        None => {
                            sharded.unregister(ids[pick % ids.len()]);
                        }
                    }
                }
                if let (true, Some(shard)) = (faulty, kills[b]) {
                    let panic = Action::Panic("failpoint: worker".into());
                    failpoints::arm(sites::WORKER_LOOP, Some(shard), panic);
                }
                let mut out = sharded.process(&stream[cuts[b]..cuts[b + 1]]);
                failpoints::reset();
                out.sort();
                outs.push(out);
            }
            let st = sharded.stats();
            (outs, st.shards.iter().map(|h| (h.restarts, h.replay_failures)).collect::<Vec<_>>())
        };
        let (clean, _) = run(false);
        let (got, health) = run(true);
        let n_kills = kills.iter().flatten().count() as u64;
        prop_assert_eq!(health.iter().map(|h| h.0).sum::<u64>(), n_kills);
        prop_assert!(health.iter().all(|h| h.1 == 0));
        prop_assert_eq!(got, clean);
    }
}
