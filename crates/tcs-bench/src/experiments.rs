//! One function per table/figure of the paper's evaluation (§VII).
//!
//! Every function prints the paper-shaped series and writes TSVs under
//! `results/`. The `repro` binary maps experiment names onto these
//! functions; the synthetic stand-ins for the paper's datasets are
//! described in `tcs_graph::gen`'s module docs.

use crate::kgen::generate_with_k;
use crate::report::{fmt_space_kb, fmt_throughput, Table};
use crate::runner::{average, run_system, RunMetrics};
use crate::systems::SystemKind;
use crate::Scale;
use tcs_concurrent::{ConcurrentEngine, LockingMode};
use tcs_core::decompose::decompose;
use tcs_core::plan::{PlanOptions, QueryPlan};
use tcs_graph::gen::case_study;
use tcs_graph::gen::{Dataset, QueryGen, TimingMode};
use tcs_graph::{QueryGraph, StreamEdge};

/// Paper window sizes (units = mean inter-arrival gaps = edges here).
pub const WINDOW_SIZES: [u64; 5] = [10_000, 20_000, 30_000, 40_000, 50_000];
/// Paper query sizes.
pub const QUERY_SIZES: [usize; 6] = [6, 9, 12, 15, 18, 21];
/// Default window for query-size sweeps (§VII fixes 30 000).
pub const DEFAULT_WINDOW: u64 = 30_000;
/// Default query size for window sweeps.
pub const DEFAULT_QUERY_SIZE: usize = 12;
/// Decomposition sizes of §VII-G.
pub const K_VALUES: [usize; 5] = [1, 3, 6, 9, 12];

/// Generates the query mix for one configuration: mostly random timing
/// orders plus one full and one empty order when the budget allows —
/// approximating the paper's 5-order-per-structure recipe.
fn query_mix(stream: &[StreamEdge], size: usize, n: usize, seed: u64) -> Vec<QueryGraph> {
    let region = (stream.len() / 3).max(size * 4).min(stream.len());
    let gen = QueryGen::new(stream, region);
    let mut out = Vec::new();
    let modes = [
        TimingMode::Random,
        TimingMode::Full,
        TimingMode::Empty,
        TimingMode::Random,
        TimingMode::Random,
    ];
    let mut attempt = 0u64;
    while out.len() < n && attempt < n as u64 * 300 {
        let mode = modes[out.len() % modes.len()];
        if let Some(q) = gen.generate(size, mode, seed.wrapping_add(attempt)) {
            out.push(q);
        }
        attempt += 1;
    }
    out
}

fn stream_for(dataset: Dataset, window: u64, scale: &Scale) -> Vec<StreamEdge> {
    dataset.generate(window as usize + scale.measured_edges + 1_000, scale.seed)
}

/// Table I: the related-work capability matrix (documentation-level
/// reproduction; the claims are design facts, not measurements).
pub fn table1() {
    let mut t = Table::new(
        "Table I: Related work vs. our method",
        &["Method", "SubgraphIso", "TimingOrder", "ExactSolution"],
    );
    for (m, a, b, c) in [
        ("Our Method (Timing)", "yes", "yes", "yes"),
        ("Choudhury et al. [SJ-tree]", "yes", "no", "yes"),
        ("Song et al. [graph simulation]", "no", "yes", "yes"),
        ("Gao et al.", "yes", "no", "no"),
        ("Chen et al.", "yes", "no", "no"),
        ("Fan et al. [IncMat]", "yes", "no", "yes"),
    ] {
        t.row(vec![m.into(), a.into(), b.into(), c.into()]);
    }
    t.emit("table1");
}

/// Shared sweep core for Figures 15/17 (window sweep) and 16/18 (query-size
/// sweep): returns per (dataset, x, system) metrics.
fn sweep_systems(
    scale: &Scale,
    xs: &[(u64, usize)], // (window, query size) pairs to sweep
    x_label: &str,
    fig_thr: &str,
    fig_space: &str,
    thr_title: &str,
    space_title: &str,
) {
    let mut thr = Table::new(thr_title, &["dataset", x_label, "system", "edges/s", "completed"]);
    let mut spc = Table::new(space_title, &["dataset", x_label, "system", "space-KB"]);
    for dataset in Dataset::ALL {
        for &(window, qsize) in xs {
            let stream = stream_for(dataset, window, scale);
            let queries = query_mix(&stream, qsize, scale.queries_per_config, scale.seed);
            if queries.is_empty() {
                eprintln!("warning: no queries for {dataset:?} size {qsize}");
                continue;
            }
            let x_val = if xs.iter().all(|&(w, _)| w == xs[0].0) { qsize as u64 } else { window };
            for kind in SystemKind::ALL {
                eprintln!(
                    "# running {} window={window} qsize={qsize} system={}",
                    dataset.name(),
                    kind.name()
                );
                let metrics: Vec<RunMetrics> = queries
                    .iter()
                    .map(|q| {
                        let mut sys = kind.build(q.clone());
                        run_system(
                            sys.as_mut(),
                            &stream,
                            window,
                            scale.measured_edges,
                            scale.run_budget_secs,
                        )
                    })
                    .collect();
                let m = average(&metrics);
                thr.row(vec![
                    dataset.name().into(),
                    x_val.to_string(),
                    kind.name().into(),
                    fmt_throughput(m.throughput),
                    format!("{:.2}", m.completed),
                ]);
                spc.row(vec![
                    dataset.name().into(),
                    x_val.to_string(),
                    kind.name().into(),
                    fmt_space_kb(m.avg_space),
                ]);
            }
        }
    }
    thr.emit(fig_thr);
    spc.emit(fig_space);
}

/// Figures 15 & 17: throughput and space over window sizes.
pub fn fig15_17(scale: &Scale) {
    let xs: Vec<(u64, usize)> = WINDOW_SIZES.iter().map(|&w| (w, DEFAULT_QUERY_SIZE)).collect();
    sweep_systems(
        scale,
        &xs,
        "window",
        "fig15_throughput_vs_window",
        "fig17_space_vs_window",
        "Figure 15: Throughput over different window size (edges/sec)",
        "Figure 17: Space over different window size (KB)",
    );
}

/// Figures 16 & 18: throughput and space over query sizes.
pub fn fig16_18(scale: &Scale) {
    let xs: Vec<(u64, usize)> = QUERY_SIZES.iter().map(|&s| (DEFAULT_WINDOW, s)).collect();
    sweep_systems(
        scale,
        &xs,
        "query-size",
        "fig16_throughput_vs_qsize",
        "fig18_space_vs_qsize",
        "Figure 16: Throughput over different query size (edges/sec)",
        "Figure 18: Space over different query size (KB)",
    );
}

/// Concurrency speedups (Figures 19 & 20): Timing-N and All-locks-N
/// relative to single-threaded fine-grained execution.
fn concurrency_sweep(scale: &Scale, xs: &[(u64, usize)], x_label: &str, fig: &str, title: &str) {
    let threads = [1usize, 2, 3, 4, 5];
    let mut t = Table::new(title, &["dataset", x_label, "variant", "speedup"]);
    for dataset in Dataset::ALL {
        for &(window, qsize) in xs {
            let stream = stream_for(dataset, window, scale);
            let queries = query_mix(&stream, qsize, scale.queries_per_config, scale.seed);
            if queries.is_empty() {
                continue;
            }
            let x_val = if xs.iter().all(|&(w, _)| w == xs[0].0) { qsize as u64 } else { window };
            // Each variant gets the same wall-clock budget; speedup is the
            // ratio of transaction rates against Timing-1.
            let budget = std::time::Duration::from_secs_f64(scale.run_budget_secs);
            let rate = |n: usize, mode: LockingMode| -> f64 {
                queries
                    .iter()
                    .map(|q| {
                        let plan = QueryPlan::build(q.clone(), PlanOptions::timing());
                        let mut eng = ConcurrentEngine::new(plan, n, mode);
                        let r = eng.run_budgeted(&stream, window, Some(budget));
                        r.transactions as f64 / r.elapsed.as_secs_f64().max(1e-9)
                    })
                    .sum::<f64>()
                    / queries.len() as f64
            };
            eprintln!("# concurrency {} window={window} qsize={qsize}", dataset.name());
            let base = rate(1, LockingMode::FineGrained);
            for mode in [LockingMode::FineGrained, LockingMode::AllLocks] {
                for &n in &threads {
                    if mode == LockingMode::FineGrained && n == 1 {
                        t.row(vec![
                            dataset.name().into(),
                            x_val.to_string(),
                            "Timing-1".into(),
                            "1.00".into(),
                        ]);
                        continue;
                    }
                    let r = rate(n, mode);
                    let name = match mode {
                        LockingMode::FineGrained => format!("Timing-{n}"),
                        LockingMode::AllLocks => format!("All-locks-{n}"),
                    };
                    t.row(vec![
                        dataset.name().into(),
                        x_val.to_string(),
                        name,
                        format!("{:.2}", r / base.max(1e-9)),
                    ]);
                }
            }
        }
    }
    t.emit(fig);
}

/// Figure 19: speedup over window sizes.
pub fn fig19(scale: &Scale) {
    let xs: Vec<(u64, usize)> = WINDOW_SIZES.iter().map(|&w| (w, DEFAULT_QUERY_SIZE)).collect();
    concurrency_sweep(
        scale,
        &xs,
        "window",
        "fig19_speedup_vs_window",
        "Figure 19: Speedup over different window size",
    );
}

/// Figure 20: speedup over query sizes.
pub fn fig20(scale: &Scale) {
    let xs: Vec<(u64, usize)> = QUERY_SIZES.iter().map(|&s| (DEFAULT_WINDOW, s)).collect();
    concurrency_sweep(
        scale,
        &xs,
        "query-size",
        "fig20_speedup_vs_qsize",
        "Figure 20: Speedup over different query size",
    );
}

/// Figure 21: the decomposition / join-order ablations (Timing vs
/// Timing-RJ / Timing-RD / Timing-RDJ), throughput and space per dataset.
pub fn fig21(scale: &Scale) {
    let window = DEFAULT_WINDOW;
    let mut thr = Table::new(
        "Figure 21a: Optimization ablation — throughput (edges/sec)",
        &["dataset", "variant", "edges/s"],
    );
    let mut spc = Table::new(
        "Figure 21b: Optimization ablation — space (KB)",
        &["dataset", "variant", "space-KB"],
    );
    type VariantMk = fn(u64) -> PlanOptions;
    let variants: [(&str, VariantMk); 4] = [
        ("Timing", |_| PlanOptions::timing()),
        ("Timing-RJ", PlanOptions::random_join),
        ("Timing-RD", PlanOptions::random_decomposition),
        ("Timing-RDJ", PlanOptions::random_both),
    ];
    for dataset in Dataset::ALL {
        let stream = stream_for(dataset, window, scale);
        let queries = query_mix(&stream, DEFAULT_QUERY_SIZE, scale.queries_per_config, scale.seed);
        for (name, mk) in variants {
            let metrics: Vec<RunMetrics> = queries
                .iter()
                .enumerate()
                .map(|(qi, q)| {
                    let mut sys =
                        SystemKind::build_timing_variant(q.clone(), mk(scale.seed ^ qi as u64));
                    run_system(
                        sys.as_mut(),
                        &stream,
                        window,
                        scale.measured_edges,
                        scale.run_budget_secs,
                    )
                })
                .collect();
            let m = average(&metrics);
            thr.row(vec![dataset.name().into(), name.into(), fmt_throughput(m.throughput)]);
            spc.row(vec![dataset.name().into(), name.into(), fmt_space_kb(m.avg_space)]);
        }
    }
    thr.emit("fig21a_ablation_throughput");
    spc.emit("fig21b_ablation_space");
}

/// Figures 23 & 24: throughput and space over decomposition size k.
pub fn fig23_24(scale: &Scale) {
    let window = DEFAULT_WINDOW;
    let size = DEFAULT_QUERY_SIZE;
    let mut thr = Table::new(
        "Figure 23: Throughput over decomposition size k (edges/sec)",
        &["dataset", "k", "system", "edges/s"],
    );
    let mut spc = Table::new(
        "Figure 24: Space over decomposition size k (KB)",
        &["dataset", "k", "system", "space-KB"],
    );
    for dataset in Dataset::ALL {
        let stream = stream_for(dataset, window, scale);
        let region = (stream.len() / 3).max(size * 4);
        for &k in &K_VALUES {
            let mut queries = Vec::new();
            for qi in 0..scale.queries_per_config {
                if let Some(q) = generate_with_k(
                    &stream,
                    region,
                    size,
                    k,
                    scale.seed.wrapping_add(1000 * qi as u64),
                    4_000,
                ) {
                    queries.push(q);
                }
            }
            if queries.is_empty() {
                eprintln!("warning: no query with k={k} on {}", dataset.name());
                continue;
            }
            for kind in SystemKind::ALL {
                let metrics: Vec<RunMetrics> = queries
                    .iter()
                    .map(|q| {
                        let mut sys = kind.build(q.clone());
                        run_system(
                            sys.as_mut(),
                            &stream,
                            window,
                            scale.measured_edges,
                            scale.run_budget_secs,
                        )
                    })
                    .collect();
                let m = average(&metrics);
                thr.row(vec![
                    dataset.name().into(),
                    k.to_string(),
                    kind.name().into(),
                    fmt_throughput(m.throughput),
                ]);
                spc.row(vec![
                    dataset.name().into(),
                    k.to_string(),
                    kind.name().into(),
                    fmt_space_kb(m.avg_space),
                ]);
            }
        }
    }
    thr.emit("fig23_throughput_vs_k");
    spc.emit("fig24_space_vs_k");
}

/// Figure 25: selectivity (number of answers) over window and query size.
pub fn fig25(scale: &Scale) {
    let mut t = Table::new(
        "Figure 25: Selectivity of the query sets (answers per run)",
        &["dataset", "sweep", "x", "answers"],
    );
    for dataset in Dataset::ALL {
        for &window in &WINDOW_SIZES {
            let stream = stream_for(dataset, window, scale);
            let queries =
                query_mix(&stream, DEFAULT_QUERY_SIZE, scale.queries_per_config, scale.seed);
            let metrics: Vec<RunMetrics> = queries
                .iter()
                .map(|q| {
                    let mut sys = SystemKind::Timing.build(q.clone());
                    run_system(
                        sys.as_mut(),
                        &stream,
                        window,
                        scale.measured_edges,
                        scale.run_budget_secs,
                    )
                })
                .collect();
            let m = average(&metrics);
            t.row(vec![
                dataset.name().into(),
                "window".into(),
                window.to_string(),
                m.matches.to_string(),
            ]);
        }
        for &qsize in &QUERY_SIZES {
            let stream = stream_for(dataset, DEFAULT_WINDOW, scale);
            let queries = query_mix(&stream, qsize, scale.queries_per_config, scale.seed);
            let metrics: Vec<RunMetrics> = queries
                .iter()
                .map(|q| {
                    let mut sys = SystemKind::Timing.build(q.clone());
                    run_system(
                        sys.as_mut(),
                        &stream,
                        DEFAULT_WINDOW,
                        scale.measured_edges,
                        scale.run_budget_secs,
                    )
                })
                .collect();
            let m = average(&metrics);
            t.row(vec![
                dataset.name().into(),
                "query-size".into(),
                qsize.to_string(),
                m.matches.to_string(),
            ]);
        }
    }
    t.emit("fig25_selectivity");
}

/// Figure 22 / §VII-F: the case study — detect the information-exfiltration
/// pattern of Figure 1 planted in benign traffic.
pub fn fig22(scale: &Scale) {
    let (stream, query, planted_at) = case_study::build(scale.seed);
    let mut sys = SystemKind::Timing.build(query);
    let mut w = tcs_graph::window::SlidingWindow::new(30); // 30-second window
    let mut detected = Vec::new();
    for &e in &stream {
        if sys.advance(&w.advance(e)) > 0 {
            detected.push(e.ts.0);
        }
    }
    let mut t =
        Table::new("Figure 22: Case study — exfiltration pattern detection", &["event", "time"]);
    t.row(vec!["attack planted (t5)".into(), planted_at.to_string()]);
    for d in &detected {
        t.row(vec!["pattern detected".into(), d.to_string()]);
    }
    t.emit("fig22_case_study");
    assert!(
        detected.contains(&planted_at),
        "the planted attack must be detected at its final edge"
    );
    println!("detected {} occurrence(s); planted attack found at t={planted_at}\n", detected.len());
}

/// Extra ablation (beyond the paper): how much work the timing-order
/// pruning saves — discarded-edge rate and stored partials, Timing vs the
/// unpruned SJ-tree on identical workloads.
pub fn ablation_pruning(scale: &Scale) {
    use tcs_core::{MsTreeStore, TimingEngine};
    let mut t = Table::new(
        "Ablation: discardable-edge pruning (Timing) vs store-everything (SJ-tree)",
        &["dataset", "discarded%", "timing-KB", "sjtree-KB"],
    );
    for dataset in Dataset::ALL {
        let window = DEFAULT_WINDOW;
        let stream = stream_for(dataset, window, scale);
        let queries = query_mix(&stream, DEFAULT_QUERY_SIZE, scale.queries_per_config, scale.seed);
        let mut discard_rates = Vec::new();
        let mut timing_space = Vec::new();
        let mut sj_space = Vec::new();
        for q in &queries {
            let mut eng: TimingEngine<MsTreeStore> =
                TimingEngine::new(QueryPlan::build(q.clone(), PlanOptions::timing()));
            let mut w = tcs_graph::window::SlidingWindow::new(window);
            let start = std::time::Instant::now();
            for &e in stream.iter().take(window as usize + scale.measured_edges) {
                eng.advance(&w.advance(e));
                if start.elapsed().as_secs_f64() > scale.run_budget_secs {
                    break;
                }
            }
            let st = eng.stats();
            discard_rates.push(st.edges_discarded as f64 / st.edges_processed.max(1) as f64);
            timing_space.push(eng.space_bytes() as f64);
            let mut sj = SystemKind::SjTree.build(q.clone());
            let m = run_system(
                sj.as_mut(),
                &stream,
                window,
                scale.measured_edges,
                scale.run_budget_secs,
            );
            sj_space.push(m.avg_space);
        }
        let n = queries.len().max(1) as f64;
        t.row(vec![
            dataset.name().into(),
            format!("{:.1}", 100.0 * discard_rates.iter().sum::<f64>() / n),
            fmt_space_kb(timing_space.iter().sum::<f64>() / n),
            fmt_space_kb(sj_space.iter().sum::<f64>() / n),
        ]);
    }
    t.emit("ablation_pruning");
}

/// Extra ablation: cost-model validation — measured join operations per
/// edge against Theorem 7's prediction, as k varies.
pub fn ablation_cost_model(scale: &Scale) {
    use tcs_core::{cost, MsTreeStore, TimingEngine};
    let mut t = Table::new(
        "Ablation: Theorem 7 cost model — predicted vs measured joins/edge",
        &["dataset", "k", "predicted", "measured"],
    );
    let dataset = Dataset::NetworkFlow;
    let window = DEFAULT_WINDOW;
    let stream = stream_for(dataset, window, scale);
    let region = (stream.len() / 3).max(48);
    for &k in &K_VALUES {
        let Some(q) = generate_with_k(&stream, region, DEFAULT_QUERY_SIZE, k, scale.seed, 4_000)
        else {
            continue;
        };
        let kk = decompose(&q).k();
        let predicted = cost::expected_joins(&q, kk);
        let mut eng: TimingEngine<MsTreeStore> =
            TimingEngine::new(QueryPlan::build(q, PlanOptions::timing()));
        let mut w = tcs_graph::window::SlidingWindow::new(window);
        let start = std::time::Instant::now();
        for &e in stream.iter().take(window as usize + scale.measured_edges) {
            eng.advance(&w.advance(e));
            if start.elapsed().as_secs_f64() > scale.run_budget_secs {
                break;
            }
        }
        let st = eng.stats();
        let measured = st.join_ops as f64 / st.edges_processed.max(1) as f64;
        t.row(vec![
            dataset.name().into(),
            kk.to_string(),
            format!("{predicted:.3}"),
            format!("{measured:.3}"),
        ]);
    }
    t.emit("ablation_cost_model");
}

/// The in-tree ratio that still has both sides in the library, on the hub
/// keyed-probe workload of `crate::hub`: recorder-armed vs no-op telemetry
/// seam. Emits it as `BENCH_join.json` for the CI gate.
pub fn join_probe(scale: &Scale) {
    use crate::hub::{hub_arrival, hub_engine};
    use std::time::{Duration, Instant};

    let budget = Duration::from_secs_f64(scale.run_budget_secs.min(2.0));
    // Telemetry-overhead ablation: the keyed-probe hub workload with a
    // default-sampling recorder armed vs the no-op (`None`) seam. The CI
    // gate holds `overhead = noop / recorded` (throughput ratio, ≥ 1 when
    // recording costs anything) within 1.05× at fan-out 512.
    let run_tel = |fanout: usize, recorded: bool| -> f64 {
        let mut eng = hub_engine(fanout);
        if recorded {
            eng.set_recorder(std::sync::Arc::new(tcs_telemetry::Recorder::new()));
        }
        let start = Instant::now();
        let mut n = 0u64;
        let mut id = fanout as u64;
        'outer: loop {
            for _ in 0..256 {
                id += 1;
                eng.insert(hub_arrival(fanout, id));
                n += 1;
            }
            // A short cap: this ratio is sampled 24× (6 interleaved rounds
            // × 2 sides × 2 fan-outs).
            if start.elapsed() >= budget || n >= 500_000 {
                break 'outer;
            }
        }
        n as f64 / start.elapsed().as_secs_f64()
    };

    let mut tt = Table::new(
        "join_probe/telemetry: recorder armed (1-in-16 sampling) vs no-op seam, keyed-probe hub",
        &["fanout", "recorded-edges/s", "noop-edges/s", "overhead"],
    );
    let mut telemetry_rows = Vec::new();
    for &fanout in &[64usize, 512] {
        // The overhead gate compares two near-identical throughputs, so
        // slow machine-speed drift (frequency scaling, a co-tenant runner
        // warming up) is the dominant error term — far bigger than the
        // recorder's real cost. Run the two sides back-to-back within
        // each round (alternating which goes first) and gate on the
        // minimum of the per-round ratios: drift is ~equal inside a pair
        // so each ratio isolates the recorder's cost, and min-of-rounds
        // discards pairs a throttle landed in the middle of. A real
        // regression still shows — it inflates every round's ratio.
        let mut recorded = f64::MIN;
        let mut noop = f64::MIN;
        let mut overhead = f64::MAX;
        for round in 0..6 {
            let (r, n) = if round % 2 == 0 {
                let r = run_tel(fanout, true);
                (r, run_tel(fanout, false))
            } else {
                let n = run_tel(fanout, false);
                (run_tel(fanout, true), n)
            };
            recorded = recorded.max(r);
            noop = noop.max(n);
            overhead = overhead.min(n / r);
        }
        tt.row(vec![
            fanout.to_string(),
            fmt_throughput(recorded),
            fmt_throughput(noop),
            format!("{overhead:.3}x"),
        ]);
        telemetry_rows.push((fanout, recorded, noop, overhead));
    }
    tt.emit("join_probe_telemetry");

    // Machine-readable trajectory (no serde in this workspace's offline
    // build — the JSON is assembled by hand; schema documented in
    // `crate::hub`'s module docs).
    let mut json = String::from(
        "{\n  \"bench\": \"join_probe\",\n  \"unit\": \"edges_per_sec\",\n  \"telemetry_rows\": [\n",
    );
    for (idx, (fanout, recorded, noop, overhead)) in telemetry_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"fanout\": {}, \"recorded\": {:.0}, \"noop\": {:.0}, \"overhead\": {:.3}}}{}\n",
            fanout,
            recorded,
            noop,
            overhead,
            if idx + 1 < telemetry_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write("BENCH_join.json", json) {
        eprintln!("warning: could not write BENCH_join.json: {e}");
    }
}

/// The telemetry deep-dive behind `repro telemetry`: drives the hub
/// keyed-probe workload on a standalone [`tcs_core::TimingEngine`] and
/// the multi-tenant workload on a [`tcs_multi::MultiQueryEngine`], each
/// with an *exact* (sample-every-1) [`tcs_telemetry::Recorder`] armed,
/// and prints per-edge processing and detection latency quantiles next
/// to the throughput the other experiments report. The recorder-on vs
/// no-op *overhead* ablation lives in [`join_probe`]'s
/// `telemetry_rows`; this experiment is about the latency numbers
/// themselves.
pub fn telemetry(scale: &Scale) {
    use crate::hub::{hub_arrival, hub_engine, multi_edge, multi_engine, multi_warmup};
    use crate::report::fmt_latency_ns;
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use tcs_telemetry::Recorder;

    let budget = Duration::from_secs_f64(scale.run_budget_secs.min(2.0));

    // Standalone engine: per-edge processing latency plus detection
    // latency under scope 0 (a bare TimingEngine has no QueryId).
    let mut th = Table::new(
        "telemetry/hub: exact-sampling latency quantiles, keyed-probe hub workload",
        &[
            "fanout",
            "edges/s",
            "edge-p50",
            "edge-p99",
            "edge-p999",
            "det-p50",
            "det-p99",
            "det-p999",
        ],
    );
    for &fanout in &[64usize, 512] {
        let rec = Arc::new(Recorder::with_sampling(1));
        let mut eng = hub_engine(fanout);
        eng.set_recorder(Arc::clone(&rec));
        let start = Instant::now();
        let mut n = 0u64;
        let mut id = fanout as u64;
        'outer: loop {
            for _ in 0..256 {
                id += 1;
                eng.insert(hub_arrival(fanout, id));
                n += 1;
            }
            if start.elapsed() >= budget || n >= 400_000 {
                break 'outer;
            }
        }
        let eps = n as f64 / start.elapsed().as_secs_f64();
        let snap = rec.snapshot();
        let det = snap
            .detection_by_query
            .iter()
            .find(|&&(k, _)| k == 0)
            .map(|(_, h)| h.clone())
            .unwrap_or_default();
        th.row(vec![
            fanout.to_string(),
            fmt_throughput(eps),
            fmt_latency_ns(snap.edge.p50()),
            fmt_latency_ns(snap.edge.p99()),
            fmt_latency_ns(snap.edge.p999()),
            fmt_latency_ns(det.p50()),
            fmt_latency_ns(det.p99()),
            fmt_latency_ns(det.p999()),
        ]);
    }
    th.emit("telemetry_hub");

    // Multi-tenant registry: per-query detection latency — the per-query
    // breakdown the acceptance gate asks for.
    let n_queries = 8usize;
    let rec = Arc::new(Recorder::with_sampling(1));
    let mut eng = multi_engine(n_queries);
    eng.set_recorder(Arc::clone(&rec));
    let mut ts = 0u64;
    while ts < multi_warmup(n_queries) {
        ts += 1;
        eng.advance(multi_edge(n_queries, ts));
    }
    let start = Instant::now();
    let mut n = 0u64;
    'outer: loop {
        for _ in 0..64 {
            ts += 1;
            eng.advance(multi_edge(n_queries, ts));
            n += 1;
        }
        if start.elapsed() >= budget || n >= 200_000 {
            break 'outer;
        }
    }
    let eps = n as f64 / start.elapsed().as_secs_f64();
    let snap = rec.snapshot();
    let mut tq = Table::new(
        &format!(
            "telemetry/multi: per-query detection latency, {n_queries} tenants \
             ({} edges/s)",
            fmt_throughput(eps)
        ),
        &["query", "matches", "det-p50", "det-p99", "det-p999", "det-max"],
    );
    for (qid, h) in &snap.detection_by_query {
        tq.row(vec![
            qid.to_string(),
            h.count.to_string(),
            fmt_latency_ns(h.p50()),
            fmt_latency_ns(h.p99()),
            fmt_latency_ns(h.p999()),
            fmt_latency_ns(h.max),
        ]);
    }
    tq.emit("telemetry_multi");
    println!(
        "telemetry/multi: {} top hot key(s), {} degree bucket(s), {} event(s) logged",
        snap.hot_keys.len(),
        snap.degree_buckets.len(),
        snap.events.len()
    );
}
