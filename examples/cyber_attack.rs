#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench targets panic by design
//! The paper's motivating example (Figure 1) and case study (§VII-F):
//! detect an information-exfiltration attack pattern in network traffic.
//!
//! The pattern: a victim browses a compromised web server (t1), downloads
//! a malware payload (t2), registers with a botnet C&C server (t3),
//! receives a command (t4), and exfiltrates data (t5) — with the strict
//! timing order t1 < t2 < t3 < t4 < t5. Structure alone is not enough: the
//! same five edges out of order are benign-looking chatter.
//!
//! Run with `cargo run --release --example cyber_attack`. Options:
//!
//! * `--slide <secs>` — sliding-window length in stream time units
//!   (default 30, the paper's "long enough for an attack of such pattern").
//! * `--stream <path>` — instead of the synthetic case study, ingest an
//!   s-graffito-style text edge stream (`src dst label ts` per line,
//!   string or integer ids) and monitor a timing-ordered two-hop pattern
//!   over its two most frequent edge labels.
//! * `--metrics-dir <path>` — arm an exact-sampling telemetry recorder
//!   and dump `metrics.prom` + `metrics.json` under the directory every
//!   10k edges and at exit, then print the per-edge and detection
//!   latency quantiles the dump contains.

use std::collections::HashMap;

use timingsubg::core::{MsTreeStore, PlanOptions, QueryPlan, TimingEngine};
use timingsubg::graph::gen::case_study;
use timingsubg::graph::io::edge_stream_from_str;
use timingsubg::graph::query::{QueryEdge, QueryGraph};
use timingsubg::graph::window::SlidingWindow;
use timingsubg::graph::{StreamEdge, VLabel};

struct Args {
    slide: u64,
    stream: Option<String>,
    metrics_dir: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args { slide: 30, stream: None, metrics_dir: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--slide" => {
                let v = it.next().expect("--slide takes a value");
                args.slide = v.parse().expect("--slide must be an integer number of seconds");
            }
            "--stream" => {
                args.stream = Some(it.next().expect("--stream takes a path"));
            }
            "--metrics-dir" => {
                args.metrics_dir =
                    Some(it.next().expect("--metrics-dir takes a directory path").into());
            }
            other => {
                panic!(
                    "unknown argument {other:?} \
                     (expected --slide <secs> / --stream <path> / --metrics-dir <path>)"
                )
            }
        }
    }
    args
}

/// Loads a text edge stream and derives a monitoring query for it: a
/// two-hop path `a -L1-> b -L2-> c` over the stream's two most frequent
/// edge labels, with the timing constraint that the first hop precedes
/// the second — the minimal pattern that exercises the timing filter on
/// data we know nothing about.
fn load_stream(path: &str) -> (Vec<StreamEdge>, QueryGraph) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read stream file {path}: {e}"));
    let parsed = edge_stream_from_str(&text, 1)
        .unwrap_or_else(|e| panic!("cannot parse stream file {path}: {e}"));
    println!(
        "stream: {} edges, {} vertices, {} edge labels from {path}",
        parsed.edges.len(),
        parsed.vertices.len(),
        parsed.edge_labels.len()
    );
    let mut edges = parsed.edges;
    // Real datasets are not always timestamp-sorted; the strict-order
    // gate requires it.
    edges.sort_by_key(|e| e.ts.0);
    let mut freq: HashMap<u16, usize> = HashMap::new();
    for e in &edges {
        *freq.entry(e.label.0).or_insert(0) += 1;
    }
    let mut by_freq: Vec<(u16, usize)> = freq.into_iter().collect();
    by_freq.sort_by_key(|&(l, n)| (std::cmp::Reverse(n), l));
    let l1 = by_freq.first().map(|&(l, _)| l).expect("stream has at least one edge");
    let l2 = by_freq.get(1).map(|&(l, _)| l).unwrap_or(l1);
    println!(
        "query: two-hop path over the most frequent labels {:?} then {:?}, first hop before second",
        parsed.edge_labels[l1 as usize], parsed.edge_labels[l2 as usize]
    );
    let query = QueryGraph::new(
        vec![VLabel(0); 3],
        vec![
            QueryEdge { src: 0, dst: 1, label: timingsubg::graph::ELabel(l1) },
            QueryEdge { src: 1, dst: 2, label: timingsubg::graph::ELabel(l2) },
        ],
        &[(0, 1)],
    )
    .expect("two-hop path is a valid query");
    (edges, query)
}

fn main() {
    let args = parse_args();
    let (stream, query, planted_at) = match &args.stream {
        Some(path) => {
            let (stream, query) = load_stream(path);
            (stream, query, None)
        }
        None => {
            // Synthetic traffic with one planted attack (the
            // `tcs_graph::gen::case_study` module docs record the
            // substitution for the paper's internal capture).
            let (stream, query, planted_at) = case_study::build_sized(7, 40_000, 10_000);
            println!(
                "traffic: {} flows over ~10k hosts; monitoring the Figure-1 pattern",
                stream.len()
            );
            (stream, query, Some(planted_at))
        }
    };
    println!(
        "query: {} edges, timing order covers {} pair(s) (k = {})",
        query.n_edges(),
        query.order.pairs().len(),
        QueryPlan::build(query.clone(), PlanOptions::timing()).k()
    );

    let plan = QueryPlan::build(query.clone(), PlanOptions::timing());
    let mut engine: TimingEngine<MsTreeStore> = TimingEngine::new(plan);
    let mut window = SlidingWindow::new(args.slide);
    println!("window: slide = {} time units", args.slide);

    // Every edge is stamped (sampling 1): a one-shot forensic run wants
    // exact quantiles, not the serving-path subsample.
    let recorder = args.metrics_dir.as_ref().map(|dir| {
        let rec = std::sync::Arc::new(timingsubg::telemetry::Recorder::with_sampling(1));
        engine.set_recorder(std::sync::Arc::clone(&rec));
        println!("telemetry: dumping metrics.prom + metrics.json under {}", dir.display());
        (rec, dir.clone())
    });

    let mut detections = Vec::new();
    for (i, &edge) in stream.iter().enumerate() {
        let ev = window.advance(edge);
        for m in engine.advance(&ev) {
            detections.push((edge.ts.0, m));
        }
        if let Some((rec, dir)) = &recorder {
            if (i + 1) % 10_000 == 0 {
                rec.dump(dir).expect("periodic metrics dump");
            }
        }
    }

    if planted_at.is_some() {
        for (t, m) in &detections {
            println!("ALERT t={t}: exfiltration pattern, flows {:?}", m.edges());
            // Reconstruct the actors from the match (query vertex 0 = victim).
            let t5 = m.edge(4);
            println!("       exfiltration flow id = {t5:?}");
        }
    } else {
        for (t, m) in detections.iter().take(10) {
            println!("MATCH t={t}: timing-ordered two-hop, edges {:?}", m.edges());
        }
        if detections.len() > 10 {
            println!("... and {} more", detections.len() - 10);
        }
    }
    match planted_at {
        Some(planted) => {
            println!(
                "planted attack completed at t={planted}; detected {} occurrence(s)",
                detections.len()
            );
            assert!(
                detections.iter().any(|&(t, _)| t == planted),
                "the planted attack must be caught at its final edge"
            );
        }
        None => println!("{} timing-ordered occurrence(s) in the window", detections.len()),
    }

    let stats = engine.stats();
    println!(
        "{} of {} flows were discarded on arrival by the timing-order filter ({:.1}%)",
        stats.edges_discarded,
        stats.edges_processed,
        100.0 * stats.edges_discarded as f64 / stats.edges_processed as f64
    );

    if let Some((rec, dir)) = &recorder {
        rec.dump(dir).expect("final metrics dump");
        let snap = rec.snapshot();
        let fmt = |ns: u64| format!("{:.1}us", ns as f64 / 1e3);
        println!(
            "latency: per-edge p50={} p99={} p999={} over {} edges",
            fmt(snap.edge.p50()),
            fmt(snap.edge.p99()),
            fmt(snap.edge.p999()),
            snap.edge.count
        );
        for (qid, h) in &snap.detection_by_query {
            println!(
                "latency: detection (query {qid}) p50={} p99={} p999={} over {} matches",
                fmt(h.p50()),
                fmt(h.p99()),
                fmt(h.p999()),
                h.count
            );
        }
        println!("metrics written to {}", dir.display());
    }
}
