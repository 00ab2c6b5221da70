//! Reproduces the paper's tables and figures.
//!
//! ```text
//! repro <experiment|all> [--quick] [--edges N] [--queries N] [--budget SECS] [--seed S]
//!
//! experiments:
//!   table1     related-work capability matrix
//!   fig15      throughput vs window size   (also emits fig17 space)
//!   fig16      throughput vs query size    (also emits fig18 space)
//!   fig19      concurrent speedup vs window size
//!   fig20      concurrent speedup vs query size
//!   fig21      decomposition/join-order ablations
//!   fig22      case study (exfiltration detection)
//!   fig23      throughput & space vs decomposition size k (also fig24)
//!   fig25      query-set selectivity
//!   pruning    extra ablation: discardable-edge pruning
//!   costmodel  extra ablation: Theorem 7 joins/edge validation
//!   join       expiry-mode and telemetry-overhead ratios (BENCH_join.json)
//!   telemetry  latency deep-dive: per-edge + per-query detection quantiles
//!   all        everything above
//! ```

use tcs_bench::{experiments, Scale};

/// Parses the value of `flag` at `args[i]`, exiting with usage on a
/// missing or malformed argument (a CLI error, not a bug).
fn parse_flag<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    match args.get(i).map(|s| s.parse()) {
        Some(Ok(v)) => v,
        _ => {
            eprintln!("{flag} needs a valid argument");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: repro <experiment|all> [--quick] [--edges N] [--queries N] [--budget SECS] [--seed S]");
        std::process::exit(2);
    }
    let mut scale = Scale::default_scale();
    let mut exp = String::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = Scale::quick(),
            "--edges" => {
                i += 1;
                scale.measured_edges = parse_flag(&args, i, "--edges");
            }
            "--queries" => {
                i += 1;
                scale.queries_per_config = parse_flag(&args, i, "--queries");
            }
            "--budget" => {
                i += 1;
                scale.run_budget_secs = parse_flag(&args, i, "--budget");
            }
            "--seed" => {
                i += 1;
                scale.seed = parse_flag(&args, i, "--seed");
            }
            name if !name.starts_with("--") => exp = name.to_string(),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    eprintln!(
        "# scale: measured_edges={} queries={} budget={}s seed={}",
        scale.measured_edges, scale.queries_per_config, scale.run_budget_secs, scale.seed
    );
    let t0 = std::time::Instant::now();
    match exp.as_str() {
        "table1" => experiments::table1(),
        "fig15" | "fig17" => experiments::fig15_17(&scale),
        "fig16" | "fig18" => experiments::fig16_18(&scale),
        "fig19" => experiments::fig19(&scale),
        "fig20" => experiments::fig20(&scale),
        "fig21" => experiments::fig21(&scale),
        "fig22" => experiments::fig22(&scale),
        "fig23" | "fig24" => experiments::fig23_24(&scale),
        "fig25" => experiments::fig25(&scale),
        "pruning" => experiments::ablation_pruning(&scale),
        "costmodel" => experiments::ablation_cost_model(&scale),
        "join" => experiments::join_probe(&scale),
        "telemetry" => experiments::telemetry(&scale),
        "all" => {
            experiments::table1();
            experiments::fig15_17(&scale);
            experiments::fig16_18(&scale);
            experiments::fig19(&scale);
            experiments::fig20(&scale);
            experiments::fig21(&scale);
            experiments::fig22(&scale);
            experiments::fig23_24(&scale);
            experiments::fig25(&scale);
            experiments::ablation_pruning(&scale);
            experiments::ablation_cost_model(&scale);
            experiments::join_probe(&scale);
            experiments::telemetry(&scale);
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            std::process::exit(2);
        }
    }
    eprintln!("# done in {:.1}s", t0.elapsed().as_secs_f64());
}
