//! Benchmark harness regenerating every table and figure of §VII.
//!
//! The `repro` binary (`cargo run -p tcs-bench --release --bin repro --
//! <experiment>`) prints the same rows/series the paper reports and writes
//! TSV files under `results/`. Absolute numbers differ from the paper (our
//! substrate is synthetic and the hardware is different); what must hold is
//! the *shape*: who wins, by roughly what factor, and how curves move with
//! window size, query size, thread count and decomposition size.
//!
//! Modules:
//! * [`systems`] — a uniform wrapper over all six compared systems
//!   (Timing, Timing-IND, SJ-tree, BoostISO, TurboISO, QuickSI).
//! * [`runner`] — drives a system over a stream segment and measures
//!   throughput (edges/s), average space and matches, with a wall-clock
//!   budget per run (slow baselines are stopped early and extrapolated —
//!   recorded in the output).
//! * [`kgen`] — query generation with a *target decomposition size* `k`
//!   (§VII-G's protocol).
//! * [`report`] — aligned stdout tables + TSV files.
//! * [`experiments`] — one function per table/figure.
//! * [`hub`] — the hub fan-out workloads measured by the `repro join`
//!   and `repro telemetry` experiments.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod hub;
pub mod kgen;
pub mod report;
pub mod runner;
pub mod systems;

/// Global scale knobs for a reproduction run.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Edges measured per run (after the window fills).
    pub measured_edges: usize,
    /// Queries per configuration (the paper averages 10 structures × 5
    /// orders; scale down for quick runs).
    pub queries_per_config: usize,
    /// Wall-clock budget per (system, query, workload) run, seconds.
    pub run_budget_secs: f64,
    /// RNG seed for all generation.
    pub seed: u64,
}

impl Scale {
    /// A quick smoke-scale (minutes for the full suite).
    pub fn quick() -> Scale {
        Scale { measured_edges: 6_000, queries_per_config: 2, run_budget_secs: 3.0, seed: 42 }
    }

    /// The default reproduction scale.
    pub fn default_scale() -> Scale {
        Scale { measured_edges: 20_000, queries_per_config: 3, run_budget_secs: 8.0, seed: 42 }
    }
}
