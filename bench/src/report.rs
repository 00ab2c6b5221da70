//! Metric tables, result files and the `compare` tool.

use std::fmt::Write as _;
use tcs_telemetry::json::{self, Value};

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Per-layer metrics only: the end-to-end metric, and the workload,
    /// this one should move.
    pub moves: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit, moves: "" }
}

/// Absolute floors of `compare`: a metric may worsen by the larger of its
/// relative bound (`BENCHMARK.json`, the one place those are written) and
/// this much, in the metric's unit, before it counts.
const FLOORS: [(&str, f64); 3] =
    [("setup_s", 0.05), ("detect_quiet_p50_us", 20.0), ("detect_quiet_slice_p99_us", 50.0)];

/// What `compare` requires to agree exactly between two sets of runs of
/// one commit, whatever `BENCHMARK.json` allows a later commit.
const EXACT: [&str; 3] = ["count", "digest", "peak_state_bytes"];

/// Everything one workload's run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub workload: &'static str,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Figures that qualify the end-to-end ones (sample counts, generator
    /// lateness); printed, not part of the result line.
    pub diagnostics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Matches delivered in one pass over the measured segment, and their
    /// order-independent digest.
    pub count: u64,
    pub digest: u64,
    /// Human-readable notes on what a failed check found.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn print_table(&self) {
        println!("== {} ==", self.workload);
        for m in self.end_to_end.iter().chain(&self.diagnostics).chain(&self.per_layer) {
            let moves =
                if m.moves.is_empty() { String::new() } else { format!("  -> {}", m.moves) };
            println!("{:<36} {:>18} {:<6}{moves}", m.name, fmt_value(m.value), m.unit);
        }
        println!(
            "{:<36} {:>18} matches, digest {:016x}; attempted {} failed {}",
            "match_stream", self.count, self.digest, self.attempted, self.failed
        );
        for p in &self.problems {
            println!("PROBLEM: {p}");
        }
    }
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// A JSON object of metrics; every key is `prefix` + the metric's name.
fn metrics_json<'a>(ms: impl Iterator<Item = (&'a str, &'a Metric)>) -> String {
    let mut s = String::from("{");
    for (i, (prefix, m)) in ms.enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push('}');
    s
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`. `failed_frac` is expressed by `failed`/`attempted` and so is
/// left out of `metrics` (it is 0 on a healthy run, and the driver wants
/// metrics that are never 0). One workload's metrics go by their bare
/// names, as `BENCHMARK.json` lists them; when several workloads ran, every
/// key is `<workload>.<metric>` so that none shadows another.
pub fn result_line(outcomes: &[Outcome], end_to_end: bool, per_layer: bool) -> String {
    let prefixes: Vec<String> = outcomes
        .iter()
        .map(|o| if outcomes.len() > 1 { format!("{}.", o.workload) } else { String::new() })
        .collect();
    let metrics = outcomes.iter().zip(&prefixes).flat_map(|(o, prefix)| {
        let e2e = o.end_to_end.iter().filter(move |m| end_to_end && m.name != "failed_frac");
        let layers = o.per_layer.iter().filter(move |_| per_layer);
        e2e.chain(layers).map(move |m| (prefix.as_str(), m))
    });
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcomes.iter().all(Outcome::correct),
        outcomes.iter().map(|o| o.attempted).sum::<u64>().max(1),
        outcomes.iter().map(|o| o.failed).sum::<u64>(),
        metrics_json(metrics)
    )
}

/// A result file for `compare`: one object per workload, on one line, with
/// the end-to-end metrics and the figures that qualify them (`compare`
/// reads only the former). A row of `history.jsonl` is such a file with
/// `subject` filled in.
pub fn result_file(seed: u64, outcomes: &[Outcome]) -> String {
    let mut s = format!("{{\"subject\": \"\", \"seed\": {seed}, \"workloads\": {{");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"count\": {}, \"digest\": \"{:016x}\", \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"diagnostics\": {}}}",
            o.workload,
            o.count,
            o.digest,
            o.attempted,
            o.failed,
            metrics_json(o.end_to_end.iter().map(|m| ("", m))),
            metrics_json(o.diagnostics.iter().map(|m| ("", m)))
        );
    }
    s.push_str("}}");
    s
}

/// One end-to-end metric of `BENCHMARK.json`: name, direction, relative bound.
struct Bound {
    name: String,
    higher_is_better: bool,
    rel: f64,
}

fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let v = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {}", e.0))?;
    let Some(Value::Arr(list)) = v.get("end_to_end") else {
        return Err("BENCHMARK.json: end_to_end is not an array".into());
    };
    let mut out = Vec::with_capacity(list.len() + 1);
    for m in list {
        let field = |k: &str| m.req(k).map_err(|e| format!("BENCHMARK.json: {}", e.0));
        let name = field("name")?.as_str().map_err(|e| e.0)?.to_string();
        // An exact field's bound is for later commits; here it must not move.
        let rel = if EXACT.contains(&name.as_str()) {
            0.0
        } else {
            field("bound")?.as_f64().map_err(|e| e.0)?
        };
        let higher_is_better = field("better")?.as_str().map_err(|e| e.0)? == "higher";
        out.push(Bound { name, higher_is_better, rel });
    }
    // Not a metric of BENCHMARK.json (it is 0 on a healthy run): must not rise.
    out.push(Bound { name: "failed_frac".into(), higher_is_better: false, rel: 0.0 });
    Ok(out)
}

/// `compare A.json B.json`: per workload × end-to-end metric, both values,
/// the relative difference and the bound. Returns the table and whether
/// every pair is inside its bound: B no worse than A by more than the
/// larger of the metric's relative bound in `BENCHMARK.json` and its floor
/// in [`FLOORS`]; the [`EXACT`] fields equal; the same workloads in both.
pub fn compare(a: &str, b: &str, benchmark_json: &str) -> Result<(String, bool), String> {
    let bounds = bounds(benchmark_json)?;
    let workloads = |text: &str, which: &str| -> Result<Vec<(String, Value)>, String> {
        let v = json::parse(text).map_err(|e| format!("{which}: {}", e.0))?;
        match v.get("workloads") {
            Some(Value::Obj(entries)) => Ok(entries.clone()),
            _ => Err(format!("{which}: workloads is not an object")),
        }
    };
    let (wa, wb) = (workloads(a, "A")?, workloads(b, "B")?);
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "{:<14} {:<25} {:>16} {:>16} {:>9} {:>9}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for (name, _) in wb.iter().filter(|(n, _)| !wa.iter().any(|(m, _)| m == n)) {
        let _ = writeln!(out, "{name:<14} missing in A  OUTSIDE");
        ok = false;
    }
    for (name, ea) in &wa {
        let Some((_, eb)) = wb.iter().find(|(n, _)| n == name) else {
            let _ = writeln!(out, "{name:<14} missing in B  OUTSIDE");
            ok = false;
            continue;
        };
        // A metric's value; `--quick` sets have no open-loop metrics.
        let get = |e: &Value, metric: &str| -> Result<Option<f64>, String> {
            let Some(m) = e.get("end_to_end").and_then(|m| m.get(metric)) else {
                return Ok(None);
            };
            m.req("value")
                .and_then(Value::as_f64)
                .map(Some)
                .map_err(|e| format!("{name}.{metric}: {}", e.0))
        };
        // An exact field sits beside `end_to_end` or is one of its metrics.
        let field = |e: &Value, key: &str| {
            let v = e.get(key).or_else(|| e.get("end_to_end").and_then(|m| m.get(key)));
            v.map(|v| format!("{v:?}"))
        };
        for key in EXACT {
            if field(ea, key) != field(eb, key) {
                let _ = writeln!(out, "{name:<14} {key:<25} differs  OUTSIDE");
                ok = false;
            }
        }
        for bound in &bounds {
            let (x, y) = match (get(ea, &bound.name)?, get(eb, &bound.name)?) {
                (Some(x), Some(y)) => (x, y),
                (None, None) => continue,
                _ => return Err(format!("{name}.{} is in only one of the files", bound.name)),
            };
            let worse = if bound.higher_is_better { x - y } else { y - x };
            let floor = FLOORS.iter().find(|(n, _)| *n == bound.name).map_or(0.0, |f| f.1);
            let inside = worse <= (bound.rel * x.abs()).max(floor);
            ok &= inside;
            let _ = writeln!(
                out,
                "{:<14} {:<25} {:>16} {:>16} {:>+8.2}% {:>8.0}%{}",
                name,
                bound.name,
                fmt_value(x),
                fmt_value(y),
                if x != 0.0 { (y - x) / x * 100.0 } else { 0.0 },
                bound.rel * 100.0,
                if inside { "" } else { "  OUTSIDE" }
            );
        }
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{"end_to_end": [
        {"name": "throughput_eps", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "peak_state_bytes", "unit": "bytes", "better": "lower", "bound": 0.02}]}"#;

    fn outcome(workload: &'static str, eps: f64, bytes: f64, digest: u64) -> Outcome {
        Outcome {
            workload,
            end_to_end: vec![
                metric("throughput_eps", eps, "1/s"),
                metric("peak_state_bytes", bytes, "bytes"),
                metric("failed_frac", 0.0, "1"),
            ],
            count: 3,
            digest,
            ..Outcome::default()
        }
    }

    fn file(eps: f64, bytes: f64, digest: u64) -> String {
        result_file(1, &[outcome("w", eps, bytes, digest)])
    }

    fn inside(a: &str, b: &str) -> bool {
        matches!(compare(a, b, BENCHMARK), Ok((_, true)))
    }

    #[test]
    fn compare_flags_a_drop_beyond_the_bound_and_any_change_of_an_exact_field() {
        let a = file(100.0, 1000.0, 0xab);
        assert!(inside(&a, &file(80.0, 1000.0, 0xab)));
        assert!(!inside(&a, &file(70.0, 1000.0, 0xab)));
        // Higher throughput is never a regression.
        assert!(inside(&a, &file(500.0, 1000.0, 0xab)));
        // Another digest always is, and so is a single byte of state,
        // whatever BENCHMARK.json's bound allows a later commit.
        assert!(!inside(&a, &file(100.0, 1000.0, 0xcd)));
        assert!(!inside(&a, &file(100.0, 1001.0, 0xab)));
    }

    #[test]
    fn compare_checks_the_union_of_workloads() {
        let one = file(100.0, 1000.0, 0xab);
        let two =
            result_file(1, &[outcome("w", 100.0, 1000.0, 0xab), outcome("x", 100.0, 1000.0, 0xab)]);
        assert!(inside(&two, &two));
        assert!(!inside(&one, &two));
        assert!(!inside(&two, &one));
    }

    #[test]
    fn result_line_leaves_failed_frac_to_failed_over_attempted() {
        let o = Outcome { attempted: 10, ..outcome("w", 5.0, 7.0, 0) };
        let line = result_line(&[o], true, false);
        assert!(line.contains("\"throughput_eps\"") && !line.contains("failed_frac"), "{line}");
        assert!(json::parse(&line).is_ok());
    }

    #[test]
    fn result_line_of_several_workloads_keys_metrics_by_workload() {
        let line =
            result_line(&[outcome("w", 5.0, 7.0, 0), outcome("x", 6.0, 7.0, 0)], true, false);
        let v = json::parse(&line).unwrap_or_else(|e| panic!("{}: {line}", e.0));
        let Some(Value::Obj(metrics)) = v.get("metrics") else { panic!("{line}") };
        let keys: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["w.throughput_eps", "w.peak_state_bytes", "x.throughput_eps", "x.peak_state_bytes"]
        );
    }
}
