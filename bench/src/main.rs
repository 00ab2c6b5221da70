//! `bench/`: the end-to-end measurement spine.
//!
//! ```text
//! cargo run --release --offline --manifest-path bench/Cargo.toml -- run --seed 42
//! cargo run --release --offline --manifest-path bench/Cargo.toml -- compare A.json B.json
//! ```
//!
//! `run` generates each workload's inputs from the seed, hands the system
//! under test only the generated text, drives it through the serving
//! pipeline's public API, checks the match stream and prints every metric
//! by name with its unit. See `README.md` for the protocol.

mod alloc;
mod check;
mod drive;
mod layers;
mod pipeline;
mod report;
mod run;
mod trace;
mod traced_store;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  run [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]
      [--out <file.json>]
  compare <A.json> <B.json>
  screen

run: without --workload every workload runs; without --trace both the
end-to-end phase (tracing off) and the traced phase run. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
compare: two `run --out` files against the bounds of ../BENCHMARK.json.
screen: regenerates the frozen query sets under queries/ (then rebuild).";

/// Default length of the end-to-end measurement phase, seconds.
const DEFAULT_SECONDS: f64 = 20.0;

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

struct RunArgs {
    workload: Option<String>,
    opts: run::Opts,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        opts: run::Opts {
            seed: 42,
            seconds: DEFAULT_SECONDS,
            quick: false,
            end_to_end: true,
            traced: true,
        },
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => r.workload = Some(value()?.clone()),
            "--seed" => r.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                r.opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(r.opts.seconds > 0.0 && r.opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => match value()?.as_str() {
                "0" => (r.opts.end_to_end, r.opts.traced) = (true, false),
                "1" => (r.opts.end_to_end, r.opts.traced) = (false, true),
                other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
            },
            "--quick" => r.opts.quick = true,
            "--out" => r.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(r)
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    let specs: Vec<&'static workload::Spec> = match &args.workload {
        None => workload::SPECS.iter().collect(),
        Some(name) => vec![workload::spec(name).ok_or_else(|| {
            let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
            format!("unknown workload {name:?}; one of {names:?}")
        })?],
    };
    let expected = std::fs::read_to_string(bench_dir().join("expected.json")).ok();
    let mut outcomes = Vec::with_capacity(specs.len());
    for spec in specs {
        let o = run::run_workload(spec, &args.opts, expected.as_deref())?;
        o.print_table();
        outcomes.push(o);
    }
    if let Some(path) = &args.out {
        write_file(path, &report::result_file(args.opts.seed, &outcomes))?;
    }
    let ok = outcomes.iter().all(report::Outcome::correct);
    println!("{}", report::result_line(&outcomes, args.opts.end_to_end, args.opts.traced));
    Ok(ok)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else { return Err(USAGE.into()) };
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let bounds = read(&bench_dir().join("../BENCHMARK.json"))?;
    let (table, ok) = report::compare(&read(Path::new(a))?, &read(Path::new(b))?, &bounds)?;
    print!("{table}");
    Ok(ok)
}

/// Rewrites `queries/*.txt` from the screening procedure. The files are
/// compiled into the binary, so a rebuild follows.
fn cmd_screen() -> Result<bool, String> {
    let mut done: Vec<&str> = Vec::new();
    for spec in &workload::SPECS {
        if done.contains(&spec.queries_file) {
            continue;
        }
        done.push(spec.queries_file);
        let path = bench_dir().join("queries").join(spec.queries_file);
        write_file(&path, &workload::screen(spec)?)?;
        println!("wrote {}", path.display());
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        Some((cmd, [])) if cmd == "screen" => cmd_screen(),
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
