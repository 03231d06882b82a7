//! The repository benchmark. One command runs one seeded workload, checks
//! its outputs, and prints every metric with its unit; the last line of
//! standard output is the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload score_shared_template --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
//! runs the same schedule traced and reports the per-layer metrics. The
//! exit code is non-zero when any output is wrong or a run cannot finish.

mod config;
mod gen;
mod host;
mod pipeline;
mod replay;
mod report;
mod serving;
mod stats;

use report::{Outcome, END_TO_END, PER_LAYER};

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["score_shared_template", "prune_and_tune"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run [`pipeline::memory_probe`] instead of a workload.
    memory_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut memory_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            pipeline::MEMORY_PROBE_FLAG => memory_probe = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        memory_probe,
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds >= 1.0) {
        return Err(format!("--seconds {} must be at least 1", args.seconds));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.memory_probe {
        if let Err(e) = pipeline::memory_probe(args.seed) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    println!(
        "== perfbench {} seed={} seconds={} trace={} ==",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("{}", host::fingerprint());
    println!("{}", config::describe());
    let mut out: Outcome = match args.workload.as_str() {
        "score_shared_template" => serving::run(args.seed, args.seconds, args.trace),
        _ => pipeline::run(args.seed, args.seconds, args.trace),
    };
    match host::peak_rss_mb() {
        Some(mb) => {
            out.set("workload.peak_rss_end_mb", mb);
            out.metrics.entry("peak_rss_mb").or_insert(mb);
        }
        None => out.problems.push("peak RSS unavailable (no /proc)".into()),
    }
    for p in &out.problems {
        println!("PROBLEM: {p}");
    }
    println!(
        "operations: {} attempted, {} failed; outputs {}",
        out.attempted,
        out.failed,
        if out.correct() { "correct" } else { "WRONG" }
    );
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in names {
        if let Some(v) = out.metrics.get(name) {
            println!("  {name:<36} {v:>14.6} {unit}");
        }
    }
    match out.result_line(names) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if !out.correct() {
        std::process::exit(1);
    }
}
