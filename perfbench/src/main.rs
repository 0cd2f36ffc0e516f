//! The repository benchmark: one command that runs a named workload from a
//! seed, checks its outputs, and prints its metrics.
//!
//! ```text
//! perfbench --workload <fig13-1k|fig13-10k|node-mux|serve-open>
//!           --seed <n> --seconds <s> --trace <0|1> [--out-dir DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace
//! 1` makes the traced run that reports the per-layer metrics and writes
//! its spans under `--out-dir` (default `.perfbench_out`). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. `BENCHMARK.json` at the repository root names every
//! workload and metric; `perfbench/README.md` explains them.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use perfbench::common::{self, Ctx};
use perfbench::report::Report;
use perfbench::spans::Tracer;
use perfbench::{fig13, node, serve, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = PathBuf::from(".perfbench_out");
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        out_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        tracer: Arc::new(Tracer::new(args.trace)),
        report: Report::new(args.trace),
        out_dir: args.out_dir,
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (nproc {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    match args.workload.as_str() {
        "fig13-1k" => fig13::run(&mut ctx, fig13::FIG13_1K),
        "fig13-10k" => fig13::run(&mut ctx, fig13::FIG13_10K),
        "node-mux" => node::run(&mut ctx),
        "serve-open" => serve::run(&mut ctx),
        _ => unreachable!("workload names are validated"),
    }
    match common::peak_rss_mb() {
        Some(mb) if ctx.traced() => ctx.report.note(format!("peak RSS {mb:.1} MB")),
        Some(mb) => ctx.report.set("peak_rss_mb", mb),
        None => ctx.report.check(false, || "VmHWM unreadable".into()),
    }
    print!("{}", ctx.report.render());
    ExitCode::SUCCESS
}
