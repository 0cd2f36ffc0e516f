//! Command-line front-door soak: spawn a frontend and backends on
//! localhost, drive concurrent traffic, optionally kill a backend and
//! push a routing epoch mid-run, and judge the run by the chaos gate.
//!
//! Usage:
//!   cargo run --release -p nexus-serve --bin nexus-serve --
//!       [--backends N] [--clients N] [--requests N] [--sessions N]
//!       [--budget-ms N] [--pacing-ms N] [--kill IDX | --no-kill]
//!       [--no-epoch-push]
//!
//! Exits 0 when the gate passes, 1 when any clause is violated. This is
//! the exact harness the CI chaos step runs — see `ci.sh`.

use std::process::exit;
use std::time::Duration;

use nexus_profile::Micros;
use nexus_serve::frontend::cause_for_index;
use nexus_serve::{run_soak, SoakConfig};

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    exit(2);
}

fn parse_u64(it: &mut impl Iterator<Item = String>, flag: &str) -> u64 {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| fail(format!("{flag} needs a number")))
}

fn main() {
    let mut cfg = SoakConfig {
        backends: 4,
        clients: 200,
        requests_per_client: 25,
        sessions: 2,
        budget: Micros::from_millis(250),
        pacing: Duration::from_millis(5),
        kill_backend: Some(0),
        push_second_epoch: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--backends" => cfg.backends = parse_u64(&mut it, "--backends") as usize,
            "--clients" => cfg.clients = parse_u64(&mut it, "--clients") as usize,
            "--requests" => cfg.requests_per_client = parse_u64(&mut it, "--requests") as usize,
            "--sessions" => cfg.sessions = parse_u64(&mut it, "--sessions") as u32,
            "--budget-ms" => cfg.budget = Micros::from_millis(parse_u64(&mut it, "--budget-ms")),
            "--pacing-ms" => cfg.pacing = Duration::from_millis(parse_u64(&mut it, "--pacing-ms")),
            "--kill" => cfg.kill_backend = Some(parse_u64(&mut it, "--kill") as usize),
            "--no-kill" => cfg.kill_backend = None,
            "--no-epoch-push" => cfg.push_second_epoch = false,
            other => fail(format!("unknown argument {other:?}")),
        }
    }
    if let Some(k) = cfg.kill_backend {
        if k >= cfg.backends {
            fail(format!(
                "--kill {k} out of range for {} backends",
                cfg.backends
            ));
        }
        if cfg.backends < 2 {
            fail("killing a backend needs at least 2 so traffic can fail over");
        }
    }

    println!(
        "front-door soak: {} backends, {} clients x {} requests, {} session(s), \
         budget {} ms{}",
        cfg.backends,
        cfg.clients,
        cfg.requests_per_client,
        cfg.sessions,
        cfg.budget.as_millis_f64(),
        match cfg.kill_backend {
            Some(k) => format!(", killing backend {k} mid-run"),
            None => String::new(),
        }
    );

    let report = match run_soak(&cfg) {
        Ok(r) => r,
        Err(e) => fail(e),
    };

    let s = &report.stats;
    println!();
    println!("submitted         : {}", s.submitted);
    println!(
        "completed         : {} ({:.1}%)",
        s.completed,
        100.0 * s.completed as f64 / s.submitted.max(1) as f64
    );
    println!("retried           : {}", s.retried);
    for (i, &n) in s.drops.iter().enumerate() {
        if n > 0 {
            println!("dropped {:>17}: {n}", format!("{:?}", cause_for_index(i)));
        }
    }
    println!(
        "epochs            : pushed {:?}, applied {:?}",
        report.pushed_epochs, report.applied_epochs
    );
    println!(
        "probes            : {} sent, {} missed",
        s.probes_sent, s.probe_misses
    );
    println!("dispatch connects : {}", s.dispatch_connects);
    println!(
        "threads joined    : {} frontend + {} backend handlers",
        report.frontend_handlers_joined, report.backend_handlers_joined
    );
    println!("budget violations : {}", s.budget_violations);

    match report.violation() {
        None => {
            println!("\nPASS: every request accounted, epochs intact, clean shutdown");
        }
        Some(v) => {
            println!("\nFAIL: {v}");
            exit(1);
        }
    }
}
