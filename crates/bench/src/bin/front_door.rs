//! Front-door chaos bench: drive the real networked serving path
//! (`nexus-serve` over localhost TCP) with concurrent clients, kill a
//! backend mid-run, push a routing epoch mid-traffic, and report
//! goodput, retry behaviour, and the accounting gate.
//!
//! This is the live-socket counterpart of `fault_recovery` (which
//! exercises the same failure machinery in simulation): same contract —
//! every request accounted, epochs applied in order, retries inside the
//! deadline budget, clean shutdown — judged against real kernel sockets
//! and real threads.
//!
//! Usage: `cargo run --release -p bench --bin front_door
//!         [--quick] [--out FILE]`
//!
//! Writes `bench_results/front_door.json` (override with `--out`).

use std::fmt::Write as _;
use std::time::Duration;

use bench::Args;
use nexus_profile::Micros;
use nexus_serve::frontend::cause_for_index;
use nexus_serve::{run_soak, SoakConfig};

fn main() {
    let args = Args::parse(0);
    let clients = if args.quick { 40 } else { 100 };

    let cfg = SoakConfig {
        backends: 4,
        clients,
        requests_per_client: 30,
        sessions: 2,
        budget: Micros::from_millis(250),
        pacing: Duration::from_millis(5),
        kill_backend: Some(0),
        push_second_epoch: true,
    };
    println!(
        "front-door chaos: {} backends, {} clients x {} requests, kill backend 0 mid-run",
        cfg.backends, cfg.clients, cfg.requests_per_client
    );

    let report = run_soak(&cfg).expect("soak infrastructure");
    let s = &report.stats;
    let goodput = s.completed as f64 / s.submitted.max(1) as f64;

    println!("submitted  : {}", s.submitted);
    println!("completed  : {} ({:.1}%)", s.completed, goodput * 100.0);
    println!("retried    : {}", s.retried);
    println!(
        "connects   : {} dispatch connections opened",
        s.dispatch_connects
    );
    println!(
        "epochs     : pushed {:?}, applied {:?}",
        report.pushed_epochs, report.applied_epochs
    );
    for (i, &n) in s.drops.iter().enumerate() {
        if n > 0 {
            println!("dropped    : {n} x {:?}", cause_for_index(i));
        }
    }
    let pass = report.passed() && goodput >= 0.9;
    println!(
        "gate       : {}",
        match report.violation() {
            None if goodput >= 0.9 => "PASS".into(),
            None => format!("FAIL (goodput {:.1}% < 90%)", goodput * 100.0),
            Some(v) => format!("FAIL ({v})"),
        }
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"clients\": {},", cfg.clients);
    let _ = writeln!(json, "  \"backends\": {},", cfg.backends);
    let _ = writeln!(json, "  \"submitted\": {},", s.submitted);
    let _ = writeln!(json, "  \"completed\": {},", s.completed);
    let _ = writeln!(json, "  \"retried\": {},", s.retried);
    let _ = writeln!(json, "  \"dispatch_connects\": {},", s.dispatch_connects);
    let _ = writeln!(json, "  \"goodput\": {goodput:.4},");
    let mut drops = String::new();
    for (i, &n) in s.drops.iter().enumerate() {
        if n > 0 {
            if !drops.is_empty() {
                drops.push_str(", ");
            }
            let _ = write!(drops, "\"{:?}\": {n}", cause_for_index(i));
        }
    }
    let _ = writeln!(json, "  \"drops\": {{{drops}}},");
    let _ = writeln!(json, "  \"epochs_applied\": {:?},", report.applied_epochs);
    let _ = writeln!(json, "  \"budget_violations\": {},", s.budget_violations);
    let _ = writeln!(json, "  \"pass\": {pass}");
    json.push_str("}\n");

    let path = args
        .out
        .clone()
        .unwrap_or_else(|| "bench_results/front_door.json".into());
    std::fs::create_dir_all(path.parent().unwrap_or(std::path::Path::new(".")))
        .expect("output dir");
    std::fs::write(&path, json).expect("writable output path");
    println!("(wrote {})", path.display());

    assert!(pass, "front-door chaos gate failed");
}
