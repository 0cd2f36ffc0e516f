//! Replay determinism and the retained `SimConfig::{shards, threads}`
//! fields: the event loop pops in a global `(time, seq)` order
//! (DESIGN.md §13), so running the same configuration again must produce
//! an identical result — event counts, metrics, bad-rate bit patterns,
//! even the execution trace. The `shards` and `threads` fields no longer
//! affect the simulation (they remain only so existing struct literals
//! compile), so every run here also varies them and requires the result
//! not to move.
//!
//! These tests compare the `Debug` rendering of the full [`SimResult`]:
//! Rust formats `f64` as the shortest round-trippable string, so equal
//! strings mean equal bit patterns for every float in the result, and the
//! rendering covers the per-session/timeline metrics and captured trace
//! wholesale. The network-chaos workload has its own replay check next to
//! its conservation gate in `front_door_chaos.rs`.

use nexus::prelude::*;
use nexus_runtime::{FaultKind, FaultSpec, SimConfig};
use nexus_workload::apps;

/// Renders the run at `(shards, threads) = (1, 1)` and asserts that every
/// other `(shards, threads)` in `knobs` — each one a fresh replay of the
/// same configuration — renders identically.
fn identical_across(
    what: &str,
    knobs: &[(usize, usize)],
    sim: impl Fn(usize, usize) -> SimResult,
) -> String {
    let reference = format!("{:?}", sim(1, 1));
    for &(shards, threads) in knobs {
        assert_eq!(
            format!("{:?}", sim(shards, threads)),
            reference,
            "{what} diverged at shards={shards} threads={threads}"
        );
    }
    reference
}

/// A small Fig. 13 deployment run (all seven applications, surge included).
fn fig13(shards: usize, threads: usize) -> SimResult {
    let horizon = Micros::from_secs(6);
    ClusterSim::new(
        SimConfig {
            system: SystemConfig::nexus()
                .with_epoch(Micros::from_secs(2))
                .with_spread_factor(1.4),
            device: GPU_K80,
            max_gpus: 8,
            seed: 42,
            horizon,
            warmup: Micros::from_secs(2),
            trace_capacity: 0,
            faults: vec![],
            shards,
            threads,
        },
        nexus::workloads::fig13_classes(horizon, 0.08),
    )
    .run()
}

#[test]
fn fig13_results_are_identical_at_any_shard_count() {
    let reference = identical_across("fig13 run", &[(1, 1), (4, 1), (7, 1)], fig13);
    // Sanity: the run actually did work.
    assert!(
        !reference.contains("events_processed: 0,"),
        "reference run processed no events"
    );
}

#[test]
fn fig13_results_are_identical_at_any_thread_count() {
    let reference = identical_across("fig13 run", &[(1, 2), (4, 4)], fig13);
    assert!(
        !reference.contains("events_processed: 0,"),
        "reference run processed no events"
    );
}

/// The crash at 3 s and rejoin at 5 s of slot `slot`, as a fault schedule.
fn crash_and_rejoin(slot: usize) -> Vec<FaultSpec> {
    vec![
        FaultSpec {
            at: Micros::from_secs(3),
            slot,
            kind: FaultKind::Crash,
        },
        FaultSpec {
            at: Micros::from_secs(5),
            slot,
            kind: FaultKind::Rejoin,
        },
    ]
}

/// Fault injection plus execution tracing through `ClusterSim` directly:
/// crash/rejoin events and per-batch trace timestamps exercise the paths
/// `run_once` leaves dormant.
fn faulted_traced(shards: usize, threads: usize) -> SimResult {
    ClusterSim::new(
        SimConfig {
            system: SystemConfig::nexus().with_epoch(Micros::from_secs(2)),
            device: GPU_GTX1080TI,
            max_gpus: 6,
            seed: 7,
            horizon: Micros::from_secs(8),
            warmup: Micros::from_secs(2),
            trace_capacity: 200_000,
            faults: crash_and_rejoin(0),
            shards,
            threads,
        },
        vec![TrafficClass::new(
            apps::traffic(),
            ArrivalKind::Poisson,
            150.0,
        )],
    )
    .run()
}

#[test]
fn faulted_traced_run_is_identical_at_any_shard_count() {
    let reference = identical_across(
        "faulted+traced run",
        &[(1, 1), (2, 1), (3, 1)],
        faulted_traced,
    );
    assert!(
        reference.contains("Batch {"),
        "reference run captured no trace events"
    );
}

#[test]
fn faulted_traced_run_is_identical_at_any_thread_count() {
    let reference = identical_across(
        "faulted+traced run",
        &[(2, 2), (3, 4), (7, 2)],
        faulted_traced,
    );
    assert!(
        reference.contains("Batch {"),
        "reference run captured no trace events"
    );
}

/// A heterogeneous fleet (1080Ti + K80 pools) with faults and tracing
/// enabled: cross-pool stage handoffs and globally indexed backends.
#[test]
fn mixed_pool_run_is_identical_at_any_shard_and_thread_count() {
    let reference = identical_across("mixed-pool run", &[(1, 1), (4, 4)], |shards, threads| {
        ClusterSim::try_new_pooled(
            SimConfig {
                system: SystemConfig::nexus().with_epoch(Micros::from_secs(2)),
                device: GPU_GTX1080TI,
                max_gpus: 0, // derived from the pools
                seed: 11,
                horizon: Micros::from_secs(8),
                warmup: Micros::from_secs(2),
                trace_capacity: 200_000,
                faults: crash_and_rejoin(1),
                shards,
                threads,
            },
            vec![
                DevicePool {
                    device: GPU_GTX1080TI,
                    gpus: 5,
                },
                DevicePool {
                    device: GPU_K80,
                    gpus: 4,
                },
            ],
            vec![
                TrafficClass::new(apps::game(), ArrivalKind::Uniform, 400.0),
                TrafficClass::new(apps::traffic(), ArrivalKind::Poisson, 60.0),
                TrafficClass::new(apps::dance(), ArrivalKind::Uniform, 15.0),
            ],
        )
        .expect("pooled plan")
        .run()
    });
    assert!(
        reference.contains("Batch {"),
        "reference run captured no trace events"
    );
    // Both pools must actually deploy backends, or the cross-pool paths
    // under test were never exercised.
    assert!(
        reference.contains("PoolStats { pool: 1"),
        "second pool missing from pool_stats"
    );
}
