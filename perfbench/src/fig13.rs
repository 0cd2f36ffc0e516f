//! `fig13-1k` and `fig13-10k`: the Fig. 13 large-scale deployment in the
//! cluster simulator.
//!
//! The untraced run builds and runs the same seeded simulation again and
//! again until the time budget is spent: set-up is `ClusterSim::new`, the
//! run phase is `ClusterSim::run`. Every repetition must reproduce the
//! first one's outputs bit for bit, and every session's arrivals must
//! equal its good, late and dropped requests. The traced run times the
//! planner and control plane on the same inputs, one untraced and one
//! trace-capturing simulation, the trace exports, and the event calendar.

use nexus::workloads::fig13_classes;
use nexus_model::hashfn::Fnv1a;
use nexus_profile::{DeviceType, Micros, GPU_K80};
use nexus_runtime::{
    plan, ClusterSim, ControlPlan, LatencyHistogram, SimConfig, SimResult, SystemConfig,
    TrafficClass,
};
use nexus_scheduler::{
    assign_plans, lower_bound_gpus, optimize_latency_split, squishy_bin_packing, QueryDag,
    QueryStage, SessionSpec,
};

use crate::common::{self, timed, Ctx};
use crate::stats;

/// One Fig. 13 scale point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// GPU cap.
    pub gpus: u32,
    /// Multiplier on the Fig. 13 base rates (1.0 = the 100-GPU deployment).
    pub scale: f64,
    /// Simulated horizon.
    pub horizon: Micros,
    /// Measurement warm-up.
    pub warmup: Micros,
}

/// `fig13-1k`: 1000 GPUs, 10× base rates, long enough for the epoch
/// controller to observe the ramp and re-plan.
pub const FIG13_1K: Point = Point {
    gpus: 1_000,
    scale: 10.0,
    horizon: Micros::from_secs(64),
    warmup: Micros::from_secs(8),
};

/// `fig13-10k`: 10k GPUs, 100× base rates, shorter than the first epoch
/// tick, so no re-plan: the data plane's per-request cost dominates.
pub const FIG13_10K: Point = Point {
    gpus: 10_000,
    scale: 100.0,
    horizon: Micros::from_millis(1_500),
    warmup: Micros::from_millis(500),
};

/// Trace events the traced run captures (the earliest ones are kept) and
/// reads the dispatch numbers from.
const TRACE_CAPACITY: usize = 1_000_000;

/// Split-DP segments, as the control plane plans with.
const SPLIT_SEGMENTS: u32 = 50;

/// The ramp's peak multiplier in [`fig13_classes`].
const RAMP_PEAK: f64 = 1.5;

fn system() -> SystemConfig {
    SystemConfig::nexus()
        .with_epoch(Micros::from_secs(30))
        .with_spread_factor(1.4)
}

fn config(p: Point, seed: u64, trace_capacity: usize) -> SimConfig {
    SimConfig {
        system: system(),
        device: GPU_K80,
        max_gpus: p.gpus,
        seed,
        horizon: p.horizon,
        warmup: p.warmup,
        trace_capacity,
        faults: vec![],
        shards: 1,
        threads: 1,
    }
}

/// Every session's latency histogram merged into one.
fn merged_latencies(r: &SimResult) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for (_, m) in r.metrics.sessions() {
        h.merge(m.latencies());
    }
    h
}

/// FNV-1a over every simulated output a simulator-only change must keep.
fn fingerprint(r: &SimResult) -> u64 {
    let mut f = Fnv1a::new();
    let mut put = |x: u64| f.write_u64(x);
    put(r.events_processed);
    put(r.queries_finished);
    for x in [
        r.query_goodput,
        r.query_bad_rate,
        r.request_bad_rate,
        r.mean_gpus,
        r.gpu_utilization,
    ] {
        put(x.to_bits());
    }
    for (id, m) in r.metrics.sessions() {
        for x in [u64::from(id.0), m.arrived, m.good, m.late, m.dropped] {
            put(x);
        }
        for q in [0.5, 0.99] {
            put(m.latency_quantile(q).map_or(u64::MAX, |l| l.as_micros()));
        }
    }
    for b in r.metrics.timeline() {
        for x in [b.arrivals, b.good, b.bad, u64::from(b.gpus_allocated)] {
            put(x);
        }
    }
    f.finish()
}

/// Deployment swaps that changed the allocation size, read from the
/// run's one-second timeline (a swap to the same size does not show).
fn replans(r: &SimResult) -> usize {
    r.metrics
        .timeline()
        .windows(2)
        .filter(|w| w[0].gpus_allocated != w[1].gpus_allocated)
        .count()
}

/// Per session: arrived = good + late + dropped.
fn check_conservation(ctx: &mut Ctx, r: &SimResult, what: &str) {
    for (id, m) in r.metrics.sessions() {
        ctx.report
            .check(m.arrived == m.good + m.late + m.dropped, || {
                format!(
                    "{what}: session {}: arrived {} != good {} + late {} + dropped {}",
                    id.0, m.arrived, m.good, m.late, m.dropped
                )
            });
    }
}

/// Runs one Fig. 13 workload.
pub fn run(ctx: &mut Ctx, p: Point) {
    let classes = fig13_classes(p.horizon, p.scale);
    if ctx.traced() {
        traced(ctx, p, &classes);
    } else {
        untraced(ctx, p, &classes);
    }
}

fn untraced(ctx: &mut Ctx, p: Point, classes: &[TrafficClass]) {
    let reps = common::repeat(
        ctx,
        2,
        |ctx| {
            let (sim, setup) = timed(|| ClusterSim::new(config(p, ctx.seed, 0), classes.to_vec()));
            let (r, run) = timed(|| sim.run());
            check_conservation(ctx, &r, "repetition");
            (r, setup, run)
        },
        fingerprint,
    );
    let r = &reps.first;
    let run_s = stats::fastest(&reps.runs);
    let report = &mut ctx.report;
    report.set("setup_s", stats::median(&reps.setups));
    report.set("sim_s_per_wall_s", p.horizon.as_secs_f64() / run_s);
    report.set("goodput_qps", r.query_goodput);
    report.set("good_frac", 1.0 - r.query_bad_rate);
    report.set("gpus_mean", r.mean_gpus);
    common::set_latency(
        report,
        "modelled, all sessions merged",
        common::histogram_summary(&merged_latencies(r)),
    );
    report.note(format!(
        "{} repetitions of {:.2} sim-s: median set-up {:.3} s, fastest run {:.3} s \
         (median {:.3} s), {} events, {} queries finished, bad rate {:.4}%",
        reps.runs.len(),
        p.horizon.as_secs_f64(),
        stats::median(&reps.setups),
        run_s,
        stats::median(&reps.runs),
        r.events_processed,
        r.queries_finished,
        r.query_bad_rate * 100.0
    ));
}

/// The scheduler-facing DAG of a class, built from the public profile
/// catalog the way the control plane builds it.
fn class_dag(class: &TrafficClass, sys: &SystemConfig, device: &DeviceType) -> QueryDag {
    let stages = class
        .app
        .stages
        .iter()
        .map(|stage| QueryStage {
            name: stage.model.clone(),
            profile: nexus_profile::by_name(&stage.model)
                .expect("Fig. 13 models are in the catalog")
                .profile_on(device)
                .effective(sys.overlap, sys.cpu_workers),
            children: stage.children.iter().map(|&(c, g)| (c, g.mean())).collect(),
        })
        .collect();
    QueryDag::new(stages)
}

fn specs(plan: &ControlPlan) -> Vec<SessionSpec> {
    plan.sessions
        .iter()
        .map(|s| SessionSpec::new(s.id, s.exec_profile.clone(), s.budget, s.est_rate))
        .collect()
}

/// Times the planner's phases and the control plane on `classes`, and
/// reports the plan's shape. Shared with the serving workload, whose
/// deployment is planned the same way.
pub(crate) fn plan_layers(
    ctx: &mut Ctx,
    classes: &[TrafficClass],
    sys: &SystemConfig,
    device: &DeviceType,
    gpus: u32,
) {
    let tracer = ctx.tracer.clone();
    let (_, split_s) = timed(|| {
        tracer.scope("scheduler.split_dp", || {
            for c in classes {
                let dag = class_dag(c, sys, device);
                std::hint::black_box(optimize_latency_split(
                    &dag,
                    c.app.slo,
                    c.rate.max(1.0),
                    SPLIT_SEGMENTS,
                ));
            }
        })
    });
    let (base, plan_s) = timed(|| {
        tracer.scope("control.plan", || {
            plan(classes, sys, device, gpus, None).expect("workload models are known")
        })
    });
    let peak_rates: Vec<f64> = classes.iter().map(|c| c.rate * RAMP_PEAK).collect();
    let peak = tracer.scope("control.plan_peak", || {
        plan(classes, sys, device, gpus, Some(&peak_rates)).expect("workload models are known")
    });
    let specs = specs(&base);
    let (alloc, squishy_s) = timed(|| {
        tracer.scope("scheduler.squishy", || {
            squishy_bin_packing(&specs, device.memory_bytes)
        })
    });
    let (_, assign_s) = timed(|| {
        tracer.scope("scheduler.assign_plans", || {
            std::hint::black_box(assign_plans(
                &base.pools[0].allocation.plans,
                &peak.pools[0].allocation.plans,
            ))
        })
    });
    let lower = lower_bound_gpus(&specs);
    let fanout: Vec<usize> = base.routes.iter().map(Vec::len).collect();
    let report = &mut ctx.report;
    report.set("scheduler.split_dp_ms", split_s * 1e3);
    report.set("scheduler.squishy_ms", squishy_s * 1e3);
    report.set("scheduler.assign_plans_ms", assign_s * 1e3);
    report.set("scheduler.gpus", alloc.gpu_count() as f64);
    report.set(
        "scheduler.gpus_over_lower_bound",
        alloc.gpu_count() as f64 / lower.max(1e-9),
    );
    report.set("control.plan_ms", plan_s * 1e3);
    report.set("control.sessions", base.sessions.len() as f64);
    report.set(
        "control.route_fanout_max",
        fanout.iter().copied().max().unwrap_or(0) as f64,
    );
    report.set(
        "control.route_fanout_mean",
        fanout.iter().sum::<usize>() as f64 / fanout.len().max(1) as f64,
    );
    report.note(format!(
        "plan: {} sessions on {} GPUs (uncapped squishy packing {}, lower bound {:.1})",
        base.sessions.len(),
        base.gpu_count(),
        alloc.gpu_count(),
        lower
    ));
}

fn traced(ctx: &mut Ctx, p: Point, classes: &[TrafficClass]) {
    let tracer = ctx.tracer.clone();
    tracer.scope("bench.fig13", || {
        plan_layers(ctx, classes, &system(), &GPU_K80, p.gpus);

        // Untraced simulations: the cluster layer's own cost. Two of them,
        // before and after the traced one, so neither side of the tracing
        // overhead runs on a colder allocator.
        let plain_run = |name: &str| {
            let (sim, new_s) = timed(|| {
                tracer.scope("cluster.new", || {
                    ClusterSim::new(config(p, ctx.seed, 0), classes.to_vec())
                })
            });
            let (r, run_s) = timed(|| tracer.scope(name, || sim.run()));
            (r, new_s, run_s)
        };
        let (plain, new_s, first_s) = plain_run("cluster.run");
        let plain_fp = fingerprint(&plain);
        let events = plain.events_processed as f64;
        let replans = replans(&plain);
        let queries = plain.queries_finished.max(1) as f64;
        drop(plain);

        // The same simulation capturing its execution trace.
        let sim = tracer.scope("cluster.new_traced", || {
            ClusterSim::new(config(p, ctx.seed, TRACE_CAPACITY), classes.to_vec())
        });
        let (r, traced_s) = timed(|| tracer.scope("cluster.run_traced", || sim.run()));
        let (_, _, second_s) = plain_run("cluster.run_again");
        let run_s = 0.5 * (first_s + second_s);

        let report = &mut ctx.report;
        report.set("cluster.new_ms", new_s * 1e3);
        report.set("cluster.run_s", run_s);
        report.set("cluster.events", events);
        report.set("cluster.events_per_query", events / queries);
        report.set("cluster.ns_per_event", run_s * 1e9 / events.max(1.0));
        report.set("cluster.replans", replans as f64);
        report.set("obs.trace_overhead", traced_s / run_s);
        report.note(format!(
            "untraced runs {first_s:.3} s and {second_s:.3} s, traced run {traced_s:.3} s; \
             {replans} re-plans changed the allocation size"
        ));
        check_conservation(ctx, &r, "traced run");
        let fp = fingerprint(&r);
        ctx.report.check(fp == plain_fp, || {
            format!("tracing changed the simulated outputs: {fp:016x} vs {plain_fp:016x}")
        });
        export_layers(ctx, &r);

        let pending = r.gpu_occupancy.len() * 2 + classes.len();
        let ns = tracer.scope("simgpu.calendar", || {
            common::calendar_ns_per_op(pending, Micros::from_millis(20), ctx.seed)
        });
        ctx.report.set("simgpu.calendar_ns_per_op", ns);
        ctx.report.note(format!(
            "calendar hold model at {pending} pending events: {ns:.1} ns/op"
        ));
    });
    ctx.finish_trace();
}

/// The trace exports of `nexus-obs` and the dispatch numbers the trace
/// carries.
fn export_layers(ctx: &mut Ctx, r: &SimResult) {
    let tracer = ctx.tracer.clone();
    common::trace_layers(ctx, r.trace.as_ref().expect("traced run captured a trace"));
    let (_, prom_s) = timed(|| tracer.scope("obs.prometheus", || nexus_obs::prometheus::render(r)));
    let (_, summary_s) = timed(|| tracer.scope("obs.summary", || nexus_obs::summary::render(r)));
    ctx.report.set("obs.prometheus_ms", prom_s * 1e3);
    ctx.report.set("obs.summary_ms", summary_s * 1e3);
}
