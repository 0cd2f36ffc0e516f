//! `node-mux`: §6.3 single-GPU multiplexing in the node simulator.
//!
//! Five Inception sessions with a 100 ms SLO share one GPU under Nexus'
//! coordinated round-robin with early drop and batch-plan ladders, offered
//! uniform arrivals just below the committed Fig. 14 goodput for k = 5.
//! The seed picks the load inside a narrow band (96.5–99.5%), so runs on
//! different seeds model slightly different points near saturation.
//!
//! Set-up is the shared-ladder plan plus node configuration; the run phase
//! is `simulate_node`, repeated until the time budget is spent. The node
//! result carries no latency histogram, so modelled latencies come from
//! one extra trace-capturing simulation, which must match the untraced
//! outputs exactly.

use nexus_model::hashfn::Fnv1a;
use nexus_profile::catalog::INCEPTION3;
use nexus_profile::Micros;
use nexus_runtime::singlenode::plan_shared_ladder;
use nexus_runtime::{simulate_node, DropPolicy, NodeConfig, NodeOutcome, NodeSession, TraceEvent};
use nexus_simgpu::InterferenceModel;
use nexus_workload::{rng_for, ArrivalKind};
use rand::Rng;

use crate::common::{self, timed, Ctx};
use crate::stats;

/// Sessions multiplexed on the GPU.
const SESSIONS: usize = 5;

/// Committed Fig. 14(a) Nexus goodput at k = 5 (`bench_results/fig14.txt`).
const COMMITTED_GOODPUT: f64 = 574.0;

/// Offered load as a share of [`COMMITTED_GOODPUT`]: 98% ± 1.5%, by seed.
fn load_share(seed: u64) -> f64 {
    0.965 + 0.03 * rng_for(seed, 0x10ad).gen::<f64>()
}

const HORIZON: Micros = Micros::from_secs(60);
const WARMUP: Micros = Micros::from_secs(5);

/// Plans per timed set-up sample (one plan takes microseconds).
const PLANS_PER_SAMPLE: u32 = 200;

fn sessions(seed: u64) -> Vec<NodeSession> {
    let profile = INCEPTION3.profile_1080ti().effective(true, 4);
    let rate = COMMITTED_GOODPUT * load_share(seed) / SESSIONS as f64;
    (0..SESSIONS)
        .map(|_| NodeSession {
            profile: profile.clone(),
            slo: Micros::from_millis(100),
            rate,
            arrival: ArrivalKind::Uniform,
        })
        .collect()
}

fn config(seed: u64, trace_capacity: usize) -> NodeConfig {
    NodeConfig {
        coordinated: true,
        drop_policy: DropPolicy::Early,
        interference: InterferenceModel::default(),
        gpu_memory: 11 << 30,
        seed,
        horizon: HORIZON,
        warmup: WARMUP,
        strict_batches: false,
        ladder: true,
        trace_capacity,
    }
}

fn fingerprint(o: &NodeOutcome) -> u64 {
    let mut f = Fnv1a::new();
    let mut put = |x: u64| f.write_u64(x);
    for x in [o.bad_rate, o.goodput, o.utilization] {
        put(x.to_bits());
    }
    for (s, &loaded) in o.sessions.iter().zip(&o.loaded) {
        for x in [s.arrived, s.good, s.late, s.dropped, u64::from(loaded)] {
            put(x);
        }
    }
    f.finish()
}

fn check_conservation(ctx: &mut Ctx, o: &NodeOutcome, what: &str) {
    for (i, s) in o.sessions.iter().enumerate() {
        ctx.report
            .check(s.arrived == s.good + s.late + s.dropped, || {
                format!(
                    "{what}: session {i}: arrived {} != good {} + late {} + dropped {}",
                    s.arrived, s.good, s.late, s.dropped
                )
            });
    }
}

/// One set-up: the inputs turned into node sessions, configuration and
/// the shared ladder plan. Returns seconds per set-up.
fn setup_once(seed: u64) -> f64 {
    let (_, s) = timed(|| {
        for _ in 0..PLANS_PER_SAMPLE {
            let sessions = sessions(seed);
            std::hint::black_box((config(seed, 0), plan_shared_ladder(&sessions)));
        }
    });
    s / f64::from(PLANS_PER_SAMPLE)
}

/// Latencies (ms) of requests arriving in the measurement window, from
/// the completion events of a captured trace.
fn window_latencies(events: &[TraceEvent]) -> Vec<f64> {
    events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Completion { t, latency, .. } if t.saturating_sub(latency) >= WARMUP => {
                Some(latency.as_micros() as f64 / 1e3)
            }
            _ => None,
        })
        .collect()
}

/// Trace capacity that holds every event of one node run.
fn trace_capacity() -> usize {
    (COMMITTED_GOODPUT * HORIZON.as_secs_f64() * 4.0) as usize
}

/// Runs `node-mux`.
pub fn run(ctx: &mut Ctx) {
    if ctx.traced() {
        traced(ctx);
    } else {
        untraced(ctx);
    }
}

fn untraced(ctx: &mut Ctx) {
    let seed = ctx.seed;
    let sessions = sessions(seed);
    let reps = common::repeat(
        ctx,
        3,
        |ctx| {
            let setup = setup_once(seed);
            let (o, run) = timed(|| simulate_node(&config(seed, 0), &sessions));
            check_conservation(ctx, &o, "repetition");
            (o, setup, run)
        },
        fingerprint,
    );
    let (fp, o) = (reps.fingerprint, &reps.first);

    // Modelled latencies from one trace-capturing run of the same inputs.
    let traced = simulate_node(&config(seed, trace_capacity()), &sessions);
    let trace = traced.trace.as_ref().expect("trace captured");
    ctx.report.check(trace.truncated == 0, || {
        format!("latency trace truncated by {} events", trace.truncated)
    });
    ctx.report.check(fingerprint(&traced) == fp, || {
        "tracing changed the node simulation's outputs".into()
    });
    let latencies = window_latencies(trace.events());

    let run_s = stats::fastest(&reps.runs);
    let report = &mut ctx.report;
    report.set("setup_s", stats::median(&reps.setups));
    report.set("sim_s_per_wall_s", HORIZON.as_secs_f64() / run_s);
    report.set("goodput_qps", o.goodput);
    report.set("good_frac", 1.0 - o.bad_rate);
    report.set("gpus_mean", 1.0);
    common::set_latency(
        report,
        "modelled, window completions of all sessions",
        stats::summarize(&latencies),
    );
    report.note(format!(
        "{} repetitions of {:.0} sim-s at {:.2}% of the committed k=5 goodput \
         ({:.1} q/s offered): fastest run {:.4} s (median {:.4} s), utilization {:.4}, bad rate {:.4}%",
        reps.runs.len(),
        HORIZON.as_secs_f64(),
        load_share(seed) * 100.0,
        COMMITTED_GOODPUT * load_share(seed),
        run_s,
        stats::median(&reps.runs),
        o.utilization,
        o.bad_rate * 100.0
    ));
}

fn traced(ctx: &mut Ctx) {
    let tracer = ctx.tracer.clone();
    let seed = ctx.seed;
    tracer.scope("bench.node_mux", || {
        let sessions = sessions(seed);
        let (_, plan_s) = timed(|| {
            tracer.scope("singlenode.plan", || {
                std::hint::black_box(plan_shared_ladder(&sessions))
            })
        });
        ctx.report.set("singlenode.plan_ms", plan_s * 1e3);

        let (plain, run_s) = timed(|| {
            tracer.scope("singlenode.run", || {
                simulate_node(&config(seed, 0), &sessions)
            })
        });
        let offered: f64 = sessions.iter().map(|s| s.rate).sum::<f64>() * HORIZON.as_secs_f64();
        ctx.report.set("singlenode.run_s", run_s);
        ctx.report
            .set("singlenode.ns_per_request", run_s * 1e9 / offered);

        let (o, traced_s) = timed(|| {
            tracer.scope("singlenode.run_traced", || {
                simulate_node(&config(seed, trace_capacity()), &sessions)
            })
        });
        ctx.report.set("obs.trace_overhead", traced_s / run_s);
        check_conservation(ctx, &o, "traced run");
        ctx.report
            .check(fingerprint(&o) == fingerprint(&plain), || {
                "tracing changed the node simulation's outputs".into()
            });
        let trace = o.trace.as_ref().expect("trace captured");
        common::trace_layers(ctx, trace);

        // One wake and at most one in-flight completion per session, plus
        // one pending arrival each.
        let pending = SESSIONS * 3;
        let ns = tracer.scope("simgpu.calendar", || {
            common::calendar_ns_per_op(pending, Micros::from_millis(2), seed)
        });
        ctx.report.set("simgpu.calendar_ns_per_op", ns);
        ctx.report.note(format!(
            "node run {run_s:.4} s untraced, {traced_s:.4} s traced; \
             calendar hold model at {pending} pending events: {ns:.1} ns/op"
        ));
    });
    ctx.finish_trace();
}
