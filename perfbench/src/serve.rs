//! `serve-open`: the networked front door under an open-loop client.
//!
//! An in-process `nexus-serve` frontend routes to `InstantModel` backends
//! over localhost TCP. SLOs and the epoch-1 routing table come from
//! `NexusCluster::serve_specs()` on a small Fig. 13 deployment. Set-up is
//! spawning the backends and the frontend plus pushing epoch 1; the run
//! phase is a seeded Poisson schedule of submits at the nominal rate,
//! pipelined over one connection by a writer (this thread) and answered
//! to a reader thread. Latency is timed from each request's due time, so
//! a stalled generator shows up in the latency of every request it
//! delays. No simulator code runs after planning.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use nexus::workloads::fig13_classes;
use nexus::NexusCluster;
use nexus_profile::{Micros, GPU_K80};
use nexus_runtime::{SystemConfig, TrafficClass};
use nexus_serve::proto::{self, read_frame, write_frame};
use nexus_serve::{
    spawn_backend, spawn_frontend, AdmissionGate, BackendHandle, BackendRegistry, FrontendConfig,
    FrontendHandle, InstantModel, Msg, RegistryConfig, RouteTable, SessionSlo, Verdict,
};
use nexus_workload::rng_for;
use rand::rngs::StdRng;
use rand::Rng;

use crate::common::Ctx;
use crate::report::DROP_CAUSES;
use crate::spans::Tracer;
use crate::stats;

/// GPUs of the planned deployment (one backend each).
const GPUS: u32 = 16;
/// The deployment's traffic: Fig. 13 base rates scaled down to fit.
const RATE_SCALE: f64 = 0.1;
/// Nominal open-loop rate, requests per second.
const NOMINAL_QPS: f64 = 200.0;
/// Set-ups timed per run; the last one serves the run. The frontend's
/// accept thread polls every 2 ms, so an epoch push that races its
/// start-up is accepted at once or only after a full poll: a share of
/// set-ups, from 1% to over half depending on thread scheduling, lands in
/// a slow cluster 1.5–2 ms above the rest, often in bursts. A median
/// jumps between the clusters or hides the slow one, so `setup_s` is the
/// mean, which keeps the poll's cost in.
const SETUPS: usize = 200;
/// Rates the traced run climbs to find the highest sustainable one,
/// starting well below the nominal rate.
const LADDER_QPS: [f64; 9] = [25.0, 50.0, 100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0];
/// Submits one ladder step is long enough to expect, so that even the
/// lowest rate has a tail percentile; no step is shorter than a second.
const LADDER_STEP_SUBMITS: f64 = 200.0;
/// How long the reader waits for answers after the last submit.
const DRAIN: Duration = Duration::from_secs(5);

fn system() -> SystemConfig {
    SystemConfig::nexus()
        .with_epoch(Micros::from_secs(30))
        .with_spread_factor(1.4)
}

fn classes() -> Vec<TrafficClass> {
    fig13_classes(Micros::from_secs(60), RATE_SCALE)
}

/// The deployment's serving parameters, and the sessions the client
/// sends to with the share of its traffic each gets.
struct Deployment {
    slos: Vec<SessionSlo>,
    routes: Vec<Vec<u32>>,
    /// Sessions the epoch-1 table routes, in id order.
    routed: Vec<u32>,
    /// Sessions with a planned rate, in id order.
    sent: Vec<u32>,
    /// Cumulative traffic share over `sent`, ending at 1.
    mix: Vec<f64>,
    backends: usize,
}

impl Deployment {
    /// The session a uniform draw `u` in `[0, 1)` picks.
    fn pick(&self, u: f64) -> u32 {
        let i = self.mix.partition_point(|&c| c <= u);
        self.sent[i.min(self.sent.len() - 1)]
    }
}

fn deployment(seed: u64) -> Deployment {
    let cluster = || {
        let mut b = NexusCluster::builder()
            .system(system())
            .device(GPU_K80)
            .gpus(GPUS)
            .seed(seed);
        for c in classes() {
            b = b.traffic_class(c);
        }
        b.build()
    };
    let spec = cluster().serve_specs();
    let routed: Vec<u32> = (0..spec.routes.len() as u32)
        .filter(|&s| !spec.routes[s as usize].is_empty())
        .collect();
    // Each session's share of the client's traffic is its planned rate in
    // the control plan `serve_specs` derives from.
    let planned: Vec<f64> = cluster()
        .into_sim()
        .control_plan()
        .sessions
        .iter()
        .map(|s| s.est_rate)
        .collect();
    let sent: Vec<u32> = (0..planned.len() as u32)
        .filter(|&s| planned[s as usize] > 0.0)
        .collect();
    let weights: Vec<f64> = sent.iter().map(|&s| planned[s as usize]).collect();
    let total: f64 = weights.iter().sum();
    let mix = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let backends = spec
        .routes
        .iter()
        .flatten()
        .map(|&g| g as usize + 1)
        .max()
        .unwrap_or(0);
    Deployment {
        slos: spec.slos,
        routes: spec.routes,
        routed,
        sent,
        mix,
        backends,
    }
}

/// One submit of the schedule.
#[derive(Debug, Clone, Copy)]
struct Planned {
    due: Duration,
    session: u32,
    budget_us: u64,
}

/// A seeded Poisson schedule at `qps` for `len`, conditioned on its
/// expected count: `qps * len` due times drawn uniformly and sorted, so
/// goodput per second does not carry the count's own noise. Sessions are
/// drawn by the deployment's traffic mix.
fn schedule(d: &Deployment, qps: f64, len: Duration, rng: &mut StdRng) -> Vec<Planned> {
    let n = (qps * len.as_secs_f64()).round() as usize;
    let mut due: Vec<f64> = (0..n)
        .map(|_| rng.gen::<f64>() * len.as_secs_f64())
        .collect();
    due.sort_by(f64::total_cmp);
    due.into_iter()
        .map(|t| {
            let session = d.pick(rng.gen());
            Planned {
                due: Duration::from_secs_f64(t),
                session,
                budget_us: d.slos[session as usize].slo.as_micros(),
            }
        })
        .collect()
}

/// A frontend's answer to one submit, as the client saw it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Answer {
    /// When the client read it.
    pub at: Instant,
    /// Completed or dropped.
    pub verdict: Verdict,
    /// The frontend's own latency, from reading the submit.
    pub frontend_us: u64,
}

/// Client-side bookkeeping of one open-loop run: when each request was
/// due, sent and answered.
#[derive(Debug)]
pub(crate) struct Ledger {
    /// Schedule origin.
    pub start: Instant,
    /// Due offsets from `start`.
    pub due: Vec<Duration>,
    /// Send instants.
    pub sent: Vec<Option<Instant>>,
    /// Answers, by request index.
    pub answers: Vec<Option<Answer>>,
}

impl Ledger {
    /// The instant request `i` was due.
    pub fn due_at(&self, i: usize) -> Instant {
        self.start + self.due[i]
    }

    /// Latency of request `i`, timed from its due time.
    pub fn latency(&self, i: usize) -> Option<Duration> {
        let a = self.answers[i]?;
        Some(a.at.saturating_duration_since(self.due_at(i)))
    }

    /// How late the generator sent request `i`.
    pub fn gen_lag(&self, i: usize) -> Option<Duration> {
        Some(self.sent[i]?.saturating_duration_since(self.due_at(i)))
    }
}

/// What an open-loop run observed, client-side.
struct Outcome {
    ledger: Ledger,
    budgets: Vec<u64>,
    /// Answers whose id was not one outstanding submit.
    strays: u64,
    wall: Duration,
}

impl Outcome {
    fn answered(&self) -> usize {
        self.ledger.answers.iter().flatten().count()
    }

    fn completed(&self) -> usize {
        self.ledger
            .answers
            .iter()
            .flatten()
            .filter(|a| a.verdict == Verdict::Completed)
            .count()
    }

    /// Completed within its budget, timed from due.
    fn good(&self) -> usize {
        (0..self.budgets.len())
            .filter(|&i| {
                matches!(self.ledger.answers[i], Some(a) if a.verdict == Verdict::Completed)
                    && self
                        .ledger
                        .latency(i)
                        .is_some_and(|l| l.as_micros() as u64 <= self.budgets[i])
            })
            .count()
    }

    /// Per answer, ms of client latency from due the frontend's own
    /// latency does not account for.
    fn recv_wait_ms(&self) -> Vec<f64> {
        (0..self.budgets.len())
            .filter_map(|i| {
                let a = self.ledger.answers[i]?;
                let client = self.ledger.latency(i)?.as_secs_f64() * 1e3;
                Some(client - a.frontend_us as f64 / 1e3)
            })
            .collect()
    }

    /// Latencies (ms) of completed requests, from due.
    fn latencies_ms(&self) -> Vec<f64> {
        (0..self.budgets.len())
            .filter(
                |&i| matches!(self.ledger.answers[i], Some(a) if a.verdict == Verdict::Completed),
            )
            .filter_map(|i| self.ledger.latency(i))
            .map(|l| l.as_secs_f64() * 1e3)
            .collect()
    }
}

/// Sends `plan` on schedule over one connection and collects every answer.
fn open_loop(addr: SocketAddr, plan: &[Planned]) -> io::Result<Outcome> {
    let conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    let mut reader = conn.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_millis(50)))?;
    let n = plan.len();
    let start = Instant::now() + Duration::from_millis(5);
    let due: Vec<Duration> = plan.iter().map(|p| p.due).collect();
    let last_due = due.last().copied().unwrap_or_default();
    let read = thread::spawn(move || {
        let mut answers: Vec<Option<Answer>> = vec![None; n];
        let (mut got, mut strays) = (0usize, 0u64);
        let give_up = start + last_due + DRAIN;
        while got < n && Instant::now() < give_up {
            match read_frame(&mut reader) {
                Ok(Msg::Done {
                    request,
                    verdict,
                    latency_us,
                    ..
                }) => {
                    let at = Instant::now();
                    match answers.get_mut(request as usize) {
                        Some(slot @ None) => {
                            *slot = Some(Answer {
                                at,
                                verdict,
                                frontend_us: latency_us,
                            });
                            got += 1;
                        }
                        _ => strays += 1,
                    }
                }
                Ok(_) => strays += 1,
                Err(proto::ProtoError::Io(io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)) => {
                }
                Err(_) => break,
            }
        }
        (answers, strays)
    });
    let mut writer = conn;
    let mut sent = vec![None; n];
    for (i, p) in plan.iter().enumerate() {
        let at = start + p.due;
        let now = Instant::now();
        if at > now {
            thread::sleep(at - now);
        }
        let submit = Msg::Submit {
            request: i as u64,
            session: p.session,
            budget_us: p.budget_us,
        };
        sent[i] = Some(Instant::now());
        if write_frame(&mut writer, &submit).is_err() {
            sent[i] = None;
            break;
        }
    }
    let (answers, strays) = read.join().expect("reader thread panicked");
    let end = answers
        .iter()
        .flatten()
        .map(|a| a.at)
        .max()
        .unwrap_or(start);
    Ok(Outcome {
        ledger: Ledger {
            start,
            due,
            sent,
            answers,
        },
        budgets: plan.iter().map(|p| p.budget_us).collect(),
        strays,
        wall: end.saturating_duration_since(start),
    })
}

/// The running system under test.
struct System {
    backends: Vec<BackendHandle>,
    frontend: FrontendHandle,
}

impl System {
    fn shutdown(self) {
        self.frontend.shutdown();
        for b in self.backends {
            b.shutdown();
        }
    }
}

/// Pushes routing epoch `epoch` over a control connection and waits for
/// the acknowledgement.
fn push_epoch(addr: SocketAddr, epoch: u64, routes: &[Vec<u32>]) -> io::Result<bool> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(10)))?;
    let send = |conn: &mut TcpStream, m: &Msg| {
        write_frame(conn, m).map_err(|e| io::Error::other(format!("{e:?}")))
    };
    send(&mut conn, &Msg::EpochBegin { epoch })?;
    for (session, backends) in routes.iter().enumerate() {
        send(
            &mut conn,
            &Msg::EpochRoute {
                session: session as u32,
                backends: backends.clone(),
            },
        )?;
    }
    send(&mut conn, &Msg::EpochCommit { epoch })?;
    Ok(matches!(read_frame(&mut conn), Ok(Msg::EpochAck { epoch: e }) if e == epoch))
}

/// Spawns the backends and the frontend. On failure, whatever was already
/// started is shut down before the error is returned.
fn spawn(d: &Deployment) -> io::Result<System> {
    let mut backends = Vec::with_capacity(d.backends);
    let stop = |backends: Vec<BackendHandle>| {
        for b in backends {
            b.shutdown();
        }
    };
    for _ in 0..d.backends {
        match spawn_backend(InstantModel) {
            Ok(b) => backends.push(b),
            Err(e) => {
                stop(backends);
                return Err(e);
            }
        }
    }
    match spawn_frontend(FrontendConfig {
        backends: backends.iter().map(|b| b.addr).collect(),
        registry: RegistryConfig::default(),
        sunset_grace: Micros::from_millis(500),
        slos: d.slos.clone(),
    }) {
        Ok(frontend) => Ok(System { backends, frontend }),
        Err(e) => {
            stop(backends);
            Err(e)
        }
    }
}

/// One set-up: spawn, then push epoch 1 right away. Returns the system,
/// whether the frontend applied the epoch, and the seconds from spawning
/// to the acknowledgement.
fn set_up(d: &Deployment, tracer: &Tracer) -> io::Result<(System, bool, f64)> {
    let t0 = Instant::now();
    let sys = tracer.scope("serve.spawn", || spawn(d))?;
    let pushed = tracer.scope("serve.push_epoch", || {
        push_epoch(sys.frontend.addr, 1, &d.routes)
    });
    let setup_s = t0.elapsed().as_secs_f64();
    match pushed {
        Ok(acked) => {
            let applied = acked && sys.frontend.applied_epochs() == [1];
            Ok((sys, applied, setup_s))
        }
        Err(e) => {
            sys.shutdown();
            Err(e)
        }
    }
}

/// Runs `serve-open`.
pub fn run(ctx: &mut Ctx) {
    let d = deployment(ctx.seed);
    let tracer = ctx.tracer.clone();
    if ctx.traced() {
        tracer.scope("bench.serve_open", || traced(ctx, &d));
        ctx.finish_trace();
    } else {
        untraced(ctx, &d);
    }
}

/// Times [`SETUPS`] set-ups and keeps the last system running.
fn timed_setups(ctx: &mut Ctx, d: &Deployment) -> Option<(System, Vec<f64>)> {
    let tracer = ctx.tracer.clone();
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let (sys, applied, s) = match set_up(d, &tracer) {
            Ok(v) => v,
            Err(e) => {
                ctx.report.check(false, || format!("set-up failed: {e}"));
                return None;
            }
        };
        ctx.report
            .check(applied, || "epoch 1 was not applied".into());
        times.push(s);
        if i + 1 < SETUPS {
            tracer.scope("serve.shutdown", || sys.shutdown());
        } else {
            kept = Some(sys);
        }
    }
    kept.map(|s| (s, times))
}

fn setup_note(setups: &[f64]) -> String {
    let mut v = setups.to_vec();
    v.sort_by(f64::total_cmp);
    format!(
        "set-up (spawn through epoch-1 ack) over {}: mean {:.3} ms, median {:.3} ms, \
         p90 {:.3} ms, fastest {:.3} ms",
        v.len(),
        stats::mean(&v) * 1e3,
        stats::quantile_sorted(&v, 0.5) * 1e3,
        stats::quantile_sorted(&v, 0.9) * 1e3,
        v[0] * 1e3
    )
}

/// Checks one open-loop run: every submit answered exactly once, and the
/// client's and the frontend's counts both close.
fn check_run(ctx: &mut Ctx, sys: &System, o: &Outcome, before: nexus_serve::StatsSnapshot) {
    let n = o.budgets.len();
    let answered = o.answered();
    let r = &mut ctx.report;
    for i in 0..n {
        r.check(o.ledger.answers[i].is_some(), || {
            format!("request {i} unanswered")
        });
    }
    r.check(o.strays == 0, || format!("{} stray answers", o.strays));
    let s = sys.frontend.stats();
    let submitted = s.submitted - before.submitted;
    let completed = s.completed - before.completed;
    let dropped = s.dropped() - before.dropped();
    r.check(s.accounted(), || {
        format!(
            "frontend counts do not close: submitted {} != completed {} + dropped {}",
            s.submitted,
            s.completed,
            s.dropped()
        )
    });
    r.check(submitted == n as u64, || {
        format!("client submitted {n}, frontend counted {submitted}")
    });
    let client_completed = o.completed() as u64;
    let client_dropped = (answered - o.completed()) as u64;
    r.check(
        client_completed == completed && client_dropped == dropped,
        || {
            format!(
                "client saw {client_completed}/{client_dropped} completed/dropped, \
                 frontend counted {completed}/{dropped}"
            )
        },
    );
}

fn untraced(ctx: &mut Ctx, d: &Deployment) {
    let Some((sys, setups)) = timed_setups(ctx, d) else {
        return;
    };
    let mut rng = rng_for(ctx.seed, 0x5e7e);
    let plan = schedule(d, NOMINAL_QPS, ctx.budget(), &mut rng);
    let before = sys.frontend.stats();
    let o = match open_loop(sys.frontend.addr, &plan) {
        Ok(o) => o,
        Err(e) => {
            ctx.report.check(false, || format!("client failed: {e}"));
            sys.shutdown();
            return;
        }
    };
    check_run(ctx, &sys, &o, before);
    let drops = sys.frontend.stats().drops;
    sys.shutdown();
    ctx.report.note(format!(
        "frontend drops by cause {DROP_CAUSES:?}: {drops:?}"
    ));
    let len = ctx.seconds;
    let report = &mut ctx.report;
    report.set("setup_s", stats::mean(&setups));
    report.note(setup_note(&setups));
    report.set("sim_s_per_wall_s", len / o.wall.as_secs_f64().max(1e-9));
    report.set("goodput_qps", o.good() as f64 / len);
    report.set("good_frac", o.good() as f64 / plan.len().max(1) as f64);
    report.set("gpus_mean", d.backends as f64);
    crate::common::set_latency(
        report,
        "client, from due time, completed requests",
        stats::summarize(&o.latencies_ms()),
    );
    report.note(format!(
        "open loop at {NOMINAL_QPS} req/s for {len} s over 1 connection: {} submitted, \
         {} answered, {} completed, {} good; {} backends, {} routed sessions, \
         traffic to {} sessions by planned rate",
        plan.len(),
        o.answered(),
        o.completed(),
        o.good(),
        d.backends,
        d.routed.len(),
        d.sent.len()
    ));
}

/// Mean ns per call of `f` over `n` calls.
fn ns_per_call(n: u32, mut f: impl FnMut(u32)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / f64::from(n)
}

/// Micro-costs of the front door's layers, called directly.
fn layer_costs(ctx: &mut Ctx, d: &Deployment) {
    const N: u32 = 200_000;
    let tracer = ctx.tracer.clone();
    let submit = Msg::Submit {
        request: 7,
        session: d.routed[0],
        budget_us: d.slos[d.routed[0] as usize].slo.as_micros(),
    };
    let mut buf = Vec::with_capacity(64);
    let encode_ns = tracer.scope("serve.proto.encode", || {
        ns_per_call(N, |i| {
            let m = Msg::Submit {
                request: u64::from(i),
                session: d.routed[0],
                budget_us: 1,
            };
            proto::encode(std::hint::black_box(&m), &mut buf);
        })
    });
    proto::encode(&submit, &mut buf);
    let decode_ns = tracer.scope("serve.proto.decode", || {
        ns_per_call(N, |_| {
            std::hint::black_box(proto::decode(std::hint::black_box(&buf)).is_ok());
        })
    });
    let slo = d.slos[d.routed[0] as usize];
    let per_session = Duration::from_secs_f64(d.routed.len() as f64 / NOMINAL_QPS);
    let admit_ns = tracer.scope("serve.admission.admit", || {
        let mut gate = AdmissionGate::new(slo);
        ns_per_call(N, |i| {
            let now = Micros::from_micros(per_session.as_micros() as u64 * u64::from(i));
            std::hint::black_box(gate.admit(now, now + slo.slo));
        })
    });
    let table = RouteTable::new(1, d.routes.clone());
    let registry = BackendRegistry::new(d.backends, RegistryConfig::default());
    let pick_ns = tracer.scope("serve.routing.pick", || {
        ns_per_call(N, |i| {
            let s = d.routed[i as usize % d.routed.len()];
            std::hint::black_box(table.pick(s, &registry, None));
        })
    });
    let rtt = tracer.scope("serve.backend.exec_rtt", || exec_rtt_ms(200));
    let report = &mut ctx.report;
    report.set("serve.proto.encode_ns", encode_ns);
    report.set("serve.proto.decode_ns", decode_ns);
    report.set("serve.admission.admit_ns", admit_ns);
    report.set("serve.routing.pick_ns", pick_ns);
    match rtt {
        Ok(ms) => {
            let s = stats::summarize(&ms).expect("round trips ran");
            report.set("serve.backend.exec_rtt_ms", s.p50);
            report.note(format!(
                "backend round trip (connect + Exec/ExecDone): p50 {:.3} ms, p{:.0} {:.3} ms \
                 over {}",
                s.p50,
                s.tail_q * 100.0,
                s.tail,
                s.count
            ));
        }
        Err(e) => report.check(false, || format!("backend round trip failed: {e}")),
    }
}

/// Connect + `Exec`/`ExecDone` straight to a freshly spawned backend,
/// `n` times; each round trip in ms.
fn exec_rtt_ms(n: u64) -> io::Result<Vec<f64>> {
    let backend = spawn_backend(InstantModel)?;
    let mut out = Vec::new();
    for request in 0..n {
        let t0 = Instant::now();
        let mut conn = TcpStream::connect(backend.addr)?;
        conn.set_read_timeout(Some(Duration::from_secs(5)))?;
        let exec = Msg::Exec {
            request,
            session: 0,
            cost_us: 1,
        };
        let ok = write_frame(&mut conn, &exec).is_ok()
            && matches!(read_frame(&mut conn), Ok(Msg::ExecDone { request: r, ok: true }) if r == request);
        if !ok {
            backend.shutdown();
            return Err(io::Error::other("backend did not answer Exec"));
        }
        out.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    backend.shutdown();
    Ok(out)
}

/// Whether an open-loop step kept up: at least 99% of submits completed
/// within their budgets from due time (so the 99th percentile of latency
/// over budget is within 1), and latency at the end of the step no worse
/// than at its start (no growing backlog).
fn sustainable(o: &Outcome) -> bool {
    let lat = o.latencies_ms();
    if lat.is_empty() {
        return false;
    }
    let fifth = (lat.len() / 5).max(1);
    let head = stats::median(&lat[..fifth]);
    let tail = stats::median(&lat[lat.len() - fifth..]);
    let good = o.good() as f64 / o.budgets.len().max(1) as f64;
    good >= 0.99 && tail <= 2.0 * head + 1.0
}

/// One ladder step's line: good and late completions, drops by cause,
/// client latency and the part of it the frontend does not see.
fn step_note(
    qps: f64,
    o: &Outcome,
    before: &nexus_serve::StatsSnapshot,
    after: &nexus_serve::StatsSnapshot,
    ok: bool,
) -> String {
    let drops: Vec<u64> = after
        .drops
        .iter()
        .zip(before.drops)
        .map(|(a, b)| a - b)
        .collect();
    let ms = |s: Option<stats::Summary>| {
        s.map_or("-".into(), |s| {
            format!(
                "p50 {:.2} ms, p{:.0} {:.2} ms",
                s.p50,
                s.tail_q * 100.0,
                s.tail
            )
        })
    };
    format!(
        "ladder {qps} req/s: {} submitted, {} good, {} completed late, sustainable {ok}; \
         latency from due {}; recv wait {}; frontend drops by cause {DROP_CAUSES:?}: {drops:?}",
        o.budgets.len(),
        o.good(),
        o.completed() - o.good(),
        ms(stats::summarize(&o.latencies_ms())),
        ms(stats::summarize(&o.recv_wait_ms())),
    )
}

fn traced(ctx: &mut Ctx, d: &Deployment) {
    let tracer = ctx.tracer.clone();
    crate::fig13::plan_layers(ctx, &classes(), &system(), &GPU_K80, GPUS);
    layer_costs(ctx, d);
    let Some((sys, setups)) = timed_setups(ctx, d) else {
        return;
    };
    ctx.report.note(setup_note(&setups));
    let mut rng = rng_for(ctx.seed, 0x5e7e);
    let plan = schedule(d, NOMINAL_QPS, ctx.budget(), &mut rng);
    let before = sys.frontend.stats();
    let run = tracer.scope("serve.open_loop", || {
        let o = open_loop(sys.frontend.addr, &plan)?;
        for (i, a) in o.ledger.answers.iter().enumerate() {
            if let Some(a) = a {
                let front =
                    a.at.checked_sub(Duration::from_micros(a.frontend_us))
                        .unwrap_or(a.at);
                tracer.request("serve.request", i as u64, o.ledger.due_at(i), a.at);
                tracer.request(
                    "serve.frontend",
                    i as u64,
                    front.max(o.ledger.due_at(i)),
                    a.at,
                );
            }
        }
        Ok::<_, io::Error>(o)
    });
    let o = match run {
        Ok(o) => o,
        Err(e) => {
            ctx.report.check(false, || format!("client failed: {e}"));
            sys.shutdown();
            return;
        }
    };
    check_run(ctx, &sys, &o, before);
    let s = sys.frontend.stats();
    let recv_wait = o.recv_wait_ms();
    let lags: Vec<f64> = (0..plan.len())
        .filter_map(|i| o.ledger.gen_lag(i))
        .map(|l| l.as_secs_f64() * 1e3)
        .collect();
    let report = &mut ctx.report;
    if let Some(w) = stats::summarize(&recv_wait) {
        report.set("serve.frontend.recv_wait_ms", w.p50);
        report.note(format!(
            "recv wait (client latency from due minus the frontend's own latency): \
             p50 {:.3} ms, p{:.2} {:.3} ms over {}; frontend budget violations {}",
            w.p50,
            w.tail_q * 100.0,
            w.tail,
            w.count,
            s.budget_violations
        ));
    }
    if let Some(l) = stats::summarize(&lags) {
        report.set("serve.gen_lag_ms", l.tail);
        report.note(format!(
            "generator lag: p50 {:.3} ms, p{:.2} {:.3} ms over {}",
            l.p50,
            l.tail_q * 100.0,
            l.tail,
            l.count
        ));
    }
    report.set(
        "serve.frontend.budget_violations",
        s.budget_violations as f64,
    );
    report.set("serve.frontend.retried", s.retried as f64);
    report.set("serve.frontend.probe_misses", s.probe_misses as f64);
    for (cause, n) in DROP_CAUSES.iter().zip(s.drops) {
        report.set(&format!("serve.frontend.drop.{cause}"), n as f64);
    }

    // The highest ladder rate up to which every step is sustainable. All
    // steps run, so the notes show the whole curve.
    let mut max_qps = 0.0;
    let mut all_ok = true;
    let (mut ladder_good, mut ladder_submitted) = (0usize, 0usize);
    for qps in LADDER_QPS {
        let len = Duration::from_secs_f64((LADDER_STEP_SUBMITS / qps).max(1.0));
        let plan = schedule(d, qps, len, &mut rng);
        let before = sys.frontend.stats();
        let step = tracer.scope("serve.ladder_step", || open_loop(sys.frontend.addr, &plan));
        let Ok(o) = step else {
            ctx.report
                .check(false, || format!("client failed at {qps} req/s"));
            break;
        };
        check_run(ctx, &sys, &o, before);
        let ok = sustainable(&o);
        ladder_good += o.good();
        ladder_submitted += plan.len();
        all_ok &= ok;
        if all_ok {
            max_qps = qps;
        }
        ctx.report
            .note(step_note(qps, &o, &before, &sys.frontend.stats(), ok));
    }
    ctx.report.set("serve.max_qps", max_qps);
    ctx.report.set(
        "serve.ladder_good_frac",
        ladder_good as f64 / ladder_submitted.max(1) as f64,
    );
    tracer.scope("serve.shutdown", || sys.shutdown());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_timed_from_due_even_when_the_generator_stalls() {
        let start = Instant::now();
        let ms = Duration::from_millis;
        let answer = |at: Instant| {
            Some(Answer {
                at,
                verdict: Verdict::Completed,
                frontend_us: 1_000,
            })
        };
        // Request 1 was due at 10 ms but the generator stalled until
        // 60 ms; request 2, due at 20 ms, went out right behind it.
        let ledger = Ledger {
            start,
            due: vec![ms(0), ms(10), ms(20)],
            sent: vec![Some(start), Some(start + ms(60)), Some(start + ms(61))],
            answers: vec![
                answer(start + ms(1)),
                answer(start + ms(61)),
                answer(start + ms(62)),
            ],
        };
        assert_eq!(ledger.latency(0), Some(ms(1)));
        assert_eq!(ledger.latency(1), Some(ms(51)));
        assert_eq!(ledger.latency(2), Some(ms(42)));
        assert_eq!(ledger.gen_lag(1), Some(ms(50)));
        assert_eq!(ledger.gen_lag(2), Some(ms(41)));
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let d = Deployment {
            slos: vec![SessionSlo {
                slo: Micros::from_millis(100),
                ell_min: Micros::from_millis(1),
                ell_b: Micros::from_millis(2),
                batch: 4,
            }],
            routes: vec![vec![0]],
            routed: vec![0],
            sent: vec![0],
            mix: vec![1.0],
            backends: 1,
        };
        let mk = |seed| schedule(&d, 200.0, Duration::from_secs(2), &mut rng_for(seed, 1));
        let (a, b, c) = (mk(1), mk(1), mk(2));
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.due == y.due));
        assert!(a.len() != c.len() || a.iter().zip(&c).any(|(x, y)| x.due != y.due));
        // 200/s over 2 s, in order.
        assert_eq!(a.len(), 400);
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
    }
}
