//! The frontend: accepts client submits, admits at the edge, routes by
//! the active epoch table, dispatches to backends with deadline-aware
//! retry, and probes backend health.
//!
//! Failure-domain isolation is the organizing idea: a backend death is
//! contained by the registry (stop routing there) and the retry path
//! (re-dispatch in-flight work elsewhere *if the deadline budget still
//! covers it*); a scheduler stall is contained by epoch versioning (keep
//! serving the last committed table); client misbehavior is contained by
//! per-connection handlers with typed protocol errors. No failure in one
//! domain widens into another.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use nexus_profile::Micros;
use nexus_runtime::DropCause;

use crate::admission::{AdmissionGate, SessionSlo};
use crate::proto::{read_frame, wake_and_join_accept, write_frame, Msg, ProtoError, Verdict};
use crate::registry::{BackendRegistry, RegistryConfig, Transition};
use crate::routing::EpochRouter;

/// Monotonic wall clock in [`Micros`] since frontend start.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start: Instant,
}

impl Clock {
    /// A clock anchored at "now".
    pub fn new() -> Self {
        Clock {
            start: Instant::now(),
        }
    }

    /// Microseconds elapsed since the anchor.
    pub fn now(&self) -> Micros {
        Micros::from_micros(self.start.elapsed().as_micros() as u64)
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

/// Static frontend configuration.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Backend addresses, indexed by the backend ids routing tables use.
    pub backends: Vec<SocketAddr>,
    /// Failure-detection thresholds for the registry and prober.
    pub registry: RegistryConfig,
    /// How long retired routing tables are pinned after an epoch swap.
    pub sunset_grace: Micros,
    /// Per-session SLO parameters, indexed by session id.
    pub slos: Vec<SessionSlo>,
}

/// Number of [`DropCause`] variants (the stats array is per-cause).
const CAUSES: usize = 7;

fn cause_index(cause: DropCause) -> usize {
    match cause {
        DropCause::NoRoute => 0,
        DropCause::EarlySacrifice => 1,
        DropCause::Expired => 2,
        DropCause::Orphaned => 3,
        DropCause::Stranded => 4,
        DropCause::RunEnd => 5,
        DropCause::AdmissionRejected => 6,
    }
}

/// Cause for a stats index, inverse of the internal index map.
pub fn cause_for_index(i: usize) -> DropCause {
    [
        DropCause::NoRoute,
        DropCause::EarlySacrifice,
        DropCause::Expired,
        DropCause::Orphaned,
        DropCause::Stranded,
        DropCause::RunEnd,
        DropCause::AdmissionRejected,
    ][i]
}

#[derive(Debug, Default)]
struct Stats {
    submitted: AtomicU64,
    completed: AtomicU64,
    retried: AtomicU64,
    drops: [AtomicU64; CAUSES],
    epochs_applied: AtomicU64,
    probes_sent: AtomicU64,
    probe_misses: AtomicU64,
    /// Completed requests whose measured latency exceeded their budget —
    /// the soak gate asserts this stays zero: a retry that cannot fit
    /// the remaining budget must be dropped, not sent.
    budget_violations: AtomicU64,
    dispatch_connects: AtomicU64,
}

/// A point-in-time copy of the frontend counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Submits received.
    pub submitted: u64,
    /// Requests completed within budget.
    pub completed: u64,
    /// Completed-or-dropped requests that took the retry path.
    pub retried: u64,
    /// Drops by cause, indexed as [`cause_for_index`].
    pub drops: [u64; CAUSES],
    /// Routing epochs committed.
    pub epochs_applied: u64,
    /// Health probes sent.
    pub probes_sent: u64,
    /// Health probes that failed.
    pub probe_misses: u64,
    /// Completed requests that overran their budget (must stay 0).
    pub budget_violations: u64,
    /// Fresh frontend→backend dispatch connections opened (a dispatch
    /// that reuses an idle pooled connection does not count).
    pub dispatch_connects: u64,
}

impl StatsSnapshot {
    /// Total drops across causes.
    pub fn dropped(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// The conservation check: every submit accounted, exactly once.
    pub fn accounted(&self) -> bool {
        self.completed + self.dropped() == self.submitted
    }
}

struct Core {
    cfg: FrontendConfig,
    clock: Clock,
    registry: Mutex<BackendRegistry>,
    router: Mutex<EpochRouter>,
    gates: Mutex<Vec<AdmissionGate>>,
    transitions: Mutex<Vec<Transition>>,
    /// Idle dispatch connections, one stack per backend. A connection is
    /// only ever pushed back after a clean matching reply, so whatever
    /// is popped has nothing left to read; concurrent dispatchers bound
    /// the stack sizes.
    idle: Vec<Mutex<Vec<TcpStream>>>,
    stats: Stats,
    shutdown: AtomicBool,
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

/// Per-connection read timeout (shutdown responsiveness bound).
const READ_POLL: Duration = Duration::from_millis(25);

/// A running frontend.
pub struct FrontendHandle {
    /// Address clients and the scheduler connect to.
    pub addr: SocketAddr,
    core: Arc<Core>,
    accept_thread: Option<JoinHandle<()>>,
    prober_thread: Option<JoinHandle<()>>,
}

impl FrontendHandle {
    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.core.stats;
        let mut drops = [0u64; CAUSES];
        for (i, d) in s.drops.iter().enumerate() {
            drops[i] = d.load(Ordering::SeqCst);
        }
        StatsSnapshot {
            submitted: s.submitted.load(Ordering::SeqCst),
            completed: s.completed.load(Ordering::SeqCst),
            retried: s.retried.load(Ordering::SeqCst),
            drops,
            epochs_applied: s.epochs_applied.load(Ordering::SeqCst),
            probes_sent: s.probes_sent.load(Ordering::SeqCst),
            probe_misses: s.probe_misses.load(Ordering::SeqCst),
            budget_violations: s.budget_violations.load(Ordering::SeqCst),
            dispatch_connects: s.dispatch_connects.load(Ordering::SeqCst),
        }
    }

    /// Epochs committed so far, in commit order.
    pub fn applied_epochs(&self) -> Vec<u64> {
        self.core
            .router
            .lock()
            .expect("router poisoned")
            .applied()
            .to_vec()
    }

    /// Liveness transitions observed by the prober, in order.
    pub fn transitions(&self) -> Vec<Transition> {
        self.core
            .transitions
            .lock()
            .expect("transitions poisoned")
            .clone()
    }

    /// Current liveness of `backend` as the registry sees it.
    pub fn liveness(&self, backend: u32) -> crate::registry::Liveness {
        self.core
            .registry
            .lock()
            .expect("registry poisoned")
            .liveness(backend)
    }

    /// Stops the frontend and joins every thread it spawned. Returns the
    /// number of connection-handler threads reaped.
    pub fn shutdown(mut self) -> usize {
        self.core.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            wake_and_join_accept(self.addr, t);
        }
        if let Some(t) = self.prober_thread.take() {
            let _ = t.join();
        }
        let handlers =
            std::mem::take(&mut *self.core.handlers.lock().expect("handler list poisoned"));
        let n = handlers.len();
        for h in handlers {
            let _ = h.join();
        }
        n
    }
}

/// Spawns a frontend on `127.0.0.1:0` with its prober running.
pub fn spawn_frontend(cfg: FrontendConfig) -> io::Result<FrontendHandle> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let registry = BackendRegistry::new(cfg.backends.len(), cfg.registry);
    let gates: Vec<AdmissionGate> = cfg.slos.iter().map(|s| AdmissionGate::new(*s)).collect();
    let router = EpochRouter::new(cfg.sunset_grace);
    let idle = cfg
        .backends
        .iter()
        .map(|_| Mutex::new(Vec::new()))
        .collect();
    let core = Arc::new(Core {
        cfg,
        clock: Clock::new(),
        registry: Mutex::new(registry),
        router: Mutex::new(router),
        gates: Mutex::new(gates),
        transitions: Mutex::new(Vec::new()),
        idle,
        stats: Stats::default(),
        shutdown: AtomicBool::new(false),
        handlers: Mutex::new(Vec::new()),
    });
    let accept_core = Arc::clone(&core);
    let accept_thread = thread::Builder::new()
        .name(format!("frontend-accept-{}", addr.port()))
        .spawn(move || accept_loop(listener, accept_core))?;
    let prober_core = Arc::clone(&core);
    let prober_thread = thread::Builder::new()
        .name("frontend-prober".into())
        .spawn(move || prober_loop(prober_core))?;
    Ok(FrontendHandle {
        addr,
        core,
        accept_thread: Some(accept_thread),
        prober_thread: Some(prober_thread),
    })
}

fn accept_loop(listener: TcpListener, core: Arc<Core>) {
    // Blocking accept: `shutdown` wakes it with a connect of its own.
    while let Ok((stream, _)) = listener.accept() {
        if core.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if stream.set_nodelay(true).is_err() {
            continue;
        }
        let conn_core = Arc::clone(&core);
        let handle = thread::Builder::new()
            .name("frontend-conn".into())
            .spawn(move || handle_conn(stream, conn_core))
            .expect("spawn frontend connection handler");
        let mut handlers = core.handlers.lock().expect("handler list poisoned");
        handlers.retain(|h| !h.is_finished());
        handlers.push(handle);
    }
}

fn handle_conn(mut stream: TcpStream, core: Arc<Core>) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    loop {
        if core.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let msg = match read_frame(&mut stream) {
            Ok(m) => m,
            Err(ProtoError::Io(io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)) => continue,
            Err(_) => return,
        };
        let reply = match msg {
            Msg::Submit {
                request,
                session,
                budget_us,
            } => Some(handle_submit(&core, request, session, budget_us)),
            Msg::Ping { seq } => Some(Msg::Pong { seq }),
            Msg::EpochBegin { epoch } => {
                core.router.lock().expect("router poisoned").begin(epoch);
                None
            }
            Msg::EpochRoute { session, backends } => {
                core.router
                    .lock()
                    .expect("router poisoned")
                    .route(session, backends);
                None
            }
            Msg::EpochCommit { epoch } => {
                let now = core.clock.now();
                let applied = core
                    .router
                    .lock()
                    .expect("router poisoned")
                    .commit(epoch, now);
                applied.map(|e| {
                    core.stats.epochs_applied.fetch_add(1, Ordering::SeqCst);
                    Msg::EpochAck { epoch: e }
                })
            }
            // Clients must not speak backend or frontend-outbound frames.
            _ => return,
        };
        if let Some(reply) = reply {
            if write_frame(&mut stream, &reply).is_err() {
                return;
            }
        }
    }
}

/// The full life of one request, synchronously on the connection thread.
fn handle_submit(core: &Core, request: u64, session: u32, budget_us: u64) -> Msg {
    core.stats.submitted.fetch_add(1, Ordering::SeqCst);
    let t0 = core.clock.now();
    let budget = Micros::from_micros(budget_us);
    let deadline = t0 + budget;

    let done_drop = |cause: DropCause, retried: bool| {
        core.stats.drops[cause_index(cause)].fetch_add(1, Ordering::SeqCst);
        if retried {
            core.stats.retried.fetch_add(1, Ordering::SeqCst);
        }
        Msg::Done {
            request,
            verdict: Verdict::Dropped(cause),
            latency_us: core.clock.now().saturating_sub(t0).as_micros(),
            retried,
        }
    };

    // Unknown session: nothing routes it.
    let Some(slo) = core.cfg.slos.get(session as usize).copied() else {
        return done_drop(DropCause::NoRoute, false);
    };

    // Edge admission (doomed check + overload gate).
    let decision = {
        let mut gates = core.gates.lock().expect("gates poisoned");
        gates[session as usize].admit(t0, deadline)
    };
    if let Some(cause) = decision.drop_cause() {
        return done_drop(cause, false);
    }

    // Route under the current epoch's table; the snapshot pins the table
    // for this request even if an epoch swap lands mid-dispatch.
    let table = core.router.lock().expect("router poisoned").snapshot();
    let first = {
        let registry = core.registry.lock().expect("registry poisoned");
        table.pick(session, &registry, None)
    };
    let Some(first) = first else {
        return done_drop(DropCause::NoRoute, false);
    };

    // First attempt, bounded by the whole remaining budget.
    if dispatch(core, first, request, session, &slo, deadline) {
        return finish_completed(core, request, t0, budget, false);
    }

    // The attempt failed: that is probe-grade evidence against the
    // backend. Feed it to the registry so routing reacts before the next
    // prober tick.
    {
        let now = core.clock.now();
        let mut registry = core.registry.lock().expect("registry poisoned");
        if let Some(tr) = registry.record_miss(first, now) {
            core.transitions
                .lock()
                .expect("transitions poisoned")
                .push(tr);
        }
    }

    // Retry only if the remaining budget still covers an execution — a
    // retry that cannot finish in time is load without value.
    let now = core.clock.now();
    if now + slo.ell_min > deadline {
        return done_drop(DropCause::Stranded, false);
    }
    let second = {
        let registry = core.registry.lock().expect("registry poisoned");
        table.pick(session, &registry, Some(first))
    };
    // No distinct second backend: the request is stranded un-retried.
    let Some(second) = second else {
        return done_drop(DropCause::Stranded, false);
    };
    if dispatch(core, second, request, session, &slo, deadline) {
        return finish_completed(core, request, t0, budget, true);
    }
    let now = core.clock.now();
    let mut registry = core.registry.lock().expect("registry poisoned");
    if let Some(tr) = registry.record_miss(second, now) {
        core.transitions
            .lock()
            .expect("transitions poisoned")
            .push(tr);
    }
    drop(registry);
    done_drop(DropCause::Stranded, true)
}

fn finish_completed(core: &Core, request: u64, t0: Micros, budget: Micros, retried: bool) -> Msg {
    let latency = core.clock.now().saturating_sub(t0);
    core.stats.completed.fetch_add(1, Ordering::SeqCst);
    if retried {
        core.stats.retried.fetch_add(1, Ordering::SeqCst);
    }
    if latency > budget {
        core.stats.budget_violations.fetch_add(1, Ordering::SeqCst);
    }
    Msg::Done {
        request,
        verdict: Verdict::Completed,
        latency_us: latency.as_micros(),
        retried,
    }
}

/// One dispatch attempt: take an idle connection to `backend` (or open
/// one), send `Exec`, await `ExecDone`, all bounded by the request's
/// remaining deadline budget. The connection goes back to the idle stack
/// only after a matching `ExecDone { ok: true }`; any error, timeout,
/// foreign request id or failed execution drops it, so a late reply can
/// never be read as a later request's answer.
fn dispatch(
    core: &Core,
    backend: u32,
    request: u64,
    session: u32,
    slo: &SessionSlo,
    deadline: Micros,
) -> bool {
    let remaining = deadline.saturating_sub(core.clock.now());
    if remaining == Micros::ZERO {
        return false;
    }
    let timeout = Duration::from_micros(remaining.as_micros());
    let idle = &core.idle[backend as usize];
    let pooled = idle.lock().expect("idle pool poisoned").pop();
    let mut stream = match pooled {
        Some(stream) => stream,
        None => {
            let addr = core.cfg.backends[backend as usize];
            let Ok(stream) = TcpStream::connect_timeout(&addr, timeout) else {
                return false;
            };
            core.stats.dispatch_connects.fetch_add(1, Ordering::SeqCst);
            if stream.set_nodelay(true).is_err() {
                return false;
            }
            stream
        }
    };
    // A pooled socket still carries the previous request's timeouts.
    if stream.set_read_timeout(Some(timeout)).is_err()
        || stream.set_write_timeout(Some(timeout)).is_err()
    {
        return false;
    }
    let exec = Msg::Exec {
        request,
        session,
        cost_us: slo.ell_min.as_micros(),
    };
    if write_frame(&mut stream, &exec).is_err() {
        return false;
    }
    let ok = matches!(
        read_frame(&mut stream),
        Ok(Msg::ExecDone { request: r, ok: true }) if r == request
    );
    if ok {
        idle.lock().expect("idle pool poisoned").push(stream);
    }
    ok
}

fn prober_loop(core: Arc<Core>) {
    let interval = {
        let registry = core.registry.lock().expect("registry poisoned");
        Duration::from_micros(registry.config().probe_interval.as_micros())
    };
    let mut seq = 0u64;
    while !core.shutdown.load(Ordering::SeqCst) {
        for (id, addr) in core.cfg.backends.iter().enumerate() {
            if core.shutdown.load(Ordering::SeqCst) {
                return;
            }
            seq += 1;
            core.stats.probes_sent.fetch_add(1, Ordering::SeqCst);
            let ok = probe(*addr, seq, interval);
            let now = core.clock.now();
            let mut registry = core.registry.lock().expect("registry poisoned");
            let tr = if ok {
                registry.record_beat(id as u32, now)
            } else {
                core.stats.probe_misses.fetch_add(1, Ordering::SeqCst);
                registry.record_miss(id as u32, now)
            };
            drop(registry);
            if let Some(tr) = tr {
                core.transitions
                    .lock()
                    .expect("transitions poisoned")
                    .push(tr);
            }
        }
        thread::sleep(interval);
    }
}

/// One short-lived health probe: connect, ping, await the echoed pong.
/// Probes never use the dispatch pool: only a fresh connect shows that
/// the backend still accepts and answers new connections, which a
/// crashed one does not.
fn probe(addr: SocketAddr, seq: u64, timeout: Duration) -> bool {
    let Ok(stream) = TcpStream::connect_timeout(&addr, timeout) else {
        return false;
    };
    let mut stream = stream;
    if stream.set_nodelay(true).is_err()
        || stream.set_read_timeout(Some(timeout)).is_err()
        || stream.set_write_timeout(Some(timeout)).is_err()
    {
        return false;
    }
    if write_frame(&mut stream, &Msg::Ping { seq }).is_err() {
        return false;
    }
    matches!(read_frame(&mut stream), Ok(Msg::Pong { seq: s }) if s == seq)
}
