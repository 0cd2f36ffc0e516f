//! The smoke-and-chaos soak: real sockets, real threads, one verdict.
//!
//! The harness spawns a frontend and a set of backends on localhost,
//! drives paced traffic from many concurrent client connections, and —
//! mid-traffic — kills one backend and pushes a new routing epoch that
//! excludes it. It then holds the run to the front door's contract:
//!
//! - **accounting**: every submitted request came back exactly once,
//!   completed or dropped-with-cause (client-side and server-side
//!   counts must both close);
//! - **zero dropped epochs**: the applied-epoch sequence is exactly the
//!   pushed sequence, in order;
//! - **budget**: no completed request overran its deadline budget
//!   (retries must fit or be dropped);
//! - **clean shutdown**: every thread the harness started is joined
//!   before it returns.
//!
//! Both the `nexus-serve` binary and the CI chaos gate run this exact
//! code, so "works in CI" and "works from the command line" cannot
//! drift apart.

use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use nexus_profile::Micros;

use crate::admission::SessionSlo;
use crate::backend::{spawn_backend, BackendHandle, InstantModel};
use crate::frontend::{spawn_frontend, FrontendConfig, FrontendHandle, StatsSnapshot};
use crate::proto::{read_frame, write_frame, Msg, ProtoError, Verdict};
use crate::registry::RegistryConfig;

/// Soak parameters.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Backends to spawn.
    pub backends: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// Sessions to spread traffic over (round robin by request index).
    pub sessions: u32,
    /// Per-request deadline budget.
    pub budget: Micros,
    /// Gap between one client's consecutive submits.
    pub pacing: Duration,
    /// Kill this backend once half the traffic is in (None = no chaos).
    pub kill_backend: Option<usize>,
    /// After the kill, push epoch 2 excluding the killed backend.
    pub push_second_epoch: bool,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            backends: 4,
            clients: 32,
            requests_per_client: 25,
            sessions: 2,
            budget: Micros::from_millis(250),
            pacing: Duration::from_millis(5),
            kill_backend: Some(0),
            push_second_epoch: true,
        }
    }
}

impl SoakConfig {
    /// The per-session SLO parameters the soak serves under. Generous
    /// relative to [`InstantModel`] execution so the admission gate only
    /// trips on genuine overload, not CI scheduling jitter.
    fn slo(&self) -> SessionSlo {
        SessionSlo {
            slo: self.budget,
            ell_min: Micros::from_micros(200),
            ell_b: Micros::from_micros(400),
            batch: 32,
        }
    }
}

/// What one soak run observed.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Frontend counters at the end of the run.
    pub stats: StatsSnapshot,
    /// Completions counted client-side (must match `stats.completed`).
    pub client_completed: u64,
    /// Drops counted client-side.
    pub client_dropped: u64,
    /// Client reads that failed (must be zero: every submit is answered).
    pub client_io_errors: u64,
    /// Epochs the frontend committed, in order.
    pub applied_epochs: Vec<u64>,
    /// Epochs the harness pushed, in order.
    pub pushed_epochs: Vec<u64>,
    /// Handler threads joined at frontend shutdown.
    pub frontend_handlers_joined: usize,
    /// Handler threads joined across backend shutdowns.
    pub backend_handlers_joined: usize,
}

impl SoakReport {
    /// The chaos-gate verdict. Returns the first violated clause, or
    /// `None` if the run passed.
    pub fn violation(&self) -> Option<String> {
        let s = &self.stats;
        if !s.accounted() {
            return Some(format!(
                "accounting leak: submitted {} != completed {} + dropped {}",
                s.submitted,
                s.completed,
                s.dropped()
            ));
        }
        if self.client_io_errors > 0 {
            return Some(format!(
                "{} client submits went unanswered",
                self.client_io_errors
            ));
        }
        if self.client_completed != s.completed || self.client_dropped != s.dropped() {
            return Some(format!(
                "client/server disagree: client saw {}/{} completed/dropped, \
                 server counted {}/{}",
                self.client_completed,
                self.client_dropped,
                s.completed,
                s.dropped()
            ));
        }
        if self.applied_epochs != self.pushed_epochs {
            return Some(format!(
                "dropped epochs: pushed {:?}, applied {:?}",
                self.pushed_epochs, self.applied_epochs
            ));
        }
        if s.budget_violations > 0 {
            return Some(format!(
                "{} completed requests overran their budget",
                s.budget_violations
            ));
        }
        if s.completed == 0 {
            return Some("nothing completed".into());
        }
        None
    }

    /// Whether the run passed every gate clause.
    pub fn passed(&self) -> bool {
        self.violation().is_none()
    }
}

/// Errors that abort a soak before the gate can even judge it.
#[derive(Debug)]
pub enum SoakError {
    /// Socket setup failed (bind, connect).
    Io(io::Error),
    /// The control connection could not push an epoch.
    Control(ProtoError),
}

impl From<io::Error> for SoakError {
    fn from(e: io::Error) -> Self {
        SoakError::Io(e)
    }
}

impl From<ProtoError> for SoakError {
    fn from(e: ProtoError) -> Self {
        SoakError::Control(e)
    }
}

impl std::fmt::Display for SoakError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SoakError::Io(e) => write!(f, "soak i/o failure: {e}"),
            SoakError::Control(e) => write!(f, "epoch push failed: {e}"),
        }
    }
}

impl std::error::Error for SoakError {}

/// Pushes one full epoch over a fresh control connection and waits for
/// the ack.
fn push_epoch(
    frontend: &FrontendHandle,
    epoch: u64,
    sessions: u32,
    backends: &[u32],
) -> Result<(), SoakError> {
    let mut conn = TcpStream::connect(frontend.addr).map_err(SoakError::Io)?;
    conn.set_nodelay(true).map_err(SoakError::Io)?;
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(SoakError::Io)?;
    write_frame(&mut conn, &Msg::EpochBegin { epoch })?;
    for session in 0..sessions {
        write_frame(
            &mut conn,
            &Msg::EpochRoute {
                session,
                backends: backends.to_vec(),
            },
        )?;
    }
    write_frame(&mut conn, &Msg::EpochCommit { epoch })?;
    loop {
        match read_frame(&mut conn) {
            Ok(Msg::EpochAck { epoch: e }) if e == epoch => return Ok(()),
            Ok(_) => continue,
            Err(ProtoError::Io(io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)) => {
                return Err(SoakError::Control(ProtoError::Io(io::ErrorKind::TimedOut)))
            }
            Err(e) => return Err(SoakError::Control(e)),
        }
    }
}

struct ClientTally {
    completed: AtomicU64,
    dropped: AtomicU64,
    io_errors: AtomicU64,
    retried: AtomicU64,
}

fn client_loop(
    addr: std::net::SocketAddr,
    client_id: u64,
    cfg: &SoakConfig,
    tally: &ClientTally,
    start: &Barrier,
) {
    start.wait();
    let Ok(mut conn) = TcpStream::connect(addr) else {
        tally
            .io_errors
            .fetch_add(cfg.requests_per_client as u64, Ordering::SeqCst);
        return;
    };
    // Generous read timeout: the frontend answers within the budget plus
    // scheduling noise; a silent submit is exactly what the gate hunts.
    if conn.set_nodelay(true).is_err()
        || conn
            .set_read_timeout(Some(Duration::from_secs(30)))
            .is_err()
    {
        tally
            .io_errors
            .fetch_add(cfg.requests_per_client as u64, Ordering::SeqCst);
        return;
    }
    for i in 0..cfg.requests_per_client {
        let request = (client_id << 32) | i as u64;
        let session = (i as u32) % cfg.sessions.max(1);
        let submit = Msg::Submit {
            request,
            session,
            budget_us: cfg.budget.as_micros(),
        };
        if write_frame(&mut conn, &submit).is_err() {
            tally.io_errors.fetch_add(1, Ordering::SeqCst);
            continue;
        }
        match read_frame(&mut conn) {
            Ok(Msg::Done {
                request: r,
                verdict,
                retried,
                ..
            }) if r == request => {
                match verdict {
                    Verdict::Completed => tally.completed.fetch_add(1, Ordering::SeqCst),
                    Verdict::Dropped(_) => tally.dropped.fetch_add(1, Ordering::SeqCst),
                };
                if retried {
                    tally.retried.fetch_add(1, Ordering::SeqCst);
                }
            }
            _ => {
                tally.io_errors.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread::sleep(cfg.pacing);
    }
}

/// Runs one soak to completion and reports what happened. All spawned
/// threads are joined before this returns, pass or fail.
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, SoakError> {
    assert!(cfg.backends >= 1, "need at least one backend");
    assert!(cfg.sessions >= 1, "need at least one session");

    let backends: Vec<BackendHandle> = (0..cfg.backends)
        .map(|_| spawn_backend(InstantModel))
        .collect::<io::Result<_>>()?;
    let slos = vec![cfg.slo(); cfg.sessions as usize];
    let frontend = spawn_frontend(FrontendConfig {
        backends: backends.iter().map(|b| b.addr).collect(),
        registry: RegistryConfig {
            probe_interval: Micros::from_millis(50),
            ..RegistryConfig::default()
        },
        sunset_grace: Micros::from_secs(1),
        slos,
    })?;

    // Epoch 1: every session on every backend.
    let all: Vec<u32> = (0..cfg.backends as u32).collect();
    push_epoch(&frontend, 1, cfg.sessions, &all)?;
    let mut pushed_epochs = vec![1u64];

    let tally = Arc::new(ClientTally {
        completed: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
        io_errors: AtomicU64::new(0),
        retried: AtomicU64::new(0),
    });
    let start = Arc::new(Barrier::new(cfg.clients));
    let cfg_arc = Arc::new(cfg.clone());
    let addr = frontend.addr;
    let clients: Vec<_> = (0..cfg.clients)
        .map(|c| {
            let tally = Arc::clone(&tally);
            let start = Arc::clone(&start);
            let cfg = Arc::clone(&cfg_arc);
            thread::Builder::new()
                .name(format!("soak-client-{c}"))
                .spawn(move || client_loop(addr, c as u64, &cfg, &tally, &start))
                .expect("spawn soak client")
        })
        .collect();

    // Chaos, landed mid-traffic: wait for half the submits, then kill
    // one backend and push the epoch that routes around it.
    if let Some(victim) = cfg.kill_backend {
        let half = (cfg.clients * cfg.requests_per_client) as u64 / 2;
        while frontend.stats().submitted < half {
            thread::sleep(Duration::from_millis(2));
        }
        backends[victim].kill();
        // Let traffic hit the corpse before the scheduler reacts: this
        // window is where the retry path and the prober's
        // healthy→suspect→dead walk earn their keep. Without it the
        // epoch push lands so fast nothing ever routes to the dead
        // backend.
        thread::sleep(Duration::from_millis(150));
        if cfg.push_second_epoch {
            let survivors: Vec<u32> = (0..cfg.backends as u32)
                .filter(|&b| b as usize != victim)
                .collect();
            push_epoch(&frontend, 2, cfg.sessions, &survivors)?;
            pushed_epochs.push(2);
        }
    }

    for c in clients {
        let _ = c.join();
    }

    let stats = frontend.stats();
    let applied_epochs = frontend.applied_epochs();
    let frontend_handlers_joined = frontend.shutdown();
    let backend_handlers_joined = backends.into_iter().map(BackendHandle::shutdown).sum();

    Ok(SoakReport {
        stats,
        client_completed: tally.completed.load(Ordering::SeqCst),
        client_dropped: tally.dropped.load(Ordering::SeqCst),
        client_io_errors: tally.io_errors.load(Ordering::SeqCst),
        applied_epochs,
        pushed_epochs,
        frontend_handlers_joined,
        backend_handlers_joined,
    })
}
