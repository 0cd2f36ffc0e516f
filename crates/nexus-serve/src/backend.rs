//! A minimal networked backend: accepts framed connections, answers
//! pings, executes requests under a pluggable cost model.
//!
//! This is the serving-side stand-in for a GPU node. The interesting
//! failure machinery lives on the frontend; the backend's job is to be
//! killable: [`BackendHandle::kill`] makes it refuse new connections and
//! abandon existing ones mid-stream, exactly the silhouette a crashed
//! node presents to the prober, while [`BackendHandle::shutdown`] joins
//! every thread it ever spawned so a test can assert nothing leaked.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::proto::{read_frame, wake_and_join_accept, write_frame, Msg, ProtoError};

/// How a backend turns a request's nominal cost into wall-clock work.
pub trait BackendModel: Send + Sync + 'static {
    /// Executes one request; returns whether it succeeded.
    fn execute(&self, session: u32, cost_us: u64) -> bool;
}

/// Completes instantly — for tests and CI soaks where real sleeping
/// would only slow the gate down.
pub struct InstantModel;

impl BackendModel for InstantModel {
    fn execute(&self, _session: u32, _cost_us: u64) -> bool {
        true
    }
}

/// Sleeps `cost_us × scale`, the same trick the in-process live runtime
/// uses to emulate GPU occupancy without a GPU.
pub struct ScaledSleepModel {
    /// Multiplier on the nominal cost (1.0 = sleep the full cost).
    pub scale: f64,
}

impl BackendModel for ScaledSleepModel {
    fn execute(&self, _session: u32, cost_us: u64) -> bool {
        let us = (cost_us as f64 * self.scale) as u64;
        if us > 0 {
            thread::sleep(Duration::from_micros(us));
        }
        true
    }
}

/// Per-connection read timeout; bounds how long a handler thread takes
/// to notice a shutdown or kill flag.
const READ_POLL: Duration = Duration::from_millis(25);

struct Shared {
    model: Box<dyn BackendModel>,
    /// Hard-kill flag: stop accepting, abandon live connections.
    killed: AtomicBool,
    /// Clean-shutdown flag: drain and exit.
    shutdown: AtomicBool,
    /// Extra artificial latency per request, µs (fault injection knob).
    exec_delay_us: AtomicU64,
    /// Requests executed.
    executed: AtomicU64,
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

/// A running backend and the knobs a test harness needs.
pub struct BackendHandle {
    /// The address the backend listens on.
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl BackendHandle {
    /// Simulates a crash: refuse new connections, abandon current ones.
    /// The process-level resources are reclaimed later by
    /// [`BackendHandle::shutdown`].
    pub fn kill(&self) {
        self.shared.killed.store(true, Ordering::SeqCst);
    }

    /// Whether [`BackendHandle::kill`] was called.
    pub fn is_killed(&self) -> bool {
        self.shared.killed.load(Ordering::SeqCst)
    }

    /// Injects `us` of extra latency into every subsequent execution —
    /// the slow-loris knob.
    pub fn set_exec_delay_us(&self, us: u64) {
        self.shared.exec_delay_us.store(us, Ordering::SeqCst);
    }

    /// Requests executed so far.
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Stops the backend and joins every thread it spawned. Returns the
    /// number of handler threads reaped (accept thread not included).
    pub fn shutdown(mut self) -> usize {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            wake_and_join_accept(self.addr, t);
        }
        let handlers =
            std::mem::take(&mut *self.shared.handlers.lock().expect("handler list poisoned"));
        let n = handlers.len();
        for h in handlers {
            let _ = h.join();
        }
        n
    }
}

/// Spawns a backend listening on `127.0.0.1:0` (kernel-assigned port).
pub fn spawn_backend(model: impl BackendModel) -> io::Result<BackendHandle> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        model: Box::new(model),
        killed: AtomicBool::new(false),
        shutdown: AtomicBool::new(false),
        exec_delay_us: AtomicU64::new(0),
        executed: AtomicU64::new(0),
        handlers: Mutex::new(Vec::new()),
    });
    let accept_shared = Arc::clone(&shared);
    let accept_thread = thread::Builder::new()
        .name(format!("backend-accept-{}", addr.port()))
        .spawn(move || accept_loop(listener, accept_shared))?;
    Ok(BackendHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    // Blocking accept: `shutdown` wakes it with a connect of its own.
    while let Ok((stream, _)) = listener.accept() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // A killed backend accepts nothing: drop the socket on the floor
        // like a crashed process would.
        if shared.killed.load(Ordering::SeqCst) || stream.set_nodelay(true).is_err() {
            continue;
        }
        let conn_shared = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name("backend-conn".into())
            .spawn(move || handle_conn(stream, conn_shared))
            .expect("spawn backend connection handler");
        let mut handlers = shared.handlers.lock().expect("handler list poisoned");
        // Opportunistically reap finished handlers so a long soak with
        // many short probe connections stays bounded.
        handlers.retain(|h| !h.is_finished());
        handlers.push(handle);
    }
}

fn handle_conn(mut stream: TcpStream, shared: Arc<Shared>) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    loop {
        if shared.shutdown.load(Ordering::SeqCst) || shared.killed.load(Ordering::SeqCst) {
            return;
        }
        let msg = match read_frame(&mut stream) {
            Ok(m) => m,
            // Timeout: just a quiet peer; re-check the flags and wait on.
            Err(ProtoError::Io(io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)) => continue,
            // EOF, reset, or a malformed frame: the connection is done.
            Err(_) => return,
        };
        // A kill that landed while we were blocked reading must win: a
        // crashed process answers nothing it had not already answered.
        if shared.killed.load(Ordering::SeqCst) {
            return;
        }
        let reply = match msg {
            Msg::Ping { seq } => Msg::Pong { seq },
            Msg::Exec {
                request,
                session,
                cost_us,
            } => {
                let extra = shared.exec_delay_us.load(Ordering::SeqCst);
                if extra > 0 {
                    thread::sleep(Duration::from_micros(extra));
                }
                // Re-check for a kill that landed while we slept: a
                // crashed node never answers.
                if shared.killed.load(Ordering::SeqCst) {
                    return;
                }
                let ok = shared.model.execute(session, cost_us);
                shared.executed.fetch_add(1, Ordering::Relaxed);
                Msg::ExecDone { request, ok }
            }
            // Anything else is a protocol violation from the peer.
            _ => return,
        };
        if write_frame(&mut stream, &reply).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connect(addr: SocketAddr) -> TcpStream {
        let s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        s
    }

    #[test]
    fn pings_and_execs_round_trip() {
        let backend = spawn_backend(InstantModel).expect("spawn");
        let mut conn = connect(backend.addr);
        write_frame(&mut conn, &Msg::Ping { seq: 9 }).expect("ping");
        assert_eq!(read_frame(&mut conn).expect("pong"), Msg::Pong { seq: 9 });
        write_frame(
            &mut conn,
            &Msg::Exec {
                request: 1,
                session: 0,
                cost_us: 100,
            },
        )
        .expect("exec");
        assert_eq!(
            read_frame(&mut conn).expect("done"),
            Msg::ExecDone {
                request: 1,
                ok: true
            }
        );
        assert_eq!(backend.executed(), 1);
        drop(conn);
        backend.shutdown();
    }

    #[test]
    fn a_killed_backend_goes_silent_but_still_joins_cleanly() {
        let backend = spawn_backend(InstantModel).expect("spawn");
        let mut conn = connect(backend.addr);
        write_frame(&mut conn, &Msg::Ping { seq: 1 }).expect("ping");
        read_frame(&mut conn).expect("pong");

        backend.kill();
        // The live connection is abandoned: the next request gets EOF or
        // a timeout, never an answer.
        write_frame(&mut conn, &Msg::Ping { seq: 2 }).ok();
        assert!(read_frame(&mut conn).is_err());
        // New connections are accepted-and-dropped or refused.
        let mut probe = connect(backend.addr);
        write_frame(&mut probe, &Msg::Ping { seq: 3 }).ok();
        assert!(read_frame(&mut probe).is_err());

        backend.shutdown();
    }
}
