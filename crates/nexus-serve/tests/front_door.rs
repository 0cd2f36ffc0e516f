//! End-to-end front-door tests over real localhost sockets: paced
//! multi-client traffic, a backend killed mid-run, a routing epoch
//! pushed mid-traffic, and the full accounting/shutdown contract.

use std::net::TcpStream;
use std::time::Duration;

use nexus_profile::Micros;
use nexus_serve::proto::{read_frame, write_frame, Msg, Verdict};
use nexus_serve::{run_soak, Liveness, SoakConfig};

#[test]
fn a_quiet_run_completes_everything_and_shuts_down_clean() {
    let report = run_soak(&SoakConfig {
        backends: 2,
        clients: 8,
        requests_per_client: 10,
        kill_backend: None,
        push_second_epoch: false,
        ..SoakConfig::default()
    })
    .expect("soak runs");
    assert!(report.passed(), "{:?}", report.violation());
    assert_eq!(report.stats.submitted, 80);
    assert_eq!(report.stats.completed, 80, "no chaos, no drops");
    assert_eq!(report.applied_epochs, vec![1]);
    assert_eq!(report.stats.budget_violations, 0);
}

#[test]
fn killing_a_backend_mid_traffic_keeps_every_request_accounted() {
    let report = run_soak(&SoakConfig {
        backends: 3,
        clients: 24,
        requests_per_client: 30,
        kill_backend: Some(1),
        push_second_epoch: true,
        ..SoakConfig::default()
    })
    .expect("soak runs");

    assert!(report.passed(), "{:?}", report.violation());
    // The epoch pushed mid-traffic landed, in order, with none dropped.
    assert_eq!(report.applied_epochs, vec![1, 2]);
    // Chaos really happened and the door held: the overwhelming majority
    // of requests completed (the kill window can strand at most the
    // requests in flight against the dead backend before detection).
    let s = &report.stats;
    assert!(
        s.completed as f64 >= 0.9 * s.submitted as f64,
        "completed {} of {}",
        s.completed,
        s.submitted
    );
    // Nothing that completed overran its budget — a retry either fit or
    // was dropped as Stranded.
    assert_eq!(s.budget_violations, 0);
}

#[test]
fn the_prober_walks_a_killed_backend_to_dead() {
    use nexus_serve::{
        spawn_backend, spawn_frontend, FrontendConfig, InstantModel, RegistryConfig, SessionSlo,
    };

    let backend = spawn_backend(InstantModel).expect("backend");
    let frontend = spawn_frontend(FrontendConfig {
        backends: vec![backend.addr],
        registry: RegistryConfig {
            probe_interval: Micros::from_millis(20),
            ..RegistryConfig::default()
        },
        sunset_grace: Micros::from_millis(100),
        slos: vec![SessionSlo {
            slo: Micros::from_millis(100),
            ell_min: Micros::from_micros(200),
            ell_b: Micros::from_micros(400),
            batch: 8,
        }],
    })
    .expect("frontend");

    // Healthy while the backend answers.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(frontend.liveness(0), Liveness::Healthy);

    // Kill it; within a few probe intervals the registry walks
    // Healthy → Suspect → Dead.
    backend.kill();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while frontend.liveness(0) != Liveness::Dead {
        assert!(
            std::time::Instant::now() < deadline,
            "backend never declared dead; stuck at {:?}",
            frontend.liveness(0)
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Every transition the prober recorded is an edge of the machine.
    let transitions = frontend.transitions();
    assert!(!transitions.is_empty());
    for t in &transitions {
        assert!(
            nexus_serve::registry::valid_edge(t.from, t.to),
            "invalid edge {t:?}"
        );
    }

    frontend.shutdown();
    backend.shutdown();
}

#[test]
fn submits_for_unknown_sessions_drop_with_no_route() {
    use nexus_serve::{
        spawn_backend, spawn_frontend, FrontendConfig, InstantModel, RegistryConfig, SessionSlo,
    };

    let backend = spawn_backend(InstantModel).expect("backend");
    let frontend = spawn_frontend(FrontendConfig {
        backends: vec![backend.addr],
        registry: RegistryConfig::default(),
        sunset_grace: Micros::from_millis(100),
        slos: vec![SessionSlo {
            slo: Micros::from_millis(100),
            ell_min: Micros::from_micros(200),
            ell_b: Micros::from_micros(400),
            batch: 8,
        }],
    })
    .expect("frontend");

    let mut conn = TcpStream::connect(frontend.addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // Session 7 exists in no SLO table and no routing table.
    write_frame(
        &mut conn,
        &Msg::Submit {
            request: 1,
            session: 7,
            budget_us: 100_000,
        },
    )
    .expect("submit");
    match read_frame(&mut conn).expect("done") {
        Msg::Done {
            request: 1,
            verdict: Verdict::Dropped(cause),
            retried: false,
            ..
        } => assert_eq!(cause, nexus_runtime::DropCause::NoRoute),
        other => panic!("unexpected reply: {other:?}"),
    }
    // A known session with no routing table yet is also NoRoute: the
    // frontend has not been given epoch 1.
    write_frame(
        &mut conn,
        &Msg::Submit {
            request: 2,
            session: 0,
            budget_us: 100_000,
        },
    )
    .expect("submit");
    match read_frame(&mut conn).expect("done") {
        Msg::Done {
            request: 2,
            verdict: Verdict::Dropped(cause),
            ..
        } => assert_eq!(cause, nexus_runtime::DropCause::NoRoute),
        other => panic!("unexpected reply: {other:?}"),
    }

    let stats = frontend.stats();
    assert!(stats.accounted());
    assert_eq!(stats.completed, 0);
    drop(conn);
    frontend.shutdown();
    backend.shutdown();
}

mod dispatch_connections {
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    use nexus_profile::Micros;
    use nexus_runtime::DropCause;
    use nexus_serve::proto::{read_frame, write_frame, Msg, Verdict};
    use nexus_serve::{
        spawn_backend, spawn_frontend, BackendHandle, FrontendConfig, FrontendHandle, InstantModel,
        RegistryConfig, SessionSlo,
    };

    const BUDGET_US: u64 = 100_000;

    /// A frontend over `backends` serving one session routed to all of
    /// them under epoch 1, and a client connection to it.
    fn serve(backends: &[BackendHandle]) -> (FrontendHandle, TcpStream) {
        let frontend = spawn_frontend(FrontendConfig {
            backends: backends.iter().map(|b| b.addr).collect(),
            registry: RegistryConfig::default(),
            sunset_grace: Micros::from_millis(100),
            // λ* far above what one client's back-to-back submits reach:
            // these tests are about connections, not admission.
            slos: vec![SessionSlo {
                slo: Micros::from_micros(BUDGET_US),
                ell_min: Micros::from_micros(200),
                ell_b: Micros::from_micros(400),
                batch: 64,
            }],
        })
        .expect("frontend");
        push_epoch(frontend.addr, (0..backends.len() as u32).collect());
        let conn = TcpStream::connect(frontend.addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        (frontend, conn)
    }

    fn push_epoch(addr: SocketAddr, backends: Vec<u32>) {
        let mut conn = TcpStream::connect(addr).expect("control connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        write_frame(&mut conn, &Msg::EpochBegin { epoch: 1 }).expect("begin");
        write_frame(
            &mut conn,
            &Msg::EpochRoute {
                session: 0,
                backends,
            },
        )
        .expect("route");
        write_frame(&mut conn, &Msg::EpochCommit { epoch: 1 }).expect("commit");
        assert_eq!(
            read_frame(&mut conn).expect("ack"),
            Msg::EpochAck { epoch: 1 }
        );
    }

    /// Submits `request` for session 0 and returns its verdict and
    /// whether it was retried, checking the reply is its own.
    fn submit(conn: &mut TcpStream, request: u64) -> (Verdict, bool) {
        let submit = Msg::Submit {
            request,
            session: 0,
            budget_us: BUDGET_US,
        };
        write_frame(conn, &submit).expect("submit");
        match read_frame(conn).expect("done") {
            Msg::Done {
                request: r,
                verdict,
                retried,
                ..
            } => {
                assert_eq!(r, request, "answer belongs to another request");
                (verdict, retried)
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }

    fn shutdown(frontend: FrontendHandle, conn: TcpStream, backends: Vec<BackendHandle>) {
        drop(conn);
        frontend.shutdown();
        for b in backends {
            b.shutdown();
        }
    }

    #[test]
    fn sequential_submits_open_at_most_one_connection_per_backend() {
        let backends: Vec<_> = (0..3)
            .map(|_| spawn_backend(InstantModel).expect("backend"))
            .collect();
        let (frontend, mut conn) = serve(&backends);
        for request in 0..40 {
            assert_eq!(submit(&mut conn, request), (Verdict::Completed, false));
        }
        let stats = frontend.stats();
        assert_eq!(stats.completed, 40);
        assert!(
            stats.dispatch_connects <= 3,
            "{} dispatch connections for 3 backends",
            stats.dispatch_connects
        );
        shutdown(frontend, conn, backends);
    }

    #[test]
    fn a_killed_backend_behind_a_warm_connection_fails_over_by_retry() {
        let backends: Vec<_> = (0..2)
            .map(|_| spawn_backend(InstantModel).expect("backend"))
            .collect();
        let (frontend, mut conn) = serve(&backends);
        // Warm both backends' pooled connections.
        for request in 0..4 {
            assert_eq!(submit(&mut conn, request), (Verdict::Completed, false));
        }
        assert_eq!(frontend.stats().dispatch_connects, 2);

        backends[0].kill();
        // Round robin sends one of the next two submits to the corpse
        // over its pooled connection; that one completes on the other
        // backend by retry.
        let answers: Vec<_> = (4..6).map(|request| submit(&mut conn, request)).collect();
        assert!(
            answers.iter().all(|&(v, _)| v == Verdict::Completed),
            "{answers:?}"
        );
        assert!(answers.iter().any(|&(_, retried)| retried), "{answers:?}");
        let stats = frontend.stats();
        assert!(stats.retried >= 1);
        assert_eq!(stats.budget_violations, 0);
        shutdown(frontend, conn, backends);
    }

    #[test]
    fn a_timed_out_dispatch_discards_its_connection() {
        let backends = vec![spawn_backend(InstantModel).expect("backend")];
        let (frontend, mut conn) = serve(&backends);
        assert_eq!(submit(&mut conn, 1), (Verdict::Completed, false));

        // The backend now answers only after the budget has run out: the
        // only backend times out, nothing is left to retry on.
        backends[0].set_exec_delay_us(2 * BUDGET_US);
        assert_eq!(
            submit(&mut conn, 2),
            (Verdict::Dropped(DropCause::Stranded), false)
        );

        // Were the timed-out connection pooled again, this submit would
        // read request 2's late answer; `submit` checks the id.
        backends[0].set_exec_delay_us(0);
        assert_eq!(submit(&mut conn, 3), (Verdict::Completed, false));
        let stats = frontend.stats();
        assert_eq!(
            stats.dispatch_connects, 2,
            "the timed-out socket was reused"
        );
        assert!(stats.accounted());
        shutdown(frontend, conn, backends);
    }
}
