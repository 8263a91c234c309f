//! TCP front-end: [`serve`] exposes a [`SolveService`] over the v3
//! multiplexed wire protocol, and [`ServiceClient`] drives it.
//!
//! Threading model: one **scheduler thread** owns the service and every
//! connection's write half, so all scheduling and all responses are
//! single-threaded and deterministic with respect to command arrival
//! order. Each connection gets a **reader thread** that decodes
//! [`Mux<ServiceFrame>`] frames and forwards them over a channel; an
//! **accept thread** admits connections until drain. Session results
//! are routed back to the connection that submitted the session; a
//! dropped connection cancels its in-flight sessions to free capacity.
//!
//! This is the one real-time module of the crate (sockets, timeouts,
//! thread sleeps) — everything it wraps stays on the virtual clock.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use discsp_core::DistributedCsp;
use discsp_net::{
    FrameConn, Mux, NetError, RejectReason, ServiceFrame, SessionOutcome, SubmitSpec, SESSION_NONE,
};
use discsp_runtime::VirtualConfig;

use crate::service::{ServiceConfig, SolveService};
use crate::session::SessionSpec;
use crate::{ServiceError, SessionId};

/// Knobs for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Scheduler configuration for the underlying [`SolveService`].
    pub service: ServiceConfig,
    /// I/O timeout applied to response writes (`ZERO` blocks forever).
    /// A client that stops reading fails its own connection instead of
    /// wedging the scheduler.
    pub io_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            service: ServiceConfig::default(),
            io_timeout: Duration::from_secs(5),
        }
    }
}

/// A handle on a running service: its bound address and its scheduler
/// thread. The thread exits after a drain completes.
pub struct ServiceHandle {
    addr: SocketAddr,
    thread: JoinHandle<()>,
}

impl ServiceHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the scheduler to exit (it does after a client-issued
    /// drain finishes).
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// What reader threads feed the scheduler.
enum Cmd {
    /// A new connection's write half.
    Conn { conn: u64, writer: FrameConn },
    /// A decoded frame from a connection. Boxed: a `Submit` carries the
    /// whole problem, dwarfing the other variants.
    Frame {
        conn: u64,
        session: u64,
        frame: Box<ServiceFrame>,
    },
    /// A connection's read half died (closed or garbage).
    Gone { conn: u64 },
}

/// Builds the in-process [`SessionSpec`] a wire [`SubmitSpec`] denotes.
///
/// # Errors
///
/// [`ServiceError::BadSpec`] when the problem fails to build (owner /
/// domain mismatch, malformed nogood, out-of-domain initial value is
/// caught later by the solver).
fn session_spec(spec: &SubmitSpec) -> Result<SessionSpec, ServiceError> {
    if spec.domains.len() != spec.owners.len() {
        return Err(ServiceError::BadSpec {
            detail: format!(
                "{} domains but {} owners",
                spec.domains.len(),
                spec.owners.len()
            ),
        });
    }
    let mut builder = DistributedCsp::builder();
    for (domain, owner) in spec.domains.iter().zip(&spec.owners) {
        builder.variable_owned_by(*domain, *owner);
    }
    for nogood in &spec.nogoods {
        builder
            .nogood(nogood.clone())
            .map_err(|e| ServiceError::BadSpec {
                detail: e.to_string(),
            })?;
    }
    let problem = builder.build().map_err(|e| ServiceError::BadSpec {
        detail: e.to_string(),
    })?;
    Ok(SessionSpec {
        problem,
        init: spec.init.clone(),
        algo: spec.algo,
        config: VirtualConfig {
            seed: spec.seed,
            link: spec.link,
            schedule: None,
            max_ticks: spec.max_ticks,
            max_nudges: spec.max_nudges,
            // Mirror the in-process runtimes: AWC terminates on
            // quiescence; `build_pump` forces this on for breakout.
            stop_on_first_solution: false,
            record_trace: spec.record_trace,
        },
    })
}

fn reject_reason(err: &ServiceError) -> RejectReason {
    match err {
        ServiceError::Overloaded => RejectReason::Overloaded,
        ServiceError::Draining => RejectReason::Draining,
        ServiceError::DuplicateSession { .. } => RejectReason::DuplicateSession,
        _ => RejectReason::BadSpec,
    }
}

/// Serves a [`SolveService`] on `listener` until a client drains it.
/// Returns immediately; the returned handle's thread runs the
/// scheduler.
///
/// # Errors
///
/// [`ServiceError::Net`] if the listener's address cannot be read or it
/// cannot be switched to non-blocking accepts.
pub fn serve(listener: TcpListener, options: ServeOptions) -> Result<ServiceHandle, ServiceError> {
    let addr = listener.local_addr().map_err(|error| NetError::Io {
        context: "reading the service listener address",
        error,
    })?;
    listener
        .set_nonblocking(true)
        .map_err(|error| NetError::Io {
            context: "switching the service listener to non-blocking accepts",
            error,
        })?;

    let (tx, rx) = mpsc::channel::<Cmd>();
    let stop = Arc::new(AtomicBool::new(false));

    let accept_stop = Arc::clone(&stop);
    let accept_tx = tx.clone();
    let io_timeout = options.io_timeout;
    thread::spawn(move || {
        let mut next_conn: u64 = 0;
        while !accept_stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let conn = next_conn;
                    next_conn += 1;
                    let Ok(read_half) = stream.try_clone() else {
                        continue;
                    };
                    let Ok(writer) = FrameConn::new(stream, io_timeout) else {
                        continue;
                    };
                    // Reads block until the client sends or hangs up.
                    let Ok(mut reader) = FrameConn::new(read_half, Duration::ZERO) else {
                        continue;
                    };
                    if accept_tx.send(Cmd::Conn { conn, writer }).is_err() {
                        return;
                    }
                    let reader_tx = accept_tx.clone();
                    thread::spawn(move || loop {
                        match reader.recv::<Mux<ServiceFrame>>() {
                            Ok(mux) => {
                                if reader_tx
                                    .send(Cmd::Frame {
                                        conn,
                                        session: mux.session,
                                        frame: Box::new(mux.frame),
                                    })
                                    .is_err()
                                {
                                    return;
                                }
                            }
                            Err(_) => {
                                let _ = reader_tx.send(Cmd::Gone { conn });
                                return;
                            }
                        }
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(2));
                }
                Err(_) => return,
            }
        }
    });

    let service_config = options.service.clone();
    let scheduler = thread::spawn(move || {
        run_scheduler(SolveService::new(service_config), rx, &stop);
    });

    Ok(ServiceHandle {
        addr,
        thread: scheduler,
    })
}

/// The scheduler loop: ingest commands, sweep, deliver, drain.
fn run_scheduler(mut service: SolveService, rx: mpsc::Receiver<Cmd>, stop: &AtomicBool) {
    let mut writers: BTreeMap<u64, FrameConn> = BTreeMap::new();
    let mut owners: BTreeMap<SessionId, u64> = BTreeMap::new();
    let mut drainers: Vec<(u64, u64)> = Vec::new();

    loop {
        // Block briefly when idle instead of spinning; ingest
        // everything queued either way.
        if service.is_idle() && !service.is_drained() {
            match rx.recv_timeout(Duration::from_millis(10)) {
                Ok(cmd) => handle(cmd, &mut service, &mut writers, &mut owners, &mut drainers),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        while let Ok(cmd) = rx.try_recv() {
            handle(cmd, &mut service, &mut writers, &mut owners, &mut drainers);
        }

        if !service.is_idle() {
            service.sweep();
        }

        for (id, result) in service.take_completed() {
            let Some(conn) = owners.remove(&id) else {
                continue;
            };
            let outcome = SessionOutcome {
                metrics: result.report.outcome.metrics,
                solution: result.report.outcome.solution,
                ticks: result.report.ticks,
                activations: result.report.activations,
                nudges: result.report.nudges,
                trace: result.report.trace,
            };
            send_to(
                &mut writers,
                conn,
                &Mux::new(id, ServiceFrame::Done { outcome }),
            );
        }

        if service.is_drained() {
            for (conn, token) in drainers.drain(..) {
                send_to(&mut writers, conn, &Mux::new(token, ServiceFrame::Drained));
            }
            stop.store(true, Ordering::SeqCst);
            break;
        }
    }
    stop.store(true, Ordering::SeqCst);
}

fn send_to(writers: &mut BTreeMap<u64, FrameConn>, conn: u64, frame: &Mux<ServiceFrame>) {
    let Some(writer) = writers.get_mut(&conn) else {
        return;
    };
    if writer.send(frame).is_err() {
        writers.remove(&conn);
    }
}

fn handle(
    cmd: Cmd,
    service: &mut SolveService,
    writers: &mut BTreeMap<u64, FrameConn>,
    owners: &mut BTreeMap<SessionId, u64>,
    drainers: &mut Vec<(u64, u64)>,
) {
    match cmd {
        Cmd::Conn { conn, writer } => {
            writers.insert(conn, writer);
        }
        Cmd::Gone { conn } => {
            writers.remove(&conn);
            // Cancel the dead connection's sessions: nobody is left to
            // claim their results, and capacity matters under load.
            let orphaned: Vec<SessionId> = owners
                .iter()
                .filter(|(_, c)| **c == conn)
                .map(|(id, _)| *id)
                .collect();
            for id in orphaned {
                owners.remove(&id);
                let _ = service.cancel(id);
            }
        }
        Cmd::Frame {
            conn,
            session,
            frame,
        } => match *frame {
            ServiceFrame::Submit { spec } => {
                if session == SESSION_NONE {
                    // 0 marks a single-session peer; it cannot name
                    // a session.
                    send_to(
                        writers,
                        conn,
                        &Mux::new(
                            session,
                            ServiceFrame::Rejected {
                                reason: RejectReason::BadSpec,
                            },
                        ),
                    );
                    return;
                }
                let admitted = session_spec(&spec)
                    .and_then(|session_spec| service.submit(session, session_spec));
                let reply = match admitted {
                    Ok(()) => {
                        owners.insert(session, conn);
                        ServiceFrame::Accepted
                    }
                    Err(e) => ServiceFrame::Rejected {
                        reason: reject_reason(&e),
                    },
                };
                send_to(writers, conn, &Mux::new(session, reply));
            }
            ServiceFrame::Cancel => {
                let reply = match service.cancel(session) {
                    Ok(_snapshot) => {
                        owners.remove(&session);
                        ServiceFrame::Cancelled
                    }
                    Err(_) => ServiceFrame::Rejected {
                        reason: RejectReason::BadSpec,
                    },
                };
                send_to(writers, conn, &Mux::new(session, reply));
            }
            ServiceFrame::Drain => {
                service.begin_drain();
                drainers.push((conn, session));
            }
            // Response frames from a client are protocol noise.
            ServiceFrame::Accepted
            | ServiceFrame::Rejected { .. }
            | ServiceFrame::Done { .. }
            | ServiceFrame::Cancelled
            | ServiceFrame::Drained => {}
        },
    }
}

/// A blocking client for a served [`SolveService`]. One TCP connection
/// multiplexes any number of sessions; out-of-order [`ServiceFrame::Done`]
/// results are stashed until [`ServiceClient::wait`] claims them.
pub struct ServiceClient {
    conn: FrameConn,
    done: BTreeMap<u64, SessionOutcome>,
}

impl ServiceClient {
    /// Connects to a served address. Reads block until the service
    /// responds.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Net`] on connect or socket-option failure.
    pub fn connect(addr: SocketAddr) -> Result<Self, ServiceError> {
        let stream = TcpStream::connect(addr).map_err(|error| NetError::Io {
            context: "connecting to the solve service",
            error,
        })?;
        Ok(ServiceClient {
            conn: FrameConn::new(stream, Duration::ZERO)?,
            done: BTreeMap::new(),
        })
    }

    fn recv(&mut self) -> Result<Mux<ServiceFrame>, ServiceError> {
        Ok(self.conn.recv::<Mux<ServiceFrame>>()?)
    }

    fn stash(&mut self, session: u64, frame: ServiceFrame) {
        if let ServiceFrame::Done { outcome } = frame {
            self.done.insert(session, outcome);
        }
    }

    /// Submits a session and waits for its admission verdict.
    ///
    /// # Errors
    ///
    /// The service's rejection mapped back to a [`ServiceError`]
    /// (`Overloaded`, `Draining`, `DuplicateSession`, `BadSpec`), or
    /// [`ServiceError::Net`] on transport failure.
    pub fn submit(&mut self, session: u64, spec: &SubmitSpec) -> Result<(), ServiceError> {
        self.conn.send(&Mux::new(
            session,
            ServiceFrame::Submit { spec: spec.clone() },
        ))?;
        loop {
            let mux = self.recv()?;
            match mux.frame {
                ServiceFrame::Accepted if mux.session == session => return Ok(()),
                ServiceFrame::Rejected { reason } if mux.session == session => {
                    return Err(match reason {
                        RejectReason::Overloaded => ServiceError::Overloaded,
                        RejectReason::Draining => ServiceError::Draining,
                        RejectReason::DuplicateSession => {
                            ServiceError::DuplicateSession { id: session }
                        }
                        RejectReason::BadSpec => ServiceError::BadSpec {
                            detail: "rejected by the service".into(),
                        },
                    });
                }
                frame => self.stash(mux.session, frame),
            }
        }
    }

    /// Waits for a submitted session's result.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Net`] on transport failure (including the
    /// service hanging up before the result arrives).
    pub fn wait(&mut self, session: u64) -> Result<SessionOutcome, ServiceError> {
        loop {
            if let Some(outcome) = self.done.remove(&session) {
                return Ok(outcome);
            }
            let mux = self.recv()?;
            let frame_session = mux.session;
            self.stash(frame_session, mux.frame);
        }
    }

    /// Cancels a live session.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when the service does not know
    /// it; [`ServiceError::Net`] on transport failure.
    pub fn cancel(&mut self, session: u64) -> Result<(), ServiceError> {
        self.conn.send(&Mux::new(session, ServiceFrame::Cancel))?;
        loop {
            let mux = self.recv()?;
            match mux.frame {
                ServiceFrame::Cancelled if mux.session == session => return Ok(()),
                ServiceFrame::Rejected { .. } if mux.session == session => {
                    return Err(ServiceError::UnknownSession { id: session });
                }
                frame => self.stash(mux.session, frame),
            }
        }
    }

    /// Asks the service to drain and waits until it has: every
    /// in-flight session finishes (their results are stashed for
    /// [`ServiceClient::wait`]), then the service confirms and shuts
    /// down. `token` correlates the confirmation; any value works.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Net`] on transport failure.
    pub fn drain(&mut self, token: u64) -> Result<(), ServiceError> {
        self.conn.send(&Mux::new(token, ServiceFrame::Drain))?;
        loop {
            let mux = self.recv()?;
            match mux.frame {
                ServiceFrame::Drained if mux.session == token => return Ok(()),
                frame => self.stash(mux.session, frame),
            }
        }
    }
}
