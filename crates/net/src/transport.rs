//! Socket-level plumbing: framed connections, handshake accept loop,
//! connect-with-retry.
//!
//! This is the only module in the crate that touches the wall clock
//! (`Instant::now` for the accept deadline, socket timeouts): everything
//! above it reasons in virtual ticks. It is exempted from the workspace
//! D2 rule by name, exactly like the virtual link layer's single
//! sanctioned clock site — see `discsp-lint`'s `D2_EXEMPT_NET_TRANSPORT`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use discsp_core::Wire;

use crate::frame::MAX_FRAME_LEN;
use crate::NetError;

/// A wall-clock budget shared across the phases of session setup, so
/// the accept loop and the per-connection `Hello` exchanges together
/// cannot exceed one handshake window — a client that connects and then
/// stalls burns the same budget as one that never connects.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    give_up: Instant,
}

impl Deadline {
    /// Starts a budget of `total` from now.
    pub fn new(total: Duration) -> Self {
        Deadline {
            give_up: Instant::now() + total,
        }
    }

    /// Time left, or `None` once the budget is spent.
    pub fn remaining(&self) -> Option<Duration> {
        let now = Instant::now();
        if now >= self.give_up {
            None
        } else {
            Some(self.give_up - now)
        }
    }
}

/// A TCP stream carrying length-prefixed [`Wire`] frames.
///
/// Every frame travels as a little-endian `u32` byte length followed by
/// the frame body (which itself starts with the version byte and tag —
/// see [`crate::frame`]). Lengths above [`MAX_FRAME_LEN`] are rejected
/// on both send and receive, so a corrupt prefix cannot provoke a
/// runaway allocation.
#[derive(Debug)]
pub struct FrameConn {
    stream: TcpStream,
}

impl FrameConn {
    /// Wraps a connected stream, applying `io_timeout` to every read
    /// and write. `Duration::ZERO` means block indefinitely.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the socket options cannot be set.
    pub fn new(stream: TcpStream, io_timeout: Duration) -> Result<Self, NetError> {
        let timeout = if io_timeout.is_zero() {
            None
        } else {
            Some(io_timeout)
        };
        stream.set_nodelay(true).map_err(|error| NetError::Io {
            context: "disabling Nagle on a session socket",
            error,
        })?;
        stream
            .set_read_timeout(timeout)
            .map_err(|error| NetError::Io {
                context: "setting the read timeout",
                error,
            })?;
        stream
            .set_write_timeout(timeout)
            .map_err(|error| NetError::Io {
                context: "setting the write timeout",
                error,
            })?;
        Ok(FrameConn { stream })
    }

    /// Re-arms the read/write timeout on the live connection.
    /// `Duration::ZERO` means block indefinitely. The coordinator uses
    /// this to bound the `Hello` phase by the handshake deadline, then
    /// restore the session's normal I/O timeout.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the socket options cannot be set.
    pub fn set_io_timeout(&mut self, io_timeout: Duration) -> Result<(), NetError> {
        let timeout = if io_timeout.is_zero() {
            None
        } else {
            Some(io_timeout)
        };
        self.stream
            .set_read_timeout(timeout)
            .map_err(|error| NetError::Io {
                context: "re-arming the read timeout",
                error,
            })?;
        self.stream
            .set_write_timeout(timeout)
            .map_err(|error| NetError::Io {
                context: "re-arming the write timeout",
                error,
            })
    }

    /// Sends one frame: length prefix, then the encoded body.
    ///
    /// # Errors
    ///
    /// [`NetError::FrameTooLong`] if the encoded body exceeds
    /// [`MAX_FRAME_LEN`]; [`NetError::Io`] on socket failure.
    pub fn send<F: Wire>(&mut self, frame: &F) -> Result<(), NetError> {
        let body = frame.to_bytes();
        let len = body.len() as u64;
        if len > MAX_FRAME_LEN {
            return Err(NetError::FrameTooLong { len });
        }
        self.stream
            .write_all(&(len as u32).to_le_bytes())
            .and_then(|()| self.stream.write_all(&body))
            .map_err(|error| NetError::Io {
                context: "sending a frame",
                error,
            })
    }

    /// Receives one frame, blocking up to the configured timeout.
    ///
    /// # Errors
    ///
    /// [`NetError::FrameTooLong`] if the announced length exceeds
    /// [`MAX_FRAME_LEN`]; [`NetError::Wire`] if the body fails to
    /// decode; [`NetError::Io`] on socket failure or timeout.
    pub fn recv<F: Wire>(&mut self) -> Result<F, NetError> {
        let mut prefix = [0u8; 4];
        self.stream
            .read_exact(&mut prefix)
            .map_err(|error| NetError::Io {
                context: "reading a frame length prefix",
                error,
            })?;
        let len = u64::from(u32::from_le_bytes(prefix));
        if len > MAX_FRAME_LEN {
            return Err(NetError::FrameTooLong { len });
        }
        let mut body = vec![0u8; len as usize];
        self.stream
            .read_exact(&mut body)
            .map_err(|error| NetError::Io {
                context: "reading a frame body",
                error,
            })?;
        Ok(F::from_bytes(&body)?)
    }
}

/// Accepts exactly `expected` connections within the shared `deadline`,
/// returning them in arrival order (the handshake, not arrival order,
/// assigns agent indices). The caller passes the same [`Deadline`] to
/// the `Hello` phase, so connect time and greeting time draw on one
/// budget.
///
/// # Errors
///
/// [`NetError::HandshakeTimeout`] if fewer than `expected` agents
/// connect in time; [`NetError::Io`] on listener failure.
pub fn accept_agents(
    listener: &TcpListener,
    expected: usize,
    deadline: &Deadline,
) -> Result<Vec<TcpStream>, NetError> {
    listener
        .set_nonblocking(true)
        .map_err(|error| NetError::Io {
            context: "switching the listener to non-blocking accept",
            error,
        })?;
    let mut accepted = Vec::with_capacity(expected);
    while accepted.len() < expected {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Accepted sockets may inherit the listener's
                // non-blocking mode; the session needs blocking reads.
                stream
                    .set_nonblocking(false)
                    .map_err(|error| NetError::Io {
                        context: "restoring blocking mode on an accepted socket",
                        error,
                    })?;
                accepted.push(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if deadline.remaining().is_none() {
                    return Err(NetError::HandshakeTimeout {
                        connected: accepted.len(),
                        expected,
                    });
                }
                thread::sleep(Duration::from_millis(5));
            }
            Err(error) => {
                return Err(NetError::Io {
                    context: "accepting an agent connection",
                    error,
                })
            }
        }
    }
    Ok(accepted)
}

/// Connects to the coordinator, retrying while it may still be binding
/// its listener.
///
/// # Errors
///
/// [`NetError::Io`] with the last connect error once `attempts` are
/// exhausted.
pub fn connect_with_retry(
    addr: SocketAddr,
    attempts: u32,
    backoff: Duration,
) -> Result<TcpStream, NetError> {
    let mut last = None;
    for attempt in 0..attempts.max(1) {
        if attempt > 0 {
            thread::sleep(backoff);
        }
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(error) => last = Some(error),
        }
    }
    Err(NetError::Io {
        context: "connecting to the coordinator",
        error: last.unwrap_or_else(|| std::io::Error::other("no connection attempts made")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::SetupFrame;

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server)
    }

    #[test]
    fn frames_survive_a_real_socket() {
        let (client, server) = loopback_pair();
        let mut tx = FrameConn::new(client, Duration::from_secs(5)).expect("tx conn");
        let mut rx = FrameConn::new(server, Duration::from_secs(5)).expect("rx conn");
        let frame = SetupFrame::Hello { index: 7 };
        tx.send(&frame).expect("send");
        let got: SetupFrame = rx.recv().expect("recv");
        assert_eq!(got, frame);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let (client, server) = loopback_pair();
        let mut rx = FrameConn::new(server, Duration::from_secs(5)).expect("rx conn");
        let mut raw = client;
        let huge = (MAX_FRAME_LEN as u32) + 1;
        raw.write_all(&huge.to_le_bytes()).expect("write prefix");
        let got = rx.recv::<SetupFrame>();
        assert!(matches!(got, Err(NetError::FrameTooLong { .. })));
    }

    #[test]
    fn truncated_body_is_an_io_error_not_a_panic() {
        let (client, server) = loopback_pair();
        let mut rx = FrameConn::new(server, Duration::from_millis(200)).expect("rx conn");
        let mut raw = client;
        raw.write_all(&8u32.to_le_bytes()).expect("write prefix");
        raw.write_all(&[1, 0]).expect("write partial body");
        drop(raw); // close: the body can never complete
        let got = rx.recv::<SetupFrame>();
        assert!(matches!(got, Err(NetError::Io { .. })));
    }

    #[test]
    fn accept_times_out_with_a_typed_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let deadline = Deadline::new(Duration::from_millis(50));
        let got = accept_agents(&listener, 2, &deadline);
        assert!(matches!(
            got,
            Err(NetError::HandshakeTimeout {
                connected: 0,
                expected: 2,
            })
        ));
    }

    #[test]
    fn deadline_expires_and_reports_remaining() {
        let deadline = Deadline::new(Duration::from_secs(60));
        assert!(deadline.remaining().is_some());
        let spent = Deadline::new(Duration::ZERO);
        thread::sleep(Duration::from_millis(1));
        assert!(spent.remaining().is_none());
    }

    #[test]
    fn io_timeout_can_be_rearmed_on_a_live_connection() {
        let (client, server) = loopback_pair();
        let mut rx = FrameConn::new(server, Duration::ZERO).expect("rx conn");
        rx.set_io_timeout(Duration::from_millis(50))
            .expect("re-arm");
        // No frame ever arrives: the bounded read must fail, not block.
        let got = rx.recv::<SetupFrame>();
        assert!(matches!(got, Err(NetError::Io { .. })));
        drop(client);
    }

    #[test]
    fn connect_retry_reports_the_last_error() {
        // Bind then drop to get a port that (almost certainly) refuses.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let got = connect_with_retry(addr, 3, Duration::from_millis(5));
        assert!(matches!(got, Err(NetError::Io { .. })));
    }
}
