//! Run sans-IO endpoints over real UDP sockets.
//!
//! The protocol state machines in this workspace never touch sockets;
//! [`UdpDriver`] closes the loop for live use: it owns a
//! `std::net::UdpSocket`, translates datagrams to/from the emulator's
//! [`Packet`] type, and drives `poll`/`on_packet` with a monotonic clock
//! rebased so the session starts at `t = 0` (matching the virtual-time
//! semantics the endpoints were written against).
//!
//! Why blocking `std::net` and not an async runtime: the endpoints are
//! tick-driven (20 ms) state machines with single-peer sessions — a
//! socket with a short read timeout serving as both I/O wait and tick
//! timer exercises them fully, with no additional dependencies.

#![warn(missing_docs)]

use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::Instant;

use bytes::Bytes;
use sprout_sim::{Endpoint, FlowId, Packet};
use sprout_trace::{Duration, Timestamp};

/// Statistics of a live session.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriverStats {
    /// Datagrams sent.
    pub sent: u64,
    /// Datagrams received.
    pub received: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_received: u64,
}

/// Drives one [`Endpoint`] over a UDP socket.
pub struct UdpDriver<E: Endpoint> {
    endpoint: E,
    socket: UdpSocket,
    peer: Option<SocketAddr>,
    epoch: Instant,
    stats: DriverStats,
    recv_buf: Vec<u8>,
}

impl<E: Endpoint> UdpDriver<E> {
    /// Bind to `local`. If `peer` is `None`, the driver locks onto the
    /// first remote address that sends to it (server mode).
    pub fn bind(
        endpoint: E,
        local: impl ToSocketAddrs,
        peer: Option<SocketAddr>,
    ) -> io::Result<Self> {
        let socket = UdpSocket::bind(local)?;
        socket.set_read_timeout(Some(std::time::Duration::from_millis(5)))?;
        Ok(UdpDriver {
            endpoint,
            socket,
            peer,
            epoch: Instant::now(),
            stats: DriverStats::default(),
            recv_buf: vec![0u8; 64 * 1024],
        })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Session counters.
    pub fn stats(&self) -> DriverStats {
        self.stats
    }

    /// Borrow the endpoint.
    pub fn endpoint(&self) -> &E {
        &self.endpoint
    }

    /// Mutably borrow the endpoint (e.g. to push application data).
    pub fn endpoint_mut(&mut self) -> &mut E {
        &mut self.endpoint
    }

    /// Current session time (monotonic, starting at 0).
    pub fn now(&self) -> Timestamp {
        Timestamp::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// One iteration of the drive loop: receive (bounded by the socket
    /// timeout), deliver, poll, transmit. Returns the number of datagrams
    /// moved in either direction.
    pub fn step(&mut self) -> io::Result<usize> {
        let mut moved = 0;
        // Drain everything currently readable (first read may block up to
        // the 5 ms timeout — that is the loop's pacing).
        loop {
            match self.socket.recv_from(&mut self.recv_buf) {
                Ok((len, from)) => {
                    if self.peer.is_none() {
                        self.peer = Some(from);
                    }
                    if Some(from) == self.peer {
                        let payload = Bytes::copy_from_slice(&self.recv_buf[..len]);
                        let packet =
                            Packet::from_payload(FlowId::PRIMARY, self.stats.received, payload);
                        self.stats.received += 1;
                        self.stats.bytes_received += len as u64;
                        self.endpoint.on_packet(packet, self.now());
                        moved += 1;
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    break;
                }
                Err(e) => return Err(e),
            }
            // After the first datagram, keep draining without blocking.
            self.socket.set_nonblocking(true)?;
        }
        self.socket.set_nonblocking(false)?;
        self.socket
            .set_read_timeout(Some(std::time::Duration::from_millis(5)))?;

        if let Some(peer) = self.peer {
            for packet in self.endpoint.poll(self.now()) {
                // A real wire carries the filler the emulator only counts.
                let datagram = packet.wire_payload();
                self.socket.send_to(&datagram, peer)?;
                self.stats.sent += 1;
                self.stats.bytes_sent += datagram.len() as u64;
                moved += 1;
            }
        }
        Ok(moved)
    }

    /// Drive the session for `duration` of wall-clock time.
    pub fn run_for(&mut self, duration: Duration) -> io::Result<()> {
        let deadline = self.now() + duration;
        while self.now() < deadline {
            self.step()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprout_core::{SproutConfig, SproutEndpoint};

    /// Two Sprout endpoints over real loopback UDP for one second: data
    /// flows, forecasts flow back, and nothing panics. This is the only
    /// wall-clock test in the workspace.
    #[test]
    fn loopback_sprout_session_moves_data() {
        let cfg = SproutConfig::test_small();
        let mut client = SproutEndpoint::new_ewma(cfg.clone());
        client.set_saturating();
        let server = SproutEndpoint::new_ewma(cfg);

        let mut server_drv = UdpDriver::bind(server, "127.0.0.1:0", None).unwrap();
        let server_addr = server_drv.local_addr().unwrap();
        let mut client_drv = UdpDriver::bind(client, "127.0.0.1:0", Some(server_addr)).unwrap();

        let server_thread = std::thread::spawn(move || {
            server_drv.run_for(Duration::from_millis(1_000)).unwrap();
            server_drv
        });
        client_drv.run_for(Duration::from_millis(1_000)).unwrap();
        let server_drv = server_thread.join().unwrap();

        let c = client_drv.stats();
        let s = server_drv.stats();
        assert!(c.sent > 10, "client sent {} datagrams", c.sent);
        assert!(s.received > 10, "server saw {}", s.received);
        assert!(s.sent > 10, "server fed back {}", s.sent);
        // The client's sender must have received at least one forecast.
        assert!(client_drv.endpoint().sender().has_forecast());
        // Data made it through: the server counted app payload bytes.
        assert!(server_drv.endpoint().stats().app_bytes_received > 0);
    }
}
