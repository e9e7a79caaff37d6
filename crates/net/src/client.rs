//! A small blocking client for the framed protocol, used by the CLI smoke
//! paths and the integration tests.

use crate::frame::{self, FrameError};
use crate::proto;
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// One framed connection to a [`NetServer`](crate::server::NetServer).
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    max_frame_len: usize,
}

impl Client {
    /// Connects to `addr` with a connect/read timeout.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Client> {
        let mut last = io::Error::new(io::ErrorKind::AddrNotAvailable, "no address resolved");
        for sockaddr in std::net::ToSocketAddrs::to_socket_addrs(addr)? {
            match TcpStream::connect_timeout(&sockaddr, timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(timeout))?;
                    stream.set_write_timeout(Some(timeout))?;
                    stream.set_nodelay(true)?;
                    return Ok(Client {
                        stream,
                        max_frame_len: frame::DEFAULT_MAX_FRAME_LEN,
                    });
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Sends one request frame.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        frame::write_frame(&mut self.stream, line.as_bytes())
    }

    /// Reads one reply frame as UTF-8 text.
    pub fn recv(&mut self) -> Result<String, FrameError> {
        let payload = frame::read_frame(&mut self.stream, self.max_frame_len)?;
        String::from_utf8(payload)
            .map_err(|e| FrameError::Io(io::Error::new(io::ErrorKind::InvalidData, e)))
    }

    /// Sends one request and reads its reply (the common non-pipelined use).
    pub fn roundtrip(&mut self, line: &str) -> Result<String, FrameError> {
        self.send(line).map_err(FrameError::Io)?;
        self.recv()
    }

    /// Raw access for tests that need to write torn/garbage bytes.
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

/// Classification of one reply, for a caller deciding whether to retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyKind {
    /// `"ok":true` — answers, snapshot, unchanged, health, noop, bye.
    Ok,
    /// Shed by admission; retry after the hint.
    Overloaded {
        /// Server-suggested backoff, from the reply's `retry_after_ms`.
        retry_after_ms: u64,
    },
    /// The deadline expired server-side.
    Deadline,
    /// Any other `"ok":false` reply.
    Error,
}

/// Classifies a one-line JSON reply.
pub fn classify(reply: &str) -> ReplyKind {
    match proto::json_str_field(reply, "type") {
        Some("overloaded") => ReplyKind::Overloaded {
            retry_after_ms: proto::json_u64_field(reply, "retry_after_ms").unwrap_or(0),
        },
        Some("deadline") => ReplyKind::Deadline,
        _ if reply.contains("\"ok\":false") => ReplyKind::Error,
        _ => ReplyKind::Ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_serve::protocol::error_reply;

    #[test]
    fn classify_recognizes_the_reply_taxonomy() {
        assert_eq!(
            classify("{\"ok\":true,\"type\":\"answers\"}"),
            ReplyKind::Ok
        );
        assert_eq!(
            classify(&error_reply("overloaded", "shed", Some(75))),
            ReplyKind::Overloaded { retry_after_ms: 75 }
        );
        assert_eq!(
            classify(&error_reply("deadline", "expired", None)),
            ReplyKind::Deadline
        );
        assert_eq!(
            classify(&error_reply("protocol", "bad", None)),
            ReplyKind::Error
        );
    }
}
