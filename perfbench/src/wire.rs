//! The client side of the framed protocol `recurs serve --listen` speaks:
//! every request and every reply is a 4-byte big-endian length followed by
//! that many bytes of UTF-8. Written against the wire format, not against
//! `recurs-net`, and shared by the driver and the probe so both send a
//! request as one segment.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One connection, with its reply buffer.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    reply: Vec<u8>,
}

impl Conn {
    /// Connects to `addr`. No single read or write may block longer than
    /// `timeout`: a hung server fails the run instead of hanging it.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Conn {
            stream,
            reply: Vec::new(),
        })
    }

    /// Sends one framed request and reads its framed reply.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<&str> {
        let len = u32::try_from(line.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "request too long"))?;
        let mut frame = Vec::with_capacity(4 + line.len());
        frame.extend_from_slice(&len.to_be_bytes());
        frame.extend_from_slice(line.as_bytes());
        self.stream.write_all(&frame)?;
        let mut prefix = [0u8; 4];
        self.stream.read_exact(&mut prefix)?;
        self.reply.resize(u32::from_be_bytes(prefix) as usize, 0);
        self.stream.read_exact(&mut self.reply)?;
        std::str::from_utf8(&self.reply).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}
