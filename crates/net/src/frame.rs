//! Length-prefixed framing over a byte stream.
//!
//! Every message — request or reply — is one frame: a 4-byte big-endian
//! length prefix followed by that many payload bytes (UTF-8 text of the
//! serve line protocol; replies are one JSON object, except `!metrics`
//! whose payload is multi-line Prometheus text ending in `# EOF`).
//!
//! The length prefix is validated *before* any payload is read: a prefix
//! above the configured ceiling is a typed [`FrameError::Oversized`] — the
//! connection cannot be resynchronized after a bogus length claim, so the
//! server answers with one framed protocol error and closes. Truncated
//! frames (EOF mid-frame) and plain IO failures are equally typed; nothing
//! in this module panics on wire input.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Size of the length prefix.
pub(crate) const LEN_PREFIX: usize = 4;

/// Default ceiling on a single frame's payload (1 MiB).
pub const DEFAULT_MAX_FRAME_LEN: usize = 1 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream at a frame boundary — a clean close.
    Closed,
    /// The stream ended mid-frame (torn frame).
    Truncated,
    /// The length prefix claims more than the configured ceiling.
    Oversized {
        /// The claimed payload length.
        claimed: usize,
        /// The ceiling it exceeded.
        max: usize,
    },
    /// An IO error other than EOF.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => f.write_str("connection closed"),
            FrameError::Truncated => f.write_str("stream ended mid-frame (torn frame)"),
            FrameError::Oversized { claimed, max } => {
                write!(f, "frame length {claimed} exceeds the {max}-byte ceiling")
            }
            FrameError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame (length prefix + payload) in one `write_all` and
/// flushes: on a `TCP_NODELAY` socket the frame leaves as one segment, so
/// the reader wakes once per frame, not once for the prefix alone.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload too large"))?;
    let mut frame = Vec::with_capacity(LEN_PREFIX + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame with blocking semantics (used by clients and tests; the
/// server side reads incrementally through `FrameReader` so it can poll
/// drain/idle state between partial reads).
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; LEN_PREFIX];
    match r.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(FrameError::Closed),
        Err(e) => return Err(FrameError::Io(e)),
    }
    let mut payload = vec![0u8; payload_len(prefix, max_len)?];
    match r.read_exact(&mut payload) {
        Ok(()) => Ok(payload),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(FrameError::Truncated),
        Err(e) => Err(FrameError::Io(e)),
    }
}

/// The payload length a frame's prefix claims, refused above `max_len`.
fn payload_len(prefix: [u8; LEN_PREFIX], max_len: usize) -> Result<usize, FrameError> {
    match u32::from_be_bytes(prefix) as usize {
        claimed if claimed > max_len => Err(FrameError::Oversized {
            claimed,
            max: max_len,
        }),
        claimed => Ok(claimed),
    }
}

/// What one incremental read step produced.
pub(crate) enum Poll {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// No complete frame yet; the read timed out (tick) — the caller checks
    /// drain/idle state and polls again.
    Pending,
}

/// Incremental frame reader over a [`TcpStream`] whose read timeout is the
/// server's poll tick: each [`FrameReader::poll`] makes at most one `read`
/// call, so the connection loop regains control every tick to check drain
/// flags, idle deadlines, and forced-shutdown state.
#[derive(Debug)]
pub(crate) struct FrameReader {
    buf: Vec<u8>,
    chunk: [u8; 4096],
}

impl FrameReader {
    /// An empty reader.
    pub(crate) fn new() -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            chunk: [0u8; 4096],
        }
    }

    /// True when a frame has been partially received — the peer owes us the
    /// rest, so drain handling waits (bounded) instead of closing on it.
    pub(crate) fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Tries to complete one frame: first from already-buffered bytes, then
    /// with a single `read` (bounded by the stream's read timeout).
    pub(crate) fn poll(
        &mut self,
        stream: &mut TcpStream,
        max_len: usize,
    ) -> Result<Poll, FrameError> {
        loop {
            if let Some(frame) = self.take_frame(max_len)? {
                return Ok(Poll::Frame(frame));
            }
            match stream.read(&mut self.chunk) {
                Ok(0) => {
                    return Err(if self.buf.is_empty() {
                        FrameError::Closed
                    } else {
                        FrameError::Truncated
                    });
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&self.chunk[..n]);
                    // Loop: the chunk may hold one or more complete frames.
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(Poll::Pending);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// Splits one complete frame off the front of the buffer, if present.
    fn take_frame(&mut self, max_len: usize) -> Result<Option<Vec<u8>>, FrameError> {
        let Some(&prefix) = self.buf.first_chunk() else {
            return Ok(None);
        };
        let claimed = payload_len(prefix, max_len)?;
        if self.buf.len() < LEN_PREFIX + claimed {
            return Ok(None);
        }
        let rest = self.buf.split_off(LEN_PREFIX + claimed);
        let mut frame = std::mem::replace(&mut self.buf, rest);
        frame.drain(..LEN_PREFIX);
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            write_frame(&mut out, p).unwrap();
        }
        out
    }

    #[test]
    fn round_trip_one_frame() {
        let bytes = framed(&[b"hello"]);
        let mut r = &bytes[..];
        assert_eq!(read_frame(&mut r, 1024).unwrap(), b"hello");
        assert!(matches!(read_frame(&mut r, 1024), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_prefix_is_typed() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut &bytes[..], 1024).unwrap_err();
        assert!(
            matches!(err, FrameError::Oversized { max: 1024, .. }),
            "{err}"
        );
    }

    #[test]
    fn truncated_frame_is_typed() {
        let mut bytes = framed(&[b"hello"]);
        bytes.truncate(bytes.len() - 2);
        let err = read_frame(&mut &bytes[..], 1024).unwrap_err();
        assert!(matches!(err, FrameError::Truncated), "{err}");
    }

    #[test]
    fn empty_frame_round_trips() {
        let bytes = framed(&[b""]);
        assert_eq!(read_frame(&mut &bytes[..], 1024).unwrap(), b"");
    }

    /// A writer that records each `write` call and accepts at most `cap`
    /// bytes of it.
    struct Recording {
        calls: Vec<Vec<u8>>,
        cap: usize,
    }

    impl Recording {
        fn new(cap: usize) -> Recording {
            Recording {
                calls: Vec::new(),
                cap,
            }
        }
    }

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.calls.push(buf[..n].to_vec());
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn a_frame_is_one_write_of_prefix_then_payload() {
        for len in [0, 5, 64 << 10] {
            let payload = payload(len);
            let mut w = Recording::new(usize::MAX);
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.calls.len(), 1, "{len}-byte payload: one write per frame");
            let (prefix, rest) = w.calls[0].split_at(LEN_PREFIX);
            assert_eq!(prefix, (len as u32).to_be_bytes());
            assert_eq!(rest, payload);
        }
    }

    #[test]
    fn a_frame_survives_short_writes_byte_identical() {
        for len in [0, 5, 64 << 10] {
            let payload = payload(len);
            let mut w = Recording::new(3);
            write_frame(&mut w, &payload).unwrap();
            assert!(w.calls.iter().all(|c| c.len() <= 3));
            let bytes = w.calls.concat();
            assert_eq!(bytes, framed(&[&payload]));
            assert_eq!(read_frame(&mut &bytes[..], 1 << 20).unwrap(), payload);
        }
    }

    #[test]
    fn take_frame_splits_pipelined_frames() {
        let mut reader = FrameReader::new();
        reader.buf = framed(&[b"one", b"two", b"three"]);
        assert_eq!(reader.take_frame(1024).unwrap().unwrap(), b"one");
        assert!(reader.mid_frame());
        assert_eq!(reader.take_frame(1024).unwrap().unwrap(), b"two");
        assert_eq!(reader.take_frame(1024).unwrap().unwrap(), b"three");
        assert!(reader.take_frame(1024).unwrap().is_none());
        assert!(!reader.mid_frame());
    }

    #[test]
    fn take_frame_reports_oversized_claims_from_garbage() {
        let mut reader = FrameReader::new();
        // Interleaved garbage is indistinguishable from a length prefix;
        // ASCII text decodes as a huge claimed length and trips the ceiling.
        reader.buf = b"GET / HTTP/1.1\r\n".to_vec();
        assert!(matches!(
            reader.take_frame(1 << 20),
            Err(FrameError::Oversized { .. })
        ));
    }
}
