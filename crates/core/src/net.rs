//! TCP transport of the serve supervision core (DESIGN.md §13, §16).
//!
//! The supervisor, its worker hosts, and every daemon client speak the
//! same line-oriented framed protocol the disk cache and journal use on
//! disk: `<fnv1a64-hex> <len> <payload>\n` ([`crate::framedlog`]).
//! This module owns the pieces that only exist once a network is
//! involved:
//!
//! * [`FrameDecoder`] — an *incremental* decoder that accepts arbitrary
//!   byte splits (TCP does not respect line boundaries) and yields
//!   either intact payloads or typed [`FrameError`]s. It never panics
//!   and never buffers more than [`MAX_FRAME`] bytes: an unterminated
//!   line beyond that cap yields one `Oversized` error and the decoder
//!   resynchronizes at the next newline, so a malicious or broken peer
//!   cannot balloon memory;
//! * [`FrameReader`] — the one read loop: the decoder fed from a
//!   blocking stream. The supervisor's per-connection readers, the
//!   worker host and [`FramedConn`] all read through it, so every peer
//!   gets the same bound, the same typed errors, and the same
//!   accounting of a torn last frame;
//! * [`FramedConn`] — a `TcpStream` wrapper with per-connection read
//!   and write deadlines. A stalled or slow-loris peer surfaces as
//!   [`FrameError::TimedOut`] on *this* connection; it cannot wedge the
//!   accept loop or any other peer.
//!
//! The result-boundary fault classes of `TLPSIM_FAULT` (`torn-write`,
//! `partial-frame`, `slow-peer` — see [`crate::worker`]) are injected
//! right here at the framing layer: [`send_torn`] emits half a frame,
//! [`send_trickled`] dribbles a frame byte-group by byte-group. Both
//! produce exactly the wire states the decoder hardening is tested
//! against.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::framedlog::{frame_payload, unframe};

/// Hard cap on one frame's wire length, terminator included. Generous
/// (the largest real payload — a CELL record — is under 2 KiB) but
/// bounded: the decoder refuses to buffer past it.
pub const MAX_FRAME: usize = 1 << 20;

/// Why a frame could not be read or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The line failed its length/checksum/UTF-8 checks (a torn or
    /// tampered frame). The connection is still usable; the decoder
    /// has already resynchronized at the next line.
    Corrupt(String),
    /// An unterminated line exceeded [`MAX_FRAME`]; everything up to
    /// the next newline is being discarded.
    Oversized {
        /// The cap that was exceeded.
        limit: usize,
    },
    /// The peer sent nothing (or accepted nothing) within the
    /// connection's deadline.
    TimedOut,
    /// The peer closed the connection.
    Closed,
    /// Any other socket error, rendered.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
            FrameError::Oversized { limit } => {
                write!(f, "frame exceeds the {limit}-byte cap")
            }
            FrameError::TimedOut => write!(f, "peer deadline exceeded"),
            FrameError::Closed => write!(f, "peer closed the connection"),
            FrameError::Io(why) => write!(f, "socket error: {why}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental frame decoder over an arbitrary byte stream.
///
/// Feed it whatever chunks the socket produces ([`feed`](Self::feed)),
/// then drain complete results ([`next`](Self::next)). Corrupt lines
/// are reported once each and skipped; decoding continues with the
/// next line, so one torn frame never poisons the stream.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Inside an oversized line: discard bytes until the next newline.
    skipping: bool,
}

impl FrameDecoder {
    /// A fresh decoder with an empty buffer.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Absorb `bytes` from the wire. Cheap; no decoding happens here.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.skipping {
            // Only the tail after the resync newline is worth keeping;
            // until one arrives, everything mid-oversized-line is dropped.
            if let Some(i) = bytes.iter().position(|&b| b == b'\n') {
                self.skipping = false;
                self.buf.extend_from_slice(&bytes[i + 1..]);
            }
        } else {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// The next complete payload or error, if one is available. `None`
    /// means "feed me more bytes" — never an error. Deliberately not
    /// `Iterator`: `None` is a resumable "underflow", not exhaustion.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Result<String, FrameError>> {
        if let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=nl).collect();
            let line = &line[..line.len() - 1]; // strip the terminator
            let text = match std::str::from_utf8(line) {
                Ok(t) => t,
                Err(_) => return Some(Err(FrameError::Corrupt("not UTF-8".into()))),
            };
            return Some(match unframe(text) {
                Ok(payload) => Ok(payload.to_string()),
                Err(why) => Err(FrameError::Corrupt(why)),
            });
        }
        if self.buf.len() > MAX_FRAME {
            self.buf.clear();
            self.skipping = true;
            return Some(Err(FrameError::Oversized { limit: MAX_FRAME }));
        }
        None
    }
}

/// Blocking frame reader: [`FrameDecoder`] fed from `inner` (a socket,
/// or any other byte stream), so a peer is held to [`MAX_FRAME`] and its
/// bad lines surface as typed [`FrameError::Corrupt`] /
/// [`FrameError::Oversized`] items, never as unbounded buffering. A read
/// deadline (or a signal) yields [`FrameError::TimedOut`] and the
/// stream stays usable, so a caller can check its stop flags between
/// frames. An unterminated last line at end of stream (a writer killed
/// mid-frame) is one `Corrupt` item. Iteration ends at end of stream or
/// on any other read error.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    dec: FrameDecoder,
    done: bool,
}

impl<R: Read> FrameReader<R> {
    /// A reader over `inner` with an empty decoder.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            dec: FrameDecoder::new(),
            done: false,
        }
    }
}

impl<R: Read> Iterator for FrameReader<R> {
    type Item = Result<String, FrameError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(res) = self.dec.next() {
                return Some(res);
            }
            if self.done {
                return None;
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    self.done = true;
                    let torn = !self.dec.buf.is_empty();
                    self.dec = FrameDecoder::new();
                    if torn {
                        let why = "unterminated frame at end of stream".into();
                        return Some(Err(FrameError::Corrupt(why)));
                    }
                }
                Ok(n) => self.dec.feed(&chunk[..n]),
                Err(e) => match read_err(&e) {
                    FrameError::TimedOut => return Some(Err(FrameError::TimedOut)),
                    _ => self.done = true,
                },
            }
        }
    }
}

/// Map one socket-read outcome onto the typed error model.
fn read_err(e: &std::io::Error) -> FrameError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => FrameError::TimedOut,
        std::io::ErrorKind::Interrupted => FrameError::TimedOut, // EINTR: treat as a tick
        _ => FrameError::Io(e.to_string()),
    }
}

/// A `TcpStream` speaking whole frames, with read/write deadlines.
#[derive(Debug)]
pub struct FramedConn {
    reader: FrameReader<TcpStream>,
}

impl FramedConn {
    /// Connect to `addr` with `timeout` as the connect deadline *and*
    /// the initial read/write deadline.
    ///
    /// # Errors
    /// [`FrameError::Io`] when the address does not resolve or the
    /// connection is refused; [`FrameError::TimedOut`] on a connect
    /// timeout.
    pub fn connect(addr: &str, timeout: Duration) -> Result<FramedConn, FrameError> {
        let sa = addr
            .to_socket_addrs()
            .map_err(|e| FrameError::Io(format!("cannot resolve {addr:?}: {e}")))?
            .next()
            .ok_or_else(|| FrameError::Io(format!("{addr:?} resolves to nothing")))?;
        let stream = TcpStream::connect_timeout(&sa, timeout).map_err(|e| match e.kind() {
            std::io::ErrorKind::TimedOut => FrameError::TimedOut,
            _ => FrameError::Io(e.to_string()),
        })?;
        Self::from_stream(stream, timeout)
    }

    /// Wrap an accepted stream, arming both deadlines at `timeout`.
    ///
    /// # Errors
    /// [`FrameError::Io`] when the socket refuses the deadline options.
    pub fn from_stream(stream: TcpStream, timeout: Duration) -> Result<FramedConn, FrameError> {
        let io = |e: std::io::Error| FrameError::Io(e.to_string());
        stream.set_read_timeout(Some(timeout)).map_err(io)?;
        stream.set_write_timeout(Some(timeout)).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        Ok(FramedConn {
            reader: FrameReader::new(stream),
        })
    }

    /// Re-arm the read deadline (e.g. a client widening it to the
    /// daemon's heartbeat timeout once the job is accepted).
    ///
    /// # Errors
    /// [`FrameError::Io`] when the socket refuses the option.
    pub fn set_read_timeout(&self, timeout: Duration) -> Result<(), FrameError> {
        self.stream()
            .set_read_timeout(Some(timeout))
            .map_err(|e| FrameError::Io(e.to_string()))
    }

    /// The underlying stream (for `try_clone`, `shutdown`, peer
    /// address).
    pub fn stream(&self) -> &TcpStream {
        &self.reader.inner
    }

    /// Frame and send one payload under the write deadline.
    ///
    /// # Errors
    /// [`FrameError::TimedOut`] when the peer will not accept bytes in
    /// time (slow-loris); [`FrameError::Io`]/[`FrameError::Closed`] on
    /// other failures.
    pub fn send(&mut self, payload: &str) -> Result<(), FrameError> {
        send_frame(&mut self.stream(), payload)
    }

    /// Receive the next frame, blocking up to the read deadline.
    ///
    /// # Errors
    /// [`FrameError::TimedOut`] when the deadline passes with no
    /// complete frame; [`FrameError::Closed`] once the stream has ended
    /// (EOF or a socket error); [`FrameError::Corrupt`] /
    /// [`FrameError::Oversized`] for bad wire data (the connection stays
    /// usable after these).
    pub fn recv(&mut self) -> Result<String, FrameError> {
        self.reader.next().unwrap_or(Err(FrameError::Closed))
    }
}

/// Frame `payload` and write it whole to `w` (the shared send path of
/// [`FramedConn`] and the daemon's cloned writer halves).
///
/// # Errors
/// See [`FramedConn::send`].
pub fn send_frame<W: Write>(w: &mut W, payload: &str) -> Result<(), FrameError> {
    let line = frame_payload(payload);
    write_all_deadline(w, line.as_bytes())?;
    w.flush().map_err(|e| read_err(&e))
}

/// The `torn-write` and `partial-frame` faults: emit only the first
/// half of the framed line, no terminator. The receiving reader must
/// reject it by checksum and resynchronize.
pub fn send_torn<W: Write>(w: &mut W, payload: &str) {
    let line = frame_payload(payload);
    let half = &line.as_bytes()[..line.len() / 2];
    let _ = w.write_all(half);
    let _ = w.flush();
}

/// The `slow-peer` fault: send the whole frame correctly, but in tiny
/// chunks with a pause between them — a real exercise of the incremental
/// decoder and of the receiver's patience, not of its correctness.
///
/// # Errors
/// See [`FramedConn::send`].
pub fn send_trickled<W: Write>(
    w: &mut W,
    payload: &str,
    chunk: usize,
    pause: Duration,
) -> Result<(), FrameError> {
    let line = frame_payload(payload);
    for piece in line.as_bytes().chunks(chunk.max(1)) {
        write_all_deadline(w, piece)?;
        w.flush().map_err(|e| read_err(&e))?;
        std::thread::sleep(pause);
    }
    Ok(())
}

/// `write_all` that maps deadline expiry to [`FrameError::TimedOut`]
/// instead of looping forever against an unwilling peer.
fn write_all_deadline<W: Write>(w: &mut W, mut bytes: &[u8]) -> Result<(), FrameError> {
    while !bytes.is_empty() {
        match w.write(bytes) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(n) => bytes = &bytes[n..],
            Err(e) => return Err(read_err(&e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn decoder_reassembles_split_frames() {
        let wire = format!("{}{}", frame_payload("HELLO 1 2"), frame_payload("HB {}"));
        for split in 0..wire.len() {
            let mut dec = FrameDecoder::new();
            dec.feed(&wire.as_bytes()[..split]);
            dec.feed(&wire.as_bytes()[split..]);
            let a = dec.next().expect("first frame").unwrap();
            let b = dec.next().expect("second frame").unwrap();
            assert_eq!((a.as_str(), b.as_str()), ("HELLO 1 2", "HB {}"));
            assert!(dec.next().is_none());
        }
    }

    #[test]
    fn corrupt_line_is_typed_and_skipped() {
        let mut dec = FrameDecoder::new();
        dec.feed(b"deadbeef 3 xyz\n");
        dec.feed(frame_payload("EXIT").as_bytes());
        assert!(matches!(dec.next(), Some(Err(FrameError::Corrupt(_)))));
        assert_eq!(dec.next().unwrap().unwrap(), "EXIT");
    }

    #[test]
    fn oversized_line_errors_once_then_resyncs() {
        let mut dec = FrameDecoder::new();
        let junk = vec![b'x'; MAX_FRAME + 10];
        dec.feed(&junk);
        assert!(matches!(
            dec.next(),
            Some(Err(FrameError::Oversized { limit: MAX_FRAME }))
        ));
        assert!(dec.next().is_none(), "error is reported exactly once");
        // The tail of the oversized line is discarded up to its newline.
        dec.feed(b"yyy\n");
        assert!(dec.next().is_none());
        dec.feed(frame_payload("EXIT").as_bytes());
        assert_eq!(dec.next().unwrap().unwrap(), "EXIT");
    }

    #[test]
    fn frame_reader_bounds_a_pipe_and_reports_a_torn_tail() {
        let mut wire = vec![b'x'; MAX_FRAME + 8192];
        wire.push(b'\n');
        wire.extend_from_slice(frame_payload("EXIT").as_bytes());
        let torn = frame_payload("HB {}");
        wire.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
        let got: Vec<_> = FrameReader::new(&wire[..]).collect();
        assert_eq!(got.len(), 3, "{got:?}");
        assert_eq!(got[0], Err(FrameError::Oversized { limit: MAX_FRAME }));
        assert_eq!(got[1], Ok("EXIT".to_string()));
        assert!(matches!(got[2], Err(FrameError::Corrupt(_))));
        // A stream that ends on a frame boundary ends cleanly.
        let clean = frame_payload("EXIT");
        let got: Vec<_> = FrameReader::new(clean.as_bytes()).collect();
        assert_eq!(got, vec![Ok("EXIT".to_string())]);
    }

    #[test]
    fn framed_conn_round_trips_and_times_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = FramedConn::from_stream(stream, Duration::from_secs(2)).unwrap();
            let got = conn.recv().unwrap();
            conn.send(&format!("echo {got}")).unwrap();
            // Then go silent so the client's second recv times out.
            std::thread::sleep(Duration::from_millis(600));
        });
        let mut conn = FramedConn::connect(&addr.to_string(), Duration::from_millis(200)).unwrap();
        conn.send("ping").unwrap();
        conn.set_read_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(conn.recv().unwrap(), "echo ping");
        conn.set_read_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(conn.recv(), Err(FrameError::TimedOut));
        server.join().unwrap();
    }

    #[test]
    fn trickled_send_is_received_intact() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = FramedConn::from_stream(stream, Duration::from_secs(5)).unwrap();
            conn.recv().unwrap()
        });
        let conn = FramedConn::connect(&addr.to_string(), Duration::from_secs(1)).unwrap();
        send_trickled(
            &mut conn.stream().try_clone().unwrap(),
            "RUNS 4 0 1 header",
            3,
            Duration::from_millis(1),
        )
        .unwrap();
        assert_eq!(server.join().unwrap(), "RUNS 4 0 1 header");
    }
}
