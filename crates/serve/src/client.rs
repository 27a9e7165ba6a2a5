//! The client for the `fmm-serve` protocol — the library the e2e tests,
//! the `fmm_serve` CLI, and the benchmark harness all drive.
//!
//! [`PipelinedClient::send`] returns a `request_id` immediately, many
//! requests ride one TCP connection at once, and [`PipelinedClient::recv`]
//! matches responses back by id in whatever order the server finishes them
//! — one connection keeps the dispatcher's batch window full all by
//! itself. A blocking caller is the depth-one case:
//! [`PipelinedClient::multiply`] is `send` + `recv`, and the control
//! calls (`ping`, `stats_json`, `trace`, …) are single round trips that
//! may overtake slower multiplies still in flight.
//!
//! [`retry_busy`] wraps calls with bounded exponential backoff on the
//! server's `Busy` backpressure signal.

use crate::protocol::{
    self, decode_error, decode_response, encode_request, ErrorCode, Frame, FrameError, FrameKind,
    WireScalar, VERSION_V2,
};
use fmm_dense::Matrix;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// What a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (including a server that hung up).
    Io(io::Error),
    /// The server answered, but not with a frame this call expects.
    Protocol(String),
    /// The server answered with a typed error frame.
    Server {
        /// The error code.
        code: ErrorCode,
        /// The server's human-readable message.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Protocol(m) => write!(f, "protocol error: {m}"),
            Self::Server { code, message } => write!(f, "server error ({code}): {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => Self::Io(io),
            other => Self::Protocol(other.to_string()),
        }
    }
}

impl ClientError {
    /// True when the server refused the request with `Busy` — the typed
    /// backpressure signal callers may retry on.
    pub fn is_busy(&self) -> bool {
        matches!(self, Self::Server { code: ErrorCode::Busy, .. })
    }
}

/// The protocol client: many requests in flight on one connection,
/// responses matched back by `request_id` in completion order.
///
/// `send` never reads and `recv` never writes, so the natural pipelined
/// usage is a window loop: keep `send`ing until the target depth is
/// reached, then `recv` the oldest outstanding id (responses that arrive
/// out of order are stashed and handed out when their id is asked for).
pub struct PipelinedClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_payload_bytes: usize,
    next_id: u64,
    /// Responses read while looking for a different id.
    stash: HashMap<u64, Frame>,
}

impl PipelinedClient {
    /// Connect with the default (64 MiB) reply-payload cap.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with_cap(addr, 64 << 20)
    }

    /// Connect, capping accepted reply payloads at `max_payload_bytes`.
    pub fn connect_with_cap(
        addr: impl ToSocketAddrs,
        max_payload_bytes: usize,
    ) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
            max_payload_bytes,
            next_id: 1,
            stash: HashMap::new(),
        })
    }

    /// Write and flush one frame under a fresh request id; the reply is
    /// *not* awaited.
    fn write(&mut self, kind: FrameKind, payload: &[u8]) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        protocol::write_frame_v(&mut self.writer, VERSION_V2, id, kind, payload)?;
        self.writer.flush()?;
        Ok(id)
    }

    /// Send one frame and block for its reply frame.
    pub fn roundtrip(&mut self, kind: FrameKind, payload: &[u8]) -> Result<Frame, ClientError> {
        let id = self.write(kind, payload)?;
        self.frame_for(id)
    }

    /// Queue `C = A·B` on the server and return the request id to
    /// [`PipelinedClient::recv`] the result under. The frame is flushed
    /// before this returns; the response is *not* awaited.
    pub fn send<T: WireScalar>(
        &mut self,
        a: &Matrix<T>,
        b: &Matrix<T>,
    ) -> Result<u64, ClientError> {
        if a.cols() != b.rows() {
            return Err(ClientError::Protocol(format!(
                "A is {}x{} but B is {}x{}",
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            )));
        }
        self.write(FrameKind::Request, &encode_request(a, b))
    }

    /// Block for the response to `id`, reading (and stashing) any other
    /// responses that arrive first.
    pub fn recv<T: WireScalar>(&mut self, id: u64) -> Result<Matrix<T>, ClientError> {
        let payload = expect_kind(self.frame_for(id)?, FrameKind::Response)?;
        decode_response::<T>(&payload).map_err(ClientError::Protocol)
    }

    /// `C = A·B` on the server, blocking. Dtype follows the matrix scalar;
    /// the result is the full `m × n` product (the server computes into a
    /// zeroed destination).
    pub fn multiply<T: WireScalar>(
        &mut self,
        a: &Matrix<T>,
        b: &Matrix<T>,
    ) -> Result<Matrix<T>, ClientError> {
        let id = self.send(a, b)?;
        let c = self.recv::<T>(id)?;
        if (c.rows(), c.cols()) != (a.rows(), b.cols()) {
            return Err(ClientError::Protocol(format!(
                "server answered a {}x{} matrix for a {}x{} problem",
                c.rows(),
                c.cols(),
                a.rows(),
                b.cols()
            )));
        }
        Ok(c)
    }

    /// Liveness probe; returns the round-trip time. The Pong is matched by
    /// id, so it may overtake slower multiplies.
    pub fn ping(&mut self) -> Result<Duration, ClientError> {
        let t0 = Instant::now();
        let echo = expect_kind(self.roundtrip(FrameKind::Ping, b"fmm")?, FrameKind::Pong)?;
        if echo != b"fmm" {
            return Err(ClientError::Protocol("pong payload mismatch".into()));
        }
        Ok(t0.elapsed())
    }

    /// Fetch the server's full registry snapshot as JSON (counters,
    /// gauges, and per-phase histograms; see the README's Observability
    /// section for the schema).
    pub fn stats_json(&mut self) -> Result<String, ClientError> {
        self.text_reply(FrameKind::StatsJson, b"json")
    }

    /// Fetch the same registry snapshot as Prometheus-style plaintext
    /// exposition.
    pub fn stats_prometheus(&mut self) -> Result<String, ClientError> {
        self.text_reply(FrameKind::StatsJson, b"prometheus")
    }

    /// Fetch the most recent `last` tracing spans as a JSON array (`0` =
    /// everything the per-thread rings retain). Empty unless the server
    /// runs with tracing enabled (`--trace` / `FMM_TRACE=1`).
    pub fn trace(&mut self, last: u64) -> Result<String, ClientError> {
        let payload = if last == 0 { Vec::new() } else { last.to_le_bytes().to_vec() };
        self.text_reply(FrameKind::Trace, &payload)
    }

    /// Fetch a live incident dump — the same self-contained JSON
    /// document a SIGTERM/panic dump writes to `--incident-dir` (build
    /// fingerprint, config, watchdog roster, flight ring, full stats,
    /// recent spans).
    pub fn incident(&mut self) -> Result<String, ClientError> {
        self.text_reply(FrameKind::Incident, b"")
    }

    /// Ask the daemon to shut down (acknowledged before it stops
    /// accepting; in-flight requests drain).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        expect_kind(self.roundtrip(FrameKind::Shutdown, b"")?, FrameKind::Pong).map(drop)
    }

    /// One round trip of a kind the server answers in kind with a UTF-8
    /// body.
    fn text_reply(&mut self, kind: FrameKind, payload: &[u8]) -> Result<String, ClientError> {
        let body = expect_kind(self.roundtrip(kind, payload)?, kind)?;
        String::from_utf8(body)
            .map_err(|_| ClientError::Protocol(format!("{kind:?} body is not UTF-8")))
    }

    /// Read frames until `id`'s reply surfaces, stashing responses for
    /// other outstanding ids along the way.
    fn frame_for(&mut self, id: u64) -> Result<Frame, ClientError> {
        if let Some(frame) = self.stash.remove(&id) {
            return Ok(frame);
        }
        loop {
            let frame = protocol::read_frame_any(&mut self.reader, self.max_payload_bytes)?;
            // Ids start at 1, so an `Error` under id 0 is a connection-fatal
            // refusal of a header the server could not attribute (such as
            // `Oversized`): it answers whoever is waiting instead of
            // sitting in the stash until EOF.
            if frame.request_id == id || (frame.request_id == 0 && frame.kind == FrameKind::Error) {
                return Ok(frame);
            }
            self.stash.insert(frame.request_id, frame);
        }
    }
}

/// The payload of a reply of the expected kind, else the typed server
/// error it carries, else a protocol error.
fn expect_kind(frame: Frame, want: FrameKind) -> Result<Vec<u8>, ClientError> {
    match frame.kind {
        kind if kind == want => Ok(frame.payload),
        FrameKind::Error => {
            let (code, message) = decode_error(&frame.payload);
            Err(ClientError::Server { code, message })
        }
        other => Err(ClientError::Protocol(format!("unexpected {other:?} reply"))),
    }
}

/// Call `op` with bounded exponential backoff while it fails with the
/// server's `Busy` backpressure signal.
///
/// The delay before retry `i` is `base_delay · 2^i`, scaled by a
/// deterministic jitter factor in `[0.5, 1.0)` derived from `seed` (an
/// xorshift step per retry) — concurrent clients seeded differently
/// de-synchronize instead of stampeding the queue in lockstep. Any
/// non-`Busy` error, and the final `Busy` after `attempts` tries, are
/// returned as-is.
pub fn retry_busy<T>(
    attempts: usize,
    base_delay: Duration,
    seed: u64,
    mut op: impl FnMut() -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let mut jitter = seed | 1; // xorshift state must be non-zero
    let mut backoff = base_delay;
    let mut tries = 0;
    loop {
        match op() {
            Ok(value) => return Ok(value),
            Err(err) if err.is_busy() && tries + 1 < attempts.max(1) => {
                tries += 1;
                jitter ^= jitter << 13;
                jitter ^= jitter >> 7;
                jitter ^= jitter << 17;
                // Map the top bits onto [0.5, 1.0).
                let scale = 0.5 + (jitter >> 40) as f64 / (1u64 << 25) as f64;
                std::thread::sleep(backoff.mul_f64(scale));
                backoff = backoff.saturating_mul(2);
            }
            Err(err) => return Err(err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattributed_refusal_answers_the_waiting_call() {
        // A peer that refuses the connection's framing answers under id 0
        // and hangs up; the call in flight must surface that typed error,
        // not "connection closed".
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            protocol::read_frame_any(&mut stream, 1 << 10).unwrap();
            let refusal = protocol::encode_error(ErrorCode::Oversized, "too big");
            protocol::write_frame_v(&mut stream, VERSION_V2, 0, FrameKind::Error, &refusal)
                .unwrap();
        });
        let mut client = PipelinedClient::connect(addr).unwrap();
        let err = client.ping().unwrap_err();
        assert!(
            matches!(err, ClientError::Server { code: ErrorCode::Oversized, .. }),
            "expected the typed refusal, got {err}"
        );
        peer.join().unwrap();
    }

    #[test]
    fn retry_busy_retries_busy_until_success() {
        let mut calls = 0;
        let result = retry_busy(5, Duration::from_micros(10), 42, || {
            calls += 1;
            if calls < 3 {
                Err(ClientError::Server { code: ErrorCode::Busy, message: "full".into() })
            } else {
                Ok(calls)
            }
        });
        assert_eq!(result.unwrap(), 3);
    }

    #[test]
    fn retry_busy_gives_up_after_attempts() {
        let mut calls = 0;
        let result: Result<(), _> = retry_busy(3, Duration::from_micros(10), 7, || {
            calls += 1;
            Err(ClientError::Server { code: ErrorCode::Busy, message: "full".into() })
        });
        assert!(result.unwrap_err().is_busy());
        assert_eq!(calls, 3, "attempts bound the total call count");
    }

    #[test]
    fn retry_busy_passes_other_errors_through() {
        let mut calls = 0;
        let result: Result<(), _> = retry_busy(5, Duration::from_micros(10), 9, || {
            calls += 1;
            Err(ClientError::Protocol("not busy".into()))
        });
        assert!(matches!(result.unwrap_err(), ClientError::Protocol(_)));
        assert_eq!(calls, 1, "only Busy is retried");
    }

    #[test]
    fn retry_busy_jitter_is_deterministic_per_seed() {
        // Same seed → same jitter sequence (indirectly: both runs make
        // the same number of calls and sleep the same schedule; here we
        // just pin the xorshift scale computation against drift).
        let mut jitter = 42u64 | 1;
        jitter ^= jitter << 13;
        jitter ^= jitter >> 7;
        jitter ^= jitter << 17;
        let scale = 0.5 + (jitter >> 40) as f64 / (1u64 << 25) as f64;
        assert!((0.5..1.0).contains(&scale), "jitter scale in [0.5, 1.0): {scale}");
    }
}
