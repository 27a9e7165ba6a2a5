//! The client for the `fmm-serve` protocol — the library the e2e tests,
//! the `fmm_serve` CLI, and the benchmark harness all drive.
//!
//! [`PipelinedClient::send`] returns a `request_id` immediately, many
//! requests ride one TCP connection at once, and [`PipelinedClient::recv`]
//! matches responses back by id in whatever order the server finishes them
//! — one connection keeps a batch full all by itself. A blocking caller is the depth-one case:
//! [`PipelinedClient::multiply`] is `send` + `recv`, and the control
//! calls (`ping`, `stats`, `trace`, …) are single round trips that may
//! overtake slower multiplies still in flight; the documents they fetch
//! come back decoded ([`crate::snapshot`]).

use crate::protocol::{
    self, decode_error, ErrorCode, Frame, FrameError, FrameHead, FrameKind, WireScalar,
    RESPONSE_PRELUDE, VERSION_V2,
};
use crate::snapshot::{Document, Logged, StatsSnapshot};
use fmm_dense::Matrix;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, IoSlice, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// The largest reply payload a client reads; a longer declared one is a
/// protocol error.
const MAX_REPLY_BYTES: usize = 64 << 20;

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
    next_id: u64,
    /// Responses read while looking for a different id.
    stash: HashMap<u64, Frame>,
}

/// What [`PipelinedClient::reply_for`] found for an id.
enum Reply {
    /// The reply's header; its payload is the next thing on the stream.
    Unread(FrameHead),
    /// A whole frame: a stashed reply, or a refusal under id 0.
    Read(Frame),
}

impl PipelinedClient {
    /// Connect, accepting reply payloads of up to 64 MiB.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { reader, writer: BufWriter::new(stream), next_id: 1, stash: HashMap::new() })
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
    ///
    /// The request sent is the one for `Cᵀ = Bᵀ·Aᵀ`, CBLAS's row-major
    /// convention: a column-major matrix is the row-major bytes of its
    /// transpose, so the prelude declares `(n, k, m)` and the elements of
    /// `B`, then `A`, follow the header as they lie in memory, in one
    /// vectored write, with no transposition and no copy. Operands with
    /// leading-dimension padding go out a column at a time instead. The
    /// daemon's audit therefore shows the problem as ⟨n,k,m⟩.
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
        let head = protocol::request_head::<T>(self.next_id, b.cols(), b.rows(), a.rows())?;
        let id = self.next_id;
        self.next_id += 1;
        match (dense_bytes(b), dense_bytes(a)) {
            (Some(bt), Some(at)) => {
                let parts = &mut [IoSlice::new(&head), IoSlice::new(bt), IoSlice::new(at)];
                protocol::write_all_vectored(&mut self.writer, parts)?;
            }
            _ => {
                self.writer.write_all(&head)?;
                for x in [b, a] {
                    for col in x.raw().chunks(x.leading_dim()).take(x.cols()) {
                        self.writer.write_all(protocol::wire_bytes(&col[..x.rows()]))?;
                    }
                }
            }
        }
        self.writer.flush()?;
        Ok(id)
    }

    /// Block for the response to `id`, reading (and stashing) any other
    /// responses that arrive first. The reply to a [`PipelinedClient::send`]
    /// is `Cᵀ`, `n × m` row-major, which is `C`'s column-major bytes: they
    /// are read off the socket straight into the `m × n` result.
    pub fn recv<T: WireScalar>(&mut self, id: u64) -> Result<Matrix<T>, ClientError> {
        let frame = match self.reply_for(id)? {
            Reply::Unread(head) if head.kind == FrameKind::Response => {
                return read_result(&mut self.reader, head.payload_len)
            }
            Reply::Unread(head) => protocol::read_payload(&mut self.reader, head)?,
            Reply::Read(frame) => frame,
        };
        let payload = expect_kind(frame, FrameKind::Response)?;
        read_result(&mut payload.as_slice(), payload.len())
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

    /// Fetch the server's stats snapshot (counters, gauges, per-phase
    /// histograms, and the decision audit; see the README's Observability
    /// section).
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        self.document(FrameKind::StatsJson, b"json")
    }

    /// Fetch the most recent `last` recorded events (`0` = everything the
    /// rings retain): the always-on events, plus the request phase spans
    /// when the server runs with tracing (`--trace` / `FMM_TRACE=1`).
    pub fn trace(&mut self, last: u64) -> Result<Vec<Logged>, ClientError> {
        let payload = if last == 0 { Vec::new() } else { last.to_le_bytes().to_vec() };
        self.document(FrameKind::Trace, &payload)
    }

    /// Ask the daemon to shut down (acknowledged before it stops
    /// accepting; in-flight requests drain).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        expect_kind(self.roundtrip(FrameKind::Shutdown, b"")?, FrameKind::Pong).map(drop)
    }

    /// One round trip the server answers in kind with a JSON
    /// [`Document`]; a body that is not UTF-8 or does not decode is a
    /// protocol error, naming the bad key.
    fn document<D: Document>(&mut self, kind: FrameKind, payload: &[u8]) -> Result<D, ClientError> {
        let body = expect_kind(self.roundtrip(kind, payload)?, kind)?;
        let body = String::from_utf8(body)
            .map_err(|_| ClientError::Protocol(format!("{kind:?} body is not UTF-8")))?;
        D::from_json(&body).map_err(|e| ClientError::Protocol(format!("{kind:?} reply: {e}")))
    }

    /// Read frames until `id`'s reply surfaces, stashing responses for
    /// other outstanding ids along the way.
    fn frame_for(&mut self, id: u64) -> Result<Frame, ClientError> {
        match self.reply_for(id)? {
            Reply::Unread(head) => Ok(protocol::read_payload(&mut self.reader, head)?),
            Reply::Read(frame) => Ok(frame),
        }
    }

    /// The reply to `id`: from the stash, or the next header on the stream
    /// that carries its id, stashing whole the responses for other
    /// outstanding ids read on the way.
    fn reply_for(&mut self, id: u64) -> Result<Reply, ClientError> {
        if let Some(frame) = self.stash.remove(&id) {
            return Ok(Reply::Read(frame));
        }
        loop {
            let head = protocol::read_header(&mut self.reader, MAX_REPLY_BYTES)?;
            if head.request_id == id {
                return Ok(Reply::Unread(head));
            }
            let frame = protocol::read_payload(&mut self.reader, head)?;
            // Ids start at 1, so an `Error` under id 0 is a connection-fatal
            // refusal of a header the server could not attribute (such as
            // `Oversized`): it answers whoever is waiting instead of
            // sitting in the stash until EOF.
            if frame.request_id == 0 && frame.kind == FrameKind::Error {
                return Ok(Reply::Read(frame));
            }
            self.stash.insert(frame.request_id, frame);
        }
    }
}

/// `x`'s elements as wire bytes when they are contiguous, column after
/// column with no leading-dimension padding between.
fn dense_bytes<T: WireScalar>(x: &Matrix<T>) -> Option<&[u8]> {
    let len = x.rows() * x.cols();
    (x.leading_dim() == x.rows() || len == 0).then(|| protocol::wire_bytes(&x.raw()[..len]))
}

/// Read a `Response` payload of `len` bytes from `r` as the result of a
/// request [`PipelinedClient::send`] transposed: the `n × m` row-major
/// reply is read as the `m × n` column-major result, straight into its
/// storage. A payload whose prelude does not check out is read to its end
/// (the stream stays framed) and refused.
fn read_result<T: WireScalar>(r: &mut impl Read, len: usize) -> Result<Matrix<T>, ClientError> {
    let mut prelude = [0u8; RESPONSE_PRELUDE];
    let (dims, rest) = match len.checked_sub(RESPONSE_PRELUDE) {
        Some(rest) => {
            r.read_exact(&mut prelude)?;
            (protocol::decode_response_prelude::<T>(&prelude, len), rest)
        }
        None => (Err(format!("response payload of {len} bytes is shorter than its prelude")), len),
    };
    match dims {
        Ok((rows, cols)) => {
            let mut c = Matrix::zeros(cols, rows);
            r.read_exact(protocol::wire_bytes_mut(&mut c.raw_mut()[..rows * cols]))?;
            Ok(c)
        }
        Err(message) => {
            // Read the payload to its end, so the stream stays framed.
            io::copy(&mut r.take(rest as u64), &mut io::sink())?;
            Err(ClientError::Protocol(message))
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

    /// `x` copied into storage with `pad` rows of leading-dimension padding.
    fn padded<T: WireScalar>(x: &Matrix<T>, pad: usize) -> Matrix<T> {
        let mut p = Matrix::with_leading_dim(x.rows(), x.cols(), x.rows() + pad);
        for j in 0..x.cols() {
            for i in 0..x.rows() {
                p.set(i, j, x.get(i, j));
            }
        }
        p
    }

    fn bits<T: WireScalar>(x: &Matrix<T>) -> Vec<u64> {
        let (rows, cols) = (x.rows(), x.cols());
        (0..cols).flat_map(|j| (0..rows).map(move |i| x.get(i, j).to_f64().to_bits())).collect()
    }

    /// A matrix's shape and bits.
    fn part<T: WireScalar>(x: &Matrix<T>) -> (usize, usize, Vec<u64>) {
        (x.rows(), x.cols(), bits(x))
    }

    /// A decoded request's dtype and its operands' shapes and bits.
    fn operands(r: protocol::DecodedRequest) -> (protocol::Dtype, [(usize, usize, Vec<u64>); 2]) {
        match r {
            protocol::DecodedRequest::F64 { a, b } => (protocol::Dtype::F64, [part(&a), part(&b)]),
            protocol::DecodedRequest::F32 { a, b } => (protocol::Dtype::F32, [part(&a), part(&b)]),
        }
    }

    /// Every request [`PipelinedClient::send`] writes decodes, with the
    /// protocol's own decoder, to the problem `Cᵀ = Bᵀ·Aᵀ`: its operands are
    /// `Bᵀ` and `Aᵀ`, bit for bit, dense or padded, `k = 0` included.
    fn send_frames_the_transposed_problem<T: WireScalar>() {
        let shapes = [(37, 29, 41), (1, 8, 1), (6, 0, 4), (16, 16, 16)];
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            (0..2 * shapes.len())
                .map(|_| protocol::read_frame_any(&mut stream, 1 << 24).unwrap())
                .collect::<Vec<_>>()
        });
        let mut client = PipelinedClient::connect(addr).unwrap();
        let mut sent = Vec::new();
        for (s, (m, k, n)) in shapes.into_iter().enumerate() {
            let a = fmm_dense::fill::bench_workload_t::<T>(m, k, 2 * s as u64 + 1);
            let b = fmm_dense::fill::bench_workload_t::<T>(k, n, 2 * s as u64 + 2);
            for (a, b) in [(a.clone(), b.clone()), (padded(&a, 3), padded(&b, 5))] {
                sent.push((client.send(&a, &b).unwrap(), a, b));
            }
        }
        for (frame, (id, a, b)) in peer.join().unwrap().into_iter().zip(sent) {
            let what = format!("{} {}x{}x{}", T::NAME, a.rows(), a.cols(), b.cols());
            assert_eq!((frame.request_id, frame.kind), (id, FrameKind::Request), "{what}");
            let decoded = protocol::decode_request(&frame.payload, 1 << 24).unwrap();
            let want = (T::DTYPE, [part(&b.transposed()), part(&a.transposed())]);
            assert_eq!(operands(decoded), want, "{what}: operands are not (Bᵀ, Aᵀ)");
        }
    }

    #[test]
    fn send_frames_the_transposed_problem_for_both_dtypes() {
        send_frames_the_transposed_problem::<f64>();
        send_frames_the_transposed_problem::<f32>();
    }

    /// A reply is read as the transpose of what it declares, from the
    /// socket or from a stashed frame alike; a reply that does not check
    /// out is refused and leaves the stream at the next frame.
    #[test]
    fn replies_read_as_the_transposed_result() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ct = fmm_dense::fill::bench_workload_t::<f64>(5, 3, 7);
        let reply = protocol::encode_response(&ct);
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut send = |id, kind, payload: &[u8]| {
                protocol::write_frame_v(&mut stream, VERSION_V2, id, kind, payload).unwrap()
            };
            // Id 2 first, so id 1's reply is stashed on the way.
            send(2, FrameKind::Response, &reply);
            send(1, FrameKind::Response, &reply);
            send(3, FrameKind::Response, &reply[..RESPONSE_PRELUDE - 2]);
            send(4, FrameKind::Response, &reply[..reply.len() - 8]);
            send(5, FrameKind::Response, &reply);
            send(6, FrameKind::Response, &reply);
        });
        let mut client = PipelinedClient::connect(addr).unwrap();
        let want = bits(&ct.transposed());
        assert_eq!(bits(&client.recv::<f64>(1).unwrap()), want, "from the socket");
        assert_eq!(bits(&client.recv::<f64>(2).unwrap()), want, "from the stash");
        assert!(matches!(client.recv::<f64>(3), Err(ClientError::Protocol(_))), "short");
        assert!(matches!(client.recv::<f64>(4), Err(ClientError::Protocol(_))), "truncated");
        assert!(matches!(client.recv::<f32>(5), Err(ClientError::Protocol(_))), "dtype");
        assert_eq!(bits(&client.recv::<f64>(6).unwrap()), want, "still framed");
        peer.join().unwrap();
    }
}
