//! Per-connection state for the event-loop server: an incremental frame
//! decoder that reads request operands straight into pooled buffers, and
//! a scatter-list write queue with partial-write continuation.
//!
//! The decoder is a byte-exact state machine over the frame grammar.
//! Every `read(2)` targets exactly the bytes the current state still
//! needs — a header remainder, the request prelude, or the tail of an
//! operand buffer — so reads never cross a frame boundary and a request's
//! `A`/`B` bytes land in their [`PooledBuf`]s in one copy off the wire.
//! Malformed input follows the protocol contract: payload-level
//! problems (bad dtype, dimension mismatch, over-cap result) skip the
//! rest of the payload and emit a recoverable error event; framing-level
//! corruption (bad magic/version/kind, over-cap declaration) emits a
//! fatal event after which the stream is never parsed again.
//!
//! The write queue holds segments rather than flattened bytes: a response
//! is `Bytes(header ‖ prelude)` followed by `Buf(result)`, written with
//! continuation from wherever the last `write(2)` stopped — a slow reader
//! costs backlog bytes, never a blocked thread.

use crate::buffers::{IngestPools, OperandStage, WireBuf};
use crate::protocol::{
    self, ErrorCode, FrameKind, HeaderInfo, RequestDims, HEADER_LEN, HEADER_PREFIX_LEN,
    REQUEST_PRELUDE,
};
use std::collections::VecDeque;
use std::io::{self, Read, Write};

/// Frame metadata carried through the decoder states and into events.
#[derive(Clone, Copy, Debug)]
pub struct FrameHead {
    /// The frame's request id, echoed in the reply.
    pub request_id: u64,
    /// The frame kind.
    pub kind: FrameKind,
    /// Declared payload length (cap-checked).
    pub payload_len: usize,
}

/// One fully decoded inbound frame, ready for the server to act on.
#[derive(Debug)]
pub enum InEvent {
    /// A well-formed multiply request; operands already staged in pooled
    /// buffers, host byte order.
    Request {
        /// Frame metadata.
        head: FrameHead,
        /// Validated dimensions.
        dims: RequestDims,
        /// The staged `A`/`B` operands.
        operands: OperandStage,
    },
    /// A liveness probe; the payload is echoed back.
    Ping {
        /// Frame metadata.
        head: FrameHead,
        /// The payload to echo.
        payload: Vec<u8>,
    },
    /// A registry-snapshot export request.
    StatsJson {
        /// Frame metadata.
        head: FrameHead,
        /// Render Prometheus plaintext instead of JSON (payload said
        /// `prometheus`).
        prometheus: bool,
    },
    /// A tracing-span dump request.
    Trace {
        /// Frame metadata.
        head: FrameHead,
        /// Most-recent event budget (0 = all retained events).
        last: u64,
    },
    /// A shutdown request.
    Shutdown {
        /// Frame metadata.
        head: FrameHead,
    },
    /// A live incident-dump request.
    Incident {
        /// Frame metadata.
        head: FrameHead,
    },
    /// A decodable frame that cannot be served: answer with a typed error
    /// and — when `fatal` — stop trusting the stream and close after the
    /// flush.
    Bad {
        /// Request id to echo (0 when the header never parsed).
        request_id: u64,
        /// The typed error code.
        code: ErrorCode,
        /// Human-readable detail for the error frame.
        message: String,
        /// Whether framing is unrecoverable (close after answering).
        fatal: bool,
    },
}

enum DecodeState {
    /// Accumulating the frame header. `info` is the classified prefix,
    /// set the moment [`HEADER_PREFIX_LEN`] bytes are in — a hostile
    /// prefix is refused without waiting for the request id behind it.
    Header { buf: [u8; HEADER_LEN], filled: usize, info: Option<HeaderInfo> },
    /// Buffering a small/non-request payload whole.
    Small { head: FrameHead, payload: Vec<u8>, filled: usize },
    /// Accumulating the 13-byte request prelude (dtype + dims).
    Prelude { head: FrameHead, buf: [u8; REQUEST_PRELUDE], filled: usize },
    /// Streaming operand bytes straight into pooled buffers.
    Operands { head: FrameHead, dims: RequestDims, stage: OperandStage, filled: usize },
    /// Draining the rest of an unservable payload before answering.
    Skip { remaining: usize, reply: Box<InEvent> },
    /// A fatal event was emitted; no further byte is ever parsed.
    Broken,
}

/// What one [`Decoder::step`] produced.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeStep {
    /// One event was appended to `events`; the caller decides whether to
    /// keep stepping (flow control lives above the decoder).
    Frame,
    /// Mid-frame `WouldBlock`: call again on the next readiness.
    NeedMore,
    /// Clean EOF at a frame boundary (or transport error): close.
    Closed,
    /// A fatal `Bad` event was emitted earlier; the stream is dead.
    Broken,
}

/// Incremental frame decoder for one connection.
///
/// The decode paths below parse untrusted network bytes, so they carry
/// the same machine-checked panic-freedom contract as `protocol` (see
/// README § Static analysis): the `fmm-check: contract(panic-free)`
/// pragmas scope the `deny-panic` rule to this impl and the free
/// functions it routes through.
pub struct Decoder {
    state: DecodeState,
    max_payload: usize,
}

// fmm-check: contract(panic-free)
impl Decoder {
    /// A decoder enforcing `max_payload` per frame.
    pub fn new(max_payload: usize) -> Self {
        Self { state: Self::fresh_header(), max_payload }
    }

    /// True once a fatal framing error has been emitted.
    pub fn is_broken(&self) -> bool {
        matches!(self.state, DecodeState::Broken)
    }

    /// Advance the state machine by at most one completed frame, reading
    /// from `r` (a nonblocking stream). Appends exactly one [`InEvent`]
    /// when it returns [`DecodeStep::Frame`].
    pub fn step(
        &mut self,
        r: &mut impl Read,
        pools: &IngestPools,
        events: &mut Vec<InEvent>,
    ) -> DecodeStep {
        loop {
            // Phase 1: I/O and transitions under a mutable borrow.
            let outcome = match &mut self.state {
                DecodeState::Broken => return DecodeStep::Broken,
                DecodeState::Header { buf, filled, info } => {
                    // `filled < buf.len()` is the state invariant; `get_mut`
                    // keeps the path panic-free regardless.
                    let dst = buf.get_mut(*filled..).unwrap_or(&mut []);
                    match read_into(r, dst) {
                        ReadChunk::Data(n) => *filled += n,
                        ReadChunk::WouldBlock => return DecodeStep::NeedMore,
                        ReadChunk::Eof => return DecodeStep::Closed,
                    }
                    if info.is_none() && *filled >= HEADER_PREFIX_LEN {
                        let prefix = protocol::le_bytes(buf.as_slice(), 0).unwrap_or_default();
                        match protocol::parse_header_prefix(&prefix, self.max_payload) {
                            Ok(parsed) => *info = Some(parsed),
                            Err(err) => {
                                let code = match err {
                                    protocol::FrameError::BadVersion(_) => {
                                        ErrorCode::UnsupportedVersion
                                    }
                                    protocol::FrameError::Oversized { .. } => ErrorCode::Oversized,
                                    _ => ErrorCode::Malformed,
                                };
                                events.push(InEvent::Bad {
                                    request_id: 0,
                                    code,
                                    message: err.to_string(),
                                    fatal: true,
                                });
                                self.state = DecodeState::Broken;
                                return DecodeStep::Frame;
                            }
                        }
                    }
                    if *filled < HEADER_LEN {
                        continue;
                    }
                    // `filled >= HEADER_PREFIX_LEN` classified the prefix
                    // above; a decoder bug breaks the stream rather than
                    // panicking.
                    let Some(info) = *info else {
                        self.state = DecodeState::Broken;
                        return DecodeStep::Broken;
                    };
                    let request_id = u64::from_le_bytes(
                        protocol::le_bytes(buf.as_slice(), HEADER_PREFIX_LEN).unwrap_or_default(),
                    );
                    self.state = next_payload_state(FrameHead {
                        request_id,
                        kind: info.kind,
                        payload_len: info.payload_len,
                    });
                    continue;
                }
                DecodeState::Small { payload, filled, .. } => {
                    while *filled < payload.len() {
                        let dst = payload.get_mut(*filled..).unwrap_or(&mut []);
                        match read_into(r, dst) {
                            ReadChunk::Data(n) => *filled += n,
                            ReadChunk::WouldBlock => return DecodeStep::NeedMore,
                            ReadChunk::Eof => return DecodeStep::Closed,
                        }
                    }
                    Complete::Frame
                }
                DecodeState::Prelude { head, buf, filled } => {
                    while *filled < REQUEST_PRELUDE {
                        let dst = buf.get_mut(*filled..).unwrap_or(&mut []);
                        match read_into(r, dst) {
                            ReadChunk::Data(n) => *filled += n,
                            ReadChunk::WouldBlock => return DecodeStep::NeedMore,
                            ReadChunk::Eof => return DecodeStep::Closed,
                        }
                    }
                    let head = *head;
                    match protocol::decode_request_prelude(buf, head.payload_len, self.max_payload)
                    {
                        Ok(dims) => {
                            let stage = OperandStage::acquire(pools, dims);
                            self.state = DecodeState::Operands { head, dims, stage, filled: 0 };
                        }
                        Err(message) => {
                            // Unservable dims: drain the declared payload
                            // so framing survives, then answer.
                            self.state = DecodeState::Skip {
                                remaining: head.payload_len - REQUEST_PRELUDE,
                                reply: Box::new(InEvent::Bad {
                                    request_id: head.request_id,
                                    code: ErrorCode::Malformed,
                                    message,
                                    fatal: false,
                                }),
                            };
                        }
                    }
                    continue;
                }
                DecodeState::Operands { dims, stage, filled, .. } => {
                    let total = dims.a_bytes() + dims.b_bytes();
                    while *filled < total {
                        match read_into(r, stage.spare_bytes(*dims, *filled)) {
                            ReadChunk::Data(n) => *filled += n,
                            ReadChunk::WouldBlock => return DecodeStep::NeedMore,
                            ReadChunk::Eof => return DecodeStep::Closed,
                        }
                    }
                    Complete::Frame
                }
                DecodeState::Skip { remaining, .. } => {
                    let mut scratch = [0u8; 4096];
                    while *remaining > 0 {
                        let want = (*remaining).min(scratch.len());
                        let dst = scratch.get_mut(..want).unwrap_or(&mut []);
                        match read_into(r, dst) {
                            ReadChunk::Data(n) => *remaining -= n,
                            ReadChunk::WouldBlock => return DecodeStep::NeedMore,
                            ReadChunk::Eof => return DecodeStep::Closed,
                        }
                    }
                    Complete::Frame
                }
            };
            // Phase 2: the frame is complete — take the state by value and
            // turn it into its event.
            let Complete::Frame = outcome;
            let finished = std::mem::replace(&mut self.state, Self::fresh_header());
            let event = match finished {
                DecodeState::Small { head, payload, .. } => small_frame_event(head, payload),
                DecodeState::Operands { head, dims, mut stage, .. } => {
                    stage.wire_to_host();
                    InEvent::Request { head, dims, operands: stage }
                }
                DecodeState::Skip { reply, .. } => *reply,
                // Header/Prelude/Broken never produce `Complete::Frame`;
                // a decoder bug lands here — break the stream rather than
                // panic.
                DecodeState::Header { .. } | DecodeState::Prelude { .. } | DecodeState::Broken => {
                    self.state = DecodeState::Broken;
                    return DecodeStep::Broken;
                }
            };
            events.push(event);
            return DecodeStep::Frame;
        }
    }

    fn fresh_header() -> DecodeState {
        DecodeState::Header { buf: [0; HEADER_LEN], filled: 0, info: None }
    }
}

/// Marker for a completed payload state (phase-1 → phase-2 hand-off in
/// [`Decoder::step`]).
enum Complete {
    Frame,
}

/// Route a completed header to its payload state.
// fmm-check: contract(panic-free)
fn next_payload_state(head: FrameHead) -> DecodeState {
    if head.kind == FrameKind::Request && head.payload_len >= REQUEST_PRELUDE {
        DecodeState::Prelude { head, buf: [0; REQUEST_PRELUDE], filled: 0 }
    } else {
        DecodeState::Small { head, payload: vec![0; head.payload_len], filled: 0 }
    }
}

/// Classify a fully buffered small frame into its event.
// fmm-check: contract(panic-free)
fn small_frame_event(head: FrameHead, payload: Vec<u8>) -> InEvent {
    match head.kind {
        FrameKind::Ping => InEvent::Ping { head, payload },
        FrameKind::StatsJson => {
            // Payload selects the exposition format: empty or `json` for
            // the JSON snapshot, `prometheus` for plaintext exposition.
            match payload.as_slice() {
                b"" | b"json" => InEvent::StatsJson { head, prometheus: false },
                b"prometheus" => InEvent::StatsJson { head, prometheus: true },
                _ => InEvent::Bad {
                    request_id: head.request_id,
                    code: ErrorCode::Malformed,
                    message: "stats-json payload must be empty, `json`, or `prometheus`"
                        .to_string(),
                    fatal: false,
                },
            }
        }
        FrameKind::Trace => {
            // Payload: optional 8-byte LE "last N events" bound.
            let last = match payload.len() {
                0 => 0,
                8 => u64::from_le_bytes(protocol::le_bytes(&payload, 0).unwrap_or_default()),
                n => {
                    return InEvent::Bad {
                        request_id: head.request_id,
                        code: ErrorCode::Malformed,
                        message: format!("trace payload must be 0 or 8 bytes, got {n}"),
                        fatal: false,
                    }
                }
            };
            InEvent::Trace { head, last }
        }
        FrameKind::Shutdown => InEvent::Shutdown { head },
        FrameKind::Incident => InEvent::Incident { head },
        FrameKind::Request => InEvent::Bad {
            request_id: head.request_id,
            code: ErrorCode::Malformed,
            message: format!(
                "request payload of {} bytes is shorter than the {REQUEST_PRELUDE}-byte prelude",
                head.payload_len
            ),
            fatal: false,
        },
        // Server-to-client kinds arriving at the server: protocol misuse
        // on an intact frame stream — answer, keep serving.
        FrameKind::Response | FrameKind::Error | FrameKind::Pong => InEvent::Bad {
            request_id: head.request_id,
            code: ErrorCode::Malformed,
            message: format!("frame kind {:?} is not a client request", head.kind),
            fatal: false,
        },
    }
}

enum ReadChunk {
    Data(usize),
    WouldBlock,
    Eof,
}

/// One nonblocking read into `target`, with `Interrupted` retried.
// fmm-check: contract(panic-free)
fn read_into(r: &mut impl Read, target: &mut [u8]) -> ReadChunk {
    if target.is_empty() {
        return ReadChunk::Data(0);
    }
    loop {
        match r.read(target) {
            Ok(0) => return ReadChunk::Eof,
            Ok(n) => return ReadChunk::Data(n),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadChunk::WouldBlock,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Transport errors close like EOF: nothing to answer.
            Err(_) => return ReadChunk::Eof,
        }
    }
}

/// One element of the outbound scatter list.
pub enum Segment {
    /// Owned header/prelude/error bytes.
    Bytes(Vec<u8>),
    /// A pooled result buffer written in place (returns to its pool when
    /// the segment completes).
    Buf(WireBuf),
}

impl Segment {
    fn bytes(&self) -> &[u8] {
        match self {
            Self::Bytes(b) => b,
            Self::Buf(b) => b.bytes(),
        }
    }
}

/// The outbound queue of one connection: segments plus a cursor into the
/// front segment, so a short `write(2)` resumes exactly where it left off.
#[derive(Default)]
pub struct WriteQueue {
    segments: VecDeque<Segment>,
    /// Bytes of the front segment already written.
    offset: usize,
    /// Total unwritten bytes across all segments.
    backlog: usize,
}

impl WriteQueue {
    /// Queue owned bytes (headers, error frames, stats bodies).
    pub fn push_bytes(&mut self, bytes: Vec<u8>) {
        self.backlog += bytes.len();
        self.segments.push_back(Segment::Bytes(bytes));
    }

    /// Queue a pooled result buffer; its bytes are written in place and
    /// the buffer returns to its pool when the segment is done.
    pub fn push_buf(&mut self, buf: WireBuf) {
        self.backlog += buf.bytes().len();
        self.segments.push_back(Segment::Buf(buf));
    }

    /// Unwritten bytes queued.
    pub fn backlog(&self) -> usize {
        self.backlog
    }

    /// True when everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Write as much as the socket accepts. `Ok(true)` means the queue
    /// drained; `Ok(false)` means the socket would block (wait for write
    /// readiness); `Err` means the connection is dead.
    pub fn flush(&mut self, w: &mut impl Write) -> io::Result<bool> {
        while let Some(front) = self.segments.front() {
            let bytes = front.bytes();
            while self.offset < bytes.len() {
                match w.write(&bytes[self.offset..]) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::WriteZero,
                            "peer stopped reading",
                        ))
                    }
                    Ok(n) => {
                        self.offset += n;
                        self.backlog -= n;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            self.offset = 0;
            self.segments.pop_front();
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Dtype, VERSION_V2};
    use fmm_dense::{fill, Matrix};
    use std::io::Cursor;

    /// A reader that hands out its bytes one at a time, then WouldBlock.
    struct Trickle {
        bytes: Vec<u8>,
        at: usize,
        burst: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.at >= self.bytes.len() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "drained"));
            }
            let n = buf.len().min(self.burst).min(self.bytes.len() - self.at);
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    fn request_wire(request_id: u64, a: &Matrix<f64>, b: &Matrix<f64>) -> Vec<u8> {
        let payload = protocol::encode_request(a, b);
        let mut wire = Vec::new();
        protocol::write_frame_v(&mut wire, VERSION_V2, request_id, FrameKind::Request, &payload)
            .unwrap();
        wire
    }

    #[test]
    fn one_byte_trickle_decodes_v2_request_bit_exactly() {
        let a = fill::bench_workload(5, 3, 1);
        let b = fill::bench_workload(3, 4, 2);
        let mut src = Trickle { bytes: request_wire(42, &a, &b), at: 0, burst: 1 };
        let pools = IngestPools::new(8, usize::MAX);
        let mut dec = Decoder::new(1 << 20);
        let mut events = Vec::new();
        loop {
            match dec.step(&mut src, &pools, &mut events) {
                DecodeStep::Frame => break,
                DecodeStep::NeedMore => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
        let (head, dims, operands) = match events.pop() {
            Some(InEvent::Request { head, dims, operands }) => (head, dims, operands),
            other => panic!("expected request, got {other:?}"),
        };
        assert_eq!(head.request_id, 42);
        assert_eq!(dims, RequestDims { dtype: Dtype::F64, m: 5, k: 3, n: 4 });
        let (pa, pb) = match operands {
            OperandStage::F64 { a, b } => (a, b),
            OperandStage::F32 { .. } => panic!("wrong dtype"),
        };
        for i in 0..5 {
            for j in 0..3 {
                assert_eq!(pa.mat_ref(5, 3).at(i, j), a.get(i, j));
            }
        }
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(pb.mat_ref(3, 4).at(i, j), b.get(i, j));
            }
        }
    }

    #[test]
    fn a_frame_header_is_consumed_by_one_read() {
        /// Counts `read` calls and records the size each one asked for.
        struct Counting {
            inner: Cursor<Vec<u8>>,
            asked: Vec<usize>,
        }
        impl Read for Counting {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.asked.push(buf.len());
                self.inner.read(buf)
            }
        }

        // Two frames back to back: reads must not cross the boundary.
        let mut wire = Vec::new();
        protocol::write_frame_v(&mut wire, VERSION_V2, 7, FrameKind::Ping, b"hi").unwrap();
        protocol::write_frame_v(&mut wire, VERSION_V2, 9, FrameKind::Ping, b"").unwrap();
        let mut src = Counting { inner: Cursor::new(wire), asked: Vec::new() };
        let pools = IngestPools::new(8, usize::MAX);
        let mut dec = Decoder::new(1 << 20);
        let mut events = Vec::new();
        assert_eq!(dec.step(&mut src, &pools, &mut events), DecodeStep::Frame);
        assert_eq!(dec.step(&mut src, &pools, &mut events), DecodeStep::Frame);
        match (&events[0], &events[1]) {
            (InEvent::Ping { head: h1, payload: p1 }, InEvent::Ping { head: h2, payload: p2 }) => {
                assert_eq!((h1.request_id, p1.as_slice()), (7, b"hi".as_slice()));
                assert_eq!((h2.request_id, p2.as_slice()), (9, b"".as_slice()));
            }
            other => panic!("unexpected event pair: {other:?}"),
        }
        assert_eq!(src.asked, [HEADER_LEN, 2, HEADER_LEN], "one read per header");
    }

    #[test]
    fn a_v1_header_is_refused_with_a_fatal_unsupported_version() {
        // Exactly the ten bytes a v1 peer's header had, then silence: the
        // refusal must not wait for a request id that will never come.
        let mut wire = protocol::MAGIC.to_vec();
        wire.extend_from_slice(&[1, FrameKind::Ping as u8, 0, 0, 0, 0]);
        assert_eq!(wire.len(), HEADER_PREFIX_LEN);
        let mut src = Trickle { bytes: wire, at: 0, burst: usize::MAX };
        let pools = IngestPools::new(8, usize::MAX);
        let mut dec = Decoder::new(1 << 20);
        let mut events = Vec::new();
        assert_eq!(dec.step(&mut src, &pools, &mut events), DecodeStep::Frame);
        match &events[0] {
            InEvent::Bad {
                request_id: 0,
                code: ErrorCode::UnsupportedVersion,
                message,
                fatal: true,
            } => assert!(message.contains("version 1"), "{message}"),
            other => panic!("expected a fatal UnsupportedVersion, got {other:?}"),
        }
        assert!(dec.is_broken());
        assert_eq!(dec.step(&mut src, &pools, &mut events), DecodeStep::Broken);
    }

    #[test]
    fn bad_dims_skip_the_payload_and_keep_the_stream() {
        // dtype 9 does not exist; the declared payload still has 16 junk
        // bytes that must be consumed for the next frame to parse.
        let mut payload = vec![9u8];
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&[0xAA; 16]);
        let mut wire = Vec::new();
        protocol::write_frame_v(&mut wire, VERSION_V2, 5, FrameKind::Request, &payload).unwrap();
        protocol::write_frame_v(&mut wire, VERSION_V2, 6, FrameKind::Ping, b"ok").unwrap();

        let pools = IngestPools::new(8, usize::MAX);
        let mut dec = Decoder::new(1 << 20);
        let mut events = Vec::new();
        let mut cursor = Cursor::new(wire);
        assert_eq!(dec.step(&mut cursor, &pools, &mut events), DecodeStep::Frame);
        assert_eq!(dec.step(&mut cursor, &pools, &mut events), DecodeStep::Frame);
        match &events[0] {
            InEvent::Bad {
                request_id: 5,
                code: ErrorCode::Malformed,
                message,
                fatal: false,
                ..
            } => {
                assert!(message.contains("dtype"), "{message}");
            }
            other => panic!("expected recoverable Bad, got {other:?}"),
        }
        assert!(matches!(&events[1], InEvent::Ping { head, .. } if head.request_id == 6));
    }

    #[test]
    fn bad_magic_is_fatal_and_stops_parsing() {
        let mut wire = vec![b'X', b'Y', b'Z', b'W'];
        wire.extend_from_slice(&[0u8; 20]);
        let pools = IngestPools::new(8, usize::MAX);
        let mut dec = Decoder::new(1 << 20);
        let mut events = Vec::new();
        let mut cursor = Cursor::new(wire);
        assert_eq!(dec.step(&mut cursor, &pools, &mut events), DecodeStep::Frame);
        assert!(matches!(&events[0], InEvent::Bad { code: ErrorCode::Malformed, fatal: true, .. }));
        assert!(dec.is_broken());
        assert_eq!(dec.step(&mut cursor, &pools, &mut events), DecodeStep::Broken);
    }

    #[test]
    fn write_queue_resumes_partial_writes_across_segments() {
        /// A writer accepting at most 3 bytes per call.
        struct Dribble {
            out: Vec<u8>,
            stalls: usize,
        }
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.stalls > 0 {
                    self.stalls -= 1;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "later"));
                }
                self.stalls = 1;
                let n = buf.len().min(3);
                self.out.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let pools = IngestPools::new(4, usize::MAX);
        let mut result = pools.f64.acquire(3);
        result.as_mut_slice().copy_from_slice(&[1.0, 2.0, 3.0]);
        let mut expected = b"HDR".to_vec();
        for v in [1.0f64, 2.0, 3.0] {
            expected.extend_from_slice(&v.to_le_bytes());
        }

        let mut q = WriteQueue::default();
        q.push_bytes(b"HDR".to_vec());
        q.push_buf(WireBuf::F64(result));
        assert_eq!(q.backlog(), expected.len());

        let mut sink = Dribble { out: Vec::new(), stalls: 0 };
        let mut rounds = 0;
        while !q.flush(&mut sink).unwrap() {
            rounds += 1;
            assert!(rounds < 100, "flush must make progress");
        }
        assert!(q.is_empty());
        assert_eq!(q.backlog(), 0);
        assert_eq!(sink.out, expected);
    }
}
