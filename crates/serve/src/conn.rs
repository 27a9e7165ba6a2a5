//! The inbound half of a connection: [`read_event`] reads one frame with
//! blocking reads and turns it into the [`InEvent`] the server acts on.
//!
//! The header comes through [`protocol::read_header`], the reader clients
//! use too. A request's prelude is validated before its operands are read,
//! and the `A`/`B` bytes are read straight into pooled buffers — one copy
//! off the wire. Malformed input follows the protocol contract:
//! payload-level problems (bad dtype, dimension mismatch, over-cap result)
//! skip the rest of the payload and yield a recoverable error event;
//! framing-level corruption (bad magic/version/kind, over-cap declaration)
//! yields a fatal event, after which the caller reads nothing more.
//!
//! These paths parse untrusted network bytes, so they carry the same
//! machine-checked panic-freedom contract as `protocol`: [`read_event`]
//! and `small_frame_event` deny the same clippy lints.

use crate::buffers::{IngestPools, OperandStage};
use crate::protocol::{
    self, ErrorCode, FrameError, FrameHead, FrameKind, RequestDims, REQUEST_PRELUDE,
};
use std::io::{self, Read};
use std::net::TcpStream;

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
    /// reply.
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

/// Read one inbound frame from `r`, enforcing `max_payload`. `Ok(None)` is
/// a clean close at a frame boundary; `Err` is a transport error, or
/// `UnexpectedEof` for a stream that ends inside a frame.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub fn read_event(
    r: &mut impl Read,
    max_payload: usize,
    pools: &IngestPools,
) -> io::Result<Option<InEvent>> {
    let head = match protocol::read_header(r, max_payload) {
        Ok(head) => head,
        Err(FrameError::Closed) => return Ok(None),
        Err(FrameError::Io(e)) => return Err(e),
        Err(err) => {
            let code = match err {
                FrameError::BadVersion(_) => ErrorCode::UnsupportedVersion,
                FrameError::Oversized { .. } => ErrorCode::Oversized,
                _ => ErrorCode::Malformed,
            };
            let message = err.to_string();
            return Ok(Some(InEvent::Bad { request_id: 0, code, message, fatal: true }));
        }
    };
    if head.kind != FrameKind::Request || head.payload_len < REQUEST_PRELUDE {
        let mut payload = vec![0; head.payload_len];
        r.read_exact(&mut payload)?;
        return Ok(Some(small_frame_event(head, payload)));
    }
    let mut prelude = [0; REQUEST_PRELUDE];
    r.read_exact(&mut prelude)?;
    match protocol::decode_request_prelude(&prelude, head.payload_len, max_payload) {
        Ok(dims) => {
            let mut operands = OperandStage::acquire(pools, dims);
            let (a, b) = operands.bytes_mut();
            r.read_exact(a)?;
            r.read_exact(b)?;
            operands.wire_to_host();
            Ok(Some(InEvent::Request { head, dims, operands }))
        }
        Err(message) => {
            // Unservable dims: drain the declared payload so framing
            // survives, then answer.
            let rest = (head.payload_len - REQUEST_PRELUDE) as u64;
            if io::copy(&mut r.take(rest), &mut io::sink())? < rest {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let request_id = head.request_id;
            Ok(Some(InEvent::Bad { request_id, code: ErrorCode::Malformed, message, fatal: false }))
        }
    }
}

/// Classify a fully buffered small frame into its event.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
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

/// Whether bytes from the peer already wait in `stream`'s receive buffer
/// (a pipelining client's next request), probed without blocking and
/// without consuming them. Where the probe fails or does not exist the
/// answer is `true`, which sends every request through the dispatcher as
/// if nothing were known.
pub fn bytes_pending(stream: &TcpStream) -> bool {
    sys::bytes_pending(stream)
}

#[cfg(unix)]
mod sys {
    //! `recv(2)` with `MSG_PEEK | MSG_DONTWAIT`, hand-declared like the
    //! signal shim in `incident`: no libc crate.
    #![allow(non_camel_case_types)]

    use std::io;
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;

    type c_int = i32;

    const MSG_PEEK: c_int = 0x2;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const MSG_DONTWAIT: c_int = 0x40;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const MSG_DONTWAIT: c_int = 0x80;

    // The descriptor and flags cross the ABI as 32-bit ints, the length
    // and the result as machine words, on every supported Unix.
    const _: () = assert!(std::mem::size_of::<c_int>() == 4);

    extern "C" {
        fn recv(socket: c_int, buf: *mut u8, len: usize, flags: c_int) -> isize;
    }

    pub fn bytes_pending(stream: &TcpStream) -> bool {
        let mut byte = 0u8;
        // SAFETY: the descriptor is a live socket borrowed from `stream`
        // for the call, and `buf` points at one writable byte, the `len`
        // passed; MSG_DONTWAIT keeps the call from blocking and MSG_PEEK
        // leaves the byte in the socket.
        let got = unsafe { recv(stream.as_raw_fd(), &mut byte, 1, MSG_PEEK | MSG_DONTWAIT) };
        // 0 is end of stream: nothing more will come.
        got > 0 || got < 0 && io::Error::last_os_error().kind() != io::ErrorKind::WouldBlock
    }
}

#[cfg(not(unix))]
mod sys {
    //! No probe: every request is taken to have company.
    pub fn bytes_pending(_: &std::net::TcpStream) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Dtype, HEADER_LEN, HEADER_PREFIX_LEN, VERSION_V2};
    use fmm_dense::{fill, Matrix};
    use std::io::Cursor;

    /// A reader that hands out at most `burst` bytes per call, then
    /// `WouldBlock` — so a test fails if the reader asks past its input.
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

    /// A fault-injecting adapter: each call either fails with
    /// `Interrupted` or reads 1..=`k` bytes from `inner`, both chosen by a
    /// xorshift stream seeded from one `u64`.
    struct Faulty<R> {
        inner: R,
        state: u64,
        k: usize,
    }

    impl<R> Faulty<R> {
        fn new(inner: R, seed: u64) -> Self {
            let k = 1 + (seed % 40) as usize;
            Self { inner, state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1, k }
        }
    }

    impl<R: Read> Read for Faulty<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            if self.state.is_multiple_of(5) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = (1 + (self.state >> 16) as usize % self.k).min(buf.len());
            self.inner.read(&mut buf[..n])
        }
    }

    fn frame(wire: &mut Vec<u8>, request_id: u64, kind: FrameKind, payload: &[u8]) {
        protocol::write_frame_v(wire, VERSION_V2, request_id, kind, payload).unwrap();
    }

    fn request_wire(request_id: u64, a: &Matrix<f64>, b: &Matrix<f64>) -> Vec<u8> {
        let mut wire = Vec::new();
        frame(&mut wire, request_id, FrameKind::Request, &protocol::encode_request(a, b));
        wire
    }

    /// A request whose dtype byte (9) does not exist, with 16 junk operand
    /// bytes the reader must skip.
    fn bad_dims_payload() -> Vec<u8> {
        let mut payload = vec![9u8];
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&[0xAA; 16]);
        payload
    }

    #[test]
    fn one_byte_trickle_decodes_v2_request_bit_exactly() {
        let a = fill::bench_workload(5, 3, 1);
        let b = fill::bench_workload(3, 4, 2);
        let mut src = Trickle { bytes: request_wire(42, &a, &b), at: 0, burst: 1 };
        let pools = IngestPools::new(8, usize::MAX);
        let (head, dims, operands) = match read_event(&mut src, 1 << 20, &pools) {
            Ok(Some(InEvent::Request { head, dims, operands })) => (head, dims, operands),
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
        frame(&mut wire, 7, FrameKind::Ping, b"hi");
        frame(&mut wire, 9, FrameKind::Ping, b"");
        let mut src = Counting { inner: Cursor::new(wire), asked: Vec::new() };
        let pools = IngestPools::new(8, usize::MAX);
        let first = read_event(&mut src, 1 << 20, &pools).unwrap();
        let second = read_event(&mut src, 1 << 20, &pools).unwrap();
        match (first, second) {
            (
                Some(InEvent::Ping { head: h1, payload: p1 }),
                Some(InEvent::Ping { head: h2, payload: p2 }),
            ) => {
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
        match read_event(&mut src, 1 << 20, &pools) {
            Ok(Some(InEvent::Bad {
                request_id: 0,
                code: ErrorCode::UnsupportedVersion,
                message,
                fatal: true,
            })) => assert!(message.contains("version 1"), "{message}"),
            other => panic!("expected a fatal UnsupportedVersion, got {other:?}"),
        }
        assert_eq!(src.at, HEADER_PREFIX_LEN, "nothing past the prefix was read");
    }

    #[test]
    fn bad_dims_skip_the_payload_and_keep_the_stream() {
        // The declared payload still has 16 junk bytes that must be
        // consumed for the next frame to parse.
        let mut wire = Vec::new();
        frame(&mut wire, 5, FrameKind::Request, &bad_dims_payload());
        frame(&mut wire, 6, FrameKind::Ping, b"ok");

        let pools = IngestPools::new(8, usize::MAX);
        let mut cursor = Cursor::new(wire);
        match read_event(&mut cursor, 1 << 20, &pools) {
            Ok(Some(InEvent::Bad {
                request_id: 5,
                code: ErrorCode::Malformed,
                message,
                fatal: false,
                ..
            })) => {
                assert!(message.contains("dtype"), "{message}");
            }
            other => panic!("expected recoverable Bad, got {other:?}"),
        }
        let next = read_event(&mut cursor, 1 << 20, &pools);
        assert!(matches!(&next, Ok(Some(InEvent::Ping { head, .. })) if head.request_id == 6));
    }

    #[test]
    fn bad_magic_is_fatal_and_stops_parsing() {
        let mut wire = vec![b'X', b'Y', b'Z', b'W'];
        wire.extend_from_slice(&[0u8; 20]);
        let pools = IngestPools::new(8, usize::MAX);
        let mut cursor = Cursor::new(wire);
        let event = read_event(&mut cursor, 1 << 20, &pools);
        assert!(matches!(
            &event,
            Ok(Some(InEvent::Bad { code: ErrorCode::Malformed, fatal: true, .. }))
        ));
        assert_eq!(cursor.position(), HEADER_LEN as u64, "nothing past the header was read");
    }

    /// One stream holding every frame kind, and the offsets where frames
    /// end.
    fn every_kind_stream() -> (Vec<u8>, Vec<usize>) {
        let a = fill::bench_workload(5, 3, 1);
        let b = fill::bench_workload(3, 4, 2);
        let a32 = fill::bench_workload_t::<f32>(2, 6, 3);
        let b32 = fill::bench_workload_t::<f32>(6, 3, 4);
        let frames: Vec<(FrameKind, Vec<u8>)> = vec![
            (FrameKind::Request, protocol::encode_request(&a, &b)),
            (FrameKind::Request, protocol::encode_request(&a32, &b32)),
            (FrameKind::Ping, b"hi".to_vec()),
            (FrameKind::StatsJson, b"json".to_vec()),
            (FrameKind::StatsJson, b"prometheus".to_vec()),
            (FrameKind::StatsJson, b"xml".to_vec()),
            (FrameKind::Trace, Vec::new()),
            (FrameKind::Trace, 16u64.to_le_bytes().to_vec()),
            (FrameKind::Trace, vec![1, 2, 3]),
            (FrameKind::Shutdown, Vec::new()),
            (FrameKind::Incident, Vec::new()),
            (FrameKind::Request, bad_dims_payload()),
            (FrameKind::Response, b"not for the server".to_vec()),
        ];
        let mut wire = Vec::new();
        let mut ends = vec![0];
        for (id, (kind, payload)) in frames.iter().enumerate() {
            frame(&mut wire, id as u64 + 1, *kind, payload);
            ends.push(wire.len());
        }
        (wire, ends)
    }

    /// An event reduced to something comparable: its debug form, with a
    /// request's operand bytes spelled out.
    fn describe(event: &InEvent) -> String {
        match event {
            InEvent::Request { head, dims, operands: OperandStage::F64 { a, b } } => {
                format!("{head:?} {dims:?} {:?} {:?}", a.bytes(), b.bytes())
            }
            InEvent::Request { head, dims, operands: OperandStage::F32 { a, b } } => {
                format!("{head:?} {dims:?} {:?} {:?}", a.bytes(), b.bytes())
            }
            other => format!("{other:?}"),
        }
    }

    /// Every event `r` yields until it closes or fails.
    fn read_all(r: &mut impl Read, pools: &IngestPools) -> (Vec<String>, io::Result<()>) {
        let mut events = Vec::new();
        loop {
            match read_event(r, 1 << 20, pools) {
                Ok(Some(event)) => events.push(describe(&event)),
                Ok(None) => return (events, Ok(())),
                Err(e) => return (events, Err(e)),
            }
        }
    }

    #[test]
    fn fault_injected_reads_decode_like_one_shot() {
        let (wire, _) = every_kind_stream();
        let pools = IngestPools::new(8, usize::MAX);
        let (want, end) = read_all(&mut Cursor::new(&wire), &pools);
        assert!(end.is_ok(), "{end:?}");
        assert_eq!(want.len(), 13, "{want:#?}");
        for (i, needle) in [
            (0, "Request"),
            (1, "F32"),
            (5, "stats-json payload"),
            (8, "got 3"),
            (11, "dtype 9"),
            (12, "not a client request"),
        ] {
            assert!(want[i].contains(needle), "event {i}: {}", want[i]);
        }
        for seed in 0..256 {
            let (got, end) = read_all(&mut Faulty::new(Cursor::new(&wire), seed), &pools);
            assert!(end.is_ok(), "seed {seed}: {end:?}");
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn a_truncated_stream_closes_cleanly_or_hits_eof() {
        let (wire, ends) = every_kind_stream();
        let pools = IngestPools::new(8, usize::MAX);
        for cut in 0..=wire.len() {
            let cut_wire = Cursor::new(&wire[..cut]);
            let (events, end) = read_all(&mut Faulty::new(cut_wire, cut as u64), &pools);
            let whole = ends.iter().position(|&e| e >= cut).unwrap();
            match end {
                Ok(()) => assert_eq!(ends[whole], cut, "clean close only at a frame boundary"),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}: {e}"),
            }
            assert_eq!(events.len(), whole.min(ends.len() - 1) - usize::from(ends[whole] > cut));
        }
    }
}
