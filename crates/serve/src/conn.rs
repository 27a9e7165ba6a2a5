//! The inbound half of a connection: [`read_event`] reads one frame with
//! blocking reads and turns it into the [`InEvent`] the server acts on.
//!
//! The server reads through a per-connection head buffer, a `BufReader` of
//! [`HEAD_BUF`] bytes, so a request's header and prelude arrive in one
//! read, and whatever came along with them is consumed from the buffer
//! before the socket is read again. The header comes through
//! [`protocol::read_header`], the reader clients use too. A request's
//! prelude is validated before its operands are read, and the `A`/`B`
//! bytes are read straight into pooled buffers in one vectored-read loop —
//! one copy off the wire. Malformed input follows the protocol contract:
//! payload-level problems (bad dtype, dimension mismatch, over-cap result)
//! skip the rest of the payload and yield a recoverable error event;
//! framing-level corruption (bad magic/version/kind, over-cap declaration)
//! yields a fatal event, after which the caller reads nothing more.
//!
//! These paths parse untrusted network bytes, so they carry the same
//! machine-checked panic-freedom contract as `protocol`: [`read_event`],
//! `read_operands`, `small_frame_event` and [`frame_buffered`] deny the
//! same clippy lints.
//!
//! The module also holds the one write the reader makes, `NoWait`: a
//! vectored send that never blocks and leaves the socket blocking for the
//! writer thread.

use crate::buffers::{IngestPools, OperandStage};
use crate::protocol::{
    self, ErrorCode, FrameError, FrameHead, FrameKind, RequestDims, HEADER_LEN, HEADER_PREFIX_LEN,
    REQUEST_PRELUDE,
};
use std::io::{self, BufReader, IoSlice, IoSliceMut, Read, Write};
use std::net::TcpStream;

/// Bytes of a connection's head buffer (the `BufReader` the server reads
/// through): room for a request's header and prelude (31 bytes) and what
/// arrives behind them.
pub const HEAD_BUF: usize = 256;

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
/// `UnexpectedEof` for a stream that ends inside a frame. The server's `r`
/// is its connection's head buffer.
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
            read_operands(r, a, b)?;
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

/// Fill `a` then `b` from `r` in one vectored-read loop, retrying
/// `Interrupted`. Empty operands are skipped before the first read, so a
/// `k = 0` request, whose operands are both empty, reads nothing. A reader
/// that claims more bytes than it was asked for is an `InvalidData` error.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
fn read_operands(r: &mut impl Read, a: &mut [u8], b: &mut [u8]) -> io::Result<()> {
    let mut parts = [IoSliceMut::new(a), IoSliceMut::new(b)];
    let mut left = parts.as_mut_slice();
    IoSliceMut::advance_slices(&mut left, 0);
    while !left.is_empty() {
        match r.read_vectored(left) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) if n > left.iter().map(|s| s.len()).sum::<usize>() => {
                return Err(io::ErrorKind::InvalidData.into());
            }
            Ok(n) => IoSliceMut::advance_slices(&mut left, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
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
        FrameKind::StatsJson => match payload.as_slice() {
            b"" | b"json" => InEvent::StatsJson { head },
            _ => InEvent::Bad {
                request_id: head.request_id,
                code: ErrorCode::Malformed,
                message: "stats-json payload must be empty or `json`".to_string(),
                fatal: false,
            },
        },
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

/// Whether the whole next frame is already here, so reading it cannot
/// block: its length prefix, taken from the head buffer (and, when the
/// buffer holds only part of it, peeked from the socket past it),
/// declares a frame that the bytes held in the buffer and the socket's
/// receive buffer cover. Probed without blocking or consuming anything,
/// and without a system call when the buffer holds the frame; the socket
/// is peeked only for prefix bytes its receive buffer already holds.
/// `false` where the probe fails.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub fn frame_buffered(reader: &BufReader<&TcpStream>) -> bool {
    let held = reader.buffer();
    let stream = *reader.get_ref();
    let frame_len = |prefix: &[u8]| {
        protocol::le_bytes(prefix, HEADER_PREFIX_LEN - 4)
            .map(|len: [u8; 4]| HEADER_LEN.saturating_add(u32::from_le_bytes(len) as usize))
    };
    let (frame, in_socket) = match frame_len(held) {
        Some(frame) if held.len() >= frame => return true,
        Some(frame) => (frame, sys::buffered(stream)),
        None => {
            // The buffer holds less than the prefix: peek the rest of it,
            // once the socket holds those bytes.
            let Some(in_socket) = sys::buffered(stream) else { return false };
            let mut prefix = [0; HEADER_PREFIX_LEN];
            for (d, s) in prefix.iter_mut().zip(held) {
                *d = *s;
            }
            let Some(missing) = prefix.get_mut(held.len()..) else { return false };
            let want = missing.len();
            if in_socket < want || !matches!(stream.peek(missing), Ok(n) if n == want) {
                return false;
            }
            match frame_len(&prefix) {
                Some(frame) => (frame, Some(in_socket)),
                None => return false,
            }
        }
    };
    in_socket.is_some_and(|n| held.len().saturating_add(n) >= frame)
}

/// A connection's socket written without blocking, for the reader's write
/// under the write claim: what the socket will not take at once is
/// `WouldBlock`, and the descriptor stays blocking for the writer thread.
pub(crate) struct NoWait<'a>(pub &'a TcpStream);

impl Write for NoWait<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    /// One `sendmsg(2)` with `MSG_DONTWAIT | MSG_NOSIGNAL`.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        sys::linux::send_nowait(self.0, bufs)
    }

    /// Without the `sendmsg` shim, the socket is switched to nonblocking
    /// around the send.
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let mut stream = self.0;
        stream.set_nonblocking(true)?;
        let sent = stream.write_vectored(bufs);
        stream.set_nonblocking(false)?;
        sent
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(unix)]
mod sys {
    //! `ioctl(2)` with `FIONREAD`, and on Linux `sendmsg(2)`, hand-declared
    //! like the signal shim in `incident`: no libc crate.

    use std::ffi::{c_int, c_ulong};
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    const FIONREAD: c_ulong = 0x541B;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const FIONREAD: c_ulong = 0x4004_667F;

    extern "C" {
        fn ioctl(fd: c_int, request: c_ulong, ...) -> c_int;
    }

    /// Bytes waiting in the receive buffer, or `None` if the probe failed.
    pub fn buffered(stream: &TcpStream) -> Option<usize> {
        let mut count: c_int = 0;
        // SAFETY: the descriptor is a live socket borrowed from `stream`
        // for the call, and FIONREAD writes one `int` through the pointer,
        // which points at `count`.
        let rc = unsafe { ioctl(stream.as_raw_fd(), FIONREAD, &mut count as *mut c_int) };
        usize::try_from(count).ok().filter(|_| rc == 0)
    }

    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub mod linux {
        use std::ffi::{c_int, c_void};
        use std::io::{self, IoSlice};
        use std::net::TcpStream;
        use std::os::fd::AsRawFd;

        const MSG_DONTWAIT: c_int = 0x40;
        const MSG_NOSIGNAL: c_int = 0x4000;

        /// The kernel's `struct msghdr`, whose lengths are `size_t` (musl
        /// declares them `int` beside zeroed padding, which reads the
        /// same).
        #[repr(C)]
        struct MsgHdr {
            name: *mut c_void,
            name_len: u32,
            iov: *const IoSlice<'static>,
            iov_len: usize,
            control: *mut c_void,
            control_len: usize,
            flags: c_int,
        }

        extern "C" {
            fn sendmsg(fd: c_int, msg: *const MsgHdr, flags: c_int) -> isize;
        }

        /// One vectored send that fails with `WouldBlock` where the socket
        /// would block, and with `EPIPE` rather than a signal on a closed
        /// peer.
        pub fn send_nowait(stream: &TcpStream, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let msg = MsgHdr {
                name: std::ptr::null_mut(),
                name_len: 0,
                iov: bufs.as_ptr().cast(),
                iov_len: bufs.len(),
                control: std::ptr::null_mut(),
                control_len: 0,
                flags: 0,
            };
            // SAFETY: the descriptor is a live socket borrowed from
            // `stream` for the call; `msg` names no address and no control
            // data, and its `iov` points at `bufs`, whose `IoSlice`s are
            // ABI-compatible with `struct iovec` and outlive the call. The
            // kernel only reads through the pointers.
            let sent = unsafe { sendmsg(stream.as_raw_fd(), &msg, MSG_DONTWAIT | MSG_NOSIGNAL) };
            usize::try_from(sent).map_err(|_| io::Error::last_os_error())
        }
    }
}

#[cfg(not(unix))]
mod sys {
    //! No probe.
    pub fn buffered(_: &std::net::TcpStream) -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Dtype, VERSION_V2};
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
        // Two frames back to back, read without a head buffer: reads must
        // not cross the boundary.
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
        // k = 0: both operands empty.
        let (a0, b0) = (fill::bench_workload(6, 0, 5), fill::bench_workload(0, 4, 6));
        // A whole frame shorter than the head buffer: the read for its
        // header pulls in bytes of the frame after it.
        let (a1, b1) = (fill::bench_workload(2, 1, 7), fill::bench_workload(1, 2, 8));
        let frames: Vec<(FrameKind, Vec<u8>)> = vec![
            (FrameKind::Request, protocol::encode_request(&a, &b)),
            (FrameKind::Request, protocol::encode_request(&a32, &b32)),
            (FrameKind::Request, protocol::encode_request(&a0, &b0)),
            (FrameKind::Request, protocol::encode_request(&a1, &b1)),
            (FrameKind::Ping, b"hi".to_vec()),
            (FrameKind::StatsJson, b"json".to_vec()),
            (FrameKind::StatsJson, b"prometheus".to_vec()),
            (FrameKind::StatsJson, b"xml".to_vec()),
            (FrameKind::Trace, Vec::new()),
            (FrameKind::Trace, 16u64.to_le_bytes().to_vec()),
            (FrameKind::Trace, vec![1, 2, 3]),
            (FrameKind::Shutdown, Vec::new()),
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

    /// Every event `r` yields through a head buffer, as the server reads
    /// it, until it closes or fails.
    fn read_all(r: impl Read, pools: &IngestPools) -> (Vec<String>, io::Result<()>) {
        let mut r = BufReader::with_capacity(HEAD_BUF, r);
        let mut events = Vec::new();
        loop {
            match read_event(&mut r, 1 << 20, pools) {
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
        let (want, end) = read_all(Cursor::new(&wire), &pools);
        assert!(end.is_ok(), "{end:?}");
        assert_eq!(want.len(), 14, "{want:#?}");
        for (i, needle) in [
            (0, "Request"),
            (1, "F32"),
            (2, "m: 6, k: 0, n: 4"),
            (3, "m: 2, k: 1, n: 2"),
            (4, "Ping"),
            (5, "StatsJson"),
            // The retired plaintext-stats payload is refused like any
            // other, and the stream reads on past it.
            (6, "stats-json payload must be empty or `json`"),
            (6, "fatal: false"),
            (7, "stats-json payload"),
            (8, "Trace"),
            (10, "got 3"),
            (11, "Shutdown"),
            (12, "dtype 9"),
            (13, "not a client request"),
        ] {
            assert!(want[i].contains(needle), "event {i}: {}", want[i]);
        }
        for seed in 0..256 {
            let (got, end) = read_all(Faulty::new(Cursor::new(&wire), seed), &pools);
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
            let (events, end) = read_all(Faulty::new(cut_wire, cut as u64), &pools);
            let whole = ends.iter().position(|&e| e >= cut).unwrap();
            match end {
                Ok(()) => assert_eq!(ends[whole], cut, "clean close only at a frame boundary"),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}: {e}"),
            }
            assert_eq!(events.len(), whole.min(ends.len() - 1) - usize::from(ends[whole] > cut));
        }
    }

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

        fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
            self.asked.push(bufs.iter().map(|b| b.len()).sum());
            self.inner.read_vectored(bufs)
        }
    }

    #[test]
    fn a_request_takes_two_reads_through_the_head_buffer() {
        // A request whose operands outrun the head buffer, then two pings.
        let a = fill::bench_workload(16, 16, 1);
        let b = fill::bench_workload(16, 16, 2);
        let mut wire = request_wire(1, &a, &b);
        frame(&mut wire, 2, FrameKind::Ping, b"hi");
        frame(&mut wire, 3, FrameKind::Ping, b"");
        let counting = Counting { inner: Cursor::new(wire), asked: Vec::new() };
        let mut src = BufReader::with_capacity(HEAD_BUF, counting);
        let pools = IngestPools::new(8, usize::MAX);
        let ids: Vec<u64> = (0..3)
            .map(|_| match read_event(&mut src, 1 << 20, &pools) {
                Ok(Some(InEvent::Request { head, .. } | InEvent::Ping { head, .. })) => {
                    head.request_id
                }
                other => panic!("unexpected event: {other:?}"),
            })
            .collect();
        assert_eq!(ids, [1, 2, 3]);
        // Header and prelude come with the head buffer's first read; the
        // operand bytes it holds past them are copied out, and the rest of
        // both operands comes in one vectored read. Both pings then arrive
        // in one read.
        let operands = 2 * 16 * 16 * 8;
        let past_prelude = HEAD_BUF - HEADER_LEN - REQUEST_PRELUDE;
        assert_eq!(src.get_ref().asked, [HEAD_BUF, operands - past_prelude, HEAD_BUF]);
    }

    #[test]
    fn frame_buffered_counts_what_the_head_buffer_holds() {
        use std::net::TcpListener;
        use std::time::{Duration, Instant};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let arrived = |n: usize| {
            let deadline = Instant::now() + Duration::from_secs(20);
            while sys::buffered(&server).unwrap_or(0) < n {
                assert!(Instant::now() < deadline, "{n} bytes never arrived");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let mut wire = Vec::new();
        for (id, payload) in [(1, &b"hi"[..]), (2, b""), (3, b"x"), (4, &[7; 64])] {
            frame(&mut wire, id, FrameKind::Ping, payload);
        }
        // All of pings 1 and 2, and the first 5 bytes of ping 3's prefix.
        let split = HEADER_LEN + 2 + HEADER_LEN + 5;
        peer.write_all(&wire[..split]).unwrap();
        arrived(split);

        let mut inbound = BufReader::with_capacity(HEAD_BUF, &server);
        let pools = IngestPools::new(8, usize::MAX);
        let next_id =
            |inbound: &mut BufReader<&TcpStream>| match read_event(inbound, 1 << 20, &pools) {
                Ok(Some(InEvent::Ping { head, .. })) => head.request_id,
                other => panic!("expected a ping, got {other:?}"),
            };
        assert_eq!(next_id(&mut inbound), 1);
        assert_eq!(sys::buffered(&server), Some(0), "the first read took everything sent");
        assert!(frame_buffered(&inbound), "ping 2 is in the head buffer");
        assert_eq!(next_id(&mut inbound), 2);
        assert!(!frame_buffered(&inbound), "only 5 bytes of ping 3 are here");

        // The rest of ping 3's prefix is in the socket, its first five
        // bytes in the head buffer. Behind it come ping 4's header and 10
        // of its 64 payload bytes.
        let cut = wire.len() - 54;
        peer.write_all(&wire[split..cut]).unwrap();
        arrived(cut - split);
        assert!(frame_buffered(&inbound), "ping 3 is split between buffer and socket");
        assert_eq!(next_id(&mut inbound), 3);

        // Ping 4's whole header is in the head buffer, the socket is
        // empty: the probe answers at once, without waiting on the socket.
        assert_eq!((inbound.buffer().len(), sys::buffered(&server)), (HEADER_LEN + 10, Some(0)));
        server.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let started = Instant::now();
        assert!(!frame_buffered(&inbound), "54 bytes of ping 4 are missing");
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "the probe waited {took:?} on the socket");

        peer.write_all(&wire[cut..]).unwrap();
        arrived(54);
        assert!(frame_buffered(&inbound), "ping 4 is split between buffer and socket");
        assert_eq!(next_id(&mut inbound), 4);
        assert!(!frame_buffered(&inbound));
    }
}
