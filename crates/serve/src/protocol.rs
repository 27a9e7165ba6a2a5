//! The `fmm-serve` wire protocol: length-prefixed binary frames.
//!
//! A frame is a fixed 18-byte header followed by `payload_len` bytes:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"FMMS"
//!      4     1  version (2)
//!      5     1  kind    (FrameKind)
//!      6     4  payload_len, u32 little-endian
//!     10     8  request_id, u64 little-endian
//! ```
//!
//! The per-frame `request_id` is what lets one connection pipeline many
//! in-flight requests and receive the responses out of order: the server
//! echoes each frame's id in its reply and clients match replies by it. A
//! blocking caller is a pipelined caller of depth one.
//!
//! The first [`HEADER_PREFIX_LEN`] bytes (everything but the id) are
//! classified the moment they are complete — magic, then version, then
//! kind, then the payload cap — so a peer speaking something else gets its
//! typed error frame without having to send a full header first.
//!
//! A `Request` payload is `dtype(u8) m(u32) k(u32) n(u32)` followed by the
//! `A` (`m*k`) and `B` (`k*n`) elements, **row-major**, little-endian, at
//! the dtype's width; a `Response` payload is `dtype(u8) m(u32) n(u32)`
//! followed by `C` row-major. `Error` payloads are `code(u8)` plus a UTF-8
//! message. All multi-byte integers are little-endian.
//!
//! Parsing is defensive by contract: a frame from the network is untrusted
//! input, so every decode path returns `Err` on malformed bytes — no
//! panic, no unchecked multiplication, no allocation before the declared
//! length has been validated against the configured cap.
//!
//! That contract is machine-checked: the attribute below denies clippy's
//! panic lints in this whole file outside tests, and CI's clippy step
//! fails on any violation.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use fmm_dense::Matrix;
use fmm_gemm::GemmScalar;
use std::io::{self, IoSlice, Read, Write};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"FMMS";

/// The protocol version: every frame carries a `request_id`.
pub const VERSION_V2: u8 = 2;

/// Frame-header size in bytes.
pub const HEADER_LEN: usize = 18;

/// The leading header bytes [`read_header`] classifies: everything up to,
/// but not including, the request id.
pub const HEADER_PREFIX_LEN: usize = 10;

/// Request-payload prelude size: dtype + m + k + n.
pub const REQUEST_PRELUDE: usize = 1 + 4 + 4 + 4;

/// Response-payload prelude size: dtype + m + n.
pub const RESPONSE_PRELUDE: usize = 1 + 4 + 4;

/// Read `N` bytes starting at `off`, or `None` if the slice is too short —
/// the panic-free building block the decode paths here and in `conn`
/// slice with (clippy's `indexing_slicing` is denied in both).
pub(crate) fn le_bytes<const N: usize>(b: &[u8], off: usize) -> Option<[u8; N]> {
    let src = b.get(off..off.checked_add(N)?)?;
    let mut out = [0u8; N];
    for (d, s) in out.iter_mut().zip(src) {
        *d = *s;
    }
    Some(out)
}

/// Copy `src` into `dst` at `off`. Encode paths call this with statically
/// sized buffers, so the bounds check can only fail on a local bug — it
/// is asserted in debug builds and a no-op out of bounds in release.
fn put(dst: &mut [u8], off: usize, src: &[u8]) {
    let end = off.checked_add(src.len());
    debug_assert!(end.is_some_and(|e| e <= dst.len()), "put out of bounds");
    if let Some(d) = end.and_then(|e| dst.get_mut(off..e)) {
        d.copy_from_slice(src);
    }
}

/// Frame discriminator (header byte 5). Values 6 and 7 belonged to the
/// retired plaintext stats pair, and 11 to the retired incident request;
/// they stay unassigned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: one `C = A·B` problem.
    Request = 1,
    /// Server → client: the result matrix for one `Request`.
    Response = 2,
    /// Server → client: a typed error (see [`ErrorCode`]).
    Error = 3,
    /// Client → server: liveness probe; the payload is echoed back.
    Ping = 4,
    /// Server → client: `Ping` echo, and the `Shutdown` acknowledgement.
    Pong = 5,
    /// Client → server: stop the daemon after in-flight work drains.
    Shutdown = 8,
    /// Both directions: client sends an empty payload (or `json`), server
    /// replies with the full observability-registry snapshot as UTF-8
    /// JSON.
    StatsJson = 9,
    /// Both directions: client payload is an optional 8-byte LE count
    /// ("last N events", 0/absent = all retained); server replies with
    /// the recorder's recent events as UTF-8 JSON.
    Trace = 10,
}

impl FrameKind {
    /// Decode a header kind byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(Self::Request),
            2 => Some(Self::Response),
            3 => Some(Self::Error),
            4 => Some(Self::Ping),
            5 => Some(Self::Pong),
            8 => Some(Self::Shutdown),
            9 => Some(Self::StatsJson),
            10 => Some(Self::Trace),
            _ => None,
        }
    }
}

/// Typed error codes carried by [`FrameKind::Error`] frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame or payload could not be decoded (bad magic, unknown
    /// kind/dtype, length/dimension mismatch, …).
    Malformed = 1,
    /// The frame's version byte is not one this server speaks.
    UnsupportedVersion = 2,
    /// The declared payload length exceeds the server's frame cap.
    Oversized = 3,
    /// Admission control: the pending queue is full; retry later.
    Busy = 4,
    /// The server failed internally while handling the request.
    Internal = 5,
    /// The daemon is shutting down and accepts no new work. Unlike
    /// [`ErrorCode::Busy`] this is not retryable against this process.
    ShuttingDown = 6,
}

impl ErrorCode {
    /// Decode an error-code byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(Self::Malformed),
            2 => Some(Self::UnsupportedVersion),
            3 => Some(Self::Oversized),
            4 => Some(Self::Busy),
            5 => Some(Self::Internal),
            6 => Some(Self::ShuttingDown),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Self::Malformed => "malformed",
            Self::UnsupportedVersion => "unsupported-version",
            Self::Oversized => "oversized",
            Self::Busy => "busy",
            Self::Internal => "internal",
            Self::ShuttingDown => "shutting-down",
        };
        f.write_str(name)
    }
}

/// Element dtype of a request/response payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Dtype {
    /// IEEE-754 binary64.
    F64 = 1,
    /// IEEE-754 binary32.
    F32 = 2,
}

impl Dtype {
    /// Decode a dtype byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(Self::F64),
            2 => Some(Self::F32),
            _ => None,
        }
    }

    /// Element width in bytes.
    pub fn elem_bytes(self) -> usize {
        match self {
            Self::F64 => 8,
            Self::F32 => 4,
        }
    }

    /// Human-readable name (matches `Scalar::NAME`).
    pub fn name(self) -> &'static str {
        match self {
            Self::F64 => "f64",
            Self::F32 => "f32",
        }
    }
}

/// A scalar that can cross the wire: ties a [`Dtype`] tag to fixed-width
/// little-endian encode/decode. Implemented for `f64` and `f32`; the
/// client and server matrix codecs are generic over it.
pub trait WireScalar: GemmScalar {
    /// The dtype tag requests/responses of this scalar carry.
    const DTYPE: Dtype;
    /// Write the little-endian bytes of `v` into exactly
    /// `size_of::<Self>()` bytes (any other length is left untouched).
    fn write_le(v: Self, out: &mut [u8]);
    /// Read one element from exactly `size_of::<Self>()` bytes (any other
    /// length reads as zero).
    fn read_le(bytes: &[u8]) -> Self;
}

impl WireScalar for f64 {
    const DTYPE: Dtype = Dtype::F64;

    #[inline]
    fn write_le(v: Self, out: &mut [u8]) {
        debug_assert_eq!(out.len(), 8, "callers slice exactly one element");
        if let Ok(out) = <&mut [u8; 8]>::try_from(out) {
            *out = v.to_le_bytes();
        }
    }

    #[inline]
    fn read_le(bytes: &[u8]) -> Self {
        debug_assert_eq!(bytes.len(), 8, "callers slice exactly one element");
        f64::from_le_bytes(<[u8; 8]>::try_from(bytes).unwrap_or_default())
    }
}

impl WireScalar for f32 {
    const DTYPE: Dtype = Dtype::F32;

    #[inline]
    fn write_le(v: Self, out: &mut [u8]) {
        debug_assert_eq!(out.len(), 4, "callers slice exactly one element");
        if let Ok(out) = <&mut [u8; 4]>::try_from(out) {
            *out = v.to_le_bytes();
        }
    }

    #[inline]
    fn read_le(bytes: &[u8]) -> Self {
        debug_assert_eq!(bytes.len(), 4, "callers slice exactly one element");
        f32::from_le_bytes(<[u8; 4]>::try_from(bytes).unwrap_or_default())
    }
}

/// One decoded frame.
#[derive(Debug)]
pub struct Frame {
    /// The frame's request id (`0` on a refusal of a header that never
    /// parsed far enough to carry one).
    pub request_id: u64,
    /// The frame kind.
    pub kind: FrameKind,
    /// The raw payload bytes.
    pub payload: Vec<u8>,
}

/// Why [`read_frame_any`] could not produce a [`Frame`].
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// Transport failure (includes mid-frame EOF).
    Io(io::Error),
    /// The magic bytes are wrong — the stream is not speaking this
    /// protocol, so framing is unrecoverable.
    BadMagic([u8; 4]),
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Declared payload length exceeds the configured cap. Recovery would
    /// require skipping the body, which is exactly the memory/time the cap
    /// exists to refuse — the connection should be answered and closed.
    Oversized {
        /// The declared payload length.
        declared: u64,
        /// The enforced cap.
        cap: u64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Closed => write!(f, "connection closed"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::BadMagic(m) => write!(f, "bad magic {m:?}"),
            Self::BadVersion(v) => {
                write!(f, "unsupported protocol version {v} (this build speaks v{VERSION_V2})")
            }
            Self::BadKind(k) => write!(f, "unknown frame kind {k}"),
            Self::Oversized { declared, cap } => {
                write!(f, "declared payload of {declared} bytes exceeds the {cap}-byte cap")
            }
        }
    }
}

/// Encode a frame header.
pub fn encode_header(kind: FrameKind, payload_len: u32, request_id: u64) -> Vec<u8> {
    header_bytes(kind, payload_len, request_id).to_vec()
}

/// [`encode_header`] as an array.
fn header_bytes(kind: FrameKind, payload_len: u32, request_id: u64) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    put(&mut header, 0, &MAGIC);
    put(&mut header, 4, &[VERSION_V2, kind as u8]);
    put(&mut header, 6, &payload_len.to_le_bytes());
    put(&mut header, 10, &request_id.to_le_bytes());
    header
}

/// Write one frame (header + payload). `version` must be [`VERSION_V2`],
/// the only version there is. The caller flushes.
pub fn write_frame_v(
    w: &mut impl Write,
    version: u8,
    request_id: u64,
    kind: FrameKind,
    payload: &[u8],
) -> io::Result<()> {
    if version != VERSION_V2 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("cannot write protocol version {version} (this build speaks v{VERSION_V2})"),
        ));
    }
    // Hard error, not a debug_assert: silently wrapping the u32 length
    // field in release builds would desynchronize the stream.
    if payload.len() > u32::MAX as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("payload of {} bytes exceeds the u32 length field", payload.len()),
        ));
    }
    w.write_all(&encode_header(kind, payload.len() as u32, request_id))?;
    w.write_all(payload)
}

/// Read one frame, enforcing `max_payload` before any payload allocation.
/// Clients and the server's connection readers share its header reader,
/// [`read_header`].
pub fn read_frame_any(r: &mut impl Read, max_payload: usize) -> Result<Frame, FrameError> {
    let head = read_header(r, max_payload)?;
    read_payload(r, head)
}

/// Read the payload of the frame `head` (already read from `r`) into a
/// fresh buffer of the cap-checked declared length.
pub(crate) fn read_payload(r: &mut impl Read, head: FrameHead) -> Result<Frame, FrameError> {
    let mut payload = vec![0; head.payload_len];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    Ok(Frame { request_id: head.request_id, kind: head.kind, payload })
}

/// Write every byte of `parts`, in as few vectored writes as the writer
/// takes. `Interrupted` writes are retried.
pub(crate) fn write_all_vectored(
    w: &mut impl Write,
    mut parts: &mut [IoSlice<'_>],
) -> io::Result<()> {
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A decoded frame header.
#[derive(Clone, Copy, Debug)]
pub struct FrameHead {
    /// The frame's request id, echoed in the reply.
    pub request_id: u64,
    /// The frame kind.
    pub kind: FrameKind,
    /// Declared payload length in bytes (already cap-checked).
    pub payload_len: usize,
}

/// Read one frame header with blocking reads. Every read asks for the
/// whole rest of the [`HEADER_LEN`] bytes, so a header normally costs one
/// read; the prefix is classified as soon as its [`HEADER_PREFIX_LEN`]
/// bytes are in, so a hostile prefix is refused without waiting for a
/// request id behind it. EOF before the first byte is
/// [`FrameError::Closed`]; EOF after it is `UnexpectedEof`.
pub fn read_header(r: &mut impl Read, max_payload: usize) -> Result<FrameHead, FrameError> {
    let mut buf = [0u8; HEADER_LEN];
    let filled = read_at_least(r, &mut buf, 0, HEADER_PREFIX_LEN)?;
    let (kind, payload_len) =
        parse_header_prefix(&le_bytes(&buf, 0).unwrap_or_default(), max_payload)?;
    read_at_least(r, &mut buf, filled, HEADER_LEN)?;
    let request_id = u64::from_le_bytes(le_bytes(&buf, HEADER_PREFIX_LEN).unwrap_or_default());
    Ok(FrameHead { request_id, kind, payload_len })
}

/// Read into `buf[filled..]` until at least `want` bytes are in, each read
/// asking for all of the rest; returns the new fill. `Interrupted` reads
/// are retried.
fn read_at_least(
    r: &mut impl Read,
    buf: &mut [u8],
    mut filled: usize,
    want: usize,
) -> Result<usize, FrameError> {
    while filled < want {
        match r.read(buf.get_mut(filled..).unwrap_or(&mut [])) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(filled)
}

/// Classify a header prefix into its kind and payload length, enforcing
/// `max_payload` before anything is allocated. The error classification
/// (magic → version → kind → cap, in that order) is the protocol contract
/// servers answer typed error frames from.
fn parse_header_prefix(
    bytes: &[u8; HEADER_PREFIX_LEN],
    max_payload: usize,
) -> Result<(FrameKind, usize), FrameError> {
    let [m0, m1, m2, m3, version, kind_b, l0, l1, l2, l3] = *bytes;
    let magic = [m0, m1, m2, m3];
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    if version != VERSION_V2 {
        return Err(FrameError::BadVersion(version));
    }
    let kind = FrameKind::from_u8(kind_b).ok_or(FrameError::BadKind(kind_b))?;
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if len > max_payload {
        return Err(FrameError::Oversized { declared: len as u64, cap: max_payload as u64 });
    }
    Ok((kind, len))
}

/// The validated dimensions of a request payload, parsed from its
/// [`REQUEST_PRELUDE`]-byte prefix before the operand bytes arrive — the
/// contract the server's streaming ingest needs to size pooled buffers
/// from without buffering the whole payload first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestDims {
    /// Element dtype.
    pub dtype: Dtype,
    /// Rows of `A` and `C`.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Columns of `B` and `C`.
    pub n: usize,
}

impl RequestDims {
    /// Bytes of the `A` operand on the wire.
    pub fn a_bytes(&self) -> usize {
        self.m * self.k * self.dtype.elem_bytes()
    }

    /// Bytes of the `C` result the response will carry — known the moment
    /// the prelude decodes, which is what lets admission control charge a
    /// request's response cost *before* any result exists.
    pub fn c_bytes(&self) -> usize {
        self.m * self.n * self.dtype.elem_bytes()
    }
}

/// Parse and validate a request prelude against the frame's declared
/// payload length and the server's response-size cap. Every byte of the
/// payload must be accounted for by the declared dims, and the *result*
/// size is bounded here too (`k = 0` lets a tiny payload declare an
/// astronomical `m × n` output).
pub fn decode_request_prelude(
    prelude: &[u8; REQUEST_PRELUDE],
    payload_len: usize,
    max_response_bytes: usize,
) -> Result<RequestDims, String> {
    let [dtype_b, m0, m1, m2, m3, k0, k1, k2, k3, n0, n1, n2, n3] = *prelude;
    let dtype = Dtype::from_u8(dtype_b).ok_or_else(|| format!("unknown dtype {dtype_b}"))?;
    let m = u32::from_le_bytes([m0, m1, m2, m3]) as u64;
    let k = u32::from_le_bytes([k0, k1, k2, k3]) as u64;
    let n = u32::from_le_bytes([n0, n1, n2, n3]) as u64;
    let elems = m
        .checked_mul(k)
        .and_then(|ab| ab.checked_add(k.checked_mul(n)?))
        .ok_or_else(|| format!("dimension product m={m} k={k} n={n} overflows"))?;
    let expected = elems
        .checked_mul(dtype.elem_bytes() as u64)
        .and_then(|b| b.checked_add(REQUEST_PRELUDE as u64))
        .ok_or_else(|| format!("payload size for m={m} k={k} n={n} overflows"))?;
    if expected != payload_len as u64 {
        return Err(format!(
            "declared dims m={m} k={k} n={n} ({dtype:?}) need {expected} payload bytes, got \
             {payload_len}",
        ));
    }
    let response_bytes = m
        .checked_mul(n)
        .and_then(|e| e.checked_mul(dtype.elem_bytes() as u64))
        .and_then(|b| b.checked_add(RESPONSE_PRELUDE as u64))
        .ok_or_else(|| format!("response size for m={m} n={n} overflows"))?;
    if response_bytes > max_response_bytes as u64 {
        return Err(format!(
            "an m={m} n={n} result needs a {response_bytes}-byte response, beyond the \
             {max_response_bytes}-byte cap"
        ));
    }
    Ok(RequestDims { dtype, m: m as usize, k: k as usize, n: n as usize })
}

/// Encode a response prelude (`dtype m n`) — the header-adjacent part of
/// a response the server writes ahead of the raw result bytes.
pub fn encode_response_prelude(dtype: Dtype, m: usize, n: usize) -> [u8; RESPONSE_PRELUDE] {
    let mut out = [0u8; RESPONSE_PRELUDE];
    put(&mut out, 0, &[dtype as u8]);
    put(&mut out, 1, &(m as u32).to_le_bytes());
    put(&mut out, 5, &(n as u32).to_le_bytes());
    out
}

/// Header ‖ prelude of a response frame.
pub const RESPONSE_HEAD_LEN: usize = HEADER_LEN + RESPONSE_PRELUDE;

/// Encode the header ‖ prelude of the response to `request_id` carrying a
/// `result_len`-byte `m × n` result: everything the server writes ahead
/// of the raw result bytes, in one array.
pub fn encode_response_head(
    request_id: u64,
    dtype: Dtype,
    m: usize,
    n: usize,
    result_len: usize,
) -> [u8; RESPONSE_HEAD_LEN] {
    let payload_len = (RESPONSE_PRELUDE + result_len) as u32;
    let mut out = [0u8; RESPONSE_HEAD_LEN];
    put(&mut out, 0, &header_bytes(FrameKind::Response, payload_len, request_id));
    put(&mut out, HEADER_LEN, &encode_response_prelude(dtype, m, n));
    out
}

/// Encode an [`FrameKind::Error`] payload.
pub fn encode_error(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + message.len());
    out.push(code as u8);
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decode an [`FrameKind::Error`] payload.
pub fn decode_error(payload: &[u8]) -> (ErrorCode, String) {
    let code = payload.first().and_then(|&b| ErrorCode::from_u8(b)).unwrap_or(ErrorCode::Internal);
    let message = String::from_utf8_lossy(payload.get(1..).unwrap_or(&[])).into_owned();
    (code, message)
}

/// Encode a request payload from two operand matrices (row-major on the
/// wire; the column-major transposition happens here, strip by strip).
pub fn encode_request<T: WireScalar>(a: &Matrix<T>, b: &Matrix<T>) -> Vec<u8> {
    assert_eq!(a.cols(), b.rows(), "A/B inner dimension mismatch");
    let mut out = vec![0; request_len(a, b)];
    fill_request(&mut out, a, b);
    out
}

/// The header and prelude of a `Request` frame for an `m × k` times
/// `k × n` product of `T`s, which the operand bytes follow.
/// `InvalidInput` if a dimension does not fit its u32 field, or the
/// payload length the u32 length field.
pub(crate) fn request_head<T: WireScalar>(
    request_id: u64,
    m: usize,
    k: usize,
    n: usize,
) -> io::Result<[u8; HEADER_LEN + REQUEST_PRELUDE]> {
    let len = m
        .checked_mul(k)
        .and_then(|ab| ab.checked_add(k.checked_mul(n)?))
        .and_then(|e| e.checked_mul(std::mem::size_of::<T>()))
        .and_then(|b| u32::try_from(b.checked_add(REQUEST_PRELUDE)?).ok())
        .filter(|_| [m, k, n].into_iter().all(|d| u32::try_from(d).is_ok()));
    let Some(len) = len else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("a request for m={m} k={k} n={n} overflows the u32 dimension or length field"),
        ));
    };
    let mut head = [0u8; HEADER_LEN + REQUEST_PRELUDE];
    put(&mut head, 0, &header_bytes(FrameKind::Request, len, request_id));
    put(&mut head, HEADER_LEN, &request_prelude::<T>(m, k, n));
    Ok(head)
}

/// The request prelude `dtype m k n`.
fn request_prelude<T: WireScalar>(m: usize, k: usize, n: usize) -> [u8; REQUEST_PRELUDE] {
    let mut out = [0u8; REQUEST_PRELUDE];
    put(&mut out, 0, &[T::DTYPE as u8]);
    put(&mut out, 1, &(m as u32).to_le_bytes());
    put(&mut out, 5, &(k as u32).to_le_bytes());
    put(&mut out, 9, &(n as u32).to_le_bytes());
    out
}

/// The elements of `xs` as the bytes they are on the wire. Every scalar
/// goes out little-endian, which is its layout in memory on the hosts the
/// crate serves from (the server's pooled buffers rely on the same).
pub(crate) fn wire_bytes<T: WireScalar>(xs: &[T]) -> &[u8] {
    // SAFETY: `WireScalar`'s implementations, `f64` and `f32`, have no
    // padding and every bit pattern is a byte sequence; the slice covers
    // exactly the elements' bytes.
    unsafe { std::slice::from_raw_parts(xs.as_ptr().cast::<u8>(), std::mem::size_of_val(xs)) }
}

/// [`wire_bytes`], writable: bytes read from the wire into it are the
/// elements.
pub(crate) fn wire_bytes_mut<T: WireScalar>(xs: &mut [T]) -> &mut [u8] {
    // SAFETY: as for `wire_bytes`, and every byte pattern is a valid
    // `f64`/`f32`; the borrow is exclusive.
    unsafe {
        std::slice::from_raw_parts_mut(xs.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(xs))
    }
}

/// Payload bytes of the request for `a · b`.
fn request_len<T: WireScalar>(a: &Matrix<T>, b: &Matrix<T>) -> usize {
    REQUEST_PRELUDE + (a.rows() * a.cols() + b.rows() * b.cols()) * std::mem::size_of::<T>()
}

/// Write the request payload for `a · b` over `out`, which is
/// [`request_len`] bytes.
fn fill_request<T: WireScalar>(out: &mut [u8], a: &Matrix<T>, b: &Matrix<T>) {
    put(out, 0, &request_prelude::<T>(a.rows(), a.cols(), b.cols()));
    let a_end = REQUEST_PRELUDE + a.rows() * a.cols() * std::mem::size_of::<T>();
    write_matrix(out.get_mut(REQUEST_PRELUDE..a_end).unwrap_or(&mut []), a);
    write_matrix(out.get_mut(a_end..).unwrap_or(&mut []), b);
}

/// Encode a response payload from a result matrix.
pub fn encode_response<T: WireScalar>(c: &Matrix<T>) -> Vec<u8> {
    let (m, n) = (c.rows(), c.cols());
    let len = RESPONSE_PRELUDE + m * n * std::mem::size_of::<T>();
    let mut out = Vec::with_capacity(len);
    out.push(T::DTYPE as u8);
    out.extend_from_slice(&(m as u32).to_le_bytes());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.resize(len, 0);
    write_matrix(out.get_mut(RESPONSE_PRELUDE..).unwrap_or(&mut []), c);
    out
}

/// Rows per strip of the row-major ↔ column-major transposition. Within
/// a strip the row-major side is `STRIP` sequential streams and the
/// column-major side one cache line per column (eight `f64`), so every
/// line fetched on either side is used whole while it is in L1; walking
/// whole rows against whole columns instead misses once per element as
/// soon as a matrix outgrows the cache.
const STRIP: usize = 8;

/// Write `mat` row-major over `body`, exactly its `rows * cols` elements,
/// strip by strip.
fn write_matrix<T: WireScalar>(body: &mut [u8], mat: &Matrix<T>) {
    let w = std::mem::size_of::<T>();
    let (rows, cols, ld) = (mat.rows(), mat.cols(), mat.leading_dim());
    if rows == 0 || cols == 0 {
        return;
    }
    for (strip, i0) in body.chunks_mut(STRIP * cols * w).zip((0..rows).step_by(STRIP)) {
        let i1 = (i0 + STRIP).min(rows);
        for (j, col) in mat.raw().chunks_exact(ld).enumerate() {
            let cells = col.get(i0..i1).unwrap_or(&[]);
            for (&v, row) in cells.iter().zip(strip.chunks_exact_mut(cols * w)) {
                T::write_le(v, row.get_mut(j * w..(j + 1) * w).unwrap_or(&mut []));
            }
        }
    }
}

/// The inverse of [`write_matrix`], in the same strips.
fn read_matrix<T: WireScalar>(bytes: &[u8], rows: usize, cols: usize) -> Matrix<T> {
    let w = std::mem::size_of::<T>();
    debug_assert_eq!(bytes.len(), rows * cols * w, "validated by the caller");
    let mut mat = Matrix::zeros(rows, cols);
    if rows == 0 || cols == 0 {
        return mat;
    }
    let ld = mat.leading_dim();
    for (strip, i0) in bytes.chunks(STRIP * cols * w).zip((0..rows).step_by(STRIP)) {
        let i1 = (i0 + STRIP).min(rows);
        for (j, col) in mat.raw_mut().chunks_exact_mut(ld).enumerate() {
            let cells = col.get_mut(i0..i1).unwrap_or(&mut []);
            for (cell, row) in cells.iter_mut().zip(strip.chunks_exact(cols * w)) {
                *cell = T::read_le(row.get(j * w..(j + 1) * w).unwrap_or(&[]));
            }
        }
    }
    mat
}

/// A decoded request: operand matrices of one of the served dtypes.
pub enum DecodedRequest {
    /// A double-precision problem.
    F64 {
        /// Left operand (`m × k`).
        a: Matrix<f64>,
        /// Right operand (`k × n`).
        b: Matrix<f64>,
    },
    /// A single-precision problem.
    F32 {
        /// Left operand (`m × k`).
        a: Matrix<f32>,
        /// Right operand (`k × n`).
        b: Matrix<f32>,
    },
}

/// Decode and validate a request payload. The payload has already passed
/// the frame-level size cap, so the dimension check here is about internal
/// consistency (declared dims must account for every payload byte), not
/// resource exhaustion.
/// `max_response_bytes` additionally bounds the *output*: the operand
/// payload alone does not limit `m × n` (consider `k = 0` — a 23-byte
/// frame may declare a result of `u32::MAX × u32::MAX`), so the encoded
/// response size is checked here, before the server allocates
/// anything. Servers pass their frame cap; both directions then honor
/// one bound.
pub fn decode_request(payload: &[u8], max_response_bytes: usize) -> Result<DecodedRequest, String> {
    if payload.len() < REQUEST_PRELUDE {
        return Err(format!(
            "request payload of {} bytes is shorter than the {REQUEST_PRELUDE}-byte prelude",
            payload.len()
        ));
    }
    let Some(prelude) = le_bytes::<REQUEST_PRELUDE>(payload, 0) else {
        return Err("request payload shorter than its prelude".to_string());
    };
    let dims = decode_request_prelude(&prelude, payload.len(), max_response_bytes)?;
    let RequestDims { dtype, m, k, n } = dims;
    // The prelude check guarantees the payload accounts for every operand
    // byte, so these `get`s cannot fail.
    let body = payload.get(REQUEST_PRELUDE..).unwrap_or(&[]);
    let a_bytes = dims.a_bytes();
    let a_body = body.get(..a_bytes).unwrap_or(&[]);
    let b_body = body.get(a_bytes..).unwrap_or(&[]);
    Ok(match dtype {
        Dtype::F64 => {
            DecodedRequest::F64 { a: read_matrix(a_body, m, k), b: read_matrix(b_body, k, n) }
        }
        Dtype::F32 => {
            DecodedRequest::F32 { a: read_matrix(a_body, m, k), b: read_matrix(b_body, k, n) }
        }
    })
}

/// Decode and validate a response payload into the expected dtype.
pub fn decode_response<T: WireScalar>(payload: &[u8]) -> Result<Matrix<T>, String> {
    let Some(prelude) = le_bytes::<RESPONSE_PRELUDE>(payload, 0) else {
        return Err(format!(
            "response payload of {} bytes is shorter than the {RESPONSE_PRELUDE}-byte prelude",
            payload.len()
        ));
    };
    let (m, n) = decode_response_prelude::<T>(&prelude, payload.len())?;
    Ok(read_matrix(payload.get(RESPONSE_PRELUDE..).unwrap_or(&[]), m, n))
}

/// The `(m, n)` a response prelude declares, checked against the expected
/// dtype and the payload length it must account for.
pub(crate) fn decode_response_prelude<T: WireScalar>(
    prelude: &[u8; RESPONSE_PRELUDE],
    payload_len: usize,
) -> Result<(usize, usize), String> {
    let [dtype_b, m0, m1, m2, m3, n0, n1, n2, n3] = *prelude;
    let dtype = Dtype::from_u8(dtype_b).ok_or_else(|| format!("unknown dtype {dtype_b}"))?;
    if dtype != T::DTYPE {
        return Err(format!("expected {:?} response, got {dtype:?}", T::DTYPE));
    }
    let m = u32::from_le_bytes([m0, m1, m2, m3]) as u64;
    let n = u32::from_le_bytes([n0, n1, n2, n3]) as u64;
    let expected = m
        .checked_mul(n)
        .and_then(|e| e.checked_mul(dtype.elem_bytes() as u64))
        .and_then(|b| b.checked_add(RESPONSE_PRELUDE as u64))
        .ok_or_else(|| format!("response size for m={m} n={n} overflows"))?;
    if expected != payload_len as u64 {
        return Err(format!(
            "declared dims m={m} n={n} need {expected} payload bytes, got {payload_len}"
        ));
    }
    Ok((m as usize, n as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_dense::fill;

    #[test]
    fn request_roundtrip_is_bit_exact_for_both_dtypes() {
        let a = fill::bench_workload_t::<f64>(3, 5, 1);
        let b = fill::bench_workload_t::<f64>(5, 2, 2);
        let payload = encode_request(&a, &b);
        match decode_request(&payload, 1 << 20).unwrap() {
            DecodedRequest::F64 { a: da, b: db } => {
                assert_eq!(da, a);
                assert_eq!(db, b);
            }
            DecodedRequest::F32 { .. } => panic!("wrong dtype"),
        }

        let a = fill::bench_workload_t::<f32>(4, 1, 3);
        let b = fill::bench_workload_t::<f32>(1, 7, 4);
        let payload = encode_request(&a, &b);
        match decode_request(&payload, 1 << 20).unwrap() {
            DecodedRequest::F32 { a: da, b: db } => {
                assert_eq!(da, a);
                assert_eq!(db, b);
            }
            DecodedRequest::F64 { .. } => panic!("wrong dtype"),
        }
    }

    #[test]
    fn response_roundtrip_is_bit_exact() {
        let c = fill::bench_workload_t::<f64>(6, 3, 9);
        let payload = encode_response(&c);
        assert_eq!(decode_response::<f64>(&payload).unwrap(), c);
        assert!(decode_response::<f32>(&payload).is_err(), "dtype mismatch is an error");

        // The server's stack head is the frame header and this payload's
        // prelude.
        let head = encode_response_head(77, Dtype::F64, 6, 3, payload.len() - RESPONSE_PRELUDE);
        let header = encode_header(FrameKind::Response, payload.len() as u32, 77);
        assert_eq!(head[..HEADER_LEN], header[..]);
        assert_eq!(head[HEADER_LEN..], payload[..RESPONSE_PRELUDE]);
    }

    /// The strip-wise codecs against the wire format's definition, element
    /// by element, on shapes that end inside a strip, span several, have an
    /// empty dimension, or carry a padded leading dimension.
    fn body_matches_row_major_definition<T: WireScalar + PartialEq + std::fmt::Debug>() {
        let w = std::mem::size_of::<T>();
        for (rows, cols) in
            [(1, 1), (7, 9), (8, 8), (9, 7), (17, 33), (40, 3), (3, 40), (0, 5), (5, 0)]
        {
            let dense = fill::bench_workload_t::<T>(rows, cols, (rows * 41 + cols) as u64);
            let mut padded = Matrix::<T>::with_leading_dim(rows, cols, rows + 3);
            for i in 0..rows {
                for j in 0..cols {
                    padded.set(i, j, dense.get(i, j));
                }
            }
            let payload = encode_response(&dense);
            assert_eq!(
                payload,
                encode_response(&padded),
                "{rows}x{cols}: padding must not reach the wire"
            );
            assert_eq!(payload.len(), RESPONSE_PRELUDE + rows * cols * w);
            for i in 0..rows {
                for j in 0..cols {
                    let at = RESPONSE_PRELUDE + (i * cols + j) * w;
                    assert_eq!(
                        T::read_le(&payload[at..at + w]),
                        dense.get(i, j),
                        "{rows}x{cols} ({i},{j})"
                    );
                }
            }
            assert_eq!(decode_response::<T>(&payload).unwrap(), dense, "{rows}x{cols}");
        }
    }

    #[test]
    fn matrix_bodies_are_row_major_for_every_strip_shape() {
        body_matches_row_major_definition::<f64>();
        body_matches_row_major_definition::<f32>();
    }

    #[test]
    fn frame_roundtrip_through_a_byte_pipe() {
        let mut wire = Vec::new();
        write_frame_v(&mut wire, VERSION_V2, 7, FrameKind::Ping, b"hello").unwrap();
        write_frame_v(&mut wire, VERSION_V2, 8, FrameKind::Shutdown, b"").unwrap();
        let mut cursor = io::Cursor::new(wire);
        let f1 = read_frame_any(&mut cursor, 1024).unwrap();
        assert_eq!((f1.request_id, f1.kind), (7, FrameKind::Ping));
        assert_eq!(f1.payload, b"hello");
        let f2 = read_frame_any(&mut cursor, 1024).unwrap();
        assert_eq!((f2.request_id, f2.kind), (8, FrameKind::Shutdown));
        assert!(matches!(read_frame_any(&mut cursor, 1024), Err(FrameError::Closed)));
    }

    #[test]
    fn read_frame_rejects_bad_magic_version_kind_and_oversize() {
        let ping = || {
            let mut wire = Vec::new();
            write_frame_v(&mut wire, VERSION_V2, 1, FrameKind::Ping, b"").unwrap();
            wire
        };
        let mut bad_magic = ping();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_frame_any(&mut io::Cursor::new(bad_magic), 1024),
            Err(FrameError::BadMagic(_))
        ));

        // The retired v1 is refused like any other unknown version, and
        // cannot be written either.
        for version in [9, 1] {
            let mut bad_version = ping();
            bad_version[4] = version;
            assert!(matches!(
                read_frame_any(&mut io::Cursor::new(bad_version), 1024),
                Err(FrameError::BadVersion(v)) if v == version
            ));
            let err = write_frame_v(&mut Vec::new(), version, 1, FrameKind::Ping, b"").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }

        // 6 and 7 are the retired plaintext stats kinds, 11 the retired
        // incident request.
        for kind in [200, 6, 7, 11] {
            let mut bad_kind = ping();
            bad_kind[5] = kind;
            assert!(matches!(
                read_frame_any(&mut io::Cursor::new(bad_kind), 1024),
                Err(FrameError::BadKind(k)) if k == kind
            ));
        }

        let mut oversized = Vec::new();
        write_frame_v(&mut oversized, VERSION_V2, 1, FrameKind::Request, &[0u8; 64]).unwrap();
        assert!(matches!(
            read_frame_any(&mut io::Cursor::new(oversized), 16),
            Err(FrameError::Oversized { declared: 64, cap: 16 })
        ));
    }

    #[test]
    fn decode_request_rejects_malformed_payloads() {
        // Too short for the prelude.
        assert!(decode_request(&[1, 0, 0], 1 << 20).is_err());
        // Unknown dtype.
        let mut p = vec![7u8];
        p.extend_from_slice(&1u32.to_le_bytes());
        p.extend_from_slice(&1u32.to_le_bytes());
        p.extend_from_slice(&1u32.to_le_bytes());
        p.extend_from_slice(&[0u8; 16]);
        assert!(decode_request(&p, 1 << 20).is_err());
        // Dims that do not match the payload length.
        let a = fill::bench_workload_t::<f64>(2, 2, 1);
        let b = fill::bench_workload_t::<f64>(2, 2, 2);
        let mut payload = encode_request(&a, &b);
        payload.truncate(payload.len() - 8);
        assert!(decode_request(&payload, 1 << 20).is_err());
        // Dims whose element count overflows u64 arithmetic.
        let mut huge = vec![1u8];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(&huge, 1 << 20).is_err());
        // Degenerate dims are fine (the engine supports empty problems).
        let payload = encode_request(&Matrix::<f64>::zeros(0, 3), &Matrix::<f64>::zeros(3, 0));
        assert!(decode_request(&payload, 1 << 20).is_ok());
        // The k=0 hostile frame: a tiny payload whose operands are empty
        // but whose declared *result* is astronomically large. The
        // response-side cap must refuse it before anything allocates.
        let mut outer = vec![1u8];
        outer.extend_from_slice(&u32::MAX.to_le_bytes()); // m
        outer.extend_from_slice(&0u32.to_le_bytes()); // k
        outer.extend_from_slice(&u32::MAX.to_le_bytes()); // n
        let err = match decode_request(&outer, 1 << 20) {
            Err(e) => e,
            Ok(_) => panic!("k=0 frame with a huge declared result must be refused"),
        };
        // Either refusal is acceptable: u64 overflow of the response
        // size, or the explicit response cap.
        assert!(err.contains("response"), "{err}");
        // Same shape at modest-but-over-cap result size.
        let mut outer = vec![1u8];
        outer.extend_from_slice(&100_000u32.to_le_bytes());
        outer.extend_from_slice(&0u32.to_le_bytes());
        outer.extend_from_slice(&100_000u32.to_le_bytes());
        assert!(decode_request(&outer, 1 << 20).is_err());
        // An in-cap empty-k problem still decodes.
        let payload = encode_request(&Matrix::<f64>::zeros(4, 0), &Matrix::<f64>::zeros(0, 5));
        assert!(decode_request(&payload, 1 << 20).is_ok());
    }

    #[test]
    fn truncated_and_mutated_frames_never_panic() {
        let a = fill::bench_workload_t::<f64>(3, 4, 5);
        let b = fill::bench_workload_t::<f64>(4, 2, 6);
        let mut wire = Vec::new();
        write_frame_v(&mut wire, VERSION_V2, 3, FrameKind::Request, &encode_request(&a, &b))
            .unwrap();
        for cut in 0..wire.len() {
            let _ = read_frame_any(&mut io::Cursor::new(&wire[..cut]), 1 << 20);
        }
        let mut state: u64 = 0xDEAD_BEEF_CAFE_F00D;
        for _ in 0..500 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let mut mutated = wire.clone();
            let pos = state as usize % mutated.len();
            mutated[pos] = (state >> 32) as u8;
            if let Ok(frame) = read_frame_any(&mut io::Cursor::new(mutated), 1 << 20) {
                let _ = decode_request(&frame.payload, 1 << 20);
            }
        }
    }
}
