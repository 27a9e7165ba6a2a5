//! Integration tests for the pipelined serving path: many
//! requests in flight on one connection with out-of-order completion
//! matched by request id, slow-loris resistance of the per-connection
//! threads, reclaiming closed connections and their threads, the
//! acceptor's back-off when descriptors run out, the zero-allocation warm
//! ingest path, version refusal, and clients that retry on `Busy`
//! riding out real backpressure.

use fmm_dense::{fill, norms, Matrix};
use fmm_engine::{ArchSource, EngineConfig, FmmEngine, Routing};
use fmm_model::ArchParams;
use fmm_serve::protocol::{self, FrameKind, HEADER_LEN, HEADER_PREFIX_LEN, VERSION_V2};
use fmm_serve::{BatchPolicy, ErrorCode, PipelinedClient};
use fmm_serve::{ServeConfig, Server, ServerHandle, StatsSnapshot};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Engine pair pinned to the deterministic blocked-GEMM fallback route,
/// so served results are bitwise comparable to the local reference.
fn pinned_engines() -> (Arc<FmmEngine<f64>>, Arc<FmmEngine<f32>>) {
    let config = EngineConfig {
        parallel: true,
        arch: ArchSource::Fixed(ArchParams::paper_machine()),
        routing: Routing::Pinned {
            dims: (9, 9, 9),
            levels: 1,
            variant: fmm_engine::Variant::Naive,
            strategy: fmm_engine::Strategy::Dfs,
        },
        ..EngineConfig::default()
    };
    (Arc::new(FmmEngine::<f64>::new(config.clone())), Arc::new(FmmEngine::<f32>::new(config)))
}

fn spawn_pinned(config: ServeConfig) -> ServerHandle {
    let (e64, e32) = pinned_engines();
    Server::spawn_with_engines(config, e64, e32).expect("bind loopback")
}

/// Hold the daemon's combiners and park one: a client's f64 request whose
/// reader claims the f64 executor bit and parks there, so every f64
/// request admitted after it stays queued, and in flight, until
/// `hold_combiners(false)`. Returns the client and its request's id.
fn park_a_combiner(handle: &ServerHandle) -> (PipelinedClient, u64) {
    handle.gate().hold(true);
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let (a, b) = (fill::bench_workload(4, 4, 1), fill::bench_workload(4, 4, 2));
    let id = client.send(&a, &b).expect("send");
    assert!(handle.gate().await_waiting(1), "the request's reader never parked");
    (client, id)
}

/// Pipeline a window of requests on ONE connection and collect responses
/// in an order shuffled away from submission order; every result must be
/// bitwise identical to the local blocked GEMM.
#[test]
fn pipelined_responses_match_by_id_on_one_event_thread() {
    let handle = spawn_pinned(ServeConfig {
        batch: BatchPolicy { window: Duration::from_millis(5), max_batch: 16 },
        ..ServeConfig::default()
    });
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");

    let n = 12;
    let mut problems = Vec::new();
    let mut ids = Vec::new();
    for i in 0..n {
        let a = fill::bench_workload(20 + i, 16, 2 * i as u64 + 1);
        let b = fill::bench_workload(16, 24, 2 * i as u64 + 2);
        ids.push(client.send(&a, &b).expect("send"));
        problems.push((a, b));
    }
    // Receive in an order decorrelated from submission: middle-out.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (i as i64 - n as i64 / 2).abs());
    for &i in &order {
        let c: Matrix<f64> = client.recv(ids[i]).expect("recv");
        let (a, b) = &problems[i];
        let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
        assert_eq!((c.rows(), c.cols()), (20 + i, 24));
        assert!(
            norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-12,
            "request {i} answered with the wrong matrix"
        );
    }

    let snap = handle.metrics().snapshot();
    assert_eq!(snap.responses, n as u64);
    assert!(
        snap.inflight_per_conn_max > 1,
        "pipelining depth gauge saw concurrent requests: {snap:?}"
    );
    handle.shutdown();
}

#[test]
fn pipelined_dtypes_interleave_on_one_connection() {
    let handle = spawn_pinned(ServeConfig::default());
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");

    let a64 = fill::bench_workload(10, 8, 1);
    let b64 = fill::bench_workload(8, 12, 2);
    let a32 = fill::bench_workload_t::<f32>(6, 5, 3);
    let b32 = fill::bench_workload_t::<f32>(5, 7, 4);

    // f64 and f32 requests ride the same connection but route to
    // different queues — completion order is up for grabs, ids
    // disambiguate.
    let id64 = client.send(&a64, &b64).expect("send f64");
    let id32 = client.send(&a32, &b32).expect("send f32");
    let c32: Matrix<f32> = client.recv(id32).expect("recv f32");
    let c64: Matrix<f64> = client.recv(id64).expect("recv f64");

    let r64 = fmm_gemm::reference::matmul(a64.as_ref(), b64.as_ref());
    let r32 = fmm_gemm::reference::matmul(a32.as_ref(), b32.as_ref());
    assert!(norms::rel_error(c64.as_ref(), r64.as_ref()) < 1e-12);
    assert!(norms::rel_error(c32.as_ref(), r32.as_ref()) < 1e-5);
    handle.shutdown();
}

#[test]
fn per_connection_inflight_cap_refuses_with_busy() {
    // A parked combiner holds the first request in flight; with a
    // per-connection cap of 1, the second admission on the same
    // connection must be refused Busy while the first is pending.
    let handle = spawn_pinned(ServeConfig { max_inflight_per_conn: 1, ..ServeConfig::default() });
    let (mut parked, held) = park_a_combiner(&handle);
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let a = fill::bench_workload(8, 8, 1);
    let b = fill::bench_workload(8, 8, 2);
    let first = client.send(&a, &b).expect("send first");
    let second = client.send(&a, &b).expect("send second");
    // The refusal answers immediately (out of order, before the held
    // first response).
    let err = client.recv::<f64>(second).expect_err("second refused");
    assert!(err.is_busy(), "expected Busy, got {err}");
    handle.gate().hold(false);
    parked.recv::<f64>(held).expect("the parked request served");
    let c: Matrix<f64> = client.recv(first).expect("first served");
    let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
    assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-12);
    assert_eq!(handle.metrics().snapshot().rejects_busy, 1);
    handle.shutdown();
}

#[test]
fn per_connection_response_budget_refuses_with_busy() {
    // Admission charges the *declared* response size, so a pipelining
    // connection cannot pin unbounded result memory before any response
    // exists. Each 8×8 f64 response costs 18 + 9 + 512 = 539 bytes; with
    // a 1024-byte cap the first request is admitted (idle connections
    // always make progress) and the second must be refused Busy while the
    // first is held queued behind a parked combiner.
    let handle =
        spawn_pinned(ServeConfig { max_conn_backlog_bytes: 1024, ..ServeConfig::default() });
    let (mut parked, held) = park_a_combiner(&handle);
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let a = fill::bench_workload(8, 8, 31);
    let b = fill::bench_workload(8, 8, 32);
    let first = client.send(&a, &b).expect("send first");
    let second = client.send(&a, &b).expect("send second");
    let err = client.recv::<f64>(second).expect_err("second refused on byte budget");
    assert!(err.is_busy(), "expected Busy, got {err}");
    handle.gate().hold(false);
    parked.recv::<f64>(held).expect("the parked request served");
    let c: Matrix<f64> = client.recv(first).expect("first served");
    let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
    assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-12);
    assert_eq!(handle.metrics().snapshot().rejects_busy, 1);

    // The budget is released with the response: the same connection gets
    // served again afterwards.
    let third = client.send(&a, &b).expect("send third");
    let c: Matrix<f64> = client.recv(third).expect("third served after budget release");
    assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-12);
    handle.shutdown();
}

#[test]
fn oversized_payload_cap_is_rejected_at_spawn() {
    // The wire header carries payload lengths as u32: a cap the header
    // cannot represent must be refused at spawn, not silently truncated
    // into stream desync at response time.
    let (e64, e32) = pinned_engines();
    let spawned = Server::spawn_with_engines(
        ServeConfig { max_payload_bytes: u32::MAX as usize, ..ServeConfig::default() },
        e64,
        e32,
    );
    match spawned {
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput),
        Ok(handle) => {
            handle.shutdown();
            panic!("u32-overflowing payload cap must not spawn");
        }
    }
}

#[test]
fn half_closed_peer_still_receives_inflight_response() {
    // A peer that pipelines two requests and immediately half-closes its
    // write side (shutdown(SHUT_WR)) while both are held queued behind a
    // parked combiner: the connection must not be torn down on the EOF —
    // both responses still arrive.
    let handle = spawn_pinned(ServeConfig::default());
    let (mut parked, held) = park_a_combiner(&handle);
    let a = fill::bench_workload(6, 4, 21);
    let b = fill::bench_workload(4, 5, 22);
    let payload = protocol::encode_request(&a, &b);
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    for id in [41, 42] {
        protocol::write_frame_v(&mut s, VERSION_V2, id, FrameKind::Request, &payload)
            .expect("send request");
    }
    s.shutdown(std::net::Shutdown::Write).expect("half-close write side");
    // Both admitted, with the EOF already behind them in the socket.
    settles(
        "requests admitted",
        Duration::from_secs(10),
        || handle.metrics().snapshot().requests,
        3,
    );
    handle.gate().hold(false);
    parked.recv::<f64>(held).expect("the parked request served");
    let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
    let mut ids = Vec::new();
    for _ in 0..2 {
        let frame = protocol::read_frame_any(&mut s, 1 << 20).expect("response after half-close");
        assert_eq!(frame.kind, FrameKind::Response);
        ids.push(frame.request_id);
        let c = protocol::decode_response::<f64>(&frame.payload).expect("decode response");
        assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-12);
    }
    ids.sort_unstable();
    assert_eq!(ids, [41, 42], "both in-flight ids answered");
    // With nothing left in flight the server closes its side too.
    assert!(matches!(protocol::read_frame_any(&mut s, 1 << 20), Err(protocol::FrameError::Closed)));
    handle.shutdown();
}

#[test]
fn reset_peer_with_inflight_request_is_reclaimed_at_once() {
    // The other way a peer can leave with work in flight: a full reset
    // (closing with the Pong unread sends RST, not FIN). Nothing owed can
    // be delivered any more, so the connection must be reclaimed on the
    // reset — not kept until the request it left queued has run.
    let handle = spawn_pinned(ServeConfig::default());
    let (mut parked, held) = park_a_combiner(&handle);
    let a = fill::bench_workload(6, 4, 23);
    let b = fill::bench_workload(4, 5, 24);
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    protocol::write_frame_v(&mut s, VERSION_V2, 1, FrameKind::Ping, b"unread").expect("ping");
    protocol::write_frame_v(
        &mut s,
        VERSION_V2,
        2,
        FrameKind::Request,
        &protocol::encode_request(&a, &b),
    )
    .expect("send request");
    s.peek(&mut [0u8; 1]).expect("pong arrived");
    while handle.metrics().snapshot().inflight < 2 {
        thread::sleep(Duration::from_millis(1));
    }
    drop(s);
    let deadline = Instant::now() + Duration::from_secs(1);
    while handle.metrics().snapshot().connections > 1 {
        assert!(Instant::now() < deadline, "reset connection still registered");
        thread::sleep(Duration::from_millis(5));
    }
    handle.gate().hold(false);
    parked.recv::<f64>(held).expect("the parked request served");
    handle.shutdown();
}

#[test]
fn slow_loris_writer_does_not_stall_other_connections() {
    let handle = spawn_pinned(ServeConfig::default());
    let addr = handle.addr();

    // The attacker trickles a valid v2 request one byte at a time and
    // reads its response in 3-byte sips.
    let a = fill::bench_workload(6, 4, 11);
    let b = fill::bench_workload(4, 5, 12);
    let payload = protocol::encode_request(&a, &b);
    let mut wire = Vec::new();
    protocol::write_frame_v(&mut wire, VERSION_V2, 77, FrameKind::Request, &payload)
        .expect("encode");

    let loris = thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("connect loris");
        for byte in wire {
            s.write_all(&[byte]).expect("dribble");
            s.flush().expect("flush");
            thread::sleep(Duration::from_micros(300));
        }
        // Read the full response in tiny chunks.
        let mut got = Vec::new();
        let mut chunk = [0u8; 3];
        let want = HEADER_LEN + protocol::RESPONSE_PRELUDE + 6 * 5 * 8;
        while got.len() < want {
            let n = s.read(&mut chunk).expect("sip");
            assert!(n > 0, "server hung up mid-response");
            got.extend_from_slice(&chunk[..n]);
        }
        got
    });

    // Meanwhile this connection must keep being served bit-exactly.
    let mut client = PipelinedClient::connect(addr).expect("connect victim");
    for i in 0..8u64 {
        let a = fill::bench_workload(12, 10, 100 + i);
        let b = fill::bench_workload(10, 9, 200 + i);
        let c = client.multiply(&a, &b).expect("service while loris drips");
        let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
        assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-12);
    }

    let response = loris.join().expect("loris thread");
    // The trickled request itself was answered correctly: v2 header
    // echoing id 77, then the exact product bytes.
    assert_eq!(&response[..4], protocol::MAGIC.as_slice());
    assert_eq!(response[4], VERSION_V2);
    assert_eq!(response[5], FrameKind::Response as u8);
    let id = u64::from_le_bytes(response[HEADER_PREFIX_LEN..HEADER_LEN].try_into().unwrap());
    assert_eq!(id, 77);
    let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
    let body = &response[HEADER_LEN..];
    let c = protocol::decode_response::<f64>(body).expect("decode trickled response");
    assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-12);
    handle.shutdown();
}

#[test]
fn a_reader_blocked_on_its_own_reply_stalls_no_one_else() {
    // A lone request runs on its connection's reader, which writes the
    // reply itself. This peer asks for a 32 MiB result (k = 1) and does
    // not read it, so its socket fills, and the rest of the reply goes to
    // its writer, which blocks. The dtype's executor bit was released
    // before the write: other connections' lone requests still run on
    // their own readers.
    let batch = BatchPolicy { window: Duration::ZERO, ..BatchPolicy::default() };
    let handle = spawn_pinned(ServeConfig { batch, ..ServeConfig::default() });
    let addr = handle.addr();
    let a = fill::bench_workload(2048, 1, 31);
    let b = fill::bench_workload(1, 2048, 32);
    let mut stalled = TcpStream::connect(addr).expect("connect");
    let payload = protocol::encode_request(&a, &b);
    protocol::write_frame_v(&mut stalled, VERSION_V2, 5, FrameKind::Request, &payload)
        .expect("send");
    let deadline = Instant::now() + Duration::from_secs(20);
    while handle.metrics().snapshot().responses == 0 {
        assert!(Instant::now() < deadline, "the big request never ran");
        thread::sleep(Duration::from_millis(1));
    }

    // A read timeout turns a daemon stuck behind the stalled peer into a
    // failure instead of a hang.
    let mut other = TcpStream::connect(addr).expect("connect");
    other.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
    for id in 100..108 {
        let x = fill::bench_workload(12, 10, id);
        let y = fill::bench_workload(10, 9, id + 100);
        let payload = protocol::encode_request(&x, &y);
        protocol::write_frame_v(&mut other, VERSION_V2, id, FrameKind::Request, &payload)
            .expect("send");
        let reply = protocol::read_frame_any(&mut other, 1 << 20).expect("served past the stall");
        assert_eq!(reply.request_id, id);
        let mut want = Matrix::zeros(12, 9);
        fmm_gemm::gemm(want.as_mut(), x.as_ref(), y.as_ref());
        assert_eq!(protocol::decode_response::<f64>(&reply.payload).expect("decode"), want);
    }
    let snap = handle.metrics().snapshot();
    assert_eq!((snap.batches, snap.responses), (9, 9), "each lone request ran alone: {snap:?}");

    // The stalled peer still gets its whole reply once it reads.
    let reply = protocol::read_frame_any(&mut stalled, 64 << 20).expect("the big reply");
    assert_eq!((reply.kind, reply.request_id), (FrameKind::Response, 5));
    let mut want = Matrix::zeros(2048, 2048);
    fmm_gemm::gemm(want.as_mut(), a.as_ref(), b.as_ref());
    assert_eq!(protocol::decode_response::<f64>(&reply.payload).expect("decode"), want);
    handle.shutdown();
}

/// `x·y` from in-process `fmm_gemm::gemm`.
fn gemm<T: fmm_serve::WireScalar>(x: &Matrix<T>, y: &Matrix<T>) -> Matrix<T> {
    let mut c = Matrix::zeros(x.rows(), y.cols());
    fmm_gemm::gemm(c.as_mut(), x.as_ref(), y.as_ref());
    c
}

/// A request frame for `a·b` under `id`.
fn request_frame<T: fmm_serve::WireScalar>(id: u64, a: &Matrix<T>, b: &Matrix<T>) -> Vec<u8> {
    let mut wire = Vec::new();
    let payload = protocol::encode_request(a, b);
    protocol::write_frame_v(&mut wire, VERSION_V2, id, FrameKind::Request, &payload)
        .expect("encode request");
    wire
}

#[test]
fn a_half_sent_second_frame_does_not_hold_back_the_first_reply() {
    // One request, then part of a second frame, then silence: the reader
    // must run and answer the first instead of waiting to batch it with a
    // frame that is not coming. The first request is large, then small
    // enough that the reader's head buffer takes it whole together with
    // the second frame's header and a few operand bytes.
    let handle = spawn_pinned(ServeConfig::default());
    for (m, k, n, part) in [(12, 10, 9, None), (2, 2, 2, Some(HEADER_LEN + 10))] {
        let (a, b) = (fill::bench_workload(m, k, 61), fill::bench_workload(k, n, 62));
        let mut wire = request_frame(1, &a, &b);
        let second = request_frame(2, &a, &b);
        let part = part.unwrap_or(second.len() / 2);
        wire.extend_from_slice(&second[..part]);
        let mut s = TcpStream::connect(handle.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
        s.write_all(&wire).expect("one request and a part");
        let reply = protocol::read_frame_any(&mut s, 1 << 20).expect("the first reply");
        assert_eq!((reply.kind, reply.request_id), (FrameKind::Response, 1));
        let c = protocol::decode_response::<f64>(&reply.payload).expect("decode");
        assert_eq!(c, gemm(&a, &b));
        s.write_all(&second[part..]).expect("the rest");
        let reply = protocol::read_frame_any(&mut s, 1 << 20).expect("the second reply");
        assert_eq!((reply.kind, reply.request_id), (FrameKind::Response, 2));
    }
    handle.shutdown();
}

#[test]
fn a_pipelining_client_fills_a_batch_on_a_default_daemon() {
    // Eight requests arrive in one write: the reader finds each next frame
    // whole in its socket, pushes without combining, and runs them as one
    // batch once the socket holds no whole frame.
    let handle = spawn_pinned(ServeConfig::default());
    let problems: Vec<_> = (0..8)
        .map(|i| (fill::bench_workload(8, 8, 2 * i + 1), fill::bench_workload(8, 8, 2 * i + 2)))
        .collect();
    let wire: Vec<u8> = problems
        .iter()
        .enumerate()
        .flat_map(|(id, (a, b))| request_frame(id as u64, a, b))
        .collect();
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
    s.write_all(&wire).expect("eight requests");
    for _ in 0..8 {
        let reply = protocol::read_frame_any(&mut s, 1 << 20).expect("a reply");
        let (a, b) = &problems[reply.request_id as usize];
        assert_eq!(protocol::decode_response::<f64>(&reply.payload).expect("decode"), gemm(a, b));
    }
    let snap = handle.metrics().snapshot();
    assert!(snap.max_occupancy > 1, "the pipelined requests never shared a batch: {snap:?}");
    handle.shutdown();
}

#[test]
fn a_peer_that_never_reads_stalls_no_other_connection() {
    // This peer asks for a 32 MiB result and never reads it. Four other
    // connections, two per dtype, must keep getting in-process GEMM's
    // bits meanwhile.
    let handle = spawn_pinned(ServeConfig::default());
    let addr = handle.addr();
    let (a, b) = (fill::bench_workload(2048, 1, 71), fill::bench_workload(1, 2048, 72));
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled.write_all(&request_frame(5, &a, &b)).expect("send");
    let deadline = Instant::now() + Duration::from_secs(20);
    while handle.metrics().snapshot().responses == 0 {
        assert!(Instant::now() < deadline, "the big request never ran");
        thread::sleep(Duration::from_millis(1));
    }

    /// Eight round trips of `T` on a connection of its own.
    fn round_trips<T: fmm_serve::WireScalar>(addr: std::net::SocketAddr, seed: u64) {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
        for id in 0..8 {
            let x = fill::bench_workload_t::<T>(12, 10, seed + 2 * id);
            let y = fill::bench_workload_t::<T>(10, 9, seed + 2 * id + 1);
            s.write_all(&request_frame(id, &x, &y)).expect("send");
            let reply = protocol::read_frame_any(&mut s, 1 << 20).expect("served past the stall");
            assert_eq!(reply.request_id, id);
            let c = protocol::decode_response::<T>(&reply.payload).expect("decode");
            assert_eq!(c, gemm(&x, &y), "{} reply {id} is not GEMM's", T::NAME);
        }
    }
    thread::scope(|s| {
        s.spawn(|| round_trips::<f64>(addr, 100));
        s.spawn(|| round_trips::<f64>(addr, 200));
        s.spawn(|| round_trips::<f32>(addr, 300));
        s.spawn(|| round_trips::<f32>(addr, 400));
    });

    let reply = protocol::read_frame_any(&mut stalled, 64 << 20).expect("the big reply");
    assert_eq!((reply.kind, reply.request_id), (FrameKind::Response, 5));
    assert_eq!(protocol::decode_response::<f64>(&reply.payload).expect("decode"), gemm(&a, &b));
    handle.shutdown();
}

#[test]
fn a_combiners_own_reply_is_not_held_for_its_whole_turn() {
    // A combiner runs batches for as long as other connections keep its
    // dtype's queue busy; its own reply must go out after the batch that
    // ran it, not once the queue first empties. The hold lets one batch
    // through, the parked client's, and parks the combiner again with
    // another connection's request still queued.
    let batch = BatchPolicy { max_batch: 1, ..BatchPolicy::default() };
    let handle = spawn_pinned(ServeConfig { batch, ..ServeConfig::default() });
    handle.gate().hold(true);
    let (a, b) = (fill::bench_workload(4, 4, 1), fill::bench_workload(4, 4, 2));
    let mut own = TcpStream::connect(handle.addr()).expect("connect");
    own.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
    own.write_all(&request_frame(1, &a, &b)).expect("send");
    assert!(handle.gate().await_waiting(1), "the request's reader never parked");
    let mut other = PipelinedClient::connect(handle.addr()).expect("connect");
    let id = other.send(&a, &b).expect("send");
    let deadline = Instant::now() + Duration::from_secs(20);
    while handle.stats().gauges["fmm_serve_queue_depth_f64"] < 2 {
        assert!(Instant::now() < deadline, "the other request never queued");
        thread::sleep(Duration::from_millis(1));
    }

    handle.gate().let_pass(1);
    let reply = protocol::read_frame_any(&mut own, 1 << 20).expect("the combiner's own reply");
    assert_eq!((reply.kind, reply.request_id), (FrameKind::Response, 1));
    assert_eq!(protocol::decode_response::<f64>(&reply.payload).expect("decode"), gemm(&a, &b));
    assert_eq!(handle.stats().gauges["fmm_serve_queue_depth_f64"], 1, "the turn went on");
    handle.gate().hold(false);
    assert_eq!(other.recv::<f64>(id).expect("the other reply"), gemm(&a, &b));
    handle.shutdown();
}

#[test]
fn a_peer_stalled_inside_a_request_delays_no_other_batch() {
    // A peer sends a request's header and part of its prelude, then
    // stops. With a 10 s window, a combiner that waited on the window for
    // the rest of that request would add 10 s to each round trip below.
    let batch = BatchPolicy { window: Duration::from_secs(10), ..BatchPolicy::default() };
    let handle = spawn_pinned(ServeConfig { batch, ..ServeConfig::default() });
    let (a, b) = (fill::bench_workload(12, 10, 91), fill::bench_workload(10, 9, 92));
    let mut stalled = TcpStream::connect(handle.addr()).expect("connect");
    stalled.write_all(&request_frame(1, &a, &b)[..HEADER_LEN + 4]).expect("a header");
    let t0 = Instant::now();
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    for seed in 0..4 {
        let x = fill::bench_workload_t::<f32>(12, 10, 2 * seed);
        let y = fill::bench_workload_t::<f32>(10, 9, 2 * seed + 1);
        assert_eq!(client.multiply(&x, &y).expect("f32 round trip"), gemm(&x, &y));
        assert_eq!(client.multiply(&a, &b).expect("f64 round trip"), gemm(&a, &b));
    }
    assert!(t0.elapsed() < Duration::from_secs(10), "round trips took {:?}", t0.elapsed());
    handle.shutdown();
}

#[test]
fn a_large_reply_does_not_block_its_reader_against_a_sending_peer() {
    // The client sends a small request whose reply is 32 MiB (k = 1), then
    // a 16 MiB request, and reads only once both are sent. A reader that
    // wrote the reply with blocking writes would wait for the client to
    // read while the client waits for it to read the second request.
    let handle = spawn_pinned(ServeConfig::default());
    let addr = handle.addr();
    let (a, b) = (fill::bench_workload(2048, 1, 81), fill::bench_workload(1, 2048, 82));
    let (x, y) = (fill::bench_workload(1, 1 << 20, 83), fill::bench_workload(1 << 20, 1, 84));
    let wire = [request_frame(1, &a, &b), request_frame(2, &x, &y)];
    let (tx, rx) = std::sync::mpsc::channel();
    // Detached: if the connection deadlocks, the test fails at the
    // timeout below instead of hanging.
    thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("connect");
        wire.iter().for_each(|frame| s.write_all(frame).expect("send"));
        let replies = [1, 2].map(|_| protocol::read_frame_any(&mut s, 64 << 20).expect("reply"));
        let _ = tx.send(replies);
    });
    let replies = rx.recv_timeout(Duration::from_secs(60)).expect("the connection deadlocked");
    assert_eq!(replies.each_ref().map(|r| r.request_id), [1, 2]);
    let decode = |i: usize| protocol::decode_response::<f64>(&replies[i].payload).expect("decode");
    assert_eq!(decode(0), gemm(&a, &b));
    assert_eq!(decode(1), gemm(&x, &y));
    handle.shutdown();
}

#[test]
fn warm_path_serves_requests_without_allocating_payload_buffers() {
    let handle = spawn_pinned(ServeConfig::default());
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let a = fill::bench_workload(16, 12, 5);
    let b = fill::bench_workload(12, 14, 6);

    let misses = |stats: StatsSnapshot| -> u64 {
        stats.counter("fmm_serve_pool_f64_misses").expect("pool miss counter")
    };

    // Warm the pool: the first request allocates A, B, and C buffers.
    client.multiply(&a, &b).expect("warm-up");
    let cold_misses = misses(handle.stats());
    assert!(cold_misses >= 3, "cold path allocated operands and result: {cold_misses}");

    // Steady state: same shape, every buffer comes from the pool — the
    // miss counter must not move, which proves zero heap allocations per
    // request for payload buffers.
    for _ in 0..10 {
        let c = client.multiply(&a, &b).expect("warm request");
        let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
        assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-12);
    }
    let warm_misses = misses(handle.stats());
    assert_eq!(
        warm_misses, cold_misses,
        "warm-path requests allocated payload buffers (pool misses grew)"
    );
    handle.shutdown();
}

#[test]
fn writer_thread_replies_return_their_buffers_to_the_pool() {
    // Replies a connection's writer thread sends: those handed off while
    // more batches follow (eight requests in one write, run two to a
    // batch) and those another connection's combiner ran (four
    // closed-loop connections, which overlap on two or more CPUs). The
    // writer returns each result buffer once the reply is written, which
    // may be after the peer has read it and sent its next request, so a
    // warm request may find the pool empty now and then; a writer that
    // kept its buffers would miss on most requests.
    let batch = BatchPolicy { max_batch: 2, ..BatchPolicy::default() };
    let handle = spawn_pinned(ServeConfig { batch, ..ServeConfig::default() });
    let (a, b) = (fill::bench_workload(16, 12, 5), fill::bench_workload(12, 14, 6));
    let misses = || handle.stats().counter("fmm_serve_pool_f64_misses").expect("pool misses");
    const REQUESTS: usize = 800;

    let burst: Vec<u8> = (0..8).flat_map(|id| request_frame(id, &a, &b)).collect();
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
    let mut bursts = |count: usize| {
        for _ in 0..count {
            s.write_all(&burst).expect("eight requests");
            for _ in 0..8 {
                let reply = protocol::read_frame_any(&mut s, 1 << 20).expect("a reply");
                assert_eq!(reply.kind, FrameKind::Response);
            }
        }
    };
    bursts(10);
    let warm = misses();
    bursts(REQUESTS / 8);
    let missed = misses() - warm;
    assert!(missed * 8 < REQUESTS as u64, "{missed} pool misses in {REQUESTS} pipelined requests");
    assert!(handle.metrics().snapshot().max_occupancy > 1, "no burst ever shared a batch");

    let barrier = std::sync::Barrier::new(5);
    let warm = thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
                let mut closed_loop = |count: usize| {
                    for _ in 0..count {
                        client.multiply(&a, &b).expect("closed-loop reply");
                    }
                };
                closed_loop(50);
                barrier.wait();
                barrier.wait();
                closed_loop(REQUESTS / 4);
            });
        }
        barrier.wait();
        let warm = misses();
        barrier.wait();
        warm
    });
    let missed = misses() - warm;
    assert!(missed * 8 < REQUESTS as u64, "{missed} pool misses in {REQUESTS} requests");
    handle.shutdown();
}

#[test]
fn unknown_and_retired_versions_get_a_typed_refusal() {
    let handle = spawn_pinned(ServeConfig::default());
    let addr = handle.addr();

    // An unknown version byte — and the retired v1, whose whole header was
    // these ten bytes — gets the typed UnsupportedVersion error naming the
    // version this build speaks, in a v2 frame under id 0, and a closed
    // connection, without sending another byte.
    for version in [9, 1] {
        let mut bad = TcpStream::connect(addr).expect("connect");
        let mut header = [0u8; HEADER_PREFIX_LEN];
        header[0..4].copy_from_slice(&protocol::MAGIC);
        header[4] = version;
        header[5] = FrameKind::Ping as u8;
        bad.write_all(&header).expect("bad version header");
        let frame = protocol::read_frame_any(&mut bad, 1 << 16).expect("typed error back");
        assert_eq!((frame.kind, frame.request_id), (FrameKind::Error, 0));
        let (code, message) = protocol::decode_error(&frame.payload);
        assert_eq!(code, ErrorCode::UnsupportedVersion);
        assert!(message.contains(&format!("version {version}")), "{message}");
        assert!(message.contains("speaks v2"), "{message}");
        let mut rest = Vec::new();
        bad.read_to_end(&mut rest).expect("read eof");
        assert!(rest.is_empty(), "connection closes after the refusal");
    }
    handle.shutdown();
}

#[test]
fn busy_retries_ride_out_real_backpressure() {
    // A 1-deep queue with one-at-a-time dispatch: a concurrent flood
    // must see Busy refusals, and clients that re-send on Busy must get
    // every request through anyway.
    let handle = spawn_pinned(ServeConfig {
        batch: BatchPolicy { window: Duration::ZERO, max_batch: 1 },
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let flood = 8;
    thread::scope(|s| {
        for t in 0..flood {
            s.spawn(move || {
                let mut client = PipelinedClient::connect(addr).expect("connect");
                let a = fill::bench_workload(40, 40, 1000 + t);
                let b = fill::bench_workload(40, 40, 2000 + t);
                let deadline = Instant::now() + Duration::from_secs(30);
                let c = loop {
                    match client.multiply(&a, &b) {
                        Err(e) if e.is_busy() && Instant::now() < deadline => {
                            thread::sleep(Duration::from_millis(2))
                        }
                        served => break served.expect("the queue stayed full for 30 s"),
                    }
                };
                let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
                assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-12);
            });
        }
    });
    let snap = handle.metrics().snapshot();
    assert_eq!(snap.responses, flood, "every flooded request eventually served: {snap:?}");
    handle.shutdown();
}

/// Set on a re-executed child: tells a test function it is the child.
const CHILD: &str = "SERVE_PIPELINE_TEST_CHILD";

fn is_child() -> bool {
    std::env::var_os(CHILD).is_some()
}

/// Re-run exactly `test` from this test binary in a child process of its
/// own, so process-wide counts (threads, descriptors, CPU time) are the
/// test's alone; `limits` is shell run before the binary (`ulimit …`).
fn run_alone(test: &str, limits: &str) {
    let out = std::process::Command::new("sh")
        .arg("-c")
        .arg(format!("{limits} exec \"$0\" --exact {test} --nocapture --test-threads=1"))
        .arg(std::env::current_exe().expect("test binary path"))
        .env(CHILD, "1")
        .output()
        .expect("spawn the child test process");
    assert!(
        out.status.success(),
        "child failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// This process's thread count, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:")).expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

/// Poll `probe` until it returns `want`, or fail once `within` has passed.
fn settles<T: PartialEq + std::fmt::Debug>(
    what: &str,
    within: Duration,
    probe: impl Fn() -> T,
    want: T,
) {
    let deadline = Instant::now() + within;
    loop {
        let now = probe();
        if now == want {
            return;
        }
        assert!(Instant::now() < deadline, "{what}: {now:?}, want {want:?}");
        thread::sleep(Duration::from_millis(5));
    }
}

#[cfg(target_os = "linux")]
#[test]
fn closed_connections_leave_no_threads_behind() {
    if !is_child() {
        return run_alone("closed_connections_leave_no_threads_behind", "");
    }
    let handle = spawn_pinned(ServeConfig::default());
    let addr = handle.addr();
    let (a, b) = (fill::bench_workload(6, 4, 27), fill::bench_workload(4, 5, 28));
    let mut request = Vec::new();
    protocol::write_frame_v(
        &mut request,
        VERSION_V2,
        2,
        FrameKind::Request,
        &protocol::encode_request(&a, &b),
    )
    .expect("encode request");
    let mut ping = Vec::new();
    protocol::write_frame_v(&mut ping, VERSION_V2, 1, FrameKind::Ping, b"unread")
        .expect("encode ping");

    // Warm up: the engines' worker pool starts with the first batch and
    // stays, so it belongs to the baseline.
    PipelinedClient::connect(addr).expect("connect").multiply(&a, &b).expect("warm-up");
    settles("warm-up connection reaped", Duration::from_secs(5), || handle.live_connections(), 0);
    // A connection that lives through every wave and parks a combiner
    // where the requests below must still be in flight when their peers
    // half-close or reset.
    let mut parker = PipelinedClient::connect(addr).expect("connect");
    parker.ping().expect("ping");
    let park = |parker: &mut PipelinedClient| {
        handle.gate().hold(true);
        let id = parker.send(&a, &b).expect("send");
        assert!(handle.gate().await_waiting(1), "the request's reader never parked");
        id
    };
    thread::sleep(Duration::from_millis(50));
    let levels = || (threads(), handle.metrics().snapshot().connections, handle.live_connections());
    let before = levels();

    for wave in ["idle", "mid-frame", "half-closed", "reset"] {
        let held = matches!(wave, "half-closed" | "reset").then(|| park(&mut parker));
        let mut peers: Vec<TcpStream> =
            (0..50).map(|_| TcpStream::connect(addr).expect("connect")).collect();
        for s in &mut peers {
            match wave {
                "mid-frame" => s.write_all(&request[..HEADER_LEN + 5]).expect("half a frame"),
                "half-closed" => {
                    s.write_all(&request).expect("request");
                    s.shutdown(std::net::Shutdown::Write).expect("half-close");
                }
                "reset" => {
                    s.write_all(&ping).expect("ping");
                    s.write_all(&request).expect("request");
                }
                _ => {}
            }
        }
        settles(wave, Duration::from_secs(10), || handle.live_connections(), 51);
        match wave {
            "half-closed" => {
                handle.gate().hold(false);
                for s in &mut peers {
                    let reply = protocol::read_frame_any(s, 1 << 20).expect("owed response");
                    assert_eq!(reply.kind, FrameKind::Response);
                }
            }
            "reset" => {
                for s in &peers {
                    s.peek(&mut [0u8; 1]).expect("pong arrived");
                }
                assert!(handle.metrics().snapshot().inflight > 0, "requests still in flight");
            }
            _ => {}
        }
        // Closing with the Pong unread resets the reset wave's connections.
        drop(peers);
        settles(wave, Duration::from_secs(1), levels, before);
        if let Some(id) = held {
            handle.gate().hold(false);
            parker.recv::<f64>(id).expect("the parked request served");
        }
    }
    handle.shutdown();
}

/// `utime + stime` of this process in clock ticks, re-read through a
/// handle opened while descriptors were still free.
fn cpu_ticks(stat: &mut std::fs::File) -> u64 {
    use std::io::{Seek, SeekFrom};
    let mut text = String::new();
    stat.seek(SeekFrom::Start(0)).expect("rewind /proc/self/stat");
    stat.read_to_string(&mut text).expect("read /proc/self/stat");
    // Fields 14 and 15, counted from the state field (3) after the command.
    let fields: Vec<&str> = text[text.rfind(')').expect("command") + 2..].split(' ').collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

#[cfg(target_os = "linux")]
#[test]
fn accept_errors_back_off_instead_of_spinning() {
    if !is_child() {
        return run_alone("accept_errors_back_off_instead_of_spinning", "ulimit -n 64 &&");
    }
    let handle = spawn_pinned(ServeConfig::default());
    let addr = handle.addr();
    PipelinedClient::connect(addr).expect("connect").ping().expect("served before");
    let mut stat = std::fs::File::open("/proc/self/stat").expect("open /proc/self/stat");

    // Fill the descriptor table, then spend one freed descriptor on a
    // connect the acceptor cannot take: every accept(2) now fails with
    // EMFILE while the connection waits in the listen backlog.
    let mut hogs = Vec::new();
    while let Ok(file) = std::fs::File::open("/dev/null") {
        hogs.push(file);
    }
    hogs.pop();
    let mut pending = TcpStream::connect(addr).expect("connect on the last descriptor");
    let start = cpu_ticks(&mut stat);
    thread::sleep(Duration::from_millis(500));
    let spent = cpu_ticks(&mut stat) - start;
    // Clock ticks are 10 ms: under 50 ms of CPU over 500 ms of wall time.
    assert!(spent < 5, "{spent} ticks of CPU while accept(2) failed: the acceptor spins");

    // Descriptors free again: the waiting connection and a fresh client
    // are both served.
    drop(hogs);
    protocol::write_frame_v(&mut pending, VERSION_V2, 9, FrameKind::Ping, b"late").expect("ping");
    let pong = protocol::read_frame_any(&mut pending, 1 << 10).expect("pong after the wait");
    assert_eq!((pong.kind, pong.request_id), (FrameKind::Pong, 9));
    PipelinedClient::connect(addr).expect("connect").ping().expect("fresh client served");
    handle.shutdown();
}
