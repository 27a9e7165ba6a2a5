//! Integration tests for the pipelined serving path: many
//! requests in flight on one connection with out-of-order completion
//! matched by request id, slow-loris resistance of the readiness loops,
//! the zero-allocation warm ingest path, version refusal, and the
//! `retry_busy` backoff helper against real backpressure.

use fmm_core::json::Value;
use fmm_dense::{fill, norms, Matrix};
use fmm_engine::{ArchSource, EngineConfig, FmmEngine, Routing};
use fmm_model::ArchParams;
use fmm_serve::protocol::{self, FrameKind, HEADER_LEN, HEADER_PREFIX_LEN, VERSION_V2};
use fmm_serve::{retry_busy, BatchPolicy, ErrorCode, PipelinedClient};
use fmm_serve::{ServeConfig, Server, ServerHandle};
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
        },
        ..EngineConfig::default()
    };
    (Arc::new(FmmEngine::<f64>::new(config.clone())), Arc::new(FmmEngine::<f32>::new(config)))
}

fn spawn_pinned(config: ServeConfig) -> ServerHandle {
    let (e64, e32) = pinned_engines();
    Server::spawn_with_engines(config, e64, e32).expect("bind loopback")
}

/// Pipeline a window of requests on ONE connection and collect responses
/// in an order shuffled away from submission order; every result must be
/// bitwise identical to the local blocked GEMM.
fn pipeline_shuffled_roundtrip(event_threads: usize) {
    let handle = spawn_pinned(ServeConfig {
        batch: BatchPolicy {
            window: Duration::from_millis(5),
            max_batch: 16,
            straggler_gap: Duration::from_millis(5),
        },
        event_threads,
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
fn pipelined_responses_match_by_id_on_one_event_thread() {
    pipeline_shuffled_roundtrip(1);
}

#[test]
fn pipelined_responses_match_by_id_on_four_event_threads() {
    pipeline_shuffled_roundtrip(4);
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
    // different dispatchers — completion order is up for grabs, ids
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
    // A long batch window holds the first request in flight; with a
    // per-connection cap of 1, the second admission on the same
    // connection must be refused Busy while the first is pending.
    let handle = spawn_pinned(ServeConfig {
        batch: BatchPolicy {
            window: Duration::from_millis(300),
            max_batch: 8,
            straggler_gap: Duration::from_millis(300),
        },
        max_inflight_per_conn: 1,
        ..ServeConfig::default()
    });
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let a = fill::bench_workload(8, 8, 1);
    let b = fill::bench_workload(8, 8, 2);
    let first = client.send(&a, &b).expect("send first");
    let second = client.send(&a, &b).expect("send second");
    // The refusal answers immediately (out of order, before the held
    // first response).
    let err = client.recv::<f64>(second).expect_err("second refused");
    assert!(err.is_busy(), "expected Busy, got {err}");
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
    // first is still being computed.
    let handle = spawn_pinned(ServeConfig {
        batch: BatchPolicy {
            window: Duration::from_millis(300),
            max_batch: 8,
            straggler_gap: Duration::from_millis(300),
        },
        max_conn_backlog_bytes: 1024,
        ..ServeConfig::default()
    });
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let a = fill::bench_workload(8, 8, 31);
    let b = fill::bench_workload(8, 8, 32);
    let first = client.send(&a, &b).expect("send first");
    let second = client.send(&a, &b).expect("send second");
    let err = client.recv::<f64>(second).expect_err("second refused on byte budget");
    assert!(err.is_busy(), "expected Busy, got {err}");
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
    // write side (shutdown(SHUT_WR)) while both are held in a long batch
    // window: the connection must neither be torn down on the EOF nor
    // spin the loop on the hangup — both responses still arrive.
    let handle = spawn_pinned(ServeConfig {
        batch: BatchPolicy {
            window: Duration::from_millis(100),
            max_batch: 8,
            straggler_gap: Duration::from_millis(100),
        },
        ..ServeConfig::default()
    });
    let a = fill::bench_workload(6, 4, 21);
    let b = fill::bench_workload(4, 5, 22);
    let payload = protocol::encode_request(&a, &b);
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    for id in [41, 42] {
        protocol::write_frame_v(&mut s, VERSION_V2, id, FrameKind::Request, &payload)
            .expect("send request");
    }
    s.shutdown(std::net::Shutdown::Write).expect("half-close write side");
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
    // be delivered any more, so the slot must be reclaimed on the hangup —
    // not kept, re-firing on every poller wait, until the batch window
    // closes seconds later.
    let handle = spawn_pinned(ServeConfig {
        batch: BatchPolicy {
            window: Duration::from_secs(4),
            max_batch: 8,
            straggler_gap: Duration::from_secs(4),
        },
        ..ServeConfig::default()
    });
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
    while handle.metrics().snapshot().inflight == 0 {
        thread::sleep(Duration::from_millis(1));
    }
    drop(s);
    let deadline = Instant::now() + Duration::from_secs(1);
    while handle.metrics().snapshot().connections > 0 {
        assert!(Instant::now() < deadline, "reset connection still registered");
        thread::sleep(Duration::from_millis(5));
    }
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
fn warm_path_serves_requests_without_allocating_payload_buffers() {
    let handle = spawn_pinned(ServeConfig::default());
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let a = fill::bench_workload(16, 12, 5);
    let b = fill::bench_workload(12, 14, 6);

    let misses = |stats: Value| -> i64 {
        let Value::Object(root) = stats else { panic!("stats body is not an object") };
        let Some(Value::Object(counters)) = root.get("counters") else { panic!("no counters") };
        match counters.get("fmm_serve_pool_f64_misses") {
            Some(Value::Int(n)) => *n,
            other => panic!("pool miss counter missing: {other:?}"),
        }
    };

    // Warm the pool: the first request allocates A, B, and C buffers.
    client.multiply(&a, &b).expect("warm-up");
    let cold_misses = misses(handle.stats_json());
    assert!(cold_misses >= 3, "cold path allocated operands and result: {cold_misses}");

    // Steady state: same shape, every buffer comes from the pool — the
    // miss counter must not move, which proves zero heap allocations per
    // request for payload buffers.
    for _ in 0..10 {
        let c = client.multiply(&a, &b).expect("warm request");
        let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
        assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-12);
    }
    let warm_misses = misses(handle.stats_json());
    assert_eq!(
        warm_misses, cold_misses,
        "warm-path requests allocated payload buffers (pool misses grew)"
    );
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
fn retry_busy_rides_out_real_backpressure() {
    // A 1-deep queue with one-at-a-time dispatch: a concurrent flood
    // must see Busy refusals, and retry_busy must carry every request
    // through anyway.
    let handle = spawn_pinned(ServeConfig {
        batch: BatchPolicy { window: Duration::ZERO, max_batch: 1, straggler_gap: Duration::ZERO },
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
                let c = retry_busy(12, Duration::from_millis(2), t, || client.multiply(&a, &b))
                    .expect("retries exhausted while the queue stayed full");
                let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
                assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-12);
            });
        }
    });
    let snap = handle.metrics().snapshot();
    assert_eq!(snap.responses, flood, "every flooded request eventually served: {snap:?}");
    handle.shutdown();
}
