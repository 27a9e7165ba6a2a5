//! End-to-end acceptance tests for the serving daemon: concurrent clients
//! over real loopback TCP, bit-exactness against the local blocked GEMM,
//! provable cross-request coalescing, typed error frames for hostile
//! input, admission-control backpressure, live stats, and clean shutdown.

use fmm_dense::{fill, norms, Matrix, Scalar};
use fmm_engine::{ArchSource, EngineConfig, FmmEngine, Routing};
use fmm_gemm::BlockingParams;
use fmm_model::ArchParams;
use fmm_serve::protocol::{self, ErrorCode, FrameKind, HEADER_PREFIX_LEN, MAGIC, VERSION_V2};
use fmm_serve::{BatchPolicy, PipelinedClient, ServeConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Engine pair for tests: parallel (so batches fan out), pinned paper
/// arch (no host calibration), model routing unless `pin_gemm`.
fn test_engines(pin_gemm: bool) -> (Arc<FmmEngine<f64>>, Arc<FmmEngine<f32>>) {
    let routing = if pin_gemm {
        // No registry algorithm has these partition dims, so every shape
        // takes the counted pinned-fallback path to plain blocked GEMM —
        // a deterministic, bitwise-reproducible route.
        Routing::Pinned {
            dims: (9, 9, 9),
            levels: 1,
            variant: fmm_engine::Variant::Naive,
            strategy: fmm_engine::Strategy::Dfs,
        }
    } else {
        Routing::Model
    };
    let config = EngineConfig {
        parallel: true,
        arch: ArchSource::Fixed(ArchParams::paper_machine()),
        routing,
        ..EngineConfig::default()
    };
    (Arc::new(FmmEngine::<f64>::new(config.clone())), Arc::new(FmmEngine::<f32>::new(config)))
}

fn spawn_server(config: ServeConfig, pin_gemm: bool) -> ServerHandle {
    let (e64, e32) = test_engines(pin_gemm);
    Server::spawn_with_engines(config, e64, e32).expect("bind loopback")
}

#[test]
fn concurrent_clients_get_bit_exact_gemm_results_for_both_dtypes() {
    // GEMM-pinned route: the served result must be *bitwise identical* to
    // the local blocked GEMM, even while requests coalesce into shared
    // batches (batching only re-partitions loop order across problems,
    // never within one problem's k-accumulation).
    let handle = spawn_server(
        ServeConfig {
            batch: BatchPolicy {
                window: Duration::from_millis(40),
                max_batch: 8,
                straggler_gap: Duration::from_millis(40),
            },
            ..ServeConfig::default()
        },
        true,
    );
    let addr = handle.addr();

    thread::scope(|s| {
        for t in 0..3u64 {
            s.spawn(move || {
                let mut client = PipelinedClient::connect(addr).expect("connect");
                for (m, k, n) in [(37, 29, 41), (64, 64, 64), (96, 64, 80)] {
                    let a = fill::bench_workload(m, k, 2 * t + 1);
                    let b = fill::bench_workload(k, n, 2 * t + 2);
                    let c = client.multiply(&a, &b).expect("served f64");
                    let mut c_ref = Matrix::zeros(m, n);
                    fmm_gemm::gemm_with_params(
                        c_ref.as_mut(),
                        a.as_ref(),
                        b.as_ref(),
                        &BlockingParams::default(),
                    );
                    assert_eq!(c, c_ref, "f64 {m}x{k}x{n} not bit-exact (thread {t})");

                    let a32 = fill::bench_workload_t::<f32>(m, k, 3 * t + 1);
                    let b32 = fill::bench_workload_t::<f32>(k, n, 3 * t + 2);
                    let c32 = client.multiply(&a32, &b32).expect("served f32");
                    let mut c32_ref = Matrix::<f32>::zeros(m, n);
                    fmm_gemm::gemm_with_params(
                        c32_ref.as_mut(),
                        a32.as_ref(),
                        b32.as_ref(),
                        &BlockingParams::default(),
                    );
                    assert_eq!(c32, c32_ref, "f32 {m}x{k}x{n} not bit-exact (thread {t})");
                }
            });
        }
    });

    let (s64, s32) = handle.engine_stats();
    assert!(s64.pinned_fallbacks > 0 && s32.pinned_fallbacks > 0, "GEMM route was taken");
    handle.shutdown();
}

/// `x` copied into storage with `pad` rows of leading-dimension padding.
fn padded<T: Scalar>(x: &Matrix<T>, pad: usize) -> Matrix<T> {
    let mut p = Matrix::with_leading_dim(x.rows(), x.cols(), x.rows() + pad);
    for j in 0..x.cols() {
        for i in 0..x.rows() {
            p.set(i, j, x.get(i, j));
        }
    }
    p
}

fn bits<T: Scalar>(x: &Matrix<T>) -> Vec<u64> {
    let (rows, cols) = (x.rows(), x.cols());
    (0..cols).flat_map(|j| (0..rows).map(move |i| x.get(i, j).to_f64().to_bits())).collect()
}

/// The client sends `C = A·B` as `Cᵀ = Bᵀ·Aᵀ`; on the GEMM route the
/// reply must still be in-process `fmm_gemm::gemm`'s `C`, bit for bit.
fn served_gemm_bits_match<T: fmm_serve::WireScalar>(client: &mut PipelinedClient) {
    let shapes = [(37, 29, 41), (64, 64, 64), (5, 301, 3), (96, 17, 80), (17, 1, 9), (6, 0, 4)];
    for (s, (m, k, n)) in shapes.into_iter().enumerate() {
        let a = fill::bench_workload_t::<T>(m, k, 2 * s as u64 + 1);
        let b = fill::bench_workload_t::<T>(k, n, 2 * s as u64 + 2);
        let mut c_ref = Matrix::<T>::zeros(m, n);
        fmm_gemm::gemm(c_ref.as_mut(), a.as_ref(), b.as_ref());
        for (a, b) in [(a.clone(), b.clone()), (padded(&a, 3), padded(&b, 1))] {
            let c = client.multiply(&a, &b).expect("served");
            let what =
                format!("{} {m}x{k}x{n}, ld {} / {}", T::NAME, a.leading_dim(), b.leading_dim());
            assert_eq!((c.rows(), c.cols()), (m, n), "{what}");
            assert_eq!(bits(&c), bits(&c_ref), "{what}: not bit-exact");
        }
    }
}

#[test]
fn transposed_requests_reply_in_process_gemm_bits() {
    let handle = spawn_server(ServeConfig::default(), true);
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    served_gemm_bits_match::<f64>(&mut client);
    served_gemm_bits_match::<f32>(&mut client);
    let (s64, s32) = handle.engine_stats();
    assert!(s64.pinned_fallbacks > 0 && s32.pinned_fallbacks > 0, "GEMM route was taken");
    handle.shutdown();
}

/// A daemon whose batches close as soon as the queue is empty, so that a
/// lone request may run on its connection's reader.
fn zero_window() -> ServeConfig {
    let batch = BatchPolicy { window: Duration::ZERO, ..BatchPolicy::default() };
    ServeConfig { batch, ..ServeConfig::default() }
}

/// Send `rounds` rounds of `depth` pipelined `a·b` requests, stopping
/// early once some batch has held more than one request, and check every
/// reply against `c`.
fn pipeline_until_batched(
    handle: &ServerHandle,
    client: &mut PipelinedClient,
    (a, b, c): (&Matrix<f64>, &Matrix<f64>, &Matrix<f64>),
    depth: usize,
    rounds: usize,
) {
    for _ in 0..rounds {
        let ids: Vec<u64> = (0..depth).map(|_| client.send(a, b).expect("send")).collect();
        for id in ids {
            assert_eq!(&client.recv::<f64>(id).expect("recv"), c);
        }
        if handle.metrics().snapshot().max_occupancy > 1 {
            return;
        }
    }
}

#[test]
fn lone_requests_run_on_their_reader_and_pipelined_ones_batch() {
    let a = fill::bench_workload(32, 32, 1);
    let b = fill::bench_workload(32, 32, 2);
    let mut c = Matrix::zeros(32, 32);
    fmm_gemm::gemm(c.as_mut(), a.as_ref(), b.as_ref());

    // A closed-loop caller on a zero-window daemon: each request finds its
    // connection and its dtype idle, so its reader runs every one.
    let handle = spawn_server(zero_window(), true);
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    for _ in 0..40 {
        assert_eq!(client.multiply(&a, &b).expect("served"), c);
    }
    let snap = handle.metrics().snapshot();
    assert_eq!((snap.requests, snap.reader_requests), (40, 40), "{snap:?}");
    assert_eq!((snap.batches, snap.max_occupancy), (40, 1), "one-job batches: {snap:?}");

    // The same caller pipelining eight: requests that arrive with company
    // queue, and the dispatcher batches them.
    pipeline_until_batched(&handle, &mut client, (&a, &b, &c), 8, 100);
    let snap = handle.metrics().snapshot();
    assert!(snap.max_occupancy > 1, "pipelined requests never shared a batch: {snap:?}");
    assert!(snap.reader_requests < snap.requests, "{snap:?}");
    handle.shutdown();

    // A default-window daemon: the dispatcher runs everything.
    let handle = spawn_server(ServeConfig::default(), true);
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    for _ in 0..10 {
        assert_eq!(client.multiply(&a, &b).expect("served"), c);
    }
    pipeline_until_batched(&handle, &mut client, (&a, &b, &c), 8, 100);
    let snap = handle.metrics().snapshot();
    assert_eq!(snap.reader_requests, 0, "{snap:?}");
    assert!(snap.max_occupancy > 1, "pipelined requests never shared a batch: {snap:?}");
    handle.shutdown();
}

/// A caller's four problems of dtype `T`: operands and in-process
/// `fmm_gemm::gemm`'s product.
fn problems<T: fmm_serve::WireScalar>(seed: u64) -> Vec<[Matrix<T>; 3]> {
    let shapes = [(17, 9, 23), (32, 32, 32), (40, 24, 36), (5, 64, 7)];
    let seeds = (seed..).step_by(2);
    shapes
        .into_iter()
        .zip(seeds)
        .map(|((m, k, n), seed)| {
            let a = fill::bench_workload_t::<T>(m, k, seed);
            let b = fill::bench_workload_t::<T>(k, n, seed + 1);
            let mut c = Matrix::<T>::zeros(m, n);
            fmm_gemm::gemm(c.as_mut(), a.as_ref(), b.as_ref());
            [a, b, c]
        })
        .collect()
}

/// One caller until `until`: `depth` requests in flight at a time (1 is a
/// lone closed-loop caller), every reply checked bit for bit. Returns the
/// requests served.
fn call_until<T: fmm_serve::WireScalar>(
    addr: std::net::SocketAddr,
    depth: usize,
    seed: u64,
    until: Instant,
) -> u64 {
    let problems = problems::<T>(seed);
    let mut client = PipelinedClient::connect(addr).expect("connect");
    let mut served = 0;
    while Instant::now() < until {
        let sent: Vec<(u64, &[Matrix<T>; 3])> = (served..served + depth)
            .map(|i| {
                let p = &problems[i % problems.len()];
                (client.send(&p[0], &p[1]).expect("send"), p)
            })
            .collect();
        for (id, [_, _, c]) in sent {
            let got = client.recv::<T>(id).expect("recv");
            assert_eq!(bits(&got), bits(c), "{} reply {id} not bit-exact", T::NAME);
        }
        served += depth;
    }
    served as u64
}

#[test]
fn lone_and_pipelined_callers_interleave_without_loss() {
    // Six connections on a zero-window daemon for about two seconds:
    // lone callers (even) and depth-8 pipelines (odd), on both dtypes, so
    // readers running lone requests race the dispatchers and each other.
    let handle = spawn_server(zero_window(), true);
    let addr = handle.addr();
    let until = Instant::now() + Duration::from_secs(2);
    let served: u64 = thread::scope(|s| {
        let callers: Vec<_> = (0..6u64)
            .map(|t| {
                let depth = if t % 2 == 0 { 1 } else { 8 };
                s.spawn(move || match t % 3 {
                    2 => call_until::<f32>(addr, depth, 10 * t, until),
                    _ => call_until::<f64>(addr, depth, 10 * t, until),
                })
            })
            .collect();
        callers.into_iter().map(|caller| caller.join().expect("caller")).sum()
    });
    let snap = handle.metrics().snapshot();
    assert_eq!((snap.requests, snap.responses), (served, served), "{snap:?}");
    assert_eq!((snap.rejects_busy, snap.inflight), (0, 0), "{snap:?}");
    assert!(0 < snap.reader_requests && snap.reader_requests < served, "{snap:?}");
    let (s64, s32) = handle.engine_stats();
    assert!(s64.pinned_fallbacks > 0 && s32.pinned_fallbacks > 0, "GEMM route was taken");
    handle.shutdown();
}

#[test]
fn model_routed_concurrent_traffic_is_correct_and_coalesces() {
    // A long window and simultaneous clients force provable coalescing:
    // the dispatcher opens a batch on the first arrival and holds the
    // window open long enough for the rest to join it.
    let clients = 4;
    let handle = spawn_server(
        ServeConfig {
            batch: BatchPolicy {
                window: Duration::from_millis(400),
                max_batch: clients,
                straggler_gap: Duration::from_millis(400),
            },
            ..ServeConfig::default()
        },
        false,
    );
    let addr = handle.addr();

    thread::scope(|s| {
        for t in 0..clients as u64 {
            s.spawn(move || {
                let mut client = PipelinedClient::connect(addr).expect("connect");
                let n = 48;
                let a = fill::bench_workload(n, n, 10 * t + 1);
                let b = fill::bench_workload(n, n, 10 * t + 2);
                let c = client.multiply(&a, &b).expect("served");
                let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
                assert!(
                    norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-9,
                    "thread {t} result diverged"
                );
            });
        }
    });

    let snap = handle.metrics().snapshot();
    assert_eq!(snap.responses, clients as u64);
    assert!(snap.max_occupancy > 1, "no batch provably coalesced: {snap:?}");
    assert!(snap.mean_occupancy > 1.0, "mean occupancy must exceed 1: {snap:?}");
    assert!(snap.batches < clients as u64, "coalescing must merge dispatches: {snap:?}");

    // f32 traffic goes through its own queue and engine.
    let mut client = PipelinedClient::connect(addr).expect("connect");
    let a = fill::bench_workload_t::<f32>(40, 24, 91);
    let b = fill::bench_workload_t::<f32>(24, 32, 92);
    let c = client.multiply(&a, &b).expect("served f32");
    let c_ref = fmm_gemm::reference::matmul(a.cast::<f64>().as_ref(), b.cast::<f64>().as_ref());
    let err = norms::rel_error(c.cast::<f64>().as_ref(), c_ref.as_ref());
    let bound = <f32 as Scalar>::accuracy_bound(24, 2);
    assert!(err < bound, "f32 err {err} exceeds {bound}");

    let (s64, s32) = handle.engine_stats();
    assert!(s64.batch_items >= clients as u64);
    assert!(s32.batch_items >= 1);
    handle.shutdown();
}

#[test]
fn malformed_and_oversized_frames_get_typed_errors_and_service_survives() {
    let handle =
        spawn_server(ServeConfig { max_payload_bytes: 1 << 16, ..ServeConfig::default() }, false);
    let addr = handle.addr();

    // 1. Garbage magic: typed error frame, then the connection closes
    //    (framing is unrecoverable). Only the ten classified prefix bytes
    //    are ever sent — the refusal must not wait for a request id.
    {
        let mut raw = TcpStream::connect(addr).expect("connect");
        let mut header = [0u8; HEADER_PREFIX_LEN];
        header[0..4].copy_from_slice(b"XXXX");
        raw.write_all(&header).expect("write garbage header");
        let frame = protocol::read_frame_any(&mut raw, 1 << 16).expect("error frame back");
        assert_eq!((frame.kind, frame.request_id), (FrameKind::Error, 0));
        let (code, message) = protocol::decode_error(&frame.payload);
        assert_eq!(code, ErrorCode::Malformed);
        assert!(message.contains("magic"), "{message}");
        // EOF follows: the server dropped the connection.
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).expect("read eof");
        assert!(rest.is_empty());
    }

    // 2. Unsupported version byte.
    {
        let mut raw = TcpStream::connect(addr).expect("connect");
        let mut header = [0u8; HEADER_PREFIX_LEN];
        header[0..4].copy_from_slice(&MAGIC);
        header[4] = 77;
        raw.write_all(&header).expect("write bad version");
        let frame = protocol::read_frame_any(&mut raw, 1 << 16).expect("error frame back");
        let (code, _) = protocol::decode_error(&frame.payload);
        assert_eq!(code, ErrorCode::UnsupportedVersion);
    }

    // 3. Oversized declaration: refused before any allocation, typed
    //    Oversized, connection closes.
    {
        let mut raw = TcpStream::connect(addr).expect("connect");
        let mut header = [0u8; HEADER_PREFIX_LEN];
        header[0..4].copy_from_slice(&MAGIC);
        header[4] = VERSION_V2;
        header[5] = FrameKind::Request as u8;
        header[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        raw.write_all(&header).expect("write oversized header");
        let frame = protocol::read_frame_any(&mut raw, 1 << 16).expect("error frame back");
        let (code, message) = protocol::decode_error(&frame.payload);
        assert_eq!(code, ErrorCode::Oversized);
        assert!(message.contains("cap"), "{message}");
    }

    // 4. Well-framed but malformed payload (unknown dtype): typed error,
    //    and the SAME connection keeps serving.
    {
        let mut client = PipelinedClient::connect(addr).expect("connect");
        let mut payload = vec![9u8]; // no such dtype
        payload.extend_from_slice(&[0u8; 12]);
        let reply = client.roundtrip(FrameKind::Request, &payload).expect("reply");
        assert_eq!(reply.kind, FrameKind::Error);
        let (code, message) = protocol::decode_error(&reply.payload);
        assert_eq!(code, ErrorCode::Malformed);
        assert!(message.contains("dtype"), "{message}");

        // 5. Dimension/length mismatch on the same connection.
        let a = fill::bench_workload(4, 4, 1);
        let b = fill::bench_workload(4, 4, 2);
        let mut truncated = protocol::encode_request(&a, &b);
        truncated.truncate(truncated.len() - 8);
        let reply = client.roundtrip(FrameKind::Request, &truncated).expect("reply");
        assert_eq!(reply.kind, FrameKind::Error);

        // 6. A server-to-client kind sent by the client is refused and
        //    the connection still works.
        let reply = client.roundtrip(FrameKind::Pong, b"").expect("reply");
        assert_eq!(reply.kind, FrameKind::Error);

        // 7. The k = 0 attack: a 23-byte request whose declared *result*
        //    would be enormous. The response-side cap must refuse it
        //    before any allocation (a wedged dispatcher would hang the
        //    multiply below instead).
        let mut outer = vec![1u8];
        outer.extend_from_slice(&u32::MAX.to_le_bytes());
        outer.extend_from_slice(&0u32.to_le_bytes());
        outer.extend_from_slice(&u32::MAX.to_le_bytes());
        let reply = client.roundtrip(FrameKind::Request, &outer).expect("reply");
        assert_eq!(reply.kind, FrameKind::Error);
        let (code, message) = protocol::decode_error(&reply.payload);
        assert_eq!(code, ErrorCode::Malformed);
        assert!(message.contains("response"), "{message}");

        // The server is still serving on this very connection.
        let c = client.multiply(&a, &b).expect("still serving");
        let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
        assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-10);
    }

    let snap = handle.metrics().snapshot();
    assert!(snap.rejects_malformed >= 5, "every hostile frame was counted: {snap:?}");
    assert_eq!(snap.responses, 1);
    handle.shutdown();
}

#[test]
fn full_queue_rejects_with_busy_and_recovers() {
    // One-at-a-time dispatch with a single-slot queue: while the
    // dispatcher grinds one problem, at most one more may wait; the rest
    // of a concurrent flood must be refused with Busy. `max_batch: 1`
    // closes every batch at its first request, so the window never waits;
    // it is nonzero because a zero window lets a request that finds the
    // dtype idle run on its connection's reader, off the queue flooded
    // here.
    let handle = spawn_server(
        ServeConfig {
            batch: BatchPolicy {
                window: Duration::from_millis(1),
                max_batch: 1,
                straggler_gap: Duration::ZERO,
            },
            queue_capacity: 1,
            ..ServeConfig::default()
        },
        false,
    );
    let addr = handle.addr();

    let flood = 12;
    let mut successes = 0u64;
    let mut busys = 0u64;
    // Waves until at least one Busy is observed (the first wave all but
    // guarantees it: 12 concurrent requests against a 1-deep queue).
    for wave in 0..10 {
        let outcomes: Vec<Result<(), bool>> = thread::scope(|s| {
            let handles: Vec<_> = (0..flood)
                .map(|t| {
                    s.spawn(move || {
                        let mut client = PipelinedClient::connect(addr).expect("connect");
                        let n = 64;
                        let a = fill::bench_workload(n, n, (wave * flood + t) as u64 + 1);
                        let b = fill::bench_workload(n, n, (wave * flood + t) as u64 + 2);
                        match client.multiply(&a, &b) {
                            Ok(c) => {
                                let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
                                assert!(
                                    norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-9,
                                    "admitted request must still be correct"
                                );
                                Ok(())
                            }
                            Err(e) if e.is_busy() => Err(true),
                            Err(e) => panic!("unexpected failure: {e}"),
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("flood thread")).collect()
        });
        for outcome in outcomes {
            match outcome {
                Ok(()) => successes += 1,
                Err(_) => busys += 1,
            }
        }
        if busys > 0 {
            break;
        }
    }
    assert!(busys > 0, "a 12-wide flood against a 1-deep queue must see backpressure");
    assert!(successes > 0, "admission control must not starve everything");

    let snap = handle.metrics().snapshot();
    assert_eq!(snap.rejects_busy, busys);
    assert_eq!(snap.responses, successes);

    // Backpressure is a transient refusal, not a failure state: a lone
    // request afterwards is served normally.
    let mut client = PipelinedClient::connect(addr).expect("connect");
    let a = fill::bench_workload(32, 32, 997);
    let b = fill::bench_workload(32, 32, 998);
    let c = client.multiply(&a, &b).expect("serving after backpressure");
    let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
    assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-9);
    handle.shutdown();
}

#[test]
fn stats_frame_reports_counters_latency_and_engine_snapshots() {
    let handle = spawn_server(ServeConfig::default(), false);
    let addr = handle.addr();

    let mut client = PipelinedClient::connect(addr).expect("connect");
    client.ping().expect("ping");
    let a = fill::bench_workload(24, 24, 1);
    let b = fill::bench_workload(24, 24, 2);
    client.multiply(&a, &b).expect("served");
    let a32 = fill::bench_workload_t::<f32>(24, 24, 3);
    let b32 = fill::bench_workload_t::<f32>(24, 24, 4);
    client.multiply(&a32, &b32).expect("served f32");

    let stats = client.stats().expect("stats");
    // Two one-request batches: occupancy mean 1.
    for (name, want) in [
        ("fmm_serve_requests_total", 2),
        ("fmm_serve_responses_total", 2),
        ("fmm_serve_pings_total", 1),
        ("fmm_serve_batches_total", 2),
        ("fmm_serve_batched_items_total", 2),
        ("fmm_engine_f64_executions", 1),
        ("fmm_engine_f32_executions", 1),
        // The engine counters carry the full EngineStats reflection surface.
        ("fmm_engine_f64_batch_items", 1),
    ] {
        assert_eq!(stats.counter(name), Ok(want), "{name} in:\n{stats:?}");
    }
    assert_eq!(stats.gauge("fmm_serve_queue_depth_f64"), Ok(0));
    let latency = stats.histogram("fmm_serve_latency_nanos").expect("latency histogram");
    assert_eq!(latency.count, 2, "{latency:?}");
    assert!(latency.p50() <= latency.p99(), "{latency:?}");
    handle.shutdown();
}

#[test]
fn client_shutdown_drains_and_daemon_exits_cleanly() {
    let handle = spawn_server(ServeConfig::default(), false);
    let addr = handle.addr();

    // Traffic, then a protocol-level shutdown.
    let mut client = PipelinedClient::connect(addr).expect("connect");
    let a = fill::bench_workload(16, 16, 5);
    let b = fill::bench_workload(16, 16, 6);
    client.multiply(&a, &b).expect("served");
    client.shutdown().expect("shutdown acknowledged");

    // wait() returns: the accept loop and both dispatchers joined.
    assert!(handle.is_stopping());
    let stats = handle.wait();
    assert_eq!(stats.counter("fmm_serve_responses_total"), Ok(1), "in-flight work drained");

    // The listener is gone; fresh connections are refused (allow the OS a
    // moment to tear the socket down).
    let mut refused = false;
    for _ in 0..50 {
        match TcpStream::connect(addr) {
            Err(_) => {
                refused = true;
                break;
            }
            Ok(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
    assert!(refused, "daemon stopped listening after shutdown");
}
