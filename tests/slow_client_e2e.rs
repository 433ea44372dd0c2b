//! Adversarial-client end-to-end tests for the readiness-loop server
//! core: slow-loris header drips, stalled readers that never drain
//! their socket, connection-cap saturation, and streamed progress
//! responses. The invariants: dripped bytes never extend the read
//! deadline, a client that stops reading is cut off by the write
//! deadline, and held connections never cost the server a thread each.

#![cfg(unix)]

use gem5prof_served::http::{one_shot, ClientConn};
use gem5prof_served::minjson;
use gem5prof_served::poll;
use gem5prof_served::{serve, ServeConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Cold-compute budget (CI can be slow); transport-level waits in
/// these tests are intentionally much shorter.
const LONG: Duration = Duration::from_secs(900);

fn parse(body: &str) -> minjson::Json {
    minjson::parse(body).unwrap_or_else(|e| panic!("response is not JSON ({e}): {body}"))
}

#[test]
fn slow_loris_drip_does_not_starve_healthy_clients() {
    // 32 connections drip one header byte every 100 ms and never finish
    // a request. The read deadline is armed when the first partial
    // bytes arrive and is NOT extended by further partial bytes, so
    // each loris dies within ~read_timeout regardless of the drip.
    // Healthy clients keep getting served throughout, because no OS
    // thread is ever parked on a loris socket.
    const LORIS: usize = 32;
    let read_timeout = Duration::from_millis(500);
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        read_timeout,
        deadline: LONG,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    let lifetimes: Vec<Duration> = std::thread::scope(|s| {
        let loris: Vec<_> = (0..LORIS)
            .map(|_| {
                let addr = &addr;
                s.spawn(move || {
                    let mut stream = TcpStream::connect(addr.as_str()).expect("loris connect");
                    stream
                        .set_read_timeout(Some(Duration::from_millis(50)))
                        .unwrap();
                    stream.write_all(b"GET /healthz HT").expect("first bytes");
                    let started = Instant::now();
                    // Drip a header byte at a time until the server
                    // hangs up on us (EOF or reset).
                    let mut scratch = [0u8; 64];
                    loop {
                        assert!(
                            started.elapsed() < Duration::from_secs(15),
                            "loris connection survived a dripping read deadline"
                        );
                        match stream.read(&mut scratch) {
                            Ok(0) => break, // FIN: server gave up on us
                            Ok(_) => panic!("server answered an unfinished request"),
                            Err(e)
                                if e.kind() == std::io::ErrorKind::WouldBlock
                                    || e.kind() == std::io::ErrorKind::TimedOut => {}
                            Err(_) => break, // RST: also a hangup
                        }
                        if stream.write_all(b"x").is_err() {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(100));
                    }
                    started.elapsed()
                })
            })
            .collect();

        // While the drips are in flight, healthy clients must be
        // served promptly — a 2 s transport budget, not the 15 s one.
        for _ in 0..5 {
            let (status, body) = one_shot(&addr, "GET", "/healthz", None, Duration::from_secs(2))
                .expect("healthy client must be served during a loris attack");
            assert_eq!(status, 200);
            assert_eq!(
                parse(&body).get("status").and_then(|v| v.as_str()),
                Some("ok")
            );
            std::thread::sleep(Duration::from_millis(50));
        }

        loris.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Each loris was disconnected close to the read deadline: dripping
    // bytes must not push the deadline out, or a client sending one
    // byte per timeout could hold its connection forever.
    for lifetime in &lifetimes {
        assert!(
            *lifetime < Duration::from_secs(5),
            "loris lived {lifetime:?} despite a {read_timeout:?} read deadline"
        );
    }

    // The attack left no residue: health stays green.
    let (status, body) = one_shot(&addr, "GET", "/healthz", None, Duration::from_secs(5))
        .expect("healthz after the attack");
    assert_eq!(status, 200);
    assert_eq!(
        parse(&body).get("status").and_then(|v| v.as_str()),
        Some("ok")
    );
    handle.shutdown();
}

#[test]
fn stalled_reader_is_disconnected_by_the_write_deadline() {
    // A client pipelines hundreds of /metrics requests and then never
    // reads a byte. The server's kernel send buffer is clamped small,
    // so the flush stalls; with no write progress for `write_timeout`
    // the connection must be torn down instead of buffering forever.
    let write_timeout = Duration::from_millis(400);
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        write_timeout,
        sndbuf: Some(16 * 1024),
        deadline: LONG,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    let mut stream = TcpStream::connect(addr.as_str()).expect("connect");
    // Shrink our receive window so the server backs up after tens of
    // kilobytes instead of megabytes.
    poll::set_rcvbuf(stream.as_raw_fd(), 8 * 1024);
    stream.set_nodelay(true).unwrap();
    let mut pipeline = Vec::new();
    for _ in 0..320 {
        pipeline.extend_from_slice(b"GET /metrics HTTP/1.1\r\nhost: gem5prof\r\n\r\n");
    }
    stream.write_all(&pipeline).expect("pipeline requests");

    // Never read. Probe for the server-side close by writing: once the
    // server resets the connection, a probe write errors out.
    let started = Instant::now();
    loop {
        assert!(
            started.elapsed() < Duration::from_secs(15),
            "stalled reader still connected {:?} after the {write_timeout:?} write deadline",
            started.elapsed()
        );
        if stream.write_all(b"\r\n").is_err() {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "write deadline fired late: {:?}",
        started.elapsed()
    );

    // The stall was contained to that one connection.
    let (status, _) = one_shot(&addr, "GET", "/healthz", None, Duration::from_secs(5))
        .expect("healthy client after a stalled reader");
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn connection_cap_rejects_extras_with_a_canned_503() {
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        max_conns: 4,
        deadline: LONG,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    // Fill the cap with idle connections.
    let held: Vec<TcpStream> = (0..4)
        .map(|_| TcpStream::connect(addr.as_str()).expect("held connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(200));

    // One more gets the canned 503 and a hangup, without sending a
    // single byte of request.
    let mut extra = TcpStream::connect(addr.as_str()).expect("extra connect");
    extra
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reply = String::new();
    extra
        .read_to_string(&mut reply)
        .expect("read canned 503 until close");
    assert!(
        reply.starts_with("HTTP/1.1 503"),
        "expected canned 503, got: {reply}"
    );
    assert!(
        reply.contains("connection limit reached"),
        "503 body must say why: {reply}"
    );
    assert!(
        reply.to_ascii_lowercase().contains("retry-after"),
        "canned 503 must carry Retry-After: {reply}"
    );

    // Release the held slots; the reject shows up on /metrics.
    drop(held);
    std::thread::sleep(Duration::from_millis(200));
    let (status, text) = one_shot(&addr, "GET", "/metrics", None, Duration::from_secs(5))
        .expect("metrics after releasing the cap");
    assert_eq!(status, 200);
    let rejects: f64 = text
        .lines()
        .filter(|l| l.starts_with("gem5prof_core_saturation_rejects_total"))
        .filter_map(|l| l.split_whitespace().last())
        .filter_map(|v| v.parse::<f64>().ok())
        .sum();
    assert!(rejects >= 1.0, "saturation reject not counted:\n{text}");
    assert!(
        text.lines()
            .any(|l| l.starts_with("gem5prof_core_open_connections")),
        "open-connections gauge missing:\n{text}"
    );
    handle.shutdown();
}

#[test]
fn streamed_experiment_emits_progress_then_the_result() {
    // `?stream=progress` answers with a chunked body: newline-delimited
    // progress frames while the worker runs, then the result document
    // as the final frame. An artificial 700 ms of work guarantees at
    // least one 200 ms progress tick lands first.
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        worker_delay: Duration::from_millis(700),
        deadline: LONG,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    // An unknown stream mode is rejected up front, before any compute.
    let (status, body) = one_shot(
        &addr,
        "POST",
        "/experiments?stream=bogus",
        Some(r#"{"platform":"intel_xeon","workload":"dedup","cpu":"o3"}"#),
        Duration::from_secs(5),
    )
    .expect("bad stream mode transport");
    assert_eq!(status, 400, "unknown stream mode must be a 400: {body}");
    assert!(
        body.contains("unknown stream mode"),
        "unhelpful 400: {body}"
    );

    let spec = r#"{"platform":"intel_xeon","workload":"dedup","cpu":"o3"}"#;
    let mut conn = ClientConn::connect(&addr, LONG).expect("connect");
    let (status, stream_body) = conn
        .request("POST", "/experiments?stream=progress", Some(spec))
        .expect("streamed experiment transport");
    assert_eq!(status, 200, "streamed experiment failed: {stream_body}");

    let lines: Vec<&str> = stream_body.lines().filter(|l| !l.is_empty()).collect();
    assert!(
        lines.len() >= 2,
        "expected progress frames before the result: {stream_body}"
    );
    let progress = parse(lines[0])
        .get("progress")
        .cloned()
        .unwrap_or_else(|| panic!("first frame is not a progress frame: {}", lines[0]));
    assert!(
        progress
            .get("elapsed_ms")
            .and_then(|v| v.as_f64())
            .is_some(),
        "progress frame lacks elapsed_ms: {}",
        lines[0]
    );
    let result = parse(lines[lines.len() - 1]);
    let seconds = result
        .get("host")
        .and_then(|h| h.get("seconds"))
        .and_then(|v| v.as_f64())
        .expect("final frame is the experiment result");
    assert!(seconds > 0.0, "host.seconds must be positive: {seconds}");

    // The streamed compute warmed the cache: the identical plain
    // request is now an ordinary (non-chunked) cache hit.
    let (status, body) = conn
        .request("POST", "/experiments", Some(spec))
        .expect("cached repeat transport");
    assert_eq!(status, 200, "cached repeat failed: {body}");
    assert_eq!(
        parse(&body)
            .get("host")
            .and_then(|h| h.get("seconds"))
            .and_then(|v| v.as_f64()),
        Some(seconds),
        "cache hit must return the same result"
    );
    handle.shutdown();
}
