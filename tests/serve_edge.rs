//! The serve daemon's HTTP edge must not add a fixed delay per
//! connection: the accept loop wakes when a connection arrives instead
//! of on a timer. Its own test binary, so no other test's load shares
//! the CPU while round trips are timed.

use codesign::serve::{ServeConfig, Server};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One request on a fresh connection; returns the raw response.
fn round_trip(addr: SocketAddr, method: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let text = format!("{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n");
    stream.write_all(text.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw
}

#[test]
fn sequential_health_checks_are_answered_without_an_accept_delay() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    // A closed-loop client: each connection opens only after the
    // previous response has been read, so every one of them finds the
    // accept loop idle. A timed accept wait shows up here in full.
    let mut round_trips: Vec<Duration> = (0..20)
        .map(|_| {
            let started = Instant::now();
            let raw = round_trip(addr, "GET", "/healthz");
            let elapsed = started.elapsed();
            assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");
            assert!(raw.ends_with("{\"status\":\"ok\"}\n"), "{raw}");
            elapsed
        })
        .collect();
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];

    let raw = round_trip(addr, "POST", "/shutdown");
    assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");
    handle
        .join()
        .expect("server thread")
        .expect("clean server exit");

    assert!(
        median < Duration::from_millis(2),
        "median /healthz round trip {median:?} (all: {round_trips:?})"
    );
}
