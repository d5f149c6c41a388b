//! `sprout-control wait` against a scripted status API: the first poll
//! is made at once, and the polls that follow start 10 ms apart and
//! double to the 200 ms cap — so a sweep that is already done, or done
//! within a few polls, is not reported a flat 200 ms late. And the two
//! timeout flags refuse a number of seconds the clock cannot hold.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Answer `GET /sweeps` with each of `states` in turn (one connection
/// each), for sweep 7; returns when every state was served.
fn serve_states(listener: TcpListener, states: &[&str]) {
    for state in states {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(&stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("request line");
        assert!(line.starts_with("GET /sweeps "), "{line}");
        while line != "\r\n" {
            line.clear();
            reader.read_line(&mut line).expect("header");
        }
        let body = format!(
            "{{\"sweeps\":[{{\"id\":7,\"experiment\":\"soak\",\"workers\":2,\"state\":\"{state}\",\"retries\":0,\"error\":\"\",\"args\":[]}}]}}"
        );
        write!(
            &stream,
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .expect("respond");
    }
}

/// Run `sprout-control wait 7` against a server scripted with `states`;
/// returns its stdout and how long it took.
fn wait_through(states: &'static [&'static str]) -> (String, Duration) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let endpoint = listener.local_addr().expect("local addr").to_string();
    let server = std::thread::spawn(move || serve_states(listener, states));
    let t0 = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_sprout-control"))
        .args(["wait", "7", "--endpoint", &endpoint])
        .output()
        .expect("sprout-control runs");
    let took = t0.elapsed();
    // Joins only if `wait` made exactly as many requests as scripted.
    server.join().expect("every scripted answer was asked for");
    assert!(out.status.success(), "{out:?}");
    (String::from_utf8_lossy(&out.stdout).into_owned(), took)
}

#[test]
fn a_finished_sweep_is_reported_by_the_first_poll() {
    let (stdout, _) = wait_through(&["done"]);
    assert_eq!(stdout, "{\"id\":7,\"state\":\"done\"}\n");
}

#[test]
fn polls_start_short_and_double() {
    // Five polls find the sweep unfinished: 10 + 20 + 40 + 80 + 160 ms
    // of pauses, where a flat 200 ms between polls cannot be under 1 s.
    let (stdout, took) = wait_through(&[
        "pending", "running", "running", "running", "merging", "done",
    ]);
    assert_eq!(stdout, "{\"id\":7,\"state\":\"done\"}\n");
    assert!(
        took >= Duration::from_millis(310),
        "polled faster than declared: {took:?}"
    );
    assert!(
        took < Duration::from_secs(1),
        "{took:?} for five pauses: no shorter than a flat 200 ms each"
    );
}

/// More seconds than an `Instant` can be moved by.
const TOO_MANY_SECS: &str = "18446744073709551615";

#[test]
fn wait_refuses_a_timeout_past_the_clock() {
    // Nothing is ever accepted: a `wait` that got past its flags would
    // time out on its first request instead of exiting 2.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let endpoint = listener.local_addr().expect("local addr").to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_sprout-control"))
        .args(["wait", "--timeout-secs", TOO_MANY_SECS, "1"])
        .args(["--endpoint", &endpoint])
        .output()
        .expect("sprout-control runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--timeout-secs expects"),
        "{out:?}"
    );
}

#[test]
fn serve_refuses_a_heartbeat_timeout_past_the_clock() {
    let state = std::env::temp_dir().join(format!("sprout-control-hb-{}", std::process::id()));
    let bin = env!("CARGO_BIN_EXE_sprout-control");
    let mut child = Command::new(bin)
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--hb-timeout",
            TOO_MANY_SECS,
        ])
        .arg("--state-dir")
        .arg(&state)
        // Any file passes the binary check; the daemon must not start.
        .args(["--reproduce-bin", bin])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("sprout-control runs");
    let t0 = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break Some(status);
        }
        if t0.elapsed() > Duration::from_secs(5) {
            child.kill().expect("kill");
            child.wait().expect("reap");
            break None;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let _ = std::fs::remove_dir_all(&state);
    let status = status.expect("serve still running after 5 s: the flag was accepted");
    assert_eq!(status.code(), Some(2), "{status:?}");
}
