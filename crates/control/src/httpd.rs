//! A dependency-free sliver of HTTP/1.1 — just enough for a loopback
//! status API. One accept loop, one connection at a time (requests are
//! a few hundred bytes and handlers answer from in-memory state), and
//! `Connection: close` on every response so framing stays trivial. The
//! loop blocks in `accept` — a request is answered when it arrives, not
//! at the next poll — and [`stop`] is how another thread ends it.
//! Because the loop is serial, one connection must not be able to hold
//! it: a request's head and body are bounded in bytes and header count,
//! and a connection gets one total deadline for being read *and*
//! answered — a client sending an endless line, ten thousand headers, or
//! one byte a second is dropped like any other malformed one.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Most bytes of request line plus headers. The CLI's requests have a
/// head of about a hundred.
const MAX_HEAD_BYTES: u64 = 16 << 10;
/// Most header lines.
const MAX_HEADERS: usize = 64;
/// Most body bytes: nobody legitimately posts more than a flag vector.
const MAX_BODY_BYTES: usize = 1 << 20;
/// The time one connection gets, from accept to the last response byte.
const CONNECTION_DEADLINE: Duration = Duration::from_secs(5);

/// A parsed request: method, decoded path, decoded query pairs, body.
pub struct Request {
    /// `GET` or `POST`.
    pub method: String,
    /// Path component, percent-decoded (e.g. `/sweeps/3/cells`).
    pub path: String,
    /// Query pairs in order, keys and values percent-decoded.
    pub query: Vec<(String, String)>,
    /// Raw body (present when the request carried `Content-Length`).
    pub body: String,
}

impl Request {
    /// First value of query key `k`, if present.
    pub fn query(&self, k: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
    }
}

/// A response: status code plus a JSON body.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body, always served as `application/json`.
    pub body: String,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
        }
    }

    /// A `{"error": msg}` response with the given status.
    pub fn error(status: u16, msg: &str) -> Response {
        Response::json(
            status,
            format!("{{\"error\":{}}}", sprout_cache::json::quoted(msg)),
        )
    }
}

/// Decode `%XX` escapes and `+` (space) in a URL component. An escape is
/// `%` and exactly two ASCII hex digits; any other `%` is kept literally.
pub fn percent_decode(s: &str) -> String {
    let digit = |b: u8| (b as char).to_digit(16);
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| Some(digit(h[0])? * 16 + digit(h[1])?));
                match hex {
                    Some(b) => {
                        out.push(b as u8);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Split `path?query` into a decoded path and decoded query pairs.
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let pairs = query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();
    (percent_decode(path), pairs)
}

/// Read one request off `stream`. Returns `None` on a malformed,
/// oversized, or empty request (the connection is simply dropped).
fn read_request(stream: impl Read) -> Option<Request> {
    let mut reader = BufReader::new(stream);
    // The head is read through a byte budget: a line the budget (or the
    // end of the stream) cuts short has no terminator and is refused.
    let mut head = reader.by_ref().take(MAX_HEAD_BYTES);
    let mut line = || {
        let mut line = String::new();
        head.read_line(&mut line).ok()?;
        line.ends_with('\n').then_some(line)
    };
    let request_line = line()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?.to_string();
    let mut content_length = 0usize;
    let mut headers = 0;
    loop {
        let header = line()?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return None;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return None;
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    let (path, query) = split_target(&target);
    Some(Request {
        method,
        path,
        query,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

fn write_response(mut stream: impl Write, resp: &Response) -> io::Result<()> {
    let reason = match resp.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    // One buffer, one write: each write of a deadlined stream re-arms
    // its timeout.
    let text = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        resp.status,
        reason,
        resp.body.len(),
        resp.body
    );
    stream.write_all(text.as_bytes())?;
    stream.flush()
}

/// A connection whose every read and write must finish by one instant:
/// each call gets only the time still left, so neither a trickle of
/// bytes nor a peer that stops reading can outlast the deadline.
struct Deadlined<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Deadlined<'_> {
    fn time_left(&self) -> io::Result<Duration> {
        match self.deadline.checked_duration_since(Instant::now()) {
            Some(left) if !left.is_zero() => Ok(left),
            _ => Err(io::ErrorKind::TimedOut.into()),
        }
    }
}

impl Read for Deadlined<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.set_read_timeout(Some(self.time_left()?))?;
        self.stream.read(buf)
    }
}

impl Write for Deadlined<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.set_write_timeout(Some(self.time_left()?))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// Serve `handler` on `listener` until `shutdown` is set. The loop
/// blocks in `accept`: it is woken by a connection and by nothing else,
/// and looks at the flag before each accept — so a handler that sets it
/// ends the loop with its own response, and anyone else uses [`stop`].
pub fn run<H>(listener: TcpListener, shutdown: &AtomicBool, handler: H) -> io::Result<()>
where
    H: Fn(&Request) -> Response,
{
    serve(listener, shutdown, CONNECTION_DEADLINE, handler)
}

/// Stop the server listening on `addr` from another thread: set its
/// flag, then connect to it so the blocked `accept` returns and the
/// loop sees the flag. Connections still queued behind that one are
/// refused when the listener drops.
pub fn stop(shutdown: &AtomicBool, addr: impl ToSocketAddrs) {
    shutdown.store(true, Ordering::Release);
    // Refused means the server is already gone, which is the goal.
    let _ = TcpStream::connect(addr);
}

/// [`run`], with the per-connection deadline the tests shorten.
fn serve<H>(
    listener: TcpListener,
    shutdown: &AtomicBool,
    deadline: Duration,
    handler: H,
) -> io::Result<()>
where
    H: Fn(&Request) -> Response,
{
    while !shutdown.load(Ordering::Acquire) {
        let (stream, _) = listener.accept()?;
        let _ = stream.set_nodelay(true);
        let mut conn = Deadlined {
            stream: &stream,
            deadline: Instant::now() + deadline,
        };
        if let Some(req) = read_request(&mut conn) {
            let resp = handler(&req);
            let _ = write_response(&mut conn, &resp);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn targets_split_and_decode() {
        let (path, query) = split_target("/sweeps/3/cells?experiment=soak&x=a%20b+c");
        assert_eq!(path, "/sweeps/3/cells");
        assert_eq!(query[0], ("experiment".to_string(), "soak".to_string()));
        assert_eq!(query[1], ("x".to_string(), "a b c".to_string()));
        let (path, query) = split_target("/status");
        assert_eq!((path.as_str(), query.len()), ("/status", 0));
        // An escape is `%` and two hex digits; `u8::from_str_radix` alone
        // would take `+F` for 0x0F. Anything else stays literal.
        let (_, query) = split_target("/s?a=%+F&b=%-1&c=%G0&d=%2F&e=%4");
        let values: Vec<&str> = query.iter().map(|(_, v)| v.as_str()).collect();
        assert_eq!(values, ["% F", "%-1", "%G0", "/", "%4"]);
    }

    #[test]
    fn json_escape_covers_the_control_plane() {
        // Error bodies go through the workspace's one JSON string writer.
        assert_eq!(
            Response::error(400, "a\"b\\c\nd\u{1}").body,
            "{\"error\":\"a\\\"b\\\\c\\u000ad\\u0001\"}"
        );
    }

    #[test]
    fn server_answers_and_honors_shutdown() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let server = std::thread::spawn(move || {
            run(listener, &flag, |req| {
                Response::json(
                    200,
                    format!(
                        "{{\"method\":\"{}\",\"path\":\"{}\",\"body\":{}}}",
                        req.method,
                        req.path,
                        sprout_cache::json::quoted(&req.body)
                    ),
                )
            })
            .unwrap();
        });
        let (status, body) =
            crate::client::request(&addr.to_string(), "POST", "/echo?k=v", "hello").unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            body,
            "{\"method\":\"POST\",\"path\":\"/echo\",\"body\":\"hello\"}"
        );
        stop(&shutdown, addr);
        server.join().unwrap();
    }

    #[test]
    fn stop_ends_an_idle_server_and_never_hangs_a_queued_request() {
        use std::sync::mpsc;
        // No request ever received: only the self-connect can end the
        // blocked accept.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let server = std::thread::spawn(move || {
            run(listener, &flag, |_| Response::json(200, "{}")).unwrap()
        });
        stop(&shutdown, addr);
        server.join().unwrap();

        // A request queued behind the one being handled when `stop` is
        // called: the handler is held until both are in place, so the
        // order is forced, not slept for.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let (entered_tx, entered) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            run(listener, &flag, move |req| {
                entered_tx.send(()).unwrap();
                released.recv().unwrap();
                Response::json(200, req.path.clone())
            })
            .unwrap();
        });
        let ask = move |path: &'static str| {
            std::thread::spawn(move || crate::client::request(&addr.to_string(), "GET", path, ""))
        };
        let first = ask("/first");
        entered.recv().unwrap();
        // Connected (the kernel completes the handshake into the accept
        // queue) before `stop`, answered by nobody yet.
        let queued = TcpStream::connect(addr).unwrap();
        stop(&shutdown, addr);
        release.send(()).unwrap();
        server.join().unwrap();
        assert_eq!(first.join().unwrap().unwrap(), (200, "/first".to_string()));
        // Answered or refused, but the read returns: the listener is gone.
        queued
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        if let Err(e) = (&queued).read_to_end(&mut Vec::new()) {
            let hung = matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            );
            assert!(!hung, "a queued connection hung past stop: {e}");
        }
    }

    const VALID: &str =
        "POST /sweeps?experiment=soak&workers=2 HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n--secs\n40";

    fn parse(bytes: &[u8]) -> Option<Request> {
        read_request(bytes)
    }

    #[test]
    fn a_request_split_across_reads_at_any_byte_parses_the_same() {
        for cut in 0..=VALID.len() {
            let (a, b) = VALID.as_bytes().split_at(cut);
            let req = read_request(a.chain(b)).unwrap_or_else(|| panic!("split at {cut}"));
            assert_eq!(
                (req.method.as_str(), req.path.as_str()),
                ("POST", "/sweeps")
            );
            assert_eq!(req.query("workers"), Some("2"));
            assert_eq!(req.body, "--secs\n40");
        }
    }

    #[test]
    fn an_oversized_head_is_dropped_not_buffered() {
        let pad = "a".repeat(MAX_HEAD_BYTES as usize);
        // One endless request line: the parser must stop on its own.
        assert!(read_request(io::repeat(b'a')).is_none());
        assert!(parse(format!("GET /{pad} HTTP/1.1\r\n\r\n").as_bytes()).is_none());
        assert!(parse(format!("GET / HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n").as_bytes()).is_none());
        // Just inside the budget is still a request.
        let fits = "a".repeat(MAX_HEAD_BYTES as usize - 64);
        assert!(parse(format!("GET / HTTP/1.1\r\nX-Pad: {fits}\r\n\r\n").as_bytes()).is_some());
    }

    #[test]
    fn too_many_headers_are_dropped() {
        let with = |n: usize| format!("GET / HTTP/1.1\r\n{}\r\n", "X: y\r\n".repeat(n));
        assert!(parse(with(MAX_HEADERS).as_bytes()).is_some());
        assert!(parse(with(MAX_HEADERS + 1).as_bytes()).is_none());
        assert!(parse(with(10_000).as_bytes()).is_none());
    }

    #[test]
    fn a_content_length_that_cannot_be_honored_is_dropped() {
        let with = |len: &str, body: &str| {
            parse(format!("POST / HTTP/1.1\r\nContent-Length: {len}\r\n\r\n{body}").as_bytes())
        };
        assert_eq!(with("3", "abc").expect("honest length").body, "abc");
        for bad in ["-1", "abc", "", "1e3", "99999999999999999999999"] {
            assert!(with(bad, "abc").is_none(), "Content-Length: {bad}");
        }
        // Over the body cap, even though the bytes are all there.
        let big = "b".repeat(MAX_BODY_BYTES + 1);
        assert!(with(&big.len().to_string(), &big).is_none());
        assert!(with(&MAX_BODY_BYTES.to_string(), &big[1..]).is_some());
        // Promises more than the peer ever sends.
        assert!(with("10", "abc").is_none());
    }

    #[test]
    fn a_client_that_holds_its_connection_does_not_hold_the_next_request() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let deadline = Duration::from_millis(200);
        let server = std::thread::spawn(move || {
            serve(listener, &flag, deadline, |req| {
                Response::json(200, req.path.clone())
            })
            .unwrap();
        });
        // Three bad neighbours, each ahead of a well-formed request in
        // the accept queue: one byte every 20 ms for 2 s (never a whole
        // request, never silent for a read timeout), an endless request
        // line, and ten thousand headers.
        let trickle = TcpStream::connect(addr).unwrap();
        let trickler = std::thread::spawn(move || {
            let mut trickle = trickle;
            for _ in 0..100 {
                if trickle.write_all(b"G").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let t0 = Instant::now();
        let (status, body) = crate::client::request(&addr.to_string(), "GET", "/one", "").unwrap();
        assert_eq!((status, body.as_str()), (200, "/one"));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "held for {:?} by a trickling client (deadline {deadline:?})",
            t0.elapsed()
        );
        for flood in ["a".repeat(1 << 20), "X: y\r\n".repeat(10_000)] {
            let mut bad = TcpStream::connect(addr).unwrap();
            // The server may hang up mid-flood; that is the point.
            let _ = bad.write_all(format!("GET / HTTP/1.1\r\n{flood}").as_bytes());
            let (status, body) =
                crate::client::request(&addr.to_string(), "GET", "/next", "").unwrap();
            assert_eq!((status, body.as_str()), (200, "/next"));
        }
        stop(&shutdown, addr);
        server.join().unwrap();
        trickler.join().unwrap();
    }
}
