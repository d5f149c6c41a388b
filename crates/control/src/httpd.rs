//! A dependency-free sliver of HTTP/1.1 — just enough for a loopback
//! status API. One accept loop, one connection at a time (requests are
//! a few hundred bytes and handlers answer from in-memory state), read
//! timeouts so a stalled client cannot wedge the daemon, and
//! `Connection: close` on every response so framing stays trivial.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

/// Decode `%XX` escapes and `+` (space) in a URL component.
pub fn percent_decode(s: &str) -> String {
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
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
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

/// Read one request off `stream`. Returns `None` on a malformed or
/// empty request (the connection is simply dropped).
fn read_request(stream: &mut TcpStream) -> Option<Request> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?.to_string();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).ok()?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    // Loopback status API: nobody legitimately posts more than a flag
    // vector. Cap the body so a confused client cannot balloon memory.
    if content_length > 1 << 20 {
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

fn write_response(stream: &mut TcpStream, resp: &Response) -> io::Result<()> {
    let reason = match resp.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        resp.status,
        reason,
        resp.body.len(),
        resp.body
    )?;
    stream.flush()
}

/// Serve `handler` on `listener` until `shutdown` flips. The listener
/// is polled non-blocking so shutdown is honored within ~20 ms even
/// when no request ever arrives.
pub fn run<H>(listener: TcpListener, shutdown: Arc<AtomicBool>, handler: H) -> io::Result<()>
where
    H: Fn(&Request) -> Response,
{
    listener.set_nonblocking(true)?;
    loop {
        if shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                if let Some(req) = read_request(&mut stream) {
                    let resp = handler(&req);
                    let _ = write_response(&mut stream, &resp);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_split_and_decode() {
        let (path, query) = split_target("/sweeps/3/cells?experiment=soak&x=a%20b+c");
        assert_eq!(path, "/sweeps/3/cells");
        assert_eq!(query[0], ("experiment".to_string(), "soak".to_string()));
        assert_eq!(query[1], ("x".to_string(), "a b c".to_string()));
        let (path, query) = split_target("/status");
        assert_eq!((path.as_str(), query.len()), ("/status", 0));
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
            run(listener, flag, |req| {
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
        shutdown.store(true, Ordering::Release);
        server.join().unwrap();
    }
}
