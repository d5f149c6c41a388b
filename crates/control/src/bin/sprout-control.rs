//! The sweep-orchestrator CLI: run the daemon, or talk to one.
//!
//! ```text
//! sprout-control serve    [--listen ADDR] [--state-dir DIR] [--cache-dir DIR]
//!                         [--out DIR] [--reproduce-bin PATH]
//!                         [--hb-timeout SECS] [--max-retries N]
//! sprout-control submit <experiment> [--workers N] [-- <worker flags…>]
//! sprout-control status
//! sprout-control sweeps
//! sprout-control cells  <id>
//! sprout-control cancel <id>
//! sprout-control wait   <id> [--timeout-secs N]
//! sprout-control shutdown
//! ```
//!
//! Client subcommands find the daemon through `<state-dir>/endpoint`
//! (default state dir `.sprout-control`) or an explicit `--endpoint
//! host:port`, print the JSON response to stdout, and exit nonzero on
//! any non-2xx answer. `wait` polls until the sweep reaches a terminal
//! state (first at once, then after 10 ms, doubling to 200 ms) and exits
//! 0 only for `done`.
//!
//! `serve` runs the daemon in the foreground: a persistent sweep queue
//! in the state dir, `reproduce --shard i/N --resume --controlled`
//! workers sharing one cache dir, heartbeat supervision with bounded
//! retry-with-backoff, and a final `--merge` whose artifacts are
//! byte-identical to a single-process run of the same flags.
//!
//! `--hb-timeout` and `--timeout-secs` take 1 to 2 592 000 seconds (30
//! days); anything else is a usage error (exit 2).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use sprout_control::{client, Daemon, DaemonConfig};

const USAGE: &str = "usage: sprout-control <serve|submit|status|sweeps|cells|cancel|wait|shutdown> [flags]
  serve    [--listen ADDR] [--state-dir DIR] [--cache-dir DIR] [--out DIR] [--reproduce-bin PATH] [--hb-timeout SECS] [--max-retries N]
  submit <experiment> [--workers N] [--state-dir DIR | --endpoint ADDR] [-- <worker flags...>]
  status|sweeps|shutdown [--state-dir DIR | --endpoint ADDR]
  cells|cancel <id> [--state-dir DIR | --endpoint ADDR]
  wait <id> [--timeout-secs N] [--state-dir DIR | --endpoint ADDR]
  --hb-timeout SECS and --timeout-secs N: 1..=2592000 seconds (30 days)";

/// The longest `--hb-timeout` or `--timeout-secs` (30 days): a deadline
/// this far out still fits the clock, where `u64::MAX` seconds overflow
/// it.
const MAX_TIMEOUT_SECS: u64 = 30 * 24 * 60 * 60;

/// The seconds of `flag`'s value, or a usage error naming the range.
fn timeout_secs(flag: &str, value: Option<&String>) -> Duration {
    match value.map(|v| v.parse::<u64>()) {
        Some(Ok(secs)) if (1..=MAX_TIMEOUT_SECS).contains(&secs) => Duration::from_secs(secs),
        _ => usage_error(&format!(
            "{flag} expects a number of seconds in 1..={MAX_TIMEOUT_SECS} (30 days)"
        )),
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("sprout-control: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Flags shared by every client subcommand.
struct ClientOpts {
    state_dir: PathBuf,
    endpoint: Option<String>,
}

impl ClientOpts {
    fn endpoint(&self) -> String {
        match &self.endpoint {
            Some(addr) => addr.clone(),
            None => client::endpoint_of(&self.state_dir).unwrap_or_else(|e| {
                eprintln!("sprout-control: {e}");
                std::process::exit(1);
            }),
        }
    }
}

fn request_or_die(endpoint: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    client::request(endpoint, method, path, body).unwrap_or_else(|e| {
        eprintln!("sprout-control: request to {endpoint} failed: {e}");
        std::process::exit(1);
    })
}

/// Print the response body; exit nonzero unless the status was 2xx.
fn finish(status: u16, body: String) -> ! {
    println!("{body}");
    std::process::exit(if (200..300).contains(&status) { 0 } else { 1 });
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        usage_error("missing subcommand");
    };
    let rest: Vec<String> = args.collect();
    match cmd.as_str() {
        "serve" => serve(&rest),
        "submit" => submit(&rest),
        "status" => simple(&rest, "GET", "/status"),
        "sweeps" => simple(&rest, "GET", "/sweeps"),
        "shutdown" => simple(&rest, "POST", "/shutdown"),
        "cells" => by_id(&rest, "GET", "cells"),
        "cancel" => by_id(&rest, "POST", "cancel"),
        "wait" => wait(&rest),
        "--help" | "-h" => {
            println!("{USAGE}");
        }
        other => usage_error(&format!("unknown subcommand {other:?}")),
    }
}

/// Parse `--state-dir`/`--endpoint` out of `rest`; everything else is
/// returned for the subcommand to interpret.
fn split_client_opts(rest: &[String]) -> (ClientOpts, Vec<String>) {
    let mut opts = ClientOpts {
        state_dir: PathBuf::from(".sprout-control"),
        endpoint: None,
    };
    let mut remaining = Vec::new();
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--state-dir" => match iter.next() {
                Some(dir) => opts.state_dir = dir.into(),
                None => usage_error("--state-dir expects a directory"),
            },
            "--endpoint" => match iter.next() {
                Some(addr) => opts.endpoint = Some(addr.clone()),
                None => usage_error("--endpoint expects host:port"),
            },
            _ => remaining.push(arg.clone()),
        }
    }
    (opts, remaining)
}

fn serve(rest: &[String]) {
    let mut cfg = DaemonConfig::new(".sprout-control");
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| -> String {
            match iter.next() {
                Some(v) => v.clone(),
                None => usage_error(&format!("{name} expects a value")),
            }
        };
        match arg.as_str() {
            "--listen" => cfg.listen = value("--listen"),
            "--state-dir" => cfg.state_dir = value("--state-dir").into(),
            "--cache-dir" => cfg.cache_dir = value("--cache-dir").into(),
            "--out" => cfg.out_dir = value("--out").into(),
            "--reproduce-bin" => cfg.reproduce_bin = value("--reproduce-bin").into(),
            "--hb-timeout" => cfg.hb_timeout = timeout_secs("--hb-timeout", iter.next()),
            "--max-retries" => match value("--max-retries").parse() {
                Ok(n) => cfg.max_retries = n,
                Err(_) => usage_error("--max-retries expects a number"),
            },
            other => usage_error(&format!("unknown serve flag {other:?}")),
        }
    }
    if !cfg.reproduce_bin.is_file() {
        eprintln!(
            "sprout-control: reproduce binary not found at {:?} (build it, or pass --reproduce-bin)",
            cfg.reproduce_bin
        );
        std::process::exit(1);
    }
    let daemon = Daemon::start(cfg).unwrap_or_else(|e| {
        eprintln!("sprout-control: failed to start: {e}");
        std::process::exit(1);
    });
    println!("sprout-control: serving on {}", daemon.endpoint());
    if let Err(e) = daemon.run() {
        eprintln!("sprout-control: daemon error: {e}");
        std::process::exit(1);
    }
}

fn submit(rest: &[String]) {
    // Everything after `--` is the worker flag vector, forwarded
    // verbatim (the daemon validates it with the shared parser).
    let (own, worker_args) = match rest.iter().position(|a| a == "--") {
        Some(i) => (rest[..i].to_vec(), rest[i + 1..].to_vec()),
        None => (rest.to_vec(), Vec::new()),
    };
    let (opts, remaining) = split_client_opts(&own);
    let mut experiment: Option<String> = None;
    let mut workers: Option<String> = None;
    let mut iter = remaining.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--workers" => match iter.next() {
                Some(n) => workers = Some(n.clone()),
                None => usage_error("--workers expects a number"),
            },
            other if !other.starts_with('-') && experiment.is_none() => {
                experiment = Some(other.to_string());
            }
            other => usage_error(&format!("unexpected submit argument {other:?}")),
        }
    }
    let Some(experiment) = experiment else {
        usage_error("submit expects an experiment name");
    };
    let mut path = format!("/sweeps?experiment={experiment}");
    if let Some(w) = workers {
        path.push_str(&format!("&workers={w}"));
    }
    let body = worker_args.join("\n");
    let (status, resp) = request_or_die(&opts.endpoint(), "POST", &path, &body);
    finish(status, resp);
}

fn simple(rest: &[String], method: &str, path: &str) {
    let (opts, remaining) = split_client_opts(rest);
    if let Some(extra) = remaining.first() {
        usage_error(&format!("unexpected argument {extra:?}"));
    }
    let (status, body) = request_or_die(&opts.endpoint(), method, path, "");
    finish(status, body);
}

fn by_id(rest: &[String], method: &str, action: &str) {
    let (opts, remaining) = split_client_opts(rest);
    let [id] = remaining.as_slice() else {
        usage_error(&format!("{action} expects exactly one sweep id"));
    };
    if id.parse::<u64>().is_err() {
        usage_error(&format!("sweep id must be a number, got {id:?}"));
    }
    let path = format!("/sweeps/{id}/{action}");
    let (status, body) = request_or_die(&opts.endpoint(), method, &path, "");
    finish(status, body);
}

/// Poll `/sweeps` until sweep `id` reaches a terminal state; exit 0
/// only when it is `done`.
fn wait(rest: &[String]) {
    let (opts, remaining) = split_client_opts(rest);
    let mut id: Option<String> = None;
    let mut timeout = Duration::from_secs(3600);
    let mut iter = remaining.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--timeout-secs" => timeout = timeout_secs("--timeout-secs", iter.next()),
            other if !other.starts_with('-') && id.is_none() => id = Some(other.to_string()),
            other => usage_error(&format!("unexpected wait argument {other:?}")),
        }
    }
    let Some(id) = id else {
        usage_error("wait expects a sweep id");
    };
    if id.parse::<u64>().is_err() {
        usage_error(&format!("sweep id must be a number, got {id:?}"));
    }
    let endpoint = opts.endpoint();
    let needle = format!("\"id\":{id},");
    let deadline = Instant::now() + timeout;
    // A sweep over cached cells is done in tens of milliseconds, a cold
    // one in minutes: poll quickly at first, then back off.
    let mut pause = Duration::from_millis(10);
    loop {
        let (status, body) = request_or_die(&endpoint, "GET", "/sweeps", "");
        if status != 200 {
            finish(status, body);
        }
        // The sweep rows are flat JSON objects in a known field order;
        // a substring probe is enough for a polling loop.
        let state = body
            .split(&needle)
            .nth(1)
            .and_then(|row| row.split("\"state\":\"").nth(1))
            .and_then(|s| s.split('"').next())
            .map(str::to_string);
        match state.as_deref() {
            None => {
                eprintln!("sprout-control: no sweep {id} at {endpoint}");
                std::process::exit(1);
            }
            Some("done") => finish(200, format!("{{\"id\":{id},\"state\":\"done\"}}")),
            Some(s) if s == "failed" || s == "cancelled" => {
                finish(500, format!("{{\"id\":{id},\"state\":\"{s}\"}}"))
            }
            Some(_) => {}
        }
        if Instant::now() >= deadline {
            eprintln!("sprout-control: timed out waiting for sweep {id}");
            std::process::exit(1);
        }
        std::thread::sleep(pause);
        pause = (pause * 2).min(Duration::from_millis(200));
    }
}
