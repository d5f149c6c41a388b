//! The daemon's submit-time screen is `cli::apply_worker_args`, so a
//! run length the CLI refuses is refused here too — with a 400, before
//! anything is queued. (A `--secs` whose microsecond count wraps a `u64`
//! used to be accepted: a release daemon dealt the wrapped matrix, a
//! debug one panicked rebuilding it for `/sweeps/<id>/cells`.)

use sprout_control::{client, Daemon, DaemonConfig};

#[test]
fn wrapping_run_lengths_are_refused_at_submit_time() {
    let root = std::env::temp_dir().join(format!("sprout-control-screen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut cfg = DaemonConfig::new(root.join("state"));
    cfg.cache_dir = root.join("cache");
    cfg.out_dir = root.join("out");
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let endpoint = daemon.endpoint().to_string();
    let scheduler = std::thread::spawn(move || daemon.run().expect("daemon run"));

    let submit = |body: &str| {
        client::request(&endpoint, "POST", "/sweeps?experiment=fig9&workers=1", body)
            .expect("submit")
    };
    for flag in ["--secs", "--warmup"] {
        for secs in ["18446744073710", "18446744073709551615", "100001"] {
            let (status, resp) = submit(&format!("{flag}\n{secs}\n"));
            assert_eq!(status, 400, "{flag} {secs}: {resp}");
            assert!(resp.contains(flag) && resp.contains("..=100000"), "{resp}");
        }
    }
    let (status, sweeps) = client::request(&endpoint, "GET", "/sweeps", "").expect("GET /sweeps");
    assert_eq!((status, sweeps.as_str()), (200, "{\"sweeps\":[]}"));

    let (status, _) = client::request(&endpoint, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    scheduler.join().expect("daemon thread exits cleanly");
    let _ = std::fs::remove_dir_all(&root);
}
