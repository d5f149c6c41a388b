//! Argument validation of the `reproduce` binary: every rejected
//! combination must exit 2 via the usage path before any simulation
//! starts, so these tests are instant. The one test that runs cells,
//! a failed shard's summary line, takes about two seconds.

use std::process::Command;

fn reproduce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce")
}

fn exit_code(args: &[&str]) -> i32 {
    reproduce(args).status.code().expect("no signal")
}

#[test]
fn help_exits_zero() {
    assert_eq!(exit_code(&["--help"]), 0);
}

#[test]
fn empty_measurement_window_is_rejected() {
    // Straight contradiction.
    assert_eq!(exit_code(&["fig9", "--warmup", "100", "--secs", "50"]), 2);
    // Equality leaves nothing to measure either.
    assert_eq!(exit_code(&["fig9", "--warmup", "90", "--secs", "90"]), 2);
    let out = reproduce(&["fig9", "--warmup", "100", "--secs", "50"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("measurement window"),
        "stderr should explain the rejection: {stderr}"
    );
}

#[test]
fn run_lengths_that_would_wrap_are_rejected() {
    // 18446744073710 s × 10⁶ wraps a u64 of microseconds to 0.45 s; this
    // used to print "runs 18446744073710s", simulate the 0.45 s and exit 0.
    for flag in ["--secs", "--warmup"] {
        for secs in ["18446744073710", "18446744073709551615", "100001"] {
            let out = reproduce(&["fig9", flag, secs, "--no-cache"]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{flag} {secs}: {stderr}");
            assert!(
                stderr.contains("usage: reproduce") && stderr.contains("..=100000"),
                "{flag} {secs}: {stderr}"
            );
        }
    }
}

#[test]
fn quick_does_not_clobber_explicit_timing() {
    // --quick defaults secs to 90; an explicit warmup of 100 (in either
    // flag order) now contradicts it instead of being silently reset.
    assert_eq!(exit_code(&["fig9", "--quick", "--warmup", "100"]), 2);
    assert_eq!(exit_code(&["fig9", "--warmup", "100", "--quick"]), 2);
    // An explicit --secs above the explicit warmup resolves it. Keep the
    // run's side effects (out dir, cell cache) in a temp directory.
    let tmp = std::env::temp_dir().join(format!("reproduce-cli-test-{}", std::process::id()));
    let out = reproduce(&[
        "fig9",
        "--warmup",
        "100",
        "--secs",
        "120",
        "--quick",
        "--shard",
        "999999/1000000",
        "--out",
        &tmp.join("out").to_string_lossy(),
        "--cache-dir",
        &tmp.join("cache").to_string_lossy(),
    ]);
    // Shard 999999/1000000 owns none of fig9's five cells, so this
    // parses, runs nothing, and exits 0 — proving validation passed.
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn a_replay_longer_than_its_capture_is_rejected() {
    // The committed excerpts are under 40 s long.
    for args in [
        &["replay", "--secs", "41"][..],
        &["replay", "--secs", "100"],
    ] {
        let out = reproduce(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("ends at 39.800s"), "{args:?}: {stderr}");
    }
    // `--quick` caps replay's own 30 s at 90 s, so it stays inside them.
    // Shard 999999/1000000 owns none of its cells: it parses, runs
    // nothing, and exits 0.
    let tmp = std::env::temp_dir().join(format!("reproduce-replay-quick-{}", std::process::id()));
    let out = reproduce(&[
        "replay",
        "--quick",
        "--shard",
        "999999/1000000",
        "--out",
        &tmp.join("out").to_string_lossy(),
        "--cache-dir",
        &tmp.join("cache").to_string_lossy(),
    ]);
    let _ = std::fs::remove_dir_all(&tmp);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn shard_specs_are_validated() {
    for bad in ["2/2", "0/0", "x/2", "2", "1/2/3", ""] {
        assert_eq!(exit_code(&["fig9", "--shard", bad]), 2, "--shard {bad:?}");
    }
    assert_eq!(exit_code(&["fig9", "--shard"]), 2);
}

#[test]
fn incompatible_flag_combinations_are_rejected() {
    for combo in [
        vec!["fig9", "--merge", "--resume"],
        vec!["fig9", "--merge", "--shard", "0/2"],
        vec!["fig9", "--shard", "0/2", "--no-cache"],
        vec!["fig9", "--merge", "--no-cache"],
        vec!["fig9", "--resume", "--no-cache"],
        vec!["fig9", "--shard", "0/2", "--json"],
    ] {
        assert_eq!(exit_code(&combo), 2, "{combo:?} must be a usage error");
    }
}

#[test]
fn unknown_experiments_and_flags_are_rejected() {
    assert_eq!(exit_code(&["fig99"]), 2);
    assert_eq!(exit_code(&["fig9", "--frobnicate"]), 2);
    assert_eq!(exit_code(&["fig9", "--secs", "abc"]), 2);
    // A thread count past the bound. The run length behind it is refused
    // too, which keeps this a parse-only check even if the bound were lost.
    let past = ["fig9", "--threads", "100000", "--secs", "0"];
    let out = reproduce(&past);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--threads expects a number in 0..=256"),
        "{stderr}"
    );
    // The retired perf-trajectory mode is a plain unknown flag now.
    for retired in [vec!["--bench"], vec!["--bench-baseline", "x"]] {
        let out = reproduce(&retired);
        assert_eq!(out.status.code(), Some(2), "{retired:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{stderr}");
        assert!(stderr.contains("usage: reproduce"), "{stderr}");
    }
}

#[test]
fn soak_axis_flag_values_are_validated() {
    // --prop-delays: one-way ms, each in 1..=10000, no duplicates
    // (duplicated axis values would cross into identical-label cells).
    for bad in ["0", "abc", "", "10,,20", "10,0", "20000", "-5", "20,20"] {
        assert_eq!(
            exit_code(&["soak", "--prop-delays", bad]),
            2,
            "--prop-delays {bad:?}"
        );
    }
    assert_eq!(exit_code(&["soak", "--prop-delays"]), 2);

    // --queues: auto | droptail | codel | bytes:N.
    for bad in [
        "bogus",
        "bytes:0",
        "bytes:x",
        "bytes:",
        "",
        "auto,,codel",
        "auto,auto",
        "bytes:75000,bytes:75000",
    ] {
        assert_eq!(exit_code(&["soak", "--queues", bad]), 2, "--queues {bad:?}");
    }
    assert_eq!(exit_code(&["soak", "--queues"]), 2);

    // --links: known link ids only.
    for bad in ["nope", "", "vz-lte-down,nope", "vz-lte-down,vz-lte-down"] {
        assert_eq!(exit_code(&["soak", "--links", bad]), 2, "--links {bad:?}");
    }
    assert_eq!(exit_code(&["soak", "--links"]), 2);
}

#[test]
fn soak_axis_flags_require_the_soak_experiment() {
    for combo in [
        vec!["fig7", "--prop-delays", "20"],
        vec!["fig9", "--queues", "auto"],
        vec!["loss", "--links", "vz-lte-down"],
        vec!["--prop-delays", "20"], // defaults to `all`, which has no axes
        // --links is shared between soak and contention, but nothing else.
        vec!["contention", "--prop-delays", "20"],
        vec!["contention", "--queues", "auto"],
    ] {
        assert_eq!(exit_code(&combo), 2, "{combo:?} must be a usage error");
    }
}

#[test]
fn contention_flag_values_are_validated() {
    // --flows: 2..=16 contending flows.
    for bad in ["0", "1", "17", "abc", "-3", ""] {
        assert_eq!(
            exit_code(&["contention", "--flows", bad]),
            2,
            "--flows {bad:?}"
        );
    }
    assert_eq!(exit_code(&["contention", "--flows"]), 2);

    // --contend: 2..=16 known flow specs; omniscient cannot contend; app
    // flows must name a tunneling carrier.
    for bad in [
        "cubic",                    // one flow is no contention
        "",
        "cubic,",
        "cubic,,sprout",
        "cubic,frobnicate",         // unknown scheme
        "omniscient,cubic",         // omniscient presumes sole ownership
        "skype-over-cubic,cubic",   // apps only tunnel over Sprout
        "skype-over-nothing,cubic",
        "nothing-over-sprout,cubic",
        "cubic,cubic,cubic,cubic,cubic,cubic,cubic,cubic,cubic,cubic,cubic,cubic,cubic,cubic,cubic,cubic,cubic", // 17 flows
    ] {
        assert_eq!(
            exit_code(&["contention", "--contend", bad]),
            2,
            "--contend {bad:?}"
        );
    }
    assert_eq!(exit_code(&["contention", "--contend"]), 2);
}

#[test]
fn contention_flags_require_the_contention_experiment() {
    for combo in [
        vec!["fig7", "--flows", "3"],
        vec!["soak", "--flows", "3"],
        vec!["fig9", "--contend", "sprout,cubic"],
        vec!["--contend", "sprout,cubic"], // defaults to `all`
        // --flows sizes the default set, --contend replaces it: pick one.
        vec!["contention", "--flows", "3", "--contend", "sprout,cubic"],
    ] {
        assert_eq!(exit_code(&combo), 2, "{combo:?} must be a usage error");
    }
}

#[test]
fn contention_accepts_valid_flags() {
    // Parse-and-validate proof via the owns-no-cells shard trick: each
    // flag set must get past validation, build the matrix, run nothing,
    // and exit 0.
    let tmp = std::env::temp_dir().join(format!("reproduce-contention-cli-{}", std::process::id()));
    for (tag, extra) in [
        ("flows", vec!["--flows", "4"]),
        (
            "contend",
            vec!["--contend", "sprout,cubic,skype-over-sprout,google-hangout"],
        ),
        ("links", vec!["--links", "vz-lte-down", "--flows", "2"]),
    ] {
        let mut args = vec!["contention", "--quick", "--shard", "999999/1000000"];
        args.extend(extra.iter().copied());
        let out_dir = tmp.join(tag).join("out");
        let cache_dir = tmp.join(tag).join("cache");
        let (out_s, cache_s) = (
            out_dir.to_string_lossy().into_owned(),
            cache_dir.to_string_lossy().into_owned(),
        );
        args.extend(["--out", &out_s, "--cache-dir", &cache_s]);
        let out = reproduce(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn soak_accepts_valid_axis_flags() {
    // Parse-and-validate proof via the owns-no-cells shard trick: the
    // full flag set must get past validation, build the (reduced)
    // matrix, run nothing, and exit 0.
    let tmp = std::env::temp_dir().join(format!("reproduce-soak-cli-{}", std::process::id()));
    let out = reproduce(&[
        "soak",
        "--quick",
        "--links",
        "vz-lte-down,tmo-3g-up",
        "--prop-delays",
        "10,25,50,100",
        "--queues",
        "auto,droptail,codel,bytes:75000",
        "--shard",
        "999999/1000000",
        "--out",
        &tmp.join("out").to_string_lossy(),
        "--cache-dir",
        &tmp.join("cache").to_string_lossy(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let _ = std::fs::remove_dir_all(&tmp);
}

/// The first stdout line of `reproduce <args>` — the banner, printed
/// before any cell runs; the process is killed once it has said it.
fn banner(tag: &str, args: &[&str]) -> String {
    use std::io::{BufRead, BufReader};
    let tmp = std::env::temp_dir().join(format!("reproduce-banner-{}-{tag}", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .arg("--no-cache")
        .arg("--out")
        .arg(&tmp)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn reproduce");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped"))
        .read_line(&mut line)
        .expect("read the banner");
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&tmp);
    line
}

#[test]
fn the_banner_prints_the_warmup_the_matrix_uses() {
    // `replay` and `serve` derive warm-up = secs / 6; the banner used to
    // print the global knob: "runs 30s, warmup 60s".
    let replay = banner("replay", &["replay"]);
    assert!(replay.contains("(runs 30s, warmup 5s,"), "{replay}");
    let serve = banner("serve", &["serve", "--secs", "48"]);
    assert!(serve.contains("(runs 48s, warmup 8s,"), "{serve}");
    // And still the global knob for everything else.
    let fig9 = banner("fig9", &["fig9"]);
    assert!(fig9.contains("(runs 300s, warmup 60s,"), "{fig9}");
    let fig9 = banner("fig9-set", &["fig9", "--secs", "50", "--warmup", "7"]);
    assert!(fig9.contains("(runs 50s, warmup 7s,"), "{fig9}");
    // fig2's probe runs ten times --secs with no warm-up; the banner
    // reads it off the declared cells, and a row whose matrices run at
    // more than one timing names each.
    let fig2 = banner("fig2", &["fig2"]);
    assert!(fig2.contains("(runs 3000s, warmup 0s,"), "{fig2}");
    let scorecard = banner("scorecard", &["scorecard", "--quick"]);
    assert!(
        scorecard.contains("(runs 900s, warmup 0s; runs 90s, warmup 20s,"),
        "{scorecard}"
    );
    // A --warmup the probe cannot run is refused where nothing else
    // takes it, and runs where other matrices do.
    let out = reproduce(&["fig2", "--warmup", "5", "--quick"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("ten times --secs, at least 600s, with no warm-up: --warmup 5"),
        "{stderr}"
    );
    let fig2 = banner("fig2-w0", &["fig2", "--warmup", "0"]);
    assert!(fig2.contains("(runs 3000s, warmup 0s,"), "{fig2}");
    let scorecard = banner("scorecard-w5", &["scorecard", "--quick", "--warmup", "5"]);
    assert!(
        scorecard.contains("(runs 900s, warmup 0s; runs 90s, warmup 5s,"),
        "{scorecard}"
    );
    let all = banner("all-w5", &["all", "--quick", "--warmup", "5"]);
    assert!(
        all.contains("(runs 90s, warmup 5s; runs 900s, warmup 0s,"),
        "{all}"
    );
}

#[test]
fn a_failed_shard_counts_its_failures_on_the_summary_line() {
    // Shard 0/2 owns three of fig9's five cells; a 1 s watchdog kills
    // each of them long before 100000 virtual seconds are simulated. The
    // summary line still prints, with the failures of the sweep that
    // ended the run, and the process exits non-zero.
    let tmp = std::env::temp_dir().join(format!("reproduce-shard-fail-{}", std::process::id()));
    let out = reproduce(&[
        "fig9",
        "--shard",
        "0/2",
        "--secs",
        "100000",
        "--warmup",
        "0",
        "--cell-timeout",
        "1",
        "--out",
        &tmp.join("out").to_string_lossy(),
        "--cache-dir",
        &tmp.join("cache").to_string_lossy(),
    ]);
    let _ = std::fs::remove_dir_all(&tmp);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        stdout.contains("cell cache [fig9]: ")
            && stdout.contains(" | cells: 0 failed, 3 timed out | "),
        "{stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("3 cell(s) of \"fig9\" failed"), "{stderr}");
}
