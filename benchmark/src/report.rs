//! The parent side of the harness: start one child process per workload
//! and pass, collect what they measured, print every metric by name with
//! its unit, and write `benchmark/out/report.json` and `trace.jsonl`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::child::Part;
use crate::json::{self, Value};
use crate::spec::{self, MetricDef};
use crate::stats;

/// What `run` was asked to do.
pub struct RunOpts {
    pub root: PathBuf,
    pub bin_dir: PathBuf,
    /// One workload, or all of them.
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub reps: Option<usize>,
    /// `Some` restricts the run to one pass (the driver's `--trace`).
    pub trace: Option<bool>,
    pub smoke: bool,
}

/// One finished child.
struct Pass {
    doc: Value,
}

impl Pass {
    fn u64(&self, key: &str) -> u64 {
        self.doc.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64
    }

    fn str(&self, key: &str) -> &str {
        self.doc.get(key).and_then(Value::as_str).unwrap_or("")
    }

    /// The host's speed around every set-up and repetition (1 = the
    /// nominal host; see `yardstick.rs`).
    fn host_speed(&self) -> Vec<f64> {
        self.doc
            .get("host_speed")
            .map(Value::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(Value::as_f64)
            .collect()
    }

    fn samples(&self, metric: &str) -> Vec<f64> {
        self.doc
            .get("samples")
            .and_then(|s| s.get(metric))
            .map(Value::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(Value::as_f64)
            .collect()
    }

    fn layer(&self, metric: &str) -> f64 {
        self.doc
            .get("layer")
            .and_then(|l| l.get(metric))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    }

    fn notes(&self) -> Vec<&str> {
        self.doc
            .get("notes")
            .map(Value::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(Value::as_str)
            .collect()
    }

    /// The two children of an untraced pass as one: counts added up,
    /// samples and readings one after the other. Each metric was measured
    /// by one of them, except `setup_s`, by both.
    fn joined(self, other: Pass) -> Pass {
        let attempted = self.u64("attempted") + other.u64("attempted");
        let mut failed = self.u64("failed") + other.u64("failed");
        let mut notes: Vec<Value> = self.notes().into_iter().map(Value::from).collect();
        notes.extend(other.notes().into_iter().map(Value::from));
        if self.str("sim_fingerprint") != other.str("sim_fingerprint") {
            notes.push(Value::from(format!(
                "the two thread counts simulated different bytes ({} vs {})",
                self.str("sim_fingerprint"),
                other.str("sim_fingerprint")
            )));
            failed = attempted;
        }
        let numbers = |a: Vec<f64>, b: Vec<f64>| {
            Value::Arr(a.into_iter().chain(b).map(Value::from).collect())
        };
        let fields = self.doc.as_object().iter().map(|(key, value)| {
            let value = match key.as_str() {
                "attempted" => Value::from(attempted),
                "failed" => Value::from(failed),
                "reps_1t" | "reps_2t" => Value::from(self.u64(key) + other.u64(key)),
                "host_speed" => numbers(self.host_speed(), other.host_speed()),
                "samples" => Value::object(spec::END_TO_END.iter().map(|def| {
                    (
                        def.name,
                        numbers(self.samples(def.name), other.samples(def.name)),
                    )
                })),
                "notes" => Value::Arr(notes.clone()),
                _ => value.clone(),
            };
            (key.clone(), value)
        });
        Pass {
            doc: Value::object(fields),
        }
    }
}

fn out_dir(root: &Path) -> PathBuf {
    root.join("benchmark").join("out")
}

/// The untraced pass: one child per thread count (see [`Part`]).
fn run_untraced(opts: &RunOpts, workload: &str) -> Result<Pass, String> {
    let primary = run_child(opts, workload, Part::Primary)?;
    if primary.doc.get("has_secondary") != Some(&Value::Bool(true)) {
        return Ok(primary);
    }
    Ok(primary.joined(run_child(opts, workload, Part::Secondary)?))
}

/// Run one child to the end and parse what it wrote.
fn run_child(opts: &RunOpts, workload: &str, part: Part) -> Result<Pass, String> {
    let tmp = out_dir(&opts.root).join("tmp");
    let (tag, traced) = match part {
        Part::Primary => ("primary", false),
        Part::Secondary => ("secondary", false),
        Part::Whole => ("traced", true),
    };
    let dir = tmp.join(format!("{workload}-{tag}"));
    let result = tmp.join(format!("{workload}-{tag}.json"));
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.arg("child")
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--root")
        .arg(&opts.root)
        .arg("--bin-dir")
        .arg(&opts.bin_dir)
        .arg("--dir")
        .arg(&dir)
        .arg("--result")
        .arg(&result)
        // The workload's cache directory is set programmatically; an
        // inherited variable must not leak the user's cache in.
        .env_remove("SPROUT_CACHE_DIR")
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    if part != Part::Whole {
        cmd.args(["--part", tag]);
    }
    if part == Part::Primary {
        // One malloc arena, so that peak memory repeats.
        cmd.env("MALLOC_ARENA_MAX", "1");
    }
    if let Some(reps) = opts.reps {
        cmd.args(["--reps", &reps.to_string()]);
    }
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn child: {e}"))?;
    // Noted so `run.sh` can kill it should this process die first.
    let _ = std::fs::write(tmp.join("pids").join(child.id().to_string()), "");
    let status = child.wait().map_err(|e| format!("wait for child: {e}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    if !status.success() {
        return Err(format!("child for {workload} exited with {status}"));
    }
    let text = std::fs::read_to_string(&result).map_err(|e| format!("{result:?}: {e}"))?;
    Ok(Pass {
        doc: json::parse(&text)?,
    })
}

fn metric_line(def: &MetricDef, value: f64, extra: &str) {
    println!("  {:34} {:>16.6} {:<10} {extra}", def.name, value, def.unit);
}

/// The contract's result line for one pass.
fn result_line(pass: &Pass, defs: &[MetricDef], value: impl Fn(&MetricDef) -> f64) -> String {
    let failed = pass.u64("failed");
    Value::object([
        ("correct", Value::from(failed == 0)),
        ("attempted", Value::from(pass.u64("attempted").max(1))),
        ("failed", Value::from(failed)),
        (
            "metrics",
            Value::object(defs.iter().map(|def| {
                (
                    def.name,
                    Value::object([
                        ("value", Value::from(value(def))),
                        ("unit", Value::from(def.unit)),
                    ]),
                )
            })),
        ),
    ])
    .render()
}

fn print_pass(workload: &str, pass: &Pass, traced: bool) {
    println!(
        "{workload} [{}]: {} {} attempted, {} failed, sim_fingerprint {}, reps {}@1t {}@2t, host speed {:.3}",
        if traced { "traced" } else { "untraced" },
        pass.u64("attempted"),
        pass.str("operation"),
        pass.u64("failed"),
        pass.str("sim_fingerprint"),
        pass.u64("reps_1t"),
        pass.u64("reps_2t"),
        stats::median(&pass.host_speed()),
    );
    for note in pass.notes() {
        println!("  ! {note}");
    }
    if traced {
        for def in &spec::PER_LAYER {
            metric_line(def, pass.layer(def.name), "");
        }
    } else {
        for def in &spec::END_TO_END {
            let s = stats::summarize(&pass.samples(def.name));
            metric_line(
                def,
                s.median,
                &format!(
                    "(n={} min={:.6} max={:.6} mad={:.6})",
                    s.n, s.min, s.max, s.mad
                ),
            );
        }
    }
}

fn command_output(program: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(cwd)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `report.json`'s entry for one workload.
fn workload_entry(name: &str, untraced: Option<&Pass>, traced: Option<&Pass>) -> Value {
    let mut fields: Vec<(String, Value)> = vec![("name".into(), Value::from(name))];
    if let Some(pass) = untraced {
        let failed = pass.u64("failed");
        let attempted = pass.u64("attempted");
        fields.extend([
            ("operation".into(), Value::from(pass.str("operation"))),
            ("attempted".into(), Value::from(attempted)),
            ("failed".into(), Value::from(failed)),
            (
                "sim_fingerprint".into(),
                Value::from(pass.str("sim_fingerprint")),
            ),
            ("reps_1t".into(), Value::from(pass.u64("reps_1t"))),
            ("reps_2t".into(), Value::from(pass.u64("reps_2t"))),
            (
                "host_speed".into(),
                Value::Arr(pass.host_speed().into_iter().map(Value::from).collect()),
            ),
            (
                "end_to_end".into(),
                Value::object(spec::END_TO_END.iter().map(|def| {
                    let samples = pass.samples(def.name);
                    let s = stats::summarize(&samples);
                    (
                        def.name,
                        Value::object([
                            ("unit", Value::from(def.unit)),
                            ("better", Value::from(def.better.as_str())),
                            ("n", Value::from(s.n as u64)),
                            ("min", Value::from(s.min)),
                            ("median", Value::from(s.median)),
                            ("max", Value::from(s.max)),
                            ("mad", Value::from(s.mad)),
                            (
                                "samples",
                                Value::Arr(samples.into_iter().map(Value::from).collect()),
                            ),
                        ]),
                    )
                })),
            ),
        ]);
    }
    if let Some(pass) = traced {
        fields.extend([
            (
                "traced_sim_fingerprint".into(),
                Value::from(pass.str("sim_fingerprint")),
            ),
            ("traced_failed".into(), Value::from(pass.u64("failed"))),
            (
                "per_layer".into(),
                Value::object(spec::PER_LAYER.iter().map(|def| {
                    (
                        def.name,
                        Value::object([
                            ("value", Value::from(pass.layer(def.name))),
                            ("unit", Value::from(def.unit)),
                        ]),
                    )
                })),
            ),
        ]);
    }
    let notes: Vec<Value> = untraced
        .iter()
        .chain(traced.iter())
        .flat_map(|p| p.notes())
        .map(Value::from)
        .collect();
    fields.push(("notes".into(), Value::Arr(notes)));
    Value::Obj(fields)
}

/// Run the requested workloads and passes. Returns the process exit
/// code: 0 when every pass ran and every output check held.
pub fn run(opts: &RunOpts) -> i32 {
    let names: Vec<&str> = match &opts.workload {
        Some(name) => match spec::WORKLOADS.iter().find(|w| *w == name) {
            Some(name) => vec![name],
            None => {
                eprintln!(
                    "unknown workload {name:?}; the workloads are {}",
                    spec::WORKLOADS.join(", ")
                );
                return 2;
            }
        },
        None => spec::WORKLOADS.to_vec(),
    };
    let out = out_dir(&opts.root);
    let tmp = out.join("tmp");
    let _ = std::fs::remove_dir_all(&tmp);
    if let Err(e) = std::fs::create_dir_all(tmp.join("pids")) {
        eprintln!("cannot create {tmp:?}: {e}");
        return 1;
    }

    let passes: &[bool] = match opts.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut entries = Vec::new();
    let mut spans = String::new();
    let mut all_correct = true;
    let mut last_line = None;
    for name in names {
        let (mut untraced, mut traced) = (None, None);
        for &is_traced in passes {
            let pass = if is_traced {
                run_child(opts, name, Part::Whole)
            } else {
                run_untraced(opts, name)
            };
            let pass = match pass {
                Ok(pass) => pass,
                Err(e) => {
                    eprintln!("{e}");
                    return 1;
                }
            };
            print_pass(name, &pass, is_traced);
            all_correct &= pass.u64("failed") == 0;
            spans.push_str(pass.str("spans"));
            last_line = Some(if is_traced {
                result_line(&pass, &spec::PER_LAYER, |def| pass.layer(def.name))
            } else {
                result_line(&pass, &spec::END_TO_END, |def| {
                    stats::median(&pass.samples(def.name))
                })
            });
            if is_traced {
                traced = Some(pass);
            } else {
                untraced = Some(pass);
            }
        }
        if let (Some(u), Some(t)) = (&untraced, &traced) {
            if u.str("sim_fingerprint") != t.str("sim_fingerprint") {
                println!("  ! {name}: the traced and untraced passes simulated different bytes");
                all_correct = false;
            }
        }
        entries.push(workload_entry(name, untraced.as_ref(), traced.as_ref()));
    }
    let _ = std::fs::remove_dir_all(&tmp);

    let report = Value::object([
        (
            "commit",
            Value::from(command_output("git", &["rev-parse", "HEAD"], &opts.root)),
        ),
        (
            "rustc",
            Value::from(command_output("rustc", &["-V"], &opts.root)),
        ),
        (
            "nproc",
            Value::from(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("seed", Value::from(opts.seed)),
        ("seconds", Value::from(opts.seconds)),
        (
            "reps",
            opts.reps.map_or(Value::Null, |k| Value::from(k as u64)),
        ),
        ("smoke", Value::from(opts.smoke)),
        ("correct", Value::from(all_correct)),
        ("workloads", Value::Arr(entries)),
    ]);
    let written = std::fs::write(out.join("report.json"), report.render() + "\n")
        .and_then(|()| std::fs::write(out.join("trace.jsonl"), &spans));
    if let Err(e) = written {
        eprintln!("cannot write the report under {out:?}: {e}");
        return 1;
    }
    // A single pass of a single workload is the driver's form: its
    // result object is the last line of standard output.
    match (&opts.workload, opts.trace, last_line) {
        (Some(_), Some(_), Some(line)) => println!("{line}"),
        _ => println!(
            "{}: report in {}",
            if all_correct {
                "all output checks held"
            } else {
                "OUTPUT CHECKS FAILED"
            },
            out.join("report.json").display()
        ),
    }
    i32::from(!all_correct && opts.trace.is_none())
}
