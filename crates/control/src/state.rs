//! The persistent sweep queue.
//!
//! One sweep per line in `<state-dir>/queue.tsv`, tab-separated, with
//! the worker argument vector joined by an ASCII unit separator (no
//! argument may contain a tab, newline, or unit separator — submission
//! rejects those, so the encoding never needs escaping). The file is
//! rewritten whole through a temp-file rename, so a crash mid-persist
//! leaves the previous generation intact.
//!
//! Crash recovery is a *demotion*: a sweep recorded as `running` or
//! `merging` reloads as `pending`. That is correct, not optimistic,
//! because shard workers deposit every finished cell in the shared cell
//! cache — when the daemon restarts and re-deals the sweep, its workers
//! `--resume` straight past the cached cells and only the orphaned
//! remainder re-executes.

use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Joins the argument vector on disk; rejected inside arguments.
const ARG_SEP: char = '\x1f';

/// Most shard workers one sweep may be dealt across.
pub const MAX_WORKERS: usize = 64;

/// Lifecycle of one submitted sweep.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SweepState {
    /// Queued, not yet dealt to workers.
    Pending,
    /// Shard workers are executing cells.
    Running,
    /// All shards done; the merge run is rendering artifacts.
    Merging,
    /// Merge finished; artifacts are on disk.
    Done,
    /// A shard or the merge exhausted its retries (see the error field).
    Failed,
    /// Cancelled by request; workers killed, artifacts removed.
    Cancelled,
}

impl SweepState {
    /// Stable on-disk / over-the-wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            SweepState::Pending => "pending",
            SweepState::Running => "running",
            SweepState::Merging => "merging",
            SweepState::Done => "done",
            SweepState::Failed => "failed",
            SweepState::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`SweepState::as_str`].
    pub fn parse(s: &str) -> Option<SweepState> {
        Some(match s {
            "pending" => SweepState::Pending,
            "running" => SweepState::Running,
            "merging" => SweepState::Merging,
            "done" => SweepState::Done,
            "failed" => SweepState::Failed,
            "cancelled" => SweepState::Cancelled,
            _ => return None,
        })
    }

    /// True once the sweep can never change state again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            SweepState::Done | SweepState::Failed | SweepState::Cancelled
        )
    }
}

/// One submitted sweep: an experiment name, the worker-safe argument
/// vector forwarded verbatim to every worker and the merge, and how
/// many shard workers to deal it across.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Queue-assigned id, unique within a state directory's lifetime.
    pub id: u64,
    /// Experiment name: one [`sprout_bench::figures::select`] resolves.
    pub experiment: String,
    /// Shard worker count (`--shard i/workers` per worker).
    pub workers: usize,
    /// Worker-safe flags, validated at submit time.
    pub args: Vec<String>,
    /// Current lifecycle state.
    pub state: SweepState,
    /// Total worker restarts (death, wedge, or merge retry) so far.
    pub retries: u64,
    /// Human-readable failure reason; empty unless `Failed`.
    pub error: String,
}

/// The durable queue: an in-memory sweep list mirrored to `queue.tsv`.
pub struct Queue {
    path: PathBuf,
    sweeps: Vec<SweepSpec>,
    next_id: u64,
}

/// True when `arg` can be stored losslessly in the line format.
pub fn storable_arg(arg: &str) -> bool {
    !arg.is_empty() && !arg.contains(['\t', '\n', '\r', ARG_SEP])
}

impl Queue {
    /// Load the queue from `state_dir` (creating the directory if
    /// needed), demoting mid-flight sweeps to `pending`. Only a missing
    /// `queue.tsv` means an empty queue: a file that cannot be read, or
    /// holds a line that is not a sweep this daemon could have written
    /// (truncated, a duplicate or unrepresentable id, a worker count
    /// `submit` would refuse, an unknown experiment), is refused with an
    /// error naming the file and the line — the next `persist` would
    /// otherwise overwrite it with a silently shorter queue.
    pub fn open(state_dir: &Path) -> io::Result<Queue> {
        std::fs::create_dir_all(state_dir)?;
        let path = state_dir.join("queue.tsv");
        let contents = match std::fs::read_to_string(&path) {
            Ok(contents) => contents,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(io::Error::new(e.kind(), format!("{path:?}: {e}"))),
        };
        let mut sweeps: Vec<SweepSpec> = Vec::new();
        let mut next_id = 1;
        for (i, line) in contents.split_inclusive('\n').enumerate() {
            let refuse =
                |why: &str| io::Error::other(format!("{path:?} line {}: {why}: {line:?}", i + 1));
            // `persist` ends every line; one without its end was cut short.
            let line = line
                .strip_suffix('\n')
                .ok_or_else(|| refuse("truncated line"))?;
            let mut spec = Self::decode(line.trim_end_matches('\r')).map_err(refuse)?;
            if sweeps.iter().any(|s| s.id == spec.id) {
                return Err(refuse("duplicate sweep id"));
            }
            let after = spec.id.checked_add(1);
            next_id = next_id.max(after.ok_or_else(|| refuse("sweep id leaves no next id"))?);
            if matches!(spec.state, SweepState::Running | SweepState::Merging) {
                spec.state = SweepState::Pending;
            }
            sweeps.push(spec);
        }
        Ok(Queue {
            path,
            sweeps,
            next_id,
        })
    }

    /// Append a new pending sweep and persist. The caller has already
    /// validated `experiment` and `args`; this only enforces that every
    /// argument survives the line format.
    pub fn submit(
        &mut self,
        experiment: &str,
        workers: usize,
        args: Vec<String>,
    ) -> io::Result<u64> {
        if let Some(bad) = args.iter().find(|a| !storable_arg(a)) {
            return Err(io::Error::other(format!(
                "argument {bad:?} cannot be stored (empty or contains a control character)"
            )));
        }
        let id = self.next_id;
        self.next_id = id
            .checked_add(1)
            .ok_or_else(|| io::Error::other("sweep ids are exhausted"))?;
        self.sweeps.push(SweepSpec {
            id,
            experiment: experiment.to_string(),
            workers,
            args,
            state: SweepState::Pending,
            retries: 0,
            error: String::new(),
        });
        self.persist()?;
        Ok(id)
    }

    /// All sweeps, submission order.
    pub fn sweeps(&self) -> &[SweepSpec] {
        &self.sweeps
    }

    /// Look up one sweep.
    pub fn get(&self, id: u64) -> Option<&SweepSpec> {
        self.sweeps.iter().find(|s| s.id == id)
    }

    /// Mutable lookup (caller persists after mutating).
    pub fn get_mut(&mut self, id: u64) -> Option<&mut SweepSpec> {
        self.sweeps.iter_mut().find(|s| s.id == id)
    }

    /// The oldest pending sweep, if any.
    pub fn first_pending(&self) -> Option<u64> {
        self.sweeps
            .iter()
            .find(|s| s.state == SweepState::Pending)
            .map(|s| s.id)
    }

    /// Rewrite `queue.tsv` atomically (temp file + rename).
    pub fn persist(&self) -> io::Result<()> {
        let tmp = self.path.with_extension("tsv.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            for spec in &self.sweeps {
                writeln!(f, "{}", Self::encode(spec))?;
            }
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)
    }

    fn encode(spec: &SweepSpec) -> String {
        // The error field is free text: squash anything that would
        // break the line format rather than escaping it.
        let error: String = spec
            .error
            .chars()
            .map(|c| {
                if c == '\t' || c == '\n' || c == '\r' {
                    ' '
                } else {
                    c
                }
            })
            .collect();
        let mut args = String::new();
        for (i, arg) in spec.args.iter().enumerate() {
            if i > 0 {
                args.push(ARG_SEP);
            }
            args.push_str(arg);
        }
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            spec.id,
            spec.experiment,
            spec.workers,
            spec.state.as_str(),
            spec.retries,
            error,
            args
        )
    }

    /// One `queue.tsv` line back into a sweep, or why it is not one.
    fn decode(line: &str) -> Result<SweepSpec, &'static str> {
        let mut parts = line.splitn(7, '\t');
        let mut field = || parts.next().ok_or("fewer than 7 fields");
        let id = field()?.parse().map_err(|_| "bad sweep id")?;
        let experiment = field()?.to_string();
        if sprout_bench::figures::select(&experiment).is_none() {
            return Err("unknown experiment");
        }
        let workers = field()?.parse().map_err(|_| "bad worker count")?;
        if !(1..=MAX_WORKERS).contains(&workers) {
            return Err("worker count outside what submit accepts");
        }
        let state = SweepState::parse(field()?).ok_or("unknown sweep state")?;
        let retries = field()?.parse().map_err(|_| "bad retry count")?;
        let error = field()?.to_string();
        let args_field = field()?;
        let args = if args_field.is_empty() {
            Vec::new()
        } else {
            args_field.split(ARG_SEP).map(str::to_string).collect()
        };
        Ok(SweepSpec {
            id,
            experiment,
            workers,
            args,
            state,
            retries,
            error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_state_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "sprout-control-state-test-{}-{}-{tag}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn queue_round_trips_and_demotes_midflight_sweeps() {
        let dir = temp_state_dir("roundtrip");
        let mut q = Queue::open(&dir).unwrap();
        let a = q
            .submit("soak", 2, vec!["--secs".into(), "40".into()])
            .unwrap();
        let b = q.submit("fig1", 1, vec![]).unwrap();
        assert_eq!((a, b), (1, 2));
        q.get_mut(a).unwrap().state = SweepState::Running;
        q.get_mut(a).unwrap().retries = 3;
        q.get_mut(b).unwrap().state = SweepState::Done;
        q.persist().unwrap();

        let reloaded = Queue::open(&dir).unwrap();
        // Mid-flight work demotes to pending; terminal states survive.
        let ra = reloaded.get(a).unwrap();
        assert_eq!(ra.state, SweepState::Pending);
        assert_eq!(ra.retries, 3);
        assert_eq!(ra.args, vec!["--secs".to_string(), "40".to_string()]);
        assert_eq!(reloaded.get(b).unwrap().state, SweepState::Done);
        // Ids never recycle across a restart.
        let mut reloaded = reloaded;
        assert_eq!(reloaded.submit("fig2", 1, vec![]).unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unstorable_arguments_are_rejected() {
        let dir = temp_state_dir("badargs");
        let mut q = Queue::open(&dir).unwrap();
        assert!(q.submit("soak", 1, vec!["a\tb".into()]).is_err());
        assert!(q.submit("soak", 1, vec![String::new()]).is_err());
        assert!(q.sweeps().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Open a state directory whose `queue.tsv` holds exactly `bytes`.
    fn open_with(tag: &str, bytes: &[u8]) -> io::Result<Queue> {
        let dir = temp_state_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("queue.tsv"), bytes).unwrap();
        let opened = Queue::open(&dir);
        // A refusal must leave the file for its owner to repair.
        assert_eq!(std::fs::read(dir.join("queue.tsv")).unwrap(), bytes);
        let _ = std::fs::remove_dir_all(&dir);
        opened
    }

    /// The refusal `bytes` earns, which must name the file and `line`.
    fn refusal(tag: &str, bytes: &[u8], line: usize) -> String {
        let err = match open_with(tag, bytes) {
            Ok(q) => panic!("{tag}: opened with {} sweeps", q.sweeps().len()),
            Err(e) => e.to_string(),
        };
        assert!(err.contains("queue.tsv"), "{tag}: {err}");
        assert!(err.contains(&format!("line {line}:")), "{tag}: {err}");
        err
    }

    const TWO_SWEEPS: &str =
        "1\tsoak\t2\tpending\t0\t\t--secs\x1f40\n2\tfig1\t1\tdone\t3\tboom\t\n";

    #[test]
    fn a_missing_queue_file_is_an_empty_queue_and_nothing_else_is() {
        let dir = temp_state_dir("unreadable");
        assert!(Queue::open(&dir).unwrap().sweeps().is_empty());
        // Unreadable (here: a directory where the file should be).
        std::fs::create_dir_all(dir.join("queue.tsv")).unwrap();
        let err = Queue::open(&dir).err().expect("refused").to_string();
        assert!(err.contains("queue.tsv"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_non_utf8_queue_file_is_refused_by_name() {
        let mut bytes = TWO_SWEEPS.as_bytes().to_vec();
        bytes[3] = 0xff;
        let err = open_with("utf8", &bytes).err().expect("refused");
        assert!(err.to_string().contains("queue.tsv"), "{err}");
    }

    #[test]
    fn an_id_with_no_successor_is_refused_not_a_panic() {
        let line = format!("{}\tsoak\t2\tpending\t0\t\t\n", u64::MAX);
        refusal("max-id", line.as_bytes(), 1);
        // The largest id that does leave a successor loads, and the
        // queue then refuses to mint past it instead of overflowing.
        let line = format!("{}\tsoak\t2\tdone\t0\t\t\n", u64::MAX - 1);
        let dir = temp_state_dir("last-id");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("queue.tsv"), line).unwrap();
        let mut q = Queue::open(&dir).unwrap();
        assert!(q.submit("soak", 1, vec![]).is_err());
        assert_eq!(q.sweeps().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_counts_submit_would_refuse_are_refused_on_reload() {
        for workers in ["0", "65", "-1", "two"] {
            let line = format!("1\tsoak\t{workers}\tpending\t0\t\t\n");
            refusal("workers", line.as_bytes(), 1);
        }
        let line = format!("1\tsoak\t{MAX_WORKERS}\tpending\t0\t\t\n");
        assert_eq!(
            open_with("workers-max", line.as_bytes()).unwrap().sweeps()[0].workers,
            64
        );
    }

    #[test]
    fn duplicate_ids_are_refused() {
        let twice =
            "1\tsoak\t2\tpending\t0\t\t\n7\tfig1\t1\tdone\t0\t\t\n1\tfig2\t1\tdone\t0\t\t\n";
        let err = refusal("dup", twice.as_bytes(), 3);
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn an_experiment_the_table_does_not_hold_is_refused() {
        let err = refusal("unknown", "1\tfig99\t2\tpending\t0\t\t\n".as_bytes(), 1);
        assert!(err.contains("unknown experiment"), "{err}");
        // Every name the table resolves reloads, `all` included.
        for name in sprout_bench::EXPERIMENTS
            .iter()
            .map(|e| e.name)
            .chain(["all"])
        {
            let line = format!("1\t{name}\t2\tpending\t0\t\t\n");
            assert_eq!(
                open_with("known", line.as_bytes()).unwrap().sweeps()[0].experiment,
                name
            );
        }
    }

    #[test]
    fn a_file_cut_at_any_byte_reloads_a_prefix_or_is_refused_by_line() {
        let whole = open_with("cut-whole", TWO_SWEEPS.as_bytes()).unwrap();
        assert_eq!(whole.sweeps().len(), 2);
        let first_line = TWO_SWEEPS.find('\n').unwrap() + 1;
        for cut in 0..TWO_SWEEPS.len() {
            let bytes = &TWO_SWEEPS.as_bytes()[..cut];
            if cut == 0 || cut == first_line {
                // Cut on a line boundary: a shorter, valid queue.
                let q = open_with("cut-ok", bytes).unwrap();
                assert_eq!(q.sweeps().len(), usize::from(cut > 0));
                assert!(q
                    .sweeps()
                    .iter()
                    .all(|s| s.args == whole.get(s.id).unwrap().args));
            } else {
                // Cut inside a line: never a silently shorter or altered
                // queue (`--secs 4` for `--secs 40`), always that line.
                refusal("cut", bytes, if cut < first_line { 1 } else { 2 });
            }
        }
    }
}
