//! `sprout-control`: the long-running sweep orchestrator.
//!
//! The reproduction harness already knows how to split a scenario
//! matrix into deterministic shards (`reproduce --shard I/N`), deposit
//! finished cells in a shared content-addressed cache, and reassemble
//! the full artifacts from that cache (`--merge`), byte-identical to a
//! single-process run. What it lacked was a *process* that owns a queue
//! of such sweeps for days at a time: dealing shards to local worker
//! processes, noticing when a worker dies or wedges, re-dealing the
//! orphaned cells, and serving live progress over HTTP. This crate is
//! that process.
//!
//! The layering is deliberate:
//!
//! - [`state`] — the persistent sweep queue. One line per sweep in
//!   `<state-dir>/queue.tsv`, rewritten atomically; sweeps that were
//!   mid-flight when the daemon died reload as `pending`, which is safe
//!   because every finished cell is already in the cell cache and a
//!   re-dealt shard `--resume`s straight past them.
//! - [`daemon`] — the scheduler: spawns `reproduce <exp> … --shard i/N
//!   --resume --controlled` workers sharing one `SPROUT_CACHE_DIR`,
//!   watches their heartbeat lines, kills and re-deals on silence or
//!   death (exponential backoff, bounded retries), and runs the final
//!   `--merge` that renders the artifacts. It is woken by a `POST`, a
//!   worker's exit or a deadline a task declared — never by a tick.
//! - [`httpd`] / [`client`] — a dependency-free HTTP/1.1 sliver for the
//!   status API (`/status`, `/sweeps`, `/sweeps/<id>/cells`) and the
//!   `sprout-control` CLI that speaks to it.
//!
//! The determinism contract is inherited, not re-proven: the daemon
//! forwards a submitted sweep's axis flags *verbatim* (validated at
//! submit time by the same parser the binary uses — see
//! [`sprout_bench::cli`]) to every worker and to the merge, so the
//! merged `*_sweep.json` is byte-identical to a single-process run of
//! the same flags, regardless of worker count, deaths, or restarts.

#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod httpd;
pub mod state;

pub use daemon::{Daemon, DaemonConfig};
pub use state::{Queue, SweepSpec, SweepState};
