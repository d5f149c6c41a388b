//! Cellular link traces for the Sprout reproduction.
//!
//! This crate is the foundation of the workspace: integer virtual-time
//! primitives ([`Timestamp`], [`Duration`]), the Saturator trace format
//! (§4.1 of the paper), a doubly-stochastic synthetic trace generator
//! implementing the paper's own link model (§3.1), and the analysis used
//! for Figure 2.
//!
//! ```
//! use sprout_trace::{NetProfile, Duration};
//!
//! let trace = NetProfile::VerizonLteDown.generate(Duration::from_secs(30), 42);
//! println!("mean capacity: {:.0} kbps", trace.average_rate_kbps());
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod cancel;
pub mod format;
pub mod impair;
pub mod registry;
pub mod seed;
pub mod synth;
pub mod time;
#[allow(clippy::module_inception)]
mod trace;

pub use analysis::{outage_stats, summarize, InterarrivalHistogram, OutageStats, TraceSummary};
pub use cancel::{CancelGuard, CancelToken, Cancelled};
pub use format::{load_trace, read_trace, save_trace, write_trace, TraceFileError, MAX_TRACE_MS};
pub use impair::{
    DeliveryPerturber, GilbertElliott, GilbertElliottProcess, Impairment, JitterSpec, OutageCursor,
    OutageSchedule, OutageSpec, ReorderSpec, IMPAIRMENT_PRESETS,
};
pub use registry::{lookup_trace, register_trace_bytes, register_trace_file};
pub use seed::{derive_labeled_seed, derive_seed, session_seed};
pub use synth::{trace_cache_counters, LinkModelParams, LinkSimulator, NetProfile};
pub use time::{Duration, Timestamp, MTU_BYTES, TICK};
pub use trace::{Trace, TraceCursor};
