//! # sprout-repro — a reproduction of Sprout (NSDI 2013)
//!
//! Umbrella crate for the workspace: re-exports the component crates and
//! hosts the runnable examples (`examples/`) and cross-crate integration
//! tests (`tests/`).
//!
//! * [`sprout_core`] — the Sprout protocol (inference, forecasts, endpoints)
//! * [`sprout_trace`] — cellular link traces: format, synthesis, analysis
//! * [`sprout_sim`] — the Cellsim trace-driven network emulator
//! * [`sprout_baselines`] — TCP variants, app models, omniscient, Saturator
//! * [`sprout_tunnel`] — SproutTunnel flow isolation (§4.3)
//! * [`sprout_cache`] — content-addressed artifact cache (synthesized
//!   traces, cell results)
//!
//! See README.md for the guided tour and ARCHITECTURE.md for the
//! workspace layering, the experiment pipeline, and the cache-key
//! protocol.

pub use sprout_baselines;
pub use sprout_cache;
pub use sprout_core;
pub use sprout_sim;
pub use sprout_trace;
pub use sprout_tunnel;
