//! # sprout-core — the Sprout transport protocol
//!
//! A from-scratch Rust implementation of **Sprout** (Winstein, Sivaraman,
//! Balakrishnan — *Stochastic Forecasts Achieve High Throughput and Low
//! Delay over Cellular Networks*, NSDI 2013).
//!
//! Sprout is an end-to-end transport for interactive applications on
//! cellular paths. Instead of reacting to loss or delay, the **receiver**
//! infers the link's time-varying delivery rate from packet arrival times
//! (Bayesian filtering on a doubly-stochastic Poisson model, §3.1–3.2),
//! forecasts — at the 5th percentile — how many bytes the link will
//! deliver over the next 160 ms (§3.3), and feeds that forecast back. The
//! **sender** turns the forecast into an evolving window that bounds the
//! risk of any packet queueing longer than 100 ms to under 5% (§3.5).
//!
//! The protocol state machines are sans-IO: [`SproutEndpoint`] names no
//! socket or clock, and the virtual-time emulator (`sprout-sim`) drives it
//! in every experiment.
//!
//! ```
//! use sprout_core::{SproutConfig, SproutEndpoint};
//! use sprout_sim::{Simulation, PathConfig};
//! use sprout_trace::{NetProfile, Duration, Timestamp};
//!
//! let cfg = SproutConfig::test_small(); // paper-scale: SproutConfig::paper()
//! let mut client = SproutEndpoint::new_ewma(cfg.clone());
//! client.set_saturating();
//! let server = SproutEndpoint::new_ewma(cfg);
//!
//! let mut sim = Simulation::new(
//!     client,
//!     server,
//!     PathConfig::standard(NetProfile::TmobileUmtsUp.generate(Duration::from_secs(5), 1)),
//!     PathConfig::standard(NetProfile::TmobileUmtsDown.generate(Duration::from_secs(5), 2)),
//! );
//! sim.run_until(Timestamp::from_secs(5));
//! assert!(sim.ab_metrics().records().len() > 0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod endpoint;
pub mod forecast;
pub mod forecaster;
pub mod memo;
pub mod model;
pub mod receiver;
pub mod sender;
pub mod session;
mod simd;
pub mod stats;
pub mod wire;

pub use config::SproutConfig;
pub use endpoint::{EndpointStats, SproutEndpoint};
pub use forecast::{table_memory_counters, Forecast, ForecastScratch, ForecastTables, MemCounters};
pub use forecaster::{BayesianForecaster, EwmaForecaster, Forecaster};
pub use memo::{Memo, MemoCounters};
#[cfg(feature = "testing")]
pub use model::likelihood_memo_occupancy;
pub use model::{RateModel, ScatterMatrix, TransitionKernel, LIKELIHOOD_MEMO_MAX_BYTES};
pub use receiver::SproutReceiver;
pub use sender::SproutSender;
pub use session::SessionPool;
pub use wire::{SproutHeader, WireError, WireForecast};
