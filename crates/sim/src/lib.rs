//! Cellsim: the trace-driven cellular network emulator of the Sprout paper
//! (§4.2), as a deterministic virtual-time library.
//!
//! The emulator bridges two sans-IO [`Endpoint`]s with a bidirectional
//! path. Each direction applies a fixed propagation delay, a pluggable
//! bottleneck queue (DropTail or CoDel), optional Bernoulli loss, and a
//! trace-driven link that releases queued bytes only at recorded delivery
//! opportunities, with per-byte accounting.
//!
//! ```
//! use sprout_sim::{Simulation, PathConfig, SinkEndpoint, direction_stats};
//! use sprout_trace::{NetProfile, Duration, Timestamp};
//!
//! let down = NetProfile::VerizonLteDown.generate(Duration::from_secs(10), 1);
//! let up = NetProfile::VerizonLteUp.generate(Duration::from_secs(10), 2);
//! let mut sim = Simulation::new(
//!     SinkEndpoint::new(),
//!     SinkEndpoint::new(),
//!     PathConfig::standard(down),
//!     PathConfig::standard(up),
//! );
//! sim.run_until(Timestamp::from_secs(10));
//! let stats = direction_stats(sim.ab_path(), Timestamp::ZERO, Timestamp::from_secs(10));
//! assert_eq!(stats.delivered_bytes, 0); // sinks never send
//! ```

#![warn(missing_docs)]

pub mod cellsim;
pub mod codel;
pub mod endpoint;
pub mod link;
pub mod metrics;
pub mod packet;
pub mod queue;
pub mod run;
pub mod serve;
pub mod wheel;

pub use cellsim::{DirectedPath, PathConfig};
pub use codel::{CoDelConfig, CoDelQueue};
pub use endpoint::{Endpoint, MuxEndpoint, SinkEndpoint};
pub use link::{LinkConfig, LinkDelivery, LinkImpairment, QueueConfig, TraceLink};
pub use metrics::{
    degradation_stats, jain_fairness_index, omniscient_delay_percentile, omniscient_p95_delay,
    self_inflicted_delay, utilization, DegradationStats, DeliveryRecord, MetricsCollector,
};
pub use packet::{FlowId, Packet};
pub use queue::{DropTail, DEEP_QUEUE_BYTES};
pub use run::{
    direction_stats, direction_stats_with_floor, DirectionStats, SimScratch, Simulation,
};
pub use serve::ServeSim;
pub use wheel::TimerWheel;
