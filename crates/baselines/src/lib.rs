//! Baseline protocols for the Sprout evaluation (§5): the TCP
//! congestion-control suite (Reno, Cubic, Vegas, Compound, LEDBAT) over a
//! shared reliable-transport skeleton, open-loop models of the
//! closed-source videoconferencing applications (Skype, FaceTime,
//! Hangout), the omniscient protocol that defines the self-inflicted
//! delay floor, and a reproduction of the Saturator trace-capture tool.

#![warn(missing_docs)]

pub mod apps;
pub mod compound;
pub mod cubic;
pub mod ledbat;
pub mod omniscient;
pub mod reno;
pub mod saturator;
pub mod transport;
pub mod vegas;
mod wire;

pub use apps::{AppProfile, VideoApp, VideoAppReceiver, VideoAppSender};
pub use compound::Compound;
pub use cubic::Cubic;
pub use ledbat::Ledbat;
pub use omniscient::OmniscientSender;
pub use reno::Reno;
pub use saturator::{SaturatorReceiver, SaturatorSender};
pub use transport::{CongestionControl, RttEstimator, TcpReceiver, TcpSender};
pub use vegas::Vegas;
