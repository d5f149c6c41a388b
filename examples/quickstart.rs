//! Quickstart: run Sprout over an emulated cellular link and print what
//! the paper's evaluation would report for it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sprout_core::{SproutConfig, SproutEndpoint};
use sprout_sim::{direction_stats, PathConfig, Simulation};
use sprout_trace::{Duration, NetProfile, Timestamp};

fn main() {
    // As `--no-cache` does: an example leaves no artifact in the checkout.
    sprout_cache::disable();

    // 1. A cellular link. Synthetic here (the paper's doubly-stochastic
    //    model, §3.1); `sprout_trace::load_trace` reads real Saturator
    //    captures in the same format.
    let secs = 60;
    let downlink = NetProfile::VerizonLteDown.generate(Duration::from_secs(secs), 42);
    let uplink = NetProfile::VerizonLteUp.generate(Duration::from_secs(secs), 43);
    println!(
        "link: {} ({:.0} kbps mean capacity over {}s)",
        NetProfile::VerizonLteDown.name(),
        downlink.average_rate_kbps(),
        secs
    );

    // 2. Two Sprout endpoints. The paper's frozen configuration: 20 ms
    //    ticks, sigma = 200, 95%-confidence forecasts. The first
    //    construction builds the forecast tables (tens of milliseconds,
    //    once per process).
    println!("building forecast tables...");
    let cfg = SproutConfig::paper();
    let mut sender = SproutEndpoint::new(cfg.clone());
    sender.set_saturating(); // bulk source, like the paper's evaluation
    let receiver = SproutEndpoint::new(cfg);

    // 3. Bridge them with the Cellsim emulator (20 ms propagation each
    //    way, per-byte delivery accounting) and run in virtual time.
    let mut sim = Simulation::new(
        sender,
        receiver,
        PathConfig::standard(downlink),
        PathConfig::standard(uplink),
    );
    sim.run_until(Timestamp::from_secs(secs));

    // 4. The paper's metrics (§5.1): throughput, 95% end-to-end delay,
    //    self-inflicted delay vs the omniscient floor, utilization.
    let stats = direction_stats(
        sim.ab_path(),
        Timestamp::from_secs(10), // skip startup
        Timestamp::from_secs(secs),
    );
    println!("throughput:           {:>8.0} kbps", stats.throughput_kbps);
    println!(
        "95% end-to-end delay: {:>8} (omniscient floor {})",
        stats.p95_delay.map(|d| d.to_string()).unwrap_or_default(),
        stats
            .omniscient_p95
            .map(|d| d.to_string())
            .unwrap_or_default(),
    );
    println!(
        "self-inflicted delay: {:>8}",
        stats
            .self_inflicted
            .map(|d| d.to_string())
            .unwrap_or_default()
    );
    println!("link utilization:     {:>7.0}%", stats.utilization * 100.0);
    println!("\nSprout's target: ≤100 ms queueing with 95% probability — the");
    println!("self-inflicted delay above is what the forecast bought you.");
}
