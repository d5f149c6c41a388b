//! SproutTunnel flow isolation (§4.3 / §5.7): a TCP Cubic bulk download
//! and a Skype-model call share one cellular downlink — first directly
//! (commingled in the carrier queue), then through a SproutTunnel.
//!
//! ```text
//! cargo run --release --example tunnel_sharing
//! ```

use sprout_baselines::{
    AppProfile, Cubic, TcpReceiver, TcpSender, VideoAppReceiver, VideoAppSender,
};
use sprout_core::{SproutConfig, SproutEndpoint};
use sprout_sim::{FlowId, MuxEndpoint, PathConfig, Simulation};
use sprout_trace::{Duration, NetProfile, Timestamp};
use sprout_tunnel::{TunnelEndpoint, TunnelHost};

const CUBIC: FlowId = FlowId(1);
const SKYPE: FlowId = FlowId(2);

fn main() {
    let secs = 120;
    let warm = 20;
    let down = NetProfile::VerizonLteDown.generate(Duration::from_secs(secs), 17);
    let up = NetProfile::VerizonLteUp.generate(Duration::from_secs(secs), 18);
    println!(
        "Verizon LTE downlink ({:.0} kbps mean) shared by a Cubic download and a Skype call\n",
        down.average_rate_kbps()
    );

    // --- direct: one queue, both flows ---
    let mut a = MuxEndpoint::new();
    a.add(CUBIC, Box::new(TcpSender::new(Box::new(Cubic::new()))));
    a.add(SKYPE, Box::new(VideoAppSender::new(AppProfile::skype())));
    let mut b = MuxEndpoint::new();
    b.add(CUBIC, Box::new(TcpReceiver::new()));
    b.add(SKYPE, Box::new(VideoAppReceiver::new()));
    let mut sim = Simulation::new(
        a,
        b,
        PathConfig::standard(down.clone()),
        PathConfig::standard(up.clone()),
    );
    sim.run_until(Timestamp::from_secs(secs));
    let m = sim.ab_metrics();
    let (from, to) = (Timestamp::from_secs(warm), Timestamp::from_secs(secs));
    let direct = (
        m.flow_throughput_kbps(CUBIC, from, to),
        m.flow_throughput_kbps(SKYPE, from, to),
        m.flow_p95_delay(SKYPE, from, to),
    );

    // --- tunneled: per-flow queues inside one Sprout session ---
    println!("building Sprout forecast tables...");
    let cfg = SproutConfig::paper();
    let mut host_a = TunnelHost::new(TunnelEndpoint::new(SproutEndpoint::new(cfg.clone())));
    host_a.add_client(CUBIC, Box::new(TcpSender::new(Box::new(Cubic::new()))));
    host_a.add_client(SKYPE, Box::new(VideoAppSender::new(AppProfile::skype())));
    let mut host_b = TunnelHost::new(TunnelEndpoint::new(SproutEndpoint::new(cfg)));
    host_b.add_client(CUBIC, Box::new(TcpReceiver::new()));
    host_b.add_client(SKYPE, Box::new(VideoAppReceiver::new()));
    let mut sim = Simulation::new(
        host_a,
        host_b,
        PathConfig::standard(down),
        PathConfig::standard(up),
    );
    sim.run_until(Timestamp::from_secs(secs));
    let m = sim.b.deliveries();
    let tunneled = (
        m.flow_throughput_kbps(CUBIC, from, to),
        m.flow_throughput_kbps(SKYPE, from, to),
        m.flow_p95_delay(SKYPE, from, to),
    );

    let fmt_delay = |d: Option<sprout_trace::Duration>| {
        d.map(|d| format!("{:.2}s", d.as_secs_f64()))
            .unwrap_or_else(|| "-".into())
    };
    // The paper's two numbers of one §5.7 metric, direct → tunnelled.
    let paper = |metric: &str, unit: &str| {
        let at = |at| sprout_bench::claims::claim(&format!("tunnel.{at}.{metric}")).paper_text();
        format!("({}{unit} → {}{unit})", at("direct"), at("via"))
    };
    println!("\n                      direct      via SproutTunnel   (paper §5.7)");
    println!(
        "  Cubic throughput  {:>8.0} kbps {:>8.0} kbps        {}",
        direct.0,
        tunneled.0,
        paper("cubic_kbps", "")
    );
    println!(
        "  Skype throughput  {:>8.0} kbps {:>8.0} kbps        {}",
        direct.1,
        tunneled.1,
        paper("skype_kbps", "")
    );
    println!(
        "  Skype 95% delay   {:>13} {:>13}        {}",
        fmt_delay(direct.2),
        fmt_delay(tunneled.2),
        paper("skype_delay_s", " s")
    );
    println!("\nInside the tunnel each flow has its own queue and the total");
    println!("backlog is capped by the forecast, so the bulk download can no");
    println!("longer bury the interactive call (drops land on its own queue).");
}
