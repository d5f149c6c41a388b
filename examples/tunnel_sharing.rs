//! SproutTunnel flow isolation (§4.3 / §5.7): a TCP Cubic bulk download
//! and a Skype-model call share one cellular downlink — first directly
//! (commingled in the carrier queue), then through a SproutTunnel. The
//! two are the two cells of one sweep, as in `reproduce tunnel`.
//!
//! ```text
//! cargo run --release --example tunnel_sharing
//! ```

use sprout_bench::sweep::{BULK_FLOW, INTERACTIVE_FLOW};
use sprout_bench::{FlowSummary, ScenarioMatrix, SweepEngine, Workload};
use sprout_trace::{Duration, NetProfile};

fn main() {
    // As `--no-cache` does: an example leaves no artifact in the checkout.
    sprout_cache::disable();

    let matrix = ScenarioMatrix::builder("tunnel-sharing")
        .workloads([Workload::MuxDirect, Workload::MuxTunneled])
        .links([NetProfile::VerizonLteDown])
        .timing(Duration::from_secs(120), Duration::from_secs(20))
        .build();
    println!("Verizon LTE downlink shared by a Cubic download and a Skype call");
    let results = SweepEngine::new(17).run(&matrix);
    let [direct, tunneled] = [&results[0], &results[1]].map(|r| {
        let flow = |id: u32| {
            *r.flows
                .iter()
                .find(|f| f.flow == id)
                .expect("mux cells report both flows")
        };
        (flow(BULK_FLOW.0), flow(INTERACTIVE_FLOW.0))
    });

    // The paper's two numbers of one §5.7 metric, direct → tunnelled.
    let paper = |metric: &str, unit: &str| {
        let at = |at| sprout_bench::claims::claim(&format!("tunnel.{at}.{metric}")).paper_text();
        format!("({}{unit} → {}{unit})", at("direct"), at("via"))
    };
    let kbps = |f: FlowSummary| format!("{:>8.0} kbps", f.throughput_kbps);
    println!("\n                      direct      via SproutTunnel   (paper §5.7)");
    println!(
        "  Cubic throughput  {} {}        {}",
        kbps(direct.0),
        kbps(tunneled.0),
        paper("cubic_kbps", "")
    );
    println!(
        "  Skype throughput  {} {}        {}",
        kbps(direct.1),
        kbps(tunneled.1),
        paper("skype_kbps", "")
    );
    let delay = |f: FlowSummary| format!("{:>12.2}s", f.p95_delay_ms / 1e3);
    println!(
        "  Skype 95% delay   {} {}        {}",
        delay(direct.1),
        delay(tunneled.1),
        paper("skype_delay_s", " s")
    );
    println!("\nInside the tunnel each flow has its own queue and the total");
    println!("backlog is capped by the forecast, so the bulk download can no");
    println!("longer bury the interactive call (drops land on its own queue).");
}
