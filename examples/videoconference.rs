//! The paper's motivating scenario (§1): a videoconference over a
//! cellular path. Compares the Skype model with Sprout, side by side on
//! identical link conditions — Figure 1 in miniature: two cells of one
//! sweep, printed as a per-5 s storyboard.
//!
//! ```text
//! cargo run --release --example videoconference
//! ```

use sprout_bench::{ScenarioMatrix, Scheme, SweepEngine};
use sprout_trace::{Duration, NetProfile};

fn main() {
    // As `--no-cache` does: an example leaves no artifact in the checkout.
    sprout_cache::disable();

    // Both cells replay the identical Verizon LTE downlink trace. The
    // Skype model is open-loop rate control with a slow reaction
    // (§5.2); Sprout's sender saturates, so its series shows the
    // transport's envelope.
    let matrix = ScenarioMatrix::builder("videoconference")
        .schemes([Scheme::Skype, Scheme::Sprout])
        .links([NetProfile::VerizonLteDown])
        .series_bin(Duration::from_secs(5))
        .timing(Duration::from_secs(60), Duration::from_secs(5))
        .build();
    let results = SweepEngine::new(7).run(&matrix);

    let capacity = &results[0].series;
    let mean = capacity.iter().map(|b| b.capacity_kbps).sum::<f64>() / capacity.len() as f64;
    println!("Verizon LTE downlink, {mean:.0} kbps mean capacity");
    for r in &results {
        println!(
            "\n{}: per-5s throughput (kbps) and worst arrival delay (ms)",
            r.scenario.label
        );
        print!("  tput: ");
        for bin in &r.series {
            print!("{:>6.0}", bin.throughput_kbps);
        }
        print!("\n  delay:");
        for bin in &r.series {
            print!("{:>6.0}", bin.worst_delay_ms);
        }
        let m = r.metrics.expect("scheme cells have metrics");
        println!(
            "\n  => {:.0} kbps, 95% end-to-end delay {:.0} ms, self-inflicted {:.0} ms",
            m.throughput_kbps, m.p95_delay_ms, m.self_inflicted_ms
        );
    }

    println!("\nThe Skype model overshoots rate drops and builds multi-second");
    println!("queues; Sprout keeps the worst-case delay near its 100 ms target");
    println!("while tracking the link's capacity (the paper's Figure 1).");
}
