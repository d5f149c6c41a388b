//! The scenario-matrix sweep engine: declare an experiment as a
//! cross-product, run it in parallel, and get deterministic structured
//! results.
//!
//! ```text
//! cargo run --release --example sweep_matrix
//! ```

use sprout_bench::{ScenarioMatrix, Scheme, SweepEngine};
use sprout_trace::{Duration, NetProfile};

fn main() {
    // As `--no-cache` does: an example leaves no artifact in the checkout.
    sprout_cache::disable();

    // Declare: 3 schemes × 2 links × 2 loss rates = 12 cells.
    let matrix = ScenarioMatrix::builder("demo")
        .schemes([Scheme::SproutEwma, Scheme::Cubic, Scheme::Skype])
        .links([NetProfile::VerizonLteDown, NetProfile::TmobileUmtsUp])
        .loss_rates([0.0, 0.05])
        .timing(Duration::from_secs(60), Duration::from_secs(10))
        .build();
    println!("matrix '{}': {} cells", matrix.name(), matrix.len());

    // Execute: cells fan out across worker threads; results come back in
    // matrix order, bit-identical for any thread count.
    let engine = SweepEngine::new(42);
    let t0 = std::time::Instant::now();
    let results = engine.run(&matrix);
    println!("swept in {:.1?}\n", t0.elapsed());

    for r in &results {
        let m = r.metrics.expect("scheme cells have metrics");
        println!(
            "{:40} {:>7.0} kbps  self-inflicted {:>7.0} ms  util {:>5.2}",
            r.scenario.label, m.throughput_kbps, m.self_inflicted_ms, m.utilization
        );
    }

    // Structured record: one canonical JSON document per sweep.
    let json = sprout_bench::sweep_to_json(matrix.name(), 42, &results);
    println!("\nJSON record: {} bytes (stable across runs)", json.len());
}
