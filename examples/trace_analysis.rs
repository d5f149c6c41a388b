//! Trace tooling: synthesize a cellular trace (or load a real Saturator
//! capture), print its §5.1-style summary and the Figure 2 interarrival
//! statistics, then round-trip it through the Saturator reproduction to
//! show the capture methodology works.
//!
//! ```text
//! cargo run --release --example trace_analysis [path/to/capture.trace]
//! ```

use sprout_baselines::{SaturatorReceiver, SaturatorSender};
use sprout_sim::{PathConfig, Simulation};
use sprout_trace::{
    load_trace, outage_stats, summarize, Duration, InterarrivalHistogram, NetProfile, Timestamp,
    Trace,
};

fn main() {
    // Load a real capture if given; otherwise synthesize a Verizon LTE
    // downlink from the paper's stochastic model.
    let trace: Trace = match std::env::args().nth(1) {
        Some(path) => {
            println!("loading {path}");
            load_trace(&path).expect("readable Saturator trace")
        }
        None => {
            println!("synthesizing 300 s of Verizon LTE downlink (seed 1)");
            NetProfile::VerizonLteDown.generate(Duration::from_secs(300), 1)
        }
    };

    let s = summarize(&trace);
    println!("\n== summary ==");
    println!("duration:        {}", s.duration);
    println!("opportunities:   {} MTU-sized deliveries", s.opportunities);
    println!("mean capacity:   {:.0} kbps", s.mean_kbps);
    println!("peak second:     {:.0} kbps", s.peak_1s_kbps);
    println!("worst second:    {:.0} kbps", s.min_1s_kbps);
    println!(
        "outages >1s:     {} (longest {}, total {})",
        s.outages_over_1s.count, s.outages_over_1s.longest, s.outages_over_1s.total_time
    );
    let o3 = outage_stats(&trace, Duration::from_secs(3));
    println!("outages >3s:     {}", o3.count);

    println!("\n== interarrival distribution (Figure 2) ==");
    let hist = InterarrivalHistogram::from_trace(&trace, 10, 10_000.0);
    let paper = |id| sprout_bench::claims::claim(id).paper_text();
    println!(
        "{:.3}% of interarrivals within 20 ms (paper: {}%)",
        hist.fraction_within_ms(20.0) * 100.0,
        paper("fig2.within_20ms_pct")
    );
    if let Some(slope) = hist.tail_power_law_slope(20.0, 5_000.0) {
        let paper_slope = paper("fig2.tail_slope");
        println!("tail power-law slope t^{slope:.2} (paper: t^{paper_slope})");
    }
    println!("log-spaced histogram (non-empty bins):");
    for (lo, hi, pct) in hist.rows().filter(|r| r.2 > 0.0).take(18) {
        println!("  [{lo:>7.1} ms, {hi:>7.1} ms)  {pct:>8.4}%");
    }

    // §7 future work: fit the paper's stochastic model to this trace.
    println!("\n== fitted link model (§7: models trained on empirical variations) ==");
    match sprout_trace::fit_link_model(&trace, &sprout_trace::FitConfig::default()) {
        Some(fit) => {
            println!(
                "mean rate:     {:.0} pps ({:.0} kbps)",
                fit.params.mean_rate_pps,
                fit.params.mean_rate_pps * 12.0
            );
            println!(
                "sigma:         {:.0} pps/sqrt(s) (paper freezes 200)",
                fit.params.sigma
            );
            println!(
                "outage escape: {:.2} /s (paper freezes 1.0)",
                fit.params.outage_escape_rate
            );
            println!(
                "outage entry:  {:.3} /s over {} outages ({:.1}% of the trace)",
                fit.params.outage_entry_rate,
                fit.outages,
                fit.outage_fraction * 100.0
            );
        }
        None => println!("trace too short to fit"),
    }

    // Round-trip through the Saturator (§4.1): saturate an emulated link
    // that replays this trace and re-capture its delivery schedule.
    println!("\n== Saturator round-trip (§4.1) ==");
    let secs = trace.duration().as_secs_f64().min(120.0) as u64;
    let feedback = Trace::from_millis(0..secs * 1_000); // ideal feedback path
    let mut sim = Simulation::new(
        SaturatorSender::new(),
        SaturatorReceiver::new(),
        PathConfig::standard(trace.clone()),
        PathConfig::standard(feedback),
    );
    sim.run_until(Timestamp::from_secs(secs));
    let captured = sim.b.captured_trace();
    let window =
        |tr: &Trace| tr.opportunities_between(Timestamp::from_secs(10), Timestamp::from_secs(secs));
    let truth = window(&trace);
    let got = window(&captured);
    println!(
        "ground truth {truth} opportunities in [10s,{secs}s]; Saturator captured {got} \
         ({:.1}% — the standing queue keeps the link busy, §4.1)",
        100.0 * got as f64 / truth.max(1) as f64
    );
    if let Some(rtt) = sim.a.last_rtt() {
        println!("Saturator standing RTT at end: {rtt} (target 750–3000 ms)");
    }
}
