//! Cross-crate integration tests: the paper's headline claims, asserted
//! as invariants on short deterministic runs. Each names the claim of
//! `sprout_bench::claims::CLAIMS` it stands for (the paper's number
//! lives there, `reproduce scorecard` judges it at full scale); the
//! thresholds here are coarser, sized for a minute of virtual time. They
//! use the paper's full-scale Sprout configuration; the forecast tables
//! build once per test binary (≈ 11 ms optimised) and are shared through
//! the global cache.

use sprout_baselines::{Cubic, TcpReceiver, TcpSender};
use sprout_bench::claims::claim;
use sprout_bench::sprout_data_sender;
use sprout_core::{SproutConfig, SproutEndpoint};
use sprout_sim::{direction_stats, PathConfig, Simulation};
use sprout_trace::{Duration, LinkModelParams, LinkSimulator, NetProfile, Timestamp, Trace};

/// A steady Poisson 400-packet/s link for 60 s (Poisson arrivals, not a
/// metronome). 400 pps ≈ 4.8 Mbps is the regime where Sprout's queue
/// stays backlogged enough for full-tick observations; at very low steady
/// rates the cautious forecast deliberately underfills (the 5th-percentile
/// forecast of §3.3 rounds a small expected delivery down to nothing).
fn steady_link() -> Trace {
    let params = LinkModelParams {
        mean_rate_pps: 400.0,
        max_rate_pps: 1000.0,
        sigma: 2.0,
        mean_reversion: 50.0,
        outage_entry_rate: 0.0,
        outage_escape_rate: 1.0,
    };
    LinkSimulator::new(params, 1234).generate(Duration::from_secs(60))
}

/// A one-way Sprout pair as every Sprout cell builds it: the data
/// receiver runs the Bayesian forecaster.
fn sprout_pair(cfg: &SproutConfig) -> (SproutEndpoint, SproutEndpoint) {
    (sprout_data_sender(cfg), SproutEndpoint::new(cfg.clone()))
}

#[test]
fn sprout_fills_a_steady_link_with_low_delay() {
    // Sprout nearly matches Cubic's throughput, at Sprout's own delay.
    let (fills, delay) = (
        claim("table1.cubic.speedup"),
        claim("loss.vz-lte-down.0pct.ms"),
    );
    let cfg = SproutConfig::paper();
    let (a, b) = sprout_pair(&cfg);
    let mut sim = Simulation::new(
        a,
        b,
        PathConfig::standard(steady_link()),
        PathConfig::standard(steady_link()),
    );
    sim.run_until(Timestamp::from_secs(60));
    let stats = direction_stats(
        sim.ab_path(),
        Timestamp::from_secs(10),
        Timestamp::from_secs(60),
    );
    assert!(
        stats.utilization > 0.85,
        "{fills}: sprout should fill a steady link: util {}",
        stats.utilization
    );
    let si = stats.self_inflicted.unwrap();
    assert!(
        si < Duration::from_millis(150),
        "{delay}: self-inflicted delay should stay near the 100 ms target: {si}"
    );
}

#[test]
fn sprout_beats_cubic_on_delay_by_an_order_of_magnitude() {
    // The paper's central comparison, on a shared variable link.
    let claim = claim("table1.cubic.delay_ratio");
    let down = NetProfile::TmobileUmtsDown.generate(Duration::from_secs(90), 3);
    let up = NetProfile::TmobileUmtsUp.generate(Duration::from_secs(90), 4);
    let cfg = SproutConfig::paper();
    let (a, b) = sprout_pair(&cfg);
    let mut sprout_sim = Simulation::new(
        a,
        b,
        PathConfig::standard(down.clone()),
        PathConfig::standard(up.clone()),
    );
    sprout_sim.run_until(Timestamp::from_secs(90));
    let sprout = direction_stats(
        sprout_sim.ab_path(),
        Timestamp::from_secs(20),
        Timestamp::from_secs(90),
    );

    let mut cubic_sim = Simulation::new(
        TcpSender::new(Box::new(Cubic::new())),
        TcpReceiver::new(),
        PathConfig::standard(down),
        PathConfig::standard(up),
    );
    cubic_sim.run_until(Timestamp::from_secs(90));
    let cubic = direction_stats(
        cubic_sim.ab_path(),
        Timestamp::from_secs(20),
        Timestamp::from_secs(90),
    );

    let (s_delay, c_delay) = (
        sprout.self_inflicted.unwrap(),
        cubic.self_inflicted.unwrap(),
    );
    // Over a single 90 s window the gap is a small multiple; over the
    // paper's 17-minute traces it compounds to the claim's multiple
    // (`table1.cubic.delay_ratio`; ours: `reproduce scorecard`).
    assert!(
        c_delay.as_micros() > 3 * s_delay.as_micros().max(1),
        "{claim}: cubic bufferbloat must dwarf sprout's delay: sprout {s_delay}, cubic {c_delay}"
    );
    assert!(
        c_delay > Duration::from_secs(1),
        "{claim}: cubic should build a substantial standing queue: {c_delay}"
    );
    // Cubic wastes some capacity re-probing after the trace's outages,
    // but still runs the link far harder than it should for its delay.
    assert!(
        cubic.utilization > 0.6,
        "{claim}: cubic fills the pipe: {}",
        cubic.utilization
    );
    assert!(
        sprout.throughput_kbps > 0.1 * cubic.throughput_kbps,
        "{claim}: sprout keeps a share of the link: {} vs {}",
        sprout.throughput_kbps,
        cubic.throughput_kbps
    );
}

#[test]
fn sprout_survives_ten_percent_loss() {
    // §5.6: Sprout does not interpret loss as congestion; throughput
    // degrades roughly with the lost fraction, not collapse.
    let claim = claim("loss.vz-lte-down.10pct.kbps");
    let cfg = SproutConfig::paper();
    let run = |loss: f64| {
        let (a, b) = sprout_pair(&cfg);
        let mut ab = PathConfig::standard(steady_link());
        ab.link.loss_rate = loss;
        ab.link.loss_seed = 7;
        let mut sim = Simulation::new(a, b, ab, PathConfig::standard(steady_link()));
        sim.run_until(Timestamp::from_secs(60));
        direction_stats(
            sim.ab_path(),
            Timestamp::from_secs(10),
            Timestamp::from_secs(60),
        )
    };
    let clean = run(0.0);
    let lossy = run(0.10);
    assert!(
        lossy.throughput_kbps > 0.4 * clean.throughput_kbps,
        "{claim}: 10% loss must not collapse throughput: {} vs {}",
        lossy.throughput_kbps,
        clean.throughput_kbps
    );
    assert!(
        lossy.self_inflicted.unwrap() < Duration::from_millis(300),
        "{claim}: delay stays controlled under loss"
    );
}

#[test]
fn ewma_variant_trades_delay_for_throughput() {
    // §5.3: Sprout-EWMA ≥ Sprout in throughput, Sprout ≤ EWMA in delay.
    // No claim: the repo prints no paper number for §5.3 (intro table 2
    // prints ours only), and none is added from memory.
    let down = NetProfile::VerizonLteDown.generate(Duration::from_secs(90), 11);
    let up = NetProfile::VerizonLteUp.generate(Duration::from_secs(90), 12);
    let cfg = SproutConfig::paper();

    let (a, b) = sprout_pair(&cfg);
    let mut sim = Simulation::new(
        a,
        b,
        PathConfig::standard(down.clone()),
        PathConfig::standard(up.clone()),
    );
    sim.run_until(Timestamp::from_secs(90));
    let sprout = direction_stats(
        sim.ab_path(),
        Timestamp::from_secs(20),
        Timestamp::from_secs(90),
    );

    let a = sprout_data_sender(&cfg);
    let b = SproutEndpoint::new_ewma(cfg.clone());
    let mut sim = Simulation::new(a, b, PathConfig::standard(down), PathConfig::standard(up));
    sim.run_until(Timestamp::from_secs(90));
    let ewma = direction_stats(
        sim.ab_path(),
        Timestamp::from_secs(20),
        Timestamp::from_secs(90),
    );

    assert!(
        ewma.throughput_kbps >= sprout.throughput_kbps * 0.95,
        "EWMA should not trail Sprout in throughput: {} vs {}",
        ewma.throughput_kbps,
        sprout.throughput_kbps
    );
    assert!(
        sprout.self_inflicted.unwrap() <= ewma.self_inflicted.unwrap(),
        "Sprout's cautious forecast should yield lower delay"
    );
}

#[test]
fn runs_are_deterministic() {
    // Identical seeds → bit-identical metrics (the whole workspace is
    // virtual-time and seeded).
    let run = || {
        let down = NetProfile::AttLteUp.generate(Duration::from_secs(30), 99);
        let up = NetProfile::AttLteDown.generate(Duration::from_secs(30), 98);
        let cfg = SproutConfig::paper();
        let (a, b) = sprout_pair(&cfg);
        let mut sim = Simulation::new(a, b, PathConfig::standard(down), PathConfig::standard(up));
        sim.run_until(Timestamp::from_secs(30));
        (
            sim.ab_metrics().records().len(),
            sim.ab_metrics()
                .delivered_bytes(Timestamp::ZERO, Timestamp::from_secs(30), None),
        )
    };
    assert_eq!(run(), run());
}
