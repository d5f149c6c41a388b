//! Determinism guarantees of the scenario-matrix sweep engine, and
//! consistency between the scheme zoo and the matrix builder.

use sprout_bench::{
    sweep_to_json, QueueSpec, ResolvedQueue, ScenarioMatrix, Scheme, ShardSpec, SweepEngine,
    VideoApp, Workload,
};
use sprout_trace::{Duration, NetProfile};

mod support;

/// A small but representative matrix: two schemes (one needing CoDel),
/// two loss rates, two queue depths, a mux cell, and an
/// app-over-transport cell — every axis the engine seeds. (The
/// prop-delay axis carries no randomness of its own; `axes.rs` pins its
/// exact-shift semantics.) Every sweep here runs it, so it also moves
/// the cache the sweeps store into out of the checkout.
fn mixed_matrix() -> ScenarioMatrix {
    support::cache_outside_the_checkout();
    ScenarioMatrix::builder("determinism")
        .schemes([Scheme::SproutEwma, Scheme::CubicCodel])
        .workloads([Workload::MuxDirect])
        .apps([VideoApp::Skype], [Scheme::Cubic])
        .links([NetProfile::TmobileUmtsDown])
        .queues([QueueSpec::Auto, QueueSpec::DropTailBytes(75_000)])
        .loss_rates([0.0, 0.05])
        .timing(Duration::from_secs(25), Duration::from_secs(5))
        .build()
}

#[test]
fn same_master_seed_gives_identical_results_across_runs() {
    let m = mixed_matrix();
    let a = SweepEngine::new(42).run(&m);
    let b = SweepEngine::new(42).run(&m);
    assert_eq!(
        sweep_to_json(m.name(), 42, &a),
        sweep_to_json(m.name(), 42, &b),
        "two runs with one master seed must be bit-identical"
    );
}

#[test]
fn different_master_seeds_give_different_results() {
    let m = mixed_matrix();
    let a = SweepEngine::new(1).run(&m);
    let b = SweepEngine::new(2).run(&m);
    assert_ne!(
        sweep_to_json(m.name(), 0, &a),
        sweep_to_json(m.name(), 0, &b),
        "the master seed must actually steer the experiment"
    );
}

#[test]
fn thread_count_does_not_change_results() {
    let m = mixed_matrix();
    let one = SweepEngine::new(7).with_threads(1).run(&m);
    for threads in [2, 4, 8] {
        let n = SweepEngine::new(7).with_threads(threads).run(&m);
        assert_eq!(
            sweep_to_json(m.name(), 7, &one),
            sweep_to_json(m.name(), 7, &n),
            "--threads {threads} diverged from --threads 1"
        );
    }
}

#[test]
fn shards_partition_the_matrix_and_reassemble_bit_identically() {
    let m = mixed_matrix();
    let full = SweepEngine::new(7).with_threads(1).run(&m);

    // Interleave the two shards' results back into matrix order; the
    // reassembly must be bit-identical to the single-shot run even when
    // the shards use different thread counts.
    let shard0 = SweepEngine::new(7)
        .with_threads(1)
        .with_shard(ShardSpec::new(0, 2))
        .run(&m);
    let shard1 = SweepEngine::new(7)
        .with_threads(4)
        .with_shard(ShardSpec::new(1, 2))
        .run(&m);
    assert_eq!(shard0.len() + shard1.len(), m.len());
    let mut merged = Vec::new();
    let (mut i0, mut i1) = (shard0.into_iter(), shard1.into_iter());
    for cell in m.cells() {
        let next = if ShardSpec::new(0, 2).owns(cell.id) {
            i0.next()
        } else {
            i1.next()
        };
        merged.push(next.expect("every cell owned by exactly one shard"));
    }
    assert_eq!(
        sweep_to_json(m.name(), 7, &full),
        sweep_to_json(m.name(), 7, &merged),
        "sharded execution must reassemble the single-shot sweep"
    );
}

#[test]
fn shard_spec_parses_cli_form() {
    assert_eq!(ShardSpec::parse("0/2"), Some(ShardSpec::new(0, 2)));
    assert_eq!(ShardSpec::parse("3/8"), Some(ShardSpec::new(3, 8)));
    for bad in ["2/2", "0/0", "a/2", "0", "/", "1/", "-1/2", "0/2/3"] {
        assert_eq!(ShardSpec::parse(bad), None, "{bad:?} must not parse");
    }
}

#[test]
fn cells_with_loss_use_distinct_derived_seeds() {
    let m = mixed_matrix();
    let results = SweepEngine::new(3).run(&m);
    let mut seeds: Vec<u64> = results.iter().map(|r| r.cell_seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), results.len(), "cell seeds must not collide");
}

#[test]
fn fig7_scheme_list_matches_paper_legend() {
    let schemes = Scheme::fig7();
    assert_eq!(schemes.len(), 9, "the paper's Figure 7 has nine schemes");
    assert!(!schemes.contains(&Scheme::CubicCodel));
    assert!(!schemes.contains(&Scheme::Omniscient));
    assert!(schemes.contains(&Scheme::Sprout));
    assert!(schemes.contains(&Scheme::SproutEwma));
}

#[test]
fn matrix_builder_queue_resolution_matches_needs_codel() {
    // The full fig7 matrix (nine schemes + Cubic-CoDel over eight links):
    // the builder's Auto queue must agree with Scheme::needs_codel for
    // every cell.
    let mut schemes = Scheme::fig7().to_vec();
    schemes.push(Scheme::CubicCodel);
    let m = ScenarioMatrix::builder("fig7-consistency")
        .schemes(schemes)
        .links(NetProfile::all())
        .build();
    assert_eq!(m.len(), 80);
    for cell in m.cells() {
        let scheme = cell.workload.scheme().expect("scheme matrix");
        let resolved = cell.queue.resolve(&cell.workload);
        assert_eq!(
            resolved == ResolvedQueue::CoDel,
            scheme.needs_codel(),
            "{} queue resolution disagrees with needs_codel",
            scheme.name()
        );
        assert_eq!(cell.queue, QueueSpec::Auto);
    }
}
