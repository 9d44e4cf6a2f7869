//! Reproducibility: identical seeds produce bit-identical results across
//! the whole stack (traffic, selection, simulation, offline search), and
//! different seeds genuinely change the stochastic components.

use adele::offline::{OfflineOptimizer, SelectionStrategy};
use adele_bench::{make_selector, pillar_grid, Policy, Workload};
use amosa::AmosaParams;
use noc_exp::fnv1a;
use noc_sim::harness::run_once;
use noc_sim::SimConfig;
use noc_topology::placement::Placement;
use noc_topology::{ElevatorSet, Mesh3d};

fn run_full_stack(sim_seed: u64, traffic_seed: u64, amosa_seed: u64) -> noc_sim::RunSummary {
    let (mesh, elevators) = Placement::Ps1.instantiate();
    let offline = OfflineOptimizer::new(mesh, elevators.clone())
        .with_params(AmosaParams::fast(amosa_seed))
        .optimize();
    let assignment = &offline.select(SelectionStrategy::LatencyLeaning).assignment;
    let config = SimConfig::new(mesh, elevators.clone())
        .with_phases(300, 1_500, 10_000)
        .with_seed(sim_seed);
    run_once(
        &config,
        Workload::Uniform.build(&mesh, 0.003, traffic_seed),
        make_selector(Policy::Adele, &mesh, &elevators, Some(assignment), sim_seed),
    )
    .unwrap()
}

#[test]
fn identical_seeds_reproduce_bit_identical_summaries() {
    let a = run_full_stack(1, 2, 3);
    let b = run_full_stack(1, 2, 3);
    assert_eq!(a, b);
}

/// The sharded engine keeps the same contract at every shard count: each
/// `k` reproduces bit-identically across repeats, and — stronger — every
/// `k` reproduces the `k = 1` summary exactly, full stack (offline AMOSA
/// assignment, AdEle selection, simulation).
#[test]
fn every_shard_count_reproduces_the_sequential_summary() {
    let (mesh, elevators) = Placement::Ps1.instantiate();
    let offline = OfflineOptimizer::new(mesh, elevators.clone())
        .with_params(AmosaParams::fast(3))
        .optimize();
    let assignment = &offline.select(SelectionStrategy::LatencyLeaning).assignment;
    let run = |shards: usize| {
        let config = SimConfig::new(mesh, elevators.clone())
            .with_phases(300, 1_500, 10_000)
            .with_seed(1)
            .with_shards(shards);
        run_once(
            &config,
            Workload::Uniform.build(&mesh, 0.003, 2),
            make_selector(Policy::Adele, &mesh, &elevators, Some(assignment), 1),
        )
        .unwrap()
    };
    let sequential = run(1);
    assert_ne!(sequential.delivered_packets, 0, "sanity: packets flowed");
    for shards in [2usize, 4, 8] {
        let a = run(shards);
        let b = run(shards);
        assert_eq!(a, b, "shards={shards} must reproduce across repeats");
        assert_eq!(
            a, sequential,
            "shards={shards} must be bit-identical to the sequential engine"
        );
    }
}

#[test]
fn traffic_seed_changes_results() {
    let a = run_full_stack(1, 2, 3);
    let b = run_full_stack(1, 99, 3);
    assert_ne!(
        a.delivered_packets, 0,
        "sanity: the run must deliver packets"
    );
    assert!(
        a.avg_latency != b.avg_latency || a.delivered_packets != b.delivered_packets,
        "different traffic seeds should perturb results"
    );
}

/// The balanced AMOSA pick on the 16×16×8 pillar grid (the benchmark's
/// loaded mesh), pinned as the FNV-1a hash of its text form: any change
/// to the evaluator tables, the objective loops or the search moves'
/// random draws moves it.
#[test]
fn large_mesh_offline_pick_is_pinned() {
    let mesh = Mesh3d::new(16, 16, 8).unwrap();
    let elevators = ElevatorSet::new(&mesh, pillar_grid(16, 16)).unwrap();
    let offline = OfflineOptimizer::new(mesh, elevators)
        .with_params(AmosaParams::fast(0xADE1E))
        .optimize();
    let pick = &offline.select(SelectionStrategy::balanced()).assignment;
    assert_eq!(
        format!("{:016x}", fnv1a(pick.to_text().as_bytes())),
        "a229cb62d5522fdc"
    );
}

#[test]
fn amosa_seed_changes_offline_search_but_stays_valid() {
    let (mesh, elevators) = Placement::Ps1.instantiate();
    let a = OfflineOptimizer::new(mesh, elevators.clone())
        .with_params(AmosaParams::fast(3))
        .optimize();
    let b = OfflineOptimizer::new(mesh, elevators.clone())
        .with_params(AmosaParams::fast(4))
        .optimize();
    for result in [&a, &b] {
        for point in &result.pareto {
            point
                .assignment
                .check_compatible(&mesh, &elevators)
                .expect("front stays valid for any seed");
        }
    }
    let objs = |r: &adele::offline::OfflineResult| -> Vec<(f64, f64)> {
        r.pareto
            .iter()
            .map(|p| (p.utilization_variance, p.average_distance))
            .collect()
    };
    assert_ne!(
        objs(&a),
        objs(&b),
        "different seeds should explore differently"
    );
}

#[test]
fn baseline_policies_are_seed_independent() {
    // ElevFirst and CDA carry no internal randomness: two different
    // selector seeds over identical traffic must agree exactly.
    let (mesh, elevators) = Placement::Ps1.instantiate();
    let config = || {
        SimConfig::new(mesh, elevators.clone())
            .with_phases(300, 1_500, 10_000)
            .with_seed(5)
    };
    for policy in [Policy::ElevFirst, Policy::Cda] {
        let a = run_once(
            &config(),
            Workload::Uniform.build(&mesh, 0.003, 8),
            make_selector(policy, &mesh, &elevators, None, 111),
        )
        .unwrap();
        let b = run_once(
            &config(),
            Workload::Uniform.build(&mesh, 0.003, 8),
            make_selector(policy, &mesh, &elevators, None, 222),
        )
        .unwrap();
        assert_eq!(
            a,
            b,
            "{} must not depend on the selector seed",
            policy.name()
        );
    }
}
