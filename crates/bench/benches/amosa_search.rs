//! Micro-benchmarks of the offline stage: objective evaluation throughput
//! (the inner loop of AMOSA), the set-up before it (evaluator build,
//! preset column search) and a complete small annealing run.

use adele::offline::{ElevatorSubsetProblem, ObjectiveEvaluator, SubsetAssignment};
use adele_bench::pillar_grid;
use amosa::{Amosa, AmosaParams, Problem};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noc_topology::placement::Placement;
use noc_topology::{ElevatorSet, Mesh3d};
use rand::{rngs::StdRng, SeedableRng};
use std::hint::black_box;

/// The 16×16×8 mesh with one pillar per 4×4 tile (the loaded benchmark
/// fabric).
fn large_fabric() -> (Mesh3d, ElevatorSet) {
    let mesh = Mesh3d::new(16, 16, 8).expect("valid mesh");
    let elevators = ElevatorSet::new(&mesh, pillar_grid(16, 16)).expect("grid fits");
    (mesh, elevators)
}

fn bench_objectives(c: &mut Criterion) {
    let mut group = c.benchmark_group("amosa_objectives");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for placement in [Placement::Ps1, Placement::Pm] {
        let (mesh, elevators) = placement.instantiate();
        let evaluator = ObjectiveEvaluator::uniform(&mesh, &elevators);
        let assignment = SubsetAssignment::nearest(&mesh, &elevators);
        group.bench_with_input(
            BenchmarkId::new("evaluate", placement.name()),
            &(),
            |b, ()| b.iter(|| black_box(evaluator.evaluate(black_box(&assignment)))),
        );
    }
    // An AMOSA-style candidate (nearest plus random local extras) on the
    // large mesh.
    let (mesh, elevators) = large_fabric();
    let problem = ElevatorSubsetProblem::new(&mesh, &elevators);
    let assignment = problem.random_solution(&mut StdRng::seed_from_u64(1));
    group.bench_function("evaluate/16x16x8", |b| {
        b.iter(|| black_box(problem.evaluator().evaluate(black_box(&assignment))))
    });
    group.finish();
}

fn bench_setup(c: &mut Criterion) {
    let mut group = c.benchmark_group("amosa_setup");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    for (name, (mesh, elevators)) in [
        ("PM", Placement::Pm.instantiate()),
        ("16x16x8", large_fabric()),
    ] {
        group.bench_function(format!("uniform_evaluator/{name}"), |b| {
            b.iter(|| black_box(ObjectiveEvaluator::uniform(&mesh, &elevators)))
        });
    }
    group.bench_function("instantiate/PM", |b| {
        b.iter(|| black_box(Placement::Pm.instantiate()))
    });
    group.finish();
}

fn bench_full_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("amosa_search");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    group.bench_function("fast_schedule_ps1", |b| {
        let (mesh, elevators) = Placement::Ps1.instantiate();
        b.iter(|| {
            let problem = ElevatorSubsetProblem::new(&mesh, &elevators);
            let result = Amosa::new(problem, AmosaParams::fast(7)).run();
            black_box(result.archive.len())
        });
    });
    group.finish();
}

fn bench_neighbour_moves(c: &mut Criterion) {
    let (mesh, elevators) = Placement::Pm.instantiate();
    let problem = ElevatorSubsetProblem::new(&mesh, &elevators);
    let mut rng = StdRng::seed_from_u64(1);
    let solution = problem.random_solution(&mut rng);
    c.bench_function("amosa_neighbour_pm", |b| {
        b.iter(|| black_box(problem.neighbour(black_box(&solution), &mut rng)))
    });
}

criterion_group!(
    benches,
    bench_objectives,
    bench_setup,
    bench_full_search,
    bench_neighbour_moves
);
criterion_main!(benches);
