//! The offline stage (AMOSA over elevator subsets), plain and traced.

use crate::report::Outcome;
use crate::spans::Recorder;
use crate::wrap::TimedProblem;
use crate::AMOSA_SEED;
use adele::offline::{
    ElevatorSubsetProblem, ObjectiveEvaluator, OfflineOptimizer, OfflineResult, SelectionStrategy,
    SolutionPoint, SubsetAssignment,
};
use amosa::{Amosa, AmosaParams};
use noc_topology::{ElevatorSet, Mesh3d};

/// The fast AMOSA schedule with the fixed [`AMOSA_SEED`].
fn params() -> AmosaParams {
    AmosaParams::fast(AMOSA_SEED)
}

/// AMOSA, then the balanced pick from its front.
#[must_use]
pub fn assignment(mesh: Mesh3d, elevators: &ElevatorSet) -> SubsetAssignment {
    OfflineOptimizer::new(mesh, elevators.clone())
        .with_params(params())
        .optimize()
        .select(SelectionStrategy::balanced())
        .assignment
        .clone()
}

/// The offline stage, traced: `OfflineOptimizer::optimize` timed whole,
/// then the same AMOSA run over a timed problem to attribute its
/// objective evaluations. Both must pick the same assignment. Returns the
/// optimiser's seconds, and the evaluations with their nanoseconds.
pub fn traced(
    mesh: Mesh3d,
    elevators: &ElevatorSet,
    rec: &Recorder,
    root: u64,
    out: &mut Outcome,
) -> (f64, u64, u64) {
    let t0 = rec.now();
    let picked = assignment(mesh, elevators);
    let t1 = rec.now();
    rec.record(rec.id(), root, "adele.offline.optimize", 0, t0, t1);

    let problem = TimedProblem::new(ElevatorSubsetProblem::with_evaluator(
        &mesh,
        elevators,
        ObjectiveEvaluator::uniform(&mesh, elevators),
    ));
    let amosa = Amosa::new(problem, params());
    let run = amosa.run();
    let t2 = rec.now();
    let (calls, spent) = amosa.problem().evaluations();
    let span = rec.id();
    rec.record_aggregate(span, 0, t1, &[("amosa.evaluate", spent, calls)]);
    rec.record(span, root, "amosa.run", 0, t1, t2);
    let mut pareto: Vec<SolutionPoint> = run
        .archive
        .into_iter()
        .map(|p| SolutionPoint {
            utilization_variance: p.objectives[0],
            average_distance: p.objectives[1],
            assignment: p.solution,
        })
        .collect();
    pareto.sort_by(|a, b| a.utilization_variance.total_cmp(&b.utilization_variance));
    let front = OfflineResult {
        pareto,
        explored: Vec::new(),
        evaluations: run.evaluations,
    };
    out.check(
        (front.select(SelectionStrategy::balanced()).assignment == picked)
            .then_some(())
            .ok_or_else(|| "timed AMOSA run picked another assignment".to_string()),
    );
    ((t1 - t0) as f64 / 1e9, calls, spent)
}
