//! Property tests for the AdEle core: Eq. 8–9 skip-probability bounds,
//! EWMA cost behaviour, objective sanity, and subset validity under the
//! AMOSA search moves.

use adele::offline::{ElevatorSubsetProblem, ObjectiveEvaluator, SubsetAssignment};
use adele::online::{skip_probability, AdeleSelector, ElevatorSelector, SourceFeedback};
use amosa::Problem;
use noc_topology::{Coord, ElevatorId, ElevatorSet, Mesh3d, NodeId};
use noc_traffic::TrafficMatrix;
use proptest::prelude::*;
use rand::{rngs::StdRng, RngCore, SeedableRng};

fn arb_topology() -> impl Strategy<Value = (Mesh3d, ElevatorSet)> {
    (2usize..=5, 2usize..=5, 2usize..=4).prop_flat_map(|(x, y, z)| {
        let mesh = Mesh3d::new(x, y, z).unwrap();
        prop::collection::hash_set((0..x as u8, 0..y as u8), 1..=4).prop_map(move |cols| {
            let set = ElevatorSet::new(&mesh, cols).unwrap();
            (mesh, set)
        })
    })
}

/// Eq. 1–5 written out directly: the pair loop over `traffic`, then every
/// subset walked by testing all 64 bit positions.
fn reference_objectives(
    mesh: &Mesh3d,
    elevators: &ElevatorSet,
    traffic: &TrafficMatrix,
    masks: &[u64],
) -> (f64, f64) {
    let n = mesh.node_count();
    let e_count = elevators.len();
    let mut weight = vec![0.0; n];
    let mut sums = vec![0.0; n * e_count];
    let mut total_weight = 0.0;
    for i in mesh.node_ids() {
        let ci = mesh.coord(i);
        for j in mesh.node_ids() {
            let cj = mesh.coord(j);
            let f = traffic.row(i)[j.index()];
            if ci.z == cj.z || f == 0.0 {
                continue;
            }
            weight[i.index()] += f;
            let dz = f64::from(ci.z.abs_diff(cj.z));
            for (e, (ex, ey)) in elevators.iter() {
                let d_se = f64::from(ci.xy_distance(Coord::new(ex, ey, ci.z)));
                let d_ed = f64::from(Coord::new(ex, ey, cj.z).xy_distance(cj));
                sums[i.index() * e_count + e.index()] += f * (d_se + dz + d_ed);
            }
        }
        total_weight += weight[i.index()];
    }
    let members = |mask: u64| (0..64).filter(move |&b| mask & (1u64 << b) != 0);
    let mut utilization = vec![0.0; e_count];
    for (i, &mask) in masks.iter().enumerate() {
        let share = weight[i] / mask.count_ones() as f64;
        for b in members(mask) {
            utilization[b] += share;
        }
    }
    let mean = utilization.iter().sum::<f64>() / e_count as f64;
    let variance = utilization
        .iter()
        .map(|&x| (x - mean) * (x - mean))
        .sum::<f64>()
        / e_count as f64;
    if total_weight == 0.0 {
        return (variance, 0.0);
    }
    let mut total = 0.0;
    for (i, &mask) in masks.iter().enumerate() {
        let inv = 1.0 / mask.count_ones() as f64;
        for b in members(mask) {
            total += inv * sums[i * e_count + b];
        }
    }
    (variance, total / total_weight)
}

proptest! {
    /// Eq. 9 output is always a probability in [0, 1-ξ].
    #[test]
    fn skip_probability_is_bounded(
        cost in 0.0f64..100.0,
        total in 0.0f64..400.0,
        size in 1usize..16,
        xi in 0.0f64..0.5,
    ) {
        let ps = skip_probability(cost, total, size, xi);
        prop_assert!(ps >= 0.0, "PS {ps} negative");
        prop_assert!(ps <= 1.0 - xi + 1e-12, "PS {ps} exceeds 1-xi");
    }

    /// Eq. 9 is monotone in the relative cost.
    #[test]
    fn skip_probability_is_monotone(
        total in 0.1f64..100.0,
        size in 1usize..10,
        xi in 0.0f64..0.4,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let ps_lo = skip_probability(lo * total, total, size, xi);
        let ps_hi = skip_probability(hi * total, total, size, xi);
        prop_assert!(ps_lo <= ps_hi + 1e-12);
    }

    /// Objectives are finite and non-negative for arbitrary valid
    /// assignments; full subsets always have zero variance under uniform
    /// traffic.
    #[test]
    fn objectives_are_sane((mesh, elevators) in arb_topology(), seed in 0u64..100) {
        let evaluator = ObjectiveEvaluator::uniform(&mesh, &elevators);
        let problem = ElevatorSubsetProblem::new(&mesh, &elevators);
        let mut rng = StdRng::seed_from_u64(seed);
        let assignment = problem.random_solution(&mut rng);
        let (variance, distance) = evaluator.evaluate(&assignment);
        prop_assert!(variance.is_finite() && variance >= 0.0);
        prop_assert!(distance.is_finite() && distance >= 0.0);
        if mesh.layers() > 1 {
            prop_assert!(distance >= 1.0, "inter-layer routes need >= 1 hop");
        }

        let full = SubsetAssignment::full(&mesh, &elevators);
        prop_assert!(evaluator.utilization_variance(&full) < 1e-15);
    }

    /// The uniform evaluator, the evaluator over the explicit uniform
    /// matrix and the direct Eq. 1–5 reference agree to the bit on
    /// arbitrary valid subsets.
    #[test]
    fn uniform_objectives_match_reference_bit_for_bit(
        (mesh, elevators) in arb_topology(),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let valid = (1u64 << elevators.len()) - 1;
        let masks: Vec<u64> = (0..mesh.node_count())
            .map(|_| loop {
                let mask = rng.next_u64() & valid;
                if mask != 0 {
                    break mask;
                }
            })
            .collect();
        let assignment = SubsetAssignment::from_masks(masks.clone(), elevators.len()).unwrap();
        let matrix = TrafficMatrix::uniform(mesh.node_count());
        let (v_ref, d_ref) = reference_objectives(&mesh, &elevators, &matrix, &masks);
        for evaluator in [
            ObjectiveEvaluator::uniform(&mesh, &elevators),
            ObjectiveEvaluator::with_traffic(&mesh, &elevators, &matrix),
        ] {
            let (v, d) = evaluator.evaluate(&assignment);
            prop_assert_eq!(v.to_bits(), v_ref.to_bits(), "variance {} vs {}", v, v_ref);
            prop_assert_eq!(d.to_bits(), d_ref.to_bits(), "distance {} vs {}", d, d_ref);
        }
    }

    /// The AMOSA neighbourhood never produces an invalid assignment, even
    /// over long random walks.
    #[test]
    fn search_moves_preserve_validity(
        (mesh, elevators) in arb_topology(),
        seed in 0u64..100,
        steps in 1usize..300,
    ) {
        let problem = ElevatorSubsetProblem::new(&mesh, &elevators);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = problem.random_solution(&mut rng);
        for _ in 0..steps {
            s = problem.neighbour(&s, &mut rng);
        }
        prop_assert!(s.check_compatible(&mesh, &elevators).is_ok());
        for node in mesh.node_ids() {
            prop_assert!(s.subset_size(node) >= 1);
        }
    }

    /// Cost EWMA stays within the convex hull of observed samples:
    /// clamped blocking costs are non-negative and bounded by the largest
    /// observed T, so costs are too.
    #[test]
    fn feedback_costs_stay_bounded(
        (mesh, elevators) in arb_topology(),
        spreads in prop::collection::vec(0u64..500, 1..40),
        seed in 0u64..50,
    ) {
        let assignment = SubsetAssignment::full(&mesh, &elevators);
        let mut selector = AdeleSelector::from_assignment(
            &mesh,
            &elevators,
            &assignment,
            adele::AdeleConfig::paper_default(),
            seed,
        ).unwrap();
        let node = NodeId(0);
        let elevator = ElevatorId(0);
        let flits = 20u16;
        let mut max_t: f64 = 0.0;
        for spread in spreads {
            let fb = SourceFeedback {
                src: node,
                elevator,
                head_departure: 100,
                tail_departure: 100 + spread,
                packet_flits: flits,
            };
            max_t = max_t.max(fb.blocking_cost());
            selector.on_source_departure(&fb);
            let cost = selector.cost(node, elevator).unwrap();
            prop_assert!(cost >= 0.0);
            prop_assert!(cost <= max_t + 1e-12, "cost {cost} exceeds max sample {max_t}");
        }
    }

    /// Text serialisation round-trips arbitrary valid assignments.
    #[test]
    fn assignment_text_round_trip((mesh, elevators) in arb_topology(), seed in 0u64..100) {
        let problem = ElevatorSubsetProblem::new(&mesh, &elevators);
        let mut rng = StdRng::seed_from_u64(seed);
        let assignment = problem.random_solution(&mut rng);
        let parsed = SubsetAssignment::from_text(&assignment.to_text()).unwrap();
        prop_assert_eq!(parsed, assignment);
    }
}
