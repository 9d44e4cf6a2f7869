//! The two offline objectives (paper Eq. 1–5).
//!
//! Construction precomputes each router's inter-layer traffic weight
//! `W_i` and, per (router, elevator), the traffic-weighted route-length
//! sum of Eq. 5. An evaluation then walks only the set bits of every
//! router's subset mask — O(N + Σ|A_i|) work, at most O(N·E), and no heap
//! allocation — which is what lets AMOSA afford ~10⁵ evaluations.
//!
//! Under the uniform matrix every off-diagonal `f_ij` is the same
//! `1/(N−1)`, so the sum for router `i` via elevator `e` is one fixed
//! sequence of additions whose terms depend only on `i`'s layer `z_i`, on
//! `e` and on the source-to-elevator distance `d_se(i, e)`; likewise `W_i`
//! depends only on `z_i`. [`ObjectiveEvaluator::uniform`] therefore
//! computes each distinct `(z_i, e, d_se)` sum once, with the same
//! operations in the same order as [`ObjectiveEvaluator::with_traffic`],
//! and its tables are bit-identical to
//! `with_traffic(&TrafficMatrix::uniform(n))` without the `N × N` matrix
//! or the O(N²·E) pair loop.

use crate::offline::SubsetAssignment;
use noc_topology::{Coord, ElevatorSet, Mesh3d, NodeId};
use noc_traffic::TrafficMatrix;

/// Subset masks are `u64`, so an evaluator covers at most 64 elevators.
const MAX_ELEVATORS: usize = 64;

/// Evaluates a [`SubsetAssignment`] against Eq. 3 (elevator-utilisation
/// variance) and Eq. 5 (average inter-layer distance).
#[derive(Debug, Clone)]
pub struct ObjectiveEvaluator {
    node_count: usize,
    elevator_count: usize,
    /// `W_i = Σ_{j : layer(j) ≠ layer(i)} f_ij` — each router's inter-layer
    /// traffic weight (the inner sum of Eq. 1).
    inter_layer_weight: Vec<f64>,
    /// `S[i][e] = Σ_{j inter-layer} f̃_ij · (d_se + d_e + d_ed)` — the
    /// weighted distance sum of Eq. 5's numerator for router `i` via
    /// elevator `e`.
    distance_sum: Vec<f64>,
    /// Eq. 5's denominator: total inter-layer traffic weight.
    total_weight: f64,
}

impl ObjectiveEvaluator {
    /// Builds the evaluator under the **uniform traffic assumption** the
    /// paper uses for its offline stage ("the most pessimistic assumption").
    ///
    /// Bit-identical to `with_traffic(&TrafficMatrix::uniform(n))` (see
    /// the module docs) in O(N·E) memory.
    ///
    /// # Panics
    ///
    /// Panics if `elevators` holds more than 64 columns.
    #[must_use]
    pub fn uniform(mesh: &Mesh3d, elevators: &ElevatorSet) -> Self {
        let n = mesh.node_count();
        let per_layer = mesh.nodes_per_layer();
        let e_count = elevators.len();
        assert!(e_count <= MAX_ELEVATORS, "at most 64 elevators");
        // `TrafficMatrix::uniform`'s off-diagonal entry: a row of N − 1
        // ones divided by its (exact) sum.
        let f = if n > 1 { 1.0 / (n - 1) as f64 } else { 0.0 };

        // Every layer has X·Y routers, so every router adds `f` the same
        // number of times, in the same order as the pair loop.
        let mut w = 0.0;
        for _ in 0..n - per_layer {
            w += f;
        }
        let mut total_weight = 0.0;
        for _ in 0..n {
            total_weight += w;
        }

        // XY distance from every elevator column to every in-layer
        // position, in dense (id) order: both `d_se` and `d_ed`.
        let column_distance: Vec<u32> = elevators
            .iter()
            .flat_map(|(_, (ex, ey))| {
                mesh.layer_coords(0)
                    .map(move |c| c.xy_distance(Coord::new(ex, ey, 0)))
            })
            .collect();
        // Dense ids run layer by layer, so the pair loop's destinations
        // for source layer `z` are every other layer in ascending order,
        // each walked in in-layer order.
        let sum_for = |z: u8, e: usize, d_se: f64| {
            let mut sum = 0.0;
            for zj in (0..mesh.layers() as u8).filter(|&zj| zj != z) {
                let dz = f64::from(z.abs_diff(zj));
                for &d in &column_distance[e * per_layer..(e + 1) * per_layer] {
                    sum += f * (d_se + dz + f64::from(d));
                }
            }
            sum
        };

        // Memo of the sums keyed by (z_i, e, d_se); NaN marks an entry not
        // computed yet (a sum of finite terms is never NaN).
        let d_span = mesh.x() + mesh.y() - 1;
        let mut memo = vec![f64::NAN; mesh.layers() * e_count * d_span];
        let mut distance_sum = vec![0.0; n * e_count];
        for (i, row) in distance_sum.chunks_exact_mut(e_count).enumerate() {
            let (z, position) = ((i / per_layer) as u8, i % per_layer);
            for (e, slot) in row.iter_mut().enumerate() {
                let d = column_distance[e * per_layer + position];
                let key = (usize::from(z) * e_count + e) * d_span + d as usize;
                if memo[key].is_nan() {
                    memo[key] = sum_for(z, e, f64::from(d));
                }
                *slot = memo[key];
            }
        }

        Self {
            node_count: n,
            elevator_count: e_count,
            inter_layer_weight: vec![w; n],
            distance_sum,
            total_weight,
        }
    }

    /// Builds the evaluator for a known traffic matrix (the paper's
    /// "if the traffic is known a priori" refinement).
    ///
    /// # Panics
    ///
    /// Panics if `traffic` does not cover `mesh`'s node count, or if
    /// `elevators` holds more than 64 columns.
    #[must_use]
    pub fn with_traffic(mesh: &Mesh3d, elevators: &ElevatorSet, traffic: &TrafficMatrix) -> Self {
        assert_eq!(
            traffic.len(),
            mesh.node_count(),
            "traffic matrix must cover the mesh"
        );
        let n = mesh.node_count();
        let e_count = elevators.len();
        assert!(e_count <= MAX_ELEVATORS, "at most 64 elevators");
        let mut inter_layer_weight = vec![0.0; n];
        let mut distance_sum = vec![0.0; n * e_count];
        let mut total_weight = 0.0;

        for i in mesh.node_ids() {
            let ci = mesh.coord(i);
            let row = traffic.row(i);
            let mut w_i = 0.0;
            // Per-elevator accumulators for this source.
            let mut dist: Vec<f64> = vec![0.0; e_count];
            for j in mesh.node_ids() {
                let cj = mesh.coord(j);
                if ci.z == cj.z {
                    continue; // Eq. 4: same-layer pairs contribute 0.
                }
                let f = row[j.index()];
                if f == 0.0 {
                    continue;
                }
                w_i += f;
                let dz = f64::from(ci.z.abs_diff(cj.z));
                for (eid, (ex, ey)) in elevators.iter() {
                    let pillar = Coord::new(ex, ey, ci.z);
                    let d_se = f64::from(ci.xy_distance(pillar));
                    let d_ed = f64::from(Coord::new(ex, ey, cj.z).xy_distance(cj));
                    dist[eid.index()] += f * (d_se + dz + d_ed);
                }
            }
            inter_layer_weight[i.index()] = w_i;
            total_weight += w_i;
            distance_sum[i.index() * e_count..(i.index() + 1) * e_count].copy_from_slice(&dist);
        }

        Self {
            node_count: n,
            elevator_count: e_count,
            inter_layer_weight,
            distance_sum,
            total_weight,
        }
    }

    /// Number of elevators the evaluator was built for.
    #[must_use]
    pub fn elevator_count(&self) -> usize {
        self.elevator_count
    }

    /// Number of routers the evaluator was built for.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Eq. 1: expected utilisation `U_e` of every elevator under
    /// `assignment`, assuming round-robin (uniform) choice within each
    /// subset.
    ///
    /// # Panics
    ///
    /// Panics if the assignment's shape disagrees with the evaluator.
    #[must_use]
    pub fn elevator_utilizations(&self, assignment: &SubsetAssignment) -> Vec<f64> {
        let mut utilization = vec![0.0; self.elevator_count];
        self.fill_utilizations(assignment, &mut utilization);
        utilization
    }

    /// Adds every router's Eq. 1 share into `utilization` (zeroed, one
    /// slot per elevator), walking only the subsets' set bits.
    fn fill_utilizations(&self, assignment: &SubsetAssignment, utilization: &mut [f64]) {
        assert_eq!(
            assignment.len(),
            self.node_count,
            "assignment/mesh mismatch"
        );
        assert_eq!(
            assignment.elevator_count(),
            self.elevator_count,
            "assignment/elevator mismatch"
        );
        for node in 0..self.node_count {
            let id = NodeId(node as u16);
            let share = self.inter_layer_weight[node] / assignment.subset_size(id) as f64;
            for e in assignment.subset(id) {
                utilization[e.index()] += share;
            }
        }
    }

    /// Eq. 3: variance of [`ObjectiveEvaluator::elevator_utilizations`].
    #[must_use]
    pub fn utilization_variance(&self, assignment: &SubsetAssignment) -> f64 {
        let mut buffer = [0.0; MAX_ELEVATORS];
        let u = &mut buffer[..self.elevator_count];
        self.fill_utilizations(assignment, u);
        let mean = u.iter().sum::<f64>() / u.len() as f64;
        u.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / u.len() as f64
    }

    /// Eq. 5: traffic-weighted average inter-layer route length under
    /// `assignment` (uniform choice within each subset). Under the uniform
    /// matrix this is exactly the paper's unweighted average distance.
    #[must_use]
    pub fn average_distance(&self, assignment: &SubsetAssignment) -> f64 {
        assert_eq!(
            assignment.len(),
            self.node_count,
            "assignment/mesh mismatch"
        );
        if self.total_weight == 0.0 {
            return 0.0;
        }
        let mut total = 0.0;
        for (node, row) in self
            .distance_sum
            .chunks_exact(self.elevator_count)
            .enumerate()
        {
            let id = NodeId(node as u16);
            let inv = 1.0 / assignment.subset_size(id) as f64;
            for e in assignment.subset(id) {
                total += inv * row[e.index()];
            }
        }
        total / self.total_weight
    }

    /// Both objectives as `(utilization_variance, average_distance)`.
    #[must_use]
    pub fn evaluate(&self, assignment: &SubsetAssignment) -> (f64, f64) {
        (
            self.utilization_variance(assignment),
            self.average_distance(assignment),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::ElevatorId;

    fn fixture() -> (Mesh3d, ElevatorSet) {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3), (1, 2)]).unwrap();
        (mesh, elevators)
    }

    /// The scaling-study pillar grid: one column per 4×4 tile.
    fn pillar_grid(x: u8, y: u8) -> Vec<(u8, u8)> {
        (0..x / 4)
            .flat_map(|i| (0..y / 4).map(move |j| (4 * i + 2, 4 * j + 2)))
            .collect()
    }

    #[test]
    fn uniform_tables_are_bit_identical_to_the_uniform_matrix() {
        let mut fabrics: Vec<(Mesh3d, ElevatorSet)> = noc_topology::placement::Placement::ALL
            .iter()
            .map(|p| p.instantiate())
            .collect();
        for (x, y, z) in [(8, 8, 8), (16, 16, 8), (12, 8, 3)] {
            let mesh = Mesh3d::new(x.into(), y.into(), z).unwrap();
            let elevators = ElevatorSet::new(&mesh, pillar_grid(x, y)).unwrap();
            fabrics.push((mesh, elevators));
        }
        for (mesh, elevators) in fabrics {
            let fast = ObjectiveEvaluator::uniform(&mesh, &elevators);
            let oracle = ObjectiveEvaluator::with_traffic(
                &mesh,
                &elevators,
                &TrafficMatrix::uniform(mesh.node_count()),
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let shape = (mesh.x(), mesh.y(), mesh.layers());
            assert_eq!(fast.node_count, oracle.node_count);
            assert_eq!(fast.elevator_count, oracle.elevator_count);
            assert_eq!(
                bits(&fast.inter_layer_weight),
                bits(&oracle.inter_layer_weight),
                "W on {shape:?}"
            );
            assert_eq!(
                bits(&fast.distance_sum),
                bits(&oracle.distance_sum),
                "S on {shape:?}"
            );
            assert_eq!(
                fast.total_weight.to_bits(),
                oracle.total_weight.to_bits(),
                "total weight on {shape:?}"
            );
        }
    }

    #[test]
    fn full_subsets_have_zero_variance() {
        let (mesh, elevators) = fixture();
        let eval = ObjectiveEvaluator::uniform(&mesh, &elevators);
        let full = SubsetAssignment::full(&mesh, &elevators);
        // Every router splits its weight equally over all elevators, so all
        // utilisations are identical.
        let variance = eval.utilization_variance(&full);
        assert!(variance < 1e-18, "variance {variance}");
    }

    #[test]
    fn nearest_subsets_have_positive_variance_with_skewed_elevators() {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        // Two adjacent elevators in one corner: nearest-assignment loads
        // them very unevenly relative to a far one.
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (0, 1), (3, 3)]).unwrap();
        let eval = ObjectiveEvaluator::uniform(&mesh, &elevators);
        let nearest = SubsetAssignment::nearest(&mesh, &elevators);
        assert!(eval.utilization_variance(&nearest) > 0.0);
    }

    #[test]
    fn utilizations_conserve_total_weight() {
        let (mesh, elevators) = fixture();
        let eval = ObjectiveEvaluator::uniform(&mesh, &elevators);
        for assignment in [
            SubsetAssignment::full(&mesh, &elevators),
            SubsetAssignment::nearest(&mesh, &elevators),
        ] {
            let total: f64 = eval.elevator_utilizations(&assignment).iter().sum();
            let expected: f64 = eval.inter_layer_weight.iter().sum();
            assert!(
                (total - expected).abs() < 1e-9,
                "weight must be conserved: {total} vs {expected}"
            );
        }
    }

    #[test]
    fn uniform_inter_layer_weight_matches_closed_form() {
        let (mesh, elevators) = fixture();
        let eval = ObjectiveEvaluator::uniform(&mesh, &elevators);
        // Row-normalised uniform: W_i = (N - N/L) / (N - 1) = 48/63.
        let expected = 48.0 / 63.0;
        for &w in &eval.inter_layer_weight {
            assert!((w - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn average_distance_prefers_central_elevator() {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (1, 2)]).unwrap();
        let eval = ObjectiveEvaluator::uniform(&mesh, &elevators);
        let corner_only = SubsetAssignment::from_masks(vec![0b01; mesh.node_count()], 2).unwrap();
        let central_only = SubsetAssignment::from_masks(vec![0b10; mesh.node_count()], 2).unwrap();
        assert!(
            eval.average_distance(&central_only) < eval.average_distance(&corner_only),
            "a central elevator must yield shorter average routes"
        );
    }

    #[test]
    fn average_distance_bounded_below_by_vertical_hops() {
        let (mesh, elevators) = fixture();
        let eval = ObjectiveEvaluator::uniform(&mesh, &elevators);
        let nearest = SubsetAssignment::nearest(&mesh, &elevators);
        // Mean |Δz| over inter-layer pairs of a 4-layer stack is 20/12.
        let min_vertical = 20.0 / 12.0;
        assert!(eval.average_distance(&nearest) > min_vertical);
    }

    #[test]
    fn evaluate_returns_both_objectives() {
        let (mesh, elevators) = fixture();
        let eval = ObjectiveEvaluator::uniform(&mesh, &elevators);
        let nearest = SubsetAssignment::nearest(&mesh, &elevators);
        let (var, dist) = eval.evaluate(&nearest);
        assert_eq!(var, eval.utilization_variance(&nearest));
        assert_eq!(dist, eval.average_distance(&nearest));
    }

    #[test]
    fn known_traffic_shifts_utilization() {
        let mesh = Mesh3d::new(2, 2, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (1, 1)]).unwrap();
        // All traffic flows node 0 (layer 0) -> node 7 (layer 1).
        let mut raw = vec![0.0; 64];
        raw[7] = 1.0;
        let traffic = TrafficMatrix::from_raw(8, raw);
        let eval = ObjectiveEvaluator::with_traffic(&mesh, &elevators, &traffic);
        let via_e0 = SubsetAssignment::from_masks(vec![0b01; 8], 2).unwrap();
        let u = eval.elevator_utilizations(&via_e0);
        assert!((u[ElevatorId(0).index()] - 1.0).abs() < 1e-12);
        assert_eq!(u[ElevatorId(1).index()], 0.0);
    }
}
