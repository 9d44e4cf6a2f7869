//! Elevator-placement patterns.
//!
//! The paper evaluates four placements: `PS1`–`PS3` on a 4×4×4 mesh with
//! increasing elevator concentration, and `PM` on the large 8×8×4 mesh.
//! `PS1`, `PS3` and `PM` are "extracted to have an optimized average
//! distance"; `PS2` follows the FL-RuNS-style spread of [4]. The exact
//! coordinates are not published, so this module re-derives the optimised
//! patterns with a deterministic average-distance optimiser
//! ([`optimize_columns`]) and ships the results as named presets.

use crate::{Coord, ElevatorSet, Mesh3d, TopologyError};

/// Named elevator-placement patterns from the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// 3 elevators on 4×4 layers, average-distance optimised (sparsest).
    Ps1,
    /// 4 elevators on 4×4 layers, FL-RuNS-style symmetric spread [4].
    Ps2,
    /// 8 elevators on 4×4 layers, average-distance optimised (densest).
    Ps3,
    /// 12 elevators on 8×8 layers (the large 8×8×4 network).
    Pm,
}

impl Placement {
    /// All named placements, in paper order.
    pub const ALL: [Placement; 4] = [
        Placement::Ps1,
        Placement::Ps2,
        Placement::Ps3,
        Placement::Pm,
    ];

    /// The mesh this placement is defined for.
    ///
    /// # Panics
    ///
    /// Never panics: the preset dimensions are statically valid.
    #[must_use]
    pub fn mesh(self) -> Mesh3d {
        let (x, y, z) = match self {
            Placement::Ps1 | Placement::Ps2 | Placement::Ps3 => (4, 4, 4),
            Placement::Pm => (8, 8, 4),
        };
        Mesh3d::new(x, y, z).expect("preset dimensions are valid")
    }

    /// Number of elevator columns in this placement.
    #[must_use]
    pub fn elevator_count(self) -> usize {
        match self {
            Placement::Ps1 => 3,
            Placement::Ps2 => 4,
            Placement::Ps3 => 8,
            Placement::Pm => 12,
        }
    }

    /// Short display name matching the paper ("PS1", …, "PM").
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Placement::Ps1 => "PS1",
            Placement::Ps2 => "PS2",
            Placement::Ps3 => "PS3",
            Placement::Pm => "PM",
        }
    }

    /// Builds the elevator set for this placement on `mesh`.
    ///
    /// # Errors
    ///
    /// Returns an error if `mesh` does not match [`Placement::mesh`] (the
    /// presets are tied to their paper-specified mesh sizes).
    pub fn build(self, mesh: &Mesh3d) -> Result<ElevatorSet, TopologyError> {
        let expected = self.mesh();
        if *mesh != expected {
            return Err(TopologyError::InvalidDimensions {
                x: mesh.x(),
                y: mesh.y(),
                z: mesh.layers(),
            });
        }
        let columns: Vec<(u8, u8)> = match self {
            // Derived by `optimize_columns` (exhaustive for 4×4): see the
            // `presets_match_optimizer` test, which pins these to the
            // optimiser output.
            Placement::Ps1 => optimize_columns(mesh, 3),
            // FL-RuNS-style spread: one elevator per quadrant, rotated so no
            // two share a row or column.
            Placement::Ps2 => vec![(1, 0), (3, 1), (0, 2), (2, 3)],
            Placement::Ps3 => optimize_columns(mesh, 8),
            Placement::Pm => optimize_columns(mesh, 12),
        };
        ElevatorSet::new(mesh, columns)
    }

    /// Convenience: build both the mesh and the elevator set.
    #[must_use]
    pub fn instantiate(self) -> (Mesh3d, ElevatorSet) {
        let mesh = self.mesh();
        let elevators = self.build(&mesh).expect("preset placement is valid");
        (mesh, elevators)
    }
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Cost of a candidate elevator column set: the total best-case XY route
/// length `min_e (d(p, e) + d(e, q))` over all ordered pairs `(p, q)` of XY
/// positions. Because elevators are full pillars, the vertical term of
/// Eq. 4 is placement-independent and omitted.
#[cfg(test)]
fn placement_cost(grid: &[(u8, u8)], columns: &[(u8, u8)]) -> u64 {
    let dist = |a: (u8, u8), b: (u8, u8)| -> u64 {
        (a.0.abs_diff(b.0) as u64) + (a.1.abs_diff(b.1) as u64)
    };
    let mut total = 0u64;
    for &p in grid {
        for &q in grid {
            let best = columns
                .iter()
                .map(|&e| dist(p, e) + dist(e, q))
                .min()
                .expect("columns is non-empty");
            total += best;
        }
    }
    total
}

/// [`placement_cost`] made incremental. The route through column `c`
/// splits as `d(p, c) + d(c, q)`, so one `G × G` distance table serves
/// every column. A search keeps the per-pair minimum over the columns it
/// has chosen (`G²` entries, ordered pairs `(p, q)` row-major) and costs a
/// candidate by folding in the candidate's routes: O(G²) instead of
/// O(G²·k), with the same exact `u64` sums.
struct PairCosts {
    /// Grid positions per layer (`G`).
    positions: usize,
    /// `dist[c·G + p] = d(c, p)` between grid positions.
    dist: Vec<u32>,
}

impl PairCosts {
    fn new(grid: &[(u8, u8)]) -> Self {
        let dist = grid
            .iter()
            .flat_map(|&c| {
                grid.iter()
                    .map(move |&p| u32::from(c.0.abs_diff(p.0)) + u32::from(c.1.abs_diff(p.1)))
            })
            .collect();
        Self {
            positions: grid.len(),
            dist,
        }
    }

    /// Distances from grid column `c` to every position.
    fn distances(&self, c: usize) -> &[u32] {
        &self.dist[c * self.positions..(c + 1) * self.positions]
    }

    /// Lowers each pair's entry of `best` to its route through `c`.
    fn include(&self, best: &mut [u32], c: usize) {
        let d = self.distances(c);
        for (row, &dp) in best.chunks_exact_mut(self.positions).zip(d) {
            for (b, &dq) in row.iter_mut().zip(d) {
                *b = (*b).min(dp + dq);
            }
        }
    }

    /// Per-pair minimum over `columns` (`u32::MAX` everywhere if none).
    fn best_over(&self, columns: impl IntoIterator<Item = usize>) -> Vec<u32> {
        let mut best = vec![u32::MAX; self.positions * self.positions];
        for c in columns {
            self.include(&mut best, c);
        }
        best
    }

    /// [`placement_cost`] of the columns behind `best` plus column `c`.
    fn cost_with(&self, best: &[u32], c: usize) -> u64 {
        let d = self.distances(c);
        let mut total = 0u64;
        for (row, &dp) in best.chunks_exact(self.positions).zip(d) {
            for (&b, &dq) in row.iter().zip(d) {
                total += u64::from(b.min(dp + dq));
            }
        }
        total
    }
}

/// Finds `count` elevator columns minimising the average inter-layer route
/// length on `mesh` (the "optimized average distance" extraction the paper
/// describes for PS1, PS3 and PM).
///
/// Deterministic: exhaustive search when the layer has at most 16 columns,
/// otherwise greedy forward selection refined by pairwise-swap local search.
///
/// # Panics
///
/// Panics if `count` is zero or exceeds the number of columns.
#[must_use]
pub fn optimize_columns(mesh: &Mesh3d, count: usize) -> Vec<(u8, u8)> {
    let grid: Vec<(u8, u8)> = mesh
        .layer_coords(0)
        .map(|Coord { x, y, .. }| (x, y))
        .collect();
    assert!(
        count >= 1 && count <= grid.len(),
        "count {count} must be in 1..={}",
        grid.len()
    );

    let costs = PairCosts::new(&grid);
    if grid.len() <= 16 {
        exhaustive(&costs, count)
            .into_iter()
            .map(|c| grid[c])
            .collect()
    } else {
        let mut columns: Vec<(u8, u8)> = greedy_with_swaps(&costs, count)
            .into_iter()
            .map(|c| grid[c])
            .collect();
        columns.sort_unstable();
        columns
    }
}

/// Every `count`-combination of grid indices in lexicographic order; the
/// first of minimal cost wins. Combinations sharing a prefix share its
/// per-pair minimum, so each costs one fold of its last column.
fn exhaustive(costs: &PairCosts, count: usize) -> Vec<usize> {
    let g = costs.positions;
    let mut best: Option<(u64, Vec<usize>)> = None;
    let mut indices: Vec<usize> = (0..count).collect();
    // prefix[k] = per-pair minimum over indices[..k].
    let mut prefix: Vec<Vec<u32>> = vec![costs.best_over([])];
    loop {
        while prefix.len() < count {
            let k = prefix.len();
            let mut next = prefix[k - 1].clone();
            costs.include(&mut next, indices[k - 1]);
            prefix.push(next);
        }
        let cost = costs.cost_with(&prefix[count - 1], indices[count - 1]);
        if best.as_ref().is_none_or(|(b, _)| cost < *b) {
            best = Some((cost, indices.clone()));
        }
        // Advance the combination (lexicographic).
        let mut i = count;
        loop {
            if i == 0 {
                return best.expect("at least one combination").1;
            }
            i -= 1;
            if indices[i] != i + g - count {
                indices[i] += 1;
                for j in i + 1..count {
                    indices[j] = indices[j - 1] + 1;
                }
                prefix.truncate(i + 1);
                break;
            }
        }
    }
}

fn greedy_with_swaps(costs: &PairCosts, count: usize) -> Vec<usize> {
    let g = costs.positions;
    // Greedy forward selection.
    let mut chosen: Vec<usize> = Vec::with_capacity(count);
    let mut remaining: Vec<usize> = (0..g).collect();
    let mut best = costs.best_over([]);
    for _ in 0..count {
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, &cand)| (i, costs.cost_with(&best, cand)))
            .min_by_key(|&(_, cost)| cost)
            .expect("remaining is non-empty");
        let picked = remaining.swap_remove(best_idx);
        costs.include(&mut best, picked);
        chosen.push(picked);
    }
    // Pairwise-swap local search until a fixed point. Swapping slot `ci`
    // leaves the minimum over the other slots unchanged, so each trial is
    // that minimum folded with the candidate.
    let mut cost = best.iter().map(|&b| u64::from(b)).sum::<u64>();
    loop {
        let mut improved = false;
        for ci in 0..chosen.len() {
            let others = costs.best_over(
                chosen
                    .iter()
                    .enumerate()
                    .filter(|&(slot, _)| slot != ci)
                    .map(|(_, &c)| c),
            );
            for cand in 0..g {
                if chosen.contains(&cand) {
                    continue;
                }
                let trial = costs.cost_with(&others, cand);
                if trial < cost {
                    cost = trial;
                    chosen[ci] = cand;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_instantiate_with_declared_counts() {
        for placement in Placement::ALL {
            let (mesh, elevators) = placement.instantiate();
            assert_eq!(elevators.len(), placement.elevator_count(), "{placement}");
            for (_, (x, y)) in elevators.iter() {
                assert!(mesh.contains(Coord::new(x, y, 0)));
            }
        }
    }

    #[test]
    fn build_rejects_mismatched_mesh() {
        let wrong = Mesh3d::new(5, 5, 2).unwrap();
        assert!(Placement::Ps1.build(&wrong).is_err());
    }

    #[test]
    fn concentration_increases_ps1_to_ps3() {
        assert!(Placement::Ps1.elevator_count() < Placement::Ps2.elevator_count());
        assert!(Placement::Ps2.elevator_count() < Placement::Ps3.elevator_count());
    }

    #[test]
    fn optimizer_beats_corner_clustering() {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        let grid: Vec<(u8, u8)> = mesh.layer_coords(0).map(|c| (c.x, c.y)).collect();
        let optimised = optimize_columns(&mesh, 3);
        let clustered = vec![(0, 0), (1, 0), (0, 1)];
        assert!(
            placement_cost(&grid, &optimised) < placement_cost(&grid, &clustered),
            "optimised {optimised:?} must beat clustered corner placement"
        );
    }

    #[test]
    fn optimizer_with_full_count_covers_grid() {
        let mesh = Mesh3d::new(2, 2, 2).unwrap();
        let all = optimize_columns(&mesh, 4);
        assert_eq!(all.len(), 4);
        let grid: Vec<(u8, u8)> = mesh.layer_coords(0).map(|c| (c.x, c.y)).collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        let mut expected = grid.clone();
        expected.sort_unstable();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn greedy_path_used_for_large_grid_is_deterministic() {
        let mesh = Mesh3d::new(8, 8, 4).unwrap();
        let a = optimize_columns(&mesh, 12);
        let b = optimize_columns(&mesh, 12);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
    }

    /// The optimised presets, pinned literally.
    #[test]
    fn presets_match_optimizer() {
        let pinned: [(Placement, &[(u8, u8)]); 3] = [
            (Placement::Ps1, &[(0, 0), (2, 1), (1, 2)]),
            (
                Placement::Ps3,
                &[
                    (0, 0),
                    (2, 0),
                    (1, 1),
                    (3, 1),
                    (0, 2),
                    (2, 2),
                    (1, 3),
                    (3, 3),
                ],
            ),
            (
                Placement::Pm,
                &[
                    (0, 3),
                    (1, 1),
                    (1, 5),
                    (2, 2),
                    (3, 0),
                    (3, 6),
                    (4, 4),
                    (5, 1),
                    (5, 5),
                    (6, 3),
                    (6, 7),
                    (7, 2),
                ],
            ),
        ];
        for (placement, columns) in pinned {
            let mesh = placement.mesh();
            assert_eq!(
                optimize_columns(&mesh, placement.elevator_count()),
                columns,
                "{placement}"
            );
            let (_, elevators) = placement.instantiate();
            let built: Vec<(u8, u8)> = elevators.iter().map(|(_, c)| c).collect();
            assert_eq!(built, columns, "{placement}");
        }
    }

    /// The column search written directly over [`placement_cost`]: every
    /// candidate set re-costed from scratch.
    fn reference_search(grid: &[(u8, u8)], count: usize) -> Vec<(u8, u8)> {
        if grid.len() <= 16 {
            let mut best: Option<(u64, Vec<(u8, u8)>)> = None;
            let mut indices: Vec<usize> = (0..count).collect();
            loop {
                let columns: Vec<(u8, u8)> = indices.iter().map(|&i| grid[i]).collect();
                let cost = placement_cost(grid, &columns);
                if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                    best = Some((cost, columns));
                }
                let Some(i) = (0..count)
                    .rev()
                    .find(|&i| indices[i] != i + grid.len() - count)
                else {
                    return best.expect("at least one combination").1;
                };
                indices[i] += 1;
                for j in i + 1..count {
                    indices[j] = indices[j - 1] + 1;
                }
            }
        }
        let mut chosen: Vec<(u8, u8)> = Vec::new();
        let mut remaining: Vec<(u8, u8)> = grid.to_vec();
        for _ in 0..count {
            let (best_idx, _) = remaining
                .iter()
                .enumerate()
                .map(|(i, &cand)| {
                    let mut trial = chosen.clone();
                    trial.push(cand);
                    (i, placement_cost(grid, &trial))
                })
                .min_by_key(|&(_, cost)| cost)
                .unwrap();
            chosen.push(remaining.swap_remove(best_idx));
        }
        let mut cost = placement_cost(grid, &chosen);
        loop {
            let mut improved = false;
            for ci in 0..chosen.len() {
                for &cand in grid {
                    if chosen.contains(&cand) {
                        continue;
                    }
                    let old = chosen[ci];
                    chosen[ci] = cand;
                    let trial = placement_cost(grid, &chosen);
                    if trial < cost {
                        cost = trial;
                        improved = true;
                    } else {
                        chosen[ci] = old;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        chosen.sort_unstable();
        chosen
    }

    #[test]
    fn incremental_search_takes_the_reference_path() {
        for (x, y, counts) in [
            (4, 4, &[1, 2, 5, 15][..]),
            (3, 5, &[4][..]),
            (5, 5, &[1, 3, 6][..]),
            (6, 7, &[5][..]),
            (3, 9, &[4][..]),
        ] {
            let mesh = Mesh3d::new(x, y, 2).unwrap();
            let grid: Vec<(u8, u8)> = mesh.layer_coords(0).map(|c| (c.x, c.y)).collect();
            for &count in counts {
                assert_eq!(
                    optimize_columns(&mesh, count),
                    reference_search(&grid, count),
                    "{x}x{y}, {count} columns"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be in 1..=")]
    fn optimizer_rejects_zero_count() {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        let _ = optimize_columns(&mesh, 0);
    }
}
