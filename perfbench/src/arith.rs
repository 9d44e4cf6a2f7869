//! The benchmark's own arithmetic: order statistics, the tail
//! rule, span self time, and the AdEle gain definitions.

use std::collections::BTreeMap;

/// Arithmetic mean (`0` for no samples).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median (mean of the two middle samples for an even count; `0` for no
/// samples).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    ((f64::from(p) / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
#[must_use]
pub fn beyond(n: usize, p: u32) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Mean of the samples strictly above the nearest-rank `p`-th
/// percentile, the slowest `100 − p` %, and at least of the largest
/// sample (`0` for no samples). Unlike the percentile itself, it does not
/// jump when the rank falls on the edge between two clusters of samples.
#[must_use]
pub fn tail_mean(values: &[f64], p: u32) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    mean(&sorted[n - beyond(n, p).max(1).min(n)..])
}

/// Nearest-rank `p`-th percentile (`0` for no samples).
#[must_use]
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// A span's self time: its duration minus the part of `[start, end)` that
/// the union of its children's intervals covers (children are clipped to
/// the parent; overlapping children count once).
#[must_use]
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// One completed sweep point, as the AdEle comparison needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyPoint {
    /// The panel (placement and traffic pattern) the point belongs to.
    pub panel: String,
    /// Index of the injection rate within the panel.
    pub rate: usize,
    /// Policy name as the selector reports it.
    pub policy: String,
    /// `true` if every measured packet drained.
    pub completed: bool,
    /// Average packet latency, cycles.
    pub latency: f64,
    /// Energy per delivered flit, nJ.
    pub energy: f64,
}

/// AdEle against the better baseline, averaged over the rates where all
/// three policies completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdeleGains {
    /// Mean of `(L_base - L_AdEle) / L_base`, percent, where `L_base` is
    /// the lower latency of ElevFirst and CDA at that rate.
    pub latency_gain_pct: f64,
    /// Mean of `(E_AdEle - E_base) / E_base`, percent, where `E_base` is
    /// the lower energy per flit of ElevFirst and CDA at that rate.
    pub energy_overhead_pct: f64,
    /// Rates that entered the means.
    pub rates: usize,
}

/// The `adele_*` definitions over a sweep; `None` when no rate has all
/// three policies completed.
#[must_use]
pub fn adele_gains(points: &[PolicyPoint]) -> Option<AdeleGains> {
    let mut by_rate: BTreeMap<(&str, usize), BTreeMap<&str, &PolicyPoint>> = BTreeMap::new();
    for p in points {
        by_rate
            .entry((p.panel.as_str(), p.rate))
            .or_default()
            .insert(p.policy.as_str(), p);
    }
    let (mut gains, mut overheads) = (Vec::new(), Vec::new());
    for policies in by_rate.values() {
        let (Some(ef), Some(cda), Some(adele)) = (
            policies.get("ElevFirst"),
            policies.get("CDA"),
            policies.get("AdEle"),
        ) else {
            continue;
        };
        if !(ef.completed && cda.completed && adele.completed) {
            continue;
        }
        let l_base = ef.latency.min(cda.latency);
        let e_base = ef.energy.min(cda.energy);
        gains.push((l_base - adele.latency) / l_base * 100.0);
        overheads.push((adele.energy - e_base) / e_base * 100.0);
    }
    (!gains.is_empty()).then(|| AdeleGains {
        latency_gain_pct: mean(&gains),
        energy_overhead_pct: mean(&overheads),
        rates: gains.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_holds_ten_samples_or_more() {
        // One 72-point fig_sweep batch leaves only 7 beyond p90, two
        // leave 14, and the eight a run measures at least leave 57.
        assert_eq!(beyond(72, 85), 10);
        assert_eq!(beyond(72, 90), 7);
        assert_eq!(beyond(144, 90), 14);
        assert_eq!(beyond(576, 90), 57);
        assert_eq!(beyond(10, 90), 1);
    }

    #[test]
    fn tail_mean_averages_the_samples_beyond_the_percentile() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // p90 of 20 is the 18th sample: 19 and 20 are beyond it.
        assert_eq!(tail_mean(&v, 90), 19.5);
        assert_eq!(tail_mean(&[5.0, 1.0, 3.0, 2.0], 50), 4.0);
        assert_eq!(tail_mean(&[7.0, 2.0], 90), 7.0);
        assert_eq!(tail_mean(&[], 90), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=72).map(f64::from).collect();
        assert_eq!(percentile(&v, 85), 62.0);
        assert_eq!(percentile(&v, 50), 36.0);
        assert_eq!(percentile(&[], 50), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 50)]), 60);
        // Children are clipped to the parent.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time(0, 10, &[(0, 10), (2, 3)]), 0);
    }

    fn point(
        panel: &str,
        rate: usize,
        policy: &str,
        completed: bool,
        l: f64,
        e: f64,
    ) -> PolicyPoint {
        PolicyPoint {
            panel: panel.into(),
            rate,
            policy: policy.into(),
            completed,
            latency: l,
            energy: e,
        }
    }

    #[test]
    fn adele_gain_uses_the_better_baseline_and_completed_rates_only() {
        let points = vec![
            // Rate 0: CDA is the better latency baseline, ElevFirst the
            // better energy baseline.
            point("PS1/uniform", 0, "ElevFirst", true, 50.0, 1.0),
            point("PS1/uniform", 0, "CDA", true, 40.0, 2.0),
            point("PS1/uniform", 0, "AdEle", true, 30.0, 1.1),
            // Rate 1: ElevFirst saturated, so the rate is left out.
            point("PS1/uniform", 1, "ElevFirst", false, 900.0, 1.0),
            point("PS1/uniform", 1, "CDA", true, 60.0, 1.0),
            point("PS1/uniform", 1, "AdEle", true, 45.0, 1.0),
            // Another panel: AdEle loses on latency.
            point("PM/shuffle", 0, "ElevFirst", true, 20.0, 2.0),
            point("PM/shuffle", 0, "CDA", true, 25.0, 2.0),
            point("PM/shuffle", 0, "AdEle", true, 22.0, 2.0),
            // A rate with a policy missing is left out too.
            point("PM/shuffle", 1, "CDA", true, 25.0, 2.0),
            point("PM/shuffle", 1, "AdEle", true, 22.0, 2.0),
        ];
        let g = adele_gains(&points).expect("two comparable rates");
        assert_eq!(g.rates, 2);
        // (40-30)/40 = 25 %, (20-22)/20 = -10 % → mean 7.5 %.
        assert!((g.latency_gain_pct - 7.5).abs() < 1e-12);
        // (1.1-1)/1 = 10 %, (2-2)/2 = 0 % → mean 5 %.
        assert!((g.energy_overhead_pct - 5.0).abs() < 1e-9);
        assert_eq!(adele_gains(&points[3..6]), None);
    }
}
