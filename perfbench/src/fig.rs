//! `fig_sweep`: the paper's Fig. 4 workload as one supervised batch.
//!
//! PS1 and PM, uniform and shuffle traffic, ElevFirst, CDA and AdEle (with
//! the AMOSA assignment computed in set-up), six rates per panel from
//! `fig4_rates`, the `v1` polled stream and the figure harness's
//! quick-mode windows: 72 points, run by `run_batch_supervised` on two
//! workers as a closed loop (a worker takes the next point when its last
//! one finishes), each completion recorded into a fresh `Ledger`.
//!
//! The untraced run cycles through [`STREAM_SETS`] copies of the sweep
//! that differ only in their traffic seeds: which points saturate, and so
//! how long the sweep takes, depends on the streams, and one set per run
//! made the host work swing from seed to seed.

use crate::arith::{adele_gains, mean, median, percentile, tail_mean, AdeleGains, PolicyPoint};
use crate::host::{Kind, Speed};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::wrap::{ProbeSnap, Probes};
use crate::{build_sim, exact, offline, out_dir, setup_rounds, Opts, SELECT_METRICS};
use adele::offline::SubsetAssignment;
use adele_bench::{fig4_rates, Workload as Traffic};
use noc_exp::runner::par_map;
use noc_exp::{
    run_batch_supervised, spec_hash, BatchEvent, Ledger, PointOutcome, Scenario, ScenarioResult,
    SelectorSpec, Supervision, WorkloadKind, WorkloadSpec,
};
use noc_topology::placement::Placement;
use noc_topology::{ElevatorSet, Mesh3d};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Batch workers: the host's two cores.
pub const WORKERS: usize = 2;
/// Traffic-stream sets of the sweep per untraced run.
pub const STREAM_SETS: u64 = 4;

/// The swept points and, per point, its panel and rate index.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// One scenario per point, in panel, rate, policy order.
    pub scenarios: Vec<Scenario>,
    /// `(panel, rate index)` of each scenario.
    pub labels: Vec<(String, usize)>,
}

fn placements(opts: &Opts) -> Vec<Placement> {
    if opts.smoke {
        vec![Placement::Ps1]
    } else {
        vec![Placement::Ps1, Placement::Pm]
    }
}

/// The figure harness's quick-mode windows `(warmup, measure, drain)`.
fn windows(opts: &Opts, placement: Placement) -> (u64, u64, u64) {
    match (opts.smoke, placement) {
        (true, _) => (200, 600, 2_000),
        (false, Placement::Pm) => (500, 2_000, 8_000),
        (false, _) => (1_000, 4_000, 12_000),
    }
}

/// A placement, instantiated, with its AMOSA assignment.
type Fabric = (Placement, Mesh3d, ElevatorSet, SubsetAssignment);

/// The sweep with traffic-stream set `set`.
fn sweep(opts: &Opts, fabrics: &[Fabric], set: u64) -> Sweep {
    let (mut scenarios, mut labels) = (Vec::new(), Vec::new());
    for (p, (placement, mesh, elevators, assignment)) in fabrics.iter().enumerate() {
        let (placement, mesh) = (*placement, *mesh);
        let (warmup, measure, drain) = windows(opts, placement);
        let traffics = if opts.smoke {
            vec![Traffic::Uniform]
        } else {
            Traffic::ALL.to_vec()
        };
        for (t, traffic) in traffics.into_iter().enumerate() {
            let mut rates = fig4_rates(placement, traffic);
            if opts.smoke {
                rates = vec![rates[0], rates[rates.len() - 1]];
            }
            let panel = format!("{}/{}", placement.name(), traffic.name());
            for (r, &rate) in rates.iter().enumerate() {
                let kind = match traffic {
                    Traffic::Uniform => WorkloadKind::Uniform { rate },
                    Traffic::Shuffle => WorkloadKind::Shuffle { rate },
                };
                // One traffic seed per (panel, rate): the three policies
                // see the same injection stream.
                let seed = opts.seed_for(100 + set * 64 + (p * 2 + t) as u64 * 16 + r as u64);
                let policies = [
                    SelectorSpec::ElevatorFirst,
                    SelectorSpec::Cda,
                    SelectorSpec::Adele {
                        rr_only: false,
                        measured_energy: false,
                        assignment: Some(assignment.clone()),
                    },
                ];
                for selector in policies {
                    scenarios.push(
                        Scenario::new(format!("{panel}@{rate}"), mesh, elevators.clone())
                            .with_workload(WorkloadSpec::v1(kind.clone()))
                            .with_selector(selector)
                            .with_phases(warmup, measure, drain)
                            .with_seed(seed),
                    );
                    labels.push((panel.clone(), r));
                }
            }
        }
    }
    Sweep { scenarios, labels }
}

/// Set-up: each placement instantiated once, AMOSA per placement, and
/// the spec list of every stream set.
fn setup(opts: &Opts, out: &mut Outcome) -> (Vec<Sweep>, Vec<f64>) {
    setup_rounds(out, || {
        let fabrics: Vec<Fabric> = placements(opts)
            .into_iter()
            .map(|p| {
                let (mesh, elevators) = p.instantiate();
                let assignment = offline::assignment(mesh, &elevators);
                (p, mesh, elevators, assignment)
            })
            .collect();
        let sets = if opts.smoke { 1 } else { STREAM_SETS };
        (0..sets).map(|set| sweep(opts, &fabrics, set)).collect()
    })
}

/// Simulated cycles of one point: warm-up and measurement, plus the
/// drain cap when the point did not drain. A drain that completed early
/// is not counted, because `RunSummary` does not report its length.
fn cycles(scenario: &Scenario, result: &ScenarioResult) -> u64 {
    let drain = if result.summary.completed {
        0
    } else {
        scenario.drain_max.div_ceil(64) * 64
    };
    scenario.warmup + scenario.measure + drain
}

/// One supervised batch.
struct Batch {
    wall_s: f64,
    elapsed_ms: Vec<f64>,
    results: Vec<Option<ScenarioResult>>,
}

/// A fresh ledger file name, unique within the process.
fn ledger_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    out_dir().join(format!("ledger-{}-{n}.jsonl", std::process::id()))
}

/// Runs the sweep once under the supervisor, recording every completion
/// into a fresh ledger; checks each point completed and that the ledger
/// returns it bit-identically.
fn supervised_batch(sweep: &Sweep, out: &mut Outcome) -> Batch {
    let path = ledger_path();
    let _ = std::fs::remove_file(&path);
    let ledger = match Ledger::open(&path) {
        Ok(l) => Mutex::new(l),
        Err(e) => {
            out.check(Err(format!("cannot open ledger {}: {e}", path.display())));
            return Batch {
                wall_s: 0.0,
                elapsed_ms: Vec::new(),
                results: vec![None; sweep.scenarios.len()],
            };
        }
    };
    let elapsed = Mutex::new(vec![0.0; sweep.scenarios.len()]);
    let record_errors = Mutex::new(Vec::new());
    let started = Instant::now();
    let outcomes = run_batch_supervised(
        &sweep.scenarios,
        WORKERS,
        &Supervision::new(),
        None,
        |event| {
            if let BatchEvent::Finished {
                index,
                outcome,
                elapsed: took,
                ..
            } = event
            {
                elapsed.lock().expect("observer lock")[*index] = took.as_secs_f64() * 1e3;
                if let PointOutcome::Ok(result) = outcome {
                    let hash = spec_hash(&sweep.scenarios[*index]);
                    if let Err(e) = ledger.lock().expect("observer lock").record(hash, result) {
                        record_errors
                            .lock()
                            .expect("observer lock")
                            .push(format!("ledger record of {}: {e}", result.name));
                    }
                }
            }
        },
    );
    let wall_s = started.elapsed().as_secs_f64();
    let ledger = ledger.into_inner().expect("observer lock");
    for error in record_errors.into_inner().expect("observer lock") {
        out.check(Err(error));
    }
    let mut results = Vec::new();
    for (scenario, outcome) in sweep.scenarios.iter().zip(outcomes) {
        match outcome {
            PointOutcome::Ok(result) => {
                let restored = ledger.lookup(spec_hash(scenario));
                out.check(match restored {
                    Some(r) if exact(r) == exact(&result) => Ok(()),
                    _ => Err(format!(
                        "{}: ledger lookup does not round-trip",
                        scenario.name
                    )),
                });
                results.push(Some(result));
            }
            PointOutcome::Failed(failure) => {
                out.check(Err(format!("{}: {:?}", scenario.name, failure.error)));
                results.push(None);
            }
        }
    }
    drop(ledger);
    let _ = std::fs::remove_file(&path);
    Batch {
        wall_s,
        elapsed_ms: elapsed.into_inner().expect("observer lock"),
        results,
    }
}

fn policy_points(sweep: &Sweep, results: &[Option<ScenarioResult>]) -> Vec<PolicyPoint> {
    sweep
        .labels
        .iter()
        .zip(results)
        .filter_map(|((panel, rate), result)| {
            result.as_ref().map(|r| PolicyPoint {
                panel: panel.clone(),
                rate: *rate,
                policy: r.summary.policy.clone(),
                completed: r.summary.completed,
                latency: r.summary.avg_latency,
                energy: r.summary.energy_per_flit_nj,
            })
        })
        .collect()
}

/// The untraced run: rounds of supervised batches, one per stream set,
/// until the budget is spent.
///
/// Host times are reported on the nominal host: a host-speed probe
/// sample follows the set-up and every batch, and the set-up rounds and
/// the batch's wall and point times are divided by the slowness of the
/// samples around them (see [`crate::host`], compute kernel).
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut speed = Speed::new(Kind::Compute);
    out.held_bytes = speed.bytes() as u64;
    let (sweeps, setup_s) = setup(opts, &mut out);
    out.set("setup_s", median(&setup_s) / speed.interval());
    if opts.trace {
        traced(opts, &sweeps[0], &mut out);
        return out;
    }
    let started = Instant::now();
    let (mut wall, mut points, mut sim_cycles, mut elapsed) = (0.0, 0usize, 0u64, Vec::new());
    let mut raw_wall = 0.0;
    let sets = sweeps.len();
    let mut first: Vec<Option<Vec<Option<ScenarioResult>>>> = vec![None; sets];
    // Every set at least twice, to check its repeat; two batches also put
    // ten or more points beyond p90.
    let min_batches = if opts.smoke { 1 } else { 2 * sets };
    let mut batches = 0;
    while batches < min_batches
        || batches % sets != 0
        || started.elapsed().as_secs_f64() < opts.seconds
    {
        let k = batches % sets;
        let sweep = &sweeps[k];
        batches += 1;
        let batch = supervised_batch(sweep, &mut out);
        let slowness = speed.interval();
        wall += batch.wall_s / slowness;
        raw_wall += batch.wall_s;
        points += batch.results.len();
        elapsed.extend(batch.elapsed_ms.iter().map(|ms| ms / slowness));
        for (scenario, result) in sweep.scenarios.iter().zip(&batch.results) {
            sim_cycles += result.as_ref().map_or(0, |r| cycles(scenario, r));
        }
        match &first[k] {
            None => first[k] = Some(batch.results),
            Some(f) => out.check_same("repeat batch", f, &batch.results),
        }
    }
    let results: Vec<Vec<Option<ScenarioResult>>> = first.into_iter().flatten().collect();
    let done: Vec<&ScenarioResult> = results
        .iter()
        .flatten()
        .flatten()
        .filter(|r| r.summary.completed)
        .collect();
    out.set("points_per_s", points as f64 / wall);
    out.set("sim_kcycles_per_s", sim_cycles as f64 / wall / 1e3);
    out.set("point_ms_p50", percentile(&elapsed, 50));
    out.set("point_ms_tail10", tail_mean(&elapsed, 90));
    // Medians over the drained points: the few points next to the
    // saturation knee move a mean by several percent from seed to seed.
    out.set(
        "sim_latency_cycles",
        median(
            &done
                .iter()
                .map(|r| r.summary.avg_latency)
                .collect::<Vec<_>>(),
        ),
    );
    out.set(
        "sim_energy_nj_per_flit",
        median(
            &done
                .iter()
                .map(|r| r.summary.energy_per_flit_nj)
                .collect::<Vec<_>>(),
        ),
    );
    // The AdEle gains of each stream set, averaged over the sets.
    let mut gains = Vec::new();
    for (sweep, results) in sweeps.iter().zip(&results) {
        let g = adele_gains(&policy_points(sweep, results));
        out.check(
            g.map(|_| ())
                .ok_or_else(|| "no rate where all three policies completed".into()),
        );
        gains.extend(g);
    }
    if !gains.is_empty() {
        let mean_of = |f: fn(&AdeleGains) -> f64| mean(&gains.iter().map(f).collect::<Vec<_>>());
        out.extras.push((
            "adele_latency_gain_pct",
            mean_of(|g| g.latency_gain_pct),
            "%",
        ));
        out.extras.push((
            "adele_energy_overhead_pct",
            mean_of(|g| g.energy_overhead_pct),
            "%",
        ));
        out.extras
            .push(("adele_compared_rates", mean_of(|g| g.rates as f64), "count"));
    }
    out.extras
        .push(("point_samples", elapsed.len() as f64, "count"));
    out.extras
        .push(("raw_points_per_s", points as f64 / raw_wall, "1/s"));
    out.extras
        .push(("host_slowness_p50", median(speed.samples()), "ratio"));
    out
}

/// Per-point findings of the traced batch.
struct TracedPoint {
    result: Option<ScenarioResult>,
    error: Option<String>,
    probes: ProbeSnap,
    build_ns: u64,
    run_ns: u64,
    hash_ns: u64,
    ledger_ns: u64,
}

thread_local! {
    static LANE: Cell<u64> = const { Cell::new(0) };
}

fn lane(next: &AtomicU64) -> u64 {
    LANE.with(|l| {
        if l.get() == 0 {
            l.set(next.fetch_add(1, Ordering::Relaxed));
        }
        l.get()
    })
}

/// The traced run: an untraced reference batch, the traced offline stage
/// and batch, and a histograms-off batch for the `noc_obs` cost.
fn traced(opts: &Opts, sweep: &Sweep, out: &mut Outcome) {
    let reference = supervised_batch(sweep, out);
    let busy_s: f64 = reference.elapsed_ms.iter().sum::<f64>() / 1e3;
    out.set(
        "noc_exp.pool_busy_ratio",
        busy_s / (reference.wall_s * WORKERS as f64),
    );

    let rec = Recorder::new();
    let root = rec.id();
    let root_start = rec.now();
    let (mut optimize_s, mut evals, mut eval_ns) = (0.0, 0, 0);
    for placement in placements(opts) {
        let (mesh, elevators) = placement.instantiate();
        let (s, calls, spent) = offline::traced(mesh, &elevators, &rec, root, out);
        optimize_s += s;
        evals += calls;
        eval_ns += spent;
    }
    out.set("adele.offline.optimize_s", optimize_s);
    out.set(
        "amosa.evaluate_us",
        eval_ns as f64 / evals.max(1) as f64 / 1e3,
    );

    let path = ledger_path();
    let _ = std::fs::remove_file(&path);
    let ledger = match Ledger::open(&path) {
        Ok(l) => Mutex::new(l),
        Err(e) => {
            out.check(Err(format!("cannot open ledger {}: {e}", path.display())));
            return;
        }
    };
    let next_lane = AtomicU64::new(1);
    let batch_start = Instant::now();
    let points: Vec<TracedPoint> = par_map(&sweep.scenarios, WORKERS, |_, scenario| {
        let lane = lane(&next_lane);
        let point = rec.id();
        let p0 = rec.now();
        let probes = Arc::new(Probes::default());
        let sim = build_sim(scenario, Some(&probes), true);
        let b1 = rec.now();
        rec.record(rec.id(), point, "noc_exp.build", lane, p0, b1);
        let outcome = sim.run();
        let r1 = rec.now();
        let snap = probes.snap();
        let run_span = rec.id();
        rec.record_aggregate(run_span, lane, b1, &snap.spans());
        rec.record(run_span, point, "noc_sim.run", lane, b1, r1);
        let (result, error, hash_ns, ledger_ns) = match outcome {
            Ok(summary) => {
                let result = ScenarioResult {
                    name: scenario.name.clone(),
                    summary,
                };
                let h0 = rec.now();
                let hash = spec_hash(scenario);
                let h1 = rec.now();
                let recorded = ledger.lock().expect("ledger lock").record(hash, &result);
                let l1 = rec.now();
                rec.record(rec.id(), point, "noc_exp.spec_hash", lane, h0, h1);
                rec.record(rec.id(), point, "noc_exp.ledger_record", lane, h1, l1);
                let error = recorded.err().map(|e| format!("ledger record: {e}"));
                (Some(result), error, h1 - h0, l1 - h1)
            }
            Err(e) => (None, Some(format!("{}: {e}", scenario.name)), 0, 0),
        };
        rec.record(point, root, "noc_exp.point", lane, p0, rec.now());
        TracedPoint {
            result,
            error,
            probes: snap,
            build_ns: b1 - p0,
            run_ns: r1 - b1,
            hash_ns,
            ledger_ns,
        }
    });
    let traced_wall = batch_start.elapsed().as_secs_f64();
    rec.record(root, 0, "bench.run", 0, root_start, rec.now());
    drop(ledger);
    let _ = std::fs::remove_file(&path);

    let results: Vec<Option<ScenarioResult>> = points.iter().map(|p| p.result.clone()).collect();
    for p in &points {
        out.check(p.error.clone().map_or(Ok(()), Err));
    }
    out.check_same("traced batch", &reference.results, &results);

    let n = points.len().max(1) as f64;
    out.set(
        "bench.trace_overhead_pct",
        (traced_wall / reference.wall_s - 1.0) * 100.0,
    );
    out.set(
        "noc_exp.build_ms",
        points.iter().map(|p| p.build_ns as f64).sum::<f64>() / n / 1e6,
    );
    out.set(
        "noc_exp.spec_hash_us",
        points.iter().map(|p| p.hash_ns as f64).sum::<f64>() / n / 1e3,
    );
    out.set(
        "noc_exp.ledger_record_us",
        points.iter().map(|p| p.ledger_ns as f64).sum::<f64>() / n / 1e3,
    );

    let mut total = ProbeSnap::default();
    let run_ns: u64 = points.iter().map(|p| p.run_ns).sum();
    for (policy, names) in SELECT_METRICS {
        let mut snap = ProbeSnap::default();
        let mut policy_run_ns = 0;
        for p in &points {
            if p.result
                .as_ref()
                .is_some_and(|r| r.summary.policy == policy)
            {
                snap.add(p.probes);
                policy_run_ns += p.run_ns;
            }
        }
        out.set_select(names, &snap, policy_run_ns);
    }
    for p in &points {
        total.add(p.probes);
    }
    out.set_leaves(&total, run_ns);
    // No measured-energy selector in the sweep: the push never runs.
    out.set("noc_energy.push_us", 0.0);
    match adele_gains(&policy_points(sweep, &results)) {
        Some(g) => {
            out.set("adele.latency_gain_pct", g.latency_gain_pct);
            out.set("adele.energy_overhead_pct", g.energy_overhead_pct);
        }
        None => {
            out.check(Err("no rate where all three policies completed".into()));
            out.set("adele.latency_gain_pct", 0.0);
            out.set("adele.energy_overhead_pct", 0.0);
        }
    }
    for name in [
        "noc_sim.inject_ns_per_cycle",
        "noc_sim.compute_ns_per_cycle",
        "noc_sim.exchange_ns_per_cycle",
        "noc_sim.commit_ns_per_cycle",
        "noc_sim.armed_ns_per_cycle",
        "noc_sim.active_routers",
        "noc_sim.buffered_flits",
        "noc_sim.host_ns_per_router_flit",
        "noc_sim.allocs_per_kcycle",
        "noc_sim.heap_kb",
        "noc_sim.pool_compute_ratio",
    ] {
        out.set(name, 0.0);
    }

    // Histograms on and off, the same points built the same way, in
    // on-off-off-on order so a drifting host speed cancels.
    let mut timed_batch = |histograms: bool| {
        let started = Instant::now();
        let ran = par_map(&sweep.scenarios, WORKERS, |_, s| {
            build_sim(s, None, histograms).run().is_ok()
        });
        out.check(
            ran.iter()
                .all(|&ok| ok)
                .then_some(())
                .ok_or_else(|| "a point failed with histograms toggled".to_string()),
        );
        started.elapsed().as_secs_f64()
    };
    let on = timed_batch(true);
    let off = timed_batch(false) + timed_batch(false);
    let on = on + timed_batch(true);
    out.set("noc_obs.hist_overhead_pct", (on / off - 1.0) * 100.0);
    out.spans = Some((rec.spans(), WORKERS as u64));
}
