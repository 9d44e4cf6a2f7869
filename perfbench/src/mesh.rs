//! `mesh_idle` and `mesh_loaded`: one long sequential scenario each,
//! repeated until the time budget is spent.
//!
//! Each repetition builds the scenario's simulator, warms it up with
//! `advance` and measures with `measure_window`, then checks flow
//! conservation and the packet counts. Every repetition must reproduce
//! its variant's first summary bit for bit.
//!
//! Host times are reported on the nominal host: a host-speed probe
//! sample follows the set-up and every repetition, and each is divided by
//! the slowness of the samples around it (see [`crate::host`], memory
//! kernel). Measured on a 2-core shared VM, that cut the spread of these
//! workloads' host times across ten seeds from 11–21 % to 4–8 %.
//!
//! `mesh_loaded` runs [`LOADED_STREAMS`] variants of its scenario that
//! differ only in the traffic seed, round robin: how measured-energy
//! AdEle herds sources depends chaotically on the stream, so one stream
//! per run made the host work swing from seed to seed.

use crate::alloc::thread_allocs;
use crate::arith::{median, percentile, tail_mean};
use crate::host::{Kind, Speed};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::wrap::{ProbeSnap, Probes};
use crate::{build_sim, ns, offline, setup_rounds, Opts, Workload, SELECT_METRICS};
use adele::offline::SubsetAssignment;
use adele_bench::pillar_grid;
use noc_exp::{Event, Scenario, SelectorSpec, WorkloadKind, WorkloadSpec};
use noc_sim::{RunSummary, Simulator};
use noc_topology::{ElevatorId, ElevatorSet, Mesh3d};
use std::sync::Arc;
use std::time::Instant;

/// Offered load of `mesh_loaded`, packets per node per cycle: the
/// measured-energy selector's knee on this fabric is near 8e-5 (above
/// it the backlog grows), so this rate keeps every run draining while
/// the herded pillars contend.
pub const LOADED_RATE: f64 = 4e-5;
/// Offered load of `mesh_idle`.
pub const IDLE_RATE: f64 = 5e-5;
/// Traffic-stream variants of `mesh_loaded` per run.
pub const LOADED_STREAMS: u64 = 8;
/// Cycles per `advance_phase_timed` chunk in the traced run.
const CHUNK: u64 = 1_000;
/// Repetitions of the energy roll-up timed after a traced run.
const ROLLUP_CALLS: u32 = 64;

fn fabric(opts: &Opts) -> (Mesh3d, ElevatorSet) {
    let (x, y, z) = match (opts.smoke, opts.workload) {
        (true, _) => (8, 8, 2),
        (false, Workload::MeshIdle) => (32, 32, 8),
        (false, _) => (16, 16, 8),
    };
    let mesh = Mesh3d::new(x, y, z).expect("valid mesh size");
    let elevators = ElevatorSet::new(&mesh, pillar_grid(x, y)).expect("pillar grid fits");
    (mesh, elevators)
}

/// The scenario variants; `assignment` is the AMOSA pick for
/// `mesh_loaded`.
fn scenarios(opts: &Opts, assignment: Option<SubsetAssignment>) -> Vec<Scenario> {
    let streams = match (opts.workload, opts.smoke) {
        (Workload::MeshIdle, _) => 1,
        (_, true) => 2,
        (_, false) => LOADED_STREAMS,
    };
    (0..streams)
        .map(|k| scenario(opts, k, assignment.clone()))
        .collect()
}

fn scenario(opts: &Opts, stream: u64, assignment: Option<SubsetAssignment>) -> Scenario {
    let (mesh, elevators) = fabric(opts);
    // mesh_idle's repetitions are half as long, so that its tail metric
    // averages twice as many of them.
    let (warmup, measure) = match (opts.smoke, opts.workload) {
        (true, _) => (200, 800),
        (false, Workload::MeshIdle) => (4_000, 16_000),
        (false, _) => (8_000, 32_000),
    };
    let base = Scenario::new(
        format!("{}/{stream}", opts.workload.name()),
        mesh,
        elevators.clone(),
    )
    .with_phases(warmup, measure, 0)
    .with_seed(opts.seed_for(200 + stream));
    match assignment {
        None => base
            .with_workload(WorkloadSpec::v2(WorkloadKind::Uniform { rate: IDLE_RATE }))
            .with_selector(SelectorSpec::ElevatorFirst),
        Some(assignment) => {
            // A central pillar of the grid (index 5 of 16 is (6, 6)).
            let elevator = ElevatorId((elevators.len() / 3) as u8);
            base.with_workload(WorkloadSpec::v2(WorkloadKind::Uniform {
                rate: LOADED_RATE,
            }))
            .with_selector(SelectorSpec::Adele {
                rr_only: false,
                measured_energy: true,
                assignment: Some(assignment),
            })
            .with_event(Event::ElevatorFail {
                cycle: warmup + measure / 4,
                elevator,
            })
            .with_event(Event::ElevatorRecover {
                cycle: warmup + 3 * measure / 4,
                elevator,
            })
        }
    }
}

/// Set-up: the AMOSA stage (`mesh_loaded`), the specs and one simulator
/// construction.
fn setup(opts: &Opts, out: &mut Outcome) -> (Vec<Scenario>, Vec<f64>) {
    setup_rounds(out, || {
        let assignment = (opts.workload == Workload::MeshLoaded).then(|| {
            let (mesh, elevators) = fabric(opts);
            offline::assignment(mesh, &elevators)
        });
        let built = scenarios(opts, assignment);
        std::hint::black_box(built[0].build_simulator());
        built
    })
}

/// The end-of-run checks: flow conservation and packet counts.
fn check_run(sim: &Simulator, summary: &RunSummary) -> Result<(), String> {
    sim.network().check_flow_conservation()?;
    if summary.injected_packets < summary.delivered_packets {
        return Err(format!(
            "delivered {} > injected {}",
            summary.delivered_packets, summary.injected_packets
        ));
    }
    if summary.delivered_packets == 0 {
        return Err("no packet delivered".into());
    }
    Ok(())
}

/// One untraced repetition.
struct Rep {
    summary: RunSummary,
    build_ns: f64,
    run_ns: f64,
}

/// Builds and runs `scenario` untraced (histograms on: exactly
/// `Scenario::build_simulator`; off: the same pieces without them).
fn plain_rep(scenario: &Scenario, histograms: bool, out: &mut Outcome) -> Option<Rep> {
    let t0 = Instant::now();
    let mut sim = if histograms {
        scenario.build_simulator()
    } else {
        build_sim(scenario, None, false)
    };
    let t1 = Instant::now();
    let run = sim
        .advance(scenario.warmup)
        .and_then(|()| sim.measure_window(scenario.measure));
    let t2 = Instant::now();
    match run {
        Ok(summary) => {
            out.check(check_run(&sim, &summary));
            Some(Rep {
                summary,
                build_ns: ns(t1 - t0),
                run_ns: ns(t2 - t1),
            })
        }
        Err(e) => {
            out.check(Err(format!("{}: {e}", scenario.name)));
            None
        }
    }
}

/// The untraced run: rounds over the variants until the budget is spent.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut speed = Speed::new(Kind::Memory);
    out.held_bytes = speed.bytes() as u64;
    let (scenarios, setup_s) = setup(opts, &mut out);
    out.set("setup_s", median(&setup_s) / speed.interval());
    if opts.trace {
        traced(opts, &scenarios, &mut out);
        return out;
    }
    let n = scenarios.len();
    let min_reps = if opts.smoke { n } else { 3 * n };
    let started = Instant::now();
    // Per variant: host time on the nominal host, and as measured.
    let mut point_ms: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut raw_ms = Vec::new();
    let mut first: Vec<Option<RunSummary>> = vec![None; n];
    let mut done = 0;
    while done < min_reps || done % n != 0 || started.elapsed().as_secs_f64() < opts.seconds {
        let k = done % n;
        let Some(rep) = plain_rep(&scenarios[k], true, &mut out) else {
            return out;
        };
        let ms = (rep.build_ns + rep.run_ns) / 1e6;
        point_ms[k].push(ms / speed.interval());
        raw_ms.push(ms);
        match &first[k] {
            None => first[k] = Some(rep.summary),
            Some(f) => out.check_same("repetition", f, &rep.summary),
        }
        done += 1;
    }
    // One round: every variant once, at its median repetition time.
    let round_s: f64 = point_ms.iter().map(|ms| median(ms)).sum::<f64>() / 1e3;
    let cycles = (scenarios[0].warmup + scenarios[0].measure) as f64 * n as f64;
    out.set("points_per_s", n as f64 / round_s);
    out.set("sim_kcycles_per_s", cycles / round_s / 1e3);
    let all_ms = point_ms.concat();
    out.set("point_ms_p50", percentile(&all_ms, 50));
    out.set("point_ms_tail10", tail_mean(&all_ms, 90));
    let summaries: Vec<RunSummary> = first.into_iter().flatten().collect();
    let mean_of = |f: fn(&RunSummary) -> f64| summaries.iter().map(f).sum::<f64>() / n as f64;
    out.set("sim_latency_cycles", mean_of(|s| s.avg_latency));
    out.set("sim_energy_nj_per_flit", mean_of(|s| s.energy_per_flit_nj));
    out.extras.push((
        "sim_latency_p99_cycles",
        mean_of(|s| s.latency_p99 as f64),
        "cycles",
    ));
    out.extras.push((
        "sim_delivered_per_injected",
        mean_of(|s| s.delivered_packets as f64 / s.injected_packets.max(1) as f64),
        "ratio",
    ));
    out.extras
        .push(("point_samples", all_ms.len() as f64, "count"));
    out.extras
        .push(("raw_point_ms_p50", percentile(&raw_ms, 50), "ms"));
    out.extras
        .push(("host_slowness_p50", median(speed.samples()), "ratio"));
    out
}

/// Sums over the traced repetitions.
#[derive(Default)]
struct Traced {
    reps: u64,
    build_ns: u64,
    /// Stepping host time: warm-up chunks plus measurement windows.
    run_ns: u64,
    warmup_cycles: u64,
    inject_ns: u64,
    compute_ns: u64,
    exchange_ns: u64,
    commit_ns: u64,
    /// Leaf calls inside the warm-up's inject and commit phases.
    inject_leaves: ProbeSnap,
    commit_leaves: ProbeSnap,
    /// All leaf calls (warm-up and measurement).
    leaves: ProbeSnap,
    /// Wall and cycles of the warm-up's second half, at steady load.
    steady_ns: u64,
    steady_cycles: u64,
    measure_ns: u64,
    measure_cycles: u64,
    router_flits: u64,
    allocs: u64,
    worklist: u64,
    buffered: u64,
    samples: u64,
    heap_bytes: u64,
    rollup_ns: u64,
    rollup_calls: u64,
}

/// One traced repetition: wrapped build, warm-up in phase-timed chunks,
/// the measurement window, checks against the untraced `reference`.
fn traced_rep(
    scenario: &Scenario,
    reference: &RunSummary,
    rec: &Recorder,
    root: u64,
    acc: &mut Traced,
    out: &mut Outcome,
) {
    let rep = rec.id();
    let r0 = rec.now();
    let probes = Arc::new(Probes::default());
    let mut sim = build_sim(scenario, Some(&probes), true);
    let b1 = rec.now();
    rec.record(rec.id(), rep, "noc_exp.build", 0, r0, b1);
    acc.build_ns += b1 - r0;

    let mut done = 0;
    while done < scenario.warmup {
        let n = CHUNK.min(scenario.warmup - done);
        let before = probes.snap();
        let allocs = thread_allocs();
        let c0 = rec.now();
        let (phase, wall) = match sim.advance_phase_timed(n) {
            Ok(timed) => timed,
            Err(e) => {
                out.check(Err(format!("{}: {e}", scenario.name)));
                return;
            }
        };
        let c1 = rec.now();
        acc.allocs += thread_allocs() - allocs;
        let delta = probes.snap().since(before);
        acc.worklist += sim.network().worklist_occupancy();
        acc.buffered += sim.network().buffered_flits();
        acc.samples += 1;

        // The phases and their leaf calls, laid end to end in the chunk:
        // selection and traffic run in the inject phase, feedback and the
        // energy push in the commit phase.
        let at_inject = ProbeSnap {
            select: delta.select,
            traffic: delta.traffic,
            ..ProbeSnap::default()
        };
        let at_commit = ProbeSnap {
            feedback: delta.feedback,
            energy: delta.energy,
            ..ProbeSnap::default()
        };
        let chunk = rec.id();
        let mut at = c0;
        for (name, d, children) in [
            ("noc_sim.inject", phase.inject, Some(at_inject)),
            ("noc_sim.compute", phase.compute, None),
            ("noc_sim.exchange", phase.exchange, None),
            ("noc_sim.commit", phase.commit, Some(at_commit)),
        ] {
            let span = rec.id();
            let end = at + d.as_nanos() as u64;
            if let Some(c) = children {
                rec.record_aggregate(span, 0, at, &c.spans());
            }
            rec.record(span, chunk, name, 0, at, end);
            at = end;
        }
        rec.record(chunk, rep, "noc_sim.chunk", 0, c0, c1);

        acc.inject_ns += phase.inject.as_nanos() as u64;
        acc.compute_ns += phase.compute.as_nanos() as u64;
        acc.exchange_ns += phase.exchange.as_nanos() as u64;
        acc.commit_ns += phase.commit.as_nanos() as u64;
        acc.inject_leaves.add(at_inject);
        acc.commit_leaves.add(at_commit);
        acc.leaves.add(delta);
        acc.run_ns += c1 - c0;
        if done >= scenario.warmup / 2 {
            acc.steady_ns += wall.as_nanos() as u64;
            acc.steady_cycles += n;
        }
        done += n;
    }
    acc.warmup_cycles += done;

    let before = probes.snap();
    let allocs = thread_allocs();
    let m0 = rec.now();
    let summary = sim.measure_window(scenario.measure);
    let m1 = rec.now();
    acc.allocs += thread_allocs() - allocs;
    let delta = probes.snap().since(before);
    let window = rec.id();
    rec.record_aggregate(window, 0, m0, &delta.spans());
    rec.record(window, rep, "noc_sim.measure_window", 0, m0, m1);
    acc.leaves.add(delta);
    acc.run_ns += m1 - m0;
    acc.measure_ns += m1 - m0;
    acc.measure_cycles += scenario.measure;
    let summary = match summary {
        Ok(s) => s,
        Err(e) => {
            out.check(Err(format!("{}: {e}", scenario.name)));
            return;
        }
    };
    out.check(check_run(&sim, &summary));
    out.check_same("traced repetition", reference, &summary);
    acc.router_flits += summary.router_flits.iter().sum::<u64>();
    acc.heap_bytes = sim.network().heap_footprint() as u64;

    if delta.energy.calls > 0 {
        // The roll-up the simulator computes before each push, timed on
        // the final window's telemetry.
        let model = scenario.sim_config().energy;
        let t0 = rec.now();
        for _ in 0..ROLLUP_CALLS {
            std::hint::black_box(
                sim.link_ledger()
                    .pillar_energy_per_tsv_flit(sim.link_map(), &model),
            );
        }
        let t1 = rec.now();
        rec.record_aggregate(
            rep,
            0,
            t0,
            &[("noc_energy.rollup", t1 - t0, u64::from(ROLLUP_CALLS))],
        );
        acc.rollup_ns += t1 - t0;
        acc.rollup_calls += u64::from(ROLLUP_CALLS);
    }
    rec.record(rep, root, "bench.rep", 0, r0, rec.now());
    acc.reps += 1;
}

/// Compute-phase host time of the pooled (auto-sharded) fabric over the
/// sequential one, across the warm-up; `0` when auto-sharding picks one
/// shard.
fn pool_compute_ratio(scenario: &Scenario, out: &mut Outcome) -> f64 {
    let mut pooled = scenario.clone().with_shards(0).build_simulator();
    if pooled.network().shard_count() < 2 {
        return 0.0;
    }
    let mut sequential = scenario.build_simulator();
    match (
        pooled.advance_phase_timed(scenario.warmup),
        sequential.advance_phase_timed(scenario.warmup),
    ) {
        (Ok((p, _)), Ok((s, _))) => ns(p.compute) / ns(s.compute + s.exchange).max(1.0),
        (Err(e), _) | (_, Err(e)) => {
            out.check(Err(format!("pool probe: {e}")));
            0.0
        }
    }
}

/// The traced run: untraced repetitions with histograms on and off, the
/// traced repetitions, and the pool probe (`mesh_loaded`). Each part runs
/// whole rounds over the variants.
fn traced(opts: &Opts, scenarios: &[Scenario], out: &mut Outcome) {
    let n = scenarios.len();
    let share = opts.seconds / 3.0;
    let (mut on_ns, mut off_ns) = (0.0, 0.0);
    let mut reference: Vec<Option<RunSummary>> = vec![None; n];
    let mut pairs = 0;
    let started = Instant::now();
    while pairs < n || pairs % n != 0 || started.elapsed().as_secs_f64() < share {
        let k = pairs % n;
        // Alternate which runs first, so a drifting host speed cancels.
        let on_first = pairs % 2 == 0;
        let (Some(a), Some(b)) = (
            plain_rep(&scenarios[k], on_first, out),
            plain_rep(&scenarios[k], !on_first, out),
        ) else {
            return;
        };
        let (on, off) = if on_first { (a, b) } else { (b, a) };
        on_ns += on.run_ns;
        off_ns += off.run_ns;
        match &reference[k] {
            None => reference[k] = Some(on.summary),
            Some(r) => out.check_same("repetition", r, &on.summary),
        }
        pairs += 1;
    }
    let reference: Vec<RunSummary> = reference.into_iter().flatten().collect();
    out.set("noc_obs.hist_overhead_pct", (on_ns / off_ns - 1.0) * 100.0);

    let rec = Recorder::new();
    let root = rec.id();
    let root_start = rec.now();
    if opts.workload == Workload::MeshLoaded {
        let (mesh, elevators) = fabric(opts);
        let (optimize_s, calls, spent) = offline::traced(mesh, &elevators, &rec, root, out);
        out.set("adele.offline.optimize_s", optimize_s);
        out.set(
            "amosa.evaluate_us",
            spent as f64 / calls.max(1) as f64 / 1e3,
        );
    } else {
        out.set("adele.offline.optimize_s", 0.0);
        out.set("amosa.evaluate_us", 0.0);
    }
    let mut acc = Traced::default();
    let traced_start = Instant::now();
    let mut reps = 0;
    while reps < n || reps % n != 0 || traced_start.elapsed().as_secs_f64() < share {
        let k = reps % n;
        let before = acc.reps;
        traced_rep(&scenarios[k], &reference[k], &rec, root, &mut acc, out);
        if acc.reps == before {
            break;
        }
        reps += 1;
    }
    rec.record(root, 0, "bench.run", 0, root_start, rec.now());

    let cycles = (scenarios[0].warmup + scenarios[0].measure) as f64;
    let untraced_ns_per_cycle = on_ns / (cycles * pairs as f64);
    let traced_ns_per_cycle = acc.run_ns as f64 / (cycles * acc.reps.max(1) as f64);
    out.set(
        "bench.trace_overhead_pct",
        (traced_ns_per_cycle / untraced_ns_per_cycle - 1.0) * 100.0,
    );
    out.set(
        "noc_exp.build_ms",
        acc.build_ns as f64 / acc.reps.max(1) as f64 / 1e6,
    );
    for name in [
        "noc_exp.pool_busy_ratio",
        "noc_exp.ledger_record_us",
        "noc_exp.spec_hash_us",
    ] {
        out.set(name, 0.0);
    }
    for (policy, names) in SELECT_METRICS {
        let snap = if policy == reference[0].policy {
            acc.leaves
        } else {
            ProbeSnap::default()
        };
        out.set_select(names, &snap, acc.run_ns);
    }
    out.set_leaves(&acc.leaves, acc.run_ns);
    out.set("adele.latency_gain_pct", 0.0);
    out.set("adele.energy_overhead_pct", 0.0);

    let per_cycle = |ns: u64| ns as f64 / acc.warmup_cycles.max(1) as f64;
    let inject_leaf_ns = acc.inject_leaves.select.ns + acc.inject_leaves.traffic.ns;
    let commit_leaf_ns = acc.commit_leaves.feedback.ns + acc.commit_leaves.energy.ns;
    out.set(
        "noc_sim.inject_ns_per_cycle",
        per_cycle(acc.inject_ns.saturating_sub(inject_leaf_ns)),
    );
    out.set("noc_sim.compute_ns_per_cycle", per_cycle(acc.compute_ns));
    out.set("noc_sim.exchange_ns_per_cycle", per_cycle(acc.exchange_ns));
    out.set(
        "noc_sim.commit_ns_per_cycle",
        per_cycle(acc.commit_ns.saturating_sub(commit_leaf_ns)),
    );
    out.set(
        "noc_sim.armed_ns_per_cycle",
        acc.measure_ns as f64 / acc.measure_cycles.max(1) as f64
            - acc.steady_ns as f64 / acc.steady_cycles.max(1) as f64,
    );
    let samples = acc.samples.max(1) as f64;
    out.set("noc_sim.active_routers", acc.worklist as f64 / samples);
    out.set("noc_sim.buffered_flits", acc.buffered as f64 / samples);
    out.set(
        "noc_sim.host_ns_per_router_flit",
        acc.measure_ns as f64 / acc.router_flits.max(1) as f64,
    );
    out.set(
        "noc_sim.allocs_per_kcycle",
        acc.allocs as f64 / (cycles * acc.reps.max(1) as f64) * 1e3,
    );
    out.set("noc_sim.heap_kb", acc.heap_bytes as f64 / 1024.0);
    let pushes = acc.leaves.energy;
    out.set(
        "noc_energy.push_us",
        if pushes.calls == 0 {
            0.0
        } else {
            (pushes.ns as f64 / pushes.calls as f64
                + acc.rollup_ns as f64 / acc.rollup_calls.max(1) as f64)
                / 1e3
        },
    );
    let ratio = if opts.workload == Workload::MeshLoaded {
        pool_compute_ratio(&scenarios[0], out)
    } else {
        0.0
    };
    out.set("noc_sim.pool_compute_ratio", ratio);
    out.spans = Some((rec.spans(), 1));
}
