//! The repository benchmark: named workloads driven through the public
//! APIs of `noc_exp`, `noc_sim`, `adele` and `amosa`, with output checks,
//! end-to-end metrics (untraced run) and per-layer metrics (traced run).
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig_sweep --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it are
//! a provenance stamp and human-readable tables. `perfbench/README.md`
//! records why each workload exists and which metrics each layer should
//! move.

#![warn(missing_docs)]

pub mod alloc;
pub mod arith;
pub mod fig;
pub mod host;
pub mod mesh;
pub mod offline;
pub mod report;
pub mod spans;
pub mod wrap;

use noc_exp::Scenario;
use noc_sim::Simulator;
use noc_traffic::derive_stream_seed;
use std::sync::Arc;
use wrap::{timed_input, Probes, TimedSelector};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for checking later performance claims.
pub const HELD_OUT_SEED: u64 = 7919;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_kcycles_per_s", "kcycle/s"),
    ("points_per_s", "1/s"),
    ("point_ms_p50", "ms"),
    ("point_ms_tail10", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_latency_cycles", "cycles"),
    ("sim_energy_nj_per_flit", "nJ"),
];

/// The policies whose selector calls are reported one by one: the name
/// the selector reports, and its `calls`, `ns_per_call` and `share_pct`
/// metrics.
pub const SELECT_METRICS: [(&str, [&str; 3]); 3] = [
    (
        "ElevFirst",
        [
            "adele.select.ElevFirst.calls",
            "adele.select.ElevFirst.ns_per_call",
            "adele.select.ElevFirst.share_pct",
        ],
    ),
    (
        "CDA",
        [
            "adele.select.CDA.calls",
            "adele.select.CDA.ns_per_call",
            "adele.select.CDA.share_pct",
        ],
    ),
    (
        "AdEle",
        [
            "adele.select.AdEle.calls",
            "adele.select.AdEle.ns_per_call",
            "adele.select.AdEle.share_pct",
        ],
    ),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run (`0`
/// where the workload does not exercise the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.trace_overhead_pct", "%"),
    ("noc_exp.build_ms", "ms"),
    ("noc_exp.pool_busy_ratio", "ratio"),
    ("noc_exp.ledger_record_us", "us"),
    ("noc_exp.spec_hash_us", "us"),
    ("adele.offline.optimize_s", "s"),
    ("amosa.evaluate_us", "us"),
    ("adele.select.ElevFirst.calls", "count"),
    ("adele.select.ElevFirst.ns_per_call", "ns"),
    ("adele.select.ElevFirst.share_pct", "%"),
    ("adele.select.CDA.calls", "count"),
    ("adele.select.CDA.ns_per_call", "ns"),
    ("adele.select.CDA.share_pct", "%"),
    ("adele.select.AdEle.calls", "count"),
    ("adele.select.AdEle.ns_per_call", "ns"),
    ("adele.select.AdEle.share_pct", "%"),
    ("adele.select.allocs_per_call", "count"),
    ("adele.feedback.calls", "count"),
    ("adele.feedback.ns_per_call", "ns"),
    ("adele.latency_gain_pct", "%"),
    ("adele.energy_overhead_pct", "%"),
    ("noc_traffic.calls", "count"),
    ("noc_traffic.ns_per_call", "ns"),
    ("noc_traffic.share_pct", "%"),
    ("noc_sim.inject_ns_per_cycle", "ns"),
    ("noc_sim.compute_ns_per_cycle", "ns"),
    ("noc_sim.exchange_ns_per_cycle", "ns"),
    ("noc_sim.commit_ns_per_cycle", "ns"),
    ("noc_sim.armed_ns_per_cycle", "ns"),
    ("noc_sim.active_routers", "count"),
    ("noc_sim.buffered_flits", "count"),
    ("noc_sim.host_ns_per_router_flit", "ns"),
    ("noc_sim.allocs_per_kcycle", "count"),
    ("noc_sim.heap_kb", "KiB"),
    ("noc_sim.pool_compute_ratio", "ratio"),
    ("noc_obs.hist_overhead_pct", "%"),
    ("noc_energy.push_us", "us"),
];

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 4 sweep as one supervised batch.
    FigSweep,
    /// A long, nearly idle 32×32×8 scenario.
    MeshIdle,
    /// A contended 16×16×8 AdEle scenario with an elevator failure.
    MeshLoaded,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::FigSweep, Workload::MeshIdle, Workload::MeshLoaded];

    /// The CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FigSweep => "fig_sweep",
            Workload::MeshIdle => "mesh_idle",
            Workload::MeshLoaded => "mesh_loaded",
        }
    }

    /// Parses a CLI name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One invocation's settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Opts {
    /// What to run.
    pub workload: Workload,
    /// Master seed; every input is derived from it.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
    /// Tiny sizes, for tests.
    pub smoke: bool,
}

impl Opts {
    /// Derives an input seed for component `stream`.
    #[must_use]
    pub fn seed_for(&self, stream: u64) -> u64 {
        derive_stream_seed(self.seed, stream)
    }
}

/// AMOSA's seed, the figure harness's: the offline assignment is part of
/// the system under test, like the placement, so it stays fixed; the
/// workload seed drives traffic and events.
pub const AMOSA_SEED: u64 = 0xADE1E;

/// Least set-up repetitions per run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 3;
/// Set-up repeats beyond [`SETUP_ROUNDS`] until this many seconds are
/// spent (at most [`SETUP_MAX_ROUNDS`] rounds), so a set-up of a few
/// milliseconds still yields a steady median.
pub const SETUP_BUDGET_S: f64 = 1.0;
/// Most set-up repetitions per run.
pub const SETUP_MAX_ROUNDS: usize = 100;

/// Runs `build` at least [`SETUP_ROUNDS`] times (see [`SETUP_BUDGET_S`]),
/// timing each round; returns the first round's result and every round's
/// seconds. A round that builds something else fails the determinism
/// check.
pub fn setup_rounds<T: PartialEq>(
    out: &mut report::Outcome,
    mut build: impl FnMut() -> T,
) -> (T, Vec<f64>) {
    let mut rounds = Vec::new();
    let mut first: Option<T> = None;
    while rounds.len() < SETUP_ROUNDS
        || (rounds.iter().sum::<f64>() < SETUP_BUDGET_S && rounds.len() < SETUP_MAX_ROUNDS)
    {
        let started = std::time::Instant::now();
        let built = build();
        rounds.push(started.elapsed().as_secs_f64());
        match &first {
            None => first = Some(built),
            Some(f) => out.check(
                (f == &built)
                    .then_some(())
                    .ok_or_else(|| "set-up is not deterministic".to_string()),
            ),
        }
    }
    (first.expect("SETUP_ROUNDS is positive"), rounds)
}

/// Builds `scenario`'s simulator from the same public pieces (and the
/// same derived seeds) as `Scenario::build_simulator`, optionally with
/// timing wrappers around the selector and workload, and optionally with
/// histograms off. The output checks compare the wrapped run against the
/// plain one, so a drift in either construction shows as a failure.
#[must_use]
pub fn build_sim(scenario: &Scenario, probes: Option<&Arc<Probes>>, histograms: bool) -> Simulator {
    let traffic = scenario
        .workload
        .build(&scenario.mesh, derive_stream_seed(scenario.seed, 11));
    let selector = scenario.selector.build(
        &scenario.mesh,
        &scenario.elevators,
        derive_stream_seed(scenario.seed, 13),
    );
    let (traffic, selector) = match probes {
        Some(p) => (
            timed_input(traffic, Arc::clone(p)),
            Box::new(TimedSelector::new(selector, Arc::clone(p))) as _,
        ),
        None => (traffic, selector),
    };
    let config = scenario.sim_config().with_histograms(histograms);
    let mut sim = Simulator::from_input(config, traffic, selector);
    for event in &scenario.events {
        let (at, command) = event.compile(&scenario.mesh);
        sim.schedule_command(at, command);
    }
    sim
}

/// Runs one workload and measures the process's peak memory, less what
/// the benchmark itself holds ([`report::Outcome::held_bytes`]).
#[must_use]
pub fn run(opts: &Opts) -> report::Outcome {
    let mut outcome = match opts.workload {
        Workload::FigSweep => fig::run(opts),
        Workload::MeshIdle | Workload::MeshLoaded => mesh::run(opts),
    };
    match report::peak_rss_mb() {
        Ok(mb) => outcome.set(
            "peak_rss_mb",
            mb - outcome.held_bytes as f64 / f64::from(1 << 20),
        ),
        Err(e) => {
            outcome.check(Err(e));
            outcome.set("peak_rss_mb", 0.0);
        }
    }
    outcome
}

/// Nanoseconds as `f64`.
#[must_use]
pub fn ns(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64
}

/// Exact text form of a serialisable value; two values with equal text
/// are bit-identical (the JSON float encoding round-trips exactly).
#[must_use]
pub fn exact<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("JSON encoding is infallible")
}

/// Where traces and scratch ledgers go: `out/` next to this manifest.
#[must_use]
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
