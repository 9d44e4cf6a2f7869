//! What one run found, and how it is printed.

use crate::spans::{layer_of, self_times, Span};
use crate::wrap::ProbeSnap;
use crate::{exact, Opts, END_TO_END, HELD_OUT_SEED, PER_LAYER};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::process::Command;

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Points and checks attempted.
    pub attempted: u64,
    /// Descriptions of the points and checks that failed.
    pub failures: Vec<String>,
    /// Metric values by name (the contract set plus extras).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Values printed in the table only, with their units.
    pub extras: Vec<(&'static str, f64, &'static str)>,
    /// The traced run's spans and the number of lanes they ran on.
    pub spans: Option<(Vec<Span>, u64)>,
    /// Resident bytes the benchmark itself holds for the whole run (the
    /// host-speed probe's buffer), left out of `peak_rss_mb`.
    pub held_bytes: u64,
}

impl Outcome {
    /// Counts one check, recording `failure` if it is `Err`.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(failure) = result {
            self.failures.push(failure);
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Checks `value` against `reference`, bit for bit.
    pub fn check_same<T: Serialize + ?Sized>(&mut self, what: &str, reference: &T, value: &T) {
        self.check(
            (exact(reference) == exact(value))
                .then_some(())
                .ok_or_else(|| format!("{what}: simulated results differ from the reference")),
        );
    }

    /// One policy's selector metrics (`names` from
    /// [`crate::SELECT_METRICS`]); `run_ns` is the host time of the
    /// simulations the calls happened in.
    pub fn set_select(&mut self, names: [&'static str; 3], snap: &ProbeSnap, run_ns: u64) {
        let [calls, per_call, share] = names;
        self.set(calls, snap.select.calls as f64);
        self.set(per_call, per(snap.select.ns, snap.select.calls));
        self.set(share, snap.select.ns as f64 / run_ns.max(1) as f64 * 100.0);
    }

    /// The policy-independent leaf metrics over all simulations of the
    /// run; `run_ns` is their host time.
    pub fn set_leaves(&mut self, snap: &ProbeSnap, run_ns: u64) {
        self.set(
            "adele.select.allocs_per_call",
            per(snap.select.allocs, snap.select.calls),
        );
        self.set("adele.feedback.calls", snap.feedback.calls as f64);
        self.set(
            "adele.feedback.ns_per_call",
            per(snap.feedback.ns, snap.feedback.calls),
        );
        self.set("noc_traffic.calls", snap.traffic.calls as f64);
        self.set(
            "noc_traffic.ns_per_call",
            per(snap.traffic.ns, snap.traffic.calls),
        );
        self.set(
            "noc_traffic.share_pct",
            snap.traffic.ns as f64 / run_ns.max(1) as f64 * 100.0,
        );
    }

    /// The contract metrics of this run, in `BENCHMARK.json` order. A run
    /// that failed a check may have stopped before measuring some; they
    /// read `0`.
    ///
    /// # Panics
    ///
    /// Panics if a run without failures left one unset (a benchmark bug).
    #[must_use]
    pub fn contract_metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        table
            .iter()
            .map(|&(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(&v) => v,
                    None if !self.failures.is_empty() => 0.0,
                    None => panic!("metric {name} was not measured"),
                };
                (name, value, unit)
            })
            .collect()
    }

    /// The final result line.
    #[must_use]
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = self
            .contract_metrics(trace)
            .into_iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(value)),
                        ("unit".into(), Value::String(unit.into())),
                    ]),
                )
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(self.failures.is_empty())),
            ("attempted".into(), Value::UInt(self.attempted.max(1))),
            ("failed".into(), Value::UInt(self.failures.len() as u64)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("JSON encoding is infallible")
    }

    /// The human-readable report: metrics (contract and extras) and, for
    /// a traced run, the self-time table per layer.
    #[must_use]
    pub fn table(&self, trace: bool) -> String {
        let mut out = String::new();
        let mut rows = self.contract_metrics(trace);
        rows.extend(self.extras.iter().copied());
        let failed_ratio = self.failures.len() as f64 / self.attempted.max(1) as f64;
        rows.push(("failed_ratio", failed_ratio, "ratio"));
        for (name, value, unit) in rows {
            out.push_str(&format!("  {name:<40} {value:>16.4} {unit}\n"));
        }
        for failure in &self.failures {
            out.push_str(&format!("  FAILED: {failure}\n"));
        }
        if let Some((spans, lanes)) = &self.spans {
            out.push_str(&self_time_table(spans, *lanes));
        }
        out
    }
}

/// Self time per span name and per layer, against the traced section's
/// capacity (root wall × lanes), with the unattributed remainder.
#[must_use]
pub fn self_time_table(spans: &[Span], lanes: u64) -> String {
    let table = self_times(spans);
    let Some(root) = spans.iter().find(|s| s.parent == 0) else {
        return String::new();
    };
    let wall = root.end - root.start;
    let capacity = wall * lanes.max(1);
    let mut out = format!(
        "\n  traced section: wall {:.1} ms x {} lane(s) = {:.1} ms of capacity\n",
        wall as f64 / 1e6,
        lanes.max(1),
        capacity as f64 / 1e6
    );
    out.push_str(&format!(
        "  {:<32} {:>12} {:>8} {:>12}\n",
        "span", "self ms", "share", "calls"
    ));
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    let mut attributed = 0;
    for (name, &(self_ns, calls)) in &table {
        if name == &root.name {
            continue;
        }
        attributed += self_ns;
        *layers.entry(layer_of(name)).or_default() += self_ns;
        out.push_str(&format!(
            "  {name:<32} {:>12.2} {:>7.2}% {calls:>12}\n",
            self_ns as f64 / 1e6,
            share(self_ns, capacity)
        ));
    }
    out.push_str("  -- per layer --\n");
    for (layer, self_ns) in &layers {
        out.push_str(&format!(
            "  {layer:<32} {:>12.2} {:>7.2}%\n",
            *self_ns as f64 / 1e6,
            share(*self_ns, capacity)
        ));
    }
    let rest = capacity.saturating_sub(attributed);
    out.push_str(&format!(
        "  {:<32} {:>12.2} {:>7.2}%  (benchmark code, idle lanes)\n",
        "unattributed",
        rest as f64 / 1e6,
        share(rest, capacity)
    ));
    out
}

/// `total` per call (`0` without calls).
fn per(total: u64, calls: u64) -> f64 {
    total as f64 / calls.max(1) as f64
}

fn share(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64 * 100.0
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
///
/// # Errors
///
/// Returns a message when `/proc/self/status` has no readable `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where the measured code came from and what ran it: commit and dirty
/// flag (`unknown` outside a git checkout of this repository), cores,
/// `NOC_THREADS`, compiler, seeds and run length.
#[must_use]
pub fn provenance(opts: &Opts) -> Value {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(|p| p.to_string_lossy().into_owned())
        .unwrap_or_default();
    // Only trust git when this repository is the top level, not some
    // enclosing checkout.
    let toplevel = command_output("git", &["-C", &root, "rev-parse", "--show-toplevel"]);
    let in_repo = toplevel
        .is_some_and(|t| std::fs::canonicalize(&t).ok() == std::fs::canonicalize(&root).ok());
    let (commit, dirty) = if in_repo {
        (
            command_output("git", &["-C", &root, "rev-parse", "HEAD"]),
            command_output("git", &["-C", &root, "status", "--porcelain"]).map(|s| !s.is_empty()),
        )
    } else {
        (None, None)
    };
    let text = |s: Option<String>| Value::String(s.unwrap_or_else(|| "unknown".into()));
    Value::Object(vec![
        (
            "workload".into(),
            Value::String(opts.workload.name().into()),
        ),
        ("seed".into(), Value::UInt(opts.seed)),
        ("held_out_seed".into(), Value::UInt(HELD_OUT_SEED)),
        ("seconds".into(), Value::Float(opts.seconds)),
        ("trace".into(), Value::Bool(opts.trace)),
        ("smoke".into(), Value::Bool(opts.smoke)),
        ("git_commit".into(), text(commit)),
        (
            "git_dirty".into(),
            dirty.map_or(Value::String("unknown".into()), Value::Bool),
        ),
        (
            "nproc".into(),
            Value::UInt(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        (
            "noc_threads".into(),
            std::env::var("NOC_THREADS").map_or(Value::Null, Value::String),
        ),
        ("rustc".into(), text(command_output("rustc", &["-V"]))),
    ])
}
