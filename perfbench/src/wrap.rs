//! Timing wrappers around the public extension traits the simulator
//! calls per packet or per cycle: [`ElevatorSelector`] (the `adele`
//! online layer and the `noc_energy` push it receives), [`TrafficSource`]
//! and [`ScheduledSource`] (`noc_traffic`), and `amosa`'s [`Problem`].
//! Each wrapper forwards every call unchanged, so a wrapped run is
//! bit-identical to an unwrapped one; only the traced run installs them.

use crate::alloc::thread_allocs;
use adele::online::{ElevatorSelector, SelectionContext, SourceFeedback};
use amosa::Problem;
use noc_sim::TrafficInput;
use noc_topology::{ElevatorId, NodeId};
use noc_traffic::{
    InjectionRequest, ScheduledInjection, ScheduledSource, TrafficDirective, TrafficSource,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Calls, nanoseconds and heap allocations booked by one leaf layer.
#[derive(Debug, Default)]
pub struct Leaf {
    calls: AtomicU64,
    ns: AtomicU64,
    allocs: AtomicU64,
}

/// A point-in-time reading of a [`Leaf`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LeafSnap {
    /// Calls so far.
    pub calls: u64,
    /// Nanoseconds spent inside the calls.
    pub ns: u64,
    /// Heap allocations made inside the calls.
    pub allocs: u64,
}

impl LeafSnap {
    /// The counts booked between `earlier` and `self`.
    #[must_use]
    pub fn since(self, earlier: LeafSnap) -> LeafSnap {
        LeafSnap {
            calls: self.calls - earlier.calls,
            ns: self.ns - earlier.ns,
            allocs: self.allocs - earlier.allocs,
        }
    }

    /// Adds `other` in place.
    pub fn add(&mut self, other: LeafSnap) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.allocs += other.allocs;
    }
}

impl Leaf {
    // Relaxed: these are statistics; no other data is published through
    // them, and readers only sample them between chunks.
    fn book(&self, started: Instant, allocs: u64) {
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.allocs.fetch_add(allocs, Ordering::Relaxed);
    }

    /// The current totals.
    #[must_use]
    pub fn snap(&self) -> LeafSnap {
        LeafSnap {
            calls: self.calls.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
        }
    }
}

/// The leaf layers of one simulator.
#[derive(Debug, Default)]
pub struct Probes {
    /// `ElevatorSelector::select`.
    pub select: Leaf,
    /// `ElevatorSelector::on_source_departure`.
    pub feedback: Leaf,
    /// `ElevatorSelector::on_pillar_energy` (the measured-energy push).
    pub energy: Leaf,
    /// `TrafficSource::maybe_inject` / `ScheduledSource::next_injections`.
    pub traffic: Leaf,
}

/// All four leaves at once.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSnap {
    /// See [`Probes::select`].
    pub select: LeafSnap,
    /// See [`Probes::feedback`].
    pub feedback: LeafSnap,
    /// See [`Probes::energy`].
    pub energy: LeafSnap,
    /// See [`Probes::traffic`].
    pub traffic: LeafSnap,
}

impl Probes {
    /// The current totals of every leaf.
    #[must_use]
    pub fn snap(&self) -> ProbeSnap {
        ProbeSnap {
            select: self.select.snap(),
            feedback: self.feedback.snap(),
            energy: self.energy.snap(),
            traffic: self.traffic.snap(),
        }
    }
}

impl ProbeSnap {
    /// The counts booked between `earlier` and `self`.
    #[must_use]
    pub fn since(self, earlier: ProbeSnap) -> ProbeSnap {
        ProbeSnap {
            select: self.select.since(earlier.select),
            feedback: self.feedback.since(earlier.feedback),
            energy: self.energy.since(earlier.energy),
            traffic: self.traffic.since(earlier.traffic),
        }
    }

    /// The leaf aggregates as `(span name, ns, calls)`.
    #[must_use]
    pub fn spans(&self) -> [(&'static str, u64, u64); 4] {
        [
            ("adele.online.select", self.select.ns, self.select.calls),
            (
                "adele.online.feedback",
                self.feedback.ns,
                self.feedback.calls,
            ),
            ("noc_energy.push", self.energy.ns, self.energy.calls),
            ("noc_traffic.next", self.traffic.ns, self.traffic.calls),
        ]
    }

    /// Adds `other` in place.
    pub fn add(&mut self, other: ProbeSnap) {
        self.select.add(other.select);
        self.feedback.add(other.feedback);
        self.energy.add(other.energy);
        self.traffic.add(other.traffic);
    }
}

/// Times the selector's per-packet and per-event calls.
pub struct TimedSelector {
    inner: Box<dyn ElevatorSelector>,
    probes: Arc<Probes>,
}

impl TimedSelector {
    /// Wraps `inner`, booking into `probes`.
    #[must_use]
    pub fn new(inner: Box<dyn ElevatorSelector>, probes: Arc<Probes>) -> Self {
        Self { inner, probes }
    }
}

impl ElevatorSelector for TimedSelector {
    fn select(&mut self, ctx: &SelectionContext<'_>) -> ElevatorId {
        let allocs = thread_allocs();
        let started = Instant::now();
        let pick = self.inner.select(ctx);
        self.probes.select.book(started, thread_allocs() - allocs);
        pick
    }

    fn on_source_departure(&mut self, feedback: &SourceFeedback) {
        let started = Instant::now();
        self.inner.on_source_departure(feedback);
        self.probes.feedback.book(started, 0);
    }

    fn on_elevator_status(&mut self, elevator: ElevatorId, failed: bool) {
        self.inner.on_elevator_status(elevator, failed);
    }

    fn on_pillar_energy(&mut self, energy: &[f64]) {
        let started = Instant::now();
        self.inner.on_pillar_energy(energy);
        self.probes.energy.book(started, 0);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Times the polled (`v1`) workload's per-node, per-cycle call.
struct TimedPolled {
    inner: Box<dyn TrafficSource>,
    probes: Arc<Probes>,
}

impl TrafficSource for TimedPolled {
    fn maybe_inject(&mut self, node: NodeId, cycle: u64) -> Option<InjectionRequest> {
        let started = Instant::now();
        let request = self.inner.maybe_inject(node, cycle);
        self.probes.traffic.book(started, 0);
        request
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn mean_rate(&self) -> Option<f64> {
        self.inner.mean_rate()
    }

    fn apply(&mut self, directive: &TrafficDirective) {
        self.inner.apply(directive);
    }
}

/// Times the batched (`v2`) workload's calendar refill.
struct TimedScheduled {
    inner: Box<dyn ScheduledSource>,
    probes: Arc<Probes>,
}

impl ScheduledSource for TimedScheduled {
    fn next_injections(&mut self, up_to: u64) -> &[ScheduledInjection] {
        let started = Instant::now();
        let batch = self.inner.next_injections(up_to);
        self.probes.traffic.book(started, 0);
        batch
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn mean_rate(&self) -> Option<f64> {
        self.inner.mean_rate()
    }

    fn apply(&mut self, directive: &TrafficDirective, now: u64) {
        self.inner.apply(directive, now);
    }

    fn horizon(&self) -> u64 {
        self.inner.horizon()
    }
}

/// Wraps either workload interface.
#[must_use]
pub fn timed_input(input: TrafficInput, probes: Arc<Probes>) -> TrafficInput {
    match input {
        TrafficInput::Polled(inner) => {
            TrafficInput::Polled(Box::new(TimedPolled { inner, probes }))
        }
        TrafficInput::Scheduled(inner) => {
            TrafficInput::Scheduled(Box::new(TimedScheduled { inner, probes }))
        }
    }
}

/// Times AMOSA's objective evaluations (single-threaded, hence `Cell`).
pub struct TimedProblem<P> {
    inner: P,
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl<P> TimedProblem<P> {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            calls: Cell::new(0),
            ns: Cell::new(0),
        }
    }

    /// `(evaluations, nanoseconds inside them)` so far.
    #[must_use]
    pub fn evaluations(&self) -> (u64, u64) {
        (self.calls.get(), self.ns.get())
    }
}

impl<P: Problem> Problem for TimedProblem<P> {
    type Solution = P::Solution;

    fn objectives(&self) -> usize {
        self.inner.objectives()
    }

    fn random_solution(&self, rng: &mut dyn rand::RngCore) -> Self::Solution {
        self.inner.random_solution(rng)
    }

    fn neighbour(&self, current: &Self::Solution, rng: &mut dyn rand::RngCore) -> Self::Solution {
        self.inner.neighbour(current, rng)
    }

    fn evaluate(&self, solution: &Self::Solution) -> Vec<f64> {
        let started = Instant::now();
        let objectives = self.inner.evaluate(solution);
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls.set(self.calls.get() + 1);
        self.ns.set(self.ns.get() + ns);
        objectives
    }
}
