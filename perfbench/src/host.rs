//! The host-speed probe: how fast this host runs right now, against a
//! nominal host.
//!
//! The benchmark shares its machine with other tenants, and their load
//! moves the program's speed by 15–25 % over tens of seconds to minutes.
//! It is the hardware that slows down, not the CPU time that shrinks: the
//! simulating thread's CPU time matched its wall time to 0.1 %. Longer
//! runs do not average that away. A fixed kernel, owned by this package
//! and untouched by any change to the program, slows down with the same
//! neighbours. The workloads run it between repetitions (or batches) and
//! divide each one's host time by the host's slowness around it, so their
//! host-time metrics read as time on the nominal host.
//!
//! Two kernels, one per kind of workload, each the one that tracked it
//! best on a 2-core shared VM (Xeon, 2.1 GHz, 2 MiB L2 per core):
//!
//! - [`Kind::Memory`] streams read-modify-write passes over 2, 8 and
//!   32 MiB (the per-core L2 and beyond); the slowness is the geometric
//!   mean of the three times over their nominal times. The large mesh
//!   simulations follow it: 15-second windows of their repetition times
//!   spread 15–28 % as measured and 5–11 % divided.
//! - [`Kind::Compute`] runs an integer loop over a 32 KiB table, inside
//!   the L1 cache. fig_sweep's small fabrics stay in cache and follow it,
//!   not the streams: 20-second windows of its batch times spread 14 %
//!   as measured, 9 % divided by the memory kernel and 5 % by this one.

use std::time::Instant;

/// `(working set in u64 words, passes, nominal seconds)` per segment of
/// the memory kernel; every segment streams 160 MiB. The nominal times
/// are the segments' median times on the VM described above, so divided
/// times read close to that host's typical measured times.
const SEGMENTS: [(usize, usize, f64); 3] = [
    (1 << 18, 80, 8.0e-3),
    (1 << 20, 20, 10.5e-3),
    (1 << 22, 5, 20.0e-3),
];

/// `(table size in u64 words, steps, nominal seconds)` of the compute
/// kernel, nominal as above.
const COMPUTE: (usize, u64, f64) = (1 << 12, 20_000_000, 48.0e-3);

/// Which kernel a probe runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Streaming passes over 2, 8 and 32 MiB: the mesh workloads.
    Memory,
    /// An integer loop inside the L1 cache: fig_sweep.
    Compute,
}

/// A kernel and its buffer, allocated and touched once.
pub struct Probe {
    kind: Kind,
    buf: Vec<u64>,
}

impl Probe {
    /// Allocates and touches the kernel's largest working set.
    #[must_use]
    pub fn new(kind: Kind) -> Self {
        let words = match kind {
            Kind::Memory => SEGMENTS.iter().map(|s| s.0).max().unwrap_or(0),
            Kind::Compute => COMPUTE.0,
        };
        Self {
            kind,
            buf: vec![1; words],
        }
    }

    /// Resident bytes the probe holds for the whole run.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.buf.len() * std::mem::size_of::<u64>()
    }

    /// The host's slowness now: measured over nominal time (`1` on the
    /// nominal host, `1.2` on one 20 % slower); for the memory kernel, the
    /// geometric mean of that ratio over the segments.
    pub fn slowness(&mut self) -> f64 {
        if self.kind == Kind::Compute {
            let (_, steps, nominal) = COMPUTE;
            let started = Instant::now();
            std::hint::black_box(churn(&mut self.buf, steps));
            return started.elapsed().as_secs_f64() / nominal;
        }
        let mut log_sum = 0.0;
        for &(words, passes, nominal) in &SEGMENTS {
            let started = Instant::now();
            std::hint::black_box(stream(&mut self.buf[..words], passes));
            log_sum += (started.elapsed().as_secs_f64() / nominal).ln();
        }
        (log_sum / SEGMENTS.len() as f64).exp()
    }
}

/// `passes` read-modify-write sweeps over `buf`.
fn stream(buf: &mut [u64], passes: usize) -> u64 {
    let mut h = 0u64;
    for _ in 0..passes {
        for v in buf.iter_mut() {
            h = h.wrapping_add(*v);
            *v = v.wrapping_mul(3).wrapping_add(1);
        }
    }
    h
}

/// `steps` pseudo-random read-modify-writes of `table`, whose length is a
/// power of two.
fn churn(table: &mut [u64], steps: u64) -> u64 {
    let mask = table.len() - 1;
    let mut h = 0x9E37_79B9_7F4A_7C15_u64;
    for i in 0..steps {
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
        let j = h as usize & mask;
        table[j] = table[j].wrapping_add(i ^ h);
    }
    h
}

/// Brackets timed intervals with probe samples: each interval's slowness
/// is the geometric mean of the samples just before and just after it.
pub struct Speed {
    probe: Probe,
    last: f64,
    samples: Vec<f64>,
}

impl Speed {
    /// A probe of `kind` and its first sample.
    #[must_use]
    pub fn new(kind: Kind) -> Self {
        let mut probe = Probe::new(kind);
        let last = probe.slowness();
        Self {
            probe,
            last,
            samples: vec![last],
        }
    }

    /// Samples the probe and returns the slowness of the interval since
    /// the previous sample.
    pub fn interval(&mut self) -> f64 {
        let now = self.probe.slowness();
        let slowness = (self.last * now).sqrt();
        self.last = now;
        self.samples.push(now);
        slowness
    }

    /// Every sample so far.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Resident bytes of the probe.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.probe.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_interval_is_the_geometric_mean_of_its_bracketing_samples() {
        for (kind, bytes) in [(Kind::Memory, 32 << 20), (Kind::Compute, 32 << 10)] {
            let mut speed = Speed::new(kind);
            let slowness = speed.interval();
            let [before, after] = speed.samples() else {
                panic!("two samples: {:?}", speed.samples());
            };
            assert!(before.is_finite() && *before > 0.0 && *after > 0.0);
            assert!((slowness - (before * after).sqrt()).abs() < 1e-12);
            assert_eq!(speed.bytes(), bytes);
        }
    }
}
