//! Closed-loop timing with host normalization.
//!
//! Workloads time each call into the scheduler with [`Meter::time`] and
//! end a chunk of calls with [`Meter::close_chunk`], which runs the
//! host reference kernel and scales the chunk's samples (see
//! [`crate::host`]). Raw times are kept alongside for the traced
//! report.

use crate::host::Host;
use std::time::{Duration, Instant};

/// What a timed call was, for the latency statistics it feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// An ordinary closed-loop step (feeds `step_us_*`).
    Step,
    /// A step carrying an all-task reweighting burst.
    Burst,
    /// Simulated work that is neither (e.g. the slot every task joins
    /// in): counts toward throughput only.
    Other,
    /// A pause that simulates no slots (a checkpoint round trip): kept
    /// out of throughput.
    Pause,
}

const KINDS: usize = 4;

fn index(kind: Kind) -> usize {
    match kind {
        Kind::Step => 0,
        Kind::Burst => 1,
        Kind::Other => 2,
        Kind::Pause => 3,
    }
}

/// Accumulates normalized and raw samples over a run.
pub struct Meter {
    host: Host,
    start: Instant,
    budget: Duration,
    pending: Vec<(Kind, f64)>,
    pending_slots: u64,
    /// Normalized samples per kind, in seconds.
    norm: [Vec<f64>; KINDS],
    /// Raw samples per kind, in seconds.
    raw: [Vec<f64>; KINDS],
    slots: u64,
}

impl Meter {
    /// A meter whose budget of `seconds` starts now, for a workload
    /// running `width` threads.
    pub fn new(seconds: f64, width: usize) -> Meter {
        let host = Host::new(width);
        Meter {
            host,
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds),
            pending: Vec::new(),
            pending_slots: 0,
            norm: Default::default(),
            raw: Default::default(),
            slots: 0,
        }
    }

    /// Times one call that simulates `slots` slots.
    pub fn time<R>(&mut self, kind: Kind, slots: u64, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.pending.push((kind, t.elapsed().as_secs_f64()));
        self.pending_slots += slots;
        r
    }

    /// Ends a chunk: takes a kernel reading and files the chunk's
    /// samples, scaled, under their kinds.
    pub fn close_chunk(&mut self) {
        let s = self.host.close_chunk();
        for (kind, secs) in self.pending.drain(..) {
            self.norm[index(kind)].push(secs * s);
            self.raw[index(kind)].push(secs);
        }
        self.slots += self.pending_slots;
        self.pending_slots = 0;
    }

    /// Whether the time budget is spent.
    pub fn expired(&self) -> bool {
        self.start.elapsed() >= self.budget
    }

    /// Normalized samples of one kind, in seconds.
    pub fn samples(&self, kind: Kind) -> &[f64] {
        &self.norm[index(kind)]
    }

    /// Raw samples of one kind, in seconds.
    pub fn raw_samples(&self, kind: Kind) -> &[f64] {
        &self.raw[index(kind)]
    }

    /// Slots simulated in closed chunks.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// Total simulating time (every kind but [`Kind::Pause`]), seconds.
    fn busy(v: &[Vec<f64>; KINDS]) -> f64 {
        v[..3].iter().flatten().sum()
    }

    /// Simulated slots per normalized second of simulating time.
    pub fn slots_per_s(&self) -> f64 {
        self.slots as f64 / Meter::busy(&self.norm)
    }

    /// Simulated slots per raw second of simulating time.
    pub fn raw_slots_per_s(&self) -> f64 {
        self.slots as f64 / Meter::busy(&self.raw)
    }

    /// Every kernel reading of the run, milliseconds.
    pub fn ref_readings(&self) -> &[f64] {
        self.host.readings()
    }
}

/// Set-up samples per run; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 9;

/// Shortest set-up sample, seconds: a set-up quicker than this is
/// repeated within one sample so that timer and cache effects do not
/// dominate it.
const MIN_SETUP_SAMPLE_S: f64 = 0.05;

/// Times `samples` samples of a set-up, each bracketed by kernel
/// readings, and returns the normalized time of one set-up per sample
/// (seconds) along with the last set-up's product. A sample repeats a
/// quick set-up enough times to last [`MIN_SETUP_SAMPLE_S`].
pub fn time_setup<R>(samples: usize, mut f: impl FnMut() -> R) -> (Vec<f64>, R) {
    let mut host = Host::new(1);
    let t = Instant::now();
    let mut last = f();
    let once = t.elapsed().as_secs_f64();
    let reps = (MIN_SETUP_SAMPLE_S / once.max(1e-9)).ceil().max(1.0) as usize;
    host.close_chunk();
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples.max(1) {
        let mut secs = 0.0;
        for _ in 0..reps {
            let t = Instant::now();
            let r = f();
            secs += t.elapsed().as_secs_f64();
            drop(std::mem::replace(&mut last, r));
        }
        times.push(secs / reps as f64 * host.close_chunk());
    }
    (times, last)
}
