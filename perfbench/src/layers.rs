//! Per-layer metrics shared by the workloads: exact counts read from
//! `Engine::counters` and the counting probe, and timed replays of a
//! workload-shaped input through single layers.

use crate::host::Host;
use crate::probe::Counts;
use crate::report::Metrics;
use crate::stats::{median, pct, percentile};
use pfair_core::ideal::PsTracker;
use pfair_core::task::TaskId;
use pfair_core::time::Slot;
use pfair_core::weight::Weight;
use pfair_core::window::{b_bit, window_in_era, window_len};
use pfair_sched::admission::{AdmissionController, AdmissionPolicy};
use pfair_sched::calendar::CalendarRing;
use pfair_sched::overhead::Counters;
use pfair_sched::priority::Priority;
use pfair_sched::queue::{HeapQueue, QueueEntry, ReadyQueue};
use std::hint::black_box;
use std::time::Instant;

/// Operations each replay performs per repetition.
const REPLAY_OPS: usize = 150_000;

/// What a workload looks like to its layers: enough to drive each
/// layer on its own with the workload's own weights and shape.
pub struct Shape {
    /// Weights the workload requests (joins and reweights).
    pub weights: Vec<Weight>,
    /// Live ready-queue entries in steady state (≈ tasks per engine).
    pub live: usize,
    /// Processors per engine (queue pops per slot).
    pub processors: u32,
    /// Stale share of queue pops observed in the workload, 0..1.
    pub stale_frac: f64,
    /// Admission request streams, one controller each: `(task, weight)`.
    pub requests: Vec<Vec<(u32, Weight)>>,
    /// Capacity of each admission controller, in processors.
    pub capacity: u32,
    /// Per-task weight scripts `(slot, weight)` for the ideal replay.
    pub scripts: Vec<Vec<(Slot, Weight)>>,
    /// Slots each script runs to.
    pub horizon: Slot,
}

/// Sets the metrics derived from a run's exact engine counters and
/// counting-probe counts.
pub fn engine_counts(ms: &mut Metrics, c: &Counters, p: &Counts) {
    ms.count("queue.pushes", c.heap_pushes);
    ms.count("queue.pops", c.heap_pops);
    ms.set(
        "queue.stale_pct",
        pct(c.stale_pops as f64, c.heap_pops as f64),
    );
    ms.count("queue.compactions", c.compactions);
    ms.count("reweight.initiated", c.reweight_initiations);
    ms.set(
        "reweight.enacted_pct",
        pct(c.reweight_enactments as f64, c.reweight_initiations as f64),
    );
    ms.count("reweight.halts", c.halts);
    ms.set(
        "reweight.direct_cost",
        if p.initiated == 0 {
            0.0
        } else {
            p.direct_cost as f64 / p.initiated as f64
        },
    );
    let lat: Vec<f64> = p.latencies.iter().map(|&l| l as f64).collect();
    ms.set(
        "reweight.latency_p50",
        percentile(&lat, 50.0).unwrap_or(0.0),
    );
    ms.count("tracker.advances", p.tracker_advances);
    ms.count("batch.busy_span_jumps", p.busy_span_jumps);
    ms.count("batch.quiet_span_slots", p.quiet_span_slots);
    ms.count("batch.release_batches", p.release_batches);
    ms.set(
        "batch.batched_pct",
        pct(
            (p.quiet_span_slots + p.busy_span_slots) as f64,
            p.slots as f64,
        ),
    );
    ms.count("calendar.releases", p.releases);
    ms.count("engine.quanta", c.scheduled_quanta);
    ms.count("engine.preemptions", c.preemptions);
    ms.count("engine.migrations", c.migrations);
}

/// Runs `f` three times, each bracketed by host-kernel readings, and
/// returns the median normalized time per operation in nanoseconds.
fn per_op_ns(host: &mut Host, ops: usize, mut f: impl FnMut()) -> f64 {
    let mut xs = Vec::with_capacity(3);
    for _ in 0..3 {
        let t = Instant::now();
        f();
        let secs = t.elapsed().as_secs_f64();
        xs.push(secs * host.close_chunk() * 1e9 / ops.max(1) as f64);
    }
    median(&xs).unwrap_or(0.0)
}

fn mix(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

#[derive(Clone, Copy)]
enum QueueOp {
    Push(QueueEntry),
    Pop,
}

/// A scheduler-shaped push/pop stream: `live` entries in flight,
/// `processors` pops and pushes per slot with deadlines one window
/// ahead, and stale pushes (odd index) at the observed stale share.
fn queue_stream(shape: &Shape) -> Vec<QueueOp> {
    let mut ops = Vec::with_capacity(REPLAY_OPS + shape.live);
    let mut x = 0x51_7cc1_b727_220a_u64;
    let mut seq = 0u64;
    let n = shape.weights.len().max(1);
    let mut push = |ops: &mut Vec<QueueOp>, now: Slot, x: &mut u64, stale: bool| {
        let r = mix(x);
        let w = shape.weights[usize::try_from(r % n as u64).unwrap_or(0)];
        let k = r % 16 + 1;
        let deadline = now + window_len(w, k).max(1);
        seq += 2;
        let id = u32::try_from(r % shape.live.max(1) as u64).unwrap_or(0);
        ops.push(QueueOp::Push(QueueEntry {
            priority: Priority::pack(deadline, b_bit(w, k), deadline, id),
            task: TaskId(id),
            index: seq + u64::from(stale),
        }));
    };
    for _ in 0..shape.live {
        push(&mut ops, 0, &mut x, false);
    }
    let stale_per_mille = (shape.stale_frac.clamp(0.0, 0.9) * 1000.0) as u64;
    let mut now: Slot = 0;
    while ops.len() < REPLAY_OPS + shape.live {
        now += 1;
        for _ in 0..shape.processors.max(1) {
            ops.push(QueueOp::Pop);
            push(&mut ops, now, &mut x, false);
            if mix(&mut x) % 1000 < stale_per_mille {
                push(&mut ops, now, &mut x, true);
            }
        }
    }
    ops
}

fn replay_ready(ops: &[QueueOp]) -> u64 {
    let mut q = ReadyQueue::new();
    let mut c = Counters::default();
    for op in ops {
        match *op {
            QueueOp::Push(e) => q.push(e, &mut c),
            QueueOp::Pop => {
                black_box(q.pop_live(&mut c, |e| e.index % 2 == 0));
            }
        }
    }
    c.heap_pops
}

fn replay_heap(ops: &[QueueOp]) -> u64 {
    let mut q = HeapQueue::new();
    let mut c = Counters::default();
    for op in ops {
        match *op {
            QueueOp::Push(e) => q.push(e, &mut c),
            QueueOp::Pop => {
                black_box(q.pop_live(&mut c, |e| e.index % 2 == 0));
            }
        }
    }
    c.heap_pops
}

/// Conservative admission replay: commitments rise at each request and
/// never fall (no enactment or leave is replayed), so it refuses at
/// least every request the engine refuses. Returns `(refused,
/// requests)`.
pub fn admission_replay(shape: &Shape) -> (u64, u64) {
    let mut refused = 0;
    let mut total = 0;
    for group in &shape.requests {
        let n = group.iter().map(|r| r.0 + 1).max().unwrap_or(0);
        let mut ctl = AdmissionController::new(AdmissionPolicy::Police, shape.capacity, n);
        for &(task, want) in group {
            total += 1;
            match ctl.request(TaskId(task), want) {
                Some(got) if got == want => {}
                _ => refused += 1,
            }
        }
    }
    (refused, total)
}

/// Times every layer replay and sets its metric.
pub fn replays(ms: &mut Metrics, shape: &Shape) {
    let mut host = Host::new(1);

    let ops = queue_stream(shape);
    ms.set(
        "queue.radix_ns",
        per_op_ns(&mut host, ops.len(), || {
            black_box(replay_ready(&ops));
        }),
    );
    ms.set(
        "queue.heap_ns",
        per_op_ns(&mut host, ops.len(), || {
            black_box(replay_heap(&ops));
        }),
    );
    drop(ops);

    let (refused, requests) = admission_replay(shape);
    ms.count("admission.refused", refused);
    let reps = (REPLAY_OPS as u64 / requests.max(1)).max(1);
    ms.set(
        "admission.request_ns",
        per_op_ns(
            &mut host,
            usize::try_from(reps * requests).unwrap_or(1),
            || {
                for _ in 0..reps {
                    black_box(admission_replay(shape));
                }
            },
        ),
    );

    let vals: Vec<_> = shape.weights.iter().map(|w| w.value()).collect();
    let n = vals.len().max(1);
    ms.set(
        "rational.op_ns",
        per_op_ns(&mut host, REPLAY_OPS, || {
            for i in 0..REPLAY_OPS / 4 {
                let a = vals[i % n];
                let b = vals[(i * 7 + 3) % n];
                black_box(a + b);
                black_box(a * b);
                black_box(a - b);
                black_box(a < b);
            }
        }),
    );
    ms.set(
        "window.lookup_ns",
        per_op_ns(&mut host, REPLAY_OPS, || {
            for i in 0..REPLAY_OPS {
                black_box(window_in_era(shape.weights[i % n], (i % 64) as u64 + 1, 0));
            }
        }),
    );

    let script_ops: usize = shape.scripts.iter().map(|s| s.len() + 1).sum();
    let passes = (REPLAY_OPS / script_ops.max(1)).max(1);
    ms.set(
        "ideal.advance_ns",
        per_op_ns(&mut host, passes * script_ops, || {
            for _ in 0..passes {
                for script in &shape.scripts {
                    let Some(&(t0, w0)) = script.first() else {
                        continue;
                    };
                    let mut ps = PsTracker::new(w0.value(), t0);
                    for &(t, w) in &script[1..] {
                        black_box(ps.advance_to(t));
                        ps.set_wt(w.value());
                    }
                    black_box(ps.advance_to(shape.horizon));
                }
            }
        }),
    );

    // Calendar: each of `live` tasks re-registers one window ahead of
    // every release, the engine's release-schedule pattern.
    let periods: Vec<Slot> = (0..shape.live.max(1))
        .map(|i| window_len(shape.weights[i % shape.weights.len().max(1)], 1).max(1))
        .collect();
    let mut cal_ops = 0usize;
    ms.set(
        "calendar.insert_take_ns",
        per_op_ns(&mut host, REPLAY_OPS, || {
            let mut ring = CalendarRing::new(0);
            cal_ops = 0;
            for (i, &p) in periods.iter().enumerate() {
                ring.insert(p, TaskId(u32::try_from(i).unwrap_or(0)));
            }
            let mut t = 0;
            while cal_ops < REPLAY_OPS {
                t += 1;
                let due = ring.take(t);
                cal_ops += 1 + due.len();
                for id in due {
                    ring.insert(t + periods[id.idx()], id);
                }
            }
        }),
    );
}
