//! `online_reweight`: the live scheduler loop `pfair-exec` runs —
//! `Engine::inject` + `Engine::step` once per slot — over 1024 tasks on
//! 16 CPUs under PD²-OI with condition-(W) policing and a
//! `MetricsProbe` attached. The seeded arrival script issues ~2
//! single-task reweights per slot and, every 100 slots, a burst
//! reweighting all 1024 tasks (the §6 worst case). The first
//! [`CHECKPOINTS`] episodes of each run take a full checkpoint round
//! trip mid-episode and continue on the restored engine.

use crate::gate::{oi_guarantees, same_outcome, verified, Tally};
use crate::layers::{admission_replay, engine_counts, replays, Shape};
use crate::meter::{time_setup, Kind, Meter, SETUP_SAMPLES};
use crate::probe::CountingProbe;
use crate::report::Metrics;
use crate::stats::{median, percentile};
use crate::{end_to_end, peak_rss_mb, traced_accounting, Output, Rng, Run};
use pfair_core::rational::rat;
use pfair_core::task::TaskId;
use pfair_core::time::Slot;
use pfair_core::weight::Weight;
use pfair_json::ToJson;
use pfair_obs::{Fanout, MetricsProbe, NoopProbe, Probe};
use pfair_persist::{snapshot_from_str, snapshot_to_string};
use pfair_sched::engine::{Engine, SimConfig};
use pfair_sched::event::{Event, EventKind, Workload};
use pfair_sched::trace::SimResult;
use std::time::Instant;

const TASKS: u32 = 1024;
const CPUS: u32 = 16;
/// Slots per episode; every episode replays the same script on a fresh
/// engine.
const EPISODE: Slot = 1000;
const BURST_EVERY: Slot = 100;
/// Burst slots sit mid-period, away from the join slot.
const BURST_OFFSET: Slot = 50;
/// Episodes per run that take a checkpoint round trip.
const CHECKPOINTS: usize = 4;
/// The slot at which a checkpointing episode snapshots and restores.
const CHECKPOINT_AT: Slot = EPISODE / 2;
/// Weights are `k/GRID` with `k` in this range, between 1/160 and
/// 1/64: 1024 tasks at the heaviest weight fill the 16 CPUs exactly,
/// so condition (W) never refuses a request. The common grid keeps
/// every exact sum's denominator a divisor of `GRID`: 1024 weights with
/// unrelated denominators overflow the `i128` rationals (an open
/// defect this workload does not measure).
const NUM: (i64, i64) = (63, 157);
const GRID: i128 = 10_080;

/// The seeded arrival script: joins at slot 0 and the events injected
/// at each slot.
pub struct Script {
    joins: Workload,
    per_slot: Vec<Vec<Event>>,
}

fn weight(rng: &mut Rng) -> Weight {
    Weight::new(rat(i128::from(rng.range(NUM.0, NUM.1)), GRID))
}

fn reweight(at: Slot, task: u32, w: Weight) -> Event {
    Event {
        at,
        task: TaskId(task),
        kind: EventKind::Reweight(w),
    }
}

/// The script for `seed`.
pub fn generate(seed: u64) -> Script {
    let mut rng = Rng::new(seed);
    let mut joins = Workload::new();
    for task in 0..TASKS {
        joins.push(Event {
            at: 0,
            task: TaskId(task),
            kind: EventKind::Join(weight(&mut rng)),
        });
    }
    let per_slot = (0..EPISODE)
        .map(|t| {
            if t % BURST_EVERY == BURST_OFFSET {
                (0..TASKS)
                    .map(|task| reweight(t, task, weight(&mut rng)))
                    .collect()
            } else if t == 0 {
                Vec::new()
            } else {
                let n = rng.range(1, 3);
                (0..n)
                    .map(|_| {
                        let task = u32::try_from(rng.range(0, i64::from(TASKS) - 1)).unwrap_or(0);
                        reweight(t, task, weight(&mut rng))
                    })
                    .collect()
            }
        })
        .collect();
    Script { joins, per_slot }
}

/// Byte image of the generated inputs.
#[cfg(test)]
pub fn fingerprint(s: &Script) -> String {
    format!("{:?}|{:?}", s.joins.sorted_events(), s.per_slot)
}

fn config(horizon: Slot) -> SimConfig {
    SimConfig::oi(CPUS, horizon)
}

fn requests(s: &Script) -> u64 {
    u64::from(TASKS) + s.per_slot.iter().map(|v| v.len() as u64).sum::<u64>()
}

/// Timings of one checkpoint round trip, milliseconds, and its size.
pub struct Checkpoint {
    capture: f64,
    encode: f64,
    decode: f64,
    restore: f64,
    bytes: usize,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `Engine::snapshot` → `snapshot_to_string` → `snapshot_from_str` →
/// `Engine::restore`, each stage timed.
pub fn checkpoint<P: Probe>(
    engine: Engine<P>,
    probe: P,
) -> Result<(Engine<P>, Checkpoint), String> {
    let t = Instant::now();
    let snap = engine.snapshot()?;
    let capture = ms_since(t);
    drop(engine);
    let t = Instant::now();
    let text = snapshot_to_string(&snap);
    let encode = ms_since(t);
    drop(snap);
    let t = Instant::now();
    let back = snapshot_from_str(&text).map_err(|e| e.to_string())?;
    let decode = ms_since(t);
    let t = Instant::now();
    let engine = Engine::restore(back, probe)?;
    let restore = ms_since(t);
    let c = Checkpoint {
        capture,
        encode,
        decode,
        restore,
        bytes: text.len(),
    };
    Ok((engine, c))
}

fn set_persist(ms: &mut Metrics, cs: &[Checkpoint]) {
    let med =
        |f: fn(&Checkpoint) -> f64| median(&cs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    ms.set("persist.capture_ms", med(|c| c.capture));
    ms.set("persist.encode_ms", med(|c| c.encode));
    ms.set("persist.decode_ms", med(|c| c.decode));
    ms.set("persist.restore_ms", med(|c| c.restore));
    ms.set("persist.snapshot_bytes", med(|c| c.bytes as f64));
}

/// One checkpoint round trip of `engine`'s state, reported as the
/// `persist.*` metrics.
pub fn persist_layers<P: Probe>(
    ms: &mut Metrics,
    engine: Engine<P>,
    probe: P,
) -> Result<(), String> {
    let (_, c) = checkpoint(engine, probe)?;
    set_persist(ms, &[c]);
    Ok(())
}

fn inject_slot<P: Probe>(engine: &mut Engine<P>, events: &[Event]) -> Vec<TaskId> {
    for &e in events {
        engine.inject(e);
    }
    engine.step()
}

fn kind_of(t: Slot) -> Kind {
    if t == 0 {
        Kind::Other
    } else if t % BURST_EVERY == BURST_OFFSET {
        Kind::Burst
    } else {
        Kind::Step
    }
}

/// A prefix of the script against the history-mode oracle, with
/// `verify` and the PD²-OI guarantees; returns the verifier's time, ms.
fn check(s: &Script) -> Result<f64, String> {
    const PREFIX: Slot = 200;
    let run = |cfg: SimConfig| {
        let mut e = Engine::new(cfg, &s.joins);
        for events in &s.per_slot[..PREFIX as usize] {
            inject_slot(&mut e, events);
        }
        e.finish()
    };
    let fast = run(config(PREFIX));
    let oracle = run(config(PREFIX).with_history());
    same_outcome("online prefix", &fast, &oracle)?;
    oi_guarantees("online prefix", &fast)?;
    verified("online prefix", &oracle)
}

/// Runs the workload.
pub fn run(run: Run) -> Result<Output, String> {
    let (setup, (script, proto)) = time_setup(SETUP_SAMPLES, || {
        let s = generate(run.seed);
        let e = Engine::with_probe(config(EPISODE), &s.joins, MetricsProbe::new());
        (s, e)
    });
    let verify_ms = check(&script)?;

    let mut meter = Meter::new(run.seconds, 1);
    let mut checkpoints = Vec::new();
    let mut first: Option<(SimResult, String)> = None;
    let mut burst_ops = Vec::new();
    let mut checkpoint_episode_s = Vec::new();
    let mut episode = 0;
    let mut rss_mb = 0.0;
    while episode <= CHECKPOINTS || !meter.expired() {
        let started = Instant::now();
        let mut engine = proto.clone();
        for (t, events) in (0..EPISODE).zip(&script.per_slot) {
            if t == CHECKPOINT_AT && episode < CHECKPOINTS {
                let probe = MetricsProbe::from_registry(engine.probe_mut().registry().clone());
                let (restored, c) = meter.time(Kind::Pause, 0, || checkpoint(engine, probe))?;
                engine = restored;
                checkpoints.push(c);
            }
            let before = (episode == 0 && kind_of(t) == Kind::Burst).then(|| *engine.counters());
            meter.time(kind_of(t), 1, || inject_slot(&mut engine, events));
            if let Some(b) = before {
                let a = engine.counters();
                burst_ops.push((a.heap_ops() - b.heap_ops()) as f64);
            }
        }
        if episode < CHECKPOINTS {
            checkpoint_episode_s.push(started.elapsed().as_secs_f64());
        }
        let (r, probe) = engine.finish_with_probe();
        meter.close_chunk();
        if episode == 0 {
            oi_guarantees("online episode", &r)?;
            first = Some((r, probe.registry().snapshot_text()));
        } else if episode == CHECKPOINTS {
            rss_mb = peak_rss_mb();
            // The first uninterrupted episode must render exactly what
            // the checkpointed one did.
            let (r0, reg0) = first.as_ref().expect("episode 0 ran");
            if r0.to_json().to_string() != r.to_json().to_string() {
                return Err("online: run continued on the restored engine differs from an uninterrupted run".into());
            }
            if *reg0 != probe.registry().snapshot_text() {
                return Err(
                    "online: restored metrics registry differs from an uninterrupted run".into(),
                );
            }
        }
        episode += 1;
    }

    let (r0, _) = first.expect("episode 0 ran");
    let mut tally = Tally::default();
    tally.add(&r0, requests(&script));
    let shape = shape(&script, &r0);
    let (refused, _) = admission_replay(&shape);
    let (attempted, failed) = tally.outcome(refused);
    let mut ms = Metrics::default();
    if !run.trace {
        end_to_end(&mut ms, &setup, &meter, tally.ideal_pct(), rss_mb);
        return Ok(Output {
            attempted,
            failed,
            metrics: ms,
        });
    }

    // Traced pass: episode 0 again, counting probe fanned out beside
    // the metrics probe, every call timed.
    let wall = Instant::now();
    let mut calls_s = 0.0;
    let mut engine = Engine::with_probe(
        config(EPISODE),
        &script.joins,
        Fanout(MetricsProbe::new(), CountingProbe::default()),
    );
    for (t, events) in (0..EPISODE).zip(&script.per_slot) {
        if t == CHECKPOINT_AT {
            let p = engine.probe_mut();
            let probe = Fanout(
                MetricsProbe::from_registry(p.0.registry().clone()),
                p.1.clone(),
            );
            let c = Instant::now();
            engine = checkpoint(engine, probe)?.0;
            calls_s += c.elapsed().as_secs_f64();
        }
        let c = Instant::now();
        inject_slot(&mut engine, events);
        calls_s += c.elapsed().as_secs_f64();
    }
    let traced_wall_s = wall.elapsed().as_secs_f64();
    let (r, probe) = engine.finish_with_probe();
    if r.counters != r0.counters {
        return Err("online: traced pass counters differ from the untraced pass".into());
    }
    engine_counts(&mut ms, &r.counters, &probe.1.counts);
    let untraced_s = median(&checkpoint_episode_s).unwrap_or(0.0);
    traced_accounting(&mut ms, &meter, untraced_s, traced_wall_s, calls_s);
    replays(&mut ms, &shape);
    ms.set("drift_max_q", tally.drift_max_q());
    ms.set(
        "failed_pct",
        crate::stats::pct(failed as f64, attempted as f64),
    );
    ms.set(
        "burst_ms_p50",
        percentile(meter.samples(Kind::Burst), 50.0).map_or(0.0, |s| s * 1e3),
    );
    ms.set(
        "checkpoint_ms_p50",
        median(meter.samples(Kind::Pause)).map_or(0.0, |s| s * 1e3),
    );
    ms.set(
        "reweight.queue_ops_per_burst",
        median(&burst_ops).unwrap_or(0.0),
    );
    set_persist(&mut ms, &checkpoints);
    ms.set("scenario.generate_ms", median(&setup).unwrap_or(0.0) * 1e3);
    ms.set("verify.ms", verify_ms);
    ms.set("obs.metrics_overhead_pct", probe_overhead(&script));
    Ok(Output {
        attempted,
        failed,
        metrics: ms,
    })
}

/// `MetricsProbe` cost over the no-op probe on whole episodes, %:
/// alternating rounds, median of the per-round ratios.
fn probe_overhead(s: &Script) -> f64 {
    fn episode<P: Probe>(s: &Script, probe: P) -> f64 {
        let t = Instant::now();
        let mut e = Engine::with_probe(config(EPISODE), &s.joins, probe);
        for events in &s.per_slot {
            inject_slot(&mut e, events);
        }
        drop(e.finish());
        t.elapsed().as_secs_f64()
    }
    let ratios: Vec<f64> = (0..3)
        .map(|_| episode(s, MetricsProbe::new()) / episode(s, NoopProbe))
        .collect();
    (median(&ratios).unwrap_or(1.0) - 1.0) * 100.0
}

/// The workload as its layers see it.
fn shape(s: &Script, r: &SimResult) -> Shape {
    let joins: Vec<(u32, Weight)> = s
        .joins
        .sorted_events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Join(w) => Some((e.task.0, w)),
            _ => None,
        })
        .collect();
    let mut scripts: Vec<Vec<(Slot, Weight)>> = joins.iter().map(|&(_, w)| vec![(0, w)]).collect();
    let mut group = joins.clone();
    for e in s.per_slot.iter().flatten() {
        if let EventKind::Reweight(w) = e.kind {
            group.push((e.task.0, w));
            scripts[e.task.idx()].push((e.at, w));
        }
    }
    Shape {
        weights: group.iter().map(|&(_, w)| w).collect(),
        live: TASKS as usize,
        processors: CPUS,
        stale_frac: r.counters.stale_pops as f64 / r.counters.heap_pops.max(1) as f64,
        requests: vec![group],
        capacity: CPUS,
        scripts,
        horizon: EPISODE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(fingerprint(&generate(3)), fingerprint(&generate(3)));
        assert_ne!(fingerprint(&generate(3)), fingerprint(&generate(4)));
    }
}
