//! `population_sharded`: `synthetic_population(100_000, seed)` through
//! a `ShardSet` of 8 shards, 512-slot segments, pool width 2, no
//! reweights, 4096 slots per episode. One closed-loop step is one
//! `run_segments(1)` call after the first, which routes every join.

use crate::gate::{add_counters, same_outcome, verified, Tally};
use crate::layers::{admission_replay, engine_counts, replays, Shape};
use crate::meter::{time_setup, Kind, Meter, SETUP_SAMPLES};
use crate::probe::Counts;
use crate::report::Metrics;
use crate::stats::{median, pct, percentile};
use crate::{end_to_end, peak_rss_mb, subseed, traced_accounting, Output, Run};
use pfair_core::rational::Rational;
use pfair_core::time::Slot;
use pfair_core::weight::Weight;
use pfair_sched::engine::{simulate, SimConfig};
use pfair_sched::event::{EventKind, Workload};
use pfair_sched::overhead::Counters;
use pfair_sched::shard::{ShardReport, ShardSet, ShardSpec};
use pfair_sched::workloads::synthetic_population;
use std::time::Instant;

const TASKS: u32 = 100_000;
const SHARDS: usize = 8;
const SEGMENT: Slot = 512;
const HORIZON: Slot = 4096;
const WIDTH: usize = 2;

/// Per-shard processors covering the worst-case utilization
/// (`tasks/512`) split across the shards, plus one.
fn processors_for(tasks: u32) -> u32 {
    tasks.div_ceil(512).div_ceil(SHARDS as u32) + 1
}

fn spec(tasks: u32, horizon: Slot, width: usize) -> ShardSpec {
    ShardSpec::new(SHARDS, processors_for(tasks), horizon)
        .with_segment(SEGMENT)
        .with_threads(width)
}

/// Byte image of the generated inputs.
#[cfg(test)]
pub fn fingerprint(w: &Workload) -> String {
    format!("{:?}", w.sorted_events())
}

fn joins(w: &Workload) -> Vec<(u32, Weight)> {
    w.sorted_events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Join(w) => Some((e.task.0, w)),
            _ => None,
        })
        .collect()
}

/// Shard determinism and `verify` on a sample population: the
/// partition-invariant report at pool widths 1 and 2, and one engine
/// over a slice against the history-mode oracle. Returns the
/// verifier's time, ms.
fn check(seed: u64) -> Result<f64, String> {
    let sample = synthetic_population(10_000, subseed(seed, 1));
    let a = ShardSet::new(spec(10_000, 1024, 1), &sample).finish();
    let b = ShardSet::new(spec(10_000, 1024, 2), &sample).finish();
    if a.invariant_json() != b.invariant_json() {
        return Err("population: shard report differs between pool widths 1 and 2".into());
    }
    if a.misses() != 0 {
        return Err(format!(
            "population sample missed {} deadline(s)",
            a.misses()
        ));
    }
    let slice = synthetic_population(2_000, subseed(seed, 2));
    let cfg = SimConfig::oi(2_000u32.div_ceil(512) + 1, 1024);
    let fast = simulate(cfg.clone(), &slice);
    let oracle = simulate(cfg.with_history(), &slice);
    same_outcome("population slice", &fast, &oracle)?;
    verified("population slice", &oracle)
}

/// One episode's report and shard-layer timings.
struct Episode {
    report: ShardReport,
    new_ms: f64,
    finish_ms: f64,
    imbalance_pct: f64,
}

fn imbalance(util: &[Rational]) -> f64 {
    let v: Vec<f64> = util.iter().map(|u| u.to_f64()).collect();
    let max = v.iter().copied().fold(f64::MIN, f64::max);
    let min = v.iter().copied().fold(f64::MAX, f64::min);
    pct(max - min, v.iter().sum::<f64>() / v.len().max(1) as f64)
}

fn episode(w: &Workload, width: usize, meter: &mut Meter, close: bool) -> Episode {
    let t = Instant::now();
    let mut set = meter.time(Kind::Other, 0, || {
        ShardSet::new(spec(TASKS, HORIZON, width), w)
    });
    let new_ms = t.elapsed().as_secs_f64() * 1e3;
    while set.now() < HORIZON {
        // The first segment routes every join: like online's join slot
        // it counts toward throughput but not toward the step median.
        let kind = if set.now() == 0 {
            Kind::Other
        } else {
            Kind::Step
        };
        meter.time(kind, SEGMENT as u64, || set.run_segments(1));
        if close {
            meter.close_chunk();
        }
    }
    let imbalance_pct = imbalance(set.utilization());
    let t = Instant::now();
    let report = meter.time(Kind::Other, 0, || set.finish());
    let finish_ms = t.elapsed().as_secs_f64() * 1e3;
    Episode {
        report,
        new_ms,
        finish_ms,
        imbalance_pct,
    }
}

fn tally(report: &ShardReport, requests: u64) -> (Tally, Counters) {
    // A `ShardReport` has no `SimResult`; fold its per-task summaries
    // into the same accuracy figures.
    let mut t = Tally::default();
    let mut counters = Counters::default();
    for s in &report.per_shard {
        add_counters(&mut counters, &s.counters);
    }
    let pcts: Vec<f64> = report
        .tasks
        .iter()
        .filter(|g| g.ps_total.is_positive())
        .map(|g| 100.0 * g.scheduled_count as f64 / g.ps_total.to_f64())
        .collect();
    let drift = report
        .tasks
        .iter()
        .flat_map(|g| g.drift.iter().map(|s| s.drift.abs().to_f64()))
        .fold(0.0, f64::max);
    t.add_summary(
        drift,
        pcts.iter().sum::<f64>() / pcts.len().max(1) as f64,
        report.misses() as u64,
        counters.scheduled_quanta,
        requests,
    );
    (t, counters)
}

/// Runs the workload.
pub fn run(run: Run) -> Result<Output, String> {
    let (setup, w) = time_setup(SETUP_SAMPLES, || {
        let w = synthetic_population(TASKS, run.seed);
        drop(ShardSet::new(spec(TASKS, HORIZON, WIDTH), &w));
        w
    });
    let verify_ms = check(run.seed)?;

    let mut meter = Meter::new(run.seconds, WIDTH);
    let mut first: Option<Episode> = None;
    let mut episode_s = Vec::new();
    let (mut news, mut finishes) = (Vec::new(), Vec::new());
    let mut rss_mb = 0.0;
    while first.is_none() || !meter.expired() {
        let t = Instant::now();
        let ep = episode(&w, WIDTH, &mut meter, true);
        if ep.report.misses() != 0 {
            return Err(format!(
                "population missed {} deadline(s)",
                ep.report.misses()
            ));
        }
        news.push(ep.new_ms);
        finishes.push(ep.finish_ms);
        episode_s.push(t.elapsed().as_secs_f64());
        match &first {
            None => {
                rss_mb = peak_rss_mb();
                first = Some(ep);
            }
            Some(f) if f.report.invariant_json() != ep.report.invariant_json() => {
                return Err("population: episodes of one input disagree".into());
            }
            Some(_) => {}
        }
    }
    meter.close_chunk();
    let first = first.expect("one episode ran");
    let joins = joins(&w);
    let (tally, counters) = tally(&first.report, joins.len() as u64);
    let shape = Shape {
        weights: joins.iter().map(|&(_, w)| w).collect(),
        live: TASKS as usize / SHARDS,
        processors: processors_for(TASKS),
        stale_frac: counters.stale_pops as f64 / counters.heap_pops.max(1) as f64,
        scripts: joins.iter().map(|&(_, w)| vec![(0, w)]).collect(),
        requests: vec![joins],
        capacity: processors_for(TASKS) * SHARDS as u32,
        horizon: HORIZON,
    };
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

    // Traced pass: one episode with every call timed. The shards'
    // probes are internal to `ShardSet`; their merged registry stands
    // in for the counting probe.
    let wall = Instant::now();
    let mut scratch = Meter::new(0.0, WIDTH);
    let traced = episode(&w, WIDTH, &mut scratch, false);
    let traced_wall_s = wall.elapsed().as_secs_f64();
    scratch.close_chunk();
    let calls_s: f64 = [Kind::Step, Kind::Other]
        .iter()
        .flat_map(|&k| scratch.raw_samples(k))
        .sum();
    let reg = &traced.report.registry;
    let counts = Counts {
        slots: reg.counter("slots"),
        releases: reg.counter("releases"),
        initiated: reg.counter("reweight.initiated"),
        enacted: reg.counter("reweight.enacted"),
        tracker_advances: reg.counter("tracker.advances"),
        ..Counts::default()
    };
    engine_counts(&mut ms, &counters, &counts);
    let untraced_s = median(&episode_s).unwrap_or(0.0);
    traced_accounting(&mut ms, &meter, untraced_s, traced_wall_s, calls_s);
    replays(&mut ms, &shape);
    ms.set("drift_max_q", tally.drift_max_q());
    ms.set("failed_pct", pct(failed as f64, attempted as f64));
    ms.set("shard.new_ms", median(&news).unwrap_or(0.0));
    ms.set(
        "shard.segment_ms_p50",
        percentile(meter.samples(Kind::Step), 50.0).map_or(0.0, |s| s * 1e3),
    );
    ms.set("shard.finish_ms", median(&finishes).unwrap_or(0.0));
    ms.count("shard.migrations", first.report.migrations);
    ms.set("shard.util_imbalance", first.imbalance_pct);
    let t = Instant::now();
    drop(episode(&w, 1, &mut scratch, false));
    ms.set(
        "shard.width1_over_width2",
        t.elapsed().as_secs_f64() / traced_wall_s,
    );
    ms.set("scenario.generate_ms", median(&setup).unwrap_or(0.0) * 1e3);
    ms.set("verify.ms", verify_ms);
    Ok(Output {
        attempted,
        failed,
        metrics: ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let a = fingerprint(&synthetic_population(500, 3));
        assert_eq!(a, fingerprint(&synthetic_population(500, 3)));
        assert_ne!(a, fingerprint(&synthetic_population(500, 4)));
    }
}
