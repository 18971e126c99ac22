//! `periodic_modal`: static periodic task sets on 4 CPUs, half
//! saturated (Σw = M) and half underloaded, each with one task leaving
//! mid-run; every set runs 25k slots under `NoopProbe`. One
//! closed-loop step is one set's `simulate`. This is the workload where
//! the tickless quiet-span, quick-release and busy-span drivers do most
//! of the work.

use crate::gate::{same_outcome, verified, Tally};
use crate::layers::{admission_replay, engine_counts, replays, Shape};
use crate::meter::{time_setup, Kind, Meter, SETUP_SAMPLES};
use crate::online::persist_layers;
use crate::probe::{CountingProbe, Counts};
use crate::report::Metrics;
use crate::stats::median;
use crate::{end_to_end, peak_rss_mb, traced_accounting, Output, Rng, Run};
use pfair_core::rational::Rational;
use pfair_core::time::Slot;
use pfair_core::weight::Weight;
use pfair_obs::{MetricsProbe, NoopProbe};
use pfair_sched::engine::{simulate, simulate_with, Engine, SimConfig};
use pfair_sched::event::{EventKind, Workload};
use pfair_sched::overhead::Counters;
use pfair_sched::workloads::join_utilization;
use std::time::Instant;

const CPUS: u32 = 4;
const HORIZON: Slot = 25_000;
/// Sets per pass, alternating saturated and underloaded.
const SETS: usize = 512;
/// Weights are `e/p` with `p` dividing 120, so every hyperperiod
/// divides 120 slots.
const PERIODS: [i64; 10] = [3, 4, 5, 6, 8, 10, 12, 15, 20, 24];
const UNIT: i64 = 120;
/// Sets per timed chunk.
const CHUNK: usize = 32;

/// Seed of the fixed catalogue of set shapes.
const CATALOGUE_SEED: u64 = 0x5e75;

/// The catalogue: per set, the weights in units of 1/120, in task-id
/// order. Even sets are saturated (Σ = 4 CPUs), odd ones underloaded
/// (Σ ∈ [2.5, 3.5]). Whether busy-span batching catches a set depends
/// on its shape and on its task ids (PD² breaks ties by id), and a slot
/// it misses costs far more than one it jumps, so a seed that redrew
/// shapes or ids would change the mix being timed: with seeded id
/// orders the unbatched share of slots moved 10.0–12.4% across seeds,
/// with catalogue ids 10.7–11.0%. Every seed therefore runs the same
/// shapes under the same ids.
fn catalogue() -> Vec<Vec<i64>> {
    let mut rng = Rng::new(CATALOGUE_SEED);
    (0..SETS)
        .map(|i| {
            let saturated = i % 2 == 0;
            let target = if saturated {
                UNIT * i64::from(CPUS)
            } else {
                rng.range(UNIT * 5 / 2, UNIT * 7 / 2)
            };
            let mut units = Vec::new();
            let mut sum = 0;
            loop {
                let p =
                    PERIODS[usize::try_from(rng.range(0, PERIODS.len() as i64 - 1)).unwrap_or(0)];
                let u = rng.range(1, (p / 2).max(1)) * UNIT / p;
                if sum + u > target {
                    break;
                }
                sum += u;
                units.push(u);
            }
            if saturated && sum < target {
                // The remainder is below the rejected draw, so ≤ 1/2.
                units.push(target - sum);
            }
            units
        })
        .collect()
}

/// The sets for `seed`: the catalogue's sets in a seeded order, each
/// with one seeded task leaving at a seeded slot.
pub fn generate(seed: u64) -> Vec<Workload> {
    let mut rng = Rng::new(seed);
    let mut shapes = catalogue();
    shuffle(&mut shapes, &mut rng);
    shapes
        .into_iter()
        .map(|units| {
            let mut w = Workload::new();
            for (task, &u) in units.iter().enumerate() {
                w.join(
                    u32::try_from(task).unwrap_or(0),
                    0,
                    i128::from(u),
                    i128::from(UNIT),
                );
            }
            let leaver = rng.range(0, units.len() as i64 - 1);
            w.leave(
                u32::try_from(leaver).unwrap_or(0),
                rng.range(HORIZON / 4, HORIZON * 3 / 4),
            );
            w
        })
        .collect()
}

/// Fisher–Yates shuffle.
fn shuffle<T>(xs: &mut [T], rng: &mut Rng) {
    for i in (1..xs.len()).rev() {
        let j = usize::try_from(rng.range(0, i as i64)).unwrap_or(0);
        xs.swap(i, j);
    }
}

/// Byte image of the generated inputs.
#[cfg(test)]
pub fn fingerprint(sets: &[Workload]) -> String {
    sets.iter()
        .map(|w| format!("{:?}\n", w.sorted_events()))
        .collect()
}

fn config() -> SimConfig {
    SimConfig::oi(CPUS, HORIZON)
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

/// One saturated and one underloaded set against the per-slot oracle,
/// and each against `verify` over a history-mode prefix. Returns the
/// verifier's time, ms.
fn check(sets: &[Workload]) -> Result<f64, String> {
    let full = |w: &&Workload| join_utilization(w) == Rational::from_int(i128::from(CPUS));
    let saturated = sets.iter().find(full).ok_or("periodic: no saturated set")?;
    let underloaded = sets
        .iter()
        .find(|w| !full(w))
        .ok_or("periodic: no underloaded set")?;
    let mut verify_ms = 0.0;
    for (what, w) in [("saturated", saturated), ("underloaded", underloaded)] {
        let what = format!("periodic {what} set");
        let fast = simulate(config(), w);
        let oracle = simulate(config().per_slot(), w);
        same_outcome(&what, &fast, &oracle)?;
        if !fast.misses.is_empty() {
            return Err(format!("{what}: {} deadline miss(es)", fast.misses.len()));
        }
        let history = simulate(SimConfig::oi(CPUS, 2_000).with_history(), w);
        verify_ms += verified(&what, &history)?;
    }
    Ok(verify_ms)
}

/// Runs the workload.
pub fn run(run: Run) -> Result<Output, String> {
    let (setup, sets) = time_setup(SETUP_SAMPLES, || generate(run.seed));
    let verify_ms = check(&sets)?;

    let mut meter = Meter::new(run.seconds, 1);
    let mut tally = Tally::default();
    let mut pass_s = Vec::new();
    let mut pass = 0;
    let mut rss_mb = 0.0;
    while pass == 0 || !meter.expired() {
        let mut this_pass_s = 0.0;
        for (i, w) in sets.iter().enumerate() {
            let t = Instant::now();
            let r = meter.time(Kind::Step, HORIZON as u64, || simulate(config(), w));
            this_pass_s += t.elapsed().as_secs_f64();
            if pass == 0 {
                if !r.misses.is_empty() {
                    return Err(format!(
                        "periodic set {i}: {} deadline miss(es)",
                        r.misses.len()
                    ));
                }
                tally.add(&r, joins(w).len() as u64);
            }
            if i % CHUNK == CHUNK - 1 {
                meter.close_chunk();
            }
        }
        meter.close_chunk();
        pass_s.push(this_pass_s);
        if pass == 0 {
            rss_mb = peak_rss_mb();
        }
        pass += 1;
    }

    let shape = Shape {
        weights: sets
            .iter()
            .flat_map(|w| joins(w).into_iter().map(|(_, w)| w))
            .collect(),
        live: sets.iter().map(|w| joins(w).len()).max().unwrap_or(1),
        processors: CPUS,
        stale_frac: tally.counters.stale_pops as f64 / tally.counters.heap_pops.max(1) as f64,
        requests: sets.iter().map(joins).collect(),
        capacity: CPUS,
        scripts: sets
            .iter()
            .flat_map(|w| joins(w).into_iter().map(|(_, w)| vec![(0, w)]))
            .collect(),
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

    // Traced pass: every set again through the `Engine` API with the
    // counting probe, so the engine's own busy-span count can be
    // checked against the probe's.
    let mut counts = Counts::default();
    let mut counters = Counters::default();
    let mut jumps = 0;
    let wall = Instant::now();
    let mut calls_s = 0.0;
    for w in &sets {
        let t = Instant::now();
        let mut e = Engine::with_probe(config(), w, CountingProbe::default());
        e.run();
        jumps += e.busy_span_jumps();
        let (r, p) = e.finish_with_probe();
        calls_s += t.elapsed().as_secs_f64();
        counts.add(&p.counts);
        crate::gate::add_counters(&mut counters, &r.counters);
    }
    let traced_wall_s = wall.elapsed().as_secs_f64();
    if counters != tally.counters || jumps != counts.busy_span_jumps {
        return Err("periodic: traced pass disagrees with the untraced pass".into());
    }
    engine_counts(&mut ms, &counters, &counts);
    let untraced_s = median(&pass_s).unwrap_or(0.0);
    traced_accounting(&mut ms, &meter, untraced_s, traced_wall_s, calls_s);
    replays(&mut ms, &shape);
    ms.set("drift_max_q", tally.drift_max_q());
    ms.set(
        "failed_pct",
        crate::stats::pct(failed as f64, attempted as f64),
    );
    ms.set("scenario.generate_ms", median(&setup).unwrap_or(0.0) * 1e3);
    ms.set("verify.ms", verify_ms);
    ms.set("obs.metrics_overhead_pct", probe_overhead(&sets[..CHUNK]));
    let mut engine = Engine::new(config(), &sets[0]);
    engine.run_to(HORIZON / 2);
    persist_layers(&mut ms, engine, NoopProbe)?;
    Ok(Output {
        attempted,
        failed,
        metrics: ms,
    })
}

/// `MetricsProbe` cost over the no-op probe on the same sets, %.
fn probe_overhead(sets: &[Workload]) -> f64 {
    let ratios: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for w in sets {
                simulate_with(config(), w, NoopProbe);
            }
            let noop = t.elapsed().as_secs_f64();
            let t = Instant::now();
            for w in sets {
                simulate_with(config(), w, MetricsProbe::new());
            }
            t.elapsed().as_secs_f64() / noop
        })
        .collect();
    (median(&ratios).unwrap_or(1.0) - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::rational::rat;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(fingerprint(&generate(3)), fingerprint(&generate(3)));
        assert_ne!(fingerprint(&generate(3)), fingerprint(&generate(4)));
    }

    #[test]
    fn half_the_sets_saturate() {
        let sets = generate(9);
        let saturated = sets
            .iter()
            .filter(|w| join_utilization(w) == rat(4, 1))
            .count();
        assert_eq!(saturated, SETS / 2);
        assert!(sets.iter().all(|w| join_utilization(w) <= rat(4, 1)));
    }
}
