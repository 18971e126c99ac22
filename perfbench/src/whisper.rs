//! `whisper_fig11`: the paper's §5 Fig. 11 grid — 7 speeds × occlusion
//! on/off × {PD²-OI, PD²-LJ, hybrid `DriftFeedback(1)`} × seeded
//! scenarios at 25 cm radius; 12 tasks on 4 CPUs, 1000 slots, each a
//! fresh `simulate`. One closed-loop step is one such run.

use crate::gate::{oi_guarantees, same_outcome, verified, Tally};
use crate::layers::{admission_replay, engine_counts, replays, Shape};
use crate::meter::{time_setup, Kind, Meter, SETUP_SAMPLES};
use crate::probe::{CountingProbe, Counts};
use crate::report::Metrics;
use crate::stats::median;
use crate::{end_to_end, online, peak_rss_mb, subseed, traced_accounting, Output, Run};
use pfair_core::rational::rat;
use pfair_obs::{MetricsProbe, NoopProbe};
use pfair_sched::engine::{simulate, simulate_with, Engine, SimConfig};
use pfair_sched::event::{EventKind, Workload};
use pfair_sched::overhead::Counters;
use pfair_sched::reweight::{HybridPolicy, Scheme};
use std::time::Instant;
use whisper_sim::{generate_workload, Scenario, HORIZON, PROCESSORS};

const SPEEDS: [f64; 7] = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5];
const RADIUS: f64 = 0.25;
/// Seeded scenarios per (speed, occlusion) point.
const SCENARIOS: u64 = 4;
/// Runs per timed chunk.
const CHUNK: usize = 12;

/// One grid point: a scheme and its scenario's workload.
pub struct Case {
    scheme: Scheme,
    workload: Workload,
}

fn schemes() -> [Scheme; 3] {
    [
        Scheme::Oi,
        Scheme::LeaveJoin,
        Scheme::Hybrid(HybridPolicy::DriftFeedback(rat(1, 1))),
    ]
}

/// The grid's inputs for `seed`, in run order.
pub fn generate(seed: u64) -> Vec<Case> {
    let mut cases = Vec::new();
    let mut i = 0;
    for speed in SPEEDS {
        for occlusion in [true, false] {
            for _ in 0..SCENARIOS {
                let sc = Scenario::new(speed, RADIUS, occlusion, subseed(seed, i));
                i += 1;
                let workload = generate_workload(&sc);
                for scheme in schemes() {
                    cases.push(Case {
                        scheme,
                        workload: workload.clone(),
                    });
                }
            }
        }
    }
    cases
}

/// Byte image of the generated inputs.
#[cfg(test)]
pub fn fingerprint(cases: &[Case]) -> String {
    cases
        .iter()
        .map(|c| format!("{:?}|{:?}\n", c.scheme, c.workload.sorted_events()))
        .collect()
}

fn config(c: &Case) -> SimConfig {
    SimConfig::oi(PROCESSORS, HORIZON).with_scheme(c.scheme.clone())
}

fn requests(w: &Workload) -> u64 {
    w.sorted_events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Join(_) | EventKind::Reweight(_)))
        .count() as u64
}

/// The workload as its layers see it.
fn shape(cases: &[Case], stale_frac: f64) -> Shape {
    let mut weights = Vec::new();
    let mut groups = Vec::new();
    let mut scripts = Vec::new();
    // Every third case starts a new scenario (one per scheme).
    for case in cases.iter().step_by(3) {
        let mut group = Vec::new();
        let mut per_task: Vec<Vec<_>> = Vec::new();
        for e in case.workload.sorted_events() {
            if let EventKind::Join(w) | EventKind::Reweight(w) = e.kind {
                weights.push(w);
                group.push((e.task.0, w));
                let i = e.task.idx();
                if per_task.len() <= i {
                    per_task.resize(i + 1, Vec::new());
                }
                per_task[i].push((e.at, w));
            }
        }
        groups.push(group);
        scripts.extend(per_task);
    }
    Shape {
        weights,
        live: 12,
        processors: PROCESSORS,
        stale_frac,
        requests: groups,
        capacity: PROCESSORS,
        scripts,
        horizon: HORIZON,
    }
}

/// One scenario per scheme against the history-mode oracle, with
/// `verify`; returns the verifier's total time in milliseconds.
fn check(cases: &[Case]) -> Result<f64, String> {
    let mut verify_ms = 0.0;
    for (i, case) in cases.iter().take(3).enumerate() {
        let what = format!("whisper case {i} ({:?})", case.scheme);
        let fast = simulate(config(case), &case.workload);
        let oracle = simulate(config(case).with_history(), &case.workload);
        same_outcome(&what, &fast, &oracle)?;
        verify_ms += verified(&what, &oracle)?;
    }
    Ok(verify_ms)
}

/// Runs the workload.
pub fn run(run: Run) -> Result<Output, String> {
    let (setup, cases) = time_setup(SETUP_SAMPLES, || generate(run.seed));
    let verify_ms = check(&cases)?;

    let mut meter = Meter::new(run.seconds, 1);
    let mut tally = Tally::default();
    let mut pass_s = Vec::new();
    let mut pass = 0;
    let mut rss_mb = 0.0;
    while pass == 0 || !meter.expired() {
        let mut this_pass_s = 0.0;
        for (i, case) in cases.iter().enumerate() {
            let t = Instant::now();
            let r = meter.time(Kind::Step, HORIZON as u64, || {
                simulate(config(case), &case.workload)
            });
            this_pass_s += t.elapsed().as_secs_f64();
            if pass == 0 {
                if case.scheme == Scheme::Oi {
                    oi_guarantees(&format!("whisper case {i}"), &r)?;
                }
                tally.add(&r, requests(&case.workload));
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

    let stale = tally.counters.stale_pops as f64 / tally.counters.heap_pops.max(1) as f64;
    let shape = shape(&cases, stale);
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

    // Traced pass: the same first pass with the counting probe attached
    // and every run timed.
    let mut counts = Counts::default();
    let mut counters = Counters::default();
    let wall = Instant::now();
    let mut calls_s = 0.0;
    for case in &cases {
        let t = Instant::now();
        let (r, p) = simulate_with(config(case), &case.workload, CountingProbe::default());
        calls_s += t.elapsed().as_secs_f64();
        counts.add(&p.counts);
        crate::gate::add_counters(&mut counters, &r.counters);
    }
    let traced_wall_s = wall.elapsed().as_secs_f64();
    if counters != tally.counters {
        return Err("whisper: traced pass counters differ from the untraced pass".into());
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
    ms.set(
        "obs.metrics_overhead_pct",
        probe_overhead(&cases[..CHUNK * 2]),
    );
    let mut engine = Engine::new(config(&cases[0]), &cases[0].workload);
    engine.run_to(HORIZON / 2);
    online::persist_layers(&mut ms, engine, NoopProbe)?;
    Ok(Output {
        attempted,
        failed,
        metrics: ms,
    })
}

/// `MetricsProbe` cost over the no-op probe on the same runs, %:
/// alternating rounds, median of the per-round ratios.
fn probe_overhead(cases: &[Case]) -> f64 {
    let mut ratios = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for c in cases {
            simulate_with(config(c), &c.workload, NoopProbe);
        }
        let noop = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for c in cases {
            simulate_with(config(c), &c.workload, MetricsProbe::new());
        }
        ratios.push(t.elapsed().as_secs_f64() / noop);
    }
    (median(&ratios).unwrap_or(1.0) - 1.0) * 100.0
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
