//! The repository benchmark: one command, four workloads over the
//! paper's efficiency-versus-accuracy axes.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON line as the last line of standard output: the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits non-zero, without a result line, when an output
//! of the program fails its correctness check or an argument is bad.
//! See README.md for every metric and workload.

// Timings and statistics are floating point by nature; the root
// clippy.toml's float and `unwrap` bans guard scheduling arithmetic, and
// none of this crate's floats reach the scheduler.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

mod gate;
mod host;
mod layers;
mod meter;
mod online;
mod periodic;
mod population;
mod probe;
mod report;
mod stats;
mod whisper;

use meter::{Kind, Meter};
use report::{render, Metrics, END_TO_END, PER_LAYER};
use stats::{median, percentile};

/// The workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "whisper_fig11",
    "online_reweight",
    "population_sharded",
    "periodic_modal",
];

/// One invocation's arguments.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement budget of the closed loop, seconds.
    pub seconds: f64,
    /// Traced mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// What a workload hands back.
pub struct Output {
    /// Operations attempted (subtasks due plus requests issued).
    pub attempted: u64,
    /// Operations failed (missed subtasks plus refused requests).
    pub failed: u64,
    /// Every metric measured.
    pub metrics: Metrics,
}

/// Splits a seed into independent sub-seeds (SplitMix64).
pub fn subseed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator for workload inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(subseed(seed, 0x5eed))
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        subseed(self.0, 0)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = u64::try_from(hi - lo + 1).unwrap_or(1);
        lo + i64::try_from(self.next_u64() % span).unwrap_or(0)
    }
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sets the end-to-end metrics common to every workload; `rss_mb` is
/// [`peak_rss_mb`] read once the reference unit has run.
pub fn end_to_end(ms: &mut Metrics, setup: &[f64], meter: &Meter, ideal_pct: f64, rss_mb: f64) {
    ms.set("setup_s", median(setup).unwrap_or(0.0));
    ms.set("slots_per_s", meter.slots_per_s());
    let steps = meter.samples(Kind::Step);
    ms.set(
        "step_us_p50",
        percentile(steps, 50.0).map_or(0.0, |s| s * 1e6),
    );
    ms.set("ideal_pct", ideal_pct);
    ms.set("peak_rss_mb", rss_mb);
}

/// Sets the traced-run accounting metrics: raw times, host readings,
/// the tail percentile, and how much of the traced phase the timed
/// calls account for.
pub fn traced_accounting(
    ms: &mut Metrics,
    meter: &Meter,
    untraced_pass_s: f64,
    traced_wall_s: f64,
    traced_calls_s: f64,
) {
    let steps = meter.samples(Kind::Step);
    ms.set(
        "step_us_p99",
        percentile(steps, 99.0).map_or(0.0, |s| s * 1e6),
    );
    let ref_ms = median(meter.ref_readings()).unwrap_or(0.0);
    ms.set("host.ref_ms", ref_ms);
    ms.set(
        "host.scale",
        host::scale(host::NOMINAL_REF_MS, ref_ms, ref_ms),
    );
    ms.set("raw.slots_per_s", meter.raw_slots_per_s());
    let raw = meter.raw_samples(Kind::Step);
    ms.set(
        "raw.step_us_p50",
        percentile(raw, 50.0).map_or(0.0, |s| s * 1e6),
    );
    ms.set(
        "trace.accounted_pct",
        stats::pct(traced_calls_s, traced_wall_s),
    );
    ms.set(
        "trace.overhead_pct",
        stats::pct(traced_wall_s - untraced_pass_s, untraced_pass_s),
    );
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(String, Run), String> {
    let mut workload = None;
    let mut run = Run {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => run.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(run.seconds > 0.0 && run.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, run))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let result = match workload.as_str() {
        "whisper_fig11" => whisper::run(run),
        "online_reweight" => online::run(run),
        "population_sharded" => population::run(run),
        "periodic_modal" => periodic::run(run),
        other => Err(format!("unknown workload `{other}`\n{}", usage())),
    };
    let line = result.and_then(|out| {
        let (catalog, zero_fill) = if run.trace {
            (PER_LAYER, true)
        } else {
            (END_TO_END, false)
        };
        render(
            true,
            out.attempted.max(1),
            out.failed,
            &out.metrics,
            catalog,
            zero_fill,
        )
    });
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subseeds_differ_and_repeat() {
        assert_eq!(subseed(7, 3), subseed(7, 3));
        assert_ne!(subseed(7, 3), subseed(7, 4));
        assert_ne!(subseed(7, 3), subseed(8, 3));
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        for _ in 0..100 {
            let x = a.range(3, 9);
            assert_eq!(x, b.range(3, 9));
            assert!((3..=9).contains(&x));
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let args: Vec<String> = [
            "--workload",
            "periodic_modal",
            "--seed",
            "4",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (w, run) = parse_args(&args).unwrap();
        assert_eq!(w, "periodic_modal");
        assert_eq!(run.seed, 4);
        assert!(run.trace);
        assert!(parse_args(&args[..7]).is_err());
        assert!(parse_args(&["--trace".to_string(), "2".to_string()]).is_err());
    }
}
