//! Correctness checks shared by the workloads. Any failure aborts the
//! run with a non-zero exit and no result line.

use pfair_core::rational::rat;
use pfair_sched::overhead::Counters;
use pfair_sched::trace::SimResult;
use pfair_sched::verify::verify;
use std::time::Instant;

/// Fails unless two runs agree on everything both drivers produce:
/// misses, counters, and every task's quanta, ideal totals and drift.
pub fn same_outcome(what: &str, fast: &SimResult, oracle: &SimResult) -> Result<(), String> {
    let differs = |field: &str| Err(format!("{what}: fast driver and oracle differ in {field}"));
    if fast.misses != oracle.misses {
        return differs("misses");
    }
    if fast.counters != oracle.counters {
        return differs("counters");
    }
    if fast.tasks.len() != oracle.tasks.len() {
        return differs("task count");
    }
    for (a, b) in fast.tasks.iter().zip(&oracle.tasks) {
        if (
            a.id,
            a.scheduled_count,
            a.ps_total,
            a.isw_total,
            a.icsw_total,
        ) != (
            b.id,
            b.scheduled_count,
            b.ps_total,
            b.isw_total,
            b.icsw_total,
        ) || a.drift.samples() != b.drift.samples()
        {
            return differs(&format!("task {}", a.id.0));
        }
    }
    Ok(())
}

/// Runs the independent verifier over a history-mode result; returns
/// its wall time in milliseconds.
pub fn verified(what: &str, history: &SimResult) -> Result<f64, String> {
    let t = Instant::now();
    let violations = verify(history);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match violations.first() {
        None => Ok(ms),
        Some(v) => Err(format!(
            "{what}: verify reports {} violation(s), first: {v}",
            violations.len()
        )),
    }
}

/// PD²-OI guarantees: no misses (Theorem 2) and at most two quanta of
/// drift per reweighting event (Theorem 5).
pub fn oi_guarantees(what: &str, r: &SimResult) -> Result<(), String> {
    if !r.misses.is_empty() {
        return Err(format!(
            "{what}: PD2-OI missed {} deadline(s)",
            r.misses.len()
        ));
    }
    if r.max_abs_drift_delta() > rat(2, 1) {
        return Err(format!(
            "{what}: PD2-OI drift per event {:?} exceeds 2",
            r.max_abs_drift_delta()
        ));
    }
    Ok(())
}

/// Field-wise sum of two counter sets.
pub fn add_counters(a: &mut Counters, b: &Counters) {
    a.heap_pushes += b.heap_pushes;
    a.heap_pops += b.heap_pops;
    a.stale_pops += b.stale_pops;
    a.reweight_initiations += b.reweight_initiations;
    a.reweight_enactments += b.reweight_enactments;
    a.halts += b.halts;
    a.scheduled_quanta += b.scheduled_quanta;
    a.slots_with_holes += b.slots_with_holes;
    a.migrations += b.migrations;
    a.preemptions += b.preemptions;
    a.rejected_heavy_reweights += b.rejected_heavy_reweights;
    a.compactions += b.compactions;
    a.compacted_stale += b.compacted_stale;
}

/// Accuracy and failure tally over a fixed set of runs.
#[derive(Default)]
pub struct Tally {
    runs: u64,
    drift_sum: f64,
    pct_sum: f64,
    /// Missed subtask deadlines.
    pub misses: u64,
    /// Subtasks scheduled.
    pub quanta: u64,
    /// Join and reweight requests issued.
    pub requests: u64,
    /// Reweighting requests the engine rejected.
    pub rejected: u64,
    /// Counters summed over the runs.
    pub counters: Counters,
}

impl Tally {
    /// Adds one run that issued `requests` join/reweight requests.
    pub fn add(&mut self, r: &SimResult, requests: u64) {
        self.add_summary(
            r.max_abs_drift_at(r.horizon).to_f64(),
            r.mean_pct_of_ideal(),
            r.misses.len() as u64,
            r.counters.scheduled_quanta,
            requests,
        );
        self.rejected += r.counters.rejected_heavy_reweights;
        add_counters(&mut self.counters, &r.counters);
    }

    /// Adds one run given by its figures: largest |drift|, mean % of
    /// ideal, misses, quanta scheduled and requests issued.
    pub fn add_summary(&mut self, drift: f64, pct: f64, misses: u64, quanta: u64, requests: u64) {
        self.runs += 1;
        self.drift_sum += drift;
        self.pct_sum += pct;
        self.misses += misses;
        self.quanta += quanta;
        self.requests += requests;
    }

    /// Mean over runs of the per-task mean % of the `I_PS` allocation.
    pub fn ideal_pct(&self) -> f64 {
        self.pct_sum / self.runs.max(1) as f64
    }

    /// Mean over runs of the largest |drift| at the horizon, quanta.
    pub fn drift_max_q(&self) -> f64 {
        self.drift_sum / self.runs.max(1) as f64
    }

    /// `(attempted, failed)`: subtasks due plus requests issued, and
    /// misses plus refused requests (`refused` from admission).
    pub fn outcome(&self, refused: u64) -> (u64, u64) {
        (
            self.quanta + self.misses + self.requests,
            self.misses + self.rejected + refused,
        )
    }
}
