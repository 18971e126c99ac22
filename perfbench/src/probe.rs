//! A span-aware counting probe: exact event counts at the engine's
//! hook boundaries, cheap enough to leave the batching drivers engaged.

use pfair_core::task::TaskId;
use pfair_core::time::Slot;
use pfair_obs::{Probe, ReleaseRec, ReweightCost, Rule, SpanDigest};

/// Exact counts gathered by [`CountingProbe`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Slots simulated, stepped or batched.
    pub slots: u64,
    /// Slots consumed inside quiet spans (tickless skips).
    pub quiet_span_slots: u64,
    /// Release batches reported.
    pub release_batches: u64,
    /// Verified busy-span jumps.
    pub busy_span_jumps: u64,
    /// Slots skipped by busy-span jumps.
    pub busy_span_slots: u64,
    /// Subtask releases.
    pub releases: u64,
    /// Reweighting initiations.
    pub initiated: u64,
    /// Reweighting enactments.
    pub enacted: u64,
    /// Sum of direct reweighting costs (queue operations plus halts).
    pub direct_cost: u64,
    /// Closed-form ideal-tracker advances.
    pub tracker_advances: u64,
    /// Slots from each initiation to its enactment.
    pub latencies: Vec<u64>,
}

impl Counts {
    /// Adds another probe's counts to these.
    pub fn add(&mut self, o: &Counts) {
        self.slots += o.slots;
        self.quiet_span_slots += o.quiet_span_slots;
        self.release_batches += o.release_batches;
        self.busy_span_jumps += o.busy_span_jumps;
        self.busy_span_slots += o.busy_span_slots;
        self.releases += o.releases;
        self.initiated += o.initiated;
        self.enacted += o.enacted;
        self.direct_cost += o.direct_cost;
        self.tracker_advances += o.tracker_advances;
        self.latencies.extend_from_slice(&o.latencies);
    }
}

fn width(from: Slot, to: Slot) -> u64 {
    u64::try_from(to.saturating_sub(from)).unwrap_or(0)
}

/// Counts hook events. Span-aware, so busy-span batching stays engaged
/// exactly as under the no-op probe.
#[derive(Clone, Debug, Default)]
pub struct CountingProbe {
    /// The counts so far.
    pub counts: Counts,
}

impl Probe for CountingProbe {
    const SPAN_AWARE: bool = true;

    fn on_slot_start(&mut self, _t: Slot) {
        self.counts.slots += 1;
    }

    fn on_release(&mut self, _task: TaskId, _index: u64, _t: Slot, _deadline: Slot, _era: bool) {
        self.counts.releases += 1;
    }

    fn on_quiet_span(&mut self, from: Slot, to: Slot, _holes: u64) {
        self.counts.slots += width(from, to);
        self.counts.quiet_span_slots += width(from, to);
    }

    fn on_release_batch(&mut self, _t: Slot, releases: &[ReleaseRec]) {
        self.counts.release_batches += 1;
        self.counts.releases += u64::try_from(releases.len()).unwrap_or(0);
    }

    fn on_busy_span_jump(&mut self, _t0: Slot, _t1: Slot, periods: u64, digest: &SpanDigest) {
        let slots = u64::try_from(digest.period).unwrap_or(0) * periods;
        self.counts.busy_span_jumps += 1;
        self.counts.busy_span_slots += slots;
        self.counts.slots += slots;
        self.counts.releases += digest.releases_total() * periods;
    }

    fn on_reweight_initiated(
        &mut self,
        _task: TaskId,
        t: Slot,
        _rule: Rule,
        cost: ReweightCost,
        enact_at: Slot,
    ) {
        self.counts.initiated += 1;
        self.counts.direct_cost += cost.queue_ops + cost.halts;
        self.counts.latencies.push(width(t, enact_at));
    }

    fn on_reweight_enacted(&mut self, _task: TaskId, _t: Slot, _initiated_at: Slot) {
        self.counts.enacted += 1;
    }

    fn on_tracker_advance(&mut self, _task: TaskId, _from: Slot, _to: Slot) {
        self.counts.tracker_advances += 1;
    }
}
