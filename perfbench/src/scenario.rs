//! What a workload gives the runner: a closed, epoch-clocked loop over
//! one engine, rebuilt from the seed for every pass.

use crate::check::{ActionCounts, Outcome};
use crate::trace::EpochClock;
use valkyrie_core::{FusionStats, IngestStats};

/// Work one epoch handed to the program, for the per-layer rates.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepStats {
    /// Responses the tick returned.
    pub responses: u64,
    /// Observations published into the ingest rings.
    pub published: u64,
}

/// Layer counters of one complete pass: exact for a given seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassCounters {
    /// Responses the engine returned over the pass.
    pub responses: u64,
    pub completed: u64,
    pub forgotten: u64,
    pub purged: u64,
    pub tracked_peak: u64,
    pub fusion: FusionStats,
    pub ingest: Option<IngestStats>,
    pub dropped_legit: u64,
    pub dropped_flood: u64,
    pub actions: ActionCounts,
}

pub trait Scenario {
    /// Epochs in one pass.
    fn horizon(&self) -> u64;

    /// Leading epochs that belong to set-up: they register the population
    /// (and, with delayed detectors, fill the pipeline) and are not timed.
    fn warmup(&self) -> u64;

    /// Drives epoch `epoch`, timing every call into the program on `clock`
    /// and pushing a message for every failed check onto `violations`.
    fn step(
        &mut self,
        epoch: u64,
        clock: &mut EpochClock,
        violations: &mut Vec<String>,
    ) -> StepStats;

    /// The outcome and counters after the last epoch of the pass.
    fn finish(&mut self) -> (Outcome, PassCounters);
}
