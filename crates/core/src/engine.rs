//! The multi-process Valkyrie engine: monitors + actuators behind a detector.
//!
//! [`ValkyrieEngine`] is the piece that "augments" a detector (paper Fig. 2):
//! every epoch the caller feeds it each process's inference, and the engine
//! answers with the resource shares to enforce and whether to restore or
//! terminate. It owns one [`Monitor`] (Algorithm 1) and one actuator instance
//! per process.
//!
//! The per-process bookkeeping lives in [`EngineShard`]: one process map
//! plus the observe path. [`ValkyrieEngine`] is the paper's name for one
//! shard; the scaling tier in [`crate::sharded`] runs many shards side by
//! side behind a batch API.

use crate::actuator::{Actuator, CompositeActuator, ShareActuator};
use crate::efficacy::{EfficacyCurve, EfficacySpec};
use crate::error::ValkyrieError;
use crate::hash::FxBuildHasher;
use crate::monitor::{Directive, EscalationLadder, EscalationLevel, Monitor, StepReport};
use crate::resource::{ProcessId, ResourceVector};
use crate::state::ProcessState;
use crate::telemetry::FusionStats;
use crate::threat::{stale_weight, AssessmentFn, Classification, Evidence, ThreatIndex, Verdict};
use std::collections::HashMap;

/// The response action the embedder must enact after an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Nothing to do.
    None,
    /// Apply the accompanying (reduced) resource shares.
    Throttle,
    /// Apply the accompanying (partially recovered) resource shares.
    Recover,
    /// Remove all restrictions (`A_reset` or return-to-normal).
    Restore,
    /// Remove all restrictions *and* begin a new measurement cycle
    /// (cyclic monitoring's benign verdict at `N*`; see
    /// [`EngineConfigBuilder::cyclic`]). Embedders that keep per-process
    /// measurement history should reset it here.
    RestoreAndRecycle,
    /// Terminate the process.
    Terminate,
}

/// Engine output for one `(process, epoch)` observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineResponse {
    /// The process this response concerns.
    pub pid: ProcessId,
    /// Fig. 3 state after the observation.
    pub state: ProcessState,
    /// Threat index after the observation.
    pub threat: ThreatIndex,
    /// Resource shares to enforce for the next epoch.
    pub resources: ResourceVector,
    /// The action to enact.
    pub action: Action,
}

/// Configuration of the verdict-fusion tier (see
/// [`EngineShard::absorb_verdict`]).
///
/// `weights[detector_id]` is each ensemble member's fusion weight
/// (`default_weight` for ids past the end of the table); `stale_decay`
/// down-weights members whose last verdict outlived its cadence
/// ([`stale_weight`]); `ladder` maps the fused evidence mass to the
/// graduated escalation level each epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionConfig {
    /// Per-detector fusion weights, indexed by detector id.
    pub weights: Vec<f64>,
    /// Weight for detector ids not covered by `weights`.
    pub default_weight: f64,
    /// Per-overdue-epoch weight multiplier for stale verdicts
    /// (1.0 disables staleness decay).
    pub stale_decay: f64,
    /// The escalation ladder driven by the fused mass.
    pub ladder: EscalationLadder,
}

impl Default for FusionConfig {
    /// Unit weights, no staleness decay, the graduated ladder.
    fn default() -> Self {
        Self {
            weights: Vec::new(),
            default_weight: 1.0,
            stale_decay: 1.0,
            ladder: EscalationLadder::default(),
        }
    }
}

impl FusionConfig {
    /// The fusion weight of a detector id.
    pub fn weight_of(&self, detector: u32) -> f64 {
        self.weights
            .get(detector as usize)
            .copied()
            .unwrap_or(self.default_weight)
    }
}

/// Configuration of a [`ValkyrieEngine`].
///
/// Build one with [`EngineConfig::builder`]. `N*` can be given directly or
/// derived from a measured [`EfficacyCurve`] plus a user [`EfficacySpec`]
/// (Section IV-A: "users can specify the expected detection efficacy \[and\]
/// Valkyrie computes the number of measurements needed to achieve it").
#[derive(Debug, Clone)]
pub struct EngineConfig<A = CompositeActuator> {
    n_star: u64,
    fp: AssessmentFn,
    fc: AssessmentFn,
    actuator: A,
    cyclic: bool,
    fusion: FusionConfig,
}

impl EngineConfig<CompositeActuator> {
    /// Starts building a configuration.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::default()
    }
}

impl<A: Actuator + Clone> EngineConfig<A> {
    /// The measurement requirement `N*`.
    pub fn measurements_required(&self) -> u64 {
        self.n_star
    }

    /// The penalty assessment function.
    pub fn penalty_fn(&self) -> AssessmentFn {
        self.fp
    }

    /// The compensation assessment function.
    pub fn compensation_fn(&self) -> AssessmentFn {
        self.fc
    }

    /// The prototype actuator cloned for each monitored process.
    pub fn actuator(&self) -> &A {
        &self.actuator
    }

    /// Whether monitoring is cyclic (Algorithm 1's outer loop; see
    /// [`crate::Monitor::new_cyclic`]).
    pub fn is_cyclic(&self) -> bool {
        self.cyclic
    }

    /// The verdict-fusion configuration.
    pub fn fusion(&self) -> &FusionConfig {
        &self.fusion
    }
}

/// Builder for [`EngineConfig`] (see `C-BUILDER`).
///
/// # Examples
///
/// ```
/// use valkyrie_core::prelude::*;
///
/// let curve = EfficacyCurve::new(vec![
///     EfficacyPoint { measurements: 5, f1: 0.70, fpr: 0.30 },
///     EfficacyPoint { measurements: 23, f1: 0.92, fpr: 0.12 },
///     EfficacyPoint { measurements: 50, f1: 0.95, fpr: 0.08 },
/// ]).unwrap();
///
/// let config = EngineConfig::builder()
///     .efficacy(&curve, &EfficacySpec::f1_at_least(0.9))
///     .unwrap()
///     .actuator_part(ShareActuator::scheduler_weight(0.1, 0.01))
///     .build()
///     .unwrap();
/// assert_eq!(config.measurements_required(), 23);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineConfigBuilder {
    n_star: Option<u64>,
    fp: AssessmentFn,
    fc: AssessmentFn,
    parts: Vec<ShareActuator>,
    cyclic: bool,
    fusion: FusionConfig,
}

impl EngineConfigBuilder {
    /// Sets `N*` directly.
    pub fn measurements_required(mut self, n_star: u64) -> Self {
        self.n_star = Some(n_star);
        self
    }

    /// Derives `N*` from a measured efficacy curve and a user specification.
    ///
    /// # Errors
    ///
    /// Returns [`ValkyrieError::UnreachableEfficacy`] when no number of
    /// measurements on the curve satisfies the specification.
    pub fn efficacy(
        mut self,
        curve: &EfficacyCurve,
        spec: &EfficacySpec,
    ) -> Result<Self, ValkyrieError> {
        self.n_star = Some(u64::from(curve.measurements_required(spec)?));
        Ok(self)
    }

    /// Sets the penalty assessment function `F_p` (default: incremental).
    pub fn penalty(mut self, fp: AssessmentFn) -> Self {
        self.fp = fp;
        self
    }

    /// Sets the compensation assessment function `F_c` (default: incremental).
    pub fn compensation(mut self, fc: AssessmentFn) -> Self {
        self.fc = fc;
        self
    }

    /// Adds a per-resource actuator; may be called multiple times.
    pub fn actuator_part(mut self, part: ShareActuator) -> Self {
        self.parts.push(part);
        self
    }

    /// Replaces all actuator parts with a single actuator.
    pub fn actuator(mut self, part: ShareActuator) -> Self {
        self.parts = vec![part];
        self
    }

    /// Enables cyclic monitoring: after a benign verdict at `N*`
    /// measurements, resources are restored and a fresh measurement cycle
    /// begins (Algorithm 1's outer `while t is executing` loop). Default:
    /// one-shot, as drawn in Fig. 3.
    pub fn cyclic(mut self, cyclic: bool) -> Self {
        self.cyclic = cyclic;
        self
    }

    /// Configures the verdict-fusion tier (weights, staleness decay and the
    /// escalation ladder). Default: unit weights, no decay, the graduated
    /// ladder.
    pub fn fusion(mut self, fusion: FusionConfig) -> Self {
        self.fusion = fusion;
        self
    }

    /// Finalises the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ValkyrieError::InvalidConfig`] if `N*` was never set, is
    /// zero, or no actuator part was supplied.
    pub fn build(self) -> Result<EngineConfig<CompositeActuator>, ValkyrieError> {
        let n_star = self
            .n_star
            .ok_or_else(|| ValkyrieError::InvalidConfig("N* was not set".into()))?;
        if n_star == 0 {
            return Err(ValkyrieError::InvalidConfig(
                "N* must be at least one measurement".into(),
            ));
        }
        if self.parts.is_empty() {
            return Err(ValkyrieError::InvalidConfig(
                "at least one actuator part is required".into(),
            ));
        }
        Ok(EngineConfig {
            n_star,
            fp: self.fp,
            fc: self.fc,
            actuator: CompositeActuator::new(self.parts),
            cyclic: self.cyclic,
            fusion: self.fusion,
        })
    }
}

#[derive(Debug, Clone)]
struct TrackedProcess<A> {
    monitor: Monitor,
    actuator: A,
    resources: ResourceVector,
    /// Escalation rung of the previous step, for ladder-transition
    /// telemetry.
    level: EscalationLevel,
}

impl<A: Actuator + Clone> TrackedProcess<A> {
    fn new(config: &EngineConfig<A>) -> Self {
        TrackedProcess {
            monitor: if config.cyclic {
                Monitor::new_cyclic(config.n_star, config.fp, config.fc)
            } else {
                Monitor::new(config.n_star, config.fp, config.fc)
            },
            actuator: config.actuator.clone(),
            resources: ResourceVector::FULL,
            level: EscalationLevel::Observe,
        }
    }
}

/// Advances one tracked process by one inference. Free-standing so the
/// shard can split-borrow its config and its map entry.
fn step<A: Actuator>(
    cyclic: bool,
    pid: ProcessId,
    tracked: &mut TrackedProcess<A>,
    inference: Classification,
    stats: &mut FusionStats,
) -> EngineResponse {
    let report = tracked.monitor.observe(inference);
    enact(cyclic, pid, tracked, report, stats)
}

/// Turns a monitor step report into the response to enact, updating the
/// tracked actuator state and the escalation-transition telemetry.
fn enact<A: Actuator>(
    cyclic: bool,
    pid: ProcessId,
    tracked: &mut TrackedProcess<A>,
    report: StepReport,
    stats: &mut FusionStats,
) -> EngineResponse {
    if report.level > tracked.level && report.level >= EscalationLevel::Throttle {
        stats.escalations += 1;
    }
    tracked.level = report.level;
    let action = match report.directive {
        Directive::Continue => Action::None,
        Directive::Adjust { delta_threat } => {
            tracked.resources = tracked.actuator.apply(&tracked.resources, delta_threat);
            if delta_threat > 0.0 {
                Action::Throttle
            } else if delta_threat < 0.0 {
                Action::Recover
            } else {
                Action::None
            }
        }
        Directive::ResetToNormal => {
            // Invariant from Section V-A: "a threat index of 0 implies
            // that the process … has no restrictions on the system
            // resources".
            tracked.resources = tracked.actuator.reset();
            Action::Restore
        }
        Directive::Restore => {
            // A_reset at the terminable verdict; under cyclic
            // monitoring this also starts a fresh measurement cycle.
            tracked.resources = tracked.actuator.reset();
            if cyclic {
                Action::RestoreAndRecycle
            } else {
                Action::Restore
            }
        }
        Directive::Terminate => Action::Terminate,
    };

    EngineResponse {
        pid,
        state: report.state,
        threat: report.threat,
        resources: tracked.resources,
        action,
    }
}

/// One partition of the engine: a process map plus the observe path.
///
/// An `EngineShard` is the unit the scaling tier distributes work over:
/// [`ValkyrieEngine`] is exactly one shard, and
/// [`ShardedEngine`](crate::sharded::ShardedEngine) owns `N` of them, each
/// responsible for the processes whose id hashes onto it. Algorithm 1
/// semantics are per process, so a shard never needs to see another
/// shard's processes.
///
/// Processes are tracked lazily: the first observation of an unknown
/// [`ProcessId`] registers it in the *normal* state with full resources.
/// The map distinguishes **live** processes from **terminated** ones that
/// are kept for post-mortem queries until [`EngineShard::purge_terminated`]
/// (or [`EngineShard::forget`]) evicts them.
#[derive(Debug)]
pub struct EngineShard<A: Actuator + Clone = CompositeActuator> {
    config: EngineConfig<A>,
    procs: HashMap<ProcessId, TrackedProcess<A>, FxBuildHasher>,
    /// Per-process fusion table: the latest evidence from each ensemble
    /// member, kept across epochs so slow members stay represented.
    evidence: HashMap<ProcessId, FusionCell, FxBuildHasher>,
    /// Processes with fresh evidence since the last fuse, in first-arrival
    /// order (the response order of [`EngineShard::fuse_step_into`]).
    dirty: Vec<ProcessId>,
    /// Fusion clock: one tick per fuse pass, for staleness accounting.
    fusion_tick: u64,
    fusion_stats: FusionStats,
}

/// The latest evidence one ensemble member supplied about a process.
#[derive(Debug, Clone, Copy)]
struct MemberEvidence {
    detector: u32,
    confidence: f64,
    cadence: u32,
    /// Fusion tick the verdict was absorbed into.
    seen_tick: u64,
}

/// Per-process fusion state: one slot per ensemble member, plus the dirty
/// flag keeping the pid at most once in the shard's dirty list.
#[derive(Debug, Clone, Default)]
struct FusionCell {
    members: Vec<MemberEvidence>,
    dirty: bool,
}

impl<A: Actuator + Clone> EngineShard<A> {
    /// Creates an empty shard from a configuration.
    pub fn new(config: EngineConfig<A>) -> Self {
        Self::with_capacity(config, 0)
    }

    /// Creates a shard pre-sized for `capacity` processes, so batch
    /// embedders don't pay rehash-and-move costs while the fleet registers.
    pub fn with_capacity(config: EngineConfig<A>, capacity: usize) -> Self {
        Self {
            config,
            procs: HashMap::with_capacity_and_hasher(capacity, FxBuildHasher::default()),
            evidence: HashMap::default(),
            dirty: Vec::new(),
            fusion_tick: 0,
            fusion_stats: FusionStats::default(),
        }
    }

    /// The shard configuration.
    pub fn config(&self) -> &EngineConfig<A> {
        &self.config
    }

    /// Number of processes currently tracked, **terminated ones included**
    /// (they stay queryable until purged). Live count: [`Self::tracked_live`].
    pub fn tracked(&self) -> usize {
        self.procs.len()
    }

    /// Number of tracked processes that have not terminated.
    pub fn tracked_live(&self) -> usize {
        self.procs
            .values()
            .filter(|p| p.monitor.state().is_live())
            .count()
    }

    /// Current state of a process, if tracked.
    pub fn state(&self, pid: ProcessId) -> Option<ProcessState> {
        self.procs.get(&pid).map(|p| p.monitor.state())
    }

    /// Current threat index of a process, if tracked.
    pub fn threat(&self, pid: ProcessId) -> Option<ThreatIndex> {
        self.procs.get(&pid).map(|p| p.monitor.threat())
    }

    /// Current resource shares of a process, if tracked.
    pub fn resources(&self, pid: ProcessId) -> Option<ResourceVector> {
        self.procs.get(&pid).map(|p| p.resources)
    }

    /// Feeds one epoch's detector inference for `pid` and returns the
    /// response to enact.
    ///
    /// The hot path — a repeat observation of an already-tracked process —
    /// is a single `get_mut` lookup; only the first observation of an
    /// unknown pid falls into the registration path.
    pub fn observe(&mut self, pid: ProcessId, inference: Classification) -> EngineResponse {
        if let Some(tracked) = self.procs.get_mut(&pid) {
            return step(
                self.config.cyclic,
                pid,
                tracked,
                inference,
                &mut self.fusion_stats,
            );
        }
        let config = &self.config;
        let tracked = self
            .procs
            .entry(pid)
            .or_insert_with(|| TrackedProcess::new(config));
        step(
            config.cyclic,
            pid,
            tracked,
            inference,
            &mut self.fusion_stats,
        )
    }

    /// Advances a process by one fused evidence mass under the configured
    /// escalation ladder (the weighted-evidence sibling of
    /// [`EngineShard::observe`]).
    pub fn observe_mass(&mut self, pid: ProcessId, mass: f64) -> EngineResponse {
        let ladder = self.config.fusion.ladder;
        let cyclic = self.config.cyclic;
        if let Some(tracked) = self.procs.get_mut(&pid) {
            let report = tracked.monitor.observe_mass_with(ladder, mass);
            return enact(cyclic, pid, tracked, report, &mut self.fusion_stats);
        }
        let config = &self.config;
        let tracked = self
            .procs
            .entry(pid)
            .or_insert_with(|| TrackedProcess::new(config));
        let report = tracked.monitor.observe_mass_with(ladder, mass);
        enact(cyclic, pid, tracked, report, &mut self.fusion_stats)
    }

    /// Absorbs one ensemble member's verdict into the fusion table without
    /// advancing the monitor. The process is stepped (once, regardless of
    /// how many members published) by the next
    /// [`EngineShard::fuse_step_into`].
    pub fn absorb_verdict(&mut self, pid: ProcessId, verdict: Verdict) {
        self.fusion_stats.saw(verdict.detector);
        let cell = self.evidence.entry(pid).or_default();
        let seen_tick = self.fusion_tick + 1;
        match cell
            .members
            .iter_mut()
            .find(|m| m.detector == verdict.detector)
        {
            Some(m) => {
                m.confidence = verdict.confidence;
                m.cadence = verdict.cadence;
                m.seen_tick = seen_tick;
            }
            None => cell.members.push(MemberEvidence {
                detector: verdict.detector,
                confidence: verdict.confidence,
                cadence: verdict.cadence,
                seen_tick,
            }),
        }
        if !cell.dirty {
            cell.dirty = true;
            self.dirty.push(pid);
        }
    }

    /// Fuses all pending evidence and advances each touched process by one
    /// monitor step, appending one response per dirty process (first-arrival
    /// order) to `out`.
    ///
    /// Members that last published longer ago than their cadence are
    /// down-weighted by the configured staleness decay, so a wedged slow
    /// member fades out instead of pinning the fused mass.
    pub fn fuse_step_into(&mut self, out: &mut Vec<EngineResponse>) {
        self.fusion_tick += 1;
        let dirty = std::mem::take(&mut self.dirty);
        out.reserve(dirty.len());
        for pid in dirty {
            if let Some(response) = self.fuse_one(pid) {
                out.push(response);
            }
        }
    }

    /// Batch variant of [`EngineShard::fuse_step_into`].
    pub fn fuse_step(&mut self) -> Vec<EngineResponse> {
        let mut out = Vec::new();
        self.fuse_step_into(&mut out);
        out
    }

    /// Fuses the evidence of a single dirty process (no-op when the cell is
    /// clean). `fusion_tick` must already be advanced by the caller.
    fn fuse_one(&mut self, pid: ProcessId) -> Option<EngineResponse> {
        let fusion = &self.config.fusion;
        let cell = self.evidence.get_mut(&pid)?;
        if !cell.dirty {
            return None;
        }
        cell.dirty = false;
        let mut ev = Evidence::new();
        let mut stale = 0;
        for m in &cell.members {
            let age = self.fusion_tick.saturating_sub(m.seen_tick);
            let decay = stale_weight(fusion.stale_decay, age, m.cadence);
            if decay < 1.0 {
                stale += 1;
            }
            ev.add(m.confidence, fusion.weight_of(m.detector) * decay);
        }
        self.fusion_stats.stale_decayed += stale;
        Some(self.observe_mass(pid, ev.mass()))
    }

    /// Absorbs one verdict and immediately fuses the process's evidence:
    /// the single-caller convenience path (one verdict per epoch). Batch
    /// embedders absorb many verdicts and call
    /// [`EngineShard::fuse_step_into`] once per tick instead.
    pub fn observe_verdict(&mut self, pid: ProcessId, verdict: Verdict) -> EngineResponse {
        self.absorb_verdict(pid, verdict);
        self.fusion_tick += 1;
        // `absorb_verdict` queued the pid; consume that entry here so the
        // next batch fuse does not re-step the process.
        if self.dirty.last() == Some(&pid) {
            self.dirty.pop();
        }
        self.fuse_one(pid).expect("verdict was just absorbed")
    }

    /// Absorbs a batch of per-detector verdicts, then fuses once: one
    /// response per *process* with fresh evidence (first-arrival order),
    /// not one per verdict.
    pub fn observe_verdict_batch_into(
        &mut self,
        batch: &[(ProcessId, Verdict)],
        out: &mut Vec<EngineResponse>,
    ) {
        for &(pid, verdict) in batch {
            self.absorb_verdict(pid, verdict);
        }
        self.fuse_step_into(out);
    }

    /// Batch variant of [`EngineShard::observe_verdict`]; see
    /// [`EngineShard::observe_verdict_batch_into`].
    pub fn observe_verdict_batch(&mut self, batch: &[(ProcessId, Verdict)]) -> Vec<EngineResponse> {
        let mut out = Vec::new();
        self.observe_verdict_batch_into(batch, &mut out);
        out
    }

    /// Fusion-tier telemetry counters (escalation transitions included for
    /// the binary observe path).
    pub fn fusion_stats(&self) -> &FusionStats {
        &self.fusion_stats
    }

    /// Feeds a batch of per-process inferences, appending one response per
    /// observation to `out` in input order.
    pub fn observe_batch_into(
        &mut self,
        batch: &[(ProcessId, Classification)],
        out: &mut Vec<EngineResponse>,
    ) {
        out.reserve(batch.len());
        for &(pid, inference) in batch {
            out.push(self.observe(pid, inference));
        }
    }

    /// Batch variant of [`Self::observe`]; responses are in input order.
    pub fn observe_batch(&mut self, batch: &[(ProcessId, Classification)]) -> Vec<EngineResponse> {
        let mut out = Vec::with_capacity(batch.len());
        self.observe_batch_into(batch, &mut out);
        out
    }

    /// Marks a process as completed (Fig. 3: completion terminates it).
    ///
    /// # Errors
    ///
    /// Returns [`ValkyrieError::UnknownProcess`] when `pid` is not tracked.
    pub fn complete(&mut self, pid: ProcessId) -> Result<(), ValkyrieError> {
        let tracked = self
            .procs
            .get_mut(&pid)
            .ok_or(ValkyrieError::UnknownProcess(pid.0))?;
        tracked.monitor.complete();
        Ok(())
    }

    /// Stops tracking a process and frees its bookkeeping (fusion evidence
    /// included).
    pub fn forget(&mut self, pid: ProcessId) {
        self.procs.remove(&pid);
        self.evidence.remove(&pid);
    }

    /// Evicts every terminated process, returning how many were dropped.
    ///
    /// Terminated processes (Fig. 3's terminal state) never leave the map
    /// on their own, so a long-running engine that tracks short-lived
    /// processes grows without bound unless the embedder calls this (the
    /// epoch driver in [`crate::sharded`] does so every tick). After
    /// eviction a purged pid is unknown again: re-observing it registers a
    /// *fresh* process in the normal state.
    pub fn purge_terminated(&mut self) -> usize {
        let before = self.procs.len();
        self.procs.retain(|_, p| p.monitor.state().is_live());
        if before != self.procs.len() && !self.evidence.is_empty() {
            // Fusion evidence of purged processes goes with them; dirty
            // cells (fresh verdicts not yet fused) are kept.
            let procs = &self.procs;
            self.evidence
                .retain(|pid, cell| cell.dirty || procs.contains_key(pid));
        }
        before - self.procs.len()
    }

    /// Iterates over `(pid, state, threat)` of all tracked processes.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, ProcessState, ThreatIndex)> + '_ {
        self.procs
            .iter()
            .map(|(pid, p)| (*pid, p.monitor.state(), p.monitor.threat()))
    }
}

/// The Valkyrie response engine (paper Fig. 2): one [`EngineShard`], the
/// original per-process API under its paper name.
///
/// Processes are tracked lazily: the first observation of an unknown
/// [`ProcessId`] registers it in the *normal* state with full resources.
/// For fleets beyond a few thousand processes per tick, use the batched
/// [`ShardedEngine`](crate::sharded::ShardedEngine) instead.
///
/// # Examples
///
/// ```
/// use valkyrie_core::prelude::*;
///
/// let config = EngineConfig::builder()
///     .measurements_required(5)
///     .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
///     .build()
///     .unwrap();
/// let mut engine = ValkyrieEngine::new(config);
/// let resp = engine.observe(ProcessId(7), Classification::Malicious);
/// assert_eq!(resp.action, Action::Throttle);
/// assert!(resp.resources.cpu < 1.0);
/// ```
pub type ValkyrieEngine<A = CompositeActuator> = EngineShard<A>;

#[cfg(test)]
mod tests {
    use super::*;
    use Classification::{Benign, Malicious};

    fn engine(n_star: u64) -> ValkyrieEngine {
        let config = EngineConfig::builder()
            .measurements_required(n_star)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .build()
            .unwrap();
        ValkyrieEngine::new(config)
    }

    #[test]
    fn builder_requires_n_star_and_actuator() {
        let err = EngineConfig::builder().build().unwrap_err();
        assert!(matches!(err, ValkyrieError::InvalidConfig(_)));
        let err = EngineConfig::builder()
            .measurements_required(5)
            .build()
            .unwrap_err();
        assert!(matches!(err, ValkyrieError::InvalidConfig(_)));
        let err = EngineConfig::builder()
            .measurements_required(0)
            .actuator(ShareActuator::cpu_percent_point(0.1, 0.01))
            .build()
            .unwrap_err();
        assert!(matches!(err, ValkyrieError::InvalidConfig(_)));
    }

    #[test]
    fn first_observation_registers_process() {
        let mut e = engine(10);
        assert_eq!(e.tracked(), 0);
        e.observe(ProcessId(1), Benign);
        assert_eq!(e.tracked(), 1);
        assert_eq!(e.state(ProcessId(1)), Some(ProcessState::Normal));
    }

    #[test]
    fn throttle_then_full_recovery_restores_resources() {
        let mut e = engine(100);
        let pid = ProcessId(1);
        let r = e.observe(pid, Malicious);
        assert_eq!(r.action, Action::Throttle);
        assert!((r.resources.cpu - 0.9).abs() < 1e-12);
        let r = e.observe(pid, Malicious);
        assert!((r.resources.cpu - 0.7).abs() < 1e-12);
        // Recover: threat 3 -> 2 -> 0.
        let r = e.observe(pid, Benign);
        assert_eq!(r.action, Action::Recover);
        assert!((r.resources.cpu - 0.8).abs() < 1e-12);
        let r = e.observe(pid, Benign);
        assert_eq!(r.action, Action::Restore);
        assert!(r.resources.is_full());
        assert_eq!(r.state, ProcessState::Normal);
    }

    #[test]
    fn attack_is_terminated_only_in_terminable_state() {
        let mut e = engine(4);
        let pid = ProcessId(9);
        let mut terminated_at = None;
        for epoch in 1..=6 {
            let r = e.observe(pid, Malicious);
            if r.action == Action::Terminate {
                terminated_at = Some(epoch);
                break;
            }
        }
        // 4 epochs accumulate N*, the 5th (terminable) classification kills.
        assert_eq!(terminated_at, Some(5));
        assert_eq!(e.state(pid), Some(ProcessState::Terminated));
    }

    #[test]
    fn false_positive_is_restored_in_terminable_state() {
        let mut e = engine(3);
        let pid = ProcessId(2);
        e.observe(pid, Malicious);
        e.observe(pid, Malicious);
        e.observe(pid, Malicious);
        let r = e.observe(pid, Benign);
        assert_eq!(r.action, Action::Restore);
        assert!(r.resources.is_full());
        assert_eq!(r.state, ProcessState::Terminable);
    }

    #[test]
    fn resources_respect_floor_under_sustained_attack() {
        let mut e = engine(1000);
        let pid = ProcessId(3);
        let mut last = ResourceVector::FULL;
        for _ in 0..50 {
            last = e.observe(pid, Malicious).resources;
        }
        assert_eq!(last.cpu, 0.01);
        assert!(last.is_valid());
    }

    #[test]
    fn independent_processes_do_not_interfere() {
        let mut e = engine(100);
        e.observe(ProcessId(1), Malicious);
        e.observe(ProcessId(2), Benign);
        assert!(e.resources(ProcessId(1)).unwrap().cpu < 1.0);
        assert!(e.resources(ProcessId(2)).unwrap().is_full());
    }

    #[test]
    fn complete_and_forget() {
        let mut e = engine(10);
        let pid = ProcessId(5);
        assert!(e.complete(pid).is_err());
        e.observe(pid, Benign);
        e.complete(pid).unwrap();
        assert_eq!(e.state(pid), Some(ProcessState::Terminated));
        e.forget(pid);
        assert_eq!(e.state(pid), None);
    }

    #[test]
    fn cyclic_engine_rearms_after_restore() {
        let config = EngineConfig::builder()
            .measurements_required(3)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .cyclic(true)
            .build()
            .unwrap();
        let mut e = ValkyrieEngine::new(config);
        let pid = ProcessId(1);
        // Cycle 1: two FPs, one benign; terminable at measurement 3.
        e.observe(pid, Malicious);
        e.observe(pid, Malicious);
        e.observe(pid, Benign);
        // Terminable verdict: benign -> restore + new cycle.
        let r = e.observe(pid, Benign);
        assert_eq!(r.action, Action::RestoreAndRecycle);
        assert_eq!(r.state, ProcessState::Normal);
        // Cycle 2 can throttle again...
        let r = e.observe(pid, Malicious);
        assert_eq!(r.action, Action::Throttle);
        assert_eq!(r.state, ProcessState::Suspicious);
        // ...and still terminate an attack at the end of its cycle.
        e.observe(pid, Malicious);
        e.observe(pid, Malicious);
        let r = e.observe(pid, Malicious);
        assert_eq!(r.action, Action::Terminate);
    }

    #[test]
    fn iter_reports_all_processes() {
        let mut e = engine(10);
        e.observe(ProcessId(1), Benign);
        e.observe(ProcessId(2), Malicious);
        let mut pids: Vec<u64> = e.iter().map(|(pid, _, _)| pid.0).collect();
        pids.sort_unstable();
        assert_eq!(pids, vec![1, 2]);
    }

    #[test]
    fn purge_evicts_only_terminated_processes() {
        let mut e = engine(2);
        let attack = ProcessId(1);
        let benign = ProcessId(2);
        for _ in 0..3 {
            e.observe(attack, Malicious);
            e.observe(benign, Benign);
        }
        assert_eq!(e.state(attack), Some(ProcessState::Terminated));
        assert_eq!(e.tracked(), 2);
        assert_eq!(e.tracked_live(), 1);
        assert_eq!(e.purge_terminated(), 1);
        assert_eq!(e.tracked(), 1);
        assert_eq!(e.state(attack), None);
        // The clean process captured its N* measurements and is terminable,
        // but alive — purge must not touch it.
        assert_eq!(e.state(benign), Some(ProcessState::Terminable));
        // A purged pid re-registers as a fresh process.
        let r = e.observe(attack, Benign);
        assert_eq!(r.state, ProcessState::Normal);
        assert_eq!(e.purge_terminated(), 0);
    }

    #[test]
    fn completed_processes_are_purgeable() {
        let mut e = engine(10);
        e.observe(ProcessId(4), Benign);
        e.complete(ProcessId(4)).unwrap();
        assert_eq!(e.tracked_live(), 0);
        assert_eq!(e.purge_terminated(), 1);
        assert_eq!(e.tracked(), 0);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let config = EngineConfig::builder()
            .measurements_required(10)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .build()
            .unwrap();
        let mut e = ValkyrieEngine::with_capacity(config, 1024);
        assert_eq!(e.tracked(), 0);
        let r = e.observe(ProcessId(1), Malicious);
        assert_eq!(r.action, Action::Throttle);
        assert_eq!(e.tracked(), 1);
    }

    #[test]
    fn observe_batch_matches_sequential_observes() {
        let mut batched = engine(5);
        let mut sequential = engine(5);
        let batch: Vec<(ProcessId, Classification)> = (0..30)
            .map(|i| {
                let cls = if i % 3 == 0 { Malicious } else { Benign };
                (ProcessId(i % 7), cls)
            })
            .collect();
        let got = batched.observe_batch(&batch);
        let want: Vec<EngineResponse> = batch
            .iter()
            .map(|&(pid, cls)| sequential.observe(pid, cls))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn shard_fast_path_equals_registration_path_semantics() {
        // Same stream through a fresh shard twice: the first pass exercises
        // registration, the second pass (after forgetting) must re-register
        // identically.
        let config = EngineConfig::builder()
            .measurements_required(4)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .build()
            .unwrap();
        let mut shard = EngineShard::new(config);
        let stream = [Malicious, Benign, Malicious, Malicious];
        let first: Vec<EngineResponse> = stream
            .iter()
            .map(|&c| shard.observe(ProcessId(1), c))
            .collect();
        shard.forget(ProcessId(1));
        let second: Vec<EngineResponse> = stream
            .iter()
            .map(|&c| shard.observe(ProcessId(1), c))
            .collect();
        assert_eq!(first, second);
    }

    fn fusion_engine(n_star: u64, fusion: FusionConfig) -> ValkyrieEngine {
        let config = EngineConfig::builder()
            .measurements_required(n_star)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .fusion(fusion)
            .build()
            .unwrap();
        ValkyrieEngine::new(config)
    }

    #[test]
    fn binary_verdicts_through_fusion_match_binary_observe() {
        // A single unit-weight member with full-confidence verdicts and the
        // BINARY ladder must reproduce the legacy binary engine exactly.
        let fusion = FusionConfig {
            ladder: crate::monitor::EscalationLadder::BINARY,
            ..FusionConfig::default()
        };
        let mut fused = fusion_engine(4, fusion);
        let mut binary = engine(4);
        let pid = ProcessId(1);
        let stream = [
            Malicious, Benign, Malicious, Malicious, Malicious, Malicious,
        ];
        for c in stream {
            let want = binary.observe(pid, c);
            let got = fused.observe_verdict(pid, Verdict::from_classification(0, c));
            assert_eq!(got, want);
        }
        assert_eq!(fused.state(pid), Some(ProcessState::Terminated));
        assert_eq!(fused.fusion_stats().verdicts, stream.len() as u64);
    }

    #[test]
    fn fuse_step_advances_each_process_once_per_tick() {
        // Three members publishing in the same tick must cost the process
        // ONE monitor step, not three.
        let mut e = fusion_engine(10, FusionConfig::default());
        let pid = ProcessId(5);
        e.absorb_verdict(pid, Verdict::new(0, 1.0));
        e.absorb_verdict(pid, Verdict::new(1, 1.0));
        e.absorb_verdict(pid, Verdict::new(2, 1.0));
        let responses = e.fuse_step();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].action, Action::Throttle);
        assert_eq!(e.fusion_stats().verdicts, 3);
        assert_eq!(e.fusion_stats().per_detector, vec![1, 1, 1]);
        // One step was taken: a monitor at measurement 1, not 3.
        assert_eq!(e.threat(pid).unwrap().value(), 1.0);
        // No pending evidence: an empty fuse produces no responses.
        assert!(e.fuse_step().is_empty());
    }

    #[test]
    fn fusion_weights_tilt_the_mass() {
        // Detector 1 carries 4x the weight of detector 0. A malicious
        // verdict from the heavy member against a benign one from the light
        // member yields mass 0.8 → Throttle on the graduated ladder.
        let fusion = FusionConfig {
            weights: vec![1.0, 4.0],
            ..FusionConfig::default()
        };
        let mut e = fusion_engine(10, fusion);
        let pid = ProcessId(1);
        e.absorb_verdict(pid, Verdict::new(0, 0.0));
        e.absorb_verdict(pid, Verdict::new(1, 1.0));
        let r = e.fuse_step();
        assert_eq!(r[0].action, Action::Throttle);

        // Flipped: the heavy member says benign → mass 0.2 → no throttle.
        let fusion = FusionConfig {
            weights: vec![1.0, 4.0],
            ..FusionConfig::default()
        };
        let mut e = fusion_engine(10, fusion);
        e.absorb_verdict(pid, Verdict::new(0, 1.0));
        e.absorb_verdict(pid, Verdict::new(1, 0.0));
        let r = e.fuse_step();
        assert_eq!(r[0].action, Action::None);
        assert_eq!(r[0].state, ProcessState::Normal);
    }

    #[test]
    fn stale_slow_member_decays_out_of_the_mass() {
        // A slow member (cadence 2) flags malicious once, then goes silent.
        // With stale_decay 0.0 its verdict stops counting as soon as it is
        // overdue, letting the fresh benign member dominate.
        let fusion = FusionConfig {
            stale_decay: 0.0,
            ..FusionConfig::default()
        };
        let mut e = fusion_engine(100, fusion);
        let pid = ProcessId(9);
        e.absorb_verdict(pid, Verdict::new(1, 1.0).with_cadence(2));
        e.absorb_verdict(pid, Verdict::new(0, 0.0));
        let r = e.fuse_step();
        // Tick 1: both fresh, mass 0.5 → Observe band on the graduated
        // ladder → no action.
        assert_eq!(r[0].action, Action::None);
        // Ticks 2-4: only the fast benign member keeps publishing. At tick
        // 4 the slow verdict is 3 ticks old (> cadence 2) and fully decays.
        for _ in 0..3 {
            e.absorb_verdict(pid, Verdict::new(0, 0.0));
            e.fuse_step();
        }
        assert!(e.fusion_stats().stale_decayed > 0);
        assert_eq!(e.state(pid), Some(ProcessState::Normal));
        assert!(e.threat(pid).unwrap().is_zero());
    }

    #[test]
    fn escalation_transitions_are_counted_on_the_binary_path() {
        let mut e = engine(3);
        let pid = ProcessId(1);
        assert_eq!(e.fusion_stats().escalations, 0);
        e.observe(pid, Malicious); // Observe -> Throttle: +1
        e.observe(pid, Malicious); // Throttle -> Throttle: no transition
        assert_eq!(e.fusion_stats().escalations, 1);
        e.observe(pid, Benign); // Throttle -> Compensate: downward, no count
                                // Terminable by now (3 measurements): a malicious verdict jumps
                                // Compensate -> Kill, the second upward transition.
        let r = e.observe(pid, Malicious);
        assert_eq!(r.action, Action::Terminate);
        assert_eq!(e.fusion_stats().escalations, 2);
    }

    #[test]
    fn forget_and_purge_drop_fusion_evidence() {
        let mut e = fusion_engine(1, FusionConfig::default());
        let pid = ProcessId(1);
        e.observe_verdict(pid, Verdict::new(0, 1.0));
        let r = e.observe_verdict(pid, Verdict::new(0, 1.0));
        assert_eq!(r.action, Action::Terminate);
        assert_eq!(e.purge_terminated(), 1);
        // The purged pid's evidence went with it: a fresh verdict registers
        // a fresh process (a stale one would short-circuit with Terminate).
        let r = e.observe_verdict(pid, Verdict::new(0, 0.0));
        assert_eq!(r.action, Action::None);
        assert_eq!(r.state, ProcessState::Terminable);
    }

    #[test]
    fn observe_verdict_batch_orders_responses_by_first_arrival() {
        let mut e = fusion_engine(10, FusionConfig::default());
        let batch = vec![
            (ProcessId(3), Verdict::new(0, 1.0)),
            (ProcessId(1), Verdict::new(0, 0.0)),
            (ProcessId(3), Verdict::new(1, 1.0)),
        ];
        let r = e.observe_verdict_batch(&batch);
        assert_eq!(r.len(), 2, "two processes, three verdicts");
        assert_eq!(r[0].pid, ProcessId(3));
        assert_eq!(r[1].pid, ProcessId(1));
        assert_eq!(e.tracked(), 2);
    }
}
