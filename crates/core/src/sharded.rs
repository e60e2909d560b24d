//! The scaling tier: a sharded, batch-oriented Valkyrie engine.
//!
//! The paper's engine answers one detector inference at a time; a
//! production deployment watches **thousands of processes per tick**. A
//! [`ShardedEngine`] partitions processes by [`ProcessId`] hash across `N`
//! independent [`EngineShard`]s and exposes a batch API:
//! [`ShardedEngine::observe_batch`] feeds one epoch's inferences for the
//! whole fleet and returns the responses in input order.
//!
//! # Execution
//!
//! The engine owns its shards directly. Each large batch fans out with
//! [`std::thread::scope`], the shards chunked onto `min(shards, cores)`
//! fresh threads per tick. Small batches — and single-core hosts, where a
//! spawn is pure loss — stay on the caller's thread and skip the
//! partition/scatter passes entirely
//! ([`ShardedEngine::set_parallel_threshold`] moves that crossover). No
//! threads exist between ticks.
//!
//! Algorithm 1 semantics are **bit-for-bit identical** to a single
//! [`ValkyrieEngine`](crate::ValkyrieEngine) on every path: the monitor
//! state is strictly per process, shard placement is a pure deterministic
//! function of the pid ([`crate::hash::mix64`]), and observations of the
//! same pid within a batch are applied in batch order by whichever shard
//! owns it. The property tests in `tests/sharding.rs` pin this equivalence
//! for arbitrary interleavings, shard counts and both the inline and the
//! spawned path.
//!
//! # Examples
//!
//! ```
//! use valkyrie_core::prelude::*;
//!
//! let config = EngineConfig::builder()
//!     .measurements_required(5)
//!     .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
//!     .build()
//!     .unwrap();
//! let mut engine = ShardedEngine::with_capacity(config, 4, 10_000);
//! let batch: Vec<(ProcessId, Classification)> = (0..10_000)
//!     .map(|pid| (ProcessId(pid), Classification::Benign))
//!     .collect();
//! let responses = engine.tick(&batch);
//! assert_eq!(responses.len(), 10_000);
//! assert_eq!(engine.tracked_live(), 10_000);
//! assert_eq!(engine.epoch(), 1);
//! ```

use crate::actuator::{Actuator, CompositeActuator};
use crate::engine::{EngineConfig, EngineResponse, EngineShard};
use crate::error::ValkyrieError;
use crate::hash::shard_of;
use crate::ingest::{
    merge_by_seq, IngestDefense, IngestPublisher, IngestQueues, OverflowPolicy, ThreatHints,
};
use crate::resource::{ProcessId, ResourceVector};
use crate::state::ProcessState;
use crate::telemetry::{FusionStats, IngestStats};
use crate::threat::{Classification, ThreatIndex, Verdict};
use std::sync::{Arc, OnceLock};

/// Cached [`std::thread::available_parallelism`] (1 on error).
///
/// The underlying call re-reads cgroup limits from the kernel every time —
/// ~10 µs on Linux — which adds up for drivers that construct many
/// short-lived engines (e.g. a sweep building one per grid point). The host
/// core count cannot change under us in any deployment we care about, so
/// one probe per process is enough.
pub fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Batches smaller than this per call run on the caller's thread even with
/// multiple shards: a few hundred observations finish faster than the
/// spawns they would amortise. Tunable via
/// [`ShardedEngine::set_parallel_threshold`].
const DEFAULT_PARALLEL_THRESHOLD: usize = 512;

/// A partition-scratch slot whose capacity exceeds this multiple of what
/// the last batch actually needed is shrunk back, so one giant batch does
/// not pin its peak allocation for the rest of the engine's life.
const SCRATCH_SHRINK_FACTOR: usize = 8;

/// Scratch capacity below this is never shrunk — churning tiny
/// reallocations to save a few hundred bytes per shard is a net loss.
const SCRATCH_MIN_CAPACITY: usize = 64;

/// The one way a [`ShardedEngine`] runs: scoped spawns per large batch,
/// inline otherwise (see the [module docs](self)). Kept only because the
/// benchmark harness (`perfbench/`) still names it, through
/// [`ShardedEngine::with_mode`] and its multi-tenant configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Fan each batch out with [`std::thread::scope`], spawning fresh
    /// threads per tick (small batches stay inline).
    #[default]
    ScopedSpawn,
}

/// A fleet-scale engine: `N` independent [`EngineShard`]s behind a batch
/// API plus an epoch-tick driver.
///
/// See the [module docs](self) for the equivalence guarantees.
#[derive(Debug)]
pub struct ShardedEngine<A: Actuator + Clone = CompositeActuator> {
    shards: Vec<EngineShard<A>>,
    config: EngineConfig<A>,
    epoch: u64,
    purged_total: u64,
    parallel_threshold: usize,
    /// `min(shards, host cores)`, resolved once at construction so the
    /// per-tick hot path never pays the affinity syscall.
    host_workers: usize,
    /// Per-shard partition scratch, reused across batches so the steady
    /// state allocates nothing on the partition side (and shrunk back
    /// after outlier batches, see [`SCRATCH_SHRINK_FACTOR`]).
    parts: Vec<Vec<(ProcessId, Classification)>>,
    origins: Vec<Vec<usize>>,
    /// The async ingest rings, once [`ShardedEngine::enable_ingest`] has
    /// built them; `Arc`-shared with every publisher handle.
    ingest: Option<Arc<IngestQueues>>,
    /// Per-shard sequence-stamp scratch for [`ShardedEngine::drain_batch`]
    /// (empty until ingest is enabled; same shrink policy as `parts`).
    seqs: Vec<Vec<u64>>,
    /// The fusion tier's verdict rings, once
    /// [`ShardedEngine::enable_verdict_ingest`] has built them. A separate
    /// queue set from `ingest`: binary classifications and per-detector
    /// verdicts can flow side by side and are drained by the same
    /// [`ShardedEngine::drain_tick`].
    verdicts: Option<Arc<IngestQueues<Verdict>>>,
    /// Per-shard partition/drain scratch for the verdict path (empty until
    /// verdict ingest or a verdict batch is used; same shrink policy).
    vparts: Vec<Vec<(ProcessId, Verdict)>>,
    vseqs: Vec<Vec<u64>>,
    /// The suspicious-pid feedback channel for defended queue sets
    /// ([`crate::ingest::ThreatHints`]): shared with every queue set built
    /// by the `*_defended` enable variants and refreshed from this
    /// engine's own responses each tick/drain.
    hints: Arc<ThreatHints>,
    /// Whether any live queue set routes on the hints (skips the feedback
    /// pass entirely for undefended engines).
    hints_active: bool,
}

/// The owning shard for `pid` among `nshards`: a pure function of the pid,
/// stable across runs and platforms (the workspace-wide
/// routing rule, [`crate::hash::shard_of`]).
#[inline]
pub(crate) fn shard_index(pid: ProcessId, nshards: usize) -> usize {
    shard_of(pid.0, nshards)
}

/// Splits `batch` into per-partition work lists under an arbitrary routing
/// function, remembering each observation's position in the input batch.
/// Free-standing so an engine can split-borrow its scratch next to its
/// shards; the fleet tier reuses it with machine-id routing.
pub(crate) fn partition_by_into<T: Copy>(
    batch: &[(ProcessId, T)],
    route: impl Fn(ProcessId) -> usize,
    parts: &mut [Vec<(ProcessId, T)>],
    origins: &mut [Vec<usize>],
) {
    for (part, origin) in parts.iter_mut().zip(origins.iter_mut()) {
        part.clear();
        origin.clear();
    }
    for (i, &(pid, payload)) in batch.iter().enumerate() {
        let part = route(pid);
        parts[part].push((pid, payload));
        origins[part].push(i);
    }
}

/// Splits `batch` into per-shard work lists under the pid routing rule.
fn partition_into(
    batch: &[(ProcessId, Classification)],
    nshards: usize,
    parts: &mut [Vec<(ProcessId, Classification)>],
    origins: &mut [Vec<usize>],
) {
    partition_by_into(batch, |pid| shard_index(pid, nshards), parts, origins);
}

/// The single scratch-shrink policy: a slot keeps at most
/// [`SCRATCH_SHRINK_FACTOR`]× what it currently holds (`used` elements),
/// never dropping below [`SCRATCH_MIN_CAPACITY`].
pub(crate) fn shrink_slot<T>(slot: &mut Vec<T>, used: usize) {
    let need = used.max(SCRATCH_MIN_CAPACITY);
    if slot.capacity() > need * SCRATCH_SHRINK_FACTOR {
        slot.shrink_to(need);
    }
}

/// Applies per-shard work lists to the shards, returning one response
/// list per shard (in shard order). With more than one worker the shards
/// are chunked onto `workers` scoped threads (an 8-shard engine on a
/// 4-core host costs 4 spawns, not 8); with one worker everything runs
/// inline. Shared by the batch and drain
/// paths — per-shard application order is identical either way.
fn observe_parts<A: Actuator + Clone + Send>(
    shards: &mut [EngineShard<A>],
    parts: &[Vec<(ProcessId, Classification)>],
    workers: usize,
) -> Vec<Vec<EngineResponse>> {
    if workers <= 1 {
        return shards
            .iter_mut()
            .zip(parts)
            .map(|(shard, part)| shard.observe_batch(part))
            .collect();
    }
    let chunk = shards.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .chunks_mut(chunk)
            .zip(parts.chunks(chunk))
            .map(|(shard_chunk, part_chunk)| {
                scope.spawn(move || {
                    shard_chunk
                        .iter_mut()
                        .zip(part_chunk)
                        .map(|(shard, part)| shard.observe_batch(part))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("engine shard panicked"))
            .collect()
    })
}

/// Scatters per-shard response lists back to input order. Every slot is
/// overwritten: the partition covers each input index exactly once.
pub(crate) fn scatter_to_input_order(
    origins: &[Vec<usize>],
    results: Vec<Vec<EngineResponse>>,
    len: usize,
) -> Vec<EngineResponse> {
    let placeholder = EngineResponse {
        pid: ProcessId(u64::MAX),
        state: ProcessState::Normal,
        threat: ThreatIndex::zero(),
        resources: ResourceVector::FULL,
        action: crate::engine::Action::None,
    };
    let mut out = vec![placeholder; len];
    for (indices, responses) in origins.iter().zip(results) {
        for (&i, response) in indices.iter().zip(responses) {
            out[i] = response;
        }
    }
    out
}

impl<A: Actuator + Clone + Send> ShardedEngine<A> {
    /// Creates an engine with `shards` partitions.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(config: EngineConfig<A>, shards: usize) -> Self {
        Self::with_capacity(config, shards, 0)
    }

    /// Creates an engine with `shards` partitions, each pre-sized for its
    /// share of `expected_procs` processes (see
    /// [`EngineShard::with_capacity`]).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_capacity(config: EngineConfig<A>, shards: usize, expected_procs: usize) -> Self {
        assert!(shards > 0, "a sharded engine needs at least one shard");
        let per_shard = expected_procs.div_ceil(shards);
        Self {
            shards: (0..shards)
                .map(|_| EngineShard::with_capacity(config.clone(), per_shard))
                .collect(),
            config,
            epoch: 0,
            purged_total: 0,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            host_workers: host_parallelism().min(shards),
            parts: vec![Vec::new(); shards],
            origins: vec![Vec::new(); shards],
            ingest: None,
            seqs: Vec::new(),
            verdicts: None,
            vparts: Vec::new(),
            vseqs: Vec::new(),
            hints: ThreatHints::new(),
            hints_active: false,
        }
    }

    /// [`Self::with_capacity`]; `mode` is ignored, since
    /// [`ExecutionMode`] has a single variant. Kept only because the
    /// benchmark harness (`perfbench/`) still calls it.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_mode(
        config: EngineConfig<A>,
        shards: usize,
        expected_procs: usize,
        _mode: ExecutionMode,
    ) -> Self {
        Self::with_capacity(config, shards, expected_procs)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shared configuration (every shard holds a clone of it).
    pub fn config(&self) -> &EngineConfig<A> {
        &self.config
    }

    /// Epochs driven so far via [`Self::tick`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Terminated processes evicted so far, whether by [`Self::tick`]'s
    /// end-of-epoch purge or by direct [`Self::purge_terminated`] calls —
    /// both paths feed the same counter.
    pub fn purged_total(&self) -> u64 {
        self.purged_total
    }

    /// Overrides the batch size below which [`Self::observe_batch`] stays
    /// on the caller's thread. Shard
    /// placement and results are unaffected — this only moves the
    /// sequential/parallel crossover. A threshold of `0` forces the spawn
    /// path even on a single-core host (useful for equivalence tests; pure
    /// overhead otherwise). A one-shard engine always runs inline
    /// regardless: there is nothing to fan out.
    pub fn set_parallel_threshold(&mut self, threshold: usize) {
        self.parallel_threshold = threshold;
    }

    /// The shard that owns `pid`: a pure function of the pid, stable across
    /// runs and platforms for a fixed shard count.
    pub fn shard_of(&self, pid: ProcessId) -> usize {
        shard_index(pid, self.shards.len())
    }

    /// Total capacity (in elements) currently retained by the per-shard
    /// partition scratch, summed over work lists and origin maps. Exposed
    /// so tests can pin the shrink policy: after an outlier batch the
    /// capacity must return to steady state instead of staying at its
    /// peak.
    pub fn scratch_capacity(&self) -> usize {
        self.parts.iter().map(Vec::capacity).sum::<usize>()
            + self.origins.iter().map(Vec::capacity).sum::<usize>()
    }

    /// Number of processes currently tracked across all shards,
    /// **terminated ones included** (they stay queryable until purged).
    pub fn tracked(&self) -> usize {
        self.shards.iter().map(EngineShard::tracked).sum()
    }

    /// Number of tracked processes that have not terminated.
    pub fn tracked_live(&self) -> usize {
        self.shards.iter().map(EngineShard::tracked_live).sum()
    }

    /// Current state of a process, if tracked.
    pub fn state(&self, pid: ProcessId) -> Option<ProcessState> {
        self.shards[self.shard_of(pid)].state(pid)
    }

    /// Current threat index of a process, if tracked.
    pub fn threat(&self, pid: ProcessId) -> Option<ThreatIndex> {
        self.shards[self.shard_of(pid)].threat(pid)
    }

    /// Current resource shares of a process, if tracked.
    pub fn resources(&self, pid: ProcessId) -> Option<ResourceVector> {
        self.shards[self.shard_of(pid)].resources(pid)
    }

    /// Feeds one inference for one process (the compatibility path; batch
    /// embedders should use [`Self::observe_batch`]).
    pub fn observe(&mut self, pid: ProcessId, inference: Classification) -> EngineResponse {
        let shard = self.shard_of(pid);
        self.shards[shard].observe(pid, inference)
    }

    /// Feeds one per-detector [`Verdict`] for one process through the
    /// fusion tier of its owning shard (see
    /// [`EngineShard::observe_verdict`]).
    pub fn observe_verdict(&mut self, pid: ProcessId, verdict: Verdict) -> EngineResponse {
        let shard = self.shard_of(pid);
        self.shards[shard].observe_verdict(pid, verdict)
    }

    /// Feeds one tick's per-detector verdicts for the whole fleet. Each
    /// shard absorbs its verdicts in batch order, then fuses every touched
    /// process **once** — so a process with three members reporting this
    /// tick takes one monitor step, not three. Returns one response per
    /// *process* with fresh evidence, grouped shard by shard (within a
    /// shard: first-arrival order). Deterministic for a fixed batch and
    /// shard count.
    pub fn observe_verdict_batch(&mut self, batch: &[(ProcessId, Verdict)]) -> Vec<EngineResponse> {
        let nshards = self.shards.len();
        if nshards == 1 {
            return self.shards[0].observe_verdict_batch(batch);
        }
        if self.vparts.len() != nshards {
            self.vparts = vec![Vec::new(); nshards];
        }
        partition_by_into(
            batch,
            |pid| shard_index(pid, nshards),
            &mut self.vparts,
            &mut self.origins,
        );
        let mut out = Vec::new();
        for (shard, part) in self.shards.iter_mut().zip(&self.vparts) {
            shard.observe_verdict_batch_into(part, &mut out);
        }
        for part in &mut self.vparts {
            let used = part.len();
            shrink_slot(part, used);
        }
        out
    }

    /// The fusion counters merged across every shard (see
    /// [`FusionStats`]): verdicts absorbed per detector, stale verdicts
    /// decayed, escalation transitions enacted.
    pub fn fusion_stats(&self) -> FusionStats {
        let mut stats = FusionStats::default();
        for shard in &self.shards {
            stats.merge(shard.fusion_stats());
        }
        stats
    }

    /// Feeds one epoch's detector inferences for the whole fleet and
    /// returns one response per observation, **in input order**.
    ///
    /// Observations are partitioned by owning shard; each shard applies its
    /// observations in batch order. Batches worth parallelising run the
    /// shards across the host's available cores with
    /// [`std::thread::scope`] (shards are chunked onto `min(shards, cores)`
    /// worker threads); small batches — and single-core hosts, where a
    /// spawn is pure loss — stay on the caller's thread and skip the
    /// partition/scatter passes entirely. Results are identical on both
    /// paths because shards share no per-process state.
    pub fn observe_batch(&mut self, batch: &[(ProcessId, Classification)]) -> Vec<EngineResponse> {
        let nshards = self.shards.len();
        if nshards == 1 {
            return self.shards[0].observe_batch(batch);
        }
        let force_spawns = self.parallel_threshold == 0;
        let workers = if force_spawns {
            nshards
        } else {
            self.host_workers
        };
        if !force_spawns && (workers <= 1 || batch.len() < self.parallel_threshold) {
            // No parallelism to win (single-core host, or a batch too
            // small to amortise the spawns): route each observation
            // straight to its shard. This skips the partition and scatter
            // passes entirely — measured on the 10k bench they cost more
            // than the observe work they reorganise.
            let mut out = Vec::with_capacity(batch.len());
            for &(pid, inference) in batch {
                let shard = shard_index(pid, nshards);
                out.push(self.shards[shard].observe(pid, inference));
            }
            // The scratch was bypassed, so anything an earlier partitioned
            // outlier batch left in it is dead weight; shrink it here too
            // or the inline steady state would pin the peak forever.
            self.shrink_idle_scratch();
            return out;
        }

        partition_into(batch, nshards, &mut self.parts, &mut self.origins);
        let results = observe_parts(&mut self.shards, &self.parts, workers);
        let out = scatter_to_input_order(&self.origins, results, batch.len());
        self.shrink_scratch();
        out
    }

    /// Batch variant of [`Self::observe_batch`] writing into a caller-owned
    /// buffer (cleared first). The single-shard path runs allocation-free,
    /// so per-epoch embedders (the scenario driver) reuse one response
    /// buffer across steps; multi-shard configurations fall back to
    /// [`Self::observe_batch`], whose scatter pass allocates per call
    /// anyway. Responses are identical on every path.
    pub fn observe_batch_into(
        &mut self,
        batch: &[(ProcessId, Classification)],
        out: &mut Vec<EngineResponse>,
    ) {
        out.clear();
        if self.shards.len() == 1 {
            self.shards[0].observe_batch_into(batch, out);
            return;
        }
        out.extend(self.observe_batch(batch));
    }

    /// Shrinks scratch the inline fast path left unused: its contents are
    /// stale (the last *partitioned* batch, not the one just served), so
    /// any slot holding more than the floor's slack goes straight back to
    /// [`SCRATCH_MIN_CAPACITY`].
    fn shrink_idle_scratch(&mut self) {
        for part in &mut self.parts {
            part.clear();
            shrink_slot(part, 0);
        }
        for origin in &mut self.origins {
            origin.clear();
            shrink_slot(origin, 0);
        }
    }

    /// Returns outlier allocations in the partition scratch to steady
    /// state: a slot keeps at most [`SCRATCH_SHRINK_FACTOR`]× the capacity
    /// the batch it just held needed (never shrinking below
    /// [`SCRATCH_MIN_CAPACITY`]). Without this, one giant batch pins its
    /// peak capacity for the rest of the engine's life.
    fn shrink_scratch(&mut self) {
        for part in &mut self.parts {
            let used = part.len();
            shrink_slot(part, used);
        }
        for origin in &mut self.origins {
            let used = origin.len();
            shrink_slot(origin, used);
        }
    }

    /// The epoch driver: feeds one tick's batch, advances the epoch
    /// counter, and evicts terminated processes so the fleet map cannot
    /// grow without bound.
    ///
    /// Responses still report the terminal observation (the embedder must
    /// enact [`Action::Terminate`](crate::Action::Terminate)); the
    /// bookkeeping is dropped immediately afterwards, so re-observing a
    /// terminated pid on a later tick registers a *fresh* process.
    /// Embedders that need post-mortem queries should use
    /// [`Self::observe_batch`] and purge on their own schedule.
    pub fn tick(&mut self, batch: &[(ProcessId, Classification)]) -> Vec<EngineResponse> {
        let responses = self.observe_batch(batch);
        self.update_hints(&responses);
        self.epoch += 1;
        self.purge_terminated();
        responses
    }

    /// Builds the async ingest tier — one bounded ring per shard, holding
    /// up to `capacity` observations each — and returns a publisher handle
    /// for the detector threads (clone it freely; see
    /// [`crate::ingest`] for the architecture and
    /// [`OverflowPolicy`] for what a full ring does). The engine's side of
    /// the pair is [`Self::drain_batch`] / [`Self::drain_tick`].
    ///
    /// Calling this again replaces the rings: the old ones are closed
    /// (their blocked publishers wake and their handles start returning
    /// `false`), and any still-queued observations in them are discarded.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_ingest(&mut self, capacity: usize, policy: OverflowPolicy) -> IngestPublisher {
        self.enable_ingest_defended(capacity, policy, IngestDefense::default())
    }

    /// [`Self::enable_ingest`] with the overload defense: priority lanes
    /// routed on this engine's [`ThreatHints`] (refreshed from its own
    /// responses every tick/drain) and/or per-publisher fair queueing.
    /// With both mechanisms off this is exactly [`Self::enable_ingest`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_ingest_defended(
        &mut self,
        capacity: usize,
        policy: OverflowPolicy,
        defense: IngestDefense,
    ) -> IngestPublisher {
        if let Some(old) = self.ingest.take() {
            old.close();
        }
        let queues = IngestQueues::with_defense(
            self.shards.len(),
            capacity,
            policy,
            defense,
            Arc::clone(&self.hints),
        );
        self.seqs = vec![Vec::new(); self.shards.len()];
        self.ingest = Some(Arc::clone(&queues));
        self.refresh_hints_active();
        IngestPublisher::new(queues)
    }

    /// Whether any live queue set routes on the threat hints, recomputed
    /// after a queue set is (re)built.
    fn refresh_hints_active(&mut self) {
        self.hints_active = self
            .ingest
            .as_ref()
            .is_some_and(|q| q.defense().priority_lane)
            || self
                .verdicts
                .as_ref()
                .is_some_and(|q| q.defense().priority_lane);
    }

    /// The suspicious-pid feedback set shared with defended queue sets.
    /// Mostly for tests and telemetry — the engine maintains it by itself.
    pub fn threat_hints(&self) -> Arc<ThreatHints> {
        Arc::clone(&self.hints)
    }

    /// Refreshes the threat hints from a tick's responses: pids the
    /// escalation ladder holds at Suspicious/Terminable are marked for
    /// the priority lane, pids back at Normal (or gone) are cleared.
    fn update_hints(&self, responses: &[EngineResponse]) {
        if !self.hints_active || responses.is_empty() {
            return;
        }
        self.hints.update(responses.iter().map(|r| {
            (
                r.pid,
                matches!(r.state, ProcessState::Suspicious | ProcessState::Terminable),
            )
        }));
    }

    /// Whether [`Self::enable_ingest`] has built the ingest tier.
    pub fn ingest_enabled(&self) -> bool {
        self.ingest.is_some()
    }

    /// A fresh publisher handle for the current ingest rings (`None`
    /// before [`Self::enable_ingest`]).
    pub fn publisher(&self) -> Option<IngestPublisher> {
        self.ingest
            .as_ref()
            .map(|queues| IngestPublisher::new(Arc::clone(queues)))
    }

    /// Publishes one classification into the ingest rings from the driver
    /// side (detector threads should use their [`IngestPublisher`]).
    /// Returns `false` only when the rings have been replaced or closed.
    ///
    /// With [`OverflowPolicy::Block`] and a full ring this **waits for a
    /// drain** — a driver that both publishes and drains must size the
    /// rings for a full tick's observations.
    ///
    /// # Panics
    ///
    /// Panics if ingest was never enabled.
    pub fn ingest(&self, pid: ProcessId, inference: Classification) -> bool {
        let queues = self
            .ingest
            .as_ref()
            .expect("call enable_ingest before ShardedEngine::ingest");
        queues.push(0, self.shard_of(pid), pid, inference)
    }

    /// The ingest tier's counters (`None` before [`Self::enable_ingest`]);
    /// see [`IngestStats`] for what each field means.
    pub fn ingest_stats(&self) -> Option<IngestStats> {
        self.ingest.as_ref().map(|queues| queues.stats())
    }

    /// Builds the fusion tier's async verdict rings — the per-detector
    /// twin of [`Self::enable_ingest`] — and returns a publisher handle.
    /// Each ensemble member clones the publisher and publishes
    /// [`Verdict`]s at its own cadence; the next [`Self::drain_tick`]
    /// absorbs whatever has arrived and fuses each touched process once.
    ///
    /// A separate queue set from the binary rings: both can be enabled at
    /// once (e.g. legacy detectors publishing classifications next to
    /// fusion members publishing verdicts) and one drain serves both.
    /// Calling this again replaces — and closes — the previous verdict
    /// rings, exactly like [`Self::enable_ingest`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_verdict_ingest(
        &mut self,
        capacity: usize,
        policy: OverflowPolicy,
    ) -> IngestPublisher<Verdict> {
        self.enable_verdict_ingest_defended(capacity, policy, IngestDefense::default())
    }

    /// [`Self::enable_verdict_ingest`] with the overload defense — the
    /// verdict-ring twin of [`Self::enable_ingest_defended`], sharing the
    /// same [`ThreatHints`] set. Under `Coalesce`, verdict entries merge
    /// by (pid, detector), so the defense also cannot conflate members.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_verdict_ingest_defended(
        &mut self,
        capacity: usize,
        policy: OverflowPolicy,
        defense: IngestDefense,
    ) -> IngestPublisher<Verdict> {
        if let Some(old) = self.verdicts.take() {
            old.close();
        }
        let queues = IngestQueues::with_defense(
            self.shards.len(),
            capacity,
            policy,
            defense,
            Arc::clone(&self.hints),
        );
        self.vparts = vec![Vec::new(); self.shards.len()];
        self.vseqs = vec![Vec::new(); self.shards.len()];
        self.verdicts = Some(Arc::clone(&queues));
        self.refresh_hints_active();
        IngestPublisher::new(queues)
    }

    /// Whether [`Self::enable_verdict_ingest`] has built the verdict rings.
    pub fn verdict_ingest_enabled(&self) -> bool {
        self.verdicts.is_some()
    }

    /// A fresh publisher handle for the current verdict rings (`None`
    /// before [`Self::enable_verdict_ingest`]).
    pub fn verdict_publisher(&self) -> Option<IngestPublisher<Verdict>> {
        self.verdicts
            .as_ref()
            .map(|queues| IngestPublisher::new(Arc::clone(queues)))
    }

    /// Publishes one per-detector verdict into the verdict rings from the
    /// driver side. Returns `false` only when the rings have been replaced
    /// or closed.
    ///
    /// # Panics
    ///
    /// Panics if verdict ingest was never enabled.
    pub fn ingest_verdict(&self, pid: ProcessId, verdict: Verdict) -> bool {
        let queues = self
            .verdicts
            .as_ref()
            .expect("call enable_verdict_ingest before ShardedEngine::ingest_verdict");
        queues.push(0, self.shard_of(pid), pid, verdict)
    }

    /// The verdict rings' counters (`None` before
    /// [`Self::enable_verdict_ingest`]).
    pub fn verdict_ingest_stats(&self) -> Option<IngestStats> {
        self.verdicts.as_ref().map(|queues| queues.stats())
    }

    /// Drains every ingest ring and answers the drained observations, in
    /// **publish order** (per publisher; concurrent publishers are merged
    /// in sequence-stamp order, one valid global serialization). The
    /// non-epoch half of the [`Self::ingest`]/[`Self::drain_tick`] pair —
    /// it is to [`Self::drain_tick`] what [`Self::observe_batch`] is to
    /// [`Self::tick`]: no epoch advance, no purge.
    ///
    /// Never waits on publishers: a stalled detector simply contributes
    /// nothing to this drain, and its processes keep their current state
    /// (cyclic monitoring treats a missing observation as "no measurement
    /// this epoch"). Rings are emptied — and their blocked publishers
    /// released — before any observe work runs.
    ///
    /// With [`OverflowPolicy::Block`] and rings that never overflowed,
    /// publish-then-drain is bit-for-bit equivalent to handing the same
    /// observations to [`Self::observe_batch`] (pinned by
    /// `tests/ingest.rs`).
    ///
    /// When verdict ingest is enabled too (or instead — see
    /// [`Self::enable_verdict_ingest`]), the verdict rings are drained
    /// after the binary rings and each touched process's evidence is fused
    /// once; those per-process responses are appended after the
    /// per-observation binary responses.
    ///
    /// # Panics
    ///
    /// Panics if neither ingest tier was ever enabled.
    pub fn drain_batch(&mut self) -> Vec<EngineResponse> {
        assert!(
            self.ingest.is_some() || self.verdicts.is_some(),
            "call enable_ingest or enable_verdict_ingest before ShardedEngine::drain_batch"
        );
        let mut out = if self.ingest.is_some() {
            self.drain_binary_batch()
        } else {
            Vec::new()
        };
        if self.verdicts.is_some() {
            self.drain_verdicts_into(&mut out);
        }
        self.update_hints(&out);
        out
    }

    /// The binary half of [`Self::drain_batch`] (the PR 5 path, verbatim).
    fn drain_binary_batch(&mut self) -> Vec<EngineResponse> {
        let queues = Arc::clone(
            self.ingest
                .as_ref()
                .expect("drain_binary_batch requires enabled ingest"),
        );
        let nshards = self.shards.len();
        // Empty every ring into the drain scratch first: publishers blocked
        // on a full ring are released before — not after — the observe
        // work runs.
        for shard in 0..nshards {
            self.parts[shard].clear();
            self.seqs[shard].clear();
            queues.drain_shard_into(shard, &mut self.parts[shard], &mut self.seqs[shard]);
        }
        let out = if nshards == 1 {
            // One ring: application order is ring order, but the *returned*
            // order must still be stamp order — under `Coalesce` a
            // restamped entry keeps its ring slot, and skipping the merge
            // here would make response order depend on the shard count.
            let results = vec![self.shards[0].observe_batch(&self.parts[0])];
            merge_by_seq(&self.seqs, results)
        } else {
            let total: usize = self.parts.iter().map(Vec::len).sum();
            let force_spawns = self.parallel_threshold == 0;
            let workers = if force_spawns {
                nshards
            } else if total < self.parallel_threshold {
                1
            } else {
                self.host_workers
            };
            let results = observe_parts(&mut self.shards, &self.parts, workers);
            merge_by_seq(&self.seqs, results)
        };
        self.shrink_drain_scratch();
        out
    }

    /// The verdict half of [`Self::drain_batch`]: empties every verdict
    /// ring, absorbs the verdicts and appends one fused response per
    /// touched process (shard by shard; within a shard, first-arrival
    /// order). Rings are emptied — and blocked publishers released —
    /// before any fuse work runs, mirroring the binary drain.
    fn drain_verdicts_into(&mut self, out: &mut Vec<EngineResponse>) {
        let queues = Arc::clone(
            self.verdicts
                .as_ref()
                .expect("drain_verdicts_into requires enabled verdict ingest"),
        );
        for shard in 0..self.shards.len() {
            self.vparts[shard].clear();
            self.vseqs[shard].clear();
            queues.drain_shard_into(shard, &mut self.vparts[shard], &mut self.vseqs[shard]);
        }
        for (shard, part) in self.shards.iter_mut().zip(&self.vparts) {
            shard.observe_verdict_batch_into(part, out);
        }
        for part in &mut self.vparts {
            let used = part.len();
            shrink_slot(part, used);
        }
        for seqs in &mut self.vseqs {
            let used = seqs.len();
            shrink_slot(seqs, used);
        }
    }

    /// The async epoch driver: drains the ingest rings
    /// ([`Self::drain_batch`]), advances the epoch counter and evicts
    /// terminated processes — [`Self::tick`]'s contract, fed by the
    /// detector threads' queues instead of a caller-assembled batch. Ticks
    /// on schedule no matter how slow (or wedged) the detectors are.
    ///
    /// # Panics
    ///
    /// Panics if ingest was never enabled.
    pub fn drain_tick(&mut self) -> Vec<EngineResponse> {
        let responses = self.drain_batch();
        self.epoch += 1;
        self.purge_terminated();
        responses
    }

    /// Returns drain-scratch outliers to steady state (the policy of
    /// [`Self::shrink_scratch`], applied to the drain side's slots).
    fn shrink_drain_scratch(&mut self) {
        for part in &mut self.parts {
            let used = part.len();
            shrink_slot(part, used);
        }
        for seqs in &mut self.seqs {
            let used = seqs.len();
            shrink_slot(seqs, used);
        }
    }

    /// Evicts every terminated process across all shards, returning how
    /// many were dropped (see [`EngineShard::purge_terminated`]). The
    /// evictions are added to [`Self::purged_total`] whether this is
    /// called directly or by [`Self::tick`].
    pub fn purge_terminated(&mut self) -> usize {
        let purged: usize = self
            .shards
            .iter_mut()
            .map(EngineShard::purge_terminated)
            .sum();
        self.purged_total += purged as u64;
        purged
    }

    /// Marks a process as completed (Fig. 3: completion terminates it).
    ///
    /// # Errors
    ///
    /// Returns [`ValkyrieError::UnknownProcess`] when `pid` is not tracked.
    pub fn complete(&mut self, pid: ProcessId) -> Result<(), ValkyrieError> {
        let shard = self.shard_of(pid);
        self.shards[shard].complete(pid)
    }

    /// Stops tracking a process and frees its bookkeeping.
    pub fn forget(&mut self, pid: ProcessId) {
        let shard = self.shard_of(pid);
        self.shards[shard].forget(pid)
    }

    /// Iterates over `(pid, state, threat)` of all tracked processes, shard
    /// by shard (no global ordering). Lazy and allocation-free.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, ProcessState, ThreatIndex)> + '_ {
        self.shards.iter().flat_map(EngineShard::iter)
    }
}

impl<A: Actuator + Clone> Drop for ShardedEngine<A> {
    /// Closes the ingest rings so detector threads blocked on a full ring
    /// (`OverflowPolicy::Block`) wake up instead of waiting forever for a
    /// drain that can no longer come; their publish calls return `false`
    /// from then on.
    fn drop(&mut self) {
        if let Some(queues) = &self.ingest {
            queues.close();
        }
        if let Some(queues) = &self.verdicts {
            queues.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuator::ShareActuator;
    use crate::engine::{Action, ValkyrieEngine};
    use Classification::{Benign, Malicious};

    fn config(n_star: u64) -> EngineConfig {
        EngineConfig::builder()
            .measurements_required(n_star)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .build()
            .unwrap()
    }

    fn mixed_batch(procs: u64, epoch: u64) -> Vec<(ProcessId, Classification)> {
        (0..procs)
            .map(|pid| {
                let cls = if (pid + epoch).is_multiple_of(7) {
                    Malicious
                } else {
                    Benign
                };
                (ProcessId(pid), cls)
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = ShardedEngine::new(config(5), 0);
    }

    #[test]
    fn batch_responses_are_in_input_order() {
        let mut e = ShardedEngine::new(config(100), 4);
        let batch = mixed_batch(257, 1);
        let responses = e.observe_batch(&batch);
        assert_eq!(responses.len(), batch.len());
        for (resp, &(pid, _)) in responses.iter().zip(&batch) {
            assert_eq!(resp.pid, pid);
        }
    }

    #[test]
    fn sharded_matches_single_engine_sequential_and_parallel() {
        for threshold in [usize::MAX, 0] {
            let mut sharded = ShardedEngine::new(config(3), 5);
            sharded.set_parallel_threshold(threshold);
            let mut single = ValkyrieEngine::new(config(3));
            for epoch in 0..6 {
                let batch = mixed_batch(50, epoch);
                let got = sharded.observe_batch(&batch);
                let want: Vec<EngineResponse> = batch
                    .iter()
                    .map(|&(pid, cls)| single.observe(pid, cls))
                    .collect();
                assert_eq!(got, want, "epoch {epoch}, threshold {threshold}");
            }
        }
    }

    #[test]
    fn repeated_pid_within_a_batch_is_applied_in_order() {
        let mut sharded = ShardedEngine::new(config(100), 7);
        let mut single = ValkyrieEngine::new(config(100));
        let pid = ProcessId(11);
        let batch = vec![
            (pid, Malicious),
            (pid, Malicious),
            (pid, Benign),
            (pid, Malicious),
        ];
        let got = sharded.observe_batch(&batch);
        let want: Vec<EngineResponse> = batch
            .iter()
            .map(|&(pid, cls)| single.observe(pid, cls))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn shard_placement_is_deterministic_and_total() {
        let e = ShardedEngine::new(config(5), 16);
        for pid in 0..1000 {
            let s = e.shard_of(ProcessId(pid));
            assert!(s < 16);
            assert_eq!(s, e.shard_of(ProcessId(pid)));
        }
    }

    #[test]
    fn tick_advances_epoch_and_purges_terminated() {
        let mut e = ShardedEngine::new(config(2), 4);
        // Pid 1 is attacked every epoch; terminated at its 3rd observation.
        let batch = vec![(ProcessId(1), Malicious), (ProcessId(2), Benign)];
        e.tick(&batch);
        e.tick(&batch);
        assert_eq!(e.tracked(), 2);
        let responses = e.tick(&batch);
        assert_eq!(responses[0].action, Action::Terminate);
        // The terminated process is evicted by the same tick...
        assert_eq!(e.tracked(), 1);
        assert_eq!(e.state(ProcessId(1)), None);
        assert_eq!(e.epoch(), 3);
        assert_eq!(e.purged_total(), 1);
        // ...and re-observing it registers a fresh process.
        let responses = e.tick(&batch);
        assert_eq!(responses[0].state, ProcessState::Suspicious);
    }

    /// Regression: `purged_total` used to be incremented only by `tick`,
    /// so direct `purge_terminated()` calls silently went uncounted and
    /// the doc on the counter lied.
    #[test]
    fn direct_purge_calls_are_counted_too() {
        let mut e = ShardedEngine::new(config(2), 4);
        let batch = vec![(ProcessId(1), Malicious), (ProcessId(2), Benign)];
        // Drive pid 1 to termination via observe_batch (no tick, so
        // nothing is purged yet).
        for _ in 0..3 {
            e.observe_batch(&batch);
        }
        assert_eq!(e.state(ProcessId(1)), Some(ProcessState::Terminated));
        assert_eq!(e.purged_total(), 0);
        assert_eq!(e.purge_terminated(), 1);
        assert_eq!(e.purged_total(), 1);
        // An empty purge adds nothing; a tick-driven purge still counts.
        assert_eq!(e.purge_terminated(), 0);
        assert_eq!(e.purged_total(), 1);
        for _ in 0..3 {
            e.tick(&batch);
        }
        assert_eq!(e.purged_total(), 2);
    }

    /// Regression: the partition scratch used to retain the peak capacity
    /// of the largest batch ever seen for the engine's whole life.
    #[test]
    fn scratch_capacity_returns_to_steady_state_after_an_outlier_batch() {
        let mut e = ShardedEngine::new(config(1_000_000), 4);
        e.set_parallel_threshold(0); // force the partitioned path
        let steady = mixed_batch(64, 0);
        e.observe_batch(&steady);
        let steady_cap = e.scratch_capacity();

        let outlier = mixed_batch(100_000, 0);
        e.observe_batch(&outlier);
        assert!(
            e.scratch_capacity() >= 100_000,
            "outlier batch should grow the scratch ({})",
            e.scratch_capacity()
        );

        // The next steady-state batch shrinks the scratch back: well below
        // the outlier's footprint, within the shrink policy's slack of the
        // steady-state need.
        e.observe_batch(&steady);
        let after = e.scratch_capacity();
        assert!(
            after < 100_000 / 4,
            "scratch stayed near peak after the outlier: {after}"
        );
        assert!(
            after <= steady_cap.max(8 * SCRATCH_MIN_CAPACITY * SCRATCH_SHRINK_FACTOR),
            "scratch did not return to steady state: {after} vs {steady_cap}"
        );
    }

    /// Regression: the inline fast path used to return before any shrink
    /// ran, so in the default configuration (threshold 512, small steady
    /// batches) one forced outlier batch pinned the scratch at its peak
    /// for the engine's life.
    #[test]
    fn inline_fast_path_also_releases_outlier_scratch() {
        let mut e = ShardedEngine::new(config(1_000_000), 4);
        e.set_parallel_threshold(0); // force one partitioned outlier batch
        e.observe_batch(&mixed_batch(100_000, 0));
        assert!(e.scratch_capacity() >= 100_000);

        // Back to the default crossover: the next small batch takes the
        // inline path (it is below the threshold — and on a single-core
        // host would bypass partitioning regardless), which must still
        // release the outlier's scratch.
        e.set_parallel_threshold(DEFAULT_PARALLEL_THRESHOLD);
        e.observe_batch(&mixed_batch(64, 1));
        assert!(
            e.scratch_capacity() < 100_000 / 4,
            "inline path left the outlier scratch pinned: {}",
            e.scratch_capacity()
        );
    }

    #[test]
    fn aggregate_queries_route_to_the_owning_shard() {
        let mut e = ShardedEngine::new(config(50), 8);
        e.observe(ProcessId(3), Malicious);
        e.observe(ProcessId(4), Benign);
        assert_eq!(e.state(ProcessId(3)), Some(ProcessState::Suspicious));
        assert!(e.resources(ProcessId(3)).unwrap().cpu < 1.0);
        assert!(e.threat(ProcessId(4)).unwrap().is_zero());
        assert_eq!(e.tracked(), 2);
        assert_eq!(e.tracked_live(), 2);
        let mut pids: Vec<u64> = e.iter().map(|(pid, _, _)| pid.0).collect();
        pids.sort_unstable();
        assert_eq!(pids, vec![3, 4]);
        e.complete(ProcessId(4)).unwrap();
        assert_eq!(e.tracked_live(), 1);
        e.forget(ProcessId(3));
        assert_eq!(e.tracked(), 1);
        assert!(e.complete(ProcessId(3)).is_err());
    }

    #[test]
    fn with_capacity_pre_sizes_every_shard() {
        let mut e = ShardedEngine::with_capacity(config(1000), 4, 8_192);
        let batch = mixed_batch(8_192, 0);
        let responses = e.observe_batch(&batch);
        assert_eq!(responses.len(), 8_192);
        assert_eq!(e.tracked(), 8_192);
    }

    #[test]
    fn drain_tick_matches_tick() {
        let mut sync = ShardedEngine::new(config(3), 5);
        let mut async_ = ShardedEngine::new(config(3), 5);
        let publisher = async_.enable_ingest(1024, OverflowPolicy::Block);
        for epoch in 0..6 {
            let batch = mixed_batch(50, epoch);
            assert_eq!(publisher.publish_batch(&batch), batch.len());
            let got = async_.drain_tick();
            let want = sync.tick(&batch);
            assert_eq!(got, want, "epoch {epoch}");
        }
        assert_eq!(async_.epoch(), sync.epoch());
        assert_eq!(async_.purged_total(), sync.purged_total());
        let stats = async_.ingest_stats().unwrap();
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.published, stats.drained);
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn drain_on_empty_rings_is_a_no_op_tick() {
        let mut e = ShardedEngine::new(config(3), 4);
        let _publisher = e.enable_ingest(16, OverflowPolicy::Block);
        let responses = e.drain_tick();
        assert!(responses.is_empty());
        assert_eq!(e.epoch(), 1, "the driver still ticks on schedule");
    }

    #[test]
    #[should_panic(expected = "enable_ingest")]
    fn drain_without_ingest_is_a_programming_error() {
        let mut e = ShardedEngine::new(config(3), 4);
        let _ = e.drain_tick();
    }

    /// Re-enabling ingest closes the old rings (their publishers go dead)
    /// without touching engine state; dropping the engine closes too, so
    /// blocked detector threads — binary or fusion members — cannot
    /// outlive it.
    #[test]
    fn re_enabling_and_drop_close_the_old_rings() {
        let mut e = ShardedEngine::new(config(3), 4);
        let first = e.enable_ingest(16, OverflowPolicy::Block);
        assert!(first.publish(ProcessId(1), Malicious));
        let second = e.enable_ingest(16, OverflowPolicy::DropOldest);
        assert!(first.is_closed());
        assert!(!first.publish(ProcessId(2), Malicious));
        assert!(second.publish(ProcessId(3), Malicious));
        assert_eq!(e.drain_tick().len(), 1, "only the live rings drain");
        let verdicts = e.enable_verdict_ingest(16, OverflowPolicy::Block);
        drop(e);
        assert!(second.is_closed());
        assert!(!second.publish(ProcessId(4), Malicious));
        assert!(verdicts.is_closed());
        assert!(!verdicts.publish(ProcessId(5), Verdict::new(0, 1.0)));
    }

    /// The sharded verdict path must agree with a single shard fed the
    /// same batch: same fused responses (modulo
    /// shard grouping), same fusion counters.
    #[test]
    fn verdict_batch_matches_single_shard() {
        let mut sharded = ShardedEngine::new(config(3), 5);
        let mut single = crate::engine::EngineShard::new(config(3));
        for epoch in 0..5u64 {
            let batch: Vec<(ProcessId, Verdict)> = (0..40)
                .flat_map(|pid| {
                    let fast = f64::from(u32::from((pid + epoch) % 3 == 0));
                    let slow = f64::from(u32::from(pid % 5 == 0));
                    [
                        (ProcessId(pid), Verdict::new(0, fast)),
                        (ProcessId(pid), Verdict::new(1, slow).with_cadence(2)),
                    ]
                })
                .collect();
            let mut got = sharded.observe_verdict_batch(&batch);
            let mut want = single.observe_verdict_batch(&batch);
            got.sort_by_key(|r| r.pid.0);
            want.sort_by_key(|r| r.pid.0);
            assert_eq!(got, want, "epoch {epoch}");
        }
        assert_eq!(sharded.fusion_stats(), single.fusion_stats().clone());
        assert_eq!(sharded.fusion_stats().verdicts, 5 * 40 * 2);
    }

    /// Verdicts published over their own rings and drained by the epoch
    /// driver match the synchronous verdict batch path.
    #[test]
    fn verdict_drain_tick_matches_verdict_batch() {
        let mut sync = ShardedEngine::new(config(3), 5);
        let mut async_ = ShardedEngine::new(config(3), 5);
        let publisher = async_.enable_verdict_ingest(1024, OverflowPolicy::Block);
        for epoch in 0..6u64 {
            let batch: Vec<(ProcessId, Verdict)> = (0..50)
                .map(|pid| {
                    let conf = if (pid + epoch) % 7 == 0 { 1.0 } else { 0.25 };
                    (ProcessId(pid), Verdict::new(0, conf))
                })
                .collect();
            assert_eq!(publisher.publish_batch(&batch), batch.len());
            let mut got = async_.drain_tick();
            let mut want = sync.observe_verdict_batch(&batch);
            sync.epoch += 1;
            sync.purge_terminated();
            got.sort_by_key(|r| r.pid.0);
            want.sort_by_key(|r| r.pid.0);
            assert_eq!(got, want, "epoch {epoch}");
        }
        assert_eq!(async_.epoch(), sync.epoch());
        let stats = async_.verdict_ingest_stats().unwrap();
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.published, stats.drained);
    }

    /// Binary and verdict rings drain side by side: one drain serves both,
    /// binary responses first.
    #[test]
    fn dual_ingest_drains_binary_then_verdicts() {
        let mut e = ShardedEngine::new(config(10), 4);
        let binary = e.enable_ingest(64, OverflowPolicy::Block);
        let fused = e.enable_verdict_ingest(64, OverflowPolicy::Block);
        binary.publish(ProcessId(1), Malicious);
        fused.publish(ProcessId(2), Verdict::new(0, 1.0));
        let responses = e.drain_tick();
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].pid, ProcessId(1));
        assert_eq!(responses[1].pid, ProcessId(2));
        assert_eq!(e.fusion_stats().verdicts, 1);
        // Verdict-only ingest also drains (no binary rings required).
        let mut e = ShardedEngine::new(config(10), 4);
        let fused = e.enable_verdict_ingest(64, OverflowPolicy::Block);
        fused.publish(ProcessId(3), Verdict::new(0, 1.0));
        assert_eq!(e.drain_tick().len(), 1);
    }
}
