//! Async detector ingest: bounded per-shard observation queues that
//! decouple detector inference latency from the response tick.
//!
//! The paper's `N*` accounting assumes one observation per process per
//! epoch, but a real detector ensemble (LSTM members, remote scoring
//! services) can take longer than an epoch to produce a verdict — and an
//! epoch driver that calls the detector *synchronously* stalls with it.
//! This module makes the monitor-to-responder handoff a first-class,
//! bounded subsystem: detector threads publish classifications through an
//! [`IngestPublisher`] whenever they finish, and the epoch driver calls
//! [`ShardedEngine::drain_tick`](crate::ShardedEngine::drain_tick) on its
//! own schedule, consuming whatever has arrived. A slow — or wedged —
//! detector can no longer hold the response tier's tick hostage.
//!
//! # Architecture
//!
//! One bounded MPSC ring per engine shard ([`IngestQueues`] owns them all).
//! Publishing routes each observation to the ring of the shard that owns
//! its pid (the same [`mix64`](crate::hash::mix64)-based placement the
//! batch path uses), so draining a shard's ring never crosses shard
//! boundaries.
//!
//! Each accepted observation is stamped with a global sequence number,
//! allocated under the destination ring's lock. Within a ring, sequence
//! numbers are strictly increasing in application order, so a drain can
//! merge the per-shard response lists back into one publish-ordered
//! response batch — which is what makes Block-mode ingest **bit-for-bit
//! equivalent** to the synchronous
//! [`observe_batch`](crate::ShardedEngine::observe_batch) path (pinned by
//! the property tests in `tests/ingest.rs`).
//!
//! # Overflow policies
//!
//! The rings are bounded (`capacity` observations **per shard**) and
//! [`OverflowPolicy`] decides what happens when a publish finds its ring
//! full:
//!
//! * [`OverflowPolicy::Block`] — the publisher waits for the driver's next
//!   drain. Lossless; gives end-to-end backpressure to the detector tier.
//! * [`OverflowPolicy::DropOldest`] — the oldest queued observation is
//!   evicted. The freshest verdicts win; staleness is bounded by the ring
//!   capacity.
//! * [`OverflowPolicy::Coalesce`] — if the full ring already holds an
//!   observation for the same pid, it is overwritten in place with the
//!   newer classification (cyclic monitoring consumes one verdict per
//!   process per epoch, so only the newest matters); otherwise the oldest
//!   entry is evicted as in `DropOldest`.
//!
//! Every lost observation is counted and exposed through
//! [`IngestStats`] — overload is visible, never silent.
//!
//! # Overload defense
//!
//! Bounded rings create their own attack surface: an adversary who can
//! publish benign-looking observations — a compromised ensemble member, a
//! tenant spamming decoy processes — can flood the rings until the
//! overflow policy evicts the *real* verdicts, masking an attack inside
//! the dropped window (a noise-floor DoS on the monitor itself).
//! [`IngestDefense`] hardens the rings with two orthogonal mechanisms:
//!
//! * **Priority lanes** ([`IngestDefense::priority_lane`]): each ring
//!   gains a second lane for pids the engine's own evidence already marks
//!   suspicious, fed back through a shared [`ThreatHints`] handle.
//!   Priority entries are drained first and are never evicted by
//!   normal-lane overflow — once a process is on the escalation ladder,
//!   no flood can silence the verdicts that decide its fate.
//! * **Per-publisher fair queueing** ([`IngestDefense::fair_queueing`]):
//!   every [`IngestPublisher`] handle carries an id, and overflow
//!   evictions are charged to whoever is hogging the ring: a publisher
//!   pushing past its fair share (`capacity / publisher handles`) evicts
//!   its *own* oldest entry, and otherwise the heaviest backlog holder
//!   pays — so one flooding publisher destroys its own decoys, not the
//!   other members' verdicts. Redirected evictions are counted as
//!   [`IngestStats::evictions_deflected`].
//!
//! With the defense enabled but the rings never full, drained results are
//! bit-for-bit identical to the undefended `Block`-mode path (pinned by
//! `tests/ingest.rs`): both mechanisms only act at the overflow boundary.
//!
//! # Examples
//!
//! ```
//! use valkyrie_core::prelude::*;
//! use std::thread;
//!
//! let config = EngineConfig::builder()
//!     .measurements_required(3)
//!     .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
//!     .build()
//!     .unwrap();
//! let mut engine = ShardedEngine::new(config, 4);
//! let publisher = engine.enable_ingest(1024, OverflowPolicy::Block);
//!
//! // A detector thread publishes verdicts at its own pace...
//! let detector = thread::spawn(move || {
//!     for _ in 0..4 {
//!         publisher.publish(ProcessId(7), Classification::Malicious);
//!     }
//! });
//! detector.join().unwrap();
//!
//! // ...and the epoch driver drains whatever has arrived, on schedule.
//! let responses = engine.drain_tick();
//! assert_eq!(responses.len(), 4);
//! assert_eq!(engine.epoch(), 1);
//! ```

use crate::resource::ProcessId;
use crate::telemetry::IngestStats;
use crate::threat::{Classification, Verdict};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// The sub-key [`OverflowPolicy::Coalesce`] merges on, within a pid: two
/// queued entries coalesce only when both the pid *and* this key match.
///
/// Binary [`Classification`]s share a single key — cyclic monitoring
/// consumes one classification per process per epoch, so pid-only
/// coalescing is the faithful semantics. [`Verdict`]s key by their
/// detector id: ensemble members publish independently, and a fast
/// member's verdict must never overwrite a *different* detector's queued
/// verdict for the same pid (the fusion table needs one entry per member,
/// not one per process).
pub trait CoalesceKey: Copy {
    /// The merge sub-key (default: one shared key, pid-only coalescing).
    fn coalesce_key(&self) -> u32 {
        0
    }
}

impl CoalesceKey for Classification {}

impl CoalesceKey for Verdict {
    fn coalesce_key(&self) -> u32 {
        self.detector
    }
}

/// Which pids the engine's evidence table currently marks suspicious —
/// the feedback channel from the response tier to the ingest rings'
/// priority lane.
///
/// Shared (via `Arc`) between a [`ShardedEngine`] and every defended
/// queue set it builds: the engine refreshes the set from its own
/// responses each tick (Suspicious/Terminable pids are marked, pids that
/// return to Normal or terminate are cleared), and publishes for marked
/// pids route into the priority lane that overload can never evict.
///
/// [`ShardedEngine`]: crate::ShardedEngine
#[derive(Debug, Default)]
pub struct ThreatHints {
    hot: RwLock<HashSet<u64>>,
}

impl ThreatHints {
    /// A fresh, empty hint set behind a shared handle.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Whether `pid` is currently marked suspicious.
    pub fn is_hot(&self, pid: ProcessId) -> bool {
        self.hot
            .read()
            .expect("threat hints poisoned")
            .contains(&pid.0)
    }

    /// Marks `pid` suspicious; returns whether it was newly marked.
    pub fn mark(&self, pid: ProcessId) -> bool {
        self.hot
            .write()
            .expect("threat hints poisoned")
            .insert(pid.0)
    }

    /// Clears `pid`'s mark; returns whether it was marked.
    pub fn clear(&self, pid: ProcessId) -> bool {
        self.hot
            .write()
            .expect("threat hints poisoned")
            .remove(&pid.0)
    }

    /// Applies a batch of `(pid, mark)` updates under one lock
    /// acquisition (`true` marks, `false` clears).
    pub fn update(&self, updates: impl IntoIterator<Item = (ProcessId, bool)>) {
        let mut hot = self.hot.write().expect("threat hints poisoned");
        for (pid, mark) in updates {
            if mark {
                hot.insert(pid.0);
            } else {
                hot.remove(&pid.0);
            }
        }
    }

    /// How many pids are currently marked.
    pub fn len(&self) -> usize {
        self.hot.read().expect("threat hints poisoned").len()
    }

    /// Whether no pid is currently marked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Which overload-defense mechanisms a queue set runs with (see the
/// [module docs](self)). The default is everything off — the undefended
/// PR 5 rings, byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestDefense {
    /// Route observations for [`ThreatHints`]-marked pids into a separate
    /// priority lane: drained first, never evicted by normal-lane
    /// overflow.
    pub priority_lane: bool,
    /// Charge overflow evictions to the publisher hogging the ring
    /// instead of whoever queued first.
    pub fair_queueing: bool,
}

impl IngestDefense {
    /// Both mechanisms on — the recommended hardened configuration.
    pub fn full() -> Self {
        Self {
            priority_lane: true,
            fair_queueing: true,
        }
    }

    /// Whether any mechanism is enabled.
    pub fn enabled(&self) -> bool {
        self.priority_lane || self.fair_queueing
    }
}

/// What a full per-shard ring does with the next published observation.
/// See the [module docs](self) for when each policy fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Publishers wait for the next drain: lossless, with backpressure on
    /// the detector tier. The default. (A driver that publishes into its
    /// own engine from the drain thread must size the rings for a full
    /// tick, or it will wait for a drain that can never come.)
    #[default]
    Block,
    /// Evict the oldest queued observation; the freshest verdicts survive.
    DropOldest,
    /// Overwrite the queued observation of the *same pid* with the newer
    /// classification (cyclic monitoring's semantics: one verdict per
    /// process per epoch, newest wins); evict the stalest-stamped entry
    /// when the pid has none queued. A publish into a *full* ring scans it
    /// (O(capacity), under the ring lock) to find the merge target or the
    /// eviction victim — size the rings so overflow is the exception, not
    /// the steady state, and let [`IngestStats::coalesced`] tell you when
    /// it isn't.
    Coalesce,
}

/// One queued observation: the publish-order stamp, the publisher handle
/// it arrived through, and the payload.
#[derive(Debug, Clone, Copy)]
struct QueuedObs<P> {
    seq: u64,
    pid: ProcessId,
    publisher: u32,
    payload: P,
}

/// The lock-protected interior of one shard's ring.
#[derive(Debug)]
struct RingState<P> {
    buf: VecDeque<QueuedObs<P>>,
    /// The priority lane: entries for [`ThreatHints`]-marked pids. Its own
    /// capacity budget; normal-lane overflow can never evict from it.
    prio: VecDeque<QueuedObs<P>>,
    /// Normal-lane entries per publisher id (fair-queueing bookkeeping;
    /// maintained only when the defense runs with fair queueing).
    occupancy: Vec<u32>,
    /// Observations evicted by `DropOldest` (or `Coalesce`'s fallback).
    dropped: u64,
    /// Observations merged into an existing same-(pid, key) entry by
    /// `Coalesce`.
    coalesced: u64,
    /// Observations accepted into the priority lane.
    priority_queued: u64,
    /// Evictions fair queueing redirected away from the naive victim.
    evictions_deflected: u64,
    /// Evictions charged per publisher id.
    dropped_by_pub: Vec<u64>,
}

impl<P> Default for RingState<P> {
    fn default() -> Self {
        Self {
            buf: VecDeque::new(),
            prio: VecDeque::new(),
            occupancy: Vec::new(),
            dropped: 0,
            coalesced: 0,
            priority_queued: 0,
            evictions_deflected: 0,
            dropped_by_pub: Vec::new(),
        }
    }
}

impl<P> RingState<P> {
    /// Books one eviction against `publisher`.
    fn charge_drop(&mut self, publisher: u32) {
        self.dropped += 1;
        let idx = publisher as usize;
        if self.dropped_by_pub.len() <= idx {
            self.dropped_by_pub.resize(idx + 1, 0);
        }
        self.dropped_by_pub[idx] += 1;
    }

    /// Normal-lane entries currently held by `publisher`.
    fn occ(&self, publisher: u32) -> usize {
        self.occupancy.get(publisher as usize).copied().unwrap_or(0) as usize
    }

    fn occ_inc(&mut self, publisher: u32) {
        let idx = publisher as usize;
        if self.occupancy.len() <= idx {
            self.occupancy.resize(idx + 1, 0);
        }
        self.occupancy[idx] += 1;
    }

    fn occ_dec(&mut self, publisher: u32) {
        if let Some(o) = self.occupancy.get_mut(publisher as usize) {
            *o = o.saturating_sub(1);
        }
    }
}

/// One shard's bounded ring: a mutex-backed `VecDeque` plus the condvar
/// `Block`-mode publishers wait on.
#[derive(Debug)]
struct ShardRing<P> {
    state: Mutex<RingState<P>>,
    space: Condvar,
}

impl<P> Default for ShardRing<P> {
    fn default() -> Self {
        Self {
            state: Mutex::new(RingState::default()),
            space: Condvar::new(),
        }
    }
}

/// All of one engine's ingest rings: one bounded MPSC ring per shard,
/// shared (via `Arc`) between the engine and every
/// [`IngestPublisher`] clone.
///
/// Generic over the queued payload: the PR 5 binary path queues
/// [`Classification`]s (the default), the fusion path queues
/// [`Verdict`]s — same rings, same overflow
/// policies, same sequence-stamp merge discipline.
///
/// Constructed by
/// [`ShardedEngine::enable_ingest`](crate::ShardedEngine::enable_ingest);
/// embedders interact with it through the publisher and the engine's
/// drain methods.
#[derive(Debug)]
pub struct IngestQueues<P = Classification> {
    rings: Vec<ShardRing<P>>,
    capacity: usize,
    policy: OverflowPolicy,
    /// The overload-defense configuration (fixed at construction).
    defense: IngestDefense,
    /// The engine-fed suspicious-pid set the priority lane routes on.
    hints: Arc<ThreatHints>,
    /// Global publish-order stamp. Allocated under the destination ring's
    /// lock so per-ring sequences are strictly increasing in application
    /// order (the property the drain merge relies on).
    seq: AtomicU64,
    /// The next publisher id to hand out. Starts at 1: id 0 is reserved
    /// for the engine's driver-side pushes, publisher handles take 1...
    next_publisher: AtomicU32,
    published: AtomicU64,
    drained: AtomicU64,
    /// Set when the owning engine replaces or drops the queue set; wakes
    /// blocked publishers so no detector thread outlives its engine
    /// wedged on a condvar.
    closed: AtomicBool,
}

impl<P> IngestQueues<P> {
    /// Registers a new publisher handle and returns its id.
    pub(crate) fn register_publisher(&self) -> u32 {
        self.next_publisher.fetch_add(1, Ordering::Relaxed)
    }

    /// Publisher handles registered so far (driver-side id 0 excluded).
    fn publisher_handles(&self) -> usize {
        (self.next_publisher.load(Ordering::Relaxed) as usize).saturating_sub(1)
    }

    /// One publisher's fair share of a ring: `capacity / handles`,
    /// never below one entry.
    pub(crate) fn fair_share(&self) -> usize {
        (self.capacity / self.publisher_handles().max(1)).max(1)
    }
}

impl<P: CoalesceKey> IngestQueues<P> {
    /// One ring per shard, each bounded to `capacity` observations, with
    /// the overload defense off.
    ///
    /// # Panics
    ///
    /// Panics if `nshards` or `capacity` is zero.
    #[cfg(test)]
    pub(crate) fn new(nshards: usize, capacity: usize, policy: OverflowPolicy) -> Arc<Self> {
        Self::with_defense(
            nshards,
            capacity,
            policy,
            IngestDefense::default(),
            ThreatHints::new(),
        )
    }

    /// One ring per shard, each bounded to `capacity` observations, with
    /// an explicit defense configuration and the engine-shared
    /// [`ThreatHints`] handle the priority lane routes on.
    ///
    /// # Panics
    ///
    /// Panics if `nshards` or `capacity` is zero.
    pub(crate) fn with_defense(
        nshards: usize,
        capacity: usize,
        policy: OverflowPolicy,
        defense: IngestDefense,
        hints: Arc<ThreatHints>,
    ) -> Arc<Self> {
        assert!(nshards > 0, "ingest needs at least one shard");
        assert!(capacity > 0, "ingest rings need a non-zero capacity");
        Arc::new(Self {
            rings: (0..nshards).map(|_| ShardRing::default()).collect(),
            capacity,
            policy,
            defense,
            hints,
            seq: AtomicU64::new(0),
            next_publisher: AtomicU32::new(1),
            published: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        })
    }

    /// Ring capacity, in observations **per shard, per lane**.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured overflow policy.
    pub fn policy(&self) -> OverflowPolicy {
        self.policy
    }

    /// The overload-defense configuration.
    pub fn defense(&self) -> IngestDefense {
        self.defense
    }

    /// Number of per-shard rings.
    pub(crate) fn shards(&self) -> usize {
        self.rings.len()
    }

    /// Publishes one observation from publisher `publisher` to shard
    /// `shard`'s ring, applying the overflow policy if the destination
    /// lane is full. Returns `false` (observation discarded) only when
    /// the queue set has been closed.
    pub(crate) fn push(&self, publisher: u32, shard: usize, pid: ProcessId, payload: P) -> bool {
        let ring = &self.rings[shard];
        let mut state = ring.state.lock().expect("ingest ring poisoned");
        // A closed queue rejects the publish before any overflow
        // handling: an eviction on behalf of an observation that is about
        // to be discarded anyway would destroy queued data for nothing.
        if self.closed.load(Ordering::Acquire) {
            return false;
        }
        if self.defense.priority_lane && self.hints.is_hot(pid) {
            return self.push_priority(ring, state, publisher, pid, payload);
        }
        if state.buf.len() >= self.capacity {
            match self.policy {
                OverflowPolicy::Block => {
                    while state.buf.len() >= self.capacity && !self.closed.load(Ordering::Acquire) {
                        state = ring.space.wait(state).expect("ingest ring poisoned");
                    }
                }
                OverflowPolicy::DropOldest => {
                    self.evict_normal(&mut state, publisher, false);
                }
                OverflowPolicy::Coalesce => {
                    let key = payload.coalesce_key();
                    if let Some(i) = state
                        .buf
                        .iter()
                        .rposition(|o| o.pid == pid && o.payload.coalesce_key() == key)
                    {
                        // Same (pid, key) already queued: keep its queue
                        // position, take the newer verdict, publish-order
                        // stamp and publisher attribution.
                        let prev = state.buf[i].publisher;
                        state.buf[i].seq = self.seq.fetch_add(1, Ordering::Relaxed);
                        state.buf[i].payload = payload;
                        state.buf[i].publisher = publisher;
                        if self.defense.fair_queueing && prev != publisher {
                            state.occ_dec(prev);
                            state.occ_inc(publisher);
                        }
                        state.coalesced += 1;
                        self.published.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    // No entry to merge into: evict the stalest *verdict*
                    // (minimum stamp — coalescing restamps entries in
                    // place, so the front of the ring is not necessarily
                    // the oldest observation).
                    self.evict_normal(&mut state, publisher, true);
                }
            }
        }
        if self.closed.load(Ordering::Acquire) {
            return false;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if self.defense.fair_queueing {
            state.occ_inc(publisher);
        }
        state.buf.push_back(QueuedObs {
            seq,
            pid,
            publisher,
            payload,
        });
        self.published.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The priority-lane half of [`Self::push`]: its own capacity budget
    /// and overflow handling, entirely insulated from the normal lane —
    /// when *it* overflows (suspicious pids alone exceed a ring), the
    /// policy applies within the lane, so even then a flood of normal
    /// traffic cannot be the cause.
    fn push_priority(
        &self,
        ring: &ShardRing<P>,
        mut state: std::sync::MutexGuard<'_, RingState<P>>,
        publisher: u32,
        pid: ProcessId,
        payload: P,
    ) -> bool {
        if state.prio.len() >= self.capacity {
            match self.policy {
                OverflowPolicy::Block => {
                    while state.prio.len() >= self.capacity && !self.closed.load(Ordering::Acquire)
                    {
                        state = ring.space.wait(state).expect("ingest ring poisoned");
                    }
                }
                OverflowPolicy::DropOldest => {
                    if let Some(victim) = state.prio.pop_front() {
                        state.charge_drop(victim.publisher);
                    }
                }
                OverflowPolicy::Coalesce => {
                    let key = payload.coalesce_key();
                    if let Some(i) = state
                        .prio
                        .iter()
                        .rposition(|o| o.pid == pid && o.payload.coalesce_key() == key)
                    {
                        state.prio[i].seq = self.seq.fetch_add(1, Ordering::Relaxed);
                        state.prio[i].payload = payload;
                        state.prio[i].publisher = publisher;
                        state.coalesced += 1;
                        state.priority_queued += 1;
                        self.published.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    if let Some(stalest) = (0..state.prio.len()).min_by_key(|&i| state.prio[i].seq)
                    {
                        if let Some(victim) = state.prio.remove(stalest) {
                            state.charge_drop(victim.publisher);
                        }
                    }
                }
            }
        }
        if self.closed.load(Ordering::Acquire) {
            return false;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        state.prio.push_back(QueuedObs {
            seq,
            pid,
            publisher,
            payload,
        });
        state.priority_queued += 1;
        self.published.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Evicts one normal-lane entry to make room. The naive victim is the
    /// front (`DropOldest`) or the minimum-stamp entry (`Coalesce`'s
    /// fallback, `stalest`); with fair queueing the eviction is instead
    /// charged to `pusher` itself once it holds its fair share, and
    /// otherwise to the heaviest backlog holder — redirections away from
    /// the naive victim's publisher are counted as deflected.
    fn evict_normal(&self, state: &mut RingState<P>, pusher: u32, stalest: bool) {
        let naive = if stalest {
            (0..state.buf.len()).min_by_key(|&i| state.buf[i].seq)
        } else if state.buf.is_empty() {
            None
        } else {
            Some(0)
        };
        let Some(naive) = naive else { return };
        let mut idx = naive;
        if self.defense.fair_queueing {
            let victim_pub = if state.occ(pusher) >= self.fair_share() {
                pusher
            } else {
                // The heaviest normal-lane backlog holder pays; ties go
                // to the lowest id, deterministically.
                let mut heaviest = state.buf[naive].publisher;
                let mut max_occ = 0;
                for p in 0..state.occupancy.len() as u32 {
                    if state.occ(p) > max_occ {
                        heaviest = p;
                        max_occ = state.occ(p);
                    }
                }
                heaviest
            };
            let owned = if stalest {
                (0..state.buf.len())
                    .filter(|&i| state.buf[i].publisher == victim_pub)
                    .min_by_key(|&i| state.buf[i].seq)
            } else {
                (0..state.buf.len()).find(|&i| state.buf[i].publisher == victim_pub)
            };
            if let Some(i) = owned {
                if state.buf[naive].publisher != victim_pub {
                    state.evictions_deflected += 1;
                }
                idx = i;
            }
        }
        if let Some(victim) = state.buf.remove(idx) {
            if self.defense.fair_queueing {
                state.occ_dec(victim.publisher);
            }
            state.charge_drop(victim.publisher);
        }
    }

    /// Empties shard `shard`'s ring into `work`/`seqs` (appending, aligned
    /// index-for-index; priority lane first) and wakes any publishers
    /// blocked on it.
    pub(crate) fn drain_shard_into(
        &self,
        shard: usize,
        work: &mut Vec<(ProcessId, P)>,
        seqs: &mut Vec<u64>,
    ) {
        let ring = &self.rings[shard];
        let mut state = ring.state.lock().expect("ingest ring poisoned");
        let n = state.prio.len() + state.buf.len();
        work.reserve(n);
        seqs.reserve(n);
        for obs in state.prio.drain(..) {
            work.push((obs.pid, obs.payload));
            seqs.push(obs.seq);
        }
        for obs in state.buf.drain(..) {
            work.push((obs.pid, obs.payload));
            seqs.push(obs.seq);
        }
        state.occupancy.clear();
        drop(state);
        if n > 0 {
            self.drained.fetch_add(n as u64, Ordering::Relaxed);
        }
        ring.space.notify_all();
    }

    /// Marks the queue set closed and wakes every blocked publisher.
    /// Publishes after this return `false` and discard the observation.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        for ring in &self.rings {
            // Acquiring the lock orders the store before any waiter's
            // re-check; without it a publisher could re-sleep forever.
            drop(ring.state.lock().expect("ingest ring poisoned"));
            ring.space.notify_all();
        }
    }

    /// Whether the owning engine has closed (or replaced) this queue set.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// A consistent-enough snapshot of the ingest counters. Per-ring
    /// counters are read one lock at a time, so concurrent publishes can
    /// skew sums by in-flight observations — fine for telemetry, which is
    /// what this is for.
    pub fn stats(&self) -> IngestStats {
        let mut stats = IngestStats {
            published: self.published.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            ..IngestStats::default()
        };
        for ring in &self.rings {
            let state = ring.state.lock().expect("ingest ring poisoned");
            stats.dropped += state.dropped;
            stats.coalesced += state.coalesced;
            stats.queued += state.buf.len() + state.prio.len();
            stats.priority_queued += state.priority_queued;
            stats.evictions_deflected += state.evictions_deflected;
            if stats.dropped_by_publisher.len() < state.dropped_by_pub.len() {
                stats
                    .dropped_by_publisher
                    .resize(state.dropped_by_pub.len(), 0);
            }
            for (acc, n) in stats
                .dropped_by_publisher
                .iter_mut()
                .zip(&state.dropped_by_pub)
            {
                *acc += n;
            }
        }
        stats
    }
}

/// A cloneable, `Send + Sync` handle detector threads use to publish
/// observations into an engine's ingest rings — binary
/// [`Classification`]s by default, [`Verdict`]s
/// on the fusion path (each ensemble member clones its own publisher and
/// publishes at its own cadence).
///
/// Routing is by pid hash (identical to the batch path's shard placement),
/// so concurrent publishers only contend when their pids share a shard.
/// Obtain one from
/// [`ShardedEngine::enable_ingest`](crate::ShardedEngine::enable_ingest)
/// or [`ShardedEngine::publisher`](crate::ShardedEngine::publisher).
#[derive(Debug)]
pub struct IngestPublisher<P = Classification> {
    queues: Arc<IngestQueues<P>>,
    /// This handle's fair-queueing identity. Every clone registers a
    /// fresh id, so each detector thread (or tenant) holding its own
    /// handle is its own accounting unit.
    id: u32,
}

impl<P> Clone for IngestPublisher<P> {
    fn clone(&self) -> Self {
        Self {
            id: self.queues.register_publisher(),
            queues: Arc::clone(&self.queues),
        }
    }
}

impl<P: CoalesceKey> IngestPublisher<P> {
    pub(crate) fn new(queues: Arc<IngestQueues<P>>) -> Self {
        Self {
            id: queues.register_publisher(),
            queues,
        }
    }

    /// This handle's publisher id (indexes
    /// [`IngestStats::dropped_by_publisher`]).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Publishes one observation for `pid`. With
    /// [`OverflowPolicy::Block`] this waits while the owning shard's ring
    /// is full. Returns `false` — and discards the observation — only when
    /// the engine has closed or replaced its ingest queues.
    pub fn publish(&self, pid: ProcessId, payload: P) -> bool {
        let shard = crate::hash::shard_of(pid.0, self.queues.shards());
        self.queues.push(self.id, shard, pid, payload)
    }

    /// Publishes a batch in order. Returns how many observations were
    /// accepted (all of them unless the queues were closed mid-batch).
    pub fn publish_batch(&self, batch: &[(ProcessId, P)]) -> usize {
        let mut accepted = 0;
        for &(pid, payload) in batch {
            if self.publish(pid, payload) {
                accepted += 1;
            }
        }
        accepted
    }

    /// The current ingest counters (shared with the engine's
    /// [`ingest_stats`](crate::ShardedEngine::ingest_stats)).
    pub fn stats(&self) -> IngestStats {
        self.queues.stats()
    }

    /// Whether the engine has closed these queues (publishes are no-ops).
    pub fn is_closed(&self) -> bool {
        self.queues.is_closed()
    }
}

/// Merges per-shard drained responses back into publish order: `seqs[s]`
/// stamps `results[s]` index-for-index, sequence numbers are globally
/// unique, and within a shard they ascend in application order — so the
/// sort reconstructs one valid global serialization (for a single
/// publisher: exactly its publish order).
pub(crate) fn merge_by_seq(
    seqs: &[Vec<u64>],
    results: Vec<Vec<crate::engine::EngineResponse>>,
) -> Vec<crate::engine::EngineResponse> {
    let total = seqs.iter().map(Vec::len).sum();
    let mut stamped: Vec<(u64, crate::engine::EngineResponse)> = Vec::with_capacity(total);
    for (shard_seqs, shard_responses) in seqs.iter().zip(results) {
        debug_assert_eq!(shard_seqs.len(), shard_responses.len());
        stamped.extend(shard_seqs.iter().copied().zip(shard_responses));
    }
    stamped.sort_unstable_by_key(|&(seq, _)| seq);
    stamped.into_iter().map(|(_, response)| response).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use Classification::{Benign, Malicious};

    fn drain_all(queues: &IngestQueues) -> Vec<(u64, ProcessId, Classification)> {
        let mut out = Vec::new();
        for shard in 0..queues.shards() {
            let mut work = Vec::new();
            let mut seqs = Vec::new();
            queues.drain_shard_into(shard, &mut work, &mut seqs);
            out.extend(
                seqs.into_iter()
                    .zip(work)
                    .map(|(seq, (pid, cls))| (seq, pid, cls)),
            );
        }
        out.sort_unstable_by_key(|&(seq, _, _)| seq);
        out
    }

    #[test]
    #[should_panic(expected = "non-zero capacity")]
    fn zero_capacity_is_rejected() {
        let _ = IngestQueues::<Classification>::new(4, 0, OverflowPolicy::Block);
    }

    #[test]
    fn publish_then_drain_round_trips_in_order() {
        let queues = IngestQueues::new(4, 16, OverflowPolicy::Block);
        let publisher = IngestPublisher::new(queues.clone());
        let batch: Vec<(ProcessId, Classification)> = (0..10)
            .map(|i| (ProcessId(i), if i % 2 == 0 { Malicious } else { Benign }))
            .collect();
        assert_eq!(publisher.publish_batch(&batch), 10);
        let drained = drain_all(&queues);
        let got: Vec<(ProcessId, Classification)> = drained
            .into_iter()
            .map(|(_, pid, cls)| (pid, cls))
            .collect();
        assert_eq!(got, batch, "seq order must reconstruct publish order");
        let stats = queues.stats();
        assert_eq!(stats.published, 10);
        assert_eq!(stats.drained, 10);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.queued, 0);
    }

    /// `DropOldest` under a full ring: the oldest observation goes, the
    /// newest survives, and the loss is counted.
    #[test]
    fn drop_oldest_evicts_the_front_and_counts_it() {
        // One shard so every pid shares the ring.
        let queues = IngestQueues::new(1, 3, OverflowPolicy::DropOldest);
        let publisher = IngestPublisher::new(queues.clone());
        for pid in 0..5u64 {
            assert!(publisher.publish(ProcessId(pid), Malicious));
        }
        let stats = queues.stats();
        assert_eq!(stats.published, 5);
        assert_eq!(stats.dropped, 2);
        assert_eq!(stats.queued, 3);
        let drained = drain_all(&queues);
        let pids: Vec<u64> = drained.iter().map(|&(_, pid, _)| pid.0).collect();
        assert_eq!(pids, vec![2, 3, 4], "oldest two were evicted");
    }

    /// `Coalesce` under a full ring keeps exactly the newest verdict per
    /// pid: a same-pid publish overwrites in place, a fresh pid falls back
    /// to evicting the oldest entry.
    #[test]
    fn coalesce_keeps_the_newest_verdict_per_pid() {
        let queues = IngestQueues::new(1, 2, OverflowPolicy::Coalesce);
        let publisher = IngestPublisher::new(queues.clone());
        assert!(publisher.publish(ProcessId(1), Malicious));
        assert!(publisher.publish(ProcessId(2), Malicious));
        // Ring full: same-pid publish coalesces (newer verdict wins) and
        // drops nothing.
        assert!(publisher.publish(ProcessId(1), Benign));
        let stats = queues.stats();
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.queued, 2);
        // Ring still full: a fresh pid evicts the oldest entry instead.
        assert!(publisher.publish(ProcessId(3), Malicious));
        let stats = queues.stats();
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.queued, 2);

        let drained = drain_all(&queues);
        let got: Vec<(u64, Classification)> =
            drained.iter().map(|&(_, pid, cls)| (pid.0, cls)).collect();
        // Pid 1 kept exactly one entry, holding the newest verdict; pid 2
        // (the oldest) was evicted for pid 3.
        assert_eq!(got.len(), 2);
        assert!(got.contains(&(1, Benign)));
        assert!(got.contains(&(3, Malicious)));
    }

    /// Coalescing stamps the overwritten slot with the newer sequence
    /// number, so a merged drain reports the entry at its newest publish
    /// position.
    #[test]
    fn coalesce_takes_the_newer_sequence_stamp() {
        let queues = IngestQueues::new(1, 2, OverflowPolicy::Coalesce);
        let publisher = IngestPublisher::new(queues.clone());
        publisher.publish(ProcessId(1), Malicious); // seq 0
        publisher.publish(ProcessId(2), Malicious); // seq 1
        publisher.publish(ProcessId(1), Benign); // coalesced, seq 2
        let drained = drain_all(&queues);
        assert_eq!(drained.len(), 2);
        // Sorted by seq: pid 2 (seq 1) now precedes pid 1 (restamped 2).
        assert_eq!(drained[0].1, ProcessId(2));
        assert_eq!(drained[1].1, ProcessId(1));
        assert_eq!(drained[1].2, Benign);
    }

    #[test]
    fn blocked_publisher_resumes_after_a_drain() {
        let queues = IngestQueues::new(1, 2, OverflowPolicy::Block);
        let publisher = IngestPublisher::new(queues.clone());
        publisher.publish(ProcessId(1), Malicious);
        publisher.publish(ProcessId(2), Malicious);
        // A third publish must block until the drain below frees space.
        let blocked = {
            let publisher = publisher.clone();
            std::thread::spawn(move || publisher.publish(ProcessId(3), Malicious))
        };
        // Parking on the condvar is not observable from outside; give the
        // publisher a real window to reach the wait so the drain below
        // exercises the wakeup path (the test is correct either way — the
        // drain loop keeps going until the third observation lands).
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut work = Vec::new();
        let mut seqs = Vec::new();
        // Drain until the blocked observation lands (the drain that frees
        // the space races the wakeup, so one drain may see only the first
        // two entries).
        let mut drained = 0;
        while drained < 3 {
            queues.drain_shard_into(0, &mut work, &mut seqs);
            drained = work.len();
            std::thread::yield_now();
        }
        assert!(blocked.join().unwrap());
        assert_eq!(queues.stats().dropped, 0, "Block never loses data");
    }

    #[test]
    fn close_wakes_blocked_publishers_and_rejects_new_ones() {
        let queues = IngestQueues::new(1, 1, OverflowPolicy::Block);
        let publisher = IngestPublisher::new(queues.clone());
        assert!(publisher.publish(ProcessId(1), Malicious));
        let blocked = {
            let publisher = publisher.clone();
            std::thread::spawn(move || publisher.publish(ProcessId(2), Malicious))
        };
        // Give the publisher a real window to park on the condvar, so the
        // close below exercises the wakeup (not just the early-return)
        // path; either way the publish must come back `false`.
        std::thread::sleep(std::time::Duration::from_millis(20));
        queues.close();
        assert!(!blocked.join().unwrap(), "closed queues reject publishes");
        assert!(!publisher.publish(ProcessId(3), Malicious));
        assert!(publisher.is_closed());
        assert_eq!(queues.stats().queued, 1, "already-queued data survives");
    }

    /// Regression (PR 9): a publish against a closed queue must be
    /// rejected *before* overflow handling runs — previously `DropOldest`
    /// / `Coalesce` would evict a queued observation on behalf of a
    /// publish that was about to be discarded anyway.
    #[test]
    fn closed_queue_publish_never_evicts_queued_data() {
        for policy in [OverflowPolicy::DropOldest, OverflowPolicy::Coalesce] {
            let queues = IngestQueues::new(1, 1, policy);
            let publisher = IngestPublisher::new(queues.clone());
            assert!(publisher.publish(ProcessId(1), Malicious));
            queues.close();
            assert!(!publisher.publish(ProcessId(2), Benign));
            let stats = queues.stats();
            assert_eq!(stats.dropped, 0, "{policy:?}: closed publish evicted");
            assert_eq!(stats.queued, 1, "{policy:?}: queued data destroyed");
            let drained = drain_all(&queues);
            assert_eq!(drained.len(), 1);
            assert_eq!(drained[0].1, ProcessId(1));
            assert_eq!(drained[0].2, Malicious);
        }
    }

    /// Regression (PR 9): verdict coalescing keys by (pid, detector) — a
    /// fast member's verdict must merge with its *own* queued verdict, not
    /// overwrite a different detector's entry for the same pid.
    #[test]
    fn verdict_coalesce_keys_by_pid_and_detector() {
        let queues = IngestQueues::<Verdict>::new(1, 2, OverflowPolicy::Coalesce);
        let member_a = IngestPublisher::new(queues.clone());
        let member_b = member_a.clone();
        let pid = ProcessId(7);
        assert!(member_a.publish(pid, Verdict::new(0, 0.2)));
        assert!(member_b.publish(pid, Verdict::new(1, 0.9)));
        // Ring full; detector 0 publishes again for the same pid. It must
        // coalesce with the detector-0 entry and leave detector 1 queued.
        assert!(member_a.publish(pid, Verdict::new(0, 0.8)));
        let stats = queues.stats();
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.dropped, 0, "detector 1's verdict was destroyed");

        let mut work = Vec::new();
        let mut seqs = Vec::new();
        queues.drain_shard_into(0, &mut work, &mut seqs);
        let mut got: Vec<(u32, f64)> = work
            .iter()
            .map(|&(_, v)| (v.detector, v.confidence))
            .collect();
        got.sort_by_key(|a| a.0);
        assert_eq!(got, vec![(0, 0.8), (1, 0.9)]);
    }

    /// Fair queueing charges overflow to the hog: a publisher past its
    /// fair share evicts its own backlog, and the redirect away from the
    /// naive (front-of-ring) victim is counted.
    #[test]
    fn fair_queueing_makes_the_flooding_publisher_pay() {
        let defense = IngestDefense {
            priority_lane: false,
            fair_queueing: true,
        };
        let queues = IngestQueues::with_defense(
            1,
            4,
            OverflowPolicy::DropOldest,
            defense,
            ThreatHints::new(),
        );
        let legit = IngestPublisher::new(queues.clone());
        let flooder = legit.clone();
        // Two handles share the ring: fair share = 4 / 2 = 2 entries.
        assert!(legit.publish(ProcessId(1), Malicious));
        assert!(legit.publish(ProcessId(2), Malicious));
        assert!(flooder.publish(ProcessId(3), Benign));
        assert!(flooder.publish(ProcessId(4), Benign));
        // Ring full. Without the defense this would evict pid 1 (the
        // front, legit's oldest). With fair queueing the flooder is at its
        // share, so it evicts its own oldest instead.
        assert!(flooder.publish(ProcessId(5), Benign));
        let stats = queues.stats();
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.evictions_deflected, 1);
        assert_eq!(
            stats.dropped_by_publisher.get(flooder.id() as usize),
            Some(&1),
            "the eviction is charged to the flooder"
        );
        let drained = drain_all(&queues);
        let pids: Vec<u64> = drained.iter().map(|&(_, pid, _)| pid.0).collect();
        assert_eq!(pids, vec![1, 2, 4, 5], "legit's backlog survived intact");
    }

    /// The priority lane shields hint-marked pids: a normal-lane flood
    /// can evict everything in its own lane but never touches the
    /// suspicious pid's queued verdicts, and they drain first.
    #[test]
    fn priority_lane_is_immune_to_normal_lane_overflow() {
        let hints = ThreatHints::new();
        let defense = IngestDefense {
            priority_lane: true,
            fair_queueing: false,
        };
        let queues = IngestQueues::with_defense(
            1,
            2,
            OverflowPolicy::DropOldest,
            defense,
            Arc::clone(&hints),
        );
        let publisher = IngestPublisher::new(queues.clone());
        let suspect = ProcessId(7);
        assert!(hints.mark(suspect));
        assert!(publisher.publish(suspect, Malicious));
        // Flood the normal lane far past capacity.
        for pid in 100..110u64 {
            assert!(publisher.publish(ProcessId(pid), Benign));
        }
        let stats = queues.stats();
        assert_eq!(stats.priority_queued, 1);
        assert_eq!(stats.dropped, 8, "flood evicted only normal-lane entries");
        assert_eq!(stats.queued, 3);

        let mut work = Vec::new();
        let mut seqs = Vec::new();
        queues.drain_shard_into(0, &mut work, &mut seqs);
        assert_eq!(work[0].0, suspect, "priority lane drains first");
        assert!(work.iter().filter(|&&(pid, _)| pid == suspect).count() == 1);

        // Cleared pids fall back to the normal lane.
        assert!(hints.clear(suspect));
        assert!(!hints.is_hot(suspect));
        assert!(publisher.publish(suspect, Malicious));
        assert_eq!(queues.stats().priority_queued, 1, "no longer prioritized");
    }

    #[test]
    fn threat_hints_update_marks_and_clears_in_one_pass() {
        let hints = ThreatHints::new();
        hints.update([
            (ProcessId(1), true),
            (ProcessId(2), true),
            (ProcessId(1), false),
        ]);
        assert!(!hints.is_hot(ProcessId(1)));
        assert!(hints.is_hot(ProcessId(2)));
        assert_eq!(hints.len(), 1);
        assert!(!hints.is_empty());
    }

    #[test]
    fn concurrent_publishers_deliver_everything() {
        let queues = IngestQueues::new(4, 4096, OverflowPolicy::Block);
        let publisher = IngestPublisher::new(queues.clone());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let publisher = publisher.clone();
                std::thread::spawn(move || {
                    for i in 0..256u64 {
                        assert!(publisher.publish(ProcessId(t * 1000 + i), Benign));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let drained = drain_all(&queues);
        assert_eq!(drained.len(), 4 * 256);
        // Sequence stamps are unique.
        let mut seqs: Vec<u64> = drained.iter().map(|&(seq, _, _)| seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 4 * 256);
    }
}
