//! `tenant_fused` and `tenant_flood`: one multi-tenant machine on a
//! `ShardedEngine` with sequential pids, fed through the ingest rings and
//! answered by `drain_tick`.
//!
//! The loop is `experiments::multi_tenant::run` cut at its calls into the
//! engine: detector draws (and decoys) first, then `publish_batch`,
//! `drain_tick`, crediting, and `complete` for finished services. Draws use
//! the same RNG stream in the same order and the rings see the same
//! per-process order, so for one seed the outcome equals that
//! experiment's (checked by [`parity`]).

use crate::check::{check_response, mean_epochs_to_kill, Outcome, PidTrack, Slowdown};
use crate::scenario::{PassCounters, Scenario, StepStats};
use crate::trace::{EpochClock, Layer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use valkyrie_core::hash::jitter64;
use valkyrie_core::{
    Action, AssessmentFn, Classification, EngineConfig, EngineResponse, EscalationLadder,
    ExecutionMode, FusionConfig, IngestDefense, IngestPublisher, IngestStats, OverflowPolicy,
    ProcessId, ProcessState, ShardedEngine, ShareActuator, Verdict,
};
use valkyrie_experiments::multi_tenant::{
    self, AsyncIngest, FloodTier, FusionTier, MultiTenantConfig,
};
use valkyrie_workloads::{fleet_roster, NoiseFlood};

/// 100k benign services and 96 staggered attacks; a fast-weak member
/// (TPR 0.70, every epoch) fused with a slow-strong one (every 4th). Fused
/// kills spread over several measurement cycles, so the mean epochs to
/// kill needs this many attacks to change little between seeds.
pub fn fused_config(seed: u64) -> MultiTenantConfig {
    let benign_procs = 100_000;
    let attacks = 96;
    MultiTenantConfig {
        benign_procs,
        attacks,
        epochs: 140,
        n_star: 30,
        shards: 2,
        tpr: 0.70,
        seed,
        execution: ExecutionMode::ScopedSpawn,
        ingest: None,
        fusion: Some(FusionTier {
            // One epoch publishes at most two verdicts per process; rings
            // that hold them all never block the thread that drains them.
            capacity: 2 * (benign_procs + attacks),
            ..FusionTier::default()
        }),
        flood: None,
        ..MultiTenantConfig::default()
    }
}

/// The noise-flood shape: 32k services on 32 shards (~1k legitimate
/// verdicts per shard per epoch) into 1024-slot `DropOldest` rings, with a
/// 1152-per-shard decoy flood aimed at the attack pids' shards and the full
/// overload defense on.
pub fn flood_config(seed: u64) -> MultiTenantConfig {
    MultiTenantConfig {
        benign_procs: 32_000,
        attacks: 24,
        epochs: 140,
        n_star: 30,
        shards: 32,
        seed,
        execution: ExecutionMode::ScopedSpawn,
        ingest: Some(AsyncIngest {
            capacity: 1024,
            policy: OverflowPolicy::DropOldest,
            ..AsyncIngest::default()
        }),
        fusion: None,
        flood: Some(FloodTier {
            defense: IngestDefense::full(),
            ..FloodTier::default()
        }),
        ..MultiTenantConfig::default()
    }
}

struct BenignProc {
    lifetime: u64,
    burst_prob: f64,
    cpu_share_sum: f64,
    epochs_run: u64,
    killed: bool,
    completed: bool,
    state: Option<ProcessState>,
}

struct AttackProc {
    arrival: u64,
    killed_at: Option<u64>,
    state: Option<ProcessState>,
}

/// The fused detector pair: one publisher handle per member.
struct Fused {
    tier: FusionTier,
    fast_pub: IngestPublisher<Verdict>,
    slow_pub: IngestPublisher<Verdict>,
    fast: Vec<(ProcessId, Verdict)>,
    slow: Vec<(ProcessId, Verdict)>,
}

/// The async binary detector tier under a noise flood.
struct Flood {
    ingest: AsyncIngest,
    publisher: IngestPublisher,
    flood_pub: IngestPublisher,
    flood: NoiseFlood,
    /// Publications due per epoch, indexed by target epoch modulo length.
    pending: Vec<Vec<ProcessId>>,
    next_pub: Vec<u64>,
    legit: Vec<(ProcessId, Classification)>,
    decoys: Vec<(ProcessId, Classification)>,
}

enum Tier {
    Fused(Fused),
    Flood(Flood),
}

pub struct TenantScenario {
    cfg: MultiTenantConfig,
    engine: ShardedEngine,
    rng: StdRng,
    benign: Vec<BenignProc>,
    attacks: Vec<AttackProc>,
    /// Response-stream check state, indexed by pid.
    tracks: Vec<PidTrack>,
    tier: Tier,
    measured: Vec<ProcessId>,
    completes: Vec<ProcessId>,
    counters: PassCounters,
    legit_published: u64,
    legit_drained: u64,
}

impl TenantScenario {
    pub fn new(cfg: MultiTenantConfig) -> Self {
        let mut builder = EngineConfig::builder()
            .measurements_required(cfg.n_star)
            .penalty(AssessmentFn::incremental())
            .compensation(AssessmentFn::incremental())
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .cyclic(true);
        if let Some(ft) = cfg.fusion {
            builder = builder.fusion(FusionConfig {
                weights: vec![ft.fast_weight, ft.slow_weight],
                default_weight: 1.0,
                stale_decay: ft.stale_decay,
                ladder: EscalationLadder::graduated(),
            });
        }
        let config = builder.build().expect("valid multi-tenant config");
        let procs = cfg.benign_procs + cfg.attacks;
        let mut engine = ShardedEngine::with_mode(config, cfg.shards, procs, cfg.execution);
        // Every drain runs on the caller's thread (see `fleet`).
        engine.set_parallel_threshold(usize::MAX);

        let benign = fleet_roster(cfg.benign_procs)
            .into_iter()
            .map(|spec| BenignProc {
                lifetime: spec.epochs_to_complete,
                burst_prob: spec.burst_prob,
                cpu_share_sum: 0.0,
                epochs_run: 0,
                killed: false,
                completed: false,
                state: None,
            })
            .collect();
        let attacks: Vec<AttackProc> = (0..cfg.attacks)
            .map(|j| AttackProc {
                arrival: (j as u64 * cfg.epochs / 2) / cfg.attacks as u64,
                killed_at: None,
                state: None,
            })
            .collect();

        let tier = match (cfg.fusion, cfg.ingest, cfg.flood) {
            (Some(tier), None, None) => {
                let fast_pub = engine.enable_verdict_ingest(tier.capacity, OverflowPolicy::Block);
                let slow_pub = engine
                    .verdict_publisher()
                    .expect("verdict ingest just enabled");
                Tier::Fused(Fused {
                    tier,
                    fast_pub,
                    slow_pub,
                    fast: Vec::with_capacity(procs),
                    slow: Vec::with_capacity(procs),
                })
            }
            (None, Some(ingest), Some(ft)) => {
                let publisher =
                    engine.enable_ingest_defended(ingest.capacity, ingest.policy, ft.defense);
                let attack_pids: Vec<ProcessId> = (0..cfg.attacks)
                    .map(|j| ProcessId((cfg.benign_procs + j) as u64))
                    .collect();
                let flood = NoiseFlood::masking(cfg.seed ^ 0xF100D, cfg.shards, &attack_pids)
                    .with_rate(ft.rate)
                    .with_burst(ft.burst, ft.burst_period)
                    .with_churn(ft.churn);
                Tier::Flood(Flood {
                    ingest,
                    flood_pub: publisher.clone(),
                    publisher,
                    flood,
                    pending: vec![Vec::new(); (ingest.delay + ingest.jitter + 1) as usize],
                    next_pub: vec![0; procs],
                    legit: Vec::with_capacity(procs),
                    decoys: Vec::new(),
                })
            }
            _ => panic!("a tenant workload is either fused or flooded"),
        };

        Self {
            rng: StdRng::seed_from_u64(cfg.seed),
            engine,
            benign,
            attacks,
            tracks: vec![PidTrack::default(); procs],
            tier,
            measured: Vec::with_capacity(procs),
            completes: Vec::new(),
            counters: PassCounters::default(),
            legit_published: 0,
            legit_drained: 0,
            cfg,
        }
    }

    /// Detector draws (and decoys) for `epoch`, in `multi_tenant`'s RNG
    /// order; fills the publish batches.
    fn generate(&mut self, epoch: u64) {
        let Self {
            cfg,
            rng,
            benign,
            attacks,
            tier,
            measured,
            ..
        } = self;
        let nb = benign.len();
        measured.clear();
        for (i, p) in benign.iter().enumerate() {
            if !p.killed && !p.completed {
                measured.push(ProcessId(i as u64));
            }
        }
        for (j, a) in attacks.iter().enumerate() {
            if a.killed_at.is_none() && epoch >= a.arrival {
                measured.push(ProcessId((nb + j) as u64));
            }
        }
        match tier {
            Tier::Fused(f) => {
                f.fast.clear();
                f.slow.clear();
                let slow_window = epoch.is_multiple_of(u64::from(f.tier.slow_cadence.max(1)));
                for &pid in measured.iter() {
                    let idx = pid.0 as usize;
                    let fast_prob = if idx < nb {
                        benign[idx].burst_prob
                    } else {
                        cfg.tpr
                    };
                    let fast_conf = if rng.gen::<f64>() < fast_prob {
                        1.0
                    } else {
                        0.0
                    };
                    f.fast.push((pid, Verdict::new(0, fast_conf)));
                    if slow_window && rng.gen::<f64>() >= f.tier.slow_dropout {
                        let slow_prob = if idx < nb {
                            f.tier.slow_fpr
                        } else {
                            f.tier.slow_tpr
                        };
                        let slow_conf = if rng.gen::<f64>() < slow_prob {
                            1.0
                        } else {
                            0.0
                        };
                        f.slow.push((
                            pid,
                            Verdict::new(1, slow_conf).with_cadence(f.tier.slow_cadence),
                        ));
                    }
                }
            }
            Tier::Flood(f) => {
                let ai = f.ingest;
                let slots = f.pending.len() as u64;
                for &pid in measured.iter() {
                    let idx = pid.0 as usize;
                    let at =
                        (epoch + ai.delay + jitter64(pid.0, epoch, ai.jitter)).max(f.next_pub[idx]);
                    f.next_pub[idx] = at + 1;
                    f.pending[(at % slots) as usize].push(pid);
                }
                // Verdicts are finalised when their inference latency has
                // elapsed, for processes still alive then; the flag rate
                // sharpens once the mirrored state is `Terminable`.
                let due = (epoch % slots) as usize;
                let mut due_pids = std::mem::take(&mut f.pending[due]);
                f.legit.clear();
                for &pid in &due_pids {
                    let idx = pid.0 as usize;
                    let (live, terminable, base) = if idx < nb {
                        let p = &benign[idx];
                        let terminable = p.state == Some(ProcessState::Terminable);
                        (!p.killed && !p.completed, terminable, p.burst_prob)
                    } else {
                        let a = &attacks[idx - nb];
                        let terminable = a.state == Some(ProcessState::Terminable);
                        (a.killed_at.is_none(), terminable, cfg.tpr)
                    };
                    if !live {
                        continue;
                    }
                    let flag_prob = match (terminable, idx < nb) {
                        (true, true) => cfg.verdict_fpr,
                        (true, false) => cfg.verdict_tpr,
                        (false, _) => base,
                    };
                    let inference = if rng.gen::<f64>() < flag_prob {
                        Classification::Malicious
                    } else {
                        Classification::Benign
                    };
                    f.legit.push((pid, inference));
                }
                due_pids.clear();
                f.pending[due] = due_pids;
                f.decoys.clear();
                f.flood.decoys_into(epoch, &mut f.decoys);
            }
        }
    }

    /// Publishes this epoch's batches; returns how many observations were
    /// accepted and how many were offered.
    fn publish(tier: &Tier) -> (usize, usize) {
        match tier {
            Tier::Fused(f) => (
                f.fast_pub.publish_batch(&f.fast) + f.slow_pub.publish_batch(&f.slow),
                f.fast.len() + f.slow.len(),
            ),
            Tier::Flood(f) => (
                f.publisher.publish_batch(&f.legit) + f.flood_pub.publish_batch(&f.decoys),
                f.legit.len() + f.decoys.len(),
            ),
        }
    }

    fn ingest_stats(&self) -> IngestStats {
        match self.tier {
            Tier::Fused(_) => self.engine.verdict_ingest_stats(),
            Tier::Flood(_) => self.engine.ingest_stats(),
        }
        .expect("the tenant workloads run on ingest rings")
    }

    /// Checks one response and credits it onto its tenant, as
    /// `multi_tenant` does. Returns whether it answered a tenant (not a
    /// flood decoy).
    fn credit(&mut self, epoch: u64, resp: &EngineResponse, violations: &mut Vec<String>) -> bool {
        let n_star = self.cfg.n_star;
        let idx = resp.pid.0 as usize;
        let nb = self.benign.len();
        if idx >= nb + self.attacks.len() {
            // A flood decoy: tracked by the engine, no tenant to credit. Its
            // stream is benign-only, so it can never be killed.
            check_response(&mut PidTrack::default(), resp, n_star, violations);
            if resp.action == Action::Terminate {
                violations.push(format!("decoy {:#x} was killed", resp.pid.0));
            }
            return false;
        }
        check_response(&mut self.tracks[idx], resp, n_star, violations);
        if idx < nb {
            let proc = &mut self.benign[idx];
            if proc.killed || proc.completed {
                return true;
            }
            proc.state = Some(resp.state);
            if resp.action == Action::Terminate {
                proc.killed = true;
                return true;
            }
            proc.cpu_share_sum += resp.resources.cpu;
            proc.epochs_run += 1;
            if proc.cpu_share_sum >= proc.lifetime as f64 {
                proc.completed = true;
                self.completes.push(resp.pid);
            }
        } else {
            let attack = &mut self.attacks[idx - nb];
            attack.state = Some(resp.state);
            if resp.action == Action::Terminate && attack.killed_at.is_none() {
                attack.killed_at = Some(epoch);
            }
        }
        true
    }
}

impl Scenario for TenantScenario {
    fn horizon(&self) -> u64 {
        self.cfg.epochs
    }

    fn warmup(&self) -> u64 {
        match &self.tier {
            Tier::Fused(_) => 2,
            // The first verdicts land `delay + jitter` epochs late.
            Tier::Flood(f) => f.ingest.delay + f.ingest.jitter + 1,
        }
    }

    fn step(
        &mut self,
        epoch: u64,
        clock: &mut EpochClock,
        violations: &mut Vec<String>,
    ) -> StepStats {
        clock.time(Layer::Gen, || self.generate(epoch));

        let tier = &self.tier;
        let (accepted, offered) = clock.time(Layer::Publish, || Self::publish(tier));
        if accepted != offered {
            violations.push(format!(
                "epoch {epoch}: rings accepted {accepted} of {offered} observations"
            ));
        }
        let legit_offered = match &self.tier {
            Tier::Fused(f) => f.fast.len() + f.slow.len(),
            Tier::Flood(f) => f.legit.len(),
        };
        self.legit_published += legit_offered as u64;

        let drained_before = self.ingest_stats().drained;
        let purged_before = self.engine.purged_total();
        let engine = &mut self.engine;
        let responses = clock.time(Layer::DrainTick, || engine.drain_tick());

        clock.time(Layer::Credit, || {
            let peak = self.engine.tracked() as u64 + (self.engine.purged_total() - purged_before);
            self.counters.tracked_peak = self.counters.tracked_peak.max(peak);
            let stats = self.ingest_stats();
            let conserved = stats.drained + stats.dropped + stats.coalesced + stats.queued as u64;
            if stats.published != conserved {
                violations.push(format!(
                    "epoch {epoch}: ingest published {} != drained + dropped + coalesced + queued {conserved}",
                    stats.published
                ));
            }
            let drained = stats.drained - drained_before;
            let expected = match &self.tier {
                // One fused response per process with fresh evidence, and
                // every measured process publishes a fast verdict.
                Tier::Fused(_) => self.measured.len() as u64,
                // One response per drained observation.
                Tier::Flood(_) => drained,
            };
            if responses.len() as u64 != expected {
                violations.push(format!(
                    "epoch {epoch}: drain_tick returned {} responses, expected {expected}",
                    responses.len()
                ));
            }
            let fused = matches!(self.tier, Tier::Fused(_));
            if fused {
                // Fused responses are per process, not per verdict, and no
                // decoys share the rings: every drained verdict is legit.
                self.legit_drained += drained;
            }
            for resp in &responses {
                self.counters.actions.add(resp.action);
                if self.credit(epoch, resp, violations) && !fused {
                    self.legit_drained += 1;
                }
            }
        });

        let (engine, completes) = (&mut self.engine, &self.completes);
        let failed = clock.time(Layer::Lifecycle, || {
            completes
                .iter()
                .filter(|&&pid| engine.complete(pid).is_err())
                .count()
        });
        if failed > 0 {
            violations.push(format!(
                "epoch {epoch}: complete() refused {failed} live pids"
            ));
        }
        self.counters.completed += self.completes.len() as u64;
        self.completes.clear();
        self.counters.responses += responses.len() as u64;

        StepStats {
            responses: responses.len() as u64,
            published: accepted as u64,
        }
    }

    fn finish(&mut self) -> (Outcome, PassCounters) {
        let mut slowdown = Slowdown::default();
        for p in self.benign.iter().filter(|p| !p.killed) {
            slowdown.add_survivor(p.cpu_share_sum, p.epochs_run);
        }
        let epochs_to_kill_mean =
            mean_epochs_to_kill(self.attacks.iter().map(|a| (a.arrival, a.killed_at)));
        let outcome = Outcome {
            attacks: self.attacks.len() as u64,
            attacks_killed: self
                .attacks
                .iter()
                .filter(|a| a.killed_at.is_some())
                .count() as u64,
            epochs_to_kill_mean,
            benign: self.benign.len() as u64,
            benign_killed: self.benign.iter().filter(|p| p.killed).count() as u64,
            slowdown_pct: slowdown.pct(),
            legit_published: self.legit_published,
            legit_drained: self.legit_drained,
        };
        let mut counters = self.counters.clone();
        counters.purged = self.engine.purged_total();
        counters.fusion = self.engine.fusion_stats();
        let stats = self.ingest_stats();
        if let Tier::Flood(f) = &self.tier {
            let by_pub = |id: u32| {
                stats
                    .dropped_by_publisher
                    .get(id as usize)
                    .copied()
                    .unwrap_or(0)
            };
            counters.dropped_legit = by_pub(f.publisher.id());
            counters.dropped_flood = by_pub(f.flood_pub.id());
        }
        counters.ingest = Some(stats);
        (outcome, counters)
    }
}

/// Runs `multi_tenant` on the same configuration and lists every outcome
/// figure that differs from this benchmark's.
pub fn parity(cfg: &MultiTenantConfig, outcome: &Outcome, counters: &PassCounters) -> Vec<String> {
    let r = multi_tenant::run(cfg);
    let mut diffs = Vec::new();
    let mut cmp = |what: &str, ours: String, theirs: String| {
        if ours != theirs {
            diffs.push(format!("{what}: benchmark {ours}, multi_tenant {theirs}"));
        }
    };
    cmp(
        "attacks killed",
        outcome.attacks_killed.to_string(),
        r.attacks_terminated.to_string(),
    );
    cmp(
        "mean epochs to kill",
        format!("{:?}", outcome.epochs_to_kill_mean),
        format!("{:?}", r.mean_epochs_to_kill),
    );
    cmp(
        "wrongful kill %",
        format!("{:?}", outcome.wrongful_kill_pct()),
        format!("{:?}", r.benign_killed_pct),
    );
    cmp(
        "benign slowdown %",
        format!("{:?}", outcome.slowdown_pct),
        format!("{:?}", r.benign_slowdown_pct),
    );
    cmp("purged", counters.purged.to_string(), r.purged.to_string());
    cmp(
        "peak tracked",
        counters.tracked_peak.to_string(),
        r.peak_tracked.to_string(),
    );
    cmp(
        "fusion stats",
        format!("{:?}", counters.fusion),
        format!("{:?}", r.fusion_stats),
    );
    if cfg.fusion.is_none() {
        cmp(
            "ingest stats",
            format!("{:?}", counters.ingest),
            format!("{:?}", r.ingest),
        );
    }
    diffs
}
