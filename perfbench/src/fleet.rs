//! `fleet_churn`: a `FleetEngine` over packed `GlobalPid`s with machine and
//! service churn, driven by the synchronous binary `tick`.
//!
//! The loop is `experiments::fleet_scale::run` cut at its calls into the
//! engine so each can be timed on its own: churn and detector draws, then
//! `forget` for departures, `tick`, crediting, and `complete` for finished
//! services. Calls reach the engine in the same order, so for one seed the
//! outcome equals that experiment's (checked by [`parity`]).

use std::collections::HashMap;

use crate::check::{check_response, mean_epochs_to_kill, Outcome, PidTrack, Slowdown};
use crate::scenario::{PassCounters, Scenario, StepStats};
use crate::trace::{EpochClock, Layer};
use valkyrie_core::hash::{mix64, FxBuildHasher};
use valkyrie_core::{
    Action, AssessmentFn, Classification, EngineConfig, FleetEngine, ProcessId, ProcessState,
    ShareActuator,
};
use valkyrie_experiments::fleet_scale::{self, FleetScaleConfig};
use valkyrie_workloads::{fleet_instance, place_attacks, AttackPlacement, FleetChurn};

/// 10k machines × 10 services: 100k tracked pids whose machine-local ids
/// repeat on every machine, the key shape of a real fleet.
pub fn config(seed: u64) -> FleetScaleConfig {
    FleetScaleConfig {
        machines: 10_000,
        services_per_machine: 10,
        attacks: 64,
        epochs: 64,
        n_star: 20,
        groups: 8,
        shards_per_group: 2,
        seed,
        churn: FleetChurn {
            seed,
            service_arrivals_per_epoch: 0.02,
            service_departure_prob: 0.002,
            machine_arrivals_per_epoch: 4.0,
            machine_departure_prob: 0.0004,
        },
        substrate_machines: 1,
        ..FleetScaleConfig::default()
    }
}

struct Service {
    local: u64,
    burst_prob: f64,
    lifetime: f64,
    /// Work done at the enforced CPU share (the CPU-share sum).
    progress: f64,
    epochs_run: u64,
    state: Option<ProcessState>,
    attack: Option<usize>,
    dead: bool,
    track: PidTrack,
}

struct MachineRec {
    id: u32,
    next_local: u64,
    hosts_attack: bool,
    services: Vec<Service>,
}

impl MachineRec {
    fn new(id: u32, hosts_attack: bool) -> Self {
        Self {
            id,
            next_local: 1,
            hosts_attack,
            services: Vec::new(),
        }
    }

    fn spawn(&mut self, burst_prob: f64, lifetime: f64, attack: Option<usize>) {
        let local = self.next_local;
        self.next_local += 1;
        self.services.push(Service {
            local,
            burst_prob,
            lifetime,
            progress: 0.0,
            epochs_run: 0,
            state: None,
            attack,
            dead: false,
            track: PidTrack::default(),
        });
    }

    fn spawn_benign(&mut self, instance: usize, lifetime_scale: f64) {
        let spec = fleet_instance(instance);
        let lifetime = (spec.epochs_to_complete as f64 * lifetime_scale).max(1.0);
        self.spawn(spec.burst_prob, lifetime, None);
    }
}

/// The detector-flag draw of `fleet_scale`: a pure hash of
/// `(seed, pid, epoch)` in `[0, 1)`.
fn flag_draw(seed: u64, pid: ProcessId, epoch: u64) -> f64 {
    let h = mix64(seed ^ mix64(pid.0) ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

pub struct FleetChurnScenario {
    cfg: FleetScaleConfig,
    fleet: FleetEngine,
    placements: Vec<AttackPlacement>,
    arrivals_at: Vec<Vec<usize>>,
    attack_killed: Vec<Option<u64>>,
    machines: Vec<MachineRec>,
    id_index: HashMap<u32, usize, FxBuildHasher>,
    next_machine_id: u32,
    /// Benign services spawned so far (also their `fleet_instance` index).
    spawn_counter: usize,
    benign_killed: u64,
    slowdown: Slowdown,
    counters: PassCounters,
    batch: Vec<(ProcessId, Classification)>,
    refs: Vec<(u32, u32)>,
    departing: Vec<usize>,
    forgets: Vec<ProcessId>,
    completes: Vec<ProcessId>,
}

impl FleetChurnScenario {
    pub fn new(cfg: FleetScaleConfig) -> Self {
        let engine_config = EngineConfig::builder()
            .measurements_required(cfg.n_star)
            .penalty(AssessmentFn::incremental())
            .compensation(AssessmentFn::incremental())
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .cyclic(true)
            .build()
            .expect("valid fleet-scale config");
        let expected = cfg.machines * cfg.services_per_machine + cfg.attacks;
        // Room for the services churn adds over the horizon: without it,
        // whether a shard map crosses its growth threshold before the last
        // epoch depends on the seed, a step of several MiB in peak memory.
        let arrivals_per_epoch = cfg.churn.machine_arrivals_per_epoch
            * cfg.services_per_machine as f64
            + cfg.churn.service_arrivals_per_epoch * cfg.machines as f64;
        let capacity = expected + (arrivals_per_epoch * cfg.epochs as f64) as usize;
        let mut fleet =
            FleetEngine::with_capacity(engine_config, cfg.groups, cfg.shards_per_group, capacity);
        // Every tick runs on the caller's thread: a parallel tick waits for
        // whichever thread a neighbour on the host delayed.
        fleet.set_parallel_threshold(usize::MAX);

        let placements = place_attacks(cfg.seed, cfg.attacks, cfg.machines, cfg.epochs);
        let mut arrivals_at = vec![Vec::new(); cfg.epochs as usize];
        for p in &placements {
            arrivals_at[p.arrival_epoch as usize].push(p.instance);
        }
        let mut machines = Vec::with_capacity(cfg.machines);
        let mut id_index =
            HashMap::with_capacity_and_hasher(cfg.machines, FxBuildHasher::default());
        let mut spawn_counter = 0;
        for i in 0..cfg.machines {
            let hosts = placements.iter().any(|p| p.machine_index == i);
            let mut m = MachineRec::new(i as u32, hosts);
            for _ in 0..cfg.services_per_machine {
                m.spawn_benign(spawn_counter, cfg.lifetime_scale);
                spawn_counter += 1;
            }
            id_index.insert(m.id, i);
            machines.push(m);
        }
        Self {
            fleet,
            attack_killed: vec![None; cfg.attacks],
            placements,
            arrivals_at,
            machines,
            id_index,
            next_machine_id: cfg.machines as u32,
            spawn_counter,
            benign_killed: 0,
            slowdown: Slowdown::default(),
            counters: PassCounters::default(),
            batch: Vec::with_capacity(capacity),
            refs: Vec::with_capacity(capacity),
            departing: Vec::new(),
            forgets: Vec::new(),
            completes: Vec::new(),
            cfg,
        }
    }

    /// Churn, attack arrivals and detector draws for `epoch`; fills
    /// `forgets` and the tick batch.
    fn generate(&mut self, epoch: u64) {
        let cfg = &self.cfg;
        for _ in 0..cfg.churn.machine_arrivals(epoch) {
            let id = self.next_machine_id;
            self.next_machine_id += 1;
            let mut m = MachineRec::new(id, false);
            for _ in 0..cfg.services_per_machine {
                m.spawn_benign(self.spawn_counter, cfg.lifetime_scale);
                self.spawn_counter += 1;
            }
            self.id_index.insert(id, self.machines.len());
            self.machines.push(m);
        }
        self.departing.clear();
        for (idx, m) in self.machines.iter().enumerate() {
            if !m.hosts_attack && cfg.churn.machine_departs(m.id, epoch) {
                self.departing.push(idx);
            }
        }
        for &idx in self.departing.iter().rev() {
            let m = self.machines.swap_remove(idx);
            self.id_index.remove(&m.id);
            if idx < self.machines.len() {
                self.id_index.insert(self.machines[idx].id, idx);
            }
            for s in &m.services {
                self.forgets.push(ProcessId::from_parts(m.id, s.local));
                if s.attack.is_none() {
                    self.slowdown.add_survivor(s.progress, s.epochs_run);
                }
            }
        }

        for &instance in &self.arrivals_at[epoch as usize] {
            let host_id = self.placements[instance].machine_index as u32;
            let idx = self.id_index[&host_id];
            self.machines[idx].spawn(0.0, f64::INFINITY, Some(instance));
        }

        for m in self.machines.iter_mut() {
            let id = m.id;
            for _ in 0..cfg.churn.service_arrivals(id, epoch) {
                m.spawn_benign(self.spawn_counter, cfg.lifetime_scale);
                self.spawn_counter += 1;
            }
            let (forgets, slowdown) = (&mut self.forgets, &mut self.slowdown);
            m.services.retain(|s| {
                if s.attack.is_none() && cfg.churn.service_departs(id, s.local, epoch) {
                    forgets.push(ProcessId::from_parts(id, s.local));
                    slowdown.add_survivor(s.progress, s.epochs_run);
                    false
                } else {
                    true
                }
            });
        }

        self.batch.clear();
        self.refs.clear();
        for (mi, m) in self.machines.iter().enumerate() {
            for (si, s) in m.services.iter().enumerate() {
                let pid = ProcessId::from_parts(m.id, s.local);
                let decision_ready = s.state == Some(ProcessState::Terminable);
                let flag_prob = match s.attack {
                    Some(_) if decision_ready => cfg.verdict_tpr,
                    Some(_) => cfg.tpr,
                    None if decision_ready => cfg.verdict_fpr,
                    None => s.burst_prob,
                };
                let inference = if flag_draw(cfg.seed, pid, epoch) < flag_prob {
                    Classification::Malicious
                } else {
                    Classification::Benign
                };
                self.batch.push((pid, inference));
                self.refs.push((mi as u32, si as u32));
            }
        }
    }
}

impl Scenario for FleetChurnScenario {
    fn horizon(&self) -> u64 {
        self.cfg.epochs
    }

    fn warmup(&self) -> u64 {
        2
    }

    fn step(
        &mut self,
        epoch: u64,
        clock: &mut EpochClock,
        violations: &mut Vec<String>,
    ) -> StepStats {
        clock.time(Layer::Gen, || self.generate(epoch));

        let (fleet, forgets) = (&mut self.fleet, &mut self.forgets);
        clock.time(Layer::Lifecycle, || {
            for &pid in forgets.iter() {
                fleet.forget(pid);
            }
        });
        self.counters.forgotten += forgets.len() as u64;
        forgets.clear();

        let purged_before = self.fleet.purged_total();
        let (fleet, batch) = (&mut self.fleet, &self.batch);
        let responses = clock.time(Layer::FleetTick, || fleet.tick(batch));

        clock.time(Layer::Credit, || {
            let purged_now = self.fleet.purged_total();
            let peak = (self.fleet.tracked() as u64) + (purged_now - purged_before);
            self.counters.tracked_peak = self.counters.tracked_peak.max(peak);
            if responses.len() != self.batch.len() {
                violations.push(format!(
                    "epoch {epoch}: tick returned {} responses for {} observations",
                    responses.len(),
                    self.batch.len()
                ));
                return;
            }
            let n_star = self.cfg.n_star;
            for ((resp, &(pid, _)), &(mi, si)) in responses.iter().zip(&self.batch).zip(&self.refs)
            {
                if resp.pid != pid {
                    violations.push(format!(
                        "epoch {epoch}: response for {:#x} in the slot of {:#x}",
                        resp.pid.0, pid.0
                    ));
                    continue;
                }
                self.counters.actions.add(resp.action);
                let m = &mut self.machines[mi as usize];
                let s = &mut m.services[si as usize];
                check_response(&mut s.track, resp, n_star, violations);
                s.state = Some(resp.state);
                if resp.action == Action::Terminate {
                    s.dead = true;
                    match s.attack {
                        Some(instance) => {
                            if self.attack_killed[instance].is_none() {
                                self.attack_killed[instance] = Some(epoch);
                            }
                        }
                        None => self.benign_killed += 1,
                    }
                    continue;
                }
                if s.attack.is_none() {
                    s.progress += resp.resources.cpu;
                    s.epochs_run += 1;
                    if s.progress >= s.lifetime {
                        s.dead = true;
                        self.slowdown.add_survivor(s.progress, s.epochs_run);
                        self.completes.push(ProcessId::from_parts(m.id, s.local));
                    }
                }
            }
            for m in self.machines.iter_mut() {
                m.services.retain(|s| !s.dead);
            }
        });

        let (fleet, completes) = (&mut self.fleet, &self.completes);
        let failed = clock.time(Layer::Lifecycle, || {
            completes
                .iter()
                .filter(|&&pid| fleet.complete(pid).is_err())
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
            published: 0,
        }
    }

    fn finish(&mut self) -> (Outcome, PassCounters) {
        let mut slowdown = self.slowdown;
        for m in &self.machines {
            for s in m.services.iter().filter(|s| s.attack.is_none()) {
                slowdown.add_survivor(s.progress, s.epochs_run);
            }
        }
        let arrivals = self.placements.iter().map(|p| p.arrival_epoch);
        let epochs_to_kill_mean =
            mean_epochs_to_kill(arrivals.zip(self.attack_killed.iter().copied()));
        let outcome = Outcome {
            attacks: self.cfg.attacks as u64,
            attacks_killed: self.attack_killed.iter().filter(|k| k.is_some()).count() as u64,
            epochs_to_kill_mean,
            benign: self.spawn_counter as u64,
            benign_killed: self.benign_killed,
            slowdown_pct: slowdown.pct(),
            // A synchronous tick answers every observation it is given.
            legit_published: 1,
            legit_drained: 1,
        };
        let mut counters = self.counters.clone();
        counters.purged = self.fleet.purged_total();
        counters.fusion = self.fleet.fusion_stats();
        (outcome, counters)
    }
}

/// Runs `fleet_scale` on the same configuration and lists every outcome
/// figure that differs from this benchmark's.
pub fn parity(cfg: &FleetScaleConfig, outcome: &Outcome, counters: &PassCounters) -> Vec<String> {
    let r = fleet_scale::run(cfg);
    let mut diffs = Vec::new();
    let mut cmp = |what: &str, ours: String, theirs: String| {
        if ours != theirs {
            diffs.push(format!("{what}: benchmark {ours}, fleet_scale {theirs}"));
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
        "benign killed",
        outcome.benign_killed.to_string(),
        r.benign_killed.to_string(),
    );
    cmp(
        "wrongful kill %",
        format!("{:?}", outcome.wrongful_kill_pct()),
        format!("{:?}", r.benign_killed_pct),
    );
    cmp(
        "services spawned",
        outcome.benign.to_string(),
        r.services_spawned.to_string(),
    );
    cmp(
        "services completed",
        counters.completed.to_string(),
        r.services_completed.to_string(),
    );
    cmp(
        "services forgotten",
        counters.forgotten.to_string(),
        (r.services_drained + r.services_evicted).to_string(),
    );
    cmp("purged", counters.purged.to_string(), r.purged.to_string());
    cmp(
        "peak tracked",
        counters.tracked_peak.to_string(),
        r.peak_tracked.to_string(),
    );
    diffs
}
