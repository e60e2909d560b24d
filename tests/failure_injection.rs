//! Failure-injection and adversarial-edge tests: oscillating detectors,
//! detector outages, mid-run process churn, long-horizon stability.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use valkyrie::attacks::cryptominer::Cryptominer;
use valkyrie::core::prelude::*;
use valkyrie::detect::{Detector, ScriptedDetector};
use valkyrie::experiments::scenario::{AugmentedRun, CpuLever, ScenarioConfig};
use valkyrie::hpc::SampleWindow;
use valkyrie::sim::machine::{Machine, MachineConfig};
use valkyrie::workloads::{roster, BenchmarkWorkload};

fn engine(n_star: u64) -> EngineConfig {
    EngineConfig::builder()
        .measurements_required(n_star)
        .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
        .build()
        .unwrap()
}

#[test]
fn oscillating_detector_keeps_resources_bounded_and_recovers() {
    use Classification::{Benign, Malicious};
    let mut e = ValkyrieEngine::new(engine(10_000));
    let pid = ProcessId(1);
    let mut min_cpu: f64 = 1.0;
    for i in 0..5_000 {
        let c = if i % 2 == 0 { Malicious } else { Benign };
        let r = e.observe(pid, c);
        assert!(r.resources.is_valid());
        min_cpu = min_cpu.min(r.resources.cpu);
        assert_ne!(
            r.state,
            ProcessState::Terminated,
            "oscillation must not kill"
        );
    }
    assert!(min_cpu >= 0.01 - 1e-12);
    // A calm tail fully restores the process.
    let mut last = None;
    for _ in 0..50 {
        last = Some(e.observe(pid, Benign));
    }
    assert!(last.unwrap().resources.is_full());
}

/// A detector that goes silent (always benign) after an outage epoch —
/// models a crashed/fooled detector. Valkyrie degrades gracefully: the
/// attack runs, but benign processes are never harmed.
struct OutageDetector {
    healthy_until: u64,
    epoch: u64,
}

impl Detector for OutageDetector {
    fn name(&self) -> &str {
        "outage"
    }
    fn infer(&mut self, _pid: ProcessId, _w: &SampleWindow) -> Classification {
        self.epoch += 1;
        if self.epoch <= self.healthy_until {
            Classification::Malicious
        } else {
            Classification::Benign
        }
    }
}

#[test]
fn detector_outage_restores_resources_instead_of_wedging() {
    let detector = OutageDetector {
        healthy_until: 5,
        epoch: 0,
    };
    let mut run = AugmentedRun::new(
        Machine::new(MachineConfig::default()),
        engine(100),
        detector,
        ScenarioConfig {
            cpu_lever: CpuLever::CgroupQuota,
            window: 16,
            shards: 1,
            ..ScenarioConfig::default()
        },
    );
    let pid = run.machine_mut().spawn(Box::new(Cryptominer::default()));
    run.watch(pid);
    run.run(40);
    // After the outage the compensation path unwinds the throttle fully.
    let last = run.history(pid).last().unwrap();
    assert_eq!(last.cpu_share, 1.0);
    assert!(run.machine().is_alive(pid));
}

#[test]
fn attack_that_masks_in_terminable_state_survives_one_shot_monitoring() {
    use Classification::{Benign, Malicious};
    // An adaptive attacker that behaves exactly until N*, then attacks.
    // One-shot Fig. 3 monitoring restores it for good after the benign
    // verdict — this is the known limitation cyclic monitoring addresses.
    let mut script = vec![Benign; 11];
    script.extend(vec![Malicious; 30]);
    let mut one_shot = ValkyrieEngine::new(engine(10));
    let mut cyclic = ValkyrieEngine::new(
        EngineConfig::builder()
            .measurements_required(10)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .cyclic(true)
            .build()
            .unwrap(),
    );
    let pid = ProcessId(9);
    let mut one_shot_killed = false;
    let mut cyclic_killed = false;
    for &c in &script {
        if one_shot.observe(pid, c).action == Action::Terminate {
            one_shot_killed = true;
        }
        if cyclic.observe(pid, c).action == Action::Terminate {
            cyclic_killed = true;
        }
    }
    // One-shot: the single benign verdict at N* ends monitoring (the
    // monitor only terminates on a later malicious epoch in terminable
    // state — which the mask dodged exactly once but not forever).
    assert!(one_shot_killed, "post-verdict malicious epochs still kill");
    assert!(cyclic_killed, "cyclic monitoring re-arms and kills");
}

#[test]
fn process_churn_does_not_corrupt_engine_state() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let mut e = ValkyrieEngine::new(engine(20));
    let mut live: Vec<ProcessId> = Vec::new();
    for step in 0..2_000u64 {
        if rng.gen_bool(0.05) {
            live.push(ProcessId(step));
        }
        if !live.is_empty() && rng.gen_bool(0.02) {
            let idx = rng.gen_range(0..live.len());
            let pid = live.swap_remove(idx);
            e.forget(pid);
        }
        for &pid in &live {
            let c = if rng.gen_bool(0.1) {
                Classification::Malicious
            } else {
                Classification::Benign
            };
            let r = e.observe(pid, c);
            assert!(r.resources.is_valid());
            assert!(r.threat.value() >= 0.0 && r.threat.value() <= 100.0);
        }
        // Drop terminated pids like a real supervisor would.
        live.retain(|&pid| e.state(pid) != Some(ProcessState::Terminated));
    }
}

#[test]
fn terminated_workload_stays_inspectable_but_inert() {
    let detector = ScriptedDetector::constant(Classification::Malicious);
    let mut run = AugmentedRun::new(
        Machine::new(MachineConfig::default()),
        engine(3),
        detector,
        ScenarioConfig::default(),
    );
    let pid = run.machine_mut().spawn(Box::new(Cryptominer::default()));
    run.watch(pid);
    run.run(10);
    assert!(!run.machine().is_alive(pid));
    let hashes_at_death = run
        .machine()
        .workload_as::<Cryptominer>(pid)
        .unwrap()
        .hashes();
    run.run(10);
    let hashes_later = run
        .machine()
        .workload_as::<Cryptominer>(pid)
        .unwrap()
        .hashes();
    assert_eq!(
        hashes_at_death, hashes_later,
        "dead processes make no progress"
    );
}

#[test]
fn perverse_detector_rates_keep_evasion_invariants() {
    // A detector that is blind to activity (tpr = 0) and paranoid about
    // silence (fpr = 1): throttling and termination land on the *dormant*
    // phases. The replay must still uphold its invariants — bounded
    // slowdown, progress never exceeding the unimpeded baseline.
    use valkyrie::core::{run_evasion, AttackerStrategy, DetectorModel, EvasionScenario};
    let config = engine(10);
    for (tpr, fpr) in [(0.0, 1.0), (0.0, 0.0), (1.0, 1.0)] {
        let scenario = EvasionScenario::new(
            AttackerStrategy::DutyCycle {
                active: 2,
                dormant: 2,
            },
            DetectorModel::new(tpr, fpr).unwrap(),
            60,
        );
        let out = run_evasion(&config, &scenario);
        assert!(out.progress <= out.unimpeded + 1e-9, "tpr={tpr} fpr={fpr}");
        assert!((0.0..=100.0).contains(&out.slowdown_percent()));
        if tpr == 0.0 && fpr == 0.0 {
            // A fully blind detector means Valkyrie never intervenes.
            assert_eq!(out.terminated_at, None);
            assert!((out.progress - out.unimpeded).abs() < 1e-9);
        }
    }
}

#[test]
fn response_log_stays_consistent_under_process_churn() {
    use valkyrie::core::telemetry::ResponseLog;
    let mut rng = StdRng::seed_from_u64(0x106);
    let mut e = ValkyrieEngine::new(engine(15));
    let mut log = ResponseLog::new();
    let mut live: Vec<ProcessId> = (0..8).map(ProcessId).collect();
    for epoch in 0..500u64 {
        if rng.gen_bool(0.05) {
            live.push(ProcessId(1000 + epoch));
        }
        for &pid in &live {
            let c = if rng.gen_bool(0.2) {
                Classification::Malicious
            } else {
                Classification::Benign
            };
            let r = e.observe(pid, c);
            log.record(epoch, &r);
        }
        live.retain(|&pid| e.state(pid) != Some(ProcessState::Terminated));
    }
    // The log's per-process epoch counts must sum to the entry count, and
    // every summary must be internally consistent.
    let mut total = 0;
    let mut seen = 0;
    for entry in log.entries() {
        let _ = entry;
        total += 1;
    }
    for pid in (0..8).map(ProcessId).chain((1000..1500).map(ProcessId)) {
        if let Some(s) = log.summary(pid) {
            seen += s.epochs_observed;
            assert!(s.throttled_epochs <= s.epochs_observed);
            assert!((0.0..=1.0).contains(&s.min_cpu_share));
            assert!((0.0..=1.0).contains(&s.mean_cpu_share()));
            assert!((0.0..=100.0).contains(&s.peak_threat));
        }
    }
    assert_eq!(seen as usize, total);
    assert_eq!(log.len(), total);
}

/// A detector that wedges forever — it holds a publisher for the engine's
/// ingest rings but never publishes a single verdict — must not stall the
/// async epoch driver: `drain_tick` keeps returning on schedule, healthy
/// detectors keep being served, and the stalled detector's process is
/// handled per cyclic-monitoring rules (no observation means no
/// measurement this epoch: its state and resources stay frozen exactly
/// where the last consumed verdict left them).
#[test]
fn stalled_detector_never_stalls_the_drain_tick_driver() {
    use std::sync::mpsc;

    let mut e = ShardedEngine::new(
        EngineConfig::builder()
            .measurements_required(3)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .cyclic(true)
            .build()
            .unwrap(),
        4,
    );
    let publisher = e.enable_ingest(64, OverflowPolicy::Block);
    let watched = ProcessId(1); // served by the healthy detector
    let stalled_pid = ProcessId(2); // its detector wedges immediately

    // The stalled detector: parks on a channel that is never sent to,
    // publisher in hand, until the test releases it at the very end.
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let stalled = {
        let publisher = publisher.clone();
        std::thread::spawn(move || {
            let _wedged = release_rx.recv(); // blocks for the whole test
            drop(publisher);
        })
    };

    // One observation for the stalled pid *did* arrive before the
    // wedge: its monitor state must stay frozen afterwards.
    publisher.publish(stalled_pid, Classification::Malicious);
    e.drain_tick();
    let frozen_state = e.state(stalled_pid);
    let frozen_resources = e.resources(stalled_pid);
    assert_eq!(frozen_state, Some(ProcessState::Suspicious));

    // The healthy detector keeps publishing; the driver ticks through
    // its whole horizon with no regard for the wedged thread.
    let mut terminated_at = None;
    for epoch in 0..20u64 {
        publisher.publish(watched, Classification::Malicious);
        let responses = e.drain_tick();
        assert_eq!(responses.len(), 1, "only the healthy verdict arrives");
        if responses[0].action == Action::Terminate && terminated_at.is_none() {
            terminated_at = Some(epoch);
        }
    }
    assert_eq!(e.epoch(), 21, "every epoch ticked on schedule");
    // The healthy pid progressed to termination at its N* + 1 = 4th
    // observation (loop epoch 3).
    assert_eq!(terminated_at, Some(3));
    // The stalled pid is exactly where its last verdict left it.
    assert_eq!(e.state(stalled_pid), frozen_state);
    assert_eq!(e.resources(stalled_pid), frozen_resources);
    // Nothing was lost or left queued: every published verdict was
    // consumed by some tick.
    let stats = e.ingest_stats().unwrap();
    assert_eq!(stats.published, 21);
    assert_eq!(stats.drained, 21);
    assert_eq!(stats.queued, 0);

    drop(release_tx); // un-wedge the stalled detector so it can exit
    stalled.join().unwrap();
}

#[test]
fn long_horizon_benign_run_is_stable() {
    // 10,000 epochs of a clean benign program: no drift, no throttle.
    let detector = ScriptedDetector::constant(Classification::Benign);
    let mut run = AugmentedRun::new(
        Machine::new(MachineConfig::default()),
        engine(1_000_000),
        detector,
        ScenarioConfig::default(),
    );
    let mut spec = roster().remove(0);
    spec.epochs_to_complete = u64::MAX / 4;
    let pid = run
        .machine_mut()
        .spawn(Box::new(BenchmarkWorkload::new(spec)));
    run.watch(pid);
    run.run(10_000);
    assert!(run.history(pid).iter().all(|r| r.cpu_share == 1.0));
    assert!(run.history(pid).iter().all(|r| r.threat == 0.0));
}
