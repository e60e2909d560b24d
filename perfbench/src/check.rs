//! Correctness checks run on every response of every epoch, and the
//! security outcome of one pass.

use valkyrie_core::{Action, EngineResponse, ProcessState};

/// Per-process state the response-stream checks need.
#[derive(Debug, Clone, Copy, Default)]
pub struct PidTrack {
    /// Responses since the process was registered or last recycled.
    cycle_obs: u64,
    last_state: Option<ProcessState>,
}

/// Checks one response against the paper's invariants, pushing a message
/// for each one it breaks:
/// - threat 0 ⇒ full resources (Section V-A);
/// - no kill before `N*` measurements, so never before the `N*+1`-th
///   response of a measurement cycle;
/// - a kill only from the terminable state.
pub fn check_response(
    track: &mut PidTrack,
    resp: &EngineResponse,
    n_star: u64,
    violations: &mut Vec<String>,
) {
    track.cycle_obs += 1;
    if resp.threat.is_zero() && !resp.resources.is_full() {
        violations.push(format!(
            "pid {:#x}: threat 0 with restricted resources {:?}",
            resp.pid.0, resp.resources
        ));
    }
    match resp.action {
        Action::Terminate => {
            if track.cycle_obs < n_star + 1 {
                violations.push(format!(
                    "pid {:#x}: killed after {} responses of its cycle (N* = {n_star})",
                    resp.pid.0, track.cycle_obs
                ));
            }
            if !matches!(
                track.last_state,
                Some(ProcessState::Terminable | ProcessState::Terminated)
            ) {
                violations.push(format!(
                    "pid {:#x}: killed from state {:?}",
                    resp.pid.0, track.last_state
                ));
            }
        }
        Action::RestoreAndRecycle => track.cycle_obs = 0,
        _ => {}
    }
    track.last_state = Some(resp.state);
}

/// Responses per action over a pass (the actuator layer's work).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActionCounts {
    pub throttle: u64,
    pub recover: u64,
    pub restore: u64,
    pub recycle: u64,
    pub terminate: u64,
}

impl ActionCounts {
    pub fn add(&mut self, action: Action) {
        match action {
            Action::None => {}
            Action::Throttle => self.throttle += 1,
            Action::Recover => self.recover += 1,
            Action::Restore => self.restore += 1,
            Action::RestoreAndRecycle => self.recycle += 1,
            Action::Terminate => self.terminate += 1,
        }
    }
}

/// Mean CPU share lost by the benign processes that were not killed, as
/// `multi_tenant` defines it: processes that never ran count as zero
/// slowdown in the mean.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slowdown {
    survivors: u64,
    lost_share_sum: f64,
}

impl Slowdown {
    /// Folds in one benign process that was not killed.
    pub fn add_survivor(&mut self, cpu_share_sum: f64, epochs_run: u64) {
        self.survivors += 1;
        if epochs_run > 0 {
            self.lost_share_sum += 1.0 - cpu_share_sum / epochs_run as f64;
        }
    }

    pub fn pct(&self) -> f64 {
        if self.survivors == 0 {
            0.0
        } else {
            100.0 * self.lost_share_sum / self.survivors as f64
        }
    }
}

/// The security outcome of one complete pass: exact for a given seed.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attacks: u64,
    pub attacks_killed: u64,
    /// Mean epochs from arrival to kill, summed in attack order (NaN when
    /// nothing was killed).
    pub epochs_to_kill_mean: f64,
    /// Denominator of the wrongful-kill share (benign processes spawned).
    pub benign: u64,
    pub benign_killed: u64,
    pub slowdown_pct: f64,
    pub legit_published: u64,
    pub legit_drained: u64,
}

impl Outcome {
    pub fn attacks_killed_pct(&self) -> f64 {
        100.0 * self.attacks_killed as f64 / self.attacks.max(1) as f64
    }

    pub fn wrongful_kill_pct(&self) -> f64 {
        100.0 * self.benign_killed as f64 / self.benign.max(1) as f64
    }

    pub fn delivered_pct(&self) -> f64 {
        100.0 * self.legit_drained as f64 / self.legit_published.max(1) as f64
    }

    /// Bit-exact equality (NaN equals NaN), for the determinism check.
    pub fn same_as(&self, other: &Outcome) -> bool {
        self.attacks == other.attacks
            && self.attacks_killed == other.attacks_killed
            && self.epochs_to_kill_mean.to_bits() == other.epochs_to_kill_mean.to_bits()
            && self.benign == other.benign
            && self.benign_killed == other.benign_killed
            && self.slowdown_pct.to_bits() == other.slowdown_pct.to_bits()
            && self.legit_published == other.legit_published
            && self.legit_drained == other.legit_drained
    }
}

/// Mean epochs from arrival to kill over the killed attacks, accumulated
/// in attack order as the `fleet_scale` and `multi_tenant` experiments do.
pub fn mean_epochs_to_kill(arrivals_and_kills: impl Iterator<Item = (u64, Option<u64>)>) -> f64 {
    let mut killed = 0u64;
    let mut sum = 0.0;
    for (arrival, kill) in arrivals_and_kills {
        if let Some(at) = kill {
            killed += 1;
            sum += (at - arrival + 1) as f64;
        }
    }
    if killed == 0 {
        f64::NAN
    } else {
        sum / killed as f64
    }
}
