//! End-to-end benchmark of the Valkyrie response tier.
//!
//! ```text
//! valkyrie-perfbench --workload <fleet_churn|tenant_fused|tenant_flood>
//!     --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! One run drives one workload in this process: it sets the workload up
//! three times (input generation, engine and rings, warm-up epochs) and
//! keeps the last, then runs whole passes over the workload's epochs until
//! `--seconds` have passed. The loop is
//! closed: one thread, one epoch in flight, and each epoch's detector draws
//! depend on the responses of the last. Every call into the program is
//! timed from here; every response is checked. The last line of standard
//! output is one JSON object with the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics of a traced run (`--trace 1`). See `README.md`.

mod check;
mod fleet;
mod scenario;
mod tenant;
mod trace;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use check::Outcome;
use scenario::{PassCounters, Scenario};
use trace::{EpochClock, Layer, Tracer};
use valkyrie_core::hash::mix64;

/// Set-ups per run; `setup_s` is their median (plus the set-up of every
/// later pass).
const SETUP_ROUNDS: usize = 3;

/// Messages kept from failed checks.
const MAX_MESSAGES: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FleetChurn,
    TenantFused,
    TenantFlood,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "fleet_churn" => Some(Self::FleetChurn),
            "tenant_fused" => Some(Self::TenantFused),
            "tenant_flood" => Some(Self::TenantFlood),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::FleetChurn => "fleet_churn",
            Self::TenantFused => "tenant_fused",
            Self::TenantFlood => "tenant_flood",
        }
    }

    /// The `fleet_scale` / `multi_tenant` experiments' own default seed;
    /// workload seed 0 maps to it.
    fn default_seed(self) -> u64 {
        match self {
            Self::FleetChurn => 0xF1EE_75CA,
            Self::TenantFused | Self::TenantFlood => 0x007E_4A47,
        }
    }

    fn scenario_seed(self, seed: u64) -> u64 {
        if seed == 0 {
            self.default_seed()
        } else {
            self.default_seed() ^ mix64(seed)
        }
    }

    fn build(self, seed: u64) -> Box<dyn Scenario> {
        let seed = self.scenario_seed(seed);
        match self {
            Self::FleetChurn => Box::new(fleet::FleetChurnScenario::new(fleet::config(seed))),
            Self::TenantFused => Box::new(tenant::TenantScenario::new(tenant::fused_config(seed))),
            Self::TenantFlood => Box::new(tenant::TenantScenario::new(tenant::flood_config(seed))),
        }
    }

    /// Runs the repository's own experiment on the same configuration.
    fn parity(self, seed: u64, outcome: &Outcome, counters: &PassCounters) -> Vec<String> {
        let seed = self.scenario_seed(seed);
        match self {
            Self::FleetChurn => fleet::parity(&fleet::config(seed), outcome, counters),
            Self::TenantFused => tenant::parity(&tenant::fused_config(seed), outcome, counters),
            Self::TenantFlood => tenant::parity(&tenant::flood_config(seed), outcome, counters),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--trace-dir" => trace_dir = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_dir,
    })
}

/// Linear-interpolated percentile of unsorted samples (0 when empty).
fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn read_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Checks and their failures, counted as operations.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Ledger {
    fn record(&mut self, violations: &mut Vec<String>) {
        self.attempted += 1;
        if !violations.is_empty() {
            self.failed += 1;
            let room = MAX_MESSAGES.saturating_sub(self.messages.len());
            self.messages.extend(violations.drain(..).take(room));
        }
    }
}

/// What the timed epochs measured.
#[derive(Default)]
struct Samples {
    /// `tick_ms` of untraced epochs.
    tick_ms: Vec<f64>,
    /// `tick_ms` of traced epochs.
    traced_tick_ms: Vec<f64>,
    tick_ns_total: u64,
    responses_total: u64,
    /// Traced epochs: responses and published observations.
    traced_responses: u64,
    traced_published: u64,
}

struct RunResult {
    ledger: Ledger,
    setup_s: Vec<f64>,
    samples: Samples,
    tracer: Tracer,
    peak_rss_mb: f64,
    first: Option<(Outcome, PassCounters)>,
    passes: u32,
}

/// Builds a scenario and drives its warm-up epochs, timing the whole.
fn set_up(
    w: Workload,
    seed: u64,
    ledger: &mut Ledger,
    setup_s: &mut Vec<f64>,
) -> Box<dyn Scenario> {
    let t0 = Instant::now();
    let mut sc = w.build(seed);
    let mut violations = Vec::new();
    for epoch in 0..sc.warmup() {
        sc.step(epoch, &mut EpochClock::new(false), &mut violations);
        ledger.record(&mut violations);
    }
    setup_s.push(t0.elapsed().as_secs_f64());
    sc
}

fn run(args: &Args) -> RunResult {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let w = args.workload;
    let mut ledger = Ledger::default();
    let mut setup_s = Vec::new();
    let mut samples = Samples::default();
    let mut tracer = Tracer::new();
    let mut first: Option<(Outcome, PassCounters)> = None;
    let mut violations = Vec::new();
    let mut peak_rss_mb = 0.0;

    let mut sc = set_up(w, args.seed, &mut ledger, &mut setup_s);
    for _ in 1..SETUP_ROUNDS {
        drop(sc);
        sc = set_up(w, args.seed, &mut ledger, &mut setup_s);
    }

    // Passes always run to the end: the epochs of a pass differ (the
    // population shrinks, decoys pile up), so a pass cut short would
    // change the mix the percentiles are taken over.
    let mut pass = 0u32;
    loop {
        let pass_from = samples.tick_ms.len();
        for epoch in sc.warmup()..sc.horizon() {
            // Half the epochs are traced, picked by hash: workloads with
            // periodic epochs (a slow detector every 4th) must not land all
            // their heavy epochs on one side.
            let traced = args.trace && mix64(epoch ^ (u64::from(pass) << 32)) & 1 == 1;
            let mut clock = EpochClock::new(traced);
            let t0 = Instant::now();
            let st = sc.step(epoch, &mut clock, &mut violations);
            let t1 = Instant::now();
            ledger.record(&mut violations);
            let tick_ns = clock.tick_ns();
            if traced {
                samples.traced_tick_ms.push(ms(tick_ns));
                samples.traced_responses += st.responses;
                samples.traced_published += st.published;
                tracer.record_epoch(pass, epoch, t0, t1, &clock);
            } else {
                samples.tick_ms.push(ms(tick_ns));
                samples.tick_ns_total += tick_ns;
                samples.responses_total += st.responses;
            }
        }
        eprintln!(
            "pass {pass}: tick_ms p50 {:.3} over {} epochs",
            median(&samples.tick_ms[pass_from..]),
            samples.tick_ms.len() - pass_from
        );
        let result = sc.finish();
        match &first {
            None => {
                // Later passes only repeat the work; reading the peak here
                // keeps it independent of how many fit in the run.
                peak_rss_mb = read_peak_rss_mb();
                first = Some(result);
            }
            Some(f) => {
                if !(f.0.same_as(&result.0) && f.1 == result.1) {
                    violations.push(format!(
                        "pass {pass} differs from pass 0 on the same seed: {:?} vs {:?}",
                        result.0, f.0
                    ));
                }
                ledger.record(&mut violations);
            }
        }
        if Instant::now() >= deadline {
            break;
        }
        pass += 1;
        drop(sc);
        sc = set_up(w, args.seed, &mut ledger, &mut setup_s);
    }
    drop(sc);

    let first_result = first.as_ref().expect("the first pass always completes");
    if !first_result.0.epochs_to_kill_mean.is_finite() {
        violations.push("no attack was killed in the pass".into());
    }
    ledger.record(&mut violations);
    let diffs = w.parity(args.seed, &first_result.0, &first_result.1);
    eprintln!(
        "parity with the repository's experiment: {}",
        if diffs.is_empty() { "equal" } else { "differs" }
    );
    violations.extend(diffs.into_iter().map(|d| format!("parity: {d}")));
    ledger.record(&mut violations);
    RunResult {
        ledger,
        setup_s,
        samples,
        tracer,
        peak_rss_mb,
        first,
        passes: pass + 1,
    }
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        // JSON has no NaN or infinity; a non-finite figure is reported as 0
        // next to a failed check.
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }
}

fn end_to_end(r: &RunResult) -> Metrics {
    let (outcome, _) = r.first.as_ref().expect("first pass");
    let s = &r.samples;
    let mut m = Metrics(Vec::new());
    m.push("tick_ms_p50", percentile(&s.tick_ms, 50.0), "ms");
    m.push("tick_ms_p90", percentile(&s.tick_ms, 90.0), "ms");
    m.push(
        "engine_obs_per_s",
        s.responses_total as f64 / (s.tick_ns_total as f64 / 1e9),
        "obs/s",
    );
    m.push("setup_s", median(&r.setup_s), "s");
    m.push("peak_rss_mb", r.peak_rss_mb, "MiB");
    m.push("attacks_killed_pct", outcome.attacks_killed_pct(), "%");
    m.push("epochs_to_kill_mean", outcome.epochs_to_kill_mean, "epochs");
    m.push("wrongful_kill_pct", outcome.wrongful_kill_pct(), "%");
    m.push("benign_slowdown_pct", outcome.slowdown_pct, "%");
    m.push("delivered_pct", outcome.delivered_pct(), "%");
    m
}

fn per_layer(r: &RunResult) -> Metrics {
    let (_, c) = r.first.as_ref().expect("first pass");
    let s = &r.samples;

    // Self time per layer per traced epoch, from the spans.
    let mut per_epoch: std::collections::BTreeMap<(u32, u64), [u64; 6]> = Default::default();
    for (span, self_ns) in r.tracer.self_times() {
        if let Some(i) = Layer::ALL.iter().position(|l| l.name() == span.name) {
            per_epoch.entry((span.pass, span.epoch)).or_default()[i] += self_ns;
        }
    }
    let layer_ms = |layer: Layer| -> Vec<f64> {
        let i = Layer::ALL
            .iter()
            .position(|&l| l == layer)
            .expect("known layer");
        per_epoch.values().map(|row| ms(row[i])).collect()
    };
    let layer_total_ns = |layer: Layer| -> f64 {
        let i = Layer::ALL
            .iter()
            .position(|&l| l == layer)
            .expect("known layer");
        per_epoch.values().map(|row| row[i] as f64).sum()
    };
    let per = |total_ns: f64, n: u64| if n == 0 { 0.0 } else { total_ns / n as f64 };
    let untraced_p50 = median(&s.tick_ms);
    let layer_sum: f64 = Layer::ALL
        .iter()
        .filter(|l| l.in_tick())
        .map(|&l| median(&layer_ms(l)))
        .sum();
    let ingest = c.ingest.clone().unwrap_or_default();

    let mut m = Metrics(Vec::new());
    m.push(
        "fleet.tick_ms_p50",
        median(&layer_ms(Layer::FleetTick)),
        "ms",
    );
    m.push(
        "fleet.ns_per_response",
        per(layer_total_ns(Layer::FleetTick), s.traced_responses),
        "ns",
    );
    m.push(
        "engine.lifecycle_ms_p50",
        median(&layer_ms(Layer::Lifecycle)),
        "ms",
    );
    m.push("engine.completed", c.completed as f64, "count");
    m.push("engine.forgotten", c.forgotten as f64, "count");
    m.push("engine.purged", c.purged as f64, "count");
    m.push("engine.tracked_peak", c.tracked_peak as f64, "count");
    m.push(
        "sharded.drain_tick_ms_p50",
        median(&layer_ms(Layer::DrainTick)),
        "ms",
    );
    m.push(
        "sharded.ns_per_response",
        per(layer_total_ns(Layer::DrainTick), s.traced_responses),
        "ns",
    );
    m.push("fusion.verdicts", c.fusion.verdicts as f64, "count");
    m.push(
        "fusion.stale_decayed",
        c.fusion.stale_decayed as f64,
        "count",
    );
    m.push("fusion.escalations", c.fusion.escalations as f64, "count");
    m.push(
        "fusion.verdicts_per_response",
        c.fusion.verdicts as f64 / c.responses.max(1) as f64,
        "ratio",
    );
    m.push(
        "ingest.publish_ms_p50",
        median(&layer_ms(Layer::Publish)),
        "ms",
    );
    m.push(
        "ingest.publish_ns_per_obs",
        per(layer_total_ns(Layer::Publish), s.traced_published),
        "ns",
    );
    m.push("ingest.published", ingest.published as f64, "count");
    m.push("ingest.drained", ingest.drained as f64, "count");
    m.push("ingest.dropped", ingest.dropped as f64, "count");
    m.push("ingest.coalesced", ingest.coalesced as f64, "count");
    m.push(
        "ingest.priority_queued",
        ingest.priority_queued as f64,
        "count",
    );
    m.push(
        "ingest.evictions_deflected",
        ingest.evictions_deflected as f64,
        "count",
    );
    m.push("ingest.dropped_legit", c.dropped_legit as f64, "count");
    m.push("ingest.dropped_flood", c.dropped_flood as f64, "count");
    m.push(
        "ingest.drop_ratio",
        ingest.dropped as f64 / ingest.published.max(1) as f64,
        "ratio",
    );
    m.push("actuator.throttle", c.actions.throttle as f64, "count");
    m.push("actuator.recover", c.actions.recover as f64, "count");
    m.push("actuator.restore", c.actions.restore as f64, "count");
    m.push("actuator.recycle", c.actions.recycle as f64, "count");
    m.push("actuator.terminate", c.actions.terminate as f64, "count");
    m.push("workloads.gen_ms_p50", median(&layer_ms(Layer::Gen)), "ms");
    m.push(
        "driver.credit_ms_p50",
        median(&layer_ms(Layer::Credit)),
        "ms",
    );
    m.push(
        "trace.overhead_pct",
        100.0 * (median(&s.traced_tick_ms) / untraced_p50 - 1.0),
        "%",
    );
    m.push("trace.layer_sum_pct", 100.0 * layer_sum / untraced_p50, "%");
    m.push("trace.tick_samples", s.tick_ms.len() as f64, "count");
    m.push("trace.spans", r.tracer.len() as f64, "count");
    m
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let outcome = std::panic::catch_unwind(|| run(&args));
    let r = match outcome {
        Ok(r) => r,
        Err(_) => {
            // The panic message is already on stderr; the run counts as
            // one failed operation.
            println!("{}", result_json(false, 1, 1, &Metrics(Vec::new())));
            return;
        }
    };

    let metrics = if args.trace {
        per_layer(&r)
    } else {
        end_to_end(&r)
    };
    if args.trace {
        if let Some(dir) = &args.trace_dir {
            let path = format!("{dir}/{}-seed{}.jsonl", args.workload.name(), args.seed);
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, r.tracer.to_jsonl()));
            match written {
                Ok(()) => eprintln!("spans written to {path}"),
                Err(e) => eprintln!("could not write spans to {path}: {e}"),
            }
        }
    }
    eprintln!(
        "{}: seed {}, {} pass(es), {} timed epochs (+{} traced), {} set-ups",
        args.workload.name(),
        args.seed,
        r.passes,
        r.samples.tick_ms.len(),
        r.samples.traced_tick_ms.len(),
        r.setup_s.len()
    );
    for (name, value, unit) in &metrics.0 {
        eprintln!("  {name:<30} {value:>16.4} {unit}");
    }
    for msg in &r.ledger.messages {
        eprintln!("FAILED: {msg}");
    }
    println!(
        "{}",
        result_json(
            r.ledger.failed == 0,
            r.ledger.attempted,
            r.ledger.failed,
            &metrics
        )
    );
}
