//! Throughput benches for the sharded batch-observation engine.
//!
//! One group per fleet size (`core/engine_batch_1k` / `_10k` / `_100k`),
//! each comparing:
//!
//! * `observe_loop` — the paper-era driver: one `ValkyrieEngine::observe`
//!   call per process per tick (the pre-scaling baseline API);
//! * `sharded_xN` — the same workload through
//!   `ShardedEngine::observe_batch` with `N` shards (one tick = one batch),
//!   fresh scoped threads per tick on multi-core hosts;
//! * `ingest_xN` — the same workload through the async ingest tier: every
//!   tick publishes the batch into the bounded per-shard rings
//!   (`OverflowPolicy::Block`, capacity sized so nothing blocks) and
//!   drains it back with `drain_batch`. Against `sharded_xN` at the same
//!   `N` this prices the queue hop + publish-order merge the decoupling
//!   costs;
//! * `fusion_xN` — the same workload carried as `Verdict`s through the
//!   weighted-evidence fusion tier (`observe_verdict_batch`) under the
//!   degenerate unit-weight/BINARY-ladder config. Against `sharded_xN` at
//!   the same `N` this prices the per-process evidence-table hop (fuse +
//!   escalate) the fused path adds over flat binary observation;
//! * `fleet_xN` — the same fleet spread across 256 machines through the
//!   hierarchical `FleetEngine` (`N` machine-sharded groups × 2 pid
//!   shards, global pids packed with `ProcessId::from_parts`). Against
//!   `sharded_x2N` this prices the extra machine-level partition/scatter
//!   hop the cluster tier adds per tick.
//!
//! A separate `core/engine_batch_flood` group (`flood_x{1,4}`) drives the
//! same 10k fleet through undersized defended rings while a `NoiseFlood`
//! decoy stream forces the overflow path — pricing the priority lane +
//! fair-queueing bookkeeping at full eviction pressure.
//!
//! Every variant replays the identical workload: the full fleet observed
//! each tick, one in seven processes flagged on a rotating schedule so
//! monitors keep moving through throttle/recover transitions without
//! terminating (`N*` is set beyond the horizon). Timings are per tick;
//! divide the fleet size by the printed time for observations/second.
//! Shard speedups require hardware parallelism — on a single-core runner
//! `sharded_xN` only measures the partition/scatter overhead.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use valkyrie_core::prelude::*;
use valkyrie_workloads::NoiseFlood;

fn engine_config(n_star: u64) -> EngineConfig {
    EngineConfig::builder()
        .measurements_required(n_star)
        .actuator(ShareActuator::scheduler_weight(0.1, 0.01))
        .build()
        .unwrap()
}

fn tick_batch(procs: u64, epoch: u64) -> Vec<(ProcessId, Classification)> {
    (0..procs)
        .map(|pid| {
            let cls = if (pid + epoch).is_multiple_of(7) {
                Classification::Malicious
            } else {
                Classification::Benign
            };
            (ProcessId(pid), cls)
        })
        .collect()
}

/// The cluster-tier batch: the same flag schedule, pids spread round-robin
/// across 256 machines of the packed global namespace.
fn fleet_tick_batch(procs: u64, epoch: u64) -> Vec<(ProcessId, Classification)> {
    (0..procs)
        .map(|i| {
            let cls = if (i + epoch).is_multiple_of(7) {
                Classification::Malicious
            } else {
                Classification::Benign
            };
            (ProcessId::from_parts((i % 256) as u32, i / 256), cls)
        })
        .collect()
}

fn bench_fleet(c: &mut Criterion, label: &str, procs: u64) {
    let mut group = c.benchmark_group(label);
    // N* beyond any horizon the bench reaches: no process terminates, the
    // map stays at `procs` entries and every tick is pure observe work.
    let n_star = 1_u64 << 40;
    // The `(pid + epoch) % 7` flag pattern has period 7 in the epoch, so a
    // ring of 7 pre-built batches covers every tick: batch assembly is the
    // embedder's job and stays outside the timed closures in *all*
    // variants — only engine work is measured.
    let ring: Vec<Vec<(ProcessId, Classification)>> =
        (0..7).map(|epoch| tick_batch(procs, epoch)).collect();

    group.bench_function("observe_loop", |b| {
        let mut engine = ValkyrieEngine::with_capacity(engine_config(n_star), procs as usize);
        let mut epoch = 0usize;
        b.iter(|| {
            epoch += 1;
            for &(pid, cls) in &ring[epoch % 7] {
                black_box(engine.observe(pid, cls));
            }
        });
    });

    for shards in [1usize, 2, 4, 8] {
        group.bench_function(format!("sharded_x{shards}").as_str(), |b| {
            let mut engine =
                ShardedEngine::with_capacity(engine_config(n_star), shards, procs as usize);
            let mut epoch = 0usize;
            b.iter(|| {
                epoch += 1;
                black_box(engine.observe_batch(black_box(&ring[epoch % 7])))
            });
        });
    }

    for shards in [1usize, 2, 4, 8] {
        group.bench_function(format!("ingest_x{shards}").as_str(), |b| {
            let mut engine =
                ShardedEngine::with_capacity(engine_config(n_star), shards, procs as usize);
            // Capacity covers a whole tick per shard: Block never blocks,
            // the rings stay lossless, and the timing is publish + drain.
            let publisher = engine.enable_ingest(procs as usize, OverflowPolicy::Block);
            let mut epoch = 0usize;
            b.iter(|| {
                epoch += 1;
                publisher.publish_batch(black_box(&ring[epoch % 7]));
                black_box(engine.drain_batch())
            });
        });
    }

    // The fused-verdict path: the identical flag schedule carried as
    // `Verdict`s (detector 0, confidence 0/1) through the weighted-evidence
    // fusion tier with the degenerate unit-weight/BINARY-ladder config, so
    // against `sharded_xN` at the same `N` this prices exactly the
    // per-process evidence-table hop (fuse + escalate) over the flat
    // binary observation path.
    let verdict_ring: Vec<Vec<(ProcessId, Verdict)>> = ring
        .iter()
        .map(|batch| {
            batch
                .iter()
                .map(|&(pid, cls)| (pid, Verdict::from_classification(0, cls)))
                .collect()
        })
        .collect();
    for shards in [1usize, 4] {
        group.bench_function(format!("fusion_x{shards}").as_str(), |b| {
            let config = EngineConfig::builder()
                .measurements_required(n_star)
                .actuator(ShareActuator::scheduler_weight(0.1, 0.01))
                .fusion(FusionConfig {
                    weights: Vec::new(),
                    default_weight: 1.0,
                    stale_decay: 1.0,
                    ladder: EscalationLadder::BINARY,
                })
                .build()
                .unwrap();
            let mut engine = ShardedEngine::with_capacity(config, shards, procs as usize);
            let mut epoch = 0usize;
            b.iter(|| {
                epoch += 1;
                black_box(engine.observe_verdict_batch(black_box(&verdict_ring[epoch % 7])))
            });
        });
    }

    let fleet_ring: Vec<Vec<(ProcessId, Classification)>> =
        (0..7).map(|epoch| fleet_tick_batch(procs, epoch)).collect();
    for groups in [1usize, 4] {
        group.bench_function(format!("fleet_x{groups}").as_str(), |b| {
            let mut engine =
                FleetEngine::with_capacity(engine_config(n_star), groups, 2, procs as usize);
            let mut epoch = 0usize;
            b.iter(|| {
                epoch += 1;
                black_box(engine.observe_batch(black_box(&fleet_ring[epoch % 7])))
            });
        });
    }
    group.finish();
}

fn bench_engine_batch_1k(c: &mut Criterion) {
    bench_fleet(c, "core/engine_batch_1k", 1_000);
}

fn bench_engine_batch_10k(c: &mut Criterion) {
    bench_fleet(c, "core/engine_batch_10k", 10_000);
}

fn bench_engine_batch_100k(c: &mut Criterion) {
    bench_fleet(c, "core/engine_batch_100k", 100_000);
}

/// The ingest rings under the noise-flood defense: undersized `DropOldest`
/// rings with the priority lane + per-publisher fair queueing armed, a
/// legit publisher racing a decoy flood from a second handle every epoch.
/// Each tick publishes the 10k-process fleet, then a `NoiseFlood` decoy
/// burst at every shard, then drains — so the eviction path, the
/// heaviest-publisher scan and the two-lane seq merge all run every
/// iteration. Against `ingest_xN` in `core/engine_batch_10k` (lossless
/// rings, no flood, no defense) this prices the defended overflow path at
/// its worst: every decoy is an eviction decision.
fn bench_flood(c: &mut Criterion) {
    let mut group = c.benchmark_group("core/engine_batch_flood");
    let n_star = 1_u64 << 40;
    const PROCS: u64 = 10_000;
    let ring: Vec<Vec<(ProcessId, Classification)>> =
        (0..7).map(|epoch| tick_batch(PROCS, epoch)).collect();
    for shards in [1usize, 4] {
        group.bench_function(format!("flood_x{shards}").as_str(), |b| {
            let mut engine =
                ShardedEngine::with_capacity(engine_config(n_star), shards, PROCS as usize);
            // Per-shard capacity below a tick's worth of traffic: the
            // flood forces overflow — and therefore the fair-queueing
            // eviction scan — on every single tick.
            let publisher = engine.enable_ingest_defended(
                4_096,
                OverflowPolicy::DropOldest,
                IngestDefense::full(),
            );
            let flood_pub = publisher.clone();
            let flood = NoiseFlood::new(0xF100D, shards, (0..shards).collect()).with_rate(2_048);
            // Decoy batches are a pure function of the epoch; like the
            // legit ring they are assembled outside the timed closure.
            let decoy_ring: Vec<Vec<(ProcessId, Classification)>> = (0..8)
                .map(|epoch| {
                    let mut out = Vec::new();
                    flood.decoys_into(epoch, &mut out);
                    out
                })
                .collect();
            let mut epoch = 0usize;
            b.iter(|| {
                epoch += 1;
                publisher.publish_batch(black_box(&ring[epoch % 7]));
                flood_pub.publish_batch(black_box(&decoy_ring[epoch % 8]));
                black_box(engine.drain_batch())
            });
        });
    }
    group.finish();
}

/// The epoch driver with churn: attacks terminate and are purged while
/// fresh pids keep arriving, so the map is exercised under registration +
/// eviction pressure, not just steady-state lookups.
fn bench_tick_with_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("core/engine_batch_tick_churn");
    for shards in [1usize, 4] {
        group.bench_function(format!("sharded_x{shards}_10k").as_str(), |b| {
            let config = EngineConfig::builder()
                .measurements_required(3)
                .actuator(ShareActuator::scheduler_weight(0.1, 0.01))
                .build()
                .unwrap();
            let mut engine = ShardedEngine::with_capacity(config, shards, 10_000);
            let mut epoch = 0u64;
            b.iter(|| {
                epoch += 1;
                // A rotating 1/64 slice of the pid space is attacked every
                // epoch; terminated pids are purged by `tick` and replaced
                // by their successors the next epoch. The pid base shifts
                // over time, so the batch is assembled inside the timed
                // loop — identically for every shard count, which keeps
                // the x1-vs-x4 comparison fair.
                let batch: Vec<(ProcessId, Classification)> = (0..10_000u64)
                    .map(|i| {
                        let pid = ProcessId(i + (epoch / 8) * 157);
                        let cls = if (i + epoch).is_multiple_of(64) {
                            Classification::Malicious
                        } else {
                            Classification::Benign
                        };
                        (pid, cls)
                    })
                    .collect();
                black_box(engine.tick(black_box(&batch)))
            });
        });
    }
    group.finish();
}

/// The adaptive evasion loop end-to-end: one `run_adaptive` replay of a
/// probing attacker (a `LawProbe` burst feeding an `IntensityModulator`)
/// against the default percent-point law over a 120-epoch horizon. This is
/// the unit of work the best-response search re-evaluates hundreds of times
/// per ranked law, so its cost bounds the `adaptive` experiment's runtime.
fn bench_adaptive(c: &mut Criterion) {
    use valkyrie_core::evasion::{
        run_adaptive, AdaptiveScenario, DetectorModel, IntensityModulator, LawProbe,
    };
    let mut group = c.benchmark_group("core/engine_batch_adaptive");
    group.bench_function("adaptive_x1", |b| {
        let config = EngineConfig::builder()
            .measurements_required(30)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .build()
            .unwrap();
        let detector = DetectorModel::new(0.9, 0.04).unwrap();
        let scenario = AdaptiveScenario::new(detector, 120);
        let mut strategy = LawProbe::new(3, IntensityModulator::new(1.0, 0.3, 0.8, 30, 0.0));
        b.iter(|| black_box(run_adaptive(&config, black_box(&scenario), &mut strategy)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_batch_1k,
    bench_engine_batch_10k,
    bench_engine_batch_100k,
    bench_flood,
    bench_tick_with_churn,
    bench_adaptive,
);
criterion_main!(benches);
