//! Equivalence and determinism guarantees of the sharded engine tier.
//!
//! The scaling tier's contract is that sharding is **semantically
//! invisible**: for any interleaving of pids and classifications, any
//! batch segmentation and any shard count, `ShardedEngine` produces exactly
//! the `EngineResponse` sequence a single `EngineShard` replaying the same
//! observations one at a time would produce — including when the batches
//! take the thread-parallel path.

use proptest::prelude::*;
use valkyrie::core::prelude::*;

/// Shard counts pinned by the acceptance criteria: the identity case, a
/// power of two, a prime, and the largest production default.
const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];

fn engine_config(n_star: u64, cyclic: bool) -> EngineConfig {
    EngineConfig::builder()
        .measurements_required(n_star)
        .penalty(AssessmentFn::incremental())
        .compensation(AssessmentFn::incremental())
        .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
        .cyclic(cyclic)
        .build()
        .unwrap()
}

/// An arbitrary interleaving: observations of up to 24 distinct pids.
fn interleaving(max_len: usize) -> impl Strategy<Value = Vec<(ProcessId, Classification)>> {
    prop::collection::vec(
        (0u64..24, prop::bool::ANY).prop_map(|(pid, malicious)| {
            (
                ProcessId(pid),
                if malicious {
                    Classification::Malicious
                } else {
                    Classification::Benign
                },
            )
        }),
        1..max_len,
    )
}

/// The reference semantics: one `EngineShard`, one observation at a time.
fn reference_responses(
    observations: &[(ProcessId, Classification)],
    n_star: u64,
    cyclic: bool,
) -> Vec<EngineResponse> {
    let mut shard = EngineShard::new(engine_config(n_star, cyclic));
    observations
        .iter()
        .map(|&(pid, cls)| shard.observe(pid, cls))
        .collect()
}

/// The sharded run: the same observations split into `chunk`-sized batches.
/// A parallel threshold of 0 forces the spawn path even on one core, so the
/// property also covers the threaded partition/scatter code (for shard
/// counts above one — a one-shard engine always runs inline).
fn sharded_responses(
    observations: &[(ProcessId, Classification)],
    shards: usize,
    chunk: usize,
    n_star: u64,
    cyclic: bool,
    force_spawns: bool,
) -> Vec<EngineResponse> {
    let mut engine = ShardedEngine::new(engine_config(n_star, cyclic), shards);
    if force_spawns {
        engine.set_parallel_threshold(0);
    }
    observations
        .chunks(chunk.max(1))
        .flat_map(|batch| engine.observe_batch(batch))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any shard count, any batch segmentation, sequential path.
    #[test]
    fn sharded_engine_is_equivalent_to_a_single_shard(
        obs in interleaving(200),
        chunk in 1usize..64,
        n_star in 1u64..20,
        cyclic in prop::bool::ANY,
    ) {
        let want = reference_responses(&obs, n_star, cyclic);
        for shards in SHARD_COUNTS {
            let got = sharded_responses(&obs, shards, chunk, n_star, cyclic, false);
            prop_assert_eq!(
                &got, &want,
                "shards={}, chunk={}, n_star={}, cyclic={}", shards, chunk, n_star, cyclic
            );
        }
    }

    /// The thread-parallel path produces the same sequences as the
    /// sequential reference.
    #[test]
    fn parallel_path_is_equivalent_too(
        obs in interleaving(150),
        chunk in 8usize..80,
        n_star in 1u64..16,
    ) {
        let want = reference_responses(&obs, n_star, true);
        for shards in SHARD_COUNTS {
            let got = sharded_responses(&obs, shards, chunk, n_star, true, true);
            prop_assert_eq!(&got, &want, "shards={}, chunk={}", shards, chunk);
        }
    }

    /// The tick driver agrees with itself across the inline and the
    /// forced-spawn path over one engine lifetime: same batches, same
    /// responses, same epoch counter, purge bookkeeping and tracked map.
    #[test]
    fn inline_and_spawned_tick_drivers_agree(
        obs in interleaving(150),
        chunk in 4usize..50,
        n_star in 1u64..8,
    ) {
        let drive = |threshold: usize| {
            let mut engine = ShardedEngine::new(engine_config(n_star, false), 7);
            engine.set_parallel_threshold(threshold);
            let ticks: Vec<Vec<EngineResponse>> = obs
                .chunks(chunk)
                .map(|batch| engine.tick(batch))
                .collect();
            (ticks, engine.epoch(), engine.purged_total(), engine.tracked())
        };
        let spawned = drive(0);
        let inline = drive(usize::MAX);
        prop_assert_eq!(&spawned, &inline);
    }
}

/// Two identical runs of the same sharded deployment are bit-identical —
/// shard placement and batch fan-out introduce no run-to-run variation.
#[test]
fn identical_runs_are_deterministic() {
    let observations: Vec<(ProcessId, Classification)> = (0..3_000u64)
        .map(|i| {
            let pid = ProcessId(i % 401);
            let cls = if i % 5 == 0 {
                Classification::Malicious
            } else {
                Classification::Benign
            };
            (pid, cls)
        })
        .collect();
    let run = || {
        let mut engine = ShardedEngine::new(engine_config(7, true), 7);
        engine.set_parallel_threshold(0); // force the threaded path
        observations
            .chunks(500)
            .map(|batch| engine.tick(batch))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// The epoch driver's purge keeps the live map bounded while preserving
/// response correctness for surviving processes, with the same engine
/// reused across hundreds of ticks.
#[test]
fn tick_driver_bounds_the_map_under_churn() {
    let mut engine = ShardedEngine::new(engine_config(3, false), 4);
    for epoch in 0..200u64 {
        // Generations of 50 pids, each attacked every epoch: with N* = 3 a
        // generation is terminated on its 4th observation and must be
        // evicted before the next generation arrives.
        let generation = epoch / 4;
        let batch: Vec<(ProcessId, Classification)> = (0..50)
            .map(|i| (ProcessId(generation * 50 + i), Classification::Malicious))
            .collect();
        engine.tick(&batch);
        assert!(
            engine.tracked() <= 50,
            "map grew to {} at epoch {epoch}",
            engine.tracked()
        );
    }
    assert_eq!(engine.epoch(), 200);
    assert_eq!(engine.purged_total(), 2_500); // 50 generations of 50 pids
    assert_eq!(engine.tracked(), engine.tracked_live());
}
