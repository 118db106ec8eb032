//! Property-based tests for campaign planning: wave packing
//! ([`plan_waves`]), sharding across operators ([`plan_shards`]) and
//! re-sharding around dead ones ([`reassign`]).

use std::collections::BTreeSet;

use proptest::prelude::*;

use gremlin_core::{plan_shards, plan_waves, reassign};

fn footprint_strategy() -> impl Strategy<Value = BTreeSet<(String, String)>> {
    // Edges drawn from a tiny universe so collisions are common.
    proptest::collection::btree_set(
        (0..4u8, 0..4u8).prop_map(|(s, d)| (format!("s{s}"), format!("d{d}"))),
        1..4,
    )
}

proptest! {
    #[test]
    fn waves_never_coschedule_intersecting_footprints(
        footprints in proptest::collection::vec(footprint_strategy(), 1..12),
        max_in_flight in 1usize..5,
    ) {
        let waves = plan_waves(&footprints, max_in_flight);
        // Every index exactly once.
        let mut seen: Vec<usize> = waves.iter().flatten().copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..footprints.len()).collect::<Vec<_>>());
        for wave in &waves {
            prop_assert!(wave.len() <= max_in_flight.max(1));
            for (i, &a) in wave.iter().enumerate() {
                for &b in &wave[i + 1..] {
                    prop_assert!(
                        footprints[a].is_disjoint(&footprints[b]),
                        "wave {:?} co-schedules intersecting footprints {} and {}",
                        wave, a, b,
                    );
                }
            }
        }
    }

    #[test]
    fn shards_assign_every_recipe_exactly_once_and_stay_disjoint(
        footprints in proptest::collection::vec(footprint_strategy(), 1..12),
        operators in 1usize..5,
        max_in_flight in 1usize..4,
    ) {
        let shards = plan_shards(&footprints, operators, max_in_flight);
        let mut seen: Vec<usize> = shards
            .iter()
            .flatten()
            .flatten()
            .copied()
            .collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..footprints.len()).collect::<Vec<_>>());
        for wave in &shards {
            prop_assert_eq!(wave.len(), operators);
            for slice in wave {
                prop_assert!(slice.len() <= max_in_flight);
            }
            // Disjointness holds across the whole wave, even
            // between recipes on different operators.
            let flat: Vec<usize> = wave.iter().flatten().copied().collect();
            for (i, &a) in flat.iter().enumerate() {
                for &b in &flat[i + 1..] {
                    prop_assert!(
                        footprints[a].is_disjoint(&footprints[b]),
                        "wave co-schedules intersecting footprints {} and {}",
                        a, b,
                    );
                }
            }
        }
    }

    #[test]
    fn one_operator_shards_flatten_to_plan_waves(
        footprints in proptest::collection::vec(footprint_strategy(), 1..12),
        max_in_flight in 1usize..5,
    ) {
        // A single-host campaign is a dispatch to one operator: its
        // shards are exactly the waves.
        let flattened: Vec<Vec<usize>> = plan_shards(&footprints, 1, max_in_flight)
            .into_iter()
            .map(|wave| wave.into_iter().flatten().collect())
            .collect();
        prop_assert_eq!(flattened, plan_waves(&footprints, max_in_flight));
    }

    #[test]
    fn reassign_conserves_the_pool(
        pool in proptest::collection::vec(0usize..64, 0..16),
        survivors in 1usize..5,
        max_in_flight in 1usize..4,
    ) {
        let (slices, leftover) = reassign(&pool, survivors, max_in_flight);
        prop_assert_eq!(slices.len(), survivors);
        for slice in &slices {
            prop_assert!(slice.len() <= max_in_flight);
        }
        let mut rebuilt: Vec<usize> =
            slices.iter().flatten().copied().collect();
        rebuilt.extend(leftover.iter().copied());
        rebuilt.sort_unstable();
        let mut original = pool.clone();
        original.sort_unstable();
        prop_assert_eq!(rebuilt, original);
    }

    #[test]
    fn shards_survive_random_operator_failures(
        footprints in proptest::collection::vec(footprint_strategy(), 1..10),
        operators in 2usize..5,
        max_in_flight in 1usize..4,
        failures in proptest::collection::vec(any::<bool>(), 2..5),
    ) {
        // Simulate the dispatcher's pooling/re-sharding control
        // flow without executing recipes: every recipe must be
        // assigned exactly once as long as one operator lives.
        let shards = plan_shards(&footprints, operators, max_in_flight);
        let alive: Vec<bool> = (0..operators)
            .map(|op| *failures.get(op).unwrap_or(&true))
            .collect();
        prop_assume!(alive.iter().any(|&a| a));
        let mut executed: Vec<usize> = Vec::new();
        for wave in &shards {
            let mut pool: Vec<usize> = Vec::new();
            for (op, slice) in wave.iter().enumerate() {
                if alive[op] {
                    executed.extend(slice.iter().copied());
                } else {
                    pool.extend(slice.iter().copied());
                }
            }
            let survivors = alive.iter().filter(|&&a| a).count();
            while !pool.is_empty() {
                let (slices, leftover) =
                    reassign(&pool, survivors, max_in_flight);
                for slice in slices {
                    executed.extend(slice);
                }
                pool = leftover;
            }
        }
        executed.sort_unstable();
        prop_assert_eq!(executed, (0..footprints.len()).collect::<Vec<_>>());
    }
}
