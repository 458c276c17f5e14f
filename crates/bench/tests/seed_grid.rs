//! Property coverage for the seed-derivation grid.
//!
//! The runner assumes the derivation `root seed → scenario id → point index`
//! never collides: two sweep points sharing an RNG seed would silently
//! correlate experiments that the paper treats as independent trials. This
//! pins collision-freedom across the *entire* registered grid at `--full`
//! sizes, for arbitrary root seeds.

use bench::{registry, Scale};
use proptest::prelude::*;
use runner::seed::scenario_seed;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every `(scenario id, point index)` cell of the full-scale grid gets
    /// a distinct point seed, whatever the root seed.
    #[test]
    fn full_scale_point_seed_grid_is_collision_free(root in any::<u64>()) {
        let registry = registry();
        let mut seen: HashMap<u64, (&str, usize)> = HashMap::new();
        let mut cells = 0usize;
        for scenario in registry.scenarios() {
            for index in 0..(scenario.points)(Scale::Full) {
                cells += 1;
                let seed = scenario.point_seed(root, index);
                if let Some((other_id, other_index)) = seen.insert(seed, (scenario.id, index)) {
                    prop_assert!(
                        false,
                        "seed {seed:#018x} collides: ({other_id}, {other_index}) vs ({}, {index}) under root {root:#018x}",
                        scenario.id,
                    );
                }
            }
        }
        // The grid really is the full sweep surface, not a few points.
        prop_assert!(cells > 100, "only {cells} cells at full scale");
        prop_assert_eq!(seen.len(), cells);
    }

    /// Scenario-level seeds (the manifest column) are pairwise distinct too.
    #[test]
    fn scenario_seeds_are_pairwise_distinct(root in any::<u64>()) {
        let registry = registry();
        let mut seen: HashMap<u64, &str> = HashMap::new();
        for scenario in registry.scenarios() {
            let seed = scenario_seed(root, scenario.id);
            if let Some(other) = seen.insert(seed, scenario.id) {
                prop_assert!(
                    false,
                    "scenario seed {seed:#018x} collides: {other} vs {} under root {root:#018x}",
                    scenario.id,
                );
            }
        }
    }
}
