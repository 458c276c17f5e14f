//! Deterministic seed derivation: `root_seed → scenario id → point index`.
//!
//! Every sweep point's RNG seed is a pure function of the root seed, the
//! scenario's stable id and the point's index within the sweep. Seeds are
//! derived *before* tasks are handed to the thread pool, so the schedule —
//! and therefore `--threads` — cannot influence any result.
//!
//! The mixer is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a bijective
//! finalizer whose output passes BigCrush, which is far more than a cache
//! simulator needs. Scenario ids enter through FNV-1a so that textual ids
//! land on well-separated points of the SplitMix64 orbit.
//!
//! [`parse_seed`] is the grammar of `repro run --seed`: decimal or `0x…`
//! hexadecimal.

/// One application of the SplitMix64 finalizer.
///
/// Canonically implemented in [`sim_cache::seed`] (the bottom crate of the
/// workspace, which derives its internal RNG streams with the same mixer);
/// re-exported here so harness code keeps its `runner::seed` spelling and
/// the two layers cannot drift apart.
pub use sim_cache::seed::splitmix64;

/// FNV-1a hash of a string (64-bit), used to fold scenario ids into seeds.
pub fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01B3);
    }
    hash
}

/// The per-scenario seed: `splitmix64(root ^ fnv1a(id))`.
pub fn scenario_seed(root: u64, scenario_id: &str) -> u64 {
    splitmix64(root ^ fnv1a(scenario_id))
}

/// The per-point seed: the scenario seed advanced by the point index.
pub fn point_seed(root: u64, scenario_id: &str, point_index: usize) -> u64 {
    splitmix64(scenario_seed(root, scenario_id) ^ splitmix64(point_index as u64))
}

/// Parses a seed written in decimal or `0x…` hexadecimal.
pub fn parse_seed(text: &str) -> Option<u64> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_not_identity() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        // Published FNV-1a 64-bit test vectors (offset basis and "a").
        assert_eq!(fnv1a(""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a("a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn scenario_ids_separate_seeds() {
        assert_ne!(scenario_seed(2022, "table2"), scenario_seed(2022, "table5"));
        assert_ne!(scenario_seed(2022, "table2"), scenario_seed(2023, "table2"));
    }

    #[test]
    fn point_seeds_differ_per_index_but_are_reproducible() {
        let a = point_seed(2022, "fig6", 0);
        let b = point_seed(2022, "fig6", 1);
        assert_ne!(a, b);
        assert_eq!(a, point_seed(2022, "fig6", 0));
    }

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        for text in ["2022", "0x7e6", "0X7E6"] {
            assert_eq!(parse_seed(text), Some(2022), "{text}");
        }
        assert_eq!(parse_seed("18446744073709551615"), Some(u64::MAX));
        for text in ["", "0x", "-1", "0x1g", "18446744073709551616"] {
            assert_eq!(parse_seed(text), None, "{text:?}");
        }
    }
}
