//! Thread-count invariance of the session-backed scenarios.
//!
//! `fig5-7` and `bandwidth` transmit frames through `ChannelSession`, so
//! besides their tables they report simulated work (`sim_cycles`,
//! `sim_accesses`). Both must be identical at `--threads 1` and `--threads 8`,
//! and the work counters must be non-zero.

use bench::{registry, Scale, SEED};
use runner::{execute, RunConfig};

#[test]
fn session_based_scenarios_are_thread_count_invariant_with_sim_counters() {
    let reg = registry();
    let selected = reg
        .select(&["fig5-7".to_owned(), "bandwidth".to_owned()])
        .expect("session scenarios exist");
    let run_at = |threads: usize| {
        execute(
            &selected,
            &RunConfig {
                scale: Scale::Quick,
                threads,
                root_seed: SEED,
                progress: false,
            },
        )
    };
    let serial = run_at(1);
    let parallel = run_at(8);
    assert_eq!(serial.len(), 2);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert!(s.error.is_none(), "{}: {:?}", s.id, s.error);
        assert_eq!(s.id, p.id);
        assert_eq!(s.sim_cycles, p.sim_cycles, "{}", s.id);
        assert_eq!(s.sim_accesses, p.sim_accesses, "{}", s.id);
        assert!(
            s.sim_accesses > 0,
            "{} is session-backed and must report simulated work",
            s.id
        );
        for ((s_stem, s_table), (p_stem, p_table)) in s.tables.iter().zip(&p.tables) {
            assert_eq!(s_stem, p_stem);
            assert_eq!(s_table.to_json(), p_table.to_json(), "{}", s.id);
        }
    }
}
