//! Thread-count invariance of the whole registry, and its golden digests.
//!
//! The tentpole contract of the runner: from one root seed, `repro run all`
//! must produce byte-identical tables and manifest at any `--threads` value,
//! because every point's seed is derived before execution and assembly is in
//! point order. The only tolerated difference is the manifest's wall-time
//! column, which the comparisons blank.

use analysis::table::Table;
use bench::{registry, Scale, SEED};
use runner::manifest::{manifest_table, WALL_MS_COLUMN};
use runner::seed::fnv1a;
use runner::{execute, RunConfig, ScenarioRun};

/// The committed digests of every registry output at `Scale::Quick`.
const GOLDEN_QUICK: &str = include_str!("golden_quick.txt");

/// The manifest column whose value depends on the host rather than on the
/// results; the manifest digest skips it.
const UNDIGESTED_COLUMN: &str = "wall (ms)";

fn run_all(threads: usize, scale: Scale) -> Vec<ScenarioRun> {
    let registry = registry();
    let selected = registry.select(&["all".to_owned()]).expect("all matches");
    let config = RunConfig {
        scale,
        threads,
        root_seed: SEED,
        progress: false,
    };
    execute(&selected, &config)
}

/// The manifest JSON with the non-deterministic wall-time column blanked.
fn normalized_manifest(runs: &[ScenarioRun]) -> String {
    let mut table = manifest_table(runs);
    for row in &mut table.rows {
        row[WALL_MS_COLUMN] = String::new();
    }
    table.to_json()
}

fn assert_thread_count_invariant(scale: Scale) {
    let serial = run_all(1, scale);
    let parallel = run_all(8, scale);

    for run in serial.iter().chain(&parallel) {
        assert!(run.error.is_none(), "{} failed: {:?}", run.id, run.error);
    }
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.id, p.id);
        assert_eq!(s.seed, p.seed);
        assert_eq!(s.tables.len(), p.tables.len(), "{}", s.id);
        for ((s_stem, s_table), (p_stem, p_table)) in s.tables.iter().zip(&p.tables) {
            assert_eq!(s_stem, p_stem);
            assert_eq!(
                s_table.to_json(),
                p_table.to_json(),
                "scenario {} table {} differs across thread counts",
                s.id,
                s_stem
            );
        }
    }
    assert_eq!(normalized_manifest(&serial), normalized_manifest(&parallel));
}

#[test]
fn tables_and_manifest_are_identical_at_1_and_8_threads() {
    assert_thread_count_invariant(Scale::Quick);
}

/// The acceptance-criterion check at paper scale. Ignored by default (it is
/// ~20x the quick run); CI and local smoke runs cover quick, run this one
/// on demand with `cargo test -p bench -- --ignored`.
#[test]
#[ignore = "full paper-scale run; execute with -- --ignored"]
fn tables_and_manifest_are_identical_at_full_scale_too() {
    assert_thread_count_invariant(Scale::Full);
}

/// The golden-file text for a run: one `<stem> <digest>` line per output
/// table (FNV-1a-64 of its JSON) plus one line for the manifest's
/// deterministic columns, selected by header name.
fn golden_digests(runs: &[ScenarioRun]) -> String {
    let mut text = String::from(
        "# FNV-1a-64 of Table::to_json() per registry output stem at seed 2022,\n\
         # Scale::Quick, 1 thread. `manifest` covers its deterministic columns.\n",
    );
    for run in runs {
        for (stem, table) in &run.tables {
            text.push_str(&format!("{stem} {:016x}\n", fnv1a(&table.to_json())));
        }
    }
    let manifest = manifest_table(runs);
    let keep: Vec<usize> = (0..manifest.headers.len())
        .filter(|&i| manifest.headers[i] != UNDIGESTED_COLUMN)
        .collect();
    let headers: Vec<&str> = keep.iter().map(|&i| manifest.headers[i].as_str()).collect();
    let mut deterministic = Table::new(manifest.title.clone(), &headers);
    for row in &manifest.rows {
        deterministic.push_row(keep.iter().map(|&i| row[i].clone()));
    }
    text.push_str(&format!(
        "manifest {:016x}\n",
        fnv1a(&deterministic.to_json())
    ));
    text
}

/// Pins every registry table and the manifest's deterministic columns to
/// the committed digests, so a refactor that changes any output byte fails
/// here. On an intended change, replace `golden_quick.txt` with the text the
/// assertion prints.
#[test]
fn tables_and_manifest_match_the_golden_digests() {
    let runs = run_all(1, Scale::Quick);
    for run in &runs {
        assert!(run.error.is_none(), "{} failed: {:?}", run.id, run.error);
    }
    let actual = golden_digests(&runs);
    assert!(
        actual == GOLDEN_QUICK,
        "registry outputs differ from crates/bench/tests/golden_quick.txt; \
         if the change is intended, replace the file with:\n{actual}"
    );
}

#[test]
fn manifest_lists_every_registered_scenario_exactly_once() {
    let runs = run_all(4, Scale::Quick);
    let table = manifest_table(&runs);
    let registry = registry();
    assert_eq!(table.len(), registry.scenarios().len());
    let mut listed: Vec<&str> = table.rows.iter().map(|row| row[0].as_str()).collect();
    let mut registered: Vec<&str> = registry.scenarios().iter().map(|s| s.id).collect();
    listed.sort_unstable();
    registered.sort_unstable();
    assert_eq!(listed, registered);
    // Ids are unique: sorting plus equality already implies it, but make the
    // failure message direct if a duplicate ever sneaks in.
    listed.dedup();
    assert_eq!(listed.len(), table.len());
}

#[test]
fn root_seed_moves_every_scenario_including_defenses() {
    // Since the defenses scenario switched from a pinned calibration seed to
    // a derived-seed majority verdict, *no* registered scenario is allowed to
    // ignore the root seed.
    let registry = registry();
    for scenario in registry.scenarios() {
        assert_ne!(
            scenario.point_seed(SEED, 0),
            scenario.point_seed(SEED + 1, 0),
            "{} ignores the root seed",
            scenario.id
        );
    }
}
