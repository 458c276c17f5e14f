//! The `repro` binary's argument parser, driven as a user drives it.
//!
//! Unknown subcommands and flags are usage errors (exit 2), and `--seed`
//! accepts decimal or `0x…` hexadecimal spellings of the same seed.

use analysis::table::Table;
use runner::seed::scenario_seed;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro starts")
}

/// A fresh, empty output directory unique to this test process.
fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read(dir: &Path, file: &str) -> Vec<u8> {
    std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{}: {e}", dir.join(file).display()))
}

/// The manifest's `seed` cell for the single scenario of a run.
fn manifest_seed(dir: &Path) -> String {
    let json = String::from_utf8(read(dir, "manifest.json")).expect("UTF-8 manifest");
    let manifest = Table::from_json(&json).expect("manifest parses");
    let column = manifest
        .headers
        .iter()
        .position(|h| h == "seed")
        .expect("seed column");
    manifest.rows[0][column].clone()
}

#[test]
fn unknown_subcommands_and_flags_are_usage_errors() {
    for args in [&["serve"][..], &["run", "--addr", "x"]] {
        let output = repro(args);
        assert_eq!(output.status.code(), Some(2), "repro {args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage:"), "repro {args:?}: {stderr}");
    }
}

#[test]
fn hex_and_decimal_seeds_write_the_same_outputs() {
    let hex = out_dir("hex");
    let decimal = out_dir("decimal");
    for (seed, dir) in [("0x7e6", &hex), ("2022", &decimal)] {
        let dir = dir.to_str().expect("UTF-8 temp dir");
        let output = repro(&[
            "run",
            "table1",
            "--quick",
            "--seed",
            seed,
            "--no-progress",
            "--out",
            dir,
        ]);
        assert!(
            output.status.success(),
            "--seed {seed}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    for file in ["table1.md", "table1.csv", "table1.json"] {
        assert_eq!(read(&hex, file), read(&decimal, file), "{file}");
    }
    // Table I does not depend on the seed, so the manifest shows that both
    // spellings reached the runner as 2022.
    let expected = format!("{:#018x}", scenario_seed(2022, "table1"));
    assert_eq!(manifest_seed(&hex), expected);
    assert_eq!(manifest_seed(&decimal), expected);
    for dir in [hex, decimal] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
