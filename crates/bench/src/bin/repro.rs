//! `repro` — regenerates the paper's tables and figures in parallel.
//!
//! ```text
//! Usage:
//!   repro list [--quick|--full]
//!   repro run <id|glob>... [--quick|--full] [--threads N] [--out DIR]
//!                          [--seed SEED] [--no-progress] [--verbose]
//!                          [--allow-empty]
//! ```
//!
//! `list` prints the scenario registry: stable id, paper cross-reference,
//! and sweep width at the selected scale. `run` selects scenarios by exact
//! id, glob (`'table*'`, `'fig?'`) or the keyword `all`, fans their sweep
//! points out across `--threads` workers (default: all cores), prints each
//! result table, writes Markdown/CSV/JSON copies under the output directory
//! (default `results/`), and records the run in `results/manifest.json`.
//!
//! Results are bit-identical at any `--threads` value: every point's seed is
//! derived from `(--seed, scenario id, point index)` before execution.

use analysis::table::Table;
use bench::Scale;
use runner::manifest::write_manifest;
use runner::pool::default_threads;
use runner::seed::parse_seed;
use runner::{execute, Registry, RunConfig};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Set once the stdout reader hangs up (`repro ... | head`); later emits
/// become no-ops so a closed pipe never aborts a `run` mid-way — the result
/// files and manifest are the product and must still be written.
static STDOUT_GONE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Prints a line to stdout without panicking when the reader hangs up
/// (`println!` would abort with a broken-pipe panic: Rust clears the default
/// `SIGPIPE` disposition, and `unsafe_code` is denied workspace-wide so it
/// cannot be restored). On a closed pipe, stdout echo is suppressed for the
/// rest of the process; any other stdout error is fatal.
fn emit(text: &dyn std::fmt::Display) {
    use std::sync::atomic::Ordering;
    if STDOUT_GONE.load(Ordering::Relaxed) {
        return;
    }
    let mut stdout = std::io::stdout().lock();
    if let Err(error) = writeln!(stdout, "{text}") {
        if error.kind() == std::io::ErrorKind::BrokenPipe {
            STDOUT_GONE.store(true, Ordering::Relaxed);
            return;
        }
        eprintln!("error: could not write to stdout: {error}");
        std::process::exit(1);
    }
}

const USAGE: &str = "usage:\n  repro list [--quick|--full]\n  repro run <id|glob>... \
    [--quick|--full] [--threads N] [--out DIR] [--seed SEED] [--no-progress]\n           \
    [--verbose] [--allow-empty]\n  \
    repro check [<id|glob>...] [--verbose]\n  \
    repro trace <id|glob>... [--quick|--full] [--out DIR]\n  \
    repro lint [DIR]\n  \
    repro bench-sim [--quick|--full] [--out DIR] [--baseline PATH] [--max-regress PCT]\n\
    \nscenario ids (see `repro list`): table1 table2 table4 table5 table6 table7\n\
    fig4 fig5-7 fig6 fig8 bandwidth defenses sidechannel hierarchy-matrix; globs\n\
    like 'table*' and the keyword `all` also work\n\
    \ncheck statically verifies every selected scenario's compiled trace programs\n\
    across all hierarchy presets without executing a simulated cycle; --verbose\n\
    prints per-scenario program stats (steps, ops, chases, anchors) and phase\n\
    span coverage. lint runs the workspace determinism linter (crates/lint)\n\
    over DIR (default: the workspace root), printing one JSON finding per\n\
    line; both exit non-zero on any finding\n\
    \ntrace runs each selected scenario's operating point with cycle-domain\n\
    telemetry enabled and writes, per scenario: a Perfetto-loadable\n\
    TRACE_<id>_trace.json, a TRACE_<id>_events.ndjson event stream, and\n\
    per-phase cycle, per-frame BER and chase-latency tables under --out\n\
    \nbench-sim measures cache-hierarchy throughput (accesses/sec) on a set of\n\
    canonical traces (incl. the telemetry-overhead row wb-channel-traced),\n\
    writes BENCH_sim.{md,csv,json} under --out, and exits non-zero when a\n\
    trace regresses more than --max-regress percent (default 30) below the\n\
    --baseline table, when wb-frame falls more than 3% below it (the\n\
    \"null-sink\" gate: a tight floor on the raw dirty-sweep path, which no\n\
    telemetry sink reaches), or when wb-channel-traced falls more than 20%\n\
    below the same run's wb-channel";

/// Argument error: usage on stderr, exit 2. An explicit `--help` instead
/// prints to stdout and exits 0 (see `main`).
fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Lists the registry grouped by paper section, one sub-table per section,
/// with each scenario's sweep-axis arity (points at the selected scale) —
/// so the size of a sweep like `hierarchy-matrix` is visible before running
/// it.
fn list(registry: &Registry, scale: Scale) {
    let scenarios = registry.scenarios();
    let mut sections: Vec<&str> = Vec::new();
    for scenario in scenarios {
        if !sections.contains(&scenario.section) {
            sections.push(scenario.section);
        }
    }
    emit(&format_args!(
        "Registered scenarios: {} across {} sections, {} points at --{} scale\n",
        scenarios.len(),
        sections.len(),
        scenarios.iter().map(|s| (s.points)(scale)).sum::<usize>(),
        scale.label(),
    ));
    for section in sections {
        let group: Vec<_> = scenarios.iter().filter(|s| s.section == section).collect();
        let mut table = Table::new(
            format!(
                "{section} ({} scenario{}, {} point{})",
                group.len(),
                if group.len() == 1 { "" } else { "s" },
                group.iter().map(|s| (s.points)(scale)).sum::<usize>(),
                if group.iter().map(|s| (s.points)(scale)).sum::<usize>() == 1 {
                    ""
                } else {
                    "s"
                },
            ),
            &["id", "paper ref", "points", "summary"],
        );
        for scenario in group {
            table.push_row([
                scenario.id.to_owned(),
                scenario.paper_ref.to_owned(),
                (scenario.points)(scale).to_string(),
                scenario.summary.to_owned(),
            ]);
        }
        emit(&table);
    }
}

/// Writes the table's three formats, then echoes it to stdout — files first,
/// so a closed stdout pipe can never cost an artifact. On write failure
/// returns the error so the caller can fail the run and record it in the
/// manifest.
fn write(table: &Table, out_dir: &Path, stem: &str) -> Result<(), String> {
    let path = out_dir.join(stem);
    let result = table.write_all_formats(&path);
    emit(table);
    match result {
        Err(error) => Err(format!("could not write {}: {error}", path.display())),
        Ok(()) => {
            emit(&format_args!("  -> {}.{{md,csv,json}}\n", path.display()));
            Ok(())
        }
    }
}

/// The directory `repro lint` scans when none is given: the workspace root
/// this binary was compiled from, falling back to the current directory when
/// the binary has been moved to another machine.
fn default_lint_root() -> PathBuf {
    let compiled_from = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if compiled_from.join("Cargo.toml").exists() {
        return compiled_from.canonicalize().unwrap_or(compiled_from);
    }
    PathBuf::from(".")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage();
    };

    if command == "--help" || command == "-h" {
        emit(&USAGE);
        return ExitCode::SUCCESS;
    }

    let mut scale = Scale::Quick;
    let mut out_dir = PathBuf::from("results");
    let mut threads = default_threads();
    let mut root_seed = bench::SEED;
    let mut progress = true;
    let mut verbose = false;
    let mut allow_empty = false;
    let mut patterns = Vec::new();
    let mut baseline: Option<PathBuf> = None;
    let mut max_regress = 0.30f64;
    // First run-only / bench-sim-only flag seen; the other commands reject
    // these instead of silently ignoring them. Each flag's own match arm
    // records itself here so the rejection list cannot drift from the
    // parser.
    let mut run_only_flag: Option<&str> = None;
    let mut record_run_only = |flag: &'static str| {
        if run_only_flag.is_none() {
            run_only_flag = Some(flag);
        }
    };
    let mut bench_only_flag: Option<&str> = None;
    let mut record_bench_only = |flag: &'static str| {
        if bench_only_flag.is_none() {
            bench_only_flag = Some(flag);
        }
    };
    // Flags shared by several commands and rejected by the rest: `--out`
    // (`run`, `bench-sim`, `trace`), `--quick`/`--full` (all but `check` and
    // `lint`) and `--verbose` (`run`, `check`).
    let mut out_flag_seen = false;
    let mut scale_flag_seen = false;
    let mut verbose_flag_seen = false;
    // A flag's value must not itself look like a flag: `--out --no-progress`
    // should be the usage error it almost certainly is, not a directory
    // literally named "--no-progress".
    let value = |next: Option<&String>| next.filter(|v| !v.starts_with("--")).cloned();
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => {
                scale_flag_seen = true;
                scale = Scale::Quick;
            }
            "--full" => {
                scale_flag_seen = true;
                scale = Scale::Full;
            }
            "--no-progress" => {
                record_run_only("--no-progress");
                progress = false;
            }
            "--verbose" => {
                // Shared by `run` (pool counters) and `check` (program
                // stats); the other commands reject it below.
                verbose_flag_seen = true;
                verbose = true;
            }
            "--allow-empty" => {
                record_run_only("--allow-empty");
                allow_empty = true;
            }
            "--threads" => {
                record_run_only("--threads");
                match value(iter.next()).and_then(|n| n.parse().ok()) {
                    Some(n) if n >= 1 => threads = n,
                    _ => usage(),
                }
            }
            "--out" => {
                out_flag_seen = true;
                match value(iter.next()) {
                    Some(dir) => out_dir = PathBuf::from(dir),
                    None => usage(),
                }
            }
            "--baseline" => {
                record_bench_only("--baseline");
                match value(iter.next()) {
                    Some(path) => baseline = Some(PathBuf::from(path)),
                    None => usage(),
                }
            }
            "--max-regress" => {
                record_bench_only("--max-regress");
                match value(iter.next()).and_then(|v| v.parse::<f64>().ok()) {
                    Some(pct) if (0.0..=100.0).contains(&pct) => max_regress = pct / 100.0,
                    _ => usage(),
                }
            }
            "--seed" => {
                record_run_only("--seed");
                match value(iter.next()).and_then(|s| parse_seed(&s)) {
                    Some(seed) => root_seed = seed,
                    None => usage(),
                }
            }
            "--help" | "-h" => {
                emit(&USAGE);
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag: {flag}");
                usage();
            }
            pattern => patterns.push(pattern.to_owned()),
        }
    }

    let registry = bench::registry();
    match command.as_str() {
        "list" => {
            if !patterns.is_empty() {
                usage();
            }
            if let Some(flag) = run_only_flag {
                eprintln!("{flag} only applies to `repro run`");
                usage();
            }
            if let Some(flag) = bench_only_flag {
                eprintln!("{flag} only applies to `repro bench-sim`");
                usage();
            }
            if out_flag_seen {
                eprintln!("--out only applies to `repro run`, `repro bench-sim` and `repro trace`");
                usage();
            }
            if verbose_flag_seen {
                eprintln!("--verbose only applies to `repro run` and `repro check`");
                usage();
            }
            list(&registry, scale);
            ExitCode::SUCCESS
        }
        "bench-sim" => {
            if !patterns.is_empty() {
                usage();
            }
            if let Some(flag) = run_only_flag {
                eprintln!("{flag} only applies to `repro run`");
                usage();
            }
            if verbose_flag_seen {
                eprintln!("--verbose only applies to `repro run` and `repro check`");
                usage();
            }
            let results = bench::bench_sim::run(scale == Scale::Full);
            let table = bench::bench_sim::results_table(&results);
            if let Err(error) = write(&table, &out_dir, "BENCH_sim") {
                eprintln!("error: {error}");
                return ExitCode::FAILURE;
            }
            let Some(baseline_path) = baseline else {
                return ExitCode::SUCCESS;
            };
            let parsed = std::fs::read_to_string(&baseline_path)
                .map_err(|e| e.to_string())
                .and_then(|json| Table::from_json(&json));
            let baseline_table = match parsed {
                Ok(table) => table,
                Err(error) => {
                    eprintln!(
                        "error: could not read baseline {}: {error}",
                        baseline_path.display()
                    );
                    return ExitCode::FAILURE;
                }
            };
            let mut failures =
                bench::bench_sim::regressions(&results, &baseline_table, max_regress);
            // The "null-sink" gate is always tighter than the general gate:
            // wb-frame must stay within 3% of its baseline. It floors the raw
            // dirty-sweep path; no telemetry sink is on that path.
            failures.extend(bench::bench_sim::null_sink_regressions(
                &results,
                &baseline_table,
            ));
            // The sink-on gate compares rows of the same run, so it holds
            // regardless of absolute host speed.
            failures.extend(bench::bench_sim::traced_overhead_regressions(&results));
            if failures.is_empty() {
                emit(&format_args!(
                    "bench-sim: within {:.0}% of {} (null-sink gate: wb-frame within {:.0}%, \
                     sink-on gate: wb-channel-traced within {:.0}% of wb-channel)",
                    max_regress * 100.0,
                    baseline_path.display(),
                    bench::bench_sim::NULL_SINK_MAX_REGRESS * 100.0,
                    bench::bench_sim::TRACED_OVERHEAD_MAX * 100.0,
                ));
                ExitCode::SUCCESS
            } else {
                failures.dedup();
                for failure in failures {
                    eprintln!("bench-sim regression: {failure}");
                }
                ExitCode::FAILURE
            }
        }
        "run" => {
            if patterns.is_empty() {
                usage();
            }
            if let Some(flag) = bench_only_flag {
                eprintln!("{flag} only applies to `repro bench-sim`");
                usage();
            }
            // A selection that matches nothing is an error by default — a
            // typo must not "succeed" by writing an empty manifest. Scripts
            // sweeping speculative globs opt back in with --allow-empty.
            let selected = if allow_empty {
                let selected = registry.select_lenient(&patterns);
                if selected.is_empty() {
                    eprintln!(
                        "[repro] no scenario matches {patterns:?}; --allow-empty set, \
                         writing an empty manifest"
                    );
                }
                selected
            } else {
                match registry.select(&patterns) {
                    Ok(selected) => selected,
                    Err(error) => {
                        eprintln!("error: {error}");
                        eprintln!("hint: --allow-empty treats an empty selection as success");
                        return ExitCode::FAILURE;
                    }
                }
            };
            let config = RunConfig {
                scale,
                threads,
                root_seed,
                progress,
            };
            let pool_before = runner::pool::stats();
            let mut runs = execute(&selected, &config);
            let mut failed = false;
            for run in &mut runs {
                if let Some(error) = &run.error {
                    eprintln!("scenario {} failed: {error}", run.id);
                    failed = true;
                }
                // The manifest derives its status and outputs columns from
                // `error` and `tables`; downstream tooling trusts both, so a
                // failed write must set the error AND drop the phantom stem.
                let mut unwritten = Vec::new();
                for (stem, table) in &run.tables {
                    if let Err(error) = write(table, &out_dir, stem) {
                        eprintln!("scenario {}: {error}", run.id);
                        failed = true;
                        unwritten.push(stem.clone());
                        if run.error.is_none() {
                            run.error = Some(error);
                        }
                    }
                }
                run.tables.retain(|(stem, _)| !unwritten.contains(stem));
            }
            match write_manifest(&runs, &out_dir) {
                Ok(path) => emit(&format_args!("manifest -> {}", path.display())),
                Err(error) => {
                    eprintln!("error: could not write manifest: {error}");
                    failed = true;
                }
            }
            if verbose {
                let pool = runner::pool::stats().since(&pool_before);
                emit(&format_args!(
                    "pool: tasks queued={} completed={} panicked={} steals={} \
                     peak queue depth={}",
                    pool.tasks_queued,
                    pool.tasks_completed,
                    pool.tasks_panicked,
                    pool.steals,
                    pool.peak_queue_depth,
                ));
            }
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "check" => {
            if let Some(flag) = run_only_flag {
                eprintln!("{flag} only applies to `repro run`");
                usage();
            }
            if let Some(flag) = bench_only_flag {
                eprintln!("{flag} only applies to `repro bench-sim`");
                usage();
            }
            if out_flag_seen {
                eprintln!("--out only applies to `repro run`, `repro bench-sim` and `repro trace`");
                usage();
            }
            if scale_flag_seen {
                eprintln!("--quick/--full do not apply to `repro check`: the gate is compile-only");
                usage();
            }
            let report = match bench::check::run_check(&registry, &patterns) {
                Ok(report) => report,
                Err(error) => {
                    eprintln!("error: {error}");
                    return ExitCode::FAILURE;
                }
            };
            if verbose {
                for check in &report.scenarios {
                    emit(&format_args!(
                        "check {:<16} {} config{} x hierarchies = {:>2} variants, {:>3} programs; \
                         default machine: steps={} ops={} chases={} anchors={} \
                         phase coverage={}/{}",
                        check.id,
                        check.configs,
                        if check.configs == 1 { " " } else { "s" },
                        check.variants,
                        check.programs,
                        check.stats.steps,
                        check.stats.ops,
                        check.stats.chases,
                        check.stats.anchors,
                        check.attributed_steps,
                        check.total_steps,
                    ));
                }
            }
            let findings: Vec<&String> = report.findings().collect();
            emit(&format_args!(
                "check: {} scenario{}, {} variants, {} programs verified, {} finding{}",
                report.scenarios.len(),
                if report.scenarios.len() == 1 { "" } else { "s" },
                report.variants(),
                report.programs(),
                findings.len(),
                if findings.len() == 1 { "" } else { "s" },
            ));
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                for finding in findings {
                    eprintln!("check finding: {finding}");
                }
                ExitCode::FAILURE
            }
        }
        "trace" => {
            if patterns.is_empty() {
                usage();
            }
            if let Some(flag) = run_only_flag {
                eprintln!("{flag} only applies to `repro run`");
                usage();
            }
            if let Some(flag) = bench_only_flag {
                eprintln!("{flag} only applies to `repro bench-sim`");
                usage();
            }
            if verbose_flag_seen {
                eprintln!("--verbose only applies to `repro run` and `repro check`");
                usage();
            }
            let frames = match scale {
                Scale::Quick => bench::trace::QUICK_FRAMES,
                Scale::Full => bench::trace::FULL_FRAMES,
            };
            let artifacts = match bench::trace::run_trace(&registry, &patterns, frames) {
                Ok(artifacts) => artifacts,
                Err(error) => {
                    eprintln!("error: {error}");
                    return ExitCode::FAILURE;
                }
            };
            let mut failed = false;
            for artifact in &artifacts {
                // Raw artifacts first (trace JSON + NDJSON event stream),
                // like `write` they must not be lost to a closed stdout.
                if let Err(error) = std::fs::create_dir_all(&out_dir) {
                    eprintln!("error: could not create {}: {error}", out_dir.display());
                    return ExitCode::FAILURE;
                }
                let trace_path = out_dir.join(format!("TRACE_{}_trace.json", artifact.id));
                let ndjson_path = out_dir.join(format!("TRACE_{}_events.ndjson", artifact.id));
                let stem = format!("TRACE_{}_events", artifact.id);
                for (path, contents) in [
                    (&trace_path, &artifact.chrome_json),
                    (&ndjson_path, &artifact.event_stream.to_ndjson(&stem)),
                ] {
                    if let Err(error) = std::fs::write(path, contents) {
                        eprintln!("error: could not write {}: {error}", path.display());
                        failed = true;
                    }
                }
                for (suffix, table) in [
                    ("phases", &artifact.phases),
                    ("frames", &artifact.timeline),
                    ("latency", &artifact.latency),
                ] {
                    let stem = format!("TRACE_{}_{suffix}", artifact.id);
                    if let Err(error) = write(table, &out_dir, &stem) {
                        eprintln!("error: {error}");
                        failed = true;
                    }
                }
                emit(&format_args!(
                    "trace {} [{}]: {} frames, {} events -> {} (load in Perfetto: ui.perfetto.dev)",
                    artifact.id,
                    artifact.config_label,
                    artifact.frames,
                    artifact.events.len(),
                    trace_path.display(),
                ));
            }
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "lint" => {
            if let Some(flag) = run_only_flag {
                eprintln!("{flag} only applies to `repro run`");
                usage();
            }
            if let Some(flag) = bench_only_flag {
                eprintln!("{flag} only applies to `repro bench-sim`");
                usage();
            }
            if out_flag_seen || scale_flag_seen {
                eprintln!("repro lint takes no flags, only an optional DIR");
                usage();
            }
            if verbose_flag_seen {
                eprintln!("--verbose only applies to `repro run` and `repro check`");
                usage();
            }
            if patterns.len() > 1 {
                usage();
            }
            let root = patterns
                .first()
                .map(PathBuf::from)
                .unwrap_or_else(default_lint_root);
            let report = match lint::lint_workspace(&root) {
                Ok(report) => report,
                Err(error) => {
                    eprintln!("error: could not lint {}: {error}", root.display());
                    return ExitCode::FAILURE;
                }
            };
            // One machine-readable JSON finding per line (NDJSON).
            for finding in &report.findings {
                emit(&finding.to_json());
            }
            if report.findings.is_empty() {
                emit(&format_args!(
                    "lint: clean ({} files scanned under {})",
                    report.files,
                    root.display()
                ));
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "lint: {} finding{} in {} files scanned",
                    report.findings.len(),
                    if report.findings.len() == 1 { "" } else { "s" },
                    report.files,
                );
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}
