//! # lint
//!
//! The workspace determinism linter behind `repro lint`: a source scanner
//! (std plus `analysis`'s JSON escaper) enforcing the repo-specific hygiene
//! rules that bit-exact reproduction depends on but `clippy` has no opinion
//! about.
//!
//! ## Rules
//!
//! | rule | scope | meaning |
//! |---|---|---|
//! | `wall-clock` | everywhere except the bench harness and the runner's wall-time manifest field (`crates/runner/src/executor.rs`) | no `Instant::now` / `SystemTime`: simulated time is the only clock results may depend on |
//! | `telemetry-wall-clock` | everywhere, **including** the wall-clock-exempt crates | no `Instant::now` / `SystemTime` on a line that touches `telemetry`: trace events are timestamped in simulated cycles only, even in code that is otherwise allowed to read the wall clock |
//! | `default-hasher` | `sim-cache`, `sim-core`, `core`, `baselines`, `defenses` | no std `HashMap`/`HashSet`: the default hasher is seeded per-process, so iteration order is not reproducible |
//! | `println-in-lib` | every library file (anything not under a `bin/` directory) | no `println!`/`eprintln!`: libraries report through return values, binaries own the terminal |
//! | `unsafe-header` | every crate root (`src/lib.rs`) | the `#![forbid(unsafe_code)]` header must be present, making the workspace-level deny locally visible and unoverridable |
//!
//! ## Escapes
//!
//! A finding is suppressed by `// lint:allow(<rule>)` on the offending line
//! or the line directly above it (commas separate multiple rules). Escapes
//! are expected to carry a justification comment, e.g. the opt-in progress
//! `eprintln!` in the runner's executor.
//!
//! ## What is scanned
//!
//! [`lint_workspace`] walks every `.rs` file under a `src/` directory of the
//! workspace root and its `crates/` members, in sorted order. `shims/`
//! (vendored stand-ins for crates.io dependencies), `target/`, hidden
//! directories, test/bench/example trees and this crate's own `fixtures/`
//! (committed rule violations for the self-tests) are not scanned. Regions
//! under `#[cfg(test)]` are skipped, and comments, string literals and char
//! literals are blanked before token matching — a rule name appearing in a
//! doc comment is not a finding.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

use analysis::table::json_string;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Every rule the linter knows, in report order.
pub const RULES: [&str; 5] = [
    "wall-clock",
    "telemetry-wall-clock",
    "default-hasher",
    "println-in-lib",
    "unsafe-header",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes) of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule (one of [`RULES`]).
    pub rule: &'static str,
    /// What was found and why it matters.
    pub message: String,
}

impl Finding {
    /// The finding as one machine-readable JSON object (NDJSON-friendly).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"path\":{},\"line\":{},\"rule\":\"{}\",\"message\":{}}}",
            json_string(&self.path),
            self.line,
            self.rule,
            json_string(&self.message)
        )
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Outcome of one [`lint_workspace`] pass.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Files scanned.
    pub files: usize,
    /// Findings across all files, in path order.
    pub findings: Vec<Finding>,
}

/// Lints the workspace rooted at `root` (the directory holding the
/// workspace `Cargo.toml`).
///
/// # Errors
///
/// Returns I/O errors from walking and reading sources; findings are data
/// in the report, not errors.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_sources(root, root, &mut files)?;
    files.sort();
    let mut report = LintReport::default();
    for file in files {
        let source = fs::read_to_string(&file)?;
        let relative = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        report.files += 1;
        report.findings.extend(lint_source(&relative, &source));
    }
    Ok(report)
}

/// Recursively collects the `.rs` files to scan: anything under a `src`
/// directory, skipping `shims`, `target`, `fixtures` and hidden directories.
fn collect_sources(root: &Path, dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.')
                || name == "target"
                || name == "fixtures"
                || (name == "shims" && dir == root)
            {
                continue;
            }
            collect_sources(root, &path, files)?;
        } else if name.ends_with(".rs") {
            let under_src = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .any(|c| c.as_os_str() == "src");
            if under_src {
                files.push(path);
            }
        }
    }
    Ok(())
}

/// Lints one source file given its workspace-relative `path` (forward
/// slashes) — the pure core of [`lint_workspace`], directly testable
/// against fixture strings.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let stripped = strip_comments_and_strings(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let stripped_lines: Vec<&str> = stripped.lines().collect();
    let in_test = test_regions(&stripped_lines);
    let allows = collect_allows(&raw_lines);

    let allowed = |line: usize, rule: &str| {
        allows
            .iter()
            .any(|(l, r)| r == rule && (*l == line || l + 1 == line))
    };

    let mut push = |line: usize, rule: &'static str, message: String| {
        if !allowed(line, rule) {
            findings.push(Finding {
                path: path.to_owned(),
                line,
                rule,
                message,
            });
        }
    };

    for (index, text) in stripped_lines.iter().enumerate() {
        let line = index + 1;
        if in_test.get(index).copied().unwrap_or(false) {
            continue;
        }
        if wall_clock_applies(path) {
            for token in ["Instant::now", "SystemTime"] {
                if text.contains(token) {
                    push(
                        line,
                        "wall-clock",
                        format!(
                            "`{token}`: simulated time is the only clock results may depend on"
                        ),
                    );
                }
            }
        }
        // No path exemptions here: even crates allowed to read the wall
        // clock (bench, the runner's manifest field) must never
        // let it reach a telemetry call site.
        if text.contains("telemetry") {
            for token in ["Instant::now", "SystemTime"] {
                if text.contains(token) {
                    push(
                        line,
                        "telemetry-wall-clock",
                        format!(
                            "`{token}` next to a telemetry call site: trace events are \
                             timestamped in simulated cycles, never wall time"
                        ),
                    );
                }
            }
        }
        if default_hasher_applies(path) {
            for token in ["HashMap", "HashSet"] {
                if text.contains(token) {
                    push(
                        line,
                        "default-hasher",
                        format!(
                            "std `{token}` uses a per-process random hasher; iterate a \
                             `BTreeMap`/sorted vec instead, or justify a keyed-only use \
                             with lint:allow"
                        ),
                    );
                }
            }
        }
        if println_applies(path) {
            // `eprintln!` contains `println!`, so match it first and only
            // count a plain `println!` that is not part of it.
            if text.contains("eprintln!") {
                push(
                    line,
                    "println-in-lib",
                    "`eprintln!` in library code: report through return values".to_owned(),
                );
            }
            let plain_println = text
                .match_indices("println!")
                .any(|(at, _)| at == 0 || text.as_bytes()[at - 1] != b'e');
            if plain_println {
                push(
                    line,
                    "println-in-lib",
                    "`println!` in library code: report through return values".to_owned(),
                );
            }
        }
    }

    if is_crate_root(path) && !source.contains("#![forbid(unsafe_code)]") {
        findings.push(Finding {
            path: path.to_owned(),
            line: 1,
            rule: "unsafe-header",
            message: "crate root is missing the `#![forbid(unsafe_code)]` header".to_owned(),
        });
    }

    findings
}

/// `wall-clock` exemptions: the bench harness measures throughput and the
/// runner records wall time in the manifest.
fn wall_clock_applies(path: &str) -> bool {
    !(path.starts_with("crates/bench/") || path == "crates/runner/src/executor.rs")
}

/// `default-hasher` applies to the deterministic simulation crates.
fn default_hasher_applies(path: &str) -> bool {
    [
        "crates/sim-cache/",
        "crates/sim-core/",
        "crates/core/",
        "crates/baselines/",
        "crates/defenses/",
    ]
    .iter()
    .any(|prefix| path.starts_with(prefix))
}

/// `println-in-lib` applies to everything that is not a binary target.
fn println_applies(path: &str) -> bool {
    !path.contains("/bin/")
}

fn is_crate_root(path: &str) -> bool {
    path == "src/lib.rs" || (path.starts_with("crates/") && path.ends_with("/src/lib.rs"))
}

/// The `(line, rule)` pairs suppressed by `// lint:allow(...)` markers,
/// collected from the *raw* source (the marker itself lives in a comment).
fn collect_allows(raw_lines: &[&str]) -> Vec<(usize, String)> {
    let mut allows = Vec::new();
    for (index, text) in raw_lines.iter().enumerate() {
        let Some(start) = text.find("lint:allow(") else {
            continue;
        };
        let inner = &text[start + "lint:allow(".len()..];
        let Some(end) = inner.find(')') else {
            continue;
        };
        for rule in inner[..end].split(',') {
            allows.push((index + 1, rule.trim().to_owned()));
        }
    }
    allows
}

/// Marks the lines covered by `#[cfg(test)]` items (the attribute line
/// through the end of the brace-balanced block, or the terminating `;` for
/// block-less items).
fn test_regions(stripped_lines: &[&str]) -> Vec<bool> {
    let mut in_test = vec![false; stripped_lines.len()];
    let mut i = 0;
    while i < stripped_lines.len() {
        if !stripped_lines[i].contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut j = i;
        'mark: while j < stripped_lines.len() {
            in_test[j] = true;
            for byte in stripped_lines[j].bytes() {
                match byte {
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => depth -= 1,
                    b';' if !opened => break 'mark,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    in_test
}

/// Blanks comments and the contents of string/char literals with spaces
/// (newlines preserved) so token matching never fires inside either.
/// Handles line and nested block comments, escapes, raw strings
/// (`r"…"`/`r#"…"#`), byte strings and char literals vs lifetimes.
fn strip_comments_and_strings(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let blank = |b: u8| if b == b'\n' { b'\n' } else { b' ' };
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let prev_is_ident = i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
        match b {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                out.extend([b' ', b' ']);
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out.extend([b' ', b' ']);
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out.extend([b' ', b' ']);
                        i += 2;
                    } else {
                        out.push(blank(bytes[i]));
                        i += 1;
                    }
                }
            }
            b'"' => {
                out.push(b'"');
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' {
                        out.push(b' ');
                        i += 1;
                        if i < bytes.len() {
                            out.push(blank(bytes[i]));
                            i += 1;
                        }
                    } else if bytes[i] == b'"' {
                        out.push(b'"');
                        i += 1;
                        break;
                    } else {
                        out.push(blank(bytes[i]));
                        i += 1;
                    }
                }
            }
            b'r' if !prev_is_ident => {
                // Possible raw string: r", r#", r##" ...
                let mut j = i + 1;
                let mut hashes = 0;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) == Some(&b'"') {
                    out.resize(out.len() + (j - i + 1), b' ');
                    i = j + 1;
                    // Scan for `"` followed by `hashes` '#'s.
                    while i < bytes.len() {
                        if bytes[i] == b'"'
                            && bytes[i + 1..]
                                .iter()
                                .take(hashes)
                                .filter(|&&b| b == b'#')
                                .count()
                                == hashes
                        {
                            out.resize(out.len() + hashes + 1, b' ');
                            i += 1 + hashes;
                            break;
                        }
                        out.push(blank(bytes[i]));
                        i += 1;
                    }
                } else {
                    out.push(b'r');
                    i += 1;
                }
            }
            b'\'' => {
                if bytes.get(i + 1) == Some(&b'\\') {
                    // Escaped char literal: blank through the closing quote.
                    out.push(b'\'');
                    i += 1;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        out.push(blank(bytes[i]));
                        i += 1;
                    }
                    if i < bytes.len() {
                        out.push(b'\'');
                        i += 1;
                    }
                } else if let Some(close) =
                    (i + 2..(i + 6).min(bytes.len())).find(|&j| bytes[j] == b'\'')
                {
                    // Simple (possibly multi-byte) char literal 'x'.
                    out.push(b'\'');
                    for &inner in &bytes[i + 1..close] {
                        out.push(blank(inner));
                    }
                    out.push(b'\'');
                    i = close + 1;
                } else {
                    // A lifetime.
                    out.push(b'\'');
                    i += 1;
                }
            }
            _ => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    const VIOLATIONS: &str = include_str!("../fixtures/violations.rs");
    const ESCAPED: &str = include_str!("../fixtures/escaped.rs");

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn violations_fixture_trips_every_rule() {
        // Pretend the fixture sits in a crate where every rule applies.
        let findings = lint_source("crates/sim-core/src/lib.rs", VIOLATIONS);
        for rule in RULES {
            assert!(
                findings.iter().any(|f| f.rule == rule),
                "missing {rule}: {findings:?}"
            );
        }
    }

    #[test]
    fn escaped_fixture_is_clean_except_unsafe_header() {
        // Every violation carries a lint:allow escape; only the missing
        // crate-root header (not escapable) remains when placed at a root.
        let findings = lint_source("crates/sim-core/src/noise.rs", ESCAPED);
        assert_eq!(findings, Vec::new(), "{findings:?}");
    }

    #[test]
    fn findings_carry_line_numbers_and_render_as_json() {
        let findings = lint_source("crates/sim-core/src/lib.rs", VIOLATIONS);
        let wall = findings.iter().find(|f| f.rule == "wall-clock").unwrap();
        assert!(wall.line > 1);
        let json = wall.to_json();
        assert!(json.starts_with("{\"path\":\"crates/sim-core/src/lib.rs\",\"line\":"));
        assert!(json.contains("\"rule\":\"wall-clock\""));
        assert!(wall.to_string().contains("[wall-clock]"));
    }

    #[test]
    fn comments_strings_and_doc_examples_do_not_trip_rules() {
        let source = "\
//! A doc mentioning HashMap and Instant::now and println!.
// let x: HashMap<u8, u8>; SystemTime::now();
/* block HashMap */
fn f() -> &'static str {
    \"HashMap println! .unwrap() Instant::now\"
}
";
        assert_eq!(lint_source("crates/sim-core/src/a.rs", source), Vec::new());
    }

    #[test]
    fn raw_strings_char_literals_and_lifetimes_are_handled() {
        let source = "\
fn g<'a>(x: &'a str) -> char {
    let _raw = r#\"HashMap \"quoted\" println!\"#;
    let _byte = b'{';
    let _ch = '\\'';
    'x'
}
";
        assert_eq!(lint_source("crates/sim-core/src/b.rs", source), Vec::new());
    }

    #[test]
    fn cfg_test_regions_are_skipped() {
        let source = "\
pub fn ok() {}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() {
        let _ = HashMap::<u8, u8>::new().len().to_string().parse::<u8>().unwrap();
        println!(\"fine in tests\");
    }
}
";
        assert_eq!(lint_source("crates/sim-cache/src/x.rs", source), Vec::new());
    }

    #[test]
    fn blockless_cfg_test_items_do_not_swallow_the_file() {
        let source = "\
#[cfg(test)]
use std::collections::HashMap;

pub fn bad() -> std::collections::HashMap<u8, u8> {
    std::collections::HashMap::new()
}
";
        let findings = lint_source("crates/sim-cache/src/y.rs", source);
        assert!(findings.iter().all(|f| f.rule == "default-hasher"));
        assert_eq!(findings.len(), 2, "{findings:?}");
    }

    #[test]
    fn allow_escape_works_on_same_and_previous_line() {
        let same = "use std::collections::HashMap; // lint:allow(default-hasher) keyed only\n";
        assert_eq!(lint_source("crates/sim-cache/src/z.rs", same), Vec::new());
        let above =
            "// keyed lookups only: lint:allow(default-hasher)\nuse std::collections::HashMap;\n";
        assert_eq!(lint_source("crates/sim-cache/src/z.rs", above), Vec::new());
        let wrong_rule = "// lint:allow(wall-clock)\nuse std::collections::HashMap;\n";
        assert_eq!(
            rules_of(&lint_source("crates/sim-cache/src/z.rs", wrong_rule)),
            vec!["default-hasher"]
        );
    }

    #[test]
    fn rule_scoping_follows_paths() {
        let clock = "fn f() { let _ = std::time::Instant::now(); }\n";
        assert!(!lint_source("crates/runner/src/pool.rs", clock).is_empty());
        assert_eq!(
            lint_source("crates/runner/src/executor.rs", clock),
            Vec::new()
        );
        assert_eq!(
            lint_source("crates/bench/src/bench_sim.rs", clock),
            Vec::new()
        );

        let hasher = "use std::collections::HashSet;\n";
        assert!(!lint_source("crates/defenses/src/lib.rs", hasher)
            .iter()
            .all(|f| f.rule != "default-hasher"));
        assert_eq!(lint_source("crates/runner/src/pool.rs", hasher), Vec::new());

        let print = "fn f() { println!(\"x\"); }\n";
        assert!(!lint_source("crates/analysis/src/table.rs", print).is_empty());
        assert_eq!(
            lint_source("crates/bench/src/bin/repro.rs", print),
            Vec::new()
        );
    }

    #[test]
    fn telemetry_wall_clock_has_no_path_exemptions() {
        let stamp = "fn f() { let _ = telemetry_stamp(Instant::now()); }\n";
        // The wall-clock-exempt crates still trip the telemetry variant…
        assert_eq!(
            rules_of(&lint_source("crates/bench/src/bench_sim.rs", stamp)),
            vec!["telemetry-wall-clock"]
        );
        assert_eq!(
            rules_of(&lint_source("crates/runner/src/executor.rs", stamp)),
            vec!["telemetry-wall-clock"]
        );
        // …while a simulation crate trips both clock rules on that line.
        let both = rules_of(&lint_source("crates/sim-core/src/machine.rs", stamp));
        assert!(both.contains(&"wall-clock"), "{both:?}");
        assert!(both.contains(&"telemetry-wall-clock"), "{both:?}");
        // Wall time away from telemetry keeps its existing scoping.
        let clock = "fn f() { let _ = std::time::Instant::now(); }\n";
        assert_eq!(
            lint_source("crates/bench/src/bench_sim.rs", clock),
            Vec::new()
        );
        // Telemetry without wall time is, of course, fine anywhere.
        let pure = "fn f(s: &mut telemetry::TraceSink, at: u64) { s.end(0, \"x\", at); }\n";
        assert_eq!(lint_source("crates/core/src/session.rs", pure), Vec::new());
    }

    #[test]
    fn unsafe_header_rule_checks_crate_roots_only() {
        let no_header = "pub fn f() {}\n";
        assert_eq!(
            rules_of(&lint_source("crates/analysis/src/lib.rs", no_header)),
            vec!["unsafe-header"]
        );
        assert_eq!(
            rules_of(&lint_source("src/lib.rs", no_header)),
            vec!["unsafe-header"]
        );
        assert_eq!(
            lint_source("crates/analysis/src/table.rs", no_header),
            Vec::new()
        );
        let with_header = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert_eq!(
            lint_source("crates/analysis/src/lib.rs", with_header),
            Vec::new()
        );
    }
}
