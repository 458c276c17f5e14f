//! `perfbench` — the in-process half of the repository benchmark.
//!
//! ```text
//! perfbench channel <channel-fast|channel-dense> --seed N --seconds S --counts PATH [--spans PATH]
//! perfbench points --seed N --seconds S --spans PATH
//! perfbench setup --seed N
//! ```
//!
//! `channel` runs a channel workload for `S` seconds; with `--spans` it is
//! the traced run and reports per-layer figures instead of end-to-end ones.
//! Either way it first writes the per-frame simulated counts of a fixed
//! reference session to `--counts`. `points` times every registry sweep
//! point on one thread; `setup` times the registry's set-up. Each prints one JSON object of named numbers on
//! stdout; `perfbench/run.py` turns them into the benchmark's result.

mod channel;
mod points;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Named numbers in insertion order, printed as one JSON object.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_owned(name.to_owned(), value);
    }

    pub fn put_owned(&mut self, name: String, value: f64) {
        self.0.push((name, value));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}\"{name}\": {value:?}").expect("writing to a String cannot fail");
        }
        out.push('}');
        out
    }
}

struct Args {
    seed: u64,
    seconds: f64,
    counts: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse(rest: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: bench::SEED,
        seconds: 10.0,
        counts: None,
        spans: None,
    };
    let mut iter = rest.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--counts" => args.counts = Some(PathBuf::from(value)),
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run(argv: &[String]) -> Result<Metrics, String> {
    match argv {
        [command, workload, rest @ ..] if command == "channel" => {
            let workload = channel::Workload::named(workload)
                .ok_or_else(|| format!("unknown channel workload {workload}"))?;
            let args = parse(rest)?;
            let counts = args.counts.ok_or("channel needs --counts")?;
            match args.spans {
                Some(spans) => {
                    channel::run_traced(&workload, args.seed, args.seconds, &counts, &spans)
                }
                None => channel::run(&workload, args.seed, args.seconds, &counts),
            }
        }
        [command, rest @ ..] if command == "setup" => points::setup(parse(rest)?.seed),
        [command, rest @ ..] if command == "points" => {
            let args = parse(rest)?;
            let spans = args.spans.ok_or("points needs --spans")?;
            points::run(args.seed, args.seconds, &spans)
        }
        _ => Err(
            "usage: perfbench channel <workload> ... | perfbench points ... | perfbench setup ..."
                .to_owned(),
        ),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(metrics) => {
            println!("{}", metrics.to_json());
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::from(2)
        }
    }
}
