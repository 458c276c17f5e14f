//! The registry workload's in-process parts: its set-up, and the per-layer
//! pass that runs every sweep point of every scenario at full scale one
//! after another on one thread through `Scenario::run_point`, then folds
//! them with `Scenario::assemble`.

use crate::spans::{Clock, Recorder};
use crate::stats::median;
use crate::Metrics;
use runner::scenario::PointCtx;
use runner::Scale;
use std::hint::black_box;
use std::path::Path;

/// The scenarios whose points run a `ChannelSession` frame loop; their share
/// of point time bounds what a frame-path gain can move in the registry.
const SESSION_SCENARIOS: [&str; 4] = ["fig5-7", "fig6", "bandwidth", "hierarchy-matrix"];

/// Set-ups the registry workload times per run.
const SETUP_REPS: usize = 201;

/// The registry workload's set-up: what `repro run all --full` does before
/// its first point — build the registry, select every scenario and derive
/// each point's context. Reports the median of [`SETUP_REPS`] set-ups.
pub fn setup(seed: u64) -> Result<Metrics, String> {
    let clock = Clock::start();
    let mut setup_ns = Vec::with_capacity(SETUP_REPS);
    let mut points = 0;
    for _ in 0..SETUP_REPS {
        let start = clock.ns();
        let registry = bench::registry();
        let contexts: Vec<PointCtx> = registry
            .select(&["all".to_owned()])?
            .iter()
            .flat_map(|scenario| {
                (0..(scenario.points)(Scale::Full)).map(move |index| PointCtx {
                    scale: Scale::Full,
                    seed: scenario.point_seed(seed, index),
                    index,
                })
            })
            .collect();
        setup_ns.push(clock.ns() - start);
        points = black_box(contexts).len();
    }
    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setup_ns) * 1e-9);
    metrics.put("points", points as f64);
    Ok(metrics)
}

pub fn run(seed: u64, seconds: f64, spans: &Path) -> Result<Metrics, String> {
    let registry = bench::registry();
    let scenarios = registry.scenarios();
    let clock = Clock::start();
    let mut rec = Recorder::new(clock);
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Per pass: each scenario's point + assemble time, and the slowest point.
    let mut scenario_ns: Vec<Vec<u64>> = vec![Vec::new(); scenarios.len()];
    let mut point_ns: Vec<Vec<u64>> = vec![Vec::new(); scenarios.len()];
    let mut longest_ns = Vec::new();
    let mut pass = 0u64;
    while pass == 0 || clock.seconds() < seconds {
        let pass_span = rec.open("pass", None, pass);
        let mut longest = 0;
        for (slot, scenario) in scenarios.iter().enumerate() {
            let scenario_span = rec.open("scenario", Some(pass_span), pass);
            let mut outputs = Vec::new();
            let mut points_total = 0;
            for index in 0..(scenario.points)(Scale::Full) {
                let ctx = PointCtx {
                    scale: Scale::Full,
                    seed: scenario.point_seed(seed, index),
                    index,
                };
                let span = rec.open("point", Some(scenario_span), pass);
                let output = (scenario.run_point)(&ctx);
                let ns = rec.close(span);
                attempted += 1;
                points_total += ns;
                longest = longest.max(ns);
                match output {
                    Ok(output) => outputs.push(output),
                    Err(error) => {
                        failed += 1;
                        eprintln!("{} point {index}: {error}", scenario.id);
                    }
                }
            }
            let span = rec.open("assemble", Some(scenario_span), pass);
            black_box((scenario.assemble)(Scale::Full, &outputs));
            rec.close(span);
            scenario_ns[slot].push(rec.close(scenario_span));
            point_ns[slot].push(points_total);
        }
        rec.close(pass_span);
        longest_ns.push(longest);
        pass += 1;
    }

    let mut metrics = Metrics::default();
    let mut session_ns = 0.0;
    let mut all_ns = 0.0;
    for (slot, scenario) in scenarios.iter().enumerate() {
        metrics.put_owned(
            format!("bench.{}.ms", scenario.id),
            median(&scenario_ns[slot]) * 1e-6,
        );
        let points = median(&point_ns[slot]);
        all_ns += points;
        if SESSION_SCENARIOS.contains(&scenario.id) {
            session_ns += points;
        }
    }
    metrics.put("bench.session_share", session_ns / all_ns.max(1.0));
    metrics.put("runner.longest_point_ms", median(&longest_ns) * 1e-6);
    metrics.put("passes", pass as f64);
    metrics.put("attempted", attempted as f64);
    metrics.put("failed", failed as f64);
    rec.write(spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    Ok(metrics)
}
