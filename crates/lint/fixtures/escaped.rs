// Lint self-test fixture: the same violations as violations.rs, each carrying
// a justified lint:allow escape. Placed (synthetically) as a non-root module,
// this file must lint clean. Not part of any module tree; consumed via
// include_str! only.

// Keyed lookups only, never iterated: lint:allow(default-hasher)
use std::collections::HashMap;
use std::time::Instant; // wall time never reaches results: lint:allow(wall-clock)

pub fn wall_clock() -> u64 {
    let started = Instant::now(); // lint:allow(wall-clock) progress display only
    started.elapsed().as_nanos() as u64
}

pub fn telemetry_wall_stamp() -> u64 {
    // Replay tool mapping wall time onto cycles: lint:allow(telemetry-wall-clock, wall-clock)
    sim_core::telemetry::cycle_stamp(Instant::now().elapsed().as_nanos() as u64)
}

pub fn hashers() -> usize {
    let map: HashMap<u8, u8> = HashMap::new(); // lint:allow(default-hasher) keyed only
    map.len()
}

pub fn prints() {
    // Operator-facing progress line: lint:allow(println-in-lib)
    eprintln!("progress 1/1");
}
