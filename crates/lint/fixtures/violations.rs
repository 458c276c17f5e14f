// Lint self-test fixture: every rule violated, no escapes. This file is NOT
// part of any module tree — it is consumed via include_str! by the lint
// crate's tests and must never be compiled.

use std::collections::{HashMap, HashSet};
use std::time::{Instant, SystemTime};

pub fn wall_clock() -> u64 {
    let started = Instant::now();
    let _epoch = SystemTime::now();
    started.elapsed().as_nanos() as u64
}

pub fn telemetry_wall_stamp() -> u64 {
    sim_core::telemetry::cycle_stamp(Instant::now().elapsed().as_nanos() as u64)
}

pub fn hashers() -> usize {
    let map: HashMap<u8, u8> = HashMap::new();
    let set: HashSet<u8> = HashSet::new();
    map.len() + set.len()
}

pub fn prints() {
    println!("library code owning the terminal");
    eprintln!("and stderr too");
}
