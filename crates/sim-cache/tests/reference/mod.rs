//! Reference copies of the NRU, SRRIP and Intel-like replacement policies in
//! their original, allocating form: each `choose_victim` collects its
//! candidate ways into a `Vec` and scans it.  The simulator's policies select
//! victims without allocating; the differential property test drives both
//! with the same calls and compares victims and state.
//!
//! The struct and field names mirror the simulator's, so the derived `Debug`
//! renderings of a policy and its reference — every field of the state —
//! are equal exactly when their states are.

use sim_cache::policy::{ReplacementPolicy, TreePlru};
use sim_cache::prelude::WayMask;

/// NRU: the first candidate with a clear reference bit, else clear the set.
#[derive(Debug)]
pub struct Nru {
    ways: usize,
    referenced: Vec<bool>,
}

impl Nru {
    pub fn new(num_sets: usize, ways: usize) -> Nru {
        Nru {
            ways,
            referenced: vec![false; num_sets * ways],
        }
    }
}

impl ReplacementPolicy for Nru {
    fn name(&self) -> &'static str {
        "NRU"
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.referenced[set * self.ways + way] = true;
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.referenced[set * self.ways + way] = true;
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.referenced[set * self.ways + way] = false;
    }

    fn choose_victim(&mut self, set: usize, candidates: WayMask) -> Option<usize> {
        let candidates: Vec<usize> = candidates.iter().filter(|&w| w < self.ways).collect();
        if candidates.is_empty() {
            return None;
        }
        if let Some(&way) = candidates
            .iter()
            .find(|&&w| !self.referenced[set * self.ways + w])
        {
            return Some(way);
        }
        for w in 0..self.ways {
            self.referenced[set * self.ways + w] = false;
        }
        candidates.first().copied()
    }

    fn reset(&mut self) {
        self.referenced.fill(false);
    }
}

const MAX_RRPV: u8 = 3;
const INSERT_RRPV: u8 = 2;

/// SRRIP: age every candidate by one until one reaches `MAX_RRPV`.
#[derive(Debug)]
pub struct Srrip {
    ways: usize,
    rrpv: Vec<u8>,
}

impl Srrip {
    pub fn new(num_sets: usize, ways: usize) -> Srrip {
        Srrip {
            ways,
            rrpv: vec![MAX_RRPV; num_sets * ways],
        }
    }
}

impl ReplacementPolicy for Srrip {
    fn name(&self) -> &'static str {
        "SRRIP"
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = 0;
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = INSERT_RRPV;
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = MAX_RRPV;
    }

    fn choose_victim(&mut self, set: usize, candidates: WayMask) -> Option<usize> {
        let candidates: Vec<usize> = candidates.iter().filter(|&w| w < self.ways).collect();
        if candidates.is_empty() {
            return None;
        }
        loop {
            if let Some(&way) = candidates
                .iter()
                .find(|&&w| self.rrpv[set * self.ways + w] >= MAX_RRPV)
            {
                return Some(way);
            }
            for &w in &candidates {
                let idx = set * self.ways + w;
                self.rrpv[idx] = (self.rrpv[idx] + 1).min(MAX_RRPV);
            }
        }
    }

    fn reset(&mut self) {
        self.rrpv.fill(MAX_RRPV);
    }
}

/// The policies' xorshift64* generator, drawing bounded values by `%`.
#[derive(Debug)]
pub struct PolicyRng {
    state: u64,
}

impl PolicyRng {
    fn new(seed: u64) -> PolicyRng {
        PolicyRng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

/// Intel-like: Tree-PLRU with mispredicted victims and a staleness bound.
#[derive(Debug)]
pub struct IntelLike {
    plru: TreePlru,
    rng: PolicyRng,
    ways: usize,
    mispredict: f64,
    max_staleness: u32,
    staleness: Vec<u32>,
}

impl IntelLike {
    /// The default tuning (`IntelLike::DEFAULT_MISPREDICT` and
    /// `IntelLike::DEFAULT_MAX_STALENESS`), with the randomised initial tree.
    pub fn new(num_sets: usize, ways: usize, seed: u64) -> IntelLike {
        let mut plru = TreePlru::new(num_sets, ways).unwrap();
        let mut rng = PolicyRng::new(seed);
        for set in 0..num_sets {
            plru.set_raw_bits(set, rng.next_u64());
        }
        IntelLike {
            plru,
            rng,
            ways,
            mispredict: sim_cache::policy::IntelLike::DEFAULT_MISPREDICT,
            max_staleness: sim_cache::policy::IntelLike::DEFAULT_MAX_STALENESS,
            staleness: vec![0; num_sets * ways],
        }
    }
}

impl ReplacementPolicy for IntelLike {
    fn name(&self) -> &'static str {
        "Intel-like"
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.plru.on_hit(set, way);
        self.staleness[set * self.ways + way] = 0;
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.plru.on_fill(set, way);
        for w in 0..self.ways {
            let idx = set * self.ways + w;
            if w == way {
                self.staleness[idx] = 0;
            } else {
                self.staleness[idx] = self.staleness[idx].saturating_add(1);
            }
        }
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.plru.on_invalidate(set, way);
        self.staleness[set * self.ways + way] = 0;
    }

    fn choose_victim(&mut self, set: usize, candidates: WayMask) -> Option<usize> {
        let mask = candidates.and(WayMask::all(self.ways));
        if mask.is_empty() {
            return None;
        }
        let most_stale = mask
            .iter()
            .max_by_key(|&w| self.staleness[set * self.ways + w])
            .filter(|&w| self.staleness[set * self.ways + w] >= self.max_staleness);
        if let Some(stale) = most_stale {
            return Some(stale);
        }
        let plru_choice = self.plru.choose_victim(set, mask)?;
        if mask.count() > 1 && self.rng.chance(self.mispredict) {
            let others: Vec<usize> = mask.iter().filter(|&w| w != plru_choice).collect();
            return Some(others[self.rng.below(others.len())]);
        }
        Some(plru_choice)
    }

    fn reset(&mut self) {
        self.plru.reset();
        self.staleness.fill(0);
    }
}
