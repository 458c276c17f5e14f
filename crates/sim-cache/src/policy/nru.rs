//! Not-recently-used replacement.

use super::ReplacementPolicy;
use crate::waymask::WayMask;

/// NRU: a single reference bit per line.
///
/// On an access the line's bit is set; the victim is the lowest-indexed
/// candidate with a clear bit, and if every candidate has its bit set all
/// bits are cleared first.  NRU is a common low-cost approximation in
/// embedded cores and serves as another ablation point for the WB channel's
/// claim that the attack is policy-agnostic.
#[derive(Debug, Clone)]
pub struct Nru {
    ways: usize,
    referenced: Vec<bool>,
}

impl Nru {
    /// Creates NRU metadata for `num_sets` sets of `ways` ways.
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
        let mask = candidates.and(WayMask::all(self.ways));
        let first = mask.first()?;
        let row = &mut self.referenced[set * self.ways..(set + 1) * self.ways];
        if let Some(way) = mask.iter().find(|&w| !row[w]) {
            return Some(way);
        }
        // All candidates referenced: clear the whole set's bits (the classic
        // NRU "generation" reset) and pick the first candidate.
        row.fill(false);
        Some(first)
    }

    fn reset(&mut self) {
        self.referenced.fill(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreferenced_way_is_preferred() {
        let mut nru = Nru::new(1, 4);
        nru.on_fill(0, 0);
        nru.on_fill(0, 1);
        nru.on_fill(0, 3);
        // Way 2 never referenced.
        assert_eq!(nru.choose_victim(0, WayMask::all(4)), Some(2));
    }

    #[test]
    fn generation_reset_when_all_referenced() {
        let mut nru = Nru::new(1, 4);
        for w in 0..4 {
            nru.on_fill(0, w);
        }
        // Everything referenced: the reset kicks in and way 0 is chosen.
        assert_eq!(nru.choose_victim(0, WayMask::all(4)), Some(0));
        // After the reset, bits are clear, so way 0 again (still unreferenced).
        assert_eq!(nru.choose_victim(0, WayMask::all(4)), Some(0));
    }

    #[test]
    fn mask_restricts_victims_and_reset_works() {
        let mut nru = Nru::new(1, 4);
        for w in 0..4 {
            nru.on_fill(0, w);
        }
        let mask = WayMask::EMPTY.with(1).with(2);
        let v = nru.choose_victim(0, mask).unwrap();
        assert!(v == 1 || v == 2);
        assert_eq!(nru.choose_victim(0, WayMask::EMPTY), None);
        nru.reset();
        assert_eq!(nru.choose_victim(0, WayMask::all(4)), Some(0));
    }
}
