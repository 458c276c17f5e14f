//! Experiment scale and the one sizing table every scenario draws from.
//!
//! The paper's evaluation runs at two sizes: a seconds-long smoke
//! configuration (`Quick`, the CI default) and the paper-comparable
//! configuration (`Full`). Historically each experiment hardcoded its own
//! trial/sample/frame counts; they now all live in the [`Sizes`] table so
//! the scenario documentation and the code cannot drift.

/// Experiment scale: how many trials/frames/samples to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Fast smoke-test sizes (seconds).
    Quick,
    /// Paper-comparable sizes (minutes).
    Full,
}

/// The sweep sizes used at one [`Scale`].
///
/// One row of the two-row sizing table ([`Scale::sizes`]); every registered
/// scenario reads its iteration counts from here and nowhere else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Monte-Carlo trials per eviction-probability cell (Tables II and V).
    pub trials: usize,
    /// Latency samples per calibration level (Table IV, Figure 4).
    pub samples: usize,
    /// 128-bit frames per error-rate point (Figure 6, bandwidth summary).
    pub frames: usize,
    /// Trials per side-channel gadget scenario (Section IX).
    pub side_channel_trials: usize,
    /// Sender profiling window in cycles (Tables VI and VII).
    pub sender_window: u64,
    /// Payload bits for the Figure 8 noise-robustness comparison.
    pub comparison_bits: usize,
    /// Samples per class for the defense evaluation (Section VIII).
    pub defense_samples: usize,
    /// Dirty-line counts swept by the Figure 6 error-rate grid.
    pub error_rate_dirty_counts: &'static [usize],
}

/// Sizing for [`Scale::Quick`].
pub const QUICK: Sizes = Sizes {
    trials: 400,
    samples: 150,
    frames: 4,
    side_channel_trials: 120,
    sender_window: 4_000_000,
    comparison_bits: 64,
    defense_samples: 150,
    error_rate_dirty_counts: &[1, 4, 8],
};

/// Sizing for [`Scale::Full`].
pub const FULL: Sizes = Sizes {
    trials: 10_000,
    samples: 1_000,
    frames: 90,
    side_channel_trials: 1_000,
    sender_window: 22_000_000,
    comparison_bits: 256,
    defense_samples: 400,
    error_rate_dirty_counts: &[1, 2, 3, 4, 5, 6, 7, 8],
};

impl Scale {
    /// The sizing table for this scale.
    pub fn sizes(self) -> &'static Sizes {
        match self {
            Scale::Quick => &QUICK,
            Scale::Full => &FULL,
        }
    }

    /// Stable lower-case label (`"quick"` / `"full"`), used by the manifest.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_is_strictly_larger_than_quick_everywhere() {
        let q = Scale::Quick.sizes();
        let f = Scale::Full.sizes();
        assert!(f.trials > q.trials);
        assert!(f.samples > q.samples);
        assert!(f.frames > q.frames);
        assert!(f.side_channel_trials > q.side_channel_trials);
        assert!(f.sender_window > q.sender_window);
        assert!(f.comparison_bits > q.comparison_bits);
        assert!(f.defense_samples > q.defense_samples);
        assert!(f.error_rate_dirty_counts.len() > q.error_rate_dirty_counts.len());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Scale::Quick.label(), "quick");
        assert_eq!(Scale::Full.label(), "full");
    }
}
