//! Property-based tests for the analysis primitives (edit distance metric
//! axioms, the banded scorer against the full-matrix oracle, CDF
//! monotonicity, threshold correctness).

mod oracle;

use analysis::edit_distance::{
    bit_error_rate, bits_to_bytes, bytes_to_bits, edit_distance, scored_breakdown, ErrorBreakdown,
};
use analysis::histogram::Cdf;
use analysis::stats::Summary;
use analysis::threshold::BinaryThreshold;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The edit distance is a metric: identity, symmetry and the triangle
    /// inequality hold on bit sequences.
    #[test]
    fn edit_distance_is_a_metric(
        a in proptest::collection::vec(any::<bool>(), 0..48),
        b in proptest::collection::vec(any::<bool>(), 0..48),
        c in proptest::collection::vec(any::<bool>(), 0..48),
    ) {
        prop_assert_eq!(edit_distance(&a, &a), 0);
        prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
        prop_assert!(edit_distance(&a, &c) <= edit_distance(&a, &b) + edit_distance(&b, &c));
        // Bounded by the longer length and at least the length difference.
        let d = edit_distance(&a, &b);
        prop_assert!(d <= a.len().max(b.len()));
        prop_assert!(d >= a.len().abs_diff(b.len()));
    }

    /// The per-type breakdown always sums to the edit distance.
    #[test]
    fn breakdown_total_equals_distance(
        a in proptest::collection::vec(any::<bool>(), 0..40),
        b in proptest::collection::vec(any::<bool>(), 0..40),
    ) {
        let breakdown = scored_breakdown(&a, &b).1;
        prop_assert_eq!(breakdown.total(), edit_distance(&a, &b));
    }

    /// The banded scorer returns the full-matrix oracle's distance and
    /// breakdown on unrelated sequences.
    #[test]
    fn banded_scoring_matches_the_oracle(
        sent in proptest::collection::vec(any::<bool>(), 0..300),
        received in proptest::collection::vec(any::<bool>(), 0..300),
    ) {
        prop_assert_eq!(
            scored_breakdown(&sent, &received),
            oracle::scored_breakdown(&sent, &received)
        );
    }

    /// Same, on `sent` plus up to 40 random flips, insertions and deletions,
    /// so the band has to double several times.
    #[test]
    fn banded_scoring_matches_the_oracle_on_edited_copies(
        sent in proptest::collection::vec(any::<bool>(), 0..300),
        edits in proptest::collection::vec((0u8..3, 0usize..300, any::<bool>()), 0..40),
    ) {
        let mut received = sent.clone();
        for (kind, at, bit) in edits {
            let at = at % (received.len() + 1);
            match kind {
                0 if at < received.len() => received[at] = !received[at],
                1 => received.insert(at, bit),
                _ if at < received.len() => {
                    received.remove(at);
                }
                _ => {}
            }
        }
        prop_assert_eq!(
            scored_breakdown(&sent, &received),
            oracle::scored_breakdown(&sent, &received)
        );
    }

    /// Bit error rate is normalised to the sent length and bounded.
    #[test]
    fn bit_error_rate_is_bounded(
        sent in proptest::collection::vec(any::<bool>(), 1..64),
        received in proptest::collection::vec(any::<bool>(), 0..64),
    ) {
        let ber = bit_error_rate(&sent, &received);
        prop_assert!(ber >= 0.0);
        // Worst case: every sent bit lost plus extra insertions.
        prop_assert!(ber <= (sent.len().max(received.len()) as f64) / sent.len() as f64);
    }

    /// Bytes -> bits -> bytes round-trips exactly.
    #[test]
    fn byte_bit_round_trip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let bits = bytes_to_bits(&bytes);
        prop_assert_eq!(bits.len(), bytes.len() * 8);
        prop_assert_eq!(bits_to_bytes(&bits), bytes);
    }

    /// Empirical CDFs are monotone, bounded by [0, 1] and end at 1.
    #[test]
    fn cdf_is_monotone(samples in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let cdf = Cdf::from_samples(&samples);
        let mut previous = 0.0;
        for point in &cdf.points {
            prop_assert!(point.fraction >= previous - 1e-12);
            prop_assert!(point.fraction <= 1.0 + 1e-12);
            previous = point.fraction;
        }
        prop_assert!((previous - 1.0).abs() < 1e-9);
        // The CDF evaluated at the maximum sample is 1.
        let max = samples.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!((cdf.at(max) - 1.0).abs() < 1e-9);
    }

    /// Summary statistics respect min <= percentiles <= max and the mean lies
    /// within [min, max].
    #[test]
    fn summary_orderings(samples in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let s = Summary::of(&samples).unwrap();
        prop_assert!(s.min <= s.p05 + 1e-9);
        prop_assert!(s.p05 <= s.median + 1e-9);
        prop_assert!(s.median <= s.p95 + 1e-9);
        prop_assert!(s.p95 <= s.max + 1e-9);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.std_dev >= 0.0);
    }

    /// A threshold calibrated on two separated clusters classifies both
    /// training clusters perfectly.
    #[test]
    fn calibrated_threshold_separates_disjoint_clusters(
        zeros in proptest::collection::vec(0.0f64..100.0, 1..50),
        ones_offset in 150.0f64..1000.0,
        ones_count in 1usize..50,
    ) {
        let ones: Vec<f64> = (0..ones_count).map(|i| ones_offset + i as f64).collect();
        let threshold = BinaryThreshold::calibrate(&zeros, &ones);
        for &z in &zeros {
            prop_assert!(!threshold.classify(z));
        }
        for &o in &ones {
            prop_assert!(threshold.classify(o));
        }
        prop_assert!(threshold.separation() > 0.0);
    }
}
