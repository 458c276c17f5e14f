//! Wagner–Fischer edit distance and bit-error rates.
//!
//! The paper evaluates its covert channels with the edit distance between the
//! transmitted and received bit sequences (Sec. V): this accounts for all
//! three error types — bit flips (substitutions), bit insertions and bit
//! losses (deletions) — that arise when the sender and receiver periods drift
//! apart.

/// Computes the Wagner–Fischer (Levenshtein) edit distance between two
/// sequences, counting substitutions, insertions and deletions each as one
/// edit.
///
/// Memory usage is `O(min(|a|, |b|))`.
pub fn edit_distance<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    // Keep the shorter sequence as the row to minimise memory.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut current = vec![0usize; short.len() + 1];
    for (i, long_item) in long.iter().enumerate() {
        current[0] = i + 1;
        for (j, short_item) in short.iter().enumerate() {
            let substitution_cost = usize::from(long_item != short_item);
            current[j + 1] = (prev[j] + substitution_cost)
                .min(prev[j + 1] + 1)
                .min(current[j] + 1);
        }
        std::mem::swap(&mut prev, &mut current);
    }
    prev[short.len()]
}

/// The bit error rate of a transmission, defined as the edit distance between
/// the sent and received sequences divided by the number of sent bits
/// (the paper's metric).
///
/// Returns `0.0` when `sent` is empty.
pub fn bit_error_rate(sent: &[bool], received: &[bool]) -> f64 {
    if sent.is_empty() {
        return 0.0;
    }
    edit_distance(sent, received) as f64 / sent.len() as f64
}

/// A per-error-type breakdown obtained from the optimal alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ErrorBreakdown {
    /// Substitutions (bit flips).
    pub flips: usize,
    /// Insertions (spurious bits decoded by the receiver).
    pub insertions: usize,
    /// Deletions (bits the receiver never saw).
    pub losses: usize,
}

impl ErrorBreakdown {
    /// Total number of edits.
    pub fn total(&self) -> usize {
        self.flips + self.insertions + self.losses
    }
}

/// Computes the edit distance together with a breakdown into the paper's
/// three error classes (flip / insertion / loss), by backtracking over the
/// full dynamic-programming matrix.
///
/// This is `O(|sent| * |received|)` in memory and therefore intended for
/// frame-sized sequences (hundreds of bits), not whole traces.
pub fn error_breakdown(sent: &[bool], received: &[bool]) -> ErrorBreakdown {
    scored_breakdown(sent, received).1
}

/// Computes the Wagner–Fischer distance *and* its per-error-type breakdown
/// from one dynamic-programming matrix: the matrix's corner cell is the
/// distance, and the backtrack classifies the optimal alignment's edits.
///
/// The matrix is a single flat allocation. Equivalent to calling
/// [`edit_distance`] and [`error_breakdown`] separately (the alignment
/// scorer's former hot path, which filled the matrix twice per frame).
pub fn scored_breakdown(sent: &[bool], received: &[bool]) -> (usize, ErrorBreakdown) {
    let n = sent.len();
    let m = received.len();
    let width = m + 1;
    let mut dp = vec![0usize; (n + 1) * width];
    for i in 0..=n {
        dp[i * width] = i;
    }
    for (j, cell) in dp[..width].iter_mut().enumerate() {
        *cell = j;
    }
    for i in 1..=n {
        let sent_bit = sent[i - 1];
        let (above, row) = dp.split_at_mut(i * width);
        let above = &above[(i - 1) * width..];
        for j in 1..=m {
            let substitution = usize::from(sent_bit != received[j - 1]);
            row[j] = (above[j - 1] + substitution)
                .min(above[j] + 1)
                .min(row[j - 1] + 1);
        }
    }
    // Backtrack, preferring diagonal moves, then deletions, then insertions —
    // the tie-break order that defines the canonical breakdown.
    let mut breakdown = ErrorBreakdown::default();
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        if i > 0 && j > 0 {
            let substitution = usize::from(sent[i - 1] != received[j - 1]);
            if dp[i * width + j] == dp[(i - 1) * width + j - 1] + substitution {
                if substitution == 1 {
                    breakdown.flips += 1;
                }
                i -= 1;
                j -= 1;
                continue;
            }
        }
        if i > 0 && dp[i * width + j] == dp[(i - 1) * width + j] + 1 {
            // A sent bit that never arrived.
            breakdown.losses += 1;
            i -= 1;
        } else {
            // A received bit that was never sent.
            breakdown.insertions += 1;
            j -= 1;
        }
    }
    (dp[n * width + m], breakdown)
}

/// Converts a byte slice into its bit sequence (MSB first), the format used
/// by the protocol layer for payloads.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    bytes
        .iter()
        .flat_map(|byte| (0..8).rev().map(move |bit| (byte >> bit) & 1 == 1))
        .collect()
}

/// Converts a bit sequence (MSB first) back into bytes, zero-padding the last
/// partial byte.
pub fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    bits.chunks(8)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .fold(0u8, |acc, (i, &bit)| acc | (u8::from(bit) << (7 - i)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_have_zero_distance() {
        let bits = [true, false, true];
        assert_eq!(edit_distance(&bits, &bits), 0);
        assert_eq!(bit_error_rate(&bits, &bits), 0.0);
    }

    #[test]
    fn classic_string_example() {
        let kitten: Vec<char> = "kitten".chars().collect();
        let sitting: Vec<char> = "sitting".chars().collect();
        assert_eq!(edit_distance(&kitten, &sitting), 3);
        // Symmetry.
        assert_eq!(edit_distance(&sitting, &kitten), 3);
    }

    #[test]
    fn empty_cases() {
        let bits = [true, true, false];
        assert_eq!(edit_distance::<bool>(&[], &[]), 0);
        assert_eq!(edit_distance(&bits, &[]), 3);
        assert_eq!(edit_distance(&[], &bits), 3);
        assert_eq!(bit_error_rate(&[], &bits), 0.0);
    }

    #[test]
    fn single_flip_insertion_and_loss() {
        let sent = [true, false, true, true];
        let flipped = [true, true, true, true];
        let inserted = [true, false, false, true, true];
        let lost = [true, true, true];
        assert_eq!(edit_distance(&sent, &flipped), 1);
        assert_eq!(edit_distance(&sent, &inserted), 1);
        assert_eq!(edit_distance(&sent, &lost), 1);
        assert!((bit_error_rate(&sent, &flipped) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn breakdown_identifies_error_types() {
        let sent = [true, false, true, true, false];
        // One flip at position 1, one loss at the end.
        let received = [true, true, true, true];
        let breakdown = error_breakdown(&sent, &received);
        assert_eq!(breakdown.total(), edit_distance(&sent, &received));
        assert_eq!(breakdown.flips, 1);
        assert_eq!(breakdown.losses, 1);
        assert_eq!(breakdown.insertions, 0);

        // Pure insertion.
        let received = [true, false, true, false, true, false];
        let breakdown = error_breakdown(&sent, &received);
        assert_eq!(breakdown.total(), edit_distance(&sent, &received));
        assert!(breakdown.insertions >= 1);
    }

    #[test]
    fn byte_bit_round_trip() {
        let bytes = [0xAB, 0x00, 0xFF, 0x42];
        let bits = bytes_to_bits(&bytes);
        assert_eq!(bits.len(), 32);
        assert_eq!(bits_to_bytes(&bits), bytes.to_vec());
        // MSB first: 0xAB = 1010_1011.
        assert_eq!(
            &bits[..8],
            &[true, false, true, false, true, false, true, true]
        );
        // Partial byte padding.
        assert_eq!(bits_to_bytes(&[true, true]), vec![0b1100_0000]);
    }

    #[test]
    fn fused_scoring_matches_the_separate_passes() {
        // Deterministic pseudo-random bit pairs covering flips, insertions
        // and losses at assorted lengths (including empty sides).
        for seed in 0u64..24 {
            let n = (seed * 7 % 33) as usize;
            let m = (seed * 11 % 29) as usize;
            let sent: Vec<bool> = (0..n)
                .map(|i| (seed + i as u64) * 2_654_435_761 % 5 < 2)
                .collect();
            let received: Vec<bool> = (0..m).map(|i| (seed + i as u64) * 40_503 % 7 < 3).collect();
            let (distance, breakdown) = scored_breakdown(&sent, &received);
            assert_eq!(distance, edit_distance(&sent, &received), "seed {seed}");
            assert_eq!(breakdown, error_breakdown(&sent, &received), "seed {seed}");
            assert_eq!(breakdown.total(), distance, "seed {seed}");
        }
    }

    #[test]
    fn distance_is_bounded_by_longer_length() {
        let a = [true; 16];
        let b = [false; 9];
        let d = edit_distance(&a, &b);
        assert!(d <= 16);
        assert!(d >= 16 - 9);
    }
}
