//! Edit distance and bit-error rates.
//!
//! The paper evaluates its covert channels with the edit distance between the
//! transmitted and received bit sequences (Sec. V): this accounts for all
//! three error types — bit flips (substitutions), bit insertions and bit
//! losses (deletions) — that arise when the sender and receiver periods drift
//! apart. [`scored_breakdown`] computes both with a banded (Ukkonen) DP.

/// Computes the Levenshtein edit distance between two sequences, counting
/// substitutions, insertions and deletions each as one edit. Runs
/// [`scored_breakdown`], so memory is `O(|a| · distance)`: meant for
/// frame-sized sequences, not whole traces.
pub fn edit_distance<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    scored_breakdown(a, b).0
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

/// A cell off the band: above any distance, with room to add one.
const OUTSIDE: u32 = u32::MAX / 2;

/// Fills the DP cells with `|i - j| <= k` (Ukkonen's band) row by row: cell
/// `(i, j)` at column `j + k - i` of `2k + 2`, the last always [`OUTSIDE`].
/// Returns `None` if the corner exceeds `k`, giving up as soon as a whole row
/// does, so the failed passes of a high-error frame stay short.
fn fill_band<T: PartialEq>(sent: &[T], received: &[T], k: usize) -> Option<Vec<u32>> {
    let (n, m, width) = (sent.len(), received.len(), 2 * k + 2);
    let mut cells = vec![OUTSIDE; (n + 1) * width];
    for (j, cell) in cells[k..=k + k.min(m)].iter_mut().enumerate() {
        *cell = j as u32;
    }
    for (i, sent_item) in (1..).zip(sent) {
        let (above, row) = cells.split_at_mut(i * width);
        let above = &above[(i - 1) * width..];
        // Cell (i, j - 1): column 0 while it is in the band.
        let mut left = OUTSIDE;
        if i <= k {
            left = i as u32;
            row[k - i] = left;
        }
        let mut row_min = left;
        // Columns lo..=min(i + k, m): the received slice bounds the zip.
        let lo = i.saturating_sub(k).max(1);
        let pairs = row[lo + k - i..]
            .iter_mut()
            .zip(above[lo + k - i..].windows(2));
        for ((cell, diagonal), item) in pairs.zip(&received[lo - 1..(i + k).min(m)]) {
            left = (diagonal[0] + u32::from(sent_item != item))
                .min(diagonal[1] + 1)
                .min(left + 1);
            *cell = left;
            row_min = row_min.min(left);
        }
        if row_min as usize > k {
            return None;
        }
    }
    (cells[n * width + m + k - n] as usize <= k).then_some(cells)
}

/// Computes the edit distance *and* its per-error-type breakdown (flip /
/// insertion / loss) of `received` against `sent`.
///
/// Identical sequences return at once. Otherwise a banded DP fills the cells
/// with `|i - j| <= k`, from `k` = the length difference (at least 1),
/// doubling `k` (clipped to the matrix) until the corner is at most `k`.
/// In-band values up to `k` are exact, as a path leaving the band crosses a
/// cell worth more than `k`. The backtrack (diagonal, then loss, then
/// insertion) reads off-band cells as infinite: each cell it compares is
/// exact or, in both the band and the full matrix, above the distance, so it
/// takes the full matrix's alignment. Panics past `u32::MAX / 2` items.
pub fn scored_breakdown<T: PartialEq>(sent: &[T], received: &[T]) -> (usize, ErrorBreakdown) {
    if sent == received {
        return (0, ErrorBreakdown::default());
    }
    let (n, m) = (sent.len(), received.len());
    assert!(n.max(m) < OUTSIDE as usize, "sequences too long to score");
    let mut k = n.abs_diff(m).max(1);
    let cells = loop {
        match fill_band(sent, received, k) {
            Some(cells) => break cells,
            None => k = (2 * k).min(n.max(m)),
        }
    };
    let at = |i: usize, j: usize| match (j + k).checked_sub(i) {
        Some(column) if column <= 2 * k => cells[i * (2 * k + 2) + column],
        _ => OUTSIDE,
    };
    let mut breakdown = ErrorBreakdown::default();
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        if i > 0 && j > 0 {
            let flip = sent[i - 1] != received[j - 1];
            if at(i, j) == at(i - 1, j - 1) + u32::from(flip) {
                breakdown.flips += usize::from(flip);
                i -= 1;
                j -= 1;
                continue;
            }
        }
        if i > 0 && at(i, j) == at(i - 1, j) + 1 {
            // A sent bit that never arrived.
            breakdown.losses += 1;
            i -= 1;
        } else {
            // A received bit that was never sent.
            breakdown.insertions += 1;
            j -= 1;
        }
    }
    (at(n, m) as usize, breakdown)
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
#[path = "../tests/oracle/mod.rs"]
mod oracle;

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
        let breakdown = scored_breakdown(&sent, &received).1;
        assert_eq!(breakdown.total(), edit_distance(&sent, &received));
        assert_eq!(breakdown.flips, 1);
        assert_eq!(breakdown.losses, 1);
        assert_eq!(breakdown.insertions, 0);

        // Pure insertion.
        let received = [true, false, true, false, true, false];
        let breakdown = scored_breakdown(&sent, &received).1;
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
    fn band_boundaries_match_the_oracle() {
        let sent = bytes_to_bits(b"dirty lines");
        let two_flips: Vec<bool> = (0..).zip(&sent).map(|(i, &b)| b ^ (i % 40 == 10)).collect();
        let inverted: Vec<bool> = sent.iter().map(|&bit| !bit).collect();
        // Frame-sized sequences with every `stride`-th bit flipped and the
        // tail lost: a quarter of 128 bits edited, and 1024 bits drifting.
        let pattern: Vec<bool> = (0..1024u64).map(|i| i * 11 % 7 < 3).collect();
        let flipped = |len: usize, stride: usize, kept: usize| -> Vec<bool> {
            (0..len)
                .map(|i| pattern[i] ^ (i % stride == 0))
                .take(kept)
                .collect()
        };
        let quarter_edited = flipped(128, 5, 120);
        let drifted = flipped(1024, 17, 1003);
        let cases: [(&[bool], &[bool], usize); 10] = [
            (&sent[..30], &two_flips[..30], 1), // distance = the first k, 1
            (&sent, &sent[3..], 3),             // distance = the first k, |n - m|
            (&sent, &two_flips, 2),             // distance = k + 1: one doubling
            (&sent, &sent[40..50], 78),         // |n - m| wider than any small band
            (&sent, &[], 88),                   // one side empty
            (&[], &sent[..10], 10),             // the other side empty
            (&sent, &inverted, 27),             // inverted: the band grows
            (&[true; 100], &[false; 100], 100), // ... to the full matrix
            (&pattern[..128], &quarter_edited, 28),
            (&pattern, &drifted, 74),
        ];
        for (a, b, distance) in cases {
            let banded = scored_breakdown(a, b);
            assert_eq!(banded, oracle::scored_breakdown(a, b), "{a:?} vs {b:?}");
            assert_eq!(banded.0, distance, "{a:?} vs {b:?}");
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
