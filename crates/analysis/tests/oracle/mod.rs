//! Test-only reference scorer: the full-matrix Wagner–Fischer DP with the
//! canonical backtrack, kept as the oracle the banded production scorer
//! (`analysis::edit_distance::scored_breakdown`) is checked against.
//!
//! Shared by source inclusion (`#[path]`), so the including module must
//! have `ErrorBreakdown` in scope.

use super::ErrorBreakdown;

/// Edit distance and flip / insertion / loss breakdown of `received`
/// against `sent`, from the full `(n+1)×(m+1)` matrix.
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
