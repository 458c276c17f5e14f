//! Criterion bench: `scored_breakdown` (edit distance plus flip / insertion /
//! loss breakdown) on the frame shapes the channel actually scores — the
//! post-processing cost of the paper's error metric.

// `criterion_group!` expands to undocumented public glue; benches are
// not documented API.
#![allow(missing_docs)]

use analysis::edit_distance::scored_breakdown;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bit_pattern(len: usize, seed: u64) -> Vec<bool> {
    (0..len)
        .map(|i| (i as u64).wrapping_mul(seed) % 7 < 3)
        .collect()
}

/// `sent` with the bits at every `stride`-th position flipped.
fn flipped(sent: &[bool], stride: usize, offset: usize) -> Vec<bool> {
    let mut received = sent.to_vec();
    for i in (offset..received.len()).step_by(stride) {
        received[i] = !received[i];
    }
    received
}

fn bench_scored_breakdown(c: &mut Criterion) {
    let mut group = c.benchmark_group("scored_breakdown");
    group.sample_size(30);
    let sent_128 = bit_pattern(128, 11);
    let sent_256 = bit_pattern(256, 11);
    // About a quarter of the bits edited: flips plus a run of losses, as at
    // the Random-replacement points of the hierarchy matrix.
    let mut quarter_edited = flipped(&sent_128, 5, 2);
    quarter_edited.truncate(120);
    let sent_1024 = bit_pattern(1024, 11);
    let mut drifted_1024 = flipped(&sent_1024, 17, 0);
    drifted_1024.truncate(1024 - 1024 / 50 - 1);
    let cases = [
        ("exact", &sent_128, sent_128.clone()),
        ("two-flips", &sent_256, flipped(&sent_256, 128, 60)),
        ("quarter-edited", &sent_128, quarter_edited),
        ("drifted", &sent_1024, drifted_1024),
    ];
    for (name, sent, received) in &cases {
        group.bench_with_input(BenchmarkId::new(*name, sent.len()), sent, |b, sent| {
            b.iter(|| black_box(scored_breakdown(black_box(sent), black_box(received))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scored_breakdown);
criterion_main!(benches);
