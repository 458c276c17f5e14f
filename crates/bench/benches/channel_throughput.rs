//! Criterion bench: end-to-end covert-channel transmission throughput
//! (simulated frames per second of harness wall-clock) for the binary and
//! multi-bit encodings at several of the paper's rates (Figures 5-7).

// `criterion_group!` expands to undocumented public glue; benches are
// not documented API.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sim_core::sched::InterruptConfig;
use sim_core::tsc::TscConfig;
use std::hint::black_box;
use wb_channel::channel::ChannelConfig;
use wb_channel::encoding::SymbolEncoding;
use wb_channel::session::ChannelSession;

fn channel(encoding: SymbolEncoding, period: u64) -> ChannelSession {
    let config = ChannelConfig::builder()
        .encoding(encoding)
        .period_cycles(period)
        .interrupts(InterruptConfig::none())
        .tsc(TscConfig::ideal())
        .calibration_samples(40)
        .seed(7)
        .build()
        .expect("valid configuration");
    ChannelSession::new(config).expect("calibration succeeds")
}

fn bench_channel(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel_throughput");
    group.sample_size(10);

    for period in [5_500u64, 1_600, 800] {
        group.bench_with_input(
            BenchmarkId::new("binary_d1_64bit_frame", period),
            &period,
            |b, &period| {
                let mut ch = channel(SymbolEncoding::binary(1).unwrap(), period);
                let payload: Vec<bool> = (0..48).map(|i| i % 3 == 0).collect();
                b.iter(|| black_box(ch.transmit_bits(&payload).unwrap()));
            },
        );
    }

    group.bench_function("two_bit_128bit_frame", |b| {
        let mut ch = channel(SymbolEncoding::paper_two_bit(), 1_000);
        let payload: Vec<bool> = (0..112).map(|i| i % 5 < 2).collect();
        b.iter(|| black_box(ch.transmit_bits(&payload).unwrap()));
    });

    group.finish();
}

criterion_group!(benches, bench_channel);
criterion_main!(benches);
