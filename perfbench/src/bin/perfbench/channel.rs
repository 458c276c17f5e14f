//! The two channel workloads: a closed loop of seeded sessions, each of which
//! calibrates (`ChannelSession::new`) and then transmits random frames
//! (`transmit_frame`), one call after the other from one thread.

use crate::spans::{Clock, Recorder};
use crate::stats::{median, median_f64, quantile, SplitMix};
use crate::Metrics;
use sim_cache::addr::PhysAddr;
use sim_cache::cache::AccessContext;
use sim_cache::hierarchy::CacheHierarchy;
use sim_cache::policy::PolicyKind;
use sim_cache::trace::{TraceOp, TraceSummary};
use sim_core::telemetry::Phase;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use wb_channel::channel::{ChannelConfig, NoiseConfig};
use wb_channel::encoding::SymbolEncoding;
use wb_channel::protocol::{align_and_score, Frame};
use wb_channel::session::{compile_frame, ChannelSession, SimUsage};
use wb_channel::{Error, TransmissionReport};

/// Frames each session transmits after calibrating: the frames per
/// error-rate point of the repository's full-scale scenarios (Figure 6 and
/// the bandwidth summary), so calibration is amortised as in real use.
const FRAMES_PER_SESSION: usize = runner::scale::FULL.frames;
/// Per-layer counts are taken over this many leading sessions, so they
/// depend on the seed only, never on how fast the host runs.
const COUNTED_SESSIONS: u64 = 8;
/// Frames of the fixed reference session whose simulated counts are checked
/// against the stored reference on every run, whatever `--seed` is.
const REFERENCE_FRAMES: usize = 16;
/// The seed of the reference session (the repository's default seed).
const REFERENCE_SEED: u64 = bench::SEED;
/// Frame timings one untraced process can hold (512 KiB, touched only as
/// frames are timed); the loop ends early when the buffer is full. A
/// 4-second process fills about a third of it at 200 us a frame.
const MAX_FRAMES: usize = 1 << 16;

/// One channel operating point of the paper.
#[derive(Debug)]
pub struct Workload {
    encoding: SymbolEncoding,
    period_cycles: u64,
    frame_bits: usize,
    noise: Option<NoiseConfig>,
    /// Frames with a higher bit error rate count as failed.
    max_ber: f64,
}

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        match name {
            // The 1375 kbps point: binary d = 1 at Ts = 1600, 128-bit frames,
            // no co-runner. Every frame must decode exactly.
            "channel-fast" => Some(Workload {
                encoding: SymbolEncoding::binary(1).expect("d = 1 is a valid encoding"),
                period_cycles: 1_600,
                frame_bits: 128,
                noise: None,
                max_ber: 0.0,
            }),
            // The 4400 kbps point: two-bit {0,3,5,8} at Ts = 1000, 256-bit
            // frames, plus Figure 8's single clean noisy line. Every frame
            // must stay within the paper's 5% BER.
            "channel-dense" => Some(Workload {
                encoding: SymbolEncoding::paper_two_bit(),
                period_cycles: 1_000,
                frame_bits: 256,
                noise: Some(NoiseConfig::single_clean_line(1_000)),
                max_ber: 0.05,
            }),
            _ => None,
        }
    }

    fn config(&self, seed: u64) -> Result<ChannelConfig, Error> {
        let mut builder = ChannelConfig::builder();
        builder
            .encoding(self.encoding.clone())
            .period_cycles(self.period_cycles)
            .seed(seed);
        if let Some(noise) = self.noise {
            builder.noise(noise);
        }
        builder.build()
    }

    /// The session seed and payload stream of session `index` of a run.
    fn session(&self, seed: u64, index: u64) -> (u64, SplitMix) {
        let mut mix = SplitMix::new(seed ^ index.wrapping_mul(0xa076_1d64_78bd_642f));
        let session_seed = mix.next_u64();
        (session_seed, SplitMix::new(mix.next_u64()))
    }

    fn frame(&self, payloads: &mut SplitMix) -> Frame {
        let payload: Vec<bool> = (0..self.frame_bits - wb_channel::protocol::preamble().len())
            .map(|_| payloads.next_u64() & 1 == 1)
            .collect();
        Frame::from_payload(&payload)
    }

    fn delivered(&self, report: &TransmissionReport) -> bool {
        if self.max_ber == 0.0 {
            report.edit_distance == 0
        } else {
            report.bit_error_rate() <= self.max_ber
        }
    }

    /// The most lines the sender dirties for one symbol.
    fn max_dirty_lines(&self) -> usize {
        (0..self.encoding.num_symbols())
            .map(|s| self.encoding.dirty_lines_for(s))
            .max()
            .unwrap_or(0)
    }
}

/// Attempted and failed operations (sessions and frames), plus the
/// simulated BER of the delivered frames.
#[derive(Debug, Default)]
struct Tally {
    sessions: u64,
    frames: u64,
    failed: u64,
    exact: u64,
    ber_sum: f64,
}

impl Tally {
    fn frame(&mut self, workload: &Workload, report: &Result<TransmissionReport, Error>) {
        self.frames += 1;
        match report {
            Ok(report) => {
                self.ber_sum += report.bit_error_rate();
                self.exact += u64::from(report.edit_distance == 0);
                if !workload.delivered(report) {
                    self.failed += 1;
                }
            }
            Err(_) => self.failed += 1,
        }
    }

    fn into_metrics(self, metrics: &mut Metrics) {
        let frames = self.frames.max(1) as f64;
        metrics.put("sessions", self.sessions as f64);
        metrics.put("frames", self.frames as f64);
        metrics.put("attempted", (self.sessions + self.frames) as f64);
        metrics.put("failed", self.failed as f64);
        metrics.put("ber_pct", 100.0 * self.ber_sum / frames);
        metrics.put("exact_frac", self.exact as f64 / frames);
    }
}

/// Runs the fixed reference session and writes its per-frame simulated
/// counts (one row per frame) to `path`. It also warms the process up
/// before anything is timed.
fn write_reference_counts(workload: &Workload, path: &Path) -> Result<(), String> {
    let (seed, mut payloads) = workload.session(REFERENCE_SEED, 0);
    let config = workload.config(seed).map_err(|e| e.to_string())?;
    let mut session = ChannelSession::new(config).map_err(|e| e.to_string())?;
    let mut text = String::from(
        "# frame accesses cycles reads writes read_misses write_misses l1_hits l2_hits \
         llc_hits memory writebacks dirty_victims prime encode wait decode noise other\n",
    );
    let mut before = session.sim_usage();
    for index in 0..REFERENCE_FRAMES {
        let frame = workload.frame(&mut payloads);
        session.transmit_frame(&frame).map_err(|e| e.to_string())?;
        let after = session.sim_usage();
        let (a, b) = (&after.summary, &before.summary);
        let delta = |f: fn(&TraceSummary) -> u64| f(a) - f(b);
        write!(
            text,
            "{index} {} {} {} {} {} {} {} {} {} {} {} {}",
            delta(TraceSummary::accesses),
            delta(|s| s.cycles),
            delta(|s| s.reads),
            delta(|s| s.writes),
            delta(|s| s.read_misses),
            delta(|s| s.write_misses),
            delta(|s| s.l1_hits),
            delta(|s| s.l2_hits),
            delta(|s| s.llc_hits),
            delta(|s| s.memory_accesses),
            delta(|s| s.writebacks),
            delta(|s| s.dirty_victims),
        )
        .expect("writing to a String cannot fail");
        // `sim_usage` starts counting after calibration, so the calibrate
        // phase is always 0 here and has no column.
        for phase in Phase::ALL.into_iter().filter(|p| *p != Phase::Calibrate) {
            let cycles = after.phase_cycles.get(phase) - before.phase_cycles.get(phase);
            write!(text, " {cycles}").expect("writing to a String cannot fail");
        }
        text.push('\n');
        before = after;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The untraced run: end-to-end figures only. A session's first frame also
/// builds its `Machine`, so first frames are timed apart from the others and
/// the frame-time quantiles cover the steady-state frames only.
pub fn run(workload: &Workload, seed: u64, seconds: f64, counts: &Path) -> Result<Metrics, String> {
    write_reference_counts(workload, counts)?;
    let mut frame_ns = Vec::with_capacity(MAX_FRAMES);
    let mut first_ns = Vec::new();
    let mut setup_ns = Vec::new();
    let mut tally = Tally::default();
    let mut accesses = 0u64;
    let clock = Clock::start();
    let mut index = 0u64;
    while (index == 0 || clock.seconds() < seconds)
        && frame_ns.len() + FRAMES_PER_SESSION <= MAX_FRAMES
    {
        let (session_seed, mut payloads) = workload.session(seed, index);
        index += 1;
        tally.sessions += 1;
        let config = workload.config(session_seed).map_err(|e| e.to_string())?;
        let start = clock.ns();
        let session = ChannelSession::new(config);
        setup_ns.push(clock.ns() - start);
        let Ok(mut session) = session else {
            tally.failed += 1;
            continue;
        };
        for position in 0..FRAMES_PER_SESSION {
            let frame = workload.frame(&mut payloads);
            let start = clock.ns();
            let report = session.transmit_frame(&frame);
            let ns = clock.ns() - start;
            if position == 0 {
                first_ns.push(ns);
            } else {
                frame_ns.push(ns);
            }
            tally.frame(workload, &report);
        }
        accesses += session.sim_usage().accesses();
    }
    let window = clock.seconds();
    frame_ns.sort_unstable();
    let times = &frame_ns;
    let transmit_s = (times.iter().sum::<u64>() + first_ns.iter().sum::<u64>()) as f64 * 1e-9;
    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setup_ns) * 1e-9);
    metrics.put("frame_ms_p50", quantile(times, 0.50) * 1e-6);
    metrics.put("frame_ms_p90", quantile(times, 0.90) * 1e-6);
    metrics.put("frame_ms_p99", quantile(times, 0.99) * 1e-6);
    metrics.put("steady_frames", times.len() as f64);
    metrics.put("first_frame_ms_p50", median(&first_ns) * 1e-6);
    metrics.put("frames_per_s", tally.frames as f64 / window);
    metrics.put("sim_maccess_per_s", accesses as f64 / transmit_s * 1e-6);
    tally.into_metrics(&mut metrics);
    Ok(metrics)
}

/// The traced run: per-layer figures. Sessions alternate between untraced
/// and traced so the tracing overhead is measured under the same host
/// conditions; traced sessions replay each frame's `compile_frame`,
/// `Decoder::bits` and `align_and_score` from outside to time them.
pub fn run_traced(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    counts: &Path,
    spans: &Path,
) -> Result<Metrics, String> {
    write_reference_counts(workload, counts)?;
    let clock = Clock::start();
    let mut rec = Recorder::new(clock);
    let mut tally = Tally::default();
    let mut counted = SimUsage::default();
    let mut replay_mismatches = 0u64;
    // Frames and session wall time (calibration included, out-of-band
    // replays excluded), untraced / traced.
    let mut plain = (0u64, 0u64);
    let mut traced = (0u64, 0u64);
    let mut traced_accesses = 0u64;
    // Per traced frame: the frame minus its replayed compile, decode and
    // score, i.e. machine reset + `run_session`.
    let mut execute = Vec::new();
    let max_shift = 4 * workload.encoding.bits_per_symbol();
    let session_budget = 0.7 * seconds;
    let mut index = 0u64;
    while index < COUNTED_SESSIONS.max(2) || clock.seconds() < session_budget {
        let (session_seed, mut payloads) = workload.session(seed, index);
        let is_traced = index % 2 == 1;
        let config = workload.config(session_seed).map_err(|e| e.to_string())?;
        tally.sessions += 1;
        let start = clock.ns();
        let mut replay_ns = 0;
        let session_span = rec.open("session", None, index);
        let calibrate = rec.open("calibrate", Some(session_span), index);
        let session = ChannelSession::new(config);
        rec.close(calibrate);
        let Ok(mut session) = session else {
            rec.close(session_span);
            tally.failed += 1;
            index += 1;
            continue;
        };
        for _ in 0..FRAMES_PER_SESSION {
            let frame = workload.frame(&mut payloads);
            if !is_traced {
                let report = session.transmit_frame(&frame);
                tally.frame(workload, &report);
                continue;
            }
            let span = rec.open("frame", Some(session_span), index);
            let report = session.transmit_frame(&frame);
            let frame_ns = rec.close(span);
            tally.frame(workload, &report);
            let Ok(report) = report else { continue };
            let replay = rec.open("replay", Some(session_span), index);
            let span = rec.open("compile", Some(replay), index);
            black_box(compile_frame(session.config(), frame.payload()));
            let compile_ns = rec.close(span);
            let span = rec.open("decode", Some(replay), index);
            let decoded = session.decoder().bits(&report.latencies);
            let decode_ns = rec.close(span);
            let span = rec.open("score", Some(replay), index);
            let alignment = align_and_score(frame.bits(), &decoded, max_shift);
            let score_ns = rec.close(span);
            replay_ns += rec.close(replay);
            execute.push(frame_ns.saturating_sub(compile_ns + decode_ns + score_ns));
            if alignment.edit_distance != report.edit_distance {
                replay_mismatches += 1;
            }
        }
        rec.close(session_span);
        let elapsed = clock.ns() - start;
        let usage = session.sim_usage();
        if index < COUNTED_SESSIONS {
            counted.frames += usage.frames;
            counted.summary.merge(&usage.summary);
            counted.phase_cycles.merge(&usage.phase_cycles);
        }
        let side = if is_traced { &mut traced } else { &mut plain };
        side.0 += FRAMES_PER_SESSION as u64;
        side.1 += elapsed - replay_ns;
        if is_traced {
            traced_accesses += usage.accesses();
        }
        index += 1;
    }

    let mut metrics = Metrics::default();
    let us = |v: Vec<u64>| median(&v) * 1e-3;
    let execute_s = execute.iter().sum::<u64>() as f64 * 1e-9;
    metrics.put(
        "wb_channel.calibrate_ms",
        median(&rec.durations("calibrate")) * 1e-6,
    );
    metrics.put("wb_channel.frame_us", us(rec.durations("frame")));
    metrics.put("wb_channel.compile_us", us(rec.durations("compile")));
    metrics.put("wb_channel.decode_us", us(rec.durations("decode")));
    metrics.put("wb_channel.score_us", us(rec.durations("score")));
    metrics.put("sim_core.execute_us", us(execute));
    metrics.put(
        "sim_core.sim_maccess_per_s",
        traced_accesses as f64 / execute_s * 1e-6,
    );

    let frames = counted.frames.max(1) as f64;
    let summary = &counted.summary;
    let phases = counted.phase_cycles.total().max(1) as f64;
    metrics.put(
        "sim_core.sim_kcycles_per_frame",
        summary.cycles as f64 / frames * 1e-3,
    );
    for (name, phase) in [
        ("prime", Phase::Prime),
        ("encode", Phase::Encode),
        ("wait", Phase::Wait),
        ("decode", Phase::Decode),
        ("noise", Phase::Noise),
    ] {
        let share = counted.phase_cycles.get(phase) as f64 / phases;
        metrics.put_owned(format!("sim_core.phase_share.{name}"), share);
    }
    let demand = summary.accesses().max(1) as f64;
    metrics.put(
        "sim_cache.accesses_per_frame",
        summary.accesses() as f64 / frames,
    );
    metrics.put(
        "sim_cache.l1_miss_ratio",
        (summary.read_misses + summary.write_misses) as f64 / demand,
    );
    metrics.put(
        "sim_cache.writebacks_per_frame",
        summary.writebacks as f64 / frames,
    );
    metrics.put(
        "sim_cache.dirty_victims_per_frame",
        summary.dirty_victims as f64 / frames,
    );

    let cache_budget = (seconds - clock.seconds()).max(0.2) / 2.0;
    let pattern = TargetSetPattern::new(workload, seed);
    metrics.put(
        "sim_cache.read_chase_ns",
        pattern.ns_per_access(false, cache_budget, &mut rec),
    );
    metrics.put(
        "sim_cache.dirty_sweep_ns",
        pattern.ns_per_access(true, cache_budget, &mut rec),
    );

    let rate = |(frames, ns): (u64, u64)| frames as f64 / (ns.max(1) as f64 * 1e-9);
    metrics.put("trace.untraced_frames_per_s", rate(plain));
    metrics.put("trace.frames_per_s", rate(traced));
    metrics.put(
        "trace.overhead_pct",
        100.0 * (rate(plain) / rate(traced) - 1.0),
    );
    metrics.put("replay_mismatches", replay_mismatches as f64);
    tally.failed += replay_mismatches;
    tally.into_metrics(&mut metrics);
    rec.write(spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    Ok(metrics)
}

/// The workload's own target-set access pattern, run through
/// `CacheHierarchy::run_trace`: the sender's stores of its largest symbol,
/// then the receiver's sweep of one replacement set, alternating the two
/// replacement sets as the receiver does.
struct TargetSetPattern {
    seed: u64,
    policy: PolicyKind,
    stores: Vec<TraceOp>,
    sweeps: [Vec<TraceOp>; 2],
}

impl TargetSetPattern {
    fn new(workload: &Workload, seed: u64) -> TargetSetPattern {
        let config = workload.config(seed).expect("workload configs are valid");
        let geometry = CacheHierarchy::xeon_e5_2650(config.policy, seed).l1_geometry();
        let set = config.target_set;
        let line = |tag: u64| PhysAddr::from_set_and_tag(set, tag, geometry);
        let sweep = |base: u64| {
            (0..config.replacement_size as u64)
                .map(|t| TraceOp::read(line(base + t)))
                .collect()
        };
        TargetSetPattern {
            seed,
            policy: config.policy,
            stores: (0..workload.max_dirty_lines() as u64)
                .map(|t| TraceOp::write(line(t)))
                .collect(),
            sweeps: [sweep(1_000), sweep(2_000)],
        }
    }

    /// Median host nanoseconds per simulated access over timed windows of
    /// the pattern; `dirty` includes the sender's stores.
    fn ns_per_access(&self, dirty: bool, budget_s: f64, rec: &mut Recorder) -> f64 {
        const ITERATIONS: usize = 2_000;
        let name = if dirty { "dirty_sweep" } else { "read_chase" };
        let mut hierarchy = CacheHierarchy::xeon_e5_2650(self.policy, self.seed);
        let sender = AccessContext::for_domain(2);
        let receiver = AccessContext::for_domain(1);
        let iterate = |hierarchy: &mut CacheHierarchy| {
            let mut accesses = 0;
            for sweep in &self.sweeps {
                if dirty {
                    accesses += hierarchy.run_trace(&self.stores, sender).accesses();
                }
                accesses += hierarchy.run_trace(sweep, receiver).accesses();
            }
            accesses
        };
        for _ in 0..ITERATIONS {
            black_box(iterate(&mut hierarchy));
        }
        let start = rec.clock.seconds();
        let mut samples = Vec::new();
        let mut window = 0;
        while window < 5 || rec.clock.seconds() - start < budget_s {
            let span = rec.open(name, None, window);
            let mut accesses = 0;
            for _ in 0..ITERATIONS {
                accesses += black_box(iterate(&mut hierarchy));
            }
            let ns = rec.close(span);
            samples.push(ns as f64 / accesses as f64);
            window += 1;
        }
        median_f64(&mut samples)
    }
}
