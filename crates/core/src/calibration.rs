//! Latency calibration experiments.
//!
//! This module contains the single-core measurement loops behind:
//!
//! * **Table IV** — the three access-latency classes (L1 hit, L2 hit with a
//!   clean L1 victim, L2 hit with a dirty L1 victim);
//! * **Figure 4** — the CDF of replacement-set access latencies when the
//!   target set holds `d = 0..=8` dirty lines;
//! * the **threshold calibration** the receiver performs before decoding a
//!   live transmission (the per-`d` latency classes double as training data).

use crate::encoding::SymbolEncoding;
use crate::error::Error;
use crate::protocol::Decoder;
use analysis::histogram::Cdf;
use analysis::stats::Summary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_cache::policy::PolicyKind;
use sim_cache::trace::TraceOp;
use sim_core::machine::{Machine, MachineConfig};
use sim_core::memlayout::{ChannelLayout, SetLines};
use sim_core::process::{AddressSpace, ProcessId};

/// Domain/process identifiers used by all calibration experiments.
const RECEIVER_DOMAIN: u16 = 1;
const SENDER_DOMAIN: u16 = 2;

/// Configuration of the calibration runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// The machine to calibrate on.
    pub machine: MachineConfig,
    /// The L1 set used as the target set.
    pub target_set: usize,
    /// Replacement-set size (the paper determines 10 is sufficient on the
    /// Xeon E5-2650, Table II).
    pub replacement_size: usize,
    /// Number of measurements per dirty-line count (the paper uses 1000 for
    /// Figure 4).
    pub samples_per_level: usize,
    /// Seed for measurement-order randomisation.
    pub seed: u64,
}

impl CalibrationConfig {
    /// Calibration on the paper's machine with the given L1 policy.
    pub fn new(policy: PolicyKind, seed: u64) -> CalibrationConfig {
        CalibrationConfig {
            machine: MachineConfig::xeon_e5_2650(policy, seed),
            target_set: 21,
            replacement_size: 10,
            samples_per_level: 200,
            seed,
        }
    }
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig::new(PolicyKind::TreePlru, 7)
    }
}

/// The experimental setting shared by the calibration loops.
struct Bench {
    machine: Machine,
    receiver_layout: ChannelLayout,
    sender_lines: SetLines,
    rng: StdRng,
    sweeps: u64,
}

impl Bench {
    fn new(config: &CalibrationConfig) -> Result<Bench, Error> {
        let machine = Machine::new(config.machine)?;
        let geometry = machine.l1_geometry();
        if config.target_set >= geometry.num_sets {
            return Err(Error::InvalidConfig {
                field: "target_set",
                reason: format!(
                    "set {} out of range (L1 has {} sets)",
                    config.target_set, geometry.num_sets
                ),
            });
        }
        if config.replacement_size < geometry.associativity {
            return Err(Error::InvalidConfig {
                field: "replacement_size",
                reason: format!(
                    "replacement sets must contain at least W = {} lines",
                    geometry.associativity
                ),
            });
        }
        let receiver_layout = ChannelLayout::build(
            AddressSpace::new(ProcessId(RECEIVER_DOMAIN)),
            geometry,
            config.target_set,
            geometry.associativity,
            config.replacement_size,
        );
        let sender_lines = SetLines::build(
            AddressSpace::new(ProcessId(SENDER_DOMAIN)),
            geometry,
            config.target_set,
            geometry.associativity,
            0,
        );
        Ok(Bench {
            machine,
            receiver_layout,
            sender_lines,
            rng: StdRng::seed_from_u64(config.seed ^ 0xca1b),
            sweeps: 0,
        })
    }

    /// Warms every line into the outer levels and leaves the target set in a
    /// clean state.
    fn warm(&mut self) {
        // The two parties' address spaces are disjoint, so the warm-up is
        // two batched traces (receiver lines first, as before).
        let receiver_warm: Vec<TraceOp> = self
            .receiver_layout
            .replacement_a
            .lines()
            .iter()
            .chain(self.receiver_layout.replacement_b.lines())
            .chain(self.receiver_layout.target_lines.lines())
            .map(|&addr| TraceOp::read(addr))
            .collect();
        let sender_warm: Vec<TraceOp> = self
            .sender_lines
            .lines()
            .iter()
            .map(|&addr| TraceOp::read(addr))
            .collect();
        self.machine.run_trace(RECEIVER_DOMAIN, &receiver_warm);
        self.machine.run_trace(SENDER_DOMAIN, &sender_warm);
        // One throw-away sweep to initialise the target set with clean lines.
        self.sweep();
    }

    /// The encoding burst for `d` dirty lines, built once per measurement
    /// loop and replayed through the batch engine (Algorithm 1).
    fn encode_trace(&self, d: usize) -> Vec<TraceOp> {
        (0..d)
            .map(|i| TraceOp::write(self.sender_lines.line(i)))
            .collect()
    }

    /// One measured replacement-set sweep (Algorithm 2's decoding phase),
    /// alternating the two replacement sets.
    fn sweep(&mut self) -> u64 {
        let replacement = self.receiver_layout.replacement_for(self.sweeps);
        self.sweeps += 1;
        let order = replacement.shuffled(&mut self.rng);
        let (measured, _) = self.machine.measured_chase(RECEIVER_DOMAIN, &order);
        measured
    }
}

/// Measures `samples_per_level` replacement latencies with `d` dirty lines in
/// the target set before every sweep.
///
/// # Errors
///
/// Returns an error if the configuration is invalid or `d` exceeds the
/// associativity.
pub fn replacement_latency_samples(
    config: &CalibrationConfig,
    d: usize,
) -> Result<Vec<u64>, Error> {
    replacement_latency_samples_with_cycles(config, d).map(|(samples, _)| samples)
}

/// As [`replacement_latency_samples`], but also reports the simulated cycles
/// the measurement machine consumed (warm-up, encoding bursts and sweeps
/// combined) — the cycle-attribution source for calibrate-phase telemetry.
///
/// # Errors
///
/// Returns an error if the configuration is invalid or `d` exceeds the
/// associativity.
pub fn replacement_latency_samples_with_cycles(
    config: &CalibrationConfig,
    d: usize,
) -> Result<(Vec<u64>, u64), Error> {
    let mut bench = Bench::new(config)?;
    if d > bench.machine.l1_geometry().associativity {
        return Err(Error::InvalidConfig {
            field: "d",
            reason: format!("cannot dirty {d} lines in an 8-way set"),
        });
    }
    bench.warm();
    let encode = bench.encode_trace(d);
    let mut samples = Vec::with_capacity(config.samples_per_level);
    for _ in 0..config.samples_per_level {
        bench.machine.run_trace(SENDER_DOMAIN, &encode);
        samples.push(bench.sweep());
    }
    Ok((samples, bench.machine.now()))
}

/// The data behind the paper's Figure 4: one latency CDF per dirty-line
/// count.
///
/// # Errors
///
/// Propagates configuration errors from the underlying measurement loops.
pub fn latency_cdfs(
    config: &CalibrationConfig,
    dirty_counts: &[usize],
) -> Result<Vec<(usize, Cdf)>, Error> {
    dirty_counts
        .iter()
        .map(|&d| {
            let samples = replacement_latency_samples(config, d)?;
            let as_f64: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
            Ok((d, Cdf::from_samples(&as_f64)))
        })
        .collect()
}

/// Calibrates a decoder for `encoding` on the configured machine.
///
/// # Errors
///
/// Returns calibration errors if the latency classes cannot be separated
/// (which happens, by design, under some of the defenses).
pub fn calibrate_decoder(
    config: &CalibrationConfig,
    encoding: &SymbolEncoding,
) -> Result<Decoder, Error> {
    calibrate_decoder_with_cycles(config, encoding).map(|(decoder, _)| decoder)
}

/// As [`calibrate_decoder`], but also reports the total simulated cycles the
/// calibration consumed across every latency class (one fresh measurement
/// machine per class).  [`crate::session::ChannelSession`] records this as
/// the session's calibrate-phase span.
///
/// # Errors
///
/// Returns calibration errors if the latency classes cannot be separated
/// (which happens, by design, under some of the defenses).
pub fn calibrate_decoder_with_cycles(
    config: &CalibrationConfig,
    encoding: &SymbolEncoding,
) -> Result<(Decoder, u64), Error> {
    let mut cycles = 0u64;
    let classes: Vec<Vec<f64>> = encoding
        .levels()
        .iter()
        .map(|&d| {
            let (samples, machine_cycles) = replacement_latency_samples_with_cycles(config, d)?;
            cycles += machine_cycles;
            Ok(samples.into_iter().map(|s| s as f64).collect())
        })
        .collect::<Result<_, Error>>()?;
    let decoder = Decoder::from_calibration(encoding.clone(), &classes)?;
    Ok((decoder, cycles))
}

/// The three access-latency classes of the paper's Table IV, measured as true
/// core latencies (no `rdtscp` overhead).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessLatencyClasses {
    /// Latency of an L1D hit.
    pub l1_hit: Summary,
    /// Latency of an L2 hit that replaces a clean L1 line.
    pub l2_hit_clean_victim: Summary,
    /// Latency of an L2 hit that replaces a dirty L1 line.
    pub l2_hit_dirty_victim: Summary,
}

/// Measures Table IV's three access classes.
///
/// # Errors
///
/// Propagates machine configuration errors.
pub fn access_latency_classes(config: &CalibrationConfig) -> Result<AccessLatencyClasses, Error> {
    let mut machine = Machine::new(config.machine)?;
    let geometry = machine.l1_geometry();
    let space = AddressSpace::new(ProcessId(RECEIVER_DOMAIN));
    let set = config.target_set % geometry.num_sets;
    // A sweep of `sweep_len` distinct lines is guaranteed to replace the
    // whole set on every supported policy (Table II: 10 lines suffice on the
    // least deterministic one), plus one clean-victim probe and one
    // dirty-victim probe.
    let sweep_len = config.replacement_size.max(geometry.associativity + 2);
    let lines = SetLines::build(space, geometry, set, sweep_len + 2, 0);
    let clean_probe = lines.line(sweep_len);
    let dirty_probe = lines.line(sweep_len + 1);
    let samples = config.samples_per_level.max(8);

    // Warm everything into the outer levels once (one batched trace).
    let warm: Vec<TraceOp> = lines.lines().iter().map(|&l| TraceOp::read(l)).collect();
    machine.run_trace(RECEIVER_DOMAIN, &warm);

    // The bulk phases of each sample are fixed, so their traces are built
    // once and replayed through the batch engine every iteration.
    let clean_refill: Vec<TraceOp> = (0..sweep_len)
        .map(|i| TraceOp::read(lines.line(i)))
        .collect();
    let dirty_everything: Vec<TraceOp> = (0..sweep_len)
        .map(|i| TraceOp::write(lines.line(i)))
        .chain(std::iter::once(TraceOp::write(clean_probe)))
        .collect();

    let mut l1_hits = Vec::new();
    let mut l2_clean = Vec::new();
    let mut l2_dirty = Vec::new();

    for _ in 0..samples {
        // Refill the set with clean sweep lines; this evicts both probes and
        // any dirty lines left over from the previous iteration.
        machine.run_trace(RECEIVER_DOMAIN, &clean_refill);

        // L1 hit: an immediate re-access of the line filled last.
        l1_hits.push(
            machine
                .read(RECEIVER_DOMAIN, lines.line(sweep_len - 1))
                .cycles as f64,
        );

        // L2 hit replacing a clean victim: every resident line is clean, so
        // whichever victim the policy picks, no write-back is needed.
        l2_clean.push(machine.read(RECEIVER_DOMAIN, clean_probe).cycles as f64);

        // L2 hit replacing a dirty victim: dirty every line that could still
        // be resident, so the victim is necessarily dirty.
        machine.run_trace(RECEIVER_DOMAIN, &dirty_everything);
        l2_dirty.push(machine.read(RECEIVER_DOMAIN, dirty_probe).cycles as f64);
    }

    let summarise = |v: &[f64]| Summary::of(v).expect("sample sets are non-empty");
    Ok(AccessLatencyClasses {
        l1_hit: summarise(&l1_hits),
        l2_hit_clean_victim: summarise(&l2_clean),
        l2_hit_dirty_victim: summarise(&l2_dirty),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::tsc::TscConfig;

    fn quiet_config() -> CalibrationConfig {
        let mut config = CalibrationConfig::new(PolicyKind::TreePlru, 3);
        config.machine = MachineConfig::ideal(PolicyKind::TreePlru, 3);
        config.samples_per_level = 60;
        config
    }

    #[test]
    fn clean_and_dirty_sweeps_are_separable() {
        let config = quiet_config();
        let clean = replacement_latency_samples(&config, 0).unwrap();
        let dirty = replacement_latency_samples(&config, 8).unwrap();
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        let gap = mean(&dirty) - mean(&clean);
        // Eight dirty lines at ~11 cycles each.
        assert!(
            (60.0..=110.0).contains(&gap),
            "expected ~88-cycle gap, got {gap} (clean {}, dirty {})",
            mean(&clean),
            mean(&dirty)
        );
    }

    #[test]
    fn latency_grows_monotonically_with_dirty_count() {
        // The paper's machine at L = 10, plus the replacement-set sizes and
        // L1 policies the design-choice ablations vary.
        let mut variants = vec![quiet_config()];
        for replacement_size in [8, 12] {
            let mut config = quiet_config();
            config.replacement_size = replacement_size;
            variants.push(config);
        }
        for policy in [
            PolicyKind::TrueLru,
            PolicyKind::IntelLike,
            PolicyKind::Random,
        ] {
            let mut config = quiet_config();
            config.machine = MachineConfig::ideal(policy, 3);
            variants.push(config);
        }
        for config in &variants {
            let mut means = Vec::new();
            for d in [0usize, 1, 2, 3, 4, 6, 8] {
                let samples = replacement_latency_samples(config, d).unwrap();
                assert_eq!(samples.len(), config.samples_per_level);
                means.push(samples.iter().sum::<u64>() as f64 / samples.len() as f64);
            }
            for pair in means.windows(2) {
                assert!(
                    pair[1] > pair[0],
                    "mean latency must increase with d ({:?}, L = {}): {means:?}",
                    config.machine.hierarchy.l1d.replacement,
                    config.replacement_size
                );
            }
        }
    }

    #[test]
    fn figure4_cdfs_shift_right_with_d() {
        let config = quiet_config();
        let cdfs = latency_cdfs(&config, &[0, 4, 8]).unwrap();
        assert_eq!(cdfs.len(), 3);
        let median = |cdf: &Cdf| cdf.quantile(0.5).unwrap();
        assert!(median(&cdfs[1].1) > median(&cdfs[0].1));
        assert!(median(&cdfs[2].1) > median(&cdfs[1].1));
    }

    #[test]
    fn calibrated_binary_decoder_separates_the_classes() {
        let config = quiet_config();
        let encoding = SymbolEncoding::binary(1).unwrap();
        let decoder = calibrate_decoder(&config, &encoding).unwrap();
        let clean = replacement_latency_samples(&config, 0).unwrap();
        let dirty = replacement_latency_samples(&config, 1).unwrap();
        let errors = clean.iter().filter(|&&l| decoder.classify(l) != 0).count()
            + dirty.iter().filter(|&&l| decoder.classify(l) != 1).count();
        let total = clean.len() + dirty.len();
        assert!(
            (errors as f64) / (total as f64) < 0.05,
            "calibrated decoder misclassified {errors}/{total}"
        );
    }

    #[test]
    fn table_iv_classes_match_the_paper_ranges() {
        let mut config = quiet_config();
        config.machine.tsc = TscConfig::ideal();
        let classes = access_latency_classes(&config).unwrap();
        assert!(
            (4.0..=5.0).contains(&classes.l1_hit.mean),
            "L1 hit {:.1}",
            classes.l1_hit.mean
        );
        assert!(
            (10.0..=12.0).contains(&classes.l2_hit_clean_victim.mean),
            "L2+clean {:.1}",
            classes.l2_hit_clean_victim.mean
        );
        assert!(
            (21.0..=24.0).contains(&classes.l2_hit_dirty_victim.mean),
            "L2+dirty {:.1}",
            classes.l2_hit_dirty_victim.mean
        );
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let mut config = quiet_config();
        config.target_set = 64;
        assert!(replacement_latency_samples(&config, 0).is_err());
        let mut config = quiet_config();
        config.replacement_size = 4;
        assert!(replacement_latency_samples(&config, 0).is_err());
        let config = quiet_config();
        assert!(replacement_latency_samples(&config, 9).is_err());
    }
}
