//! Covert-channel configuration and reports.
//!
//! [`ChannelConfig`] describes one channel operating point (encoding,
//! period, target set, machine noise, optional noisy neighbour and
//! hierarchy override); [`crate::session::ChannelSession`] runs it and
//! returns the [`TransmissionReport`]s and [`EvaluationReport`]s defined
//! here.

use crate::capacity::RatePoint;
use crate::encoding::SymbolEncoding;
use crate::error::Error;
use analysis::edit_distance::ErrorBreakdown;
use sim_cache::hierarchy::HierarchyConfig;
use sim_cache::policy::PolicyKind;
use sim_core::machine::MachineConfig;
use sim_core::sched::InterruptConfig;
use sim_core::tsc::TscConfig;

/// Configuration of a noisy-neighbour process running alongside the channel
/// (Sec. VI / Figure 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Cycles between noise accesses to the target set.
    pub interval: u64,
    /// Number of distinct noisy lines cycled through.
    pub lines: usize,
    /// Fraction of noise accesses that are stores.
    pub store_fraction: f64,
}

impl NoiseConfig {
    /// A single clean noisy cache line touched every `interval` cycles — the
    /// scenario of Figure 8.
    pub fn single_clean_line(interval: u64) -> NoiseConfig {
        NoiseConfig {
            interval,
            lines: 1,
            store_fraction: 0.0,
        }
    }
}

/// Channel configuration (builder-constructed).
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelConfig {
    /// Symbol encoding.
    pub encoding: SymbolEncoding,
    /// Sending period `Ts` = sampling period `Tr`, in cycles.
    pub period_cycles: u64,
    /// The L1 set used as the target set.
    pub target_set: usize,
    /// Replacement-set size (10 on the paper's machine).
    pub replacement_size: usize,
    /// L1 replacement policy of the simulated machine.
    pub policy: PolicyKind,
    /// OS interruption noise profile.
    pub interrupts: InterruptConfig,
    /// Measurement (rdtscp) noise profile.
    pub tsc: TscConfig,
    /// Optional noisy-neighbour process.
    pub noise: Option<NoiseConfig>,
    /// Optional hierarchy override (inclusion policy, write-back routing,
    /// latencies, LLC shape).  `None` runs the paper's default machine
    /// ([`sim_cache::hierarchy::HierarchyConfig::xeon_e5_2650`]); the
    /// hierarchy-matrix scenario injects commercial-processor presets here.
    /// The override's own `seed` field is ignored — per-frame seeds are
    /// stamped in, exactly as on the default path.
    pub hierarchy: Option<HierarchyConfig>,
    /// Calibration sample count per symbol level.
    pub calibration_samples: usize,
    /// Master seed.
    pub seed: u64,
}

impl ChannelConfig {
    /// Starts building a configuration with the paper's defaults.
    pub fn builder() -> ChannelConfigBuilder {
        ChannelConfigBuilder::new()
    }

    pub(crate) fn machine_config(&self, seed: u64) -> MachineConfig {
        let mut machine = MachineConfig::xeon_e5_2650(self.policy, seed);
        if let Some(mut hierarchy) = self.hierarchy {
            hierarchy.seed = seed;
            machine.hierarchy = hierarchy;
        }
        machine.interrupts = self.interrupts;
        machine.tsc = self.tsc;
        machine
    }
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig::builder()
            .build()
            .expect("defaults are valid")
    }
}

/// Builder for [`ChannelConfig`].
#[derive(Debug, Clone)]
pub struct ChannelConfigBuilder {
    encoding: SymbolEncoding,
    period_cycles: u64,
    target_set: usize,
    replacement_size: usize,
    policy: PolicyKind,
    interrupts: InterruptConfig,
    tsc: TscConfig,
    noise: Option<NoiseConfig>,
    hierarchy: Option<HierarchyConfig>,
    calibration_samples: usize,
    seed: u64,
}

impl ChannelConfigBuilder {
    /// Creates a builder with the paper's defaults: binary symbols with one
    /// dirty line, `Ts = Tr = 5500` cycles (400 kbps), target set 21,
    /// replacement sets of 10 lines, Tree-PLRU, quiet pinned-core noise.
    pub fn new() -> ChannelConfigBuilder {
        ChannelConfigBuilder {
            encoding: SymbolEncoding::Binary { dirty_lines: 1 },
            period_cycles: 5_500,
            target_set: 21,
            replacement_size: 10,
            policy: PolicyKind::TreePlru,
            interrupts: InterruptConfig::pinned_quiet(),
            tsc: TscConfig::xeon_e5_2650(),
            noise: None,
            hierarchy: None,
            calibration_samples: 120,
            seed: 1,
        }
    }

    /// Sets the symbol encoding.
    pub fn encoding(&mut self, encoding: SymbolEncoding) -> &mut Self {
        self.encoding = encoding;
        self
    }

    /// Sets `Ts = Tr` in cycles.
    pub fn period_cycles(&mut self, period: u64) -> &mut Self {
        self.period_cycles = period;
        self
    }

    /// Sets the target set index.
    pub fn target_set(&mut self, set: usize) -> &mut Self {
        self.target_set = set;
        self
    }

    /// Sets the replacement-set size.
    pub fn replacement_size(&mut self, size: usize) -> &mut Self {
        self.replacement_size = size;
        self
    }

    /// Sets the L1 replacement policy.
    pub fn policy(&mut self, policy: PolicyKind) -> &mut Self {
        self.policy = policy;
        self
    }

    /// Sets the OS interruption profile.
    pub fn interrupts(&mut self, interrupts: InterruptConfig) -> &mut Self {
        self.interrupts = interrupts;
        self
    }

    /// Sets the measurement-noise profile.
    pub fn tsc(&mut self, tsc: TscConfig) -> &mut Self {
        self.tsc = tsc;
        self
    }

    /// Adds a noisy-neighbour process.
    pub fn noise(&mut self, noise: NoiseConfig) -> &mut Self {
        self.noise = Some(noise);
        self
    }

    /// Overrides the simulated machine's cache hierarchy (the sweep axis of
    /// the hierarchy-matrix scenario).  The override's L1 must keep the
    /// paper's 64-set, 8-way shape — the channel's eviction sets and the
    /// `target_set`/`replacement_size` validation are built on it — and its
    /// L1 replacement policy becomes the channel's `policy`.
    pub fn hierarchy(&mut self, hierarchy: HierarchyConfig) -> &mut Self {
        self.hierarchy = Some(hierarchy);
        self.policy = hierarchy.l1d.replacement;
        self
    }

    /// Sets the number of calibration samples per symbol level.
    pub fn calibration_samples(&mut self, samples: usize) -> &mut Self {
        self.calibration_samples = samples;
        self
    }

    /// Sets the master seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a zero period, an out-of-range
    /// target set or a replacement set smaller than the associativity.
    pub fn build(&self) -> Result<ChannelConfig, Error> {
        if self.period_cycles == 0 {
            return Err(Error::InvalidConfig {
                field: "period_cycles",
                reason: "must be non-zero".into(),
            });
        }
        if self.target_set >= 64 {
            return Err(Error::InvalidConfig {
                field: "target_set",
                reason: format!("the 32 KiB L1 has 64 sets, got set {}", self.target_set),
            });
        }
        if self.replacement_size < 8 {
            return Err(Error::InvalidConfig {
                field: "replacement_size",
                reason: "replacement sets need at least W = 8 lines".into(),
            });
        }
        if let Some(hierarchy) = self.hierarchy {
            let l1 = hierarchy.l1d.geometry;
            if l1.num_sets != 64 || l1.associativity != 8 {
                return Err(Error::InvalidConfig {
                    field: "hierarchy",
                    reason: format!(
                        "the channel needs the paper's 64-set, 8-way L1, got {} sets x {} ways",
                        l1.num_sets, l1.associativity
                    ),
                });
            }
        }
        Ok(ChannelConfig {
            encoding: self.encoding.clone(),
            period_cycles: self.period_cycles,
            target_set: self.target_set,
            replacement_size: self.replacement_size,
            policy: self.policy,
            interrupts: self.interrupts,
            tsc: self.tsc,
            noise: self.noise,
            hierarchy: self.hierarchy,
            calibration_samples: self.calibration_samples,
            seed: self.seed,
        })
    }
}

impl Default for ChannelConfigBuilder {
    fn default() -> Self {
        ChannelConfigBuilder::new()
    }
}

/// Report of one frame transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct TransmissionReport {
    /// The bits that were transmitted (preamble included).
    pub sent_bits: Vec<bool>,
    /// The bits the receiver decoded (aligned to the frame start).
    pub received_bits: Vec<bool>,
    /// The raw latency samples observed by the receiver.
    pub latencies: Vec<u64>,
    /// Offset at which the preamble was found in the decoded stream.
    pub alignment_offset: usize,
    /// Edit distance between sent and received bits.
    pub edit_distance: usize,
    /// Per-error-type breakdown.
    pub breakdown: ErrorBreakdown,
    /// Bit error rate (edit distance / sent bits).
    pub(crate) bit_error_rate: f64,
    /// Achieved transmission rate in kbps.
    pub rate_kbps: f64,
}

impl TransmissionReport {
    /// The bit error rate of this transmission, in `[0, 1]`.
    pub fn bit_error_rate(&self) -> f64 {
        self.bit_error_rate
    }
}

/// Aggregate report of a multi-frame evaluation (one point of Figure 6).
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationReport {
    /// Number of frames transmitted.
    pub frames: usize,
    /// Bits per frame.
    pub bits_per_frame: usize,
    /// Mean bit error rate over all frames.
    pub mean_bit_error_rate: f64,
    /// Worst single-frame bit error rate.
    pub max_bit_error_rate: f64,
    /// Transmission rate in kbps.
    pub rate_kbps: f64,
    /// The corresponding rate/error point.
    pub rate_point: RatePoint,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ChannelSession;

    fn quiet_config(encoding: SymbolEncoding, period: u64) -> ChannelConfig {
        ChannelConfig::builder()
            .encoding(encoding)
            .period_cycles(period)
            .interrupts(InterruptConfig::none())
            .tsc(TscConfig::ideal())
            .calibration_samples(60)
            .seed(11)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_inputs() {
        assert!(ChannelConfig::builder().period_cycles(0).build().is_err());
        assert!(ChannelConfig::builder().target_set(64).build().is_err());
        assert!(ChannelConfig::builder()
            .replacement_size(4)
            .build()
            .is_err());
        let config = ChannelConfig::default();
        assert_eq!(config.period_cycles, 5_500);
        assert_eq!(config.replacement_size, 10);
    }

    #[test]
    fn hierarchy_override_is_validated_and_syncs_the_policy() {
        use sim_cache::hierarchy::HierarchyPreset;
        // A non-paper L1 shape is rejected.
        let mut bad = HierarchyConfig::xeon_e5_2650(PolicyKind::TreePlru, 0);
        bad.l1d = sim_cache::config::CacheConfig::builder(sim_cache::config::CacheLevel::L1D)
            .size_bytes(16 * 1024)
            .associativity(4)
            .build()
            .unwrap();
        assert!(ChannelConfig::builder().hierarchy(bad).build().is_err());
        // A preset hierarchy is accepted, drives the machine, and its L1
        // policy becomes the channel policy.
        let preset = HierarchyPreset::ArmPoc
            .config(PolicyKind::Srrip, 8, 0)
            .unwrap();
        let config = ChannelConfig::builder().hierarchy(preset).build().unwrap();
        assert_eq!(config.policy, PolicyKind::Srrip);
        let machine = config.machine_config(42);
        assert_eq!(machine.hierarchy.latency, preset.latency);
        assert_eq!(machine.hierarchy.inclusion, preset.inclusion);
        assert_eq!(machine.hierarchy.seed, 42, "per-frame seeds are stamped");
    }

    #[test]
    fn quiet_transmission_is_error_free_on_every_hierarchy_preset() {
        use sim_cache::hierarchy::HierarchyPreset;
        // The paper's mechanism is an L1 dirty-eviction stall; it must
        // survive every commercial-processor hierarchy shape on the quiet
        // machine.
        for preset in HierarchyPreset::ALL {
            let hierarchy = preset.config(PolicyKind::TreePlru, 16, 0).unwrap();
            let config = ChannelConfig::builder()
                .encoding(SymbolEncoding::binary(1).unwrap())
                .interrupts(InterruptConfig::none())
                .tsc(TscConfig::ideal())
                .calibration_samples(60)
                .seed(11)
                .hierarchy(hierarchy)
                .build()
                .unwrap();
            let mut channel = ChannelSession::new(config).unwrap();
            let payload: Vec<bool> = (0..48).map(|i| i % 3 == 0).collect();
            let report = channel.transmit_bits(&payload).unwrap();
            assert_eq!(
                report.edit_distance,
                0,
                "preset {} must decode exactly: sent {:?} got {:?}",
                preset.label(),
                report.sent_bits,
                report.received_bits
            );
        }
    }

    #[test]
    fn noiseless_binary_transmission_is_error_free() {
        for (period, rate_kbps) in [(5_500, 400.0), (1_600, 1_375.0), (800, 2_750.0)] {
            let config = quiet_config(SymbolEncoding::binary(1).unwrap(), period);
            let mut channel = ChannelSession::new(config).unwrap();
            let payload: Vec<bool> = (0..48).map(|i| i % 3 == 0).collect();
            let report = channel.transmit_bits(&payload).unwrap();
            assert_eq!(
                report.edit_distance, 0,
                "noiseless channel must be exact at Ts = {period}: sent {:?} got {:?} (latencies {:?})",
                report.sent_bits, report.received_bits, report.latencies
            );
            assert_eq!(report.bit_error_rate(), 0.0);
            assert!((report.rate_kbps - rate_kbps).abs() < 1e-9);
        }
    }

    #[test]
    fn noiseless_multibit_transmission_is_error_free() {
        let config = quiet_config(SymbolEncoding::paper_two_bit(), 4_000);
        let mut channel = ChannelSession::new(config).unwrap();
        let payload: Vec<bool> = (0..64).map(|i| (i * 7) % 5 < 2).collect();
        let report = channel.transmit_bits(&payload).unwrap();
        assert_eq!(report.edit_distance, 0, "latencies: {:?}", report.latencies);
        assert!((report.rate_kbps - 1_100.0).abs() < 1e-9);
    }

    #[test]
    fn larger_d_raises_received_latencies_for_ones() {
        let config_d1 = quiet_config(SymbolEncoding::binary(1).unwrap(), 5_500);
        let config_d8 = quiet_config(SymbolEncoding::binary(8).unwrap(), 5_500);
        let mut ch1 = ChannelSession::new(config_d1).unwrap();
        let mut ch8 = ChannelSession::new(config_d8).unwrap();
        let payload = vec![true; 32];
        let r1 = ch1.transmit_bits(&payload).unwrap();
        let r8 = ch8.transmit_bits(&payload).unwrap();
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        // Skip the preamble region (it contains zeros in both runs).
        assert!(
            mean(&r8.latencies[20..]) > mean(&r1.latencies[20..]) + 40.0,
            "d=8 should be ~77 cycles slower than d=1"
        );
    }

    #[test]
    fn realistic_noise_keeps_error_rate_low_at_400_kbps() {
        // The paper's Figure 6: at 400 kbps every d has a very low error rate.
        let config = ChannelConfig::builder()
            .encoding(SymbolEncoding::binary(4).unwrap())
            .period_cycles(5_500)
            .calibration_samples(80)
            .seed(5)
            .build()
            .unwrap();
        let mut channel = ChannelSession::new(config).unwrap();
        let report = channel.evaluate(6, 128).unwrap();
        assert!(
            report.mean_bit_error_rate < 0.08,
            "BER at 400 kbps should be small, got {}",
            report.mean_bit_error_rate
        );
        assert_eq!(report.frames, 6);
        assert!(report.rate_point.goodput_kbps() > 300.0);
    }

    #[test]
    fn evaluation_report_scales_rate_with_period() {
        let config = quiet_config(SymbolEncoding::binary(2).unwrap(), 1_600);
        let mut channel = ChannelSession::new(config).unwrap();
        let report = channel.evaluate(2, 64).unwrap();
        assert!((report.rate_kbps - 1_375.0).abs() < 1e-9);

        // The paper's fastest point: two-bit symbols at Ts = 1000 are not
        // always exact even on the quiet machine, but stay under 5% BER.
        let config = quiet_config(SymbolEncoding::paper_two_bit(), 1_000);
        let mut channel = ChannelSession::new(config).unwrap();
        let report = channel.evaluate(2, 128).unwrap();
        assert!((report.rate_kbps - 4_400.0).abs() < 1e-9);
        assert!(
            report.mean_bit_error_rate < 0.05,
            "BER at 4400 kbps: {}",
            report.mean_bit_error_rate
        );
    }

    #[test]
    fn noisy_neighbor_does_not_break_the_wb_channel() {
        // Figure 8(b): a clean noisy cache line does not disturb WB decoding.
        let mut builder = ChannelConfig::builder();
        builder
            .encoding(SymbolEncoding::binary(1).unwrap())
            .period_cycles(5_500)
            .interrupts(InterruptConfig::none())
            .tsc(TscConfig::ideal())
            .calibration_samples(60)
            .noise(NoiseConfig::single_clean_line(2_000))
            .seed(3);
        let config = builder.build().unwrap();
        let mut channel = ChannelSession::new(config).unwrap();
        let payload: Vec<bool> = (0..64).map(|i| i % 2 == 0).collect();
        let report = channel.transmit_bits(&payload).unwrap();
        assert!(
            report.bit_error_rate() < 0.05,
            "clean noise lines must not disturb the WB channel, BER = {}",
            report.bit_error_rate()
        );
    }
}
