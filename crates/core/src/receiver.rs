//! The WB-channel receiver (Algorithm 2 + the receiver half of Algorithm 3).
//!
//! The receiver first fills the target set with its own clean lines
//! (initialisation phase), then once per sampling period measures the latency
//! of replacing the target set with a pointer-chasing walk over one of two
//! alternating replacement sets.  Because the decode itself refills the
//! target set with clean lines, no separate re-initialisation is needed —
//! the property the paper highlights at the end of Section IV.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_cache::line::DomainId;
use sim_cache::trace::TraceOp;
use sim_core::memlayout::ChannelLayout;
use sim_core::session::TraceProgram;
use sim_core::telemetry::Phase;

/// The covert-channel receiver, defined by the [`TraceProgram`] it compiles
/// to.
#[derive(Debug)]
pub struct WbReceiver {
    name: String,
    domain: DomainId,
    layout: ChannelLayout,
    /// Sampling period `Tr` in cycles.
    period: u64,
    /// Offset of the sampling point within the period.  Sampling mid-period
    /// keeps the measurement away from the sender's encoding burst at the
    /// period start, which is what a careful attacker does.
    phase: u64,
    max_samples: usize,
    /// The seed the replacement-set shuffle stream derives from.
    seed: u64,
    /// Cycle at which the sender's first period starts; the first sample is
    /// taken `phase` cycles after this rendezvous point.
    start_at: u64,
}

impl WbReceiver {
    /// Creates a receiver that takes `max_samples` measurements, one per
    /// `period` cycles, sampling `phase` cycles into each period.
    pub fn new(
        domain: DomainId,
        layout: ChannelLayout,
        period: u64,
        phase: u64,
        max_samples: usize,
        seed: u64,
    ) -> WbReceiver {
        let period = period.max(1);
        WbReceiver {
            name: "wb-receiver".to_owned(),
            domain,
            layout,
            period,
            phase: phase.min(period.saturating_sub(1)),
            max_samples,
            seed,
            start_at: 0,
        }
    }

    /// Aligns the first sample to `phase` cycles after the given absolute
    /// cycle — the rendezvous time the sender and receiver agreed on.
    #[must_use]
    pub fn with_start_epoch(mut self, start_at: u64) -> WbReceiver {
        self.start_at = start_at;
        self
    }

    /// A receiver sampling mid-period (the default attacker configuration).
    pub fn with_default_phase(
        domain: DomainId,
        layout: ChannelLayout,
        period: u64,
        max_samples: usize,
        seed: u64,
    ) -> WbReceiver {
        let phase = period / 2;
        WbReceiver::new(domain, layout, period, phase, max_samples, seed)
    }

    /// Compiles the receiver's full sampling schedule into a
    /// [`TraceProgram`] for [`sim_core::machine::Machine::run_session`].
    ///
    /// The program is the initialisation loads — warm both replacement sets
    /// into the outer cache levels first, so the very first decodes are
    /// L2-served, then fill the target set with the receiver's own clean
    /// lines — followed by the first-sample alignment wait (`phase` cycles
    /// into the first period, which begins at the rendezvous epoch if one
    /// was set), and per sample a measured pointer chase over the
    /// alternating replacement sets, each in an order drawn from the
    /// constructor's seed, followed by the period wait anchored at the
    /// chase's issue time.
    pub fn compile(&self) -> TraceProgram {
        let mut program = TraceProgram::new(self.name.clone(), self.domain);
        if self.max_samples == 0 {
            // Nothing to measure: the receiver does not even initialise.
            return program;
        }
        program.phase(Phase::Prime).ops(
            self.layout
                .replacement_a
                .lines()
                .iter()
                .chain(self.layout.replacement_b.lines())
                .chain(self.layout.target_lines.lines())
                .map(|&addr| TraceOp::read(addr)),
        );
        program
            .phase(Phase::Wait)
            .wait_floor(self.start_at, self.phase);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7265_6376);
        for sample in 0..self.max_samples {
            program.phase(Phase::Decode);
            program.anchor();
            let replacement = self.layout.replacement_for(sample as u64);
            let order = replacement.shuffled(&mut rng);
            program.chase(&order);
            if sample + 1 < self.max_samples {
                program.phase(Phase::Wait).wait_anchor(self.period);
            }
        }
        if cfg!(debug_assertions) {
            program.assert_valid();
        }
        program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cache::addr::{CacheGeometry, PhysAddr};
    use sim_cache::policy::PolicyKind;
    use sim_core::machine::{Machine, MachineConfig};
    use sim_core::process::{AddressSpace, ProcessId};
    use sim_core::session::SessionReport;

    fn layout() -> ChannelLayout {
        ChannelLayout::build(
            AddressSpace::new(ProcessId(1)),
            CacheGeometry::xeon_l1d(),
            21,
            8,
            10,
        )
    }

    /// Runs the receiver's program alone on an ideal true-LRU machine.
    fn run(receiver: &WbReceiver, limit: u64) -> (Machine, SessionReport) {
        let mut machine = Machine::new(MachineConfig::ideal(PolicyKind::TrueLru, 1)).unwrap();
        let report = machine.run_session(&[receiver.compile()], None, limit);
        (machine, report)
    }

    /// The receiver's L1-resident lines in the target set.
    fn resident(machine: &Machine, lines: &[PhysAddr]) -> usize {
        lines
            .iter()
            .filter(|&&a| machine.hierarchy().l1().contains(a))
            .count()
    }

    #[test]
    fn init_phase_warms_replacement_sets_then_fills_the_target_set() {
        // A long phase so the session can stop during the alignment wait.
        let receiver = WbReceiver::new(1, layout(), 1_000_000, 500_000, 4, 9);
        let stats = receiver.compile().stats();
        // 10 + 10 replacement-set lines warmed, then the 8 target lines.
        assert_eq!(stats.ops, 28);
        let (machine, report) = run(&receiver, 400_000);
        assert!(report.hit_limit && report.programs[0].measurements.is_empty());
        assert_eq!(report.programs[0].summary.reads, 28);
        let reference = layout();
        assert_eq!(
            resident(&machine, reference.target_lines.lines()),
            8,
            "target set is initialised last"
        );
        assert_eq!(resident(&machine, reference.replacement_a.lines()), 0);
        assert_eq!(resident(&machine, reference.replacement_b.lines()), 0);
    }

    #[test]
    fn collects_the_requested_number_of_samples_and_stops() {
        let receiver = WbReceiver::with_default_phase(1, layout(), 5_000, 5, 9);
        assert_eq!(receiver.compile().stats().chases, 5);
        let (_, report) = run(&receiver, 1_000_000);
        assert!(!report.hit_limit && report.programs[0].finished);
        assert_eq!(report.programs[0].measurements.len(), 5);
    }

    #[test]
    fn replacement_sets_alternate_between_decodes() {
        let receiver = WbReceiver::with_default_phase(1, layout(), 1_000, 4, 9);
        let (_, full) = run(&receiver, 1_000_000);
        let reference = layout();
        for (k, sample) in full.programs[0].measurements.iter().enumerate() {
            // Stop right after decode `k`: its sweep leaves only lines of
            // the replacement set it walked in the target set.
            let (machine, _) = run(&receiver, sample.at + 1);
            let (walked, other) = if k % 2 == 0 {
                (&reference.replacement_a, &reference.replacement_b)
            } else {
                (&reference.replacement_b, &reference.replacement_a)
            };
            assert_eq!(resident(&machine, walked.lines()), 8, "decode {k}");
            assert_eq!(resident(&machine, other.lines()), 0, "decode {k}");
        }
        assert_eq!(full.programs[0].measurements.len(), 4);
    }

    #[test]
    fn sampling_points_are_one_period_apart() {
        // On an ideal TSC a sample's issue time is its finish time minus
        // its measured latency.
        let receiver = WbReceiver::new(1, layout(), 2_000, 700, 3, 9).with_start_epoch(50_000);
        let (_, report) = run(&receiver, 1_000_000);
        let issued: Vec<u64> = report.programs[0]
            .measurements
            .iter()
            .map(|m| m.at - m.measured)
            .collect();
        assert_eq!(issued, vec![50_700, 52_700, 54_700]);
    }

    #[test]
    fn phase_is_clamped_below_the_period() {
        let receiver = WbReceiver::new(1, layout(), 100, 5_000, 1, 0);
        assert!(receiver.phase < 100);
    }
}
