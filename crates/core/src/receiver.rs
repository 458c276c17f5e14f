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
use sim_core::memlayout::ChannelLayout;
use sim_core::program::{Action, Actor, Completion};
use sim_core::session::TraceProgram;

/// One latency observation made by the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Cycle at which the measurement completed.
    pub at: u64,
    /// The `rdtscp`-measured replacement latency in cycles.
    pub measured: u64,
}

/// The receiver state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReceiverState {
    /// Initialisation phase: fill the target set with clean lines.
    Init,
    /// Busy-wait until the next sampling point.
    Wait,
    /// Issue the measured pointer-chasing sweep.
    Decode,
}

/// The covert-channel receiver, usable as an [`Actor`] on the simulated SMT
/// core.
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
    samples: Vec<Sample>,
    state: ReceiverState,
    init_idx: usize,
    decode_count: u64,
    t_last: u64,
    /// The seed the shuffle stream derives from (kept so [`WbReceiver::compile`]
    /// can replay the identical stream from the start).
    seed: u64,
    rng: StdRng,
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
            samples: Vec::with_capacity(max_samples),
            state: ReceiverState::Init,
            init_idx: 0,
            decode_count: 0,
            t_last: 0,
            seed,
            rng: StdRng::seed_from_u64(seed ^ 0x7265_6376),
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
    /// The program issues exactly the action sequence this actor's
    /// [`Actor::next_action`] state machine would produce from its fresh
    /// state (call `compile` before driving the actor): the initialisation
    /// loads (warm both replacement sets, then fill the target set), the
    /// first-sample alignment wait, and per sample a measured pointer chase
    /// over the alternating shuffled replacement sets followed by the period
    /// wait anchored at the chase's issue time.  The shuffle stream is
    /// replayed from the constructor's seed, so the chase orders match the
    /// actor's decode-time draws.
    pub fn compile(&self) -> TraceProgram {
        let mut program = TraceProgram::new(self.name.clone(), self.domain);
        if self.max_samples == 0 {
            // The actor retires immediately without initialising.
            return program;
        }
        program.phase(sim_core::telemetry::Phase::Prime).ops(
            self.layout
                .replacement_a
                .lines()
                .iter()
                .chain(self.layout.replacement_b.lines())
                .chain(self.layout.target_lines.lines())
                .map(|&addr| sim_cache::trace::TraceOp::read(addr)),
        );
        program
            .phase(sim_core::telemetry::Phase::Wait)
            .wait_floor(self.start_at, self.phase);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7265_6376);
        for sample in 0..self.max_samples {
            program.phase(sim_core::telemetry::Phase::Decode);
            program.anchor();
            let replacement = self.layout.replacement_for(sample as u64);
            let order = replacement.shuffled(&mut rng);
            program.chase(&order);
            if sample + 1 < self.max_samples {
                program
                    .phase(sim_core::telemetry::Phase::Wait)
                    .wait_anchor(self.period);
            }
        }
        if cfg!(debug_assertions) {
            program.assert_valid();
        }
        program
    }

    /// The latency samples collected so far.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The measured latencies only, in observation order.
    pub fn latencies(&self) -> Vec<u64> {
        self.samples.iter().map(|s| s.measured).collect()
    }

    /// Whether the receiver has collected all requested samples.
    pub fn is_complete(&self) -> bool {
        self.samples.len() >= self.max_samples
    }
}

impl Actor for WbReceiver {
    fn name(&self) -> &str {
        &self.name
    }

    fn domain(&self) -> DomainId {
        self.domain
    }

    fn next_action(&mut self, now: u64) -> Action {
        if self.is_complete() {
            return Action::Done;
        }
        match self.state {
            ReceiverState::Init => {
                // Warm both replacement sets into the outer cache levels
                // first (so the very first decodes are L2-served, not
                // memory-served), then fill the target set with the
                // receiver's own clean lines — the paper's
                // initialisation phase.
                let warm_a = self.layout.replacement_a.len();
                let warm_b = self.layout.replacement_b.len();
                let total_init = warm_a + warm_b + self.layout.target_lines.len();
                if self.init_idx < total_init {
                    let i = self.init_idx;
                    self.init_idx += 1;
                    let line = if i < warm_a {
                        self.layout.replacement_a.line(i)
                    } else if i < warm_a + warm_b {
                        self.layout.replacement_b.line(i - warm_a)
                    } else {
                        self.layout.target_lines.line(i - warm_a - warm_b)
                    };
                    return Action::Load(line);
                }
                // Initialisation complete: schedule the first sample at
                // `phase` cycles into the first period (which begins at
                // the agreed rendezvous time, if one was set).
                self.state = ReceiverState::Wait;
                let anchor = now.max(self.start_at);
                self.t_last = anchor;
                Action::WaitUntil(anchor + self.phase)
            }
            ReceiverState::Wait => {
                // The wait completed (this call happens after the wait's
                // completion); take the measurement now.
                self.t_last = now;
                self.state = ReceiverState::Decode;
                let replacement = self.layout.replacement_for(self.decode_count);
                self.decode_count += 1;
                let order = replacement.shuffled(&mut self.rng);
                Action::MeasuredChase(order)
            }
            ReceiverState::Decode => {
                // Decode completed; wait for the next sampling point.
                self.state = ReceiverState::Wait;
                Action::WaitUntil(self.t_last + self.period)
            }
        }
    }

    fn on_completion(&mut self, completion: &Completion) {
        if let Some(measured) = completion.measured {
            self.samples.push(Sample {
                at: completion.finished_at,
                measured,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cache::addr::CacheGeometry;
    use sim_core::process::{AddressSpace, ProcessId};

    fn layout() -> ChannelLayout {
        ChannelLayout::build(
            AddressSpace::new(ProcessId(1)),
            CacheGeometry::xeon_l1d(),
            21,
            8,
            10,
        )
    }

    /// Drives the receiver standalone: loads take 10 cycles, chases 120.
    fn drive(receiver: &mut WbReceiver, start: u64, max_steps: usize) -> Vec<Action> {
        let mut actions = Vec::new();
        let mut now = start;
        for _ in 0..max_steps {
            let action = receiver.next_action(now);
            match &action {
                Action::Done => {
                    actions.push(action);
                    break;
                }
                Action::WaitUntil(t) => now = (*t).max(now),
                Action::MeasuredChase(_) => {
                    now += 120;
                    receiver.on_completion(&Completion {
                        finished_at: now,
                        latency: 120,
                        measured: Some(120),
                        outcomes: vec![],
                    });
                }
                _ => now += 10,
            }
            actions.push(action);
        }
        actions
    }

    #[test]
    fn init_phase_warms_replacement_sets_then_fills_the_target_set() {
        let mut receiver = WbReceiver::with_default_phase(1, layout(), 5_000, 4, 9);
        let actions = drive(&mut receiver, 0, 200);
        let init_loads: Vec<&Action> = actions
            .iter()
            .take_while(|a| matches!(a, Action::Load(_)))
            .collect();
        // 10 + 10 replacement-set lines warmed, then the 8 target lines.
        assert_eq!(init_loads.len(), 28);
        let reference = layout();
        let last_eight: Vec<u64> = init_loads[20..]
            .iter()
            .map(|a| match a {
                Action::Load(addr) => addr.value(),
                _ => unreachable!(),
            })
            .collect();
        let expected: Vec<u64> = reference
            .target_lines
            .lines()
            .iter()
            .map(|a| a.value())
            .collect();
        assert_eq!(last_eight, expected, "target set is initialised last");
    }

    #[test]
    fn collects_the_requested_number_of_samples_and_stops() {
        let mut receiver = WbReceiver::with_default_phase(1, layout(), 5_000, 5, 9);
        let actions = drive(&mut receiver, 0, 500);
        assert!(receiver.is_complete());
        assert_eq!(receiver.samples().len(), 5);
        assert_eq!(receiver.latencies(), vec![120; 5]);
        assert!(matches!(actions.last(), Some(Action::Done)));
    }

    #[test]
    fn replacement_sets_alternate_between_decodes() {
        let mut receiver = WbReceiver::with_default_phase(1, layout(), 1_000, 4, 9);
        let actions = drive(&mut receiver, 0, 500);
        let chases: Vec<&Action> = actions
            .iter()
            .filter(|a| matches!(a, Action::MeasuredChase(_)))
            .collect();
        assert_eq!(chases.len(), 4);
        let set_of = |a: &Action| -> Vec<u64> {
            match a {
                Action::MeasuredChase(addrs) => {
                    let mut v: Vec<u64> = addrs.iter().map(|p| p.value()).collect();
                    v.sort_unstable();
                    v
                }
                _ => unreachable!(),
            }
        };
        assert_eq!(
            set_of(chases[0]),
            set_of(chases[2]),
            "decode 0 and 2 use set A"
        );
        assert_eq!(
            set_of(chases[1]),
            set_of(chases[3]),
            "decode 1 and 3 use set B"
        );
        assert_ne!(set_of(chases[0]), set_of(chases[1]), "A and B are disjoint");
    }

    #[test]
    fn sampling_points_are_one_period_apart() {
        let mut receiver = WbReceiver::new(1, layout(), 2_000, 700, 3, 9);
        let actions = drive(&mut receiver, 0, 500);
        let targets: Vec<u64> = actions
            .iter()
            .filter_map(|a| match a {
                Action::WaitUntil(t) => Some(*t),
                _ => None,
            })
            .collect();
        // Init finishes after 28 loads (280 cycles): first sample at 280 +
        // 700, then one period after each decode's wait anchor.
        assert_eq!(targets[0], 980);
        assert_eq!(targets[1] - targets[0], 2_000);
        assert_eq!(targets[2] - targets[1], 2_000);
    }

    #[test]
    fn phase_is_clamped_below_the_period() {
        let receiver = WbReceiver::new(1, layout(), 100, 5_000, 1, 0);
        assert!(receiver.phase < 100);
    }
}
