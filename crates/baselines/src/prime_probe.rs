//! Prime+Probe: the classic contention-based Hit+Miss channel.
//!
//! The receiver fills ("primes") the target set with its own lines; the
//! sender evicts some of them by touching its own lines in the same set; the
//! receiver then re-accesses ("probes") its lines and infers the bit from the
//! probe latency.  Unlike the WB channel, both the prime and the probe touch
//! the whole set every period, and a single noisy cache line already causes
//! probe misses (Sec. VI).

use crate::common::{calibrate_threshold, classify_bit, BaselineReport, NoiseSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_cache::policy::PolicyKind;
use sim_cache::trace::TraceOp;
use sim_core::machine::{Machine, MachineConfig};
use sim_core::memlayout::SetLines;
use sim_core::process::{AddressSpace, ProcessId};
use wb_channel::Error;

const RECEIVER: u16 = 1;
const SENDER: u16 = 2;
const NOISE: u16 = 3;

/// The Prime+Probe covert channel on one L1 set.
#[derive(Debug)]
pub struct PrimeProbe {
    policy: PolicyKind,
    seed: u64,
    /// Lines the sender touches to transmit a `1`.
    sender_lines_per_one: usize,
    calibration_rounds: usize,
}

impl PrimeProbe {
    /// Creates the channel with the paper-typical configuration (sender
    /// touches two lines per `1`).
    pub fn new(seed: u64) -> PrimeProbe {
        PrimeProbe {
            policy: PolicyKind::TreePlru,
            seed,
            sender_lines_per_one: 2,
            calibration_rounds: 32,
        }
    }

    /// Uses a specific L1 replacement policy (e.g. [`PolicyKind::Random`] to
    /// reproduce the paper's observation that random replacement breaks
    /// Prime+Probe priming).
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> PrimeProbe {
        self.policy = policy;
        self
    }

    fn run(&mut self, bits: &[bool], noise: Option<NoiseSpec>) -> Result<BaselineReport, Error> {
        let mut machine = Machine::new(MachineConfig::xeon_e5_2650(self.policy, self.seed))?;
        let geometry = machine.l1_geometry();
        let target_set = 11usize;
        let prime_lines = SetLines::build(
            AddressSpace::new(ProcessId(RECEIVER)),
            geometry,
            target_set,
            geometry.associativity,
            0,
        );
        let sender_lines = SetLines::build(
            AddressSpace::new(ProcessId(SENDER)),
            geometry,
            target_set,
            geometry.associativity,
            0,
        );
        let noise_lines = SetLines::build(
            AddressSpace::new(ProcessId(NOISE)),
            geometry,
            target_set,
            2,
            9_000,
        );
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9a9a);
        let mut sender_accesses = 0u64;

        // Warm everything (one batched trace; same order as before).
        let warm: Vec<TraceOp> = prime_lines
            .lines()
            .iter()
            .chain(sender_lines.lines())
            .map(|&l| TraceOp::read(l))
            .collect();
        machine.run_trace(RECEIVER, &warm);

        let lines_per_one = self.sender_lines_per_one;
        let encode_trace: Vec<TraceOp> = (0..lines_per_one)
            .map(|i| TraceOp::read(sender_lines.line(i)))
            .collect();
        let prime = |machine: &mut Machine, rng: &mut StdRng| {
            let ops: Vec<TraceOp> = prime_lines
                .shuffled(rng)
                .into_iter()
                .map(TraceOp::read)
                .collect();
            machine.run_trace(RECEIVER, &ops);
        };
        let encode = |machine: &mut Machine, bit: bool, accesses: &mut u64| {
            if bit {
                machine.run_trace(SENDER, &encode_trace);
                *accesses += encode_trace.len() as u64;
            }
        };
        let probe = |machine: &mut Machine, rng: &mut StdRng| -> u64 {
            let order = prime_lines.shuffled(rng);
            machine.measured_chase(RECEIVER, &order).0
        };

        let threshold = calibrate_threshold(self.calibration_rounds, |bit| {
            prime(&mut machine, &mut rng);
            let mut scratch = 0;
            encode(&mut machine, bit, &mut scratch);
            probe(&mut machine, &mut rng)
        });

        let mut received = Vec::with_capacity(bits.len());
        let mut observations = Vec::with_capacity(bits.len());
        for &bit in bits {
            prime(&mut machine, &mut rng);
            encode(&mut machine, bit, &mut sender_accesses);
            if let Some(noise) = noise {
                if rng.gen_bool(noise.probability.clamp(0.0, 1.0)) {
                    let line = noise_lines.line(rng.gen_range(0..noise_lines.len()));
                    if noise.dirty {
                        machine.write(NOISE, line);
                    } else {
                        machine.read(NOISE, line);
                    }
                }
            }
            let observed = probe(&mut machine, &mut rng);
            observations.push(observed);
            received.push(classify_bit(&threshold, observed));
        }

        Ok(BaselineReport::new(
            self.name(),
            bits,
            received,
            observations,
            sender_accesses,
        ))
    }

    /// Human-readable channel name.
    pub fn name(&self) -> &'static str {
        "Prime+Probe"
    }

    /// Transmits `bits` and returns the report.
    ///
    /// # Errors
    ///
    /// Returns configuration errors from the underlying simulator.
    pub fn transmit(&mut self, bits: &[bool]) -> Result<BaselineReport, Error> {
        self.run(bits, None)
    }

    /// Transmits `bits` while a noisy cache line interferes.
    ///
    /// # Errors
    ///
    /// Returns configuration errors from the underlying simulator.
    pub fn transmit_with_noise(
        &mut self,
        bits: &[bool],
        noise: NoiseSpec,
    ) -> Result<BaselineReport, Error> {
        self.run(bits, Some(noise))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(seed: u64, len: usize) -> Vec<bool> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen()).collect()
    }

    #[test]
    fn prime_probe_transmits_without_shared_memory() {
        let mut channel = PrimeProbe::new(5);
        let bits = payload(5, 96);
        let report = channel.transmit(&bits).unwrap();
        assert!(
            report.bit_error_rate < 0.08,
            "Prime+Probe BER {}",
            report.bit_error_rate
        );
    }

    #[test]
    fn noisy_cache_lines_degrade_prime_probe() {
        // Figure 8 / Sec. VI: contention-based Hit+Miss channels are fragile
        // against noisy cache lines, unlike the WB channel.
        let bits = payload(6, 96);
        let clean = PrimeProbe::new(6).transmit(&bits).unwrap();
        let noisy = PrimeProbe::new(6)
            .transmit_with_noise(&bits, NoiseSpec::every_period())
            .unwrap();
        assert!(
            noisy.bit_error_rate > clean.bit_error_rate + 0.05,
            "noise should hurt Prime+Probe: clean {} noisy {}",
            clean.bit_error_rate,
            noisy.bit_error_rate
        );
    }

    #[test]
    fn random_replacement_hurts_prime_probe_priming() {
        // Sec. VI-A: with a random replacement policy the receiver cannot
        // reliably fill the set during the prime phase.
        let bits = payload(7, 96);
        let plru = PrimeProbe::new(7).transmit(&bits).unwrap();
        let random = PrimeProbe::new(7)
            .with_policy(PolicyKind::Random)
            .transmit(&bits)
            .unwrap();
        assert!(
            random.bit_error_rate >= plru.bit_error_rate,
            "random replacement should not improve Prime+Probe (plru {} random {})",
            plru.bit_error_rate,
            random.bit_error_rate
        );
    }
}
