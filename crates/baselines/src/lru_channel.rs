//! The LRU-state channel of Xiong & Szefer (HPCA 2020).
//!
//! This is the closest prior work: a contention-based channel without shared
//! memory that encodes a bit in the *LRU metadata* of a target set rather
//! than in its dirty bits.  The paper's Figure 8(a) walks through the exact
//! access pattern reproduced here and shows why a single noisy cache line
//! breaks it, while the WB channel shrugs it off; Section VII additionally
//! compares the two senders' cache-load footprints (Table VI).

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

/// The LRU covert channel on one L1 set (the no-shared-memory variant).
#[derive(Debug)]
pub struct LruChannel {
    policy: PolicyKind,
    seed: u64,
    /// How many times the sender re-touches its line while encoding a `1`
    /// (the LRU sender must keep modulating during the whole period, which is
    /// what makes it noisier than the WB sender in Table VI).
    pub modulations_per_one: usize,
    calibration_rounds: usize,
}

impl LruChannel {
    /// Creates the channel with true-LRU replacement (its natural setting)
    /// and the paper's observation of repeated modulation.
    pub fn new(seed: u64) -> LruChannel {
        LruChannel {
            policy: PolicyKind::TrueLru,
            seed,
            modulations_per_one: 4,
            calibration_rounds: 32,
        }
    }

    /// Uses a different replacement policy (e.g. Tree-PLRU, which the paper
    /// notes already disturbs the LRU channel).
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> LruChannel {
        self.policy = policy;
        self
    }

    fn run(&mut self, bits: &[bool], noise: Option<NoiseSpec>) -> Result<BaselineReport, Error> {
        let mut machine = Machine::new(MachineConfig::xeon_e5_2650(self.policy, self.seed))?;
        let geometry = machine.l1_geometry();
        let target_set = 19usize;
        let w = geometry.associativity;
        // Receiver lines 0..7 and the sender's "line 8" (its own address).
        let receiver_lines = SetLines::build(
            AddressSpace::new(ProcessId(RECEIVER)),
            geometry,
            target_set,
            w,
            0,
        );
        let sender_line = SetLines::build(
            AddressSpace::new(ProcessId(SENDER)),
            geometry,
            target_set,
            1,
            0,
        );
        let noise_lines = SetLines::build(
            AddressSpace::new(ProcessId(NOISE)),
            geometry,
            target_set,
            2,
            9_000,
        );
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x14c4);
        let mut sender_accesses = 0u64;

        // Warm all lines (batched; same order as before).
        let warm: Vec<TraceOp> = receiver_lines
            .lines()
            .iter()
            .map(|&l| TraceOp::read(l))
            .collect();
        machine.run_trace(RECEIVER, &warm);
        machine.read(SENDER, sender_line.line(0));

        let modulations = self.modulations_per_one;
        // Step 1 (Figure 8a): the receiver accesses lines 0-3.
        let init_trace: Vec<TraceOp> = (0..w / 2)
            .map(|i| TraceOp::read(receiver_lines.line(i)))
            .collect();
        let init = |machine: &mut Machine| {
            machine.run_trace(RECEIVER, &init_trace);
        };
        // Step 2: the sender repeatedly accesses its own line to send a 1.
        let encode_trace: Vec<TraceOp> = vec![TraceOp::read(sender_line.line(0)); modulations];
        let encode = |machine: &mut Machine, bit: bool, accesses: &mut u64| {
            if bit {
                machine.run_trace(SENDER, &encode_trace);
                *accesses += encode_trace.len() as u64;
            }
        };
        // Step 4: the receiver accesses lines 4-7 and times line 0.
        let second_half: Vec<TraceOp> = (w / 2..w)
            .map(|i| TraceOp::read(receiver_lines.line(i)))
            .collect();
        let decode = |machine: &mut Machine| -> u64 {
            machine.run_trace(RECEIVER, &second_half);
            machine.measured_read(RECEIVER, receiver_lines.line(0)).0
        };

        let threshold = calibrate_threshold(self.calibration_rounds, |bit| {
            init(&mut machine);
            let mut scratch = 0;
            encode(&mut machine, bit, &mut scratch);
            decode(&mut machine)
        });

        let mut received = Vec::with_capacity(bits.len());
        let mut observations = Vec::with_capacity(bits.len());
        for &bit in bits {
            init(&mut machine);
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
            let observed = decode(&mut machine);
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
        "LRU channel"
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
    fn lru_channel_transmits_under_true_lru() {
        let mut channel = LruChannel::new(8);
        let bits = payload(8, 96);
        let report = channel.transmit(&bits).unwrap();
        assert!(
            report.bit_error_rate < 0.05,
            "LRU channel BER {}",
            report.bit_error_rate
        );
    }

    #[test]
    fn a_single_noisy_line_breaks_the_lru_channel() {
        // Figure 8(a): with one noisy line per period, accessing line 0
        // always misses, so zeros are decoded as ones.
        let bits = payload(9, 96);
        let clean = LruChannel::new(9).transmit(&bits).unwrap();
        let noisy = LruChannel::new(9)
            .transmit_with_noise(&bits, NoiseSpec::every_period())
            .unwrap();
        assert!(
            noisy.bit_error_rate > 0.2,
            "noise should break the LRU channel, BER {}",
            noisy.bit_error_rate
        );
        assert!(noisy.bit_error_rate > clean.bit_error_rate + 0.1);
    }

    #[test]
    fn lru_sender_touches_the_cache_more_than_once_per_one_bit() {
        let mut channel = LruChannel::new(10);
        let bits = vec![true, false, true, true];
        let report = channel.transmit(&bits).unwrap();
        assert_eq!(
            report.sender_accesses,
            3 * channel.modulations_per_one as u64
        );
    }
}
