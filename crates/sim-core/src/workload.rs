//! The benign `g++` co-runner.
//!
//! Table VII of the paper compares the sender's cache miss rates against a
//! baseline in which the sender shares its physical core with a benign `g++`
//! compile job.  We obviously cannot run gcc inside the simulator, so
//! [`CompilerWorkload`] emulates the cache *footprint* of a compiler front
//! end: streaming reads over a large source buffer, hash-table-like random
//! probes into a symbol table, and bursts of stores into an output buffer.
//!
//! The workload never finishes, so it is not compiled into a
//! [`crate::session::TraceProgram`]: a program safe for the whole
//! measurement window would hold millions of steps.  Instead
//! [`crate::machine::Machine::run_session`] draws its turns lazily through
//! [`CompilerWorkload::next_turn`], as the session's companion thread.

use crate::process::AddressSpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_cache::line::DomainId;
use sim_cache::trace::TraceOp;

/// One scheduling turn of a [`CompilerWorkload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadTurn {
    /// A demand load or store.
    Op(TraceOp),
    /// Compute without memory accesses for this many cycles.
    Think(u64),
}

/// Parameters of the compiler-like workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompilerWorkloadConfig {
    /// Size of the streaming "source text" region in bytes.
    pub source_bytes: u64,
    /// Size of the randomly probed "symbol table" region in bytes.
    pub symbol_table_bytes: u64,
    /// Size of the sequentially written "output" region in bytes.
    pub output_bytes: u64,
    /// Fraction of accesses that are symbol-table probes.
    pub probe_fraction: f64,
    /// Fraction of accesses that are output stores.
    pub store_fraction: f64,
    /// Compute cycles between memory accesses (models non-memory work).
    pub think_time: u64,
}

impl Default for CompilerWorkloadConfig {
    fn default() -> Self {
        CompilerWorkloadConfig {
            source_bytes: 2 * 1024 * 1024,
            symbol_table_bytes: 512 * 1024,
            output_bytes: 1024 * 1024,
            probe_fraction: 0.35,
            store_fraction: 0.20,
            think_time: 6,
        }
    }
}

/// A `g++`-like benign co-runner.
#[derive(Debug)]
pub struct CompilerWorkload {
    config: CompilerWorkloadConfig,
    space: AddressSpace,
    domain: DomainId,
    rng: StdRng,
    source_cursor: u64,
    output_cursor: u64,
    pending_think: bool,
}

/// Region base offsets inside the workload's virtual address space.
const SOURCE_BASE: u64 = 0x1000_0000;
const SYMBOLS_BASE: u64 = 0x2000_0000;
const OUTPUT_BASE: u64 = 0x3000_0000;

impl CompilerWorkload {
    /// Creates the workload in `space`, attributed to `domain`.
    pub fn new(
        space: AddressSpace,
        domain: DomainId,
        config: CompilerWorkloadConfig,
        seed: u64,
    ) -> CompilerWorkload {
        CompilerWorkload {
            config,
            space,
            domain,
            rng: StdRng::seed_from_u64(seed),
            source_cursor: 0,
            output_cursor: 0,
            pending_think: false,
        }
    }

    /// Short name used in reports (the companion's [`ProgramReport`] name).
    ///
    /// [`ProgramReport`]: crate::session::ProgramReport
    pub fn name(&self) -> &str {
        "g++"
    }

    /// The cache/perf attribution domain of the workload.
    pub fn domain(&self) -> DomainId {
        self.domain
    }

    /// The workload's next scheduling turn: a memory operation, or (after
    /// every operation) `think_time` cycles of compute.  The workload never
    /// finishes; the session deadline ends it.
    pub fn next_turn(&mut self) -> WorkloadTurn {
        if self.pending_think && self.config.think_time > 0 {
            self.pending_think = false;
            return WorkloadTurn::Think(self.config.think_time);
        }
        self.pending_think = true;
        let roll: f64 = self.rng.gen();
        if roll < self.config.store_fraction {
            // Sequential stores into the output buffer (dirty lines!).
            let addr = self
                .space
                .translate(OUTPUT_BASE + (self.output_cursor % self.config.output_bytes));
            self.output_cursor += 64;
            WorkloadTurn::Op(TraceOp::write(addr))
        } else if roll < self.config.store_fraction + self.config.probe_fraction {
            // Random probe into the symbol table.
            let offset = self.rng.gen_range(0..self.config.symbol_table_bytes) & !63;
            WorkloadTurn::Op(TraceOp::read(self.space.translate(SYMBOLS_BASE + offset)))
        } else {
            // Streaming read of the source text.
            let addr = self
                .space
                .translate(SOURCE_BASE + (self.source_cursor % self.config.source_bytes));
            self.source_cursor += 64;
            WorkloadTurn::Op(TraceOp::read(addr))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineConfig};
    use crate::process::ProcessId;
    use sim_cache::policy::PolicyKind;

    fn run_alone(seed: u64, domain: DomainId, workload_seed: u64, limit: u64) -> Machine {
        let mut machine = Machine::new(MachineConfig::ideal(PolicyKind::TreePlru, seed)).unwrap();
        let mut workload = CompilerWorkload::new(
            AddressSpace::new(ProcessId(domain)),
            domain,
            CompilerWorkloadConfig::default(),
            workload_seed,
        );
        let report = machine.run_session(&[], Some(&mut workload), limit);
        assert!(report.hit_limit, "the workload never finishes");
        assert_eq!(report.programs[0].name, "g++");
        machine
    }

    #[test]
    fn compiler_workload_touches_all_three_regions() {
        let machine = run_alone(0, 3, 99, 500_000);
        let perf = machine.perf(3);
        assert!(perf.l1_loads > 1_000, "loads: {}", perf.l1_loads);
        assert!(perf.stores > 100, "stores: {}", perf.stores);
        // The multi-megabyte working set cannot fit in the L1/L2: there must
        // be misses at every level, giving the non-trivial baseline miss
        // rates of Table VII.
        assert!(perf.l1_miss_rate() > 0.0);
        assert!(perf.l2_miss_rate() > 0.0);
    }

    #[test]
    fn compiler_workload_creates_dirty_lines_across_sets() {
        let machine = run_alone(1, 4, 7, 300_000);
        let g = machine.l1_geometry();
        let dirty_sets = (0..g.num_sets)
            .filter(|&s| machine.hierarchy().l1().dirty_count_in_set(s) > 0)
            .count();
        assert!(dirty_sets > 4, "stores should dirty lines in many sets");
    }

    #[test]
    fn every_operation_is_followed_by_its_think_time() {
        let mut workload = CompilerWorkload::new(
            AddressSpace::new(ProcessId(3)),
            3,
            CompilerWorkloadConfig::default(),
            5,
        );
        for _ in 0..50 {
            assert!(matches!(workload.next_turn(), WorkloadTurn::Op(_)));
            assert_eq!(workload.next_turn(), WorkloadTurn::Think(6));
        }
    }
}
