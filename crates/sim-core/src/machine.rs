//! The simulated machine: a hyper-threaded core in front of the cache
//! hierarchy.
//!
//! [`Machine`] owns the [`sim_cache::hierarchy::CacheHierarchy`], a global
//! cycle counter (the simulated time-stamp counter), the measurement-noise
//! model, per-domain perf counters and the OS-interrupt noise model.  It can
//! be driven in two ways:
//!
//! * **directly** — experiment code calls [`Machine::read`],
//!   [`Machine::write`], [`Machine::measured_chase`] etc.; each call advances
//!   the clock by the access latency.  This is how the single-threaded
//!   calibration experiments (Table IV, Figure 4) run.
//! * **as an SMT core** — [`Machine::run_session`], the one executor,
//!   interleaves compiled [`TraceProgram`]s (sender, receiver, noise
//!   processes) and an optional `g++`-like [`CompilerWorkload`] companion on
//!   the shared hierarchy in event order, which is how the covert-channel
//!   transmissions and the stealthiness experiments run.  This mirrors the
//!   paper's setup of two hyper-threads pinned to one physical core with
//!   `sched_setaffinity`.

use crate::perf::{PerfCounters, PerfStore};
use crate::sched::{InterruptConfig, InterruptModel};
use crate::session::{Measurement, ProgramReport, SessionReport, TraceProgram, TraceStep};
use crate::telemetry::{Phase, TraceEvent, TraceSink};
use crate::tsc::{TscConfig, TscModel};
use crate::workload::{CompilerWorkload, WorkloadTurn};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_cache::addr::{CacheGeometry, PhysAddr};
use sim_cache::cache::AccessContext;
use sim_cache::hierarchy::{CacheHierarchy, HierarchyConfig};
use sim_cache::line::DomainId;
use sim_cache::outcome::AccessOutcome;
use sim_cache::policy::PolicyKind;
use sim_cache::trace::{TraceKind, TraceOp, TraceSummary};

/// Configuration of a [`Machine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Cache-hierarchy configuration.
    pub hierarchy: HierarchyConfig,
    /// Measurement (rdtscp) model.
    pub tsc: TscConfig,
    /// OS interruption noise applied to every hardware thread.
    pub interrupts: InterruptConfig,
    /// Core clock in GHz, used to convert cycles into seconds/kbps
    /// (the paper's machine runs at 2.2 GHz).
    pub clock_ghz: f64,
    /// Master seed for all machine-level randomness.
    pub seed: u64,
}

impl MachineConfig {
    /// The paper's evaluation machine: Xeon E5-2650 caches, 2.2 GHz clock,
    /// realistic rdtscp noise and a quiet pinned-core interrupt profile.
    pub fn xeon_e5_2650(l1_policy: PolicyKind, seed: u64) -> MachineConfig {
        MachineConfig {
            hierarchy: HierarchyConfig::xeon_e5_2650(l1_policy, seed),
            tsc: TscConfig::xeon_e5_2650(),
            interrupts: InterruptConfig::pinned_quiet(),
            clock_ghz: 2.2,
            seed,
        }
    }

    /// A noiseless machine for unit tests and latency calibration.
    pub fn ideal(l1_policy: PolicyKind, seed: u64) -> MachineConfig {
        MachineConfig {
            hierarchy: HierarchyConfig::xeon_e5_2650(l1_policy, seed),
            tsc: TscConfig::ideal(),
            interrupts: InterruptConfig::none(),
            clock_ghz: 2.2,
            seed,
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, 0)
    }
}

/// Per-thread scheduling state of an in-flight session run (one compiled
/// program or the companion).
#[derive(Debug)]
struct SessionThread {
    ready_at: u64,
    done: bool,
    interrupts: InterruptModel,
    actions: u64,
    stalled: u64,
    /// Compiled-program cursor: next step index.
    step: usize,
    /// Offset within the current `Ops` step.
    op_cursor: usize,
    /// The program's anchor register (`Tlast` of Algorithm 3).
    anchor: u64,
    /// The open telemetry phase span.
    span: Option<Phase>,
}

/// One executed scheduling turn: its true latency, the `rdtscp` value of a
/// chase, and the phase its cycles are attributed to.
#[derive(Debug, Clone, Copy)]
struct Turn {
    latency: u64,
    measured: Option<u64>,
    phase: Phase,
}

/// The simulated machine.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    hierarchy: CacheHierarchy,
    tsc: TscModel,
    rng: StdRng,
    now: u64,
    perf: PerfStore,
    /// Telemetry sink (disabled by default). The sink only *observes*
    /// sim-cycle timestamps already computed by the executors — it never
    /// touches the RNG, the TSC or the scheduler, so an enabled sink
    /// records exactly the run a disabled sink would have produced.
    sink: TraceSink,
}

impl Machine {
    /// Builds a machine from its configuration.
    ///
    /// # Errors
    ///
    /// Propagates cache-configuration errors.
    pub fn new(config: MachineConfig) -> Result<Machine, sim_cache::Error> {
        Ok(Machine {
            hierarchy: CacheHierarchy::new(config.hierarchy)?,
            tsc: TscModel::new(config.tsc),
            rng: StdRng::seed_from_u64(config.seed ^ 0x6d61_6368),
            now: 0,
            perf: PerfStore::new(),
            sink: TraceSink::disabled(),
            config,
        })
    }

    /// Convenience constructor for the paper's machine.
    ///
    /// # Panics
    ///
    /// Never panics; the built-in configuration is valid.
    pub fn xeon_e5_2650(l1_policy: PolicyKind, seed: u64) -> Machine {
        Machine::new(MachineConfig::xeon_e5_2650(l1_policy, seed))
            .expect("built-in configuration is valid")
    }

    /// Resets this machine to the state [`Machine::new`] would produce for
    /// `config`, reusing the cache arenas when geometries are unchanged.
    /// Behaviourally indistinguishable from a fresh construction — the
    /// per-frame transmit loop uses this to stop paying the hierarchy
    /// allocation for every frame.
    ///
    /// # Errors
    ///
    /// Propagates cache-configuration errors.
    pub fn reset(&mut self, config: MachineConfig) -> Result<(), sim_cache::Error> {
        self.hierarchy.reset(config.hierarchy)?;
        self.tsc = TscModel::new(config.tsc);
        self.rng = StdRng::seed_from_u64(config.seed ^ 0x6d61_6368);
        self.now = 0;
        self.perf.reset();
        self.config = config;
        Ok(())
    }

    /// The configuration this machine was built from.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current cycle (the simulated time-stamp counter).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Core clock in GHz.
    pub fn clock_ghz(&self) -> f64 {
        self.config.clock_ghz
    }

    /// The L1 data-cache geometry.
    pub fn l1_geometry(&self) -> CacheGeometry {
        self.hierarchy.l1_geometry()
    }

    /// Shared access to the cache hierarchy.
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hierarchy
    }

    /// Exclusive access to the cache hierarchy (defense configuration,
    /// direct state inspection in tests).
    pub fn hierarchy_mut(&mut self) -> &mut CacheHierarchy {
        &mut self.hierarchy
    }

    /// Perf counters of `domain`.
    pub fn perf(&self, domain: DomainId) -> PerfCounters {
        self.perf.counters(domain)
    }

    /// Enables telemetry recording (replaces the sink with an active one).
    /// The sink survives [`Machine::reset`]: a session reusing one machine
    /// across frames enables tracing once and drains events per frame with
    /// [`Machine::take_trace`].
    pub fn enable_tracing(&mut self) {
        self.sink = TraceSink::active();
    }

    /// Whether the telemetry sink is recording.
    pub fn tracing_enabled(&self) -> bool {
        self.sink.is_enabled()
    }

    /// The telemetry events recorded so far, in recording order.
    pub fn trace_events(&self) -> &[TraceEvent] {
        self.sink.events()
    }

    /// Drains the recorded telemetry events (the sink stays enabled).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.sink.take()
    }

    /// Performs a demand load for `domain` and advances the clock.
    pub fn read(&mut self, domain: DomainId, addr: PhysAddr) -> AccessOutcome {
        let outcome = self.hierarchy.read(addr, AccessContext::for_domain(domain));
        self.perf.record(domain, &outcome);
        self.now += outcome.cycles;
        outcome
    }

    /// Performs a demand store for `domain` and advances the clock.
    pub fn write(&mut self, domain: DomainId, addr: PhysAddr) -> AccessOutcome {
        let outcome = self
            .hierarchy
            .write(addr, AccessContext::for_domain(domain));
        self.perf.record(domain, &outcome);
        self.now += outcome.cycles;
        outcome
    }

    /// Executes a batched trace for `domain` and advances the clock once.
    ///
    /// Per-op semantics are identical to issuing the operations through
    /// [`Machine::read`] / [`Machine::write`] / [`Machine::flush`] in
    /// sequence — same cache-state evolution, cycle attribution and perf
    /// counters — but the per-access [`AccessOutcome`] handling and perf
    /// bookkeeping are folded into one summary.  The warm-up and refill
    /// loops of the calibration and defense harnesses run through this.
    pub fn run_trace(&mut self, domain: DomainId, ops: &[TraceOp]) -> TraceSummary {
        let summary = self
            .hierarchy
            .run_trace(ops, AccessContext::for_domain(domain));
        self.perf.record_trace(domain, &summary);
        self.now += summary.cycles;
        summary
    }

    /// As [`Machine::run_trace`], but additionally captures every
    /// operation's latency into `latencies` (the timed-read capture of the
    /// trace engine; per-op samples identical to what per-access calls
    /// would have returned).
    pub fn run_trace_timed(
        &mut self,
        domain: DomainId,
        ops: &[TraceOp],
        latencies: &mut Vec<u64>,
    ) -> TraceSummary {
        let summary =
            self.hierarchy
                .run_trace_timed(ops, AccessContext::for_domain(domain), latencies);
        self.perf.record_trace(domain, &summary);
        self.now += summary.cycles;
        summary
    }

    /// Flushes a line for `domain` and advances the clock.
    pub fn flush(&mut self, domain: DomainId, addr: PhysAddr) -> AccessOutcome {
        let outcome = self
            .hierarchy
            .flush(addr, AccessContext::for_domain(domain));
        self.perf.record(domain, &outcome);
        self.now += outcome.cycles;
        outcome
    }

    /// Executes a serialised pointer-chasing walk and returns
    /// `(measured, true_latency)`: the value the attacker's `rdtscp` pair
    /// reports and the underlying true latency.
    ///
    /// The walk — the receiver's decode hot loop — runs through the batched
    /// trace engine: per-line semantics are unchanged but no per-access
    /// outcome is materialised.
    pub fn measured_chase(&mut self, domain: DomainId, addrs: &[PhysAddr]) -> (u64, u64) {
        let summary = self
            .hierarchy
            .run_read_trace(addrs, AccessContext::for_domain(domain));
        self.perf.record_trace(domain, &summary);
        self.now += summary.cycles;
        let measured = self.tsc.measure(summary.cycles, &mut self.rng);
        (measured, summary.cycles)
    }

    /// Executes a single measured load, returning `(measured, outcome)`.
    pub fn measured_read(&mut self, domain: DomainId, addr: PhysAddr) -> (u64, AccessOutcome) {
        let outcome = self.hierarchy.read(addr, AccessContext::for_domain(domain));
        self.perf.record(domain, &outcome);
        self.now += outcome.cycles;
        let measured = self.tsc.measure(outcome.cycles, &mut self.rng);
        (measured, outcome)
    }

    /// Performs one demand access or flush for `ctx` without touching the
    /// clock or the perf counters.
    fn access(&mut self, op: TraceOp, ctx: AccessContext) -> AccessOutcome {
        match op.kind {
            TraceKind::Read => self.hierarchy.read(op.addr, ctx),
            TraceKind::Write => self.hierarchy.write(op.addr, ctx),
            TraceKind::Flush => self.hierarchy.flush(op.addr, ctx),
        }
    }

    /// Runs a set of compiled [`TraceProgram`]s, plus an optional endless
    /// `g++` companion, one hardware thread each, until every program is done
    /// or `limit` cycles have elapsed.
    ///
    /// Scheduling rules:
    ///
    /// * every operation, chase and wait is one scheduling turn, and a
    ///   finished program takes one final Done turn (anchor markers are
    ///   free);
    /// * each turn costs at least one cycle;
    /// * a thread's OS-interrupt model is polled before each of its turns;
    /// * the runnable thread with the earliest ready time goes next, the
    ///   lowest index on ties; the companion has the highest index;
    /// * the session stops when the next turn would start at or after
    ///   `now + limit`.
    ///
    /// Consecutive turns of one thread run back-to-back, without going
    /// through the scheduler, whenever no other thread, interrupt or deadline
    /// could be scheduled between them.  A naive per-turn stepper in this
    /// module's tests pins that this shortcut is unobservable.
    ///
    /// Each program's memory operations are folded into its
    /// [`ProgramReport::summary`] and, once at the end, into the perf
    /// counters.  The companion draws its turns lazily from
    /// [`CompilerWorkload::next_turn`] and is reported last, as a program
    /// named `g++`.
    pub fn run_session(
        &mut self,
        programs: &[TraceProgram],
        mut companion: Option<&mut CompilerWorkload>,
        limit: u64,
    ) -> SessionReport {
        let mut reports: Vec<ProgramReport> = programs
            .iter()
            .map(|p| ProgramReport::new(p.name(), p.domain()))
            .chain(
                companion
                    .as_deref()
                    .map(|c| ProgramReport::new(c.name(), c.domain())),
            )
            .collect();
        let mut threads: Vec<SessionThread> = (0..reports.len())
            .map(|_| SessionThread {
                ready_at: self.now,
                done: false,
                interrupts: InterruptModel::new(&self.config.interrupts, &mut self.rng),
                actions: 0,
                stalled: 0,
                step: 0,
                op_cursor: 0,
                anchor: self.now,
                span: None,
            })
            .collect();
        let deadline = self.now + limit;
        let mut hit_limit = false;

        loop {
            // Pick the runnable thread with the earliest ready time (the
            // first minimum, i.e. the lowest index on ties).
            let next = threads
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.done)
                .min_by_key(|(_, t)| t.ready_at)
                .map(|(i, t)| (i, t.ready_at));
            let Some((idx, ready_at)) = next else {
                break; // every thread finished
            };
            if ready_at >= deadline {
                hit_limit = true;
                break;
            }
            self.now = self.now.max(ready_at);

            // OS interruption?
            if let Some(stall) =
                threads[idx]
                    .interrupts
                    .poll(self.now, &self.config.interrupts, &mut self.rng)
            {
                threads[idx].ready_at = self.now + stall;
                threads[idx].stalled += stall;
                continue;
            }

            // The earliest other live thread bounds how far this thread may
            // run without rescheduling; a tie goes to the lower index.
            let mut other_min = u64::MAX;
            let mut other_idx = usize::MAX;
            for (j, t) in threads.iter().enumerate() {
                if j != idx && !t.done && t.ready_at < other_min {
                    other_min = t.ready_at;
                    other_idx = j;
                }
            }
            let runs_before_others =
                |at: u64| at < other_min || (at == other_min && idx < other_idx);

            let domain = reports[idx].domain;
            loop {
                let thread = &mut threads[idx];
                let report = &mut reports[idx];
                let started = self.now;
                let turn = match programs.get(idx) {
                    Some(program) => self.program_turn(program, thread, report),
                    None => companion
                        .as_deref_mut()
                        .map(|workload| self.companion_turn(workload, report)),
                };
                let Some(Turn {
                    latency,
                    measured,
                    phase,
                }) = turn
                else {
                    // The Done turn.
                    thread.actions += 1;
                    thread.done = true;
                    report.finished = true;
                    if let Some(prev) = thread.span.take() {
                        self.sink.end(domain, prev.label(), self.now);
                    }
                    break;
                };
                let finished_at = started + latency.max(1);
                // Per-phase cycle attribution from the compiler's step
                // annotations — sim-cycle arithmetic, always on, identical
                // whether or not the sink records.
                report.phase_cycles.add(phase, finished_at - started);
                if self.sink.is_enabled() && thread.span != Some(phase) {
                    // One batched append per span switch: no per-event
                    // allocation (phase labels are 'static) and a single
                    // enabled check for the end/begin pair.
                    self.sink
                        .phase_switch(domain, thread.span.take(), phase, started);
                    thread.span = Some(phase);
                }
                thread.ready_at = finished_at;
                thread.actions += 1;
                if let Some(measured) = measured {
                    report.measurements.push(Measurement {
                        at: finished_at,
                        measured,
                    });
                }

                // Continue back-to-back only while (a) the next turn would be
                // scheduled before every other thread, (b) no interrupt is
                // due, and (c) the deadline is not reached — i.e. exactly
                // when the outer scheduler would pick this thread again with
                // nothing observable in between.
                if !(runs_before_others(finished_at)
                    && finished_at < thread.interrupts.next_at()
                    && finished_at < deadline)
                {
                    break;
                }
                self.now = finished_at;
            }
        }

        // The machine clock ends at the latest point any thread reached (or
        // the deadline when the limit was hit).
        let end = threads
            .iter()
            .map(|t| t.ready_at)
            .max()
            .unwrap_or(self.now)
            .min(deadline);
        self.now = self.now.max(end);

        // Fold each thread's aggregate into the perf counters — the batched
        // equivalent of recording every access as it happens.
        for (thread, report) in threads.iter_mut().zip(reports.iter_mut()) {
            self.perf.record_trace(report.domain, &report.summary);
            report.actions = thread.actions;
            report.stalled_cycles = thread.stalled;
            if self.sink.is_enabled() {
                // Close the span the deadline cut off, then sample the
                // thread's counters.
                if let Some(prev) = thread.span.take() {
                    self.sink.end(report.domain, prev.label(), self.now);
                }
                self.sink
                    .counter(report.domain, "actions", thread.actions, self.now);
                self.sink
                    .counter(report.domain, "stalled_cycles", thread.stalled, self.now);
            }
        }

        SessionReport {
            finished_at: self.now,
            hit_limit,
            programs: reports,
        }
    }

    /// Executes the next turn of `program` — one op, chase or wait — at the
    /// current cycle, or returns `None` for its Done turn.
    fn program_turn(
        &mut self,
        program: &TraceProgram,
        thread: &mut SessionThread,
        report: &mut ProgramReport,
    ) -> Option<Turn> {
        // Anchor markers are free: the anchor is the issue time of the next
        // real operation (interrupt stalls included).
        while let Some(TraceStep::Anchor) = program.steps().get(thread.step) {
            thread.anchor = self.now;
            thread.step += 1;
        }
        let step = *program.steps().get(thread.step)?;
        let phase = program.step_phase(thread.step);
        let started = self.now;
        let mut measured = None;
        let latency = match step {
            TraceStep::Ops { start, end } => {
                let op = program.op_arena()[start + thread.op_cursor];
                thread.op_cursor += 1;
                if start + thread.op_cursor == end {
                    thread.step += 1;
                    thread.op_cursor = 0;
                }
                let outcome = self.access(op, AccessContext::for_domain(program.domain()));
                report.summary.absorb(&outcome);
                outcome.cycles
            }
            TraceStep::Chase { start, end } => {
                thread.step += 1;
                let summary = self.hierarchy.run_read_trace(
                    &program.chase_arena()[start..end],
                    AccessContext::for_domain(program.domain()),
                );
                report.summary.merge(&summary);
                measured = Some(self.tsc.measure(summary.cycles, &mut self.rng));
                summary.cycles
            }
            TraceStep::WaitUntil { target } => {
                thread.step += 1;
                target.saturating_sub(started)
            }
            TraceStep::WaitEpoch { target } => {
                thread.step += 1;
                thread.anchor = target;
                target.saturating_sub(started)
            }
            TraceStep::WaitAnchor { offset } => {
                thread.step += 1;
                (thread.anchor + offset).saturating_sub(started)
            }
            TraceStep::WaitFloor { floor, offset } => {
                thread.step += 1;
                thread.anchor = started.max(floor);
                (thread.anchor + offset).saturating_sub(started)
            }
            TraceStep::WaitRel { offset } => {
                thread.step += 1;
                offset
            }
            TraceStep::Anchor => unreachable!("markers are consumed above"),
        };
        Some(Turn {
            latency,
            measured,
            phase,
        })
    }

    /// Executes the companion's next turn at the current cycle.
    fn companion_turn(
        &mut self,
        workload: &mut CompilerWorkload,
        report: &mut ProgramReport,
    ) -> Turn {
        let latency = match workload.next_turn() {
            WorkloadTurn::Op(op) => {
                let outcome = self.access(op, AccessContext::for_domain(workload.domain()));
                report.summary.absorb(&outcome);
                outcome.cycles
            }
            WorkloadTurn::Think(cycles) => cycles,
        };
        Turn {
            latency,
            measured: None,
            phase: Phase::Other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memlayout::SetLines;
    use crate::process::{AddressSpace, ProcessId};
    use crate::workload::CompilerWorkloadConfig;
    use proptest::prelude::*;
    use sim_cache::outcome::HitLevel;

    fn ideal_machine() -> Machine {
        Machine::new(MachineConfig::ideal(PolicyKind::TrueLru, 7)).unwrap()
    }

    /// One turn of a program flattened for [`naive_run`].
    #[derive(Debug)]
    enum NaiveTurn {
        Anchor,
        Op(TraceOp),
        Chase(Vec<PhysAddr>),
        Wait(TraceStep),
    }

    /// A deliberately naive reference for [`Machine::run_session`]: the same
    /// scheduling rules, but every turn of every thread goes back through
    /// the scheduler (no back-to-back runs), each program is first flattened
    /// into one entry per turn, and every access is recorded in the perf
    /// counters as it happens.
    fn naive_run(
        machine: &mut Machine,
        programs: &[TraceProgram],
        mut companion: Option<&mut CompilerWorkload>,
        limit: u64,
    ) -> SessionReport {
        struct Thread {
            turns: Vec<(NaiveTurn, Phase)>,
            next: usize,
            anchor: u64,
            ready_at: u64,
            done: bool,
            interrupts: InterruptModel,
        }
        let mut flattened: Vec<Vec<(NaiveTurn, Phase)>> = Vec::new();
        let mut reports = Vec::new();
        for program in programs {
            let mut turns = Vec::new();
            for (index, &step) in program.steps().iter().enumerate() {
                let phase = program.step_phase(index);
                match step {
                    TraceStep::Anchor => turns.push((NaiveTurn::Anchor, phase)),
                    TraceStep::Ops { start, end } => {
                        for &op in &program.op_arena()[start..end] {
                            turns.push((NaiveTurn::Op(op), phase));
                        }
                    }
                    TraceStep::Chase { start, end } => turns.push((
                        NaiveTurn::Chase(program.chase_arena()[start..end].to_vec()),
                        phase,
                    )),
                    wait => turns.push((NaiveTurn::Wait(wait), phase)),
                }
            }
            flattened.push(turns);
            reports.push(ProgramReport::new(program.name(), program.domain()));
        }
        if let Some(workload) = companion.as_deref() {
            flattened.push(Vec::new());
            reports.push(ProgramReport::new(workload.name(), workload.domain()));
        }
        let start = machine.now;
        let mut threads: Vec<Thread> = flattened
            .into_iter()
            .map(|turns| Thread {
                turns,
                next: 0,
                anchor: start,
                ready_at: start,
                done: false,
                interrupts: InterruptModel::new(&machine.config.interrupts, &mut machine.rng),
            })
            .collect();
        let deadline = start + limit;
        let mut hit_limit = false;
        loop {
            let mut pick: Option<usize> = None;
            for (i, t) in threads.iter().enumerate() {
                if !t.done && pick.map_or(true, |p| t.ready_at < threads[p].ready_at) {
                    pick = Some(i);
                }
            }
            let Some(idx) = pick else { break };
            if threads[idx].ready_at >= deadline {
                hit_limit = true;
                break;
            }
            machine.now = machine.now.max(threads[idx].ready_at);
            let now = machine.now;
            let thread = &mut threads[idx];
            if let Some(stall) =
                thread
                    .interrupts
                    .poll(now, &machine.config.interrupts, &mut machine.rng)
            {
                thread.ready_at = now + stall;
                reports[idx].stalled_cycles += stall;
                continue;
            }
            let report = &mut reports[idx];
            let domain = report.domain;
            let ctx = AccessContext::for_domain(domain);
            report.actions += 1;
            let mut measured = None;
            let mut access = |machine: &mut Machine, op: TraceOp| {
                let outcome = match op.kind {
                    TraceKind::Read => machine.hierarchy.read(op.addr, ctx),
                    TraceKind::Write => machine.hierarchy.write(op.addr, ctx),
                    TraceKind::Flush => machine.hierarchy.flush(op.addr, ctx),
                };
                machine.perf.record(domain, &outcome);
                report.summary.absorb(&outcome);
                outcome.cycles
            };
            let (latency, phase) = if idx == programs.len() {
                let workload = companion.as_deref_mut().unwrap();
                let latency = match workload.next_turn() {
                    WorkloadTurn::Op(op) => access(machine, op),
                    WorkloadTurn::Think(cycles) => cycles,
                };
                (latency, Phase::Other)
            } else {
                while let Some((NaiveTurn::Anchor, _)) = thread.turns.get(thread.next) {
                    thread.anchor = now;
                    thread.next += 1;
                }
                let Some((turn, phase)) = thread.turns.get(thread.next) else {
                    thread.done = true;
                    report.finished = true;
                    continue;
                };
                thread.next += 1;
                let latency = match turn {
                    NaiveTurn::Anchor => unreachable!("skipped above"),
                    NaiveTurn::Op(op) => access(machine, *op),
                    NaiveTurn::Chase(addrs) => {
                        let summary = machine.hierarchy.run_read_trace(addrs, ctx);
                        machine.perf.record_trace(domain, &summary);
                        report.summary.merge(&summary);
                        measured = Some(machine.tsc.measure(summary.cycles, &mut machine.rng));
                        summary.cycles
                    }
                    NaiveTurn::Wait(TraceStep::WaitUntil { target }) => target.saturating_sub(now),
                    NaiveTurn::Wait(TraceStep::WaitEpoch { target }) => {
                        thread.anchor = *target;
                        target.saturating_sub(now)
                    }
                    NaiveTurn::Wait(TraceStep::WaitAnchor { offset }) => {
                        (thread.anchor + offset).saturating_sub(now)
                    }
                    NaiveTurn::Wait(TraceStep::WaitFloor { floor, offset }) => {
                        thread.anchor = now.max(*floor);
                        (thread.anchor + offset).saturating_sub(now)
                    }
                    NaiveTurn::Wait(TraceStep::WaitRel { offset }) => *offset,
                    NaiveTurn::Wait(step) => unreachable!("not a wait: {step:?}"),
                };
                (latency, *phase)
            };
            let finished_at = now + latency.max(1);
            report.phase_cycles.add(phase, finished_at - now);
            if let Some(measured) = measured {
                report.measurements.push(Measurement {
                    at: finished_at,
                    measured,
                });
            }
            thread.ready_at = finished_at;
        }
        let end = threads.iter().map(|t| t.ready_at).max().unwrap_or(start);
        machine.now = machine.now.max(end.min(deadline));
        SessionReport {
            finished_at: machine.now,
            hit_limit,
            programs: reports,
        }
    }

    /// Runs the same session through [`Machine::run_session`] and
    /// [`naive_run`] on two fresh machines and asserts they are
    /// indistinguishable afterwards.
    fn assert_matches_naive(
        config: MachineConfig,
        programs: &[TraceProgram],
        companion_seed: Option<u64>,
        limit: u64,
    ) -> SessionReport {
        let companion = || {
            companion_seed.map(|seed| {
                CompilerWorkload::new(
                    AddressSpace::new(ProcessId(4)),
                    4,
                    CompilerWorkloadConfig::default(),
                    seed,
                )
            })
        };
        let mut fast = Machine::new(config).unwrap();
        let mut fast_companion = companion();
        let report = fast.run_session(programs, fast_companion.as_mut(), limit);
        let mut naive = Machine::new(config).unwrap();
        let mut naive_companion = companion();
        let reference = naive_run(&mut naive, programs, naive_companion.as_mut(), limit);
        assert_eq!(report, reference);
        assert_eq!(fast.now(), naive.now());
        for domain in 0..8 {
            assert_eq!(fast.perf(domain), naive.perf(domain), "domain {domain}");
        }
        assert_eq!(fast.hierarchy().stats(), naive.hierarchy().stats());
        report
    }

    #[test]
    fn direct_reads_advance_the_clock_by_the_latency() {
        let mut m = ideal_machine();
        let addr = PhysAddr(0x4000);
        let t0 = m.now();
        let miss = m.read(1, addr);
        assert_eq!(m.now() - t0, miss.cycles);
        let t1 = m.now();
        let hit = m.read(1, addr);
        assert_eq!(hit.hit, HitLevel::L1D);
        assert_eq!(m.now() - t1, hit.cycles);
        assert_eq!(m.perf(1).l1_loads, 2);
        assert_eq!(m.perf(1).l1_load_misses, 1);
    }

    #[test]
    fn measured_chase_reflects_dirty_lines_in_the_target_set() {
        let mut m = ideal_machine();
        let g = m.l1_geometry();
        let receiver = AddressSpace::new(ProcessId(1));
        let sender = AddressSpace::new(ProcessId(2));
        let set = 17;
        let replacement_a = SetLines::build(receiver, g, set, 10, 1000);
        let replacement_b = SetLines::build(receiver, g, set, 10, 2000);
        let target = SetLines::build(sender, g, set, 8, 0);

        // Warm every line so later accesses are L2 hits, then initialise the
        // target set with the receiver's clean lines.
        for &a in replacement_a.lines().iter().chain(replacement_b.lines()) {
            m.read(1, a);
        }
        for &a in target.lines() {
            m.read(2, a);
        }
        let (clean, _) = m.measured_chase(1, replacement_a.lines());

        // Sender dirties 4 of its lines that are still resident.
        for &a in target.lines().iter().take(4) {
            m.read(2, a); // ensure residency
        }
        // Refill the set with sender lines, then dirty 4 of them.
        for &a in target.lines() {
            m.read(2, a);
        }
        for &a in target.lines().iter().take(4) {
            m.write(2, a);
        }
        let (dirty, _) = m.measured_chase(1, replacement_b.lines());
        let penalty = m.hierarchy().latency_model().per_dirty_line_penalty();
        assert!(
            dirty >= clean + 3 * penalty,
            "4 dirty lines must slow the sweep: clean={clean} dirty={dirty}"
        );
    }

    #[test]
    fn run_trace_matches_per_access_calls() {
        let ops: Vec<TraceOp> = (0..60u64)
            .map(|i| {
                let a = PhysAddr(0x4000 + (i % 13) * 64);
                if i % 4 == 0 {
                    TraceOp::write(a)
                } else {
                    TraceOp::read(a)
                }
            })
            .collect();
        let mut batched = ideal_machine();
        let summary = batched.run_trace(5, &ops);

        let mut serial = ideal_machine();
        let mut cycles = 0u64;
        for op in &ops {
            use sim_cache::trace::TraceKind;
            let outcome = match op.kind {
                TraceKind::Read => serial.read(5, op.addr),
                TraceKind::Write => serial.write(5, op.addr),
                TraceKind::Flush => serial.flush(5, op.addr),
            };
            cycles += outcome.cycles;
        }
        assert_eq!(summary.cycles, cycles);
        assert_eq!(batched.now(), serial.now());
        assert_eq!(batched.perf(5), serial.perf(5));
        assert_eq!(batched.hierarchy().stats(), serial.hierarchy().stats());
    }

    #[test]
    fn run_interleaves_two_actors_in_time() {
        let config = MachineConfig::ideal(PolicyKind::TrueLru, 7);
        let a_addr = PhysAddr(0x10_0000);
        let b_addr = PhysAddr(0x20_0000);
        let mut a = TraceProgram::new("a", 1);
        a.load(a_addr).wait_rel(50).load(a_addr);
        let mut b = TraceProgram::new("b", 2);
        b.wait_rel(10).load(b_addr);
        let report = assert_matches_naive(config, &[a.clone(), b.clone()], None, 1_000_000);
        assert!(!report.hit_limit);
        let actions: Vec<u64> = report.programs.iter().map(|p| p.actions).collect();
        assert_eq!(actions, vec![4, 3], "each program runs its steps plus Done");
        // The second load of `a` is an L1 hit because the first one filled it.
        assert_eq!(report.programs[0].summary.l1_hits, 1);
        // The two threads overlap in time: the session lasts as long as the
        // longer program alone, not as long as both back to back.
        let alone = |program: &TraceProgram| {
            let mut machine = Machine::new(config).unwrap();
            machine.run_session(std::slice::from_ref(program), None, 1_000_000);
            machine.now()
        };
        assert_eq!(report.finished_at, alone(&a).max(alone(&b)));
    }

    #[test]
    fn run_honours_the_cycle_limit() {
        // The g++ companion never finishes: only the limit ends the session.
        let report = assert_matches_naive(
            MachineConfig::ideal(PolicyKind::TrueLru, 7),
            &[],
            Some(9),
            10_000,
        );
        assert!(report.hit_limit);
        assert!(report.finished_at <= 10_000);
        let companion = &report.programs[0];
        assert_eq!(companion.name, "g++");
        assert!(!companion.finished);
        assert!(companion.actions >= 90, "turns: {}", companion.actions);
    }

    #[test]
    fn wait_until_lands_on_the_requested_cycle() {
        let mut m = ideal_machine();
        let mut program = TraceProgram::new("w", 1);
        program.wait_until(5_000);
        let report = m.run_session(std::slice::from_ref(&program), None, 100_000);
        assert_eq!(report.finished_at, 5_000);
        let mut m = ideal_machine();
        program.wait_rel(1);
        let report = m.run_session(std::slice::from_ref(&program), None, 100_000);
        assert_eq!(report.finished_at, 5_001);
    }

    #[test]
    fn interruptions_stall_actors_when_enabled() {
        let mut config = MachineConfig::ideal(PolicyKind::TreePlru, 3);
        config.interrupts = InterruptConfig {
            period: 1_000,
            period_jitter: 0,
            duration: 500,
            duration_jitter: 0,
        };
        let mut program = TraceProgram::new("busy", 1);
        for _ in 0..100 {
            program.wait_rel(100);
        }
        let report = assert_matches_naive(config, &[program], None, 1_000_000);
        assert!(
            report.programs[0].stalled_cycles > 0,
            "the thread must have been preempted"
        );
    }

    /// The fixed two-program workload of the executor-reference tests:
    /// loads, an absolute wait, a measured chase, a store and a flush on one
    /// thread; interleaved loads, a wait and a store on another set.
    fn two_program_workload() -> [TraceProgram; 2] {
        let g = CacheGeometry::xeon_l1d();
        let line = |set: usize, tag: u64| PhysAddr::from_set_and_tag(set, tag, g);
        let chase: Vec<PhysAddr> = (0..10).map(|t| line(21, 1_000 + t)).collect();
        let mut a = TraceProgram::new("a", 1);
        a.load(line(21, 0))
            .load(line(21, 1))
            .wait_until(4_000)
            .chase(&chase)
            .store(line(21, 2))
            .ops([TraceOp::flush(line(21, 1))]);
        let mut b = TraceProgram::new("b", 2);
        b.load(line(7, 0))
            .wait_until(2_500)
            .store(line(7, 1))
            .load(line(7, 0));
        [a, b]
    }

    #[test]
    fn run_session_matches_run_on_an_ideal_machine() {
        let config = MachineConfig::ideal(PolicyKind::TreePlru, 5);
        let report = assert_matches_naive(config, &two_program_workload(), None, 1_000_000);
        assert!(report.programs.iter().all(|p| p.finished));
        assert_matches_naive(config, &two_program_workload(), Some(3), 1_000_000);
    }

    #[test]
    fn run_session_matches_run_with_interrupts_and_tsc_noise() {
        // The realistic machine draws RNG for interrupt scheduling and for
        // every rdtscp measurement; identical results prove the executors
        // consume the stream in the same order.
        let mut config = MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, 11);
        config.interrupts = InterruptConfig {
            period: 3_000,
            period_jitter: 1_000,
            duration: 400,
            duration_jitter: 150,
        };
        let report = assert_matches_naive(config, &two_program_workload(), None, 1_000_000);
        assert!(report.programs.iter().any(|p| p.stalled_cycles > 0));
        assert_matches_naive(config, &two_program_workload(), Some(3), 1_000_000);
    }

    #[test]
    fn run_session_honours_the_deadline_like_run() {
        let mut config = MachineConfig::ideal(PolicyKind::TreePlru, 3);
        config.interrupts = InterruptConfig {
            period: 1_000,
            period_jitter: 0,
            duration: 500,
            duration_jitter: 0,
        };
        let report = assert_matches_naive(config, &two_program_workload(), None, 3_000);
        assert!(report.hit_limit);
        assert_eq!(report.finished_at, 3_000);
    }

    /// Builds a program from `(kind, value)` pairs covering every step type.
    fn arbitrary_program(name: &str, domain: DomainId, steps: &[(u8, u64)]) -> TraceProgram {
        let mut program = TraceProgram::new(name, domain);
        for &(kind, value) in steps {
            let addr = PhysAddr((value % 4_096) * 64);
            program.phase(Phase::ALL[value as usize % Phase::ALL.len()]);
            match kind {
                0 => program.load(addr),
                1 => program.store(addr),
                2 => program.ops([
                    TraceOp::flush(addr),
                    TraceOp::read(addr),
                    TraceOp::write(addr),
                ]),
                3 => program.chase(&[addr, PhysAddr(addr.value() ^ 0x1_0000)]),
                4 => program.wait_until(value % 20_000),
                5 => program.wait_epoch(value % 20_000),
                6 => program.wait_anchor(value % 900),
                7 => program.wait_floor(value % 20_000, value % 300),
                8 => program.wait_rel(value % 400),
                _ => program.anchor(),
            };
        }
        program
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random 2–3-program sets, with interrupts and TSC noise on, an
        /// optional companion and limits that often cut the session short:
        /// the back-to-back executor is indistinguishable from the naive one.
        #[test]
        fn run_session_matches_the_naive_stepper_on_random_programs(
            programs in proptest::collection::vec(
                proptest::collection::vec((0u8..10, 0u64..1_000_000), 0..40),
                2..4,
            ),
            seed in 0u64..1_000,
            period in 200u64..4_000,
            companion in 0u64..3,
            limit in 1u64..60_000,
        ) {
            let mut config = MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, seed);
            config.interrupts = InterruptConfig {
                period,
                period_jitter: period / 2,
                duration: 150,
                duration_jitter: 100,
            };
            let programs: Vec<TraceProgram> = programs
                .iter()
                .enumerate()
                .map(|(i, steps)| arbitrary_program("p", i as DomainId + 1, steps))
                .collect();
            let companion = (companion == 0).then_some(seed);
            assert_matches_naive(config, &programs, companion, limit);
        }
    }

    #[test]
    fn anchored_waits_follow_the_tlast_discipline() {
        // A program that anchors at its first operation and waits one period
        // per symbol must land its operations exactly one period apart.
        let mut machine = ideal_machine();
        let addr = PhysAddr(0x8000);
        let mut program = TraceProgram::new("sender", 2);
        program
            .wait_epoch(10_000)
            .store(addr)
            .wait_anchor(5_000)
            .anchor()
            .store(addr)
            .wait_anchor(5_000);
        let report = machine.run_session(std::slice::from_ref(&program), None, 1_000_000);
        assert!(report.programs[0].finished);
        // First store issues at the epoch; the first period's wait ends at
        // epoch + period; the second period's wait is anchored at the second
        // store's issue time.
        assert_eq!(report.finished_at, 20_000);
        assert_eq!(report.programs[0].summary.writes, 2);
    }

    #[test]
    fn tracing_neither_perturbs_the_session_nor_breaks_span_nesting() {
        use crate::telemetry::export;

        let config = MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, 13);
        let chase: Vec<PhysAddr> = (0..8).map(|i| PhysAddr(0x4000 + i * 64)).collect();
        let build = || {
            let mut program = TraceProgram::new("receiver", 1);
            program
                .phase(Phase::Prime)
                .load(PhysAddr(0x4000))
                .store(PhysAddr(0x4040))
                .phase(Phase::Wait)
                .wait_until(2_000)
                .phase(Phase::Decode)
                .anchor()
                .chase(&chase)
                .phase(Phase::Wait)
                .wait_anchor(1_500);
            program
        };

        let mut plain = Machine::new(config).unwrap();
        let silent = plain.run_session(std::slice::from_ref(&build()), None, 100_000);
        assert!(plain.take_trace().is_empty(), "null sink records nothing");

        let mut traced = Machine::new(config).unwrap();
        traced.enable_tracing();
        let observed = traced.run_session(std::slice::from_ref(&build()), None, 100_000);

        // Bit-identical results: the sink only observes.
        assert_eq!(observed, silent);
        assert_eq!(traced.now(), plain.now());
        assert_eq!(traced.perf(1), plain.perf(1));

        // The recorded spans nest, run monotone and name every phase the
        // program declared.
        let events = traced.take_trace();
        assert!(!events.is_empty());
        export::validate(&events).unwrap();
        for label in ["prime", "wait", "decode"] {
            assert!(
                events.iter().any(|e| matches!(
                    &e.kind,
                    crate::telemetry::EventKind::Begin { name, .. } if name == label
                )),
                "missing span {label}"
            );
        }

        // Phase attribution covers every executed cycle of the program and
        // is identical with the sink on or off.
        let profile = observed.programs[0].phase_cycles;
        assert_eq!(profile, silent.programs[0].phase_cycles);
        assert!(profile.get(Phase::Prime) > 0);
        assert!(profile.get(Phase::Wait) > 0);
        assert!(profile.get(Phase::Decode) > 0);
        assert_eq!(profile.get(Phase::Other), 0);
    }

    #[test]
    fn reset_is_indistinguishable_from_a_fresh_machine() {
        // Dirty a machine thoroughly under one config, reset it to another,
        // and require identical behaviour to a truly fresh machine: same
        // outcomes, same measured values (RNG stream), same perf and stats.
        let mut reused =
            Machine::new(MachineConfig::xeon_e5_2650(PolicyKind::TreePlru, 1)).unwrap();
        for i in 0..500u64 {
            let addr = PhysAddr(((i * 131) % (1 << 18)) & !63);
            if i % 3 == 0 {
                reused.write(4, addr);
            } else {
                reused.read(4, addr);
            }
        }
        let target = MachineConfig::xeon_e5_2650(PolicyKind::IntelLike, 99);
        reused.reset(target).unwrap();
        let mut fresh = Machine::new(target).unwrap();
        assert_eq!(reused.now(), 0);
        assert_eq!(reused.perf(4), PerfCounters::default());
        for i in 0..400u64 {
            let addr = PhysAddr(((i * 197) % (1 << 16)) & !63);
            let (a, b) = if i % 4 == 0 {
                (reused.write(2, addr), fresh.write(2, addr))
            } else {
                (reused.read(2, addr), fresh.read(2, addr))
            };
            assert_eq!(a, b, "outcome diverged at access {i}");
            let (ma, _) = reused.measured_read(2, addr);
            let (mb, _) = fresh.measured_read(2, addr);
            assert_eq!(ma, mb, "measurement diverged at access {i}");
        }
        assert_eq!(reused.hierarchy().stats(), fresh.hierarchy().stats());
        assert_eq!(reused.perf(2), fresh.perf(2));
        assert_eq!(reused.now(), fresh.now());
    }
}
