//! Driving protocols against an adversary.
//!
//! [`Execution`] owns the memory and one [`SubRuntime`] per process. Each
//! iteration of [`Execution::run`]:
//!
//! 1. every live process is *poised* on one committed shared-memory
//!    operation (produced by its protocol),
//! 2. the adversary inspects a class-filtered [`crate::adversary::View`]
//!    and picks the next process,
//! 3. the chosen process's operation executes atomically (one *step*), and
//!    its protocol advances — flipping local coins as needed — until it is
//!    poised again or finished.
//!
//! Scheduling a finished process is a no-op that consumes the schedule slot
//! but no step, matching the convention that a crashed/finished process
//! simply takes no further steps.
//!
//! ## Process lifecycle
//!
//! Beyond *live* and *finished*, the executor natively supports workload-
//! driven lifecycle changes so a process can become live or dead mid-run
//! without any per-step allocation:
//!
//! * **late arrival** — a process held back with [`Execution::hold_arrival`]
//!   takes no part in the execution (its pending operation is hidden from
//!   the adversary) until the adversary injects
//!   [`Injection::Arrive`](crate::adversary::Injection), at which point it
//!   advances to its first poised operation;
//! * **crash** — [`Injection::Crash`](crate::adversary::Injection) makes a
//!   process permanently unschedulable; slots spent on it are consumed
//!   without a step, exactly like slots spent on finished processes;
//! * **churn** — [`Injection::Respawn`](crate::adversary::Injection)
//!   replaces a slot's process (typically a crashed one) with a fresh
//!   protocol and a fresh coin-flip stream.
//!
//! Injections are drained from [`Adversary::inject`] before every
//! scheduling decision; adversaries that do not override it (all plain
//! [`crate::adversary::Strategy`] policies) run exactly as before.

use crate::adversary::{Adversary, Injection, View};
use crate::history::{Event, History, RecordMode};
use crate::memory::Memory;
use crate::metrics::StepCounts;
use crate::op::{MemOp, OpKind};
use crate::protocol::{Ctx, Notes, Poll, Protocol, Resume};
use crate::rng::SplitMix64;
use crate::word::{ProcessId, Word};

/// One process's protocol plus the bookkeeping to drive it.
///
/// This is the reusable core of the per-process runtime: it remembers the
/// operation the protocol is poised on, delivers that operation's result,
/// and records the final value.
pub struct SubRuntime {
    protocol: Box<dyn Protocol>,
    next_input: Option<Resume>,
    pending: Option<MemOp>,
    finished: Option<Word>,
}

impl std::fmt::Debug for SubRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubRuntime")
            .field("pending", &self.pending)
            .field("finished", &self.finished)
            .finish()
    }
}

/// What a [`SubRuntime::advance`] call produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubPoll {
    /// The runtime is poised on this operation; execute it and call
    /// [`SubRuntime::feed`] with the result.
    NeedsOp(MemOp),
    /// The protocol finished with this value.
    Finished(Word),
}

impl SubRuntime {
    /// A runtime that will run `protocol` from its start.
    pub fn new(protocol: Box<dyn Protocol>) -> Self {
        SubRuntime {
            protocol,
            next_input: Some(Resume::Start),
            pending: None,
            finished: None,
        }
    }

    /// Rewind this runtime to run `protocol` from its start. Part of the
    /// allocation-light trial loop (see [`Execution::reset`]).
    pub fn reset(&mut self, protocol: Box<dyn Protocol>) {
        *self = SubRuntime::new(protocol);
    }

    /// The operation this runtime is currently poised on, if any.
    pub fn pending(&self) -> Option<MemOp> {
        self.pending
    }

    /// The final result, if the protocol finished.
    pub fn finished(&self) -> Option<Word> {
        self.finished
    }

    /// Deliver the result of the pending operation.
    ///
    /// # Panics
    ///
    /// Panics if there is no pending operation or the resume kind does not
    /// match it (a read must be fed [`Resume::Read`], a write
    /// [`Resume::Wrote`]).
    pub fn feed(&mut self, input: Resume) {
        let op = self.pending.take().expect("feed without pending op");
        match (op.kind(), input) {
            (OpKind::Read, Resume::Read(_)) | (OpKind::Write, Resume::Wrote) => {}
            (k, i) => panic!("resume {i:?} does not match pending {k:?}"),
        }
        self.next_input = Some(input);
    }

    /// Resume the protocol until it is poised on an operation or finished.
    ///
    /// # Panics
    ///
    /// Panics if called while an operation is pending and unfed.
    pub fn advance(&mut self, ctx: &mut Ctx<'_>) -> SubPoll {
        assert!(self.pending.is_none(), "advance with unfed pending op");
        if let Some(v) = self.finished {
            return SubPoll::Finished(v);
        }
        let input = self.next_input.take().expect("runtime missing input");
        match self.protocol.resume(input, ctx) {
            Poll::Op(op) => {
                self.pending = Some(op);
                SubPoll::NeedsOp(op)
            }
            Poll::Done(v) => {
                self.finished = Some(v);
                SubPoll::Finished(v)
            }
        }
    }
}

/// Lifecycle of a process slot inside an [`Execution`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Liveness {
    /// Held back by an arrival workload; invisible and unschedulable.
    NotArrived,
    /// Arrived and participating (may have finished its protocol).
    Live,
    /// Crashed; consumes schedule slots but takes no steps.
    Crashed,
}

/// Per-process state inside an [`Execution`].
pub(crate) struct ProcessState {
    pub(crate) runtime: SubRuntime,
    pub(crate) rng: SplitMix64,
    pub(crate) notes: Notes,
    pub(crate) liveness: Liveness,
}

impl ProcessState {
    pub(crate) fn pending(&self) -> Option<MemOp> {
        self.runtime.pending()
    }

    pub(crate) fn finished(&self) -> Option<Word> {
        self.runtime.finished()
    }

    /// Live and not finished: may be scheduled for a step.
    pub(crate) fn can_step(&self) -> bool {
        self.liveness == Liveness::Live && self.runtime.finished().is_none()
    }

    pub(crate) fn has_arrived(&self) -> bool {
        self.liveness != Liveness::NotArrived
    }

    pub(crate) fn is_crashed(&self) -> bool {
        self.liveness == Liveness::Crashed
    }
}

/// A configured execution: memory, processes, and accounting.
pub struct Execution {
    memory: Memory,
    procs: Vec<ProcessState>,
    steps: StepCounts,
    history: History,
    step_cap: u64,
    global_step: u64,
    seed: u64,
    /// Number of live processes whose protocol has not finished.
    /// Maintained incrementally so the scheduler loop checks completion
    /// in O(1) instead of scanning all processes every step.
    live: usize,
    /// Number of processes held back by [`Execution::hold_arrival`] that
    /// have not yet been injected as arrived.
    not_arrived: usize,
    /// Number of crashed processes.
    crashed: usize,
    /// Respawns applied so far (distinct RNG streams for fresh processes).
    respawns: u64,
}

impl std::fmt::Debug for Execution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Execution")
            .field("processes", &self.procs.len())
            .field("global_step", &self.global_step)
            .finish()
    }
}

/// Summary of one [`Execution::run_in_place`] call.
///
/// Deliberately `Copy` and allocation-free; detailed results stay inside
/// the [`Execution`] and are read through its accessors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Whether the execution was stopped by the safety step cap.
    pub hit_cap: bool,
    /// Number of processes whose protocol finished.
    pub finished: usize,
    /// Total number of processes.
    pub processes: usize,
}

impl RunOutcome {
    /// Whether every process finished its protocol.
    pub fn all_finished(&self) -> bool {
        self.finished == self.processes
    }
}

/// The outcome of a completed [`Execution::run`].
#[derive(Debug)]
pub struct ExecutionResult {
    outcomes: Vec<Option<Word>>,
    steps: StepCounts,
    history: History,
    memory: Memory,
    hit_cap: bool,
}

impl ExecutionResult {
    /// The result of process `pid`'s protocol, or `None` if it never
    /// finished (crashed / schedule ended / step cap).
    pub fn outcome(&self, pid: ProcessId) -> Option<Word> {
        self.outcomes[pid.index()]
    }

    /// All outcomes, indexed by process id.
    pub fn outcomes(&self) -> &[Option<Word>] {
        &self.outcomes
    }

    /// Whether every process finished its protocol.
    pub fn all_finished(&self) -> bool {
        self.outcomes.iter().all(|o| o.is_some())
    }

    /// Step counts of the execution.
    pub fn steps(&self) -> &StepCounts {
        &self.steps
    }

    /// Recorded history (empty unless full recording was requested).
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The memory after the execution (for space stats and assertions).
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Whether the execution was stopped by the safety step cap.
    pub fn hit_step_cap(&self) -> bool {
        self.hit_cap
    }

    /// Process ids whose outcome equals `value`.
    pub fn processes_with_outcome(&self, value: Word) -> Vec<ProcessId> {
        self.outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| **o == Some(value))
            .map(|(i, _)| ProcessId(i))
            .collect()
    }
}

impl Execution {
    /// Default safety cap on total steps.
    pub const DEFAULT_STEP_CAP: u64 = 50_000_000;

    /// Build an execution of the given protocols (one per process) on
    /// `memory`. Process `i` runs `protocols[i]` with a private RNG derived
    /// from `seed` and `i`.
    pub fn new(memory: Memory, protocols: Vec<Box<dyn Protocol>>, seed: u64) -> Self {
        let n = protocols.len();
        let procs = protocols
            .into_iter()
            .enumerate()
            .map(|(i, root)| ProcessState {
                runtime: SubRuntime::new(root),
                rng: SplitMix64::split(seed, i as u64),
                notes: Notes::default(),
                liveness: Liveness::Live,
            })
            .collect();
        Execution {
            memory,
            procs,
            steps: StepCounts::new(n),
            history: History::new(RecordMode::Counts),
            step_cap: Self::DEFAULT_STEP_CAP,
            global_step: 0,
            seed,
            live: n,
            not_arrived: 0,
            crashed: 0,
            respawns: 0,
        }
    }

    /// Rewind this execution for a fresh trial: reset all registers (keeping
    /// allocations), zero the accounting, and install new root protocols.
    ///
    /// Together with [`SubRuntime::reset`] and [`Memory::reset`] this lets a
    /// trial loop reuse one `Execution` end to end — after the first trial
    /// the executor performs no heap allocation in steady state (the only
    /// remaining allocations are the protocol boxes the caller supplies).
    ///
    /// The register *layout* is kept: callers re-running an algorithm on the
    /// same structure must pass protocols built against the ranges already
    /// allocated in this memory.
    pub fn reset(&mut self, protocols: Vec<Box<dyn Protocol>>, seed: u64) {
        let n = protocols.len();
        self.procs.truncate(n);
        for (i, root) in protocols.into_iter().enumerate() {
            if i < self.procs.len() {
                let p = &mut self.procs[i];
                p.runtime.reset(root);
                p.rng = SplitMix64::split(seed, i as u64);
                p.notes = Notes::default();
                p.liveness = Liveness::Live;
            } else {
                self.procs.push(ProcessState {
                    runtime: SubRuntime::new(root),
                    rng: SplitMix64::split(seed, i as u64),
                    notes: Notes::default(),
                    liveness: Liveness::Live,
                });
            }
        }
        self.memory.reset();
        self.steps.reset(n);
        self.history.clear();
        self.global_step = 0;
        self.seed = seed;
        self.live = n;
        self.not_arrived = 0;
        self.crashed = 0;
        self.respawns = 0;
    }

    /// Enable full history recording.
    pub fn with_recording(mut self, mode: RecordMode) -> Self {
        self.history = History::new(mode);
        self
    }

    /// Override the safety cap on total steps.
    pub fn with_step_cap(mut self, cap: u64) -> Self {
        self.step_cap = cap;
        self
    }

    /// Number of processes.
    pub fn n_processes(&self) -> usize {
        self.procs.len()
    }

    /// Hold `pid` back from the execution until the adversary injects its
    /// arrival ([`Injection::Arrive`]). A held process takes no steps,
    /// draws no coins, and exposes no pending operation.
    ///
    /// # Panics
    ///
    /// Panics if the process already took a step (call this before
    /// running), already finished, or is not currently live.
    pub fn hold_arrival(&mut self, pid: ProcessId) {
        let p = &mut self.procs[pid.index()];
        assert!(
            p.liveness == Liveness::Live && p.finished().is_none() && p.pending().is_none(),
            "hold_arrival on a process that already started: {pid:?}"
        );
        assert_eq!(self.steps.of(pid), 0, "hold_arrival after steps: {pid:?}");
        p.liveness = Liveness::NotArrived;
        self.live -= 1;
        self.not_arrived += 1;
    }

    /// Run the execution under `adversary` until every process finished,
    /// the adversary stops scheduling (`None`), or the step cap is hit.
    pub fn run(mut self, adversary: &mut dyn Adversary) -> ExecutionResult {
        let outcome = self.run_in_place(adversary);
        ExecutionResult {
            outcomes: self.procs.iter().map(|p| p.finished()).collect(),
            steps: self.steps,
            history: self.history,
            memory: self.memory,
            hit_cap: outcome.hit_cap,
        }
    }

    /// Like [`Execution::run`], but borrows instead of consuming, so the
    /// execution can be [`Execution::reset`] and reused for the next trial
    /// without reallocating memory, step counters, or runtimes.
    ///
    /// Results are read back through the in-place accessors
    /// ([`Execution::outcome`], [`Execution::steps`], [`Execution::memory`],
    /// [`Execution::count_outcome`]).
    ///
    /// The scheduler loop does O(1) completion checking per step: a live-
    /// process counter replaces the per-step scan over all processes.
    pub fn run_in_place(&mut self, adversary: &mut dyn Adversary) -> RunOutcome {
        // Bring every live process to its first poised operation (local
        // steps and coin flips before the first shared-memory access are
        // free). Held-back processes advance when their arrival arrives.
        for i in 0..self.procs.len() {
            if self.procs[i].liveness == Liveness::Live {
                self.advance_process(i);
            }
        }
        let mut hit_cap = false;
        while self.live > 0 || self.not_arrived > 0 {
            if self.steps.total() >= self.step_cap {
                hit_cap = true;
                break;
            }
            let class = adversary.class();
            // Drain lifecycle injections before the scheduling decision.
            loop {
                let injection = {
                    let view = View::new(class, &self.procs, &self.steps);
                    adversary.inject(&view)
                };
                match injection {
                    Injection::None => break,
                    Injection::Arrive(pid) => self.arrive(pid),
                    Injection::Crash(pid) => self.crash(pid),
                    Injection::Respawn(pid, proto) => self.respawn(pid, proto),
                }
            }
            if self.live == 0 && self.not_arrived == 0 {
                break;
            }
            let chosen = {
                let view = View::new(class, &self.procs, &self.steps);
                adversary.next(&view)
            };
            let Some(pid) = chosen else { break };
            assert!(
                pid.index() < self.procs.len(),
                "adversary chose unknown {pid:?}"
            );
            if !self.procs[pid.index()].can_step() {
                // Slot wasted on a finished, crashed, or not-yet-arrived
                // process: no step taken.
                continue;
            }
            self.execute_step(pid);
        }
        debug_assert_eq!(
            self.live,
            self.procs.iter().filter(|p| p.can_step()).count(),
            "live counter out of sync with process states"
        );
        debug_assert_eq!(
            self.crashed,
            self.procs.iter().filter(|p| p.is_crashed()).count(),
            "crashed counter out of sync with process states"
        );
        RunOutcome {
            hit_cap,
            finished: self.finished_count(),
            processes: self.procs.len(),
        }
    }

    /// Inject the arrival of a held-back process: it becomes live and
    /// advances to its first poised operation.
    fn arrive(&mut self, pid: ProcessId) {
        let p = &mut self.procs[pid.index()];
        assert_eq!(
            p.liveness,
            Liveness::NotArrived,
            "arrival injected for a process that already arrived: {pid:?}"
        );
        p.liveness = Liveness::Live;
        self.not_arrived -= 1;
        self.live += 1;
        // May finish immediately (zero-step protocols); advance_process
        // keeps the live counter consistent.
        self.advance_process(pid.index());
    }

    /// Crash a process. Crashing a finished or already-crashed process is
    /// a no-op; crashing a held-back process cancels its arrival.
    fn crash(&mut self, pid: ProcessId) {
        let p = &mut self.procs[pid.index()];
        match p.liveness {
            Liveness::Crashed => {}
            Liveness::NotArrived => {
                p.liveness = Liveness::Crashed;
                self.not_arrived -= 1;
                self.crashed += 1;
            }
            Liveness::Live => {
                if p.finished().is_none() {
                    p.liveness = Liveness::Crashed;
                    self.live -= 1;
                    self.crashed += 1;
                }
            }
        }
    }

    /// Replace the slot's process with a fresh one running `proto`, with
    /// a fresh coin-flip stream. The predecessor's steps remain on the
    /// slot's counter (steps are accounted per slot).
    ///
    /// # Panics
    ///
    /// Panics if the slot's process never arrived (respawn models churn
    /// of a previously live slot, not a first arrival).
    fn respawn(&mut self, pid: ProcessId, proto: Box<dyn Protocol>) {
        let idx = pid.index();
        assert!(
            self.procs[idx].liveness != Liveness::NotArrived,
            "respawn of a process that never arrived: {pid:?}"
        );
        let was_running = self.procs[idx].can_step();
        if self.procs[idx].liveness == Liveness::Crashed {
            self.crashed -= 1;
        }
        self.respawns += 1;
        let stream = self.procs.len() as u64 + self.respawns;
        let p = &mut self.procs[idx];
        p.runtime.reset(proto);
        p.rng = SplitMix64::split(self.seed, stream);
        p.notes = Notes::default();
        p.liveness = Liveness::Live;
        if !was_running {
            // Crashed or finished predecessors were not counted live.
            self.live += 1;
        }
        self.advance_process(idx);
    }

    /// The result of process `pid`'s protocol so far, or `None` if it has
    /// not finished. In-place counterpart of [`ExecutionResult::outcome`].
    pub fn outcome(&self, pid: ProcessId) -> Option<Word> {
        self.procs[pid.index()].finished()
    }

    /// Whether every process finished its protocol.
    pub fn all_finished(&self) -> bool {
        self.live == 0 && self.not_arrived == 0 && self.crashed == 0
    }

    /// Number of processes whose protocol finished.
    pub fn finished_count(&self) -> usize {
        self.procs.len() - self.live - self.not_arrived - self.crashed
    }

    /// Number of crashed processes.
    pub fn crashed_count(&self) -> usize {
        self.crashed
    }

    /// Number of processes still held back from arriving.
    pub fn not_arrived_count(&self) -> usize {
        self.not_arrived
    }

    /// Number of finished processes whose outcome equals `value`
    /// (allocation-free counterpart of
    /// [`ExecutionResult::processes_with_outcome`]).
    pub fn count_outcome(&self, value: Word) -> usize {
        self.procs
            .iter()
            .filter(|p| p.finished() == Some(value))
            .count()
    }

    /// Step counts so far.
    pub fn steps(&self) -> &StepCounts {
        &self.steps
    }

    /// The shared memory (for space stats and assertions between trials).
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Recorded history so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    fn advance_process(&mut self, idx: usize) {
        let p = &mut self.procs[idx];
        let was_finished = p.runtime.finished().is_some();
        let mut ctx = Ctx {
            pid: ProcessId(idx),
            rng: &mut p.rng,
            notes: &mut p.notes,
        };
        let poll = p.runtime.advance(&mut ctx);
        if !was_finished && matches!(poll, SubPoll::Finished(_)) {
            self.live -= 1;
        }
    }

    fn execute_step(&mut self, pid: ProcessId) {
        let idx = pid.index();
        let op = self.procs[idx]
            .pending()
            .expect("scheduled process is not poised");
        let (input, event) = match op {
            MemOp::Read(reg) => {
                let cell = self.memory.read(reg);
                (
                    Resume::Read(cell.value),
                    Event {
                        step: self.global_step,
                        pid,
                        kind: OpKind::Read,
                        reg,
                        value: cell.value,
                        observed_writer: cell.writer,
                    },
                )
            }
            MemOp::Write(reg, value) => {
                self.memory.write(reg, value, pid);
                (
                    Resume::Wrote,
                    Event {
                        step: self.global_step,
                        pid,
                        kind: OpKind::Write,
                        reg,
                        value,
                        observed_writer: None,
                    },
                )
            }
        };
        self.steps.bump(pid);
        self.history.push(event);
        self.global_step += 1;
        self.procs[idx].runtime.feed(input);
        self.advance_process(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::RoundRobin;
    use crate::memory::Memory;
    use crate::protocol::{boxed, Const};
    use crate::word::RegId;

    /// Writes its pid, then reads the register, returning what it saw.
    struct WriteRead {
        reg: RegId,
        state: u8,
    }

    impl Protocol for WriteRead {
        fn resume(&mut self, input: Resume, ctx: &mut Ctx<'_>) -> Poll {
            match self.state {
                0 => {
                    self.state = 1;
                    Poll::Op(MemOp::Write(self.reg, ctx.pid.index() as Word + 1))
                }
                1 => {
                    self.state = 2;
                    Poll::Op(MemOp::Read(self.reg))
                }
                _ => Poll::Done(input.read_value()),
            }
        }
    }

    #[test]
    fn single_process_write_read() {
        let mut mem = Memory::new();
        let reg = mem.alloc(1, "t").start();
        let ex = Execution::new(mem, vec![Box::new(WriteRead { reg, state: 0 })], 0);
        let res = ex.run(&mut RoundRobin::new(1));
        assert!(res.all_finished());
        assert_eq!(res.outcome(ProcessId(0)), Some(1));
        assert_eq!(res.steps().of(ProcessId(0)), 2);
    }

    #[test]
    fn two_processes_round_robin_interleaving() {
        let mut mem = Memory::new();
        let reg = mem.alloc(1, "t").start();
        let protos: Vec<Box<dyn Protocol>> = (0..2)
            .map(|_| Box::new(WriteRead { reg, state: 0 }) as Box<dyn Protocol>)
            .collect();
        let res = Execution::new(mem, protos, 0).run(&mut RoundRobin::new(2));
        // RR order: P0 writes 1, P1 writes 2, P0 reads 2, P1 reads 2.
        assert_eq!(res.outcome(ProcessId(0)), Some(2));
        assert_eq!(res.outcome(ProcessId(1)), Some(2));
        assert_eq!(res.steps().total(), 4);
        assert_eq!(res.steps().contention(), 2);
    }

    #[test]
    fn schedule_truncation_leaves_unfinished() {
        use crate::adversary::ObliviousAdversary;
        use crate::schedule::Schedule;
        let mut mem = Memory::new();
        let reg = mem.alloc(1, "t").start();
        let protos: Vec<Box<dyn Protocol>> = (0..2)
            .map(|_| Box::new(WriteRead { reg, state: 0 }) as Box<dyn Protocol>)
            .collect();
        // Only P0 ever runs: P1 "crashes" before its first step.
        let mut adv = ObliviousAdversary::new(Schedule::from_pids([0, 0, 0]));
        let res = Execution::new(mem, protos, 0).run(&mut adv);
        assert_eq!(res.outcome(ProcessId(0)), Some(1));
        assert_eq!(res.outcome(ProcessId(1)), None);
        assert!(!res.all_finished());
    }

    #[test]
    fn step_cap_stops_runaway() {
        /// Reads forever.
        struct Spin {
            reg: RegId,
        }
        impl Protocol for Spin {
            fn resume(&mut self, _input: Resume, _ctx: &mut Ctx<'_>) -> Poll {
                Poll::Op(MemOp::Read(self.reg))
            }
        }
        let mut mem = Memory::new();
        let reg = mem.alloc(1, "spin").start();
        let res = Execution::new(mem, vec![Box::new(Spin { reg })], 0)
            .with_step_cap(100)
            .run(&mut RoundRobin::new(1));
        assert!(res.hit_step_cap());
        assert_eq!(res.steps().total(), 100);
        assert!(!res.all_finished());
    }

    #[test]
    fn history_records_visibility() {
        let mut mem = Memory::new();
        let reg = mem.alloc(1, "t").start();
        let protos: Vec<Box<dyn Protocol>> = (0..2)
            .map(|_| Box::new(WriteRead { reg, state: 0 }) as Box<dyn Protocol>)
            .collect();
        let res = Execution::new(mem, protos, 0)
            .with_recording(RecordMode::Full)
            .run(&mut RoundRobin::new(2));
        // P0's read observes P1's write (RR order) — so P0 sees P1.
        let pairs = res.history().sees_pairs();
        assert!(pairs.contains(&(ProcessId(0), ProcessId(1))));
        assert_eq!(res.history().events().len(), 4);
    }

    #[test]
    fn processes_with_outcome_filters() {
        let mem = Memory::new();
        let protos: Vec<Box<dyn Protocol>> =
            vec![boxed(Const(1)), boxed(Const(0)), boxed(Const(1))];
        let res = Execution::new(mem, protos, 0).run(&mut RoundRobin::new(3));
        assert_eq!(
            res.processes_with_outcome(1),
            vec![ProcessId(0), ProcessId(2)]
        );
    }

    #[test]
    fn subruntime_feed_mismatch_panics() {
        let mut rt = SubRuntime::new(boxed(Const(0)));
        let mut rng = SplitMix64::new(0);
        let mut notes = Notes::default();
        let mut ctx = Ctx {
            pid: ProcessId(0),
            rng: &mut rng,
            notes: &mut notes,
        };
        assert_eq!(rt.advance(&mut ctx), SubPoll::Finished(0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.feed(Resume::Wrote);
        }));
        assert!(result.is_err());
    }
}
