//! Linearizable one-shot test-and-set from leader election.
//!
//! The paper (Preliminaries, citing Golab, Hendler & Woelfel) observes that
//! any leader-election object plus **one** extra register yields a
//! linearizable TAS in which each `TAS()` call performs at most one
//! `elect()` plus one read and possibly one write:
//!
//! ```text
//! TAS():
//!   if DONE.read() == 1: return 1          // someone already won
//!   if elect() == WIN:   return 0          // we are the winner
//!   DONE.write(1); return 1                // a loser marks the object set
//! ```
//!
//! The winner's `TAS()` returns `0` (it saw the bit as unset and set it);
//! every other call returns `1`. Linearization: the winner's call is
//! ordered first among all calls that passed the `DONE` check; calls that
//! read `DONE == 1` are ordered after the loser-write that set it.
//!
//! This object is **one-shot per process**: each process may call `TAS()`
//! at most once, matching the paper's TAS usage.

use std::sync::Arc;

use rtas_sim::memory::Memory;
use rtas_sim::op::MemOp;
use rtas_sim::protocol::{ret, Bound, Ctx, Frame, Poll, Protocol, Resume};
use rtas_sim::ready;
use rtas_sim::word::RegId;

use crate::object::Elect;

/// A one-shot TAS built from a leader-election object `L` and one register.
pub struct TasFromLe<L> {
    le: Arc<L>,
    done: RegId,
}

impl<L> Clone for TasFromLe<L> {
    fn clone(&self) -> Self {
        TasFromLe {
            le: Arc::clone(&self.le),
            done: self.done,
        }
    }
}

impl<L> std::fmt::Debug for TasFromLe<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TasFromLe")
            .field("done", &self.done)
            .finish()
    }
}

impl<L: Elect + 'static> TasFromLe<L> {
    /// Wrap `le` into a TAS, allocating the extra `DONE` register.
    pub fn new(memory: &mut Memory, le: Arc<L>, label: &str) -> Self {
        let done = memory.alloc(1, label).get(0);
        TasFromLe { le, done }
    }

    /// Build the protocol performing one `TAS()` call.
    ///
    /// Returns `0` if this process wins (the bit was unset), `1` otherwise.
    pub fn tas(&self) -> Box<dyn Protocol> {
        Box::new(Bound::new(self.clone(), TasFrame::default()))
    }
}

impl<L> TasFromLe<L> {
    /// Extra registers beyond those of the leader-election object.
    pub const EXTRA_REGISTERS: u64 = 1;
}

/// One `TAS()` call, resumed against its [`TasFromLe`].
pub struct TasFrame<L: Elect> {
    state: State<L::Frame>,
}

impl<L: Elect> Default for TasFrame<L> {
    fn default() -> Self {
        TasFrame {
            state: State::Start,
        }
    }
}

enum State<F> {
    Start,
    CheckedDone,
    Elect(F),
    WroteDone,
}

impl<L: Elect> Frame for TasFrame<L> {
    type Object = TasFromLe<L>;

    #[inline]
    fn resume(&mut self, tas: &TasFromLe<L>, mut input: Resume, ctx: &mut Ctx<'_>) -> Poll {
        loop {
            match &mut self.state {
                State::Start => {
                    self.state = State::CheckedDone;
                    return Poll::Op(MemOp::Read(tas.done));
                }
                State::CheckedDone => {
                    if input.read_value() == 1 {
                        return Poll::Done(1);
                    }
                    self.state = State::Elect(tas.le.frame());
                    input = Resume::Start;
                }
                State::Elect(elect) => {
                    if ready!(elect.resume(&tas.le, input, ctx)) == ret::WIN {
                        return Poll::Done(0);
                    }
                    self.state = State::WroteDone;
                    return Poll::Op(MemOp::Write(tas.done, 1));
                }
                State::WroteDone => return Poll::Done(1),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_process::{TwoProcessFrame, TwoProcessLe};
    use rtas_sim::adversary::{RandomSchedule, RoundRobin};
    use rtas_sim::executor::Execution;
    use rtas_sim::explore::{explore, ExploreConfig};
    use rtas_sim::word::ProcessId;

    /// Adapter: a 2-process role LE exposed as a (2-process) leader
    /// election by assigning roles in the order `elect()` calls start.
    /// Test-only: real usage assigns roles structurally.
    struct TwoAsLe {
        inner: TwoProcessLe,
        next_role: std::sync::atomic::AtomicUsize,
    }

    struct TwoAsLeFrame(TwoProcessFrame);

    impl Frame for TwoAsLeFrame {
        type Object = TwoAsLe;

        fn resume(&mut self, le: &TwoAsLe, input: Resume, ctx: &mut Ctx<'_>) -> Poll {
            self.0.resume(&le.inner, input, ctx)
        }
    }

    impl Elect for TwoAsLe {
        type Frame = TwoAsLeFrame;

        fn frame(&self) -> TwoAsLeFrame {
            let role = self
                .next_role
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            TwoAsLeFrame(TwoProcessFrame::new(role))
        }
    }

    fn tas_system(k: usize) -> (Memory, Vec<Box<dyn Protocol>>) {
        assert!(k <= 2);
        let mut mem = Memory::new();
        let le = TwoProcessLe::new(&mut mem, "2le");
        let wrapped = Arc::new(TwoAsLe {
            inner: le,
            next_role: 0.into(),
        });
        let tas = TasFromLe::new(&mut mem, wrapped, "done");
        let protos = (0..k).map(|_| tas.tas()).collect();
        (mem, protos)
    }

    #[test]
    fn solo_tas_returns_zero() {
        let (mem, protos) = tas_system(1);
        let res = Execution::new(mem, protos, 0).run(&mut RoundRobin::new(1));
        assert_eq!(res.outcome(ProcessId(0)), Some(0));
    }

    #[test]
    fn two_process_tas_exactly_one_zero() {
        for seed in 0..200 {
            let (mem, protos) = tas_system(2);
            let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed));
            assert!(res.all_finished());
            let zeros = res.processes_with_outcome(0).len();
            assert_eq!(zeros, 1, "seed {seed}: {:?}", res.outcomes());
        }
    }

    #[test]
    fn exhaustive_two_process_tas_safety() {
        let max_steps = if cfg!(debug_assertions) { 16 } else { 18 };
        let stats = explore(
            || tas_system(2),
            ExploreConfig {
                max_steps,
                max_paths: 40_000_000,
            },
            |e| {
                let zeros = e.with_outcome(0).len();
                assert!(zeros <= 1, "two TAS winners: {:?}", e.outcomes);
                if e.all_finished() {
                    assert_eq!(zeros, 1, "no TAS winner: {:?}", e.outcomes);
                }
            },
        );
        assert!(stats.paths > 1000);
    }

    #[test]
    fn extra_register_is_one() {
        let mut mem = Memory::new();
        let le = TwoProcessLe::new(&mut mem, "2le");
        let before = mem.declared_registers();
        let wrapped = Arc::new(TwoAsLe {
            inner: le,
            next_role: 0.into(),
        });
        let _tas = TasFromLe::new(&mut mem, wrapped, "done");
        assert_eq!(
            mem.declared_registers() - before,
            TasFromLe::<TwoAsLe>::EXTRA_REGISTERS
        );
    }
}
