//! Adversary independence (Section 4, Theorem 4.1).
//!
//! Given any leader election `A` designed for a weak (location- or
//! R/W-oblivious) adversary, the combiner runs `A` and RatRace **in
//! parallel, round-robin**: each process performs a RatRace step on odd
//! steps and an `A` step on even steps, with the combination rules:
//!
//! 1. winning *either* execution stops the other and sends the process to
//!    a top-level 2-process election `LEtop` (RatRace winner as role 0,
//!    `A` winner as role 1); winning `LEtop` wins the combined object;
//! 2. losing RatRace stops `A` and loses;
//! 3. losing `A` stops RatRace and loses — **unless** the process has
//!    already won a splitter in RatRace, in which case it abandons `A`
//!    and continues RatRace alone (this is what rules out executions
//!    where the two sides eliminate each other and nobody wins).
//!
//! The result (Theorem 4.1): O(log k) steps against the adaptive
//! adversary (RatRace's bound) *and* `A`'s step complexity against `A`'s
//! weak adversary — experiment E5 regenerates this table, pairing the
//! O(log* k) algorithm with the ascending-write attack of
//! [`crate::attacks`].
//!
//! Implementation note: one process's [`CombinedFrame`] holds both
//! sides' frames by value, each with the operation it is poised on, and
//! interleaves the two operation streams one shared-memory operation at a
//! time, exactly as the paper's round-robin demands. The weak side's type
//! is the caller's choice (`Combined<W>`), so the default pairing with
//! [`LogStarLe`] runs without boxing or dynamic dispatch.

use std::sync::Arc;

use rtas_primitives::{Elect, TwoProcessFrame, TwoProcessLe};
use rtas_sim::memory::Memory;
use rtas_sim::op::MemOp;
use rtas_sim::protocol::{ret, Ctx, Frame, Poll, Protocol, Resume};
use rtas_sim::word::Word;

use crate::logstar::LogStarLe;
use crate::ratrace::{RatRaceFrame, SpaceEfficientRatRace};
use crate::LeaderElect;

/// The Section 4 combined leader election of RatRace with the weak-adversary
/// algorithm `W`.
pub struct Combined<W = LogStarLe> {
    ratrace: SpaceEfficientRatRace,
    weak: Arc<W>,
    letop: TwoProcessLe,
}

impl<W> Clone for Combined<W> {
    fn clone(&self) -> Self {
        Combined {
            ratrace: self.ratrace.clone(),
            weak: Arc::clone(&self.weak),
            letop: self.letop,
        }
    }
}

impl<W> std::fmt::Debug for Combined<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Combined")
            .field("ratrace", &self.ratrace)
            .finish()
    }
}

impl<W: Elect + 'static> Combined<W> {
    /// Combine `weak` (an algorithm for a weak adversary) with a RatRace
    /// sized for `n` processes.
    pub fn new(memory: &mut Memory, weak: Arc<W>, n: usize) -> Self {
        let ratrace = SpaceEfficientRatRace::new(memory, n);
        let letop = TwoProcessLe::new(memory, "combined-letop");
        Combined {
            ratrace,
            weak,
            letop,
        }
    }

    /// Build the per-process `elect()` protocol.
    pub fn elect(&self) -> Box<dyn Protocol> {
        LeaderElect::elect(self)
    }
}

impl<W: Elect> Elect for Combined<W> {
    type Frame = CombinedFrame<W>;

    fn frame(&self) -> CombinedFrame<W> {
        CombinedFrame {
            rr: Side::new(self.ratrace.frame()),
            weak: Side::new(self.weak.frame()),
            pending: None,
            next_turn: Turn::RatRace,
            top: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Turn {
    RatRace,
    Weak,
}

/// One side of the interleaving: its frame, the operation it is poised on
/// or the result it finished with, and a stopped flag.
#[derive(Debug, Clone)]
struct Side<F> {
    frame: F,
    /// The input of the side's next resume, once its last operation ran.
    input: Option<Resume>,
    pending: Option<MemOp>,
    finished: Option<Word>,
    stopped: bool,
}

impl<F: Frame> Side<F> {
    fn new(frame: F) -> Self {
        Side {
            frame,
            input: Some(Resume::Start),
            pending: None,
            finished: None,
            stopped: false,
        }
    }

    /// Whether this side can still take a step.
    fn live(&self) -> bool {
        !self.stopped && self.finished.is_none()
    }

    /// Deliver the result of the operation this side was poised on.
    fn feed(&mut self, input: Resume) {
        debug_assert!(self.pending.is_some(), "feed without a pending op");
        debug_assert!(!matches!(input, Resume::Start), "unexpected {input:?}");
        self.pending = None;
        self.input = Some(input);
    }

    /// Resume a live side that is not poised yet until it is poised again
    /// or finished; `Some(result)` if it finished in this call.
    fn poise(&mut self, object: &F::Object, ctx: &mut Ctx<'_>) -> Option<Word> {
        if !self.live() || self.pending.is_some() {
            return None;
        }
        let input = self.input.take().expect("side resumed without input");
        match self.frame.resume(object, input, ctx) {
            Poll::Op(op) => {
                self.pending = Some(op);
                None
            }
            Poll::Done(v) => {
                self.finished = Some(v);
                Some(v)
            }
        }
    }
}

/// One `elect()` call, resumed against its [`Combined`].
pub struct CombinedFrame<W: Elect> {
    rr: Side<RatRaceFrame>,
    weak: Side<W::Frame>,
    /// The side the operation in flight was issued for.
    pending: Option<Turn>,
    next_turn: Turn,
    /// `LEtop`, once a rule sent this process there.
    top: Option<TwoProcessFrame>,
}

impl<W: Elect> std::fmt::Debug for CombinedFrame<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CombinedFrame")
            .field("pending", &self.pending)
            .field("next_turn", &self.next_turn)
            .field("top", &self.top)
            .finish()
    }
}

/// What the rule engine decided after a side produced a result.
enum RuleOutcome {
    /// Keep interleaving (or continuing one side).
    Continue,
    /// Enter `LEtop` with this role.
    Top(usize),
    /// The combined election is lost.
    Lose,
}

impl<W: Elect> CombinedFrame<W> {
    /// Apply rules 1–3 for a side that just finished with `value`.
    fn on_side_finished(&mut self, side: Turn, value: Word, won_splitter: bool) -> RuleOutcome {
        match (side, value) {
            (Turn::RatRace, v) if v == ret::WIN => {
                // Rule 1: stop A, go for LEtop as the RatRace winner.
                self.weak.stopped = true;
                RuleOutcome::Top(0)
            }
            (Turn::RatRace, _) => {
                // Rule 2: losing RatRace loses everything.
                self.weak.stopped = true;
                RuleOutcome::Lose
            }
            (Turn::Weak, v) if v == ret::WIN => {
                // Rule 1: stop RatRace, go for LEtop as the A winner.
                self.rr.stopped = true;
                RuleOutcome::Top(1)
            }
            (Turn::Weak, _) => {
                if won_splitter {
                    // Rule 3 (exception): already holds a RatRace
                    // splitter — continue RatRace alone.
                    RuleOutcome::Continue
                } else {
                    // Rule 3: stop RatRace and lose.
                    self.rr.stopped = true;
                    RuleOutcome::Lose
                }
            }
        }
    }

    /// Apply the rules to a side's result; `Some(poll)` ends this resume.
    fn settle(
        &mut self,
        side: Turn,
        value: Word,
        c: &Combined<W>,
        ctx: &mut Ctx<'_>,
    ) -> Option<Poll> {
        match self.on_side_finished(side, value, ctx.notes.won_splitter) {
            RuleOutcome::Continue => None,
            RuleOutcome::Lose => Some(Poll::Done(ret::LOSE)),
            RuleOutcome::Top(role) => {
                let top = self.top.insert(TwoProcessFrame::new(role));
                Some(top.resume(&c.letop, Resume::Start, ctx))
            }
        }
    }
}

impl<W: Elect> Frame for CombinedFrame<W> {
    type Object = Combined<W>;

    fn resume(&mut self, c: &Combined<W>, input: Resume, ctx: &mut Ctx<'_>) -> Poll {
        if let Some(top) = &mut self.top {
            return top.resume(&c.letop, input, ctx);
        }
        // Deliver the result of the op we issued on behalf of a side.
        match self.pending.take() {
            Some(Turn::RatRace) => self.rr.feed(input),
            Some(Turn::Weak) => self.weak.feed(input),
            None => debug_assert!(matches!(input, Resume::Start)),
        }
        loop {
            // Advance any live side that is not poised yet, applying the
            // combination rules as sides finish.
            if let Some(v) = self.rr.poise(&c.ratrace, ctx) {
                if let Some(poll) = self.settle(Turn::RatRace, v, c, ctx) {
                    return poll;
                }
            }
            if let Some(v) = self.weak.poise(&c.weak, ctx) {
                if let Some(poll) = self.settle(Turn::Weak, v, c, ctx) {
                    return poll;
                }
            }
            // Pick the next side to step, alternating when both are live.
            let turn = match (self.rr.live(), self.weak.live()) {
                (true, true) => {
                    let t = self.next_turn;
                    self.next_turn = match t {
                        Turn::RatRace => Turn::Weak,
                        Turn::Weak => Turn::RatRace,
                    };
                    t
                }
                (true, false) => Turn::RatRace,
                (false, true) => Turn::Weak,
                (false, false) => {
                    // Both sides stopped without triggering a rule — only
                    // possible if a side finished while stopped, which the
                    // rules exclude; be safe and lose.
                    debug_assert!(false, "combined: both sides dead without outcome");
                    return Poll::Done(ret::LOSE);
                }
            };
            let pending = match turn {
                Turn::RatRace => self.rr.pending,
                Turn::Weak => self.weak.pending,
            };
            if let Some(op) = pending {
                self.pending = Some(turn);
                return Poll::Op(op);
            }
            // Side had no pending op (it just finished or advanced);
            // loop to re-apply rules / re-pick.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_sim::adversary::{AdversaryClass, FnAdversary, RandomSchedule, RoundRobin, View};
    use rtas_sim::executor::Execution;
    use rtas_sim::word::ProcessId;

    fn combined_system(k: usize, n: usize) -> (Memory, Vec<Box<dyn Protocol>>) {
        let mut mem = Memory::new();
        let weak = Arc::new(LogStarLe::new(&mut mem, n));
        let comb = Combined::new(&mut mem, weak, n);
        let protos = (0..k).map(|_| comb.elect()).collect();
        (mem, protos)
    }

    #[test]
    fn solo_process_wins() {
        let (mem, protos) = combined_system(1, 8);
        let res = Execution::new(mem, protos, 0).run(&mut RoundRobin::new(1));
        assert_eq!(res.outcome(ProcessId(0)), Some(ret::WIN));
    }

    #[test]
    fn unique_winner_random_schedules() {
        for k in [2usize, 4, 10] {
            for seed in 0..40 {
                let (mem, protos) = combined_system(k, k);
                let res =
                    Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed * 37));
                assert!(res.all_finished(), "k={k} seed={seed}");
                assert_eq!(
                    res.processes_with_outcome(ret::WIN).len(),
                    1,
                    "k={k} seed={seed}: {:?}",
                    res.outcomes()
                );
            }
        }
    }

    #[test]
    fn unique_winner_lockstep() {
        for k in [2usize, 6, 12] {
            for seed in 0..15 {
                let (mem, protos) = combined_system(k, k);
                let res = Execution::new(mem, protos, seed).run(&mut RoundRobin::new(k));
                assert!(res.all_finished());
                assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
            }
        }
    }

    #[test]
    fn unique_winner_adaptive_laggard() {
        for seed in 0..20 {
            let (mem, protos) = combined_system(6, 6);
            let mut adv = FnAdversary::new(AdversaryClass::Adaptive, |view: &View<'_>| {
                view.active().into_iter().min_by_key(|&p| view.steps_of(p))
            });
            let res = Execution::new(mem, protos, seed).run(&mut adv);
            assert!(res.all_finished());
            assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
        }
    }

    #[test]
    fn combined_with_ratrace_as_weak_side() {
        // The paper's pathological example: A = RatRace. The combination
        // rules must still produce exactly one winner.
        for seed in 0..20 {
            let k = 5;
            let mut mem = Memory::new();
            let weak = Arc::new(SpaceEfficientRatRace::new(&mut mem, k));
            let comb = Combined::new(&mut mem, weak, k);
            let protos = (0..k).map(|_| comb.elect()).collect();
            let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed));
            assert!(res.all_finished());
            assert_eq!(
                res.processes_with_outcome(ret::WIN).len(),
                1,
                "seed {seed}: {:?}",
                res.outcomes()
            );
        }
    }

    #[test]
    fn space_overhead_is_linear() {
        let mut mem = Memory::new();
        let weak = Arc::new(LogStarLe::new(&mut mem, 256));
        let weak_regs = mem.declared_registers();
        let _comb = Combined::new(&mut mem, weak, 256);
        let total = mem.declared_registers();
        assert!(
            total - weak_regs <= 40 * 256 + 200,
            "combiner overhead {} not Θ(n)",
            total - weak_regs
        );
    }
}
