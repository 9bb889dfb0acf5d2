//! Leader election from Group Elections (Section 2.1, Lemma 2.1).
//!
//! The ladder uses `n` levels, each with a group election `GE_i`, a
//! deterministic splitter `SP_i`, and a 2-process election `LE_i`:
//!
//! * a process runs `GE_1, GE_2, …`; losing any group election loses the
//!   leader election;
//! * an elected process calls `SP_i.split()`: `L` → lose, `R` → continue
//!   to level `i + 1`, `S` → *win the splitter* and stop descending;
//! * the splitter winner of level `i` climbs back through the 2-process
//!   elections `LE_i, LE_{i−1}, …, LE_1` (entering `LE_i` as role 0; the
//!   winner of `LE_{j+1}` enters `LE_j` as role 1). Winning `LE_1` wins
//!   the leader election.
//!
//! At most one process enters each `LE_j` per role: role 0 is `SP_j`'s
//! unique winner, role 1 is `LE_{j+1}`'s unique winner. If `j > 0`
//! processes call `GE_i.elect()`, at most `f(j) − 1` reach level `i + 1`
//! (the splitter always retires at least one), so with a performance
//! parameter `f(k) = 2·log k + 6` the expected ladder depth is
//! `Δ_{f−1}(k) = O(log* k)` (Lemma 2.1; experiment E10 checks the bound
//! numerically).
//!
//! The ladder is also the chassis of the adaptive sifting algorithm
//! (Theorem 2.4), which needs processes that exhaust a *short* ladder to
//! **overflow** to a bigger one instead of losing — hence
//! [`OverflowPolicy`].

use std::sync::Arc;

use rtas_primitives::{Elect, SplitFrame, Splitter, TwoProcessFrame, TwoProcessLe};
use rtas_sim::memory::Memory;
use rtas_sim::protocol::{ret, Ctx, Frame, Poll, Protocol, Resume};
use rtas_sim::ready;
use rtas_sim::word::Word;

use crate::group_elect::{GroupElectFrame, GroupElection};
use crate::LeaderElect;

/// Outcome values of a chain `elect()` (as `Word`s).
pub mod chain_ret {
    use rtas_sim::word::Word;

    /// Lost the leader election.
    pub const LOSE: Word = rtas_sim::protocol::ret::LOSE;
    /// Won the leader election (won `LE_1`).
    pub const WIN: Word = rtas_sim::protocol::ret::WIN;
    /// Passed every level without losing or winning a splitter
    /// (only with [`super::OverflowPolicy::Overflow`]).
    pub const OVERFLOW: Word = 2;
}

/// Typed view of a chain outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainOutcome {
    /// Lost the leader election.
    Lose,
    /// Won the leader election.
    Win,
    /// Fell off the end of the ladder (overflow policy only).
    Overflow,
}

impl ChainOutcome {
    /// Decode a protocol result word.
    ///
    /// # Panics
    ///
    /// Panics on an unknown value.
    pub fn from_word(w: Word) -> ChainOutcome {
        match w {
            chain_ret::LOSE => ChainOutcome::Lose,
            chain_ret::WIN => ChainOutcome::Win,
            chain_ret::OVERFLOW => ChainOutcome::Overflow,
            other => panic!("invalid chain outcome {other}"),
        }
    }
}

/// What happens to a process that passes the last level still alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// It loses (sound when the ladder has ≥ n levels, since each level
    /// retires at least one process — the Theorem 2.3 configuration).
    Lose,
    /// It returns [`chain_ret::OVERFLOW`] so a wrapper can move it to the
    /// next structure (the Theorem 2.4 configuration).
    Overflow,
}

struct Level {
    ge: GroupElection,
    sp: Splitter,
    le: TwoProcessLe,
}

/// The ladder structure: one [`GroupElection`] + splitter + 2-process LE
/// per level.
#[derive(Clone)]
pub struct LeChain {
    levels: Arc<[Level]>,
    policy: OverflowPolicy,
}

impl std::fmt::Debug for LeChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeChain")
            .field("levels", &self.levels.len())
            .field("policy", &self.policy)
            .finish()
    }
}

impl LeChain {
    /// Build a ladder from the given group elections (one level per
    /// element), allocating the splitters and 2-process elections.
    ///
    /// # Panics
    ///
    /// Panics if `ges` is empty.
    pub fn new(
        memory: &mut Memory,
        ges: Vec<GroupElection>,
        policy: OverflowPolicy,
        label: &str,
    ) -> Self {
        assert!(!ges.is_empty(), "a chain needs at least one level");
        let levels = ges
            .into_iter()
            .map(|ge| Level {
                ge,
                sp: Splitter::new(memory, label),
                le: TwoProcessLe::new(memory, label),
            })
            .collect();
        LeChain { levels, policy }
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Registers used by the splitters and 2-process elections
    /// (4 per level; group elections account separately).
    pub fn ladder_registers(&self) -> u64 {
        self.levels.len() as u64 * (Splitter::REGISTERS + TwoProcessLe::REGISTERS)
    }

    /// Build the `elect()` protocol.
    pub fn elect(&self) -> Box<dyn Protocol> {
        LeaderElect::elect(self)
    }
}

impl Elect for LeChain {
    type Frame = ChainFrame;

    fn frame(&self) -> ChainFrame {
        ChainFrame {
            level: 0,
            step: Step::Ge(self.levels[0].ge.frame()),
        }
    }
}

/// One `elect()` call, resumed against its [`LeChain`].
#[derive(Debug, Clone)]
pub struct ChainFrame {
    level: usize,
    step: Step,
}

#[derive(Debug, Clone)]
enum Step {
    /// Running `GE_level`.
    Ge(GroupElectFrame),
    /// Running `SP_level`.
    Split(SplitFrame),
    /// Climbing through `LE_level`.
    Climb(TwoProcessFrame),
}

impl Frame for ChainFrame {
    type Object = LeChain;

    #[inline]
    fn resume(&mut self, chain: &LeChain, mut input: Resume, ctx: &mut Ctx<'_>) -> Poll {
        loop {
            let level = &chain.levels[self.level];
            match &mut self.step {
                Step::Ge(ge) => {
                    if ready!(ge.resume(&level.ge, input, ctx)) == ret::LOSE {
                        return Poll::Done(chain_ret::LOSE);
                    }
                    self.step = Step::Split(SplitFrame::default());
                }
                Step::Split(sp) => match ready!(sp.resume(&level.sp, input, ctx)) {
                    ret::SPLIT_LEFT => return Poll::Done(chain_ret::LOSE),
                    ret::SPLIT_STOP => self.step = Step::Climb(TwoProcessFrame::new(0)),
                    ret::SPLIT_RIGHT => {
                        self.level += 1;
                        let Some(next) = chain.levels.get(self.level) else {
                            return match chain.policy {
                                OverflowPolicy::Lose => Poll::Done(chain_ret::LOSE),
                                OverflowPolicy::Overflow => Poll::Done(chain_ret::OVERFLOW),
                            };
                        };
                        self.step = Step::Ge(next.ge.frame());
                    }
                    other => panic!("invalid splitter result {other}"),
                },
                Step::Climb(le) => {
                    if ready!(le.resume(&level.le, input, ctx)) == ret::LOSE {
                        return Poll::Done(chain_ret::LOSE);
                    }
                    if self.level == 0 {
                        return Poll::Done(chain_ret::WIN);
                    }
                    self.level -= 1;
                    self.step = Step::Climb(TwoProcessFrame::new(1));
                }
            }
            input = Resume::Start;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group_elect::GeometricGroupElect;
    use rtas_sim::adversary::{RandomSchedule, RoundRobin};
    use rtas_sim::executor::Execution;
    use rtas_sim::word::ProcessId;

    fn dummy_chain(memory: &mut Memory, levels: usize) -> LeChain {
        LeChain::new(
            memory,
            vec![GroupElection::Dummy; levels],
            OverflowPolicy::Lose,
            "chain",
        )
    }

    fn geometric_chain(memory: &mut Memory, n: usize) -> LeChain {
        let ges = (0..n)
            .map(|_| GeometricGroupElect::new(memory, n, "ge").into())
            .collect();
        LeChain::new(memory, ges, OverflowPolicy::Lose, "chain")
    }

    #[test]
    fn chain_outcome_roundtrip() {
        assert_eq!(ChainOutcome::from_word(chain_ret::WIN), ChainOutcome::Win);
        assert_eq!(ChainOutcome::from_word(chain_ret::LOSE), ChainOutcome::Lose);
        assert_eq!(
            ChainOutcome::from_word(chain_ret::OVERFLOW),
            ChainOutcome::Overflow
        );
    }

    #[test]
    #[should_panic(expected = "invalid chain outcome")]
    fn bad_outcome_panics() {
        let _ = ChainOutcome::from_word(9);
    }

    #[test]
    fn solo_process_wins() {
        let mut mem = Memory::new();
        let chain = dummy_chain(&mut mem, 4);
        let res = Execution::new(mem, vec![chain.elect()], 0).run(&mut RoundRobin::new(1));
        assert_eq!(res.outcome(ProcessId(0)), Some(chain_ret::WIN));
    }

    #[test]
    fn unique_winner_dummy_chain_random_schedules() {
        for k in [2usize, 3, 6, 12] {
            for seed in 0..50 {
                let mut mem = Memory::new();
                // With dummy GEs, each level retires ≥1 process via the
                // splitter, so k levels always suffice.
                let chain = dummy_chain(&mut mem, k);
                let protos = (0..k).map(|_| chain.elect()).collect();
                let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed * 5));
                assert!(res.all_finished(), "k={k} seed={seed}");
                assert_eq!(
                    res.processes_with_outcome(chain_ret::WIN).len(),
                    1,
                    "k={k} seed={seed}: {:?}",
                    res.outcomes()
                );
            }
        }
    }

    #[test]
    fn unique_winner_geometric_chain_random_schedules() {
        for k in [2usize, 5, 16] {
            for seed in 0..40 {
                let mut mem = Memory::new();
                let chain = geometric_chain(&mut mem, k.max(4));
                let protos = (0..k).map(|_| chain.elect()).collect();
                let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed * 9));
                assert!(res.all_finished(), "k={k} seed={seed}");
                assert_eq!(
                    res.processes_with_outcome(chain_ret::WIN).len(),
                    1,
                    "k={k} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn overflow_policy_reports_fall_off() {
        // One level, two processes: with a dummy GE both get elected; the
        // splitter lets at most one through to level 2 = overflow.
        let mut mem = Memory::new();
        let ges = vec![GroupElection::Dummy];
        let chain = LeChain::new(&mut mem, ges, OverflowPolicy::Overflow, "chain");
        let mut overflow_seen = false;
        for seed in 0..60 {
            let mut mem = Memory::new();
            let ges = vec![GroupElection::Dummy];
            let chain2 = LeChain::new(&mut mem, ges, OverflowPolicy::Overflow, "chain");
            let protos = (0..2).map(|_| chain2.elect()).collect();
            let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed));
            assert!(res.all_finished());
            let overflows = res.processes_with_outcome(chain_ret::OVERFLOW).len();
            let wins = res.processes_with_outcome(chain_ret::WIN).len();
            assert!(wins <= 1);
            overflow_seen |= overflows > 0;
        }
        let _ = chain;
        assert!(overflow_seen, "no overflow in 60 runs of a 1-level chain");
    }

    #[test]
    fn ladder_register_accounting() {
        let mut mem = Memory::new();
        let chain = dummy_chain(&mut mem, 10);
        assert_eq!(chain.levels(), 10);
        assert_eq!(chain.ladder_registers(), 40);
        assert_eq!(mem.declared_registers(), 40);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_chain_panics() {
        let mut mem = Memory::new();
        let _ = LeChain::new(&mut mem, Vec::new(), OverflowPolicy::Lose, "chain");
    }

    #[test]
    fn steps_stay_small_for_moderate_contention() {
        // Sanity check of the O(Δ_{f−1}(k)) behaviour: with k = 32 the
        // expected max steps should be well below the Ω(k) regime.
        let k = 32;
        let mut total = 0u64;
        let trials = 30;
        for seed in 0..trials {
            let mut mem = Memory::new();
            let chain = geometric_chain(&mut mem, k);
            let protos = (0..k).map(|_| chain.elect()).collect();
            let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed + 2));
            assert!(res.all_finished());
            total += res.steps().max();
        }
        let mean = total as f64 / trials as f64;
        assert!(mean < 60.0, "mean max steps {mean}");
    }
}
