//! 3-process leader election from two 2-process elections.
//!
//! RatRace associates a 3-process leader-election object with every tree
//! node (Section 3.1): the contenders are the node's splitter winner and
//! the winners bubbling up from the two children. The paper notes the
//! object is "implemented from two 2-process LeaderElect objects":
//!
//! * roles 0 and 1 (the children) first play the *semifinal* `LE_a`;
//! * the semifinal winner plays role 0 of the *final* `LE_b` against
//!   role 2 (the splitter winner), who enters the final directly as
//!   role 1.
//!
//! Each underlying 2-process object is accessed by at most one process per
//! role, as required.

use rtas_sim::memory::Memory;
use rtas_sim::protocol::{ret, Bound, Ctx, Frame, Poll, Protocol, Resume};
use rtas_sim::ready;

use crate::object::RoleLeaderElect;
use crate::two_process::{TwoProcessFrame, TwoProcessLe};

/// Descriptor of one 3-process leader-election object (4 registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreeProcessLe {
    semifinal: TwoProcessLe,
    fina1: TwoProcessLe,
}

impl ThreeProcessLe {
    /// Allocate the object's registers under the given label.
    pub fn new(memory: &mut Memory, label: &str) -> Self {
        ThreeProcessLe {
            semifinal: TwoProcessLe::new(memory, label),
            fina1: TwoProcessLe::new(memory, label),
        }
    }

    /// Build from a pre-allocated 4-register range (lazy structures).
    pub fn from_range(range: rtas_sim::memory::RegRange) -> Self {
        assert!(range.len() >= 4, "3-process LE needs 4 registers");
        ThreeProcessLe {
            semifinal: TwoProcessLe::from_range(range.sub(0, 2)),
            fina1: TwoProcessLe::from_range(range.sub(2, 2)),
        }
    }

    /// Number of registers the object occupies.
    pub const REGISTERS: u64 = 2 * TwoProcessLe::REGISTERS;
}

impl RoleLeaderElect for ThreeProcessLe {
    fn roles(&self) -> usize {
        3
    }

    fn elect_as(&self, role: usize) -> Box<dyn Protocol> {
        Box::new(Bound::new(*self, ThreeProcessFrame::new(role)))
    }
}

/// One `elect_as(role)` call, resumed against its [`ThreeProcessLe`].
#[derive(Debug, Clone)]
pub struct ThreeProcessFrame {
    role: usize,
    stage: Stage,
}

#[derive(Debug, Clone)]
enum Stage {
    Start,
    Semifinal(TwoProcessFrame),
    Final(TwoProcessFrame),
}

impl ThreeProcessFrame {
    /// A frame poised at the start of `elect_as(role)`.
    ///
    /// # Panics
    ///
    /// Panics unless `role` is 0, 1 or 2.
    pub fn new(role: usize) -> Self {
        assert!(role < 3, "3-process LE has roles 0..3, got {role}");
        ThreeProcessFrame {
            role,
            stage: Stage::Start,
        }
    }
}

impl Frame for ThreeProcessFrame {
    type Object = ThreeProcessLe;

    #[inline]
    fn resume(&mut self, le: &ThreeProcessLe, mut input: Resume, ctx: &mut Ctx<'_>) -> Poll {
        loop {
            match &mut self.stage {
                Stage::Start => {
                    self.stage = match self.role {
                        0 | 1 => Stage::Semifinal(TwoProcessFrame::new(self.role)),
                        _ => Stage::Final(TwoProcessFrame::new(1)),
                    };
                }
                Stage::Semifinal(semifinal) => {
                    if ready!(semifinal.resume(&le.semifinal, input, ctx)) != ret::WIN {
                        return Poll::Done(ret::LOSE);
                    }
                    self.stage = Stage::Final(TwoProcessFrame::new(0));
                    input = Resume::Start;
                }
                Stage::Final(fina1) => return fina1.resume(&le.fina1, input, ctx),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_sim::adversary::{RandomSchedule, RoundRobin};
    use rtas_sim::executor::Execution;
    use rtas_sim::explore::{explore, ExploreConfig, Explored};
    use rtas_sim::word::ProcessId;

    fn system(roles: &[usize]) -> (Memory, Vec<Box<dyn Protocol>>) {
        let mut mem = Memory::new();
        let le = ThreeProcessLe::new(&mut mem, "3le");
        let protos = roles.iter().map(|&r| le.elect_as(r)).collect();
        (mem, protos)
    }

    fn check_safety(e: &Explored) {
        let winners = e.with_outcome(ret::WIN).len();
        assert!(winners <= 1, "two winners: {:?}", e.outcomes);
        if e.all_finished() {
            assert_eq!(winners, 1, "no winner: {:?}", e.outcomes);
        }
    }

    #[test]
    fn each_role_wins_solo() {
        for role in 0..3 {
            let (mem, protos) = system(&[role]);
            let res = Execution::new(mem, protos, 5).run(&mut RoundRobin::new(1));
            assert_eq!(res.outcome(ProcessId(0)), Some(ret::WIN), "role {role}");
        }
    }

    #[test]
    fn random_schedules_unique_winner_all_role_sets() {
        let role_sets: &[&[usize]] = &[&[0, 1], &[0, 2], &[1, 2], &[0, 1, 2]];
        for roles in role_sets {
            for seed in 0..150 {
                let (mem, protos) = system(roles);
                let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed * 3));
                assert!(res.all_finished(), "roles {roles:?} seed {seed}");
                assert_eq!(
                    res.processes_with_outcome(ret::WIN).len(),
                    1,
                    "roles {roles:?} seed {seed}: {:?}",
                    res.outcomes()
                );
            }
        }
    }

    #[test]
    fn exhaustive_two_participant_combinations() {
        let max_steps = if cfg!(debug_assertions) { 14 } else { 16 };
        for roles in [[0usize, 1], [0, 2], [1, 2]] {
            let stats = explore(
                || system(&roles),
                ExploreConfig {
                    max_steps,
                    max_paths: 40_000_000,
                },
                check_safety,
            );
            assert!(stats.paths > 100, "roles {roles:?}");
        }
    }

    #[test]
    fn exhaustive_three_participants_bounded() {
        // Full 3-process exploration branches fast (3 scheduling choices
        // per step); a modest budget still covers every schedule of the
        // fast paths and all their prefixes.
        let max_steps = if cfg!(debug_assertions) { 11 } else { 13 };
        let stats = explore(
            || system(&[0, 1, 2]),
            ExploreConfig {
                max_steps,
                max_paths: 60_000_000,
            },
            check_safety,
        );
        assert!(stats.paths > 10_000);
    }

    #[test]
    fn register_accounting() {
        let mut mem = Memory::new();
        let _ = ThreeProcessLe::new(&mut mem, "3le");
        assert_eq!(mem.declared_registers(), ThreeProcessLe::REGISTERS);
    }

    #[test]
    #[should_panic(expected = "roles 0..3")]
    fn bad_role_panics() {
        let mut mem = Memory::new();
        let le = ThreeProcessLe::new(&mut mem, "3le");
        let _ = le.elect_as(3);
    }
}
