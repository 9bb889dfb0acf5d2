//! Elimination paths (Section 3.2, Claim 3.1).
//!
//! An elimination path of length `ℓ` is a row of `ℓ` nodes, each holding a
//! deterministic splitter `SP_i` and a 2-process election `LE_i`. A process
//! enters at node 1 and moves right until it wins a splitter (`S`), loses
//! (`L`), or falls off the right end; a splitter winner then moves *left*,
//! winning `LE_i, LE_{i−1}, …` until it loses or wins `LE_1` — the path's
//! winner.
//!
//! Claim 3.1: if at most `ℓ` processes enter a path of length `ℓ`, no
//! process falls off the right end (each node's splitter retires at least
//! one process). The paper replaces RatRace's Θ(n²) backup grid with one
//! length-`n` elimination path, and the tall primary tree with a short
//! tree plus `n / log n` length-`4·log n` paths — the Θ(n)-register
//! redesign measured in experiment E4.
//!
//! Note the structural identity: an elimination path is exactly the
//! Section 2.1 ladder with *dummy* group elections. It is implemented
//! directly here (rather than via [`crate::le_chain`]) because its users
//! need the distinct outcome `FELL_OFF` and entry of the winner into a
//! parent structure.

use std::sync::Arc;

use rtas_primitives::{SplitFrame, Splitter, TwoProcessFrame, TwoProcessLe};
use rtas_sim::memory::Memory;
use rtas_sim::protocol::{ret, Bound, Ctx, Frame, Poll, Protocol, Resume};
use rtas_sim::ready;
use rtas_sim::word::Word;

/// Outcome values of an elimination-path `enter()`.
pub mod path_ret {
    use rtas_sim::word::Word;

    /// Lost inside the path.
    pub const LOSE: Word = rtas_sim::protocol::ret::LOSE;
    /// Won the path (won `LE_1`).
    pub const WIN: Word = rtas_sim::protocol::ret::WIN;
    /// Fell off the right end (more than `ℓ` processes entered).
    pub const FELL_OFF: Word = 2;
}

struct Node {
    sp: Splitter,
    le: TwoProcessLe,
}

/// An elimination path of fixed length.
#[derive(Clone)]
pub struct EliminationPath {
    nodes: Arc<[Node]>,
}

impl std::fmt::Debug for EliminationPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EliminationPath")
            .field("length", &self.nodes.len())
            .finish()
    }
}

impl EliminationPath {
    /// Allocate a path of `length` nodes under the given label.
    ///
    /// # Panics
    ///
    /// Panics if `length == 0`.
    pub fn new(memory: &mut Memory, length: usize, label: &str) -> Self {
        assert!(length >= 1, "elimination path needs at least one node");
        let nodes = (0..length)
            .map(|_| Node {
                sp: Splitter::new(memory, label),
                le: TwoProcessLe::new(memory, label),
            })
            .collect();
        EliminationPath { nodes }
    }

    /// Path length `ℓ`.
    pub fn length(&self) -> usize {
        self.nodes.len()
    }

    /// Registers used: 4 per node.
    pub fn registers(&self) -> u64 {
        self.nodes.len() as u64 * (Splitter::REGISTERS + TwoProcessLe::REGISTERS)
    }

    /// Build the protocol for one process entering at node 1.
    ///
    /// Returns [`path_ret::WIN`], [`path_ret::LOSE`], or
    /// [`path_ret::FELL_OFF`].
    pub fn enter(&self) -> Box<dyn Protocol> {
        Box::new(Bound::new(self.clone(), PathFrame::default()))
    }
}

/// One `enter()` call, resumed against its [`EliminationPath`].
#[derive(Debug, Clone, Default)]
pub struct PathFrame {
    node: usize,
    step: Step,
}

#[derive(Debug, Clone)]
enum Step {
    /// Running `SP_node`.
    Split(SplitFrame),
    /// Climbing through `LE_node`.
    Climb(TwoProcessFrame),
}

impl Default for Step {
    fn default() -> Self {
        Step::Split(SplitFrame::default())
    }
}

impl Frame for PathFrame {
    type Object = EliminationPath;

    #[inline]
    fn resume(&mut self, path: &EliminationPath, mut input: Resume, ctx: &mut Ctx<'_>) -> Poll {
        loop {
            let node = &path.nodes[self.node];
            match &mut self.step {
                Step::Split(sp) => match ready!(sp.resume(&node.sp, input, ctx)) {
                    ret::SPLIT_LEFT => return Poll::Done(path_ret::LOSE),
                    ret::SPLIT_RIGHT => {
                        self.node += 1;
                        if self.node == path.nodes.len() {
                            return Poll::Done(path_ret::FELL_OFF);
                        }
                        self.step = Step::default();
                    }
                    ret::SPLIT_STOP => {
                        // Won SP_node: climb left through the elections.
                        // The note feeds Section 4's combiner (Rule 3).
                        ctx.notes.won_splitter = true;
                        self.step = Step::Climb(TwoProcessFrame::new(0));
                    }
                    other => panic!("invalid splitter result {other}"),
                },
                Step::Climb(le) => {
                    if ready!(le.resume(&node.le, input, ctx)) == ret::LOSE {
                        return Poll::Done(path_ret::LOSE);
                    }
                    if self.node == 0 {
                        return Poll::Done(path_ret::WIN);
                    }
                    self.node -= 1;
                    self.step = Step::Climb(TwoProcessFrame::new(1));
                }
            }
            input = Resume::Start;
        }
    }
}

/// A `Word` result classifier shared by tests and RatRace.
pub fn is_win(w: Word) -> bool {
    w == path_ret::WIN
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_sim::adversary::{RandomSchedule, RoundRobin};
    use rtas_sim::executor::Execution;
    use rtas_sim::word::ProcessId;

    fn run_path(length: usize, k: usize, seed: u64) -> Vec<Word> {
        let mut mem = Memory::new();
        let path = EliminationPath::new(&mut mem, length, "ep");
        let protos = (0..k).map(|_| path.enter()).collect();
        let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed ^ 0xE9));
        assert!(res.all_finished());
        (0..k).map(|i| res.outcome(ProcessId(i)).unwrap()).collect()
    }

    #[test]
    fn solo_process_wins_first_node() {
        let outs = run_path(3, 1, 0);
        assert_eq!(outs, vec![path_ret::WIN]);
    }

    #[test]
    fn claim_3_1_no_fall_off_when_k_at_most_length() {
        for length in [2usize, 4, 8] {
            for k in 1..=length {
                for seed in 0..25 {
                    let outs = run_path(length, k, seed);
                    assert!(
                        outs.iter().all(|&o| o != path_ret::FELL_OFF),
                        "ℓ={length} k={k} seed={seed}: {outs:?}"
                    );
                    let wins = outs.iter().filter(|&&o| is_win(o)).count();
                    assert_eq!(wins, 1, "ℓ={length} k={k} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn overloaded_path_may_fall_off_but_never_two_winners() {
        let mut fell = false;
        for seed in 0..60 {
            let outs = run_path(2, 5, seed);
            let wins = outs.iter().filter(|&&o| is_win(o)).count();
            assert!(wins <= 1);
            fell |= outs.contains(&path_ret::FELL_OFF);
        }
        // With 5 processes on a length-2 path, fall-off should occur at
        // least sometimes.
        assert!(fell);
    }

    #[test]
    fn lockstep_schedule_unique_winner() {
        for k in [2usize, 3, 4] {
            let mut mem = Memory::new();
            let path = EliminationPath::new(&mut mem, k, "ep");
            let protos = (0..k).map(|_| path.enter()).collect();
            let res = Execution::new(mem, protos, 1).run(&mut RoundRobin::new(k));
            assert!(res.all_finished());
            assert_eq!(res.processes_with_outcome(path_ret::WIN).len(), 1);
        }
    }

    #[test]
    fn register_accounting() {
        let mut mem = Memory::new();
        let path = EliminationPath::new(&mut mem, 7, "ep");
        assert_eq!(path.registers(), 28);
        assert_eq!(mem.declared_registers(), 28);
        assert_eq!(path.length(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_length_panics() {
        let mut mem = Memory::new();
        let _ = EliminationPath::new(&mut mem, 0, "ep");
    }

    #[test]
    fn exhaustive_two_processes_on_short_path() {
        // All schedules × coins for 2 processes on a length-2 path:
        // exactly one winner on complete paths, never a fall-off
        // (Claim 3.1 with k = ℓ = 2), never two winners anywhere.
        use rtas_sim::explore::{explore, ExploreConfig};
        let max_steps = if cfg!(debug_assertions) { 14 } else { 16 };
        let stats = explore(
            || {
                let mut mem = Memory::new();
                let path = EliminationPath::new(&mut mem, 2, "ep");
                (mem, (0..2).map(|_| path.enter()).collect())
            },
            ExploreConfig {
                max_steps,
                max_paths: 40_000_000,
            },
            |e| {
                let wins = e.with_outcome(path_ret::WIN).len();
                assert!(wins <= 1, "{:?}", e.outcomes);
                assert!(
                    e.with_outcome(path_ret::FELL_OFF).is_empty(),
                    "fall-off with k <= ℓ: {:?}",
                    e.outcomes
                );
                if e.all_finished() {
                    assert_eq!(wins, 1, "{:?}", e.outcomes);
                }
            },
        );
        assert!(stats.paths > 500);
    }

    #[test]
    fn splitter_win_sets_combiner_note() {
        // The elimination path must raise Notes::won_splitter for Rule 3
        // of the Section 4 combiner.
        use rtas_sim::op::MemOp;
        use rtas_sim::protocol::Notes;
        use rtas_sim::rng::SplitMix64;
        let mut mem = Memory::new();
        let path = EliminationPath::new(&mut mem, 2, "ep");
        let mut frame = PathFrame::default();
        let mut rng = SplitMix64::new(0);
        let mut notes = Notes::default();
        let mut ctx = Ctx {
            pid: rtas_sim::word::ProcessId(0),
            rng: &mut rng,
            notes: &mut notes,
        };
        let mut input = Resume::Start;
        loop {
            match frame.resume(&path, input, &mut ctx) {
                Poll::Done(v) => {
                    assert_eq!(v, path_ret::WIN);
                    break;
                }
                Poll::Op(MemOp::Read(r)) => input = Resume::Read(mem.read(r).value),
                Poll::Op(MemOp::Write(r, v)) => {
                    mem.write(r, v, rtas_sim::word::ProcessId(0));
                    input = Resume::Wrote;
                }
            }
        }
        assert!(notes.won_splitter, "solo winner must have won a splitter");
    }
}
