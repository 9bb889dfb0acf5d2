//! The original RatRace (Section 3.1): Θ(n³) registers.
//!
//! * **Primary tree** of height `3·log₂ n` — Θ(n³) nodes, each with a
//!   randomized splitter and a 3-process election. Registers are lazily
//!   materialized: the structure *declares* Θ(n³) registers (the paper's
//!   space complexity) but an execution only touches O(k·log k).
//! * **Backup grid** `n × n` — node `(i, j)` has a deterministic splitter
//!   and a 3-process election; children are `(i+1, j)` (on `L`) and
//!   `(i, j+1)` (on `R`). A process that falls off a tree leaf enters at
//!   `(0, 0)`, descends until it wins a splitter (guaranteed before it
//!   leaves the grid), then climbs back along its own descent path.
//! * The tree winner and the grid winner meet in a 2-process election.
//!
//! This implementation exists as the baseline for experiment E4's space
//! table (Θ(n³) declared vs Θ(n) for the Section 3.2 redesign) and for
//! step-complexity cross-checks.

use std::sync::Arc;

use rtas_primitives::{
    Elect, RSplitFrame, RSplitter, SplitFrame, Splitter, ThreeProcessFrame, ThreeProcessLe,
    TwoProcessFrame, TwoProcessLe,
};
use rtas_sim::memory::{Memory, RegRange};
use rtas_sim::protocol::{ret, Ctx, Frame, Poll, Protocol, Resume};
use rtas_sim::ready;

use crate::group_elect::ceil_log2;
use crate::LeaderElect;

/// Registers per tree/grid node: one randomized/deterministic splitter (2)
/// plus one 3-process election (4).
const NODE_REGS: u64 = 6;

struct Structure {
    tree: RegRange,
    tree_height: u32,
    /// Number of tree nodes (heap indices `1 ..= tree_nodes`).
    tree_nodes: u64,
    grid: RegRange,
    n: u64,
    letop: TwoProcessLe,
}

impl Structure {
    fn tree_node(&self, heap_index: u64) -> (RSplitter, ThreeProcessLe) {
        debug_assert!((1..=self.tree_nodes).contains(&heap_index));
        let base = self.tree.sub((heap_index - 1) * NODE_REGS, NODE_REGS);
        (
            RSplitter::from_range(base.sub(0, 2)),
            ThreeProcessLe::from_range(base.sub(2, 4)),
        )
    }

    fn grid_node(&self, i: u64, j: u64) -> (Splitter, ThreeProcessLe) {
        debug_assert!(i < self.n && j < self.n);
        let base = self.grid.sub((i * self.n + j) * NODE_REGS, NODE_REGS);
        (
            Splitter::from_range(base.sub(0, 2)),
            ThreeProcessLe::from_range(base.sub(2, 4)),
        )
    }
}

/// The original RatRace leader election.
#[derive(Clone)]
pub struct OriginalRatRace {
    s: Arc<Structure>,
    capacity: usize,
}

impl std::fmt::Debug for OriginalRatRace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OriginalRatRace")
            .field("n", &self.capacity)
            .field("tree_height", &self.s.tree_height)
            .finish()
    }
}

impl OriginalRatRace {
    /// Build (declare) the structure for up to `n` processes.
    ///
    /// Declares Θ(n³) registers; host memory is only consumed for touched
    /// registers.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(memory: &mut Memory, n: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        let n_eff = (n.max(2)) as u64;
        let tree_height = 3 * ceil_log2(n_eff as usize);
        let tree_nodes = (1u64 << (tree_height + 1)) - 1;
        let tree = memory.alloc_lazy(tree_nodes * NODE_REGS, "ratrace-orig-tree");
        let grid = memory.alloc_lazy(n_eff * n_eff * NODE_REGS, "ratrace-orig-grid");
        let letop = TwoProcessLe::new(memory, "ratrace-orig-letop");
        OriginalRatRace {
            s: Arc::new(Structure {
                tree,
                tree_height,
                tree_nodes,
                grid,
                n: n_eff,
                letop,
            }),
            capacity: n,
        }
    }

    /// Maximum number of participating processes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Height of the primary tree (`3·⌈log₂ n⌉`).
    pub fn tree_height(&self) -> u32 {
        self.s.tree_height
    }

    /// Total declared registers (Θ(n³)).
    pub fn declared_registers(&self) -> u64 {
        self.s.tree_nodes * NODE_REGS + self.s.n * self.s.n * NODE_REGS + TwoProcessLe::REGISTERS
    }

    /// Build the per-process `elect()` protocol.
    pub fn elect(&self) -> Box<dyn Protocol> {
        LeaderElect::elect(self)
    }
}

impl Elect for OriginalRatRace {
    type Frame = OriginalFrame;

    fn frame(&self) -> OriginalFrame {
        OriginalFrame {
            node: 1,
            gi: 0,
            gj: 0,
            grid_path: Vec::new(),
            step: Step::TreeSplit(RSplitFrame::default()),
        }
    }
}

/// One `elect()` call, resumed against its [`OriginalRatRace`].
#[derive(Debug, Clone)]
pub struct OriginalFrame {
    /// Tree heap index during tree phases.
    node: u64,
    /// Grid coordinates during grid phases.
    gi: u64,
    gj: u64,
    /// Descent path through the grid: `true` = moved down (`L`, i+1),
    /// `false` = moved right (`R`, j+1). Needed to climb back.
    grid_path: Vec<bool>,
    step: Step,
}

#[derive(Debug, Clone)]
enum Step {
    TreeSplit(RSplitFrame),
    TreeClimb(ThreeProcessFrame),
    GridSplit(SplitFrame),
    GridClimb(ThreeProcessFrame),
    Top(TwoProcessFrame),
}

impl Frame for OriginalFrame {
    type Object = OriginalRatRace;

    #[inline]
    fn resume(&mut self, rr: &OriginalRatRace, mut input: Resume, ctx: &mut Ctx<'_>) -> Poll {
        let s = &*rr.s;
        loop {
            match &mut self.step {
                Step::TreeSplit(sp) => {
                    let v = ready!(sp.resume(&s.tree_node(self.node).0, input, ctx));
                    if v == ret::SPLIT_STOP {
                        ctx.notes.won_splitter = true;
                        self.step = Step::TreeClimb(ThreeProcessFrame::new(2));
                    } else {
                        let child = 2 * self.node + u64::from(v == ret::SPLIT_RIGHT);
                        if child > s.tree_nodes {
                            // Fell off the tree: enter the grid at (0,0).
                            self.gi = 0;
                            self.gj = 0;
                            self.grid_path.clear();
                            self.step = Step::GridSplit(SplitFrame::default());
                        } else {
                            self.node = child;
                            self.step = Step::TreeSplit(RSplitFrame::default());
                        }
                    }
                }
                Step::TreeClimb(le) => {
                    if ready!(le.resume(&s.tree_node(self.node).1, input, ctx)) == ret::LOSE {
                        return Poll::Done(ret::LOSE);
                    }
                    if self.node == 1 {
                        self.step = Step::Top(TwoProcessFrame::new(0));
                    } else {
                        let role = (self.node % 2) as usize;
                        self.node /= 2;
                        self.step = Step::TreeClimb(ThreeProcessFrame::new(role));
                    }
                }
                Step::GridSplit(sp) => {
                    match ready!(sp.resume(&s.grid_node(self.gi, self.gj).0, input, ctx)) {
                        ret::SPLIT_STOP => {
                            ctx.notes.won_splitter = true;
                            self.step = Step::GridClimb(ThreeProcessFrame::new(2));
                        }
                        ret::SPLIT_LEFT => {
                            // Deterministic splitters guarantee a win before
                            // the grid's edge for k ≤ n processes.
                            assert!(self.gi + 1 < s.n, "fell off the grid (L edge)");
                            self.gi += 1;
                            self.grid_path.push(true);
                            self.step = Step::GridSplit(SplitFrame::default());
                        }
                        ret::SPLIT_RIGHT => {
                            assert!(self.gj + 1 < s.n, "fell off the grid (R edge)");
                            self.gj += 1;
                            self.grid_path.push(false);
                            self.step = Step::GridSplit(SplitFrame::default());
                        }
                        other => panic!("invalid splitter result {other}"),
                    }
                }
                Step::GridClimb(le) => {
                    let v = ready!(le.resume(&s.grid_node(self.gi, self.gj).1, input, ctx));
                    if v == ret::LOSE {
                        return Poll::Done(ret::LOSE);
                    }
                    match self.grid_path.pop() {
                        // Back at (0,0): grid winner.
                        None => self.step = Step::Top(TwoProcessFrame::new(1)),
                        Some(went_down) => {
                            let role = if went_down {
                                self.gi -= 1;
                                0
                            } else {
                                self.gj -= 1;
                                1
                            };
                            self.step = Step::GridClimb(ThreeProcessFrame::new(role));
                        }
                    }
                }
                Step::Top(le) => return le.resume(&s.letop, input, ctx),
            }
            input = Resume::Start;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_sim::adversary::{RandomSchedule, RoundRobin};
    use rtas_sim::executor::Execution;
    use rtas_sim::word::ProcessId;

    #[test]
    fn solo_process_wins() {
        let mut mem = Memory::new();
        let rr = OriginalRatRace::new(&mut mem, 8);
        let res = Execution::new(mem, vec![rr.elect()], 0).run(&mut RoundRobin::new(1));
        assert_eq!(res.outcome(ProcessId(0)), Some(ret::WIN));
    }

    #[test]
    fn unique_winner_random_schedules() {
        for k in [2usize, 4, 12] {
            for seed in 0..30 {
                let mut mem = Memory::new();
                let rr = OriginalRatRace::new(&mut mem, k);
                let protos = (0..k).map(|_| rr.elect()).collect();
                let res =
                    Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed * 29));
                assert!(res.all_finished(), "k={k} seed={seed}");
                assert_eq!(
                    res.processes_with_outcome(ret::WIN).len(),
                    1,
                    "k={k} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn declared_space_is_cubic_but_touched_is_small() {
        let mut mem = Memory::new();
        let rr = OriginalRatRace::new(&mut mem, 64);
        let declared = mem.declared_registers();
        // 3·log₂ 64 = 18 → 2^19 − 1 nodes ≈ 5·10⁵ · 6 regs plus 64² grid.
        assert!(declared > 3_000_000, "declared {declared}");
        assert_eq!(declared, rr.declared_registers());
        let protos = (0..8).map(|_| rr.elect()).collect();
        let res = Execution::new(mem, protos, 1).run(&mut RandomSchedule::new(2));
        assert!(res.all_finished());
        let touched = res.memory().touched_registers();
        assert!(touched < 3_000, "touched {touched} registers for k=8");
    }

    #[test]
    fn tree_height_is_three_log_n() {
        let mut mem = Memory::new();
        let rr = OriginalRatRace::new(&mut mem, 64);
        assert_eq!(rr.tree_height(), 18);
    }

    #[test]
    fn grid_handles_forced_collisions() {
        // Lockstep maximizes splitter collisions and exercises the grid
        // path-climb logic when processes fall off the (short) tree of a
        // tiny instance.
        for seed in 0..20 {
            let k = 4;
            let mut mem = Memory::new();
            let rr = OriginalRatRace::new(&mut mem, k);
            let protos = (0..k).map(|_| rr.elect()).collect();
            let res = Execution::new(mem, protos, seed).run(&mut RoundRobin::new(k));
            assert!(res.all_finished());
            assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
        }
    }
}
