//! The space-efficient RatRace (Section 3.2): Θ(n) registers, O(log k)
//! expected steps against the adaptive adversary.
//!
//! Structure:
//!
//! * a complete binary **primary tree** of height `⌈log₂ n⌉`, each node
//!   holding a randomized splitter and a 3-process leader election;
//! * `⌈leaves / log n⌉` **overflow elimination paths** of length
//!   `4·⌈log₂ n⌉`; a process that falls off leaf `j` enters path
//!   `⌊j / log n⌋`; the winner of path `i` re-enters the tree at leaf `i`
//!   and climbs;
//! * one length-`n` **backup elimination path** for processes that fall
//!   off an overflow path (Claims 3.1/3.2 make this w.h.p. unreachable);
//! * a top-level 2-process election between the tree winner and the
//!   backup winner.
//!
//! Descent: at node `v`, try `RSplitter_v`; `S` stops and climbs, `L`/`R`
//! move to the corresponding child. Climb: win the 3-process election of
//! every node back to the root (role 2 where the splitter was won, role
//! 0/1 at ancestors according to the child the process came from; an
//! overflow-path winner enters its leaf as role 0).

use std::sync::Arc;

use rtas_primitives::{
    Elect, RSplitFrame, RSplitter, ThreeProcessFrame, ThreeProcessLe, TwoProcessFrame, TwoProcessLe,
};
use rtas_sim::memory::Memory;
use rtas_sim::protocol::{ret, Ctx, Frame, Poll, Protocol, Resume};
use rtas_sim::ready;

use crate::elimination_path::{path_ret, EliminationPath, PathFrame};
use crate::group_elect::ceil_log2;
use crate::LeaderElect;

struct TreeNode {
    rsp: RSplitter,
    le: ThreeProcessLe,
}

struct Structure {
    /// Heap-ordered nodes, 1-based: root is `nodes[1]`, children of `i`
    /// are `2i` and `2i + 1`. `nodes[0]` is unused padding.
    nodes: Vec<TreeNode>,
    height: u32,
    /// First leaf index: `2^height`.
    leaf_base: usize,
    paths: Vec<EliminationPath>,
    backup: EliminationPath,
    letop: TwoProcessLe,
    /// `⌈log₂ n⌉` used for the leaf → path mapping.
    log_n: usize,
}

/// The Section 3.2 leader election.
#[derive(Clone)]
pub struct SpaceEfficientRatRace {
    s: Arc<Structure>,
    n: usize,
}

impl std::fmt::Debug for SpaceEfficientRatRace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpaceEfficientRatRace")
            .field("n", &self.n)
            .field("height", &self.s.height)
            .field("paths", &self.s.paths.len())
            .finish()
    }
}

impl SpaceEfficientRatRace {
    /// Build the structure for up to `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(memory: &mut Memory, n: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        let n_eff = n.max(2);
        let height = ceil_log2(n_eff);
        let leaves = 1usize << height;
        let node_count = 2 * leaves; // indices 1 .. 2*leaves - 1, plus pad 0
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            nodes.push(TreeNode {
                rsp: RSplitter::new(memory, "ratrace-tree"),
                le: ThreeProcessLe::new(memory, "ratrace-tree"),
            });
        }
        let log_n = (height as usize).max(1);
        let num_paths = leaves.div_ceil(log_n);
        let path_len = 4 * log_n;
        let paths = (0..num_paths)
            .map(|_| EliminationPath::new(memory, path_len, "ratrace-overflow-path"))
            .collect();
        let backup = EliminationPath::new(memory, n_eff, "ratrace-backup-path");
        let letop = TwoProcessLe::new(memory, "ratrace-letop");
        SpaceEfficientRatRace {
            s: Arc::new(Structure {
                nodes,
                height,
                leaf_base: leaves,
                paths,
                backup,
                letop,
                log_n,
            }),
            n,
        }
    }

    /// Maximum number of participating processes.
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// Primary-tree height.
    pub fn height(&self) -> u32 {
        self.s.height
    }

    /// Number of overflow elimination paths.
    pub fn overflow_paths(&self) -> usize {
        self.s.paths.len()
    }

    /// Build the per-process `elect()` protocol.
    pub fn elect(&self) -> Box<dyn Protocol> {
        LeaderElect::elect(self)
    }
}

impl Elect for SpaceEfficientRatRace {
    type Frame = RatRaceFrame;

    fn frame(&self) -> RatRaceFrame {
        RatRaceFrame {
            node: 1,
            step: Step::Split(RSplitFrame::default()),
        }
    }
}

/// One `elect()` call, resumed against its [`SpaceEfficientRatRace`].
#[derive(Debug, Clone)]
pub struct RatRaceFrame {
    /// Current tree node (heap index), or overflow path index while on a
    /// path.
    node: usize,
    step: Step,
}

#[derive(Debug, Clone)]
enum Step {
    /// Running the splitter at `node`.
    Split(RSplitFrame),
    /// Running overflow path `node`.
    Path(PathFrame),
    /// Running the backup path.
    Backup(PathFrame),
    /// Running the 3-process election at `node`.
    Climb(ThreeProcessFrame),
    /// Running the top 2-process election.
    Top(TwoProcessFrame),
}

impl Frame for RatRaceFrame {
    type Object = SpaceEfficientRatRace;

    #[inline]
    fn resume(&mut self, rr: &SpaceEfficientRatRace, mut input: Resume, ctx: &mut Ctx<'_>) -> Poll {
        let s = &*rr.s;
        loop {
            match &mut self.step {
                Step::Split(sp) => {
                    let v = ready!(sp.resume(&s.nodes[self.node].rsp, input, ctx));
                    if v == ret::SPLIT_STOP {
                        ctx.notes.won_splitter = true;
                        self.step = Step::Climb(ThreeProcessFrame::new(2));
                    } else {
                        let child = 2 * self.node + usize::from(v == ret::SPLIT_RIGHT);
                        if child >= s.nodes.len() {
                            // Fell off a leaf: leaf index j, enter
                            // overflow path ⌊j / log n⌋.
                            let leaf_j = self.node - s.leaf_base;
                            self.node = (leaf_j / s.log_n).min(s.paths.len() - 1);
                            self.step = Step::Path(PathFrame::default());
                        } else {
                            self.node = child;
                            self.step = Step::Split(RSplitFrame::default());
                        }
                    }
                }
                Step::Path(path) => match ready!(path.resume(&s.paths[self.node], input, ctx)) {
                    path_ret::WIN => {
                        // Re-enter the tree at leaf `path index` as role 0.
                        self.node += s.leaf_base;
                        self.step = Step::Climb(ThreeProcessFrame::new(0));
                    }
                    path_ret::LOSE => return Poll::Done(ret::LOSE),
                    path_ret::FELL_OFF => self.step = Step::Backup(PathFrame::default()),
                    other => panic!("invalid path result {other}"),
                },
                Step::Backup(path) => match ready!(path.resume(&s.backup, input, ctx)) {
                    path_ret::WIN => self.step = Step::Top(TwoProcessFrame::new(1)),
                    path_ret::LOSE => return Poll::Done(ret::LOSE),
                    path_ret::FELL_OFF => {
                        // Unreachable with k ≤ n entrants (Claim 3.1);
                        // losing is the safe fallback.
                        debug_assert!(false, "backup path overflow with k <= n");
                        return Poll::Done(ret::LOSE);
                    }
                    other => panic!("invalid backup result {other}"),
                },
                Step::Climb(le) => {
                    if ready!(le.resume(&s.nodes[self.node].le, input, ctx)) == ret::LOSE {
                        return Poll::Done(ret::LOSE);
                    }
                    if self.node == 1 {
                        self.step = Step::Top(TwoProcessFrame::new(0));
                    } else {
                        // Move to the parent; the role encodes which child
                        // we came from (even heap index = left child =
                        // role 0).
                        let role = self.node % 2;
                        self.node /= 2;
                        self.step = Step::Climb(ThreeProcessFrame::new(role));
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
    use rtas_sim::adversary::{AdversaryClass, FnAdversary, RandomSchedule, RoundRobin, View};
    use rtas_sim::executor::Execution;
    use rtas_sim::word::ProcessId;

    #[test]
    fn solo_process_wins() {
        let mut mem = Memory::new();
        let rr = SpaceEfficientRatRace::new(&mut mem, 8);
        let res = Execution::new(mem, vec![rr.elect()], 0).run(&mut RoundRobin::new(1));
        assert_eq!(res.outcome(ProcessId(0)), Some(ret::WIN));
    }

    #[test]
    fn unique_winner_random_schedules() {
        for k in [2usize, 3, 8, 24] {
            for seed in 0..40 {
                let mut mem = Memory::new();
                let rr = SpaceEfficientRatRace::new(&mut mem, k);
                let protos = (0..k).map(|_| rr.elect()).collect();
                let res =
                    Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed * 17));
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
        for k in [2usize, 5, 16] {
            for seed in 0..20 {
                let mut mem = Memory::new();
                let rr = SpaceEfficientRatRace::new(&mut mem, k);
                let protos = (0..k).map(|_| rr.elect()).collect();
                let res = Execution::new(mem, protos, seed).run(&mut RoundRobin::new(k));
                assert!(res.all_finished());
                assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
            }
        }
    }

    #[test]
    fn unique_winner_adaptive_laggard() {
        for seed in 0..30 {
            let k = 6;
            let mut mem = Memory::new();
            let rr = SpaceEfficientRatRace::new(&mut mem, k);
            let protos = (0..k).map(|_| rr.elect()).collect();
            let mut adv = FnAdversary::new(AdversaryClass::Adaptive, |view: &View<'_>| {
                view.active().into_iter().min_by_key(|&p| view.steps_of(p))
            });
            let res = Execution::new(mem, protos, seed).run(&mut adv);
            assert!(res.all_finished());
            assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
        }
    }

    #[test]
    fn space_is_linear() {
        // Θ(n): tree ≈ 2n·6 + paths ≈ n·4·(4+?) … well within c·n.
        for n in [64usize, 256, 1024] {
            let mut mem = Memory::new();
            let _rr = SpaceEfficientRatRace::new(&mut mem, n);
            let declared = mem.declared_registers();
            assert!(
                declared <= 40 * n as u64 + 200,
                "n={n}: {declared} registers not Θ(n)"
            );
        }
    }

    #[test]
    fn space_grows_linearly_not_cubically() {
        let declared_for = |n: usize| {
            let mut mem = Memory::new();
            let _rr = SpaceEfficientRatRace::new(&mut mem, n);
            mem.declared_registers()
        };
        let d64 = declared_for(64);
        let d512 = declared_for(512);
        // Linear growth: ×8 input → ≈×8 output (allow 2× slack), far from ×512.
        assert!(d512 < d64 * 16, "d64={d64} d512={d512}");
    }

    #[test]
    fn crashed_majority_still_yields_winner_among_survivors() {
        // Only P0 and P1 ever run; the rest crash before their first step.
        let k = 8;
        let mut mem = Memory::new();
        let rr = SpaceEfficientRatRace::new(&mut mem, k);
        let protos = (0..k).map(|_| rr.elect()).collect();
        let mut adv = FnAdversary::new(AdversaryClass::Adaptive, |view: &View<'_>| {
            [ProcessId(0), ProcessId(1)]
                .into_iter()
                .find(|&p| view.is_active(p))
        });
        let res = Execution::new(mem, protos, 3).run(&mut adv);
        assert!(res.outcome(ProcessId(0)).is_some());
        assert!(res.outcome(ProcessId(1)).is_some());
        assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
    }

    #[test]
    fn mean_steps_logarithmic() {
        let mean_for = |k: usize| {
            let trials = 15u64;
            let mut total = 0u64;
            for seed in 0..trials {
                let mut mem = Memory::new();
                let rr = SpaceEfficientRatRace::new(&mut mem, k);
                let protos = (0..k).map(|_| rr.elect()).collect();
                let res =
                    Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed + 23));
                assert!(res.all_finished());
                total += res.steps().max();
            }
            total as f64 / trials as f64
        };
        let m8 = mean_for(8);
        let m64 = mean_for(64);
        // O(log k): going 8 → 64 should far less than 8× the steps.
        assert!(m64 < m8 * 4.0, "m8={m8} m64={m64}");
    }
}
