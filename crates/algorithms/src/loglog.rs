//! Theorem 2.4: adaptive leader election with O(log log k) expected steps
//! against the R/W-oblivious adversary, from O(n) registers.
//!
//! Two layers, following Section 2.3:
//!
//! 1. **Non-adaptive core** — the Section 2.1 ladder instantiated with
//!    *sifting* group elections (Alistarh–Aspnes): round `i` uses write
//!    probability `π_i = 1/√s_i` where `s_i = n^(1/2^i)` is the expected
//!    survivor count, so Θ(log log n) rounds reduce the contenders to
//!    O(1).
//! 2. **Adaptivity wrapper** — a cascade of such ladders `LE₀, LE₁, …` of
//!    doubly-exponentially increasing capacity `n_j = 2^(2^(2^j))`
//!    (clamped at `n`). In ladder `j`, a process participates in only
//!    `Θ(log log n_j) = Θ(2^j)` levels; one that exhausts them without
//!    losing or winning a splitter **overflows** into `LE_{j+1}`. A
//!    process with true contention `k` stabilizes in the ladder with
//!    `log log n_j = Θ(log log k)` after O(log log k) total steps. The
//!    winner of each ladder enters a final chain of 2-process elections
//!    that decides the overall winner.
//!
//! The last ladder is sized for `n` with a full `n` levels (sifting
//! rounds followed by dummy group elections), so it can never overflow —
//! every execution elects exactly one leader.

use std::sync::Arc;

use rtas_primitives::{Elect, TwoProcessFrame, TwoProcessLe};
use rtas_sim::memory::Memory;
use rtas_sim::protocol::{ret, Ctx, Frame, Poll, Protocol, Resume};
use rtas_sim::ready;

use crate::group_elect::{ceil_log2, GroupElection, SiftingGroupElect};
use crate::le_chain::{chain_ret, ChainFrame, LeChain, OverflowPolicy};
use crate::LeaderElect;

/// The **non-adaptive** Alistarh–Aspnes leader election (the prior work
/// the paper's Theorem 2.4 makes adaptive): one Section 2.1 ladder with
/// Θ(log log n) sifting rounds followed by dummy levels up to `n`, giving
/// O(log log n) expected steps (in `n`, not `k`) from O(n) registers.
///
/// Kept as a distinct object because it is the baseline the paper
/// compares against; [`LogLogLe`] stacks these to get adaptivity.
#[derive(Debug, Clone)]
pub struct AaLe {
    chain: LeChain,
    sifting_rounds: usize,
}

impl AaLe {
    /// Build the structure for up to `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(memory: &mut Memory, n: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        let n_eff = n.max(4);
        let rounds = sifting_rounds(n_eff);
        let probs = sifting_probabilities(n_eff, rounds);
        let mut ges: Vec<GroupElection> = probs
            .iter()
            .map(|&p| SiftingGroupElect::new(memory, p, "aa-sift").into())
            .collect();
        ges.resize(ges.len().max(n_eff), GroupElection::Dummy);
        let chain = LeChain::new(memory, ges, OverflowPolicy::Lose, "aa-ladder");
        AaLe {
            chain,
            sifting_rounds: rounds,
        }
    }

    /// Number of sifting rounds (Θ(log log n)).
    pub fn sifting_rounds(&self) -> usize {
        self.sifting_rounds
    }

    /// Build the per-process `elect()` protocol.
    pub fn elect(&self) -> Box<dyn Protocol> {
        LeaderElect::elect(self)
    }
}

impl Elect for AaLe {
    type Frame = AaFrame;

    fn frame(&self) -> AaFrame {
        AaFrame(self.chain.frame())
    }
}

/// One `elect()` call, resumed against its [`AaLe`].
#[derive(Debug, Clone)]
pub struct AaFrame(ChainFrame);

impl Frame for AaFrame {
    type Object = AaLe;

    #[inline]
    fn resume(&mut self, le: &AaLe, input: Resume, ctx: &mut Ctx<'_>) -> Poll {
        self.0.resume(&le.chain, input, ctx)
    }
}

/// The Theorem 2.4 leader election.
#[derive(Clone)]
pub struct LogLogLe {
    stages: Arc<Vec<LeChain>>,
    finals: Arc<Vec<TwoProcessLe>>,
    n: usize,
}

impl std::fmt::Debug for LogLogLe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogLogLe")
            .field("n", &self.n)
            .field("stages", &self.stages.len())
            .finish()
    }
}

/// Sifting write-probability schedule for a ladder sized for `cap`
/// processes: `π_i = 1/√s_i`, `s_i = cap^(1/2^i)` (floored at 4).
fn sifting_probabilities(cap: usize, rounds: usize) -> Vec<f64> {
    let mut probs = Vec::with_capacity(rounds);
    let mut s = (cap.max(4)) as f64;
    for _ in 0..rounds {
        probs.push(SiftingGroupElect::probability_for_expected(s));
        s = s.sqrt().max(4.0);
    }
    probs
}

/// Number of sifting rounds for a ladder sized for `cap` processes:
/// `⌈log₂ log₂ cap⌉ + 2`.
fn sifting_rounds(cap: usize) -> usize {
    let log = ceil_log2(cap.max(4)) as usize;
    let loglog = ceil_log2(log.max(2)) as usize;
    loglog + 2
}

impl LogLogLe {
    /// Build the structure for up to `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(memory: &mut Memory, n: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        let n_eff = n.max(4);
        // Stage capacities 4, 16, 65536, …, clamped at n.
        let mut caps = Vec::new();
        let mut e = 1u32; // exponent tower: n_j = 2^(2^e), e = 2^j
        loop {
            let cap = if e >= 6 {
                n_eff // 2^64 and beyond: clamp
            } else {
                (1u64 << (1u64 << e)).min(n_eff as u64) as usize
            };
            caps.push(cap);
            if cap >= n_eff {
                break;
            }
            e = e.saturating_mul(2);
        }
        let last = caps.len() - 1;
        let mut stages = Vec::with_capacity(caps.len());
        for (j, &cap) in caps.iter().enumerate() {
            let rounds = sifting_rounds(cap);
            let probs = sifting_probabilities(cap, rounds);
            let mut ges: Vec<GroupElection> = probs
                .iter()
                .map(|&p| SiftingGroupElect::new(memory, p, "loglog-sift").into())
                .collect();
            let policy = if j == last {
                // Final stage: pad with dummies to n levels so the ladder
                // can never overflow (each splitter retires ≥ 1 process).
                ges.resize(ges.len().max(n_eff), GroupElection::Dummy);
                OverflowPolicy::Lose
            } else {
                OverflowPolicy::Overflow
            };
            stages.push(LeChain::new(memory, ges, policy, "loglog-ladder"));
        }
        let finals = (0..stages.len())
            .map(|_| TwoProcessLe::new(memory, "loglog-final"))
            .collect();
        LogLogLe {
            stages: Arc::new(stages),
            finals: Arc::new(finals),
            n,
        }
    }

    /// Maximum number of participating processes.
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// Number of ladders in the cascade.
    pub fn stages(&self) -> usize {
        self.stages.len()
    }

    /// Build the per-process `elect()` protocol.
    pub fn elect(&self) -> Box<dyn Protocol> {
        LeaderElect::elect(self)
    }
}

impl Elect for LogLogLe {
    type Frame = LogLogFrame;

    fn frame(&self) -> LogLogFrame {
        LogLogFrame {
            index: 0,
            step: Step::Stage(self.stages[0].frame()),
        }
    }
}

/// One `elect()` call, resumed against its [`LogLogLe`].
#[derive(Debug, Clone)]
pub struct LogLogFrame {
    index: usize,
    step: Step,
}

#[derive(Debug, Clone)]
enum Step {
    /// Running ladder `index`.
    Stage(ChainFrame),
    /// Running final `index` (role 0 as a fresh stage winner, role 1 when
    /// climbing from final `index + 1`).
    Final(TwoProcessFrame),
}

impl Frame for LogLogFrame {
    type Object = LogLogLe;

    #[inline]
    fn resume(&mut self, le: &LogLogLe, mut input: Resume, ctx: &mut Ctx<'_>) -> Poll {
        loop {
            match &mut self.step {
                Step::Stage(stage) => {
                    match ready!(stage.resume(&le.stages[self.index], input, ctx)) {
                        chain_ret::WIN => self.step = Step::Final(TwoProcessFrame::new(0)),
                        chain_ret::LOSE => return Poll::Done(ret::LOSE),
                        chain_ret::OVERFLOW => {
                            self.index += 1;
                            debug_assert!(self.index < le.stages.len());
                            self.step = Step::Stage(le.stages[self.index].frame());
                        }
                        other => panic!("invalid stage result {other}"),
                    }
                }
                Step::Final(fin) => {
                    if ready!(fin.resume(&le.finals[self.index], input, ctx)) == ret::LOSE {
                        return Poll::Done(ret::LOSE);
                    }
                    if self.index == 0 {
                        return Poll::Done(ret::WIN);
                    }
                    self.index -= 1;
                    self.step = Step::Final(TwoProcessFrame::new(1));
                }
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
    fn sifting_rounds_grow_doubly_logarithmically() {
        assert!(sifting_rounds(4) <= 4);
        assert!(sifting_rounds(65536) <= 7);
        assert!(sifting_rounds(1 << 20) <= 8);
    }

    #[test]
    fn probability_schedule_is_decreasing_in_survivors() {
        let probs = sifting_probabilities(65536, 5);
        assert_eq!(probs.len(), 5);
        // π grows as survivors shrink.
        for w in probs.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!((probs[0] - 1.0 / 256.0).abs() < 1e-9);
    }

    #[test]
    fn solo_process_wins() {
        let mut mem = Memory::new();
        let le = LogLogLe::new(&mut mem, 16);
        let res = Execution::new(mem, vec![le.elect()], 0).run(&mut RoundRobin::new(1));
        assert_eq!(res.outcome(ProcessId(0)), Some(ret::WIN));
    }

    #[test]
    fn unique_winner_random_schedules() {
        for k in [2usize, 4, 10, 32] {
            for seed in 0..30 {
                let mut mem = Memory::new();
                let le = LogLogLe::new(&mut mem, k);
                let protos = (0..k).map(|_| le.elect()).collect();
                let res =
                    Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed * 41));
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
        for k in [2usize, 6, 16] {
            for seed in 0..15 {
                let mut mem = Memory::new();
                let le = LogLogLe::new(&mut mem, k);
                let protos = (0..k).map(|_| le.elect()).collect();
                let res = Execution::new(mem, protos, seed).run(&mut RoundRobin::new(k));
                assert!(res.all_finished());
                assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
            }
        }
    }

    #[test]
    fn aa_le_solo_wins() {
        let mut mem = Memory::new();
        let le = AaLe::new(&mut mem, 16);
        let res = Execution::new(mem, vec![le.elect()], 0).run(&mut RoundRobin::new(1));
        assert_eq!(res.outcome(ProcessId(0)), Some(ret::WIN));
    }

    #[test]
    fn aa_le_unique_winner_random_schedules() {
        for k in [2usize, 6, 20] {
            for seed in 0..25 {
                let mut mem = Memory::new();
                let le = AaLe::new(&mut mem, k);
                let protos = (0..k).map(|_| le.elect()).collect();
                let res =
                    Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed * 53));
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
    fn aa_le_sifting_round_count() {
        let mut mem = Memory::new();
        let le = AaLe::new(&mut mem, 1 << 16);
        // ⌈log₂ log₂ 65536⌉ + 2 = 6.
        assert_eq!(le.sifting_rounds(), 6);
    }

    #[test]
    fn stage_count_is_tiny() {
        let mut mem = Memory::new();
        let le = LogLogLe::new(&mut mem, 1 << 16);
        // 4, 16, 65536 → 3 stages.
        assert_eq!(le.stages(), 3);
    }

    #[test]
    fn space_is_linear_in_n() {
        for n in [64usize, 256, 1024] {
            let mut mem = Memory::new();
            let _le = LogLogLe::new(&mut mem, n);
            let declared = mem.declared_registers();
            assert!(
                declared <= 8 * n as u64 + 400,
                "n={n}: {declared} registers not O(n)"
            );
        }
    }

    #[test]
    fn low_contention_on_big_structure_is_fast() {
        // k = 4 on an n = 1024 structure: the process should stabilize in
        // an early stage; steps should be far below log n territory.
        let mut total = 0u64;
        let trials = 20;
        for seed in 0..trials {
            let mut mem = Memory::new();
            let le = LogLogLe::new(&mut mem, 1024);
            let protos = (0..4).map(|_| le.elect()).collect();
            let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed));
            assert!(res.all_finished());
            assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
            total += res.steps().max();
        }
        let mean = total as f64 / trials as f64;
        assert!(mean < 60.0, "mean max steps {mean}");
    }
}
