//! Theorem 2.3: adaptive leader election with O(log* k) expected steps
//! against the location-oblivious adversary, from O(n) registers.
//!
//! The construction instantiates the Section 2.1 ladder with geometric
//! group elections (Figure 1). A ladder of `n` levels each carrying an
//! Θ(log n)-register group election would cost Θ(n log n) registers; the
//! paper observes that with probability `1 − 1/n` only the first O(log n)
//! group elections are ever used, so the rest are replaced by *dummy*
//! group elections (everyone elected, zero registers). The splitter at
//! each level still retires at least one process per level, so `n` levels
//! with dummies remain correct for any contention `k ≤ n`.
//!
//! Space: O(log n) geometric group elections × O(log n) registers each
//! + `n` levels × 4 ladder registers = O(n) total (for n ≥ log² n).
//!
//! Experiment E2 regenerates the step-complexity curve; experiment E9
//! shows the adaptive adversary forcing Ω(k) on this same algorithm — the
//! observation motivating Section 4's combiner.

use rtas_primitives::Elect;
use rtas_sim::memory::Memory;
use rtas_sim::protocol::{Ctx, Frame, Poll, Protocol, Resume};

use crate::group_elect::{GeometricGroupElect, GroupElection};
use crate::le_chain::{ChainFrame, LeChain, OverflowPolicy};
use crate::LeaderElect;

/// The Theorem 2.3 leader election.
#[derive(Debug, Clone)]
pub struct LogStarLe {
    chain: LeChain,
    n: usize,
    real_levels: usize,
}

impl LogStarLe {
    /// Build the structure for up to `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(memory: &mut Memory, n: usize) -> Self {
        // Enough real (geometric) levels that the survivor count is O(1)
        // with probability 1 − 1/n: f(k) = 2 log k + 6 halves the "log"
        // each level; 3·⌈log₂ n⌉ + 8 levels give a comfortable margin.
        let n_eff = n.max(2);
        let real_levels = (3 * crate::group_elect::ceil_log2(n_eff) as usize + 8).min(n_eff);
        Self::with_real_levels(memory, n, real_levels)
    }

    /// Build with an explicit number of non-dummy levels (ablation knob:
    /// the dummy-tail replacement of Theorem 2.3). `real_levels = 0`
    /// degrades the ladder to pure splitters (an elimination path);
    /// `real_levels = n` recovers the naive O(n log n)-register variant.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `real_levels > max(n, 2)`.
    pub fn with_real_levels(memory: &mut Memory, n: usize, real_levels: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        let n_eff = n.max(2);
        assert!(real_levels <= n_eff, "more real levels than ladder levels");
        let mut ges: Vec<GroupElection> = Vec::with_capacity(n_eff);
        for _ in 0..real_levels {
            ges.push(GeometricGroupElect::new(memory, n_eff, "logstar-ge").into());
        }
        ges.resize(n_eff, GroupElection::Dummy);
        let chain = LeChain::new(memory, ges, OverflowPolicy::Lose, "logstar-ladder");
        LogStarLe {
            chain,
            n,
            real_levels,
        }
    }

    /// Maximum number of participating processes.
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// Number of non-dummy (geometric) group-election levels.
    pub fn real_levels(&self) -> usize {
        self.real_levels
    }

    /// Total ladder levels (equals `max(n, 2)`).
    pub fn levels(&self) -> usize {
        self.chain.levels()
    }

    /// Build the per-process `elect()` protocol.
    pub fn elect(&self) -> Box<dyn Protocol> {
        LeaderElect::elect(self)
    }
}

impl Elect for LogStarLe {
    type Frame = LogStarFrame;

    fn frame(&self) -> LogStarFrame {
        LogStarFrame(self.chain.frame())
    }
}

/// One `elect()` call, resumed against its [`LogStarLe`].
#[derive(Debug, Clone)]
pub struct LogStarFrame(ChainFrame);

impl Frame for LogStarFrame {
    type Object = LogStarLe;

    #[inline]
    fn resume(&mut self, le: &LogStarLe, input: Resume, ctx: &mut Ctx<'_>) -> Poll {
        self.0.resume(&le.chain, input, ctx)
    }
}

/// The iterated logarithm `log₂* x`: how many times `log₂` must be applied
/// before the value drops to ≤ 1.
pub fn log_star(x: f64) -> u32 {
    let mut v = x;
    let mut i = 0;
    while v > 1.0 {
        v = v.log2();
        i += 1;
        if i > 64 {
            break;
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_sim::adversary::{RandomSchedule, RoundRobin};
    use rtas_sim::executor::Execution;
    use rtas_sim::protocol::ret;
    use rtas_sim::word::ProcessId;

    #[test]
    fn log_star_values() {
        assert_eq!(log_star(1.0), 0);
        assert_eq!(log_star(2.0), 1);
        assert_eq!(log_star(4.0), 2);
        assert_eq!(log_star(16.0), 3);
        assert_eq!(log_star(65536.0), 4);
        assert_eq!(log_star(1e30), 5);
    }

    #[test]
    fn solo_process_wins() {
        let mut mem = Memory::new();
        let le = LogStarLe::new(&mut mem, 8);
        let res = Execution::new(mem, vec![le.elect()], 0).run(&mut RoundRobin::new(1));
        assert_eq!(res.outcome(ProcessId(0)), Some(ret::WIN));
    }

    #[test]
    fn unique_winner_random_schedules() {
        for k in [2usize, 4, 10, 32] {
            for seed in 0..30 {
                let mut mem = Memory::new();
                let le = LogStarLe::new(&mut mem, k);
                let protos = (0..k).map(|_| le.elect()).collect();
                let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed * 3));
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
    fn space_is_linear_in_n() {
        // O(n): ladder 4n + O(log² n) for the geometric group elections.
        for n in [64usize, 256, 1024] {
            let mut mem = Memory::new();
            let le = LogStarLe::new(&mut mem, n);
            let declared = mem.declared_registers();
            let bound = 4 * n as u64 + (le.real_levels() as u64 + 2) * 20;
            assert!(
                declared <= bound,
                "n={n}: {declared} registers exceeds bound {bound}"
            );
            assert!(le.real_levels() < n);
        }
    }

    #[test]
    fn contention_below_capacity_works() {
        let mut mem = Memory::new();
        let le = LogStarLe::new(&mut mem, 64);
        let protos = (0..5).map(|_| le.elect()).collect();
        let res = Execution::new(mem, protos, 9).run(&mut RandomSchedule::new(77));
        assert!(res.all_finished());
        assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
    }

    #[test]
    fn mean_steps_grow_very_slowly() {
        // The defining property: mean max-steps at k = 64 should be only a
        // little above k = 4 (log* growth), and far below linear.
        let mean_for = |k: usize| {
            let trials = 20u64;
            let mut total = 0u64;
            for seed in 0..trials {
                let mut mem = Memory::new();
                let le = LogStarLe::new(&mut mem, k);
                let protos = (0..k).map(|_| le.elect()).collect();
                let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed + 5));
                assert!(res.all_finished());
                total += res.steps().max();
            }
            total as f64 / trials as f64
        };
        let m4 = mean_for(4);
        let m64 = mean_for(64);
        assert!(m64 < m4 * 4.0 + 30.0, "m4={m4} m64={m64}");
        assert!(m64 < 64.0, "not sub-linear: {m64}");
    }
}
