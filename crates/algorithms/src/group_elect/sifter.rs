//! The Alistarh–Aspnes *sifting* Group Election (Section 2.3).
//!
//! One shared register. Each participant independently **writes** a mark
//! with probability `π` or **reads** with probability `1 − π`; it is
//! elected iff it writes, or it reads before any write landed. The
//! decision read-vs-write is random, which is exactly what the
//! R/W-oblivious adversary cannot see.
//!
//! With `k` participants the expected number elected is about
//! `πk + 1/π` (writers plus early readers), minimized at `π = 1/√k` giving
//! `≈ 2√k` — the halving of the exponent that yields O(log log n) rounds
//! of sifting (experiment E8 regenerates the survivor-count series).

use rtas_sim::memory::Memory;
use rtas_sim::op::MemOp;
use rtas_sim::protocol::{ret, Bound, Ctx, Frame, Poll, Protocol, Resume};
use rtas_sim::word::RegId;

use super::GroupElect;

/// Descriptor of one sifting round (1 register).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiftingGroupElect {
    reg: RegId,
    write_probability: f64,
}

impl SiftingGroupElect {
    /// Allocate a sifting round with the given write probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < write_probability <= 1`.
    pub fn new(memory: &mut Memory, write_probability: f64, label: &str) -> Self {
        assert!(
            write_probability > 0.0 && write_probability <= 1.0,
            "write probability must be in (0, 1], got {write_probability}"
        );
        let reg = memory.alloc(1, label).get(0);
        SiftingGroupElect {
            reg,
            write_probability,
        }
    }

    /// The write probability `π` used for the expected-survivor tuning
    /// `π = 1/√s` when `s` participants are expected.
    pub fn probability_for_expected(s: f64) -> f64 {
        (1.0 / s.max(1.0).sqrt()).clamp(1e-9, 1.0)
    }

    /// This round's write probability.
    pub fn write_probability(&self) -> f64 {
        self.write_probability
    }

    /// Registers used per round.
    pub const REGISTERS: u64 = 1;
}

impl GroupElect for SiftingGroupElect {
    fn elect(&self) -> Box<dyn Protocol> {
        Box::new(Bound::new(*self, SiftingFrame::default()))
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum State {
    #[default]
    Start,
    Wrote,
    Read,
}

/// One `elect()` call, resumed against its [`SiftingGroupElect`].
#[derive(Debug, Clone, Default)]
pub struct SiftingFrame {
    state: State,
}

impl Frame for SiftingFrame {
    type Object = SiftingGroupElect;

    #[inline]
    fn resume(&mut self, ge: &SiftingGroupElect, input: Resume, ctx: &mut Ctx<'_>) -> Poll {
        match self.state {
            State::Start => {
                // The random read-vs-write decision, invisible to the
                // R/W-oblivious adversary (it sees only the register).
                if ctx.rng.bernoulli(ge.write_probability) {
                    self.state = State::Wrote;
                    Poll::Op(MemOp::Write(ge.reg, 1))
                } else {
                    self.state = State::Read;
                    Poll::Op(MemOp::Read(ge.reg))
                }
            }
            State::Wrote => Poll::Done(ret::WIN),
            State::Read => {
                if input.read_value() == 0 {
                    Poll::Done(ret::WIN)
                } else {
                    Poll::Done(ret::LOSE)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::run_group_election;
    use super::*;
    use rtas_sim::adversary::{RandomSchedule, RoundRobin};
    use rtas_sim::executor::Execution;
    use rtas_sim::explore::{explore, ExploreConfig};
    use rtas_sim::metrics::Aggregate;
    use rtas_sim::word::ProcessId;

    #[test]
    fn solo_caller_is_elected_in_one_step() {
        for seed in 0..10 {
            let mut mem = Memory::new();
            let ge = SiftingGroupElect::new(&mut mem, 0.3, "sift");
            let res = Execution::new(mem, vec![ge.elect()], seed).run(&mut RoundRobin::new(1));
            assert_eq!(res.outcome(ProcessId(0)), Some(ret::WIN));
            assert_eq!(res.steps().total(), 1);
        }
    }

    #[test]
    fn at_least_one_elected_always() {
        for k in [2usize, 5, 30] {
            for seed in 0..50 {
                let mut mem = Memory::new();
                let ge = SiftingGroupElect::new(&mut mem, 0.2, "sift");
                let (elected, finished) =
                    run_group_election(mem, &ge, k, seed, &mut RandomSchedule::new(seed));
                assert_eq!(finished, k);
                assert!(elected >= 1);
            }
        }
    }

    #[test]
    fn exhaustive_three_processes_at_least_one_elected() {
        let stats = explore(
            || {
                let mut mem = Memory::new();
                let ge = SiftingGroupElect::new(&mut mem, 0.5, "sift");
                (mem, (0..3).map(|_| ge.elect()).collect())
            },
            ExploreConfig::default(),
            |e| {
                assert!(e.all_finished());
                assert!(!e.with_outcome(ret::WIN).is_empty());
            },
        );
        assert_eq!(stats.truncated_paths, 0);
    }

    #[test]
    fn expected_elected_tracks_pik_plus_inv_pi() {
        let k = 400usize;
        let pi = SiftingGroupElect::probability_for_expected(k as f64); // 1/20
        let mut agg = Aggregate::new();
        for seed in 0..80 {
            let mut mem = Memory::new();
            let ge = SiftingGroupElect::new(&mut mem, pi, "sift");
            let (elected, _) =
                run_group_election(mem, &ge, k, seed, &mut RandomSchedule::new(seed * 13));
            agg.push(elected as f64);
        }
        // πk + 1/π = 20 + 20 = 40; allow generous sampling slack.
        let expect = pi * k as f64 + 1.0 / pi;
        assert!(
            (agg.mean() - expect).abs() < expect * 0.5,
            "mean {} vs expectation {expect}",
            agg.mean()
        );
    }

    #[test]
    fn probability_helper_clamps() {
        assert_eq!(SiftingGroupElect::probability_for_expected(0.0), 1.0);
        assert_eq!(SiftingGroupElect::probability_for_expected(1.0), 1.0);
        let p = SiftingGroupElect::probability_for_expected(100.0);
        assert!((p - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "write probability")]
    fn zero_probability_panics() {
        let mut mem = Memory::new();
        let _ = SiftingGroupElect::new(&mut mem, 0.0, "sift");
    }

    #[test]
    fn register_accounting() {
        let mut mem = Memory::new();
        let _ = SiftingGroupElect::new(&mut mem, 0.5, "sift");
        assert_eq!(mem.declared_registers(), SiftingGroupElect::REGISTERS);
    }
}
