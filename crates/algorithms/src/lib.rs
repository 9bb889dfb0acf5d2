//! # rtas-algorithms — the paper's leader-election algorithms
//!
//! Every algorithm of Giakkoupis & Woelfel (PODC 2012), built on
//! [`rtas_sim`] and [`rtas_primitives`]:
//!
//! * [`group_elect`] — the Group Election primitive of Section 2.1, its
//!   geometric implementation for the location-oblivious adversary
//!   (Figure 1, Lemma 2.2) and the Alistarh–Aspnes *sifting*
//!   implementation for the R/W-oblivious adversary (Section 2.3).
//! * [`le_chain`] — leader election from a ladder of group elections,
//!   splitters and 2-process elections (Section 2.1, Lemma 2.1).
//! * [`logstar`] — the O(log* k) adaptive leader election from O(n)
//!   registers (Theorem 2.3).
//! * [`loglog`] — the O(log log k) adaptive leader election for the
//!   R/W-oblivious adversary (Theorem 2.4).
//! * [`elimination_path`] — the elimination-path structure of Section 3.2
//!   (Claim 3.1).
//! * [`ratrace`] — the original RatRace of Alistarh et al. (Θ(n³)
//!   registers) and the paper's space-efficient variant (Θ(n) registers),
//!   both with O(log k) step complexity (Section 3).
//! * [`combined`] — the adversary-independence combiner of Section 4
//!   (Theorem 4.1): run any weak-adversary algorithm alongside RatRace and
//!   inherit the best step complexity of both.
//!
//! Each leader election implements [`rtas_primitives::Elect`]: one
//! `elect()` call is a frame (`ChainFrame`, `RatRaceFrame`,
//! `CombinedFrame`, …) resumed against the borrowed object, holding the
//! frames of the sub-objects it runs by value — no boxing, reference
//! counting or dynamic dispatch on the way down. `elect()` boxes a frame
//! with a clone of the object for the simulator.
//! * [`attacks`] — concrete adaptive-adversary strategies, including the
//!   ascending-write attack that forces Ω(k) steps on the log* algorithm
//!   (the observation motivating Section 4).
//!
//! ```
//! use rtas_algorithms::LogStarLe;
//! use rtas_sim::prelude::*;
//! use rtas_sim::protocol::ret;
//!
//! let k = 8;
//! let mut mem = Memory::new();
//! let le = LogStarLe::new(&mut mem, k);
//! let protos = (0..k).map(|_| le.elect()).collect();
//! let res = Execution::new(mem, protos, 1).run(&mut RandomSchedule::new(2));
//! assert!(res.all_finished());
//! assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
//! ```
//!
//! ## The arena-reset contract
//!
//! Every constructor here is **arena-resettable**: it allocates the
//! object's register regions and descriptor tree exactly once, and the
//! per-call protocols returned by `elect()` assume *only* that every
//! register holds its initial value 0 when the resolution starts. No
//! descriptor mutates after construction, and no protocol depends on
//! which resolution (first or thousandth) it belongs to. Consequently
//! zeroing the registers — [`Memory::reset_values`] in the simulator,
//! `rtas::native::NativeMemory::reset` on real atomics — returns the
//! object to its pristine one-shot state, and a fixed pool of objects
//! can be recycled by epoch (the `rtas-load` sharded arena, the E12
//! experiment) instead of rebuilt per resolution. The
//! `reuse_contract` tests pin this down for every algorithm in the
//! crate: one structure, 100 reset epochs, exactly one winner each.
//!
//! [`Memory::reset_values`]: rtas_sim::memory::Memory::reset_values

#![forbid(unsafe_code)]

pub mod attacks;
pub mod combined;
pub mod elimination_path;
pub mod group_elect;
pub mod le_chain;
pub mod loglog;
pub mod logstar;
pub mod ratrace;

pub use rtas_primitives::{Elect, LeaderElect};

pub use combined::Combined;
pub use elimination_path::EliminationPath;
pub use group_elect::{
    DummyGroupElect, GeometricGroupElect, GroupElect, GroupElection, SiftingGroupElect,
};
pub use le_chain::{ChainOutcome, LeChain, OverflowPolicy};
pub use loglog::{AaLe, LogLogLe};
pub use logstar::LogStarLe;
pub use ratrace::{OriginalRatRace, SpaceEfficientRatRace};

#[cfg(test)]
mod reuse_contract {
    //! The arena-reset contract (see the crate docs): every algorithm,
    //! built once, must resolve correctly across 100 register-reset
    //! epochs — the simulator twin of the native arena's recycle path.

    use std::sync::Arc;

    use rtas_sim::executor::Execution;
    use rtas_sim::memory::Memory;
    use rtas_sim::prelude::RandomSchedule;
    use rtas_sim::protocol::{ret, Protocol};
    use rtas_sim::rng::SplitMix64;

    use super::*;

    fn reuse_100_epochs(name: &str, build: impl Fn(&mut Memory, usize) -> Arc<dyn LeaderElect>) {
        let k = 6;
        let mut mem = Memory::new();
        let le = build(&mut mem, k);
        let mut exec = Execution::new(mem, Vec::new(), 0);
        let mut seeds = SplitMix64::new(0xa9e2a);
        for epoch in 0..100 {
            let protos: Vec<Box<dyn Protocol>> = (0..k).map(|_| le.elect()).collect();
            // reset() zeroes the same warm registers — no reallocation.
            exec.reset(protos, seeds.next_u64());
            let mut adv = RandomSchedule::new(seeds.next_u64());
            let out = exec.run_in_place(&mut adv);
            assert!(out.all_finished(), "{name} epoch {epoch}: did not finish");
            assert_eq!(
                exec.count_outcome(ret::WIN),
                1,
                "{name} epoch {epoch}: winner count wrong"
            );
        }
    }

    #[test]
    fn logstar_is_arena_resettable() {
        reuse_100_epochs("logstar", |m, n| Arc::new(LogStarLe::new(m, n)));
    }

    #[test]
    fn loglog_is_arena_resettable() {
        reuse_100_epochs("loglog", |m, n| Arc::new(LogLogLe::new(m, n)));
    }

    #[test]
    fn ratrace_space_efficient_is_arena_resettable() {
        reuse_100_epochs("ratrace-se", |m, n| {
            Arc::new(SpaceEfficientRatRace::new(m, n))
        });
    }

    #[test]
    fn ratrace_original_is_arena_resettable() {
        reuse_100_epochs("ratrace", |m, n| Arc::new(OriginalRatRace::new(m, n)));
    }

    #[test]
    fn combined_is_arena_resettable() {
        reuse_100_epochs("combined", |m, n| {
            let weak = Arc::new(LogStarLe::new(m, n));
            Arc::new(Combined::new(m, weak, n))
        });
    }
}
