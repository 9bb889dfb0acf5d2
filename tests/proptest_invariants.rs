//! Property-style tests over the core invariants.
//!
//! Rather than a handful of fixed configurations, draw many `(seed, k,
//! schedule)` configurations from a deterministic generator: the uniqueness
//! of winners, splitter properties, and recurrence identities must hold for
//! *every* drawn configuration. (The original version of this file used
//! `proptest`; this environment has no external crates, so the drawing is
//! done with the repo's own [`SplitMix64`] — failures print the offending
//! case, which is reproducible by construction.)

use std::sync::Arc;

use rtas::algorithms::{LogLogLe, LogStarLe, SpaceEfficientRatRace};
use rtas::primitives::{RoleLeaderElect, Splitter, SplitterObject, TwoProcessLe};
use rtas::sim::adversary::{ObliviousAdversary, RandomSchedule};
use rtas::sim::executor::Execution;
use rtas::sim::memory::Memory;
use rtas::sim::protocol::{ret, Protocol};
use rtas::sim::rng::SplitMix64;
use rtas::sim::schedule::Schedule;
use rtas::sim::word::ProcessId;
use rtas_lowerbound::recurrence::{closed_form_f, f_sequence, next_f};

/// Deterministic case generator: `count` draws from a per-test stream.
fn cases(test_tag: u64, count: u64) -> impl Iterator<Item = SplitMix64> {
    (0..count).map(move |i| SplitMix64::split(0x70_70_70 ^ test_tag, i))
}

#[test]
fn two_process_le_unique_winner() {
    for mut draw in cases(1, 48) {
        let seed = draw.next_u64();
        let sched_seed = draw.next_u64();
        let mut mem = Memory::new();
        let le = TwoProcessLe::new(&mut mem, "2le");
        let protos: Vec<Box<dyn Protocol>> = vec![le.elect_as(0), le.elect_as(1)];
        let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(sched_seed));
        assert!(res.all_finished(), "seed={seed}");
        assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1, "seed={seed}");
    }
}

#[test]
fn splitter_properties_any_contention() {
    for mut draw in cases(2, 48) {
        let k = 1 + draw.next_below(11) as usize;
        let seed = draw.next_u64();
        let mut mem = Memory::new();
        let sp = Splitter::new(&mut mem, "sp");
        let protos: Vec<Box<dyn Protocol>> = (0..k).map(|_| sp.split()).collect();
        let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed ^ 1));
        assert!(res.all_finished(), "k={k} seed={seed}");
        let outs: Vec<u64> = (0..k).map(|i| res.outcome(ProcessId(i)).unwrap()).collect();
        let stops = outs.iter().filter(|&&o| o == ret::SPLIT_STOP).count();
        let lefts = outs.iter().filter(|&&o| o == ret::SPLIT_LEFT).count();
        let rights = outs.iter().filter(|&&o| o == ret::SPLIT_RIGHT).count();
        assert!(stops <= 1, "k={k} seed={seed}");
        assert!(lefts < k, "k={k} seed={seed}");
        assert!(rights < k, "k={k} seed={seed}");
        if k == 1 {
            assert_eq!(stops, 1, "seed={seed}");
        }
    }
}

/// Uniqueness of the winner for a leader-election constructor under random
/// oblivious schedules, across drawn `(k, seed)` configurations.
fn assert_unique_winner<F>(test_tag: u64, count: u64, max_k: u64, build: F)
where
    F: Fn(&mut Memory, usize) -> Arc<dyn rtas::primitives::LeaderElect>,
{
    for mut draw in cases(test_tag, count) {
        let k = 1 + draw.next_below(max_k) as usize;
        let seed = draw.next_u64();
        let mut mem = Memory::new();
        let le = build(&mut mem, k);
        let protos: Vec<Box<dyn Protocol>> = (0..k).map(|_| le.elect()).collect();
        let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed ^ 3));
        assert!(res.all_finished(), "k={k} seed={seed}");
        assert_eq!(
            res.processes_with_outcome(ret::WIN).len(),
            1,
            "k={k} seed={seed}"
        );
    }
}

#[test]
fn logstar_unique_winner() {
    assert_unique_winner(3, 48, 13, |mem, k| Arc::new(LogStarLe::new(mem, k)));
}

#[test]
fn loglog_unique_winner() {
    assert_unique_winner(4, 48, 11, |mem, k| Arc::new(LogLogLe::new(mem, k)));
}

#[test]
fn ratrace_unique_winner() {
    assert_unique_winner(5, 48, 11, |mem, k| {
        Arc::new(SpaceEfficientRatRace::new(mem, k))
    });
}

#[test]
fn arbitrary_schedule_prefix_never_two_winners() {
    // Truncated oblivious schedules crash processes mid-protocol; at most
    // one winner may exist among those that finished.
    for mut draw in cases(6, 48) {
        let k = 2 + draw.next_below(6) as usize;
        let seed = draw.next_u64();
        let len = draw.next_below(300) as usize;
        let mut mem = Memory::new();
        let le = SpaceEfficientRatRace::new(&mut mem, k);
        let protos: Vec<Box<dyn Protocol>> = (0..k).map(|_| le.elect()).collect();
        let mut rng = SplitMix64::new(seed);
        let schedule = Schedule::uniform_random(k, len, &mut rng);
        let mut adv = ObliviousAdversary::new(schedule);
        let res = Execution::new(mem, protos, seed).run(&mut adv);
        assert!(
            res.processes_with_outcome(ret::WIN).len() <= 1,
            "k={k} seed={seed} len={len}"
        );
    }
}

#[test]
fn recurrence_closed_form_agree() {
    for mut draw in cases(7, 48) {
        let exp = 3 + draw.next_below(9) as u32;
        let n = 1u64 << exp;
        let k = draw.next_below(64) % n;
        let seq = f_sequence(n);
        assert_eq!(seq[k as usize], closed_form_f(n, k), "n={n} k={k}");
    }
}

#[test]
fn recurrence_step_is_contractive() {
    // f(k+1) = f(k) − ⌊f(k)/gap⌋ + 1 never increases by more than 1.
    for mut draw in cases(8, 48) {
        let f_k = 1 + draw.next_below(1_000_000);
        let gap = 1 + draw.next_below(999);
        let next = next_f(f_k, gap);
        assert!(next <= f_k + 1, "f_k={f_k} gap={gap}");
    }
}

#[test]
fn schedule_generators_are_well_formed() {
    for mut draw in cases(9, 48) {
        let n = 1 + draw.next_below(8) as usize;
        let len = draw.next_below(200) as usize;
        let seed = draw.next_u64();
        let mut rng = SplitMix64::new(seed);
        let s = Schedule::uniform_random(n, len, &mut rng);
        assert_eq!(s.len(), len);
        assert!(s.steps().iter().all(|p| p.index() < n));
        let rr = Schedule::round_robin(n, 3);
        assert_eq!(rr.len(), 3 * n);
    }
}

#[test]
fn pending_view_never_leaks_beyond_class() {
    // Capability enforcement is by construction: every pending operation
    // an adversary sees goes through `PendingView::filtered`. Draw random
    // operations and check, for all four classes, that exactly the
    // class's fields are populated and nothing else leaks.
    use rtas::sim::adversary::{AdversaryClass, PendingView};
    use rtas::sim::op::{MemOp, OpKind};
    use rtas::sim::word::RegId;

    for mut draw in cases(11, 200) {
        let reg = RegId(draw.next_below(1 << 20));
        let value = draw.next_u64();
        let op = if draw.next_below(2) == 0 {
            MemOp::Read(reg)
        } else {
            MemOp::Write(reg, value)
        };
        let is_write = op.kind() == OpKind::Write;

        let obl = PendingView::filtered(op, AdversaryClass::Oblivious);
        assert_eq!(obl, PendingView::default(), "oblivious must see nothing");

        let rw = PendingView::filtered(op, AdversaryClass::RwOblivious);
        assert_eq!(rw.reg, Some(reg), "rw-oblivious sees the register");
        assert_eq!(rw.kind, None, "rw-oblivious must not see the kind");
        assert_eq!(rw.write_value, None, "rw-oblivious must not see values");

        let loc = PendingView::filtered(op, AdversaryClass::LocationOblivious);
        assert_eq!(loc.kind, Some(op.kind()), "location-oblivious sees kind");
        assert_eq!(loc.reg, None, "location-oblivious must not see registers");
        assert_eq!(
            loc.write_value,
            is_write.then_some(value),
            "location-oblivious sees write values only for writes"
        );

        let ad = PendingView::filtered(op, AdversaryClass::Adaptive);
        assert_eq!(ad.kind, Some(op.kind()));
        assert_eq!(ad.reg, Some(reg));
        assert_eq!(ad.write_value, is_write.then_some(value));
    }
}

#[test]
fn executor_view_filters_like_pending_view() {
    // End to end: a strategy of each class observing live pending ops
    // through the executor's view sees exactly the filtered projection.
    use rtas::sim::adversary::{AdversaryClass, FnAdversary, PendingView};
    use rtas::sim::op::OpKind;

    for (class, tag) in [
        (AdversaryClass::Oblivious, 12u64),
        (AdversaryClass::RwOblivious, 13),
        (AdversaryClass::LocationOblivious, 14),
        (AdversaryClass::Adaptive, 15),
    ] {
        for mut draw in cases(tag, 8) {
            let k = 2 + draw.next_below(5) as usize;
            let seed = draw.next_u64();
            let mut mem = Memory::new();
            let le = SpaceEfficientRatRace::new(&mut mem, k);
            let protos: Vec<Box<dyn Protocol>> = (0..k).map(|_| le.elect()).collect();
            let mut rng = SplitMix64::new(seed);
            let mut adv = FnAdversary::new(class, move |view: &rtas::sim::adversary::View<'_>| {
                for pid in view.active() {
                    let pv: PendingView = view.pending(pid).expect("active implies poised");
                    match class {
                        AdversaryClass::Oblivious => assert_eq!(pv, PendingView::default()),
                        AdversaryClass::RwOblivious => {
                            assert!(pv.kind.is_none() && pv.write_value.is_none());
                            assert!(pv.reg.is_some());
                        }
                        AdversaryClass::LocationOblivious => {
                            assert!(pv.reg.is_none());
                            assert!(pv.kind.is_some());
                            if pv.kind == Some(OpKind::Read) {
                                assert!(pv.write_value.is_none());
                            }
                        }
                        AdversaryClass::Adaptive => {
                            assert!(pv.kind.is_some() && pv.reg.is_some());
                        }
                    }
                }
                let active = view.active();
                if active.is_empty() {
                    None
                } else {
                    Some(active[rng.next_below(active.len() as u64) as usize])
                }
            });
            let res = Execution::new(mem, protos, seed).run(&mut adv);
            assert!(res.all_finished(), "class {class:?} seed={seed}");
        }
    }
}

#[test]
fn combined_unique_winner() {
    // Heavier cases, fewer iterations.
    use rtas::algorithms::Combined;
    for mut draw in cases(10, 12) {
        let k = 1 + draw.next_below(7) as usize;
        let seed = draw.next_u64();
        let mut mem = Memory::new();
        let weak = Arc::new(LogStarLe::new(&mut mem, k));
        let le = Combined::new(&mut mem, weak, k);
        let protos: Vec<Box<dyn Protocol>> = (0..k).map(|_| le.elect()).collect();
        let res = Execution::new(mem, protos, seed).run(&mut RandomSchedule::new(seed ^ 11));
        assert!(res.all_finished(), "k={k} seed={seed}");
        assert_eq!(
            res.processes_with_outcome(ret::WIN).len(),
            1,
            "k={k} seed={seed}"
        );
    }
}
