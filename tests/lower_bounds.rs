//! Integration: lower-bound machinery against the real implementations.

use rtas::algorithms::{LogLogLe, LogStarLe, SpaceEfficientRatRace};
use rtas::primitives::{RoleLeaderElect, TwoProcessLe};
use rtas::sim::memory::Memory;
use rtas::sim::protocol::Protocol;
use rtas_lowerbound::covering::covering_base_case;
use rtas_lowerbound::recurrence::{closed_form_f, f_sequence, register_lower_bound};
use rtas_lowerbound::yao::schedule_tail_probabilities;

#[test]
fn covering_base_case_holds_for_every_algorithm() {
    // Lemma 5.4 base case: all n processes can be brought to cover
    // registers with nothing visible. True for each implementation.
    let n = 8usize;
    type System = (&'static str, Memory, Vec<Box<dyn Protocol>>);
    let systems: Vec<System> = vec![
        {
            let mut mem = Memory::new();
            let le = LogStarLe::new(&mut mem, n);
            let protos = (0..n).map(|_| le.elect()).collect();
            ("logstar", mem, protos)
        },
        {
            let mut mem = Memory::new();
            let le = LogLogLe::new(&mut mem, n);
            let protos = (0..n).map(|_| le.elect()).collect();
            ("loglog", mem, protos)
        },
        {
            let mut mem = Memory::new();
            let le = SpaceEfficientRatRace::new(&mut mem, n);
            let protos = (0..n).map(|_| le.elect()).collect();
            ("ratrace", mem, protos)
        },
    ];
    for (name, mem, protos) in systems {
        let report = covering_base_case(mem, protos, 11);
        assert!(
            report.all_cover(),
            "{name}: only {}/{} processes cover",
            report.covering_processes,
            report.processes
        );
    }
}

#[test]
fn recurrence_theorem_values() {
    // f(n−4) = 4(log₂ n − 1) for every power of two up to 2^22.
    for exp in 3..=22u32 {
        let n = 1u64 << exp;
        assert_eq!(closed_form_f(n, n - 4), 4 * (exp as u64 - 1));
    }
    // And the recurrence agrees with the closed form en masse.
    let n = 1u64 << 12;
    let seq = f_sequence(n);
    for k in (0..n).step_by(97) {
        assert_eq!(seq[k as usize], closed_form_f(n, k));
    }
}

#[test]
fn register_lower_bound_monotone() {
    let mut prev = 0;
    for exp in 3..=24u32 {
        let bound = register_lower_bound(1 << exp);
        assert!(bound >= prev);
        prev = bound;
    }
}

#[test]
fn theorem_6_1_tail_bound_empirical() {
    for t in [3usize, 5, 6] {
        let report = schedule_tail_probabilities(t, 40, 99, || {
            let mut mem = Memory::new();
            let le = TwoProcessLe::new(&mut mem, "2le");
            (mem, vec![le.elect_as(0), le.elect_as(1)])
        });
        assert!(
            report.meets_bound(),
            "t={t}: {} < {}",
            report.max_tail,
            report.bound
        );
        assert!(report.mean_tail <= report.max_tail);
    }
}
