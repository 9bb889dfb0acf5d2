//! # rtas-primitives — the paper's building blocks
//!
//! Shared-object primitives used by every leader-election algorithm in
//! Giakkoupis & Woelfel (PODC 2012), each implemented from O(1) atomic
//! registers on the [`rtas_sim`] machine:
//!
//! * [`splitter`] — the deterministic splitter of Moir & Anderson: of `k`
//!   callers at most one gets `S` (stop), at most `k−1` get `L`, at most
//!   `k−1` get `R`; a solo caller gets `S`.
//! * [`rsplitter`] — the randomized splitter of Attiya et al.: at most one
//!   `S`, a solo caller gets `S`, and a non-`S` result is an independent
//!   fair coin in `{L, R}`.
//! * [`two_process`] — a randomized 2-process leader election with constant
//!   expected step complexity against the adaptive adversary (the role the
//!   paper assigns to Tromp–Vitányi 2002; see DESIGN.md §3 for the
//!   substitution note). Safety is verified exhaustively in the tests.
//! * [`three_process`] — the 3-process leader election used at RatRace tree
//!   nodes, built from two 2-process elections.
//! * [`tas_from_le`] — the standard construction of a linearizable one-shot
//!   test-and-set from a leader-election object plus one extra register.
//!
//! All objects follow the same pattern: a small, copyable *descriptor*
//! holds the register ids (allocated from a [`rtas_sim::memory::Memory`]),
//! and one operation is a [`rtas_sim::protocol::Frame`] (`SplitFrame`,
//! `TwoProcessFrame`, …) resumed against a borrowed descriptor. Composite
//! objects hold these frames by value; a method such as `split()` or
//! `elect_as(role)` boxes one with a copy of the descriptor as the
//! [`rtas_sim::protocol::Protocol`] a simulated process runs.
//!
//! ```
//! use rtas_primitives::{RoleLeaderElect, TwoProcessLe};
//! use rtas_sim::prelude::*;
//! use rtas_sim::protocol::ret;
//!
//! let mut mem = Memory::new();
//! let le = TwoProcessLe::new(&mut mem, "demo");
//! let protos = vec![le.elect_as(0), le.elect_as(1)];
//! let res = Execution::new(mem, protos, 42).run(&mut RandomSchedule::new(7));
//! assert_eq!(res.processes_with_outcome(ret::WIN).len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod object;
pub mod rsplitter;
pub mod splitter;
pub mod tas_from_le;
pub mod three_process;
pub mod two_process;

pub use object::{Elect, LeaderElect, RoleLeaderElect, SplitterObject};
pub use rsplitter::{RSplitFrame, RSplitter};
pub use splitter::{SplitFrame, Splitter};
pub use tas_from_le::{TasFrame, TasFromLe};
pub use three_process::{ThreeProcessFrame, ThreeProcessLe};
pub use two_process::{TwoProcessFrame, TwoProcessLe};
