//! Protocols as resumable state machines.
//!
//! An algorithm for one process is a [`Protocol`]: a state machine that the
//! per-process runtime drives by calling [`Protocol::resume`]. Each call
//! either requests one shared-memory operation ([`Poll::Op`]) or
//! terminates with a result ([`Poll::Done`]).
//!
//! The paper's objects are built from smaller objects (group elections
//! inside leader-election ladders inside combiners). Each object's
//! operation is a [`Frame`]: a plain state machine that is resumed with a
//! borrowed reference to its object and holds the frames of the
//! sub-objects it is currently running *by value*. A composite frame
//! forwards each resume to its active child and, when the child finishes,
//! continues with the child's result in the same call (see
//! [`ready!`](crate::ready!)).
//! A whole operation is therefore one value on the caller's stack: the
//! native runtime drives it without allocating, and [`Bound`] packages a
//! frame with an owned handle to its object as the boxed, `'static`
//! protocol the simulator runs.
//!
//! Local computation and coin flips happen *inside* `resume`, between
//! shared-memory steps. After `resume` returns `Poll::Op`, the process is
//! *poised* on that committed operation; the adversary observes a filtered
//! view of it (see [`crate::adversary`]) before deciding who runs. This is
//! exactly the visibility structure the paper's adversary definitions
//! require: a location-oblivious adversary sees the pending operation's type
//! and write value but not its register, an R/W-oblivious adversary sees the
//! register but not the type.

use std::borrow::Borrow;

use crate::op::MemOp;
use crate::rng::Randomness;
use crate::word::{ProcessId, Word};

/// Return conventions used by protocols, as `Word` values.
///
/// Leader election: `WIN`/`LOSE`. Splitters: `SPLIT_STOP`/`SPLIT_LEFT`/
/// `SPLIT_RIGHT`. TAS: `0` (won, old bit was 0) / `1`.
pub mod ret {
    use crate::word::Word;

    /// The process won (elect() returned true).
    pub const WIN: Word = 1;
    /// The process lost (elect() returned false).
    pub const LOSE: Word = 0;
    /// split() returned S (the process won the splitter).
    pub const SPLIT_STOP: Word = 0;
    /// split() returned L.
    pub const SPLIT_LEFT: Word = 1;
    /// split() returned R.
    pub const SPLIT_RIGHT: Word = 2;
}

/// What a protocol does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// Perform one shared-memory operation; its result arrives in the next
    /// [`Resume`].
    Op(MemOp),
    /// The protocol finished with this result.
    Done(Word),
}

/// The event a protocol is resumed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// First activation of the protocol.
    Start,
    /// The read requested by the previous `Poll::Op` returned this value.
    Read(Word),
    /// The write requested by the previous `Poll::Op` completed.
    Wrote,
}

impl Resume {
    /// Extract the read value.
    ///
    /// # Panics
    ///
    /// Panics if this is not [`Resume::Read`] — protocols use this when
    /// their state machine knows a read must be pending.
    #[inline]
    pub fn read_value(self) -> Word {
        match self {
            Resume::Read(v) => v,
            other => panic!("expected Resume::Read, got {other:?}"),
        }
    }
}

/// Resume a child frame from inside a parent's `resume`: an operation the
/// child requests is returned from the enclosing function as the parent's
/// own, and a finished child evaluates to its result word.
///
/// ```
/// use rtas_sim::prelude::*;
/// use rtas_sim::ready;
///
/// /// Runs its child, then adds 10 to the child's result.
/// struct AddTen(Const);
/// impl Protocol for AddTen {
///     fn resume(&mut self, input: Resume, ctx: &mut Ctx<'_>) -> Poll {
///         Poll::Done(ready!(self.0.resume(input, ctx)) + 10)
///     }
/// }
/// # let mut rng = SplitMix64::new(0);
/// # let mut notes = Notes::default();
/// # let mut ctx = Ctx { pid: ProcessId(0), rng: &mut rng, notes: &mut notes };
/// assert_eq!(AddTen(Const(5)).resume(Resume::Start, &mut ctx), Poll::Done(15));
/// ```
#[macro_export]
macro_rules! ready {
    ($poll:expr) => {
        match $poll {
            $crate::protocol::Poll::Op(op) => return $crate::protocol::Poll::Op(op),
            $crate::protocol::Poll::Done(value) => value,
        }
    };
}

/// Per-process scratch flags shared between composed protocols.
///
/// Section 4's combiner needs to know whether the RatRace side has already
/// won a splitter (Rule 3); the RatRace protocol raises
/// [`Notes::won_splitter`] and the combiner reads it. Keeping this in the
/// process context avoids plumbing side channels through every layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Notes {
    /// Set by RatRace-style protocols when the process wins any
    /// (deterministic or randomized) splitter.
    pub won_splitter: bool,
}

/// Execution context handed to [`Protocol::resume`]: the process identity,
/// its private coin-flip source, and scratch notes.
pub struct Ctx<'a> {
    /// The process running this protocol.
    pub pid: ProcessId,
    /// Private random source (local coin flips). A [`crate::rng::SplitMix64`]
    /// in normal executions, a scripted source under the explorer.
    pub rng: &'a mut dyn Randomness,
    /// Cross-protocol scratch flags for this process.
    pub notes: &'a mut Notes,
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("pid", &self.pid)
            .field("notes", &self.notes)
            .finish()
    }
}

/// A resumable, per-process state machine.
///
/// Implementations must be deterministic given the `Resume` inputs and the
/// coin flips drawn from `ctx.rng`; all inter-process communication goes
/// through `Poll::Op` operations. This is what makes executions replayable
/// and exhaustively explorable.
pub trait Protocol: Send {
    /// Advance the state machine.
    ///
    /// The first call passes [`Resume::Start`]; afterwards the runtime
    /// passes the event corresponding to the previous [`Poll::Op`].
    fn resume(&mut self, input: Resume, ctx: &mut Ctx<'_>) -> Poll;
}

impl<P: Protocol + ?Sized> Protocol for Box<P> {
    fn resume(&mut self, input: Resume, ctx: &mut Ctx<'_>) -> Poll {
        (**self).resume(input, ctx)
    }
}

/// One operation on a shared object, as a state machine that borrows the
/// object on every resume instead of owning a handle to it.
///
/// Same contract as [`Protocol::resume`]; `object` must be the same object
/// on every call of one operation.
pub trait Frame: Send {
    /// The object this frame operates on.
    type Object: ?Sized;

    /// Advance the state machine.
    fn resume(&mut self, object: &Self::Object, input: Resume, ctx: &mut Ctx<'_>) -> Poll;
}

/// A [`Frame`] together with a handle to its object: a [`Protocol`].
///
/// With an owned handle (a descriptor or a cheaply cloned structure) this
/// is the `'static` boxed protocol the simulator runs; with a plain
/// reference it is the borrowed protocol the native runtime drives in
/// place.
#[derive(Debug, Clone)]
pub struct Bound<H, F> {
    object: H,
    frame: F,
}

impl<H, F> Bound<H, F> {
    /// Run `frame` against `object`.
    pub fn new(object: H, frame: F) -> Self {
        Bound { object, frame }
    }
}

impl<H, F> Protocol for Bound<H, F>
where
    F: Frame,
    H: Borrow<F::Object> + Send,
{
    #[inline]
    fn resume(&mut self, input: Resume, ctx: &mut Ctx<'_>) -> Poll {
        self.frame.resume(self.object.borrow(), input, ctx)
    }
}

/// A protocol that immediately finishes with a constant value.
///
/// Used for the "dummy" group elections of Theorem 2.3 (everyone gets
/// elected, zero registers, zero steps) and as a test fixture.
#[derive(Debug, Clone, Copy)]
pub struct Const(pub Word);

impl Protocol for Const {
    fn resume(&mut self, _input: Resume, _ctx: &mut Ctx<'_>) -> Poll {
        Poll::Done(self.0)
    }
}

/// Boxed protocol constructor helpers.
pub fn boxed<P: Protocol + 'static>(p: P) -> Box<dyn Protocol> {
    Box::new(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::RegId;

    fn with_ctx<T>(f: impl FnOnce(&mut Ctx<'_>) -> T) -> T {
        let mut rng = crate::rng::SplitMix64::new(0);
        let mut notes = Notes::default();
        f(&mut Ctx {
            pid: ProcessId(0),
            rng: &mut rng,
            notes: &mut notes,
        })
    }

    #[test]
    fn resume_accessors() {
        assert_eq!(Resume::Read(5).read_value(), 5);
    }

    #[test]
    #[should_panic(expected = "expected Resume::Read")]
    fn read_value_panics_on_wrong_variant() {
        Resume::Wrote.read_value();
    }

    #[test]
    fn const_protocol_finishes_immediately() {
        let poll = with_ctx(|ctx| Const(9).resume(Resume::Start, ctx));
        assert_eq!(poll, Poll::Done(9));
    }

    /// Writes 7 to its register, then returns what it reads back.
    #[derive(Default)]
    struct WriteRead(u8);

    impl Frame for WriteRead {
        type Object = RegId;

        fn resume(&mut self, reg: &RegId, input: Resume, _ctx: &mut Ctx<'_>) -> Poll {
            self.0 += 1;
            match self.0 {
                1 => Poll::Op(MemOp::Write(*reg, 7)),
                2 => Poll::Op(MemOp::Read(*reg)),
                _ => Poll::Done(input.read_value()),
            }
        }
    }

    /// Runs a `WriteRead` child on each of its two registers in turn and
    /// returns the sum of their results.
    #[derive(Default)]
    struct Both {
        child: WriteRead,
        index: usize,
        sum: Word,
    }

    impl Frame for Both {
        type Object = [RegId; 2];

        fn resume(&mut self, regs: &[RegId; 2], mut input: Resume, ctx: &mut Ctx<'_>) -> Poll {
            loop {
                self.sum += ready!(self.child.resume(&regs[self.index], input, ctx));
                if self.index == 1 {
                    return Poll::Done(self.sum);
                }
                self.index = 1;
                self.child = WriteRead::default();
                input = Resume::Start;
            }
        }
    }

    #[test]
    fn composite_frames_forward_child_ops_and_continue_with_results() {
        let regs = [RegId(3), RegId(4)];
        let mut protocol = Bound::new(regs, Both::default());
        let polls: Vec<Poll> = with_ctx(|ctx| {
            [
                Resume::Start,
                Resume::Wrote,
                Resume::Read(7),
                Resume::Wrote,
                Resume::Read(8),
            ]
            .into_iter()
            .map(|input| protocol.resume(input, ctx))
            .collect()
        });
        assert_eq!(
            polls,
            [
                Poll::Op(MemOp::Write(regs[0], 7)),
                Poll::Op(MemOp::Read(regs[0])),
                Poll::Op(MemOp::Write(regs[1], 7)),
                Poll::Op(MemOp::Read(regs[1])),
                Poll::Done(15),
            ]
        );
    }

    #[test]
    fn bound_frames_run_boxed_or_borrowing() {
        let reg = RegId(0);
        let mut boxed: Box<dyn Protocol> = Box::new(Bound::new(reg, WriteRead::default()));
        let mut borrowing = Bound::new(&reg, WriteRead::default());
        with_ctx(|ctx| {
            for input in [Resume::Start, Resume::Wrote, Resume::Read(7)] {
                assert_eq!(boxed.resume(input, ctx), borrowing.resume(input, ctx));
            }
        });
    }

    #[test]
    fn poll_debug_is_informative() {
        assert_eq!(
            format!("{:?}", Poll::Op(MemOp::Read(RegId(1)))),
            "Op(Read(r1))"
        );
        assert_eq!(format!("{:?}", Poll::Done(3)), "Done(3)");
    }
}
