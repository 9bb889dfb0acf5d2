//! Executing protocol state machines on real atomic registers.

use std::sync::atomic::{AtomicU64, Ordering};

use rtas_sim::memory::Memory;
use rtas_sim::op::MemOp;
use rtas_sim::protocol::{Ctx, Notes, Poll, Protocol, Resume};
use rtas_sim::rng::SplitMix64;
use rtas_sim::word::{ProcessId, RegId, Word};

/// A block of real atomic registers mirroring a simulator memory layout.
///
/// Register ids handed out by the simulator allocation (dense region ids
/// `0..n`) index directly into the atomic array. Lazily allocated
/// (`alloc_lazy`) regions are not supported natively — materializing
/// Θ(n³) atomics is exactly what the paper's space-efficient structures
/// avoid.
///
/// Every register word carries the object's epoch tag in its high
/// [`TAG_BITS`] bits and the register value in the low 48 bits. A word
/// whose tag is not the current one was written in an earlier epoch and
/// reads as 0, so [`NativeMemory::reset`] recycles the whole block by
/// bumping one counter instead of storing to every register.
#[derive(Debug)]
pub struct NativeMemory {
    regs: Vec<AtomicU64>,
    /// Number of resets since construction; its low [`TAG_BITS`] bits
    /// are the tag every current-epoch word carries.
    ///
    /// `read` and `write` load it `Relaxed`, and [`NativeRunner::run`]
    /// loads it once per operation. That is enough because the reset
    /// contract already orders it: a reset happens-before the next
    /// epoch's first operation (the load driver's epoch turn, the `svc`
    /// namespace gate and the benchmark's lockstep all publish it
    /// through a release/acquire epoch counter), and no reset runs while an
    /// operation is in flight. So every operation of an epoch sees the
    /// same, latest value of this counter, from its first step to its
    /// last.
    epoch: AtomicU64,
}

/// Bits of a register word that hold the epoch tag.
pub const TAG_BITS: u32 = 16;

/// Bits of a register word that hold the register value.
const VALUE_BITS: u32 = 64 - TAG_BITS;

const VALUE_MASK: Word = (1 << VALUE_BITS) - 1;

/// The tag bits, in place, that words written in epoch `epoch` carry.
#[inline]
fn tag_bits(epoch: u64) -> Word {
    epoch << VALUE_BITS
}

impl NativeMemory {
    /// Mirror the dense registers of a simulator [`Memory`].
    ///
    /// Build the object descriptors against a fresh `Memory` (which hands
    /// out the register ids and tracks the space accounting), then call
    /// this to obtain the real registers those descriptors will operate
    /// on.
    ///
    /// # Panics
    ///
    /// Panics if `layout` contains lazily allocated regions.
    pub fn from_layout(layout: &Memory) -> Self {
        assert_eq!(
            layout.declared_registers(),
            layout.dense_registers(),
            "native execution does not support lazy register regions"
        );
        let n = layout.dense_registers();
        let regs = (0..n).map(|_| AtomicU64::new(0)).collect();
        NativeMemory {
            regs,
            epoch: AtomicU64::new(0),
        }
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Whether the memory has no registers.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    #[inline]
    fn reg(&self, id: RegId) -> &AtomicU64 {
        assert!(!id.is_lazy(), "lazy register {id:?} in native execution");
        &self.regs[id.0 as usize]
    }

    /// Number of resets since construction (0 for a fresh memory).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Atomic read (sequentially consistent). A register not yet written
    /// in the current epoch reads as 0.
    #[inline]
    pub fn read(&self, id: RegId) -> Word {
        self.read_tagged(id, tag_bits(self.epoch()))
    }

    /// Atomic write (sequentially consistent), tagged with the current
    /// epoch.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in the word's low 48 bits: it
    /// would spill into the tag and read back as 0.
    #[inline]
    pub fn write(&self, id: RegId, value: Word) {
        self.write_tagged(id, value, tag_bits(self.epoch()))
    }

    /// [`NativeMemory::read`] in the epoch whose in-place tag is `tag`.
    #[inline]
    fn read_tagged(&self, id: RegId, tag: Word) -> Word {
        // The tag bits cancel only on a word of this epoch.
        let word = self.reg(id).load(Ordering::SeqCst) ^ tag;
        if word <= VALUE_MASK {
            word
        } else {
            0
        }
    }

    /// [`NativeMemory::write`] in the epoch whose in-place tag is `tag`.
    #[inline]
    fn write_tagged(&self, id: RegId, value: Word, tag: Word) {
        assert!(
            value <= VALUE_MASK,
            "native register value {value} does not fit in {VALUE_BITS} bits"
        );
        self.reg(id).store(tag | value, Ordering::SeqCst)
    }

    /// Return every register to 0 — the object's initial state — in O(1)
    /// and without allocating.
    ///
    /// The paper's objects are one-shot, but their *memory* is not:
    /// every protocol assumes only that all registers start at 0, so
    /// a block that reads all-zero is a pristine pre-first-op object and
    /// a fixed pool of objects can be recycled epoch after epoch instead
    /// of reallocated per resolution (see `rtas_load::driver`).
    ///
    /// The reset bumps the epoch counter, which retires every word's tag
    /// at once. When the tag wraps to 0, once every `1 << TAG_BITS`
    /// resets, it also stores 0 to every register, so words written
    /// `1 << TAG_BITS` epochs ago cannot come back to life.
    ///
    /// Takes `&self` (the registers are atomics), but the caller must
    /// guarantee *quiescence*: no `elect`/`test_and_set` call may be in
    /// flight on this memory, and the reset must happen-before the next
    /// epoch's first operation (the load driver's epoch turn publishes
    /// it through a release/acquire epoch counter). A reset that races a live
    /// operation is not memory-unsafe, only semantically meaningless.
    pub fn reset(&self) {
        let next = self.epoch.fetch_add(1, Ordering::SeqCst).wrapping_add(1);
        if tag_bits(next) == 0 {
            for reg in &self.regs {
                reg.store(0, Ordering::SeqCst);
            }
        }
    }
}

/// The per-thread handle that runs protocols on real atomics.
///
/// [`NativeRunner::run`] drives the protocol it is given in place, on the
/// calling thread's stack: each `Poll::Op` becomes one sequentially
/// consistent load or store, and nothing is allocated along the way. The
/// memory's epoch tag is loaded once per operation, under the reset
/// contract of [`NativeMemory::reset`]. A runner holds no state, so
/// building one is free; operations take it by `&mut` so a worker thread
/// can thread one handle through all of its calls.
#[derive(Debug, Default)]
pub struct NativeRunner {
    _private: (),
}

impl NativeRunner {
    /// A runner; building one costs nothing.
    pub fn new() -> Self {
        NativeRunner::default()
    }

    /// Run `protocol` to completion on the calling thread.
    ///
    /// `participant` is the logical process id (used for splitter
    /// identity stamps); `seed` seeds the thread's private coin flips.
    /// Returns the protocol's result word.
    ///
    /// Pass a [`rtas_sim::protocol::Bound`] frame borrowing its object to
    /// run without allocating; a boxed protocol works too.
    ///
    /// `memory` must not be reset while the operation runs (see
    /// [`NativeMemory::reset`]); debug builds panic if it was.
    pub fn run<P: Protocol>(
        &mut self,
        mut protocol: P,
        memory: &NativeMemory,
        participant: usize,
        seed: u64,
    ) -> Word {
        let mut rng = SplitMix64::split(seed, participant as u64 ^ 0x5eed_f00d);
        let mut notes = Notes::default();
        let mut ctx = Ctx {
            pid: ProcessId(participant),
            rng: &mut rng,
            notes: &mut notes,
        };
        // The reset contract keeps the epoch fixed for the whole
        // operation, so its tag is loaded once here, not once per step.
        let epoch = memory.epoch();
        let tag = tag_bits(epoch);
        let mut input = Resume::Start;
        loop {
            input = match protocol.resume(input, &mut ctx) {
                Poll::Done(v) => {
                    debug_assert_eq!(
                        memory.epoch(),
                        epoch,
                        "the memory was reset while an operation was in flight"
                    );
                    return v;
                }
                Poll::Op(MemOp::Read(r)) => Resume::Read(memory.read_tagged(r, tag)),
                Poll::Op(MemOp::Write(r, v)) => {
                    memory.write_tagged(r, v, tag);
                    Resume::Wrote
                }
            };
        }
    }
}

/// Run a protocol to completion on the calling thread.
///
/// Same as [`NativeRunner::run`] on a fresh runner.
pub fn run_protocol<P: Protocol>(
    protocol: P,
    memory: &NativeMemory,
    participant: usize,
    seed: u64,
) -> Word {
    NativeRunner::new().run(protocol, memory, participant, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_sim::memory::RegRange;

    struct WriteThenRead {
        reg: RegId,
        state: u8,
    }

    impl Protocol for WriteThenRead {
        fn resume(&mut self, input: Resume, _ctx: &mut Ctx<'_>) -> Poll {
            match self.state {
                0 => {
                    self.state = 1;
                    Poll::Op(MemOp::Write(self.reg, 41))
                }
                1 => {
                    self.state = 2;
                    Poll::Op(MemOp::Read(self.reg))
                }
                _ => Poll::Done(input.read_value() + 1),
            }
        }
    }

    #[test]
    fn runs_simple_protocol_on_atomics() {
        let mut layout = Memory::new();
        let reg = layout.alloc(1, "t").get(0);
        let shared = NativeMemory::from_layout(&layout);
        let out = run_protocol(Box::new(WriteThenRead { reg, state: 0 }), &shared, 0, 1);
        assert_eq!(out, 42);
        assert_eq!(shared.read(reg), 41);
        assert_eq!(shared.len(), 1);
        assert!(!shared.is_empty());
    }

    #[test]
    #[should_panic(expected = "lazy register regions")]
    fn lazy_layout_rejected() {
        let mut layout = Memory::new();
        let _ = layout.alloc_lazy(100, "big");
        let _ = NativeMemory::from_layout(&layout);
    }

    #[test]
    fn reset_zeroes_every_register() {
        let mut layout = Memory::new();
        let regs = layout.alloc(5, "t");
        let shared = NativeMemory::from_layout(&layout);
        for (i, reg) in regs.iter().enumerate() {
            shared.write(reg, i as Word + 10);
        }
        shared.reset();
        for reg in regs.iter() {
            assert_eq!(shared.read(reg), 0);
        }
    }

    #[test]
    fn reset_is_one_counter_bump_until_the_tag_wraps() {
        let mut layout = Memory::new();
        let reg = layout.alloc(1, "t").get(0);
        let shared = NativeMemory::from_layout(&layout);
        shared.write(reg, 7);
        shared.reset();
        assert_eq!(shared.epoch(), 1);
        // The stale word is still stored; only its tag retires it.
        assert_eq!(shared.regs[0].load(Ordering::SeqCst), 7);
        assert_eq!(shared.read(reg), 0);
        for _ in 1..(1u64 << TAG_BITS) - 1 {
            shared.reset();
        }
        shared.write(reg, 9);
        shared.reset();
        assert_eq!(shared.epoch(), 1 << TAG_BITS);
        assert_eq!(shared.regs[0].load(Ordering::SeqCst), 0, "wrap sweeps");
        assert_eq!(shared.read(reg), 0);
    }

    #[test]
    fn largest_value_round_trips() {
        let mut layout = Memory::new();
        let reg = layout.alloc(1, "t").get(0);
        let shared = NativeMemory::from_layout(&layout);
        shared.reset();
        shared.write(reg, VALUE_MASK);
        assert_eq!(shared.read(reg), VALUE_MASK);
    }

    #[test]
    #[should_panic(expected = "native register value 281474976710656 does not fit")]
    fn value_spilling_into_the_tag_panics() {
        let mut layout = Memory::new();
        let reg = layout.alloc(1, "t").get(0);
        let shared = NativeMemory::from_layout(&layout);
        shared.write(reg, 1 << VALUE_BITS);
    }

    /// Sums every register it reads, then writes `i + 1` to register `i`;
    /// returns the sum.
    struct SumThenFill {
        regs: RegRange,
        next: u64,
        sum: Word,
    }

    impl SumThenFill {
        fn new(regs: RegRange) -> Self {
            SumThenFill {
                regs,
                next: 0,
                sum: 0,
            }
        }
    }

    impl Protocol for SumThenFill {
        fn resume(&mut self, input: Resume, _ctx: &mut Ctx<'_>) -> Poll {
            let len = self.regs.len();
            if let Resume::Read(v) = input {
                self.sum += v;
            }
            let i = self.next;
            self.next += 1;
            if i < len {
                Poll::Op(MemOp::Read(self.regs.get(i)))
            } else if i < 2 * len {
                Poll::Op(MemOp::Write(self.regs.get(i - len), i - len + 1))
            } else {
                Poll::Done(self.sum)
            }
        }
    }

    #[test]
    fn runner_tag_survives_the_wrap() {
        let mut layout = Memory::new();
        let regs = layout.alloc(4, "t");
        let shared = NativeMemory::from_layout(&layout);
        let fresh = NativeMemory::from_layout(&layout);
        let mut runner = NativeRunner::new();
        let mut run =
            |regs, memory: &NativeMemory| runner.run(SumThenFill::new(regs), memory, 0, 1);
        // Epoch 0 leaves words in all four registers whose tag comes back
        // at epoch 2^16; the last epoch before the wrap rewrites only two.
        assert_eq!(run(regs, &shared), 0);
        for _ in 1..(1u64 << TAG_BITS) {
            shared.reset();
        }
        assert_eq!(shared.epoch(), (1 << TAG_BITS) - 1);
        let half = regs.sub(0, 2);
        assert_eq!(run(half, &shared), 0, "a new epoch starts at 0");
        assert_eq!(run(half, &shared), 1 + 2, "an op reads its epoch's words");
        shared.reset();
        assert_eq!(shared.epoch(), 1 << TAG_BITS);
        let expected = run(regs, &fresh);
        assert_eq!(expected, 0);
        assert_eq!(
            run(regs, &shared),
            expected,
            "after the wrap an op reads only zeros"
        );
        assert_eq!(run(regs, &shared), run(regs, &fresh));
        for reg in regs.iter() {
            assert_eq!(shared.read(reg), fresh.read(reg));
        }
    }

    /// Breaks the reset contract: resets its own memory mid-operation.
    struct ResetMidOp<'a> {
        memory: &'a NativeMemory,
        reg: RegId,
        wrote: bool,
    }

    impl Protocol for ResetMidOp<'_> {
        fn resume(&mut self, _input: Resume, _ctx: &mut Ctx<'_>) -> Poll {
            if self.wrote {
                self.memory.reset();
                return Poll::Done(0);
            }
            self.wrote = true;
            Poll::Op(MemOp::Write(self.reg, 1))
        }
    }

    #[test]
    fn a_reset_racing_a_live_op_panics_in_debug_builds() {
        let mut layout = Memory::new();
        let reg = layout.alloc(1, "t").get(0);
        let shared = NativeMemory::from_layout(&layout);
        let racing = ResetMidOp {
            memory: &shared,
            reg,
            wrote: false,
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_protocol(racing, &shared, 0, 1)
        }));
        assert_eq!(caught.is_err(), cfg!(debug_assertions));
    }

    #[test]
    fn runner_reuse_matches_fresh_runs() {
        let mut layout = Memory::new();
        let reg = layout.alloc(1, "t").get(0);
        let shared = NativeMemory::from_layout(&layout);
        let mut runner = NativeRunner::new();
        for epoch in 0..100 {
            let out = runner.run(Box::new(WriteThenRead { reg, state: 0 }), &shared, 0, epoch);
            assert_eq!(out, 42, "epoch {epoch}");
            assert_eq!(shared.read(reg), 41);
            shared.reset();
            assert_eq!(shared.read(reg), 0);
        }
    }
}
