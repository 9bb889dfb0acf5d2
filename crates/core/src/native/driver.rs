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
    /// `read` and `write` load it `Relaxed`. That is enough because the
    /// reset contract already orders it: a reset happens-before the next
    /// epoch's first operation (the load driver's epoch turn, the `svc`
    /// namespace gate and the benchmark's lockstep all publish it
    /// through a release/acquire epoch counter), and no reset runs while an
    /// operation is in flight. So every operation of an epoch sees the
    /// same, latest value of this counter.
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
        let word = self.reg(id).load(Ordering::SeqCst);
        if word & !VALUE_MASK == tag_bits(self.epoch()) {
            word & VALUE_MASK
        } else {
            0
        }
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
        assert!(
            value <= VALUE_MASK,
            "native register value {value} does not fit in {VALUE_BITS} bits"
        );
        self.reg(id)
            .store(tag_bits(self.epoch()) | value, Ordering::SeqCst)
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
/// consistent load or store, and nothing is allocated along the way. A
/// runner holds no state, so building one is free; operations take it by
/// `&mut` so a worker thread can thread one handle through all of its
/// calls.
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
        let mut input = Resume::Start;
        loop {
            input = match protocol.resume(input, &mut ctx) {
                Poll::Done(v) => return v,
                Poll::Op(MemOp::Read(r)) => Resume::Read(memory.read(r)),
                Poll::Op(MemOp::Write(r, v)) => {
                    memory.write(r, v);
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
