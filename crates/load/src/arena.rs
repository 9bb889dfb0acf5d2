//! The sharded arena: a fixed pool of recyclable native TAS objects.
//!
//! The paper's objects are one-shot — `capacity` participants, one call
//! each, exactly one winner. A load harness wants *sustained* traffic,
//! so the arena recycles a fixed pool instead of constructing a fresh
//! object per resolution:
//!
//! * **Shards** — `shards` independent [`TestAndSet`] instances, each in
//!   its own register block and cache-line padded, so resolutions on
//!   different shards never false-share.
//! * **Recycling** — as a [`LoadTarget`] the arena is pure transport:
//!   [`LoadTarget::acquire`] is one `test_and_set` and
//!   [`LoadTarget::recycle`] is the allocation-free
//!   [`TestAndSet::reset`]. The driver's epoch turn (see
//!   [`crate::driver`]) decides which call recycles and publishes the
//!   reset to the next epoch's participants through a release/acquire
//!   epoch counter — the quiescence contract of
//!   [`rtas::native::NativeMemory::reset`] discharged by construction.
//!
//! The steady-state path allocates nothing: the [`NativeRunner`] runs
//! each operation's protocol frame on the worker's stack.

use rtas::native::NativeRunner;
use rtas::sync::CachePadded;
use rtas::{Backend, TestAndSet};

use crate::driver::LoadTarget;

/// A sharded pool of recyclable [`TestAndSet`] objects.
///
/// See the [module docs](self) for how the pool is recycled.
#[derive(Debug)]
pub struct TasArena {
    shards: Vec<CachePadded<TestAndSet>>,
    group: usize,
    backend: Backend,
}

impl TasArena {
    /// An arena of `shards` independent TAS objects, each sized for
    /// `group` participants per epoch.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `group == 0`.
    pub fn new(backend: Backend, shards: usize, group: usize) -> Self {
        assert!(shards >= 1, "arena needs at least one shard");
        assert!(group >= 1, "arena needs at least one participant per epoch");
        let shards = (0..shards)
            .map(|_| CachePadded(TestAndSet::with_backend(backend, group)))
            .collect();
        TasArena {
            shards,
            group,
            backend,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Participants per epoch (the capacity of each pooled object).
    pub fn group(&self) -> usize {
        self.group
    }

    /// The backend every pooled object runs.
    pub fn backend(&self) -> Backend {
        self.backend
    }
}

impl LoadTarget for TasArena {
    type Ctx = NativeRunner;

    fn context(&self) -> NativeRunner {
        NativeRunner::new()
    }

    fn acquire(&self, runner: &mut NativeRunner, shard: usize) -> bool {
        !self.shards[shard].0.test_and_set_with(runner)
    }

    fn recycle(&self, _runner: &mut NativeRunner, shard: usize, _epoch: u64) {
        self.shards[shard].0.reset();
    }

    fn registers(&self) -> u64 {
        self.shards.iter().map(|s| s.0.registers()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_arena_recycles_across_epochs() {
        let arena = TasArena::new(Backend::LogStar, 2, 1);
        let mut runner = arena.context();
        for epoch in 0..200 {
            for shard in 0..2 {
                assert!(
                    arena.acquire(&mut runner, shard),
                    "group of one always wins (shard {shard}, epoch {epoch})"
                );
                arena.recycle(&mut runner, shard, epoch);
            }
        }
        assert_eq!(arena.group(), 1);
        assert_eq!(arena.shards(), 2);
        assert!(arena.registers() > 0);
    }

    #[test]
    fn recycle_reopens_a_resolved_shard() {
        let arena = TasArena::new(Backend::Combined, 2, 2);
        let mut runner = arena.context();
        assert!(arena.acquire(&mut runner, 0));
        assert!(!arena.acquire(&mut runner, 0), "one winner per epoch");
        // Shard 1 is a separate object: untouched by shard 0's epoch.
        assert!(arena.acquire(&mut runner, 1));
        arena.recycle(&mut runner, 0, 0);
        assert!(arena.acquire(&mut runner, 0), "the reset reopened shard 0");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = TasArena::new(Backend::LogStar, 0, 1);
    }
}
