//! Zero-allocation pin for the native operation path.
//!
//! A counting global allocator (this test binary only) checks that once an
//! object exists, `TestAndSet::test_and_set_with`,
//! `LeaderElection::elect_with` and both `reset`s allocate nothing, for
//! every backend at capacity 2 and 64. Each epoch runs every participation
//! slot, one after another, so winners and losers both take their paths.
//!
//! Everything runs in ONE test function: the default test harness runs
//! `#[test]` functions concurrently, and a second thread would pollute
//! the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rtas::native::NativeRunner;
use rtas::{Backend, LeaderElection, TestAndSet};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made while running `op`.
fn allocations<T>(op: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = op();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

const BACKENDS: [Backend; 4] = [
    Backend::LogStar,
    Backend::LogLog,
    Backend::RatRace,
    Backend::Combined,
];

#[test]
fn warm_native_ops_and_resets_allocate_nothing() {
    for backend in BACKENDS {
        for capacity in [2, 64] {
            let tas = TestAndSet::with_backend(backend, capacity);
            let le = LeaderElection::with_backend(backend, capacity);
            let mut runner = NativeRunner::new();
            for epoch in 0..8 {
                let warm = epoch >= 2;
                let mut total = 0;
                for slot in 0..capacity {
                    let (set, n) = allocations(|| tas.test_and_set_with(&mut runner));
                    assert_eq!(set, slot > 0, "{backend:?}/{capacity} epoch {epoch}");
                    total += n;
                    let (won, n) = allocations(|| le.elect_with(&mut runner));
                    assert_eq!(won, slot == 0, "{backend:?}/{capacity} epoch {epoch}");
                    total += n;
                }
                total += allocations(|| tas.reset()).1;
                total += allocations(|| le.reset()).1;
                if warm {
                    assert_eq!(
                        total, 0,
                        "{backend:?} at capacity {capacity} allocated {total} times \
                         in warm epoch {epoch}"
                    );
                }
            }
        }
    }
}
