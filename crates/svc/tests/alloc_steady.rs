//! Allocation accounting for the namespace's steady-state op path.
//!
//! The service claim is "zero steady-state allocations": once a key
//! exists, the acquire → finish → reset cycle through the keyed namespace
//! allocates nothing at all. Two checks pin it: the absolute count is 0,
//! and the namespace allocates exactly as much as driving the bare
//! recyclable object does — i.e. the namespace machinery (shard lookup,
//! `Arc` clone, epoch gate, counters) adds *zero* allocations on top of
//! the protocol runs. Both sides draw the same deterministic per-(slot,
//! epoch) coin streams, so their allocation counts are comparable
//! exactly, not just bounded.
//!
//! Everything runs in ONE test function: the default test harness runs
//! `#[test]` functions concurrently, and a second thread would pollute
//! the global counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rtas::native::NativeRunner;
use rtas::{Backend, TestAndSet};
use rtas_svc::{Kind, Namespace};

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

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn namespace_steady_state_adds_zero_allocations_over_the_bare_object() {
    let epochs = 100u64;
    let backend = Backend::LogStar;

    // --- Baseline: the bare recyclable object, epoch after epoch. ---
    let bare = TestAndSet::with_backend(backend, 1);
    let mut runner = NativeRunner::new();
    for _ in 0..10 {
        assert!(!bare.test_and_set_with(&mut runner));
        bare.reset();
    }
    let before = allocations();
    for _ in 0..epochs {
        assert!(!bare.test_and_set_with(&mut runner));
        bare.reset();
    }
    let bare_allocs = allocations() - before;

    // --- The same traffic through the keyed namespace. ---
    let ns = Namespace::new(backend, 4, 1);
    let key = b"steady/key";
    // Warmup: create the key, fault in the map, runner buffer, etc.
    for _ in 0..10 {
        assert!(ns.acquire(Kind::Tas, key, &mut runner).unwrap().won);
        ns.reset(key).unwrap();
    }
    let before = allocations();
    for _ in 0..epochs {
        assert!(ns.acquire(Kind::Tas, key, &mut runner).unwrap().won);
        ns.reset(key).unwrap();
    }
    let ns_allocs = allocations() - before;

    assert_eq!(
        ns_allocs, 0,
        "a served TAS + RESET allocated {ns_allocs} times over {epochs} epochs"
    );
    assert_eq!(
        ns_allocs, bare_allocs,
        "the keyed-namespace op path must add zero steady-state \
         allocations over the bare object's protocol runs \
         (namespace: {ns_allocs}, bare: {bare_allocs}, over {epochs} epochs)"
    );

    // And recycling must beat rebuilding, as for the load arena.
    let before = allocations();
    let fresh = TestAndSet::with_backend(backend, 1);
    let construction = allocations() - before;
    assert!(!fresh.test_and_set());
    assert!(
        ns_allocs / epochs < construction,
        "recycling ({} allocs/epoch) must beat rebuilding \
         ({construction} allocs/object)",
        ns_allocs / epochs
    );
}
