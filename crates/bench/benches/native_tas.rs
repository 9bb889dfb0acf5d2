//! Wall-clock benches for the native (real-atomics) objects.
//!
//! Measures the cost of a full test-and-set *resolution* with `k`
//! concurrent threads per backend — the "would you actually use this"
//! numbers. Operations go through the `rtas-load` sharded arena: one
//! pool of objects is built per configuration and recycled by epoch
//! across every sample, so the timed section contains resolution cost
//! only — not the construction of a fresh `TestAndSet` per iteration
//! (which used to dominate and made the old numbers constructor
//! benchmarks in disguise).
//!
//! The solo rows time the other half of the ladder's native-resolve rung:
//! one thread, one object, `test_and_set_with` then `reset`, so each row
//! is the uncontended cost of a resolution plus its O(1) recycle.

use std::sync::Arc;

use rtas::native::NativeRunner;
use rtas::{Backend, TestAndSet};
use rtas_bench::microbench::Micro;
use rtas_load::driver::{run_load_on, LoadSpec, Mode, Warmup};
use rtas_load::TasArena;

/// Epochs per timed sample: enough to amortize thread spawn/join out of
/// the per-resolution figure.
const EPOCHS_PER_SAMPLE: u64 = 200;

fn bench_backend(micro: &Micro, backend: Backend, threads: usize) {
    // One shard, all threads in its group: the maximal-contention
    // resolution the old bench was after. The arena (and its registers)
    // lives across all samples; only epochs advance.
    let arena = Arc::new(TasArena::new(backend, 1, threads));
    let spec = LoadSpec {
        backend,
        threads,
        shards: 1,
        mode: Mode::Closed {
            total_ops: EPOCHS_PER_SAMPLE * threads as u64,
        },
        seed: 0,
        churn: None,
        warmup: Warmup::None,
        pipeline: 1,
        conns: None,
    };
    micro.bench(
        &format!("{backend:?}/{threads}thr x{EPOCHS_PER_SAMPLE}res"),
        |_| {
            let out = run_load_on(&arena, spec);
            assert_eq!(
                out.total_wins(),
                EPOCHS_PER_SAMPLE,
                "exactly one winner per resolution"
            );
            out.total_ops()
        },
    );
}

/// Solo test-and-set + reset pairs per timed sample.
const SOLO_OPS_PER_SAMPLE: u64 = 10_000;

fn bench_solo(micro: &Micro, backend: Backend, capacity: usize) {
    let tas = TestAndSet::with_backend(backend, capacity);
    let mut runner = NativeRunner::new();
    micro.bench(
        &format!("{backend:?}/solo/cap{capacity} x{SOLO_OPS_PER_SAMPLE}op"),
        |_| {
            for _ in 0..SOLO_OPS_PER_SAMPLE {
                assert!(!tas.test_and_set_with(&mut runner), "a solo caller wins");
                tas.reset();
            }
        },
    );
}

fn main() {
    let micro = Micro::from_env();
    micro.group("native-tas solo (per-sample: 10000 test_and_set_with + reset, one thread)");
    for capacity in [2usize, 64] {
        for backend in [
            Backend::LogStar,
            Backend::LogLog,
            Backend::RatRace,
            Backend::Combined,
        ] {
            bench_solo(&micro, backend, capacity);
        }
    }
    micro.group("native-tas (per-sample: 200 arena resolutions, objects recycled not rebuilt)");
    for threads in [2usize, 4, 8] {
        for backend in [Backend::LogStar, Backend::RatRace, Backend::Combined] {
            bench_backend(&micro, backend, threads);
        }
    }
}
